//! Synthetic rating datasets with a controlled long tail.
//!
//! The paper evaluates on MovieLens-1M and a private Douban crawl; neither
//! ships with this repository, so this module generates datasets that
//! stand in for them by reproducing the structural properties the
//! algorithms are sensitive to:
//!
//! * **power-law item popularity** — a Zipf profile per genre, so that the
//!   lowest-popularity ~2/3 of the catalog carries ~20 % of ratings, the
//!   tail shape of §5.1.2;
//! * **genre-structured co-rating** — users draw items through latent genre
//!   tastes (Dirichlet mixtures), so LDA recovers genre topics (Table 1) and
//!   entropy distinguishes specialists from omnivores (§4.2);
//! * **taste-correlated rating values** — 1–5 stars increasing in the
//!   user's affinity for the item's genre, so 5-star long-tail test ratings
//!   exist (the Recall@N protocol of §5.2.1);
//! * **ground truth** — each user's taste vector and each item's genre are
//!   returned, which is what the simulated user study (Table 6) judges
//!   against.

use crate::dataset::{Dataset, TimedRating};
use crate::sampling::{dirichlet, gaussian, power_law_integer, zipf_weights, Categorical};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configuration of the synthetic generator.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// Number of users.
    pub n_users: usize,
    /// Number of items.
    pub n_items: usize,
    /// Number of latent genres.
    pub n_genres: usize,
    /// Zipf exponent of within-genre item popularity (≈1 gives the classic
    /// long tail).
    pub zipf_exponent: f64,
    /// Dirichlet concentration of specialist users' tastes (small ⇒ sharp).
    pub taste_concentration: f64,
    /// Fraction of users with broad (omnivorous) tastes.
    pub generalist_fraction: f64,
    /// Minimum ratings per user.
    pub min_activity: usize,
    /// Maximum ratings per user.
    pub max_activity: usize,
    /// Power-law exponent of the user-activity distribution.
    pub activity_exponent: f64,
    /// Standard deviation of the rating-value noise (stars).
    pub rating_noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SyntheticConfig {
    /// A MovieLens-1M-like profile, scaled to laptop size: ~4 % dense,
    /// moderate tail (the paper reports 66 % of movies ⇒ 20 % of ratings).
    pub fn movielens_like() -> Self {
        Self {
            n_users: 900,
            n_items: 620,
            n_genres: 8,
            zipf_exponent: 1.7,
            taste_concentration: 0.25,
            generalist_fraction: 0.25,
            min_activity: 18,
            max_activity: 160,
            activity_exponent: 1.6,
            rating_noise: 0.7,
            seed: 0x11_1001,
        }
    }

    /// A Douban-books-like profile: larger catalog, much sparser matrix,
    /// heavier tail (73 % of books ⇒ 20 % of ratings in the paper).
    pub fn douban_like() -> Self {
        Self {
            n_users: 2200,
            n_items: 1800,
            n_genres: 12,
            zipf_exponent: 1.15,
            taste_concentration: 0.2,
            generalist_fraction: 0.2,
            min_activity: 4,
            max_activity: 90,
            activity_exponent: 1.9,
            rating_noise: 0.7,
            seed: 0xd0_baa2,
        }
    }

    /// Scale user and item counts by `factor` (activity bounds unchanged).
    ///
    /// # Panics
    ///
    /// Panics if the scaled dataset would be empty.
    pub fn scaled(mut self, factor: f64) -> Self {
        self.n_users = ((self.n_users as f64 * factor).round() as usize).max(1);
        self.n_items = ((self.n_items as f64 * factor).round() as usize).max(1);
        assert!(
            self.n_users > 0 && self.n_items > 0,
            "scaled dataset is empty"
        );
        self
    }
}

/// A generated dataset together with its generating ground truth.
#[derive(Debug, Clone)]
pub struct SyntheticData {
    /// The rating dataset.
    pub dataset: Dataset,
    /// Genre of each item.
    pub item_genres: Vec<u32>,
    /// Each user's latent taste distribution over genres (rows sum to 1).
    pub user_tastes: Vec<Vec<f64>>,
}

impl SyntheticData {
    /// Generate a dataset from `config`. Deterministic given the seed.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configs (zero users/items/genres, bad activity
    /// bounds).
    pub fn generate(config: &SyntheticConfig) -> Self {
        assert!(config.n_users > 0, "need at least one user");
        assert!(config.n_items > 0, "need at least one item");
        assert!(config.n_genres > 0, "need at least one genre");
        assert!(
            config.min_activity > 0 && config.min_activity <= config.max_activity,
            "invalid activity bounds"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Items round-robin over genres; the rank of an item inside its
        // genre sets its Zipf popularity weight.
        let n_genres = config.n_genres.min(config.n_items);
        let item_genres: Vec<u32> = (0..config.n_items).map(|i| (i % n_genres) as u32).collect();
        let mut genre_items: Vec<Vec<u32>> = vec![Vec::new(); n_genres];
        for (i, &g) in item_genres.iter().enumerate() {
            genre_items[g as usize].push(i as u32);
        }
        let genre_samplers: Vec<Categorical> = genre_items
            .iter()
            .map(|items| Categorical::new(&zipf_weights(items.len(), config.zipf_exponent)))
            .collect();

        // User tastes: a specialist majority plus an omnivorous minority —
        // this spread is exactly what user entropy (Eq. 10-11) measures.
        let user_tastes: Vec<Vec<f64>> = (0..config.n_users)
            .map(|_| {
                let broad: f64 = rng.random();
                let alpha = if broad < config.generalist_fraction {
                    config.taste_concentration * 20.0
                } else {
                    config.taste_concentration
                };
                dirichlet(&mut rng, alpha, n_genres)
            })
            .collect();

        // Each rating is stamped with its generation-order index, giving the
        // temporal split and recency-decay paths a deterministic synthetic
        // timeline (later draws = fresher ratings).
        let mut ratings: Vec<TimedRating> = Vec::new();
        let mut rated = std::collections::HashSet::new();
        for (u, taste) in user_tastes.iter().enumerate() {
            let activity = power_law_integer(
                &mut rng,
                config.min_activity,
                config.max_activity.min(config.n_items),
                config.activity_exponent,
            );
            let taste_sampler = Categorical::new(taste);
            let taste_max = taste.iter().copied().fold(f64::MIN, f64::max);
            let mut placed = 0usize;
            let mut attempts = 0usize;
            while placed < activity && attempts < activity * 30 {
                attempts += 1;
                let g = taste_sampler.sample(&mut rng);
                let items = &genre_items[g];
                if items.is_empty() {
                    continue;
                }
                let item = items[genre_samplers[g].sample(&mut rng)];
                if !rated.insert((u as u32, item)) {
                    continue;
                }
                // Star value rises with the user's affinity for the genre:
                // favorite-genre items land at 4-5 stars, foreign ones 1-3.
                let affinity = taste[g] / taste_max;
                let raw = 2.6 + 2.2 * affinity + config.rating_noise * gaussian(&mut rng);
                let value = raw.round().clamp(1.0, 5.0);
                ratings.push(TimedRating {
                    user: u as u32,
                    item,
                    value,
                    timestamp: ratings.len() as f64,
                });
                placed += 1;
            }
        }

        Self {
            dataset: Dataset::from_timed_ratings(config.n_users, config.n_items, &ratings),
            item_genres,
            user_tastes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::longtail::LongTailSplit;

    fn small_config() -> SyntheticConfig {
        SyntheticConfig {
            n_users: 150,
            n_items: 120,
            ..SyntheticConfig::movielens_like()
        }
    }

    #[test]
    fn shapes_match_config() {
        let data = SyntheticData::generate(&small_config());
        assert_eq!(data.dataset.n_users(), 150);
        assert_eq!(data.dataset.n_items(), 120);
        assert_eq!(data.item_genres.len(), 120);
        assert_eq!(data.user_tastes.len(), 150);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = SyntheticData::generate(&small_config());
        let b = SyntheticData::generate(&small_config());
        assert_eq!(a.dataset.user_items(), b.dataset.user_items());
        assert_eq!(a.item_genres, b.item_genres);
    }

    #[test]
    fn different_seeds_differ() {
        let mut config = small_config();
        let a = SyntheticData::generate(&config);
        config.seed += 1;
        let b = SyntheticData::generate(&config);
        assert_ne!(a.dataset.user_items(), b.dataset.user_items());
    }

    #[test]
    fn ratings_are_one_to_five_stars() {
        let data = SyntheticData::generate(&small_config());
        for r in data.dataset.to_ratings() {
            assert!((1.0..=5.0).contains(&r.value));
            assert_eq!(r.value, r.value.round());
        }
    }

    #[test]
    fn popularity_is_long_tailed() {
        let data = SyntheticData::generate(&SyntheticConfig::movielens_like());
        let pops = data.dataset.item_popularity();
        let split = LongTailSplit::by_rating_share(&pops, 0.2);
        // The paper observes 66 % (MovieLens) and 73 % (Douban) of items in
        // the 20 %-of-ratings tail; the generator must land in that regime.
        let frac = split.tail_item_fraction();
        assert!(
            (0.5..=0.85).contains(&frac),
            "tail item fraction {frac} outside the long-tail regime"
        );
    }

    #[test]
    fn douban_profile_is_sparser_than_movielens() {
        let ml = SyntheticData::generate(&SyntheticConfig::movielens_like());
        let db = SyntheticData::generate(&SyntheticConfig::douban_like());
        assert!(db.dataset.density() < ml.dataset.density() / 2.0);
    }

    #[test]
    fn users_prefer_their_top_genre() {
        let data = SyntheticData::generate(&small_config());
        // Aggregate over users: ratings on the user's favourite genre must
        // average higher stars than ratings elsewhere.
        let mut fav_sum = 0.0;
        let mut fav_n = 0usize;
        let mut other_sum = 0.0;
        let mut other_n = 0usize;
        for u in 0..data.dataset.n_users() as u32 {
            let taste = &data.user_tastes[u as usize];
            let fav = taste
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0 as u32;
            for (i, v) in data.dataset.ratings_of(u) {
                if data.item_genres[i as usize] == fav {
                    fav_sum += v;
                    fav_n += 1;
                } else {
                    other_sum += v;
                    other_n += 1;
                }
            }
        }
        let fav_mean = fav_sum / fav_n.max(1) as f64;
        let other_mean = other_sum / other_n.max(1) as f64;
        assert!(
            fav_mean > other_mean + 0.3,
            "favourite-genre mean {fav_mean} vs other {other_mean}"
        );
    }

    #[test]
    fn five_star_tail_ratings_exist() {
        // The Recall@N protocol needs held-out 5-star ratings on tail items.
        let data = SyntheticData::generate(&SyntheticConfig::movielens_like());
        let pops = data.dataset.item_popularity();
        let split = LongTailSplit::by_rating_share(&pops, 0.2);
        let count = data
            .dataset
            .to_ratings()
            .iter()
            .filter(|r| r.value >= 5.0 && split.is_tail(r.item))
            .count();
        assert!(count > 100, "only {count} five-star tail ratings");
    }

    #[test]
    fn scaled_shrinks_both_dimensions() {
        let config = SyntheticConfig::movielens_like().scaled(0.1);
        assert_eq!(config.n_users, 90);
        assert_eq!(config.n_items, 62);
    }

    #[test]
    fn generated_datasets_carry_a_synthetic_timeline() {
        let data = SyntheticData::generate(&small_config());
        let times = data.dataset.times().expect("synthetic data is timed");
        // Stamps are the generation-order indices: distinct, non-negative,
        // bounded by the rating count.
        let n = data.dataset.n_ratings() as f64;
        let mut seen = Vec::new();
        for r in 0..times.rows() {
            let (_, vals) = times.row(r);
            for &t in vals {
                assert!(t >= 0.0 && t < n, "stamp {t} outside [0, {n})");
                seen.push(t);
            }
        }
        seen.sort_by(|a, b| a.partial_cmp(b).unwrap());
        seen.dedup();
        assert_eq!(seen.len(), data.dataset.n_ratings(), "stamps not distinct");
    }

    #[test]
    fn activity_respects_bounds() {
        let data = SyntheticData::generate(&small_config());
        let config = small_config();
        for a in data.dataset.user_activity() {
            assert!(a as usize <= config.max_activity);
        }
    }
}
