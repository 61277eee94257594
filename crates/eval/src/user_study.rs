//! Simulated user study (§5.2.7, Table 6).
//!
//! The paper hires 50 movie-lovers who rate each recommendation on
//! Preference, Novelty, Serendipity and an overall Score. Human judges are
//! unavailable here, so the study is simulated against the synthetic
//! generator's ground truth instead:
//!
//! * **Preference (1–5)** — how well the item's genre matches the judge's
//!   latent taste vector (the quantity human judges report when asked "does
//!   this match your taste?");
//! * **Novelty (0/1)** — whether the judge had *not* heard of the item;
//!   exposure probability grows with item popularity, mirroring "I saw it
//!   on IMDB's top list";
//! * **Serendipity (1–5)** — preference gated by surprise: high only when
//!   the item fits *and* the judge didn't know it;
//! * **Score (1–5)** — overall value, a preference-dominated blend.

use crate::lists::RecommendationLists;
use longtail_core::Recommender;
use longtail_data::SyntheticData;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Mean judgments of a simulated study, one row of Table 6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudyResult {
    /// Mean taste-match rating, 1–5.
    pub preference: f64,
    /// Fraction of recommendations the judges had never heard of, 0–1.
    pub novelty: f64,
    /// Mean surprise rating, 1–5.
    pub serendipity: f64,
    /// Mean overall rating, 1–5.
    pub score: f64,
    /// Number of judged recommendations.
    pub n_judged: usize,
}

/// Configuration of the simulated study.
#[derive(Debug, Clone, Copy)]
pub struct StudyConfig {
    /// Number of judges (the paper hires 50).
    pub n_judges: usize,
    /// Recommendations shown per judge (the paper shows 10).
    pub k: usize,
    /// Popularity at which a judge has ~63 % probability of already knowing
    /// an item (the exposure scale; exposure = 1 - exp(-pop/scale)).
    pub exposure_scale: f64,
    /// RNG seed for judge sampling and exposure draws.
    pub seed: u64,
}

impl Default for StudyConfig {
    fn default() -> Self {
        Self {
            n_judges: 50,
            k: 10,
            exposure_scale: 25.0,
            seed: 0x57d7,
        }
    }
}

/// Run the simulated study for one recommender.
///
/// Judges are drawn from the generator's users (most active first, like the
/// paper's movie-lovers); each receives `k` recommendations which are judged
/// against the generator's ground-truth tastes and popularity-driven
/// exposure.
pub fn simulate_study(
    recommender: &dyn Recommender,
    data: &SyntheticData,
    config: &StudyConfig,
) -> StudyResult {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let popularity = data.dataset.item_popularity();

    // Most-active users act as the movie-lover judges.
    let mut by_activity: Vec<u32> = (0..data.dataset.n_users() as u32).collect();
    let activity = data.dataset.user_activity();
    by_activity.sort_by_key(|&u| std::cmp::Reverse(activity[u as usize]));
    by_activity.truncate(config.n_judges);

    let lists = RecommendationLists::compute(recommender, &by_activity, config.k, 4);

    let mut pref_sum = 0.0;
    let mut novel_sum = 0.0;
    let mut seren_sum = 0.0;
    let mut score_sum = 0.0;
    let mut n = 0usize;
    for (idx, list) in lists.lists.iter().enumerate() {
        let judge = lists.users[idx];
        let taste = &data.user_tastes[judge as usize];
        let taste_max = taste.iter().copied().fold(f64::MIN, f64::max);
        for scored in list {
            let genre = data.item_genres[scored.item as usize] as usize;
            let affinity = taste[genre] / taste_max;
            let preference = 1.0 + 4.0 * affinity;

            let pop = popularity[scored.item as usize] as f64;
            let exposure = 1.0 - (-pop / config.exposure_scale).exp();
            let known = rng.random::<f64>() < exposure;
            let novelty = if known { 0.0 } else { 1.0 };

            // Surprise needs both fit and unfamiliarity.
            let serendipity = 1.0 + 4.0 * affinity * novelty;
            // Overall: users mostly want taste fit, with a serendipity bonus.
            let score = 0.75 * preference + 0.25 * serendipity;

            pref_sum += preference;
            novel_sum += novelty;
            seren_sum += serendipity;
            score_sum += score;
            n += 1;
        }
    }

    if n == 0 {
        return StudyResult {
            preference: 0.0,
            novelty: 0.0,
            serendipity: 0.0,
            score: 0.0,
            n_judged: 0,
        };
    }
    StudyResult {
        preference: pref_sum / n as f64,
        novelty: novel_sum / n as f64,
        serendipity: seren_sum / n as f64,
        score: score_sum / n as f64,
        n_judged: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use longtail_core::ScoredItem;
    use longtail_data::SyntheticConfig;

    /// Recommends a fixed item to everyone.
    struct Constant {
        item: u32,
        n_items: usize,
        empty: Vec<u32>,
    }

    impl Recommender for Constant {
        fn name(&self) -> &'static str {
            "const"
        }

        fn score_into(
            &self,
            _user: u32,
            _ctx: &mut longtail_core::ScoringContext,
            out: &mut Vec<f64>,
        ) {
            out.clear();
            out.extend((0..self.n_items as u32).map(|i| if i == self.item { 1.0 } else { 0.0 }));
        }

        fn rated_items(&self, _user: u32) -> &[u32] {
            &self.empty
        }

        fn n_items(&self) -> usize {
            self.n_items
        }

        fn recommend(&self, _user: u32, _k: usize) -> Vec<ScoredItem> {
            vec![ScoredItem {
                item: self.item,
                score: 1.0,
            }]
        }
    }

    fn data() -> SyntheticData {
        SyntheticData::generate(&SyntheticConfig {
            n_users: 120,
            n_items: 100,
            ..SyntheticConfig::movielens_like()
        })
    }

    #[test]
    fn popular_items_score_low_novelty() {
        let d = data();
        let pops = d.dataset.item_popularity();
        let most_popular = (0..pops.len()).max_by_key(|&i| pops[i]).unwrap() as u32;
        let least_popular = (0..pops.len())
            .filter(|&i| pops[i] > 0)
            .min_by_key(|&i| pops[i])
            .unwrap() as u32;
        let config = StudyConfig {
            n_judges: 30,
            ..StudyConfig::default()
        };
        let popular = simulate_study(
            &Constant {
                item: most_popular,
                n_items: 100,
                empty: vec![],
            },
            &d,
            &config,
        );
        let niche = simulate_study(
            &Constant {
                item: least_popular,
                n_items: 100,
                empty: vec![],
            },
            &d,
            &config,
        );
        assert!(
            niche.novelty > popular.novelty,
            "niche novelty {} should beat popular {}",
            niche.novelty,
            popular.novelty
        );
    }

    #[test]
    fn judgments_are_in_range() {
        let d = data();
        let r = simulate_study(
            &Constant {
                item: 0,
                n_items: 100,
                empty: vec![],
            },
            &d,
            &StudyConfig::default(),
        );
        assert!((1.0..=5.0).contains(&r.preference));
        assert!((0.0..=1.0).contains(&r.novelty));
        assert!((1.0..=5.0).contains(&r.serendipity));
        assert!((1.0..=5.0).contains(&r.score));
        assert!(r.n_judged > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = data();
        let rec = Constant {
            item: 3,
            n_items: 100,
            empty: vec![],
        };
        let a = simulate_study(&rec, &d, &StudyConfig::default());
        let b = simulate_study(&rec, &d, &StudyConfig::default());
        assert_eq!(a, b);
    }
}
