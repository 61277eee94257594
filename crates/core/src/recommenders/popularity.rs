//! Global-popularity baseline — the head-serving strawman.
//!
//! Ranks every user's recommendations by raw training popularity (rating
//! count), ignoring the user entirely. This is the baseline the paper's
//! long-tail argument is built *against* (§1: "the head of the
//! distribution is what everyone already serves"), which is exactly what
//! makes it useful operationally: it needs no per-user graph work, cannot
//! panic on a malformed walk, and is always available. The serving engine
//! registers it as the **degraded-mode fallback** — when a long-tail
//! model's circuit breaker is open or its retries are exhausted, serving
//! the popularity head (flagged degraded) is the availability floor.

use crate::recommenders::rated_row;
use crate::{RecommendOptions, Recommender, ScoredItem, ScoringContext};
use longtail_data::Dataset;
use longtail_graph::CsrMatrix;

/// Most-popular-first recommendation: item score = training rating count.
///
/// Items nobody rated score `-∞` (the head strawman never surfaces them);
/// ties resolve by ascending item id, consistently with every other
/// recommender.
#[derive(Debug, Clone)]
pub struct PopularityRecommender {
    user_items: CsrMatrix,
    /// Per-item training rating counts.
    counts: Vec<u32>,
    /// Rated items sorted by (count desc, id asc) — the fused path walks
    /// this precomputed order and stops as soon as the collector is full.
    by_popularity: Vec<u32>,
}

impl PopularityRecommender {
    /// Count item popularity over the training data.
    pub fn train(train: &Dataset) -> Self {
        let counts = train.item_popularity();
        let mut by_popularity: Vec<u32> = (0..counts.len() as u32)
            .filter(|&i| counts[i as usize] > 0)
            .collect();
        by_popularity.sort_by(|&a, &b| counts[b as usize].cmp(&counts[a as usize]).then(a.cmp(&b)));
        Self {
            user_items: train.user_items().clone(),
            counts,
            by_popularity,
        }
    }

    /// Training matrix (the snapshot save path persists it).
    pub(crate) fn user_items(&self) -> &CsrMatrix {
        &self.user_items
    }

    /// The training rating count of `item`.
    pub fn popularity_of(&self, item: u32) -> u32 {
        self.counts[item as usize]
    }

    /// Whether `user` is in the training data; a user outside it is
    /// recommended nothing.
    fn knows(&self, user: u32) -> bool {
        (user as usize) < self.user_items.rows()
    }
}

impl Recommender for PopularityRecommender {
    fn name(&self) -> &'static str {
        "POP"
    }

    fn score_into(&self, user: u32, _ctx: &mut ScoringContext, out: &mut Vec<f64>) {
        // User-independent: the same popularity vector answers every user
        // in the training data.
        let known = self.knows(user);
        out.clear();
        out.extend(self.counts.iter().map(|&c| {
            if known && c > 0 {
                c as f64
            } else {
                f64::NEG_INFINITY
            }
        }));
    }

    fn recommend_into(
        &self,
        user: u32,
        k: usize,
        opts: &RecommendOptions<'_>,
        ctx: &mut ScoringContext,
        out: &mut Vec<ScoredItem>,
    ) {
        // Fused: walk the precomputed (count desc, id asc) order and stop at
        // the first candidate the collector would reject — everything after
        // it is weaker under the same order, so the early exit is exact.
        ctx.topk.reset(opts.fetch(k));
        let rated = self.rated_items(user);
        let candidates = if self.knows(user) {
            &self.by_popularity[..]
        } else {
            &[]
        };
        for &i in candidates {
            let score = self.counts[i as usize] as f64;
            if !ctx.topk.would_accept(i, score) {
                break;
            }
            if rated.binary_search(&i).is_err() && !opts.is_excluded(i) {
                ctx.topk.push(i, score);
            }
        }
        ctx.topk.drain_sorted_into(out);
        opts.finalize_topk(k, ctx, out);
    }

    fn rated_items(&self, user: u32) -> &[u32] {
        rated_row(&self.user_items, user)
    }

    fn n_items(&self) -> usize {
        self.counts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::top_k;
    use longtail_data::Rating;

    fn corpus() -> Dataset {
        // Item 0 rated 3x, item 1 rated 2x, item 2 rated 1x, item 3 never.
        let ratings = [
            (0, 0, 5.0),
            (1, 0, 4.0),
            (2, 0, 3.0),
            (0, 1, 5.0),
            (1, 1, 4.0),
            (2, 2, 2.0),
        ]
        .map(|(user, item, value)| Rating { user, item, value });
        Dataset::from_ratings(3, 4, &ratings)
    }

    #[test]
    fn ranks_by_global_popularity() {
        let rec = PopularityRecommender::train(&corpus());
        assert_eq!(rec.popularity_of(0), 3);
        assert_eq!(rec.popularity_of(3), 0);
        // User 2 rated items 0 and 2: the head of what remains is item 1.
        let top = rec.recommend(2, 4);
        assert_eq!(top.iter().map(|s| s.item).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn unrated_items_are_never_recommended() {
        let rec = PopularityRecommender::train(&corpus());
        let top = rec.recommend(0, 10);
        assert!(top.iter().all(|s| s.item != 3), "item 3 has no ratings");
    }

    #[test]
    fn fused_matches_score_then_sort() {
        let rec = PopularityRecommender::train(&corpus());
        let mut ctx = ScoringContext::new();
        let mut scores = Vec::new();
        let exclude = crate::ExclusionSet::new(vec![0]);
        let opts = RecommendOptions::excluding(&exclude);
        for user in 0..3u32 {
            for k in 0..5usize {
                let mut fused = Vec::new();
                rec.recommend_into(user, k, &opts, &mut ctx, &mut fused);
                rec.score_into(user, &mut ctx, &mut scores);
                let rated = rec.rated_items(user);
                let direct = top_k(&scores, k, |i| {
                    rated.binary_search(&i).is_ok() || opts.is_excluded(i)
                });
                assert_eq!(fused, direct, "user {user} k {k}");
            }
        }
    }
}
