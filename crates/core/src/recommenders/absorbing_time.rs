//! AT — the Absorbing Time recommender (§4.1, Algorithm 1).
//!
//! Item-based refinement of HT: instead of walking to the query *user*, the
//! walk is absorbed by the query user's whole rated set `S_q`. Items have
//! more ratings than users on average, so anchoring on `S_q` exposes more
//! signal (the paper's Problem 3), and the paper finds AT beats HT on every
//! metric.

use crate::config::{GraphRecConfig, RecommendOptions};
use crate::context::ScoringContext;
use crate::walk_common::{Absorb, Walk};
use crate::{Recommender, ScoredItem};
use longtail_data::Dataset;
use longtail_graph::BipartiteGraph;

/// The item-based Absorbing Time recommender.
#[derive(Debug, Clone)]
pub struct AbsorbingTimeRecommender {
    graph: BipartiteGraph,
    config: GraphRecConfig,
}

impl AbsorbingTimeRecommender {
    /// Build from training data.
    pub fn new(train: &Dataset, config: GraphRecConfig) -> Self {
        Self {
            graph: train.to_graph(),
            config,
        }
    }

    /// The training graph.
    pub fn graph(&self) -> &BipartiteGraph {
        &self.graph
    }

    /// Training configuration (the snapshot save path persists it).
    pub(crate) fn config(&self) -> GraphRecConfig {
        self.config
    }

    /// Absorbing times of every item for `user` (lower = better), `+∞` for
    /// unreachable items. Exposed for tests and the µ-sweep experiment.
    pub fn absorbing_times(&self, user: u32) -> Vec<f64> {
        self.score_items(user).iter().map(|s| -s).collect()
    }

    /// The absorbing-time walk: absorbed at the user's rated set, unit
    /// steps.
    fn walk(&self) -> Walk<'_> {
        Walk {
            graph: &self.graph,
            config: self.config,
            absorb: Absorb::RatedItems,
            costs: None,
        }
    }
}

impl Recommender for AbsorbingTimeRecommender {
    fn name(&self) -> &'static str {
        "AT"
    }

    fn score_into(&self, user: u32, ctx: &mut ScoringContext, out: &mut Vec<f64>) {
        self.walk().score_into(user, ctx, out);
    }

    fn recommend_into(
        &self,
        user: u32,
        k: usize,
        opts: &RecommendOptions<'_>,
        ctx: &mut ScoringContext,
        out: &mut Vec<ScoredItem>,
    ) {
        self.walk().serve(user, k, opts, ctx, out);
    }

    fn rated_items(&self, user: u32) -> &[u32] {
        self.walk().rated_items(user)
    }

    fn n_items(&self) -> usize {
        self.graph.n_items()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use longtail_data::Rating;

    fn figure2() -> Dataset {
        let ratings = [
            (0, 0, 5.0),
            (0, 1, 3.0),
            (0, 4, 3.0),
            (0, 5, 5.0),
            (1, 0, 5.0),
            (1, 1, 4.0),
            (1, 2, 5.0),
            (1, 4, 4.0),
            (1, 5, 5.0),
            (2, 0, 4.0),
            (2, 1, 5.0),
            (2, 2, 4.0),
            (3, 2, 5.0),
            (3, 3, 5.0),
            (4, 1, 4.0),
            (4, 2, 5.0),
        ]
        .map(|(user, item, value)| Rating { user, item, value });
        Dataset::from_ratings(5, 6, &ratings)
    }

    #[test]
    fn niche_item_connected_through_rated_set_wins() {
        // U5's rated set is {M2, M3}; M4 hangs off M3 through U4 while
        // M1/M5/M6 sit in the dense popular cluster. AT must surface M4.
        let rec = AbsorbingTimeRecommender::new(
            &figure2(),
            GraphRecConfig {
                max_items: 6000,
                iterations: 30,
            },
        );
        let top = rec.recommend(4, 1);
        assert_eq!(top[0].item, 3, "expected M4, got {top:?}");
    }

    #[test]
    fn absorbing_items_never_reappear() {
        let rec = AbsorbingTimeRecommender::new(&figure2(), GraphRecConfig::default());
        let top = rec.recommend(4, 6);
        assert!(top.iter().all(|s| s.item != 1 && s.item != 2));
    }

    #[test]
    fn times_positive_for_candidates() {
        let rec = AbsorbingTimeRecommender::new(&figure2(), GraphRecConfig::default());
        let times = rec.absorbing_times(0);
        // Every unrated-but-reachable item has a strictly positive time.
        for (i, &t) in times.iter().enumerate() {
            if t.is_finite() && !rec.rated_items(0).contains(&(i as u32)) {
                assert!(t > 0.0, "item {i} has non-positive time {t}");
            }
        }
    }

    #[test]
    fn unrated_user_scores_nothing() {
        let ratings = [Rating {
            user: 0,
            item: 0,
            value: 5.0,
        }];
        let d = Dataset::from_ratings(2, 3, &ratings);
        let rec = AbsorbingTimeRecommender::new(&d, GraphRecConfig::default());
        assert!(rec.recommend(1, 3).is_empty());
    }

    #[test]
    fn more_iterations_refine_but_keep_order_stable() {
        let d = figure2();
        let short = AbsorbingTimeRecommender::new(
            &d,
            GraphRecConfig {
                max_items: 6000,
                iterations: 15,
            },
        );
        let long = AbsorbingTimeRecommender::new(
            &d,
            GraphRecConfig {
                max_items: 6000,
                iterations: 200,
            },
        );
        let a: Vec<u32> = short.recommend(4, 4).iter().map(|s| s.item).collect();
        let b: Vec<u32> = long.recommend(4, 4).iter().map(|s| s.item).collect();
        assert_eq!(a, b, "τ=15 ranking should already be stable");
    }
}
