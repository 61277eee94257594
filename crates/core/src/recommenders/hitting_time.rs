//! HT — the Hitting Time recommender (§3.3, the paper's basic solution).
//!
//! Ranks items by the expected number of random-walk steps from the item
//! node to the query-user node: `H(q|j)` small means `j` is both relevant to
//! `q` (many short paths) and unpopular (low stationary mass — Eq. 5 divides
//! by `π_j`). Computed as an absorbing walk with `S = {q}` on a BFS subgraph
//! around the query user.

use crate::config::{GraphRecConfig, RecommendOptions};
use crate::context::ScoringContext;
use crate::walk_common::{Absorb, Walk};
use crate::{Recommender, ScoredItem};
use longtail_data::Dataset;
use longtail_graph::BipartiteGraph;

/// The user-based Hitting Time recommender.
#[derive(Debug, Clone)]
pub struct HittingTimeRecommender {
    graph: BipartiteGraph,
    config: GraphRecConfig,
}

impl HittingTimeRecommender {
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

    /// The hitting-time walk: absorbed at the query user.
    fn walk(&self) -> Walk<'_> {
        Walk {
            graph: &self.graph,
            config: self.config,
            absorb: Absorb::User,
            costs: None,
        }
    }
}

impl Recommender for HittingTimeRecommender {
    fn name(&self) -> &'static str {
        "HT"
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

    /// The Figure 2 example dataset.
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
    fn recommends_niche_movie_m4_to_u5() {
        // §3.3's worked example: HT suggests the niche movie M4 to U5,
        // where classic CF would pick the locally popular M1.
        let rec = HittingTimeRecommender::new(
            &figure2(),
            GraphRecConfig {
                max_items: 6000,
                iterations: 60,
            },
        );
        let top = rec.recommend(4, 1);
        assert_eq!(top[0].item, 3, "expected M4 first, got {:?}", top);
    }

    #[test]
    fn full_ranking_matches_paper_order() {
        let rec = HittingTimeRecommender::new(
            &figure2(),
            GraphRecConfig {
                max_items: 6000,
                iterations: 60,
            },
        );
        let top = rec.recommend(4, 4);
        let order: Vec<u32> = top.iter().map(|s| s.item).collect();
        assert_eq!(order, vec![3, 0, 4, 5]); // M4, M1, M5, M6
    }

    #[test]
    fn rated_items_never_recommended() {
        let rec = HittingTimeRecommender::new(&figure2(), GraphRecConfig::default());
        let top = rec.recommend(4, 6);
        assert!(top.iter().all(|s| s.item != 1 && s.item != 2));
    }

    #[test]
    fn isolated_user_gets_nothing() {
        let ratings = [Rating {
            user: 0,
            item: 0,
            value: 5.0,
        }];
        let d = Dataset::from_ratings(2, 2, &ratings);
        let rec = HittingTimeRecommender::new(&d, GraphRecConfig::default());
        assert!(rec.recommend(1, 5).is_empty());
    }

    #[test]
    fn expired_deadline_cancels_the_serving_walk() {
        use crate::config::DpStopping;
        use std::time::{Duration, Instant};
        let rec = HittingTimeRecommender::new(
            &figure2(),
            GraphRecConfig {
                max_items: 6000,
                iterations: 200,
            },
        );
        let mut ctx = ScoringContext::new();
        let mut out = Vec::new();
        // A deadline already in the past: the walk must abort at its first
        // measured iteration (well short of the 200 budget) and record the
        // cancellation, under both stopping policies.
        for stopping in [DpStopping::Fixed, DpStopping::adaptive()] {
            ctx.reset_dp_telemetry();
            let opts = RecommendOptions::with_stopping(stopping).deadline_at(Instant::now());
            rec.recommend_into(4, 3, &opts, &mut ctx, &mut out);
            assert!(
                out.is_empty(),
                "{stopping:?}: a cancelled walk must serve an empty list, got {out:?}"
            );
            let t = ctx.dp_telemetry();
            assert_eq!(t.deadline_expired, 1, "{stopping:?}");
            assert!(
                t.iterations_run < t.iterations_budget,
                "{stopping:?}: cancellation saved nothing ({t:?})"
            );
        }

        // A generous deadline changes nothing: list identical to the
        // undeadlined query, no cancellation recorded.
        ctx.reset_dp_telemetry();
        let far = Instant::now() + Duration::from_secs(3600);
        let with_deadline = rec.recommend_with(
            4,
            3,
            &RecommendOptions::default().deadline_at(far),
            &mut ctx,
        );
        assert_eq!(ctx.dp_telemetry().deadline_expired, 0);
        let without = rec.recommend_with(4, 3, &RecommendOptions::default(), &mut ctx);
        assert_eq!(with_deadline, without);
    }

    #[test]
    fn adaptive_serving_matches_fixed_tau_ranking_and_saves_iterations() {
        use crate::config::DpStopping;
        let rec = HittingTimeRecommender::new(
            &figure2(),
            GraphRecConfig {
                max_items: 6000,
                iterations: 200,
            },
        );
        let mut fixed = ScoringContext::new();
        let mut adaptive = ScoringContext::new();
        let fixed_opts = RecommendOptions::with_stopping(DpStopping::Fixed);
        let adaptive_opts = RecommendOptions::default();
        for u in 0..5u32 {
            for k in [1usize, 3, 6, usize::MAX] {
                let f = rec.recommend_with(u, k, &fixed_opts, &mut fixed);
                let a = rec.recommend_with(u, k, &adaptive_opts, &mut adaptive);
                let fi: Vec<u32> = f.iter().map(|s| s.item).collect();
                let ai: Vec<u32> = a.iter().map(|s| s.item).collect();
                assert_eq!(ai, fi, "user {u} k {k}");
                // Early-stopped scores sit at or above the fixed-τ scores
                // (monotone DP), never below.
                for (av, fv) in a.iter().zip(&f) {
                    assert!(av.score >= fv.score - 1e-12, "user {u} k {k}");
                }
            }
        }
        let t = adaptive.dp_telemetry();
        assert_eq!(fixed.dp_telemetry().iterations_saved_fraction(), 0.0);
        assert!(
            t.iterations_run < t.iterations_budget,
            "τ=200 on a 6-item graph must terminate early: {t:?}"
        );
        assert!(t.converged + t.rank_frozen > 0, "{t:?}");
    }

    #[test]
    fn budget_restricts_candidates() {
        let rec = HittingTimeRecommender::new(
            &figure2(),
            GraphRecConfig {
                max_items: 1,
                iterations: 15,
            },
        );
        // With µ = 1 only U5's own neighborhood is explored; M4 (two hops
        // out) cannot be scored.
        let scores = rec.score_items(4);
        assert_eq!(scores[3], f64::NEG_INFINITY);
    }
}
