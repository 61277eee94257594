//! Fused top-k equivalence: property tests over random bipartite graphs.
//!
//! The walks (HT/AT/AC), popularity and PureSVD override
//! [`Recommender::recommend_into`] with a fused path (subgraph-only
//! collection, early exit over a presorted order, streamed dots); LDA and
//! PageRank (PPR/DPPR) serve through the trait's default score-then-collect
//! path. These properties pin the serving contract for every family but
//! popularity, whose fused path its own unit tests pin:
//!
//! * under [`DpStopping::Fixed`], `recommend_into(user, k)` is
//!   **item-for-item and score-for-score identical** to
//!   `top_k(score_into(user), k, rated)`, including tie-breaking by
//!   ascending item id, for every user and several `k` (0, mid, beyond the
//!   catalog);
//! * under the **default adaptive policy** (early termination on), the
//!   walk family's fused lists are **item- and score-rank identical** to
//!   the full-τ reference — same items, same order — with each served
//!   score at or above its fixed-τ counterpart (the monotone DP stopped
//!   early, never reordered);
//! * `recommend_batch(users, k, t)` is **bit-identical** to the sequential
//!   `recommend_into` loop for every thread count `t`.
//!
//! Case counts honour `PROPTEST_CASES` (see `vendor/proptest`), which CI
//! pins so the suite stays bounded.

use longtail_core::{
    top_k, AbsorbingCostConfig, AbsorbingCostRecommender, AbsorbingTimeRecommender, DpStopping,
    ExclusionSet, GraphRecConfig, HittingTimeRecommender, LdaRecommender, PageRankRecommender,
    PopularityRecommender, PureSvdRecommender, RecommendOptions, Recommender, ScoredItem,
    ScoringContext,
};
use longtail_data::{Dataset, Rating};
use longtail_topics::LdaConfig;
use proptest::prelude::*;

const N_USERS: usize = 8;
const N_ITEMS: usize = 10;

fn ratings() -> impl Strategy<Value = Vec<Rating>> {
    prop::collection::vec(
        (0..N_USERS as u32, 0..N_ITEMS as u32, 1.0f64..5.0).prop_map(|(user, item, value)| {
            Rating {
                user,
                item,
                value: value.round().max(1.0),
            }
        }),
        1..60,
    )
}

/// The fused contract: for every user and a spread of `k`, the fused list
/// equals the score-then-sort reference exactly (items, scores, order).
/// Runs under [`DpStopping::Fixed`] so the walk family's DP spends its full
/// τ — the policy under which score-for-score identity is the contract.
fn check_fused_equivalence(rec: &dyn Recommender, d: &Dataset) -> Result<(), TestCaseError> {
    let mut ctx = ScoringContext::new();
    let opts = RecommendOptions::with_stopping(DpStopping::Fixed);
    let mut fused: Vec<ScoredItem> = Vec::new();
    for u in 0..d.n_users() as u32 {
        let scores = rec.score_items(u);
        let rated = rec.rated_items(u);
        for k in [0usize, 1, 3, N_ITEMS + 3] {
            let reference = top_k(&scores, k, |i| rated.binary_search(&i).is_ok());
            rec.recommend_into(u, k, &opts, &mut ctx, &mut fused);
            prop_assert_eq!(
                &fused,
                &reference,
                "{} user {} k {}: fused diverged from score-then-sort",
                rec.name(),
                u,
                k
            );
        }
    }
    Ok(())
}

/// The request-scoped exclusion contract: for every user, excluding a set
/// through [`RecommendOptions::exclude`] equals score-then-sort with the
/// union of rated items and that set — across every family, under both
/// stopping policies.
fn check_exclusion_equivalence(rec: &dyn Recommender, d: &Dataset) -> Result<(), TestCaseError> {
    let mut ctx = ScoringContext::new();
    let mut fused: Vec<ScoredItem> = Vec::new();
    // A deterministic spread: every third item, plus the catalog boundary.
    let exclude = ExclusionSet::new((0..N_ITEMS as u32).step_by(3).collect());
    for stopping in [DpStopping::Fixed, DpStopping::Adaptive] {
        let opts = RecommendOptions::new().stopping(stopping).exclude(&exclude);
        for u in 0..d.n_users() as u32 {
            let scores = rec.score_items(u);
            let rated = rec.rated_items(u);
            for k in [1usize, 4, N_ITEMS + 3] {
                let reference = top_k(&scores, k, |i| {
                    rated.binary_search(&i).is_ok() || exclude.contains(i)
                });
                rec.recommend_into(u, k, &opts, &mut ctx, &mut fused);
                let fused_items: Vec<u32> = fused.iter().map(|s| s.item).collect();
                let reference_items: Vec<u32> = reference.iter().map(|s| s.item).collect();
                prop_assert_eq!(
                    &fused_items,
                    &reference_items,
                    "{} user {} k {} ({:?}): exclusion set diverged",
                    rec.name(),
                    u,
                    k,
                    stopping
                );
                prop_assert!(fused.iter().all(|s| !exclude.contains(s.item)));
                if stopping == DpStopping::Fixed {
                    prop_assert_eq!(&fused, &reference);
                }
            }
        }
    }
    Ok(())
}

/// The early-termination contract: under the default adaptive policy, the
/// fused list is item- and score-rank identical to the full-τ
/// `top_k(score_into)` reference — same items in the same positions — and
/// every served score sits at or above its fixed-τ counterpart (the
/// monotone DP was stopped early, so costs can only be underestimates).
fn check_adaptive_rank_equivalence(
    rec: &dyn Recommender,
    d: &Dataset,
) -> Result<(), TestCaseError> {
    let mut ctx = ScoringContext::new();
    let opts = RecommendOptions::default();
    prop_assert_eq!(opts.stopping, DpStopping::Adaptive);
    let mut fused: Vec<ScoredItem> = Vec::new();
    for u in 0..d.n_users() as u32 {
        let scores = rec.score_items(u);
        let rated = rec.rated_items(u);
        for k in [0usize, 1, 3, N_ITEMS + 3] {
            let reference = top_k(&scores, k, |i| rated.binary_search(&i).is_ok());
            rec.recommend_into(u, k, &opts, &mut ctx, &mut fused);
            let fused_items: Vec<u32> = fused.iter().map(|s| s.item).collect();
            let reference_items: Vec<u32> = reference.iter().map(|s| s.item).collect();
            prop_assert_eq!(
                &fused_items,
                &reference_items,
                "{} user {} k {}: early-terminated ranking diverged from full-τ",
                rec.name(),
                u,
                k
            );
            for (f, r) in fused.iter().zip(&reference) {
                prop_assert!(
                    f.score >= r.score - 1e-12,
                    "{} user {} k {} item {}: served {} below fixed-τ {}",
                    rec.name(),
                    u,
                    k,
                    f.item,
                    f.score,
                    r.score
                );
            }
        }
    }
    // A context that served adaptively must never spend more than budget.
    let t = ctx.dp_telemetry();
    prop_assert!(t.iterations_run <= t.iterations_budget, "{:?}", t);
    Ok(())
}

/// The batch contract: `recommend_batch` is bit-identical to the sequential
/// `recommend_into` loop at every thread count.
fn check_batch_equivalence(rec: &dyn Recommender, d: &Dataset) -> Result<(), TestCaseError> {
    let users: Vec<u32> = (0..d.n_users() as u32).collect();
    let mut ctx = ScoringContext::new();
    let opts = RecommendOptions::default();
    let sequential: Vec<Vec<ScoredItem>> = users
        .iter()
        .map(|&u| {
            let mut out = Vec::new();
            rec.recommend_into(u, 5, &opts, &mut ctx, &mut out);
            out
        })
        .collect();
    let sequential_dp = ctx.dp_telemetry();
    for n_threads in [1usize, 2, 4] {
        let (batch, dp) = rec.recommend_batch_telemetry(&users, 5, &opts, n_threads);
        prop_assert_eq!(
            &batch,
            &sequential,
            "{} diverged at {} threads",
            rec.name(),
            n_threads
        );
        // Worker telemetry is merged, not dropped: the batch accounts for
        // exactly the queries and budgets of the sequential loop.
        prop_assert_eq!(dp.queries, sequential_dp.queries);
        prop_assert_eq!(dp.iterations_budget, sequential_dp.iterations_budget);
    }
    Ok(())
}

fn check_both(rec: &dyn Recommender, d: &Dataset) -> Result<(), TestCaseError> {
    check_fused_equivalence(rec, d)?;
    check_exclusion_equivalence(rec, d)?;
    check_batch_equivalence(rec, d)
}

proptest! {
    #[test]
    fn hitting_time_fused_matches_score_then_sort(rs in ratings()) {
        let d = Dataset::from_ratings(N_USERS, N_ITEMS, &rs);
        let rec = HittingTimeRecommender::new(&d, GraphRecConfig::default());
        check_both(&rec, &d)?;
        check_adaptive_rank_equivalence(&rec, &d)?;
        // Also under a tight subgraph budget, where most items are outside
        // the visited neighborhood (and the induced kernel has dangling
        // boundary nodes, exercising the ∞-front path of the adaptive DP).
        let tight = HittingTimeRecommender::new(
            &d,
            GraphRecConfig { max_items: 2, iterations: 10 },
        );
        check_both(&tight, &d)?;
        check_adaptive_rank_equivalence(&tight, &d)?;
    }

    #[test]
    fn absorbing_time_fused_matches_score_then_sort(rs in ratings()) {
        let d = Dataset::from_ratings(N_USERS, N_ITEMS, &rs);
        let rec = AbsorbingTimeRecommender::new(&d, GraphRecConfig::default());
        check_both(&rec, &d)?;
        check_adaptive_rank_equivalence(&rec, &d)?;
        // A long budget gives the adaptive rules room to actually fire.
        let long = AbsorbingTimeRecommender::new(
            &d,
            GraphRecConfig { max_items: 6000, iterations: 150 },
        );
        check_adaptive_rank_equivalence(&long, &d)?;
    }

    #[test]
    fn absorbing_cost_fused_matches_score_then_sort(rs in ratings()) {
        let d = Dataset::from_ratings(N_USERS, N_ITEMS, &rs);
        let ac1 = AbsorbingCostRecommender::item_entropy(&d, AbsorbingCostConfig::default());
        check_both(&ac1, &d)?;
        check_adaptive_rank_equivalence(&ac1, &d)?;
    }

    #[test]
    fn topic_absorbing_cost_fused_matches_score_then_sort(rs in ratings()) {
        let d = Dataset::from_ratings(N_USERS, N_ITEMS, &rs);
        let ac2 = AbsorbingCostRecommender::topic_entropy_auto(
            &d,
            2,
            AbsorbingCostConfig::default(),
        );
        check_both(&ac2, &d)?;
        check_adaptive_rank_equivalence(&ac2, &d)?;
    }

    #[test]
    fn pagerank_default_path_matches_score_then_sort(rs in ratings()) {
        let d = Dataset::from_ratings(N_USERS, N_ITEMS, &rs);
        check_both(&PageRankRecommender::plain(&d), &d)?;
        check_both(&PageRankRecommender::discounted(&d), &d)?;
    }

    #[test]
    fn pure_svd_fused_matches_score_then_sort(rs in ratings()) {
        let d = Dataset::from_ratings(N_USERS, N_ITEMS, &rs);
        let rec = PureSvdRecommender::train(&d, 4);
        check_both(&rec, &d)?;
    }

    #[test]
    fn lda_default_path_matches_score_then_sort(rs in ratings()) {
        let d = Dataset::from_ratings(N_USERS, N_ITEMS, &rs);
        // Few sweeps: training accuracy is irrelevant to the equivalence.
        let rec = LdaRecommender::train_with(
            &d,
            &LdaConfig { iterations: 15, ..LdaConfig::with_topics(2) },
        );
        check_both(&rec, &d)?;
    }

    #[test]
    fn shared_context_across_fused_recommenders_is_pure(rs in ratings()) {
        // One context threaded through interleaved fused queries of models
        // with different candidate disciplines must never leak state (the
        // shared scratch vector, the collector reset).
        let d = Dataset::from_ratings(N_USERS, N_ITEMS, &rs);
        let pop = PopularityRecommender::train(&d);
        let svd = PureSvdRecommender::train(&d, 4);
        let at = AbsorbingTimeRecommender::new(&d, GraphRecConfig::default());
        let recs: [&dyn Recommender; 3] = [&pop, &svd, &at];
        let mut ctx = ScoringContext::new();
        let opts = RecommendOptions::default();
        let mut out = Vec::new();
        for u in 0..d.n_users() as u32 {
            for rec in recs {
                rec.recommend_into(u, 4, &opts, &mut ctx, &mut out);
                let fresh = rec.recommend(u, 4);
                prop_assert_eq!(&out, &fresh, "{} user {}", rec.name(), u);
            }
        }
    }
}
