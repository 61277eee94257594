//! Re-rank policy contracts: property tests over random bipartite graphs.
//!
//! The long-tail re-rank stage composes with the fused serving path by
//! over-fetching a top-M pool and finalizing it to k. Two pinned contracts
//! across all 9 recommender families:
//!
//! * **a disabled policy is bit-identical to no policy** — attaching a
//!   [`Reranker`] whose [`RerankPolicy`] is all-zeros (the `Default`)
//!   serves exactly the list the plain options serve: same items, same
//!   scores, same order, under both stopping policies. The rerank stage is
//!   a *strict* no-op unless a knob is turned;
//! * **an enabled policy serves a permutation of the over-fetched pool** —
//!   k items (or all that exist), drawn from the top-M candidates, with
//!   their original walk scores and a provenance trace aligned with the
//!   output.
//!
//! Case counts honour `PROPTEST_CASES` (see `vendor/proptest`), which CI
//! pins so the suite stays bounded.

use longtail_core::{
    AbsorbingCostConfig, AbsorbingCostRecommender, AbsorbingTimeRecommender, DpStopping,
    GraphRecConfig, HittingTimeRecommender, LdaRecommender, PageRankRecommender,
    PureSvdRecommender, RecommendOptions, Recommender, RerankIndex, RerankPolicy, Reranker,
    ScoredItem, ScoringContext,
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

/// Every family over the same training data, boxed for uniform iteration.
fn roster(d: &Dataset) -> Vec<Box<dyn Recommender>> {
    vec![
        Box::new(HittingTimeRecommender::new(d, GraphRecConfig::default())),
        Box::new(AbsorbingTimeRecommender::new(d, GraphRecConfig::default())),
        Box::new(AbsorbingCostRecommender::item_entropy(
            d,
            AbsorbingCostConfig::default(),
        )),
        Box::new(AbsorbingCostRecommender::topic_entropy_auto(
            d,
            2,
            AbsorbingCostConfig::default(),
        )),
        Box::new(PageRankRecommender::plain(d)),
        Box::new(PageRankRecommender::discounted(d)),
        Box::new(PureSvdRecommender::train(d, 4)),
        Box::new(LdaRecommender::train_with(
            d,
            &LdaConfig {
                iterations: 15,
                ..LdaConfig::with_topics(2)
            },
        )),
    ]
}

proptest! {
    /// A `Default` (disabled) policy attached through the full rerank
    /// plumbing — index, reranker, over-fetch arithmetic, finalize — must
    /// serve bit-identical lists to plain options, for every family, user,
    /// k and stopping policy.
    #[test]
    fn disabled_policy_is_bit_identical_to_no_policy(rs in ratings()) {
        let d = Dataset::from_ratings(N_USERS, N_ITEMS, &rs);
        let index = RerankIndex::from_dataset(&d);
        let disabled = RerankPolicy::default();
        prop_assert!(!disabled.is_enabled());
        let mut ctx = ScoringContext::new();
        let mut plain_list: Vec<ScoredItem> = Vec::new();
        let mut reranked: Vec<ScoredItem> = Vec::new();
        for rec in &roster(&d) {
            for stopping in [DpStopping::Fixed, DpStopping::Adaptive] {
                let plain = RecommendOptions::with_stopping(stopping);
                let off = RecommendOptions::with_stopping(stopping)
                    .rerank(Reranker::new(&index, disabled));
                prop_assert_eq!(off.fetch(5), 5, "disabled policy must not over-fetch");
                for u in 0..d.n_users() as u32 {
                    for k in [0usize, 1, 3, N_ITEMS + 3] {
                        rec.recommend_into(u, k, &plain, &mut ctx, &mut plain_list);
                        rec.recommend_into(u, k, &off, &mut ctx, &mut reranked);
                        prop_assert_eq!(
                            &reranked,
                            &plain_list,
                            "{} user {} k {} ({:?}): disabled policy changed the list",
                            rec.name(),
                            u,
                            k,
                            stopping
                        );
                        prop_assert!(
                            ctx.rerank_trace().is_empty(),
                            "disabled policy must leave no provenance"
                        );
                    }
                }
            }
        }
    }

    /// An enabled policy serves a permutation of the over-fetched pool:
    /// exactly `min(k, pool)` items, each present in the plain top-M at
    /// its original walk score, with an aligned provenance trace — also
    /// for a hostile `k`, whose pool size saturates.
    #[test]
    fn enabled_policy_serves_a_pool_permutation(rs in ratings()) {
        let d = Dataset::from_ratings(N_USERS, N_ITEMS, &rs);
        let index = RerankIndex::from_dataset(&d);
        let policy = RerankPolicy::new().mmr(0.4).popularity_penalty(0.3).tail_quota(1);
        let mut ctx = ScoringContext::new();
        let mut pool: Vec<ScoredItem> = Vec::new();
        let mut reranked: Vec<ScoredItem> = Vec::new();
        let plain = RecommendOptions::with_stopping(DpStopping::Fixed);
        let on = RecommendOptions::with_stopping(DpStopping::Fixed)
            .rerank(Reranker::new(&index, policy));
        for rec in &roster(&d) {
            for k in [3usize, usize::MAX] {
                let fetch = policy.effective_pool(k);
                for u in 0..d.n_users() as u32 {
                    rec.recommend_into(u, fetch, &plain, &mut ctx, &mut pool);
                    rec.recommend_into(u, k, &on, &mut ctx, &mut reranked);
                    prop_assert_eq!(
                        reranked.len(),
                        pool.len().min(k),
                        "{} user {}: wrong list length",
                        rec.name(),
                        u
                    );
                    for s in &reranked {
                        prop_assert!(
                            pool.iter().any(|p| p.item == s.item && p.score == s.score),
                            "{} user {}: served item {} not in the top-{} pool at its score",
                            rec.name(),
                            u,
                            s.item,
                            fetch
                        );
                    }
                    let trace = ctx.rerank_trace();
                    prop_assert_eq!(trace.len(), reranked.len());
                    for (s, p) in reranked.iter().zip(trace) {
                        prop_assert_eq!(p.popularity_percentile, index.percentile(s.item));
                    }
                }
            }
        }
    }
}

#[test]
fn rerank_composes_with_adaptive_stopping() {
    // The over-fetched pool is collected under the *adaptive* DP too: the
    // rank-stability probe certifies top-M (not top-k), so the reranked
    // list over adaptive scoring picks from the same item pool as fixed-τ.
    let mut rs = Vec::new();
    for u in 0..8u32 {
        for i in 0..10u32 {
            if u <= 9 - i {
                rs.push(Rating {
                    user: u,
                    item: i,
                    value: 4.0,
                });
            }
        }
    }
    let d = Dataset::from_ratings(8, 10, &rs);
    let index = RerankIndex::from_dataset(&d);
    let policy = RerankPolicy::new().mmr(0.3).popularity_penalty(0.25);
    let rec = HittingTimeRecommender::new(&d, GraphRecConfig::default());
    let mut ctx = ScoringContext::new();
    let mut adaptive: Vec<ScoredItem> = Vec::new();
    let mut fixed: Vec<ScoredItem> = Vec::new();
    for u in 0..8u32 {
        let on_adaptive = RecommendOptions::new().rerank(Reranker::new(&index, policy));
        let on_fixed = RecommendOptions::with_stopping(DpStopping::Fixed)
            .rerank(Reranker::new(&index, policy));
        rec.recommend_into(u, 4, &on_adaptive, &mut ctx, &mut adaptive);
        rec.recommend_into(u, 4, &on_fixed, &mut ctx, &mut fixed);
        let a: Vec<u32> = adaptive.iter().map(|s| s.item).collect();
        let f: Vec<u32> = fixed.iter().map(|s| s.item).collect();
        assert_eq!(a, f, "user {u}: adaptive rerank diverged from fixed-τ");
    }
}
