//! Engine equivalence: property tests over random bipartite corpora.
//!
//! The engine adds routing, context pooling and a worker pool on top of
//! `Recommender::recommend_into`; none of that may ever change a ranking.
//! Three pinned contracts, each across all 8 recommender families:
//!
//! * **context pooling is invisible** — lists produced through
//!   [`ContextPool`]-recycled contexts are bit-identical to fresh-context
//!   lists, query after query;
//! * **`Engine::recommend` ≡ direct `recommend_into`** — same items, same
//!   ranks, same scores, for every registered model, under the default
//!   policy, a `Fixed` override, and request-scoped exclusions; batches
//!   through the persistent worker pool agree with the inline path;
//! * **sharded routing is transparent** — a sharded registration answers
//!   exactly what the owning shard's recommender answers directly, and
//!   reports the shard the router picked.
//!
//! Every test that serves through an engine ends with
//! `common::assert_ledgers_balance`. Case counts honour `PROPTEST_CASES`
//! (see `vendor/proptest`), which CI pins so the suite stays bounded.

use longtail_core::{
    DpStopping, ExclusionSet, GraphRecConfig, HittingTimeRecommender, RecommendOptions,
    Recommender, ScoredItem, ScoringContext,
};
use longtail_data::{Dataset, Rating};
use longtail_serve::{
    ContextPool, Engine, ModuloRouter, RecommendRequest, ServeError, SharedRecommender,
};
use proptest::prelude::*;
use std::sync::Arc;

mod common;
use common::{assert_ledgers_balance, ratings, roster, N_ITEMS, N_USERS};

fn items_of(list: &[ScoredItem]) -> Vec<u32> {
    list.iter().map(|s| s.item).collect()
}

proptest! {
    /// (a) Pooled / recycled contexts are invisible: for every family, a
    /// list served through a `ContextPool`-checkout context (previously
    /// used by *other* families and users) is bit-identical to one from a
    /// fresh context.
    #[test]
    fn pooled_contexts_match_fresh_contexts(rs in ratings()) {
        let d = Dataset::from_ratings(N_USERS, N_ITEMS, &rs);
        let pool = ContextPool::new(2);
        let opts = RecommendOptions::default();
        let mut pooled = Vec::new();
        let mut fresh_list = Vec::new();
        for round in 0..2 {
            for (name, rec) in &roster(&d) {
                for u in 0..d.n_users() as u32 {
                    let mut ctx = pool.checkout();
                    rec.recommend_into(u, 5, &opts, &mut ctx, &mut pooled);
                    pool.checkin(ctx);
                    let mut fresh = ScoringContext::new();
                    rec.recommend_into(u, 5, &opts, &mut fresh, &mut fresh_list);
                    prop_assert_eq!(
                        &pooled,
                        &fresh_list,
                        "{} user {} round {}: pooled context diverged",
                        name,
                        u,
                        round
                    );
                }
            }
        }
    }

    /// (b) `Engine::recommend` ≡ direct `recommend_into` for every
    /// registered model — default policy, `Fixed` override, and a
    /// request-scoped exclusion set (handed to the engine unsorted, with
    /// duplicates) — and the worker-pool batch path agrees with inline.
    #[test]
    fn engine_matches_direct_recommend_into(rs in ratings()) {
        let d = Dataset::from_ratings(N_USERS, N_ITEMS, &rs);
        let models = roster(&d);
        let mut builder = Engine::builder().workers(2);
        for (name, rec) in &models {
            builder = builder.model(*name, Arc::clone(rec));
        }
        let engine = builder.build();
        let mut ctx = ScoringContext::new();
        let mut direct = Vec::new();
        // Unsorted, duplicated on purpose: the request builder normalizes
        // once at construction.
        let raw_exclude = vec![7u32, 2, 7, 4];
        let sorted_exclude = ExclusionSet::new(raw_exclude.clone());

        let mut batch = Vec::new();
        let mut expected_items = Vec::new();
        for (name, rec) in &models {
            for u in 0..d.n_users() as u32 {
                for (req, opts) in [
                    (
                        RecommendRequest::new(*name, u, 5),
                        RecommendOptions::default(),
                    ),
                    (
                        RecommendRequest::new(*name, u, 5).with_stopping(DpStopping::Fixed),
                        RecommendOptions::with_stopping(DpStopping::Fixed),
                    ),
                    (
                        RecommendRequest::new(*name, u, 5).excluding(raw_exclude.clone()),
                        RecommendOptions::excluding(&sorted_exclude),
                    ),
                ] {
                    let response = engine.recommend(&req).unwrap();
                    rec.recommend_into(u, 5, &opts, &mut ctx, &mut direct);
                    prop_assert_eq!(
                        &response.items,
                        &direct,
                        "{} user {}: engine diverged from direct path",
                        name,
                        u
                    );
                    prop_assert_eq!(response.model, rec.name());
                    prop_assert_eq!(response.shard, None);
                    batch.push(req);
                    expected_items.push(items_of(&direct));
                }
            }
        }
        // The same requests through the persistent worker pool.
        for (response, expected) in engine.recommend_batch(batch).into_iter().zip(&expected_items) {
            prop_assert_eq!(&items_of(&response.unwrap().items), expected);
        }
        // Aggregate telemetry accounted for every walk-family DP run.
        prop_assert!(engine.telemetry().queries > 0);
        assert_ledgers_balance(&engine.stats());
    }

    /// (c) Sharded routing is transparent: the engine's answer under a
    /// 2-shard `ModuloRouter` registration equals querying the owning
    /// shard's recommender directly, and the response names that shard.
    #[test]
    fn sharded_routing_matches_owning_shard(rs in ratings()) {
        let d = Dataset::from_ratings(N_USERS, N_ITEMS, &rs);
        // Two genuinely different models per shard: different walk budgets.
        let shards: Vec<SharedRecommender> = vec![
            Arc::new(HittingTimeRecommender::new(
                &d,
                GraphRecConfig { max_items: 4, iterations: 15 },
            )),
            Arc::new(HittingTimeRecommender::new(&d, GraphRecConfig::default())),
        ];
        let engine = Engine::builder()
            .sharded_model("HT", Arc::new(ModuloRouter), shards.clone())
            .workers(1)
            .build();
        let opts = RecommendOptions::default();
        let mut ctx = ScoringContext::new();
        let mut direct = Vec::new();
        for u in 0..d.n_users() as u32 {
            let response = engine.recommend(&RecommendRequest::new("HT", u, 5)).unwrap();
            let owner = u as usize % shards.len();
            prop_assert_eq!(response.shard, Some(owner), "user {}", u);
            shards[owner].recommend_into(u, 5, &opts, &mut ctx, &mut direct);
            prop_assert_eq!(
                &response.items,
                &direct,
                "user {}: sharded answer diverged from owning shard",
                u
            );
        }
        assert_ledgers_balance(&engine.stats());
    }
}

#[test]
fn engine_rerank_threads_policy_and_provenance_end_to_end() {
    use longtail_core::{RerankIndex, RerankPolicy};
    use longtail_serve::Priority;

    // A corpus with a clear head/tail split so the policy has something
    // to act on.
    let mut rs = Vec::new();
    for u in 0..8u32 {
        for i in 0..10u32 {
            // Item popularity decays with id: item 0 rated by all, item 9
            // by one user.
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
    let rec: SharedRecommender =
        Arc::new(HittingTimeRecommender::new(&d, GraphRecConfig::default()));
    let index = Arc::new(RerankIndex::from_dataset(&d));
    let policy = RerankPolicy::new().mmr(0.3).popularity_penalty(0.25);

    // Engine A: no rerank configured — the raw fused baseline.
    let raw = Engine::builder()
        .model("HT", Arc::clone(&rec))
        .workers(0)
        .build();
    // Engine B: index attached, policy set as the Batch-class default.
    let engine = Engine::builder()
        .model("HT", Arc::clone(&rec))
        .rerank_index("HT", Arc::clone(&index))
        .class_rerank(Priority::Batch, policy)
        .workers(0)
        .build();

    let mut served = 0usize;
    for u in 0..8u32 {
        let baseline = raw.recommend(&RecommendRequest::new("HT", u, 4)).unwrap();
        assert!(baseline.provenance.is_none(), "no policy, no provenance");
        if baseline.items.is_empty() {
            // User 0 rated the whole reachable catalog: nothing to rank.
            continue;
        }
        served += 1;

        // Interactive (default class): no class policy resolves — raw order.
        let plain = engine
            .recommend(&RecommendRequest::new("HT", u, 4))
            .unwrap();
        assert_eq!(plain.items, baseline.items, "user {u}: must be raw");
        assert!(plain.provenance.is_none());

        // Batch class: the class default applies and provenance arrives.
        let req = RecommendRequest::new("HT", u, 4).with_priority(Priority::Batch);
        let reranked = engine.recommend(&req).unwrap();
        let prov = reranked.provenance.as_ref().expect("re-ranked response");
        assert_eq!(prov.len(), reranked.items.len());
        for (item, p) in reranked.items.iter().zip(prov) {
            assert_eq!(p.popularity_percentile, index.percentile(item.item));
            assert_eq!(p.tail, index.tail(item.item, policy.tail_cutoff));
        }
        // Same pool, same scores: the re-ranked list is a permutation of a
        // prefix of the over-fetched pool, so every served item must score
        // no better than the raw winner.
        assert!(reranked.items[0].score <= baseline.items[0].score + 1e-12);

        // A per-request disabled override beats the class default.
        let req = RecommendRequest::new("HT", u, 4)
            .with_priority(Priority::Batch)
            .with_rerank(RerankPolicy::default());
        let off = engine.recommend(&req).unwrap();
        assert_eq!(off.items, baseline.items, "user {u}: override must win");
        assert!(off.provenance.is_none());
    }
    assert!(
        served >= 6,
        "corpus must exercise the re-rank path: {served}"
    );
    assert_ledgers_balance(&raw.stats());
    assert_ledgers_balance(&engine.stats());
}

#[test]
fn unknown_model_is_an_error_not_a_panic() {
    let d = Dataset::from_ratings(
        2,
        2,
        &[Rating {
            user: 0,
            item: 0,
            value: 5.0,
        }],
    );
    let engine = Engine::builder()
        .model(
            "HT",
            Arc::new(HittingTimeRecommender::new(&d, GraphRecConfig::default())),
        )
        .workers(1)
        .build();
    let err = engine
        .recommend(&RecommendRequest::new("missing", 0, 3))
        .unwrap_err();
    assert_eq!(err, ServeError::UnknownModel("missing".into()));
    // Batch form returns the failure in place without poisoning the rest.
    let results = engine.recommend_batch(vec![
        RecommendRequest::new("missing", 0, 3),
        RecommendRequest::new("HT", 0, 3),
    ]);
    assert!(results[0].is_err());
    assert!(results[1].is_ok());
    assert_eq!(engine.models(), vec!["HT"]);
    assert_ledgers_balance(&engine.stats());
}

/// HT that panics when asked to serve user 99: a model failing on one
/// request.
struct PanicsOnUser99(HittingTimeRecommender);

impl Recommender for PanicsOnUser99 {
    fn name(&self) -> &'static str {
        "HT"
    }

    fn score_into(&self, user: u32, ctx: &mut ScoringContext, out: &mut Vec<f64>) {
        self.0.score_into(user, ctx, out);
    }

    fn recommend_into(
        &self,
        user: u32,
        k: usize,
        opts: &RecommendOptions<'_>,
        ctx: &mut ScoringContext,
        out: &mut Vec<ScoredItem>,
    ) {
        assert_ne!(user, 99, "injected failure for user 99");
        self.0.recommend_into(user, k, opts, ctx, out);
    }

    fn rated_items(&self, user: u32) -> &[u32] {
        self.0.rated_items(user)
    }

    fn n_items(&self) -> usize {
        self.0.n_items()
    }
}

#[test]
fn panicking_request_fails_alone_without_killing_the_engine() {
    let d = Dataset::from_ratings(
        2,
        2,
        &[
            Rating {
                user: 0,
                item: 0,
                value: 5.0,
            },
            Rating {
                user: 1,
                item: 1,
                value: 4.0,
            },
        ],
    );
    let engine = Engine::builder()
        .model(
            "HT",
            Arc::new(PanicsOnUser99(HittingTimeRecommender::new(
                &d,
                GraphRecConfig::default(),
            ))),
        )
        .workers(2)
        .build();
    // User 99's query panics inside the recommender. The batch must fail
    // only that slot, and the pool's workers must survive to serve later
    // traffic.
    let results = engine.recommend_batch(vec![
        RecommendRequest::new("HT", 0, 2),
        RecommendRequest::new("HT", 99, 2),
        RecommendRequest::new("HT", 1, 2),
    ]);
    assert!(results[0].is_ok());
    assert!(matches!(results[1], Err(ServeError::RequestPanicked(_))));
    assert!(results[2].is_ok());
    // Both the batch path and the inline path still serve afterwards.
    let again = engine.recommend_batch(vec![RecommendRequest::new("HT", 0, 2)]);
    assert!(again[0].is_ok());
    assert!(engine.recommend(&RecommendRequest::new("HT", 1, 2)).is_ok());
    assert!(matches!(
        engine.recommend(&RecommendRequest::new("HT", 99, 2)),
        Err(ServeError::RequestPanicked(_))
    ));
    assert_ledgers_balance(&engine.stats());
}

#[test]
fn zero_worker_engine_serves_batches_inline() {
    let d = Dataset::from_ratings(
        2,
        2,
        &[
            Rating {
                user: 0,
                item: 0,
                value: 5.0,
            },
            Rating {
                user: 1,
                item: 1,
                value: 4.0,
            },
        ],
    );
    let engine = Engine::builder()
        .model(
            "HT",
            Arc::new(HittingTimeRecommender::new(&d, GraphRecConfig::default())),
        )
        .workers(0)
        .build();
    assert_eq!(engine.n_workers(), 0);
    let results = engine.recommend_batch(vec![
        RecommendRequest::new("HT", 0, 2),
        RecommendRequest::new("HT", 1, 2),
    ]);
    assert_eq!(results.len(), 2);
    assert!(results.iter().all(|r| r.is_ok()));
    assert_ledgers_balance(&engine.stats());
}

#[test]
fn per_request_telemetry_sums_into_engine_aggregate() {
    let d = Dataset::from_ratings(
        2,
        2,
        &[
            Rating {
                user: 0,
                item: 0,
                value: 5.0,
            },
            Rating {
                user: 1,
                item: 1,
                value: 4.0,
            },
        ],
    );
    let engine = Engine::builder()
        .model(
            "HT",
            Arc::new(HittingTimeRecommender::new(&d, GraphRecConfig::default())),
        )
        .workers(2)
        .build();
    let requests: Vec<RecommendRequest> = (0..6)
        .map(|i| RecommendRequest::new("HT", i % 2, 1))
        .collect();
    let mut per_request = 0u64;
    for result in engine.recommend_batch(requests) {
        let response = result.unwrap();
        assert_eq!(response.telemetry.queries, 1, "one DP run per HT query");
        per_request += response.telemetry.iterations_run;
    }
    let aggregate = engine.telemetry();
    assert_eq!(aggregate.queries, 6);
    assert_eq!(aggregate.iterations_run, per_request);
    engine.reset_telemetry();
    assert_eq!(engine.telemetry().queries, 0);
    assert_ledgers_balance(&engine.stats());
}
