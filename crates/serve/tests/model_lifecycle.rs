//! Lifecycle suite: versioned registry slots and atomic hot swap.
//!
//! Pins the deploy contracts of [`Engine::deploy`]:
//!
//! * **version pinning** (constructed, not raced) — a request parked *mid
//!   execution* when a deploy lands completes on the version it resolved,
//!   while a request queued behind it serves on the new one;
//! * **no lost requests** — a deploy under concurrent load completes every
//!   in-flight submission, each on exactly one version, with the engine's
//!   ledgers accounting for all of them;
//! * **ordering** — requests submitted after `deploy` returns serve on the
//!   new version, unconditionally;
//! * **retirement** — an old version is reported retired once its last
//!   in-flight pin drops, and never before the swap;
//! * **breaker reset** — a tripped breaker does not follow the model
//!   across a deploy: the new version starts with a fresh, closed breaker;
//! * **provenance** — [`Engine::health`] reports where the active version
//!   and every earlier one came from;
//! * **typed errors** — deploying to an unregistered name fails with
//!   [`ServeError::UnknownModel`].
//!
//! Every test ends with `common::assert_ledgers_balance`.

use longtail_core::{GraphRecConfig, HittingTimeRecommender, PopularityRecommender, Recommender};
use longtail_data::{Dataset, Rating};
use longtail_serve::{
    BreakerConfig, BreakerState, Engine, FaultKind, FaultPlan, FaultyRecommender, ModelProvenance,
    RecommendRequest, RetryPolicy, ServeError, SharedRecommender,
};
use std::sync::Arc;

mod common;
use common::{assert_ledgers_balance, Gate, GatedRecommender};

/// A small corpus every test shares.
fn corpus() -> Dataset {
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

/// A corpus whose popularity ordering *differs* from [`corpus`]'s, so the
/// POP models trained on the two are distinguishable by their rankings —
/// a response's items prove which version served it, independently of the
/// version field.
fn shifted_corpus() -> Dataset {
    let ratings = [
        (0, 3, 5.0),
        (1, 3, 4.0),
        (2, 3, 3.0),
        (3, 3, 2.0),
        (0, 5, 5.0),
        (1, 5, 4.0),
        (2, 5, 3.0),
        (4, 0, 5.0),
    ]
    .map(|(user, item, value)| Rating { user, item, value });
    Dataset::from_ratings(5, 6, &ratings)
}

fn items_of(list: &[longtail_core::ScoredItem]) -> Vec<u32> {
    list.iter().map(|s| s.item).collect()
}

#[test]
fn in_flight_requests_pin_their_version_across_a_deploy() {
    let d = corpus();
    let graph = GraphRecConfig::default();
    let gate = Gate::closed();
    let gated = GatedRecommender::new(HittingTimeRecommender::new(&d, graph), Arc::clone(&gate));
    let engine = Engine::builder()
        .model("HT", Arc::new(gated))
        .workers(1)
        .build();

    // R1 enters the (gated) version-1 model and parks mid-execution.
    let r1 = engine.submit(RecommendRequest::new("HT", 0, 3)).unwrap();
    gate.await_arrivals(1);

    // The deploy lands while R1 is in flight; version 2 is ungated.
    let v2: SharedRecommender = Arc::new(HittingTimeRecommender::new(&d, graph));
    assert_eq!(engine.deploy("HT", v2).unwrap(), 2);

    // Version 1 must not retire while R1 still holds its pin.
    let health = engine.health();
    let history = &health.models[0].deploy_history;
    assert_eq!(history.len(), 2);
    assert!(
        !history[0].retired,
        "version 1 reported retired while a request was executing on it"
    );

    // R2 queues behind R1 (single worker) and resolves after the swap.
    let r2 = engine.submit(RecommendRequest::new("HT", 0, 3)).unwrap();
    gate.open();
    let a = r1.wait().expect("pinned request completes");
    let b = r2.wait().expect("post-deploy request completes");
    assert_eq!(a.version, 1, "in-flight request jumped versions");
    assert_eq!(
        b.version, 2,
        "post-deploy request served on the old version"
    );
    // Same underlying model either side of the swap: identical ranking.
    assert_eq!(items_of(&a.items), items_of(&b.items));

    // With the pin released, version 1 retires; version 2 is active.
    let health = engine.health();
    let model = &health.models[0];
    assert_eq!(model.version, 2);
    let history = &model.deploy_history;
    assert!(
        history[0].retired,
        "version 1 kept alive after its last pin"
    );
    assert!(!history[1].retired);
    assert_ledgers_balance(&engine.stats());
}

#[test]
fn hot_swap_under_concurrent_load_loses_no_requests() {
    let v1_train = corpus();
    let v2_train = shifted_corpus();
    let v1 = PopularityRecommender::train(&v1_train);
    let v2 = PopularityRecommender::train(&v2_train);
    // Expected ranking per (version, user), computed outside the engine.
    let expect = |rec: &PopularityRecommender, user: u32| items_of(&rec.recommend(user, 3));

    let engine = Engine::builder()
        .model("POP", Arc::new(PopularityRecommender::train(&v1_train)))
        .workers(4)
        .build();

    // First wave: submitted before the deploy, may land on either side of
    // it depending on when each worker dequeues.
    const WAVE: u32 = 200;
    let first: Vec<_> = (0..WAVE)
        .map(|i| {
            engine
                .submit(RecommendRequest::new("POP", i % 5, 3))
                .unwrap()
        })
        .collect();
    assert_eq!(
        engine
            .deploy("POP", Arc::new(PopularityRecommender::train(&v2_train)))
            .unwrap(),
        2
    );
    // Second wave: submitted after deploy returned — new version only.
    let second: Vec<_> = (0..WAVE)
        .map(|i| {
            engine
                .submit(RecommendRequest::new("POP", i % 5, 3))
                .unwrap()
        })
        .collect();

    let mut served = 0u64;
    for (wave, pending) in [(1u32, first), (2u32, second)] {
        for (i, p) in pending.into_iter().enumerate() {
            let user = i as u32 % 5;
            let r = p.wait().expect("no request may be lost across a deploy");
            served += 1;
            // Exactly one version served it, and the items prove the
            // version field is honest.
            match r.version {
                1 => assert_eq!(items_of(&r.items), expect(&v1, user)),
                2 => assert_eq!(items_of(&r.items), expect(&v2, user)),
                v => panic!("response claims unknown version {v}"),
            }
            if wave == 2 {
                assert_eq!(r.version, 2, "post-deploy submission served stale");
            }
        }
    }

    // The ledgers account for every submission: nothing dropped, nothing
    // double-counted, nothing failed.
    let stats = engine.stats();
    assert_eq!(served, 2 * WAVE as u64);
    assert_eq!(stats.submitted, served);
    assert_eq!(stats.completed, served);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.shed + stats.rejected + stats.cancelled_at_shutdown, 0);
    assert_ledgers_balance(&stats);
}

#[test]
fn deploy_resets_the_breaker_and_carries_ledgers() {
    let d = corpus();
    // Version 1 always panics: trip its breaker open.
    let faulty: SharedRecommender = Arc::new(FaultyRecommender::new(
        Arc::new(PopularityRecommender::train(&d)),
        FaultPlan::new().fault_every(1, 0, FaultKind::Panic),
    ));
    std::panic::set_hook(Box::new(|_| {}));
    let engine = Engine::builder()
        .model("POP", faulty)
        .breakers(BreakerConfig {
            window: 4,
            failure_threshold: 2,
            cooldown: std::time::Duration::from_secs(3600),
        })
        .default_retry(RetryPolicy::attempts(1))
        .workers(1)
        .build();
    for user in 0..2 {
        let err = engine.recommend(&RecommendRequest::new("POP", user, 3));
        assert!(matches!(err, Err(ServeError::RequestPanicked(_))));
    }
    let before = engine.health();
    assert_eq!(before.models[0].breaker, BreakerState::Open);
    let panicked_before = engine.stats().panicked;
    assert_eq!(panicked_before, 2);

    // Deploy a healthy version 2: its breaker starts fresh and closed
    // (failure evidence against v1 says nothing about v2), while the
    // engine-lifetime failure ledger carries across the swap.
    engine
        .deploy("POP", Arc::new(PopularityRecommender::train(&d)))
        .unwrap();
    let after = engine.health();
    assert_eq!(after.models[0].breaker, BreakerState::Closed);
    assert_eq!(after.models[0].version, 2);
    assert_eq!(engine.stats().panicked, panicked_before);
    let ok = engine
        .recommend(&RecommendRequest::new("POP", 0, 3))
        .unwrap();
    assert_eq!(ok.version, 2);
    assert_ledgers_balance(&engine.stats());
    let _ = std::panic::take_hook();
}

#[test]
fn deploy_reports_provenance_in_health() {
    let d = corpus();
    let engine = Engine::builder()
        .model("POP", Arc::new(PopularityRecommender::train(&d)))
        .workers(1)
        .build();
    let path = std::path::PathBuf::from("/models/pop_v2.snap");
    engine
        .deploy_from(
            "POP",
            Arc::new(PopularityRecommender::train(&d)),
            ModelProvenance::Snapshot(path.clone()),
        )
        .unwrap();
    let health = engine.health();
    let model = &health.models[0];
    assert_eq!(model.provenance, ModelProvenance::Snapshot(path));
    assert_eq!(
        model.deploy_history[0].provenance,
        ModelProvenance::InProcess
    );
    assert_eq!(
        format!("{}", model.provenance),
        "snapshot /models/pop_v2.snap"
    );
    assert_eq!(
        format!("{}", model.deploy_history[0].provenance),
        "trained in-process"
    );
    assert_ledgers_balance(&engine.stats());
}

#[test]
fn deploying_an_unknown_model_fails_typed() {
    let engine = Engine::builder()
        .model("POP", Arc::new(PopularityRecommender::train(&corpus())))
        .workers(1)
        .build();
    let err = engine.deploy("nope", Arc::new(PopularityRecommender::train(&corpus())));
    assert_eq!(err.unwrap_err(), ServeError::UnknownModel("nope".into()));
    assert_ledgers_balance(&engine.stats());
}
