//! Streaming-ingest contracts, end to end through the engine:
//!
//! * **freshness** — appended ratings change rankings at the next
//!   published epoch without any rebuild, and the overlay answer is
//!   bit-identical to a model rebuilt on the union;
//! * **compaction redeploy** — [`Engine::compact_and_deploy`] folds the
//!   delta into a fresh base behind the hot-swap path; rankings are
//!   preserved across the swap and the residual delta holds only the
//!   appends that raced the rebuild;
//! * **no torn epochs under load** — with appenders, a compactor and
//!   query threads all running, every request completes, every response
//!   names its epoch, and every claimed `(epoch, base_version)` pair is
//!   one the store actually published;
//! * **the delta rides on the options** — a wrapper that forwards its
//!   options serves the delta like the bare model, and the non-walk
//!   families ignore it (correct but stale);
//! * **one store, one model** — a store attached to two names is refused
//!   at build, and an ingest model's versions come only from compaction:
//!   a plain `deploy` of it panics.
//!
//! Every test that serves through an engine ends with
//! `common::assert_ledgers_balance`.

mod common;

use common::assert_ledgers_balance;
use longtail_core::{
    DpStopping, EdgeDelta, GraphRecConfig, HittingTimeRecommender, RecommendOptions, Recommender,
    ScoredItem, ScoringContext,
};
use longtail_data::{Dataset, Rating};
use longtail_serve::{
    DeltaConfig, DeltaRating, DeltaStore, Engine, FaultPlan, FaultyRecommender, RecommendRequest,
    SharedRecommender,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const N_USERS: usize = 8;
const N_ITEMS: usize = 12;

/// Deterministic base corpus: every user rates a spread of items so all
/// queries have candidates.
fn corpus() -> Dataset {
    let mut ratings = Vec::new();
    for u in 0..N_USERS as u32 {
        for j in 0..5u32 {
            let item = (u * 3 + j * 2) % N_ITEMS as u32;
            ratings.push(Rating {
                user: u,
                item,
                value: 1.0 + ((u + j) % 5) as f64,
            });
        }
    }
    Dataset::from_ratings(N_USERS, N_ITEMS, &ratings)
}

fn ht(d: &Dataset) -> SharedRecommender {
    Arc::new(HittingTimeRecommender::new(d, GraphRecConfig::default()))
}

fn items_of(r: &longtail_serve::RecommendResponse) -> Vec<u32> {
    r.items.iter().map(|s| s.item).collect()
}

#[test]
fn appends_change_rankings_at_published_epochs() {
    let base = corpus();
    let config = DeltaConfig {
        publish_every: 4,
        ..DeltaConfig::default()
    };
    let store = Arc::new(DeltaStore::new(base.clone(), config));
    // The same HT behind a fault-free wrapper, over a store of its own
    // that receives the same appends: it forwards its options, and with
    // them the delta.
    let wrapped_store = Arc::new(DeltaStore::new(base.clone(), config));
    let wrapped = FaultyRecommender::new(ht(&base), FaultPlan::new());
    let engine = Engine::builder()
        .model("HT", ht(&base))
        .ingest("HT", store.clone())
        .model("wrapped", Arc::new(wrapped))
        .ingest("wrapped", wrapped_store.clone())
        .workers(2)
        .build();

    let req = RecommendRequest::new("HT", 0, 4).with_stopping(DpStopping::Fixed);
    let before = engine.recommend(&req).unwrap();
    assert_eq!(before.epoch, Some(0), "pristine store serves epoch 0");
    assert_eq!(before.version, 1);

    // Four appends hit `publish_every` and become visible atomically.
    let appends = [
        DeltaRating {
            user: 0,
            item: 11,
            value: 5.0,
            timestamp: 1.0,
        },
        DeltaRating {
            user: 1,
            item: 11,
            value: 5.0,
            timestamp: 2.0,
        },
        DeltaRating {
            user: 2,
            item: 11,
            value: 5.0,
            timestamp: 3.0,
        },
        DeltaRating {
            user: 3,
            item: 11,
            value: 4.0,
            timestamp: 4.0,
        },
    ];
    for r in &appends {
        store.append(*r);
        wrapped_store.append(*r);
    }
    assert_eq!(store.epoch(), 1, "publish_every=4 published one epoch");

    let after = engine.recommend(&req).unwrap();
    assert_eq!(after.epoch, Some(1), "post-publish queries see the epoch");
    assert_ne!(
        items_of(&before),
        items_of(&after),
        "a 5-star co-rated item must move user 0's list"
    );
    for user in 0..N_USERS as u32 {
        let bare = engine
            .recommend(&RecommendRequest::new("HT", user, 4).with_stopping(DpStopping::Fixed))
            .unwrap();
        let through = engine
            .recommend(&RecommendRequest::new("wrapped", user, 4).with_stopping(DpStopping::Fixed))
            .unwrap();
        assert_eq!(
            through.items, bare.items,
            "user {user}: wrapper ≡ bare model"
        );
        assert_eq!(through.epoch, bare.epoch, "user {user}");
    }

    // The overlay answer is exactly the rebuilt-on-union answer.
    let mut union_ratings: Vec<Rating> = base.to_ratings();
    union_ratings.extend(appends.iter().map(|d| Rating {
        user: d.user,
        item: d.item,
        value: d.value,
    }));
    let rebuilt = HittingTimeRecommender::new(
        &Dataset::from_ratings(N_USERS, N_ITEMS, &union_ratings),
        GraphRecConfig::default(),
    );
    let mut ctx = ScoringContext::new();
    let mut want = Vec::new();
    rebuilt.recommend_into(
        0,
        4,
        &RecommendOptions::with_stopping(DpStopping::Fixed),
        &mut ctx,
        &mut want,
    );
    assert_eq!(after.items, want, "overlay ≡ rebuild on the union");
    assert_ledgers_balance(&engine.stats());
}

#[test]
fn compaction_preserves_rankings_and_bumps_the_version() {
    let base = corpus();
    let store = Arc::new(DeltaStore::new(
        base.clone(),
        DeltaConfig {
            publish_every: 2,
            ..DeltaConfig::default()
        },
    ));
    let engine = Engine::builder()
        .model("HT", ht(&base))
        .ingest("HT", store.clone())
        .workers(2)
        .build();

    for (u, i) in [(0u32, 10u32), (1, 10), (4, 11), (5, 11)] {
        store.append(DeltaRating {
            user: u,
            item: i,
            value: 5.0,
            timestamp: u as f64,
        });
    }
    let req = RecommendRequest::new("HT", 0, 5).with_stopping(DpStopping::Fixed);
    let before = engine.recommend(&req).unwrap();
    assert_eq!(before.version, 1);

    let report = engine.compact_and_deploy("HT", |union| ht(union)).unwrap();
    assert_eq!(report.version, 2);
    assert_eq!(report.folded, 4, "all four appends folded into the base");
    assert_eq!(report.remaining, 0, "no appends raced the rebuild");

    let after = engine.recommend(&req).unwrap();
    assert_eq!(
        after.version, 2,
        "post-compaction queries serve the new base"
    );
    assert_eq!(
        after.epoch,
        Some(report.epoch),
        "post-compaction queries serve the commit epoch"
    );
    assert_eq!(
        items_of(&before),
        items_of(&after),
        "compaction must not change what the user sees"
    );
    let stats = engine.stats();
    assert_eq!(stats.ingest.appends, 4);
    assert_eq!(stats.ingest.compactions, 1);
    assert_eq!(stats.ingest.delta_edges_live, 0);
    assert_eq!(stats.ingest.epochs_published, store.epoch());
    assert_ledgers_balance(&stats);
}

/// A plain deploy would pair the store's delta with a model built on any
/// dataset, so an ingest model refuses it: compaction is its only deploy.
#[test]
#[should_panic(expected = "has an ingest store")]
fn deploying_an_ingest_model_panics() {
    let base = corpus();
    let engine = Engine::builder()
        .model("HT", ht(&base))
        .ingest(
            "HT",
            Arc::new(DeltaStore::new(base.clone(), DeltaConfig::default())),
        )
        .workers(1)
        .build();
    let _ = engine.deploy("HT", ht(&base));
}

/// A store's delta and epochs belong to one model: attaching one store to
/// two names is refused at build.
#[test]
#[should_panic(expected = "share one ingest store")]
fn one_store_attached_to_two_models_panics() {
    let base = corpus();
    let store = Arc::new(DeltaStore::new(base.clone(), DeltaConfig::default()));
    Engine::builder()
        .model("HT", ht(&base))
        .ingest("HT", store.clone())
        .model("HT2", ht(&base))
        .ingest("HT2", store)
        .workers(1)
        .build();
}

/// The acceptance gate: appenders + a compaction loop + queriers, all
/// concurrent. Zero lost requests, and every response's `(epoch,
/// base_version)` claim appears in the store's epoch log — no query ever
/// observes a torn base/delta pair.
#[test]
fn concurrent_load_never_tears_an_epoch_or_loses_a_request() {
    let base = corpus();
    let store = Arc::new(DeltaStore::new(
        base.clone(),
        DeltaConfig {
            publish_every: 3,
            ..DeltaConfig::default()
        },
    ));
    let engine = Arc::new(
        Engine::builder()
            .model("HT", ht(&base))
            .ingest("HT", store.clone())
            .workers(4)
            .build(),
    );

    const QUERIERS: usize = 3;
    const QUERIES_EACH: usize = 60;
    const APPENDS: u32 = 90;
    const COMPACTIONS: usize = 4;

    let done_appending = Arc::new(AtomicBool::new(false));
    let observed = std::thread::scope(|s| {
        let appender = {
            let store = store.clone();
            let done = done_appending.clone();
            s.spawn(move || {
                for i in 0..APPENDS {
                    store.append(DeltaRating {
                        user: i % N_USERS as u32,
                        item: i % N_ITEMS as u32,
                        value: 1.0 + (i % 5) as f64,
                        timestamp: i as f64,
                    });
                }
                done.store(true, Ordering::Release);
            })
        };
        let compactor = {
            let engine = engine.clone();
            s.spawn(move || {
                let mut reports = Vec::new();
                for _ in 0..COMPACTIONS {
                    reports.push(engine.compact_and_deploy("HT", |union| ht(union)).unwrap());
                    std::thread::yield_now();
                }
                reports
            })
        };
        let queriers: Vec<_> = (0..QUERIERS)
            .map(|t| {
                let engine = engine.clone();
                s.spawn(move || {
                    let mut seen = Vec::new();
                    for q in 0..QUERIES_EACH {
                        let user = ((t * QUERIES_EACH + q) % N_USERS) as u32;
                        let r = engine
                            .recommend(&RecommendRequest::new("HT", user, 4))
                            .expect("no request may be lost during ingest + compaction");
                        let epoch = r.epoch.expect("ingest-attached model names its epoch");
                        seen.push((epoch, r.version));
                    }
                    seen
                })
            })
            .collect();

        appender.join().unwrap();
        let reports = compactor.join().unwrap();
        assert_eq!(reports.len(), COMPACTIONS);
        let mut seen = Vec::new();
        for q in queriers {
            seen.extend(q.join().unwrap());
        }
        seen
    });
    assert!(done_appending.load(Ordering::Acquire));

    // Every claimed (epoch, base_version) pair was actually published,
    // in that exact pairing — the no-torn-epoch witness.
    let log = store.epoch_log();
    for (epoch, version) in &observed {
        assert!(
            log.contains(&(*epoch, *version)),
            "response claims epoch {epoch} on version {version}, \
             but the store never published that pair: {log:?}"
        );
    }
    assert_eq!(observed.len(), QUERIERS * QUERIES_EACH);

    // Versions went 1 → 1 + COMPACTIONS, each commit with its own epoch,
    // and the log is strictly ordered in both coordinates.
    assert_eq!(store.base_version(), 1 + COMPACTIONS as u32);
    for w in log.windows(2) {
        assert!(w[0].0 < w[1].0, "epochs must be strictly increasing");
        assert!(w[0].1 <= w[1].1, "base versions never go backwards");
    }

    // The ledgers agree nothing was dropped and the ingest counters
    // reconcile with what the threads did.
    let stats = engine.stats();
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.ingest.appends, APPENDS as u64);
    assert_eq!(stats.ingest.compactions, COMPACTIONS as u64);
    assert_ledgers_balance(&stats);
}

/// The non-walk families serve their frozen base whatever delta the
/// options carry: items and score bits equal plain `recommend_into`, for
/// base users, delta-only users and an appended item beyond the catalog.
#[test]
fn non_walk_families_ignore_the_delta() {
    let base = corpus();
    let mut delta = EdgeDelta::new(N_USERS, N_ITEMS);
    delta.insert(0, 11, 5.0, 1.0);
    delta.insert(1, 0, 4.0, 2.0);
    delta.insert(N_USERS as u32, 3, 5.0, 3.0); // a delta-only user
    delta.insert(2, N_ITEMS as u32, 5.0, 4.0); // a delta-only item
    let bits = |list: &[ScoredItem]| -> Vec<(u32, u64)> {
        list.iter().map(|s| (s.item, s.score.to_bits())).collect()
    };
    let opts = RecommendOptions::new();
    let mut ctx = ScoringContext::new();
    let (mut plain, mut with_delta) = (Vec::new(), Vec::new());
    let mut checked = 0;
    for (name, rec) in common::roster(&base) {
        if matches!(name, "HT" | "AT" | "AC1" | "AC2") {
            continue;
        }
        for user in 0..=N_USERS as u32 {
            rec.recommend_into(user, 5, &opts, &mut ctx, &mut plain);
            rec.recommend_into(user, 5, &opts.delta(&delta), &mut ctx, &mut with_delta);
            assert_eq!(bits(&with_delta), bits(&plain), "{name} user {user}");
        }
        checked += 1;
    }
    assert_eq!(checked, 5, "POP, LDA, PureSVD, PPR and DPPR");
}
