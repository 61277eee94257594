//! Chaos suite: the engine under deterministic injected faults.
//!
//! Drives [`FaultyRecommender`] plans through engines with breakers,
//! retries and degraded-mode fallback armed, and pins the fault-tolerance
//! contracts:
//!
//! * **fault isolation** (property) — an engine with one fault-injected
//!   model (fault seeds drawn per case) serves byte-identical rankings for
//!   every *other* model versus a fault-free engine, while the faulty model
//!   itself answers every request (its POP fallback covers what retries
//!   cannot) and each of its non-degraded answers ranks as the fault-free
//!   engine's does;
//! * **breaker lifecycle** — trips at the failure threshold, refuses fast
//!   (submit-time [`ServeError::CircuitOpen`] without spending a queue
//!   slot), and a successful half-open probe fully closes it;
//! * **retry** — a transient panic is retried on a fresh context and the
//!   request still answers non-degraded; a retry runs while the deadline
//!   has not passed and is abandoned once it has, and deadline-free
//!   requests stop at `max_attempts`;
//! * **fallback** — an unavailable primary (its last attempt panicked or
//!   returned poisoned scores) serves the registered fallback with
//!   [`RecommendResponse::degraded`] set, exactly the fallback's own
//!   ranking; once the breaker opens, the primary is not even attempted;
//! * **poison refusal** — NaN/−∞ scores are refused typed and feed the
//!   breaker;
//! * **no false failures** — a user id outside a model's training data is
//!   a user with no ratings in every family, served an empty list, never a
//!   breaker failure;
//! * **supervision** — a kill-marked worker death is detected and the
//!   worker respawned, keeping the configured pool size; a probe that
//!   kills its worker re-opens the breaker (never wedging it HalfOpen)
//!   and the respawned worker's next probe closes it.
//!
//! Every test that serves through an engine ends with
//! `common::assert_ledgers_balance`. Case counts honour `PROPTEST_CASES`
//! (see `vendor/proptest`), which CI pins so the suite stays bounded.

use longtail_core::{PopularityRecommender, Recommender, RerankIndex, ScoredItem};
use longtail_data::{Dataset, Rating};
use longtail_serve::{
    BreakerConfig, BreakerState, DeltaConfig, DeltaStore, Engine, FaultKind, FaultPlan,
    FaultyRecommender, RecommendRequest, RetryPolicy, ServeError, SharedRecommender,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::{assert_ledgers_balance, ratings, roster, N_ITEMS, N_USERS};

fn items_of(list: &[ScoredItem]) -> Vec<u32> {
    list.iter().map(|s| s.item).collect()
}

/// A small corpus every deterministic test shares.
fn corpus() -> Dataset {
    let ratings = [
        (0, 0, 5.0),
        (0, 1, 4.0),
        (1, 0, 4.0),
        (1, 2, 5.0),
        (2, 1, 3.0),
        (2, 3, 5.0),
        (3, 2, 4.0),
        (3, 4, 5.0),
    ]
    .map(|(user, item, value)| Rating { user, item, value });
    Dataset::from_ratings(4, 5, &ratings)
}

fn tight_breakers() -> BreakerConfig {
    BreakerConfig {
        window: 4,
        failure_threshold: 2,
        cooldown: Duration::from_secs(3600),
    }
}

proptest! {
    /// Fault isolation: wrap one model in a heavy seeded fault plan (with
    /// breakers, retries and a fallback armed) and hammer it; every
    /// *other* model's rankings — items and scores — stay byte-identical
    /// to a fault-free engine's, and come back non-degraded. The faulty
    /// model itself stays available: every request is answered, and a
    /// non-degraded answer has the fault-free engine's items. Both fault
    /// seeds are drawn per case, so each case faults a different set of
    /// calls.
    #[test]
    fn faulty_model_never_perturbs_other_models(
        rs in ratings(),
        panic_seed in 0u64..u64::MAX,
        poison_seed in 0u64..u64::MAX,
    ) {
        let d = Dataset::from_ratings(N_USERS, N_ITEMS, &rs);
        let models = roster(&d);
        let plan = FaultPlan::new()
            .seeded(panic_seed, 0.4, FaultKind::Panic)
            .seeded(poison_seed, 0.3, FaultKind::NanScores);

        let mut chaotic = Engine::builder()
            .workers(1)
            .breakers(BreakerConfig {
                window: 4,
                failure_threshold: 2,
                cooldown: Duration::ZERO,
            })
            .default_retry(RetryPolicy::attempts(2))
            .fallback("HT", "POP");
        let mut clean = Engine::builder().workers(1);
        for (name, rec) in &models {
            clean = clean.model(*name, Arc::clone(rec));
            chaotic = chaotic.model(*name, Arc::clone(rec));
        }
        // Re-register HT fault-wrapped on the chaotic engine only.
        let ht = models.iter().find(|(n, _)| *n == "HT").unwrap().1.clone();
        let chaotic = chaotic
            .model("HT", Arc::new(FaultyRecommender::new(ht, plan)) as SharedRecommender)
            .build();
        let clean = clean.build();

        for _round in 0..3 {
            for u in 0..d.n_users() as u32 {
                // Hammer the faulty model: protection answers every
                // request, and only the fallback may change its ranking.
                let req = RecommendRequest::new("HT", u, 5);
                let answer = chaotic.recommend(&req);
                prop_assert!(answer.is_ok(), "HT user {} unanswered: {:?}", u, answer);
                let answer = answer.unwrap();
                if !answer.degraded {
                    let reference = clean.recommend(&req).unwrap();
                    prop_assert_eq!(
                        items_of(&answer.items),
                        items_of(&reference.items),
                        "HT user {}: protection perturbed a healthy ranking",
                        u
                    );
                }
                for (name, _) in models.iter().filter(|(n, _)| *n != "HT") {
                    let req = RecommendRequest::new(*name, u, 5);
                    let with_chaos = chaotic.recommend(&req).unwrap();
                    let without = clean.recommend(&req).unwrap();
                    prop_assert!(!with_chaos.degraded, "{} user {}", name, u);
                    prop_assert_eq!(
                        &with_chaos.items,
                        &without.items,
                        "{} user {}: ranking perturbed by faulty sibling",
                        name,
                        u
                    );
                }
            }
        }
        assert_ledgers_balance(&chaotic.stats());
        assert_ledgers_balance(&clean.stats());
    }
}

#[test]
fn retry_recovers_from_transient_panic() {
    let d = corpus();
    let plan = FaultPlan::new().fault_on_call(0, FaultKind::Panic);
    let pop = Arc::new(PopularityRecommender::train(&d));
    let engine = Engine::builder()
        .workers(1)
        .model(
            "POP",
            Arc::new(FaultyRecommender::new(pop.clone(), plan)) as SharedRecommender,
        )
        .default_retry(RetryPolicy::attempts(2))
        .build();

    let resp = engine
        .recommend(&RecommendRequest::new("POP", 0, 3))
        .expect("second attempt must serve");
    assert!(!resp.degraded);
    assert_eq!(resp.items, pop.recommend(0, 3));
    let stats = engine.stats();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.retries, 1, "one extra attempt");
    assert_eq!(stats.contexts_discarded, 1, "panicked context dropped");
    assert_eq!(stats.panicked, 0, "the request did not fail");
    assert_ledgers_balance(&stats);
}

#[test]
fn retry_runs_while_the_deadline_has_not_passed() {
    // A retry only needs to *start* before the deadline (the DP cancels
    // cooperatively if it then expires), so a transient panic under a
    // deadline that has not yet passed is retried and served.
    let d = corpus();
    let plan = FaultPlan::new().fault_on_call(0, FaultKind::Panic);
    let pop = Arc::new(PopularityRecommender::train(&d));
    let engine = Engine::builder()
        .workers(1)
        .model(
            "POP",
            Arc::new(FaultyRecommender::new(pop.clone(), plan)) as SharedRecommender,
        )
        .build();

    let resp = engine
        .recommend(
            &RecommendRequest::new("POP", 0, 3)
                .with_retry(RetryPolicy::attempts(2))
                .deadline_in(Duration::from_secs(2)),
        )
        .expect("the retry starts within the deadline");
    assert!(!resp.degraded);
    assert_eq!(resp.items, pop.recommend(0, 3));
    let stats = engine.stats();
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.expired_at_dequeue + stats.expired_in_dp, 0);
    assert_ledgers_balance(&stats);
}

#[test]
fn retry_is_abandoned_once_the_deadline_has_passed() {
    // An attempt that fails after the deadline has passed is not retried,
    // however many attempts remain. The outer plan stalls the first
    // attempt past the deadline before the inner plan panics it. The
    // deadline leaves a scheduler stall before execution ample room, so
    // the request is not expired at dequeue instead.
    let d = corpus();
    let inner = Arc::new(FaultyRecommender::new(
        Arc::new(PopularityRecommender::train(&d)),
        FaultPlan::new().fault_on_call(0, FaultKind::Panic),
    ));
    let outer = FaultyRecommender::new(
        inner.clone(),
        FaultPlan::new().fault_on_call(0, FaultKind::Latency(Duration::from_secs(1))),
    );
    let engine = Engine::builder()
        .workers(1)
        .model("POP", Arc::new(outer) as SharedRecommender)
        .build();

    let err = engine
        .recommend(
            &RecommendRequest::new("POP", 0, 3)
                .with_retry(RetryPolicy::attempts(3))
                .deadline_in(Duration::from_millis(250)),
        )
        .unwrap_err();
    assert!(matches!(err, ServeError::RequestPanicked(_)), "{err:?}");
    assert_eq!(inner.calls_made(), 1, "no attempt after the deadline");
    let stats = engine.stats();
    assert_eq!(stats.retries, 0);
    assert_eq!(stats.panicked, 1);
    assert_ledgers_balance(&stats);
}

#[test]
fn deadline_free_requests_retry_exactly_max_attempts_times() {
    // The boundary's other side: with no deadline there is no time-based
    // abandon at all, so `max_attempts` must be what stops a persistently
    // failing request — never an unbounded spin.
    let d = corpus();
    let faulty = Arc::new(FaultyRecommender::new(
        Arc::new(PopularityRecommender::train(&d)),
        FaultPlan::new().fault_every(1, 0, FaultKind::Panic),
    ));
    let engine = Engine::builder()
        .workers(1)
        .model("POP", faulty.clone() as SharedRecommender)
        .build();

    let err = engine
        .recommend(&RecommendRequest::new("POP", 0, 3).with_retry(RetryPolicy::attempts(3)))
        .unwrap_err();
    assert!(matches!(err, ServeError::RequestPanicked(_)));
    assert_eq!(faulty.calls_made(), 3, "exactly max_attempts attempts");
    let stats = engine.stats();
    assert_eq!(stats.retries, 2);
    assert_eq!(stats.panicked, 1, "one failed request, not one per attempt");
    assert_ledgers_balance(&stats);
}

/// Run once with a panicking primary and once with a poisoned one: in the
/// second run the fallback answers a last attempt that returned NaN
/// scores.
#[test]
fn fallback_serves_degraded_and_open_breaker_stops_feeding_primary() {
    for fault in [FaultKind::Panic, FaultKind::NanScores] {
        check_fallback_serves_degraded(fault);
    }
}

fn check_fallback_serves_degraded(fault: FaultKind) {
    let d = corpus();
    let faulty = Arc::new(FaultyRecommender::new(
        Arc::new(PopularityRecommender::train(&d)),
        FaultPlan::new().fault_every(1, 0, fault),
    ));
    let pop = Arc::new(PopularityRecommender::train(&d));
    let engine = Engine::builder()
        .workers(1)
        .model("primary", faulty.clone() as SharedRecommender)
        .model("POP", pop.clone() as SharedRecommender)
        .fallback("primary", "POP")
        .breakers(tight_breakers())
        .build();

    let req = |user| RecommendRequest::new("primary", user, 3).excluding(vec![4]);
    for user in 0..4u32 {
        let resp = engine.recommend(&req(user)).expect("fallback must answer");
        assert!(resp.degraded, "{fault:?} user {user}: primary always fails");
        assert_eq!(resp.model, "POP");
        // The degraded list is exactly the fallback's own ranking, request
        // exclusions included.
        let direct = pop.recommend(user, 3);
        let direct: Vec<ScoredItem> = direct.into_iter().filter(|s| s.item != 4).collect();
        assert_eq!(
            items_of(&resp.items),
            items_of(&direct),
            "{fault:?} user {user}"
        );
    }
    let stats = engine.stats();
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.degraded, 4);

    // Two failures tripped the breaker (threshold 2); with the hour-long
    // cooldown, requests 3 and 4 were answered without the primary being
    // attempted at all.
    let health = engine.health();
    let primary = health.models.iter().find(|m| m.name == "primary").unwrap();
    assert_eq!(primary.breaker, BreakerState::Open);
    assert_eq!(primary.fallback.as_deref(), Some("POP"));
    assert!(!health.all_healthy());
    assert_eq!(
        faulty.calls_made(),
        2,
        "open breaker must stop feeding the primary"
    );
    assert_ledgers_balance(&engine.stats());
}

#[test]
fn open_breaker_without_fallback_fails_fast_at_submit() {
    let d = corpus();
    let faulty = Arc::new(FaultyRecommender::new(
        Arc::new(PopularityRecommender::train(&d)),
        FaultPlan::new().fault_every(1, 0, FaultKind::Panic),
    ));
    let engine = Engine::builder()
        .workers(1)
        .model("primary", faulty as SharedRecommender)
        .breakers(tight_breakers())
        .build();

    // Trip: two panics (no retries, no fallback → typed failures).
    for user in 0..2u32 {
        let err = engine
            .recommend(&RecommendRequest::new("primary", user, 3))
            .unwrap_err();
        assert!(matches!(err, ServeError::RequestPanicked(_)));
    }
    let before = engine.stats();

    // Fail fast: refused at submit, before any queue slot or context is
    // spent — `submitted` must not move.
    let err = engine
        .submit(RecommendRequest::new("primary", 2, 3))
        .unwrap_err();
    assert_eq!(err, ServeError::CircuitOpen);
    assert_eq!(engine.queue_depth(), 0);
    let after = engine.stats().since(&before);
    assert_eq!(after.circuit_open, 1);
    assert_eq!(after.submitted, 0, "a refused request is never admitted");
    assert_eq!(after.dropped(), 0, "breaker refusals are not drops");

    // The inline path refuses typed too.
    let err = engine
        .recommend(&RecommendRequest::new("primary", 2, 3))
        .unwrap_err();
    assert_eq!(err, ServeError::CircuitOpen);
    assert_ledgers_balance(&engine.stats());
}

#[test]
fn out_of_range_users_are_served_empty_and_never_trip_the_breaker() {
    let d = corpus();
    let models = roster(&d);
    let mut builder = Engine::builder()
        .workers(1)
        .breakers(BreakerConfig::default());
    for (name, model) in &models {
        builder = builder.model(*name, model.clone());
    }
    let engine = builder.build();
    let outside = [4, 999, u32::MAX];
    for (model, rec) in &models {
        // The family's own contract: no rated items, all `-∞` scores.
        for &user in &outside {
            assert!(rec.rated_items(user).is_empty(), "{model} user {user}");
            let scores = rec.score_items(user);
            assert_eq!(scores.len(), d.n_items(), "{model} user {user}");
            assert!(
                scores.iter().all(|&s| s == f64::NEG_INFINITY),
                "{model} user {user}: {scores:?}"
            );
        }
        // A burst through the worker pool, then more on the inline path.
        let burst = (0..8)
            .map(|i| RecommendRequest::new(*model, outside[i % outside.len()], 3))
            .collect();
        for reply in engine.recommend_batch(burst) {
            let reply = reply.expect("an out-of-range user is served, not failed");
            assert!(reply.items.is_empty(), "{model}: {:?}", reply.items);
        }
        for &user in &outside {
            let reply = engine
                .recommend(&RecommendRequest::new(*model, user, 3))
                .expect("an out-of-range user is served, not failed");
            assert!(reply.items.is_empty(), "{model} user {user}");
        }
        let valid = engine
            .recommend(&RecommendRequest::new(*model, 0, 3))
            .expect("a valid user is still served");
        assert!(!valid.items.is_empty(), "{model}: user 0 has candidates");
    }
    for model in engine.health().models {
        assert_eq!(model.breaker, BreakerState::Closed, "{}", model.name);
        assert_eq!(model.breaker_trips, 0, "{}", model.name);
    }
    let stats = engine.stats();
    assert_eq!(stats.panicked, 0);
    assert_eq!(stats.failed, 0);
    assert_ledgers_balance(&stats);
}

#[test]
fn successful_probe_fully_closes_breaker() {
    let d = corpus();
    // Calls 0 and 1 panic; everything after serves cleanly.
    let plan = FaultPlan::new()
        .fault_on_call(0, FaultKind::Panic)
        .fault_on_call(1, FaultKind::Panic);
    let pop = Arc::new(PopularityRecommender::train(&d));
    let engine = Engine::builder()
        .workers(1)
        .model(
            "POP",
            Arc::new(FaultyRecommender::new(pop.clone(), plan)) as SharedRecommender,
        )
        .breakers(BreakerConfig {
            window: 4,
            failure_threshold: 2,
            cooldown: Duration::ZERO,
        })
        .build();

    let req = RecommendRequest::new("POP", 0, 3);
    assert!(engine.recommend(&req).is_err());
    assert!(engine.recommend(&req).is_err());
    // Zero cooldown: the next request is the half-open probe; the model
    // has recovered, so the probe serves and fully closes the breaker.
    let resp = engine.recommend(&req).expect("probe must serve");
    assert!(!resp.degraded);
    assert_eq!(resp.items, pop.recommend(0, 3));
    let health = engine.health();
    assert_eq!(health.models[0].breaker, BreakerState::Closed);
    assert_eq!(health.models[0].breaker_trips, 1);
    assert!(health.all_healthy());
    // And stays closed for normal traffic.
    for user in 0..4u32 {
        assert!(engine
            .recommend(&RecommendRequest::new("POP", user, 3))
            .is_ok());
    }
    assert_ledgers_balance(&engine.stats());
}

#[test]
fn poisoned_scores_are_refused_and_feed_the_breaker() {
    let d = corpus();
    let plan = FaultPlan::new()
        .fault_on_call(0, FaultKind::NanScores)
        .fault_on_call(1, FaultKind::NegInfScores);
    let engine = Engine::builder()
        .workers(1)
        .model(
            "POP",
            Arc::new(FaultyRecommender::new(
                Arc::new(PopularityRecommender::train(&d)),
                plan,
            )) as SharedRecommender,
        )
        .breakers(tight_breakers())
        .build();

    for user in 0..2u32 {
        let err = engine
            .recommend(&RecommendRequest::new("POP", user, 3))
            .unwrap_err();
        assert_eq!(err, ServeError::PoisonedScores, "user {user}");
    }
    let stats = engine.stats();
    assert_eq!(stats.failed, 2);
    assert_eq!(stats.contexts_discarded, 0, "no panic: contexts survive");
    // Two poisons == threshold: the breaker is open.
    assert_eq!(engine.health().models[0].breaker, BreakerState::Open);
    assert_ledgers_balance(&stats);
}

#[test]
fn killed_worker_is_respawned_by_supervision() {
    let d = corpus();
    let plan = FaultPlan::new().fault_on_call(0, FaultKind::KillWorker);
    let engine = Engine::builder()
        .workers(1)
        .model(
            "POP",
            Arc::new(FaultyRecommender::new(
                Arc::new(PopularityRecommender::train(&d)),
                plan,
            )) as SharedRecommender,
        )
        .build();

    // The kill-marked request is still answered before the worker dies.
    let err = engine
        .submit(RecommendRequest::new("POP", 0, 3))
        .unwrap()
        .wait()
        .unwrap_err();
    assert!(
        matches!(&err, ServeError::RequestPanicked(msg)
            if msg.contains(longtail_serve::WORKER_KILL_MARK)),
        "unexpected error: {err:?}"
    );

    // Supervision (run by health/submit) notices the death and respawns;
    // the notice is filed as the thread unwinds, so poll briefly.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while engine.stats().workers_restarted == 0 {
        engine.health();
        assert!(
            std::time::Instant::now() < deadline,
            "supervision never respawned the killed worker"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(engine.n_workers(), 1, "pool back at configured size");
    let health = engine.health();
    assert_eq!(health.workers_alive, 1);
    assert_eq!(health.workers_configured, 1);

    // The respawned worker serves (call 1 of the plan is clean).
    let resp = engine
        .submit(RecommendRequest::new("POP", 1, 3))
        .unwrap()
        .wait()
        .expect("respawned worker must serve");
    assert!(!resp.degraded);
    assert_eq!(engine.stats().workers_restarted, 1);
    assert_ledgers_balance(&engine.stats());
}

#[test]
fn probe_that_kills_its_worker_reopens_breaker_and_recovers() {
    // Chaos regression for the wedged-HalfOpen bug: the half-open state
    // holds a single probe token, and a probe whose worker dies must hand
    // it back (breaker → Open) rather than leave the breaker HalfOpen
    // forever with the token leaked — which would refuse every future
    // request with no path back to Closed.
    let d = corpus();
    // Calls 0 and 1 trip the breaker; call 2 is the probe, which takes its
    // worker down; call 3 (the respawned worker's probe) serves cleanly.
    let plan = FaultPlan::new()
        .fault_on_call(0, FaultKind::Panic)
        .fault_on_call(1, FaultKind::Panic)
        .fault_on_call(2, FaultKind::KillWorker);
    let pop = Arc::new(PopularityRecommender::train(&d));
    let engine = Engine::builder()
        .workers(1)
        .model(
            "POP",
            Arc::new(FaultyRecommender::new(pop.clone(), plan)) as SharedRecommender,
        )
        .breakers(BreakerConfig {
            window: 4,
            failure_threshold: 2,
            cooldown: Duration::ZERO,
        })
        .build();

    let send = |user| {
        engine
            .submit(RecommendRequest::new("POP", user, 3))
            .unwrap()
            .wait()
    };
    assert!(send(0).is_err());
    assert!(send(1).is_err()); // breaker trips (threshold 2)

    // Zero cooldown: this request is the half-open probe — and it kills
    // the worker on its way out.
    let err = send(2).unwrap_err();
    assert!(
        matches!(&err, ServeError::RequestPanicked(msg)
            if msg.contains(longtail_serve::WORKER_KILL_MARK)),
        "unexpected error: {err:?}"
    );
    // The dead probe must not wedge the breaker HalfOpen: it is Open
    // again, cooling down toward the next probe.
    let state = engine.health().models[0].breaker;
    assert_eq!(state, BreakerState::Open, "probe death must re-open");

    // Supervision respawns the killed worker (poll as the thread unwinds).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while engine.stats().workers_restarted == 0 {
        engine.health();
        assert!(
            std::time::Instant::now() < deadline,
            "supervision never respawned the killed worker"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // The engine recovered end to end: the next request is a fresh probe
    // on the respawned worker; it serves and fully closes the breaker.
    let resp = send(3).expect("recovered probe must serve");
    assert!(!resp.degraded);
    assert_eq!(resp.items, pop.recommend(3, 3));
    let health = engine.health();
    assert_eq!(health.models[0].breaker, BreakerState::Closed);
    assert!(health.all_healthy());
    assert_ledgers_balance(&engine.stats());
}

#[test]
fn latency_fault_blows_the_deadline_typed() {
    let d = corpus();
    let plan = FaultPlan::new().fault_on_call(0, FaultKind::Latency(Duration::from_millis(50)));
    let engine = Engine::builder()
        .workers(1)
        .model(
            "POP",
            Arc::new(FaultyRecommender::new(
                Arc::new(PopularityRecommender::train(&d)),
                plan,
            )) as SharedRecommender,
        )
        .build();

    // POP runs no DP loop, so the injected sleep surfaces as a served
    // response (the cooperative mid-DP check belongs to the walk family);
    // a request whose deadline has *already* passed when picked up is shed
    // typed — that path is what we pin here.
    let expired = RecommendRequest::new("POP", 0, 3)
        .deadline_at(std::time::Instant::now() - Duration::from_millis(1));
    assert_eq!(
        engine.recommend(&expired).unwrap_err(),
        ServeError::DeadlineExceeded
    );
    assert_eq!(engine.stats().expired_at_dequeue, 1);
    assert_ledgers_balance(&engine.stats());
}

#[test]
fn builder_rejects_bad_fallback_wiring() {
    let d = corpus();
    let build = |fallback: &'static str| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Engine::builder()
                .workers(1)
                .model(
                    "POP",
                    Arc::new(PopularityRecommender::train(&d)) as SharedRecommender,
                )
                .fallback("POP", fallback)
                .build()
        }))
    };
    assert!(build("missing").is_err(), "fallback must be registered");
    assert!(build("POP").is_err(), "a model cannot be its own fallback");
}

/// The message `build` panics with, or `None` if it built.
fn build_panic(build: impl FnOnce() -> Engine) -> Option<String> {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(build)).err()?;
    let message = payload.downcast_ref::<String>().cloned();
    Some(message.unwrap_or_default())
}

#[test]
fn builder_rejects_ingest_and_rerank_on_unknown_models() {
    let d = corpus();
    let builder = || {
        Engine::builder().workers(1).model(
            "POP",
            Arc::new(PopularityRecommender::train(&d)) as SharedRecommender,
        )
    };
    let store = Arc::new(DeltaStore::new(d.clone(), DeltaConfig::default()));
    let index = Arc::new(RerankIndex::from_dataset(&d));

    let ingest = build_panic(|| builder().ingest("missing", store).build());
    assert_eq!(
        ingest.as_deref(),
        Some("ingest store attached to unknown model \"missing\"")
    );
    let rerank = build_panic(|| builder().rerank_index("missing", index).build());
    assert_eq!(
        rerank.as_deref(),
        Some("rerank index attached to unknown model \"missing\"")
    );
}
