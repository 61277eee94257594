//! The async serving front-end's contracts.
//!
//! * **Equivalence** — with no deadlines and no backpressure engaged,
//!   `submit` + drain answers item- and score-identically to the blocking
//!   batch API and to direct `recommend_into`, across every recommender
//!   family (proptested; `PROPTEST_CASES` honoured).
//! * **Backpressure** — under a deterministically full queue,
//!   `AdmissionPolicy::Reject` refuses the *new* request and
//!   `AdmissionPolicy::ShedOldest` sheds the *oldest queued* one, both
//!   without blocking the submitter.
//! * **Deadlines** — an already-expired deadline is shed at dequeue
//!   without touching the DP; a deadline that expires mid-queue-wait
//!   cancels the walk cooperatively (`expired_in_dp`).
//! * **Bounded-time shutdown** — dropping the engine cancels queued
//!   not-yet-started requests instead of serving the backlog.
//! * **Burst accounting** — `EngineStats::since` and
//!   `DpTelemetry::since` scope the engine's ledgers to one burst.
//!
//! The deterministic full-queue/shutdown tests drive the shared
//! `common::GatedRecommender`: a wrapper that parks inside
//! `recommend_into` until the test opens its gate, making "worker busy,
//! queue full" a constructed state rather than a race. Every test but the
//! shutdown one ends with `common::assert_ledgers_balance`.

use longtail_core::{
    DpStopping, GraphRecConfig, HittingTimeRecommender, RecommendOptions, Recommender, ScoredItem,
    ScoringContext,
};
use longtail_data::Dataset;
use longtail_serve::{
    AdmissionPolicy, Engine, PendingResponse, Priority, RecommendRequest, ServeError,
    SharedRecommender,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::{
    assert_ledgers_balance, chain_dataset, ratings, roster, tiny_dataset, Gate, GatedRecommender,
    HANG, N_ITEMS, N_USERS,
};

fn items_of(list: &[ScoredItem]) -> Vec<u32> {
    list.iter().map(|s| s.item).collect()
}

proptest! {
    /// `submit` + drain ≡ `recommend_batch` ≡ direct `recommend_into`,
    /// item-for-item and score-for-score, when no deadline fires and the
    /// queue never saturates (Block policy) — across all families.
    #[test]
    fn submit_drain_matches_blocking_batch(rs in ratings()) {
        let d = Dataset::from_ratings(N_USERS, N_ITEMS, &rs);
        let models = roster(&d);
        let mut builder = Engine::builder().workers(2);
        for (name, rec) in &models {
            builder = builder.model(*name, Arc::clone(rec));
        }
        let engine = builder.build();

        let requests: Vec<RecommendRequest> = models
            .iter()
            .flat_map(|(name, _)| {
                (0..d.n_users() as u32).map(|u| RecommendRequest::new(*name, u, 5))
            })
            .collect();

        // Async: fan out every submission first, then drain in order.
        let pending: Vec<PendingResponse> = requests
            .iter()
            .map(|r| engine.submit(r.clone()).expect("Block policy admits all"))
            .collect();
        let async_results: Vec<_> = pending.into_iter().map(|p| p.wait()).collect();

        // Blocking batch over the same requests.
        let batch_results = engine.recommend_batch(requests.clone());

        let mut ctx = ScoringContext::new();
        let mut direct = Vec::new();
        let opts = RecommendOptions::default();
        for (i, req) in requests.iter().enumerate() {
            let (_, rec) = &models[i / d.n_users()];
            let a = async_results[i].as_ref().expect("no deadline, no saturation");
            let b = batch_results[i].as_ref().expect("no deadline, no saturation");
            rec.recommend_into(req.user, req.k, &opts, &mut ctx, &mut direct);
            prop_assert_eq!(&a.items, &direct, "{} user {}: submit+drain diverged", req.model, req.user);
            prop_assert_eq!(&b.items, &direct, "{} user {}: batch diverged", req.model, req.user);
        }
        // Ledger: everything submitted completed; nothing dropped.
        let stats = engine.stats();
        prop_assert_eq!(stats.submitted, 2 * requests.len() as u64);
        prop_assert_eq!(stats.completed, stats.submitted);
        prop_assert_eq!(stats.dropped(), 0);
        assert_ledgers_balance(&stats);
    }
}

/// A 1-worker engine over the gated model with the worker provably parked
/// inside a request and the queue provably empty — the setup every
/// saturation test starts from.
fn gated_engine(capacity: usize, policy: AdmissionPolicy) -> (Engine, Arc<Gate>, PendingResponse) {
    let gate = Gate::closed();
    let model: SharedRecommender = Arc::new(GatedRecommender::new(
        HittingTimeRecommender::new(&tiny_dataset(), GraphRecConfig::default()),
        Arc::clone(&gate),
    ));
    let engine = Engine::builder()
        .model("gated", model)
        .workers(1)
        .queue_capacity(capacity)
        .admission(policy)
        .build();
    let in_flight = engine
        .submit(RecommendRequest::new("gated", 0, 1))
        .expect("empty queue admits");
    gate.await_arrivals(1); // the worker holds it; the queue is empty again
    assert_eq!(engine.queue_depth(), 0);
    (engine, gate, in_flight)
}

#[test]
fn reject_policy_refuses_without_blocking_when_full() {
    let (engine, gate, in_flight) = gated_engine(2, AdmissionPolicy::Reject);
    let q1 = engine.submit(RecommendRequest::new("gated", 1, 1)).unwrap();
    let q2 = engine.submit(RecommendRequest::new("gated", 0, 1)).unwrap();
    assert_eq!(engine.queue_depth(), 2);
    // Queue full: the refusal is immediate (this call returning at all,
    // with the worker parked, is the non-blocking assertion).
    let refused = engine.submit(RecommendRequest::new("gated", 1, 1));
    assert!(matches!(refused, Err(ServeError::Overloaded)));
    let stats = engine.stats();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.submitted, 3);

    gate.open();
    for p in [in_flight, q1, q2] {
        assert!(p.wait().is_ok(), "admitted requests all complete");
    }
    let stats = engine.stats();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.shed, 0);
    assert_ledgers_balance(&stats);
}

#[test]
fn shed_oldest_policy_sheds_the_oldest_queued_request() {
    let (engine, gate, in_flight) = gated_engine(2, AdmissionPolicy::ShedOldest);
    let oldest = engine.submit(RecommendRequest::new("gated", 1, 1)).unwrap();
    let middle = engine.submit(RecommendRequest::new("gated", 0, 1)).unwrap();
    // Queue full: the new submission is admitted at the oldest's expense,
    // without blocking (and without touching the in-flight request).
    let newest = engine.submit(RecommendRequest::new("gated", 1, 1)).unwrap();
    assert_eq!(engine.queue_depth(), 2);
    assert_eq!(oldest.wait(), Err(ServeError::Overloaded));
    let stats = engine.stats();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.submitted, 4);

    gate.open();
    for p in [in_flight, middle, newest] {
        assert!(p.wait().is_ok(), "surviving requests all complete");
    }
    assert_eq!(engine.stats().completed, 3);
    assert_ledgers_balance(&engine.stats());
}

#[test]
fn expired_deadline_is_shed_at_dequeue_without_running_the_dp() {
    let d = tiny_dataset();
    let engine = Engine::builder()
        .model(
            "HT",
            Arc::new(HittingTimeRecommender::new(&d, GraphRecConfig::default())),
        )
        .workers(1)
        .build();
    // The deadline is already past at submission: the worker must answer
    // DeadlineExceeded without any scoring — the DP telemetry stays empty.
    let pending = engine
        .submit(RecommendRequest::new("HT", 0, 1).deadline_at(Instant::now()))
        .unwrap();
    assert_eq!(pending.wait(), Err(ServeError::DeadlineExceeded));
    assert_eq!(engine.telemetry().queries, 0, "the DP must never have run");
    let stats = engine.stats();
    assert_eq!(stats.expired_at_dequeue, 1);
    assert_eq!(stats.expired_in_dp, 0);
    assert_eq!(stats.completed, 0);

    // Same contract on the inline path.
    let refused = engine.recommend(&RecommendRequest::new("HT", 0, 1).deadline_at(Instant::now()));
    assert_eq!(refused, Err(ServeError::DeadlineExceeded));
    assert_eq!(engine.telemetry().queries, 0);
    assert_eq!(engine.stats().expired_at_dequeue, 2);

    // An undeadlined request on the same engine still serves.
    assert!(engine.recommend(&RecommendRequest::new("HT", 0, 1)).is_ok());
    assert_ledgers_balance(&engine.stats());
}

#[test]
fn deadline_expiring_mid_request_cancels_the_walk() {
    // The gate parks the request *after* the dequeue-time deadline check
    // but *before* the walk runs; opening it only once the deadline has
    // passed forces the expiry onto the DP's cooperative cancellation
    // path.
    let gate = Gate::closed();
    let model: SharedRecommender = Arc::new(GatedRecommender::new(
        HittingTimeRecommender::new(&chain_dataset(), GraphRecConfig::default()),
        Arc::clone(&gate),
    ));
    let engine = Engine::builder().model("gated", model).workers(1).build();
    let deadline = Instant::now() + Duration::from_millis(200);
    let pending = engine
        .submit(RecommendRequest::new("gated", 12, 5).deadline_at(deadline))
        .unwrap();
    gate.await_arrivals(1); // dequeued: the deadline check already passed
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    gate.open();
    assert_eq!(pending.wait(), Err(ServeError::DeadlineExceeded));
    let stats = engine.stats();
    assert_eq!(stats.expired_in_dp, 1);
    assert_eq!(stats.expired_at_dequeue, 0);
    // The cancelled run is visible in the DP telemetry too.
    assert_eq!(engine.telemetry().deadline_expired, 1);
    assert_ledgers_balance(&stats);
}

#[test]
fn engine_drop_cancels_queued_requests_in_bounded_time() {
    // Regression for the unbounded-shutdown bug: drop used to let workers
    // drain the whole queue before joining. Now the backlog is cancelled:
    // with the single worker parked on an in-flight request, the queued
    // requests must resolve ShuttingDown *while the worker is still
    // parked* — shutdown never waits on them.
    let (engine, gate, in_flight) = gated_engine(8, AdmissionPolicy::Block);
    let queued_a = engine.submit(RecommendRequest::new("gated", 1, 1)).unwrap();
    let queued_b = engine.submit(RecommendRequest::new("gated", 0, 1)).unwrap();
    assert_eq!(engine.queue_depth(), 2);

    let dropper = std::thread::spawn(move || drop(engine));
    for mut queued in [queued_a, queued_b] {
        // Resolved while the gate is still closed: bounded-time teardown.
        assert_eq!(
            queued.wait_timeout(HANG),
            Some(Err(ServeError::ShuttingDown)),
            "queued request not cancelled by shutdown"
        );
    }
    // Only now may the in-flight request finish; drop joins behind it.
    gate.open();
    assert!(in_flight.wait().is_ok(), "in-flight request still answered");
    dropper.join().unwrap();
    // No ledger check: the drop under test takes the engine, and its
    // stats, with it before the last handle resolves.
}

#[test]
fn zero_worker_engine_resolves_submissions_synchronously() {
    let d = tiny_dataset();
    let engine = Engine::builder()
        .model(
            "HT",
            Arc::new(HittingTimeRecommender::new(&d, GraphRecConfig::default())),
        )
        .workers(0)
        .build();
    assert_eq!(engine.queue_depth(), 0);
    let mut pending = engine.submit(RecommendRequest::new("HT", 0, 1)).unwrap();
    // Already resolved: the poll succeeds without any worker existing.
    let response = pending.try_recv().expect("inline submission is ready");
    assert!(response.is_ok());
    assert_eq!(engine.stats().completed, 1);
    assert_ledgers_balance(&engine.stats());
}

#[test]
fn try_recv_polls_and_wait_timeout_bounds() {
    let (engine, gate, mut in_flight) = gated_engine(4, AdmissionPolicy::Block);
    assert_eq!(in_flight.try_recv(), None, "request still parked");
    assert_eq!(
        in_flight.wait_timeout(Duration::from_millis(20)),
        None,
        "timeout elapses while the gate is closed"
    );
    gate.open();
    let response = in_flight
        .wait_timeout(HANG)
        .expect("opened gate resolves the request");
    assert!(response.is_ok());
    assert_ledgers_balance(&engine.stats());
    drop(engine);
}

#[test]
fn fixed_stopping_override_with_deadline_still_serves_exact_lists() {
    // A deadline-carrying Fixed request routes through the cancellable DP
    // form; with a generous deadline its list must equal the plain Fixed
    // list exactly (scores included).
    let d = tiny_dataset();
    let rec = HittingTimeRecommender::new(&d, GraphRecConfig::default());
    let engine = Engine::builder()
        .model("HT", Arc::new(rec.clone()))
        .workers(1)
        .build();
    let far = Instant::now() + Duration::from_secs(3600);
    let deadlined = engine
        .submit(
            RecommendRequest::new("HT", 0, 2)
                .with_stopping(DpStopping::Fixed)
                .deadline_at(far),
        )
        .unwrap()
        .wait()
        .unwrap();
    let mut ctx = ScoringContext::new();
    let mut direct = Vec::new();
    rec.recommend_into(
        0,
        2,
        &RecommendOptions::with_stopping(DpStopping::Fixed),
        &mut ctx,
        &mut direct,
    );
    assert_eq!(deadlined.items, direct);
    assert_eq!(items_of(&deadlined.items), items_of(&direct));
    assert_ledgers_balance(&engine.stats());
}

/// An open-loop burst through `recommend_batch` (every request submitted
/// before any is claimed): the stats and telemetry diffs cover exactly
/// that burst, the per-class QoS ledgers balance, and served requests'
/// latencies surface as percentiles.
#[test]
fn stats_since_scopes_one_batch_burst() {
    let engine = Engine::builder()
        .model(
            "HT",
            Arc::new(HittingTimeRecommender::new(
                &tiny_dataset(),
                GraphRecConfig::default(),
            )),
        )
        .workers(1)
        .build();
    // A mixed burst: two live requests (one Batch-class) and one
    // already-expired Interactive request.
    let requests = vec![
        RecommendRequest::new("HT", 0, 1),
        RecommendRequest::new("HT", 1, 1).deadline_at(Instant::now()),
        RecommendRequest::new("HT", 1, 1).with_priority(Priority::Batch),
    ];
    let (stats_before, dp_before) = (engine.stats(), engine.telemetry());
    let results = engine.recommend_batch(requests);
    assert!(results[0].is_ok() && results[2].is_ok());
    assert_eq!(results[1], Err(ServeError::DeadlineExceeded));
    let stats = engine.stats().since(&stats_before);
    assert_eq!(stats.submitted, 3);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.expired_at_dequeue, 1);
    // The per-class QoS ledgers ride the same diff: both ledgers balance
    // and the served requests' latencies surface as percentiles.
    assert_ledgers_balance(&stats);
    let interactive = stats.per_class[Priority::Interactive.index()];
    let batch = stats.per_class[Priority::Batch.index()];
    assert_eq!(interactive.submitted, 2);
    assert_eq!(interactive.served, 1);
    assert_eq!(interactive.expired, 1);
    assert_eq!(batch.submitted, 1);
    assert_eq!(batch.served, 1);
    assert!(interactive.latency_p50().is_some());
    assert!(batch.latency_p99().unwrap() >= batch.latency_p50().unwrap());
    // The DP telemetry diff covers only the completed walk queries.
    assert_eq!(engine.telemetry().since(&dp_before).queries, 2);

    // A second burst's diff starts from zero, not engine lifetime.
    let before = engine.stats();
    engine.recommend_batch(vec![RecommendRequest::new("HT", 0, 1)]);
    assert_eq!(engine.stats().since(&before).submitted, 1);
    assert_ledgers_balance(&engine.stats());
}
