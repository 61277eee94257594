//! The QoS scheduler's contracts.
//!
//! * **Order, not contents** — the scheduler may reorder and shed, but a
//!   request it serves returns a ranking identical to calling the routed
//!   recommender directly: proptested across every family with the single
//!   worker parked so the whole mixed-priority batch is reordered in the
//!   queue, under a binding per-model quota (`ShedOldest`).
//! * **Strict priority + EDF** — with the worker parked and a scrambled
//!   submission order, the served order is class-ascending, then earliest
//!   deadline, then arrival (deadline-free requests after deadlined ones).
//! * **Quotas** — one model's burst is refused at its quota while the
//!   queue still has room for other models.
//! * **Slack shedding** — once the EWMA of a model's service time proves
//!   a deadline unmeetable, the request is dropped at dequeue without the
//!   model ever running (`shed_unmeetable`); a meetable deadline on the
//!   same engine still serves.
//! * **Ledgers** — every test ends with `common::assert_ledgers_balance`:
//!   each admitted request has exactly one outcome, globally and per class
//!   (`submitted = served + shed + expired + failed`).

use longtail_core::{
    GraphRecConfig, HittingTimeRecommender, RecommendOptions, Recommender, ScoredItem,
    ScoringContext,
};
use longtail_data::Dataset;
use longtail_serve::{
    AdmissionPolicy, Engine, Priority, RecommendRequest, SchedPolicy, ServeError, SharedRecommender,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::{
    assert_ledgers_balance, chain_dataset, ratings, roster, tiny_dataset, Gate, GatedRecommender,
    N_ITEMS, N_USERS,
};

proptest! {
    /// EDF ordering and per-model quotas never change the *contents* of a
    /// served ranking. The single worker is parked on a gated request, so
    /// every submission below is reordered in the queue by the Qos
    /// scheduler before service; the quota of 3 (against 4 requests per
    /// model) forces the shed path too. Every request that comes back `Ok`
    /// must match direct `recommend_into` item-for-item, score-for-score.
    #[test]
    fn qos_reorders_and_sheds_but_never_perturbs_served_rankings(rs in ratings()) {
        let d = Dataset::from_ratings(N_USERS, N_ITEMS, &rs);
        let models = roster(&d);
        let gate = Gate::closed();
        let gated = GatedRecommender::new(
            HittingTimeRecommender::new(&d, GraphRecConfig::default()),
            Arc::clone(&gate),
        );
        let mut builder = Engine::builder()
            .workers(1)
            .queue_capacity(256)
            .admission(AdmissionPolicy::ShedOldest)
            .scheduling(SchedPolicy::Qos)
            .model_quota(3)
            .model("gated", Arc::new(gated) as SharedRecommender);
        for (name, rec) in &models {
            builder = builder.model(*name, Arc::clone(rec));
        }
        let engine = builder.build();
        let parked = engine.submit(RecommendRequest::new("gated", 0, 3)).unwrap();
        gate.await_arrivals(1); // worker held mid-request, queue empty

        // Mixed classes, mixed deadlines (all generous: nothing expires),
        // four requests per model against a quota of three.
        let far = Instant::now() + Duration::from_secs(3600);
        let classes = [Priority::Interactive, Priority::Batch, Priority::Background];
        let mut submitted = Vec::new();
        for (mi, (name, _)) in models.iter().enumerate() {
            for u in 0..4u32 {
                let i = mi * 4 + u as usize;
                let mut req = RecommendRequest::new(*name, u % N_USERS as u32, 5)
                    .with_priority(classes[i % classes.len()]);
                if i.is_multiple_of(2) {
                    req = req.deadline_at(far);
                }
                let pending = engine.submit(req.clone()).expect("quota sheds, never refuses");
                submitted.push((pending, req));
            }
        }
        gate.open();
        prop_assert!(parked.wait().is_ok());

        let mut ctx = ScoringContext::new();
        let mut direct: Vec<ScoredItem> = Vec::new();
        let opts = RecommendOptions::default();
        let (mut served, mut shed) = (0u64, 0u64);
        for (pending, req) in submitted {
            match pending.wait() {
                Ok(resp) => {
                    let (_, rec) = models
                        .iter()
                        .find(|(n, _)| req.model == *n)
                        .expect("submitted model is in the roster");
                    rec.recommend_into(req.user, req.k, &opts, &mut ctx, &mut direct);
                    prop_assert_eq!(
                        &resp.items, &direct,
                        "{} user {}: scheduler perturbed a served ranking",
                        req.model, req.user
                    );
                    served += 1;
                }
                Err(ServeError::Overloaded) => shed += 1,
                Err(e) => prop_assert!(false, "unexpected failure: {e}"),
            }
        }
        // Exactly one shed per model (the fourth submission evicts within
        // its own model), everything else served.
        prop_assert_eq!(shed, models.len() as u64);
        prop_assert_eq!(served, 3 * models.len() as u64);
        let stats = engine.stats();
        prop_assert_eq!(stats.shed, shed);
        prop_assert_eq!(stats.completed, served + 1); // + the parked request
        assert_ledgers_balance(&stats);
    }
}

#[test]
fn served_order_is_class_then_deadline_then_arrival() {
    let gate = Gate::closed();
    let gated = GatedRecommender::new(
        HittingTimeRecommender::new(&chain_dataset(), GraphRecConfig::default()),
        Arc::clone(&gate),
    );
    let served_log = Arc::clone(&gated.served);
    let engine = Engine::builder()
        .model("gated", Arc::new(gated) as SharedRecommender)
        .workers(1)
        .queue_capacity(8)
        .scheduling(SchedPolicy::Qos)
        .build();
    let parked = engine
        .submit(RecommendRequest::new("gated", 20, 3))
        .unwrap();
    gate.await_arrivals(1);
    assert_eq!(engine.queue_depth(), 0);

    // Scrambled submission order; the EDF schedule is none of FIFO, LIFO
    // or deadline-only order.
    let near = Instant::now() + Duration::from_secs(1800);
    let far = Instant::now() + Duration::from_secs(3600);
    let reqs = [
        RecommendRequest::new("gated", 13, 3)
            .with_priority(Priority::Batch)
            .deadline_at(near),
        RecommendRequest::new("gated", 11, 3).deadline_at(far),
        RecommendRequest::new("gated", 12, 3),
        RecommendRequest::new("gated", 10, 3).deadline_at(near),
    ];
    let pending: Vec<_> = reqs
        .iter()
        .map(|r| engine.submit(r.clone()).unwrap())
        .collect();
    assert_eq!(engine.queue_depth(), 4);
    // The health surface sees the same backlog, by class.
    assert_eq!(engine.queue_depth_by_class(), [3, 1, 0]);

    gate.open();
    assert!(parked.wait().is_ok());
    for p in pending {
        assert!(p.wait().is_ok(), "generous deadlines: everything serves");
    }
    // Interactive strictly before Batch; EDF within Interactive, with the
    // deadline-free request last; the near-deadline Batch request cannot
    // jump the class boundary.
    assert_eq!(*served_log.lock().unwrap(), vec![20, 10, 11, 12, 13]);
    assert_ledgers_balance(&engine.stats());
}

#[test]
fn fifo_policy_serves_in_arrival_order_despite_priorities() {
    let gate = Gate::closed();
    let gated = GatedRecommender::new(
        HittingTimeRecommender::new(&chain_dataset(), GraphRecConfig::default()),
        Arc::clone(&gate),
    );
    let served_log = Arc::clone(&gated.served);
    let engine = Engine::builder()
        .model("gated", Arc::new(gated) as SharedRecommender)
        .workers(1)
        .queue_capacity(8)
        .scheduling(SchedPolicy::Fifo)
        .build();
    let parked = engine
        .submit(RecommendRequest::new("gated", 20, 3))
        .unwrap();
    gate.await_arrivals(1);

    let near = Instant::now() + Duration::from_secs(1800);
    let pending: Vec<_> = [
        RecommendRequest::new("gated", 13, 3).with_priority(Priority::Background),
        RecommendRequest::new("gated", 11, 3).deadline_at(near),
        RecommendRequest::new("gated", 12, 3).with_priority(Priority::Batch),
    ]
    .iter()
    .map(|r| engine.submit(r.clone()).unwrap())
    .collect();
    gate.open();
    assert!(parked.wait().is_ok());
    for p in pending {
        assert!(p.wait().is_ok());
    }
    assert_eq!(*served_log.lock().unwrap(), vec![20, 13, 11, 12]);
    assert_ledgers_balance(&engine.stats());
}

#[test]
fn model_quota_refuses_one_models_burst_but_admits_others() {
    let d = chain_dataset();
    let gate = Gate::closed();
    let gated = GatedRecommender::new(
        HittingTimeRecommender::new(&d, GraphRecConfig::default()),
        Arc::clone(&gate),
    );
    let engine = Engine::builder()
        .model("gated", Arc::new(gated) as SharedRecommender)
        .model(
            "HT",
            Arc::new(HittingTimeRecommender::new(&d, GraphRecConfig::default()))
                as SharedRecommender,
        )
        .workers(1)
        .queue_capacity(8)
        .admission(AdmissionPolicy::Reject)
        .model_quota(1)
        .build();
    let parked = engine.submit(RecommendRequest::new("gated", 0, 3)).unwrap();
    gate.await_arrivals(1);

    let queued = engine.submit(RecommendRequest::new("gated", 1, 3)).unwrap();
    // The gated model is at its quota: its next request is refused even
    // though seven queue slots are free…
    let refused = engine.submit(RecommendRequest::new("gated", 2, 3));
    assert!(matches!(refused, Err(ServeError::Overloaded)));
    // …while another model's request is admitted untouched.
    let other = engine.submit(RecommendRequest::new("HT", 3, 3)).unwrap();
    assert_eq!(engine.queue_depth(), 2);
    let stats = engine.stats();
    assert_eq!(stats.rejected, 1);

    gate.open();
    for p in [parked, queued, other] {
        assert!(p.wait().is_ok(), "admitted requests all complete");
    }
    let stats = engine.stats();
    assert_eq!(stats.completed, 3);
    assert_ledgers_balance(&stats);
    // Rejections never enter the class ledger: only admitted work does.
    assert_eq!(stats.per_class[Priority::Interactive.index()].submitted, 3);
}

/// Wraps HT with a fixed pre-scoring delay and a call counter: a model
/// whose service time is long, known, and observable.
struct SleepyRecommender {
    inner: HittingTimeRecommender,
    delay: Duration,
    calls: AtomicUsize,
}

impl Recommender for SleepyRecommender {
    fn name(&self) -> &'static str {
        "sleepy"
    }

    fn score_into(&self, user: u32, ctx: &mut ScoringContext, out: &mut Vec<f64>) {
        self.inner.score_into(user, ctx, out);
    }

    fn recommend_into(
        &self,
        user: u32,
        k: usize,
        opts: &RecommendOptions<'_>,
        ctx: &mut ScoringContext,
        out: &mut Vec<ScoredItem>,
    ) {
        self.calls.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(self.delay);
        self.inner.recommend_into(user, k, opts, ctx, out);
    }

    fn rated_items(&self, user: u32) -> &[u32] {
        self.inner.rated_items(user)
    }

    fn n_items(&self) -> usize {
        self.inner.n_items()
    }
}

#[test]
fn unmeetable_deadline_is_slack_shed_without_running_the_model() {
    let sleepy = Arc::new(SleepyRecommender {
        inner: HittingTimeRecommender::new(&tiny_dataset(), GraphRecConfig::default()),
        delay: Duration::from_millis(200),
        calls: AtomicUsize::new(0),
    });
    let engine = Engine::builder()
        .model("sleepy", Arc::clone(&sleepy) as SharedRecommender)
        .workers(1)
        .scheduling(SchedPolicy::Qos)
        .build();

    // Train the EWMA: two deadline-free serves observe ~200ms each.
    for _ in 0..2 {
        let p = engine
            .submit(RecommendRequest::new("sleepy", 0, 1))
            .unwrap();
        assert!(p.wait().is_ok());
    }
    assert_eq!(sleepy.calls.load(Ordering::SeqCst), 2);

    // A 50ms deadline against a ~200ms estimate: provably unmeetable. The
    // request must be shed at dequeue — before the model runs — not left
    // to burn 200ms of worker time and expire inside the DP.
    let doomed = engine
        .submit(
            RecommendRequest::new("sleepy", 0, 1)
                .deadline_at(Instant::now() + Duration::from_millis(50)),
        )
        .unwrap();
    assert_eq!(doomed.wait(), Err(ServeError::DeadlineExceeded));
    assert_eq!(
        sleepy.calls.load(Ordering::SeqCst),
        2,
        "a slack-shed request must never reach the model"
    );
    let stats = engine.stats();
    assert_eq!(stats.shed_unmeetable, 1);
    assert_eq!(stats.shed, 1, "slack sheds are sheds in the global ledger");
    let interactive = stats.per_class[Priority::Interactive.index()];
    assert_eq!(interactive.shed, 1);
    assert_eq!(interactive.served, 2);
    assert_ledgers_balance(&stats);
    // The served latencies surfaced as percentiles (~200ms plus queueing:
    // between one bucket bound below and a couple above).
    let p50 = interactive.latency_p50().expect("two serves recorded");
    assert!(p50 > 0.1 && p50 < 2.0, "implausible p50 {p50}");
    assert!(interactive.latency_p99().unwrap() >= p50);

    // A meetable deadline on the same engine still serves: the estimate
    // informs shedding, it does not refuse deadlined work wholesale.
    let fine = engine
        .submit(
            RecommendRequest::new("sleepy", 0, 1)
                .deadline_at(Instant::now() + Duration::from_secs(10)),
        )
        .unwrap();
    assert!(fine.wait().is_ok());
    assert_eq!(sleepy.calls.load(Ordering::SeqCst), 3);
    assert_ledgers_balance(&engine.stats());
}
