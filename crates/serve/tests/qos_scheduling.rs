//! The QoS scheduler's contracts.
//!
//! * **Order, not contents** — the scheduler may reorder and refuse, but a
//!   request it serves returns a ranking identical to calling the routed
//!   recommender directly: proptested across every family with the single
//!   worker parked so the whole mixed-priority batch is reordered in the
//!   queue, and a full queue refusing the overflow (`Reject`).
//! * **Strict priority + EDF** — with the worker parked and a scrambled
//!   submission order, the served order is class-ascending, then earliest
//!   deadline, then arrival (deadline-free requests after deadlined ones,
//!   and unannotated requests in arrival order among themselves).
//! * **Slack shedding** — once the EWMA of a model's service time proves
//!   a deadline unmeetable, the request is dropped at dequeue without the
//!   model ever running (counted in `shed`); a meetable deadline on the
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
    AdmissionPolicy, Engine, Priority, RecommendRequest, ServeError, SharedRecommender,
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
    /// EDF ordering and admission refusals never change the *contents* of
    /// a served ranking. The single worker is parked on a gated request, so
    /// every submission below is reordered in the queue by the scheduler
    /// before service; the queue holds three requests per model against
    /// four submitted, so the `Reject` path fires too. Every request that
    /// comes back `Ok` must match direct `recommend_into` item-for-item,
    /// score-for-score.
    #[test]
    fn qos_reorders_and_refuses_but_never_perturbs_served_rankings(rs in ratings()) {
        let d = Dataset::from_ratings(N_USERS, N_ITEMS, &rs);
        let models = roster(&d);
        let gate = Gate::closed();
        let gated = GatedRecommender::new(
            HittingTimeRecommender::new(&d, GraphRecConfig::default()),
            Arc::clone(&gate),
        );
        let mut builder = Engine::builder()
            .workers(1)
            .queue_capacity(3 * models.len())
            .admission(AdmissionPolicy::Reject)
            .model("gated", Arc::new(gated) as SharedRecommender);
        for (name, rec) in &models {
            builder = builder.model(*name, Arc::clone(rec));
        }
        let engine = builder.build();
        let parked = engine.submit(RecommendRequest::new("gated", 0, 3)).unwrap();
        gate.await_arrivals(1); // worker held mid-request, queue empty

        // Mixed classes, mixed deadlines (all generous: nothing expires),
        // four requests per model against three queue slots per model.
        let far = Instant::now() + Duration::from_secs(3600);
        let classes = [Priority::Interactive, Priority::Batch, Priority::Background];
        let mut submitted = Vec::new();
        let mut refused = 0u64;
        for (mi, (name, _)) in models.iter().enumerate() {
            for u in 0..4u32 {
                let i = mi * 4 + u as usize;
                let mut req = RecommendRequest::new(*name, u % N_USERS as u32, 5)
                    .with_priority(classes[i % classes.len()]);
                if i.is_multiple_of(2) {
                    req = req.deadline_at(far);
                }
                match engine.submit(req.clone()) {
                    Ok(pending) => submitted.push((pending, req)),
                    Err(ServeError::Overloaded) => refused += 1,
                    Err(e) => prop_assert!(false, "unexpected refusal: {e}"),
                }
            }
        }
        // The queue fills with the first 3 × models submissions; every
        // later one is refused at submit.
        prop_assert_eq!(refused, models.len() as u64);
        prop_assert_eq!(engine.queue_depth(), 3 * models.len());
        gate.open();
        prop_assert!(parked.wait().is_ok());

        let mut ctx = ScoringContext::new();
        let mut direct: Vec<ScoredItem> = Vec::new();
        let opts = RecommendOptions::default();
        let mut served = 0u64;
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
                Err(e) => prop_assert!(false, "unexpected failure: {e}"),
            }
        }
        prop_assert_eq!(served, 3 * models.len() as u64);
        let stats = engine.stats();
        prop_assert_eq!(stats.rejected, refused);
        prop_assert_eq!(stats.shed, 0);
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
        .build();
    let parked = engine
        .submit(RecommendRequest::new("gated", 20, 3))
        .unwrap();
    gate.await_arrivals(1);
    assert_eq!(engine.queue_depth(), 0);

    // Scrambled submission order; the EDF schedule is none of FIFO, LIFO
    // or deadline-only order. Two requests carry neither a class nor a
    // deadline, the higher user id first, so only arrival order can rank
    // them.
    let near = Instant::now() + Duration::from_secs(1800);
    let far = Instant::now() + Duration::from_secs(3600);
    let reqs = [
        RecommendRequest::new("gated", 14, 3),
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
    assert_eq!(engine.queue_depth(), 5);
    // The health surface sees the same backlog, by class.
    assert_eq!(engine.queue_depth_by_class(), [4, 1, 0]);

    gate.open();
    assert!(parked.wait().is_ok());
    for p in pending {
        assert!(p.wait().is_ok(), "generous deadlines: everything serves");
    }
    // Interactive strictly before Batch; EDF within Interactive, with the
    // deadline-free requests last and in arrival order; the near-deadline
    // Batch request cannot jump the class boundary.
    assert_eq!(*served_log.lock().unwrap(), vec![20, 10, 11, 14, 12, 13]);
    assert_ledgers_balance(&engine.stats());
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
