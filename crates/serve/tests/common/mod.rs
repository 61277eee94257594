//! Shared fixtures of the serve integration suites: the random-ratings
//! strategy, the all-families model roster, the ledger check every engine
//! test ends with, and the gate/gated-recommender pattern that turns "worker
//! busy, queue in a known state" into a constructed condition instead of a
//! race. Lives in a subdirectory so cargo does not treat it as a test
//! target of its own.

// Each suite compiles this module independently and uses a different
// subset of it.
#![allow(dead_code)]

use longtail_core::{
    AbsorbingCostConfig, AbsorbingCostRecommender, AbsorbingTimeRecommender, GraphRecConfig,
    HittingTimeRecommender, LdaRecommender, PageRankRecommender, PopularityRecommender,
    PureSvdRecommender, RecommendOptions, Recommender, ScoredItem, ScoringContext,
};
use longtail_data::{Dataset, Rating};
use longtail_serve::{EngineStats, Priority, SharedRecommender};
use longtail_topics::LdaConfig;
use proptest::prelude::*;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

pub const N_USERS: usize = 8;
pub const N_ITEMS: usize = 10;

pub fn ratings() -> impl Strategy<Value = Vec<Rating>> {
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

/// Every family, trained deterministically on `d`, as engine-shareable
/// models keyed by registry name.
pub fn roster(d: &Dataset) -> Vec<(&'static str, SharedRecommender)> {
    let graph = GraphRecConfig::default();
    let ac = AbsorbingCostConfig::default();
    vec![
        (
            "HT",
            Arc::new(HittingTimeRecommender::new(d, graph)) as SharedRecommender,
        ),
        ("AT", Arc::new(AbsorbingTimeRecommender::new(d, graph))),
        (
            "AC1",
            Arc::new(AbsorbingCostRecommender::item_entropy(d, ac)),
        ),
        (
            "AC2",
            Arc::new(AbsorbingCostRecommender::topic_entropy_auto(d, 2, ac)),
        ),
        ("svd", Arc::new(PureSvdRecommender::train(d, 4))),
        (
            "lda",
            Arc::new(LdaRecommender::train_with(
                d,
                &LdaConfig {
                    iterations: 15,
                    ..LdaConfig::with_topics(2)
                },
            )),
        ),
        ("ppr", Arc::new(PageRankRecommender::plain(d))),
        ("dppr", Arc::new(PageRankRecommender::discounted(d))),
        ("POP", Arc::new(PopularityRecommender::train(d))),
    ]
}

/// Assert that `stats` balances both ledgers: every admitted request has
/// exactly one outcome, so `submitted` equals the sum of `completed`,
/// `failed`, `panicked`, `shed`, `expired_at_dequeue`, `expired_in_dp` and
/// `cancelled_at_shutdown`, and per class
/// `submitted = served + shed + expired + failed`. Call it once every
/// handle the test submitted has resolved.
pub fn assert_ledgers_balance(stats: &EngineStats) {
    let outcomes = stats.completed
        + stats.failed
        + stats.panicked
        + stats.shed
        + stats.expired_at_dequeue
        + stats.expired_in_dp
        + stats.cancelled_at_shutdown;
    assert_eq!(
        stats.submitted, outcomes,
        "ledger out of balance: {stats:?}"
    );
    for (class, priority) in stats.per_class.iter().zip(Priority::ALL) {
        assert_eq!(
            class.submitted,
            class.served + class.shed + class.expired + class.failed,
            "{} ledger out of balance: {:?}",
            priority.name(),
            class
        );
    }
}

/// Generous bound for waits that must complete promptly; hitting it means
/// the contract under test is broken (a hang), not a slow machine.
pub const HANG: Duration = Duration::from_secs(30);

/// A test gate: `recommend_into` callers park on it until the test opens
/// it, and the test can wait until a known number of callers have arrived.
pub struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
    entered: Mutex<usize>,
    arrived: Condvar,
}

impl Gate {
    pub fn closed() -> Arc<Self> {
        Arc::new(Self {
            open: Mutex::new(false),
            opened: Condvar::new(),
            entered: Mutex::new(0),
            arrived: Condvar::new(),
        })
    }

    /// Called by the gated recommender: announce arrival, park until open.
    pub fn pass(&self) {
        *self.entered.lock().unwrap() += 1;
        self.arrived.notify_all();
        let guard = self.open.lock().unwrap();
        let (_guard, timeout) = self
            .opened
            .wait_timeout_while(guard, HANG, |open| !*open)
            .unwrap();
        assert!(!timeout.timed_out(), "gate never opened");
    }

    pub fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }

    /// Block until `n` callers have arrived at the gate.
    pub fn await_arrivals(&self, n: usize) {
        let guard = self.entered.lock().unwrap();
        let (_guard, timeout) = self
            .arrived
            .wait_timeout_while(guard, HANG, |entered| *entered < n)
            .unwrap();
        assert!(!timeout.timed_out(), "only {} arrivals", n);
    }
}

/// Wraps HT, parking every `recommend_into` on the gate — what makes the
/// "worker mid-request" state constructible — and logging the user ids it
/// serves in service order, so scheduling tests can assert dequeue order
/// rather than infer it.
pub struct GatedRecommender {
    pub inner: HittingTimeRecommender,
    pub gate: Arc<Gate>,
    /// User ids in the order requests entered the model (dequeue order,
    /// for a single-worker engine). Clone the `Arc` before boxing the
    /// recommender into a [`SharedRecommender`].
    pub served: Arc<Mutex<Vec<u32>>>,
}

impl GatedRecommender {
    pub fn new(inner: HittingTimeRecommender, gate: Arc<Gate>) -> Self {
        Self {
            inner,
            gate,
            served: Arc::new(Mutex::new(Vec::new())),
        }
    }
}

impl Recommender for GatedRecommender {
    fn name(&self) -> &'static str {
        "gated"
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
        self.gate.pass();
        self.served.lock().unwrap().push(user);
        self.inner.recommend_into(user, k, opts, ctx, out);
    }

    fn rated_items(&self, user: u32) -> &[u32] {
        self.inner.rated_items(user)
    }

    fn n_items(&self) -> usize {
        self.inner.n_items()
    }
}

/// A long user-item chain (user `i` rates items `i` and `i+1`): the HT
/// walk's values keep moving for many iterations, so no fixed point can
/// preempt the cooperative deadline check.
pub fn chain_dataset() -> Dataset {
    let mut ratings = Vec::new();
    for u in 0..24u32 {
        for item in [u, u + 1] {
            ratings.push(Rating {
                user: u,
                item,
                value: 4.0,
            });
        }
    }
    Dataset::from_ratings(24, 25, &ratings)
}

pub fn tiny_dataset() -> Dataset {
    Dataset::from_ratings(
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
    )
}
