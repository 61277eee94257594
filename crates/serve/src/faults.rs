//! Deterministic fault injection for chaos-testing the serving engine.
//!
//! [`FaultyRecommender`] wraps any [`Recommender`] and misbehaves on the
//! serving path according to a [`FaultPlan`]: panic on scheduled calls,
//! inject fixed latency (enough of it blows a request deadline), return
//! NaN/−∞-poisoned scores, or kill the worker thread serving the call.
//! Plans are **deterministic** — a fault either fires on the N-th
//! `recommend_into` call or it doesn't, decided by explicit schedules or by
//! a pure hash of `(seed, call index)` — so chaos tests and the
//! `fault_tolerance` bench section reproduce exactly, run to run, and the
//! expected failure count of an unprotected engine can be computed up
//! front with [`FaultPlan::count_faults`].
//!
//! Faults apply only to [`Recommender::recommend_into`] (the path the
//! engine serves); `score_into` delegates untouched so reference scoring
//! and Recall@N stay clean. Ingest reads are `recommend_into` calls too —
//! the pinned delta rides on [`RecommendOptions::delta`], which the wrapper
//! forwards with the rest of the options — so they are counted and faulted
//! like any other call, and a call that does not fault serves base + delta
//! exactly as the wrapped model would.

use longtail_core::{RecommendOptions, Recommender, ScoredItem, ScoringContext};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Panic-message marker of [`FaultKind::KillWorker`]: the engine's worker
/// loop treats a caught panic carrying this marker as thread-fatal and
/// exits, emulating a worker death that unwind-catching could not contain
/// (the supervision path then detects and respawns it).
pub const WORKER_KILL_MARK: &str = "longtail-serve::kill-worker";

/// One way a [`FaultyRecommender`] can misbehave on a scheduled call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic mid-query (the engine catches it and fails the request).
    Panic,
    /// Sleep for the given duration before serving normally — models a
    /// stalled dependency; longer than the request's deadline, it blows it.
    Latency(Duration),
    /// Return a top-k list whose scores are all NaN — a poisoned response
    /// the engine must detect and refuse to serve.
    NanScores,
    /// Return a top-k list whose scores are all `-∞` — the other poison
    /// the collector would never legitimately emit.
    NegInfScores,
    /// Panic with [`WORKER_KILL_MARK`], taking the serving worker thread
    /// down with the request — the supervision test vector.
    KillWorker,
}

/// When a fault fires, as a pure function of the call index.
#[derive(Debug, Clone, Copy)]
enum Schedule {
    /// Exactly the `n`-th call (0-based).
    OnCall(u64),
    /// Calls `offset, offset+period, offset+2·period, …`.
    EveryNth { period: u64, offset: u64 },
    /// Call `n` iff `hash(seed, n) < probability` — deterministic given the
    /// seed, uniformly mixing which calls fault.
    Seeded { seed: u64, probability: f64 },
}

impl Schedule {
    fn fires(&self, call: u64) -> bool {
        match *self {
            Self::OnCall(n) => call == n,
            Self::EveryNth { period, offset } => {
                call >= offset && (call - offset).is_multiple_of(period)
            }
            Self::Seeded { seed, probability } => unit_hash(seed, call) < probability,
        }
    }
}

/// SplitMix64-style avalanche of `(seed, n)` into a unit-interval float —
/// the pure function behind seeded schedules.
fn unit_hash(seed: u64, n: u64) -> f64 {
    let mut z = seed ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    // 53 mantissa bits → uniform in [0, 1).
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// A deterministic schedule of injected faults, consulted per
/// `recommend_into` call. Rules are checked in registration order; the
/// first that fires on a call decides its fault (at most one fault per
/// call).
///
/// ```
/// use longtail_serve::{FaultKind, FaultPlan};
/// use std::time::Duration;
///
/// let plan = FaultPlan::new()
///     .fault_on_call(3, FaultKind::Panic)
///     .fault_every(10, 5, FaultKind::NanScores)
///     .seeded(0xc0ffee, 0.05, FaultKind::Latency(Duration::from_millis(2)));
/// assert_eq!(plan.fault_for(3), Some(FaultKind::Panic));
/// assert_eq!(plan.fault_for(15), Some(FaultKind::NanScores));
/// // Same plan, same call index, same answer — always.
/// assert_eq!(plan.fault_for(7), plan.fault_for(7));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    rules: Vec<(Schedule, FaultKind)>,
}

impl FaultPlan {
    /// An empty plan (no faults — the wrapper becomes a transparent proxy).
    pub fn new() -> Self {
        Self::default()
    }

    /// Fire `kind` on exactly the `n`-th call (0-based).
    pub fn fault_on_call(mut self, n: u64, kind: FaultKind) -> Self {
        self.rules.push((Schedule::OnCall(n), kind));
        self
    }

    /// Fire `kind` on calls `offset, offset+period, offset+2·period, …`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is 0.
    pub fn fault_every(mut self, period: u64, offset: u64, kind: FaultKind) -> Self {
        assert!(period > 0, "a zero period would fault every call");
        self.rules
            .push((Schedule::EveryNth { period, offset }, kind));
        self
    }

    /// Fire `kind` on a pseudo-random `probability` fraction of calls,
    /// decided by a pure hash of `(seed, call index)` — deterministic and
    /// reproducible for a given seed.
    pub fn seeded(mut self, seed: u64, probability: f64, kind: FaultKind) -> Self {
        self.rules
            .push((Schedule::Seeded { seed, probability }, kind));
        self
    }

    /// The fault (if any) scheduled for call `n` — a pure function.
    pub fn fault_for(&self, n: u64) -> Option<FaultKind> {
        self.rules
            .iter()
            .find(|(schedule, _)| schedule.fires(n))
            .map(|&(_, kind)| kind)
    }

    /// How many of the first `calls` call indices fault — the expected
    /// failure count of an unprotected engine serving one call per request.
    pub fn count_faults(&self, calls: u64) -> u64 {
        (0..calls).filter(|&n| self.fault_for(n).is_some()).count() as u64
    }
}

/// A [`Recommender`] wrapper that injects the faults of a [`FaultPlan`]
/// into its serving path, counting `recommend_into` calls (ingest reads
/// included) across all threads sharing it.
///
/// Everything else — `score_into`, `rated_items`, `n_items`, `name` —
/// delegates to the wrapped model untouched.
pub struct FaultyRecommender {
    inner: Arc<dyn Recommender + Send + Sync>,
    plan: FaultPlan,
    calls: AtomicU64,
}

impl FaultyRecommender {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: Arc<dyn Recommender + Send + Sync>, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            calls: AtomicU64::new(0),
        }
    }

    /// Serving calls made so far (faulted or not).
    pub fn calls_made(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// The wrapper's fault schedule.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl Recommender for FaultyRecommender {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn score_into(&self, user: u32, ctx: &mut ScoringContext, out: &mut Vec<f64>) {
        self.inner.score_into(user, ctx, out);
    }

    fn rated_items(&self, user: u32) -> &[u32] {
        self.inner.rated_items(user)
    }

    fn n_items(&self) -> usize {
        self.inner.n_items()
    }

    fn recommend_into(
        &self,
        user: u32,
        k: usize,
        opts: &RecommendOptions<'_>,
        ctx: &mut ScoringContext,
        out: &mut Vec<ScoredItem>,
    ) {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        match self.plan.fault_for(call) {
            None => self.inner.recommend_into(user, k, opts, ctx, out),
            Some(FaultKind::Panic) => {
                panic!("injected fault: panic on call {call}")
            }
            Some(FaultKind::KillWorker) => {
                panic!("injected fault: {WORKER_KILL_MARK} on call {call}")
            }
            Some(FaultKind::Latency(delay)) => {
                std::thread::sleep(delay);
                self.inner.recommend_into(user, k, opts, ctx, out);
            }
            Some(FaultKind::NanScores) => poison(out, k, f64::NAN),
            Some(FaultKind::NegInfScores) => poison(out, k, f64::NEG_INFINITY),
        }
    }
}

/// A k-item response whose every score is `value` — what a buggy model
/// bypassing the NaN-refusing [`longtail_core::TopKCollector`] would emit.
fn poison(out: &mut Vec<ScoredItem>, k: usize, value: f64) {
    out.clear();
    out.extend((0..k.max(1) as u32).map(|item| ScoredItem { item, score: value }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_fire_deterministically() {
        let plan = FaultPlan::new()
            .fault_on_call(2, FaultKind::Panic)
            .fault_every(5, 1, FaultKind::NanScores);
        assert_eq!(plan.fault_for(0), None);
        assert_eq!(plan.fault_for(2), Some(FaultKind::Panic));
        assert_eq!(plan.fault_for(1), Some(FaultKind::NanScores));
        assert_eq!(plan.fault_for(6), Some(FaultKind::NanScores));
        assert_eq!(plan.fault_for(5), None);
        assert_eq!(plan.count_faults(7), 3); // calls 1, 2, 6
    }

    #[test]
    fn first_matching_rule_wins() {
        let plan = FaultPlan::new()
            .fault_on_call(4, FaultKind::Panic)
            .fault_on_call(4, FaultKind::NanScores);
        assert_eq!(plan.fault_for(4), Some(FaultKind::Panic));
    }

    #[test]
    fn seeded_schedule_is_reproducible_and_roughly_calibrated() {
        let plan = FaultPlan::new().seeded(42, 0.2, FaultKind::Panic);
        let again = FaultPlan::new().seeded(42, 0.2, FaultKind::Panic);
        for n in 0..500 {
            assert_eq!(plan.fault_for(n), again.fault_for(n), "call {n}");
        }
        let hits = plan.count_faults(1000);
        assert!((100..350).contains(&hits), "0.2 rate wildly off: {hits}");
        // A different seed faults a different call set.
        let other = FaultPlan::new().seeded(43, 0.2, FaultKind::Panic);
        assert!((0..500).any(|n| plan.fault_for(n) != other.fault_for(n)));
    }

    #[test]
    fn empty_plan_never_faults() {
        assert_eq!(FaultPlan::new().fault_for(0), None);
        assert_eq!(FaultPlan::new().count_faults(100), 0);
    }
}
