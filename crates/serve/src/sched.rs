//! QoS scheduling primitives: request priority classes, the engine's
//! dequeue policy, the per-model service-time EWMA behind slack-based
//! shedding, and the fixed-bucket latency histogram behind the per-class
//! p50/p99 percentiles in [`crate::EngineStats`].
//!
//! Under [`SchedPolicy::Qos`] (the default) the admission queue is no
//! longer FIFO: dequeue picks by strict priority class first
//! ([`Priority::Interactive`] before [`Priority::Batch`] before
//! [`Priority::Background`]), earliest deadline first within a class, and
//! submission order as the tie break. A workload that never sets
//! priorities or deadlines — every pre-QoS caller — degrades exactly to
//! FIFO, so the default is behavior-preserving. [`SchedPolicy::Fifo`]
//! keeps the literal arrival order and disables slack shedding; it exists
//! as the baseline that `examples/qos_scheduling.rs` and the
//! `qos_scheduling` tests compare against.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// QoS class of a [`crate::RecommendRequest`] — under [`SchedPolicy::Qos`]
/// the engine serves classes in strict priority order (all queued
/// `Interactive` work before any `Batch`, all `Batch` before any
/// `Background`), with earliest-deadline-first ordering inside each class.
///
/// The default is `Interactive`: a request that never states a class is
/// user-facing traffic, not an offline job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// User-facing traffic: served before everything else.
    #[default]
    Interactive,
    /// Throughput work (batch precomputation, backfills): served when no
    /// interactive request is waiting.
    Batch,
    /// Best-effort work (cache warming, analytics): served only from an
    /// otherwise-idle queue, first to be shed as a victim.
    Background,
}

impl Priority {
    /// Number of priority classes (the length of per-class stat arrays).
    pub const COUNT: usize = 3;

    /// Every class, highest priority first — indexable by
    /// [`Priority::index`].
    pub const ALL: [Priority; Priority::COUNT] =
        [Priority::Interactive, Priority::Batch, Priority::Background];

    /// Dense index of this class (0 = `Interactive` … 2 = `Background`),
    /// used into per-class arrays like [`crate::EngineStats::per_class`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Lower-case display name (`"interactive"`, `"batch"`,
    /// `"background"`).
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
            Priority::Background => "background",
        }
    }
}

/// How the engine orders the admitted set at dequeue
/// ([`crate::EngineBuilder::scheduling`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Literal arrival order, no slack shedding — the pre-QoS engine, kept
    /// as the measurable baseline.
    Fifo,
    /// Strict [`Priority`] classes with earliest-deadline-first ordering
    /// inside each class, plus slack-based shedding at dequeue: a request
    /// whose deadline provably cannot be met (given the EWMA of its
    /// model's observed service time) is dropped before any scoring runs.
    /// For requests with no priorities and no deadlines this is exactly
    /// FIFO.
    #[default]
    Qos,
}

/// EWMA weight of the newest observation: small enough that one slow
/// outlier does not triple the estimate, large enough that a genuinely
/// regressed model is reflected within a handful of requests.
const SERVICE_EWMA_ALPHA: f64 = 0.2;

/// Exponentially-weighted moving average of observed per-model service
/// times, keyed by registry name — the evidence behind slack-based
/// shedding. Only successful, fully-served requests feed it (a shed or
/// expired request measures the scheduler, not the model), so the estimate
/// converges on "what one more admission would cost".
#[derive(Debug, Default)]
pub(crate) struct ServiceEwma {
    estimates: Mutex<HashMap<String, f64>>,
}

impl ServiceEwma {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Fold one observed service time (seconds) into `model`'s estimate.
    pub(crate) fn observe(&self, model: &str, seconds: f64) {
        if !seconds.is_finite() || seconds < 0.0 {
            return;
        }
        let mut estimates = self.estimates.lock();
        match estimates.get_mut(model) {
            Some(estimate) => *estimate += SERVICE_EWMA_ALPHA * (seconds - *estimate),
            None => {
                estimates.insert(model.to_string(), seconds);
            }
        }
    }

    /// Current estimate for `model`; `None` until the first observation —
    /// slack shedding never fires on a model the engine has no evidence
    /// about.
    pub(crate) fn estimate(&self, model: &str) -> Option<Duration> {
        self.estimates
            .lock()
            .get(model)
            .map(|&seconds| Duration::from_secs_f64(seconds))
    }
}

/// Number of buckets in the fixed-bucket latency histogram behind
/// [`crate::ClassStats::latency`].
pub const LATENCY_BUCKETS: usize = 32;

/// Upper bound, in seconds, of histogram bucket `i`: `1µs · 2^i`. Bucket
/// `i` counts latencies in `(bound(i-1), bound(i)]`; bucket 0 starts at
/// zero and the last bucket (≈ 36 minutes) additionally absorbs anything
/// beyond its bound, so no latency is ever dropped.
pub fn latency_bucket_bound(bucket: usize) -> f64 {
    assert!(bucket < LATENCY_BUCKETS, "bucket {bucket} out of range");
    1e-6 * (1u64 << bucket) as f64
}

fn latency_bucket_index(seconds: f64) -> usize {
    let mut bound = 1e-6;
    for bucket in 0..LATENCY_BUCKETS - 1 {
        if seconds <= bound {
            return bucket;
        }
        bound *= 2.0;
    }
    LATENCY_BUCKETS - 1
}

/// The `q`-quantile (`0.0 ..= 1.0`) of a latency histogram snapshot, as the
/// upper bound (seconds) of the bucket holding that rank — a conservative
/// (never under-reporting) estimate, diffable across snapshots like every
/// other engine counter. `None` for an empty histogram.
pub fn latency_quantile(buckets: &[u64; LATENCY_BUCKETS], q: f64) -> Option<f64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let target = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cumulative = 0u64;
    for (bucket, &count) in buckets.iter().enumerate() {
        cumulative += count;
        if cumulative >= target {
            return Some(latency_bucket_bound(bucket));
        }
    }
    None
}

/// Lock-free fixed-bucket histogram of served-request latencies, one per
/// priority class inside the engine's counters. Geometric bucket bounds
/// (`1µs · 2^i`) cover sub-millisecond DP queries and multi-second batch
/// scans in the same 32 counters.
#[derive(Debug, Default)]
pub(crate) struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl LatencyHistogram {
    /// Count one latency observation.
    pub(crate) fn record(&self, elapsed: Duration) {
        let bucket = latency_bucket_index(elapsed.as_secs_f64());
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Monotone snapshot of the bucket counts.
    pub(crate) fn snapshot(&self) -> [u64; LATENCY_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_indices_are_dense_and_ordered() {
        for (i, p) in Priority::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert!(Priority::Interactive < Priority::Batch);
        assert!(Priority::Batch < Priority::Background);
        assert_eq!(Priority::default(), Priority::Interactive);
        assert_eq!(Priority::Background.name(), "background");
    }

    #[test]
    fn ewma_tracks_observations_and_starts_empty() {
        let ewma = ServiceEwma::new();
        assert_eq!(ewma.estimate("HT"), None, "no evidence, no estimate");
        ewma.observe("HT", 0.100);
        assert_eq!(ewma.estimate("HT"), Some(Duration::from_millis(100)));
        // Converges toward a shifted service time, one alpha step at a time.
        ewma.observe("HT", 0.200);
        let est = ewma.estimate("HT").unwrap().as_secs_f64();
        assert!((est - 0.120).abs() < 1e-9, "0.1 + 0.2·(0.2−0.1), got {est}");
        // Garbage observations are ignored, models are independent.
        ewma.observe("HT", f64::NAN);
        ewma.observe("HT", -1.0);
        assert!((ewma.estimate("HT").unwrap().as_secs_f64() - 0.120).abs() < 1e-9);
        assert_eq!(ewma.estimate("AC2"), None);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        assert_eq!(latency_bucket_bound(0), 1e-6);
        assert_eq!(latency_bucket_bound(10), 1024e-6);
        let h = LatencyHistogram::default();
        h.record(Duration::from_nanos(500)); // bucket 0
        h.record(Duration::from_micros(3)); // (2µs, 4µs] → bucket 2
        h.record(Duration::from_secs(7200)); // beyond the last bound → bucket 31
        let snap = h.snapshot();
        assert_eq!(snap[0], 1);
        assert_eq!(snap[2], 1);
        assert_eq!(snap[LATENCY_BUCKETS - 1], 1);
        assert_eq!(snap.iter().sum::<u64>(), 3);
        // Quantiles report the holding bucket's upper bound, conservatively.
        assert_eq!(latency_quantile(&snap, 0.0), Some(latency_bucket_bound(0)));
        assert_eq!(latency_quantile(&snap, 0.5), Some(latency_bucket_bound(2)));
        assert_eq!(
            latency_quantile(&snap, 1.0),
            Some(latency_bucket_bound(LATENCY_BUCKETS - 1))
        );
        assert_eq!(latency_quantile(&[0; LATENCY_BUCKETS], 0.5), None);
    }

    #[test]
    fn quantile_is_monotone_in_q() {
        let mut buckets = [0u64; LATENCY_BUCKETS];
        buckets[3] = 50;
        buckets[8] = 49;
        buckets[20] = 1;
        assert_eq!(
            latency_quantile(&buckets, 0.50),
            Some(latency_bucket_bound(3))
        );
        assert_eq!(
            latency_quantile(&buckets, 0.99),
            Some(latency_bucket_bound(8))
        );
        assert_eq!(
            latency_quantile(&buckets, 0.999),
            Some(latency_bucket_bound(20))
        );
    }
}
