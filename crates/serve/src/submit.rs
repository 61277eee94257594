//! The asynchronous half of the engine's request surface:
//! [`PendingResponse`] handles returned by [`crate::Engine::submit`], and
//! the [`EngineStats`] saturation/shed/deadline counters.

use crate::ingest::IngestStats;
use crate::request::{RecommendResponse, ServeError};
use crate::sched::{latency_quantile, LatencyHistogram, Priority, LATENCY_BUCKETS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// The future-style handle to one submitted request.
///
/// [`crate::Engine::submit`] enqueues the request and returns immediately;
/// the response materializes on a pool worker and is claimed through this
/// handle — poll it ([`PendingResponse::try_recv`]), bound the wait
/// ([`PendingResponse::wait_timeout`]), or block ([`PendingResponse::wait`]).
/// No async runtime is involved: the handle is a one-shot reply channel,
/// usable from any thread the handle is moved to.
///
/// The result is yielded **exactly once**: after any accessor has returned
/// it, `try_recv`/`wait_timeout` return `None` forever. Dropping the handle
/// abandons the request's *result* only — the request itself still runs (or
/// is shed) as scheduled; the worker's reply to an abandoned handle is
/// discarded.
#[derive(Debug)]
pub struct PendingResponse {
    rx: mpsc::Receiver<Result<RecommendResponse, ServeError>>,
    /// Set once the one-shot result has been yielded.
    taken: bool,
}

impl PendingResponse {
    pub(crate) fn new(rx: mpsc::Receiver<Result<RecommendResponse, ServeError>>) -> Self {
        Self { rx, taken: false }
    }

    /// Non-blocking poll: the result if it is ready (or was abandoned —
    /// see below), `None` while the request is still queued or running.
    ///
    /// A disconnected reply channel — the engine dropped the job without
    /// answering, which no live code path does — degrades to
    /// [`ServeError::ShuttingDown`] rather than hanging the caller.
    pub fn try_recv(&mut self) -> Option<Result<RecommendResponse, ServeError>> {
        if self.taken {
            return None;
        }
        match self.rx.try_recv() {
            Ok(result) => {
                self.taken = true;
                Some(result)
            }
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => {
                self.taken = true;
                Some(Err(ServeError::ShuttingDown))
            }
        }
    }

    /// Block for at most `timeout`: the result, or `None` if it is not
    /// ready in time (the request keeps running; poll or wait again).
    pub fn wait_timeout(
        &mut self,
        timeout: Duration,
    ) -> Option<Result<RecommendResponse, ServeError>> {
        if self.taken {
            return None;
        }
        match self.rx.recv_timeout(timeout) {
            Ok(result) => {
                self.taken = true;
                Some(result)
            }
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                self.taken = true;
                Some(Err(ServeError::ShuttingDown))
            }
        }
    }

    /// Block until the response arrives. Cannot deadlock against the
    /// engine: every admitted job is answered — served, shed, expired, or
    /// cancelled at shutdown — and an already-yielded result returns
    /// [`ServeError::ShuttingDown`] instead of hanging.
    pub fn wait(self) -> Result<RecommendResponse, ServeError> {
        if self.taken {
            return Err(ServeError::ShuttingDown);
        }
        match self.rx.recv() {
            Ok(result) => result,
            Err(mpsc::RecvError) => Err(ServeError::ShuttingDown),
        }
    }
}

/// Per-priority-class slice of [`EngineStats`], indexed by
/// [`Priority::index`] into [`EngineStats::per_class`].
///
/// Only *admitted* requests are counted (submit-time refusals — `Reject`
/// on a full queue, open breakers — never enter a class ledger), and the
/// ledger balances per class:
/// `submitted = served + shed + expired + failed`, where `shed` counts
/// slack-shed unmeetable deadlines, `expired` covers dequeue-time and in-DP
/// deadline expiries, and `failed` absorbs every other terminal error
/// (panics, unknown models, worker-side breaker refusals) plus shutdown
/// cancellation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Requests of this class admitted (enqueued or started inline).
    pub submitted: u64,
    /// Requests of this class answered with a response (degraded or not).
    pub served: u64,
    /// Requests of this class slack-shed at dequeue because their deadline
    /// was provably unmeetable.
    pub shed: u64,
    /// Requests of this class whose deadline expired — at dequeue or
    /// cooperatively inside the walk DP.
    pub expired: u64,
    /// Requests of this class answered with any other error, or cancelled
    /// by engine shutdown.
    pub failed: u64,
    /// Fixed-bucket histogram of this class's served-request latencies
    /// (submit → response, queueing included): bucket `i` counts latencies
    /// in `(bound(i-1), bound(i)]` seconds with
    /// `bound(i) = `[`crate::latency_bucket_bound`]`(i)` ` = 1µs · 2^i`.
    /// Monotone and bucket-wise diffable like every other counter.
    pub latency: [u64; LATENCY_BUCKETS],
}

impl ClassStats {
    /// Counter-wise (and bucket-wise) difference against an `earlier`
    /// snapshot (saturating).
    pub fn since(&self, earlier: &ClassStats) -> ClassStats {
        ClassStats {
            submitted: self.submitted.saturating_sub(earlier.submitted),
            served: self.served.saturating_sub(earlier.served),
            shed: self.shed.saturating_sub(earlier.shed),
            expired: self.expired.saturating_sub(earlier.expired),
            failed: self.failed.saturating_sub(earlier.failed),
            latency: std::array::from_fn(|i| self.latency[i].saturating_sub(earlier.latency[i])),
        }
    }

    /// Median served latency in seconds (conservative: the holding
    /// bucket's upper bound); `None` while nothing was served.
    pub fn latency_p50(&self) -> Option<f64> {
        latency_quantile(&self.latency, 0.50)
    }

    /// 99th-percentile served latency in seconds (conservative: the
    /// holding bucket's upper bound); `None` while nothing was served.
    pub fn latency_p99(&self) -> Option<f64> {
        latency_quantile(&self.latency, 0.99)
    }
}

/// Engine-lifetime serving counters — the observability surface of the
/// async front-end, read via [`crate::Engine::stats`].
///
/// All counters are monotone; diff two snapshots with
/// [`EngineStats::since`] to attribute counts to a traffic window. The
/// ledger balances: every submission accepted by `submit`/`recommend`/
/// `recommend_batch` (`submitted`) is eventually counted in exactly one of
/// `completed`, `failed`, `panicked`, `expired_at_dequeue`, `expired_in_dp`,
/// `shed` or `cancelled_at_shutdown`; refusals (`rejected`, and the
/// submit-time share of `circuit_open`) were never admitted.
///
/// The counters below the ledger block — `degraded`, `retries`,
/// `contexts_discarded`, `circuit_open`, `workers_restarted` — are
/// *attribution* counters: they explain how requests were handled, overlap
/// with the ledger slots (a degraded request is also `completed`; a retried
/// panic bumps `contexts_discarded` without any ledger entry if the retry
/// succeeds) and must not be added into the balance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests admitted: enqueued for the pool or started inline.
    pub submitted: u64,
    /// Requests answered with a response (degraded or not).
    pub completed: u64,
    /// Requests answered with a non-deadline, non-panic error (unknown
    /// model, poisoned scores, worker-side circuit-open refusals with no
    /// fallback).
    pub failed: u64,
    /// Requests whose *final* answer was [`ServeError::RequestPanicked`]:
    /// every attempt (and any fallback) panicked. Split out of `failed`
    /// because a panicking model is an incident, not a caller error.
    pub panicked: u64,
    /// Submissions refused outright by [`crate::AdmissionPolicy::Reject`]
    /// on a full queue ([`ServeError::Overloaded`] from `submit` itself).
    pub rejected: u64,
    /// Admitted requests dropped at dequeue by **slack-based shedding**:
    /// the EWMA of the routed model's service time said the deadline
    /// provably could not be met, so no scoring ran (their handles resolve
    /// [`ServeError::DeadlineExceeded`]).
    pub shed: u64,
    /// Requests whose deadline had already expired when a worker (or the
    /// inline path) picked them up: shed without running any scoring.
    pub expired_at_dequeue: u64,
    /// Requests cancelled mid-query by the walk DP's cooperative deadline
    /// check.
    pub expired_in_dp: u64,
    /// Queued requests cancelled by engine shutdown (their handles resolve
    /// [`ServeError::ShuttingDown`]).
    pub cancelled_at_shutdown: u64,
    /// Requests completed by the registered **fallback** model because the
    /// primary was unavailable (subset of `completed`; the responses carry
    /// [`RecommendResponse::degraded`] = `true`).
    pub degraded: u64,
    /// Extra serving attempts made under a [`crate::RetryPolicy`] (a
    /// request served on its 3rd attempt adds 2 here and 1 to `completed`).
    pub retries: u64,
    /// [`longtail_core::ScoringContext`]s discarded instead of returned to
    /// the pool because a query panicked while holding one — every caught
    /// panic bumps this, whether or not a retry then succeeds.
    pub contexts_discarded: u64,
    /// Requests refused by an open circuit breaker with no fallback to
    /// serve — at submit time (these never count as `submitted`, like
    /// `rejected`) or at a worker (these land in `failed`).
    pub circuit_open: u64,
    /// Dead pool workers detected and respawned by supervision, keeping
    /// the worker count at its configured size.
    pub workers_restarted: u64,
    /// The same ledger, sliced by [`Priority`] class (indexed by
    /// [`Priority::index`]), each slice carrying its own served-latency
    /// histogram for [`ClassStats::latency_p50`]/[`ClassStats::latency_p99`].
    pub per_class: [ClassStats; Priority::COUNT],
    /// Streaming-ingest counters summed over every attached
    /// [`crate::DeltaStore`] (all-zero when no model has ingest): appends
    /// accepted, delta edges live, compactions run, epochs published.
    /// Diffable through [`EngineStats::since`] like the serving ledger
    /// (the live-edge gauge passes through, see [`IngestStats::since`]).
    pub ingest: IngestStats,
}

impl EngineStats {
    /// Counter-wise difference against an `earlier` snapshot (saturating).
    pub fn since(&self, earlier: &EngineStats) -> EngineStats {
        EngineStats {
            submitted: self.submitted.saturating_sub(earlier.submitted),
            completed: self.completed.saturating_sub(earlier.completed),
            failed: self.failed.saturating_sub(earlier.failed),
            panicked: self.panicked.saturating_sub(earlier.panicked),
            rejected: self.rejected.saturating_sub(earlier.rejected),
            shed: self.shed.saturating_sub(earlier.shed),
            expired_at_dequeue: self
                .expired_at_dequeue
                .saturating_sub(earlier.expired_at_dequeue),
            expired_in_dp: self.expired_in_dp.saturating_sub(earlier.expired_in_dp),
            cancelled_at_shutdown: self
                .cancelled_at_shutdown
                .saturating_sub(earlier.cancelled_at_shutdown),
            degraded: self.degraded.saturating_sub(earlier.degraded),
            retries: self.retries.saturating_sub(earlier.retries),
            contexts_discarded: self
                .contexts_discarded
                .saturating_sub(earlier.contexts_discarded),
            circuit_open: self.circuit_open.saturating_sub(earlier.circuit_open),
            workers_restarted: self
                .workers_restarted
                .saturating_sub(earlier.workers_restarted),
            per_class: std::array::from_fn(|i| self.per_class[i].since(&earlier.per_class[i])),
            ingest: self.ingest.since(&earlier.ingest),
        }
    }

    /// Requests never served because backpressure or deadlines dropped
    /// them: `rejected + shed + expired_at_dequeue + expired_in_dp`.
    ///
    /// `panicked` and worker-side `circuit_open` requests are *not* drops:
    /// they were admitted and answered, just with an error — they live in
    /// the `panicked`/`failed` ledger slots instead. Submit-time
    /// `circuit_open` refusals are drops in spirit but tracked separately
    /// so this sum keeps its pre-breaker meaning.
    pub fn dropped(&self) -> u64 {
        self.rejected + self.shed + self.expired_at_dequeue + self.expired_in_dp
    }
}

/// The atomic counters behind one [`ClassStats`] slice.
#[derive(Debug, Default)]
pub(crate) struct ClassCounters {
    pub(crate) submitted: AtomicU64,
    pub(crate) served: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) expired: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) latency: LatencyHistogram,
}

impl ClassCounters {
    fn snapshot(&self) -> ClassStats {
        ClassStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            latency: self.latency.snapshot(),
        }
    }
}

/// The atomic counters behind [`EngineStats`], owned by the engine core and
/// bumped lock-free from every caller thread and pool worker.
#[derive(Debug, Default)]
pub(crate) struct EngineCounters {
    pub(crate) submitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) panicked: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) expired_at_dequeue: AtomicU64,
    pub(crate) expired_in_dp: AtomicU64,
    pub(crate) cancelled_at_shutdown: AtomicU64,
    pub(crate) degraded: AtomicU64,
    pub(crate) retries: AtomicU64,
    pub(crate) contexts_discarded: AtomicU64,
    pub(crate) circuit_open: AtomicU64,
    pub(crate) workers_restarted: AtomicU64,
    pub(crate) per_class: [ClassCounters; Priority::COUNT],
}

impl EngineCounters {
    /// One relaxed increment (counters are statistics, not synchronization).
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The per-class counter slice owning `priority`'s requests.
    pub(crate) fn class(&self, priority: Priority) -> &ClassCounters {
        &self.per_class[priority.index()]
    }

    pub(crate) fn snapshot(&self) -> EngineStats {
        EngineStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            panicked: self.panicked.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            expired_at_dequeue: self.expired_at_dequeue.load(Ordering::Relaxed),
            expired_in_dp: self.expired_in_dp.load(Ordering::Relaxed),
            cancelled_at_shutdown: self.cancelled_at_shutdown.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            contexts_discarded: self.contexts_discarded.load(Ordering::Relaxed),
            circuit_open: self.circuit_open.load(Ordering::Relaxed),
            workers_restarted: self.workers_restarted.load(Ordering::Relaxed),
            per_class: std::array::from_fn(|i| self.per_class[i].snapshot()),
            // The stores own their counters; [`crate::Engine::stats`] sums
            // them in over this zero slot.
            ingest: IngestStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pending_yields_exactly_once() {
        let (tx, rx) = mpsc::channel();
        tx.send(Err(ServeError::Overloaded)).unwrap();
        let mut p = PendingResponse::new(rx);
        assert_eq!(p.try_recv(), Some(Err(ServeError::Overloaded)));
        assert_eq!(p.try_recv(), None);
        assert_eq!(p.wait_timeout(Duration::from_millis(1)), None);
    }

    #[test]
    fn pending_try_recv_is_none_while_unresolved() {
        let (tx, rx) = mpsc::channel();
        let mut p = PendingResponse::new(rx);
        assert_eq!(p.try_recv(), None);
        assert_eq!(p.wait_timeout(Duration::from_millis(1)), None);
        tx.send(Err(ServeError::Overloaded)).unwrap();
        assert_eq!(
            p.wait_timeout(Duration::from_secs(5)),
            Some(Err(ServeError::Overloaded))
        );
    }

    #[test]
    fn dropped_sender_degrades_to_shutting_down() {
        let (tx, rx) = mpsc::channel::<Result<RecommendResponse, ServeError>>();
        drop(tx);
        assert_eq!(
            PendingResponse::new(rx).wait(),
            Err(ServeError::ShuttingDown)
        );
        let (tx, rx) = mpsc::channel::<Result<RecommendResponse, ServeError>>();
        drop(tx);
        let mut p = PendingResponse::new(rx);
        assert_eq!(p.try_recv(), Some(Err(ServeError::ShuttingDown)));
    }

    #[test]
    fn stats_since_and_dropped() {
        let earlier = EngineStats {
            submitted: 5,
            completed: 3,
            ..EngineStats::default()
        };
        let later = EngineStats {
            submitted: 9,
            completed: 5,
            rejected: 1,
            shed: 2,
            expired_at_dequeue: 1,
            panicked: 1,
            degraded: 2,
            retries: 3,
            contexts_discarded: 4,
            circuit_open: 5,
            workers_restarted: 1,
            ..earlier
        };
        let diff = later.since(&earlier);
        assert_eq!(diff.submitted, 4);
        assert_eq!(diff.completed, 2);
        assert_eq!(diff.dropped(), 4, "panics and breaker refusals not drops");
        assert_eq!(diff.panicked, 1);
        assert_eq!(diff.degraded, 2);
        assert_eq!(diff.retries, 3);
        assert_eq!(diff.contexts_discarded, 4);
        assert_eq!(diff.circuit_open, 5);
        assert_eq!(diff.workers_restarted, 1);
    }

    #[test]
    fn class_stats_diff_and_percentiles() {
        let mut earlier = ClassStats {
            submitted: 10,
            served: 8,
            shed: 1,
            expired: 1,
            ..ClassStats::default()
        };
        earlier.latency[4] = 8;
        let mut later = earlier;
        later.submitted += 100;
        later.served += 99;
        later.failed += 1;
        later.latency[4] += 90;
        later.latency[9] += 9;
        let diff = later.since(&earlier);
        assert_eq!(diff.submitted, 100);
        assert_eq!(diff.served, 99);
        assert_eq!(diff.failed, 1);
        assert_eq!(diff.latency[4], 90);
        assert_eq!(diff.latency[9], 9);
        // 90 of 99 in bucket 4, 9 in bucket 9: p50 in the low bucket, p99
        // in the tail bucket.
        assert_eq!(diff.latency_p50(), Some(crate::latency_bucket_bound(4)));
        assert_eq!(diff.latency_p99(), Some(crate::latency_bucket_bound(9)));
        assert_eq!(ClassStats::default().latency_p50(), None);
    }

    #[test]
    fn ingest_rides_along_in_engine_stats_since() {
        let mut earlier = EngineStats::default();
        earlier.ingest.appends = 10;
        earlier.ingest.delta_edges_live = 7;
        let mut later = earlier;
        later.ingest.appends = 25;
        later.ingest.delta_edges_live = 3; // compaction shrank the gauge
        later.ingest.compactions = 1;
        later.ingest.epochs_published = 4;
        let diff = later.since(&earlier);
        assert_eq!(diff.ingest.appends, 15);
        assert_eq!(diff.ingest.delta_edges_live, 3, "gauge passes through");
        assert_eq!(diff.ingest.compactions, 1);
        assert_eq!(diff.ingest.epochs_published, 4);
    }

    #[test]
    fn per_class_rides_along_in_engine_stats_since() {
        let mut earlier = EngineStats::default();
        earlier.per_class[Priority::Batch.index()].submitted = 3;
        let mut later = earlier;
        later.per_class[Priority::Batch.index()].submitted = 7;
        later.shed = 2;
        let diff = later.since(&earlier);
        assert_eq!(diff.per_class[Priority::Batch.index()].submitted, 4);
        assert_eq!(diff.per_class[Priority::Interactive.index()].submitted, 0);
        assert_eq!(diff.shed, 2);
    }
}
