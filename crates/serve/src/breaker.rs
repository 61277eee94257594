//! Per-model circuit breakers: fail fast instead of feeding a bad model.
//!
//! Every registered model's active version owns a [`CircuitBreaker`] fed
//! by the engine with request outcomes — panics, NaN-poisoned responses
//! and in-DP deadline expiries count as failures; served responses count
//! as successes. The breaker walks the classic three-state machine:
//!
//! * **Closed** — traffic flows; outcomes fill a rolling window. Once the
//!   window holds [`BreakerConfig::failure_threshold`] failures, the
//!   breaker trips.
//! * **Open** — requests are refused *before* any queue slot or
//!   [`longtail_core::ScoringContext`] is spent on them
//!   ([`crate::ServeError::CircuitOpen`], or the registered fallback).
//!   After [`BreakerConfig::cooldown`] the next request is admitted as a
//!   probe.
//! * **HalfOpen** — exactly one probe is in flight; everything else is
//!   still refused. The probe's success fully closes the breaker (fresh
//!   window — the recovered model starts with a clean slate); its failure
//!   re-opens it for another cooldown.
//!
//! Breakers are disabled unless the engine is built with
//! [`crate::EngineBuilder::breakers`]: a disabled breaker admits
//! everything and records nothing, so fault tolerance is strictly opt-in
//! and the fault-free serving path is unchanged.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Tuning of a circuit breaker's trip/recover behaviour (builder
/// `breakers`; one breaker per model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Size of the rolling outcome window (most recent requests).
    pub window: usize,
    /// Failures within the window that trip the breaker Closed → Open.
    pub failure_threshold: usize,
    /// How long an open breaker refuses traffic before admitting a
    /// half-open probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    /// A window of 16 outcomes tripping at 8 failures, with a 100 ms
    /// cooldown — tight enough that a hard-down model stops taking traffic
    /// within a handful of requests, loose enough that isolated failures
    /// (one bad user id) never trip it.
    fn default() -> Self {
        Self {
            window: 16,
            failure_threshold: 8,
            cooldown: Duration::from_millis(100),
        }
    }
}

/// Observable state of a circuit breaker (see the module docs for the
/// transition rules).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows; outcomes fill the rolling window.
    Closed,
    /// Requests are refused fast; a cooldown gates the next probe.
    Open,
    /// One recovery probe is in flight; other requests are still refused.
    HalfOpen,
}

/// What the breaker decided about one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerDecision {
    /// Serve normally (closed breaker, or breakers disabled).
    Allow,
    /// Serve as the half-open recovery probe: the outcome decides whether
    /// the breaker closes or re-opens.
    Probe,
    /// Refuse without serving (open, or half-open with the probe taken).
    Refuse,
}

#[derive(Debug)]
enum State {
    Closed {
        /// Rolling outcome window, `true` = failure.
        window: VecDeque<bool>,
        failures: usize,
    },
    Open {
        since: Instant,
    },
    /// The one recovery probe is in flight: the breaker only enters this
    /// state by handing the probe out.
    HalfOpen,
}

#[derive(Debug)]
struct Inner {
    config: BreakerConfig,
    state: State,
    /// Closed→Open transitions over the breaker's lifetime.
    trips: u64,
}

/// The three-state breaker guarding one registry slot. `None` inner means
/// breakers are disabled for this engine: every request is allowed and no
/// outcome is recorded.
#[derive(Debug)]
pub(crate) struct CircuitBreaker {
    inner: Option<Mutex<Inner>>,
}

impl CircuitBreaker {
    pub(crate) fn new(config: Option<BreakerConfig>) -> Self {
        let inner = config.map(|config| {
            Mutex::new(Inner {
                state: State::Closed {
                    window: VecDeque::with_capacity(config.window),
                    failures: 0,
                },
                config,
                trips: 0,
            })
        });
        Self { inner }
    }

    fn lock(&self) -> Option<std::sync::MutexGuard<'_, Inner>> {
        // No lock-holding path panics; recover from poison regardless.
        self.inner
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Decide the fate of one request, performing any due state
    /// transition (Open → HalfOpen once the cooldown elapses).
    pub(crate) fn admit(&self) -> BreakerDecision {
        let Some(mut inner) = self.lock() else {
            return BreakerDecision::Allow;
        };
        match &mut inner.state {
            State::Closed { .. } => BreakerDecision::Allow,
            State::Open { since } => {
                if since.elapsed() >= inner.config.cooldown {
                    inner.state = State::HalfOpen;
                    BreakerDecision::Probe
                } else {
                    BreakerDecision::Refuse
                }
            }
            State::HalfOpen => BreakerDecision::Refuse,
        }
    }

    /// Read-only admission check for the submit-time fast path: would a
    /// request be refused *right now*? Performs no transition — an open
    /// breaker whose cooldown has elapsed answers `false`, and the worker's
    /// [`CircuitBreaker::admit`] turns that request into the probe.
    pub(crate) fn would_refuse(&self) -> bool {
        let Some(inner) = self.lock() else {
            return false;
        };
        match &inner.state {
            State::Closed { .. } => false,
            State::Open { since } => since.elapsed() < inner.config.cooldown,
            State::HalfOpen => true,
        }
    }

    /// Record a served response. A successful half-open probe fully closes
    /// the breaker: fresh window, zero remembered failures.
    pub(crate) fn record_success(&self, probe: bool) {
        let Some(mut inner) = self.lock() else { return };
        let cap = inner.config.window;
        match &mut inner.state {
            State::Closed { window, failures } => {
                Self::push_outcome(window, failures, cap, false);
            }
            State::HalfOpen if probe => {
                inner.state = State::Closed {
                    window: VecDeque::with_capacity(inner.config.window),
                    failures: 0,
                };
            }
            // A non-probe straggler (admitted before the trip) finishing
            // while half-open or open carries no fresh evidence the probe
            // isn't about to produce; ignore it.
            State::HalfOpen | State::Open { .. } => {}
        }
    }

    /// Record a model failure (panic, poisoned scores, in-DP deadline
    /// expiry). Trips a closed breaker at the window threshold; re-opens a
    /// half-open one whose probe failed. Straggler failures while half-open
    /// also re-open — a model still failing is not recovered.
    pub(crate) fn record_failure(&self) {
        let Some(mut inner) = self.lock() else { return };
        let cap = inner.config.window;
        let threshold = inner.config.failure_threshold;
        match &mut inner.state {
            State::Closed { window, failures } => {
                Self::push_outcome(window, failures, cap, true);
                if *failures >= threshold {
                    inner.state = State::Open {
                        since: Instant::now(),
                    };
                    inner.trips += 1;
                }
            }
            State::HalfOpen => {
                inner.state = State::Open {
                    since: Instant::now(),
                };
                inner.trips += 1;
            }
            State::Open { .. } => {}
        }
    }

    fn push_outcome(window: &mut VecDeque<bool>, failures: &mut usize, cap: usize, failed: bool) {
        window.push_back(failed);
        *failures += usize::from(failed);
        while window.len() > cap {
            if let Some(evicted) = window.pop_front() {
                *failures -= usize::from(evicted);
            }
        }
    }

    /// Restore a probe token that will never report: the probing attempt
    /// died without recording an outcome (worker kill, or an unwind
    /// escaping between take and record). The breaker re-opens for a fresh
    /// cooldown — the next admission after it becomes the new probe —
    /// instead of wedging HalfOpen forever with its only probe slot
    /// leaked. A no-op in every other state (the probe recorded normally
    /// before the pledge dropped) and not counted as a trip (no outcome
    /// was observed).
    pub(crate) fn abandon_probe(&self) {
        let Some(mut inner) = self.lock() else { return };
        if matches!(inner.state, State::HalfOpen) {
            inner.state = State::Open {
                since: Instant::now(),
            };
        }
    }

    /// Current observable state (a disabled breaker reads Closed).
    pub(crate) fn state(&self) -> BreakerState {
        match self.lock().as_deref() {
            None
            | Some(Inner {
                state: State::Closed { .. },
                ..
            }) => BreakerState::Closed,
            Some(Inner {
                state: State::Open { .. },
                ..
            }) => BreakerState::Open,
            Some(Inner {
                state: State::HalfOpen,
                ..
            }) => BreakerState::HalfOpen,
        }
    }

    /// Lifetime Closed→Open trip count (0 for a disabled breaker).
    pub(crate) fn trips(&self) -> u64 {
        self.lock().map_or(0, |inner| inner.trips)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(window: usize, threshold: usize, cooldown: Duration) -> Option<BreakerConfig> {
        Some(BreakerConfig {
            window,
            failure_threshold: threshold,
            cooldown,
        })
    }

    #[test]
    fn disabled_breaker_always_allows() {
        let b = CircuitBreaker::new(None);
        for _ in 0..10 {
            assert_eq!(b.admit(), BreakerDecision::Allow);
            b.record_failure();
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(!b.would_refuse());
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn trips_at_threshold_and_refuses() {
        let b = CircuitBreaker::new(config(4, 2, Duration::from_secs(60)));
        assert_eq!(b.admit(), BreakerDecision::Allow);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed, "one failure is tolerated");
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        assert_eq!(b.admit(), BreakerDecision::Refuse);
        assert!(b.would_refuse());
    }

    #[test]
    fn window_forgets_old_failures() {
        let b = CircuitBreaker::new(config(3, 2, Duration::from_secs(60)));
        b.record_failure();
        b.record_success(false);
        b.record_success(false);
        // The failure has rolled out of the 3-wide window.
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn cooldown_admits_one_probe_then_success_fully_closes() {
        let b = CircuitBreaker::new(config(4, 2, Duration::ZERO));
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        // Zero cooldown: the next admission is the probe; concurrent
        // requests are still refused while it is in flight.
        assert!(!b.would_refuse(), "cooldown elapsed: submit may pass");
        assert_eq!(b.admit(), BreakerDecision::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.admit(), BreakerDecision::Refuse);
        assert!(b.would_refuse());

        b.record_success(true);
        assert_eq!(b.state(), BreakerState::Closed);
        // FULLY closed: the pre-trip failures are forgotten with the old
        // window, so one fresh failure sits at 1 of 2 — below threshold —
        // instead of instantly re-tripping on stale history.
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open, "fresh window still counts");
    }

    #[test]
    fn failed_probe_reopens() {
        let b = CircuitBreaker::new(config(2, 1, Duration::ZERO));
        b.record_failure();
        assert_eq!(b.admit(), BreakerDecision::Probe);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 2);
        // A new cooldown gates the next probe (zero here, so immediate).
        assert_eq!(b.admit(), BreakerDecision::Probe);
    }

    /// Regression test for the half-open wedge: a probe that dies without
    /// recording an outcome must hand its token back, or the breaker
    /// refuses every request forever.
    #[test]
    fn abandoned_probe_reopens_instead_of_wedging() {
        let b = CircuitBreaker::new(config(2, 1, Duration::ZERO));
        b.record_failure();
        assert_eq!(b.admit(), BreakerDecision::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Without abandon_probe, this breaker would now refuse forever:
        // no transition out of HalfOpen ever fires without an outcome.
        assert_eq!(b.admit(), BreakerDecision::Refuse);
        b.abandon_probe();
        assert_eq!(b.state(), BreakerState::Open, "token restored via Open");
        assert_eq!(b.trips(), 1, "an abandoned probe is not a trip");
        // Zero cooldown: the next admission becomes a fresh probe, and a
        // successful one still closes the breaker — full recovery.
        assert_eq!(b.admit(), BreakerDecision::Probe);
        b.record_success(true);
        assert_eq!(b.state(), BreakerState::Closed);
        // Abandoning when no probe is pending is a no-op.
        b.abandon_probe();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn open_before_cooldown_refuses() {
        let b = CircuitBreaker::new(config(2, 1, Duration::from_secs(3600)));
        b.record_failure();
        assert_eq!(b.admit(), BreakerDecision::Refuse);
        assert_eq!(b.state(), BreakerState::Open);
    }
}
