//! The serving engine: model registry, request execution, the persistent
//! worker pool, the async submission front-end, and the fault-tolerance
//! layer (circuit breakers, retries, degraded-mode fallback, worker
//! supervision).

use crate::breaker::{BreakerConfig, BreakerDecision, BreakerState, CircuitBreaker};
use crate::faults::WORKER_KILL_MARK;
use crate::ingest::{CompactionReport, DeltaStore};
use crate::pool::ContextPool;
use crate::queue::{Admission, AdmissionPolicy, Job, JobQueue};
use crate::request::{RecommendRequest, RecommendResponse, RetryPolicy, ServeError};
use crate::sched::{Priority, ServiceEwma};
use crate::submit::{EngineCounters, EngineStats, PendingResponse};
use longtail_core::{
    DpTelemetry, RecommendOptions, Recommender, RerankIndex, RerankPolicy, Reranker,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

/// A recommender shared between the engine's caller threads and pool
/// workers. Every concrete recommender in `longtail-core` is an immutable
/// model after construction, hence `Send + Sync`.
pub type SharedRecommender = Arc<dyn Recommender + Send + Sync>;

/// Where a deployed model version came from — snapshot provenance for
/// operators ([`ModelHealth`]) to tell what is actually serving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelProvenance {
    /// Trained (or constructed) in this process and registered directly.
    InProcess,
    /// Loaded from a snapshot file at this path.
    Snapshot(PathBuf),
}

impl std::fmt::Display for ModelProvenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelProvenance::InProcess => write!(f, "trained in-process"),
            ModelProvenance::Snapshot(path) => write!(f, "snapshot {}", path.display()),
        }
    }
}

/// One *published version* of a registered model: the recommender and the
/// circuit breaker guarding it (disabled unless the engine was built with
/// breakers).
///
/// Versions are immutable once published. Requests pin the version they
/// resolved at dequeue by holding its `Arc` across execution, so a deploy
/// never changes what an in-flight request serves; the old version retires
/// when its last borrow drops.
///
/// **Breaker policy:** each version gets a *fresh* breaker — failure
/// evidence against version `v` says nothing about version `v+1`, and a
/// rollback deserves a clean slate too.
struct ModelVersion {
    version: u32,
    rec: SharedRecommender,
    breaker: CircuitBreaker,
}

/// One deploy-history entry. The `Weak` handle is the retirement witness:
/// once the version is no longer active and its last in-flight borrow
/// drops, the strong count hits zero and the model's memory is freed — the
/// history row stays, the model does not.
struct DeployRecord {
    version: u32,
    provenance: ModelProvenance,
    handle: Weak<ModelVersion>,
}

/// One deploy-history row of a registered model, as reported by
/// [`ModelHealth::deploy_history`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionRecord {
    /// Version number (1 is the build-time registration; each deploy
    /// increments).
    pub version: u32,
    /// Where this version came from.
    pub provenance: ModelProvenance,
    /// `true` once the version is fully retired: no longer active *and*
    /// no in-flight request still holds it.
    pub retired: bool,
}

/// One registered model as a *version chain*: the atomically swappable
/// active version plus the deploy history, under one lock. This is
/// arc-swap semantics under a mutex: readers clone the active `Arc` under
/// a lock held for nanoseconds, writers swap the `Arc` in place — no reader
/// ever blocks on model execution, and no deploy ever waits for in-flight
/// requests.
struct ModelSlot {
    state: Mutex<SlotState>,
}

struct SlotState {
    /// The version requests resolve to: always `history`'s last entry.
    active: Arc<ModelVersion>,
    /// Every version ever published for this model, oldest first.
    history: Vec<DeployRecord>,
}

impl ModelSlot {
    /// Version 1 of a build-time registration.
    fn new(rec: SharedRecommender, breaker_config: Option<BreakerConfig>) -> Self {
        let active = Arc::new(ModelVersion {
            version: 1,
            rec,
            breaker: CircuitBreaker::new(breaker_config),
        });
        let record = DeployRecord {
            version: 1,
            provenance: ModelProvenance::InProcess,
            handle: Arc::downgrade(&active),
        };
        Self {
            state: Mutex::new(SlotState {
                active,
                history: vec![record],
            }),
        }
    }

    /// The currently active version, pinned: the returned `Arc` keeps this
    /// exact version alive for as long as the caller holds it, across any
    /// number of concurrent deploys.
    fn active(&self) -> Arc<ModelVersion> {
        Arc::clone(&self.state.lock().active)
    }

    /// Atomically publish a new version: requests that resolve after this
    /// call route to it, requests already holding the previous `Arc`
    /// finish on the version they resolved. Returns the new version
    /// number.
    ///
    /// Lock order: an ingest store's state, then this slot. A compaction
    /// commit publishes under the store lock and an ingest read's pin takes
    /// store → slot, so no path takes them in reverse.
    fn publish(
        &self,
        rec: SharedRecommender,
        breaker_config: Option<BreakerConfig>,
        provenance: ModelProvenance,
    ) -> u32 {
        let mut state = self.state.lock();
        let version = state.active.version + 1;
        let fresh = Arc::new(ModelVersion {
            version,
            rec,
            breaker: CircuitBreaker::new(breaker_config),
        });
        state.history.push(DeployRecord {
            version,
            provenance,
            handle: Arc::downgrade(&fresh),
        });
        state.active = fresh;
        version
    }

    /// This model's health row, read in one critical section, so its
    /// version, provenance, breaker and history describe the same active
    /// version even while a deploy races the read.
    fn health(&self, name: &str, fallback: Option<String>) -> ModelHealth {
        let state = self.state.lock();
        let active = &state.active;
        // The slot holds the active version, so only replaced versions can
        // read as retired.
        let deploy_history: Vec<VersionRecord> = state
            .history
            .iter()
            .map(|r| VersionRecord {
                version: r.version,
                provenance: r.provenance.clone(),
                retired: r.handle.strong_count() == 0,
            })
            .collect();
        let active_record = deploy_history
            .last()
            .expect("a slot's history is never empty");
        let provenance = active_record.provenance.clone();
        ModelHealth {
            name: name.to_string(),
            breaker: active.breaker.state(),
            fallback,
            breaker_trips: active.breaker.trips(),
            version: active.version,
            provenance,
            deploy_history,
        }
    }
}

/// Registry + pools + counters — the part of the engine shared with worker
/// threads.
struct EngineCore {
    models: HashMap<String, ModelSlot>,
    /// Streaming-ingest stores by registry name, one store per model:
    /// requests for these models serve base + delta-overlay at a
    /// pinned `(version, epoch)` pair, and [`Engine::compact_and_deploy`]
    /// folds their deltas into rebuilt bases (the only way their versions
    /// advance).
    deltas: HashMap<String, Arc<DeltaStore>>,
    /// Degraded-mode routing: primary registry name → fallback registry
    /// name, consulted when the primary's breaker is open or its retries
    /// are exhausted.
    fallbacks: HashMap<String, String>,
    /// The engine-wide breaker configuration, kept so every deployed
    /// version gets a fresh breaker armed the same way as build-time ones
    /// (`None` = breakers disabled, including on deployed versions).
    breaker_config: Option<BreakerConfig>,
    default_retry: RetryPolicy,
    /// Long-tail re-rank indexes by registry name: a request is only
    /// re-ranked when its routed model has one (the index is built against
    /// that model's training graph, so applying it elsewhere would score
    /// similarity on the wrong bipartite structure).
    rerank_indexes: HashMap<String, Arc<RerankIndex>>,
    /// Per-QoS-class re-rank defaults, indexed by [`Priority::index`]: the
    /// fallback of a request with no re-rank override of its own.
    class_rerank: [Option<RerankPolicy>; Priority::COUNT],
    contexts: ContextPool,
    /// Engine-lifetime [`DpTelemetry`], merged across every request served
    /// by any caller thread or pool worker.
    aggregate: Mutex<DpTelemetry>,
    /// Saturation/shed/deadline/fault counters (see [`EngineStats`]).
    counters: EngineCounters,
    /// Workers that exited without a clean shutdown, pending respawn by
    /// supervision (see [`Engine::health`]).
    workers_dead: AtomicU64,
    /// EWMA of per-model service times — the evidence slack shedding
    /// consults before spending scoring work on a doomed deadline.
    service_times: ServiceEwma,
}

impl EngineCore {
    /// Serve one *admitted* request on the calling thread — the shared path
    /// of pool workers and the inline `recommend`: the dequeue-time
    /// deadline and slack checks, then execution, with the outcome counted
    /// (globally and in the request's class ledger). `enqueued_at` anchors
    /// the class latency histogram: queueing time is part of the latency a
    /// caller observes.
    fn serve_admitted(
        &self,
        req: &RecommendRequest,
        enqueued_at: Instant,
    ) -> Result<RecommendResponse, ServeError> {
        let class = self.counters.class(req.priority);
        if req.deadline.is_some_and(|d| Instant::now() >= d) {
            // Shed before any scoring work: an expired request's answer
            // could not be used, so the DP never runs for it.
            EngineCounters::bump(&self.counters.expired_at_dequeue);
            EngineCounters::bump(&class.expired);
            return Err(ServeError::DeadlineExceeded);
        }
        // Slack-based shedding: when the EWMA of this model's observed
        // service time says even starting now cannot make the deadline,
        // drop the request before any scoring runs — the worker time saved
        // serves a request that still can. No estimate (a model never
        // successfully served) means no shedding: the engine never refuses
        // on zero evidence.
        if let (Some(deadline), Some(estimate)) =
            (req.deadline, self.service_times.estimate(&req.model))
        {
            if Instant::now() + estimate >= deadline {
                EngineCounters::bump(&self.counters.shed);
                EngineCounters::bump(&class.shed);
                return Err(ServeError::DeadlineExceeded);
            }
        }
        let started = Instant::now();
        let result = self.execute(req);
        match &result {
            Ok(resp) => {
                EngineCounters::bump(&self.counters.completed);
                EngineCounters::bump(&class.served);
                class.latency.record(enqueued_at.elapsed());
                // Service time excludes queueing (started, not
                // enqueued_at): the estimate answers "what would one more
                // admission cost", not "how long was the queue".
                self.service_times
                    .observe(&req.model, started.elapsed().as_secs_f64());
                if resp.degraded {
                    EngineCounters::bump(&self.counters.degraded);
                }
            }
            Err(ServeError::DeadlineExceeded) => {
                EngineCounters::bump(&self.counters.expired_in_dp);
                EngineCounters::bump(&class.expired);
            }
            Err(ServeError::RequestPanicked(_)) => {
                EngineCounters::bump(&self.counters.panicked);
                EngineCounters::bump(&class.failed);
            }
            Err(_) => {
                EngineCounters::bump(&self.counters.failed);
                EngineCounters::bump(&class.failed);
            }
        }
        result
    }

    /// Serve one request on the calling thread: breaker admission, the
    /// bounded retry loop, and degraded-mode fallback when the primary is
    /// unavailable.
    fn execute(&self, req: &RecommendRequest) -> Result<RecommendResponse, ServeError> {
        let slot = self
            .models
            .get(&req.model)
            .ok_or_else(|| ServeError::UnknownModel(req.model.clone()))?;
        // Version pinning: this `Arc` is the request's model for its whole
        // execution — retries included. A deploy landing mid-request swaps
        // the slot's active version, never this pin, so the response is
        // served entirely by (and attributed to) one version.
        //
        // With a delta store attached, the pin is the *pair* (version,
        // delta epoch), taken in one critical section under the store's
        // lock. A compaction publishes its model under that lock too, so
        // the snapshot always overlays the pinned version.
        let (version, snap) = match self.deltas.get(&req.model) {
            None => (slot.active(), None),
            Some(store) => {
                let (version, snap) = store.pin(|| slot.active());
                debug_assert_eq!(snap.base_version, version.version);
                (version, Some(snap))
            }
        };

        // Breaker admission happens before any queueing cost is sunk into
        // the request — an open breaker costs neither a ScoringContext nor
        // a scoring attempt.
        let decision = version.breaker.admit();
        if decision == BreakerDecision::Refuse {
            return self.answer_unavailable(req, ServeError::CircuitOpen);
        }
        let probe = decision == BreakerDecision::Probe;
        // The half-open probe token is held under an RAII pledge from here
        // until its outcome is recorded: should this frame die without
        // recording (a kill-marked worker death, an unwind a future edit
        // lets slip between take and record), the drop restores the
        // breaker to Open instead of leaving it wedged HalfOpen forever
        // with its only probe slot leaked.
        let mut pledge = ProbePledge {
            breaker: &version.breaker,
            armed: probe,
        };

        // The pinned delta epoch rides on the options, so the model's one
        // serving call scores base + delta (an empty delta serves the base
        // without overlay overhead, the epoch still reported).
        let mut opts = self.request_options(req);
        if let Some(snap) = &snap {
            opts = opts.delta(&snap.delta);
        }
        // Resolve the effective re-rank policy: request override → the
        // request's QoS-class default. It binds only when the routed model
        // has a rerank index registered — the index is built on that
        // model's training graph.
        if let Some(policy) = req
            .rerank
            .or(self.class_rerank[req.priority.index()])
            .filter(|p| p.is_enabled())
        {
            if let Some(index) = self.rerank_indexes.get(&req.model) {
                opts = opts.rerank(Reranker::new(index, policy));
            }
        }

        let retry = req.retry.unwrap_or(self.default_retry);
        let mut attempt_no: u32 = 0;
        let last_err = loop {
            attempt_no += 1;
            // The breaker is fed per attempt: each one is independent
            // evidence about the model. Only the first attempt can be the
            // half-open probe.
            let probe = probe && attempt_no == 1;
            match self.attempt(&version, req, &opts, snap.as_ref().map(|s| s.epoch)) {
                Ok(resp) => {
                    version.breaker.record_success(probe);
                    pledge.settle();
                    return Ok(resp);
                }
                Err(err) => {
                    version.breaker.record_failure();
                    pledge.settle();
                    if !retryable(&err) || attempt_no >= retry.max_attempts {
                        break err;
                    }
                    // A retry only needs to *start* before the deadline —
                    // the walk DP cancels cooperatively mid-flight if it
                    // then expires — so only a deadline already in the past
                    // abandons it.
                    if req.deadline.is_some_and(|d| Instant::now() >= d) {
                        break err;
                    }
                    EngineCounters::bump(&self.counters.retries);
                }
            }
        };
        match last_err {
            // Out of time: a fallback answer would also arrive too late.
            ServeError::DeadlineExceeded => Err(ServeError::DeadlineExceeded),
            err => self.answer_unavailable(req, err),
        }
    }

    /// The primary cannot answer (`why`: open breaker, or the error its
    /// last attempt produced): serve the registered fallback flagged
    /// degraded, or surface `why` if there is none (or the fallback itself
    /// fails).
    ///
    /// The fallback is the last resort, so it gets exactly one attempt and
    /// no breaker bookkeeping — tripping a breaker on the availability
    /// floor would only convert degraded answers into errors.
    fn answer_unavailable(
        &self,
        req: &RecommendRequest,
        why: ServeError,
    ) -> Result<RecommendResponse, ServeError> {
        let Some(slot) = self
            .fallbacks
            .get(&req.model)
            .and_then(|name| self.models.get(name))
        else {
            if why == ServeError::CircuitOpen {
                EngineCounters::bump(&self.counters.circuit_open);
            }
            return Err(why);
        };
        let version = slot.active();
        // The fallback is never re-ranked: a degraded answer is the
        // availability floor, and no rerank index binds to the fallback's
        // graph anyway. Nor does it carry a delta: it serves its own frozen
        // base with no epoch claim, even when the primary had ingest
        // attached — a degraded answer makes no epoch-consistency promise.
        let opts = self.request_options(req);
        match self.attempt(&version, req, &opts, None) {
            // The struct update keeps the fallback's own `version` field:
            // the response reports the version that actually served it.
            Ok(resp) => Ok(RecommendResponse {
                degraded: true,
                ..resp
            }),
            // The fallback failing is not the story: report why the
            // primary was unavailable.
            Err(_) => Err(why),
        }
    }

    /// The serving options every model answering `req` shares: its
    /// stopping policy (or the adaptive default), exclusions, deadline and
    /// recency decay. The request's exclusion set was normalized once at
    /// build time (`RecommendRequest::excluding`), so every attempt —
    /// retries and fallback included — borrows it for free.
    fn request_options<'r>(&self, req: &'r RecommendRequest) -> RecommendOptions<'r> {
        let mut opts = RecommendOptions::new()
            .stopping(req.stopping.unwrap_or_default())
            .exclude(&req.exclude);
        opts.deadline = req.deadline;
        opts.recency = req.recency;
        opts
    }

    /// One serving attempt through a pooled context: catch panics, refuse
    /// poisoned scores, detect cooperative deadline cancellation. `epoch`
    /// is the delta epoch `opts` serves, claimed on the response.
    fn attempt(
        &self,
        version: &ModelVersion,
        req: &RecommendRequest,
        opts: &RecommendOptions<'_>,
        epoch: Option<u64>,
    ) -> Result<RecommendResponse, ServeError> {
        let mut ctx = self.contexts.checkout();
        let before = ctx.dp_telemetry();
        let mut items = Vec::new();
        // A panicking query (a faulty or buggy model; every built-in family
        // serves a user id outside its training data an empty list) must
        // not take a long-lived pool worker — or a whole batch — down with
        // it: catch it and fail only this attempt. The context is NOT
        // checked back in on panic (its buffers may be mid-update); dropping
        // it costs one warm context, nothing else. The shared state touched
        // below the catch (pool, aggregate) is only ever locked around
        // non-panicking code, so observing it after an unwind is sound.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            version
                .rec
                .recommend_into(req.user, req.k, opts, &mut ctx, &mut items)
        }));
        if let Err(payload) = outcome {
            EngineCounters::bump(&self.counters.contexts_discarded);
            // `&*payload`, not `&payload`: the latter would unsize-coerce
            // the Box itself to `&dyn Any` and every downcast inside would
            // miss the real payload.
            return Err(ServeError::RequestPanicked(panic_message(&*payload)));
        }
        // Read the re-rank provenance off the context before it goes back
        // to the pool — the next query overwrites the trace.
        let provenance = opts.rerank.is_some().then(|| ctx.rerank_trace().to_vec());
        let telemetry = ctx.dp_telemetry().since(&before);
        self.contexts.checkin(ctx);
        self.aggregate.lock().merge(&telemetry);

        if telemetry.deadline_expired > 0 {
            // The walk DP cancelled cooperatively: the collected list ranks
            // partially-iterated values and must not be served.
            return Err(ServeError::DeadlineExceeded);
        }
        // The shared TopKCollector never admits non-finite scores, so any
        // NaN/−∞ here is poison from a buggy (or fault-injected) custom
        // path — refuse it rather than serve garbage ranks.
        if items.iter().any(|item| !item.score.is_finite()) {
            return Err(ServeError::PoisonedScores);
        }

        Ok(RecommendResponse {
            items,
            model: version.rec.name(),
            version: version.version,
            epoch,
            telemetry,
            provenance,
            degraded: false,
        })
    }
}

/// RAII guard for the half-open probe token: armed while a probe's
/// outcome is pending, disarmed ([`ProbePledge::settle`]) the moment the
/// breaker records it. Dropping an armed pledge — the probing frame died
/// without recording — hands the token back via
/// [`CircuitBreaker::abandon_probe`] so the breaker re-opens for a fresh
/// cooldown instead of refusing everything forever.
struct ProbePledge<'a> {
    breaker: &'a CircuitBreaker,
    armed: bool,
}

impl ProbePledge<'_> {
    fn settle(&mut self) {
        self.armed = false;
    }
}

impl Drop for ProbePledge<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.breaker.abandon_probe();
        }
    }
}

/// Whether a retry could change this outcome: model faults (panics,
/// poisoned scores) are transient-able; everything else is deterministic
/// (unknown model) or already out of time (deadline).
fn retryable(err: &ServeError) -> bool {
    matches!(
        err,
        ServeError::RequestPanicked(_) | ServeError::PoisonedScores
    )
}

/// Best-effort extraction of a panic payload's message; non-string
/// payloads report their type name when it is a commonly-panicked type,
/// falling back to the opaque [`std::any::TypeId`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (*s).to_string();
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    macro_rules! probe {
        ($($ty:ty),* $(,)?) => {
            $(if payload.is::<$ty>() {
                return format!(
                    "non-string panic payload of type {}",
                    std::any::type_name::<$ty>()
                );
            })*
        };
    }
    probe!(
        i8,
        i16,
        i32,
        i64,
        i128,
        isize,
        u8,
        u16,
        u32,
        u64,
        u128,
        usize,
        f32,
        f64,
        bool,
        char,
        (),
        std::io::Error,
        Box<dyn std::error::Error + Send + Sync>,
    );
    format!("non-string panic payload ({:?})", payload.type_id())
}

/// Point-in-time health snapshot of one registered model — see
/// [`Engine::health`]. Every field is read in one critical section, so
/// they all describe the same active version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelHealth {
    /// Registry name of the model.
    pub name: String,
    /// Breaker state of the *active version* (breakers reset per deploy).
    /// `Closed` when breakers are disabled.
    pub breaker: BreakerState,
    /// Registry name of the fallback that answers (degraded) when this
    /// model is unavailable, if one is registered.
    pub fallback: Option<String>,
    /// Closed→Open breaker trips of the active version (since the last
    /// deploy — breakers reset per deploy).
    pub breaker_trips: u64,
    /// The active version (`name@v` in operator-speak).
    pub version: u32,
    /// Where the active version came from.
    pub provenance: ModelProvenance,
    /// Full deploy history, oldest first — every version ever published,
    /// with its provenance and whether it has fully retired (no longer
    /// active, last in-flight borrow dropped).
    pub deploy_history: Vec<VersionRecord>,
}

/// Point-in-time health snapshot of an [`Engine`], read via
/// [`Engine::health`] — what an operator's probe endpoint would export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineHealth {
    /// Per-model breaker states and fallback routing, sorted by name.
    pub models: Vec<ModelHealth>,
    /// Requests waiting in the admission queue right now.
    pub queue_depth: usize,
    /// The same waiting requests sliced by [`Priority`] class (indexed by
    /// [`Priority::index`]) — a backlog concentrating in `Interactive` is
    /// an overload signal even while the total depth looks modest.
    pub queue_depth_by_class: [usize; Priority::COUNT],
    /// Live worker threads (after this snapshot's supervision pass — taking
    /// a snapshot respawns any dead workers it finds).
    pub workers_alive: usize,
    /// The worker count the engine was built with and supervision
    /// maintains.
    pub workers_configured: usize,
    /// Engine-lifetime serving counters at snapshot time.
    pub stats: EngineStats,
}

impl EngineHealth {
    /// `true` when nothing is degraded: every breaker closed and the full
    /// configured worker pool alive.
    pub fn all_healthy(&self) -> bool {
        self.workers_alive == self.workers_configured
            && self
                .models
                .iter()
                .all(|m| m.breaker == BreakerState::Closed)
    }
}

/// The multi-model serving engine.
///
/// An `Engine` owns a registry of named models (one model, and one
/// version chain, per name), a [`ContextPool`] of reusable scoring
/// contexts, and a pool of persistent worker threads (at least one)
/// draining a **bounded admission queue**. Three request paths:
///
/// * [`Engine::recommend`] — inline on the calling thread (lowest latency);
/// * [`Engine::submit`] — non-blocking enqueue, returning a
///   [`PendingResponse`] handle; the queue's [`AdmissionPolicy`] decides
///   what a full queue does, dequeue order is strict [`Priority`] classes
///   with EDF within a class and arrival order as the tie break, and
///   per-request deadlines shed work that can no longer answer in time —
///   at dequeue, by slack-based shedding when the model's observed service
///   time says the deadline is unmeetable, and cooperatively inside the
///   walk DP;
/// * [`Engine::recommend_batch`] — fan-out over `submit` plus an in-order
///   drain, i.e. the blocking convenience form of the async path.
///
/// Output equivalence is a pinned contract: for any request the engine
/// *answers non-degraded*, the response's `items` are exactly what the
/// routed recommender's [`Recommender::recommend_into`] produces with the
/// request's effective [`RecommendOptions`] — the engine adds routing,
/// pooling, admission control and telemetry, never ranking changes.
/// Requests it cannot answer in time fail typed instead
/// ([`ServeError::Overloaded`] / [`ServeError::DeadlineExceeded`]).
///
/// **Fault tolerance** is opt-in per engine: [`EngineBuilder::breakers`]
/// arms a circuit breaker per model (open breaker → fail fast with
/// [`ServeError::CircuitOpen`] before any queue slot or context is spent),
/// [`EngineBuilder::default_retry`] retries model faults on fresh
/// contexts, and [`EngineBuilder::fallback`] routes unavailable primaries
/// to a degraded-mode stand-in (responses flagged
/// [`RecommendResponse::degraded`]). Worker threads are supervised:
/// [`Engine::health`] (and every `submit`) respawns dead workers to keep
/// the pool at its configured size.
///
/// ```
/// use longtail_core::{GraphRecConfig, HittingTimeRecommender};
/// use longtail_data::{Dataset, Rating};
/// use longtail_serve::{Engine, RecommendRequest};
/// use std::sync::Arc;
///
/// let ratings = [
///     Rating { user: 0, item: 0, value: 5.0 },
///     Rating { user: 1, item: 0, value: 4.0 },
///     Rating { user: 1, item: 1, value: 5.0 },
/// ];
/// let train = Dataset::from_ratings(2, 2, &ratings);
/// let engine = Engine::builder()
///     .model("HT", Arc::new(HittingTimeRecommender::new(&train, GraphRecConfig::default())))
///     .workers(2)
///     .build();
/// // Async submission: enqueue now, claim the response when needed.
/// let pending = engine.submit(RecommendRequest::new("HT", 0, 5)).unwrap();
/// let response = pending.wait().unwrap();
/// assert_eq!(response.items[0].item, 1);
/// assert!(!response.degraded);
/// ```
pub struct Engine {
    core: Arc<EngineCore>,
    /// Bounded job queue feeding the worker pool.
    queue: Arc<JobQueue>,
    policy: AdmissionPolicy,
    /// The pool, under a lock so supervision can swap dead handles for
    /// fresh ones.
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// The size supervision maintains the pool at.
    configured_workers: usize,
}

impl Engine {
    /// Start configuring an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// Serve one request inline on the calling thread, through a pooled
    /// context — the low-latency path. The worker pool and admission queue
    /// are not involved; the request's deadline still applies (both before
    /// execution and inside the walk DP).
    pub fn recommend(&self, req: &RecommendRequest) -> Result<RecommendResponse, ServeError> {
        EngineCounters::bump(&self.core.counters.submitted);
        EngineCounters::bump(&self.core.counters.class(req.priority).submitted);
        self.core.serve_admitted(req, Instant::now())
    }

    /// Submit one request to the worker pool without waiting for it: the
    /// returned [`PendingResponse`] yields the response (or typed failure)
    /// via `try_recv`/`wait_timeout`/`wait`.
    ///
    /// Admission is governed by the engine's [`AdmissionPolicy`] when the
    /// bounded queue is full: `Block` waits for a slot (the only way this
    /// method blocks), and `Reject` returns [`ServeError::Overloaded`]
    /// immediately.
    ///
    /// Two fault-tolerance hooks run here: dead workers detected by
    /// supervision are respawned before the request enqueues, and a
    /// request routed to a model whose breaker is open **with no fallback
    /// registered** is refused with [`ServeError::CircuitOpen`]
    /// immediately — before it spends a queue slot — rather than queueing
    /// work that a worker would refuse anyway.
    pub fn submit(&self, request: RecommendRequest) -> Result<PendingResponse, ServeError> {
        self.respawn_dead_workers();
        // Fail fast on an open breaker (unless a fallback will answer):
        // read-only check, the authoritative transition still happens at
        // the worker's admit().
        if !self.core.fallbacks.contains_key(&request.model) {
            if let Some(slot) = self.core.models.get(&request.model) {
                if slot.active().breaker.would_refuse() {
                    EngineCounters::bump(&self.core.counters.circuit_open);
                    return Err(ServeError::CircuitOpen);
                }
            }
        }
        let priority = request.priority;
        let (reply, rx) = mpsc::channel();
        match self.queue.push(Job::new(request, reply), self.policy) {
            Admission::Enqueued => {
                EngineCounters::bump(&self.core.counters.submitted);
                EngineCounters::bump(&self.core.counters.class(priority).submitted);
                Ok(PendingResponse::new(rx))
            }
            Admission::Rejected => {
                EngineCounters::bump(&self.core.counters.rejected);
                Err(ServeError::Overloaded)
            }
            Admission::Closed => Err(ServeError::ShuttingDown),
        }
    }

    /// Serve a batch as fan-out over [`Engine::submit`] plus an in-order
    /// drain.
    ///
    /// `results[j]` answers `requests[j]`; per-request failures (unknown
    /// model, shed, expired) are returned in place, never aborting the rest
    /// of the batch. Under the default [`AdmissionPolicy::Block`] every
    /// request is admitted and the batch behaves exactly like the blocking
    /// API of previous releases; under `Reject` a saturated queue surfaces
    /// [`ServeError::Overloaded`] in the affected slots.
    pub fn recommend_batch(
        &self,
        requests: Vec<RecommendRequest>,
    ) -> Vec<Result<RecommendResponse, ServeError>> {
        let pending: Vec<Result<PendingResponse, ServeError>> =
            requests.into_iter().map(|r| self.submit(r)).collect();
        pending
            .into_iter()
            .map(|p| match p {
                Ok(handle) => handle.wait(),
                Err(refused) => Err(refused),
            })
            .collect()
    }

    /// Names of every registered model, sorted.
    pub fn models(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.core.models.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Atomically publish a new version of model `name`, returning the
    /// version number it is now serving as (`name@v`).
    ///
    /// Hot swap semantics: requests already executing (or dequeued)
    /// finished resolving their version and complete on it; requests that
    /// resolve after this call route to the new version; the old version
    /// retires — is dropped — when its last in-flight pin releases.
    /// Nothing in flight is lost or torn between versions.
    ///
    /// Carryover policy, per state kind:
    ///
    /// * **circuit breaker** — *resets*: the new version gets a fresh
    ///   breaker armed with the engine's build-time config, because
    ///   failure evidence against the old model says nothing about the
    ///   new one;
    /// * **service-time EWMA** (slack shedding) — *carries over*: it is
    ///   keyed by model name and the old estimate is a better prior than
    ///   cold-starting deadline admission;
    /// * **stats ledgers** ([`EngineStats`], per-class ledgers) — *carry
    ///   over*: they are engine-lifetime monotone counters, diffable with
    ///   [`EngineStats::since`].
    ///
    /// Errors with [`ServeError::UnknownModel`] if `name` was never
    /// registered.
    ///
    /// # Panics
    ///
    /// Panics if `name` has an ingest store attached
    /// ([`EngineBuilder::ingest`]): its delta is relative to the store's
    /// base dataset, which a model built elsewhere need not share, so its
    /// versions come only from [`Engine::compact_and_deploy`].
    pub fn deploy(&self, name: &str, rec: SharedRecommender) -> Result<u32, ServeError> {
        self.deploy_from(name, rec, ModelProvenance::InProcess)
    }

    /// [`Engine::deploy`] with explicit provenance — pass
    /// [`ModelProvenance::Snapshot`] when the model was loaded from a
    /// snapshot file so [`Engine::health`] can report where each live
    /// version came from.
    ///
    /// # Panics
    ///
    /// As [`Engine::deploy`]: if `name` has an ingest store.
    pub fn deploy_from(
        &self,
        name: &str,
        rec: SharedRecommender,
        provenance: ModelProvenance,
    ) -> Result<u32, ServeError> {
        assert!(
            !self.core.deltas.contains_key(name),
            "model {name:?} has an ingest store; deploy it with compact_and_deploy"
        );
        let slot = self
            .core
            .models
            .get(name)
            .ok_or_else(|| ServeError::UnknownModel(name.to_string()))?;
        Ok(slot.publish(rec, self.core.breaker_config, provenance))
    }

    /// Fold model `name`'s accumulated delta into a freshly built base and
    /// hot-swap it in — the compaction step of the streaming-ingest loop.
    ///
    /// Three phases:
    ///
    /// 1. **Fold** (store lock, microseconds): publish every pending
    ///    append, snapshot the union dataset `base ⊎ delta`.
    /// 2. **Build** (no locks): `build(&union)` constructs the new model —
    ///    the expensive part; appends and queries proceed untouched, served
    ///    by the old base + the still-growing delta.
    /// 3. **Commit** (store lock, microseconds): hot-swap the new model
    ///    into the model's slot as version `v+1`, swap in the residual
    ///    delta (appends that raced the build) and advance the epoch, so
    ///    `(epoch, v+1)` joins the [`DeltaStore::epoch_log`].
    ///
    /// Zero lost requests: in-flight queries finish on the `(version,
    /// epoch)` pair they pinned. Queries pin that pair under the store
    /// lock, so each one lands wholly before or wholly after the commit,
    /// never between the publish and the delta swap. Appends racing the
    /// build survive as the residual delta. Concurrent compactions of one
    /// store serialize.
    ///
    /// Errors with [`ServeError::UnknownModel`] if `name` has no ingest
    /// store attached.
    ///
    /// # Panics
    ///
    /// Propagates panics from `build` (phase 2 holds no locks, so the
    /// store and engine stay consistent — the compaction just never
    /// commits).
    pub fn compact_and_deploy(
        &self,
        name: &str,
        build: impl FnOnce(&longtail_data::Dataset) -> SharedRecommender,
    ) -> Result<CompactionReport, ServeError> {
        let store = self
            .core
            .deltas
            .get(name)
            .ok_or_else(|| ServeError::UnknownModel(name.to_string()))?;
        // `build()` attaches ingest stores to registered models only.
        let slot = &self.core.models[name];
        let _serialize = store.lock_for_compaction();
        let (union, folded) = store.begin_compaction();
        let rec = build(&union);
        let commit_started = Instant::now();
        let (version, epoch, remaining) = store.commit_compaction(union, || {
            slot.publish(rec, self.core.breaker_config, ModelProvenance::InProcess)
        });
        Ok(CompactionReport {
            version,
            epoch,
            folded,
            remaining,
            publish_seconds: commit_started.elapsed().as_secs_f64(),
        })
    }

    /// Number of live worker threads (the configured count, except in the
    /// window between a worker dying and supervision respawning it).
    pub fn n_workers(&self) -> usize {
        self.workers
            .lock()
            .iter()
            .filter(|w| !w.is_finished())
            .count()
    }

    /// Number of submitted requests currently waiting in the admission
    /// queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// Waiting requests per [`Priority`] class (indexed by
    /// [`Priority::index`]).
    pub fn queue_depth_by_class(&self) -> [usize; Priority::COUNT] {
        self.queue.depth_by_class()
    }

    /// Engine-lifetime [`DpTelemetry`], merged (via [`DpTelemetry::merge`])
    /// across every request served so far — inline and pool-worker alike.
    pub fn telemetry(&self) -> DpTelemetry {
        *self.core.aggregate.lock()
    }

    /// Engine-lifetime [`EngineStats`]: submission, saturation, shed,
    /// deadline and fault counters, plus the ingest counters summed over
    /// every attached [`DeltaStore`]. Monotone (`ingest.delta_edges_live`
    /// excepted — a gauge) — diff snapshots with [`EngineStats::since`] to
    /// scope them to a traffic window.
    pub fn stats(&self) -> EngineStats {
        let mut stats = self.core.counters.snapshot();
        for store in self.core.deltas.values() {
            stats.ingest.merge(&store.stats());
        }
        stats
    }

    /// Health snapshot: per-model breaker states and fallback routing,
    /// queue depth, worker liveness and the stats counters. Taking a
    /// snapshot runs a supervision pass first, so any dead worker it
    /// reports on has already been replaced (visible in
    /// `stats.workers_restarted`).
    pub fn health(&self) -> EngineHealth {
        self.respawn_dead_workers();
        let mut models: Vec<ModelHealth> = self
            .core
            .models
            .iter()
            .map(|(name, slot)| slot.health(name, self.core.fallbacks.get(name).cloned()))
            .collect();
        models.sort_by(|a, b| a.name.cmp(&b.name));
        EngineHealth {
            models,
            queue_depth: self.queue_depth(),
            queue_depth_by_class: self.queue_depth_by_class(),
            workers_alive: self.n_workers(),
            workers_configured: self.configured_workers,
            stats: self.stats(),
        }
    }

    /// Supervision: replace dead worker threads with fresh ones so the
    /// pool stays at its configured size. Runs on every `submit` (cheap: a
    /// single atomic load when nothing died) and on [`Engine::health`].
    fn respawn_dead_workers(&self) {
        if self.core.workers_dead.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut workers = self.workers.lock();
        let mut respawned: u64 = 0;
        for handle in workers.iter_mut() {
            if handle.is_finished() {
                let fresh = spawn_worker(Arc::clone(&self.core), Arc::clone(&self.queue));
                let dead = std::mem::replace(handle, fresh);
                let _ = dead.join();
                EngineCounters::bump(&self.core.counters.workers_restarted);
                respawned += 1;
            }
        }
        if respawned > 0 {
            // A death notice can land before `is_finished()` flips; leave
            // any unmatched notices for the next pass (still under the
            // workers lock, so the subtraction cannot race another pass).
            let pending = self.core.workers_dead.load(Ordering::Relaxed);
            self.core
                .workers_dead
                .fetch_sub(respawned.min(pending), Ordering::Relaxed);
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Bounded-time shutdown: close the queue and cancel every
        // not-yet-started request (each pending handle resolves
        // `ShuttingDown`), so the join below waits only for the at most
        // `n_workers` requests already mid-execution — never for a backlog.
        for job in self.queue.close_and_drain() {
            EngineCounters::bump(&self.core.counters.cancelled_at_shutdown);
            EngineCounters::bump(&self.core.counters.class(job.request.priority).failed);
            job.refuse(ServeError::ShuttingDown);
        }
        for worker in self.workers.lock().drain(..) {
            let _ = worker.join();
        }
    }
}

fn spawn_worker(core: Arc<EngineCore>, queue: Arc<JobQueue>) -> JoinHandle<()> {
    std::thread::spawn(move || worker_loop(core, queue))
}

/// What a pool worker does for its whole life: pull jobs off the bounded
/// queue, serve them through the core, reply. Ends when the engine closes
/// the queue and the backlog is cancelled — or abnormally, on a
/// [`WORKER_KILL_MARK`] panic, in which case a death notice is left for
/// supervision to respawn the thread.
fn worker_loop(core: Arc<EngineCore>, queue: Arc<JobQueue>) {
    /// Drop guard: any exit from the loop that isn't the clean
    /// queue-closed shutdown files a death notice — including unwinds this
    /// function didn't anticipate.
    struct DeathNotice {
        core: Arc<EngineCore>,
        armed: bool,
    }
    impl Drop for DeathNotice {
        fn drop(&mut self) {
            if self.armed {
                self.core.workers_dead.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    let mut notice = DeathNotice {
        core: Arc::clone(&core),
        armed: true,
    };
    while let Some(job) = queue.pop() {
        // A closed reply channel means the submitter dropped its handle
        // (gave up on the result); the work still ran, the reply just has
        // no audience.
        let result = core.serve_admitted(&job.request, job.enqueued_at);
        // A kill-marked panic emulates a fault unwind-catching cannot
        // contain: answer the request, then die (armed notice → respawn).
        let fatal = matches!(
            &result,
            Err(ServeError::RequestPanicked(msg)) if msg.contains(WORKER_KILL_MARK)
        );
        let _ = job.reply.send(result);
        if fatal {
            return;
        }
    }
    notice.armed = false;
}

/// Configures and builds an [`Engine`].
pub struct EngineBuilder {
    models: HashMap<String, SharedRecommender>,
    fallbacks: HashMap<String, String>,
    deltas: HashMap<String, Arc<DeltaStore>>,
    workers: Option<usize>,
    default_retry: RetryPolicy,
    rerank_indexes: HashMap<String, Arc<RerankIndex>>,
    class_rerank: [Option<RerankPolicy>; Priority::COUNT],
    breakers: Option<BreakerConfig>,
    queue_capacity: usize,
    policy: AdmissionPolicy,
}

impl EngineBuilder {
    /// Queued (not yet started) requests the admission queue holds before
    /// the [`AdmissionPolicy`] engages.
    pub const DEFAULT_QUEUE_CAPACITY: usize = 1024;

    /// An empty registry with defaults: one worker per available core, a
    /// context pool sized to the workers, adaptive stopping, a
    /// 1024-request admission queue under [`AdmissionPolicy::Block`], and
    /// fault tolerance off (no breakers, no retries, no fallbacks).
    pub fn new() -> Self {
        Self {
            models: HashMap::new(),
            fallbacks: HashMap::new(),
            deltas: HashMap::new(),
            workers: None,
            default_retry: RetryPolicy::default(),
            rerank_indexes: HashMap::new(),
            class_rerank: [None; Priority::COUNT],
            breakers: None,
            queue_capacity: Self::DEFAULT_QUEUE_CAPACITY,
            policy: AdmissionPolicy::default(),
        }
    }

    /// Register `rec` under `name`, replacing any previous registration of
    /// that name. Provenance reports as "trained in-process".
    pub fn model(mut self, name: impl Into<String>, rec: SharedRecommender) -> Self {
        self.models.insert(name.into(), rec);
        self
    }

    /// Attach a streaming-ingest [`DeltaStore`] to the registered model
    /// `name`: its requests then serve base + delta-overlay at a pinned
    /// `(version, epoch)` pair (responses carry
    /// [`RecommendResponse::epoch`]), and
    /// [`Engine::compact_and_deploy`] folds the delta into rebuilt bases.
    /// The store should be constructed over the same dataset the model was
    /// trained on. Keep a clone of the `Arc` to append ratings.
    ///
    /// From then on the model's versions come only from compaction:
    /// [`Engine::deploy`] panics for it.
    ///
    /// # Panics
    ///
    /// [`EngineBuilder::build`] panics if `name` is unregistered, or if the
    /// same store (the same `Arc`) is attached to two names: a store's
    /// delta and epochs belong to one model.
    pub fn ingest(mut self, name: impl Into<String>, store: Arc<DeltaStore>) -> Self {
        self.deltas.insert(name.into(), store);
        self
    }

    /// Arm a circuit breaker (with this config) on every registered model
    /// and each version deployed later. Without this call breakers are
    /// disabled: nothing is recorded, nothing ever refuses, the fault-free
    /// path is unchanged.
    pub fn breakers(mut self, config: BreakerConfig) -> Self {
        self.breakers = Some(config);
        self
    }

    /// Serve requests for `primary` from `fallback` (flagged
    /// [`RecommendResponse::degraded`]) when the primary's breaker is open
    /// or its retries are exhausted. Both names refer to registered
    /// models; registration order does not matter, but both must exist by
    /// [`EngineBuilder::build`] time.
    pub fn fallback(mut self, primary: impl Into<String>, fallback: impl Into<String>) -> Self {
        self.fallbacks.insert(primary.into(), fallback.into());
        self
    }

    /// The [`RetryPolicy`] applied to requests that don't carry their own
    /// ([`RecommendRequest::with_retry`]). Defaults to no retries.
    pub fn default_retry(mut self, retry: RetryPolicy) -> Self {
        self.default_retry = retry;
        self
    }

    /// Attach a long-tail [`RerankIndex`] to the registered model `name`.
    /// Requests routed to that model are re-ranked whenever an enabled
    /// [`RerankPolicy`] resolves for them (request override →
    /// [`EngineBuilder::class_rerank`]; an engine-wide default is the same
    /// policy set on every class); models without an index always serve
    /// raw fused order. The index must be built over the same training
    /// data as the model — its similarity and popularity statistics
    /// describe that graph.
    ///
    /// Build-time panics if `name` is unregistered.
    pub fn rerank_index(mut self, name: impl Into<String>, index: Arc<RerankIndex>) -> Self {
        self.rerank_indexes.insert(name.into(), index);
        self
    }

    /// The default [`RerankPolicy`] of one QoS class — e.g. re-rank
    /// `Batch`/`Background` list regeneration for catalog coverage while
    /// `Interactive` traffic stays on the raw low-latency path. A request's
    /// own [`RecommendRequest::with_rerank`] still wins.
    pub fn class_rerank(mut self, class: Priority, policy: RerankPolicy) -> Self {
        self.class_rerank[class.index()] = Some(policy);
        self
    }

    /// Number of persistent worker threads backing [`Engine::submit`] and
    /// [`Engine::recommend_batch`]. Defaults to the available parallelism.
    /// `0` is raised to 1: submissions are served only by the pool, so an
    /// engine always has a worker (inline serving is
    /// [`Engine::recommend`]).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = Some(n.max(1));
        self
    }

    /// Capacity of the bounded admission queue — how many submitted
    /// requests may wait for a worker before the [`AdmissionPolicy`]
    /// engages. Defaults to
    /// [`EngineBuilder::DEFAULT_QUEUE_CAPACITY`].
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 (a queue that can hold nothing cannot admit).
    pub fn queue_capacity(mut self, n: usize) -> Self {
        assert!(n > 0, "queue capacity must be at least 1");
        self.queue_capacity = n;
        self
    }

    /// Backpressure policy applied by [`Engine::submit`] when the admission
    /// queue is full. Defaults to [`AdmissionPolicy::Block`].
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Spawn the worker pool and finish the engine.
    ///
    /// # Panics
    ///
    /// Panics if a [`EngineBuilder::fallback`] registration names an
    /// unregistered model, maps a model to itself, an
    /// [`EngineBuilder::ingest`] attachment names an unregistered model or
    /// shares its store with another name, or a
    /// [`EngineBuilder::rerank_index`] attachment names an unregistered
    /// model.
    pub fn build(self) -> Engine {
        for name in self.rerank_indexes.keys() {
            assert!(
                self.models.contains_key(name),
                "rerank index attached to unknown model {name:?}"
            );
        }
        for (name, store) in &self.deltas {
            assert!(
                self.models.contains_key(name),
                "ingest store attached to unknown model {name:?}"
            );
            if let Some((other, _)) = self
                .deltas
                .iter()
                .find(|&(other, s)| other != name && Arc::ptr_eq(s, store))
            {
                panic!(
                    "models {name:?} and {other:?} share one ingest store; attach one store per model"
                );
            }
        }
        for (primary, fallback) in &self.fallbacks {
            assert!(
                self.models.contains_key(primary),
                "fallback registered for unknown model {primary:?}"
            );
            assert!(
                self.models.contains_key(fallback),
                "fallback {fallback:?} (for {primary:?}) is not a registered model"
            );
            assert!(
                primary != fallback,
                "model {primary:?} cannot be its own fallback"
            );
        }
        let breakers = self.breakers;
        let models = self
            .models
            .into_iter()
            .map(|(name, rec)| (name, ModelSlot::new(rec, breakers)))
            .collect();
        let workers = self
            .workers
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()));
        let core = Arc::new(EngineCore {
            models,
            deltas: self.deltas,
            fallbacks: self.fallbacks,
            breaker_config: breakers,
            default_retry: self.default_retry,
            rerank_indexes: self.rerank_indexes,
            class_rerank: self.class_rerank,
            // Every worker plus a couple of inline callers stay warm.
            contexts: ContextPool::new(workers + 2),
            aggregate: Mutex::new(DpTelemetry::default()),
            counters: EngineCounters::default(),
            workers_dead: AtomicU64::new(0),
            service_times: ServiceEwma::new(),
        });
        let queue = Arc::new(JobQueue::new(self.queue_capacity));
        let handles = (0..workers)
            .map(|_| spawn_worker(Arc::clone(&core), Arc::clone(&queue)))
            .collect();
        Engine {
            core,
            queue,
            policy: self.policy,
            workers: Mutex::new(handles),
            configured_workers: workers,
        }
    }
}

impl Default for EngineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_message_reports_common_payload_types() {
        let caught =
            std::panic::catch_unwind(|| std::panic::panic_any(42i32)).expect_err("panicked");
        assert!(panic_message(&*caught).contains("i32"));
        let caught =
            std::panic::catch_unwind(|| std::panic::panic_any(1.5f64)).expect_err("panicked");
        assert!(panic_message(&*caught).contains("f64"));
        let caught = std::panic::catch_unwind(|| panic!("plain {}", "message")).unwrap_err();
        assert_eq!(panic_message(&*caught), "plain message");
    }
}
