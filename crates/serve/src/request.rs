//! The typed request/response surface of the serving engine.

use crate::sched::Priority;
use longtail_core::{
    DpStopping, DpTelemetry, ExclusionSet, ItemProvenance, RecencyDecay, RerankPolicy, ScoredItem,
};

/// Bounded in-place retry of failed attempts, configured per request
/// ([`RecommendRequest::with_retry`]) or engine-wide
/// ([`crate::EngineBuilder::default_retry`]; the request wins).
///
/// Only *model faults* are retried — a caught query panic or a
/// NaN/−∞-poisoned response ([`ServeError::PoisonedScores`]) — each retry
/// on a **fresh** [`longtail_core::ScoringContext`], since the one a panic
/// unwound through is discarded as poisoned. Deadline expiries, unknown
/// models and open breakers are never retried: the first is already out of
/// time and the others cannot change between attempts. A retry runs at
/// once, with no pause, and only while the request's deadline has not
/// passed — after it, the retry is abandoned (an answer past the deadline
/// is useless at full cost). A retry that starts in time needs no more:
/// the walk DP cancels cooperatively mid-flight if the deadline then
/// expires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, the first included (so `max_attempts: 1` means "no
    /// retries" and is what `Default` gives).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 1 }
    }
}

impl RetryPolicy {
    /// Up to `max_attempts` total attempts (at least one).
    pub fn attempts(max_attempts: u32) -> Self {
        Self {
            max_attempts: max_attempts.max(1),
        }
    }
}

/// One top-k recommendation request against an [`crate::Engine`].
///
/// Everything per-call is here, typed: which registered model answers,
/// the list length, an optional stopping-policy override and a
/// request-scoped exclusion set. Build with [`RecommendRequest::new`] and
/// customize via the builder methods:
///
/// ```
/// use longtail_serve::RecommendRequest;
/// use longtail_core::DpStopping;
///
/// let req = RecommendRequest::new("AC2", 42, 10)
///     .with_stopping(DpStopping::Fixed)
///     .excluding(vec![7, 3, 7]); // any order, duplicates fine
/// assert_eq!(req.model, "AC2");
/// ```
///
/// The struct is `#[non_exhaustive]`: construct through [`new`] plus the
/// builder methods so new knobs (like [`with_rerank`]) can land without
/// breaking callers.
///
/// [`new`]: RecommendRequest::new
/// [`with_rerank`]: RecommendRequest::with_rerank
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RecommendRequest {
    /// The query user id. An id outside the routed model's training data
    /// is a user with no ratings: every built-in family serves it an empty
    /// list (a delta overlay may give it ratings).
    pub user: u32,
    /// List length.
    pub k: usize,
    /// Name of the registered model to serve from.
    pub model: String,
    /// Per-request stopping override for the walk family's serving DP;
    /// `None` uses [`DpStopping::default`] (adaptive).
    pub stopping: Option<DpStopping>,
    /// Request-scoped exclusions merged with the user's training items.
    /// [`RecommendRequest::excluding`] accepts any order and duplicates and
    /// normalizes **once at build time** — retries and fallback attempts
    /// borrow the already-sorted set instead of re-normalizing per attempt.
    pub exclude: ExclusionSet,
    /// Deadline for this request, `None` for no time bound. An expired
    /// deadline is checked twice: at dequeue — the request is shed with
    /// [`ServeError::DeadlineExceeded`] *without* running any scoring — and
    /// cooperatively inside the walk family's DP loop, which aborts at its
    /// next measured iteration so a request cannot keep burning a worker
    /// past its deadline. A query that completes before the check fires
    /// returns its response normally.
    pub deadline: Option<std::time::Instant>,
    /// Per-request retry override; `None` uses the engine's default policy
    /// (no retries unless [`crate::EngineBuilder::default_retry`] set one).
    pub retry: Option<RetryPolicy>,
    /// Optional recency-decay weighting for this request: edge weights are
    /// scaled by `exp(-ln2 · age/half_life)` before the walk, favouring the
    /// user's fresh tastes. `None` (the default) serves the timeless
    /// ranking. On untimed training data the decay scales all weights
    /// uniformly and the ranking is unchanged.
    pub recency: Option<RecencyDecay>,
    /// Per-request re-rank override for the long-tail quality stage.
    /// `None` defers to the request's QoS-class default
    /// ([`crate::EngineBuilder::class_rerank`]); a `Some` policy with
    /// [`RerankPolicy::is_enabled`]` == false` explicitly turns re-ranking
    /// *off* for this request. Re-ranking only applies to models the engine
    /// holds a [`longtail_core::RerankIndex`] for
    /// ([`crate::EngineBuilder::rerank_index`]); degraded fallback answers
    /// are never re-ranked.
    pub rerank: Option<RerankPolicy>,
    /// QoS class of this request (default [`Priority::Interactive`]). The
    /// engine dequeues strictly by class — every queued `Interactive`
    /// request before any `Batch`, every `Batch` before any `Background` —
    /// with earliest-deadline-first ordering inside a class.
    pub priority: Priority,
}

impl RecommendRequest {
    /// A plain request: adaptive stopping, no extra exclusions.
    pub fn new(model: impl Into<String>, user: u32, k: usize) -> Self {
        Self {
            user,
            k,
            model: model.into(),
            stopping: None,
            exclude: ExclusionSet::default(),
            deadline: None,
            retry: None,
            recency: None,
            rerank: None,
            priority: Priority::default(),
        }
    }

    /// Override the default (adaptive) stopping policy for this request.
    pub fn with_stopping(mut self, stopping: DpStopping) -> Self {
        self.stopping = Some(stopping);
        self
    }

    /// Exclude `items` (any order, duplicates allowed) on top of the
    /// user's training items. Normalized (sorted, deduplicated) **once**
    /// here — retries borrow the same [`ExclusionSet`].
    pub fn excluding(mut self, items: impl Into<ExclusionSet>) -> Self {
        self.exclude = items.into();
        self
    }

    /// Bound this request by an absolute deadline (see
    /// [`RecommendRequest::deadline`]).
    pub fn deadline_at(mut self, deadline: std::time::Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Bound this request by a time budget from now —
    /// `deadline_at(Instant::now() + budget)`.
    pub fn deadline_in(self, budget: std::time::Duration) -> Self {
        self.deadline_at(std::time::Instant::now() + budget)
    }

    /// Override the engine's default [`RetryPolicy`] for this request.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Set this request's QoS class (see [`RecommendRequest::priority`]).
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Weight edges by recency for this request (see
    /// [`RecommendRequest::recency`]).
    pub fn with_recency(mut self, decay: RecencyDecay) -> Self {
        self.recency = Some(decay);
        self
    }

    /// Override the engine's re-rank defaults for this request (see
    /// [`RecommendRequest::rerank`]). Pass [`RerankPolicy::default`] to
    /// explicitly disable re-ranking even when the engine has one
    /// configured.
    pub fn with_rerank(mut self, policy: RerankPolicy) -> Self {
        self.rerank = Some(policy);
        self
    }
}

/// The engine's answer to a [`RecommendRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct RecommendResponse {
    /// The top-k list, best first — identical (items, ranks, scores) to
    /// calling the routed recommender's `recommend_into` directly with the
    /// request's effective options.
    pub items: Vec<ScoredItem>,
    /// Display name of the recommender that answered (its
    /// `Recommender::name()`, e.g. `"AC2"` — the registry name is echoed
    /// on the request).
    pub model: &'static str,
    /// Version of the model that answered (`1` = the build-time
    /// registration; each [`crate::Engine::deploy`] increments it). A
    /// request is pinned to the version it resolved at execution start —
    /// this field proves which side of a hot swap it landed on.
    pub version: u32,
    /// The streaming-ingest epoch this response was served at: `Some` iff
    /// the routed model has a [`crate::DeltaStore`] attached
    /// ([`crate::EngineBuilder::ingest`]), in which case the list scored
    /// over base + delta-overlay as of exactly this epoch, and the
    /// `(version, epoch)` pair appears in the store's
    /// [`crate::DeltaStore::epoch_log`] — the no-torn-epoch witness.
    /// `None` for models without ingest and for degraded (fallback)
    /// answers.
    pub epoch: Option<u64>,
    /// DP iteration counters of exactly this request's query (all-zero for
    /// non-walk models), diffed off the pooled context that served it.
    pub telemetry: DpTelemetry,
    /// Per-item provenance of the long-tail re-rank stage, aligned with
    /// [`RecommendResponse::items`]: `Some` iff an enabled
    /// [`RerankPolicy`] resolved for this request *and* the routed model
    /// has a [`longtail_core::RerankIndex`] registered. Each entry carries
    /// the item's popularity percentile, its tail flag and how far the
    /// re-ranker moved it relative to pure relevance order. `None` means
    /// the list is the raw fused top-k (including all degraded answers).
    pub provenance: Option<Vec<ItemProvenance>>,
    /// `true` when the registered **fallback** model produced this list
    /// because the requested primary was unavailable (breaker open, or its
    /// retries exhausted); [`RecommendResponse::model`] then names the
    /// fallback. Every non-degraded response is rank-identical to a
    /// fault-free engine's answer — degradation is flagged, never silent.
    pub degraded: bool,
}

/// Why the engine refused or failed a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request named a model the engine has no registration for.
    UnknownModel(String),
    /// The query panicked while being served (a faulty or buggy model).
    /// The engine survives — pool workers
    /// keep running and later requests are unaffected — and the panic
    /// message is preserved here; the panic hook still logs to stderr.
    RequestPanicked(String),
    /// The admission queue was full and [`crate::AdmissionPolicy::Reject`]
    /// refused the request: [`crate::Engine::submit`] returns this itself,
    /// without queueing it.
    Overloaded,
    /// The request's deadline expired before a response was produced —
    /// either already at dequeue (shed without running any scoring) or
    /// mid-query, when the walk DP's cooperative cancellation fired.
    DeadlineExceeded,
    /// The engine shut down before the queued request was served: engine
    /// drop cancels every not-yet-started request so teardown never waits
    /// on a backlog.
    ShuttingDown,
    /// The routed model's circuit breaker is open and no fallback model is
    /// registered: the request is refused fast — at submit time when
    /// possible, before it spends a queue slot or a
    /// [`longtail_core::ScoringContext`] — instead of feeding a model the
    /// rolling window says is down.
    CircuitOpen,
    /// The model returned non-finite (NaN or −∞) scores in its top-k list.
    /// The shared [`longtail_core::TopKCollector`] never admits such
    /// scores, so any non-finite score in a response is poison from a buggy
    /// or faulted custom path; the engine refuses to serve it and feeds the
    /// breaker a failure.
    PoisonedScores,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownModel(name) => write!(f, "no model registered under {name:?}"),
            Self::RequestPanicked(message) => {
                write!(f, "request panicked while being served: {message}")
            }
            Self::Overloaded => write!(f, "admission queue full, request refused by backpressure"),
            Self::DeadlineExceeded => write!(f, "request deadline expired before completion"),
            Self::ShuttingDown => write!(f, "engine shut down before the request was served"),
            Self::CircuitOpen => {
                write!(f, "model circuit breaker is open, request refused fast")
            }
            Self::PoisonedScores => {
                write!(f, "model returned non-finite scores, response refused")
            }
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let req = RecommendRequest::new("HT", 3, 5)
            .with_stopping(DpStopping::Fixed)
            .excluding(vec![9, 1, 9]);
        assert_eq!(req.user, 3);
        assert_eq!(req.k, 5);
        assert_eq!(req.model, "HT");
        assert_eq!(req.stopping, Some(DpStopping::Fixed));
        // Normalized once at build time: sorted ascending, deduplicated.
        assert_eq!(req.exclude.as_slice(), &[1, 9]);
        assert_eq!(req.priority, Priority::Interactive, "default class");
        assert_eq!(req.rerank, None, "no re-rank override by default");
        let req = req.with_priority(Priority::Background);
        assert_eq!(req.priority, Priority::Background);
        let req = req.with_rerank(RerankPolicy::new().mmr(0.3));
        assert!(req.rerank.unwrap().is_enabled());
    }

    #[test]
    fn error_displays_model_name() {
        let e = ServeError::UnknownModel("nope".into());
        assert!(e.to_string().contains("nope"));
    }

    #[test]
    fn retry_policy_floors_at_one_attempt() {
        assert_eq!(RetryPolicy::attempts(0).max_attempts, 1);
        assert_eq!(RetryPolicy::default().max_attempts, 1);
        assert_eq!(RetryPolicy::attempts(3).max_attempts, 3);
    }
}
