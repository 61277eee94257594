//! # longtail-serve — the unified serving engine
//!
//! The serving layer over `longtail-core`'s recommenders, shaped for the
//! paper's deployment story (*Challenging the Long Tail Recommendation*,
//! Yin et al., VLDB 2012: many users, many algorithm variants, low
//! latency):
//!
//! * **Registry of named models** — one [`Engine`] owns every variant a
//!   deployment serves (`"HT"`, `"AC2"`, `"PureSVD"`, …), one model per
//!   name, so popularity-bias-aware deployments can pick which model
//!   answers per request instead of linking one model per binary.
//! * **Typed request surface** — [`RecommendRequest`] carries user, k,
//!   model name, an optional [`longtail_core::DpStopping`] override, a
//!   request-scoped exclusion set and an optional deadline;
//!   [`RecommendResponse`] carries the list, the answering model and
//!   version, and the request's [`longtail_core::DpTelemetry`].
//! * **Async front-end** — [`Engine::submit`] enqueues without blocking
//!   and returns a [`PendingResponse`] handle
//!   (`try_recv`/`wait_timeout`/`wait`, no async runtime required); the
//!   **bounded admission queue** applies an explicit backpressure policy
//!   ([`AdmissionPolicy::Block`] waits for a slot,
//!   [`AdmissionPolicy::Reject`] → [`ServeError::Overloaded`]), and
//!   per-request **deadlines** shed expired work at dequeue and cancel the
//!   walk DP cooperatively mid-query
//!   ([`ServeError::DeadlineExceeded`]). [`EngineStats`] counts it all.
//! * **QoS scheduling** — requests carry a [`Priority`] class
//!   (`Interactive`/`Batch`/`Background`) and the queue dequeues by strict
//!   priority across classes, earliest deadline first within one and
//!   arrival order as the tie break (so unannotated traffic is served in
//!   arrival order); **slack-based shedding** drops a request at dequeue
//!   when the EWMA of its model's observed service time proves the
//!   deadline unmeetable. [`EngineStats::per_class`] ledgers each class
//!   (submitted/served/shed/expired plus a fixed-bucket latency histogram
//!   with p50/p99), and the scheduler only ever reorders or sheds — a
//!   served ranking is identical to the blocking path's.
//! * **Context pooling** — requests run in [`ContextPool`]-recycled
//!   [`longtail_core::ScoringContext`]s: no `O(n_nodes)` buffer setup per
//!   query, on any thread.
//! * **Persistent worker pool** — submissions drain through long-lived
//!   worker threads (at least one; inline serving is
//!   [`Engine::recommend`]); [`Engine::recommend_batch`] is fan-out over
//!   [`Engine::submit`] plus an in-order drain, and engine drop cancels
//!   the queued backlog so shutdown is bounded-time.
//! * **Fault tolerance (opt-in)** — [`EngineBuilder::breakers`] arms a
//!   **circuit breaker** per model (rolling failure window over
//!   panics, poisoned scores and in-DP deadline expiries;
//!   Closed→Open→HalfOpen; open breakers fail fast with
//!   [`ServeError::CircuitOpen`] before any queue slot or context is
//!   spent), [`RetryPolicy`] retries model faults on fresh contexts within
//!   the deadline, and [`EngineBuilder::fallback`] serves unavailable
//!   primaries from a registered stand-in (e.g. the popularity baseline)
//!   with [`RecommendResponse::degraded`] set. Worker threads are
//!   supervised — dead ones respawn — and [`Engine::health`] snapshots
//!   breaker states, queue depth and worker liveness. The deterministic
//!   [`FaultPlan`]/[`FaultyRecommender`] harness drives all of it in the
//!   chaos suite (`tests/fault_tolerance.rs`) and
//!   `examples/fault_tolerance.rs`.
//!
//! * **Streaming ingest (opt-in)** — attach a [`DeltaStore`]
//!   ([`EngineBuilder::ingest`]) and the model's requests serve **base +
//!   delta overlay**: appended `(user, item, weight, timestamp)` ratings
//!   become visible at published **epochs** without rebuilding the base,
//!   every response names the `(version, epoch)` pair it scored at, and
//!   [`Engine::compact_and_deploy`] periodically folds the delta into a
//!   freshly built base, hot-swapped in under the store's lock —
//!   in-flight queries stay pinned to their epoch, zero lost requests.
//!
//! Engine output is pinned — by equivalence property tests — to be
//! identical (items, ranks, scores) to calling the routed recommender's
//! [`longtail_core::Recommender::recommend_into`] directly, for every
//! request the engine answers non-degraded; requests dropped by
//! backpressure or deadlines fail typed, and fallback answers are flagged
//! degraded — nothing degrades silently.

#![warn(missing_docs)]

mod breaker;
mod engine;
mod faults;
mod ingest;
mod pool;
mod queue;
mod request;
mod sched;
mod submit;

pub use breaker::{BreakerConfig, BreakerState};
pub use engine::{
    Engine, EngineBuilder, EngineHealth, ModelHealth, ModelProvenance, SharedRecommender,
    VersionRecord,
};
pub use faults::{FaultKind, FaultPlan, FaultyRecommender, WORKER_KILL_MARK};
pub use ingest::{
    CompactionReport, DeltaConfig, DeltaRating, DeltaSnapshot, DeltaStore, IngestStats,
};
pub use pool::ContextPool;
pub use queue::AdmissionPolicy;
pub use request::{RecommendRequest, RecommendResponse, RetryPolicy, ServeError};
pub use sched::{latency_bucket_bound, latency_quantile, Priority, LATENCY_BUCKETS};
pub use submit::{ClassStats, EngineStats, PendingResponse};
