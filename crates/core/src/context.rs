//! Reusable per-query scoring state.
//!
//! A single `score_items` call on the graph recommenders used to allocate a
//! full `O(n_nodes)` id map, a fresh induced adjacency, DP vectors and a
//! score vector — every query, for every user. [`ScoringContext`] owns all
//! of that state instead: create one per worker thread, thread it through
//! [`crate::Recommender::score_into`], and steady-state scoring performs no
//! `O(n_nodes)` allocations at all (buffers are resized in place, retaining
//! capacity across queries).
//!
//! The context carries no serving *policy*: the [`crate::DpStopping`] rule
//! the walk family applies to its truncated DP is a per-request parameter
//! on [`crate::RecommendOptions`]. What the context does carry besides
//! scratch is [`DpTelemetry`] — cumulative counters recording how many of
//! the budgeted DP iterations each query actually spent.
//!
//! Convenience methods that take no context
//! ([`crate::Recommender::score_items`], [`crate::Recommender::recommend`])
//! borrow a thread-local instance via [`with_thread_context`], so even
//! naive callers reuse buffers across queries.

use crate::topk::{ScoredItem, TopKCollector};
use longtail_graph::SubgraphScratch;
use longtail_markov::{DpBuffers, DpRun, PageRankBuffers};
use std::cell::RefCell;

/// Cumulative counters over every truncated-DP run a context performed —
/// the observability half of adaptive early termination.
///
/// `iterations_budget − iterations_run` is the work adaptive stopping
/// saved; `converged` and `rank_frozen` attribute the saving to the two
/// stopping rules. Counters accumulate across queries until
/// [`ScoringContext::reset_dp_telemetry`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DpTelemetry {
    /// Number of DP runs (one per walk-family query that reached the DP).
    pub queries: u64,
    /// Iterations actually performed, summed over runs.
    pub iterations_run: u64,
    /// Fixed-τ iterations the runs were budgeted, summed.
    pub iterations_budget: u64,
    /// Runs stopped by the value-convergence rule.
    pub converged: u64,
    /// Runs stopped by the rank-stability probe.
    pub rank_frozen: u64,
    /// Runs aborted by an expired request deadline (cooperative
    /// cancellation inside the DP loop). Lists produced by such runs are
    /// invalid and must not be served — the serving engine answers
    /// `DeadlineExceeded` whenever a request's diff shows one.
    pub deadline_expired: u64,
}

impl DpTelemetry {
    /// Fold one run's outcome into the counters.
    pub fn record(&mut self, run: &DpRun) {
        self.queries += 1;
        self.iterations_run += run.iterations as u64;
        self.iterations_budget += run.budget as u64;
        self.converged += u64::from(run.converged);
        self.rank_frozen += u64::from(run.rank_frozen);
        self.deadline_expired += u64::from(run.cancelled);
    }

    /// Fraction of the budgeted iterations early termination skipped
    /// (0 when nothing ran).
    pub fn iterations_saved_fraction(&self) -> f64 {
        if self.iterations_budget == 0 {
            0.0
        } else {
            1.0 - self.iterations_run as f64 / self.iterations_budget as f64
        }
    }

    /// Merge another telemetry block (e.g. from a batch worker) into this
    /// one.
    pub fn merge(&mut self, other: &DpTelemetry) {
        self.queries += other.queries;
        self.iterations_run += other.iterations_run;
        self.iterations_budget += other.iterations_budget;
        self.converged += other.converged;
        self.rank_frozen += other.rank_frozen;
        self.deadline_expired += other.deadline_expired;
    }

    /// Counter-wise difference against an `earlier` snapshot of the same
    /// monotone counters — the telemetry attributable to the queries run
    /// between the two reads (saturating, so a reset between snapshots
    /// yields the post-reset counts instead of wrapping).
    pub fn since(&self, earlier: &DpTelemetry) -> DpTelemetry {
        DpTelemetry {
            queries: self.queries.saturating_sub(earlier.queries),
            iterations_run: self.iterations_run.saturating_sub(earlier.iterations_run),
            iterations_budget: self
                .iterations_budget
                .saturating_sub(earlier.iterations_budget),
            converged: self.converged.saturating_sub(earlier.converged),
            rank_frozen: self.rank_frozen.saturating_sub(earlier.rank_frozen),
            deadline_expired: self
                .deadline_expired
                .saturating_sub(earlier.deadline_expired),
        }
    }
}

/// All reusable buffers a recommender query needs.
///
/// The context is intentionally recommender-agnostic: the same instance can
/// serve every family's queries back to back (the evaluation harness does
/// exactly that when timing a roster). A context holds no query *results*
/// — only scratch plus telemetry — so reusing it never changes scores; the
/// batch-equivalence tests pin that guarantee.
#[derive(Debug, Clone, Default)]
pub struct ScoringContext {
    /// BFS subgraph extraction + induced transition kernel (Algorithm 1,
    /// step 2).
    pub(crate) subgraph: SubgraphScratch,
    /// Truncated dynamic-program state (Algorithm 1, steps 3–4).
    pub(crate) walk: DpBuffers,
    /// Power-iteration state for the (D)PPR baselines.
    pub(crate) pagerank: PageRankBuffers,
    /// Per-local-node absorbing flags for the current query.
    pub(crate) absorbing: Vec<bool>,
    /// Flat node ids of the query's seed / absorbing set.
    pub(crate) seeds: Vec<usize>,
    /// Per-local-node entry costs (Eq. 9) for the AC variants.
    pub(crate) entry_costs: Vec<f64>,
    /// General-purpose `f64` scratch for model-specific intermediates
    /// (e.g. PureSVD's factor-space projection).
    pub(crate) scratch: Vec<f64>,
    /// Bounded heap for fused top-k queries
    /// ([`crate::Recommender::recommend_into`]).
    pub(crate) topk: TopKCollector,
    /// Full score vector scratch for the score-then-sort fallback of
    /// [`crate::Recommender::recommend_into`].
    pub(crate) score_buf: Vec<f64>,
    /// Sorted item ids the query user has rated across base + delta, for
    /// the streaming-overlay serving path (exclusion + absorbing seeds).
    pub(crate) merged_rated: Vec<u32>,
    /// Bounded heap the rank-stability probe collects the provisional
    /// top-(k+1) into (distinct from `topk`, which belongs to the final
    /// collection).
    pub(crate) probe_topk: TopKCollector,
    /// Sorted scratch list the probe drains `probe_topk` into.
    pub(crate) probe_items: Vec<ScoredItem>,
    /// Cumulative DP iteration counters (see [`DpTelemetry`]).
    pub(crate) dp_telemetry: DpTelemetry,
    /// Buffers + last-query provenance trace of the post-scoring re-rank
    /// stage (see [`crate::rerank`]).
    pub(crate) rerank: crate::rerank::RerankScratch,
}

impl ScoringContext {
    /// An empty context; every buffer sizes itself lazily on first use, so
    /// construction is cheap regardless of catalog size.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative truncated-DP iteration counters for every walk-family
    /// query this context served since creation or the last
    /// [`ScoringContext::reset_dp_telemetry`].
    pub fn dp_telemetry(&self) -> DpTelemetry {
        self.dp_telemetry
    }

    /// Zero the [`DpTelemetry`] counters (e.g. between benchmark phases).
    pub fn reset_dp_telemetry(&mut self) {
        self.dp_telemetry = DpTelemetry::default();
    }

    /// Per-item provenance of the last re-ranked query this context served
    /// (empty when that query ran without an enabled
    /// [`crate::RerankPolicy`]). Read it right after `recommend_into` —
    /// the next query overwrites it.
    pub fn rerank_trace(&self) -> &[crate::rerank::ItemProvenance] {
        self.rerank.trace()
    }
}

thread_local! {
    /// The per-thread context behind the no-context convenience methods.
    static THREAD_CONTEXT: RefCell<ScoringContext> = RefCell::new(ScoringContext::new());
}

/// Run `f` with this thread's shared [`ScoringContext`].
///
/// This is what makes [`crate::Recommender::score_items`] and
/// [`crate::Recommender::recommend`] cheap to call in a loop: the
/// `O(n_nodes)` buffer setup is paid once per thread, not once per query.
/// Results never depend on prior context use (a pinned invariant), so
/// sharing is invisible.
///
/// Prefer an explicitly owned context ([`crate::Recommender::score_into`] /
/// [`crate::Recommender::recommend_into`], or a `longtail-serve` engine's
/// pooled contexts) when you need the [`DpTelemetry`] of your own queries —
/// the thread-local accumulates counters across every caller on the thread
/// — or when a long-lived service thread should not pin catalog-sized
/// buffers between request bursts. If the thread-local is already borrowed
/// (a reentrant call from inside a scoring path), a fresh transient context
/// is used instead, preserving correctness at the old allocation cost.
pub fn with_thread_context<R>(f: impl FnOnce(&mut ScoringContext) -> R) -> R {
    THREAD_CONTEXT.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ctx) => f(&mut ctx),
        Err(_) => f(&mut ScoringContext::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_records_and_resets() {
        let mut t = DpTelemetry::default();
        t.record(&DpRun {
            iterations: 5,
            budget: 15,
            converged: true,
            rank_frozen: false,
            cancelled: false,
            last_delta: 0.0,
        });
        t.record(&DpRun::fixed(15));
        assert_eq!(t.queries, 2);
        assert_eq!(t.iterations_run, 20);
        assert_eq!(t.iterations_budget, 30);
        assert_eq!(t.converged, 1);
        assert_eq!(t.rank_frozen, 0);
        assert!((t.iterations_saved_fraction() - 10.0 / 30.0).abs() < 1e-12);

        let mut merged = DpTelemetry::default();
        merged.merge(&t);
        merged.merge(&t);
        assert_eq!(merged.queries, 4);
        assert_eq!(merged.iterations_run, 40);

        let mut ctx = ScoringContext::new();
        ctx.dp_telemetry.record(&DpRun::fixed(7));
        assert_eq!(ctx.dp_telemetry().queries, 1);
        ctx.reset_dp_telemetry();
        assert_eq!(ctx.dp_telemetry(), DpTelemetry::default());
    }

    #[test]
    fn empty_telemetry_saved_fraction_is_zero() {
        assert_eq!(DpTelemetry::default().iterations_saved_fraction(), 0.0);
    }

    #[test]
    fn since_diffs_monotone_snapshots() {
        let mut t = DpTelemetry::default();
        t.record(&DpRun::fixed(10));
        let snapshot = t;
        t.record(&DpRun {
            iterations: 4,
            budget: 10,
            converged: true,
            rank_frozen: false,
            cancelled: false,
            last_delta: 0.0,
        });
        let diff = t.since(&snapshot);
        assert_eq!(diff.queries, 1);
        assert_eq!(diff.iterations_run, 4);
        assert_eq!(diff.iterations_budget, 10);
        assert_eq!(diff.converged, 1);
        // A reset between snapshots saturates instead of wrapping.
        assert_eq!(DpTelemetry::default().since(&snapshot).queries, 0);
    }

    #[test]
    fn thread_context_is_reused_and_reentrancy_safe() {
        let first = with_thread_context(|ctx| {
            ctx.scratch.push(1.0);
            ctx as *const ScoringContext as usize
        });
        let second = with_thread_context(|ctx| {
            assert_eq!(ctx.scratch, vec![1.0], "buffer survived between calls");
            ctx.scratch.clear();
            // Reentrant borrow falls back to a transient context rather
            // than panicking.
            let inner = with_thread_context(|inner| inner as *const ScoringContext as usize);
            assert_ne!(inner, ctx as *const ScoringContext as usize);
            ctx as *const ScoringContext as usize
        });
        assert_eq!(first, second, "same thread shares one context");
    }
}
