//! Shared configuration for the graph-based recommenders.

/// Parameters of the subgraph-bounded random-walk recommenders (HT, AT, AC).
#[derive(Debug, Clone, Copy)]
pub struct GraphRecConfig {
    /// BFS item budget µ (Algorithm 1, step 2). Table 4 shows quality is
    /// stable for µ in the thousands while cost grows, with 6k the paper's
    /// default.
    pub max_items: usize,
    /// Truncation depth τ of the dynamic program (Algorithm 1, step 4). The
    /// paper uses 15, which already reproduces the exact ranking.
    pub iterations: usize,
}

impl Default for GraphRecConfig {
    fn default() -> Self {
        Self {
            max_items: 6000,
            iterations: 15,
        }
    }
}

/// How the truncated DP behind the fused serving path decides when to stop
/// iterating (a per-request parameter, carried on
/// [`RecommendOptions::stopping`]).
///
/// The τ in [`GraphRecConfig::iterations`] is always the *budget*; the
/// policy governs whether a serving query may spend less of it. Reference
/// scoring ([`crate::Recommender::score_into`], the Recall@N protocol) is
/// unaffected — it always runs the full fixed τ so scored values stay
/// bit-for-bit reproducible.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DpStopping {
    /// Always run the full τ iterations — serving scores are bit-identical
    /// to `top_k` over [`crate::Recommender::score_into`].
    Fixed,
    /// Stop early when further iterations provably cannot matter: at an
    /// exact value fixed point (`δ_t = 0`, bit-identical to the full run),
    /// or when the rank-stability probe certifies the query's top-k list
    /// frozen (no candidate can cross its remaining-change bound) — the
    /// probe also arbitrates the `δ_t ≤ ε · scale` value-convergence rule
    /// (ε = 1e-9, `scale` = largest value so far, floored at 1), since
    /// converged *values* alone don't pin near-tied *orders*. Rankings are
    /// identical to [`DpStopping::Fixed`]; the reported scores sit within
    /// the remaining-change bound above the fixed-τ scores.
    ///
    /// The default: serving stops iterating as soon as the top-k list is
    /// provably frozen.
    #[default]
    Adaptive,
}

/// A checked request-scoped exclusion set: item ids removed from served
/// lists *in addition to* the user's training items, e.g. items already on
/// the page or filtered by business rules.
///
/// Replaces the old "must be sorted ascending" raw-slice footgun on
/// [`RecommendOptions::exclude`]: [`ExclusionSet::new`] normalizes (sorts
/// and dedups) once at construction — the serving engine builds it a
/// single time per request instead of per retry attempt — and borrowing
/// it into options is free.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExclusionSet {
    items: Vec<u32>,
}

static EMPTY_EXCLUSIONS: ExclusionSet = ExclusionSet { items: Vec::new() };

impl ExclusionSet {
    /// Normalize `items` (sort ascending, deduplicate) into a set.
    pub fn new(mut items: Vec<u32>) -> Self {
        items.sort_unstable();
        items.dedup();
        Self { items }
    }

    /// The shared empty set ([`RecommendOptions::default`] borrows it).
    pub fn empty() -> &'static Self {
        &EMPTY_EXCLUSIONS
    }

    /// Whether the set excludes nothing.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of excluded ids.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether `item` is excluded.
    #[inline]
    pub fn contains(&self, item: u32) -> bool {
        !self.items.is_empty() && self.items.binary_search(&item).is_ok()
    }

    /// The normalized ids, sorted ascending (the form the walk kernels
    /// consume).
    pub fn as_slice(&self) -> &[u32] {
        &self.items
    }
}

impl From<Vec<u32>> for ExclusionSet {
    fn from(items: Vec<u32>) -> Self {
        Self::new(items)
    }
}

/// Per-request serving parameters of [`crate::Recommender::recommend_into`]
/// and [`crate::Recommender::recommend_batch`].
///
/// The typed request surface of the serving API: everything that varies per
/// query but is not the query itself (user, k) lives here, so a context can
/// be shared by requests with different policies. `Default` is the plain
/// serving configuration — adaptive stopping, no extra exclusions, no
/// re-ranking, the base graph alone — and is what the convenience methods
/// ([`crate::Recommender::recommend`],
/// [`crate::Recommender::recommend_with`]) use.
///
/// `#[non_exhaustive]` + builder methods: construct with
/// [`RecommendOptions::new`] and chain setters, so future knobs are
/// non-breaking.
///
/// ```
/// use longtail_core::{DpStopping, ExclusionSet, RecommendOptions};
///
/// // Exact fixed-τ scores, with two request-scoped exclusions on top of
/// // the user's training items.
/// let hidden = ExclusionSet::new(vec![17, 3]);
/// let opts = RecommendOptions::new()
///     .stopping(DpStopping::Fixed)
///     .exclude(&hidden);
/// assert!(opts.is_excluded(17) && !opts.is_excluded(4));
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, Copy)]
pub struct RecommendOptions<'a> {
    /// Stopping policy for the walk family's serving DP (ignored by the
    /// non-walk families). Defaults to [`DpStopping::Adaptive`].
    pub stopping: DpStopping,
    /// Request-scoped exclusions (normalized at construction — see
    /// [`ExclusionSet`]). Defaults to the shared empty set.
    pub exclude: &'a ExclusionSet,
    /// Cooperative deadline for the walk family's serving DP: once this
    /// instant passes, the truncated walk aborts at its next measured
    /// iteration (the stride-scheduled δ pass, so the hot loop pays
    /// nothing) and the query's [`crate::DpTelemetry`] records a
    /// `deadline_expired` run. A cancelled query serves an **empty list**
    /// (never a ranking over partially-iterated values); callers that set
    /// a deadline distinguish "cancelled" from "nothing to recommend" via
    /// the telemetry (the `longtail-serve` engine does, answering
    /// `DeadlineExceeded` instead). Non-walk families ignore the
    /// deadline: their queries have no iteration loop to interrupt.
    /// `None` (the default) never cancels.
    pub deadline: Option<std::time::Instant>,
    /// Optional recency-decay edge weighting for the walk families: when
    /// set, every edge weight is scaled by
    /// [`RecencyDecay::factor`](longtail_graph::RecencyDecay::factor) of its
    /// timestamp before the walk kernel is built, de-emphasizing stale
    /// ratings per query without touching the stored graph. Graphs built
    /// without timestamps read every edge as t = 0 (maximally stale), which
    /// scales all weights uniformly — the renormalized kernel, and hence
    /// the ranking, is then unchanged. Ignored by the non-walk families.
    /// `None` (the default) serves undecayed weights.
    pub recency: Option<longtail_graph::RecencyDecay>,
    /// Optional post-scoring long-tail re-ranking: a
    /// [`RerankPolicy`](crate::RerankPolicy) bound to the model's
    /// [`RerankIndex`](crate::RerankIndex). When set (and enabled), the
    /// fused serving path over-fetches a top-M candidate pool
    /// ([`RecommendOptions::fetch`]) and re-ranks it down to `k`
    /// ([`RecommendOptions::finalize_topk`]), leaving per-item provenance
    /// in the context. `None` (the default) serves raw walk order.
    pub rerank: Option<crate::rerank::Reranker<'a>>,
    /// Optional streamed rating appends to serve on top of the model's
    /// base graph (see [`crate::Recommender::recommend_into`] for the
    /// overlay contract). The walk families merge it on read, ranking as a
    /// model rebuilt on the union would; the non-walk families ignore it
    /// and serve their frozen base (correct but stale). `None` (the
    /// default) and an empty delta serve the base alone.
    pub delta: Option<&'a longtail_graph::EdgeDelta>,
}

impl Default for RecommendOptions<'_> {
    fn default() -> Self {
        Self {
            stopping: DpStopping::default(),
            exclude: ExclusionSet::empty(),
            deadline: None,
            recency: None,
            rerank: None,
            delta: None,
        }
    }
}

impl<'a> RecommendOptions<'a> {
    /// The default options: adaptive stopping, no extra exclusions, no
    /// re-ranking, no delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// These options with an explicit stopping policy.
    pub fn stopping(mut self, stopping: DpStopping) -> Self {
        self.stopping = stopping;
        self
    }

    /// Options with an explicit stopping policy and no extra exclusions.
    pub fn with_stopping(stopping: DpStopping) -> Self {
        Self::new().stopping(stopping)
    }

    /// These options with a cooperative walk-DP deadline (see
    /// [`RecommendOptions::deadline`] for the cancelled-query contract).
    pub fn deadline_at(mut self, deadline: std::time::Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// These options with recency-decay edge weighting (see
    /// [`RecommendOptions::recency`]).
    pub fn with_recency(mut self, decay: longtail_graph::RecencyDecay) -> Self {
        self.recency = Some(decay);
        self
    }

    /// These options with the request-scoped exclusion set `exclude`.
    pub fn exclude(mut self, exclude: &'a ExclusionSet) -> Self {
        self.exclude = exclude;
        self
    }

    /// Options excluding `exclude` on top of the user's rated items, under
    /// the default adaptive stopping.
    pub fn excluding(exclude: &'a ExclusionSet) -> Self {
        Self::new().exclude(exclude)
    }

    /// These options with post-scoring re-ranking (see
    /// [`RecommendOptions::rerank`]).
    pub fn rerank(mut self, reranker: crate::rerank::Reranker<'a>) -> Self {
        self.rerank = Some(reranker);
        self
    }

    /// These options serving `delta` on top of the model's base graph (see
    /// [`RecommendOptions::delta`]).
    pub fn delta(mut self, delta: &'a longtail_graph::EdgeDelta) -> Self {
        self.delta = Some(delta);
        self
    }

    /// Whether `item` is in the request-scoped exclusion set (training-item
    /// exclusion is separate — see
    /// [`crate::Recommender::recommend_into`]).
    #[inline]
    pub fn is_excluded(&self, item: u32) -> bool {
        self.exclude.contains(item)
    }

    /// The candidate-pool size the fused path must collect for a final
    /// top-`k`: `k` itself without an enabled re-rank policy (the strict
    /// no-op path, bit-identical to pre-rerank serving), otherwise the
    /// policy's `4k` over-fetch
    /// ([`RerankPolicy::effective_pool`](crate::RerankPolicy::effective_pool)).
    #[inline]
    pub fn fetch(&self, k: usize) -> usize {
        match &self.rerank {
            Some(r) => r.policy.effective_pool(k),
            None => k,
        }
    }

    /// Finalize a drained candidate pool into the served top-`k`: apply
    /// the attached re-rank policy (leaving its provenance trace in
    /// `ctx`), or a strict no-op without one. Every fused
    /// `recommend_into` path calls this exactly once, after draining its
    /// collector.
    pub fn finalize_topk(
        &self,
        k: usize,
        ctx: &mut crate::context::ScoringContext,
        out: &mut Vec<crate::topk::ScoredItem>,
    ) {
        match &self.rerank {
            Some(r) => crate::rerank::apply(r, k, &mut ctx.rerank, out),
            // The trace always describes the *last* query: clear it so a
            // plain query never surfaces a stale re-rank provenance.
            None => ctx.rerank.clear_trace(),
        }
    }
}

/// Parameters of the Absorbing Cost recommenders (AC1/AC2).
#[derive(Debug, Clone, Copy)]
pub struct AbsorbingCostConfig {
    /// Subgraph / truncation parameters shared with AT.
    pub graph: GraphRecConfig,
    /// The constant `C` of Eq. 9 — the mean cost of a user→item hop. The
    /// paper treats it as a tuning parameter; 1.0 makes user→item hops cost
    /// exactly one step, so only the item→user direction is entropy-biased.
    pub item_entry_cost: f64,
}

impl Default for AbsorbingCostConfig {
    fn default() -> Self {
        Self {
            graph: GraphRecConfig::default(),
            item_entry_cost: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let g = GraphRecConfig::default();
        assert_eq!(g.max_items, 6000);
        assert_eq!(g.iterations, 15);
        let c = AbsorbingCostConfig::default();
        assert_eq!(c.item_entry_cost, 1.0);
    }

    #[test]
    fn options_default_to_adaptive_and_empty_exclusions() {
        let opts = RecommendOptions::new();
        assert_eq!(opts.stopping, DpStopping::Adaptive);
        assert!(opts.exclude.is_empty());
        assert!(!opts.is_excluded(0));
        assert!(opts.rerank.is_none());
        assert!(opts.delta.is_none());

        let fixed = RecommendOptions::with_stopping(DpStopping::Fixed);
        assert_eq!(fixed.stopping, DpStopping::Fixed);

        let hidden = ExclusionSet::new(vec![2, 5, 9]);
        let opts = RecommendOptions::excluding(&hidden);
        assert!(opts.is_excluded(5));
        assert!(!opts.is_excluded(4));
        assert_eq!(opts.stopping, DpStopping::Adaptive);
    }

    #[test]
    fn exclusion_set_normalizes_once() {
        let set = ExclusionSet::new(vec![9, 1, 5, 1, 9]);
        assert_eq!(set.as_slice(), &[1, 5, 9]);
        assert_eq!(set.len(), 3);
        assert!(set.contains(5) && !set.contains(2));

        assert!(ExclusionSet::empty().is_empty());
        assert_eq!(ExclusionSet::from(vec![3, 1]).as_slice(), &[1, 3]);
    }

    #[test]
    fn builder_chain_sets_every_knob() {
        let hidden = ExclusionSet::new(vec![7]);
        let delta = longtail_graph::EdgeDelta::new(1, 1);
        let opts = RecommendOptions::new()
            .stopping(DpStopping::Fixed)
            .exclude(&hidden)
            .delta(&delta);
        assert_eq!(opts.stopping, DpStopping::Fixed);
        assert!(opts.is_excluded(7));
        assert!(opts.delta.is_some_and(|d| std::ptr::eq(d, &delta)));
        // Without a re-ranker the fused path fetches exactly k.
        assert_eq!(opts.fetch(10), 10);
    }

    #[test]
    fn stopping_defaults_to_adaptive() {
        assert_eq!(DpStopping::default(), DpStopping::Adaptive);
        assert_ne!(DpStopping::default(), DpStopping::Fixed);
    }
}
