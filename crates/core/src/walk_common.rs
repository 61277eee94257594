//! The one walk routine behind the subgraph-bounded random-walk
//! recommenders.
//!
//! HT, AT and AC all follow Algorithm 1's skeleton: grow a BFS subgraph
//! around the query's seed nodes, run a truncated absorbing walk on it, and
//! map the per-node results back to item scores (negated walk value —
//! smaller time/cost means more recommended). The three walks differ in
//! only two ways, and a [`Walk`] names both: where the walk absorbs
//! ([`Absorb`]: the query user for HT, §3.3; the user's rated items for AT
//! and AC, §4.1) and what a hop costs (one step, or AC's user entropies,
//! Eq. 9–11, through [`EntryCosts`]). Everything else is shared:
//! [`Walk::score_into`] computes the reference scores and [`Walk::serve`]
//! the fused top-k list, choosing the graph view in one place from the
//! request's options — the frozen base, a base +
//! [`crate::RecommendOptions::delta`] overlay, or either under recency
//! decay. Each of those four view arms is one generic instantiation for
//! all three families. A user outside the view is served as a user with no
//! ratings: an empty list, all `-∞` scores, no rated items.
//!
//! All helpers write through caller-owned buffers (the
//! [`crate::ScoringContext`]), so a steady-state scoring loop performs no
//! `O(n_nodes)` allocations.
//!
//! [`run_truncated_walk`] is the one place the DP is launched. In
//! [`WalkMode::Reference`] (the `score_into` contract) it always runs the
//! full fixed-τ program, keeping scored values bit-for-bit reproducible. In
//! [`WalkMode::Serving`] (the fused top-k path) the request's
//! [`DpStopping`] policy (from [`crate::RecommendOptions`]) applies: the DP
//! may stop once the value vector has converged or once [`rank_frozen`]
//! proves the query's top-k list can no longer change — the rankings served
//! are identical to fixed-τ either way. The serving mode also carries the
//! request's extra exclusion set, so the probe certifies exactly the list
//! the collector will serve.

use crate::config::{DpStopping, GraphRecConfig, RecommendOptions};
use crate::context::ScoringContext;
use crate::recommenders::rated_row;
use crate::topk::{outranks, ScoredItem, TopKCollector};
use longtail_graph::{BipartiteGraph, Decayed, GraphView, OverlayGraph, SubgraphScratch};
use longtail_markov::{
    truncated_costs_converge_into, truncated_costs_into, CostModel, DpBuffers, DpProbe, DpRun,
    SliceCost, UnitCost,
};
use std::time::Instant;

/// Smallest τ budget for which the rank-stability probe is armed. Below
/// this the handful of iterations a freeze could save is on the order of
/// the probe's own cost, so only the (nearly free) convergence rule runs.
const PROBE_MIN_BUDGET: usize = 32;

/// Relative threshold ε of [`DpStopping::Adaptive`]'s `δ_t ≤ ε · scale`
/// convergence rule: tight enough that a convergence stop perturbs values
/// by well under any score gap a real ranking hinges on, loose enough to
/// fire once the DP reaches its floating-point plateau.
const ADAPTIVE_EPSILON: f64 = 1e-9;

/// Where a walk absorbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Absorb {
    /// At the query user's node (HT, §3.3).
    User,
    /// At the query user's rated items `S_q` (AT and AC, §4.1).
    RatedItems,
}

/// AC's entropy-biased entry costs (Eq. 9): a hop costs what entering its
/// target node costs.
pub(crate) trait EntryCosts {
    /// Cost of entering `user`. `overlay` is the undecayed base + delta
    /// merge when the request's options carry a non-empty
    /// [`RecommendOptions::delta`], so costs derived from the ratings see
    /// the appended rows.
    fn user_cost(&self, overlay: Option<&OverlayGraph<'_>>, user: u32) -> f64;

    /// Cost of entering any item (the constant `C`).
    fn item_cost(&self) -> f64;
}

/// One of the paper's walks over a model's training graph.
pub(crate) struct Walk<'a> {
    /// The training graph.
    pub(crate) graph: &'a BipartiteGraph,
    /// The BFS item budget μ and the DP's truncation depth τ.
    pub(crate) config: GraphRecConfig,
    /// Where the walk absorbs.
    pub(crate) absorb: Absorb,
    /// Per-node entry costs; `None` charges every hop one step (HT, AT).
    pub(crate) costs: Option<&'a dyn EntryCosts>,
}

impl<'a> Walk<'a> {
    /// The items `user` rated in the training graph; empty for a user
    /// outside it.
    pub(crate) fn rated_items(&self, user: u32) -> &'a [u32] {
        rated_row(self.graph.user_items(), user)
    }

    /// [`crate::Recommender::score_into`]: the exact fixed-τ walk over the
    /// base graph.
    pub(crate) fn score_into(&self, user: u32, ctx: &mut ScoringContext, out: &mut Vec<f64>) {
        reset_scores(self.graph, out);
        if self.run(self.graph, None, user, WalkMode::Reference, ctx) {
            write_scores_from_scratch(self.graph, &ctx.subgraph, ctx.walk.values(), out);
        }
    }

    /// The fused serving path, [`crate::Recommender::recommend_into`]: over
    /// the base graph, or over base + [`RecommendOptions::delta`] when the
    /// options carry one.
    pub(crate) fn serve(
        &self,
        user: u32,
        k: usize,
        opts: &RecommendOptions<'_>,
        ctx: &mut ScoringContext,
        out: &mut Vec<ScoredItem>,
    ) {
        // An empty delta serves the frozen base without overlay overhead.
        let overlay = opts
            .delta
            .filter(|d| !d.is_empty())
            .map(|d| OverlayGraph::new(self.graph, d));
        // The exclusion set: the base rated row, or the merged base + delta
        // row (AT/AC re-read the same set off the view as their absorbing
        // set).
        let mut merged = std::mem::take(&mut ctx.merged_rated);
        let rated = match &overlay {
            None => self.rated_items(user),
            Some(o) => {
                merged.clear();
                if (user as usize) < o.n_users() {
                    o.for_each_rated(user, |i, _| merged.push(i));
                }
                &merged[..]
            }
        };
        // With an enabled re-rank policy the collector (and the
        // rank-stability probe, via the mode's k) is armed for the top-M
        // pool instead of k.
        let fetch = opts.fetch(k);
        ctx.topk.reset(fetch);
        let mode = WalkMode::Serving {
            k: fetch,
            rated,
            extra: opts.exclude.as_slice(),
            rated_absorbing: self.absorb == Absorb::RatedItems,
            stopping: opts.stopping,
            deadline: opts.deadline,
        };
        let walked = match (&overlay, opts.recency) {
            (None, None) => self.run(self.graph, None, user, mode, ctx),
            (None, Some(decay)) => {
                self.run(&Decayed::new(self.graph, decay), None, user, mode, ctx)
            }
            (Some(o), None) => self.run(o, Some(o), user, mode, ctx),
            (Some(o), Some(decay)) => self.run(&Decayed::new(o, decay), Some(o), user, mode, ctx),
        };
        if walked {
            // Fused: only subgraph-visited items can score, so collect them
            // straight from the DP state — no global score vector, no full
            // sort.
            let n_users = overlay
                .as_ref()
                .map_or(self.graph.n_users(), |o| o.n_users());
            collect_walk_topk(
                n_users,
                &ctx.subgraph,
                &ctx.walk,
                rated,
                opts.exclude.as_slice(),
                &mut ctx.topk,
            );
        }
        ctx.merged_rated = merged;
        ctx.topk.drain_sorted_into(out);
        opts.finalize_topk(k, ctx, out);
    }

    /// Run the walk for `user` over `view`, leaving the per-node values in
    /// `ctx.walk`. `overlay` is the undecayed merge behind `view` when a
    /// delta is served (AC's entry costs read it). Returns `false` when
    /// there is nothing to rank: no subgraph (see [`Walk::grow`]), or the
    /// request's deadline cancelled the walk (the values then rank nothing
    /// — see [`crate::RecommendOptions::deadline`]).
    fn run<G: GraphView>(
        &self,
        view: &G,
        overlay: Option<&OverlayGraph<'_>>,
        user: u32,
        mode: WalkMode<'_>,
        ctx: &mut ScoringContext,
    ) -> bool {
        if !self.grow(view, user, ctx) {
            return false;
        }
        let cost_model = match self.costs {
            None => WalkCostModel::Unit,
            Some(costs) => {
                let n_users = view.n_users();
                ctx.entry_costs.clear();
                ctx.entry_costs
                    .extend(ctx.subgraph.global_ids().iter().map(|&global| {
                        if global < n_users {
                            costs.user_cost(overlay, global as u32)
                        } else {
                            costs.item_cost()
                        }
                    }));
                WalkCostModel::EntryCosts
            }
        };
        let run = run_truncated_walk(view, cost_model, self.config.iterations, mode, ctx);
        // A deadline-cancelled run ranks partially-iterated values: report
        // it like an empty walk so no caller ever collects a garbage list
        // (the telemetry records the cancellation).
        !run.cancelled
    }

    /// Seed the context with the walk's absorbing nodes, grow the BFS
    /// subgraph around them within μ and flag them absorbing. Returns
    /// `false` when there is no walk: the user is outside `view`, rated
    /// nothing (AT/AC have no absorbing set), or reaches nothing (HT).
    fn grow<G: GraphView>(&self, view: &G, user: u32, ctx: &mut ScoringContext) -> bool {
        if user as usize >= view.n_users() {
            return false;
        }
        match self.absorb {
            Absorb::User => {
                ctx.seeds.clear();
                ctx.seeds.push(view.user_node(user));
            }
            Absorb::RatedItems => rated_item_nodes_into(view, user, &mut ctx.seeds),
        }
        if ctx.seeds.is_empty() {
            return false;
        }
        ctx.subgraph.grow(view, &ctx.seeds, self.config.max_items);
        if self.absorb == Absorb::User && ctx.subgraph.n_nodes() == 1 {
            return false;
        }
        ctx.absorbing.clear();
        ctx.absorbing.resize(ctx.subgraph.n_nodes(), false);
        for &s in &ctx.seeds {
            // Seeds are always admitted by the BFS, budget notwithstanding.
            let local = ctx.subgraph.local_id(s).expect("seed admitted");
            ctx.absorbing[local as usize] = true;
        }
        true
    }
}

/// Fill `seeds` with the query user's absorbing set `S_q`: the flat
/// item-node ids of everything the user rated. Empty if the user rated
/// nothing or is outside `graph`.
pub(crate) fn rated_item_nodes_into<G: GraphView>(graph: &G, user: u32, seeds: &mut Vec<usize>) {
    seeds.clear();
    let n_users = graph.n_users();
    if (user as usize) < n_users {
        graph.for_each_rated(user, |i, _| seeds.push(n_users + i as usize));
    }
}

/// Which entry-cost model [`run_truncated_walk`] feeds the DP.
pub(crate) enum WalkCostModel {
    /// Every hop costs one step (HT, AT).
    Unit,
    /// Per-local-node costs from [`crate::ScoringContext::entry_costs`]
    /// (the AC variants; fill the buffer before calling).
    EntryCosts,
}

/// What the walk's output is for, which decides whether early termination
/// is admissible.
pub(crate) enum WalkMode<'a> {
    /// Reference scoring (`score_into`): the full fixed-τ DP always runs,
    /// so scores are exactly reproducible regardless of context policy.
    Reference,
    /// Fused serving (`recommend_into`): the request's [`DpStopping`]
    /// applies, with the rank-stability probe targeting the top-`k` list
    /// over non-excluded items.
    Serving {
        /// List length being served.
        k: usize,
        /// The query user's rated items (sorted), excluded from the list.
        rated: &'a [u32],
        /// Request-scoped extra exclusions (sorted), from
        /// [`crate::RecommendOptions::exclude`].
        extra: &'a [u32],
        /// Whether the rated items are exactly the walk's absorbing item
        /// nodes (true for AT/AC, false for HT) — lets the probe exclude
        /// them with an `O(1)` absorbing-flag lookup instead of a binary
        /// search per candidate.
        rated_absorbing: bool,
        /// The request's stopping policy.
        stopping: DpStopping,
        /// The request's cooperative deadline.
        deadline: Option<Instant>,
    },
}

/// Everything the rank-stability probe needs to know about the query,
/// fixed for the whole DP run.
pub(crate) struct ProbeTarget<'a, G: GraphView> {
    pub graph: &'a G,
    pub scratch: &'a SubgraphScratch,
    pub rated: &'a [u32],
    pub extra: &'a [u32],
    pub absorbing: &'a [bool],
    pub rated_absorbing: bool,
    pub k: usize,
    /// Use the tight per-node remaining-change bound (sound for
    /// superharmonic entry costs only — see [`DpProbe::node_bound`]).
    pub per_node: bool,
}

/// Outcome of one [`rank_frozen`] evaluation.
pub(crate) enum ProbeVerdict {
    /// The served top-k list provably cannot change any more.
    Frozen,
    /// A pair still blocks the freeze: its (undecayed) score gap and the
    /// remaining-change bound that failed to clear it — the extrapolation
    /// data the probe driver uses to skip hopeless rescans.
    Blocked {
        /// Score gap of the blocking pair (0 for an exact tie).
        gap: f64,
        /// Remaining-change bound that failed to clear the gap.
        bound: f64,
    },
}

/// Skip margin of the probe driver's extrapolation: a full rescan is only
/// worth it once the blocking bound, scaled by the observed δ decay, is
/// within this factor of the blocking gap. Per-node bounds near the
/// absorbing set decay *faster* than the global δ used for extrapolation,
/// so the margin leans generous.
const PROBE_EXTRAPOLATION_MARGIN: f64 = 4.0;

/// The rank-stability callback handed to the DP, in option form.
type RankProbe<'a> = Option<&'a mut dyn FnMut(&DpProbe<'_>) -> bool>;

/// Launch the truncated DP over the context's prepared subgraph, absorbing
/// flags and (for [`WalkCostModel::EntryCosts`]) entry-cost buffer, leaving
/// the values in the context's [`DpBuffers`] and folding the run into the
/// context's [`crate::DpTelemetry`]. The request's stopping policy and
/// deadline only apply in [`WalkMode::Serving`] ([`WalkMode::Reference`]
/// always runs the exact fixed-τ program).
///
/// A deadline arms cooperative cancellation: the DP consults the clock on
/// its measured iterations (the stride-scheduled δ pass — the hot sweep
/// stays branch-free) and aborts once the instant has passed, recording a
/// `deadline_expired` run in the context's telemetry. The values left in
/// the buffers then rank nothing; callers must check the telemetry before
/// serving (see [`crate::RecommendOptions::deadline`]).
pub(crate) fn run_truncated_walk<G: GraphView>(
    graph: &G,
    cost_model: WalkCostModel,
    iterations: usize,
    mode: WalkMode<'_>,
    ctx: &mut ScoringContext,
) -> DpRun {
    let ScoringContext {
        subgraph,
        walk,
        absorbing,
        entry_costs,
        probe_topk,
        probe_items,
        dp_telemetry,
        ..
    } = ctx;
    // Unit entry costs are superharmonic, which is what makes the probe's
    // tight per-node bound sound (see `DpProbe`); the AC entropy costs are
    // not, so those queries fall back to the global bound.
    let per_node = matches!(cost_model, WalkCostModel::Unit);
    let slice_cost = SliceCost(entry_costs);
    let cost: &dyn CostModel = match cost_model {
        WalkCostModel::Unit => &UnitCost,
        WalkCostModel::EntryCosts => &slice_cost,
    };
    let run = match mode {
        // Reference scoring never cancels (its contract is the exact
        // fixed-τ program), and neither does a Fixed request without a
        // deadline.
        WalkMode::Reference
        | WalkMode::Serving {
            stopping: DpStopping::Fixed,
            deadline: None,
            ..
        } => {
            truncated_costs_into(subgraph.kernel(), absorbing, cost, iterations, walk);
            DpRun::fixed(iterations)
        }
        WalkMode::Serving {
            stopping: DpStopping::Fixed,
            deadline: Some(deadline),
            ..
        } => {
            // A deadline-carrying Fixed request runs the adaptive form with
            // the convergence rule restricted to exact fixed points (ε < 0)
            // and no probe: the sweeps — and hence the values — are
            // identical to the fixed program, the only extra exits being
            // the bit-identical δ = 0 stop and the deadline itself.
            truncated_costs_converge_into(
                subgraph.kernel(),
                absorbing,
                cost,
                iterations,
                -1.0,
                None,
                Some(&|| Instant::now() >= deadline),
                walk,
            )
        }
        WalkMode::Serving {
            k,
            rated,
            extra,
            rated_absorbing,
            stopping: DpStopping::Adaptive,
            deadline,
        } => {
            // The deadline check the DP consults on measured iterations.
            let expired = || deadline.is_some_and(|d| Instant::now() >= d);
            let cancel = deadline.is_some().then_some(&expired as &dyn Fn() -> bool);
            let target = ProbeTarget {
                graph,
                scratch: &*subgraph,
                rated,
                extra,
                absorbing: absorbing.as_slice(),
                rated_absorbing,
                k,
                per_node,
            };
            // Extrapolation state: the last full scan's blocking pair and
            // the δ/remaining it was observed under. A rescan only runs
            // once the bound, scaled by the δ decay since then, comes
            // within PROBE_EXTRAPOLATION_MARGIN of the gap — skipping is
            // always sound (it can only delay a stop, never corrupt one).
            let mut blocked: Option<(f64, f64, f64, usize)> = None;
            let mut probe = |p: &DpProbe<'_>| {
                if let Some((gap, bound, delta_then, remaining_then)) = blocked {
                    // A rescan is only worth its cost once the state has
                    // actually moved: δ must have decayed meaningfully
                    // since the last full scan, and for a gap-blocked pair
                    // the extrapolated bound must have come within the
                    // margin of the gap. (Skipping can only delay a stop,
                    // never corrupt one.)
                    if p.delta > delta_then * 0.7 {
                        return false;
                    }
                    if gap > 0.0 && remaining_then > 0 {
                        let shrink =
                            (p.delta / delta_then) * (p.remaining as f64 / remaining_then as f64);
                        if bound * shrink > gap * PROBE_EXTRAPOLATION_MARGIN {
                            return false;
                        }
                    }
                }
                match rank_frozen(&target, p, probe_topk, probe_items) {
                    ProbeVerdict::Frozen => true,
                    ProbeVerdict::Blocked { gap, bound } => {
                        blocked = Some((gap, bound, p.delta, p.remaining));
                        false
                    }
                }
            };
            // Below the probe budget there is no rank confirmation for an
            // ε-convergence stop, so restrict the rule to exact fixed
            // points (δ = 0) — those are rank-safe unconditionally.
            let (epsilon, probe_dyn): (f64, RankProbe<'_>) = if iterations >= PROBE_MIN_BUDGET {
                (ADAPTIVE_EPSILON, Some(&mut probe))
            } else {
                (-1.0, None)
            };
            truncated_costs_converge_into(
                target.scratch.kernel(),
                target.absorbing,
                cost,
                iterations,
                epsilon,
                probe_dyn,
                cancel,
                walk,
            )
        }
    };
    dp_telemetry.record(&run);
    run
}

/// Reset `out` to an all-unreachable score vector for `graph`'s catalog.
pub(crate) fn reset_scores<G: GraphView>(graph: &G, out: &mut Vec<f64>) {
    out.clear();
    out.resize(graph.n_items(), f64::NEG_INFINITY);
}

/// Convert local walk values into the global item score vector prepared by
/// [`reset_scores`].
///
/// Items inside the subgraph score `-value` (so *small* absorbing times
/// rank first); items never reached keep `-∞`, ranking strictly last and
/// never entering a top-k. Non-finite local values (unreachable pockets
/// inside the subgraph) also stay `-∞`.
pub(crate) fn write_scores_from_scratch<G: GraphView>(
    graph: &G,
    scratch: &SubgraphScratch,
    values: &[f64],
    out: &mut [f64],
) {
    let n_users = graph.n_users();
    for (local, &global) in scratch.global_ids().iter().enumerate() {
        if global >= n_users {
            let v = values[local];
            if v.is_finite() {
                out[global - n_users] = -v;
            }
        }
    }
}

/// Fused top-k extraction for the walk family: push every *subgraph-local*
/// item's negated walk value straight from the DP state into `collector`,
/// skipping the user's `rated` items, the request's `extra` exclusions and
/// unreachable pockets. `n_users` is the walked view's user count.
///
/// This is the step that lets HT/AT/AC serve a top-k query without touching
/// the global catalog at all — only nodes the BFS actually visited are
/// walked, and the scores pushed are bit-identical to what
/// [`write_scores_from_scratch`] would have written (`-value` for finite
/// values, nothing otherwise).
pub(crate) fn collect_walk_topk(
    n_users: usize,
    scratch: &SubgraphScratch,
    walk: &DpBuffers,
    rated: &[u32],
    extra: &[u32],
    collector: &mut TopKCollector,
) {
    for (local, &global) in scratch.global_ids().iter().enumerate() {
        if global >= n_users {
            let item = (global - n_users) as u32;
            if rated.binary_search(&item).is_ok() {
                continue;
            }
            if !extra.is_empty() && extra.binary_search(&item).is_ok() {
                continue;
            }
            if let Some(v) = walk.finite_cost(local as u32) {
                collector.push(item, -v);
            }
        }
    }
}

/// The rank-stability probe: is the query's top-`k` list provably identical
/// to what the remaining DP iterations would serve?
///
/// By monotonicity each item's score (`-value`) can only *decrease* before
/// the fixed-τ horizon, by at most its remaining-change bound — the probe's
/// per-node bound when `per_node` (sound for the unit-cost walks, see
/// [`DpProbe::node_bound`]), the global `δ_t · (τ − t)` otherwise. The list
/// is frozen when
///
/// 1. every adjacent pair of the current list keeps its order even if the
///    upper item decays by its full bound — or the pair is an exact tie of
///    *structural twins* (identical kernel rows, hence provably identical
///    values at every iteration, so their id order is final at any
///    horizon); and
/// 2. the best candidate outside the list would still be rejected by a
///    collector holding the list's decayed lower bounds — decided by
///    [`TopKCollector::would_accept`], i.e. the full `(score desc, id asc)`
///    admission order, so an outside candidate that ties a decayed member
///    score with a lower id correctly blocks the freeze. The twin
///    exception deliberately does **not** apply at this list boundary:
///    candidates below the collected k+1 could share the boundary score
///    without being twins, so a tied boundary is never declared frozen.
///
/// The candidate set itself is stable by the time the probe is consulted:
/// the DP only probes once `δ_t` is finite, after the `∞` front has closed
/// (see `longtail_markov::dp`), so no item can later appear in or vanish
/// from the subgraph's finite set.
pub(crate) fn rank_frozen<G: GraphView>(
    target: &ProbeTarget<'_, G>,
    probe: &DpProbe<'_>,
    collector: &mut TopKCollector,
    items: &mut Vec<ScoredItem>,
) -> ProbeVerdict {
    let ProbeTarget {
        graph,
        scratch,
        rated,
        extra,
        absorbing,
        rated_absorbing,
        k,
        per_node,
    } = *target;
    if k == 0 {
        return ProbeVerdict::Frozen;
    }
    let global_bound = probe.global_bound();
    if !global_bound.is_finite() {
        return ProbeVerdict::Blocked {
            gap: 0.0,
            bound: f64::INFINITY,
        };
    }
    // Provisional top-(k+1): the served list plus the best outside
    // candidate, under the scores the walk would serve if stopped now.
    collector.reset(k.saturating_add(1));
    let n_users = graph.n_users();
    for (local, &global) in scratch.global_ids().iter().enumerate() {
        if global >= n_users {
            let item = (global - n_users) as u32;
            let excluded = if rated_absorbing {
                absorbing[local]
            } else {
                rated.binary_search(&item).is_ok()
            } || (!extra.is_empty() && extra.binary_search(&item).is_ok());
            if excluded {
                continue;
            }
            let v = probe.values[local];
            if v.is_finite() {
                collector.push(item, -v);
            }
        }
    }
    collector.drain_sorted_into(items);

    let local_of = |item: u32| -> usize {
        scratch
            .local_id(graph.item_node(item))
            .expect("collected item is in the subgraph") as usize
    };
    let bound_of = |item: u32| -> f64 {
        if per_node {
            probe.node_bound(local_of(item))
        } else {
            global_bound
        }
    };
    let twins = |a: u32, b: u32| -> bool {
        let kernel = scratch.kernel();
        let (cols_a, probs_a) = kernel.row(local_of(a));
        let (cols_b, probs_b) = kernel.row(local_of(b));
        // Rows keep the shared global neighbor order, so identical
        // neighborhoods compare equal elementwise.
        cols_a == cols_b && probs_a == probs_b
    };

    // (1) Within-list order: each adjacent pair must stay ordered when the
    // upper item takes its full remaining decay and the lower one none —
    // except exact twin ties, whose id order is final at every horizon.
    let in_list = items.len().min(k);
    for w in items[..in_list].windows(2) {
        let bound = bound_of(w[0].item);
        if !outranks(w[0].score - bound, w[0].item, w[1].score, w[1].item) {
            let twin_tie = w[0].score == w[1].score && twins(w[0].item, w[1].item);
            if !twin_tie {
                return ProbeVerdict::Blocked {
                    gap: w[0].score - w[1].score,
                    bound,
                };
            }
        }
    }
    // (2) Set membership: rearm the collector with the list's decayed lower
    // bounds and ask whether the best outside candidate would be admitted.
    if items.len() > k {
        let outside = items[k];
        collector.reset(k);
        for si in &items[..k] {
            collector.push(si.item, si.score - bound_of(si.item));
        }
        if collector.would_accept(outside.item, outside.score) {
            let kth = items[k - 1];
            return ProbeVerdict::Blocked {
                gap: kth.score - outside.score,
                bound: bound_of(kth.item),
            };
        }
    }
    ProbeVerdict::Frozen
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> BipartiteGraph {
        BipartiteGraph::from_ratings(2, 3, &[(0, 0, 5.0), (0, 1, 4.0), (1, 1, 3.0), (1, 2, 5.0)])
    }

    #[test]
    fn rated_item_nodes_maps_to_flat_ids() {
        let g = graph();
        let mut seeds = vec![99]; // stale content must be cleared
        rated_item_nodes_into(&g, 0, &mut seeds);
        assert_eq!(seeds, vec![g.item_node(0), g.item_node(1)]);
        rated_item_nodes_into(&g, 1, &mut seeds);
        assert_eq!(seeds, vec![g.item_node(1), g.item_node(2)]);
    }

    #[test]
    fn scores_negate_values_and_default_to_neg_inf() {
        let g = graph();
        let mut ctx = ScoringContext::new();
        ctx.subgraph.grow(&g, &[g.user_node(0)], 1);
        // Only items 0 and 1 are reachable within the budget.
        let values = vec![1.5; ctx.subgraph.n_nodes()];
        let mut scores = Vec::new();
        reset_scores(&g, &mut scores);
        write_scores_from_scratch(&g, &ctx.subgraph, &values, &mut scores);
        assert_eq!(scores[0], -1.5);
        assert_eq!(scores[1], -1.5);
        assert_eq!(scores[2], f64::NEG_INFINITY);
    }

    #[test]
    fn infinite_local_values_become_neg_inf() {
        let g = graph();
        let mut ctx = ScoringContext::new();
        ctx.subgraph
            .grow(&g, &[g.user_node(0), g.user_node(1)], usize::MAX);
        let mut values = vec![0.5; ctx.subgraph.n_nodes()];
        values[ctx.subgraph.local_id(g.item_node(2)).unwrap() as usize] = f64::INFINITY;
        let mut scores = Vec::new();
        reset_scores(&g, &mut scores);
        write_scores_from_scratch(&g, &ctx.subgraph, &values, &mut scores);
        assert_eq!(scores[2], f64::NEG_INFINITY);
    }

    /// The AT walk over `g`, with an unbounded μ.
    fn absorbing_walk(g: &BipartiteGraph) -> Walk<'_> {
        Walk {
            graph: g,
            config: GraphRecConfig {
                max_items: usize::MAX,
                iterations: 15,
            },
            absorb: Absorb::RatedItems,
            costs: None,
        }
    }

    #[test]
    fn grow_absorbing_flags_exactly_the_rated_set() {
        let g = graph();
        let mut ctx = ScoringContext::new();
        assert!(absorbing_walk(&g).grow(&g, 0, &mut ctx));
        for node in 0..ctx.subgraph.n_nodes() {
            let global = ctx.subgraph.global_ids()[node];
            let expected = global == g.item_node(0) || global == g.item_node(1);
            assert_eq!(ctx.absorbing[node], expected, "local node {node}");
        }
    }

    #[test]
    fn grow_absorbing_rejects_unrated_users() {
        let g = BipartiteGraph::from_ratings(2, 2, &[(0, 0, 5.0)]);
        let mut ctx = ScoringContext::new();
        assert!(!absorbing_walk(&g).grow(&g, 1, &mut ctx));
        // A user outside the graph has no ratings either.
        assert!(!absorbing_walk(&g).grow(&g, 9, &mut ctx));
    }

    /// A graph with 4 items all reachable from user 0's neighborhood, and a
    /// value fixture addressed by *item id* for probe tests.
    fn probe_fixture() -> (BipartiteGraph, ScoringContext) {
        let g = BipartiteGraph::from_ratings(
            2,
            4,
            &[
                (0, 0, 5.0),
                (0, 1, 4.0),
                (0, 2, 3.0),
                (0, 3, 5.0),
                (1, 0, 2.0),
            ],
        );
        let mut ctx = ScoringContext::new();
        ctx.subgraph.grow(&g, &[g.user_node(0)], usize::MAX);
        (g, ctx)
    }

    /// Build a local value vector assigning walk value `vals[i]` to item
    /// `i`; users get an arbitrary value (ignored by the probe).
    fn values_by_item(g: &BipartiteGraph, ctx: &ScoringContext, vals: &[f64]) -> Vec<f64> {
        let mut values = vec![9.0; ctx.subgraph.n_nodes()];
        for (i, &v) in vals.iter().enumerate() {
            let local = ctx.subgraph.local_id(g.item_node(i as u32)).unwrap();
            values[local as usize] = v;
        }
        values
    }

    /// Probe a fixture context with a *global* remaining-change bound.
    fn frozen_global(
        g: &BipartiteGraph,
        ctx: &mut ScoringContext,
        values: &[f64],
        rated: &[u32],
        k: usize,
        bound: f64,
    ) -> bool {
        let no_absorbing = vec![false; ctx.subgraph.n_nodes()];
        let ScoringContext {
            subgraph,
            probe_topk,
            probe_items,
            ..
        } = ctx;
        let target = ProbeTarget {
            graph: g,
            scratch: subgraph,
            rated,
            extra: &[],
            absorbing: &no_absorbing,
            rated_absorbing: false,
            k,
            per_node: false,
        };
        let probe = DpProbe {
            values,
            previous: values,
            delta: bound,
            remaining: 1,
        };
        matches!(
            rank_frozen(&target, &probe, probe_topk, probe_items),
            ProbeVerdict::Frozen
        )
    }

    #[test]
    fn probe_freezes_when_gaps_exceed_bound() {
        let (g, mut ctx) = probe_fixture();
        // Scores (= -value): item0 -1, item1 -2, item2 -3, item3 -4.
        let values = values_by_item(&g, &ctx, &[1.0, 2.0, 3.0, 4.0]);
        // Adjacent gaps are all 1.0: frozen under bound 0.5, not under 1.5.
        assert!(frozen_global(&g, &mut ctx, &values, &[], 2, 0.5));
        assert!(!frozen_global(&g, &mut ctx, &values, &[], 2, 1.5));
        // Infinite bound (∞ front still moving) can never freeze.
        assert!(!frozen_global(&g, &mut ctx, &values, &[], 2, f64::INFINITY));
        // k = 0 serves the empty list: trivially frozen.
        assert!(frozen_global(&g, &mut ctx, &values, &[], 0, 123.0));
    }

    #[test]
    fn probe_respects_tie_semantics_of_would_accept() {
        let (g, mut ctx) = probe_fixture();
        // k = 2. Items 0,1 in the list (values 1.0, 2.0); outside items 2,3
        // at value 2.5. With bound 0.5 the decayed k-th lower bound is
        // score -2.5 (item 1), exactly tying the outside candidates.
        let values = values_by_item(&g, &ctx, &[1.0, 2.0, 2.5, 2.5]);
        // Outside item 2 ties the decayed (score, id) = (-2.5, 1) with a
        // HIGHER id, so it loses the tie and the list is frozen...
        assert!(frozen_global(&g, &mut ctx, &values, &[], 2, 0.5));
        // ...but excluding item 1 (rated) promotes item 2 into the list,
        // leaving its exact tie item 3 outside: the twin exception never
        // applies at the list boundary, so the freeze is refused.
        assert!(!frozen_global(&g, &mut ctx, &values, &[1], 2, 0.5));
    }

    #[test]
    fn probe_extra_exclusions_shape_the_target_list() {
        // The request-scoped exclusion set must shift the probe's target
        // list exactly like a rated exclusion: hiding item 1 via `extra`
        // promotes item 2 into the k = 2 list, leaving its exact tie item 3
        // at the boundary — so the freeze must be refused, while the same
        // state with no exclusions freezes (item 2 loses the boundary tie
        // by id).
        let (g, mut ctx) = probe_fixture();
        let values = values_by_item(&g, &ctx, &[1.0, 2.0, 2.5, 2.5]);
        let no_absorbing = vec![false; ctx.subgraph.n_nodes()];
        let ScoringContext {
            subgraph,
            probe_topk,
            probe_items,
            ..
        } = &mut ctx;
        let probe = DpProbe {
            values: &values,
            previous: &values,
            delta: 0.5,
            remaining: 1,
        };
        let mut target = ProbeTarget {
            graph: &g,
            scratch: subgraph,
            rated: &[],
            extra: &[],
            absorbing: &no_absorbing,
            rated_absorbing: false,
            k: 2,
            per_node: false,
        };
        assert!(matches!(
            rank_frozen(&target, &probe, probe_topk, probe_items),
            ProbeVerdict::Frozen
        ));
        target.extra = &[1];
        assert!(matches!(
            rank_frozen(&target, &probe, probe_topk, probe_items),
            ProbeVerdict::Blocked { .. }
        ));
    }

    #[test]
    fn probe_tied_lower_id_outside_blocks_freeze() {
        // The satellite regression, aimed at the direction threshold-style
        // pruning gets wrong: the outside candidate ties the decayed k-th
        // bound with a LOWER id. List = items 2, 3 (values 1.0, 2.0, k = 2,
        // item 1 rated); outside item 0 at value 2.5. Bound 0.5 decays the
        // k-th (item 3) to score -2.5, exactly tying outside item 0 — which
        // has the lower id and would be admitted, so the freeze must be
        // refused. A naive `score <= decayed threshold → safe` rule would
        // wrongly freeze here.
        let (g, mut ctx) = probe_fixture();
        let values = values_by_item(&g, &ctx, &[2.5, 9.0, 1.0, 2.0]);
        assert!(!frozen_global(&g, &mut ctx, &values, &[1], 2, 0.5));
    }

    #[test]
    fn probe_outside_candidate_within_bound_blocks_freeze() {
        let (g, mut ctx) = probe_fixture();
        // k = 2: list is items 0 (-1.0) and 1 (-2.0); best outside is item
        // 2 at -2.3. Bound 0.5 lets item 1 decay to -2.5, past item 2.
        let values = values_by_item(&g, &ctx, &[1.0, 2.0, 2.3, 4.0]);
        assert!(!frozen_global(&g, &mut ctx, &values, &[], 2, 0.5));
        // A tighter bound freezes it (gap to outside is 0.3; in-list gap 1.0).
        assert!(frozen_global(&g, &mut ctx, &values, &[], 2, 0.2));
    }

    #[test]
    fn probe_exact_in_list_tie_of_non_twins_is_not_frozen() {
        let (g, mut ctx) = probe_fixture();
        // Items 0 and 1 exactly tied but NOT structural twins (item 0 has
        // two raters, item 1 one): their fixed-τ order is undecided, so a
        // positive bound must not freeze... while bound = 0 is an exact
        // fixed point, where ties persist and id order IS final.
        let values = values_by_item(&g, &ctx, &[2.0, 2.0, 3.0, 4.0]);
        assert!(!frozen_global(&g, &mut ctx, &values, &[], 2, 0.1));
        // At an exact fixed point (bound 0) the tie resolves by id forever.
        assert!(frozen_global(&g, &mut ctx, &values, &[], 2, 0.0));
    }

    #[test]
    fn probe_twin_tie_within_list_freezes() {
        let (g, mut ctx) = probe_fixture();
        // Items 1 and 2 are structural twins (sole rater user 0, and row
        // renormalization erases the differing edge weights), so their tie
        // is provably permanent: a k = 3 list with the tie *inside* freezes
        // under a positive bound...
        let values = values_by_item(&g, &ctx, &[1.0, 2.0, 2.0, 4.0]);
        assert!(frozen_global(&g, &mut ctx, &values, &[], 3, 0.3));
        // ...but the same tie straddling the k = 2 boundary does not (the
        // twin exception is boundary-strict).
        assert!(!frozen_global(&g, &mut ctx, &values, &[], 2, 0.3));
    }

    #[test]
    fn probe_short_list_checks_order_only() {
        let (g, mut ctx) = probe_fixture();
        // k = 10 > 4 candidates: everything is in the list; only the
        // internal order matters.
        let values = values_by_item(&g, &ctx, &[1.0, 2.0, 3.0, 4.0]);
        assert!(frozen_global(&g, &mut ctx, &values, &[], 10, 0.5));
        assert!(!frozen_global(&g, &mut ctx, &values, &[], 10, 1.5));
    }

    #[test]
    fn probe_per_node_bound_freezes_where_global_cannot() {
        let (g, mut ctx) = probe_fixture();
        // Top item 0 has a tiny increment (its own remaining change is
        // small) while far item 3 is still moving fast. The global bound
        // (δ = 1.0 over 2 remaining iterations) cannot freeze k = 1; the
        // per-node bound can.
        let values = values_by_item(&g, &ctx, &[1.0, 2.0, 3.0, 4.0]);
        let mut previous = values.clone();
        let it0 = ctx.subgraph.local_id(g.item_node(0)).unwrap() as usize;
        let it3 = ctx.subgraph.local_id(g.item_node(3)).unwrap() as usize;
        previous[it0] = values[it0] - 0.01;
        previous[it3] = values[it3] - 1.0;
        let no_absorbing = vec![false; ctx.subgraph.n_nodes()];
        let ScoringContext {
            subgraph,
            probe_topk,
            probe_items,
            ..
        } = &mut ctx;
        let probe = DpProbe {
            values: &values,
            previous: &previous,
            delta: 1.0,
            remaining: 2,
        };
        let mut target = ProbeTarget {
            graph: &g,
            scratch: subgraph,
            rated: &[],
            extra: &[],
            absorbing: &no_absorbing,
            rated_absorbing: false,
            k: 1,
            per_node: false,
        };
        assert!(
            matches!(
                rank_frozen(&target, &probe, probe_topk, probe_items),
                ProbeVerdict::Blocked { .. }
            ),
            "global bound 2.0 must not freeze a gap of 1.0"
        );
        target.per_node = true;
        assert!(
            matches!(
                rank_frozen(&target, &probe, probe_topk, probe_items),
                ProbeVerdict::Frozen
            ),
            "per-node bound 0.02 freezes the same list"
        );
    }
}
