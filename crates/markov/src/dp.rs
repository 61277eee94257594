//! Allocation-free truncated dynamic programs over a pre-normalized kernel.
//!
//! Algorithm 1's inner loop — `AC_{t+1}(i) = r_i + Σ_j p_ij AC_t(j)` — is
//! the hottest code in the system: it runs τ times per query over every edge
//! of the query's subgraph. This module implements it directly over
//! [`TransitionMatrix`] CSR slices (probabilities pre-divided, no hash maps,
//! no per-edge division) with all state in caller-owned [`DpBuffers`], so a
//! steady-state scoring loop performs no allocation at all.
//!
//! Each `p_ij` is the same rounded quotient the old loop recomputed per
//! iteration, so the recursion evaluates the pre-refactor formula; only the
//! within-row summation order differs (a blocked reduction on the fast
//! path), bounding the divergence to last-ulp rounding. The golden tests in
//! `tests/golden_kernel.rs` pin that equivalence against a verbatim copy of
//! the pre-refactor code.
//!
//! # Half-sweeps on tagged kernels
//!
//! A kernel induced by [`longtail_graph::SubgraphScratch`] is bipartite and
//! *tagged* with its two sides ([`TransitionMatrix::sides`]): a user row
//! reads only item values and an item row only user values. From `h(0) = 0`
//! the item values at τ therefore depend on one of two interleaved chains —
//! items at τ, τ−2, … and users at τ−1, τ−3, … — and the other chain is
//! dead work. On a tagged kernel both programs run τ *half-sweeps* instead
//! of τ full sweeps. Each rewrites one side's rows in place with the full
//! sweep's row arithmetic, and the sides alternate so that the last
//! half-sweep is the item side. Item values are bit-identical to the full
//! program's, at half the edge work; user values hold `h(τ−1)`.
//! `tests/half_sweep.rs` pins both against a copy of the full program.
//! Kernels from [`TransitionMatrix::from_adjacency`] are untagged and keep
//! the full program.
//!
//! # Early termination
//!
//! [`truncated_costs_into`] always runs the full τ iterations — the
//! reference semantics every score is pinned to.
//! [`truncated_costs_converge_into`] is the adaptive serving variant: it
//! runs the same iterations in *steps*, measures the sup-norm change `δ` of
//! a step, and stops as soon as the remaining iterations provably cannot
//! matter. On an untagged kernel a step is one sweep and
//! `δ_t = ‖h(t) − h(t−1)‖_∞`. On a tagged kernel a step is a user
//! half-sweep and then an item half-sweep, and `δ_t` is the two-step change
//! of the item chain, `‖h_I(t) − h_I(t−2)‖_∞`; an odd τ opens with one lone
//! item half-sweep, so every step ends on the item side and every stop
//! lands on τ's parity. Write `Q = P_IU · P_UI` for the item block of
//! `P²`, the operator that carries the item chain two iterations forward.
//! Soundness rests on four properties of the recursion:
//!
//! * **Monotonicity.** Starting from `AC_0 = 0`, with non-negative entry
//!   costs and a non-negative kernel, `AC_{t+1} − AC_t = P(AC_t − AC_{t−1})
//!   ≥ 0`: values only grow. On the item chain, `h_I(t+2) − h_I(t) =
//!   Q (h_I(t) − h_I(t−2))` for `t ≥ 2`, and the first two-step increment
//!   (`h_I(2) − h_I(0)`, or `h_I(3) − h_I(1) = P_IU (r_U + P_UI h_I(1))`
//!   for odd τ) is non-negative, so item values only grow too.
//!   (Equivalently: the negated *scores* the recommenders serve only shrink,
//!   so an early stop reports each item at an upper bound of its fixed-τ
//!   score.)
//! * **Contraction of increments.** Every kernel row sums to at most 1
//!   (rows are stochastic, or empty for dangling boundary nodes of an
//!   induced subgraph), so `‖P^q e‖_∞ ≤ ‖e‖_∞` for every `q ≥ 0`. Each row
//!   of `Q` mixes rows of `P_UI` with weights summing to at most 1, so it
//!   sums to at most 1 too and two-step increments contract under `Q`.
//!   After step `t` no value can move by more than `δ_t · (τ − t)`
//!   (untagged), and no item value by more than `δ_t · (τ − t)/2` (tagged:
//!   `(τ − t)/2` two-step increments remain, each at most `δ_t`) — the
//!   *remaining-change bound* handed to the rank-stability probe.
//! * **Per-node increments under superharmonic costs.** When `P·r ≤ r`
//!   elementwise (e.g. [`crate::UnitCost`], whose increments are per-node
//!   survival probabilities), one-step increments `e(t) = h(t) − h(t−1)`
//!   are nonincreasing *per node*: `e(t+1) = P·e(t) ≤ e(t)` by induction. A
//!   node's latest increment then bounds each later one, and on a tagged
//!   kernel an item's two-step increment `e_i(t) + e_i(t−1)` bounds every
//!   later pair `e_i(s) + e_i(s−1)`, `s > t` — so the item moves at most
//!   that increment × `(τ − t)/2` more.
//! * **The `∞` front closes before δ is finite.** A node is `∞` exactly
//!   when it can reach a dangling pocket within the iteration count, and
//!   that set grows by one BFS ring per iteration until it is closed. Any
//!   step that turns a finite value infinite reports `δ_t = ∞`, so no
//!   stopping rule can fire while the reachable-candidate set is still
//!   changing: once `δ_t` is finite, finite nodes stay finite forever. On
//!   the item chain the `∞` items at `t + 2` are a monotone function of the
//!   `∞` items at `t` alone, so the front there is closed once a two-step
//!   adds no `∞` item.

use crate::cost::CostModel;
use longtail_graph::TransitionMatrix;

/// Reusable state for the truncated absorbing-walk dynamic program.
///
/// Create once per worker thread and pass to [`truncated_costs_into`] for
/// every query; buffers are resized (retaining capacity) as subgraph sizes
/// vary.
#[derive(Debug, Clone, Default)]
pub struct DpBuffers {
    /// Expected immediate cost of one hop out of each node.
    immediate: Vec<f64>,
    /// DP value vector at the current iteration.
    current: Vec<f64>,
    /// DP value vector being written (the adaptive form's previous step).
    next: Vec<f64>,
}

impl DpBuffers {
    /// Empty buffers; sized lazily by the first query.
    pub fn new() -> Self {
        Self::default()
    }

    /// The values of the last completed dynamic program, after its `t`
    /// iterations: `h(t)` at every node of an untagged kernel. On a tagged
    /// kernel the item entries hold `h(t)` and the user entries `h(t−1)`
    /// (see the module docs); the served paths read item entries only.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.current
    }

    /// Cost of local node `local` from the last completed dynamic program:
    /// `Some(cost)` when the truncated walk assigns the node a finite
    /// absorbing cost, `None` when the node can only reach dangling pockets
    /// (`∞`). On a tagged kernel a user node's cost is one iteration behind
    /// (see [`DpBuffers::values`]).
    ///
    /// This is the extraction primitive of the fused top-k query path: a
    /// recommender walks the subgraph's item nodes and pulls each one's cost
    /// straight out of the DP state, so no global score vector is ever
    /// materialized.
    #[inline]
    pub fn finite_cost(&self, local: u32) -> Option<f64> {
        let v = self.current[local as usize];
        v.is_finite().then_some(v)
    }
}

/// What the rank-stability probe sees after one completed step of
/// [`truncated_costs_converge_into`].
///
/// Two sound remaining-change bounds can be derived from it, both capping
/// how far a value can still move before the fixed-τ horizon — every value
/// of an untagged kernel, every *item* value of a tagged one:
///
/// * [`DpProbe::global_bound`] — `δ · remaining`, valid for every
///   non-negative cost model (sup-norm increments are non-increasing under
///   a row-(sub)stochastic kernel, and two-step item increments under its
///   item block of `P²`).
/// * [`DpProbe::node_bound`] — `(values[i] − previous[i]) · remaining`,
///   the node's *own* latest increment extended over the remaining steps.
///   Valid only for **superharmonic** immediate costs (`P·r ≤ r`
///   elementwise, e.g. [`crate::UnitCost`], whose increments are per-node
///   survival probabilities): then `e_{t+1} = P·e_t ≤ e_t` *per node* by
///   induction, so every future increment of node `i` is at most its
///   current one. Much tighter than the global bound near the absorbing
///   set, where exactly the best-ranked candidates live.
///
/// On a tagged kernel the user entries of `values` and `previous` trail
/// the item entries by one iteration and neither bound covers them.
#[derive(Debug, Clone, Copy)]
pub struct DpProbe<'a> {
    /// Current value vector, after `t` iterations: `h(t)` (tagged kernel:
    /// `h(t)` on items, `h(t−1)` on users).
    pub values: &'a [f64],
    /// The value vector one step earlier: `h(t−1)` (tagged kernel: `h(t−2)`
    /// on items, `h(t−3)` on users, zeros before the first step).
    pub previous: &'a [f64],
    /// Sup-norm change of the completed step (finite when probed): one
    /// iteration's, or on a tagged kernel the two-step change over the item
    /// rows.
    pub delta: f64,
    /// Steps left before the fixed-τ horizon: `τ − t` iterations, or on a
    /// tagged kernel `(τ − t)/2` two-step pairs.
    pub remaining: usize,
}

impl DpProbe<'_> {
    /// Remaining-change bound valid for every non-negative cost model.
    #[inline]
    pub fn global_bound(&self) -> f64 {
        self.delta * self.remaining as f64
    }

    /// Per-node remaining-change bound — sound only for superharmonic
    /// immediate costs (see the type docs).
    #[inline]
    pub fn node_bound(&self, local: usize) -> f64 {
        (self.values[local] - self.previous[local]) * self.remaining as f64
    }
}

/// First iteration at which the rank-stability probe is consulted.
const PROBE_START: usize = 6;

/// The δ/scale measurement pass is `O(n)` — noticeable against the sweeps
/// of small, sparse subgraphs — so it only runs every this many iterations
/// (plus on every probe-scheduled and final step). The convergence stop can
/// overshoot by at most `DELTA_STRIDE − 1` iterations.
const DELTA_STRIDE: usize = 4;

/// After a failed probe at iteration `t`, the next probe runs at
/// `t + max(2, t/8)` — a geometric schedule dense enough to overshoot the
/// earliest provable stop by only a few percent while keeping probe
/// overhead negligible for both small and large budgets.
#[inline]
fn next_probe_after(t: usize) -> usize {
    t + (t / 8).max(2)
}

/// Outcome of one [`truncated_costs_converge_into`] run: how many of the τ
/// budgeted iterations actually ran, and which stopping rule ended the walk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpRun {
    /// Iterations actually performed (≤ `budget`). On a tagged kernel these
    /// are half-sweeps and always have `budget`'s parity, so a fixed run of
    /// this many iterations reproduces the run's item values bit for bit.
    pub iterations: usize,
    /// The fixed-τ iteration budget the run was allowed.
    pub budget: usize,
    /// The value-convergence rule fired: `δ_t ≤ ε · scale`.
    pub converged: bool,
    /// The caller's rank-stability probe declared the top-k frozen.
    pub rank_frozen: bool,
    /// The caller's cooperative cancellation hook aborted the run (e.g. a
    /// serving deadline expired mid-walk). The value vector is whatever the
    /// last completed step produced — a sound *lower* bound on every
    /// fixed-τ value, but not rank-certified; callers must not serve a
    /// ranking from a cancelled run.
    pub cancelled: bool,
    /// Sup-norm change of the last *measured* step — δ is measured on a
    /// small stride plus every probe-scheduled and final step (`∞` when no
    /// step was measured, or while the `∞` front was still spreading).
    pub last_delta: f64,
}

impl DpRun {
    /// A run that exhausted `budget` fixed iterations with no adaptive
    /// bookkeeping (the [`truncated_costs_into`] semantics).
    pub fn fixed(budget: usize) -> Self {
        Self {
            iterations: budget,
            budget,
            converged: false,
            rank_frozen: false,
            cancelled: false,
            last_delta: f64::INFINITY,
        }
    }
}

/// Hoist the expected immediate cost of one hop out of each transient node:
/// `Σ_j p_ij · entry_cost(j)`, constant across iterations. Returns whether
/// any transient node is dangling — only then can `∞` enter the recursion.
fn expected_immediate_costs(
    kernel: &TransitionMatrix,
    absorbing: &[bool],
    cost: &dyn CostModel,
    immediate: &mut Vec<f64>,
) -> bool {
    let n = kernel.n_nodes();
    immediate.clear();
    immediate.resize(n, 0.0);
    let constant = cost.constant_cost();
    let cost_table = cost.cost_slice();
    let mut any_infinite = false;
    for i in 0..n {
        if absorbing[i] {
            continue;
        }
        let (cols, probs) = kernel.row(i);
        if cols.is_empty() {
            immediate[i] = f64::INFINITY;
            any_infinite = true;
            continue;
        }
        let mut acc = 0.0;
        // The fast arms round identically to the virtual-call loop: `p · c`
        // and a gathered `p · table[j]` are the same multiplies.
        if let Some(c) = constant {
            for &p in probs {
                acc += p * c;
            }
        } else if let Some(table) = cost_table {
            for (&j, &p) in cols.iter().zip(probs) {
                acc += p * table[j as usize];
            }
        } else {
            for (&j, &p) in cols.iter().zip(probs) {
                acc += p * cost.entry_cost(j as usize);
            }
        }
        immediate[i] = acc;
    }
    any_infinite
}

/// The fixed inputs of one DP run and its row arithmetic.
struct Sweeper<'a> {
    kernel: &'a TransitionMatrix,
    absorbing: &'a [bool],
    immediate: &'a [f64],
    /// Some transient node is dangling, so `∞` can enter the recursion.
    checked: bool,
}

impl Sweeper<'_> {
    /// Row `i` from the values `v` of the previous iteration, checked
    /// variant: `∞` from unreachable pockets must short-circuit instead of
    /// producing NaN via `0.0 · ∞`-adjacent arithmetic.
    #[inline(always)]
    fn row_checked(&self, i: usize, v: &[f64]) -> f64 {
        if self.absorbing[i] {
            return 0.0;
        }
        let (cols, probs) = self.kernel.row(i);
        if cols.is_empty() {
            return f64::INFINITY;
        }
        let mut acc = 0.0;
        for (&j, &p) in cols.iter().zip(probs) {
            let x = v[j as usize];
            if x.is_finite() {
                acc += p * x;
            } else {
                acc = f64::INFINITY;
                break;
            }
        }
        self.immediate[i] + acc
    }

    /// Row `i` from the values `v` of the previous iteration, fast variant:
    /// every value provably stays finite (each bounded by τ·max immediate),
    /// so the per-edge finiteness branch — and the empty-row probe — drop
    /// out of the hot loop entirely. Four accumulators break the
    /// floating-point add latency chain that otherwise serializes the row
    /// reduction (summation order differs from the checked variant by
    /// last-ulp rounding only).
    #[inline(always)]
    fn row_fast(&self, i: usize, v: &[f64]) -> f64 {
        if self.absorbing[i] {
            return 0.0;
        }
        let (cols, probs) = self.kernel.row(i);
        let mut cols4 = cols.chunks_exact(4);
        let mut probs4 = probs.chunks_exact(4);
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0, 0.0, 0.0);
        for (c, p) in (&mut cols4).zip(&mut probs4) {
            a0 += p[0] * v[c[0] as usize];
            a1 += p[1] * v[c[1] as usize];
            a2 += p[2] * v[c[2] as usize];
            a3 += p[3] * v[c[3] as usize];
        }
        let mut acc = (a0 + a1) + (a2 + a3);
        for (&j, &p) in cols4.remainder().iter().zip(probs4.remainder()) {
            acc += p * v[j as usize];
        }
        self.immediate[i] + acc
    }

    /// One iteration over `rows`: `next[i]` from `current` for each row `i`
    /// (every row, or one side's on a tagged kernel).
    fn sweep(&self, rows: impl Iterator<Item = usize>, current: &[f64], next: &mut [f64]) {
        if self.checked {
            for i in rows {
                next[i] = self.row_checked(i, current);
            }
        } else {
            for i in rows {
                next[i] = self.row_fast(i, current);
            }
        }
    }

    /// One half-sweep of a tagged kernel, in place: each of one side's
    /// `rows` reads only the other side's entries of `values`.
    fn half_sweep(&self, rows: &[u32], values: &mut [f64]) {
        if self.checked {
            for &i in rows {
                values[i as usize] = self.row_checked(i as usize, values);
            }
        } else {
            for &i in rows {
                values[i as usize] = self.row_fast(i as usize, values);
            }
        }
    }
}

/// The sup-norm change from `old` to `new` over `rows` and the value scale
/// (the largest finite new value, floored at 1), in one `O(rows)` pass. A
/// finite value turning infinite means the `∞` front is still spreading:
/// the change is then `∞`, so no stopping rule can fire yet. (Absorbing
/// nodes hold 0 in both vectors and drop out of both reductions on their
/// own.)
fn change_and_scale(
    rows: impl Iterator<Item = usize>,
    checked: bool,
    new: &[f64],
    old: &[f64],
) -> (f64, f64) {
    let mut delta = 0.0f64;
    let mut scale = 1.0f64;
    if checked {
        for i in rows {
            let (new, old) = (new[i], old[i]);
            if new.is_finite() {
                delta = delta.max((new - old).abs());
                scale = scale.max(new);
            } else if old.is_finite() {
                delta = f64::INFINITY;
            }
        }
    } else {
        for i in rows {
            delta = delta.max((new[i] - old[i]).abs());
            scale = scale.max(new[i]);
        }
    }
    (delta, scale)
}

/// The local ids of `rows` as indices.
fn indices(rows: &[u32]) -> impl Iterator<Item = usize> + '_ {
    rows.iter().map(|&i| i as usize)
}

/// Run the truncated absorbing-cost dynamic program (Eq. 9, Algorithm 1
/// steps 3–4) over `kernel`, absorbing at nodes flagged in `absorbing`,
/// for `iterations` rounds. Returns the value vector, which lives in
/// `bufs` until the next call.
///
/// Dangling non-absorbing nodes get `f64::INFINITY`, as do nodes whose walk
/// can only reach dangling pockets.
///
/// On a tagged kernel ([`TransitionMatrix::sides`]) the rounds are
/// half-sweeps: item values are bit-identical to the full program's and
/// user values hold the previous iteration's (see the module docs).
///
/// This is the *reference* form: it always performs exactly `iterations`
/// rounds. Serving paths that only need the fixed-τ ranking (not the exact
/// fixed-τ values) should prefer [`truncated_costs_converge_into`].
///
/// # Panics
///
/// Panics if `absorbing.len() != kernel.n_nodes()`.
pub fn truncated_costs_into<'a>(
    kernel: &TransitionMatrix,
    absorbing: &[bool],
    cost: &dyn CostModel,
    iterations: usize,
    bufs: &'a mut DpBuffers,
) -> &'a [f64] {
    let n = kernel.n_nodes();
    assert_eq!(absorbing.len(), n, "absorbing flag vector length mismatch");

    let DpBuffers {
        immediate,
        current,
        next,
    } = bufs;
    let checked = expected_immediate_costs(kernel, absorbing, cost, immediate);
    let sweeper = Sweeper {
        kernel,
        absorbing,
        immediate,
        checked,
    };
    current.clear();
    current.resize(n, 0.0);
    match kernel.sides() {
        None => {
            next.clear();
            next.resize(n, 0.0);
            for _ in 0..iterations {
                sweeper.sweep(0..n, current, next);
                std::mem::swap(current, next);
            }
        }
        Some((users, items)) => {
            // Round t writes h(t) on the side whose chain reaches the items
            // at τ: the items when τ − t is even.
            for t in 1..=iterations {
                let rows = if (iterations - t).is_multiple_of(2) {
                    items
                } else {
                    users
                };
                sweeper.half_sweep(rows, current);
            }
        }
    }
    current
}

/// The adaptive form of [`truncated_costs_into`]: identical per-iteration
/// arithmetic, but the run stops as soon as the remaining iterations
/// provably cannot matter. Two stopping rules, both derived from the
/// sup-norm change `δ_t` of a step (one iteration, or on a tagged kernel
/// the two-step change of the item chain; see the module docs for the
/// soundness argument):
///
/// * **Convergence** — `δ_t ≤ ε · scale`, where `scale` is the largest
///   finite (item) value so far (floored at 1, so ε also acts absolutely
///   near zero). Every (item) value is then within the remaining-change
///   bound [`DpProbe::global_bound`] of its fixed-τ counterpart. With
///   `δ_t = 0` the vector is an exact f64 fixed point and the run stops
///   unconditionally, bit-identical to the full run. With
///   `0 < δ_t ≤ ε · scale` the values are converged but near-tied *orders*
///   are not yet certified, so when a rank probe is supplied the stop
///   additionally requires its confirmation (rankings stay fixed-τ
///   identical); without a probe the caller gets plain value-converged
///   semantics. Pass `epsilon < 0` to restrict the rule to exact fixed
///   points.
/// * **Rank stability** — on a geometric schedule (from iteration 6, then
///   ~8 probes per decade), and only once `δ_t` is finite, `probe` (when
///   supplied) receives a [`DpProbe`] carrying the current and previous
///   value vectors plus the remaining step count; returning `true`
///   asserts that no admissible ranking outcome can change within the
///   probe's remaining-change bounds and stops the run. The fused serving
///   path uses this to halt the moment its top-k list is frozen.
///
/// A third, *non*-sound exit is cooperative cancellation: `cancel` (when
/// supplied) is consulted on the same measured steps the δ pass runs on —
/// never inside the hot sweep — and returning `true` aborts the run with
/// [`DpRun::cancelled`] set. The serving layer uses this to stop paying for
/// a walk whose request deadline has already expired; the abandoned values
/// are monotone lower bounds of the fixed-τ values but certify no ranking,
/// so cancelled runs must not be served. An exact fixed point (`δ_t = 0`)
/// still stops as `converged` even when `cancel` fires on the same step —
/// the result is bit-identical to the full run, so there is nothing to
/// abandon.
///
/// Every stop lands after a whole step, so on a tagged kernel
/// [`DpRun::iterations`] has τ's parity. The values of the stopped run are
/// in `bufs` (as with the fixed form); the returned [`DpRun`] reports
/// iterations spent and which rule fired.
///
/// # Panics
///
/// Panics if `absorbing.len() != kernel.n_nodes()`.
#[allow(clippy::too_many_arguments)]
pub fn truncated_costs_converge_into(
    kernel: &TransitionMatrix,
    absorbing: &[bool],
    cost: &dyn CostModel,
    iterations: usize,
    epsilon: f64,
    mut probe: Option<&mut dyn FnMut(&DpProbe<'_>) -> bool>,
    cancel: Option<&dyn Fn() -> bool>,
    bufs: &mut DpBuffers,
) -> DpRun {
    let n = kernel.n_nodes();
    assert_eq!(absorbing.len(), n, "absorbing flag vector length mismatch");

    let DpBuffers {
        immediate,
        current,
        next,
    } = bufs;
    let checked = expected_immediate_costs(kernel, absorbing, cost, immediate);
    let sweeper = Sweeper {
        kernel,
        absorbing,
        immediate,
        checked,
    };
    current.clear();
    current.resize(n, 0.0);
    next.clear();
    next.resize(n, 0.0);
    let sides = kernel.sides();
    // Iterations per step, and the lone item half-sweep that puts an odd τ
    // on a tagged kernel in step with the item side.
    let (width, lead) = match sides {
        None => (1, 0),
        Some((_, items)) if iterations % 2 == 1 => {
            sweeper.half_sweep(items, current);
            (2, 1)
        }
        Some(_) => (2, 0),
    };
    let mut run = DpRun {
        iterations: lead,
        budget: iterations,
        converged: false,
        rank_frozen: false,
        cancelled: false,
        last_delta: f64::INFINITY,
    };
    let mut probe_at = PROBE_START;
    while run.iterations < iterations {
        // One step, `next` from `current`.
        match sides {
            None => sweeper.sweep(0..n, current, next),
            Some((users, items)) => {
                sweeper.sweep(indices(users), current, next);
                sweeper.half_sweep(items, next);
            }
        }
        let performed = run.iterations + width;
        run.iterations = performed;
        let scheduled_probe = probe.is_some() && performed < iterations && performed >= probe_at;
        if !(scheduled_probe
            || (performed - lead).is_multiple_of(DELTA_STRIDE)
            || performed == iterations)
        {
            // Measurement skipped this step: the O(n) δ pass is real cost
            // against small subgraphs, and a convergence stop can wait out
            // the stride.
            std::mem::swap(current, next);
            continue;
        }
        // δ_t and the value scale, in one pass over the step's output — on
        // a tagged kernel over the item chain only.
        let (delta, scale) = match sides {
            None => change_and_scale(0..n, checked, next, current),
            Some((_, items)) => change_and_scale(indices(items), checked, next, current),
        };
        std::mem::swap(current, next);
        run.last_delta = delta;
        // After the swap, `current` holds this step's values and `next` the
        // previous step's.
        let args = DpProbe {
            values: current,
            previous: next,
            delta,
            remaining: (iterations - performed) / width,
        };
        if delta == 0.0 {
            // Exact f64 fixed point: every further step reproduces the same
            // vector, so stopping is bit-identical to the full run — no
            // rank confirmation needed (and it outranks cancellation: the
            // finished result costs nothing more to keep).
            run.converged = true;
            break;
        }
        if let Some(cancel) = cancel {
            // Cooperative cancellation rides the measured steps only, so
            // the hot sweep never pays for the check.
            if cancel() {
                run.cancelled = true;
                break;
            }
        }
        if delta <= epsilon * scale {
            // Value convergence certifies accuracy, not order: near-ties
            // inside the residual drift could still settle differently by
            // the fixed-τ horizon. With a rank probe on hand, stop only if
            // it confirms the ranking is frozen too; without one, the
            // caller asked for value-converged semantics.
            match probe.as_mut() {
                None => {
                    run.converged = true;
                    break;
                }
                Some(probe) => {
                    if delta.is_finite() && probe(&args) {
                        run.converged = true;
                        run.rank_frozen = true;
                        break;
                    }
                }
            }
        } else if scheduled_probe && delta.is_finite() {
            probe_at = next_probe_after(performed);
            if let Some(probe) = probe.as_mut() {
                if probe(&args) {
                    run.rank_frozen = true;
                    break;
                }
            }
        }
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::UnitCost;
    use longtail_graph::{Adjacency, BipartiteGraph, CsrMatrix, SubgraphScratch};

    /// Path graph 0 - 1 - 2 with unit weights.
    fn path3_kernel() -> TransitionMatrix {
        let csr =
            CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)]);
        TransitionMatrix::from_adjacency(&Adjacency::from_symmetric_csr(csr))
    }

    #[test]
    fn converges_to_known_times() {
        let kernel = path3_kernel();
        let absorbing = [true, false, false];
        let mut bufs = DpBuffers::new();
        let t = truncated_costs_into(&kernel, &absorbing, &UnitCost, 2000, &mut bufs);
        assert_eq!(t[0], 0.0);
        assert!((t[1] - 3.0).abs() < 1e-6);
        assert!((t[2] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn buffers_are_reusable_across_different_sizes() {
        let kernel = path3_kernel();
        let mut bufs = DpBuffers::new();
        let big =
            truncated_costs_into(&kernel, &[true, false, false], &UnitCost, 50, &mut bufs).to_vec();

        // A smaller, unrelated problem must not see stale state.
        let csr = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]);
        let small_kernel = TransitionMatrix::from_adjacency(&Adjacency::from_symmetric_csr(csr));
        let small = truncated_costs_into(&small_kernel, &[true, false], &UnitCost, 50, &mut bufs);
        assert_eq!(small.len(), 2);
        assert_eq!(small[0], 0.0);
        assert!((small[1] - 1.0).abs() < 1e-12);

        // And re-running the first problem reproduces it exactly.
        let again = truncated_costs_into(&kernel, &[true, false, false], &UnitCost, 50, &mut bufs);
        assert_eq!(again, &big[..]);
    }

    #[test]
    fn zero_iterations_returns_zeros() {
        let kernel = path3_kernel();
        let mut bufs = DpBuffers::new();
        let t = truncated_costs_into(&kernel, &[true, false, false], &UnitCost, 0, &mut bufs);
        assert_eq!(t, &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_flag_length_panics() {
        let kernel = path3_kernel();
        truncated_costs_into(&kernel, &[true], &UnitCost, 1, &mut DpBuffers::new());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn converge_wrong_flag_length_panics() {
        let kernel = path3_kernel();
        truncated_costs_converge_into(
            &kernel,
            &[true],
            &UnitCost,
            1,
            1e-9,
            None,
            None,
            &mut DpBuffers::new(),
        );
    }

    #[test]
    fn convergence_early_exit_agrees_with_full_run_within_epsilon() {
        // The convergence rule's contract: every early-exited value is
        // within `δ · (τ − t) ≤ ε · scale · τ` of the full-τ value, and
        // approaches it from below (monotone recursion).
        let kernel = path3_kernel();
        let absorbing = [true, false, false];
        let budget = 2000usize;
        let epsilon = 1e-9;

        let mut adaptive = DpBuffers::new();
        let run = truncated_costs_converge_into(
            &kernel,
            &absorbing,
            &UnitCost,
            budget,
            epsilon,
            None,
            None,
            &mut adaptive,
        );
        assert!(run.converged, "tiny chain must converge within {budget}");
        assert!(!run.rank_frozen);
        assert!(run.iterations < budget, "no iterations saved: {run:?}");
        assert!(run.last_delta <= epsilon * 4.0, "δ at stop: {run:?}");

        let mut full = DpBuffers::new();
        let exact = truncated_costs_into(&kernel, &absorbing, &UnitCost, budget, &mut full);
        let tolerance = epsilon * 4.0 * (budget - run.iterations) as f64;
        for (i, (&a, &e)) in adaptive.values().iter().zip(exact).enumerate() {
            assert!(a <= e + 1e-15, "node {i}: early value {a} above full {e}");
            assert!(e - a <= tolerance, "node {i}: {a} vs {e} (tol {tolerance})");
        }
    }

    #[test]
    fn exact_fixed_point_is_bit_identical_to_full_run() {
        // ε = 0 only stops on δ = 0, i.e. an exact f64 fixed point — from
        // there every further sweep reproduces the same vector, so the
        // early exit is bit-identical to the full run.
        let kernel = path3_kernel();
        let absorbing = [true, false, false];
        let mut adaptive = DpBuffers::new();
        let run = truncated_costs_converge_into(
            &kernel,
            &absorbing,
            &UnitCost,
            100_000,
            0.0,
            None,
            None,
            &mut adaptive,
        );
        assert!(run.converged);
        assert_eq!(run.last_delta, 0.0);
        let mut full = DpBuffers::new();
        let exact = truncated_costs_into(&kernel, &absorbing, &UnitCost, 100_000, &mut full);
        assert_eq!(adaptive.values(), exact);
    }

    #[test]
    fn negative_epsilon_stops_only_at_exact_fixed_points() {
        let kernel = path3_kernel();
        let mut bufs = DpBuffers::new();
        // Within a short budget the chain has not reached its f64 fixed
        // point: ε < 0 must run every iteration, values bit-identical to
        // the fixed form (same sweeps).
        let run = truncated_costs_converge_into(
            &kernel,
            &[true, false, false],
            &UnitCost,
            60,
            -1.0,
            None,
            None,
            &mut bufs,
        );
        assert!(!run.converged && !run.rank_frozen);
        assert_eq!(run.iterations, 60);
        let mut full = DpBuffers::new();
        let exact = truncated_costs_into(&kernel, &[true, false, false], &UnitCost, 60, &mut full);
        assert_eq!(bufs.values(), exact);

        // Over a long budget the iteration map reaches an exact fixed
        // point (δ = 0), where stopping is unconditional even at ε < 0 —
        // and still bit-identical to exhausting the budget.
        let run = truncated_costs_converge_into(
            &kernel,
            &[true, false, false],
            &UnitCost,
            500,
            -1.0,
            None,
            None,
            &mut bufs,
        );
        assert!(run.converged && !run.rank_frozen);
        assert!(run.iterations < 500, "{run:?}");
        assert_eq!(run.last_delta, 0.0);
        let exact = truncated_costs_into(&kernel, &[true, false, false], &UnitCost, 500, &mut full);
        assert_eq!(bufs.values(), exact);
    }

    #[test]
    fn epsilon_convergence_defers_to_a_refusing_probe() {
        // With a probe supplied, value convergence alone must not stop the
        // run: a refusing probe (rank not certified) keeps it iterating
        // until the exact fixed point.
        let kernel = path3_kernel();
        let mut calls = 0usize;
        let mut probe = |_: &DpProbe<'_>| -> bool {
            calls += 1;
            false
        };
        let mut bufs = DpBuffers::new();
        let run = truncated_costs_converge_into(
            &kernel,
            &[true, false, false],
            &UnitCost,
            500,
            1e-6, // loose: value convergence fires long before the fixed point
            Some(&mut probe),
            None,
            &mut bufs,
        );
        assert!(calls > 0);
        assert!(run.converged && !run.rank_frozen, "{run:?}");
        assert_eq!(run.last_delta, 0.0, "only the δ = 0 stop may fire");
        // A loose ε without a probe stops much earlier than the fixed point.
        let mut bufs2 = DpBuffers::new();
        let unconfirmed = truncated_costs_converge_into(
            &kernel,
            &[true, false, false],
            &UnitCost,
            500,
            1e-6,
            None,
            None,
            &mut bufs2,
        );
        assert!(unconfirmed.iterations < run.iterations);
    }

    /// HT on the paper's Figure 2 graph (5 users × 6 movies) as a tagged
    /// kernel: the whole graph as the BFS subgraph of user U5, absorbing
    /// there.
    fn figure2_ht_kernel() -> (BipartiteGraph, SubgraphScratch, Vec<bool>) {
        let g = BipartiteGraph::from_ratings(
            5,
            6,
            &[
                (0, 0, 5.0),
                (0, 1, 3.0),
                (0, 4, 3.0),
                (0, 5, 5.0),
                (1, 0, 5.0),
                (1, 1, 4.0),
                (1, 2, 5.0),
                (1, 4, 4.0),
                (1, 5, 5.0),
                (2, 0, 4.0),
                (2, 1, 5.0),
                (2, 2, 4.0),
                (3, 2, 5.0),
                (3, 3, 5.0),
                (4, 1, 4.0),
                (4, 2, 5.0),
            ],
        );
        let mut scratch = SubgraphScratch::new();
        scratch.grow(&g, &[g.user_node(4)], usize::MAX);
        let mut absorbing = vec![false; scratch.n_nodes()];
        absorbing[0] = true; // the seed is local node 0
        (g, scratch, absorbing)
    }

    /// Run a never-stopping probe over `budget` iterations and check, at
    /// every call, that no fixed-τ value of the `covered` rows exceeds its
    /// current value plus either bound. Returns the number of probe calls.
    fn assert_probe_bounds_cap_fixed_values(
        kernel: &TransitionMatrix,
        absorbing: &[bool],
        budget: usize,
        covered: &[usize],
    ) -> usize {
        let mut full = DpBuffers::new();
        let exact = truncated_costs_into(kernel, absorbing, &UnitCost, budget, &mut full).to_vec();
        let mut calls = 0usize;
        let mut probe = |p: &DpProbe<'_>| -> bool {
            calls += 1;
            let bound = p.global_bound();
            assert!(bound.is_finite() && bound >= 0.0);
            for &i in covered {
                let (v, e) = (p.values[i], exact[i]);
                if v.is_finite() {
                    assert!(e <= v + bound + 1e-12, "node {i}: {e} > {v} + {bound}");
                    // Unit cost is superharmonic, so the per-node bound is
                    // sound too (and no looser than the global one).
                    let nb = p.node_bound(i);
                    assert!(e <= v + nb + 1e-12, "node {i}: {e} > {v} + node {nb}");
                    assert!(nb <= bound + 1e-12);
                }
            }
            false // never stop: exercise every probed iteration's bound
        };
        let mut bufs = DpBuffers::new();
        let run = truncated_costs_converge_into(
            kernel,
            absorbing,
            &UnitCost,
            budget,
            -1.0,
            Some(&mut probe),
            None,
            &mut bufs,
        );
        assert_eq!(run.iterations, budget);
        calls
    }

    #[test]
    fn probe_receives_sound_remaining_change_bound() {
        // At every probe call, no final value may exceed current + bound:
        // every node of an untagged kernel, every item of a tagged one (HT
        // on Figure 2, absorbing at user U5), at both parities of τ.
        let kernel = path3_kernel();
        let calls =
            assert_probe_bounds_cap_fixed_values(&kernel, &[true, false, false], 60, &[0, 1, 2]);
        assert!(calls > 0, "probe never invoked");

        let (g, scratch, absorbing) = figure2_ht_kernel();
        let (_, items) = scratch.kernel().sides().expect("tagged kernel");
        let items: Vec<usize> = items.iter().map(|&i| i as usize).collect();
        assert_eq!(items.len(), g.n_items());
        for budget in [60, 61] {
            let calls =
                assert_probe_bounds_cap_fixed_values(scratch.kernel(), &absorbing, budget, &items);
            assert!(calls > 0, "probe never invoked at τ = {budget}");
        }
    }

    #[test]
    fn probe_stop_is_recorded() {
        let kernel = path3_kernel();
        let mut stop_after = 0usize;
        let mut probe = |_: &DpProbe<'_>| -> bool {
            stop_after += 1;
            stop_after >= 3
        };
        let mut bufs = DpBuffers::new();
        let run = truncated_costs_converge_into(
            &kernel,
            &[true, false, false],
            &UnitCost,
            1000,
            -1.0,
            Some(&mut probe),
            None,
            &mut bufs,
        );
        assert!(run.rank_frozen && !run.converged);
        // The schedule probes at iterations 6, 8, 10; the third call stops
        // the run with 10 iterations performed.
        assert_eq!(run.iterations, 10);
        assert!(run.last_delta.is_finite());
    }

    #[test]
    fn dangling_pocket_takes_checked_path_and_probe_bounds_stay_finite() {
        // Path 0 (absorbing) - 1 - 2 plus an isolated dangling node 3: the
        // checked sweep runs, node 3 is pinned at ∞, and every bound the
        // probe sees is finite (δ = ∞ iterations never consult it) and caps
        // the fixed-τ values. The tagged input seeds a BFS with user 0
        // (absorbing) and the unrated item 2, which stays dangling.
        let csr =
            CsrMatrix::from_triplets(4, 4, &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)]);
        let kernel = TransitionMatrix::from_adjacency(&Adjacency::from_symmetric_csr(csr));
        let g = BipartiteGraph::from_ratings(2, 3, &[(0, 0, 5.0), (0, 1, 3.0), (1, 1, 4.0)]);
        let mut scratch = SubgraphScratch::new();
        scratch.grow(&g, &[g.user_node(0), g.item_node(2)], usize::MAX);
        let local = |node: usize| scratch.local_id(node).unwrap() as usize;
        let mut tagged_absorbing = vec![false; scratch.n_nodes()];
        tagged_absorbing[local(g.user_node(0))] = true;
        let items: Vec<usize> = (0..3).map(|i| local(g.item_node(i))).collect();
        let dangling = items[2];
        let cases = [
            (
                &kernel,
                vec![true, false, false, false],
                vec![0, 1, 2, 3],
                3,
                50,
            ),
            (
                scratch.kernel(),
                tagged_absorbing.clone(),
                items.clone(),
                dangling,
                50,
            ),
            (scratch.kernel(), tagged_absorbing, items, dangling, 51),
        ];
        for (kernel, absorbing, covered, dangling, budget) in cases {
            let mut probe_bounds: Vec<f64> = Vec::new();
            let mut probe = |p: &DpProbe<'_>| -> bool {
                probe_bounds.push(p.global_bound());
                false
            };
            let mut bufs = DpBuffers::new();
            let run = truncated_costs_converge_into(
                kernel,
                &absorbing,
                &UnitCost,
                budget,
                -1.0,
                Some(&mut probe),
                None,
                &mut bufs,
            );
            assert_eq!(run.iterations, budget);
            for &i in &covered {
                assert_eq!(bufs.values()[i].is_infinite(), i == dangling, "node {i}");
            }
            assert!(!probe_bounds.is_empty());
            assert!(probe_bounds.iter().all(|b| b.is_finite()));
            let calls = assert_probe_bounds_cap_fixed_values(kernel, &absorbing, budget, &covered);
            assert!(calls > 0);
        }
    }

    #[test]
    fn cancel_aborts_on_a_measured_iteration() {
        let kernel = path3_kernel();
        // Always-true cancel: the run must stop at the FIRST measured
        // iteration (the δ stride), not at iteration 1 — cancellation only
        // rides the measurement pass.
        let cancel = || true;
        let mut bufs = DpBuffers::new();
        let run = truncated_costs_converge_into(
            &kernel,
            &[true, false, false],
            &UnitCost,
            1000,
            -1.0,
            None,
            Some(&cancel),
            &mut bufs,
        );
        assert!(run.cancelled && !run.converged && !run.rank_frozen);
        assert_eq!(run.iterations, DELTA_STRIDE);

        // A never-firing cancel changes nothing: values bit-identical to
        // the uncancellable run.
        let never = || false;
        let mut with_hook = DpBuffers::new();
        let hooked = truncated_costs_converge_into(
            &kernel,
            &[true, false, false],
            &UnitCost,
            60,
            -1.0,
            None,
            Some(&never),
            &mut with_hook,
        );
        assert!(!hooked.cancelled);
        assert_eq!(hooked.iterations, 60);
        let mut full = DpBuffers::new();
        let exact = truncated_costs_into(&kernel, &[true, false, false], &UnitCost, 60, &mut full);
        assert_eq!(with_hook.values(), exact);
    }

    #[test]
    fn exact_fixed_point_outranks_cancellation() {
        // When δ = 0 on the same measured iteration the cancel hook would
        // fire, the converged stop wins: the result is bit-identical to
        // the full run, so there is nothing to abandon. All-absorbing
        // makes the very first measurement an exact fixed point.
        let kernel = path3_kernel();
        let mut bufs = DpBuffers::new();
        let run = truncated_costs_converge_into(
            &kernel,
            &[true, true, true],
            &UnitCost,
            100_000,
            -1.0,
            None,
            Some(&(|| true)),
            &mut bufs,
        );
        assert!(run.converged && !run.cancelled);
        assert_eq!(run.last_delta, 0.0);
    }

    #[test]
    fn dp_run_fixed_shape() {
        let run = DpRun::fixed(15);
        assert_eq!(run.iterations, 15);
        assert_eq!(run.budget, 15);
        assert!(!run.converged && !run.rank_frozen);
        assert!(run.last_delta.is_infinite());
    }

    #[test]
    fn zero_budget_converge_runs_nothing() {
        let kernel = path3_kernel();
        let mut bufs = DpBuffers::new();
        let run = truncated_costs_converge_into(
            &kernel,
            &[true, false, false],
            &UnitCost,
            0,
            1e-9,
            None,
            None,
            &mut bufs,
        );
        assert_eq!(run.iterations, 0);
        assert!(!run.converged && !run.rank_frozen);
        assert_eq!(bufs.values(), &[0.0, 0.0, 0.0]);
    }
}
