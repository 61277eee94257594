//! Property tests: the dynamic programs over side-tagged subgraph kernels.
//!
//! A kernel induced by `SubgraphScratch` is tagged with its user and item
//! rows, and both dynamic programs run τ half-sweeps over it instead of τ
//! full sweeps. On random bipartite corpora — HT seeds (the user) and AT/AC
//! seeds (the rated items), unit and per-node costs, small and large μ, a
//! dangling seed (the `∞` path), τ ∈ {0, 1, 2} plus a random odd and a
//! random even τ ≤ 40 — these tests pin that:
//!
//! * the item values of `truncated_costs_into` equal, bit for bit, those of
//!   the full-sweep program (a verbatim copy below) over the same kernel's
//!   rows;
//! * every `truncated_costs_converge_into` stop has τ's parity, a fixed run
//!   of that many iterations reproduces its item values bit for bit, and
//!   every probe's bounds cap the fixed-τ item values.

use longtail_graph::{BipartiteGraph, SubgraphScratch, TransitionMatrix};
use longtail_markov::{
    truncated_costs_converge_into, truncated_costs_into, CostModel, DpBuffers, DpProbe,
    PerNodeCost, UnitCost,
};
use proptest::prelude::*;
use std::cell::Cell;

const N_USERS: u32 = 7;
/// Rated items; the catalog has one more, item `N_ITEMS`, which nobody
/// rates.
const N_ITEMS: u32 = 8;

fn ratings() -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    prop::collection::vec((0..N_USERS, 0..N_ITEMS, 1.0f64..5.0), 1..50)
}

/// The full-sweep program over every row of `kernel`, verbatim as it stood
/// before half-sweeps: `sweep_fast`'s blocked reduction, or `sweep_checked`
/// when some transient node is dangling.
fn full_sweep_program(
    kernel: &TransitionMatrix,
    absorbing: &[bool],
    cost: &dyn CostModel,
    iterations: usize,
) -> Vec<f64> {
    let n = kernel.n_nodes();
    let mut immediate = vec![0.0; n];
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
        for (&j, &p) in cols.iter().zip(probs) {
            acc += p * cost.entry_cost(j as usize);
        }
        immediate[i] = acc;
    }
    let mut current = vec![0.0f64; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..iterations {
        if any_infinite {
            // sweep_checked
            for i in 0..n {
                if absorbing[i] {
                    next[i] = 0.0;
                    continue;
                }
                let (cols, probs) = kernel.row(i);
                if cols.is_empty() {
                    next[i] = f64::INFINITY;
                    continue;
                }
                let mut acc = 0.0;
                for (&j, &p) in cols.iter().zip(probs) {
                    let v = current[j as usize];
                    if v.is_finite() {
                        acc += p * v;
                    } else {
                        acc = f64::INFINITY;
                        break;
                    }
                }
                next[i] = immediate[i] + acc;
            }
        } else {
            // sweep_fast
            for i in 0..n {
                if absorbing[i] {
                    next[i] = 0.0;
                    continue;
                }
                let (cols, probs) = kernel.row(i);
                let mut cols4 = cols.chunks_exact(4);
                let mut probs4 = probs.chunks_exact(4);
                let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0, 0.0, 0.0);
                for (c, p) in (&mut cols4).zip(&mut probs4) {
                    a0 += p[0] * current[c[0] as usize];
                    a1 += p[1] * current[c[1] as usize];
                    a2 += p[2] * current[c[2] as usize];
                    a3 += p[3] * current[c[3] as usize];
                }
                let mut acc = (a0 + a1) + (a2 + a3);
                for (&j, &p) in cols4.remainder().iter().zip(probs4.remainder()) {
                    acc += p * current[j as usize];
                }
                next[i] = immediate[i] + acc;
            }
        }
        std::mem::swap(&mut current, &mut next);
    }
    current
}

/// One drawn case: a tagged kernel, its absorbing flags and entry costs.
struct Case {
    scratch: SubgraphScratch,
    absorbing: Vec<bool>,
    cost: Box<dyn CostModel>,
}

impl Case {
    /// The walk of `family` (0: HT, absorbing at the user; otherwise AT/AC,
    /// absorbing at the user's rated items) for the first rating's user,
    /// grown within μ = `mu`. `extra`, when in range, is one more seed left
    /// non-absorbing: it is dangling when it has no admitted neighbor — the
    /// unrated item always, other nodes when a small μ leaves them
    /// unexpanded. `per_node` charges each local node its own entry cost
    /// instead of one step.
    fn new(ts: &[(u32, u32, f64)], family: u32, extra: usize, mu: usize, per_node: bool) -> Self {
        let g = BipartiteGraph::from_ratings(N_USERS as usize, N_ITEMS as usize + 1, ts);
        let user = ts[0].0;
        let mut seeds: Vec<usize> = if family == 0 {
            vec![g.user_node(user)]
        } else {
            g.user_items()
                .row(user as usize)
                .0
                .iter()
                .map(|&i| g.item_node(i))
                .collect()
        };
        let n_absorbing = seeds.len();
        if extra < g.n_nodes() && !seeds.contains(&extra) {
            seeds.push(extra);
        }
        let mut scratch = SubgraphScratch::new();
        scratch.grow(&g, &seeds, mu);
        let mut absorbing = vec![false; scratch.n_nodes()];
        for &s in &seeds[..n_absorbing] {
            absorbing[scratch.local_id(s).unwrap() as usize] = true;
        }
        let cost: Box<dyn CostModel> = if per_node {
            let costs = (0..scratch.n_nodes()).map(|i| 0.4 + 0.13 * i as f64);
            Box::new(PerNodeCost::new(costs.collect()))
        } else {
            Box::new(UnitCost)
        };
        Self {
            scratch,
            absorbing,
            cost,
        }
    }

    fn kernel(&self) -> &TransitionMatrix {
        self.scratch.kernel()
    }

    fn items(&self) -> Vec<usize> {
        let (_, items) = self.kernel().sides().expect("a subgraph kernel is tagged");
        items.iter().map(|&i| i as usize).collect()
    }

    /// The item values of a fixed run of `iterations`.
    fn fixed_items(&self, iterations: usize) -> Vec<u64> {
        let mut bufs = DpBuffers::new();
        let values = truncated_costs_into(
            self.kernel(),
            &self.absorbing,
            &*self.cost,
            iterations,
            &mut bufs,
        );
        self.items().iter().map(|&i| values[i].to_bits()).collect()
    }
}

/// The extra seed of a case: none (0), the unrated item (1) or `node` (2).
fn extra_seed(choice: usize, node: usize) -> usize {
    match choice {
        0 => usize::MAX,
        1 => (N_USERS + N_ITEMS) as usize,
        _ => node,
    }
}

/// τ ∈ {0, 1, 2}, then a random odd and a random even τ ≤ 40.
fn taus(odd: usize, even: usize) -> [usize; 5] {
    [0, 1, 2, 2 * odd + 1, 2 * even]
}

proptest! {
    #[test]
    fn half_sweep_items_match_the_full_sweep_program_bit_for_bit(
        ts in ratings(),
        family in 0..3u32,
        extra in 0..3usize,
        (node, mu) in (0..(N_USERS + N_ITEMS) as usize, 0..12usize),
        per_node in 0..2u32,
        (odd, even) in (0..20usize, 0..21usize),
    ) {
        let case = Case::new(&ts, family, extra_seed(extra, node), mu, per_node == 1);
        for tau in taus(odd, even) {
            let want = full_sweep_program(case.kernel(), &case.absorbing, &*case.cost, tau);
            let got = case.fixed_items(tau);
            for (&i, &bits) in case.items().iter().zip(&got) {
                prop_assert_eq!(
                    bits,
                    want[i].to_bits(),
                    "τ = {}, item row {}: {} vs {}",
                    tau,
                    i,
                    f64::from_bits(bits),
                    want[i]
                );
            }
        }
    }

    #[test]
    fn adaptive_stops_land_on_tau_parity_and_replay_bit_for_bit(
        ts in ratings(),
        family in 0..3u32,
        (extra, node) in (0..3usize, 0..(N_USERS + N_ITEMS) as usize),
        (mu, per_node) in (0..12usize, 0..2u32),
        (odd, even) in (0..20usize, 0..21usize),
        (eps, probe_stop, cancel_stop) in (0..5usize, 0..6usize, 0..8usize),
    ) {
        let case = Case::new(&ts, family, extra_seed(extra, node), mu, per_node == 1);
        let items = case.items();
        let epsilon = [-1.0, 0.0, 1e-9, 1e-3, 0.5][eps];
        for tau in taus(odd, even) {
            let fixed = truncated_costs_into(
                case.kernel(),
                &case.absorbing,
                &*case.cost,
                tau,
                &mut DpBuffers::new(),
            )
            .to_vec();
            // A probe that checks its bounds against the fixed-τ item values
            // and stops on call `probe_stop` (never for 0), and a cancel hook
            // that fires on call `cancel_stop` (never for 0).
            let mut probe_calls = 0usize;
            let mut probe = |p: &DpProbe<'_>| -> bool {
                probe_calls += 1;
                let bound = p.global_bound();
                for &i in &items {
                    let (v, e) = (p.values[i], fixed[i]);
                    if v.is_finite() {
                        let slack = 1e-9 * (1.0 + e.abs());
                        assert!(e <= v + bound + slack, "item row {i}: {e} > {v} + {bound}");
                        if per_node == 0 {
                            let nb = p.node_bound(i);
                            assert!(e <= v + nb + slack, "item row {i}: {e} > {v} + node {nb}");
                        }
                    }
                }
                probe_calls == probe_stop
            };
            let cancel_calls = Cell::new(0usize);
            let cancel = || {
                cancel_calls.set(cancel_calls.get() + 1);
                cancel_calls.get() == cancel_stop
            };
            let mut bufs = DpBuffers::new();
            let run = truncated_costs_converge_into(
                case.kernel(),
                &case.absorbing,
                &*case.cost,
                tau,
                epsilon,
                Some(&mut probe),
                Some(&cancel),
                &mut bufs,
            );
            prop_assert!(run.iterations <= tau, "{:?}", run);
            prop_assert_eq!(run.iterations % 2, tau % 2, "τ = {}: {:?}", tau, run);
            let stopped: Vec<u64> = items.iter().map(|&i| bufs.values()[i].to_bits()).collect();
            prop_assert_eq!(stopped, case.fixed_items(run.iterations), "τ = {}: {:?}", tau, run);
        }
    }
}

#[test]
fn unexpanded_dangling_seed_takes_the_checked_path() {
    // HT from user 0 with the unrated item as an extra, non-absorbing
    // seed: it is admitted but has no edge, so it is dangling, the checked
    // sweep runs, and the half-sweep still matches the full program bit for
    // bit at both parities.
    let ts = [
        (0, 0, 5.0),
        (0, 1, 3.0),
        (1, 1, 4.0),
        (1, 2, 2.0),
        (2, 2, 1.0),
    ];
    let unrated = extra_seed(1, 0);
    let case = Case::new(&ts, 0, unrated, usize::MAX, false);
    let dangling = case.scratch.local_id(unrated).unwrap() as usize;
    assert!(case.kernel().is_dangling(dangling));
    for tau in [5, 6] {
        let want = full_sweep_program(case.kernel(), &case.absorbing, &*case.cost, tau);
        assert!(want[dangling].is_infinite());
        let got = case.fixed_items(tau);
        let want: Vec<u64> = case.items().iter().map(|&i| want[i].to_bits()).collect();
        assert_eq!(got, want, "τ = {tau}");
    }
}
