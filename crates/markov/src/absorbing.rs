//! Absorbing random walks: truncated and exact absorbing times and costs.
//!
//! Definitions 2–3 of the paper: given absorbing nodes `S`, the absorbing
//! time `AT(S|i)` is the expected number of steps before a walker starting at
//! `i` first reaches `S`; the absorbing cost `AC(S|i)` generalizes the +1 per
//! hop to an arbitrary per-hop charge (Eq. 8). Both satisfy a first-step
//! recurrence (Eq. 6 / Eq. 9) that this module evaluates two ways:
//!
//! * **truncated** — iterate the dynamic program a fixed `τ` times
//!   (Algorithm 1). `O(τ·m)`, and after ~15 iterations the *ranking* of item
//!   nodes is stable, which is all recommendation needs;
//! * **exact** — solve the linear system `(I - P_TT) x = r` over transient
//!   states with dense LU. `O(n³)`, used on small subgraphs, as ground truth
//!   in tests, and to reproduce the Figure 2 worked example.

use crate::cost::{CostModel, UnitCost};
use crate::dp::{truncated_costs_into, DpBuffers};
use longtail_graph::{Adjacency, TransitionMatrix};
use longtail_linalg::dense::DenseMatrix;
use longtail_linalg::lu::{LinalgError, LuDecomposition};

/// An absorbing random walk over a fixed transition kernel and absorbing
/// set.
///
/// This is the convenient owned API: each walk normalizes its kernel once
/// and every query method allocates its own result vector. The
/// allocation-free hot path used by batch scoring lives in [`crate::dp`];
/// both share the same iteration kernel.
#[derive(Debug, Clone)]
pub struct AbsorbingWalk {
    kernel: TransitionMatrix,
    absorbing: Vec<bool>,
    n_absorbing: usize,
}

impl AbsorbingWalk {
    /// Create a walk absorbed by `absorbing_nodes`, normalizing `adj` into
    /// a transition kernel once up front.
    ///
    /// # Panics
    ///
    /// Panics if the absorbing set is empty or contains out-of-range ids.
    pub fn new(adj: &Adjacency, absorbing_nodes: &[usize]) -> Self {
        assert!(
            !absorbing_nodes.is_empty(),
            "absorbing set must be non-empty"
        );
        let kernel = TransitionMatrix::from_adjacency(adj);
        let n = kernel.n_nodes();
        let mut absorbing = vec![false; n];
        let mut n_absorbing = 0;
        for &node in absorbing_nodes {
            assert!(node < n, "absorbing node {node} out of range");
            if !absorbing[node] {
                absorbing[node] = true;
                n_absorbing += 1;
            }
        }
        Self {
            kernel,
            absorbing,
            n_absorbing,
        }
    }

    /// Whether `node` is absorbing.
    #[inline]
    pub fn is_absorbing(&self, node: usize) -> bool {
        self.absorbing[node]
    }

    /// The walk's (pre-normalized) transition kernel.
    #[inline]
    pub fn kernel(&self) -> &TransitionMatrix {
        &self.kernel
    }

    /// Number of distinct absorbing nodes.
    #[inline]
    pub fn n_absorbing(&self) -> usize {
        self.n_absorbing
    }

    /// Truncated absorbing times after `iterations` rounds of the dynamic
    /// program (Algorithm 1, steps 3–4): start from `AT_0 ≡ 0` and apply
    /// `AT_{t+1}(i) = 1 + Σ_j p_ij AT_t(j)` on non-absorbing nodes.
    ///
    /// Nodes that cannot reach `S` keep growing with `t`; zero-degree
    /// non-absorbing nodes are reported as `f64::INFINITY`. Larger `τ` only
    /// sharpens values; the induced item ranking typically stabilizes by
    /// `τ ≈ 15` (validated against [`AbsorbingWalk::exact_times`] in tests).
    pub fn truncated_times(&self, iterations: usize) -> Vec<f64> {
        self.truncated_costs(&UnitCost, iterations)
    }

    /// Truncated absorbing costs under `cost` (Eq. 9 with `τ` iterations).
    ///
    /// Delegates to the buffer-reusing kernel in [`crate::dp`]; this
    /// convenience form pays one `DpBuffers` allocation per call.
    pub fn truncated_costs(&self, cost: &dyn CostModel, iterations: usize) -> Vec<f64> {
        let mut bufs = DpBuffers::new();
        truncated_costs_into(&self.kernel, &self.absorbing, cost, iterations, &mut bufs).to_vec()
    }

    /// Exact absorbing times by solving `(I - P_TT) x = 1` over transient
    /// states (Kemeny & Snell; the paper's Eq. 6).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] when some transient state cannot
    /// reach the absorbing set (the system is then genuinely singular).
    pub fn exact_times(&self) -> Result<Vec<f64>, LinalgError> {
        self.exact_costs(&UnitCost)
    }

    /// Exact absorbing costs: solve `(I - P_TT) x = r` with
    /// `r_i = Σ_j p_ij · entry_cost(j)`.
    ///
    /// # Errors
    ///
    /// Same as [`AbsorbingWalk::exact_times`].
    pub fn exact_costs(&self, cost: &dyn CostModel) -> Result<Vec<f64>, LinalgError> {
        let n = self.kernel.n_nodes();
        // Transient states: non-absorbing with at least one edge. Dangling
        // nodes are excluded and reported as infinite.
        let transient: Vec<usize> = (0..n)
            .filter(|&i| !self.absorbing[i] && !self.kernel.is_dangling(i))
            .collect();
        let index_of: Vec<Option<usize>> = {
            let mut map = vec![None; n];
            for (k, &node) in transient.iter().enumerate() {
                map[node] = Some(k);
            }
            map
        };

        let t = transient.len();
        let mut system = DenseMatrix::identity(t);
        let mut rhs = vec![0.0; t];
        for (row, &i) in transient.iter().enumerate() {
            let (cols, probs) = self.kernel.row(i);
            let mut immediate = 0.0;
            for (&j, &p) in cols.iter().zip(probs) {
                immediate += p * cost.entry_cost(j as usize);
                if let Some(col) = index_of[j as usize] {
                    system[(row, col)] -= p;
                }
            }
            rhs[row] = immediate;
        }

        let solution = LuDecomposition::new(&system)?.solve(&rhs)?;
        let mut out = vec![f64::INFINITY; n];
        for (k, &node) in transient.iter().enumerate() {
            out[node] = solution[k];
        }
        for (o, &is_absorbing) in out.iter_mut().zip(&self.absorbing) {
            if is_absorbing {
                *o = 0.0;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::PerNodeCost;
    use longtail_graph::{BipartiteGraph, CsrMatrix};

    /// Path graph 0 - 1 - 2 with unit weights; absorbing at node 0.
    fn path3() -> Adjacency {
        let csr =
            CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)]);
        Adjacency::from_symmetric_csr(csr)
    }

    /// The paper's Figure 2 example: 5 users x 6 movies.
    fn figure2() -> (BipartiteGraph, Adjacency) {
        let ratings = [
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
        ];
        let g = BipartiteGraph::from_ratings(5, 6, &ratings);
        let adj = Adjacency::from_bipartite(&g);
        (g, adj)
    }

    #[test]
    fn path_graph_exact_times() {
        // From node 1 the walk hits 0 with prob 1/2 per attempt:
        // h1 = 1 + h2/2, h2 = 1 + h1  =>  h1 = 3, h2 = 4.
        let adj = path3();
        let walk = AbsorbingWalk::new(&adj, &[0]);
        let h = walk.exact_times().unwrap();
        assert_eq!(h[0], 0.0);
        assert!((h[1] - 3.0).abs() < 1e-10);
        assert!((h[2] - 4.0).abs() < 1e-10);
    }

    #[test]
    fn truncated_converges_to_exact() {
        let adj = path3();
        let walk = AbsorbingWalk::new(&adj, &[0]);
        let exact = walk.exact_times().unwrap();
        let approx = walk.truncated_times(2000);
        for i in 0..3 {
            assert!((approx[i] - exact[i]).abs() < 1e-6, "node {i}");
        }
    }

    #[test]
    fn truncated_is_monotone_in_iterations() {
        let (_, adj) = figure2();
        let walk = AbsorbingWalk::new(&adj, &[4]); // absorb at user U5
        let t5 = walk.truncated_times(5);
        let t10 = walk.truncated_times(10);
        let t20 = walk.truncated_times(20);
        for i in 0..adj.n_nodes() {
            assert!(t5[i] <= t10[i] + 1e-12);
            assert!(t10[i] <= t20[i] + 1e-12);
        }
    }

    #[test]
    fn figure2_hitting_times_match_paper() {
        // The paper reports H(U5|M4)=17.7, H(U5|M1)=19.6, H(U5|M5)=20.2,
        // H(U5|M6)=20.3 (§3.3). Hitting time to U5 is the absorbing time
        // with S = {U5}. A τ=60 truncation reproduces those numbers to
        // ±0.05 (17.75 / 19.63 / 20.24 / 20.33), so that is evidently the
        // computation behind the paper's figures; the exact linear solve
        // lands ~0.8 steps above (18.40 / 20.39 / 21.02 / 21.12) with the
        // identical ordering and pairwise gaps.
        let (g, adj) = figure2();
        let walk = AbsorbingWalk::new(&adj, &[g.user_node(4)]);
        let h = walk.truncated_times(60);
        let m = |i: u32| h[g.item_node(i)];
        assert!((m(3) - 17.7).abs() < 0.1, "H(U5|M4) = {}", m(3));
        assert!((m(0) - 19.6).abs() < 0.1, "H(U5|M1) = {}", m(0));
        assert!((m(4) - 20.2).abs() < 0.1, "H(U5|M5) = {}", m(4));
        assert!((m(5) - 20.3).abs() < 0.1, "H(U5|M6) = {}", m(5));
        // The induced recommendation order of §3.3: the niche movie M4 wins,
        // under both the truncated and the exact computation.
        assert!(m(3) < m(0) && m(0) < m(4) && m(4) < m(5));
        let e = walk.exact_times().unwrap();
        let me = |i: u32| e[g.item_node(i)];
        assert!(me(3) < me(0) && me(0) < me(4) && me(4) < me(5));
    }

    #[test]
    fn truncated_ranking_matches_exact_at_tau_15() {
        // The paper claims τ = 15 already reproduces the exact ranking.
        let (g, adj) = figure2();
        let walk = AbsorbingWalk::new(&adj, &[g.user_node(4)]);
        let exact = walk.exact_times().unwrap();
        let approx = walk.truncated_times(15);
        let unrated = [0u32, 3, 4, 5];
        let mut exact_order: Vec<u32> = unrated.to_vec();
        exact_order.sort_by(|&a, &b| {
            exact[g.item_node(a)]
                .partial_cmp(&exact[g.item_node(b)])
                .unwrap()
        });
        let mut approx_order: Vec<u32> = unrated.to_vec();
        approx_order.sort_by(|&a, &b| {
            approx[g.item_node(a)]
                .partial_cmp(&approx[g.item_node(b)])
                .unwrap()
        });
        assert_eq!(exact_order, approx_order);
    }

    #[test]
    fn absorbing_nodes_have_zero_time() {
        let (g, adj) = figure2();
        let s = [g.item_node(1), g.item_node(2)];
        let walk = AbsorbingWalk::new(&adj, &s);
        let t = walk.truncated_times(15);
        assert_eq!(t[s[0]], 0.0);
        assert_eq!(t[s[1]], 0.0);
        let e = walk.exact_times().unwrap();
        assert_eq!(e[s[0]], 0.0);
        assert_eq!(e[s[1]], 0.0);
    }

    #[test]
    fn unit_cost_equals_time() {
        let (g, adj) = figure2();
        let walk = AbsorbingWalk::new(&adj, &[g.item_node(1)]);
        let t = walk.truncated_times(25);
        let c = walk.truncated_costs(&UnitCost, 25);
        assert_eq!(t, c);
        let te = walk.exact_times().unwrap();
        let ce = walk.exact_costs(&UnitCost).unwrap();
        for i in 0..adj.n_nodes() {
            assert!((te[i] - ce[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn scaled_costs_scale_solution() {
        // entry_cost ≡ 2 must double every absorbing time.
        let (g, adj) = figure2();
        let walk = AbsorbingWalk::new(&adj, &[g.user_node(0)]);
        let times = walk.exact_times().unwrap();
        let double = PerNodeCost::new(vec![2.0; adj.n_nodes()]);
        let costs = walk.exact_costs(&double).unwrap();
        for i in 0..adj.n_nodes() {
            if times[i].is_finite() {
                assert!((costs[i] - 2.0 * times[i]).abs() < 1e-8, "node {i}");
            }
        }
    }

    #[test]
    fn unreachable_nodes_are_infinite_in_exact() {
        // Two components: 0-1 and 2-3; absorb at 0.
        let csr =
            CsrMatrix::from_triplets(4, 4, &[(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)]);
        let adj = Adjacency::from_symmetric_csr(csr);
        let walk = AbsorbingWalk::new(&adj, &[0]);
        // (I - P_TT) is singular for the unreachable block {2, 3}.
        match walk.exact_times() {
            Err(LinalgError::Singular { .. }) => {}
            Ok(times) => {
                // If pivoting happened to succeed numerically, unreachable
                // nodes must still not carry small finite times.
                assert!(times[2] > 1e6 || times[2].is_infinite());
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn zero_degree_nodes_infinite_in_truncated() {
        let csr = CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0), (1, 0, 1.0)]);
        let adj = Adjacency::from_symmetric_csr(csr);
        let walk = AbsorbingWalk::new(&adj, &[0]);
        let t = walk.truncated_times(10);
        assert!(t[2].is_infinite());
        assert!(t[1].is_finite());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_absorbing_set_rejected() {
        let adj = path3();
        AbsorbingWalk::new(&adj, &[]);
    }

    #[test]
    fn duplicate_absorbing_nodes_counted_once() {
        let adj = path3();
        let walk = AbsorbingWalk::new(&adj, &[0, 0, 0]);
        assert_eq!(walk.n_absorbing(), 1);
    }
}
