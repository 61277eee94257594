//! Reusable subgraph-extraction scratch for the query hot path.
//!
//! [`crate::Subgraph::bfs_from`] allocates a fresh `vec![ABSENT; n_nodes]`
//! id map (plus queue, CSR buffers and an `Adjacency`) on every call — an
//! `O(n_nodes)` allocation bill per query that dominates once the walk
//! itself is cheap. [`SubgraphScratch`] amortizes all of it: the global→local
//! map is one epoch-stamped mark array allocated once per context and
//! *never cleared* (a node is a member iff its stamp equals the current
//! epoch), and every other buffer — BFS queue, local id list, induced
//! transition kernel — is rebuilt in place, retaining capacity across
//! queries.
//!
//! `grow` visits nodes in exactly the same order as `Subgraph::bfs_from`,
//! so membership, id assignment and the item budget behave identically.
//! Kernel rows keep the *global* neighbor order of the bipartite CSR
//! instead of re-sorting by local id (the dynamic programs are
//! order-independent; only the last-ulp floating-point rounding of row sums
//! can differ from the owned-`Subgraph` path). The kernel is tagged with
//! each local node's side ([`TransitionMatrix::sides`]), recorded as the
//! BFS admits it.

use crate::transition::TransitionMatrix;
use crate::view::GraphView;
use std::collections::VecDeque;

/// Epoch stamp and local id of one global node, packed together so a
/// membership probe touches a single cache line.
#[derive(Debug, Clone, Copy, Default)]
struct Mark {
    stamp: u64,
    local: u32,
}

/// Reusable buffers for BFS subgraph extraction and induced-kernel
/// construction (Algorithm 1, step 2).
///
/// Create once per worker thread, call [`SubgraphScratch::grow`] per query,
/// then read the extracted neighborhood through the accessors. After `grow`
/// returns, no buffer holds stale data from previous queries.
#[derive(Debug, Clone)]
pub struct SubgraphScratch {
    /// Membership epoch: `marks[g].stamp == epoch` iff global node `g` is in
    /// the current subgraph.
    epoch: u64,
    marks: Vec<Mark>,
    global_of_local: Vec<usize>,
    queue: VecDeque<usize>,
    kernel: TransitionMatrix,
}

impl SubgraphScratch {
    /// Empty scratch; buffers size themselves lazily on first use.
    pub fn new() -> Self {
        Self {
            epoch: 0,
            marks: Vec::new(),
            global_of_local: Vec::new(),
            queue: VecDeque::new(),
            kernel: TransitionMatrix::empty(),
        }
    }

    /// Grow a BFS subgraph around `seeds` with item budget `max_items` and
    /// build its induced row-stochastic kernel, reusing every buffer.
    ///
    /// Node admission order and budget semantics match
    /// [`crate::Subgraph::bfs_from`] exactly (seeds always admitted; the
    /// frontier stops expanding once more than `max_items` item nodes are
    /// in; edges to non-members dropped; rows renormalized locally).
    ///
    /// # Panics
    ///
    /// Panics if any seed id is out of range.
    pub fn grow<G: GraphView>(&mut self, graph: &G, seeds: &[usize], max_items: usize) {
        let n = graph.n_nodes();
        if self.marks.len() < n {
            self.marks.resize(n, Mark::default());
        }
        self.epoch += 1;
        self.global_of_local.clear();
        self.kernel.reset_tagged();
        self.queue.clear();

        let n_users = graph.n_users();
        for &seed in seeds {
            assert!(seed < n, "seed node {seed} out of range");
            if self.admit(n_users, seed) {
                self.queue.push_back(seed);
            }
        }

        while let Some(node) = self.queue.pop_front() {
            if self.n_items() > max_items {
                // Budget exhausted: stop growing, keep what we have.
                break;
            }
            // BFS needs neighbor ids only; weights are read in build_kernel.
            graph.for_each_edge(node, |nbr, _| {
                if self.admit(n_users, nbr) {
                    self.queue.push_back(nbr);
                }
            });
        }

        self.build_kernel(graph);
    }

    /// Admit `node` if unseen this epoch, recording its side on the
    /// kernel; returns whether it was new.
    #[inline]
    fn admit(&mut self, n_users: usize, node: usize) -> bool {
        let mark = &mut self.marks[node];
        if mark.stamp == self.epoch {
            return false;
        }
        mark.stamp = self.epoch;
        let local = self.global_of_local.len() as u32;
        mark.local = local;
        self.global_of_local.push(node);
        if node >= n_users {
            self.kernel.items.push(local);
        } else {
            self.kernel.users.push(local);
        }
        true
    }

    /// Build the induced kernel over the admitted nodes: keep edges whose
    /// endpoints are both members, renormalize each row by its induced
    /// degree in place.
    fn build_kernel<G: GraphView>(&mut self, graph: &G) {
        let epoch = self.epoch;
        let n_users = graph.n_users();
        let kernel = &mut self.kernel;
        let marks = &self.marks;
        for &global in &self.global_of_local {
            let start = kernel.col_idx.len();
            let mut d = 0.0;
            graph.for_each_edge(global, |nbr, w| {
                let mark = marks[nbr];
                if mark.stamp == epoch {
                    // The side tags promise the DP that every transition
                    // crosses sides.
                    debug_assert_ne!(global < n_users, nbr < n_users, "edge within a side");
                    kernel.col_idx.push(mark.local);
                    kernel.prob.push(w);
                    d += w;
                }
            });
            kernel.degree.push(d);
            if d > 0.0 {
                // Divide (not multiply by a precomputed reciprocal): `w / d`
                // must round exactly like the textbook formulation so kernel
                // walks stay bit-compatible with the unnormalized code.
                for p in &mut kernel.prob[start..] {
                    *p /= d;
                }
            }
            kernel.row_ptr.push(kernel.col_idx.len());
        }
    }

    /// The induced row-stochastic kernel of the last [`SubgraphScratch::grow`].
    #[inline]
    pub fn kernel(&self) -> &TransitionMatrix {
        &self.kernel
    }

    /// Number of nodes retained by the last `grow`.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.global_of_local.len()
    }

    /// Number of item nodes retained by the last `grow`.
    #[inline]
    pub fn n_items(&self) -> usize {
        self.kernel.items.len()
    }

    /// Local id of a global node, if retained by the last `grow`.
    #[inline]
    pub fn local_id(&self, global: usize) -> Option<u32> {
        match self.marks.get(global) {
            Some(mark) if mark.stamp == self.epoch => Some(mark.local),
            _ => None,
        }
    }

    /// Global ids in local order for the last `grow`.
    #[inline]
    pub fn global_ids(&self) -> &[usize] {
        &self.global_of_local
    }
}

impl Default for SubgraphScratch {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::BipartiteGraph;
    use crate::Subgraph;

    /// Same example graph as Figure 2 of the paper.
    fn figure2_graph() -> BipartiteGraph {
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
        BipartiteGraph::from_ratings(5, 6, &ratings)
    }

    /// A kernel row as `(target, probability)` pairs sorted by target, for
    /// order-insensitive comparison.
    fn sorted_row(kernel: &TransitionMatrix, i: usize) -> Vec<(u32, f64)> {
        let (cols, probs) = kernel.row(i);
        let mut row: Vec<(u32, f64)> = cols.iter().copied().zip(probs.iter().copied()).collect();
        row.sort_unstable_by_key(|&(c, _)| c);
        row
    }

    /// The scratch must agree with the owned Subgraph on membership, id
    /// mapping and the induced kernel (up to within-row edge order and the
    /// consequent last-ulp rounding of the row normalizer), for a variety of
    /// seeds and budgets.
    fn assert_matches_subgraph(graph: &BipartiteGraph, seeds: &[usize], budget: usize) {
        let reference = Subgraph::bfs_from(graph, seeds, budget);
        let ref_kernel = TransitionMatrix::from_adjacency(reference.adjacency());
        let mut scratch = SubgraphScratch::new();
        scratch.grow(graph, seeds, budget);

        assert_eq!(scratch.n_nodes(), reference.n_nodes());
        assert_eq!(scratch.n_items(), reference.n_items());
        assert_eq!(scratch.global_ids(), reference.global_ids());
        for g in 0..graph.n_nodes() {
            assert_eq!(scratch.local_id(g), reference.local_id(g), "node {g}");
        }
        // The side tags partition the local ids by `global < n_users`.
        let (users, items) = scratch.kernel().sides().expect("tagged kernel");
        let (expected_users, expected_items): (Vec<u32>, Vec<u32>) = (0..scratch.n_nodes() as u32)
            .partition(|&local| scratch.global_ids()[local as usize] < graph.n_users());
        assert_eq!(users, expected_users);
        assert_eq!(items, expected_items);
        assert_eq!(scratch.kernel().n_nodes(), ref_kernel.n_nodes());
        for i in 0..ref_kernel.n_nodes() {
            let got = sorted_row(scratch.kernel(), i);
            let expected = sorted_row(&ref_kernel, i);
            assert_eq!(got.len(), expected.len(), "row {i}");
            for (&(gc, gp), &(ec, ep)) in got.iter().zip(expected.iter()) {
                assert_eq!(gc, ec, "row {i}");
                assert!(
                    (gp - ep).abs() <= 1e-15 * (1.0 + ep.abs()),
                    "row {i} target {gc}: {gp} vs {ep}"
                );
            }
        }
    }

    #[test]
    fn matches_subgraph_across_budgets() {
        let g = figure2_graph();
        for budget in [0, 1, 2, 6, usize::MAX] {
            assert_matches_subgraph(&g, &[g.user_node(4)], budget);
            assert_matches_subgraph(&g, &[g.item_node(1), g.item_node(2)], budget);
        }
    }

    #[test]
    fn rows_are_stochastic() {
        let g = figure2_graph();
        let mut scratch = SubgraphScratch::new();
        scratch.grow(&g, &[g.user_node(0)], 3);
        for i in 0..scratch.n_nodes() {
            let (_, probs) = scratch.kernel().row(i);
            if !probs.is_empty() {
                let sum: f64 = probs.iter().sum();
                assert!((sum - 1.0).abs() < 1e-12, "row {i} sums to {sum}");
            }
        }
    }

    #[test]
    fn reuse_across_queries_leaves_no_stale_state() {
        let g = figure2_graph();
        let mut scratch = SubgraphScratch::new();
        // A big query first, then a tiny one: stale members of the first
        // must be invisible to the second.
        scratch.grow(&g, &[g.user_node(4)], usize::MAX);
        assert_eq!(scratch.n_nodes(), g.n_nodes());
        scratch.grow(&g, &[g.item_node(3)], 0);
        assert_eq!(scratch.n_nodes(), 1);
        assert_eq!(scratch.local_id(g.item_node(3)), Some(0));
        assert_eq!(scratch.local_id(g.user_node(0)), None);
        // And the result still matches a fresh Subgraph.
        assert_matches_subgraph(&g, &[g.item_node(3)], 0);
    }

    #[test]
    fn reuse_across_graphs_of_same_size() {
        let g1 = figure2_graph();
        let g2 = BipartiteGraph::from_ratings(5, 6, &[(0, 0, 1.0), (4, 5, 2.0)]);
        let mut scratch = SubgraphScratch::new();
        scratch.grow(&g1, &[g1.user_node(0)], usize::MAX);
        scratch.grow(&g2, &[g2.user_node(0)], usize::MAX);
        assert_eq!(scratch.n_nodes(), 2);
        assert_eq!(scratch.local_id(g2.item_node(0)), Some(1));
        assert_eq!(scratch.local_id(g2.item_node(5)), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_seed_panics() {
        let g = figure2_graph();
        SubgraphScratch::new().grow(&g, &[g.n_nodes()], 10);
    }
}
