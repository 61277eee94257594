//! Pre-normalized random-walk transition kernel.
//!
//! Every walk in this workspace moves with probability `p_ij = w_ij / d_i`
//! (Eq. 3 of the paper). The naive implementation recomputes that division
//! for every edge on every iteration of the truncated dynamic program — τ·m
//! divisions per query for τ iterations over m edges. [`TransitionMatrix`]
//! performs the normalization once, storing the row-stochastic kernel in CSR
//! form so the iteration kernels reduce to multiply-accumulate loops over
//! contiguous slices.

use crate::adjacency::Adjacency;

/// A row-stochastic transition kernel in CSR form.
///
/// Row `i` holds the out-transition probabilities of node `i`; rows of
/// zero-degree (dangling) nodes are empty. Each probability is the exact
/// rounded quotient `w_ij / d_i` the unnormalized code recomputed per
/// iteration, so kernel walks evaluate the same recursion (up to summation
/// order within a row).
///
/// A kernel induced by [`crate::SubgraphScratch`] is *tagged*: it records
/// which rows are users and which are items ([`TransitionMatrix::sides`]),
/// so the dynamic programs can sweep one side at a time. A kernel from
/// [`TransitionMatrix::from_adjacency`] is untagged.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionMatrix {
    pub(crate) row_ptr: Vec<usize>,
    pub(crate) col_idx: Vec<u32>,
    pub(crate) prob: Vec<f64>,
    pub(crate) degree: Vec<f64>,
    /// Whether `users` and `items` partition the rows.
    pub(crate) tagged: bool,
    /// Local ids of the user rows, ascending (tagged kernels only).
    pub(crate) users: Vec<u32>,
    /// Local ids of the item rows, ascending (tagged kernels only).
    pub(crate) items: Vec<u32>,
}

impl TransitionMatrix {
    /// An empty kernel over zero nodes (useful as reusable scratch — see
    /// [`crate::SubgraphScratch`]).
    pub fn empty() -> Self {
        Self {
            row_ptr: vec![0],
            col_idx: Vec::new(),
            prob: Vec::new(),
            degree: Vec::new(),
            tagged: false,
            users: Vec::new(),
            items: Vec::new(),
        }
    }

    /// Normalize an adjacency into its (untagged) transition kernel.
    /// O(n + m).
    pub fn from_adjacency(adj: &Adjacency) -> Self {
        let n = adj.n_nodes();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(adj.n_arcs());
        let mut prob = Vec::with_capacity(adj.n_arcs());
        let mut degree = Vec::with_capacity(n);
        row_ptr.push(0);
        for i in 0..n {
            let d = adj.degree(i);
            degree.push(d);
            if d > 0.0 {
                for (j, w) in adj.neighbors(i) {
                    col_idx.push(j);
                    prob.push(w / d);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Self {
            row_ptr,
            col_idx,
            prob,
            degree,
            tagged: false,
            users: Vec::new(),
            items: Vec::new(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.degree.len()
    }

    /// Number of stored transitions.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Targets and probabilities of node `i`'s out-transitions, as parallel
    /// slices. Empty for dangling nodes.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let span = self.row_ptr[i]..self.row_ptr[i + 1];
        (&self.col_idx[span.clone()], &self.prob[span])
    }

    /// Weighted degree the row was normalized by (0 for dangling nodes).
    #[inline]
    pub fn degree(&self, i: usize) -> f64 {
        self.degree[i]
    }

    /// Whether node `i` has no outgoing transitions.
    #[inline]
    pub fn is_dangling(&self, i: usize) -> bool {
        self.row_ptr[i] == self.row_ptr[i + 1]
    }

    /// The user rows and the item rows of a tagged kernel, as `(users,
    /// items)`: ascending local ids that together partition
    /// `0..n_nodes()`, with every transition leading from one side to the
    /// other. `None` for an untagged kernel, whose transitions may join any
    /// two nodes.
    #[inline]
    pub fn sides(&self) -> Option<(&[u32], &[u32])> {
        self.tagged.then_some((&self.users, &self.items))
    }

    /// Reset to an empty tagged kernel, retaining allocations: the caller
    /// records each node's side, then pushes its row.
    pub(crate) fn reset_tagged(&mut self) {
        self.row_ptr.clear();
        self.row_ptr.push(0);
        self.col_idx.clear();
        self.prob.clear();
        self.degree.clear();
        self.tagged = true;
        self.users.clear();
        self.items.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::BipartiteGraph;
    use crate::csr::CsrMatrix;

    fn tiny() -> Adjacency {
        let g = BipartiteGraph::from_ratings(
            2,
            3,
            &[(0, 0, 1.0), (0, 1, 2.0), (1, 1, 3.0), (1, 2, 4.0)],
        );
        Adjacency::from_bipartite(&g)
    }

    #[test]
    fn rows_are_stochastic() {
        let kernel = TransitionMatrix::from_adjacency(&tiny());
        for i in 0..kernel.n_nodes() {
            if kernel.is_dangling(i) {
                continue;
            }
            let (_, probs) = kernel.row(i);
            let sum: f64 = probs.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "row {i} sums to {sum}");
        }
    }

    #[test]
    fn probabilities_match_weight_over_degree() {
        let adj = tiny();
        let kernel = TransitionMatrix::from_adjacency(&adj);
        for i in 0..adj.n_nodes() {
            let (cols, probs) = kernel.row(i);
            let expected: Vec<(u32, f64)> = adj
                .neighbors(i)
                .map(|(j, w)| (j, w / adj.degree(i)))
                .collect();
            assert_eq!(cols.len(), expected.len());
            for (k, &(j, p)) in expected.iter().enumerate() {
                assert_eq!(cols[k], j);
                assert_eq!(probs[k], p, "exact division expected at ({i}, {j})");
            }
        }
    }

    #[test]
    fn dangling_nodes_have_empty_rows() {
        let csr = CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0), (1, 0, 1.0)]);
        let adj = Adjacency::from_symmetric_csr(csr);
        let kernel = TransitionMatrix::from_adjacency(&adj);
        assert!(kernel.is_dangling(2));
        assert_eq!(kernel.row(2), (&[][..], &[][..]));
        assert_eq!(kernel.degree(2), 0.0);
        assert!(!kernel.is_dangling(0));
    }

    #[test]
    fn empty_kernel_reset_reuses_allocations() {
        let mut k = TransitionMatrix::empty();
        assert_eq!(k.n_nodes(), 0);
        assert_eq!(k.sides(), None);
        k.reset_tagged();
        assert_eq!(k.n_nodes(), 0);
        assert_eq!(k.nnz(), 0);
        assert_eq!(k.sides(), Some((&[][..], &[][..])));
    }

    #[test]
    fn adjacency_kernels_are_untagged() {
        assert_eq!(TransitionMatrix::from_adjacency(&tiny()).sides(), None);
    }
}
