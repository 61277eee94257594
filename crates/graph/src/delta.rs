//! Streaming rating deltas and the base + delta overlay view.
//!
//! The base [`crate::BipartiteGraph`] is a frozen CSR — appending one edge
//! would mean rebuilding both adjacency blocks. [`EdgeDelta`] holds the
//! streamed `(user, item, weight, timestamp)` appends in a per-row sorted
//! side structure instead, and [`OverlayGraph`] presents base + delta as
//! one merged [`GraphView`]: each row is the sorted merge of the base CSR
//! row and the delta row, duplicate edges summed. Because the walk kernels
//! renormalize rows by their *induced* degree at query time
//! ([`crate::SubgraphScratch::grow`]), touched rows come out row-stochastic
//! automatically — no base state is ever mutated.
//!
//! The merged row visits targets in ascending id order with weights that
//! are exact sums of the contributing ratings — the same order and the same
//! sums [`crate::CsrMatrix::from_triplets`] produces for the union of the
//! ratings. With exactly representable rating values (integer stars),
//! overlay kernels are therefore bit-identical to kernels of a graph
//! rebuilt from scratch, which is what the overlay-equivalence property
//! suite pins.

use crate::bipartite::BipartiteGraph;
use crate::view::GraphView;
use std::collections::HashMap;

/// One delta edge: target id, accumulated weight, latest timestamp.
type DeltaEdge = (u32, f64, f64);

/// An append-only set of rating edges on top of a frozen base graph.
///
/// Rows are kept sorted by target id; re-rating an existing pair sums the
/// weights (the multigraph collapse of §3.1, same as CSR construction) and
/// keeps the latest timestamp. Dimensions grow to admit new users and new
/// items beyond the base graph's.
#[derive(Debug, Clone, Default)]
pub struct EdgeDelta {
    n_users: usize,
    n_items: usize,
    by_user: HashMap<u32, Vec<DeltaEdge>>,
    by_item: HashMap<u32, Vec<DeltaEdge>>,
    n_edges: usize,
}

impl EdgeDelta {
    /// An empty delta sized for a base of `n_users` × `n_items`.
    pub fn new(n_users: usize, n_items: usize) -> Self {
        Self {
            n_users,
            n_items,
            ..Self::default()
        }
    }

    /// User-dimension of the delta (≥ the base's once a new user appends).
    #[inline]
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// Item-dimension of the delta.
    #[inline]
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Number of distinct `(user, item)` delta edges.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// Whether no edges have been appended.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n_edges == 0
    }

    /// Append one rating edge.
    ///
    /// # Panics
    ///
    /// Panics on a weight that is not finite and positive: a zero or
    /// negative weight has no interpretation as an edge, and an infinite
    /// one would make every normalized row it enters NaN.
    pub fn insert(&mut self, user: u32, item: u32, weight: f64, timestamp: f64) {
        assert!(
            weight.is_finite() && weight > 0.0,
            "delta weights must be finite and positive, got {weight}"
        );
        self.n_users = self.n_users.max(user as usize + 1);
        self.n_items = self.n_items.max(item as usize + 1);
        let fresh = Self::upsert(
            self.by_user.entry(user).or_default(),
            item,
            weight,
            timestamp,
        );
        Self::upsert(
            self.by_item.entry(item).or_default(),
            user,
            weight,
            timestamp,
        );
        if fresh {
            self.n_edges += 1;
        }
    }

    /// Sum `weight` into the row entry for `target` (insert sorted if new);
    /// returns whether the entry is new.
    fn upsert(row: &mut Vec<DeltaEdge>, target: u32, weight: f64, timestamp: f64) -> bool {
        match row.binary_search_by_key(&target, |&(t, _, _)| t) {
            Ok(pos) => {
                row[pos].1 += weight;
                row[pos].2 = row[pos].2.max(timestamp);
                false
            }
            Err(pos) => {
                row.insert(pos, (target, weight, timestamp));
                true
            }
        }
    }

    /// The delta edges of user `u`, sorted by item id (empty if untouched).
    #[inline]
    pub fn user_row(&self, u: u32) -> &[DeltaEdge] {
        self.by_user.get(&u).map_or(&[], Vec::as_slice)
    }

    /// The delta edges of item `i`, sorted by user id (empty if untouched).
    #[inline]
    pub fn item_row(&self, i: u32) -> &[DeltaEdge] {
        self.by_item.get(&i).map_or(&[], Vec::as_slice)
    }

    /// Whether user `u` has any delta edges.
    #[inline]
    pub fn touches_user(&self, u: u32) -> bool {
        self.by_user.contains_key(&u)
    }

    /// Visit every delta edge as `(user, item, weight, timestamp)`, in
    /// ascending `(user, item)` order.
    pub fn for_each(&self, mut f: impl FnMut(u32, u32, f64, f64)) {
        let mut users: Vec<u32> = self.by_user.keys().copied().collect();
        users.sort_unstable();
        for u in users {
            for &(i, w, t) in &self.by_user[&u] {
                f(u, i, w, t);
            }
        }
    }
}

/// Merge a base CSR row (targets + weights + optional times) with a delta
/// row, both sorted ascending, visiting `(flat_id, weight, time)` with
/// duplicate targets summed (times maxed). `shift` lifts the stored target
/// ids into the flat node space.
fn merge_rows(
    base_cols: &[u32],
    base_w: &[f64],
    base_t: Option<&[f64]>,
    delta: &[DeltaEdge],
    shift: usize,
    f: &mut impl FnMut(usize, f64, f64),
) {
    let bt = |k: usize| base_t.map_or(0.0, |t| t[k]);
    let (mut i, mut j) = (0usize, 0usize);
    while i < base_cols.len() && j < delta.len() {
        let (dc, dw, dt) = delta[j];
        match base_cols[i].cmp(&dc) {
            std::cmp::Ordering::Less => {
                f(base_cols[i] as usize + shift, base_w[i], bt(i));
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                f(dc as usize + shift, dw, dt);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                f(dc as usize + shift, base_w[i] + dw, bt(i).max(dt));
                i += 1;
                j += 1;
            }
        }
    }
    for k in i..base_cols.len() {
        f(base_cols[k] as usize + shift, base_w[k], bt(k));
    }
    for &(dc, dw, dt) in &delta[j..] {
        f(dc as usize + shift, dw, dt);
    }
}

/// Base graph + delta edges presented as one merged [`GraphView`].
///
/// Dimensions are the delta's (which are at least the base's), so users and
/// items that only exist in the delta are full-fledged nodes. Walk queries
/// score over this view without any rebuild; compaction later folds the
/// delta into a fresh base.
#[derive(Debug, Clone, Copy)]
pub struct OverlayGraph<'a> {
    base: &'a BipartiteGraph,
    delta: &'a EdgeDelta,
}

impl<'a> OverlayGraph<'a> {
    /// View `base` with `delta` merged in.
    ///
    /// # Panics
    ///
    /// Panics if the delta's dimensions are smaller than the base's (a
    /// delta built for a different graph).
    pub fn new(base: &'a BipartiteGraph, delta: &'a EdgeDelta) -> Self {
        assert!(
            delta.n_users() >= base.n_users() && delta.n_items() >= base.n_items(),
            "delta dimensions {}x{} smaller than base {}x{}",
            delta.n_users(),
            delta.n_items(),
            base.n_users(),
            base.n_items()
        );
        Self { base, delta }
    }

    /// The frozen base graph.
    #[inline]
    pub fn base(&self) -> &'a BipartiteGraph {
        self.base
    }

    /// The delta being overlaid.
    #[inline]
    pub fn delta(&self) -> &'a EdgeDelta {
        self.delta
    }
}

impl GraphView for OverlayGraph<'_> {
    #[inline]
    fn n_users(&self) -> usize {
        self.delta.n_users()
    }

    #[inline]
    fn n_items(&self) -> usize {
        self.delta.n_items()
    }

    #[inline]
    fn for_each_edge(&self, node: usize, mut f: impl FnMut(usize, f64)) {
        self.for_each_edge_timed(node, |nbr, w, _| f(nbr, w));
    }

    fn for_each_edge_timed(&self, node: usize, mut f: impl FnMut(usize, f64, f64)) {
        let n_users = self.n_users();
        if node < n_users {
            let u = node as u32;
            let (cols, w, t) = if node < self.base.n_users() {
                let (cols, w) = self.base.user_items().row(node);
                (cols, w, self.base.user_item_times().map(|m| m.row(node).1))
            } else {
                (&[][..], &[][..], None)
            };
            merge_rows(cols, w, t, self.delta.user_row(u), n_users, &mut f);
        } else {
            let i = node - n_users;
            let (cols, w, t) = if i < self.base.n_items() {
                let (cols, w) = self.base.item_users().row(i);
                (cols, w, self.base.item_user_times().map(|m| m.row(i).1))
            } else {
                (&[][..], &[][..], None)
            };
            merge_rows(cols, w, t, self.delta.item_row(i as u32), 0, &mut f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrMatrix;

    fn base() -> BipartiteGraph {
        BipartiteGraph::from_ratings(2, 3, &[(0, 0, 5.0), (0, 1, 3.0), (1, 1, 4.0), (1, 2, 2.0)])
    }

    fn row(view: &impl GraphView, node: usize) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        view.for_each_edge(node, |nbr, w| out.push((nbr, w)));
        out
    }

    #[test]
    fn delta_sums_duplicates_and_grows_dims() {
        let mut d = EdgeDelta::new(2, 3);
        d.insert(0, 2, 1.0, 10.0);
        d.insert(0, 2, 2.0, 20.0);
        d.insert(3, 4, 5.0, 30.0);
        assert_eq!(d.n_edges(), 2);
        assert_eq!(d.n_users(), 4);
        assert_eq!(d.n_items(), 5);
        assert_eq!(d.user_row(0), &[(2, 3.0, 20.0)]);
        assert_eq!(d.item_row(2), &[(0, 3.0, 20.0)]);
        assert!(d.touches_user(3) && !d.touches_user(1));
        let mut edges = Vec::new();
        d.for_each(|u, i, w, t| edges.push((u, i, w, t)));
        assert_eq!(edges, vec![(0, 2, 3.0, 20.0), (3, 4, 5.0, 30.0)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn delta_rejects_zero_weight() {
        EdgeDelta::new(1, 1).insert(0, 0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn delta_rejects_infinite_weight() {
        EdgeDelta::new(1, 1).insert(0, 0, f64::INFINITY, 0.0);
    }

    #[test]
    fn overlay_rows_equal_rebuilt_graph_rows() {
        let g = base();
        let mut d = EdgeDelta::new(2, 3);
        d.insert(0, 1, 2.0, 0.0); // re-rate an existing pair: weights sum
        d.insert(1, 0, 1.0, 0.0); // new edge on existing nodes
        d.insert(2, 3, 4.0, 0.0); // brand-new user and item
        let overlay = OverlayGraph::new(&g, &d);
        assert_eq!(overlay.n_users(), 3);
        assert_eq!(overlay.n_items(), 4);

        let rebuilt = BipartiteGraph::from_user_item_matrix(CsrMatrix::from_triplets(
            3,
            4,
            &[
                (0, 0, 5.0),
                (0, 1, 3.0),
                (1, 1, 4.0),
                (1, 2, 2.0),
                (0, 1, 2.0),
                (1, 0, 1.0),
                (2, 3, 4.0),
            ],
        ));
        for node in 0..overlay.n_nodes() {
            assert_eq!(row(&overlay, node), row(&rebuilt, node), "node {node}");
        }
    }

    #[test]
    fn empty_delta_overlay_is_the_base() {
        let g = base();
        let d = EdgeDelta::new(2, 3);
        let overlay = OverlayGraph::new(&g, &d);
        for node in 0..g.n_nodes() {
            assert_eq!(row(&overlay, node), row(&g, node), "node {node}");
        }
    }

    #[test]
    #[should_panic(expected = "smaller than base")]
    fn undersized_delta_rejected() {
        let g = base();
        OverlayGraph::new(&g, &EdgeDelta::new(1, 1));
    }
}
