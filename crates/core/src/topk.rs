//! Top-k selection over item score vectors.
//!
//! Two forms of the same selection: [`top_k`] scans a fully materialized
//! score vector, while [`TopKCollector`] is the *fused* primitive the
//! recommenders push candidates into during scoring, so a top-k query never
//! has to build (or sort) an `O(n_items)` vector at all. Both produce
//! identical lists: the `k` highest finite scores, ties broken by ascending
//! item id.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An item with its recommendation score (higher is better).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredItem {
    /// Item index.
    pub item: u32,
    /// Model score; semantics differ per recommender (negated absorbing
    /// time, PageRank mass, predicted rating, ...), but ordering is always
    /// "higher = more recommended".
    pub score: f64,
}

/// Orderable heap entry: by score, then by *descending* id so that the heap
/// evicts higher ids first and ties resolve to ascending id in the output.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry(f64, Reverse<u32>);
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

/// True when candidate `(score_a, item_a)` strictly outranks
/// `(score_b, item_b)` under the collector order: higher score wins, equal
/// scores resolve to the lower item id.
///
/// This is the *one* comparison every fused pruning decision must use.
/// Comparing raw scores against [`TopKCollector::threshold`] drops the id
/// half of the order and silently rejects candidates that tie the k-th best
/// score with a lower id.
#[inline]
pub(crate) fn outranks(score_a: f64, item_a: u32, score_b: f64, item_b: u32) -> bool {
    Entry(score_a, Reverse(item_a)) > Entry(score_b, Reverse(item_b))
}

/// A bounded min-heap accumulating the `k` best `(item, score)` pairs.
///
/// The fused serving primitive: recommenders push every candidate they can
/// score and the collector keeps only the top `k`, so a query's memory and
/// sorting cost is `O(k)` no matter how many candidates flow through.
/// Pushes of NaN or `-∞` scores are ignored (such items are never
/// recommended), ties are broken by ascending item id, and the final
/// ordering is independent of push order.
///
/// The collector is reusable: [`TopKCollector::reset`] rearms it for a new
/// query retaining the heap allocation, which is how the one inside
/// [`crate::ScoringContext`] serves an entire batch without allocating.
#[derive(Debug, Clone, Default)]
pub struct TopKCollector {
    k: usize,
    heap: BinaryHeap<Reverse<Entry>>,
}

impl TopKCollector {
    /// A collector retaining the best `k` items. It allocates as items
    /// arrive, so a huge `k` costs nothing up front.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            heap: BinaryHeap::new(),
        }
    }

    /// Discard any collected items and rearm for a new query retaining the
    /// best `k`, keeping the heap allocation.
    pub fn reset(&mut self, k: usize) {
        self.k = k;
        self.heap.clear();
    }

    /// The `k` this collector was last armed with.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of items currently held (at most `k`).
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no item has been collected.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The current k-th best *score*, once `k` items are held.
    ///
    /// This is a telemetry/diagnostic view only: because admission also
    /// tie-breaks on ascending item id, a pruning rule of the form
    /// `score <= threshold → skip` silently drops a candidate that ties the
    /// k-th best score with a *lower* id. Every actual pruning decision
    /// must go through [`TopKCollector::would_accept`], which performs the
    /// full `(score desc, id asc)` comparison.
    #[inline]
    pub fn threshold(&self) -> Option<f64> {
        if self.heap.len() == self.k {
            self.heap.peek().map(|Reverse(Entry(s, _))| *s)
        } else {
            None
        }
    }

    /// Whether [`TopKCollector::push`] of `(item, score)` would admit the
    /// candidate right now, without pushing it: true while the collector is
    /// not yet full, and thereafter iff the candidate beats the current
    /// k-th best under the full `(score desc, item id asc)` order — the
    /// same tie semantics as admission itself, unlike a raw comparison
    /// against [`TopKCollector::threshold`].
    ///
    /// This is the sound pruning primitive for fused scoring loops (the
    /// walk family's rank-stability probe uses it to decide whether an
    /// outside candidate can still enter a decayed top-k).
    #[inline]
    pub fn would_accept(&self, item: u32, score: f64) -> bool {
        if self.k == 0 || score.is_nan() || score == f64::NEG_INFINITY {
            return false;
        }
        if self.heap.len() < self.k {
            return true;
        }
        match self.heap.peek() {
            Some(&Reverse(min)) => Entry(score, Reverse(item)) > min,
            None => true,
        }
    }

    /// Offer a candidate. NaN and `-∞` scores are ignored; otherwise the
    /// candidate enters iff it beats the current k-th best under the
    /// (score desc, item id asc) order.
    #[inline]
    pub fn push(&mut self, item: u32, score: f64) {
        if self.k == 0 || score.is_nan() || score == f64::NEG_INFINITY {
            return;
        }
        let entry = Entry(score, Reverse(item));
        if self.heap.len() == self.k {
            // Full: only displace the current minimum if strictly better.
            match self.heap.peek() {
                Some(&Reverse(min)) if entry > min => {
                    self.heap.pop();
                    self.heap.push(Reverse(entry));
                }
                _ => {}
            }
        } else {
            self.heap.push(Reverse(entry));
        }
    }

    /// Drain the collected items into `out` (cleared first), sorted by
    /// descending score then ascending item id, leaving the collector empty
    /// but its allocation intact for the next [`TopKCollector::reset`].
    pub fn drain_sorted_into(&mut self, out: &mut Vec<ScoredItem>) {
        out.clear();
        out.extend(
            self.heap
                .drain()
                .map(|Reverse(Entry(score, Reverse(item)))| ScoredItem { item, score }),
        );
        out.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.item.cmp(&b.item)));
    }

    /// Consume the collector into a sorted list (see
    /// [`TopKCollector::drain_sorted_into`]).
    pub fn into_sorted(mut self) -> Vec<ScoredItem> {
        let mut out = Vec::with_capacity(self.heap.len());
        self.drain_sorted_into(&mut out);
        out
    }
}

/// Select the `k` highest-scoring items, skipping those for which `exclude`
/// returns true and those scored `-∞` or NaN.
///
/// Ties are broken by ascending item id, making results deterministic.
/// Runs in `O(n log k)` via a [`TopKCollector`]; fused recommenders feed the
/// same collector directly and must match this function item for item.
pub fn top_k(scores: &[f64], k: usize, mut exclude: impl FnMut(u32) -> bool) -> Vec<ScoredItem> {
    let mut collector = TopKCollector::new(k);
    // The heap never holds more than `k` entries, nor more than there are
    // scores.
    collector.heap.reserve(k.min(scores.len()));
    for (i, &s) in scores.iter().enumerate() {
        let i = i as u32;
        if !exclude(i) {
            collector.push(i, s);
        }
    }
    collector.into_sorted()
}

/// Rank of `target` within `candidates` when ordered by descending score
/// (0-based; ties resolved by ascending item id, consistently with
/// [`top_k`]). Returns `None` if `target` is not among the candidates, and
/// also when `target`'s own score is NaN or `-∞` — an unscorable item can
/// never appear in a top-k list, so it has no rank (previously such targets
/// were ranked by id against equally unscorable candidates, which let a
/// recommender earn recall credit for items it cannot reach at all).
///
/// This is the primitive behind Recall@N: the held-out favourite's rank
/// among the 1000 sampled distractors.
pub fn rank_of(scores: &[f64], candidates: &[u32], target: u32) -> Option<usize> {
    let target_score = scores[target as usize];
    if target_score.is_nan() || target_score == f64::NEG_INFINITY {
        return None;
    }
    let mut found = false;
    let mut rank = 0usize;
    for &c in candidates {
        if c == target {
            found = true;
            continue;
        }
        let s = scores[c as usize];
        match s.total_cmp(&target_score) {
            std::cmp::Ordering::Greater => rank += 1,
            std::cmp::Ordering::Equal if c < target => rank += 1,
            _ => {}
        }
    }
    found.then_some(rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_highest_scores() {
        let scores = [0.1, 0.9, 0.5, 0.7];
        let top = top_k(&scores, 2, |_| false);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].item, 1);
        assert_eq!(top[1].item, 3);
    }

    #[test]
    fn excludes_filtered_items() {
        let scores = [0.1, 0.9, 0.5];
        let top = top_k(&scores, 2, |i| i == 1);
        assert_eq!(top[0].item, 2);
        assert_eq!(top[1].item, 0);
    }

    #[test]
    fn skips_neg_infinity_and_nan() {
        let scores = [f64::NEG_INFINITY, f64::NAN, 0.3];
        let top = top_k(&scores, 3, |_| false);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].item, 2);
    }

    #[test]
    fn ties_resolve_to_ascending_ids() {
        let scores = [0.5, 0.5, 0.5, 0.5];
        let top = top_k(&scores, 2, |_| false);
        assert_eq!(top[0].item, 0);
        assert_eq!(top[1].item, 1);
    }

    #[test]
    fn k_larger_than_catalog() {
        let scores = [0.2, 0.4];
        for k in [10, usize::MAX] {
            let top = top_k(&scores, k, |_| false);
            assert_eq!(top.len(), 2, "k = {k}");
        }
    }

    #[test]
    fn k_zero_is_empty() {
        assert!(top_k(&[1.0], 0, |_| false).is_empty());
    }

    #[test]
    fn all_items_excluded_is_empty() {
        let scores = [0.2, 0.4, 0.9];
        assert!(top_k(&scores, 3, |_| true).is_empty());
    }

    #[test]
    fn collector_k_zero_ignores_pushes() {
        let mut c = TopKCollector::new(0);
        c.push(0, 1.0);
        c.push(1, 2.0);
        assert!(c.is_empty());
        assert!(c.into_sorted().is_empty());
    }

    #[test]
    fn collector_k_beyond_candidates_keeps_all() {
        let mut c = TopKCollector::new(10);
        c.push(2, 0.5);
        c.push(0, 0.1);
        let out = c.into_sorted();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].item, 2);
        assert_eq!(out[1].item, 0);
    }

    #[test]
    fn collector_ignores_nan_and_neg_infinity() {
        let mut c = TopKCollector::new(4);
        c.push(0, f64::NAN);
        c.push(1, f64::NEG_INFINITY);
        c.push(2, f64::INFINITY);
        c.push(3, -1.0);
        let out = c.into_sorted();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].item, 2); // +∞ is a (degenerate) valid score
        assert_eq!(out[1].item, 3);
    }

    #[test]
    fn collector_all_ties_keep_lowest_ids_regardless_of_push_order() {
        for order in [[3u32, 1, 0, 2], [0, 1, 2, 3], [2, 0, 3, 1]] {
            let mut c = TopKCollector::new(2);
            for item in order {
                c.push(item, 0.5);
            }
            let out = c.into_sorted();
            assert_eq!(out.len(), 2);
            assert_eq!((out[0].item, out[1].item), (0, 1), "order {order:?}");
        }
    }

    #[test]
    fn collector_threshold_tracks_kth_best() {
        let mut c = TopKCollector::new(2);
        assert_eq!(c.threshold(), None);
        c.push(0, 1.0);
        assert_eq!(c.threshold(), None); // not yet full
        c.push(1, 3.0);
        assert_eq!(c.threshold(), Some(1.0));
        c.push(2, 2.0); // displaces item 0
        assert_eq!(c.threshold(), Some(2.0));
        c.push(3, 0.5); // below threshold: rejected
        let out = c.into_sorted();
        assert_eq!(out[0].item, 1);
        assert_eq!(out[1].item, 2);
    }

    #[test]
    fn would_accept_admits_threshold_tie_with_lower_id() {
        // Regression: `threshold()` alone is tie-blind. A candidate that
        // ties the k-th best score with a LOWER id is admitted by `push`,
        // so `would_accept` must say so — while the naive
        // `score > threshold` prune would wrongly skip it.
        let mut c = TopKCollector::new(2);
        c.push(3, 0.9);
        c.push(7, 0.5); // k-th best: (0.5, id 7)
        assert_eq!(c.threshold(), Some(0.5));

        // Tied score, lower id: naive threshold pruning drops it...
        let naive_prune_keeps = 0.5 > c.threshold().unwrap();
        assert!(!naive_prune_keeps, "the naive rule rejects the tie");
        // ...but admission accepts it, and would_accept agrees.
        assert!(c.would_accept(5, 0.5));
        c.push(5, 0.5);
        let out = c.clone().into_sorted();
        assert_eq!((out[0].item, out[1].item), (3, 5), "id 5 displaced id 7");

        // Tied score, higher id: correctly rejected by both.
        assert!(!c.would_accept(9, 0.5));
        // Strictly below: rejected.
        assert!(!c.would_accept(0, 0.4));
        // Strictly above: accepted.
        assert!(c.would_accept(9, 0.6));
    }

    #[test]
    fn would_accept_matches_push_on_edge_inputs() {
        let mut c = TopKCollector::new(1);
        assert!(!c.would_accept(0, f64::NAN));
        assert!(!c.would_accept(0, f64::NEG_INFINITY));
        assert!(c.would_accept(0, f64::INFINITY));
        assert!(c.would_accept(0, -1.0), "not yet full: anything finite");
        c.push(0, -1.0);
        assert!(c.would_accept(1, 0.0));
        assert!(!c.would_accept(1, -1.0), "tie with higher id loses");
        assert!(!TopKCollector::new(0).would_accept(0, 1.0));
    }

    #[test]
    fn outranks_is_the_collector_order() {
        assert!(outranks(1.0, 5, 0.5, 2));
        assert!(!outranks(0.5, 2, 1.0, 5));
        // Ties: lower id outranks.
        assert!(outranks(0.5, 2, 0.5, 5));
        assert!(!outranks(0.5, 5, 0.5, 2));
        assert!(!outranks(0.5, 2, 0.5, 2));
    }

    #[test]
    fn collector_reset_clears_previous_query() {
        let mut c = TopKCollector::new(3);
        c.push(0, 9.0);
        c.push(1, 8.0);
        c.reset(1);
        assert!(c.is_empty());
        assert_eq!(c.k(), 1);
        c.push(5, 0.25);
        let mut out = vec![ScoredItem {
            item: 99,
            score: 0.0,
        }];
        c.drain_sorted_into(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].item, 5);
        assert_eq!(out[0].score, 0.25);
    }

    #[test]
    fn collector_matches_top_k_on_mixed_input() {
        let scores = [0.3, f64::NAN, 0.8, f64::NEG_INFINITY, 0.8, 0.1, 0.9];
        for k in 0..=8 {
            let via_scan = top_k(&scores, k, |i| i == 5);
            let mut c = TopKCollector::new(k);
            // Push in a scrambled order to exercise order independence.
            for &i in &[6u32, 0, 2, 1, 4, 3] {
                c.push(i, scores[i as usize]);
            }
            assert_eq!(c.into_sorted(), via_scan, "k={k}");
        }
    }

    #[test]
    fn rank_of_counts_strictly_better_candidates() {
        let scores = [0.9, 0.1, 0.5, 0.7];
        // target = 1 (0.1); candidates all.
        assert_eq!(rank_of(&scores, &[0, 1, 2, 3], 1), Some(3));
        assert_eq!(rank_of(&scores, &[0, 1], 0), Some(0));
    }

    #[test]
    fn rank_of_breaks_ties_by_id() {
        let scores = [0.5, 0.5, 0.5];
        // Equal scores: lower ids rank ahead.
        assert_eq!(rank_of(&scores, &[0, 1, 2], 1), Some(1));
        assert_eq!(rank_of(&scores, &[0, 1, 2], 0), Some(0));
        assert_eq!(rank_of(&scores, &[0, 1, 2], 2), Some(2));
    }

    #[test]
    fn rank_of_missing_target() {
        assert_eq!(rank_of(&[0.1, 0.2], &[0], 1), None);
    }

    #[test]
    fn rank_of_unscorable_target_has_no_rank() {
        // An item the model cannot reach is never in a top-k list, so it
        // must not earn a rank by id tie-breaking against other -∞ scores.
        let scores = [f64::NEG_INFINITY, f64::NEG_INFINITY, 0.5];
        assert_eq!(rank_of(&scores, &[0, 1, 2], 0), None);
        let nan_scores = [f64::NAN, 0.5];
        assert_eq!(rank_of(&nan_scores, &[0, 1], 0), None);
    }

    #[test]
    fn rank_consistent_with_top_k() {
        let scores = [0.3, 0.8, 0.8, 0.1, 0.9];
        let candidates = [0u32, 1, 2, 3, 4];
        let top = top_k(&scores, 5, |_| false);
        for (pos, si) in top.iter().enumerate() {
            assert_eq!(rank_of(&scores, &candidates, si.item), Some(pos));
        }
    }
}
