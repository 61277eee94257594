//! Post-scoring long-tail quality re-ranking.
//!
//! The walk scorers rank purely by proximity, which concentrates exposure
//! on the short head — the exact failure mode the paper measures against
//! (§5's coverage and diversity tables). This module re-ranks a top-`4k`
//! candidate pool *after* scoring, so it composes with every fused serving
//! path (adaptive stopping, overlays, recency decay) without touching the
//! walk itself:
//!
//! - **MMR redundancy suppression** — greedy maximal-marginal-relevance
//!   selection where item–item similarity is shared-neighbor overlap on
//!   the bipartite graph (cosine over rater sets), so near-duplicate
//!   candidates don't crowd the list.
//! - **Popularity penalty** — a linear penalty on the item's popularity
//!   percentile (fraction of the catalog with strictly fewer ratings),
//!   trading head exposure for tail exposure continuously.
//! - **Hard tail quota** — at least `tail_quota` of the final `k` must be
//!   tail items (popularity percentile below
//!   [`RerankIndex::TAIL_CUTOFF`], the paper's 80/20 split) whenever the
//!   pool can satisfy it; unsatisfiable quotas degrade gracefully to
//!   best-available rather than emitting short lists.
//!
//! A default [`RerankPolicy`] is **disabled**: the fused path then
//! over-fetches nothing and emits bit-identical lists to the plain top-k
//! path (a proptest gate in `tests/rerank_policy.rs`).

use crate::topk::ScoredItem;
use longtail_data::Dataset;

/// Declarative re-ranking knobs, threaded from [`crate::RecommendOptions`]
/// (and, in `longtail-serve`, from per-request / per-QoS-class engine
/// defaults).
///
/// The knobs weigh the candidates; the candidates themselves are fixed. An
/// enabled policy re-ranks the walk's top `4k`
/// ([`RerankPolicy::effective_pool`]), and which of them count as tail is
/// fixed by [`RerankIndex::TAIL_CUTOFF`].
///
/// `#[non_exhaustive]` + builder methods: future knobs are non-breaking.
/// The default policy is disabled — see [`RerankPolicy::is_enabled`].
#[non_exhaustive]
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RerankPolicy {
    /// MMR trade-off λ ∈ [0, 1]: `0` ranks purely by (normalized)
    /// relevance, `1` purely by dissimilarity to already-selected items.
    pub mmr_lambda: f64,
    /// Weight of the linear popularity-percentile penalty (≥ 0).
    pub popularity_penalty: f64,
    /// Minimum tail items ([`RerankIndex::tail`]) among the final `k`
    /// (clamped to `k`; best-effort when the candidate pool holds fewer
    /// tail items).
    pub tail_quota: usize,
}

impl RerankPolicy {
    /// A disabled policy — identical to [`Default`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the MMR λ (clamped to `[0, 1]`).
    pub fn mmr(mut self, lambda: f64) -> Self {
        self.mmr_lambda = lambda.clamp(0.0, 1.0);
        self
    }

    /// Set the popularity-percentile penalty weight (clamped to `≥ 0`).
    pub fn popularity_penalty(mut self, weight: f64) -> Self {
        self.popularity_penalty = weight.max(0.0);
        self
    }

    /// Require at least `n` tail items in the final list (best-effort).
    pub fn tail_quota(mut self, n: usize) -> Self {
        self.tail_quota = n;
        self
    }

    /// Whether any knob is active. A disabled policy is a guaranteed
    /// no-op on the serving path (no over-fetch, no re-order).
    pub fn is_enabled(&self) -> bool {
        self.mmr_lambda > 0.0 || self.popularity_penalty > 0.0 || self.tail_quota > 0
    }

    /// The candidate-pool size the fused path should collect for a final
    /// top-`k`: `k` itself when disabled (bit-identity), otherwise `4k`
    /// (saturating, so never below `k`).
    pub fn effective_pool(&self, k: usize) -> usize {
        if self.is_enabled() {
            k.saturating_mul(4)
        } else {
            k
        }
    }
}

/// Precomputed per-catalog popularity and co-rating structure the
/// re-ranker consults: item degrees, popularity percentiles, and the
/// item → raters transpose (for shared-neighbor similarity).
///
/// Built once per model from training data ([`RerankIndex::from_dataset`])
/// and shared across requests; in `longtail-serve` the [`crate::Recommender`]'s
/// engine registration attaches one per model.
#[derive(Debug, Clone)]
pub struct RerankIndex {
    n_users: usize,
    degrees: Vec<u32>,
    percentiles: Vec<f64>,
    /// CSR transpose of the ratings matrix: `user_ids[user_offsets[i]..
    /// user_offsets[i + 1]]` are the (ascending) raters of item `i`.
    user_offsets: Vec<usize>,
    user_ids: Vec<u32>,
}

impl RerankIndex {
    /// Popularity-percentile boundary below which an item counts as tail:
    /// the paper's 80/20 head/tail split.
    pub const TAIL_CUTOFF: f64 = 0.8;

    /// Build the index from training data.
    pub fn from_dataset(train: &Dataset) -> Self {
        let degrees = train.item_popularity();
        let n_items = degrees.len();

        // Percentile of item i = fraction of the catalog with *strictly*
        // lower degree, via one sort of the degree multiset.
        let mut sorted = degrees.clone();
        sorted.sort_unstable();
        let percentiles: Vec<f64> = degrees
            .iter()
            .map(|&d| {
                if n_items == 0 {
                    0.0
                } else {
                    sorted.partition_point(|&x| x < d) as f64 / n_items as f64
                }
            })
            .collect();

        // Counting-sort transpose of user → items; users iterate in
        // ascending order, so each item's rater list lands sorted.
        let mut user_offsets = vec![0usize; n_items + 1];
        let mut acc = 0usize;
        for (i, &d) in degrees.iter().enumerate() {
            user_offsets[i] = acc;
            acc += d as usize;
        }
        user_offsets[n_items] = acc;
        let mut cursor = user_offsets.clone();
        let mut user_ids = vec![0u32; acc];
        let ratings = train.user_items();
        for u in 0..train.n_users() {
            let (items, _) = ratings.row(u);
            for &i in items {
                user_ids[cursor[i as usize]] = u as u32;
                cursor[i as usize] += 1;
            }
        }

        Self {
            n_users: train.n_users(),
            degrees,
            percentiles,
            user_offsets,
            user_ids,
        }
    }

    /// Catalog size the index was built over.
    pub fn n_items(&self) -> usize {
        self.degrees.len()
    }

    /// Number of users in the training data.
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// Rating count of `item` in the training data.
    pub fn degree(&self, item: u32) -> u32 {
        self.degrees[item as usize]
    }

    /// Popularity percentile of `item`: the fraction of catalog items
    /// with strictly fewer ratings (`0` = least popular).
    pub fn percentile(&self, item: u32) -> f64 {
        self.percentiles[item as usize]
    }

    /// Whether `item` is a tail item: its percentile lies strictly below
    /// [`RerankIndex::TAIL_CUTOFF`].
    pub fn tail(&self, item: u32) -> bool {
        self.percentile(item) < Self::TAIL_CUTOFF
    }

    /// The (ascending) users who rated `item`.
    pub fn users_of(&self, item: u32) -> &[u32] {
        let i = item as usize;
        &self.user_ids[self.user_offsets[i]..self.user_offsets[i + 1]]
    }

    /// Shared-neighbor cosine similarity on the bipartite graph:
    /// `|U(a) ∩ U(b)| / √(|U(a)| · |U(b)|)`, `0` when either is unrated.
    pub fn similarity(&self, a: u32, b: u32) -> f64 {
        let (ua, ub) = (self.users_of(a), self.users_of(b));
        if ua.is_empty() || ub.is_empty() {
            return 0.0;
        }
        let mut shared = 0usize;
        let (mut i, mut j) = (0usize, 0usize);
        while i < ua.len() && j < ub.len() {
            match ua[i].cmp(&ub[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    shared += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        shared as f64 / ((ua.len() * ub.len()) as f64).sqrt()
    }
}

/// A policy bound to the index it re-ranks against — the form
/// [`crate::RecommendOptions::rerank`] carries.
#[derive(Debug, Clone, Copy)]
pub struct Reranker<'a> {
    /// The catalog structure (degrees, percentiles, rater sets).
    pub index: &'a RerankIndex,
    /// The knobs.
    pub policy: RerankPolicy,
}

impl<'a> Reranker<'a> {
    /// Bind `policy` to `index`.
    pub fn new(index: &'a RerankIndex, policy: RerankPolicy) -> Self {
        Self { index, policy }
    }
}

/// Per-item re-rank provenance, surfaced through
/// `RecommendResponse::provenance` in `longtail-serve`: why this item sits
/// where it does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ItemProvenance {
    /// Popularity percentile of the item (`0` = least popular).
    pub popularity_percentile: f64,
    /// Whether the item counted as tail (popularity percentile below
    /// [`RerankIndex::TAIL_CUTOFF`]).
    pub tail: bool,
    /// `pool rank − final rank`: positive means the re-ranker promoted
    /// the item past better-scored candidates.
    pub displacement: i64,
}

/// Reusable per-context buffers for the re-rank pass, plus the provenance
/// trace of the *last* re-ranked query. Lives in [`crate::ScoringContext`].
#[derive(Debug, Clone, Default)]
pub struct RerankScratch {
    pool: Vec<ScoredItem>,
    rel: Vec<f64>,
    max_sim: Vec<f64>,
    tail: Vec<bool>,
    picked: Vec<bool>,
    selected: Vec<usize>,
    trace: Vec<ItemProvenance>,
}

impl RerankScratch {
    /// Provenance of the last re-ranked query (empty when the last query
    /// ran without an enabled policy).
    pub fn trace(&self) -> &[ItemProvenance] {
        &self.trace
    }

    /// Drop the trace — a query without a re-ranker must never surface
    /// the previous query's provenance.
    pub(crate) fn clear_trace(&mut self) {
        self.trace.clear();
    }
}

/// Re-rank the over-fetched pool in `out` down to the final top-`k`.
///
/// Greedy MMR: each step picks the unselected candidate maximizing
/// `(1 − λ)·rel − λ·max_sim(selected) − penalty·percentile`, where `rel`
/// is the walk score min-max-normalized over the pool. When the remaining
/// slots are exactly what the tail quota still needs, selection restricts
/// to tail candidates (while any remain — an unsatisfiable quota falls
/// back to best-available). Ties break toward the better-scored pool rank,
/// keeping the no-op knobs (λ=0, penalty=0) order-preserving.
///
/// `out` keeps the original walk scores, re-ordered; the provenance trace
/// lands in `scratch` for the serving layer to surface.
pub(crate) fn apply(
    reranker: &Reranker<'_>,
    k: usize,
    scratch: &mut RerankScratch,
    out: &mut Vec<ScoredItem>,
) {
    scratch.trace.clear();
    let policy = &reranker.policy;
    let index = reranker.index;
    if !policy.is_enabled() || out.is_empty() || k == 0 {
        out.truncate(k);
        return;
    }

    std::mem::swap(&mut scratch.pool, out);
    out.clear();
    let pool = &scratch.pool;
    let n = pool.len();
    let target = k.min(n);

    // Min-max normalize relevance over the pool so λ trades against a
    // similarity term of the same scale; a constant pool normalizes to 1.
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for s in pool {
        lo = lo.min(s.score);
        hi = hi.max(s.score);
    }
    let span = hi - lo;
    scratch.rel.clear();
    scratch.rel.extend(pool.iter().map(|s| {
        if span > 0.0 {
            (s.score - lo) / span
        } else {
            1.0
        }
    }));

    scratch.tail.clear();
    scratch.tail.extend(pool.iter().map(|s| index.tail(s.item)));
    let mut tail_remaining = scratch.tail.iter().filter(|&&t| t).count();

    scratch.max_sim.clear();
    scratch.max_sim.resize(n, 0.0);
    scratch.picked.clear();
    scratch.picked.resize(n, false);
    scratch.selected.clear();

    let quota = policy.tail_quota.min(target);
    let mut tail_selected = 0usize;
    let lambda = policy.mmr_lambda;
    let penalty = policy.popularity_penalty;

    while scratch.selected.len() < target {
        let slots_left = target - scratch.selected.len();
        let need = quota.saturating_sub(tail_selected);
        // Force tail picks once every remaining slot is owed to the
        // quota; if the pool has no tail candidates left the quota is
        // unsatisfiable and selection stays unrestricted.
        let restrict_to_tail = need >= slots_left && need > 0 && tail_remaining > 0;

        let mut best: Option<(usize, f64)> = None;
        for (i, cand) in pool.iter().enumerate() {
            if scratch.picked[i] || (restrict_to_tail && !scratch.tail[i]) {
                continue;
            }
            let score = (1.0 - lambda) * scratch.rel[i]
                - lambda * scratch.max_sim[i]
                - penalty * index.percentile(cand.item);
            // Strict `>` breaks ties toward the lower pool index, i.e.
            // the better-scored candidate.
            if best.is_none_or(|(_, b)| score > b) {
                best = Some((i, score));
            }
        }
        let Some((pick, _)) = best else { break };
        scratch.picked[pick] = true;
        scratch.selected.push(pick);
        if scratch.tail[pick] {
            tail_selected += 1;
            tail_remaining -= 1;
        }
        if lambda > 0.0 && scratch.selected.len() < target {
            for i in 0..n {
                if !scratch.picked[i] {
                    let sim = index.similarity(pool[pick].item, pool[i].item);
                    if sim > scratch.max_sim[i] {
                        scratch.max_sim[i] = sim;
                    }
                }
            }
        }
    }

    for (final_rank, &pi) in scratch.selected.iter().enumerate() {
        let s = scratch.pool[pi];
        out.push(s);
        scratch.trace.push(ItemProvenance {
            popularity_percentile: index.percentile(s.item),
            tail: scratch.tail[pi],
            displacement: pi as i64 - final_rank as i64,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use longtail_data::Rating;

    /// 15 items over 4 users with degrees 3, 3, 2, 1, 1 and then ten
    /// unrated items, so the 80/20 cutoff puts items 0–2 in the head and
    /// every other item in the tail.
    fn corpus() -> Dataset {
        let ratings = [
            (0, 0, 5.0),
            (1, 0, 4.0),
            (2, 0, 3.0),
            (0, 1, 5.0),
            (1, 1, 4.0),
            (3, 1, 3.0),
            (0, 2, 5.0),
            (1, 2, 4.0),
            (2, 3, 5.0),
            (3, 4, 5.0),
        ]
        .map(|(user, item, value)| Rating { user, item, value });
        Dataset::from_ratings(4, 15, &ratings)
    }

    fn candidates(items: &[(u32, f64)]) -> Vec<ScoredItem> {
        items
            .iter()
            .map(|&(item, score)| ScoredItem { item, score })
            .collect()
    }

    #[test]
    fn index_percentiles_and_tail_follow_degrees() {
        let index = RerankIndex::from_dataset(&corpus());
        assert_eq!(index.n_items(), 15);
        assert_eq!(index.degree(0), 3);
        assert_eq!(index.degree(5), 0);
        // Items 0 and 1 (degree 3) outrank 13 of 15 items.
        assert!((index.percentile(0) - 13.0 / 15.0).abs() < 1e-12);
        assert_eq!(index.percentile(5), 0.0);
        // 80/20 split: item 2 outranks exactly 12 of 15 (percentile 0.8),
        // which is head, since only a percentile strictly below the cutoff
        // is tail…
        assert_eq!(index.percentile(2), RerankIndex::TAIL_CUTOFF);
        assert!(!index.tail(0) && !index.tail(1) && !index.tail(2));
        // …and the degree-1 and unrated items are tail.
        assert!(index.tail(3) && index.tail(4) && index.tail(5));
    }

    #[test]
    fn index_transpose_is_sorted_and_exact() {
        let index = RerankIndex::from_dataset(&corpus());
        assert_eq!(index.users_of(0), &[0, 1, 2]);
        assert_eq!(index.users_of(4), &[3]);
        assert_eq!(index.users_of(5), &[] as &[u32]);
    }

    #[test]
    fn similarity_is_shared_neighbor_cosine() {
        let index = RerankIndex::from_dataset(&corpus());
        // U(0) = {0,1,2}, U(2) = {0,1}: 2 shared / √6.
        assert!((index.similarity(0, 2) - 2.0 / 6.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(index.similarity(0, 4), 0.0);
        assert_eq!(index.similarity(0, 5), 0.0);
    }

    #[test]
    fn disabled_policy_is_identity() {
        let index = RerankIndex::from_dataset(&corpus());
        let reranker = Reranker::new(&index, RerankPolicy::default());
        assert!(!reranker.policy.is_enabled());
        assert_eq!(reranker.policy.effective_pool(10), 10);
        let mut scratch = RerankScratch::default();
        let mut out = candidates(&[(0, 3.0), (2, 2.0), (3, 1.0)]);
        let want = out.clone();
        apply(&reranker, 3, &mut scratch, &mut out);
        assert_eq!(out, want);
        assert!(scratch.trace().is_empty());
    }

    #[test]
    fn effective_pool_defaults_to_4k_and_clamps_below_k() {
        let enabled = RerankPolicy::new().tail_quota(1);
        assert_eq!(enabled.effective_pool(10), 40);
        assert_eq!(enabled.effective_pool(0), 0);
        // A hostile k saturates instead of overflowing.
        assert_eq!(enabled.effective_pool(usize::MAX), usize::MAX);
        // The pool never falls below k, so a re-ranked list is never short.
        for k in [1, 7, usize::MAX / 4, usize::MAX / 4 + 1, usize::MAX - 1] {
            assert!(enabled.effective_pool(k) >= k, "k = {k}");
        }
    }

    #[test]
    fn popularity_penalty_reorders_toward_tail() {
        let index = RerankIndex::from_dataset(&corpus());
        // Item 0 (head, percentile 13/15) barely outscores item 3 (tail,
        // percentile 10/15) relative to the pool's score span: a mild
        // penalty flips them. Item 5 anchors the span so normalization
        // keeps the 0-vs-3 relevance gap small.
        let reranker = Reranker::new(&index, RerankPolicy::new().popularity_penalty(0.5));
        let mut scratch = RerankScratch::default();
        let mut out = candidates(&[(0, 1.0), (3, 0.99), (5, 0.0)]);
        apply(&reranker, 2, &mut scratch, &mut out);
        assert_eq!(out[0].item, 3);
        assert_eq!(out[1].item, 0);
        // Scores are the original walk scores, re-ordered.
        assert_eq!(out[0].score, 0.99);
        let trace = scratch.trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].displacement, 1);
        assert_eq!(trace[1].displacement, -1);
    }

    #[test]
    fn mmr_suppresses_near_duplicates() {
        let index = RerankIndex::from_dataset(&corpus());
        // Items 0/1/2 share raters (similar); 4 is independent. With a
        // strong λ the second pick must jump to the dissimilar item.
        let reranker = Reranker::new(&index, RerankPolicy::new().mmr(0.9));
        let mut scratch = RerankScratch::default();
        let mut out = candidates(&[(0, 1.0), (2, 0.99), (1, 0.98), (4, 0.9)]);
        apply(&reranker, 2, &mut scratch, &mut out);
        assert_eq!(out[0].item, 0, "first pick is still the top score");
        assert_eq!(out[1].item, 4, "second pick avoids the shared-rater clones");
    }

    #[test]
    fn tail_quota_forces_tail_items_in() {
        let index = RerankIndex::from_dataset(&corpus());
        let reranker = Reranker::new(&index, RerankPolicy::new().tail_quota(2));
        let mut scratch = RerankScratch::default();
        // Head items 0, 1 dominate by score; tail items 3, 4 trail.
        let mut out = candidates(&[(0, 1.0), (1, 0.9), (3, 0.2), (4, 0.1)]);
        apply(&reranker, 3, &mut scratch, &mut out);
        let tails = out.iter().filter(|s| index.tail(s.item)).count();
        assert_eq!(tails, 2, "quota must be met: {out:?}");
        assert_eq!(out[0].item, 0, "best head item still leads");
    }

    #[test]
    fn tail_quota_larger_than_k_clamps() {
        let index = RerankIndex::from_dataset(&corpus());
        let reranker = Reranker::new(&index, RerankPolicy::new().tail_quota(10));
        let mut scratch = RerankScratch::default();
        let mut out = candidates(&[(0, 1.0), (3, 0.2), (4, 0.1)]);
        apply(&reranker, 2, &mut scratch, &mut out);
        assert_eq!(out.len(), 2);
        // Quota clamps to k = 2, so both slots go to tail items.
        assert!(out.iter().all(|s| index.tail(s.item)), "{out:?}");
    }

    #[test]
    fn unsatisfiable_quota_fills_with_best_available() {
        let index = RerankIndex::from_dataset(&corpus());
        let reranker = Reranker::new(&index, RerankPolicy::new().tail_quota(3));
        let mut scratch = RerankScratch::default();
        // Only one tail candidate in the pool: quota of 3 cannot be met,
        // but the list must still fill all 3 slots.
        let mut out = candidates(&[(0, 1.0), (1, 0.9), (2, 0.8), (4, 0.1)]);
        apply(&reranker, 3, &mut scratch, &mut out);
        assert_eq!(out.len(), 3);
        assert!(
            out.iter().any(|s| s.item == 4),
            "the tail item is in: {out:?}"
        );
    }

    #[test]
    fn all_head_catalog_degrades_to_relevance_order() {
        let index = RerankIndex::from_dataset(&corpus());
        // Every candidate is head: the quota is unsatisfiable from the
        // start, and the penalty-free policy keeps relevance order.
        let reranker = Reranker::new(&index, RerankPolicy::new().tail_quota(2));
        let mut scratch = RerankScratch::default();
        let mut out = candidates(&[(1, 1.0), (2, 0.9), (0, 0.8)]);
        apply(&reranker, 3, &mut scratch, &mut out);
        let items: Vec<u32> = out.iter().map(|s| s.item).collect();
        assert_eq!(items, vec![1, 2, 0]);
        assert!(scratch.trace().iter().all(|p| !p.tail));
    }

    #[test]
    fn pool_smaller_than_k_serves_what_exists() {
        let index = RerankIndex::from_dataset(&corpus());
        let reranker = Reranker::new(&index, RerankPolicy::new().popularity_penalty(0.1));
        let mut scratch = RerankScratch::default();
        let mut out = candidates(&[(2, 1.0), (3, 0.5)]);
        apply(&reranker, 10, &mut scratch, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(scratch.trace().len(), 2);
    }
}
