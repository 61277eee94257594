//! Long-tail recommenders — the primary contribution of *Challenging the
//! Long Tail Recommendation* (Yin et al., VLDB 2012) plus every baseline of
//! its evaluation.
//!
//! The paper's four variants:
//!
//! * **HT** ([`HittingTimeRecommender`], §3.3) — rank items by the hitting
//!   time of a random walk from the item to the query user;
//! * **AT** ([`AbsorbingTimeRecommender`], §4.1) — absorb at the user's
//!   rated set instead, with the truncated subgraph algorithm (Algorithm 1);
//! * **AC1 / AC2** ([`AbsorbingCostRecommender`], §4.2) — bias the walk by
//!   the *user entropy* of each hop, item-based (Eq. 10) or LDA topic-based
//!   (Eq. 11).
//!
//! Baselines: [`LdaRecommender`], [`PureSvdRecommender`], and
//! [`PageRankRecommender`] (plain and popularity-discounted, Eq. 15).
//!
//! All algorithms implement the [`Recommender`] trait, whose contract is
//! the paper's evaluation protocol: score every catalog item for a user,
//! rank, exclude the user's training items.
//!
//! ```
//! use longtail_core::{Recommender, AbsorbingTimeRecommender, GraphRecConfig};
//! use longtail_data::{Dataset, Rating};
//!
//! let ratings = [
//!     Rating { user: 0, item: 0, value: 5.0 },
//!     Rating { user: 0, item: 1, value: 4.0 },
//!     Rating { user: 1, item: 1, value: 5.0 },
//!     Rating { user: 1, item: 2, value: 5.0 },
//! ];
//! let train = Dataset::from_ratings(2, 3, &ratings);
//! let rec = AbsorbingTimeRecommender::new(&train, GraphRecConfig::default());
//! let top = rec.recommend(0, 1);
//! assert_eq!(top[0].item, 2); // the item user 0 hasn't seen yet
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod context;
pub mod parallel;
pub mod persist;
pub mod recommenders;
pub mod rerank;
pub mod topk;
mod walk_common;

pub use config::{AbsorbingCostConfig, DpStopping, ExclusionSet, GraphRecConfig, RecommendOptions};
pub use context::{with_thread_context, DpTelemetry, ScoringContext};
pub use parallel::{parallel_map_indexed, parallel_map_indexed_with_states};
pub use persist::Persistable;
pub use recommenders::{
    AbsorbingCostRecommender, AbsorbingTimeRecommender, AssociationRuleRecommender, EntropySource,
    HittingTimeRecommender, KnnRecommender, LdaRecommender, PageRankFlavor, PageRankRecommender,
    PopularityRecommender, PureSvdRecommender, RuleConfig, UserSimilarity,
};
pub use rerank::{ItemProvenance, RerankIndex, RerankPolicy, Reranker};
pub use topk::{rank_of, top_k, ScoredItem, TopKCollector};

pub use longtail_graph::{EdgeDelta, RecencyDecay};

/// A top-N recommendation algorithm over a fixed training dataset.
///
/// The single required scoring method is [`Recommender::score_into`], which
/// writes scores through a reusable [`ScoringContext`]; ranking, exclusion
/// of training items, top-k selection, one-shot scoring and multi-threaded
/// batch scoring are all provided on top of it. Scores are model-specific
/// but always ordered "higher = more recommended"; items a model cannot
/// reach score `f64::NEG_INFINITY` and are never recommended.
///
/// Serving rides [`Recommender::recommend_into`] (and its batch form
/// [`Recommender::recommend_batch`]), for base and streamed-delta reads
/// alike ([`RecommendOptions::delta`]): a fused top-k path that every
/// recommender overrides to push candidates into a bounded
/// [`TopKCollector`] instead of materializing and sorting a full
/// `O(n_items)` score vector. Fused output is pinned — by property tests —
/// to be identical to `top_k` over [`Recommender::score_into`].
///
/// `Sync` is a supertrait: every recommender is an immutable model after
/// construction, and the evaluation harness shares one instance across
/// scoring threads.
pub trait Recommender: Sync {
    /// Short display name ("HT", "AC2", "PureSVD", ...) used in experiment
    /// tables.
    fn name(&self) -> &'static str;

    /// Score every item in the catalog for `user`, writing into `out`
    /// (cleared and resized to [`Recommender::n_items`]).
    ///
    /// All per-query scratch lives in `ctx`; a caller looping over users
    /// with one context and one `out` vector performs no `O(n_nodes)`
    /// allocations per query. Results are identical no matter how `ctx` was
    /// previously used.
    fn score_into(&self, user: u32, ctx: &mut ScoringContext, out: &mut Vec<f64>);

    /// The items `user` rated in the training data (excluded from
    /// recommendations).
    fn rated_items(&self, user: u32) -> &[u32];

    /// Catalog size.
    fn n_items(&self) -> usize;

    /// Score every item for `user` into a fresh vector (convenience form of
    /// [`Recommender::score_into`] through this thread's shared context —
    /// see [`with_thread_context`] for when to prefer an owned or pooled
    /// context instead).
    fn score_items(&self, user: u32) -> Vec<f64> {
        context::with_thread_context(|ctx| {
            let mut out = Vec::new();
            self.score_into(user, ctx, &mut out);
            out
        })
    }

    /// Top-`k` recommendations for `user` under the default
    /// [`RecommendOptions`], excluding training items.
    ///
    /// Runs through this thread's shared [`ScoringContext`], so calling it
    /// in a loop pays no `O(n_nodes)` setup per query; see
    /// [`with_thread_context`] for when to prefer an owned or pooled
    /// context (per-query telemetry, long-lived service threads).
    fn recommend(&self, user: u32, k: usize) -> Vec<ScoredItem> {
        context::with_thread_context(|ctx| {
            self.recommend_with(user, k, &RecommendOptions::default(), ctx)
        })
    }

    /// [`Recommender::recommend`] through explicit per-request options and
    /// a caller-owned context — the form to use when producing lists for
    /// many users.
    fn recommend_with(
        &self,
        user: u32,
        k: usize,
        opts: &RecommendOptions<'_>,
        ctx: &mut ScoringContext,
    ) -> Vec<ScoredItem> {
        let mut out = Vec::new();
        self.recommend_into(user, k, opts, ctx, &mut out);
        out
    }

    /// Write the top-`k` recommendations for `user` into `out` (cleared
    /// first), excluding training items and the request-scoped
    /// [`RecommendOptions::exclude`] set — the fused serving primitive.
    ///
    /// The contract, pinned by the equivalence property tests: the result
    /// is item-for-item and rank-for-rank identical to
    /// `top_k(score_into(user), k, rated ∪ opts.exclude)`, including
    /// tie-breaking by ascending item id. Scores are also identical, with
    /// one carve-out: under the default [`DpStopping::Adaptive`] policy on
    /// `opts`, the walk family (HT/AT/AC) may terminate its truncated DP
    /// early once this top-k list is provably frozen, reporting each item's
    /// score from the stop iteration — at or above the fixed-τ score,
    /// within the certified remaining-change bound, and never reordered.
    /// Set [`RecommendOptions::stopping`] to [`DpStopping::Fixed`] for
    /// score-for-score identity.
    ///
    /// With an enabled [`RecommendOptions::rerank`] policy, the path
    /// instead collects the policy's top-M candidate pool
    /// ([`RecommendOptions::fetch`]) and re-ranks it down to `k`
    /// ([`RecommendOptions::finalize_topk`]); a disabled or absent policy
    /// is a strict no-op, preserving the identity contract above.
    ///
    /// With a [`RecommendOptions::delta`] of streamed rating appends, the
    /// walk family (HT/AT/AC) serves base + delta as an overlay — the
    /// serving primitive behind `longtail-serve`'s ingest path. The
    /// contract, pinned by the overlay-equivalence property tests: the list
    /// is identical to what a model **rebuilt from scratch on the union**
    /// of base and delta ratings would serve (bit-identical when the
    /// weights are exact-sum values like integer stars). The user's
    /// exclusion set is the merged base + delta rated set, and delta-only
    /// users and items are first-class: a user who exists only in the
    /// delta is served off their appended ratings alone, and a user
    /// outside the merged graph is served an empty list. The other
    /// families ignore the delta and serve their frozen base —
    /// correct-but-stale, since they would need retraining to absorb new
    /// ratings. A wrapper that forwards `opts` forwards the delta with it.
    ///
    /// The default implementation *is* the score-then-collect computation
    /// (through reusable context buffers). Five families override it with
    /// fused paths that push candidates straight into the context's
    /// [`TopKCollector`], because each skips work the default cannot: the
    /// walk family (HT/AT/AC) collects only the visited subgraph, kNN and
    /// association rules only their candidate set, popularity stops at the
    /// first rejected item of its presorted order, and PureSVD streams its
    /// factor dots without materializing the catalog vector. LDA and
    /// PageRank (PPR/DPPR) use the default: their scoring already touches
    /// every item, and a full-graph power iteration dominates each PageRank
    /// query.
    fn recommend_into(
        &self,
        user: u32,
        k: usize,
        opts: &RecommendOptions<'_>,
        ctx: &mut ScoringContext,
        out: &mut Vec<ScoredItem>,
    ) {
        // Move the score buffer out of the context so `score_into` can
        // borrow the rest of it; capacity is retained across queries.
        let mut scores = std::mem::take(&mut ctx.score_buf);
        self.score_into(user, ctx, &mut scores);
        let rated = self.rated_items(user);
        ctx.topk.reset(opts.fetch(k));
        for (i, &s) in scores.iter().enumerate() {
            let i = i as u32;
            if rated.binary_search(&i).is_err() && !opts.is_excluded(i) {
                ctx.topk.push(i, s);
            }
        }
        ctx.topk.drain_sorted_into(out);
        ctx.score_buf = scores;
        opts.finalize_topk(k, ctx, out);
    }

    /// [`Recommender::recommend_into`] with `delta` set as
    /// [`RecommendOptions::delta`] — nothing more. A shim kept only because
    /// the benchmark (`perfbench/`) still calls and implements it; ROADMAP
    /// item 4(b) removes it. New code sets the option instead.
    fn recommend_delta_into(
        &self,
        delta: &EdgeDelta,
        user: u32,
        k: usize,
        opts: &RecommendOptions<'_>,
        ctx: &mut ScoringContext,
        out: &mut Vec<ScoredItem>,
    ) {
        self.recommend_into(user, k, &opts.delta(delta), ctx, out);
    }

    /// Top-`k` lists for a batch of users, sharding the queries over
    /// `n_threads` scoped worker threads that each own one
    /// [`ScoringContext`] — the top-k counterpart of
    /// [`Recommender::score_batch`]. `opts` applies to every query of the
    /// batch.
    ///
    /// `results[j]` is exactly what `recommend_with(users[j], k, opts)`
    /// returns — output is bit-identical to the sequential loop for every
    /// thread count, with workers pulling queries off a shared atomic
    /// cursor so stragglers cannot imbalance the shards.
    ///
    /// Worker threads are spawned (and joined) per call; sustained serving
    /// traffic should prefer a `longtail-serve` engine, whose persistent
    /// worker pool amortizes thread start-up across batches.
    fn recommend_batch(
        &self,
        users: &[u32],
        k: usize,
        opts: &RecommendOptions<'_>,
        n_threads: usize,
    ) -> Vec<Vec<ScoredItem>> {
        self.recommend_batch_telemetry(users, k, opts, n_threads).0
    }

    /// [`Recommender::recommend_batch`] that also returns the batch's
    /// [`DpTelemetry`], merged across every worker context via
    /// [`DpTelemetry::merge`] — without this, the iteration counters of the
    /// internally-owned worker contexts would be dropped with them.
    fn recommend_batch_telemetry(
        &self,
        users: &[u32],
        k: usize,
        opts: &RecommendOptions<'_>,
        n_threads: usize,
    ) -> (Vec<Vec<ScoredItem>>, DpTelemetry) {
        let (lists, contexts) = parallel_map_indexed_with_states(
            users.len(),
            n_threads,
            ScoringContext::new,
            |ctx, idx| {
                let mut out = Vec::new();
                self.recommend_into(users[idx], k, opts, ctx, &mut out);
                out
            },
        );
        let mut dp = DpTelemetry::default();
        for ctx in &contexts {
            dp.merge(&ctx.dp_telemetry());
        }
        (lists, dp)
    }

    /// Score a batch of users, sharding the queries over `n_threads` scoped
    /// worker threads that each own one [`ScoringContext`].
    ///
    /// `results[j]` is exactly what `score_items(users[j])` returns — output
    /// is bit-identical to the sequential loop for every thread count, with
    /// workers pulling queries off a shared atomic cursor so stragglers
    /// cannot imbalance the shards.
    fn score_batch(&self, users: &[u32], n_threads: usize) -> Vec<Vec<f64>> {
        parallel_map_indexed(users.len(), n_threads, ScoringContext::new, |ctx, idx| {
            let mut out = Vec::new();
            self.score_into(users[idx], ctx, &mut out);
            out
        })
    }
}
