//! # longtail — graph-based long-tail recommendation
//!
//! A from-scratch Rust implementation of *Challenging the Long Tail
//! Recommendation* (Hongzhi Yin, Bin Cui, Jing Li, Junjie Yao, Chen Chen;
//! PVLDB 5(9), VLDB 2012), including every substrate the paper depends on
//! and every baseline its evaluation compares against.
//!
//! ## The problem
//!
//! Classic recommenders (neighborhood CF, matrix factorization, topic
//! models) concentrate their suggestions on the short head of the catalog:
//! the latent factors that survive training are the ones describing popular
//! items. The paper's suite of random-walk algorithms inverts that bias —
//! ranking items by *hitting time*, *absorbing time* and entropy-biased
//! *absorbing cost* on the user-item graph discounts items by their
//! stationary popularity, surfacing niche items that still sit close to the
//! user's taste.
//!
//! ## Crate map
//!
//! | Module (re-export) | Crate | Contents |
//! |--------------------|-------|----------|
//! | [`graph`]  | `longtail-graph`  | CSR matrices, the bipartite user-item graph, BFS subgraphs |
//! | [`linalg`] | `longtail-linalg` | dense kernels: LU, QR, Jacobi eigen, randomized SVD |
//! | [`markov`] | `longtail-markov` | hitting/absorbing times and costs, personalized PageRank |
//! | [`topics`] | `longtail-topics` | Gibbs-sampled LDA over rating counts, user entropy |
//! | [`data`]   | `longtail-data`   | synthetic long-tail datasets, MovieLens parsers, protocol splits, ontology |
//! | [`core`]   | `longtail-core`   | the recommenders: HT, AT, AC1, AC2, LDA, PureSVD, PPR, DPPR, POP |
//! | [`serve`]  | `longtail-serve`  | the serving engine: multi-model registry, context pool, worker pool, circuit breakers + fallback |
//! | [`eval`]   | `longtail-eval`   | Recall@N, Popularity@N, Diversity, Similarity, timing, user study |
//!
//! ## Quickstart
//!
//! ```
//! use longtail::prelude::*;
//!
//! // A tiny synthetic movie catalog with a built-in long tail.
//! let config = SyntheticConfig {
//!     n_users: 120,
//!     n_items: 100,
//!     ..SyntheticConfig::movielens_like()
//! };
//! let data = SyntheticData::generate(&config);
//!
//! // Train the paper's headline algorithm (AC2: LDA-entropy absorbing cost).
//! let rec = AbsorbingCostRecommender::topic_entropy_auto(
//!     &data.dataset,
//!     8,
//!     AbsorbingCostConfig::default(),
//! );
//!
//! // Top-5 niche-but-relevant suggestions for user 3.
//! for s in rec.recommend(3, 5) {
//!     println!("item {} (score {:.3})", s.item, s.score);
//! }
//! ```

pub use longtail_core as core;
pub use longtail_data as data;
pub use longtail_eval as eval;
pub use longtail_graph as graph;
pub use longtail_linalg as linalg;
pub use longtail_markov as markov;
pub use longtail_serve as serve;
pub use longtail_topics as topics;

/// One-line import for applications: every type needed to load data, train
/// a recommender and evaluate it.
pub mod prelude {
    pub use longtail_core::{
        AbsorbingCostConfig, AbsorbingCostRecommender, AbsorbingTimeRecommender,
        AssociationRuleRecommender, DpStopping, DpTelemetry, EdgeDelta, EntropySource,
        ExclusionSet, GraphRecConfig, HittingTimeRecommender, ItemProvenance, KnnRecommender,
        LdaRecommender, PageRankFlavor, PageRankRecommender, Persistable, PopularityRecommender,
        PureSvdRecommender, RecencyDecay, RecommendOptions, Recommender, RerankIndex, RerankPolicy,
        Reranker, RuleConfig, ScoredItem, ScoringContext, TopKCollector, UserSimilarity,
    };
    pub use longtail_data::{
        holdout_latest_favorites, holdout_longtail_favorites, Dataset, LongTailSplit, Ontology,
        ProtocolSplit, Rating, SplitConfig, SyntheticConfig, SyntheticData, TimedRating,
    };
    pub use longtail_eval::{
        catalog_coverage, diversity, exposure_counts, gini_concentration, list_recall,
        mean_popularity, mean_similarity, novelty, popularity_at_n, recall_at_n, sample_test_users,
        simulate_study, tail_recall_split, RecallConfig, RecommendationLists, StudyConfig,
        TailRecallSplit,
    };
    pub use longtail_graph::{BipartiteGraph, GraphStats, Snapshot, SnapshotError, SnapshotWriter};
    pub use longtail_serve::{
        AdmissionPolicy, BreakerConfig, BreakerState, ClassStats, CompactionReport, DeltaConfig,
        DeltaRating, DeltaStore, Engine, EngineBuilder, EngineHealth, EngineStats, FaultKind,
        FaultPlan, FaultyRecommender, IngestStats, ModelHealth, ModelProvenance, PendingResponse,
        Priority, RecommendRequest, RecommendResponse, RetryPolicy, ServeError, VersionRecord,
    };
    pub use longtail_topics::{LdaConfig, LdaModel};
}
