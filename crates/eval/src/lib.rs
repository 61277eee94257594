//! Evaluation harness for long-tail recommendation.
//!
//! Implements every measurement of §5 of *Challenging the Long Tail
//! Recommendation*:
//!
//! * [`recall`] — the held-out-favourite Recall@N protocol (Eq. 16,
//!   Figure 5);
//! * [`lists`] — batch top-k lists for a sampled test population;
//! * [`metrics`] — Popularity@N (Figure 6), Diversity (Eq. 17, Table 2) and
//!   ontology Similarity (Eq. 18–19, Table 3) over those lists;
//! * [`quality`] — the long-tail quality suite over *served* lists: catalog
//!   coverage, Gini exposure concentration, novelty, and list-based recall
//!   split by head/tail ground truth (the lens for re-rank policies);
//! * [`timing`] — online per-query latency (Table 5);
//! * [`user_study`] — the simulated 50-judge study (Table 6), standing in
//!   for the paper's human judges;
//! * [`report`] — the [`Series`] container the figure binaries fill.

#![warn(missing_docs)]

pub mod lists;
pub mod metrics;
pub mod quality;
pub mod recall;
pub mod report;
pub mod timing;
pub mod user_study;

pub use lists::{sample_test_users, RecommendationLists};
pub use metrics::{diversity, mean_popularity, mean_similarity, popularity_at_n};
pub use quality::{
    catalog_coverage, exposure_counts, gini_concentration, list_recall, novelty, tail_recall_split,
    TailRecallSplit,
};
pub use recall::{recall_at_n, RecallConfig, RecallCurve};
pub use report::Series;
pub use timing::{
    time_batch_recommendations, time_batch_scoring, time_recommendations,
    time_recommendations_with_stopping, TimingStats,
};
pub use user_study::{simulate_study, StudyConfig, StudyResult};
