//! Online recommendation latency (§5.2.6, Table 5).
//!
//! The paper times each algorithm producing a top-10 list per user
//! (excluding offline training), finding the subgraph-bounded AC2 comparable
//! to the model-based LDA/PureSVD and ~26x faster than full-graph DPPR.
//! This module reproduces that measurement with plain wall-clock timing;
//! the serving stack's latency under load, with its spread, is the
//! benchmark's (`perfbench/`) to measure.

use longtail_core::{DpStopping, DpTelemetry, RecommendOptions, Recommender, ScoringContext};
use std::time::Instant;

/// Wall-clock statistics over a batch of per-user recommendation queries.
#[derive(Debug, Clone, Copy)]
pub struct TimingStats {
    /// Mean seconds per query.
    pub mean_seconds: f64,
    /// Total seconds over the batch.
    pub total_seconds: f64,
    /// Number of queries timed.
    pub n_queries: usize,
    /// Truncated-DP iteration counters accumulated over the timed queries —
    /// how much of the walk family's τ budget adaptive early termination
    /// actually spent. Sequential timers read them off the timing context;
    /// [`time_batch_recommendations`] merges them across the batch's worker
    /// contexts via [`DpTelemetry::merge`]. All-zero for non-walk
    /// recommenders and for [`time_batch_scoring`] (reference scoring runs
    /// no serving DP).
    pub dp: DpTelemetry,
}

/// Time `recommender` producing top-`k` lists for each user in `users`,
/// sequentially, through one reused [`ScoringContext`] and one reused list
/// buffer on the fused [`Recommender::recommend_into`] path — the
/// steady-state per-query latency of a single serving worker, under the
/// default adaptive [`DpStopping`] policy.
pub fn time_recommendations(recommender: &dyn Recommender, users: &[u32], k: usize) -> TimingStats {
    time_recommendations_with_stopping(recommender, users, k, DpStopping::default())
}

/// [`time_recommendations`] under an explicit serving policy — the probe
/// benchmarks use this to compare [`DpStopping::Fixed`] against the
/// adaptive default on identical query streams.
pub fn time_recommendations_with_stopping(
    recommender: &dyn Recommender,
    users: &[u32],
    k: usize,
    stopping: DpStopping,
) -> TimingStats {
    let mut ctx = ScoringContext::new();
    let opts = RecommendOptions::with_stopping(stopping);
    let mut list = Vec::new();
    let start = Instant::now();
    for &u in users {
        // The list itself is the product being timed; discard it.
        recommender.recommend_into(u, k, &opts, &mut ctx, &mut list);
        std::hint::black_box(&list);
    }
    let total = start.elapsed().as_secs_f64();
    TimingStats {
        mean_seconds: if users.is_empty() {
            0.0
        } else {
            total / users.len() as f64
        },
        total_seconds: total,
        n_queries: users.len(),
        dp: ctx.dp_telemetry(),
    }
}

/// Time [`Recommender::recommend_batch`] over the whole `users` batch at a
/// given worker count — the serving-shaped counterpart of
/// [`time_batch_scoring`]: every query produces a top-`k` list on the fused
/// path instead of a full score vector.
pub fn time_batch_recommendations(
    recommender: &dyn Recommender,
    users: &[u32],
    k: usize,
    n_threads: usize,
) -> TimingStats {
    let opts = RecommendOptions::default();
    let start = Instant::now();
    let (lists, dp) = recommender.recommend_batch_telemetry(users, k, &opts, n_threads);
    let total = start.elapsed().as_secs_f64();
    // Consume the lists so the work cannot be optimized away.
    std::hint::black_box(&lists);
    TimingStats {
        mean_seconds: if users.is_empty() {
            0.0
        } else {
            total / users.len() as f64
        },
        total_seconds: total,
        n_queries: users.len(),
        dp,
    }
}

/// Time [`Recommender::score_batch`] over the whole `users` batch at a given
/// worker count — the throughput-oriented counterpart of
/// [`time_recommendations`] (Table 5's per-query numbers, but amortized over
/// a sharded batch).
pub fn time_batch_scoring(
    recommender: &dyn Recommender,
    users: &[u32],
    n_threads: usize,
) -> TimingStats {
    let start = Instant::now();
    let results = recommender.score_batch(users, n_threads);
    let total = start.elapsed().as_secs_f64();
    // Consume the scores so the work cannot be optimized away.
    std::hint::black_box(&results);
    TimingStats {
        mean_seconds: if users.is_empty() {
            0.0
        } else {
            total / users.len() as f64
        },
        total_seconds: total,
        n_queries: users.len(),
        dp: DpTelemetry::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use longtail_core::{GraphRecConfig, HittingTimeRecommender};
    use longtail_data::{Dataset, Rating};

    #[test]
    fn counts_and_accumulates() {
        let d = Dataset::from_ratings(
            2,
            2,
            &[
                Rating {
                    user: 0,
                    item: 0,
                    value: 5.0,
                },
                Rating {
                    user: 1,
                    item: 1,
                    value: 4.0,
                },
            ],
        );
        let rec = HittingTimeRecommender::new(&d, GraphRecConfig::default());
        let stats = time_recommendations(&rec, &[0, 1, 0], 1);
        assert_eq!(stats.n_queries, 3);
        assert!(stats.total_seconds >= 0.0);
        assert!(stats.mean_seconds <= stats.total_seconds + 1e-12);
        // The walk family surfaces its DP telemetry through the stats.
        assert_eq!(stats.dp.queries, 3);
        assert!(stats.dp.iterations_run <= stats.dp.iterations_budget);
    }

    #[test]
    fn fixed_stopping_spends_the_full_budget() {
        let d = Dataset::from_ratings(
            2,
            2,
            &[
                Rating {
                    user: 0,
                    item: 0,
                    value: 5.0,
                },
                Rating {
                    user: 1,
                    item: 1,
                    value: 4.0,
                },
            ],
        );
        let config = GraphRecConfig::default();
        let rec = HittingTimeRecommender::new(&d, config);
        let stats =
            time_recommendations_with_stopping(&rec, &[0, 1], 1, longtail_core::DpStopping::Fixed);
        assert_eq!(stats.dp.iterations_run, stats.dp.iterations_budget);
        assert_eq!(stats.dp.iterations_saved_fraction(), 0.0);
    }

    #[test]
    fn batch_timer_surfaces_merged_worker_telemetry() {
        let d = Dataset::from_ratings(
            2,
            2,
            &[
                Rating {
                    user: 0,
                    item: 0,
                    value: 5.0,
                },
                Rating {
                    user: 1,
                    item: 1,
                    value: 4.0,
                },
            ],
        );
        let rec = HittingTimeRecommender::new(&d, GraphRecConfig::default());
        for n_threads in [1usize, 2] {
            let stats = time_batch_recommendations(&rec, &[0, 1, 0], 1, n_threads);
            // The workers' DP counters are merged into the stats instead of
            // dropping with the worker contexts.
            assert_eq!(stats.dp.queries, 3, "{n_threads} threads");
            assert!(stats.dp.iterations_budget > 0);
        }
    }

    #[test]
    fn empty_batch_is_zero() {
        let d = Dataset::from_ratings(
            1,
            1,
            &[Rating {
                user: 0,
                item: 0,
                value: 5.0,
            }],
        );
        let rec = HittingTimeRecommender::new(&d, GraphRecConfig::default());
        let stats = time_recommendations(&rec, &[], 5);
        assert_eq!(stats.n_queries, 0);
        assert_eq!(stats.mean_seconds, 0.0);
    }
}
