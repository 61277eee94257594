//! Batch scoring and context-reuse equivalence.
//!
//! `score_batch` shards users over worker threads that each own one
//! [`ScoringContext`]; a context is pure scratch, so its history must never
//! leak into results. These tests pin the two contracts the batch API
//! advertises:
//!
//! * `score_batch(users, t)` is **bit-identical** to sequential
//!   `score_items` for every thread count `t`;
//! * one long-lived context threaded across many users (and across
//!   different recommenders) produces exactly what fresh contexts produce.

use longtail_core::{
    AbsorbingCostConfig, AbsorbingCostRecommender, AbsorbingTimeRecommender, GraphRecConfig,
    HittingTimeRecommender, PageRankRecommender, Recommender, ScoringContext,
};
use longtail_data::{Dataset, Rating, SyntheticConfig, SyntheticData};

fn synthetic() -> Dataset {
    let config = SyntheticConfig {
        n_users: 60,
        n_items: 50,
        ..SyntheticConfig::movielens_like()
    };
    SyntheticData::generate(&config).dataset
}

fn roster(train: &Dataset) -> Vec<Box<dyn Recommender>> {
    let graph = GraphRecConfig {
        max_items: 30,
        iterations: 15,
    };
    vec![
        Box::new(HittingTimeRecommender::new(train, graph)),
        Box::new(AbsorbingTimeRecommender::new(train, graph)),
        Box::new(AbsorbingCostRecommender::item_entropy(
            train,
            AbsorbingCostConfig {
                graph,
                item_entry_cost: 1.0,
            },
        )),
        Box::new(PageRankRecommender::plain(train)),
        Box::new(PageRankRecommender::discounted(train)),
    ]
}

#[test]
fn score_batch_bit_identical_to_sequential_for_any_thread_count() {
    let train = synthetic();
    let users: Vec<u32> = (0..train.n_users() as u32).collect();
    for rec in roster(&train) {
        let sequential: Vec<Vec<f64>> = users.iter().map(|&u| rec.score_items(u)).collect();
        for n_threads in [1usize, 2, 3, 4, 7] {
            let batch = rec.score_batch(&users, n_threads);
            assert_eq!(
                batch,
                sequential,
                "{} diverged at {} threads",
                rec.name(),
                n_threads
            );
        }
    }
}

#[test]
fn context_reuse_across_users_and_recommenders_is_pure() {
    let train = synthetic();
    let users: Vec<u32> = (0..train.n_users() as u32).collect();
    let recs = roster(&train);

    // One context threaded through every (recommender, user) pair, in an
    // interleaving that maximizes cross-contamination opportunities...
    let mut shared_ctx = ScoringContext::new();
    let mut reused: Vec<Vec<Vec<f64>>> = vec![Vec::new(); recs.len()];
    for &u in &users {
        for (r, rec) in recs.iter().enumerate() {
            let mut out = Vec::new();
            rec.score_into(u, &mut shared_ctx, &mut out);
            reused[r].push(out);
        }
    }

    // ...must equal fresh-context scoring exactly.
    for (r, rec) in recs.iter().enumerate() {
        for (j, &u) in users.iter().enumerate() {
            let fresh = rec.score_items(u);
            assert_eq!(reused[r][j], fresh, "{} user {}", rec.name(), u);
        }
    }
}

#[test]
fn recommend_with_matches_recommend() {
    let train = synthetic();
    let mut ctx = ScoringContext::new();
    for rec in roster(&train) {
        for u in 0..train.n_users() as u32 {
            assert_eq!(
                rec.recommend_with(u, 10, &longtail_core::RecommendOptions::default(), &mut ctx),
                rec.recommend(u, 10),
                "{} user {}",
                rec.name(),
                u
            );
        }
    }
}

#[test]
fn score_batch_handles_degenerate_batches() {
    let ratings = [Rating {
        user: 0,
        item: 0,
        value: 5.0,
    }];
    let train = Dataset::from_ratings(3, 2, &ratings);
    let rec = AbsorbingTimeRecommender::new(&train, GraphRecConfig::default());

    // Empty batch.
    assert!(rec.score_batch(&[], 4).is_empty());
    // More threads than users; unrated users mixed in.
    let batch = rec.score_batch(&[0, 1, 2], 16);
    assert_eq!(batch.len(), 3);
    assert_eq!(batch[0], rec.score_items(0));
    assert!(batch[1].iter().all(|&s| s == f64::NEG_INFINITY));
    // Repeated users score identically.
    let twice = rec.score_batch(&[0, 0], 2);
    assert_eq!(twice[0], twice[1]);
}
