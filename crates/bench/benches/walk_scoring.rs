//! Criterion bench: per-user vs batch scoring on the random-walk hot path.
//!
//! Four rungs per algorithm (HT and AC1) on a synthetic long-tail corpus:
//!
//! * `context`      — the kernel + `ScoringContext` path, one user per
//!   iteration through a reused context;
//! * `batch64/t4`   — 64 users through `Recommender::score_batch` at 4
//!   worker threads, measured per batch;
//! * `topk_sort`    — top-10 by materializing the score vector and running
//!   `top_k` over it, one user per iteration;
//! * `topk_fused`   — top-10 through the fused `recommend_into` path, one
//!   user per iteration.
//!
//! `cargo run --release -p longtail-bench --bin bench_walk_scoring` runs the
//! same comparison standalone and writes `BENCH_walk_scoring.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use longtail_core::{
    top_k, AbsorbingCostConfig, AbsorbingCostRecommender, GraphRecConfig, HittingTimeRecommender,
    RecommendOptions, Recommender, ScoringContext,
};
use longtail_data::{SyntheticConfig, SyntheticData};
use longtail_eval::sample_test_users;

fn bench_walk_scoring(c: &mut Criterion) {
    let data = SyntheticData::generate(&SyntheticConfig {
        n_users: 600,
        n_items: 450,
        ..SyntheticConfig::movielens_like()
    });
    let train = &data.dataset;
    let config = GraphRecConfig {
        max_items: 300,
        iterations: 15,
    };
    let users = sample_test_users(&train.user_activity(), 64, 3, 0xbe9c);

    let ht = HittingTimeRecommender::new(train, config);
    let ac1 = AbsorbingCostRecommender::item_entropy(
        train,
        AbsorbingCostConfig {
            graph: config,
            item_entry_cost: 1.0,
        },
    );

    let mut group = c.benchmark_group("walk_scoring");
    let mut cursor = 0usize;

    let mut ctx = ScoringContext::new();
    let mut out = Vec::new();
    group.bench_function("ht/context", |b| {
        b.iter(|| {
            let u = users[cursor % users.len()];
            cursor += 1;
            ht.score_into(u, &mut ctx, &mut out);
            out.last().copied()
        });
    });
    group.bench_function("ht/batch64_t4", |b| {
        b.iter(|| ht.score_batch(&users, 4));
    });
    let mut ctx = ScoringContext::new();
    let mut out = Vec::new();
    group.bench_function("ht/topk_sort", |b| {
        b.iter(|| {
            let u = users[cursor % users.len()];
            cursor += 1;
            ht.score_into(u, &mut ctx, &mut out);
            let rated = ht.rated_items(u);
            top_k(&out, 10, |i| rated.binary_search(&i).is_ok())
        });
    });
    let mut ctx = ScoringContext::new();
    let opts = RecommendOptions::default();
    let mut list = Vec::new();
    group.bench_function("ht/topk_fused", |b| {
        b.iter(|| {
            let u = users[cursor % users.len()];
            cursor += 1;
            ht.recommend_into(u, 10, &opts, &mut ctx, &mut list);
            list.first().copied()
        });
    });

    let mut ctx = ScoringContext::new();
    let mut out = Vec::new();
    group.bench_function("ac1/context", |b| {
        b.iter(|| {
            let u = users[cursor % users.len()];
            cursor += 1;
            ac1.score_into(u, &mut ctx, &mut out);
            out.last().copied()
        });
    });
    group.bench_function("ac1/batch64_t4", |b| {
        b.iter(|| ac1.score_batch(&users, 4));
    });
    let mut ctx = ScoringContext::new();
    let mut out = Vec::new();
    group.bench_function("ac1/topk_sort", |b| {
        b.iter(|| {
            let u = users[cursor % users.len()];
            cursor += 1;
            ac1.score_into(u, &mut ctx, &mut out);
            let rated = ac1.rated_items(u);
            top_k(&out, 10, |i| rated.binary_search(&i).is_ok())
        });
    });
    let mut ctx = ScoringContext::new();
    let opts = RecommendOptions::default();
    let mut list = Vec::new();
    group.bench_function("ac1/topk_fused", |b| {
        b.iter(|| {
            let u = users[cursor % users.len()];
            cursor += 1;
            ac1.recommend_into(u, 10, &opts, &mut ctx, &mut list);
            list.first().copied()
        });
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_walk_scoring
}
criterion_main!(benches);
