//! Criterion bench: the truncated-vs-exact absorbing time ablation.
//!
//! The truncation ablation — the truncated dynamic program (Algorithm 1)
//! vs the exact LU solve, and the cost of each extra iteration τ.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use longtail_data::{SyntheticConfig, SyntheticData};
use longtail_graph::{Adjacency, Subgraph};
use longtail_markov::AbsorbingWalk;

fn setup() -> (Adjacency, Vec<usize>) {
    let data = SyntheticData::generate(&SyntheticConfig {
        n_users: 300,
        n_items: 220,
        ..SyntheticConfig::movielens_like()
    });
    let graph = data.dataset.to_graph();
    let user = 5u32;
    let seeds: Vec<usize> = data
        .dataset
        .rated_items(user)
        .iter()
        .map(|&i| graph.item_node(i))
        .collect();
    let sub = Subgraph::bfs_from(&graph, &seeds, usize::MAX);
    let absorbing: Vec<usize> = seeds
        .iter()
        .filter_map(|&s| sub.local_id(s).map(|l| l as usize))
        .collect();
    (sub.adjacency().clone(), absorbing)
}

fn bench_absorbing(c: &mut Criterion) {
    let (adj, absorbing) = setup();
    let walk = AbsorbingWalk::new(&adj, &absorbing);

    let mut group = c.benchmark_group("absorbing_time");
    for tau in [5usize, 15, 30, 60] {
        group.bench_with_input(BenchmarkId::new("truncated", tau), &tau, |b, &tau| {
            b.iter(|| std::hint::black_box(walk.truncated_times(tau)));
        });
    }
    group.bench_function("exact_lu", |b| {
        b.iter(|| std::hint::black_box(walk.exact_times().unwrap()));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_absorbing
}
criterion_main!(benches);
