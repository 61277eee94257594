//! Integration test for the truncation ablation: the truncated dynamic
//! program (Algorithm 1, τ = 15) reproduces the exact linear-solve ranking.
//!
//! The paper claims "when we use 15 iterations, it already achieves almost
//! the same results as the exact solution". This test quantifies that on
//! synthetic data: the top-10 candidate sets under τ=15 and under the exact
//! LU solve must overlap heavily.

use longtail::prelude::*;
use longtail_graph::{Adjacency, Subgraph};
use longtail_markov::AbsorbingWalk;

#[test]
fn truncated_tau_15_matches_exact_topk() {
    let data = SyntheticData::generate(&SyntheticConfig {
        n_users: 200,
        n_items: 160,
        ..SyntheticConfig::movielens_like()
    });
    let graph = data.dataset.to_graph();

    let mut overlap_sum = 0.0;
    let mut checked = 0usize;
    for user in (0..40u32).filter(|&u| data.dataset.rated_items(u).len() >= 5) {
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
        let walk = AbsorbingWalk::new(sub.adjacency(), &absorbing);
        let truncated = walk.truncated_times(15);
        let Ok(exact) = walk.exact_times() else {
            continue;
        };

        // Rank candidate item nodes (non-absorbing items) both ways.
        let candidates: Vec<usize> = (0..sub.n_nodes())
            .filter(|&l| graph.is_item_node(sub.global_id(l as u32)) && !absorbing.contains(&l))
            .collect();
        if candidates.len() < 20 {
            continue;
        }
        let top10 = |values: &[f64]| -> std::collections::HashSet<usize> {
            let mut order = candidates.clone();
            order.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).unwrap());
            order.into_iter().take(10).collect()
        };
        let a = top10(&truncated);
        let b = top10(&exact);
        overlap_sum += a.intersection(&b).count() as f64 / 10.0;
        checked += 1;
    }

    assert!(checked >= 10, "need enough evaluable users, got {checked}");
    let mean_overlap = overlap_sum / checked as f64;
    assert!(
        mean_overlap >= 0.8,
        "τ=15 top-10 overlap with exact solve is only {mean_overlap:.2}"
    );
}

#[test]
fn more_iterations_only_sharpen_the_ranking() {
    // Spot-check rank stability: between τ=15 and τ=60 the top-5 changes
    // little (Algorithm 1's stopping rationale).
    let data = SyntheticData::generate(&SyntheticConfig {
        n_users: 150,
        n_items: 120,
        ..SyntheticConfig::movielens_like()
    });
    let short = AbsorbingTimeRecommender::new(
        &data.dataset,
        GraphRecConfig {
            max_items: usize::MAX,
            iterations: 15,
        },
    );
    let long = AbsorbingTimeRecommender::new(
        &data.dataset,
        GraphRecConfig {
            max_items: usize::MAX,
            iterations: 60,
        },
    );
    let mut overlap = 0usize;
    let mut total = 0usize;
    for u in 0..30u32 {
        let a: std::collections::HashSet<u32> =
            short.recommend(u, 5).iter().map(|s| s.item).collect();
        let b: std::collections::HashSet<u32> =
            long.recommend(u, 5).iter().map(|s| s.item).collect();
        overlap += a.intersection(&b).count();
        total += a.len().min(b.len());
    }
    assert!(
        overlap as f64 >= 0.7 * total as f64,
        "top-5 overlap {overlap}/{total} too low between τ=15 and τ=60"
    );
}

#[test]
fn exact_hitting_times_match_dp_on_the_full_graph() {
    // Cross-validation of the two computation paths on a mid-size graph.
    let data = SyntheticData::generate(&SyntheticConfig {
        n_users: 80,
        n_items: 60,
        ..SyntheticConfig::movielens_like()
    });
    let graph = data.dataset.to_graph();
    let adj = Adjacency::from_bipartite(&graph);
    let target = graph.user_node(3);
    let walk = AbsorbingWalk::new(&adj, &[target]);
    let exact = walk.exact_times().expect("connected at this density");
    let truncated = walk.truncated_times(4000);
    for node in 0..adj.n_nodes() {
        if exact[node].is_finite() {
            assert!(
                (exact[node] - truncated[node]).abs() < 1e-3,
                "node {node}: exact {} vs truncated {}",
                exact[node],
                truncated[node]
            );
        }
    }
}
