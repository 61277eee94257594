//! Long-tail quality tour: the policy-driven re-rank stage, off vs on.
//!
//! A post-scoring [`RerankPolicy`] trades a bounded amount of raw relevance
//! for catalog health: MMR redundancy suppression, a popularity penalty
//! over item-degree percentiles, and a hard tail quota. This example
//! measures that trade on a synthetic long-tail catalog and then threads
//! the same policy through the serving engine per QoS class.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example longtail_quality
//! ```

use longtail::prelude::*;
use std::sync::Arc;

fn main() {
    // 1. A synthetic catalog with a built-in long tail, and the kind of
    //    recommender the paper argues against: a matrix-factorization
    //    baseline whose latent factors chase the short head. That head bias
    //    is exactly what the re-rank stage is for.
    let config = SyntheticConfig {
        n_users: 240,
        n_items: 180,
        ..SyntheticConfig::movielens_like()
    };
    let data = SyntheticData::generate(&config);
    let d = &data.dataset;
    let svd = PureSvdRecommender::train(d, 16);

    // 2. The re-rank substrate: item-degree percentiles and the bipartite
    //    shared-neighbor similarity the MMR term consults, built once from
    //    the training data.
    let index = RerankIndex::from_dataset(d);
    let policy = RerankPolicy::new()
        .mmr(0.3)
        .popularity_penalty(0.25)
        .tail_quota(3);
    println!(
        "policy: mmr λ={}, popularity penalty={}, tail quota={}/list (tail = bottom {:.0}% of item degree)",
        policy.mmr_lambda,
        policy.popularity_penalty,
        policy.tail_quota,
        RerankIndex::TAIL_CUTOFF * 100.0
    );

    // 3. Serve every user's top-10 twice through the fused batch path:
    //    once raw, once with the policy attached. The policy over-fetches a
    //    top-M pool and reorders it, so both runs pay one walk each.
    let users: Vec<u32> = (0..d.n_users() as u32).collect();
    let k = 10;
    let raw_opts = RecommendOptions::new();
    let on_opts = RecommendOptions::new().rerank(Reranker::new(&index, policy));
    let off = RecommendationLists::compute_with(&svd, &users, k, &raw_opts, 4);
    let on = RecommendationLists::compute_with(&svd, &users, k, &on_opts, 4);

    // A *disabled* policy must be a strict no-op: same items, same scores,
    // same order as no policy at all (the rerank_policy proptests pin this
    // across every recommender family).
    let disabled_opts =
        RecommendOptions::new().rerank(Reranker::new(&index, RerankPolicy::default()));
    let disabled = RecommendationLists::compute_with(&svd, &users, k, &disabled_opts, 4);
    assert_eq!(disabled.lists, off.lists, "disabled policy must be a no-op");
    println!("disabled policy: bit-identical to the raw path ✓");

    // 4. The quality lens: coverage, exposure concentration and novelty
    //    over the served lists.
    let pops = d.item_popularity();
    let metrics = |lists: &RecommendationLists| {
        (
            catalog_coverage(lists, d.n_items()),
            gini_concentration(&exposure_counts(lists, d.n_items())),
            novelty(lists, &pops, d.n_users()),
        )
    };
    let (cov_off, gini_off, nov_off) = metrics(&off);
    let (cov_on, gini_on, nov_on) = metrics(&on);
    println!("\n                 raw      re-ranked");
    println!("coverage       {cov_off:7.3}    {cov_on:7.3}");
    println!("gini           {gini_off:7.3}    {gini_on:7.3}   (lower = fairer exposure)");
    println!("novelty (bits) {nov_off:7.3}    {nov_on:7.3}");
    let tail_slots = |lists: &RecommendationLists| {
        lists
            .lists
            .iter()
            .flatten()
            .filter(|s| index.tail(s.item))
            .count()
    };
    println!(
        "tail slots     {:7}    {:7}   (of {} filled)",
        tail_slots(&off),
        tail_slots(&on),
        on.n_recommendations()
    );

    // 5. The same policy through the serving engine, per QoS class: Batch
    //    list regeneration gets the quality pass, Interactive traffic stays
    //    on the raw low-latency path. Re-ranked responses carry per-item
    //    provenance.
    let shared: Arc<dyn Recommender + Send + Sync> =
        Arc::new(HittingTimeRecommender::new(d, GraphRecConfig::default()));
    let engine = Engine::builder()
        .model("HT", shared)
        .rerank_index("HT", Arc::new(RerankIndex::from_dataset(d)))
        .class_rerank(Priority::Batch, policy)
        .workers(2)
        .build();
    let user = 3u32;
    let interactive = engine
        .recommend(&RecommendRequest::new("HT", user, 5))
        .unwrap();
    let batch = engine
        .recommend(&RecommendRequest::new("HT", user, 5).with_priority(Priority::Batch))
        .unwrap();
    assert!(
        interactive.provenance.is_none(),
        "raw path carries no trace"
    );
    let trace = batch.provenance.as_ref().expect("re-ranked path is traced");
    println!("\nengine, user {user}: Interactive raw, Batch re-ranked with provenance:");
    for (s, p) in batch.items.iter().zip(trace) {
        println!(
            "  item {:3}  score {:7.4}  pop pct {:4.2}  tail {}  moved {:+}",
            s.item,
            s.score,
            p.popularity_percentile,
            if p.tail { "yes" } else { " no" },
            p.displacement
        );
    }
}
