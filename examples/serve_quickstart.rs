//! Serving quickstart: stand up an `Engine` with several named models,
//! then answer typed requests — with per-request stopping overrides,
//! request-scoped exclusions and DP telemetry.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example serve_quickstart
//! ```

use longtail::prelude::*;
use std::sync::Arc;

fn main() {
    // 1. Data + models: one catalog, three algorithm variants — the
    //    multi-model deployment shape (pick the popularity-bias trade-off
    //    per request, not per binary).
    let config = SyntheticConfig {
        n_users: 300,
        n_items: 240,
        ..SyntheticConfig::movielens_like()
    };
    let data = SyntheticData::generate(&config);
    let train = &data.dataset;
    let walk = GraphRecConfig {
        max_items: 120,
        iterations: 60,
    };
    let ht = Arc::new(HittingTimeRecommender::new(train, walk));
    let ac1 = Arc::new(AbsorbingCostRecommender::item_entropy(
        train,
        AbsorbingCostConfig {
            graph: walk,
            item_entry_cost: 1.0,
        },
    ));
    let svd = Arc::new(PureSvdRecommender::train(train, 8));

    // 2. The engine: model registry + context pool + persistent workers.
    let engine = Engine::builder()
        .model("HT", ht)
        .model("AC1", ac1)
        .model("PureSVD", svd)
        .workers(4)
        .build();
    println!(
        "engine up: models {:?}, {} persistent workers",
        engine.models(),
        engine.n_workers()
    );

    // 3. Single requests on the low-latency inline path.
    let user = 7u32;
    for model in ["HT", "AC1", "PureSVD"] {
        let response = engine
            .recommend(&RecommendRequest::new(model, user, 3))
            .expect("model is registered");
        let items: Vec<u32> = response.items.iter().map(|s| s.item).collect();
        println!(
            "user {user} via {:<7} -> {:?}  (answered by {}, DP {}/{} iterations)",
            model,
            items,
            response.model,
            response.telemetry.iterations_run,
            response.telemetry.iterations_budget,
        );
    }

    // 4. Per-request knobs: exact fixed-τ scores, and exclusions layered
    //    on top of the user's training items (e.g. items already on the
    //    page).
    let plain = engine
        .recommend(&RecommendRequest::new("HT", user, 5))
        .unwrap();
    let already_shown: Vec<u32> = plain.items.iter().take(2).map(|s| s.item).collect();
    let refreshed = engine
        .recommend(
            &RecommendRequest::new("HT", user, 5)
                .with_stopping(DpStopping::Fixed)
                .excluding(already_shown.clone()),
        )
        .unwrap();
    assert!(refreshed
        .items
        .iter()
        .all(|s| !already_shown.contains(&s.item)));
    println!(
        "\nexcluding already-shown {:?} refreshes the page to {:?}",
        already_shown,
        refreshed.items.iter().map(|s| s.item).collect::<Vec<_>>()
    );

    // 5. Batch traffic through the persistent worker pool — no thread
    //    start-up per batch, contexts recycled across requests.
    let requests: Vec<RecommendRequest> = (0..64u32)
        .map(|u| RecommendRequest::new(if u % 2 == 0 { "AC1" } else { "HT" }, u % 100, 10))
        .collect();
    let n = requests.len();
    let responses = engine.recommend_batch(requests);
    let served = responses.iter().filter(|r| r.is_ok()).count();
    println!("\nbatch of {n}: {served} served");
    let t = engine.telemetry();
    println!(
        "engine lifetime DP telemetry: {} walk queries, {}/{} iterations ({:.0}% saved by early termination)",
        t.queries,
        t.iterations_run,
        t.iterations_budget,
        t.iterations_saved_fraction() * 100.0
    );
}
