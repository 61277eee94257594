//! Model lifecycle tour: train a model, snapshot it, restart by reloading
//! the snapshot instead of retraining, then hot-swap a retrained version
//! in while the engine keeps serving.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example model_lifecycle
//! ```

use longtail::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

fn main() {
    // 1. Corpus.
    let config = SyntheticConfig {
        n_users: 240,
        n_items: 200,
        ..SyntheticConfig::movielens_like()
    };
    let data = SyntheticData::generate(&config);
    let train = &data.dataset;
    println!(
        "corpus: {} users x {} items, {} ratings",
        train.n_users(),
        train.n_items(),
        train.n_ratings()
    );

    // 2. Train and snapshot to disk — the "training cluster" half of the
    //    lifecycle.
    let dir = std::env::temp_dir().join("longtail_model_lifecycle");
    std::fs::create_dir_all(&dir).expect("create snapshot dir");
    let train_and_snapshot = |iterations: usize, file: &str| -> PathBuf {
        let model = HittingTimeRecommender::new(
            train,
            GraphRecConfig {
                max_items: 120,
                iterations,
            },
        );
        let path = dir.join(file);
        model.save_to_file(&path).expect("snapshot write");
        let bytes = std::fs::metadata(&path).expect("stat").len();
        println!("trained HT at tau={iterations}, snapshot {file}: {bytes} B");
        path
    };
    let v1_path = train_and_snapshot(40, "ht_v1.snap");

    // 3. "Serving host restart": build the engine by *loading* the
    //    snapshot — no retraining. Load is fallible and typed: corrupt or
    //    truncated snapshots are rejected, never panic. The builder records
    //    its registrations as in-process; `deploy_from` below names its
    //    snapshot.
    let v1 = HittingTimeRecommender::load_from_file(&v1_path).expect("snapshot read");
    let engine = Engine::builder()
        .model("HT", Arc::new(v1))
        .workers(2)
        .build();
    let items = |r: &RecommendResponse| r.items.iter().map(|s| s.item).collect::<Vec<_>>();
    let r = engine
        .recommend(&RecommendRequest::new("HT", 7, 5))
        .expect("serve");
    println!(
        "restarted from snapshot: user 7 -> {:?} (model {}, version {})",
        items(&r),
        r.model,
        r.version
    );

    // 4. Hot swap: retrain with a deeper walk, snapshot it, and deploy the
    //    reloaded model while the engine keeps serving. The deploy is
    //    atomic — requests pin the version they resolved, new requests
    //    route to the new one.
    let v2_path = train_and_snapshot(60, "ht_v2.snap");
    let v2 = HittingTimeRecommender::load_from_file(&v2_path).expect("snapshot read");
    let version = engine
        .deploy_from(
            "HT",
            Arc::new(v2),
            ModelProvenance::Snapshot(v2_path.clone()),
        )
        .expect("deploy");
    println!("deployed HT@{version}");
    let r = engine
        .recommend(&RecommendRequest::new("HT", 7, 5))
        .unwrap();
    println!(
        "post-swap: user 7 -> {:?} (version {})",
        items(&r),
        r.version
    );
    assert_eq!(r.version, 2);

    // 5. Health reports the version chain: the active version, its
    //    provenance and the deploy history (a replaced version retires once
    //    its last in-flight pin releases).
    let health = engine.health();
    for m in &health.models {
        println!("{}@{}: {}", m.name, m.version, m.provenance);
        for record in &m.deploy_history {
            println!(
                "  version {}: {}, retired: {}",
                record.version, record.provenance, record.retired
            );
        }
    }
    assert!(health.models[0].deploy_history[0].retired);

    std::fs::remove_dir_all(&dir).ok();
    println!("lifecycle complete: train -> snapshot -> reload -> deploy");
}
