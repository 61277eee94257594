//! The offline replay reproduces served lists exactly, stage by stage, for
//! every walk family — plain, re-ranked, deep-budget and over a delta.

use longtail_core::{GraphRecConfig, RecommendOptions, RerankIndex};
use longtail_data::SyntheticConfig;
use longtail_perfbench::check::{reference_options, same_list};
use longtail_perfbench::models::{self, BenchModel, K};
use longtail_perfbench::replay::Replayer;
use longtail_serve::{DeltaConfig, DeltaRating, DeltaStore, Engine, Priority, RecommendRequest};
use std::sync::Arc;

fn tiny() -> longtail_data::Dataset {
    models::corpus(SyntheticConfig::movielens_like().scaled(0.15), 1)
}

#[test]
fn replay_equals_served_for_every_family_and_the_rerank_path() {
    let train = tiny();
    let graph = train.to_graph();
    let lda = models::train_lda(&train, 4);
    let index = Arc::new(RerankIndex::from_dataset(&train));
    for iterations in [models::TAU_PAPER, models::TAU_DEEP] {
        let walk = GraphRecConfig {
            max_items: 40,
            iterations,
        };
        let all: Vec<BenchModel> = ["HT", "AT", "AC1", "AC2"]
            .iter()
            .map(|n| BenchModel::build(n, &train, walk, Some(&lda)))
            .collect();
        let mut b = Engine::builder()
            .workers(1)
            .class_rerank(Priority::Batch, models::quality_policy());
        for m in &all {
            b = b
                .model(m.name, m.rec.clone())
                .rerank_index(m.name, index.clone());
        }
        let engine = b.build();
        let mut replayer = Replayer::default();
        let mut out = Vec::new();
        for m in &all {
            for user in 0..train.n_users() as u32 {
                let batch = user % 7 == 0;
                let req = RecommendRequest::new(m.name, user, K).with_priority(if batch {
                    Priority::Batch
                } else {
                    Priority::Interactive
                });
                let resp = engine.recommend(&req).expect("served");
                assert_eq!(
                    resp.provenance.is_some(),
                    batch,
                    "re-rank applies to Batch only"
                );
                let opts = reference_options(batch, Some(&index));
                replayer.replay(
                    m,
                    &graph,
                    None,
                    user,
                    &opts,
                    resp.telemetry.iterations_run as usize,
                    &mut out,
                );
                assert!(
                    same_list(&out, &resp.items),
                    "{} τ={iterations} user {user}: replay {out:?} served {:?}",
                    m.name,
                    resp.items
                );
            }
        }
    }
}

#[test]
fn replay_equals_served_over_a_delta_overlay() {
    let train = tiny();
    let graph = train.to_graph();
    let walk = GraphRecConfig {
        max_items: 40,
        iterations: models::TAU_PAPER,
    };
    for name in ["HT", "AC1"] {
        let m = BenchModel::build(name, &train, walk, None);
        let store = Arc::new(DeltaStore::new(train.clone(), DeltaConfig::default()));
        let engine = Engine::builder()
            .workers(1)
            .model(m.name, m.rec.clone())
            .ingest(m.name, store.clone())
            .build();
        let new_user = train.n_users() as u32;
        for (i, user) in [0, 3, new_user, 5, new_user].into_iter().enumerate() {
            store.append(DeltaRating {
                user,
                item: (i * 11 % train.n_items()) as u32,
                value: 4.0,
                timestamp: 1e6 + i as f64,
            });
        }
        store.publish();
        let delta = store.snapshot().delta;
        let mut replayer = Replayer::default();
        let mut out = Vec::new();
        for user in [0, 3, 5, 8, new_user] {
            let resp = engine
                .recommend(&RecommendRequest::new(m.name, user, K))
                .expect("served");
            assert_eq!(resp.epoch, Some(store.epoch()));
            replayer.replay(
                &m,
                &graph,
                Some(&delta),
                user,
                &RecommendOptions::new(),
                resp.telemetry.iterations_run as usize,
                &mut out,
            );
            assert!(
                same_list(&out, &resp.items),
                "{name} user {user} over the overlay"
            );
        }
    }
}
