//! The snapshot log recovers exactly what each observed epoch of a real
//! `DeltaStore` contained, across auto-publishes and compactions.

use longtail_core::{EdgeDelta, GraphRecConfig};
use longtail_data::SyntheticConfig;
use longtail_perfbench::ingest_log::{prefix_weights, resolve, run_end, Seen};
use longtail_perfbench::models::{self, BenchModel};
use longtail_serve::{DeltaConfig, DeltaRating, DeltaStore, Engine};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

fn edges(delta: &EdgeDelta) -> Vec<(u32, u32, u64)> {
    let mut out = Vec::new();
    delta.for_each(|u, i, w, _| out.push((u, i, w.to_bits())));
    out
}

#[test]
fn snapshots_resolve_to_the_appends_they_held() {
    let base = models::corpus(SyntheticConfig::movielens_like().scaled(0.15), 2);
    let walk = GraphRecConfig {
        max_items: 30,
        iterations: 5,
    };
    let m = BenchModel::build("HT", &base, walk, None);
    let config = DeltaConfig {
        publish_every: 5,
        max_delta_edges: 1000,
    };
    let store = Arc::new(DeltaStore::new(base.clone(), config));
    let engine = Engine::builder()
        .workers(0)
        .model("HT", m.rec.clone())
        .ingest("HT", store.clone())
        .build();
    let appends: Vec<DeltaRating> = (0..60)
        .map(|i| DeltaRating {
            user: (i * 7 % (base.n_users() + 3)) as u32,
            item: (i * 13 % base.n_items()) as u32,
            value: 1.0 + (i % 5) as f64,
            timestamp: 1e6 + i as f64,
        })
        .collect();
    let prefix = prefix_weights(&appends);
    let base_weight = base.user_items().total_sum();
    let mut seen = Vec::new();
    let mut contents = BTreeMap::new();
    let mut folds = BTreeMap::from([(1, 0)]);
    let mut observe = |seen: &mut Vec<Seen>| {
        let snap = store.snapshot();
        seen.push(Seen::of(&snap));
        contents.insert(snap.epoch, edges(&snap.delta));
    };
    let mut i = 0;
    while i < appends.len() {
        store.append(appends[i]);
        i += 1;
        observe(&mut seen);
        // Compact with nothing pending (right after an auto-publish), with
        // appends pending, and with appends racing the rebuild (made from
        // inside the build, between the fold and the commit).
        let racing = match i {
            20 => 0,
            28 => 0,
            41 => 3,
            _ => continue,
        };
        let union_weight = Mutex::new(0.0);
        let report = engine
            .compact_and_deploy("HT", |union| {
                *union_weight.lock().unwrap() = union.user_items().total_sum();
                for _ in 0..racing {
                    store.append(appends[i]);
                    i += 1;
                }
                BenchModel::build("HT", union, walk, None).rec
            })
            .unwrap();
        let weight = *union_weight.lock().unwrap() - base_weight;
        folds.insert(
            report.version,
            run_end(&prefix, 0, weight).expect("fold found"),
        );
        observe(&mut seen);
    }
    assert_eq!(folds.values().copied().collect::<Vec<_>>(), [0, 20, 28, 41]);
    let states = resolve(&seen, &folds, &prefix).expect("consistent");
    assert!(states.len() >= 12, "only {} epochs observed", states.len());
    for st in &states {
        let mut delta = EdgeDelta::new(0, 0);
        for a in &appends[st.start..st.end] {
            delta.insert(a.user, a.item, a.value, a.timestamp);
        }
        assert_eq!(edges(&delta), contents[&st.epoch], "{st:?}");
        assert!(store.epoch_log().contains(&(st.epoch, st.version)));
    }
    // A snapshot that is no run of the appends is reported.
    let mut bad = seen.clone();
    bad[3].weight += 0.5;
    assert!(resolve(&bad, &folds, &prefix).is_err());
    // So is one over a version whose fold is unknown.
    let mut unknown = folds.clone();
    unknown.remove(&2);
    assert!(resolve(&seen, &unknown, &prefix).is_err());
}

#[test]
fn run_end_finds_the_unique_prefix() {
    let appends: Vec<DeltaRating> = [3.0, 1.0, 5.0, 2.0]
        .iter()
        .map(|&value| DeltaRating {
            user: 0,
            item: 0,
            value,
            timestamp: 0.0,
        })
        .collect();
    let prefix = prefix_weights(&appends);
    assert_eq!(prefix, [0.0, 3.0, 4.0, 9.0, 11.0]);
    assert_eq!(run_end(&prefix, 0, 0.0), Some(0));
    assert_eq!(run_end(&prefix, 0, 9.0), Some(3));
    assert_eq!(run_end(&prefix, 1, 6.0), Some(3));
    assert_eq!(run_end(&prefix, 2, 7.0), Some(4));
    assert_eq!(run_end(&prefix, 1, 2.0), None);
    assert_eq!(run_end(&prefix, 0, 12.0), None);
    assert_eq!(run_end(&prefix, 9, 0.0), None);
}
