//! Golden end-to-end fixture: known-good top-10 lists per recommender.
//!
//! The equivalence property tests only prove the fused top-k path agrees
//! with score-then-sort *today*; if a future refactor broke both paths the
//! same way, self-consistency would still hold. This suite diffs against
//! rankings frozen on disk instead:
//!
//! * `tests/golden/ratings.csv` — a small committed synthetic dataset
//!   (header `n_users,n_items`, then `user,item,value` triplets);
//! * `tests/golden/expected_top10.tsv` — for every recommender and every
//!   user, the expected top-10 list as `item:score` pairs (scores at 10
//!   significant digits, which tolerates last-ulp reassociation but nothing
//!   an actual ranking change could survive).
//!
//! To regenerate after an *intentional* ranking change, run
//!
//! ```sh
//! cargo test --release --test golden_lists -- --ignored regenerate
//! ```
//!
//! and review the diff like any other code change.

use longtail::prelude::*;
use longtail::topics::LdaConfig;
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// The frozen fixture corpus, parsed from `tests/golden/ratings.csv`.
fn fixture_dataset() -> Dataset {
    let raw = std::fs::read_to_string(golden_dir().join("ratings.csv"))
        .expect("tests/golden/ratings.csv is committed with the repo");
    let mut lines = raw.lines().filter(|l| !l.is_empty() && !l.starts_with('#'));
    let header = lines.next().expect("header line");
    let (n_users, n_items) = {
        let mut parts = header.split(',');
        (
            parts.next().unwrap().trim().parse::<usize>().unwrap(),
            parts.next().unwrap().trim().parse::<usize>().unwrap(),
        )
    };
    let ratings: Vec<Rating> = lines
        .map(|line| {
            let mut parts = line.split(',');
            Rating {
                user: parts.next().unwrap().trim().parse().unwrap(),
                item: parts.next().unwrap().trim().parse().unwrap(),
                value: parts.next().unwrap().trim().parse().unwrap(),
            }
        })
        .collect();
    Dataset::from_ratings(n_users, n_items, &ratings)
}

/// Every recommender family but popularity (8 instances — both AC and both
/// PageRank flavors), trained with fixed, fully deterministic
/// hyper-parameters.
/// `Arc`'d so the same roster can also be registered in a serving
/// [`Engine`] (`engine_serves_the_golden_rankings`).
fn fixture_roster(train: &Dataset) -> Vec<longtail::serve::SharedRecommender> {
    let graph = GraphRecConfig {
        max_items: 40,
        iterations: 25,
    };
    let ac = AbsorbingCostConfig {
        graph,
        item_entry_cost: 1.0,
    };
    vec![
        std::sync::Arc::new(HittingTimeRecommender::new(train, graph)),
        std::sync::Arc::new(AbsorbingTimeRecommender::new(train, graph)),
        std::sync::Arc::new(AbsorbingCostRecommender::item_entropy(train, ac)),
        std::sync::Arc::new(AbsorbingCostRecommender::topic_entropy_auto(train, 4, ac)),
        std::sync::Arc::new(PureSvdRecommender::train(train, 8)),
        std::sync::Arc::new(LdaRecommender::train_with(
            train,
            &LdaConfig::with_topics(4),
        )),
        std::sync::Arc::new(PageRankRecommender::plain(train)),
        std::sync::Arc::new(PageRankRecommender::discounted(train)),
    ]
}

/// Render every (recommender, user) top-10 list in the committed format,
/// via the fused `recommend_into` path under the given stopping policy.
///
/// The committed fixture is rendered under [`DpStopping::Fixed`]: frozen
/// scores are the full-τ values, exactly reproducible forever. The default
/// adaptive policy serves the *same rankings* with scores from the DP's
/// stop iteration; `adaptive_early_termination_serves_the_golden_rankings`
/// pins that equivalence against the same fixture.
fn render_lists(train: &Dataset, stopping: DpStopping) -> String {
    let mut out = String::from(
        "# algorithm\tuser\ttop-10 as item:score (10 significant digits), '-' when empty\n",
    );
    let mut ctx = ScoringContext::new();
    let opts = RecommendOptions::with_stopping(stopping);
    let mut list = Vec::new();
    for rec in fixture_roster(train) {
        for u in 0..train.n_users() as u32 {
            rec.recommend_into(u, 10, &opts, &mut ctx, &mut list);
            write!(out, "{}\t{}\t", rec.name(), u).unwrap();
            if list.is_empty() {
                out.push('-');
            } else {
                for (j, s) in list.iter().enumerate() {
                    if j > 0 {
                        out.push(' ');
                    }
                    write!(out, "{}:{:.10e}", s.item, s.score).unwrap();
                }
            }
            out.push('\n');
        }
    }
    out
}

#[test]
fn golden_top10_lists_match_fixture() {
    let train = fixture_dataset();
    let expected = std::fs::read_to_string(golden_dir().join("expected_top10.tsv"))
        .expect("tests/golden/expected_top10.tsv is committed with the repo");
    let got = render_lists(&train, DpStopping::Fixed);
    if got != expected {
        // Pinpoint the first diverging line so the failure is actionable.
        for (lineno, (g, e)) in got.lines().zip(expected.lines()).enumerate() {
            assert_eq!(
                g,
                e,
                "golden mismatch at expected_top10.tsv line {} — if this \
                 ranking change is intentional, regenerate with `cargo test \
                 --release --test golden_lists -- --ignored regenerate`",
                lineno + 1
            );
        }
        panic!(
            "golden fixture line count changed: got {} lines, expected {}",
            got.lines().count(),
            expected.lines().count()
        );
    }
}

/// With early termination enabled by default, every recommender must serve
/// exactly the frozen *rankings* — same items, same positions — against the
/// unchanged fixture. Walk-family scores may sit above the frozen full-τ
/// scores (the monotone DP stopped early) but never below and never
/// reordered; every other family must reproduce its committed line
/// byte-for-byte (the adaptive policy only touches the walk DP).
#[test]
fn adaptive_early_termination_serves_the_golden_rankings() {
    let train = fixture_dataset();
    let expected = std::fs::read_to_string(golden_dir().join("expected_top10.tsv"))
        .expect("tests/golden/expected_top10.tsv is committed with the repo");
    let got = render_lists(&train, DpStopping::Adaptive);

    let parse = |line: &str| -> (String, Vec<(u32, f64)>) {
        let mut fields = line.split('\t');
        let algo = fields.next().unwrap().to_string();
        let user = fields.next().unwrap();
        let list = fields.next().unwrap();
        let items = if list == "-" {
            Vec::new()
        } else {
            list.split(' ')
                .map(|pair| {
                    let (item, score) = pair.split_once(':').expect("item:score pair");
                    (item.parse().unwrap(), score.parse().unwrap())
                })
                .collect()
        };
        (format!("{algo}\tuser {user}"), items)
    };

    let content = |s: &str| {
        s.lines()
            .filter(|l| !l.starts_with('#'))
            .map(String::from)
            .collect::<Vec<_>>()
    };
    let got_lines = content(&got);
    let expected_lines = content(&expected);
    assert_eq!(got_lines.len(), expected_lines.len(), "line count changed");
    for (g, e) in got_lines.iter().zip(&expected_lines) {
        let walk_family = ["HT\t", "AT\t", "AC1\t", "AC2\t"]
            .iter()
            .any(|p| e.starts_with(p));
        if !walk_family {
            // Non-walk families don't run the truncated DP: the adaptive
            // policy must not change a single committed character.
            assert_eq!(g, e, "non-walk line drifted under the adaptive policy");
            continue;
        }
        let (g_key, g_list) = parse(g);
        let (e_key, e_list) = parse(e);
        assert_eq!(g_key, e_key);
        let g_items: Vec<u32> = g_list.iter().map(|&(i, _)| i).collect();
        let e_items: Vec<u32> = e_list.iter().map(|&(i, _)| i).collect();
        assert_eq!(
            g_items, e_items,
            "{g_key}: early termination changed the served ranking"
        );
        for (&(item, g_score), &(_, e_score)) in g_list.iter().zip(&e_list) {
            assert!(
                g_score >= e_score - 1e-9 * (1.0 + e_score.abs()),
                "{g_key} item {item}: adaptive score {g_score} fell below frozen {e_score}"
            );
        }
    }
}

/// The serving engine must pass the golden fixture *unchanged*: routing a
/// request through the registry, the context pool and the worker pool
/// yields byte-for-byte the committed `Fixed`-policy lists for every
/// family and user.
#[test]
fn engine_serves_the_golden_rankings() {
    let train = fixture_dataset();
    let expected = std::fs::read_to_string(golden_dir().join("expected_top10.tsv"))
        .expect("tests/golden/expected_top10.tsv is committed with the repo");

    let roster = fixture_roster(&train);
    let mut builder = Engine::builder().workers(2);
    for rec in &roster {
        builder = builder.model(rec.name(), std::sync::Arc::clone(rec));
    }
    let engine = builder.build();

    // Re-render the committed format, but through the engine's batch path
    // (the persistent worker pool) instead of direct recommend_into.
    let requests: Vec<RecommendRequest> = roster
        .iter()
        .flat_map(|rec| {
            (0..train.n_users() as u32)
                .map(|u| RecommendRequest::new(rec.name(), u, 10).with_stopping(DpStopping::Fixed))
        })
        .collect();
    let keys: Vec<(&'static str, u32)> = roster
        .iter()
        .flat_map(|rec| (0..train.n_users() as u32).map(move |u| (rec.name(), u)))
        .collect();

    let mut got = String::from(
        "# algorithm\tuser\ttop-10 as item:score (10 significant digits), '-' when empty\n",
    );
    for ((name, u), response) in keys.iter().zip(engine.recommend_batch(requests)) {
        let response = response.expect("fixture model is registered");
        assert_eq!(response.model, *name);
        write!(got, "{}\t{}\t", name, u).unwrap();
        if response.items.is_empty() {
            got.push('-');
        } else {
            for (j, s) in response.items.iter().enumerate() {
                if j > 0 {
                    got.push(' ');
                }
                write!(got, "{}:{:.10e}", s.item, s.score).unwrap();
            }
        }
        got.push('\n');
    }
    for (lineno, (g, e)) in got.lines().zip(expected.lines()).enumerate() {
        assert_eq!(
            g,
            e,
            "engine diverged from the golden fixture at line {}",
            lineno + 1
        );
    }
    assert_eq!(got.lines().count(), expected.lines().count());
}

/// The full model lifecycle must be ranking-preserving: every fixture
/// family is trained, saved to a binary snapshot, loaded back from the
/// file, hot-deployed into a live engine (replacing the trained original
/// as version 2), and served — and the served lists must match the
/// committed fixture byte-for-byte. Pins save→load→deploy→serve as a
/// bit-identity, not an approximation.
#[test]
fn snapshot_lifecycle_serves_the_golden_rankings() {
    let train = fixture_dataset();
    let expected = std::fs::read_to_string(golden_dir().join("expected_top10.tsv"))
        .expect("tests/golden/expected_top10.tsv is committed with the repo");
    let dir = std::env::temp_dir().join(format!("longtail_golden_snap_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Save each trained fixture model to a snapshot file and load it back.
    fn round_trip<R>(rec: R, dir: &std::path::Path) -> longtail::serve::SharedRecommender
    where
        R: Persistable + Send + Sync + 'static,
    {
        let path = dir.join(format!("{}.snap", rec.name()));
        rec.save_to_file(&path).expect("snapshot save");
        std::sync::Arc::new(R::load_from_file(&path).expect("snapshot load"))
    }
    let graph = GraphRecConfig {
        max_items: 40,
        iterations: 25,
    };
    let ac = AbsorbingCostConfig {
        graph,
        item_entry_cost: 1.0,
    };
    let reloaded: Vec<longtail::serve::SharedRecommender> = vec![
        round_trip(HittingTimeRecommender::new(&train, graph), &dir),
        round_trip(AbsorbingTimeRecommender::new(&train, graph), &dir),
        round_trip(AbsorbingCostRecommender::item_entropy(&train, ac), &dir),
        round_trip(
            AbsorbingCostRecommender::topic_entropy_auto(&train, 4, ac),
            &dir,
        ),
        round_trip(PureSvdRecommender::train(&train, 8), &dir),
        round_trip(
            LdaRecommender::train_with(&train, &LdaConfig::with_topics(4)),
            &dir,
        ),
        round_trip(PageRankRecommender::plain(&train), &dir),
        round_trip(PageRankRecommender::discounted(&train), &dir),
    ];

    // Register the trained originals, then hot-deploy every reloaded model
    // over them — all traffic below serves on version 2, the snapshot copy.
    let originals = fixture_roster(&train);
    let mut builder = Engine::builder().workers(2);
    for rec in &originals {
        builder = builder.model(rec.name(), std::sync::Arc::clone(rec));
    }
    let engine = builder.build();
    for rec in &reloaded {
        let snap = dir.join(format!("{}.snap", rec.name()));
        let v = engine
            .deploy_from(
                rec.name(),
                std::sync::Arc::clone(rec),
                ModelProvenance::Snapshot(snap),
            )
            .expect("fixture model is registered");
        assert_eq!(v, 2);
    }

    let requests: Vec<RecommendRequest> = reloaded
        .iter()
        .flat_map(|rec| {
            (0..train.n_users() as u32)
                .map(|u| RecommendRequest::new(rec.name(), u, 10).with_stopping(DpStopping::Fixed))
        })
        .collect();
    let keys: Vec<(&'static str, u32)> = reloaded
        .iter()
        .flat_map(|rec| (0..train.n_users() as u32).map(move |u| (rec.name(), u)))
        .collect();
    let mut got = String::from(
        "# algorithm\tuser\ttop-10 as item:score (10 significant digits), '-' when empty\n",
    );
    for ((name, u), response) in keys.iter().zip(engine.recommend_batch(requests)) {
        let response = response.expect("fixture model is registered");
        assert_eq!(response.model, *name);
        assert_eq!(response.version, 2, "{name}: request served pre-deploy");
        write!(got, "{}\t{}\t", name, u).unwrap();
        if response.items.is_empty() {
            got.push('-');
        } else {
            for (j, s) in response.items.iter().enumerate() {
                if j > 0 {
                    got.push(' ');
                }
                write!(got, "{}:{:.10e}", s.item, s.score).unwrap();
            }
        }
        got.push('\n');
    }
    for (lineno, (g, e)) in got.lines().zip(expected.lines()).enumerate() {
        assert_eq!(
            g,
            e,
            "snapshot lifecycle diverged from the golden fixture at line {}",
            lineno + 1
        );
    }
    assert_eq!(got.lines().count(), expected.lines().count());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fixture_covers_every_family_and_some_tail() {
    // Sanity on the committed corpus itself: every roster instance present
    // in the expected file, and the dataset leaves room for non-trivial
    // lists.
    let expected = std::fs::read_to_string(golden_dir().join("expected_top10.tsv")).unwrap();
    for name in ["HT", "AT", "AC1", "AC2", "PureSVD", "LDA", "PPR", "DPPR"] {
        assert!(
            expected
                .lines()
                .any(|l| l.starts_with(&format!("{name}\t"))),
            "fixture is missing {name}"
        );
    }
    let train = fixture_dataset();
    assert!(train.n_ratings() > train.n_users()); // everyone rated something
}

/// Regenerates both fixture files from the current code. Ignored by normal
/// runs; execute explicitly (and review the diff) after an intentional
/// ranking change.
#[test]
#[ignore = "regenerates the committed fixture; run explicitly"]
fn regenerate() {
    let config = SyntheticConfig {
        n_users: 40,
        n_items: 32,
        n_genres: 4,
        zipf_exponent: 1.4,
        taste_concentration: 0.3,
        generalist_fraction: 0.25,
        min_activity: 3,
        max_activity: 12,
        activity_exponent: 1.5,
        rating_noise: 0.5,
        seed: 0x0090_1de2,
    };
    let train = SyntheticData::generate(&config).dataset;
    let mut csv = String::from("# golden fixture corpus — regenerated by tests/golden_lists.rs\n");
    writeln!(csv, "{},{}", train.n_users(), train.n_items()).unwrap();
    for r in train.to_ratings() {
        writeln!(csv, "{},{},{}", r.user, r.item, r.value).unwrap();
    }
    std::fs::create_dir_all(golden_dir()).unwrap();
    std::fs::write(golden_dir().join("ratings.csv"), csv).unwrap();
    // Render from the *parsed* file so the committed CSV is authoritative,
    // under the fixed policy so frozen scores are the exact full-τ values.
    let lists = render_lists(&fixture_dataset(), DpStopping::Fixed);
    std::fs::write(golden_dir().join("expected_top10.tsv"), lists).unwrap();
    println!("regenerated tests/golden/{{ratings.csv,expected_top10.tsv}}");
}
