//! Property tests: snapshot persistence is a bit-identity for every
//! [`Persistable`] family on arbitrary corpora.
//!
//! The unit tests in `persist.rs` pin the round trip on one fixture; this
//! suite drives it over random datasets — save to snapshot bytes, load
//! back, and require every user's ranking *and every score's bit pattern*
//! to survive unchanged. Walk models trained on timestamped ratings must
//! also keep their timestamps, so recency-decayed serving survives too.
//! Case counts honour `PROPTEST_CASES` (see `vendor/proptest`), which CI
//! pins so the suite stays bounded.

use longtail_core::{
    AbsorbingCostConfig, AbsorbingCostRecommender, AbsorbingTimeRecommender, GraphRecConfig,
    HittingTimeRecommender, LdaRecommender, PageRankRecommender, Persistable,
    PopularityRecommender, PureSvdRecommender, RecencyDecay, RecommendOptions, ScoringContext,
};
use longtail_data::{Dataset, Rating, TimedRating};
use longtail_graph::{CsrMatrix, SnapshotError, SnapshotWriter};
use longtail_topics::LdaConfig;
use proptest::prelude::*;

const N_USERS: usize = 8;
const N_ITEMS: usize = 10;

fn ratings() -> impl Strategy<Value = Vec<Rating>> {
    prop::collection::vec(
        (0..N_USERS as u32, 0..N_ITEMS as u32, 1.0f64..5.0).prop_map(|(user, item, value)| {
            Rating {
                user,
                item,
                value: value.round().max(1.0),
            }
        }),
        1..60,
    )
}

/// Timestamped ratings with integer stars over a 1000-second span.
fn timed_ratings() -> impl Strategy<Value = Vec<TimedRating>> {
    prop::collection::vec(
        (0..N_USERS as u32, 0..N_ITEMS as u32, 1..6i32, 0..1000i32).prop_map(
            |(user, item, value, t)| TimedRating {
                user,
                item,
                value: value as f64,
                timestamp: t as f64,
            },
        ),
        1..60,
    )
}

/// Round-trip `rec` through snapshot bytes and require served output to be
/// bit-identical: same items, same ranks, same `f64` bit patterns.
fn check_round_trip<R: Persistable>(rec: &R, d: &Dataset) -> Result<(), TestCaseError> {
    let bytes = rec.to_snapshot_bytes();
    let loaded = R::load_from_bytes(bytes).expect("round trip must load");
    prop_assert_eq!(loaded.name(), rec.name());
    prop_assert_eq!(loaded.n_items(), rec.n_items());
    for u in 0..d.n_users() as u32 {
        prop_assert_eq!(rec.rated_items(u), loaded.rated_items(u), "user {}", u);
        let a = rec.recommend(u, 5);
        let b = loaded.recommend(u, 5);
        prop_assert_eq!(a.len(), b.len(), "{} user {}", rec.name(), u);
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.item, y.item, "{} user {}", rec.name(), u);
            prop_assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "{} user {}: score drifted through the snapshot",
                rec.name(),
                u
            );
        }
    }
    Ok(())
}

/// [`check_round_trip`], then the same bit-identity for lists served under
/// recency decay, which reads the graph's timestamps.
fn check_decayed_round_trip<R: Persistable>(rec: &R, d: &Dataset) -> Result<(), TestCaseError> {
    check_round_trip(rec, d)?;
    let loaded = R::load_from_bytes(rec.to_snapshot_bytes()).expect("round trip must load");
    let opts = RecommendOptions::default().with_recency(RecencyDecay::new(250.0, 1000.0));
    let mut ctx = ScoringContext::new();
    let mut served = |r: &R, u: u32| -> Vec<(u32, u64)> {
        r.recommend_with(u, 5, &opts, &mut ctx)
            .iter()
            .map(|s| (s.item, s.score.to_bits()))
            .collect()
    };
    for u in 0..d.n_users() as u32 {
        let want = served(rec, u);
        prop_assert_eq!(
            served(&loaded, u),
            want,
            "{} user {} under decay",
            rec.name(),
            u
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn timestamped_walk_family_round_trips_under_recency_decay(rs in timed_ratings()) {
        let d = Dataset::from_timed_ratings(N_USERS, N_ITEMS, &rs);
        let graph = GraphRecConfig::default();
        check_decayed_round_trip(&HittingTimeRecommender::new(&d, graph), &d)?;
        check_decayed_round_trip(&AbsorbingTimeRecommender::new(&d, graph), &d)?;
        let ac = AbsorbingCostConfig::default();
        check_decayed_round_trip(&AbsorbingCostRecommender::item_entropy(&d, ac), &d)?;
    }

    #[test]
    fn walk_family_round_trips(rs in ratings()) {
        let d = Dataset::from_ratings(N_USERS, N_ITEMS, &rs);
        let graph = GraphRecConfig::default();
        check_round_trip(&HittingTimeRecommender::new(&d, graph), &d)?;
        check_round_trip(&AbsorbingTimeRecommender::new(&d, graph), &d)?;
        let ac = AbsorbingCostConfig::default();
        check_round_trip(&AbsorbingCostRecommender::item_entropy(&d, ac), &d)?;
        check_round_trip(
            &AbsorbingCostRecommender::topic_entropy_auto(&d, 2, ac),
            &d,
        )?;
    }

    #[test]
    fn baseline_family_round_trips(rs in ratings()) {
        let d = Dataset::from_ratings(N_USERS, N_ITEMS, &rs);
        check_round_trip(&PopularityRecommender::train(&d), &d)?;
        check_round_trip(&PureSvdRecommender::train(&d, 4), &d)?;
        check_round_trip(&PageRankRecommender::plain(&d), &d)?;
        check_round_trip(&PageRankRecommender::discounted(&d), &d)?;
        check_round_trip(
            &LdaRecommender::train_with(
                &d,
                &LdaConfig { iterations: 15, ..LdaConfig::with_topics(2) },
            ),
            &d,
        )?;
    }
}

/// The timestamp section is optional — snapshots written before it existed
/// load untimed — and checked: timestamps shaped unlike the ratings are a
/// typed error, not a panic.
#[test]
fn timestamp_section_is_optional_and_checked() {
    let ratings = CsrMatrix::from_triplets(2, 3, &[(0, 0, 5.0), (0, 2, 3.0), (1, 1, 4.0)]);
    let snapshot = |times: Option<&CsrMatrix>| {
        let mut w = SnapshotWriter::new("HT", 1);
        ratings.save_into(&mut w, "ratings");
        if let Some(times) = times {
            times.save_into(&mut w, "times");
        }
        w.put_u64s("config", &[6000, 15]);
        w.to_bytes()
    };
    let untimed = HittingTimeRecommender::load_from_bytes(snapshot(None)).unwrap();
    assert_eq!(untimed.graph().user_item_times(), None);

    let times = CsrMatrix::from_triplets(2, 3, &[(0, 0, 10.0), (0, 2, 20.0), (1, 1, 30.0)]);
    let timed = HittingTimeRecommender::load_from_bytes(snapshot(Some(&times))).unwrap();
    assert_eq!(timed.graph().user_item_times(), Some(&times));

    let misshapen = CsrMatrix::from_triplets(2, 3, &[(0, 1, 10.0)]);
    match HittingTimeRecommender::load_from_bytes(snapshot(Some(&misshapen))) {
        Err(SnapshotError::InvalidSection { section, .. }) => assert_eq!(section, "times"),
        other => panic!("expected an invalid times section, got {other:?}"),
    }
}

/// A long-tail catalog is mostly unrated items, so a genuine snapshot can
/// declare more items than it has bytes. It must load and serve like any
/// other: a load-time bound on the declared catalog may refuse only files
/// that cannot be loaded.
#[test]
fn sparse_catalog_larger_than_its_snapshot_round_trips() {
    const USERS: u32 = 20;
    const ITEMS: usize = 4_000;
    // Every user rates one of seven shared items and one item of their own.
    let rs: Vec<Rating> = (0..USERS)
        .flat_map(|user| {
            [(user % 7, 4.0), (100 + user, 5.0)].map(|(item, value)| Rating { user, item, value })
        })
        .collect();
    let d = Dataset::from_ratings(USERS as usize, ITEMS, &rs);
    let ht = HittingTimeRecommender::new(&d, GraphRecConfig::default());
    let pop = PopularityRecommender::train(&d);
    for bytes in [ht.to_snapshot_bytes(), pop.to_snapshot_bytes()] {
        assert!(
            bytes.len() < ITEMS,
            "the catalog must outnumber the snapshot's {} bytes",
            bytes.len()
        );
    }
    check_round_trip(&ht, &d).unwrap();
    check_round_trip(&pop, &d).unwrap();
}
