//! The streaming-overlay contract, property-tested: for every walk family,
//! serving over base + [`EdgeDelta`] overlay ranks **identically** to a
//! model rebuilt from scratch on the union of the ratings. The delta is
//! served through the options form (`recommend_into` with
//! [`RecommendOptions::delta`]) and through the `recommend_delta_into`
//! shim; both must match the rebuild.
//!
//! With integer star values the overlay's merged rows carry exactly the
//! sums CSR construction produces for the union (f64 integer sums are
//! exact in any association order), so the per-query kernels are
//! bit-identical and the comparison below can demand equal scores, not
//! just equal ranks.
//!
//! Recency decay is pinned the same way: over timestamped ratings, decayed
//! overlay serving equals the decayed union rebuild (the overlay keeps a
//! merged edge's latest timestamp, as the rebuild does), and decayed base
//! serving equals a model rebuilt on the decayed weights themselves.

use longtail_core::{
    AbsorbingCostConfig, AbsorbingCostRecommender, AbsorbingTimeRecommender, DpStopping, EdgeDelta,
    GraphRecConfig, HittingTimeRecommender, RecencyDecay, RecommendOptions, Recommender,
    ScoredItem, ScoringContext,
};
use longtail_data::{Dataset, Rating, TimedRating};
use longtail_topics::{LdaConfig, LdaModel};
use proptest::prelude::*;

const N_USERS: usize = 6;
const N_ITEMS: usize = 8;

/// Integer star values keep f64 sums exact — the bit-equality premise.
fn base_ratings() -> impl Strategy<Value = Vec<Rating>> {
    prop::collection::vec(
        (0..N_USERS as u32, 0..N_ITEMS as u32, 1..6i32).prop_map(|(user, item, v)| Rating {
            user,
            item,
            value: v as f64,
        }),
        1..40,
    )
}

/// Delta appends confined to the base dimensions (dimension growth has its
/// own deterministic tests below).
fn delta_ratings() -> impl Strategy<Value = Vec<Rating>> {
    prop::collection::vec(
        (0..N_USERS as u32, 0..N_ITEMS as u32, 1..6i32).prop_map(|(user, item, v)| Rating {
            user,
            item,
            value: v as f64,
        }),
        0..15,
    )
}

/// Timestamped integer-star ratings over a 1000-second span, so the decay
/// below weighs them by factors from 1/16 to 1.
fn timed_ratings(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<TimedRating>> {
    prop::collection::vec(
        (0..N_USERS as u32, 0..N_ITEMS as u32, 1..6i32, 0..1000i32).prop_map(
            |(user, item, v, t)| TimedRating {
                user,
                item,
                value: v as f64,
                timestamp: t as f64,
            },
        ),
        len,
    )
}

/// A 250-second half-life measured at t = 1000.
fn decay() -> RecencyDecay {
    RecencyDecay::new(250.0, 1000.0)
}

/// Request options with `stopping`, under [`decay`].
fn decayed(stopping: DpStopping) -> RecommendOptions<'static> {
    RecommendOptions::with_stopping(stopping).with_recency(decay())
}

fn build_delta(appends: &[Rating], n_users: usize, n_items: usize) -> EdgeDelta {
    let mut delta = EdgeDelta::new(n_users, n_items);
    for r in appends {
        delta.insert(r.user, r.item, r.value, 0.0);
    }
    delta
}

fn union(base: &[Rating], appends: &[Rating], n_users: usize, n_items: usize) -> Dataset {
    let mut all = base.to_vec();
    all.extend_from_slice(appends);
    Dataset::from_ratings(n_users, n_items, &all)
}

/// Overlay serving vs. the rebuilt model: same items, same ranks, same
/// score bits, for every user, under both stopping policies — through the
/// options form (`recommend_into` with [`RecommendOptions::delta`]) and
/// through the `recommend_delta_into` shim alike.
fn check_overlay_matches_rebuild(
    overlay_rec: &dyn Recommender,
    delta: &EdgeDelta,
    rebuilt: &dyn Recommender,
    n_users: usize,
) -> Result<(), TestCaseError> {
    let mut ctx_a = ScoringContext::new();
    let mut ctx_b = ScoringContext::new();
    let mut got = Vec::new();
    let mut want = Vec::new();
    for stopping in [DpStopping::Fixed, DpStopping::default()] {
        let opts = RecommendOptions::with_stopping(stopping);
        for u in 0..n_users as u32 {
            rebuilt.recommend_into(u, 5, &opts, &mut ctx_b, &mut want);
            for via_options in [true, false] {
                if via_options {
                    overlay_rec.recommend_into(u, 5, &opts.delta(delta), &mut ctx_a, &mut got);
                } else {
                    overlay_rec.recommend_delta_into(delta, u, 5, &opts, &mut ctx_a, &mut got);
                }
                let got_items: Vec<u32> = got.iter().map(|s| s.item).collect();
                let want_items: Vec<u32> = want.iter().map(|s| s.item).collect();
                prop_assert_eq!(
                    &got_items,
                    &want_items,
                    "{} user {} ({:?}, options form {}): overlay {:?} vs rebuild {:?}",
                    rebuilt.name(),
                    u,
                    stopping,
                    via_options,
                    got_items,
                    want_items
                );
                for (a, b) in got.iter().zip(want.iter()) {
                    prop_assert_eq!(
                        a.score.to_bits(),
                        b.score.to_bits(),
                        "{} user {} item {} (options form {}): overlay score {} != rebuild {}",
                        rebuilt.name(),
                        u,
                        a.item,
                        via_options,
                        a.score,
                        b.score
                    );
                }
            }
        }
    }
    Ok(())
}

/// `got` and `want` serve every user the same list — items, ranks and
/// score bits — under both stopping policies. Each closure fills the list
/// for a user and a stopping policy.
fn check_same_lists(
    name: &str,
    mut got: impl FnMut(u32, DpStopping, &mut Vec<ScoredItem>),
    mut want: impl FnMut(u32, DpStopping, &mut Vec<ScoredItem>),
) -> Result<(), TestCaseError> {
    let bits = |list: &[ScoredItem]| -> Vec<(u32, u64)> {
        list.iter().map(|s| (s.item, s.score.to_bits())).collect()
    };
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for stopping in [DpStopping::Fixed, DpStopping::default()] {
        for u in 0..N_USERS as u32 {
            got(u, stopping, &mut a);
            want(u, stopping, &mut b);
            prop_assert_eq!(bits(&a), bits(&b), "{} user {} ({:?})", name, u, stopping);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn decayed_overlay_equals_decayed_rebuild(
        base in timed_ratings(1..40),
        appends in timed_ratings(0..15),
    ) {
        let base_data = Dataset::from_timed_ratings(N_USERS, N_ITEMS, &base);
        let union_data = Dataset::from_timed_ratings(N_USERS, N_ITEMS, &[base, appends.clone()].concat());
        let mut delta = EdgeDelta::new(N_USERS, N_ITEMS);
        for r in &appends {
            delta.insert(r.user, r.item, r.value, r.timestamp);
        }
        let empty = EdgeDelta::new(N_USERS, N_ITEMS);
        let cfg = GraphRecConfig::default();
        let acfg = AbsorbingCostConfig::default();
        // AC2 shares the base LDA model with its rebuild, as above.
        let model = LdaModel::train(base_data.user_items(), &LdaConfig::with_topics(2));
        let pairs: [(Box<dyn Recommender>, Box<dyn Recommender>); 4] = [
            (
                Box::new(HittingTimeRecommender::new(&base_data, cfg)),
                Box::new(HittingTimeRecommender::new(&union_data, cfg)),
            ),
            (
                Box::new(AbsorbingTimeRecommender::new(&base_data, cfg)),
                Box::new(AbsorbingTimeRecommender::new(&union_data, cfg)),
            ),
            (
                Box::new(AbsorbingCostRecommender::item_entropy(&base_data, acfg)),
                Box::new(AbsorbingCostRecommender::item_entropy(&union_data, acfg)),
            ),
            (
                Box::new(AbsorbingCostRecommender::topic_entropy(&base_data, &model, acfg)),
                Box::new(AbsorbingCostRecommender::topic_entropy(&union_data, &model, acfg)),
            ),
        ];
        let (mut ctx_a, mut ctx_b) = (ScoringContext::new(), ScoringContext::new());
        for (overlay_rec, rebuilt) in &pairs {
            check_same_lists(
                rebuilt.name(),
                |u, s, out| overlay_rec.recommend_into(u, 5, &decayed(s).delta(&delta), &mut ctx_a, out),
                |u, s, out| rebuilt.recommend_into(u, 5, &decayed(s), &mut ctx_b, out),
            )?;
            check_same_lists(
                rebuilt.name(),
                |u, s, out| overlay_rec.recommend_delta_into(&delta, u, 5, &decayed(s), &mut ctx_a, out),
                |u, s, out| rebuilt.recommend_into(u, 5, &decayed(s), &mut ctx_b, out),
            )?;
            check_same_lists(
                overlay_rec.name(),
                |u, s, out| overlay_rec.recommend_into(u, 5, &decayed(s).delta(&empty), &mut ctx_a, out),
                |u, s, out| overlay_rec.recommend_into(u, 5, &decayed(s), &mut ctx_b, out),
            )?;
            check_same_lists(
                overlay_rec.name(),
                |u, s, out| overlay_rec.recommend_delta_into(&empty, u, 5, &decayed(s), &mut ctx_a, out),
                |u, s, out| overlay_rec.recommend_into(u, 5, &decayed(s), &mut ctx_b, out),
            )?;
        }
    }

    #[test]
    fn decayed_serving_equals_rebuild_on_decayed_weights(rs in timed_ratings(1..40)) {
        // Decay must really reach the walk: serving the timestamped model
        // under decay equals an undecayed model whose stored weights are
        // already `w · factor(t)` (one merged rating per pair, so the
        // products are the same bits).
        let d = Dataset::from_timed_ratings(N_USERS, N_ITEMS, &rs);
        let scaled: Vec<Rating> = d
            .to_timed_ratings()
            .iter()
            .map(|r| Rating {
                user: r.user,
                item: r.item,
                value: r.value * decay().factor(r.timestamp),
            })
            .collect();
        let scaled_data = Dataset::from_ratings(N_USERS, N_ITEMS, &scaled);
        let cfg = GraphRecConfig::default();
        let pairs: [(Box<dyn Recommender>, Box<dyn Recommender>); 2] = [
            (
                Box::new(HittingTimeRecommender::new(&d, cfg)),
                Box::new(HittingTimeRecommender::new(&scaled_data, cfg)),
            ),
            (
                Box::new(AbsorbingTimeRecommender::new(&d, cfg)),
                Box::new(AbsorbingTimeRecommender::new(&scaled_data, cfg)),
            ),
        ];
        let (mut ctx_a, mut ctx_b) = (ScoringContext::new(), ScoringContext::new());
        for (rec, rebuilt) in &pairs {
            check_same_lists(
                rec.name(),
                |u, s, out| rec.recommend_into(u, 5, &decayed(s), &mut ctx_a, out),
                |u, s, out| {
                    rebuilt.recommend_into(u, 5, &RecommendOptions::with_stopping(s), &mut ctx_b, out)
                },
            )?;
        }
    }

    #[test]
    fn hitting_time_overlay_equals_rebuild(base in base_ratings(), appends in delta_ratings()) {
        let base_data = Dataset::from_ratings(N_USERS, N_ITEMS, &base);
        let union_data = union(&base, &appends, N_USERS, N_ITEMS);
        let delta = build_delta(&appends, N_USERS, N_ITEMS);
        let cfg = GraphRecConfig::default();
        let overlay_rec = HittingTimeRecommender::new(&base_data, cfg);
        let rebuilt = HittingTimeRecommender::new(&union_data, cfg);
        check_overlay_matches_rebuild(&overlay_rec, &delta, &rebuilt, N_USERS)?;
    }

    #[test]
    fn absorbing_time_overlay_equals_rebuild(base in base_ratings(), appends in delta_ratings()) {
        let base_data = Dataset::from_ratings(N_USERS, N_ITEMS, &base);
        let union_data = union(&base, &appends, N_USERS, N_ITEMS);
        let delta = build_delta(&appends, N_USERS, N_ITEMS);
        let cfg = GraphRecConfig::default();
        let overlay_rec = AbsorbingTimeRecommender::new(&base_data, cfg);
        let rebuilt = AbsorbingTimeRecommender::new(&union_data, cfg);
        check_overlay_matches_rebuild(&overlay_rec, &delta, &rebuilt, N_USERS)?;
    }

    #[test]
    fn absorbing_cost_item_overlay_equals_rebuild(
        base in base_ratings(),
        appends in delta_ratings(),
    ) {
        // AC1 recomputes delta-touched users' Eq. 10 entropies from the
        // merged rows — the rebuild computes them from the union matrix, so
        // they must agree term for term.
        let base_data = Dataset::from_ratings(N_USERS, N_ITEMS, &base);
        let union_data = union(&base, &appends, N_USERS, N_ITEMS);
        let delta = build_delta(&appends, N_USERS, N_ITEMS);
        let cfg = AbsorbingCostConfig::default();
        let overlay_rec = AbsorbingCostRecommender::item_entropy(&base_data, cfg);
        let rebuilt = AbsorbingCostRecommender::item_entropy(&union_data, cfg);
        check_overlay_matches_rebuild(&overlay_rec, &delta, &rebuilt, N_USERS)?;
    }

    #[test]
    fn absorbing_cost_topic_overlay_equals_rebuild(
        base in base_ratings(),
        appends in delta_ratings(),
    ) {
        // AC2's topic entropies come from the LDA model, which streaming
        // appends do not retrain: the honest rebuild comparison shares the
        // base model (entropies are a function of the model alone).
        let base_data = Dataset::from_ratings(N_USERS, N_ITEMS, &base);
        let union_data = union(&base, &appends, N_USERS, N_ITEMS);
        let delta = build_delta(&appends, N_USERS, N_ITEMS);
        let cfg = AbsorbingCostConfig::default();
        let model = LdaModel::train(base_data.user_items(), &LdaConfig::with_topics(2));
        let overlay_rec = AbsorbingCostRecommender::topic_entropy(&base_data, &model, cfg);
        let rebuilt = AbsorbingCostRecommender::topic_entropy(&union_data, &model, cfg);
        check_overlay_matches_rebuild(&overlay_rec, &delta, &rebuilt, N_USERS)?;
    }
}

/// Dimension growth: a delta user and item beyond the base dims are
/// first-class in the overlay — same ranking as the grown rebuild.
#[test]
fn overlay_serves_new_users_and_items() {
    let base = [
        Rating {
            user: 0,
            item: 0,
            value: 5.0,
        },
        Rating {
            user: 0,
            item: 1,
            value: 3.0,
        },
        Rating {
            user: 1,
            item: 0,
            value: 4.0,
        },
        Rating {
            user: 1,
            item: 2,
            value: 5.0,
        },
    ];
    // User 2 and item 3 exist only in the delta.
    let appends = [
        Rating {
            user: 2,
            item: 0,
            value: 5.0,
        },
        Rating {
            user: 2,
            item: 3,
            value: 4.0,
        },
        Rating {
            user: 1,
            item: 3,
            value: 5.0,
        },
    ];
    let base_data = Dataset::from_ratings(2, 3, &base);
    let union_data = union(&base, &appends, 3, 4);
    let delta = build_delta(&appends, 2, 3);
    assert_eq!(delta.n_users(), 3, "delta grew the user dim");
    assert_eq!(delta.n_items(), 4, "delta grew the item dim");

    let cfg = GraphRecConfig::default();
    let opts = RecommendOptions::with_stopping(DpStopping::Fixed);
    let mut ctx_a = ScoringContext::new();
    let mut ctx_b = ScoringContext::new();
    let mut got = Vec::new();
    let mut want = Vec::new();
    for u in 0..3u32 {
        let overlay_ht = HittingTimeRecommender::new(&base_data, cfg);
        let rebuilt_ht = HittingTimeRecommender::new(&union_data, cfg);
        overlay_ht.recommend_delta_into(&delta, u, 4, &opts, &mut ctx_a, &mut got);
        rebuilt_ht.recommend_into(u, 4, &opts, &mut ctx_b, &mut want);
        assert_eq!(got, want, "HT user {u}");

        let overlay_at = AbsorbingTimeRecommender::new(&base_data, cfg);
        let rebuilt_at = AbsorbingTimeRecommender::new(&union_data, cfg);
        overlay_at.recommend_delta_into(&delta, u, 4, &opts, &mut ctx_a, &mut got);
        rebuilt_at.recommend_into(u, 4, &opts, &mut ctx_b, &mut want);
        assert_eq!(got, want, "AT user {u}");

        let acfg = AbsorbingCostConfig::default();
        let overlay_ac = AbsorbingCostRecommender::item_entropy(&base_data, acfg);
        let rebuilt_ac = AbsorbingCostRecommender::item_entropy(&union_data, acfg);
        overlay_ac.recommend_delta_into(&delta, u, 4, &opts, &mut ctx_a, &mut got);
        rebuilt_ac.recommend_into(u, 4, &opts, &mut ctx_b, &mut want);
        assert_eq!(got, want, "AC1 user {u}");
    }
}

/// The delta must never surface the user's own merged rated set: items
/// rated only via the delta are excluded like training items.
#[test]
fn overlay_excludes_delta_rated_items() {
    let base = [
        Rating {
            user: 0,
            item: 0,
            value: 5.0,
        },
        Rating {
            user: 1,
            item: 0,
            value: 4.0,
        },
        Rating {
            user: 1,
            item: 1,
            value: 5.0,
        },
        Rating {
            user: 1,
            item: 2,
            value: 3.0,
        },
    ];
    let base_data = Dataset::from_ratings(2, 3, &base);
    let mut delta = EdgeDelta::new(2, 3);
    // User 0 rates item 1 through the stream: it must vanish from their
    // recommendations even though the base graph says unrated.
    delta.insert(0, 1, 5.0, 0.0);

    let opts = RecommendOptions::default();
    let mut ctx = ScoringContext::new();
    let mut out = Vec::new();
    let rec = AbsorbingTimeRecommender::new(&base_data, GraphRecConfig::default());
    rec.recommend_into(0, 3, &opts, &mut ctx, &mut out);
    assert!(
        out.iter().any(|s| s.item == 1),
        "without the delta, item 1 is a candidate: {out:?}"
    );
    rec.recommend_delta_into(&delta, 0, 3, &opts, &mut ctx, &mut out);
    assert!(
        out.iter().all(|s| s.item != 1),
        "delta-rated item 1 must be excluded: {out:?}"
    );
}
