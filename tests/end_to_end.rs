//! End-to-end integration: generate → split → train all seven algorithms →
//! evaluate every §5 metric, asserting the paper's qualitative claims at
//! test scale.

use longtail::prelude::*;

/// One shared mid-size corpus for the whole file.
///
/// The paper's qualitative contrasts (tail reach, diversity, novelty) need
/// a sparse long-tailed regime; the Douban-like profile provides it at a
/// size that keeps the whole file under a minute in the test profile.
fn corpus() -> SyntheticData {
    SyntheticData::generate(&SyntheticConfig {
        n_users: 700,
        n_items: 560,
        ..SyntheticConfig::douban_like()
    })
}

#[test]
fn full_pipeline_runs_and_walk_methods_reach_the_tail() {
    let data = corpus();
    let train = &data.dataset;
    let popularity = train.item_popularity();

    let at = AbsorbingTimeRecommender::new(train, GraphRecConfig::default());
    let svd = PureSvdRecommender::train(train, 16);
    let users = sample_test_users(&train.user_activity(), 80, 3, 11);

    let at_lists = RecommendationLists::compute(&at, &users, 10, 2);
    let svd_lists = RecommendationLists::compute(&svd, &users, 10, 2);

    let at_pop = mean_popularity(&at_lists, &popularity);
    let svd_pop = mean_popularity(&svd_lists, &popularity);
    assert!(
        at_pop < svd_pop / 2.0,
        "walk methods must recommend far less popular items: AT {at_pop:.1} vs PureSVD {svd_pop:.1}"
    );
}

#[test]
fn walk_methods_beat_latent_models_on_longtail_recall() {
    // The headline Figure 5 contrast at test scale: absorbing-walk recall
    // beats the latent-factor baselines on held-out tail favourites.
    let data = corpus();
    let tail = LongTailSplit::by_rating_share(&data.dataset.item_popularity(), 0.2);
    let split = holdout_longtail_favorites(
        &data.dataset,
        &tail,
        &SplitConfig {
            n_test: 120,
            ..SplitConfig::default()
        },
    );
    assert!(split.test_cases.len() >= 60, "need enough test cases");

    let at = AbsorbingTimeRecommender::new(&split.train, GraphRecConfig::default());
    let lda = LdaRecommender::train(&split.train, 8);
    let config = RecallConfig {
        n_distractors: 150,
        max_n: 30,
        ..RecallConfig::default()
    };
    let at_curve = recall_at_n(&at, &data.dataset, &split, &config);
    let lda_curve = recall_at_n(&lda, &data.dataset, &split, &config);
    assert!(
        at_curve.at(30) > lda_curve.at(30),
        "AT recall {} must beat LDA {}",
        at_curve.at(30),
        lda_curve.at(30)
    );
}

#[test]
fn diversity_ordering_matches_table_2() {
    let data = corpus();
    let train = &data.dataset;
    let at = AbsorbingTimeRecommender::new(train, GraphRecConfig::default());
    let lda = LdaRecommender::train(train, 8);
    let users = sample_test_users(&train.user_activity(), 100, 3, 17);

    let at_div = diversity(
        &RecommendationLists::compute(&at, &users, 10, 2),
        train.n_items(),
    );
    let lda_div = diversity(
        &RecommendationLists::compute(&lda, &users, 10, 2),
        train.n_items(),
    );
    assert!(
        at_div > 2.0 * lda_div,
        "walk diversity {at_div:.3} must dwarf LDA {lda_div:.3} (Table 2's pattern)"
    );
}

#[test]
fn entropy_bias_keeps_similarity_at_least_at_at_level() {
    // Table 3's pattern: AC1's entropy weighting does not hurt on-taste
    // similarity relative to AT (the paper reports an improvement).
    let data = corpus();
    let train = &data.dataset;
    let ontology = Ontology::from_genres(&data.item_genres, 3, 5);
    let users = sample_test_users(&train.user_activity(), 100, 3, 23);

    let at = AbsorbingTimeRecommender::new(train, GraphRecConfig::default());
    let ac1 = AbsorbingCostRecommender::item_entropy(train, Default::default());
    let at_sim = mean_similarity(
        &RecommendationLists::compute(&at, &users, 10, 2),
        train,
        &ontology,
    );
    let ac1_sim = mean_similarity(
        &RecommendationLists::compute(&ac1, &users, 10, 2),
        train,
        &ontology,
    );
    assert!(
        ac1_sim > at_sim - 0.05,
        "AC1 similarity {ac1_sim:.3} should not fall below AT {at_sim:.3}"
    );
}

#[test]
fn user_study_shape_matches_table_6() {
    // AC2-style tail recommenders must beat PureSVD on novelty; PureSVD may
    // win raw preference (it recommends safe popular items).
    let data = corpus();
    let ac1 = AbsorbingCostRecommender::item_entropy(&data.dataset, Default::default());
    let svd = PureSvdRecommender::train(&data.dataset, 16);
    let config = StudyConfig {
        n_judges: 40,
        ..StudyConfig::default()
    };
    let walk = simulate_study(&ac1, &data, &config);
    let latent = simulate_study(&svd, &data, &config);
    assert!(
        walk.novelty > latent.novelty,
        "walk novelty {:.2} must beat PureSVD {:.2}",
        walk.novelty,
        latent.novelty
    );
    assert!(
        walk.serendipity > latent.serendipity,
        "walk serendipity {:.2} must beat PureSVD {:.2}",
        walk.serendipity,
        latent.serendipity
    );
}

#[test]
fn mu_budget_quality_saturates_like_table_4() {
    // Table 4's mechanics: growing the subgraph budget µ lets the walk
    // reach deeper tail items (popularity decreases monotonically) until
    // the subgraph covers the query's component, after which quality is
    // flat — the paper's µ grid sits in exactly that saturation zone.
    let data = corpus();
    let train = &data.dataset;
    let users = sample_test_users(&train.user_activity(), 40, 3, 29);
    let popularity = train.item_popularity();

    let pop_at_mu = |mu: usize| {
        let rec = AbsorbingTimeRecommender::new(
            train,
            GraphRecConfig {
                max_items: mu,
                iterations: 15,
            },
        );
        mean_popularity(
            &RecommendationLists::compute(&rec, &users, 10, 2),
            &popularity,
        )
    };

    let pops: Vec<f64> = [60usize, 220, 560, usize::MAX]
        .iter()
        .map(|&mu| pop_at_mu(mu))
        .collect();
    // Monotone decrease toward the tail...
    assert!(
        pops[0] > pops[1] && pops[1] > pops[2],
        "popularity not decreasing: {pops:?}"
    );
    // ...and saturation once the budget covers the catalog.
    assert!(
        (pops[2] - pops[3]).abs() < 1e-9,
        "µ = catalog must equal µ = ∞: {pops:?}"
    );
}

#[test]
fn rerank_policy_costs_bounded_longtail_recall() {
    // The accuracy side of popularity-bias mitigation: served-list
    // Recall@10 on held-out tail favourites with the re-rank policy on
    // (MMR, a popularity penalty and a 3-slot tail quota) may fall at most
    // 0.15 below the raw fused path's, for HT and for AC1.
    let data = SyntheticData::generate(&SyntheticConfig {
        n_users: 600,
        n_items: 450,
        ..SyntheticConfig::movielens_like()
    });
    let tail = LongTailSplit::by_rating_share(&data.dataset.item_popularity(), 0.2);
    let split = holdout_longtail_favorites(&data.dataset, &tail, &SplitConfig::default());
    let mut users: Vec<u32> = split.test_cases.iter().map(|c| c.user).collect();
    users.sort_unstable();
    let index = RerankIndex::from_dataset(&split.train);
    let policy = RerankPolicy::new()
        .mmr(0.3)
        .popularity_penalty(0.25)
        .tail_quota(3);
    let reranked = RecommendOptions::new().rerank(Reranker::new(&index, policy));

    let graph = GraphRecConfig {
        max_items: 300,
        iterations: 15,
    };
    let ht = HittingTimeRecommender::new(&split.train, graph);
    let ac1 = AbsorbingCostRecommender::item_entropy(
        &split.train,
        AbsorbingCostConfig {
            graph,
            ..AbsorbingCostConfig::default()
        },
    );
    for rec in [&ht as &dyn Recommender, &ac1] {
        let recall = |opts: &RecommendOptions<'_>| {
            let lists = RecommendationLists::compute_with(rec, &users, 10, opts, 2);
            list_recall(&lists, &split.test_cases)
        };
        let (off, on) = (recall(&RecommendOptions::default()), recall(&reranked));
        assert!(
            on >= off - 0.15,
            "{}: Recall@10 {off:.4} without the policy, {on:.4} with it",
            rec.name()
        );
    }
}

#[test]
fn deterministic_across_runs() {
    let a = corpus();
    let b = corpus();
    assert_eq!(a.dataset.user_items(), b.dataset.user_items());
    let rec_a = AbsorbingTimeRecommender::new(&a.dataset, GraphRecConfig::default());
    let rec_b = AbsorbingTimeRecommender::new(&b.dataset, GraphRecConfig::default());
    for u in [0u32, 5, 17] {
        assert_eq!(rec_a.recommend(u, 10), rec_b.recommend(u, 10));
    }
}
