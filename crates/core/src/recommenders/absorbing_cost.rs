//! AC — the entropy-biased Absorbing Cost recommenders (§4.2).
//!
//! Refines AT by charging the walk the *target user's entropy* when it hops
//! from an item into a user (Eq. 9): passing through an omnivorous user is
//! expensive, passing through a taste-specific user is cheap, so items
//! reached through specialists — strong taste evidence — rank first. Two
//! entropy sources give the paper's two variants:
//!
//! * **AC1** — item-based entropy (Eq. 10) straight off the rating rows;
//! * **AC2** — topic-based entropy (Eq. 11) from the LDA model of §4.2.3,
//!   the best performer in every experiment of §5.

use crate::config::{AbsorbingCostConfig, RecommendOptions};
use crate::context::ScoringContext;
use crate::walk_common::{Absorb, EntryCosts, Walk};
use crate::{Recommender, ScoredItem};
use longtail_data::Dataset;
use longtail_graph::{BipartiteGraph, GraphView, OverlayGraph};
use longtail_topics::{item_based_entropy, topic_based_entropy, LdaConfig, LdaModel};

/// Which entropy estimator an [`AbsorbingCostRecommender`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntropySource {
    /// Item-based entropy (Eq. 10) — the AC1 variant.
    ItemBased,
    /// Topic-based entropy from an LDA model (Eq. 11) — the AC2 variant.
    TopicBased,
}

/// The Absorbing Cost recommender (AC1 or AC2 depending on construction).
#[derive(Debug, Clone)]
pub struct AbsorbingCostRecommender {
    graph: BipartiteGraph,
    user_entropy: Vec<f64>,
    source: EntropySource,
    config: AbsorbingCostConfig,
}

impl AbsorbingCostRecommender {
    /// AC1: item-based user entropy computed directly from the training
    /// ratings.
    pub fn item_entropy(train: &Dataset, config: AbsorbingCostConfig) -> Self {
        let user_entropy = item_based_entropy(train.user_items());
        Self {
            graph: train.to_graph(),
            user_entropy,
            source: EntropySource::ItemBased,
            config,
        }
    }

    /// AC2: topic-based user entropy from a trained LDA model.
    ///
    /// # Panics
    ///
    /// Panics if the model's user count differs from the dataset's.
    pub fn topic_entropy(train: &Dataset, model: &LdaModel, config: AbsorbingCostConfig) -> Self {
        assert_eq!(
            model.n_users(),
            train.n_users(),
            "LDA model and dataset disagree on user count"
        );
        let user_entropy = topic_based_entropy(model);
        Self {
            graph: train.to_graph(),
            user_entropy,
            source: EntropySource::TopicBased,
            config,
        }
    }

    /// AC2 convenience: train the LDA model internally with the paper's
    /// default priors.
    pub fn topic_entropy_auto(
        train: &Dataset,
        n_topics: usize,
        config: AbsorbingCostConfig,
    ) -> Self {
        let model = LdaModel::train(train.user_items(), &LdaConfig::with_topics(n_topics));
        Self::topic_entropy(train, &model, config)
    }

    /// Reassemble from persisted state — the snapshot load path. The
    /// entropies were computed at training time (AC2's depend on an LDA
    /// model that is not persisted), so they are restored verbatim.
    pub(crate) fn from_parts(
        graph: BipartiteGraph,
        user_entropy: Vec<f64>,
        source: EntropySource,
        config: AbsorbingCostConfig,
    ) -> Self {
        Self {
            graph,
            user_entropy,
            source,
            config,
        }
    }

    /// Training configuration (the snapshot save path persists it).
    pub(crate) fn config(&self) -> AbsorbingCostConfig {
        self.config
    }

    /// Training graph (the snapshot save path persists it).
    pub(crate) fn graph(&self) -> &BipartiteGraph {
        &self.graph
    }

    /// Which entropy estimator this instance uses.
    pub fn entropy_source(&self) -> EntropySource {
        self.source
    }

    /// The per-user entropies in use.
    pub fn user_entropies(&self) -> &[f64] {
        &self.user_entropy
    }

    /// The absorbing-cost walk: absorbed at the user's rated set, each hop
    /// charged by [`EntryCosts`].
    fn walk(&self) -> Walk<'_> {
        Walk {
            graph: &self.graph,
            config: self.config.graph,
            absorb: Absorb::RatedItems,
            costs: Some(self),
        }
    }
}

impl EntryCosts for AbsorbingCostRecommender {
    /// Entering `user` costs their entropy (Eq. 9). Over a base +
    /// `overlay` merge:
    ///
    /// * **AC1** — a user untouched by the delta keeps their precomputed
    ///   Eq. 10 entropy; a touched (or delta-only) user's entropy is
    ///   recomputed from the merged rating row, term-for-term in the same
    ///   ascending-item order as
    ///   [`item_based_entropy`], so it matches a full rebuild exactly.
    ///   Entropies always come from the *undecayed* merged ratings (Eq. 10
    ///   is defined on the rating distribution, not on decayed weights).
    /// * **AC2** — topic entropies come from the fixed LDA model, which the
    ///   delta does not retrain: base users keep their model entropy (what
    ///   a rebuild sharing the model computes); delta-only users, absent
    ///   from the model, fall back to the mean base entropy — neutral
    ///   until the next compaction retrains.
    fn user_cost(&self, overlay: Option<&OverlayGraph<'_>>, user: u32) -> f64 {
        let Some(overlay) = overlay else {
            return self.user_entropy[user as usize];
        };
        let in_base = (user as usize) < self.graph.n_users();
        match self.source {
            EntropySource::ItemBased => {
                if in_base && !overlay.delta().touches_user(user) {
                    return self.user_entropy[user as usize];
                }
                let mut total = 0.0;
                overlay.for_each_rated(user, |_, w| total += w);
                if total <= 0.0 {
                    return 0.0;
                }
                let mut h = 0.0;
                overlay.for_each_rated(user, |_, w| {
                    if w > 0.0 {
                        let p = w / total;
                        h += -p * p.ln();
                    }
                });
                h
            }
            EntropySource::TopicBased => {
                if in_base {
                    self.user_entropy[user as usize]
                } else {
                    let n = self.user_entropy.len();
                    if n == 0 {
                        0.0
                    } else {
                        self.user_entropy.iter().sum::<f64>() / n as f64
                    }
                }
            }
        }
    }

    fn item_cost(&self) -> f64 {
        self.config.item_entry_cost
    }
}

impl Recommender for AbsorbingCostRecommender {
    fn name(&self) -> &'static str {
        match self.source {
            EntropySource::ItemBased => "AC1",
            EntropySource::TopicBased => "AC2",
        }
    }

    fn score_into(&self, user: u32, ctx: &mut ScoringContext, out: &mut Vec<f64>) {
        self.walk().score_into(user, ctx, out);
    }

    fn recommend_into(
        &self,
        user: u32,
        k: usize,
        opts: &RecommendOptions<'_>,
        ctx: &mut ScoringContext,
        out: &mut Vec<ScoredItem>,
    ) {
        self.walk().serve(user, k, opts, ctx, out);
    }

    fn rated_items(&self, user: u32) -> &[u32] {
        self.walk().rated_items(user)
    }

    fn n_items(&self) -> usize {
        self.graph.n_items()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GraphRecConfig;
    use longtail_data::Rating;

    fn figure2() -> Dataset {
        let ratings = [
            (0, 0, 5.0),
            (0, 1, 3.0),
            (0, 4, 3.0),
            (0, 5, 5.0),
            (1, 0, 5.0),
            (1, 1, 4.0),
            (1, 2, 5.0),
            (1, 4, 4.0),
            (1, 5, 5.0),
            (2, 0, 4.0),
            (2, 1, 5.0),
            (2, 2, 4.0),
            (3, 2, 5.0),
            (3, 3, 5.0),
            (4, 1, 4.0),
            (4, 2, 5.0),
        ]
        .map(|(user, item, value)| Rating { user, item, value });
        Dataset::from_ratings(5, 6, &ratings)
    }

    #[test]
    fn ac1_still_finds_the_niche_item() {
        let rec =
            AbsorbingCostRecommender::item_entropy(&figure2(), AbsorbingCostConfig::default());
        assert_eq!(rec.name(), "AC1");
        let top = rec.recommend(4, 1);
        assert_eq!(top[0].item, 3, "expected M4, got {top:?}");
    }

    #[test]
    fn ac2_constructs_and_recommends() {
        let rec = AbsorbingCostRecommender::topic_entropy_auto(
            &figure2(),
            2,
            AbsorbingCostConfig::default(),
        );
        assert_eq!(rec.name(), "AC2");
        assert_eq!(rec.entropy_source(), EntropySource::TopicBased);
        let top = rec.recommend(4, 2);
        assert!(!top.is_empty());
        assert!(top.iter().all(|s| s.item != 1 && s.item != 2));
    }

    #[test]
    fn entropy_bias_penalizes_paths_through_omnivores() {
        // §4.2's motivating example: M3 is rated 5 by both U2 (omnivore,
        // 5 ratings spread over genres) and U4 (specialist, 2 ratings).
        // Jumping M3→U4 must be cheaper than M3→U2.
        let d = figure2();
        let rec = AbsorbingCostRecommender::item_entropy(&d, AbsorbingCostConfig::default());
        let e = rec.user_entropies();
        assert!(
            e[3] < e[1],
            "specialist U4 entropy {} should undercut omnivore U2 {}",
            e[3],
            e[1]
        );
    }

    #[test]
    fn unit_entropy_reduces_to_absorbing_time() {
        // If every user had entropy == C == 1, AC degenerates to AT.
        let d = figure2();
        let mut rec = AbsorbingCostRecommender::item_entropy(&d, AbsorbingCostConfig::default());
        rec.user_entropy = vec![1.0; d.n_users()];
        let at = crate::recommenders::absorbing_time::AbsorbingTimeRecommender::new(
            &d,
            GraphRecConfig::default(),
        );
        let sc = rec.score_items(4);
        let st = at.score_items(4);
        for i in 0..d.n_items() {
            if sc[i].is_finite() && st[i].is_finite() {
                assert!(
                    (sc[i] - st[i]).abs() < 1e-10,
                    "item {i}: {} vs {}",
                    sc[i],
                    st[i]
                );
            }
        }
    }

    #[test]
    fn adaptive_serving_matches_fixed_tau_ranking() {
        use crate::config::{DpStopping, GraphRecConfig};
        let rec = AbsorbingCostRecommender::item_entropy(
            &figure2(),
            AbsorbingCostConfig {
                graph: GraphRecConfig {
                    max_items: 6000,
                    iterations: 120,
                },
                item_entry_cost: 1.0,
            },
        );
        let mut fixed = ScoringContext::new();
        let mut adaptive = ScoringContext::new();
        for u in 0..5u32 {
            let f: Vec<u32> = rec
                .recommend_with(
                    u,
                    6,
                    &RecommendOptions::with_stopping(DpStopping::Fixed),
                    &mut fixed,
                )
                .iter()
                .map(|s| s.item)
                .collect();
            let a: Vec<u32> = rec
                .recommend_with(u, 6, &RecommendOptions::default(), &mut adaptive)
                .iter()
                .map(|s| s.item)
                .collect();
            assert_eq!(a, f, "user {u}");
        }
        let t = adaptive.dp_telemetry();
        assert!(t.iterations_run < t.iterations_budget, "{t:?}");
    }

    #[test]
    fn unrated_user_gets_no_recommendations() {
        let ratings = [Rating {
            user: 0,
            item: 0,
            value: 5.0,
        }];
        let d = Dataset::from_ratings(2, 2, &ratings);
        let rec = AbsorbingCostRecommender::item_entropy(&d, AbsorbingCostConfig::default());
        assert!(rec.recommend(1, 3).is_empty());
    }
}
