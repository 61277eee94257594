//! LDA recommender baseline (§5.1.1).
//!
//! Ranks items by the predictive probability `p(i|u) = Σ_z θ̂_u[z] φ̂_z[i]`
//! of the topic model. A strong personalization baseline, but φ is dominated
//! by each topic's most-rated items, so its suggestions concentrate on the
//! short head — the behaviour Figure 6 and Table 2 document.

use crate::recommenders::rated_row;
use crate::Recommender;
use longtail_data::Dataset;
use longtail_graph::CsrMatrix;
use longtail_topics::{LdaConfig, LdaModel};

/// The LDA-based recommender.
#[derive(Debug, Clone)]
pub struct LdaRecommender {
    model: LdaModel,
    user_items: CsrMatrix,
}

impl LdaRecommender {
    /// Train an LDA model on the training ratings with the paper's default
    /// priors (`α = 50/K`, `β = 0.1`).
    pub fn train(train: &Dataset, n_topics: usize) -> Self {
        Self::train_with(train, &LdaConfig::with_topics(n_topics))
    }

    /// Train with explicit LDA hyper-parameters.
    pub fn train_with(train: &Dataset, config: &LdaConfig) -> Self {
        let model = LdaModel::train(train.user_items(), config);
        Self {
            model,
            user_items: train.user_items().clone(),
        }
    }

    /// Wrap an externally trained model (shared with AC2, as in the paper's
    /// experimental setup).
    ///
    /// # Panics
    ///
    /// Panics if model and dataset disagree on dimensions.
    pub fn from_model(train: &Dataset, model: LdaModel) -> Self {
        assert_eq!(model.n_users(), train.n_users(), "user count mismatch");
        assert_eq!(model.n_items(), train.n_items(), "item count mismatch");
        Self {
            model,
            user_items: train.user_items().clone(),
        }
    }

    /// The underlying topic model.
    pub fn model(&self) -> &LdaModel {
        &self.model
    }

    /// Training matrix (the snapshot save path persists it).
    pub(crate) fn user_items(&self) -> &CsrMatrix {
        &self.user_items
    }
}

impl Recommender for LdaRecommender {
    fn name(&self) -> &'static str {
        "LDA"
    }

    fn score_into(&self, user: u32, _ctx: &mut crate::ScoringContext, out: &mut Vec<f64>) {
        if (user as usize) < self.user_items.rows() {
            self.model.score_all_into(user, out);
        } else {
            // A user outside the model has no topic mixture.
            out.clear();
            out.resize(self.user_items.cols(), f64::NEG_INFINITY);
        }
    }

    // `recommend_into` deliberately keeps the default implementation: the
    // topic model is dense (every item scores `Σ_z θ̂_u[z] φ̂_z[i]` with φ
    // stored topic-major), so accumulating the predictive row topic-by-topic
    // into the context's reused buffer and feeding the bounded heap is the
    // cache-optimal candidate enumeration. Streaming `LdaModel::score` per
    // item instead would stride φ by `n_items` per topic — measurably slower
    // than the "full vector" it avoids.

    fn rated_items(&self, user: u32) -> &[u32] {
        rated_row(&self.user_items, user)
    }

    fn n_items(&self) -> usize {
        self.user_items.cols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use longtail_data::Rating;

    /// The paper's α = 50/K prior is tuned for corpora with thousands of
    /// tokens per user; on this 8-user toy it washes out the clusters, so
    /// the tests use a sharper prior.
    fn toy_config() -> LdaConfig {
        LdaConfig {
            alpha: 0.5,
            iterations: 120,
            ..LdaConfig::with_topics(2)
        }
    }

    /// Two user clusters with disjoint item sets; one held-out item per
    /// cluster that only half the cluster rated.
    fn clustered() -> Dataset {
        let mut ratings = Vec::new();
        for u in 0..4u32 {
            for i in 0..4u32 {
                if !(u >= 2 && i == 3) {
                    ratings.push(Rating {
                        user: u,
                        item: i,
                        value: 5.0,
                    });
                }
            }
        }
        for u in 4..8u32 {
            for i in 4..8u32 {
                if !(u >= 6 && i == 7) {
                    ratings.push(Rating {
                        user: u,
                        item: i,
                        value: 5.0,
                    });
                }
            }
        }
        Dataset::from_ratings(8, 8, &ratings)
    }

    #[test]
    fn recommends_within_cluster() {
        let rec = LdaRecommender::train_with(&clustered(), &toy_config());
        // User 2 has not rated item 3 (own cluster) — it must beat every
        // cross-cluster item.
        let top = rec.recommend(2, 1);
        assert_eq!(top[0].item, 3, "got {top:?}");
        let top = rec.recommend(6, 1);
        assert_eq!(top[0].item, 7, "got {top:?}");
    }

    #[test]
    fn scores_are_probabilities() {
        let rec = LdaRecommender::train_with(&clustered(), &toy_config());
        let scores = rec.score_items(0);
        assert!(scores.iter().all(|&s| (0.0..=1.0).contains(&s)));
        // p(i|u) sums to 1 over the catalog.
        let sum: f64 = scores.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn excludes_rated_items() {
        let rec = LdaRecommender::train_with(&clustered(), &toy_config());
        let top = rec.recommend(0, 8);
        assert!(top.iter().all(|s| s.item >= 4 || s.item == 3));
    }

    #[test]
    fn from_model_shares_training() {
        let d = clustered();
        let model = LdaModel::train(d.user_items(), &LdaConfig::with_topics(2));
        let rec = LdaRecommender::from_model(&d, model.clone());
        assert_eq!(rec.score_items(1), model.score_all(1));
    }
}
