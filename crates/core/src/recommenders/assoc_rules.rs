//! Association-rule recommendation (support/confidence co-occurrence).
//!
//! The paper's §1 explains why rule mining cannot serve the tail: a rule
//! `item1 ⇒ item2` needs high *support*, so both items must be popular —
//! "they typically recommend rather generic, popular items". This
//! implementation mines pairwise rules with the usual support/confidence
//! thresholds and exists to demonstrate exactly that bias against the
//! walk-based methods.

use crate::recommenders::rated_row;
use crate::{RecommendOptions, Recommender, ScoredItem, ScoringContext};
use longtail_data::Dataset;
use longtail_graph::CsrMatrix;

/// Pairwise association-rule recommender.
#[derive(Debug, Clone)]
pub struct AssociationRuleRecommender {
    user_items: CsrMatrix,
    /// For each antecedent item: consequents with rule confidence, sorted by
    /// item id.
    rules: Vec<Vec<(u32, f64)>>,
}

/// Mining thresholds.
#[derive(Debug, Clone, Copy)]
pub struct RuleConfig {
    /// Minimum number of users who rated *both* items (absolute support).
    pub min_support: u32,
    /// Minimum confidence `P(j | i) = support(i, j) / support(i)`.
    pub min_confidence: f64,
}

impl Default for RuleConfig {
    fn default() -> Self {
        Self {
            min_support: 3,
            min_confidence: 0.1,
        }
    }
}

impl AssociationRuleRecommender {
    /// Mine all pairwise rules above the thresholds.
    ///
    /// O(Σ_u activity(u)²) — quadratic in per-user basket size, the usual
    /// cost of pairwise co-occurrence counting.
    pub fn train(train: &Dataset, config: &RuleConfig) -> Self {
        let m = train.user_items();
        let n_items = m.cols();
        let popularity = train.item_popularity();

        // Count co-occurrences via a sparse accumulation per item pair.
        let mut cooc: std::collections::HashMap<(u32, u32), u32> = std::collections::HashMap::new();
        for u in 0..m.rows() {
            let (items, _) = m.row(u);
            for (a_idx, &a) in items.iter().enumerate() {
                for &b in &items[a_idx + 1..] {
                    *cooc.entry((a, b)).or_insert(0) += 1;
                }
            }
        }

        let mut rules: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n_items];
        for (&(a, b), &support) in &cooc {
            if support < config.min_support {
                continue;
            }
            let conf_ab = support as f64 / popularity[a as usize].max(1) as f64;
            let conf_ba = support as f64 / popularity[b as usize].max(1) as f64;
            if conf_ab >= config.min_confidence {
                rules[a as usize].push((b, conf_ab));
            }
            if conf_ba >= config.min_confidence {
                rules[b as usize].push((a, conf_ba));
            }
        }
        for r in rules.iter_mut() {
            r.sort_unstable_by_key(|&(b, _)| b);
        }
        Self {
            user_items: m.clone(),
            rules,
        }
    }

    /// Reassemble from persisted state — the snapshot load path. Rule
    /// lists are restored verbatim (confidences depend only on the mined
    /// counts, but re-mining is the work snapshots exist to avoid).
    pub(crate) fn from_parts(user_items: CsrMatrix, rules: Vec<Vec<(u32, f64)>>) -> Self {
        Self { user_items, rules }
    }

    /// The mined rules with `antecedent` on the left side, as
    /// `(consequent, confidence)`.
    pub fn rules_from(&self, antecedent: u32) -> &[(u32, f64)] {
        &self.rules[antecedent as usize]
    }

    /// Total number of mined rules.
    pub fn n_rules(&self) -> usize {
        self.rules.iter().map(|r| r.len()).sum()
    }

    /// Training matrix (the snapshot save path persists it).
    pub(crate) fn user_items(&self) -> &CsrMatrix {
        &self.user_items
    }

    /// All rule lists, indexed by antecedent item (the snapshot save path
    /// persists them).
    pub(crate) fn rule_lists(&self) -> &[Vec<(u32, f64)>] {
        &self.rules
    }
}

impl Recommender for AssociationRuleRecommender {
    fn name(&self) -> &'static str {
        "AssocRules"
    }

    fn score_into(&self, user: u32, _ctx: &mut crate::ScoringContext, out: &mut Vec<f64>) {
        // Score each candidate by its best rule confidence from any rated
        // antecedent (max-confidence aggregation); items no rule fires for
        // are unreachable, not zero-scored ties.
        out.clear();
        out.resize(self.user_items.cols(), f64::NEG_INFINITY);
        for &a in self.rated_items(user) {
            for &(b, conf) in &self.rules[a as usize] {
                let slot = &mut out[b as usize];
                if conf > *slot {
                    *slot = conf;
                }
            }
        }
    }

    fn recommend_into(
        &self,
        user: u32,
        k: usize,
        opts: &RecommendOptions<'_>,
        ctx: &mut ScoringContext,
        out: &mut Vec<ScoredItem>,
    ) {
        // Fused: the candidate set is only the consequents of rules firing
        // from the user's rated antecedents. Max-aggregate into the
        // context's all-`-∞` dense scratch (same comparison as
        // `score_into`), then drain the touched slots through the bounded
        // heap, restoring the scratch invariant as we go.
        ctx.topk.reset(opts.fetch(k));
        let n_items = self.user_items.cols();
        if ctx.accum.len() != n_items {
            ctx.accum.clear();
            ctx.accum.resize(n_items, f64::NEG_INFINITY);
        }
        ctx.touched.clear();
        for &a in self.rated_items(user) {
            for &(b, conf) in &self.rules[a as usize] {
                let slot = &mut ctx.accum[b as usize];
                if conf > *slot {
                    if *slot == f64::NEG_INFINITY {
                        ctx.touched.push(b);
                    }
                    *slot = conf;
                }
            }
        }
        let rated = self.rated_items(user);
        for &b in &ctx.touched {
            let score = ctx.accum[b as usize];
            ctx.accum[b as usize] = f64::NEG_INFINITY;
            if rated.binary_search(&b).is_err() && !opts.is_excluded(b) {
                ctx.topk.push(b, score);
            }
        }
        ctx.topk.drain_sorted_into(out);
        opts.finalize_topk(k, ctx, out);
    }

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
    use longtail_data::{Rating, SyntheticConfig, SyntheticData};

    fn basket_data() -> Dataset {
        // Items 0 and 1 co-occur for 4 users; item 2 appears once.
        let mut ratings = Vec::new();
        for u in 0..4u32 {
            ratings.push(Rating {
                user: u,
                item: 0,
                value: 5.0,
            });
            ratings.push(Rating {
                user: u,
                item: 1,
                value: 4.0,
            });
        }
        ratings.push(Rating {
            user: 4,
            item: 0,
            value: 3.0,
        });
        ratings.push(Rating {
            user: 4,
            item: 2,
            value: 5.0,
        });
        Dataset::from_ratings(5, 3, &ratings)
    }

    #[test]
    fn mines_high_support_pairs() {
        let rec = AssociationRuleRecommender::train(&basket_data(), &RuleConfig::default());
        // 0 => 1 has support 4, confidence 4/5.
        let rules = rec.rules_from(0);
        assert!(rules
            .iter()
            .any(|&(b, c)| b == 1 && (c - 0.8).abs() < 1e-12));
        // 0 => 2 has support 1 < min_support: pruned.
        assert!(!rules.iter().any(|&(b, _)| b == 2));
    }

    #[test]
    fn confidence_is_directional() {
        let rec = AssociationRuleRecommender::train(&basket_data(), &RuleConfig::default());
        // 1 => 0: support 4, popularity(1) = 4, confidence 1.0.
        let back = rec.rules_from(1);
        assert!(back.iter().any(|&(b, c)| b == 0 && (c - 1.0).abs() < 1e-12));
    }

    #[test]
    fn recommends_via_best_rule() {
        let rec = AssociationRuleRecommender::train(&basket_data(), &RuleConfig::default());
        let top = rec.recommend(4, 2); // user 4 rated items 0 and 2
        assert_eq!(top[0].item, 1);
    }

    #[test]
    fn thresholds_prune_rules() {
        let strict = AssociationRuleRecommender::train(
            &basket_data(),
            &RuleConfig {
                min_support: 10,
                min_confidence: 0.1,
            },
        );
        assert_eq!(strict.n_rules(), 0);
        assert!(strict.recommend(4, 3).is_empty());
    }

    #[test]
    fn rules_favor_popular_items_on_longtail_data() {
        // The §1 claim this baseline exists to demonstrate: rule consequents
        // are much more popular than the catalog average.
        // A sparse long-tailed corpus: most items are barely rated, so the
        // head bias of support thresholds stands out.
        let data = SyntheticData::generate(&SyntheticConfig {
            n_users: 400,
            n_items: 300,
            ..SyntheticConfig::douban_like()
        });
        let rec = AssociationRuleRecommender::train(&data.dataset, &RuleConfig::default());
        let popularity = data.dataset.item_popularity();
        let catalog_mean =
            popularity.iter().map(|&p| p as f64).sum::<f64>() / popularity.len() as f64;
        let mut conseq_sum = 0.0;
        let mut conseq_n = 0usize;
        for a in 0..300u32 {
            for &(b, _) in rec.rules_from(a) {
                conseq_sum += popularity[b as usize] as f64;
                conseq_n += 1;
            }
        }
        assert!(conseq_n > 0, "no rules mined");
        let conseq_mean = conseq_sum / conseq_n as f64;
        assert!(
            conseq_mean > 1.5 * catalog_mean,
            "rule consequents should skew popular: {conseq_mean:.1} vs catalog {catalog_mean:.1}"
        );
    }
}
