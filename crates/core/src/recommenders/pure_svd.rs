//! PureSVD baseline (Cremonesi, Koren & Turrin 2010; §5.1.1).
//!
//! The strongest matrix-factorization competitor in the paper's study: take
//! the rating matrix with missing entries as literal zeros, compute a rank-f
//! truncated SVD `R ≈ U Σ Qᵀ`, and score user `u`'s items by the projection
//! `r̂_u = r_u Q Qᵀ` — i.e. reconstruct the user's row from the dominant
//! item factors. Zero-filling bakes popularity into the factors, which is
//! exactly why its recommendations concentrate on the short head (Figure 6).

use crate::recommenders::rated_row;
use crate::{RecommendOptions, Recommender, ScoredItem, ScoringContext};
use longtail_data::Dataset;
use longtail_graph::CsrMatrix;
use longtail_linalg::ops::LinearOp;
use longtail_linalg::svd::{randomized_svd, SvdConfig, TruncatedSvd};

/// Adapter exposing a sparse rating matrix as a [`LinearOp`] for the
/// randomized SVD (matvec = `R x`, matvec_t = `Rᵀ x`).
struct CsrOp<'a>(&'a CsrMatrix);

impl LinearOp for CsrOp<'_> {
    fn rows(&self) -> usize {
        self.0.rows()
    }

    fn cols(&self) -> usize {
        self.0.cols()
    }

    fn matvec(&self, x: &[f64], y: &mut [f64]) {
        self.0.matvec(x, y);
    }

    fn matvec_t(&self, x: &[f64], y: &mut [f64]) {
        self.0.matvec_t(x, y);
    }
}

/// The PureSVD recommender.
#[derive(Debug, Clone)]
pub struct PureSvdRecommender {
    /// Item factor matrix Q (`n_items x f`), stored row-major per item.
    item_factors: Vec<f64>,
    rank: usize,
    user_items: CsrMatrix,
}

impl PureSvdRecommender {
    /// Factorize the training matrix at the given rank with default SVD
    /// parameters.
    pub fn train(train: &Dataset, rank: usize) -> Self {
        Self::train_with(train, &SvdConfig::with_rank(rank))
    }

    /// Factorize with an explicit SVD configuration.
    pub fn train_with(train: &Dataset, config: &SvdConfig) -> Self {
        let matrix = train.user_items();
        let svd: TruncatedSvd = randomized_svd(&CsrOp(matrix), config);
        let rank = svd.rank();
        let n_items = matrix.cols();
        let mut item_factors = vec![0.0f64; n_items * rank];
        for i in 0..n_items {
            for f in 0..rank {
                item_factors[i * rank + f] = svd.v[(i, f)];
            }
        }
        Self {
            item_factors,
            rank,
            user_items: matrix.clone(),
        }
    }

    /// Reassemble from persisted state — the snapshot load path. The
    /// factor matrix is restored bit-exactly; re-running the randomized
    /// SVD would yield a different (sign/rotation-equivalent) basis.
    pub(crate) fn from_parts(user_items: CsrMatrix, item_factors: Vec<f64>, rank: usize) -> Self {
        Self {
            item_factors,
            rank,
            user_items,
        }
    }

    /// Effective factor rank (can be lower than requested for low-rank
    /// training data).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Training matrix (the snapshot save path persists it).
    pub(crate) fn user_items(&self) -> &CsrMatrix {
        &self.user_items
    }

    /// The flat row-major item factor matrix (the snapshot save path
    /// persists it bit-exactly).
    pub(crate) fn item_factors_flat(&self) -> &[f64] {
        &self.item_factors
    }

    /// Item factor row of item `i`.
    fn factors_of(&self, i: usize) -> &[f64] {
        &self.item_factors[i * self.rank..(i + 1) * self.rank]
    }

    /// Whether `user` is in the training data; a user outside it is
    /// recommended nothing.
    fn knows(&self, user: u32) -> bool {
        (user as usize) < self.user_items.rows()
    }

    /// Project `user`'s sparse rating row onto the factor space (the
    /// length-f vector `r_u Q`), writing into `projection`.
    fn project_user(&self, user: u32, projection: &mut Vec<f64>) {
        projection.clear();
        projection.resize(self.rank, 0.0);
        for (i, v) in self.user_items.iter_row(user as usize) {
            let factors = self.factors_of(i as usize);
            for (p, &q) in projection.iter_mut().zip(factors.iter()) {
                *p += v * q;
            }
        }
    }
}

impl Recommender for PureSvdRecommender {
    fn name(&self) -> &'static str {
        "PureSVD"
    }

    fn score_into(&self, user: u32, ctx: &mut crate::ScoringContext, out: &mut Vec<f64>) {
        let n_items = self.user_items.cols();
        out.clear();
        if !self.knows(user) {
            out.resize(n_items, f64::NEG_INFINITY);
            return;
        }
        // r̂_u = r_u Q Qᵀ: project the sparse rating row onto the factor
        // space (length-f vector), then expand back over the catalog.
        self.project_user(user, &mut ctx.scratch);
        let projection = &ctx.scratch;
        out.extend((0..n_items).map(|i| {
            self.factors_of(i)
                .iter()
                .zip(projection.iter())
                .map(|(&q, &p)| q * p)
                .sum::<f64>()
        }));
    }

    fn recommend_into(
        &self,
        user: u32,
        k: usize,
        opts: &RecommendOptions<'_>,
        ctx: &mut ScoringContext,
        out: &mut Vec<ScoredItem>,
    ) {
        // Fused: project once, then stream each unrated item's factor dot
        // product straight into the bounded heap — the catalog expansion
        // vector is never materialized. The dot is the same expression as
        // `score_into`, so scores are bit-identical.
        ctx.topk.reset(opts.fetch(k));
        if self.knows(user) {
            self.project_user(user, &mut ctx.scratch);
            let projection = &ctx.scratch;
            let rated = self.rated_items(user);
            for i in 0..self.user_items.cols() {
                if rated.binary_search(&(i as u32)).is_ok() || opts.is_excluded(i as u32) {
                    continue;
                }
                let score = self
                    .factors_of(i)
                    .iter()
                    .zip(projection.iter())
                    .map(|(&q, &p)| q * p)
                    .sum::<f64>();
                ctx.topk.push(i as u32, score);
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
    use longtail_data::Rating;

    /// Block-structured ratings: two communities with one missing entry
    /// each. PureSVD at rank 2 should reconstruct the blocks.
    fn block_data() -> Dataset {
        let mut ratings = Vec::new();
        for u in 0..3u32 {
            for i in 0..3u32 {
                if !(u == 2 && i == 2) {
                    ratings.push(Rating {
                        user: u,
                        item: i,
                        value: 5.0,
                    });
                }
            }
        }
        for u in 3..6u32 {
            for i in 3..6u32 {
                if !(u == 5 && i == 5) {
                    ratings.push(Rating {
                        user: u,
                        item: i,
                        value: 4.0,
                    });
                }
            }
        }
        Dataset::from_ratings(6, 6, &ratings)
    }

    #[test]
    fn reconstructs_missing_block_entries() {
        let rec = PureSvdRecommender::train(&block_data(), 2);
        let top = rec.recommend(2, 1);
        assert_eq!(top[0].item, 2, "user 2 should be offered item 2: {top:?}");
        let top = rec.recommend(5, 1);
        assert_eq!(top[0].item, 5, "user 5 should be offered item 5: {top:?}");
    }

    #[test]
    fn cross_block_scores_are_near_zero() {
        let rec = PureSvdRecommender::train(&block_data(), 2);
        let scores = rec.score_items(0);
        for (i, &s) in scores.iter().enumerate().skip(3).take(3) {
            assert!(s.abs() < 0.5, "cross-block score {i}: {s}");
        }
    }

    #[test]
    fn rank_caps_at_matrix_rank() {
        let rec = PureSvdRecommender::train(&block_data(), 100);
        assert!(rec.rank() <= 6);
    }

    #[test]
    fn rated_items_excluded_from_recommendations() {
        let rec = PureSvdRecommender::train(&block_data(), 2);
        let top = rec.recommend(0, 6);
        assert!(top
            .iter()
            .all(|s| s.item != 0 && s.item != 1 && s.item != 2));
    }

    #[test]
    fn unrated_user_scores_zero_everywhere() {
        let mut ratings = block_data().to_ratings();
        ratings.retain(|r| r.user != 0);
        let d = Dataset::from_ratings(6, 6, &ratings);
        let rec = PureSvdRecommender::train(&d, 2);
        let scores = rec.score_items(0);
        assert!(scores.iter().all(|&s| s.abs() < 1e-12));
    }
}
