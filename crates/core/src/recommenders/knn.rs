//! User-based k-nearest-neighbor collaborative filtering.
//!
//! The classic recommender the paper's introduction argues against (§1–2,
//! citing Herlocker et al.): find the k most similar users by cosine
//! similarity over rating vectors, then score items by the similarity-
//! weighted ratings of those neighbors. Its §3.3 failure mode is testable
//! here: on the Figure 2 example it recommends the *locally popular* M1 to
//! U5 where the walk methods surface the niche M4.

use crate::recommenders::rated_row;
use crate::{RecommendOptions, Recommender, ScoredItem, ScoringContext};
use longtail_data::Dataset;
use longtail_graph::CsrMatrix;

/// Similarity measure between user rating vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UserSimilarity {
    /// Cosine similarity over the sparse rating vectors.
    Cosine,
    /// Pearson correlation over co-rated items (the Netflix-era classic);
    /// pairs with fewer than 2 co-rated items get similarity 0.
    Pearson,
}

/// User-based k-NN collaborative filtering.
#[derive(Debug, Clone)]
pub struct KnnRecommender {
    user_items: CsrMatrix,
    /// Per user: the k highest-similarity neighbors as `(user, sim)`.
    neighbors: Vec<Vec<(u32, f64)>>,
}

impl KnnRecommender {
    /// Precompute each user's `k` nearest neighbors on the training data.
    ///
    /// O(|U|² · avg activity) — the quadratic all-pairs pass the paper
    /// contrasts with its subgraph-bounded walks. Fine at laptop scale.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn train(train: &Dataset, k: usize, similarity: UserSimilarity) -> Self {
        assert!(k > 0, "need at least one neighbor");
        let m = train.user_items();
        let n_users = m.rows();
        let norms: Vec<f64> = (0..n_users)
            .map(|u| m.row(u).1.iter().map(|v| v * v).sum::<f64>().sqrt())
            .collect();
        let means: Vec<f64> = (0..n_users)
            .map(|u| {
                let (_, vals) = m.row(u);
                if vals.is_empty() {
                    0.0
                } else {
                    vals.iter().sum::<f64>() / vals.len() as f64
                }
            })
            .collect();

        let mut neighbors = Vec::with_capacity(n_users);
        for u in 0..n_users {
            let mut sims: Vec<(u32, f64)> = (0..n_users)
                .filter(|&v| v != u)
                .map(|v| {
                    let s = match similarity {
                        UserSimilarity::Cosine => cosine(m, u, v, &norms),
                        UserSimilarity::Pearson => pearson(m, u, v, &means),
                    };
                    (v as u32, s)
                })
                .filter(|&(_, s)| s > 0.0)
                .collect();
            sims.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            sims.truncate(k);
            neighbors.push(sims);
        }
        Self {
            user_items: m.clone(),
            neighbors,
        }
    }

    /// Reassemble from persisted state — the snapshot load path. The
    /// neighbor lists are restored verbatim (recomputing them would be the
    /// quadratic pass snapshots exist to avoid).
    pub(crate) fn from_parts(user_items: CsrMatrix, neighbors: Vec<Vec<(u32, f64)>>) -> Self {
        Self {
            user_items,
            neighbors,
        }
    }

    /// The neighbor list of `user` as `(user, similarity)` pairs; empty for
    /// a user outside the training data.
    pub fn neighbors_of(&self, user: u32) -> &[(u32, f64)] {
        self.neighbors.get(user as usize).map_or(&[], Vec::as_slice)
    }

    /// Training matrix (the snapshot save path persists it).
    pub(crate) fn user_items(&self) -> &CsrMatrix {
        &self.user_items
    }

    /// All neighbor lists (the snapshot save path persists them).
    pub(crate) fn neighbor_lists(&self) -> &[Vec<(u32, f64)>] {
        &self.neighbors
    }
}

fn cosine(m: &CsrMatrix, u: usize, v: usize, norms: &[f64]) -> f64 {
    let dot = sparse_dot(m, u, v);
    let denom = norms[u] * norms[v];
    if denom == 0.0 {
        0.0
    } else {
        dot / denom
    }
}

fn pearson(m: &CsrMatrix, u: usize, v: usize, means: &[f64]) -> f64 {
    let (cu, vu) = m.row(u);
    let (cv, vv) = m.row(v);
    let (mut i, mut j) = (0usize, 0usize);
    let (mut num, mut du, mut dv) = (0.0f64, 0.0f64, 0.0f64);
    let mut co_rated = 0usize;
    while i < cu.len() && j < cv.len() {
        match cu[i].cmp(&cv[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let a = vu[i] - means[u];
                let b = vv[j] - means[v];
                num += a * b;
                du += a * a;
                dv += b * b;
                co_rated += 1;
                i += 1;
                j += 1;
            }
        }
    }
    if co_rated < 2 || du == 0.0 || dv == 0.0 {
        0.0
    } else {
        num / (du.sqrt() * dv.sqrt())
    }
}

/// Dot product of two sorted sparse rows.
fn sparse_dot(m: &CsrMatrix, u: usize, v: usize) -> f64 {
    let (cu, vu) = m.row(u);
    let (cv, vv) = m.row(v);
    let (mut i, mut j) = (0usize, 0usize);
    let mut dot = 0.0;
    while i < cu.len() && j < cv.len() {
        match cu[i].cmp(&cv[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                dot += vu[i] * vv[j];
                i += 1;
                j += 1;
            }
        }
    }
    dot
}

impl Recommender for KnnRecommender {
    fn name(&self) -> &'static str {
        "kNN-CF"
    }

    fn score_into(&self, user: u32, _ctx: &mut crate::ScoringContext, out: &mut Vec<f64>) {
        // Items no neighbor rated carry no evidence at all; mark them
        // unreachable rather than tied at zero so they are never
        // recommended.
        out.clear();
        out.resize(self.user_items.cols(), f64::NEG_INFINITY);
        for &(v, sim) in self.neighbors_of(user) {
            for (i, r) in self.user_items.iter_row(v as usize) {
                let slot = &mut out[i as usize];
                if slot.is_finite() {
                    *slot += sim * r;
                } else {
                    *slot = sim * r;
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
        // Fused: the candidate set is only what the neighbors rated.
        // Accumulate into the context's all-`-∞` dense scratch (same slot
        // arithmetic as `score_into`, so scores are bit-identical), then
        // drain exactly the touched slots through the bounded heap,
        // restoring the scratch invariant as we go.
        ctx.topk.reset(opts.fetch(k));
        let n_items = self.user_items.cols();
        if ctx.accum.len() != n_items {
            ctx.accum.clear();
            ctx.accum.resize(n_items, f64::NEG_INFINITY);
        }
        ctx.touched.clear();
        for &(v, sim) in self.neighbors_of(user) {
            for (i, r) in self.user_items.iter_row(v as usize) {
                let slot = &mut ctx.accum[i as usize];
                if slot.is_finite() {
                    *slot += sim * r;
                } else {
                    *slot = sim * r;
                    ctx.touched.push(i);
                }
            }
        }
        let rated = self.rated_items(user);
        for &i in &ctx.touched {
            let score = ctx.accum[i as usize];
            ctx.accum[i as usize] = f64::NEG_INFINITY;
            if rated.binary_search(&i).is_err() && !opts.is_excluded(i) {
                ctx.topk.push(i, score);
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
    fn recommends_the_locally_popular_movie_in_figure2() {
        // §3.3: "traditional CF based algorithms would suggest the local
        // popular movie M1" to U5 — the behaviour the paper fixes.
        let rec = KnnRecommender::train(&figure2(), 2, UserSimilarity::Cosine);
        let top = rec.recommend(4, 1);
        assert_eq!(top[0].item, 0, "classic CF should pick M1, got {top:?}");
    }

    #[test]
    fn neighbors_are_sorted_and_capped() {
        let rec = KnnRecommender::train(&figure2(), 2, UserSimilarity::Cosine);
        for u in 0..5u32 {
            let n = rec.neighbors_of(u);
            assert!(n.len() <= 2);
            for w in n.windows(2) {
                assert!(w[0].1 >= w[1].1);
            }
            assert!(n.iter().all(|&(v, _)| v != u), "self-neighbor for {u}");
        }
    }

    #[test]
    fn cosine_identical_users_are_nearest() {
        let ratings = [
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
                value: 5.0,
            },
            Rating {
                user: 1,
                item: 1,
                value: 3.0,
            },
            Rating {
                user: 2,
                item: 2,
                value: 4.0,
            },
        ];
        let d = Dataset::from_ratings(3, 3, &ratings);
        let rec = KnnRecommender::train(&d, 2, UserSimilarity::Cosine);
        assert_eq!(rec.neighbors_of(0)[0].0, 1);
        assert!((rec.neighbors_of(0)[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_requires_co_rated_overlap() {
        let ratings = [
            Rating {
                user: 0,
                item: 0,
                value: 5.0,
            },
            Rating {
                user: 1,
                item: 1,
                value: 5.0,
            },
        ];
        let d = Dataset::from_ratings(2, 2, &ratings);
        let rec = KnnRecommender::train(&d, 1, UserSimilarity::Pearson);
        // No co-rated items: no usable neighbors, so no recommendations.
        assert!(rec.neighbors_of(0).is_empty());
        assert!(rec.recommend(0, 1).is_empty());
    }

    #[test]
    fn rated_items_excluded() {
        let rec = KnnRecommender::train(&figure2(), 3, UserSimilarity::Cosine);
        let top = rec.recommend(4, 6);
        assert!(top.iter().all(|s| s.item != 1 && s.item != 2));
    }
}
