//! Rating dataset container.
//!
//! A thin, validated wrapper around the sparse user→item rating matrix with
//! the derived views every algorithm needs: the bipartite graph, item
//! popularities, and per-user rated sets.

use longtail_graph::{BipartiteGraph, CsrMatrix};
use serde::{Deserialize, Serialize};

/// A single `(user, item, value)` rating.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rating {
    /// User index, `0..n_users`.
    pub user: u32,
    /// Item index, `0..n_items`.
    pub item: u32,
    /// Rating value (1–5 stars in both of the paper's datasets).
    pub value: f64,
}

/// A rating carrying its event timestamp — the streaming-ingest and
/// temporal-split unit. `timestamp` is in whatever unit the source data uses
/// (seconds for the MovieLens epochs); `0.0` conventionally means "no
/// timestamp recorded".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimedRating {
    /// User index, `0..n_users`.
    pub user: u32,
    /// Item index, `0..n_items`.
    pub item: u32,
    /// Rating value.
    pub value: f64,
    /// Event time (0 when the source carries none).
    pub timestamp: f64,
}

/// An immutable ratings dataset.
///
/// Stores the user→item matrix in CSR (duplicate ratings are summed at
/// construction, matching the multigraph-collapsing of §3.1) and exposes the
/// derived structures used throughout the workspace. Datasets built from
/// [`TimedRating`]s additionally carry a same-structure timestamp matrix
/// (duplicates keep the latest stamp) that flows into the bipartite graph
/// for recency-decay serving and the time-based evaluation split.
#[derive(Debug, Clone)]
pub struct Dataset {
    user_items: CsrMatrix,
    times: Option<CsrMatrix>,
}

impl Dataset {
    /// Build from a rating list.
    ///
    /// # Panics
    ///
    /// Panics if any rating is out of bounds, or its value is not finite
    /// and positive: a zero or negative "rating" has no interpretation as
    /// an edge weight, and an infinite one makes every normalized row it
    /// enters NaN.
    pub fn from_ratings(n_users: usize, n_items: usize, ratings: &[Rating]) -> Self {
        let triplets: Vec<(u32, u32, f64)> = ratings
            .iter()
            .map(|r| {
                check_value(r.value);
                (r.user, r.item, r.value)
            })
            .collect();
        Self {
            user_items: CsrMatrix::from_triplets(n_users, n_items, &triplets),
            times: None,
        }
    }

    /// Build from a timestamped rating list. Duplicate `(user, item)` pairs
    /// sum their values (like [`Dataset::from_ratings`]) and keep the
    /// **latest** timestamp.
    ///
    /// # Panics
    ///
    /// Panics if any rating is out of bounds, or its value is not finite
    /// and positive.
    pub fn from_timed_ratings(n_users: usize, n_items: usize, ratings: &[TimedRating]) -> Self {
        let mut triplets = Vec::with_capacity(ratings.len());
        let mut stamps = Vec::with_capacity(ratings.len());
        for r in ratings {
            check_value(r.value);
            triplets.push((r.user, r.item, r.value));
            stamps.push((r.user, r.item, r.timestamp));
        }
        Self {
            user_items: CsrMatrix::from_triplets(n_users, n_items, &triplets),
            times: Some(CsrMatrix::from_triplets_with(
                n_users,
                n_items,
                &stamps,
                f64::max,
            )),
        }
    }

    /// Wrap an existing user→item matrix.
    pub fn from_matrix(user_items: CsrMatrix) -> Self {
        Self {
            user_items,
            times: None,
        }
    }

    /// Wrap a user→item matrix plus a timestamp matrix with the same
    /// sparsity structure.
    ///
    /// # Panics
    ///
    /// Panics if the two matrices store different `(user, item)` pairs.
    pub fn from_matrix_with_times(user_items: CsrMatrix, times: CsrMatrix) -> Self {
        assert!(
            times.same_structure(&user_items),
            "timestamp matrix structure differs from the rating matrix"
        );
        Self {
            user_items,
            times: Some(times),
        }
    }

    /// Number of users.
    #[inline]
    pub fn n_users(&self) -> usize {
        self.user_items.rows()
    }

    /// Number of items.
    #[inline]
    pub fn n_items(&self) -> usize {
        self.user_items.cols()
    }

    /// Number of ratings.
    #[inline]
    pub fn n_ratings(&self) -> usize {
        self.user_items.nnz()
    }

    /// Fraction of the rating matrix that is filled.
    pub fn density(&self) -> f64 {
        let cells = self.n_users() * self.n_items();
        if cells == 0 {
            0.0
        } else {
            self.n_ratings() as f64 / cells as f64
        }
    }

    /// The user→item rating matrix.
    #[inline]
    pub fn user_items(&self) -> &CsrMatrix {
        &self.user_items
    }

    /// Per-rating timestamps aligned entry-for-entry with
    /// [`Dataset::user_items`], when the source data carried them.
    #[inline]
    pub fn times(&self) -> Option<&CsrMatrix> {
        self.times.as_ref()
    }

    /// Items rated by `u` with values.
    #[inline]
    pub fn ratings_of(&self, u: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.user_items.iter_row(u as usize)
    }

    /// Item ids rated by `u`.
    pub fn rated_items(&self, u: u32) -> &[u32] {
        self.user_items.row(u as usize).0
    }

    /// Whether `u` has rated `i`.
    pub fn has_rated(&self, u: u32, i: u32) -> bool {
        self.user_items.get(u as usize, i).is_some()
    }

    /// Number of ratings per item (the paper's popularity measure).
    pub fn item_popularity(&self) -> Vec<u32> {
        let mut pops = vec![0u32; self.n_items()];
        for u in 0..self.n_users() {
            for (i, _) in self.user_items.iter_row(u) {
                pops[i as usize] += 1;
            }
        }
        pops
    }

    /// Number of ratings per user.
    pub fn user_activity(&self) -> Vec<u32> {
        (0..self.n_users())
            .map(|u| self.user_items.row_nnz(u) as u32)
            .collect()
    }

    /// All ratings as a flat list (row-major order).
    pub fn to_ratings(&self) -> Vec<Rating> {
        let mut out = Vec::with_capacity(self.n_ratings());
        for u in 0..self.n_users() {
            for (i, v) in self.user_items.iter_row(u) {
                out.push(Rating {
                    user: u as u32,
                    item: i,
                    value: v,
                });
            }
        }
        out
    }

    /// All ratings with their timestamps (0 where none were recorded), in
    /// row-major order.
    pub fn to_timed_ratings(&self) -> Vec<TimedRating> {
        let mut out = Vec::with_capacity(self.n_ratings());
        for u in 0..self.n_users() {
            let (items, values) = self.user_items.row(u);
            let times = self.times.as_ref().map(|t| t.row(u).1);
            for (k, (&i, &v)) in items.iter().zip(values).enumerate() {
                out.push(TimedRating {
                    user: u as u32,
                    item: i,
                    value: v,
                    timestamp: times.map_or(0.0, |t| t[k]),
                });
            }
        }
        out
    }

    /// The weighted bipartite graph of §3.1, carrying the dataset's
    /// timestamps when present (so serving can apply recency decay).
    pub fn to_graph(&self) -> BipartiteGraph {
        BipartiteGraph::from_user_item_matrix_with_times(
            self.user_items.clone(),
            self.times.clone(),
        )
    }
}

/// The rating-value contract of the dataset constructors: finite and
/// positive.
fn check_value(value: f64) {
    assert!(
        value.is_finite() && value > 0.0,
        "rating values must be finite and positive, got {value}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        Dataset::from_ratings(
            3,
            4,
            &[
                Rating {
                    user: 0,
                    item: 0,
                    value: 5.0,
                },
                Rating {
                    user: 0,
                    item: 2,
                    value: 3.0,
                },
                Rating {
                    user: 1,
                    item: 0,
                    value: 4.0,
                },
                Rating {
                    user: 2,
                    item: 3,
                    value: 2.0,
                },
            ],
        )
    }

    #[test]
    fn counts_and_density() {
        let d = sample();
        assert_eq!(d.n_users(), 3);
        assert_eq!(d.n_items(), 4);
        assert_eq!(d.n_ratings(), 4);
        assert!((d.density() - 4.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn popularity_and_activity() {
        let d = sample();
        assert_eq!(d.item_popularity(), vec![2, 0, 1, 1]);
        assert_eq!(d.user_activity(), vec![2, 1, 1]);
    }

    #[test]
    fn rated_items_lookup() {
        let d = sample();
        assert_eq!(d.rated_items(0), &[0, 2]);
        assert!(d.has_rated(0, 2));
        assert!(!d.has_rated(0, 1));
    }

    #[test]
    fn round_trip_through_ratings() {
        let d = sample();
        let d2 = Dataset::from_ratings(3, 4, &d.to_ratings());
        assert_eq!(d.user_items(), d2.user_items());
    }

    #[test]
    fn graph_conversion_preserves_weights() {
        let d = sample();
        let g = d.to_graph();
        assert_eq!(g.rating(0, 0), Some(5.0));
        assert_eq!(g.n_edges(), 4);
    }

    fn timed_sample() -> Dataset {
        Dataset::from_timed_ratings(
            2,
            3,
            &[
                TimedRating {
                    user: 0,
                    item: 0,
                    value: 5.0,
                    timestamp: 100.0,
                },
                TimedRating {
                    user: 0,
                    item: 2,
                    value: 3.0,
                    timestamp: 50.0,
                },
                TimedRating {
                    user: 1,
                    item: 1,
                    value: 4.0,
                    timestamp: 200.0,
                },
            ],
        )
    }

    #[test]
    fn timed_ratings_round_trip() {
        let d = timed_sample();
        let times = d.times().expect("timed dataset keeps stamps");
        assert!(times.same_structure(d.user_items()));
        assert_eq!(times.get(0, 0), Some(100.0));
        let back = d.to_timed_ratings();
        let d2 = Dataset::from_timed_ratings(2, 3, &back);
        assert_eq!(d.user_items(), d2.user_items());
        assert_eq!(d.times(), d2.times());
        // The untimed path reads every stamp as 0.
        assert!(sample()
            .to_timed_ratings()
            .iter()
            .all(|r| r.timestamp == 0.0));
    }

    #[test]
    fn duplicate_timed_ratings_sum_values_and_keep_latest_stamp() {
        let d = Dataset::from_timed_ratings(
            1,
            1,
            &[
                TimedRating {
                    user: 0,
                    item: 0,
                    value: 2.0,
                    timestamp: 10.0,
                },
                TimedRating {
                    user: 0,
                    item: 0,
                    value: 3.0,
                    timestamp: 7.0,
                },
            ],
        );
        assert_eq!(d.user_items().get(0, 0), Some(5.0));
        assert_eq!(d.times().unwrap().get(0, 0), Some(10.0));
    }

    #[test]
    fn timed_graph_carries_timestamps_both_ways() {
        let g = timed_sample().to_graph();
        let ut = g.user_item_times().expect("graph keeps stamps");
        assert_eq!(ut.get(0, 0), Some(100.0));
        let it = g.item_user_times().expect("transposed stamps");
        assert_eq!(it.get(1, 1), Some(200.0));
        assert!(sample().to_graph().user_item_times().is_none());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinite_timed_rating_rejected() {
        Dataset::from_timed_ratings(
            1,
            1,
            &[TimedRating {
                user: 0,
                item: 0,
                value: f64::INFINITY,
                timestamp: 0.0,
            }],
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rating_rejected() {
        Dataset::from_ratings(
            1,
            1,
            &[Rating {
                user: 0,
                item: 0,
                value: 0.0,
            }],
        );
    }
}
