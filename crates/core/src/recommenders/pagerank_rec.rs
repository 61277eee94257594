//! PPR and DPPR baselines (§5.1.1, Eq. 15).
//!
//! Personalized PageRank seeds the teleport at the query user's rated items
//! and ranks by stationary mass — which blends similarity with popularity
//! and therefore favors the head. The paper's own baseline, *Discounted*
//! PPR, divides the PPR score by item popularity (Eq. 15) to force the tail:
//! it matches the graph methods on Popularity@N but loses on Recall@N and
//! Similarity, the contrast the evaluation leans on.

use crate::context::ScoringContext;
use crate::recommenders::rated_row;
use crate::walk_common::rated_item_nodes_into;
use crate::Recommender;
use longtail_data::Dataset;
use longtail_graph::{Adjacency, BipartiteGraph, TransitionMatrix};
use longtail_markov::{personalized_pagerank_into, PageRankConfig};

/// Whether the PageRank score is discounted by popularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageRankFlavor {
    /// Plain personalized PageRank.
    Plain,
    /// Discounted PPR: `DPPR(i|S) = PPR(i|S) / Popularity(i)` (Eq. 15).
    Discounted,
}

/// The (D)PPR recommender.
#[derive(Debug, Clone)]
pub struct PageRankRecommender {
    graph: BipartiteGraph,
    /// Global transition kernel, normalized once at construction — the
    /// full-graph power iteration re-walks it every query.
    kernel: TransitionMatrix,
    popularity: Vec<u32>,
    flavor: PageRankFlavor,
    config: PageRankConfig,
}

impl PageRankRecommender {
    /// Plain PPR with the paper's damping (λ = 0.5).
    pub fn plain(train: &Dataset) -> Self {
        Self::new(train, PageRankFlavor::Plain, PageRankConfig::default())
    }

    /// Discounted PPR (Eq. 15) with the paper's damping.
    pub fn discounted(train: &Dataset) -> Self {
        Self::new(train, PageRankFlavor::Discounted, PageRankConfig::default())
    }

    /// Full-control constructor.
    pub fn new(train: &Dataset, flavor: PageRankFlavor, config: PageRankConfig) -> Self {
        let graph = train.to_graph();
        let kernel = TransitionMatrix::from_adjacency(&Adjacency::from_bipartite(&graph));
        Self {
            graph,
            kernel,
            popularity: train.item_popularity(),
            flavor,
            config,
        }
    }

    /// Training configuration (the snapshot save path persists it).
    pub(crate) fn config(&self) -> PageRankConfig {
        self.config
    }

    /// Training matrix (the snapshot save path persists it).
    pub(crate) fn user_items(&self) -> &longtail_graph::CsrMatrix {
        self.graph.user_items()
    }

    /// The flavor in use.
    pub fn flavor(&self) -> PageRankFlavor {
        self.flavor
    }
}

impl Recommender for PageRankRecommender {
    fn name(&self) -> &'static str {
        match self.flavor {
            PageRankFlavor::Plain => "PPR",
            PageRankFlavor::Discounted => "DPPR",
        }
    }

    fn score_into(&self, user: u32, ctx: &mut ScoringContext, out: &mut Vec<f64>) {
        out.clear();
        rated_item_nodes_into(&self.graph, user, &mut ctx.seeds);
        if ctx.seeds.is_empty() {
            out.resize(self.graph.n_items(), f64::NEG_INFINITY);
            return;
        }
        let rank =
            personalized_pagerank_into(&self.kernel, &ctx.seeds, &self.config, &mut ctx.pagerank);
        let n_users = self.graph.n_users();
        out.extend((0..self.graph.n_items()).map(|i| {
            let mass = rank[n_users + i];
            match self.flavor {
                PageRankFlavor::Plain => mass,
                PageRankFlavor::Discounted => {
                    let pop = self.popularity[i];
                    if pop == 0 {
                        // Unrated items carry no walk mass either; score
                        // them unreachable rather than 0/0.
                        f64::NEG_INFINITY
                    } else {
                        mass / pop as f64
                    }
                }
            }
        }));
    }

    fn rated_items(&self, user: u32) -> &[u32] {
        rated_row(self.graph.user_items(), user)
    }

    fn n_items(&self) -> usize {
        self.graph.n_items()
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
    fn plain_ppr_prefers_the_popular_cluster() {
        let rec = PageRankRecommender::plain(&figure2());
        assert_eq!(rec.name(), "PPR");
        let top = rec.recommend(4, 1);
        // U5's unrated candidates: M1 (popular, tightly connected) vs M4
        // (niche). Plain PPR picks the popular one.
        assert_eq!(top[0].item, 0, "got {top:?}");
    }

    #[test]
    fn discounting_flips_the_choice_to_the_tail() {
        let rec = PageRankRecommender::discounted(&figure2());
        assert_eq!(rec.name(), "DPPR");
        let scores = rec.score_items(4);
        // M4 (popularity 1) must outscore M1 (popularity 3) once discounted.
        assert!(
            scores[3] > scores[0],
            "M4 {} should beat M1 {}",
            scores[3],
            scores[0]
        );
    }

    #[test]
    fn zero_popularity_items_are_unreachable_for_dppr() {
        let mut ratings = figure2().to_ratings();
        ratings.retain(|r| r.item != 3);
        let d = Dataset::from_ratings(5, 6, &ratings);
        let rec = PageRankRecommender::discounted(&d);
        let scores = rec.score_items(4);
        assert_eq!(scores[3], f64::NEG_INFINITY);
    }

    #[test]
    fn rated_items_excluded() {
        let rec = PageRankRecommender::plain(&figure2());
        let top = rec.recommend(4, 6);
        assert!(top.iter().all(|s| s.item != 1 && s.item != 2));
    }

    #[test]
    fn unrated_user_gets_nothing() {
        let d = Dataset::from_ratings(
            2,
            2,
            &[Rating {
                user: 0,
                item: 0,
                value: 5.0,
            }],
        );
        let rec = PageRankRecommender::discounted(&d);
        assert!(rec.recommend(1, 3).is_empty());
    }
}
