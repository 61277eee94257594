//! The recommendation algorithms: the paper's four variants and the four
//! baselines it compares against.

pub mod absorbing_cost;
pub mod absorbing_time;
pub mod assoc_rules;
pub mod hitting_time;
pub mod knn;
pub mod lda_rec;
pub mod pagerank_rec;
pub mod popularity;
pub mod pure_svd;

pub use absorbing_cost::{AbsorbingCostRecommender, EntropySource};
pub use absorbing_time::AbsorbingTimeRecommender;
pub use assoc_rules::{AssociationRuleRecommender, RuleConfig};
pub use hitting_time::HittingTimeRecommender;
pub use knn::{KnnRecommender, UserSimilarity};
pub use lda_rec::LdaRecommender;
pub use pagerank_rec::{PageRankFlavor, PageRankRecommender};
pub use popularity::PopularityRecommender;
pub use pure_svd::PureSvdRecommender;

use longtail_graph::CsrMatrix;

/// The items `user` rated in the training matrix `user_items`; empty for a
/// user outside it. Every family serves such a user as a user with no
/// ratings: an empty list, all `-∞` scores and no rated items.
pub(crate) fn rated_row(user_items: &CsrMatrix, user: u32) -> &[u32] {
    if (user as usize) < user_items.rows() {
        user_items.row(user as usize).0
    } else {
        &[]
    }
}
