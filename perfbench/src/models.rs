//! Corpus and model construction — the set-up layer every workload times.

use crate::rng::Rng;
use longtail_core::{
    AbsorbingCostConfig, AbsorbingCostRecommender, AbsorbingTimeRecommender, GraphRecConfig,
    HittingTimeRecommender, RerankPolicy,
};
use longtail_data::{Dataset, LongTailSplit, SyntheticConfig, SyntheticData, TimedRating};
use longtail_serve::SharedRecommender;
use longtail_topics::{LdaConfig, LdaModel};
use std::sync::Arc;

/// List length of every request.
pub const K: usize = 10;
/// BFS item budget μ of every walk model.
pub const MU: usize = 300;
/// The paper's truncation depth τ.
pub const TAU_PAPER: usize = 15;
/// The deep budget of the `batch_deep` workload (the repository's
/// early-termination setting), where the rank-freeze probe is armed.
pub const TAU_DEEP: usize = 240;

/// The long-tail re-rank policy `Batch`-class requests are served under:
/// the same policy the repository's quality bench measures.
pub fn quality_policy() -> RerankPolicy {
    RerankPolicy::new()
        .mmr(0.3)
        .popularity_penalty(0.25)
        .tail_quota(3)
}

/// The profile's synthetic corpus with its users and items relabeled by
/// permutations drawn from the run seed: every seed gets its own corpus
/// (its own ids, CSR layout, tie-breaks and hot users) with the profile's
/// statistical shape, so a figure's spread across seeds measures the
/// system, not how lucky one corpus draw was.
pub fn corpus(config: SyntheticConfig, seed: u64) -> Dataset {
    let data = SyntheticData::generate(&config).dataset;
    let users = Rng::new(seed, 7).permutation(data.n_users());
    let items = Rng::new(seed, 8).permutation(data.n_items());
    let ratings: Vec<TimedRating> = data
        .to_timed_ratings()
        .into_iter()
        .map(|r| TimedRating {
            user: users[r.user as usize],
            item: items[r.item as usize],
            ..r
        })
        .collect();
    Dataset::from_timed_ratings(data.n_users(), data.n_items(), &ratings)
}

/// The paper's 80/20 long-tail split of a corpus.
pub fn tail_split(train: &Dataset) -> LongTailSplit {
    LongTailSplit::by_rating_share(&train.item_popularity(), 0.2)
}

/// Which walk a model runs — what the offline replay needs to redo its
/// stages.
#[derive(Clone)]
pub enum Walk {
    /// Hitting time: absorb at the query user.
    Ht,
    /// Absorbing time: absorb at the user's rated items.
    At,
    /// Absorbing cost (AC1 or AC2): as AT, with entropy entry costs.
    Ac(Arc<AbsorbingCostRecommender>),
}

/// One servable walk model plus what the replay needs to redo its stages
/// (the replay also takes the model's training graph, rebuilt from the same
/// dataset outside every timed section).
#[derive(Clone)]
pub struct BenchModel {
    pub name: &'static str,
    pub rec: SharedRecommender,
    pub walk: Walk,
    pub config: GraphRecConfig,
}

impl BenchModel {
    /// Build model `name` ∈ {HT, AT, AC1, AC2} over `train`; AC2 needs the
    /// trained `lda`.
    pub fn build(
        name: &str,
        train: &Dataset,
        config: GraphRecConfig,
        lda: Option<&LdaModel>,
    ) -> Self {
        let ac = AbsorbingCostConfig {
            graph: config,
            ..AbsorbingCostConfig::default()
        };
        let (name, rec, walk): (&'static str, SharedRecommender, Walk) = match name {
            "HT" => (
                "HT",
                Arc::new(HittingTimeRecommender::new(train, config)),
                Walk::Ht,
            ),
            "AT" => (
                "AT",
                Arc::new(AbsorbingTimeRecommender::new(train, config)),
                Walk::At,
            ),
            "AC1" => {
                let m = Arc::new(AbsorbingCostRecommender::item_entropy(train, ac));
                ("AC1", m.clone(), Walk::Ac(m))
            }
            "AC2" => {
                let lda = lda.expect("AC2 needs an LDA model");
                let m = Arc::new(AbsorbingCostRecommender::topic_entropy(train, lda, ac));
                ("AC2", m.clone(), Walk::Ac(m))
            }
            other => panic!("unknown model {other}"),
        };
        Self {
            name,
            rec,
            walk,
            config,
        }
    }

    /// The entry cost of item nodes in the AC walks (Eq. 9's `C`).
    pub fn item_entry_cost(&self) -> f64 {
        AbsorbingCostConfig::default().item_entry_cost
    }
}

/// Gibbs sweeps of the LDA model behind AC2. The repository default is
/// 100; 30 keeps a set-up near two seconds, so the three set-ups of an
/// `interactive` run — and ten runs — take a few minutes of a noisy host
/// instead of ten.
pub const LDA_SWEEPS: usize = 30;

/// Train the LDA model behind AC2 with the paper's priors, K = genres and
/// `LDA_SWEEPS` sweeps.
pub fn train_lda(train: &Dataset, n_topics: usize) -> LdaModel {
    let config = LdaConfig {
        iterations: LDA_SWEEPS,
        ..LdaConfig::with_topics(n_topics)
    };
    LdaModel::train(train.user_items(), &config)
}
