//! Shared harness for the experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (`run_all` runs them all). This library holds what they share: dataset
//! presets, the algorithm roster, and paper reference values for
//! side-by-side printing. The serving benchmark of record is the separate
//! `perfbench/` package.

#![warn(missing_docs)]

use longtail_core::{
    AbsorbingCostConfig, AbsorbingCostRecommender, AbsorbingTimeRecommender, GraphRecConfig,
    HittingTimeRecommender, LdaRecommender, PageRankRecommender, PureSvdRecommender, Recommender,
};
use longtail_data::{Dataset, SyntheticConfig, SyntheticData};
use longtail_topics::{LdaConfig, LdaModel};

/// Which of the paper's two corpora a run emulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corpus {
    /// MovieLens-1M-like (denser, moderate tail).
    Movielens,
    /// Douban-books-like (sparser, heavy tail).
    Douban,
}

impl Corpus {
    /// Display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            Corpus::Movielens => "MovieLens-like",
            Corpus::Douban => "Douban-like",
        }
    }

    /// The generator preset, scaled by `LONGTAIL_SCALE` if set (default 1.0;
    /// e.g. `LONGTAIL_SCALE=0.3` for a quick smoke run).
    pub fn config(self) -> SyntheticConfig {
        let base = match self {
            Corpus::Movielens => SyntheticConfig::movielens_like(),
            Corpus::Douban => SyntheticConfig::douban_like(),
        };
        base.scaled(scale_factor())
    }

    /// Generate the corpus.
    pub fn generate(self) -> SyntheticData {
        SyntheticData::generate(&self.config())
    }
}

/// The experiment-wide scale factor from `LONGTAIL_SCALE` (default 1.0).
///
/// # Panics
///
/// Panics if the variable is set to anything but a finite positive number.
pub fn scale_factor() -> f64 {
    parse_scale(std::env::var_os("LONGTAIL_SCALE").map(|v| v.to_string_lossy().into_owned()))
}

fn parse_scale(value: Option<String>) -> f64 {
    let Some(value) = value else { return 1.0 };
    match value.parse::<f64>() {
        Ok(f) if f.is_finite() && f > 0.0 => f,
        _ => panic!("LONGTAIL_SCALE must be a finite positive number, got {value:?}"),
    }
}

/// The full algorithm roster of §5.1.1, trained on one training set.
///
/// The LDA model is trained once and shared between the AC2 recommender and
/// the LDA baseline, as in the paper's setup.
pub struct Roster {
    /// AC2 — topic-entropy absorbing cost.
    pub ac2: AbsorbingCostRecommender,
    /// AC1 — item-entropy absorbing cost.
    pub ac1: AbsorbingCostRecommender,
    /// AT — absorbing time.
    pub at: AbsorbingTimeRecommender,
    /// HT — hitting time.
    pub ht: HittingTimeRecommender,
    /// DPPR — popularity-discounted personalized PageRank.
    pub dppr: PageRankRecommender,
    /// PureSVD at the roster's factor rank.
    pub svd: PureSvdRecommender,
    /// LDA predictive recommender.
    pub lda: LdaRecommender,
}

/// Hyper-parameters of the roster.
#[derive(Debug, Clone, Copy)]
pub struct RosterConfig {
    /// Topic count for LDA / AC2 (the paper tunes this; genre count is the
    /// natural choice on synthetic data).
    pub n_topics: usize,
    /// Factor rank for PureSVD.
    pub svd_rank: usize,
    /// Graph-walk parameters (µ, τ).
    pub graph: GraphRecConfig,
}

impl Default for RosterConfig {
    fn default() -> Self {
        Self {
            n_topics: 10,
            svd_rank: 20,
            graph: GraphRecConfig::default(),
        }
    }
}

impl Roster {
    /// Train every algorithm on `train`.
    pub fn train(train: &Dataset, config: &RosterConfig) -> Self {
        let lda_model =
            LdaModel::train(train.user_items(), &LdaConfig::with_topics(config.n_topics));
        let ac_config = AbsorbingCostConfig {
            graph: config.graph,
            ..AbsorbingCostConfig::default()
        };
        Self {
            ac2: AbsorbingCostRecommender::topic_entropy(train, &lda_model, ac_config),
            ac1: AbsorbingCostRecommender::item_entropy(train, ac_config),
            at: AbsorbingTimeRecommender::new(train, config.graph),
            ht: HittingTimeRecommender::new(train, config.graph),
            dppr: PageRankRecommender::discounted(train),
            svd: PureSvdRecommender::train(train, config.svd_rank),
            lda: LdaRecommender::from_model(train, lda_model),
        }
    }

    /// All algorithms in the paper's reporting order: AC2, AC1, AT, HT,
    /// DPPR, PureSVD, LDA.
    pub fn all(&self) -> Vec<&dyn Recommender> {
        vec![
            &self.ac2, &self.ac1, &self.at, &self.ht, &self.dppr, &self.svd, &self.lda,
        ]
    }
}

/// Paper reference values for side-by-side printing in experiment output.
pub mod paper {
    /// Table 2, Douban row: (algorithm, diversity).
    pub const DIVERSITY_DOUBAN: [(&str, f64); 7] = [
        ("AC2", 0.58),
        ("AC1", 0.625),
        ("AT", 0.58),
        ("HT", 0.55),
        ("DPPR", 0.45),
        ("PureSVD", 0.325),
        ("LDA", 0.035),
    ];

    /// Table 2, Movielens row.
    pub const DIVERSITY_MOVIELENS: [(&str, f64); 7] = [
        ("AC2", 0.42),
        ("AC1", 0.425),
        ("AT", 0.42),
        ("HT", 0.41),
        ("DPPR", 0.35),
        ("PureSVD", 0.245),
        ("LDA", 0.025),
    ];

    /// Table 3 (Douban similarity).
    pub const SIMILARITY_DOUBAN: [(&str, f64); 7] = [
        ("AC2", 0.48),
        ("AC1", 0.42),
        ("AT", 0.39),
        ("HT", 0.37),
        ("DPPR", 0.36),
        ("PureSVD", 0.45),
        ("LDA", 0.43),
    ];

    /// Table 6 (user study): (algorithm, preference, novelty, serendipity,
    /// score).
    pub const USER_STUDY: [(&str, f64, f64, f64, f64); 4] = [
        ("AC2", 4.32, 0.98, 4.78, 4.41),
        ("DPPR", 3.12, 0.89, 3.95, 3.65),
        ("PureSVD", 4.34, 0.64, 2.12, 4.25),
        ("LDA", 4.12, 0.66, 2.15, 4.22),
    ];

    /// Table 5 (online time cost in seconds on the authors' server).
    pub const TIME_COST: [(&str, f64); 4] = [
        ("LDA", 0.47),
        ("PureSVD", 0.45),
        ("AC2", 0.52),
        ("DPPR", 13.5),
    ];

    /// Table 4 (impact of µ on Douban, AC2): µ, popularity, similarity,
    /// diversity, seconds.
    pub const MU_SWEEP: [(usize, f64, f64, f64, f64); 5] = [
        (3000, 100.6, 0.44, 0.585, 0.17),
        (4000, 100.1, 0.46, 0.585, 0.3),
        (5000, 95.7, 0.47, 0.58, 0.42),
        (6000, 93.2, 0.48, 0.58, 0.52),
        (89908, 94.8, 0.48, 0.58, 12.7),
    ];

    /// §5.1.2 tail facts: fraction of items carrying 20 % of ratings.
    pub const TAIL_FRACTION_MOVIELENS: f64 = 0.66;
    /// Same for the Douban crawl.
    pub const TAIL_FRACTION_DOUBAN: f64 = 0.73;
}

/// Where experiment binaries drop their Markdown output
/// (`experiments/<name>.md` under the workspace root, created on demand).
pub fn output_path(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("experiments");
    std::fs::create_dir_all(&dir).expect("create experiments dir");
    dir.join(format!("{name}.md"))
}

/// Print to stdout and append to the experiment's Markdown file.
pub fn emit(name: &str, content: &str) {
    println!("{content}");
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(output_path(name))
        .expect("open experiment output");
    writeln!(f, "{content}").expect("write experiment output");
}

/// Truncate the experiment's Markdown file (call once at binary start).
pub fn start_experiment(name: &str, title: &str) {
    std::fs::write(output_path(name), format!("# {title}\n\n")).expect("reset experiment output");
    println!("# {title}\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_configs_differ() {
        let ml = Corpus::Movielens.config();
        let db = Corpus::Douban.config();
        assert!(db.n_items > ml.n_items);
        assert!(db.min_activity < ml.min_activity);
    }

    #[test]
    fn scale_is_one_when_unset_and_panics_unless_finite_and_positive() {
        assert_eq!(parse_scale(None), 1.0);
        assert_eq!(parse_scale(Some("0.3".into())), 0.3);
        for bad in ["0,15", "0", "-1", "inf", "NaN"] {
            let panic = std::panic::catch_unwind(|| parse_scale(Some(bad.into())))
                .expect_err(bad)
                .downcast::<String>()
                .expect("formatted panic message");
            assert!(
                panic.contains("LONGTAIL_SCALE") && panic.contains(&format!("{bad:?}")),
                "{panic}"
            );
        }
    }

    #[test]
    fn roster_trains_on_tiny_data() {
        let data = SyntheticData::generate(&SyntheticConfig {
            n_users: 60,
            n_items: 50,
            ..SyntheticConfig::movielens_like()
        });
        let roster = Roster::train(
            &data.dataset,
            &RosterConfig {
                n_topics: 4,
                svd_rank: 8,
                ..RosterConfig::default()
            },
        );
        let names: Vec<&str> = roster.all().iter().map(|r| r.name()).collect();
        assert_eq!(
            names,
            vec!["AC2", "AC1", "AT", "HT", "DPPR", "PureSVD", "LDA"]
        );
        for rec in roster.all() {
            let top = rec.recommend(0, 3);
            assert!(top.len() <= 3);
        }
    }
}
