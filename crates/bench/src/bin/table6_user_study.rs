//! Table 6 — the (simulated) user study.
//!
//! §5.2.7 hires 50 movie-lovers; here 50 simulated judges with ground-truth
//! tastes from the generator rate each algorithm's top-10 on Preference,
//! Novelty, Serendipity and overall Score (the simulation is described in
//! `longtail_eval::user_study`). The paper's pattern: AC2 wins
//! Novelty/Serendipity/Score; PureSVD edges out raw Preference but its
//! picks are already known.

use longtail_bench::{emit, paper, start_experiment, Corpus, Roster, RosterConfig};
use longtail_core::Recommender;
use longtail_eval::{simulate_study, StudyConfig};

fn main() {
    let name = "table6_user_study";
    start_experiment(
        name,
        "Table 6 — simulated user study (50 judges, k=10, Douban-like)",
    );

    let data = Corpus::Douban.generate();
    let roster = Roster::train(&data.dataset, &RosterConfig::default());
    let config = StudyConfig::default();

    emit(
        name,
        "\n| algorithm | preference | novelty | serendipity | score | (paper: pref / nov / ser / score) |",
    );
    emit(name, "|---|---|---|---|---|---|");
    let subjects: Vec<&dyn Recommender> = vec![&roster.ac2, &roster.dppr, &roster.svd, &roster.lda];
    for rec in subjects {
        let r = simulate_study(rec, &data, &config);
        let p = paper::USER_STUDY
            .iter()
            .find(|(l, ..)| *l == rec.name())
            .copied()
            .unwrap_or(("", f64::NAN, f64::NAN, f64::NAN, f64::NAN));
        emit(
            name,
            &format!(
                "| {} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} / {:.2} / {:.2} / {:.2} |",
                rec.name(),
                r.preference,
                r.novelty,
                r.serendipity,
                r.score,
                p.1,
                p.2,
                p.3,
                p.4
            ),
        );
    }
    emit(
        name,
        "\nPaper shape: AC2 clearly first on novelty and serendipity and best \
         overall; DPPR novel but off-taste (lowest preference); PureSVD/LDA \
         on-taste but familiar (novelty ≈ 0.65, serendipity ≈ 2.1).",
    );
}
