//! Table 3 — ontology similarity of recommendations (Eq. 18–19).
//!
//! §5.2.4: long-tail reach is worthless if the picks are off-taste. Every
//! recommended item is scored by its best category-path similarity to the
//! user's rated set over the (synthetic) book ontology; the paper's Dangdang
//! tree is replaced by a genre-aligned depth-4 tree (`Ontology`).

use longtail_bench::{emit, paper, start_experiment, Corpus, Roster, RosterConfig};
use longtail_data::Ontology;
use longtail_eval::{mean_similarity, sample_test_users, RecommendationLists};

fn main() {
    let name = "table3_similarity";
    start_experiment(name, "Table 3 — ontology similarity of recommendations");

    let data = Corpus::Douban.generate();
    let train = &data.dataset;
    let ontology = Ontology::from_genres(&data.item_genres, 4, 0x0470);
    let roster = Roster::train(train, &RosterConfig::default());
    let users = sample_test_users(&train.user_activity(), 2000, 3, 0x5171);

    emit(
        name,
        &format!(
            "\nDouban-like corpus, {} testing users, k=10, depth-4 ontology\n",
            users.len()
        ),
    );
    emit(
        name,
        "| algorithm | similarity (ours) | similarity (paper) |",
    );
    emit(name, "|---|---|---|");
    for rec in roster.all() {
        let lists = RecommendationLists::compute(rec, &users, 10, 4);
        let s = mean_similarity(&lists, train, &ontology);
        let p = paper::SIMILARITY_DOUBAN
            .iter()
            .find(|(l, _)| *l == rec.name())
            .map(|(_, v)| *v)
            .unwrap_or(f64::NAN);
        emit(name, &format!("| {} | {:.3} | {:.3} |", rec.name(), s, p));
    }
    emit(
        name,
        "\nPaper shape: AC2 best overall; AC2 > AC1 > AT > HT within the walk \
         family; PureSVD and LDA score high (they recommend popular items, \
         which are broadly on-taste); DPPR lowest — it reaches the tail but \
         misses the user's taste.",
    );
}
