//! Table 5 — online recommendation time cost.
//!
//! §5.2.6: seconds per top-10 query on Douban (offline training excluded).
//! The claim: subgraph-bounded AC2 is in the same league as the model-based
//! LDA/PureSVD, and the full-graph DPPR is an order of magnitude slower.

use longtail_bench::{emit, paper, start_experiment, Corpus, Roster, RosterConfig};
use longtail_core::{GraphRecConfig, Recommender};
use longtail_eval::{
    sample_test_users, time_batch_recommendations, time_batch_scoring, time_recommendations,
};

fn main() {
    let name = "table5_efficiency";
    start_experiment(name, "Table 5 — online time cost per top-10 query");

    let data = Corpus::Douban.generate();
    let train = &data.dataset;
    // The paper's µ = 6000 is 6.7% of its 89,908-item catalog; keep that
    // proportion here, otherwise the "subgraph" covers the whole graph and
    // the comparison against full-graph DPPR is meaningless.
    let mu = ((train.n_items() as f64 * 6_000.0 / 89_908.0).round() as usize).max(50);
    let roster = Roster::train(
        train,
        &RosterConfig {
            graph: GraphRecConfig {
                max_items: mu,
                iterations: 15,
            },
            ..RosterConfig::default()
        },
    );
    let users = sample_test_users(&train.user_activity(), 100, 3, 0x7e57);

    emit(
        name,
        &format!(
            "\nDouban-like corpus, {} queries each, k=10, µ={} (offline training excluded)\n",
            users.len(),
            mu
        ),
    );
    emit(
        name,
        "| algorithm | sec/query (ours) | sec/query (paper, full-size Douban) |",
    );
    emit(name, "|---|---|---|");
    // The paper's Table 5 covers LDA, PureSVD, AC2, DPPR.
    let subjects: Vec<&dyn Recommender> = vec![&roster.lda, &roster.svd, &roster.ac2, &roster.dppr];
    let mut measured = Vec::new();
    for rec in subjects {
        let t = time_recommendations(rec, &users, 10);
        let p = paper::TIME_COST
            .iter()
            .find(|(l, _)| *l == rec.name())
            .map(|(_, v)| *v)
            .unwrap_or(f64::NAN);
        measured.push((rec.name(), t.mean_seconds));
        emit(
            name,
            &format!("| {} | {:.5} | {:.2} |", rec.name(), t.mean_seconds, p),
        );
    }
    let ac2 = measured.iter().find(|(n, _)| *n == "AC2").unwrap().1;
    let dppr = measured.iter().find(|(n, _)| *n == "DPPR").unwrap().1;
    emit(
        name,
        &format!(
            "\nDPPR/AC2 cost ratio: {:.1}x (paper: {:.1}x). Absolute numbers \
             differ — our corpus is a scaled synthetic and the paper timed a \
             Java implementation on a 32 GB server — but the relative claim \
             (subgraph-bounded AC2 ≪ full-graph DPPR) must hold.",
            dppr / ac2.max(1e-9),
            13.5 / 0.52
        ),
    );

    // Batch throughput: the same queries through Recommender::score_batch,
    // workers sharing nothing but the model (one ScoringContext each).
    let n_threads = std::thread::available_parallelism()
        .map_or(4, |p| p.get())
        .min(4);
    emit(
        name,
        &format!(
            "\nBatch serving ({n_threads} threads): full-vector score_batch vs \
             fused top-10 recommend_batch:\n"
        ),
    );
    // Both the sequential and batch columns ride the fused top-k path; the
    // last column is therefore batch-vs-sequential scaling (invisible on a
    // 1-core box). The fused path's own cost is perfbench's `core.call_ms`
    // and `core.topk_us`.
    emit(
        name,
        "| algorithm | sec/query sequential | sec/query score_batch | sec/query recommend_batch | batch speedup |",
    );
    emit(name, "|---|---|---|---|---|");
    let subjects: Vec<&dyn Recommender> = vec![&roster.lda, &roster.svd, &roster.ac2, &roster.dppr];
    for rec in subjects {
        let seq = time_recommendations(rec, &users, 10);
        let batch = time_batch_scoring(rec, &users, n_threads);
        let fused = time_batch_recommendations(rec, &users, 10, n_threads);
        emit(
            name,
            &format!(
                "| {} | {:.5} | {:.5} | {:.5} | {:.2}x |",
                rec.name(),
                seq.mean_seconds,
                batch.mean_seconds,
                fused.mean_seconds,
                seq.mean_seconds / fused.mean_seconds.max(1e-12)
            ),
        );
    }
}
