//! Schema guard for `BENCH_walk_scoring.json`.
//!
//! The committed summary is the walk-scoring perf trajectory, so its shape
//! must stay stable. This test parses the file and checks, independent of
//! the machine-specific values, the bench name and list length `k`, then
//! four tables of key paths: the numbers the bench writes, the correctness
//! gates (each `true`), the lost-request counts (each 0), and the two
//! timing series by row name. Regenerate the file with `cargo run
//! --release -p longtail-bench --bin bench_walk_scoring` after
//! intentionally changing the emitter, keeping the tables in sync.
//!
//! A path names object keys separated by `.`; `{a,b}` stands for one path
//! per alternative, so `x.{HT,AC1}.y` checks `x.HT.y` and `x.AC1.y`.

use longtail_bench::json::Json;
use std::path::PathBuf;

/// Each must be a number: a `null` (a missing or non-finite measurement)
/// fails.
const NUMBERS: &[&str] = &[
    "{batch_users,repeats_best_of,threads}",
    "dataset.{n_users,n_items}",
    "walk.{max_items,iterations}",
    "recommend_topk.dataset.{n_users,n_items}",
    "model_lifecycle.workers",
    "model_lifecycle.{HT,AC1}.{snapshot_bytes,save_seconds,load_seconds,deploy_publish_seconds}",
    "model_lifecycle.{HT,AC1}.{requests,served}",
    "qos_scheduling.{workers,requests,interactive_slack,batch_slack}",
    "qos_scheduling.{HT,AC1}.{service_estimate_seconds,fifo_requests_per_sec,qos_requests_per_sec}",
    "qos_scheduling.{HT,AC1}.{fifo,qos}_{interactive,batch}_hit_rate",
    "qos_scheduling.{HT,AC1}.{interactive_p50_seconds,interactive_p99_seconds,shed_unmeetable}",
    "fault_tolerance.rounds",
    "fault_tolerance.fault_plan.{p_panic,p_nan}",
    "fault_tolerance.{HT,AC1}.{requests,injected_faults_protected,injected_faults_unprotected}",
    "fault_tolerance.{HT,AC1}.{answered_with_protection,degraded,retries,answered_without_protection}",
    "fault_tolerance.{HT,AC1}.availability_{with,without}_protection",
    "early_termination.{epsilon,k,dp_budget}",
    "early_termination.{HT,AT,AC1}.{fixed,adaptive}_seconds_per_batch",
    "early_termination.{HT,AT,AC1}.{speedup_vs_fixed_tau,iterations_saved_fraction}",
    "early_termination.{HT,AT,AC1}.{dp_iterations_budget,dp_iterations_run}",
    "early_termination.{HT,AT,AC1}.{queries,converged_queries,rank_frozen_queries}",
    "longtail_quality.{k,max_recall_drop}",
    "longtail_quality.policy.{mmr_lambda,popularity_penalty,tail_quota,tail_cutoff}",
    "longtail_quality.{HT,AC1}.evaluated_users",
    "longtail_quality.{HT,AC1}.rerank_{off,on}.{recall_at_k,tail_recall_at_k,head_recall_at_k}",
    "longtail_quality.{HT,AC1}.rerank_{off,on}.{coverage,gini,novelty_bits}",
    "single_query_ht.context_seconds",
];

/// Correctness gates: each must be `true`.
const GATES: &[&str] = &[
    // A hot swap tears no request; a snapshot reload changes no ranking.
    "model_lifecycle.{HT,AC1}.{served_during_swap_correct,reloaded_rankings_identical}",
    // Both schedulers balance every class ledger and serve only the
    // blocking path's rankings; QoS beats FIFO on Interactive deadlines.
    "qos_scheduling.{HT,AC1}.{ledger_consistent,rankings_match_blocking}",
    "qos_scheduling.{HT,AC1}.interactive_hit_rate_improves",
    // Protection never perturbs a healthy ranking and answers ≥ 99%.
    "fault_tolerance.{HT,AC1}.{non_degraded_rankings_match,meets_availability_target}",
    // Adaptive stopping serves the fixed-τ rankings.
    "early_termination.{HT,AT,AC1}.top10_lists_identical",
    // A disabled re-rank policy is a no-op; an enabled one keeps recall
    // within budget.
    "longtail_quality.{HT,AC1}.{disabled_identical,recall_drop_bounded}",
];

/// Counts that must be 0.
const ZEROS: &[&str] = &["model_lifecycle.{HT,AC1}.requests_lost"];

/// The timing series: path, speedup key, and row names in order. Each row
/// holds its `name`, a `seconds_per_batch` and its speedup over the first
/// row.
const SERIES: &[(&str, &str, &[&str])] = &[
    (
        "results.{HT,AC1}",
        "speedup_vs_sequential",
        &["sequential_context", "batch_t1", "batch_t4"],
    ),
    (
        "recommend_topk.{HT,AC1}",
        "speedup_vs_score_then_sort",
        &[
            "score_then_sort",
            "fused_topk",
            "recommend_batch_t1",
            "recommend_batch_t4",
        ],
    ),
];

/// The path with its first `{…}` group expanded, recursively.
fn expand(path: &str) -> Vec<String> {
    let Some(open) = path.find('{') else {
        return vec![path.to_owned()];
    };
    let close = open + path[open..].find('}').expect("`{` closed in a key path");
    path[open + 1..close]
        .split(',')
        .flat_map(|alt| expand(&format!("{}{alt}{}", &path[..open], &path[close + 1..])))
        .collect()
}

/// Every way `doc` departs from the tables, one `path: problem` line each.
fn violations(doc: &Json) -> Vec<String> {
    let mut out = Vec::new();
    let mut check = |paths: &[&str], want: &str, ok: &dyn Fn(&Json) -> bool| {
        for path in paths.iter().flat_map(|p| expand(p)) {
            let found = doc.at(&path);
            if !found.is_some_and(ok) {
                out.push(format!("{path}: want {want}, found {found:?}"));
            }
        }
    };
    check(&["bench"], "\"walk_scoring\"", &|v| {
        *v == "walk_scoring".into()
    });
    check(&["recommend_topk.k"], "10", &|v| *v == Json::Num(10.0));
    check(NUMBERS, "a number", &|v| matches!(v, Json::Num(_)));
    check(GATES, "true", &|v| *v == Json::Bool(true));
    check(ZEROS, "0", &|v| *v == Json::Num(0.0));
    for &(series, speedup, names) in SERIES {
        for path in expand(series) {
            let rows = match doc.at(&path) {
                Some(Json::Arr(rows)) => rows.as_slice(),
                _ => &[],
            };
            let found: Vec<_> = rows.iter().map(|row| row.at("name")).collect();
            let want: Vec<Json> = names.iter().map(|&name| name.into()).collect();
            if !found.iter().copied().eq(want.iter().map(Some)) {
                out.push(format!("{path}: want rows {names:?}, found {found:?}"));
            }
            for (row, name) in rows.iter().zip(names) {
                for key in ["seconds_per_batch", speedup] {
                    if !matches!(row.at(key), Some(Json::Num(_))) {
                        out.push(format!("{path}[{name}].{key}: want a number"));
                    }
                }
            }
        }
    }
    out
}

fn committed() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_walk_scoring.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("BENCH_walk_scoring.json must be committed at repo root: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("BENCH_walk_scoring.json is not JSON: {e}"))
}

#[test]
fn walk_scoring_summary_keeps_its_schema() {
    let problems = violations(&committed());
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

/// Replace the value at `path`, or remove its key when `value` is `None`.
fn edit(node: &mut Json, path: &str, value: Option<Json>) {
    let Json::Obj(fields) = node else {
        panic!("{path}: not inside an object");
    };
    let (key, rest) = path.split_once('.').unwrap_or((path, ""));
    let i = fields
        .iter()
        .position(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("no key {key}"));
    match (rest, value) {
        ("", Some(value)) => fields[i].1 = value,
        ("", None) => drop(fields.remove(i)),
        (rest, value) => edit(&mut fields[i].1, rest, value),
    }
}

#[test]
fn drift_failed_gates_and_missing_measurements_are_rejected() {
    let edits: [(&str, Option<Json>); 8] = [
        // Keys other sections share: only a check by path notices them gone.
        ("dataset", None),
        ("recommend_topk.k", None),
        ("model_lifecycle.workers", None),
        ("early_termination.AT", None),
        ("qos_scheduling.AC1.ledger_consistent", Some(false.into())),
        ("model_lifecycle.HT.requests_lost", Some(1usize.into())),
        (
            "qos_scheduling.HT.interactive_p99_seconds",
            Some(Json::Null),
        ),
        ("results.AC1", Some(Json::Arr(Vec::new()))),
    ];
    for (path, value) in edits {
        let mut doc = committed();
        edit(&mut doc, path, value.clone());
        let problems = violations(&doc);
        assert!(
            problems.iter().any(|p| p.starts_with(path)),
            "setting {path} to {value:?} was not reported: {problems:?}"
        );
    }
}
