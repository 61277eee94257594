//! Schema guard for `BENCH_walk_scoring.json`.
//!
//! The committed benchmark summary is the repo's perf trajectory: PRs diff
//! it to prove the hot path didn't regress. That only works if the file's
//! shape is stable, so this test fails on any schema drift — a renamed
//! series, a dropped section, a missing measurement — independent of the
//! (machine-specific) numbers. Regenerate the file with
//! `cargo run --release -p longtail-bench --bin bench_walk_scoring` after
//! intentionally changing the emitter, keeping this test in sync.

use std::path::PathBuf;

fn bench_json() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_walk_scoring.json");
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("BENCH_walk_scoring.json must be committed at repo root: {e}"))
}

#[test]
fn walk_scoring_summary_keeps_its_schema() {
    let json = bench_json();

    // Top-level sections.
    for key in [
        "\"bench\": \"walk_scoring\"",
        "\"batch_users\"",
        "\"repeats_best_of\"",
        "\"dataset\"",
        "\"walk\"",
        "\"threads\"",
        "\"results\"",
        "\"recommend_topk\"",
        "\"serving_engine\"",
        "\"async_serving\"",
        "\"model_lifecycle\"",
        "\"streaming_ingest\"",
        "\"qos_scheduling\"",
        "\"fault_tolerance\"",
        "\"early_termination\"",
        "\"longtail_quality\"",
        "\"single_query_ht\"",
    ] {
        assert!(json.contains(key), "schema drift: missing {key}");
    }

    // Scoring series: both algorithms, all three measurements, with the
    // speedup field keyed to the sequential context path.
    for algo in ["\"HT\": [", "\"AC1\": ["] {
        assert_eq!(
            json.matches(algo).count(),
            2,
            "schema drift: {algo} must appear in both results and recommend_topk"
        );
    }

    // Serving-engine throughput: persistent worker pool vs per-call scoped
    // threads, for both algorithms, with the direct-path equivalence
    // verdict.
    for key in ["\"workers\"", "\"rounds\"", "\"requests\""] {
        assert!(json.contains(key), "schema drift: serving_engine.{key}");
    }
    for key in [
        "\"engine_pool_seconds\"",
        "\"scoped_threads_seconds\"",
        "\"engine_requests_per_sec\"",
        "\"scoped_requests_per_sec\"",
        "\"speedup_vs_scoped_threads\"",
        "\"lists_match_direct\"",
    ] {
        assert_eq!(
            json.matches(key).count(),
            2,
            "schema drift: serving-engine field {key} missing for an algorithm"
        );
    }
    // The committed summary must never record an engine ranking divergence.
    assert!(
        !json.contains("\"lists_match_direct\": false"),
        "engine serving diverged from the direct fused path"
    );

    // Async front-end: open-loop submission throughput vs the closed-loop
    // inline baseline, plus the deterministic deadline-shedding pass, for
    // both algorithms.
    assert!(
        json.contains("\"queue_capacity\""),
        "schema drift: async_serving.queue_capacity"
    );
    for key in [
        "\"open_loop_seconds\"",
        "\"closed_loop_seconds\"",
        "\"open_loop_requests_per_sec\"",
        "\"closed_loop_requests_per_sec\"",
        "\"speedup_vs_closed_loop\"",
        "\"deadline\": {",
        "\"expired_requests\"",
        "\"expired_at_dequeue\"",
        "\"expired_in_dp\"",
        "\"counts_consistent\"",
    ] {
        assert_eq!(
            json.matches(key).count(),
            2,
            "schema drift: async-serving field {key} missing for an algorithm"
        );
    }
    // The blocking-path equivalence verdict appears in the async section
    // and the qos_scheduling section, for both algorithms.
    assert_eq!(
        json.matches("\"rankings_match_blocking\"").count(),
        4,
        "schema drift: rankings_match_blocking missing for a section/algorithm"
    );
    // Shed/deadline accounting must balance, and no serving path may ever
    // record a ranking divergence from the blocking path.
    assert!(
        !json.contains("\"counts_consistent\": false"),
        "async serving shed/deadline counters do not reconcile"
    );
    assert!(
        !json.contains("\"rankings_match_blocking\": false"),
        "a serving path diverged from the blocking batch path"
    );

    // Model lifecycle: snapshot save/load wall time, hot-swap publish
    // latency, and the served-during-swap gates, for both algorithms.
    for key in [
        "\"snapshot_bytes\"",
        "\"save_seconds\"",
        "\"load_seconds\"",
        "\"deploy_publish_seconds\"",
        "\"served_during_swap_correct\"",
        "\"reloaded_rankings_identical\"",
    ] {
        assert_eq!(
            json.matches(key).count(),
            2,
            "schema drift: model-lifecycle field {key} missing for an algorithm"
        );
    }
    // Both lifecycle and streaming-ingest waves account for lost requests,
    // per algorithm — and the committed summary must never record one, nor
    // a hot swap that tore a request, nor a snapshot reload that perturbed
    // a ranking.
    assert_eq!(
        json.matches("\"requests_lost\"").count(),
        4,
        "schema drift: requests_lost missing for a section/algorithm"
    );
    assert_eq!(
        json.matches("\"requests_lost\": 0").count(),
        4,
        "a hot swap or compaction lost an in-flight request"
    );
    assert!(
        !json.contains("\"served_during_swap_correct\": false"),
        "a request served on an ambiguous version across a hot swap"
    );
    assert!(
        !json.contains("\"reloaded_rankings_identical\": false"),
        "a snapshot round trip changed a served ranking"
    );

    // Streaming ingest: append throughput into the delta store, overlay
    // query cost vs the frozen base, the compaction redeploy cycle, and
    // the overlay ≡ rebuilt-on-union rank gate, for both algorithms.
    assert!(
        json.contains("\"publish_every\""),
        "schema drift: streaming_ingest.publish_every"
    );
    for key in [
        "\"appends\"",
        "\"append_seconds\"",
        "\"appends_per_sec\"",
        "\"epochs_published\"",
        "\"base_query_seconds\"",
        "\"overlay_query_seconds\"",
        "\"overlay_overhead\"",
        "\"compaction_total_seconds\"",
        "\"compaction_publish_seconds\"",
        "\"folded\"",
        "\"remaining\"",
        "\"overlay_matches_rebuild\"",
    ] {
        assert_eq!(
            json.matches(key).count(),
            2,
            "schema drift: streaming-ingest field {key} missing for an algorithm"
        );
    }
    // The committed summary must never record an overlay ranking that
    // diverges from a model rebuilt on the union of base + stream.
    assert!(
        !json.contains("\"overlay_matches_rebuild\": false"),
        "overlay serving diverged from the rebuilt-on-union model"
    );

    // QoS scheduling: per-class deadline-hit rates under the seeded
    // overload mix, FIFO vs the EDF/priority scheduler, for both
    // algorithms, plus the mix parameters the pass ran under.
    for key in ["\"interactive_slack\"", "\"batch_slack\""] {
        assert!(json.contains(key), "schema drift: qos_scheduling.{key}");
    }
    for key in [
        "\"service_estimate_seconds\"",
        "\"fifo_requests_per_sec\"",
        "\"qos_requests_per_sec\"",
        "\"fifo_interactive_hit_rate\"",
        "\"qos_interactive_hit_rate\"",
        "\"fifo_batch_hit_rate\"",
        "\"qos_batch_hit_rate\"",
        "\"interactive_p50_seconds\"",
        "\"interactive_p99_seconds\"",
        "\"shed_unmeetable\"",
        "\"ledger_consistent\"",
        "\"interactive_hit_rate_improves\"",
    ] {
        assert_eq!(
            json.matches(key).count(),
            2,
            "schema drift: qos-scheduling field {key} missing for an algorithm"
        );
    }
    // The committed summary must never record an out-of-balance per-class
    // ledger (submitted = served + shed + expired, nothing failed) or a
    // scheduler that fails to beat FIFO on Interactive deadline hits.
    assert!(
        !json.contains("\"ledger_consistent\": false"),
        "a per-class QoS ledger does not reconcile"
    );
    assert!(
        !json.contains("\"interactive_hit_rate_improves\": false"),
        "the QoS scheduler did not improve the Interactive deadline-hit rate over FIFO"
    );

    // Fault tolerance: availability under the seeded chaos mix with and
    // without protection (breakers + retry + POP fallback), for both
    // algorithms, plus the fault-plan parameters the pass ran under.
    for key in ["\"fault_plan\"", "\"p_panic\"", "\"p_nan\""] {
        assert!(json.contains(key), "schema drift: fault_tolerance.{key}");
    }
    for key in [
        "\"injected_faults_protected\"",
        "\"injected_faults_unprotected\"",
        "\"answered_with_protection\"",
        "\"degraded\"",
        "\"retries\"",
        "\"answered_without_protection\"",
        "\"availability_with_protection\"",
        "\"availability_without_protection\"",
        "\"non_degraded_rankings_match\"",
        "\"meets_availability_target\"",
    ] {
        assert_eq!(
            json.matches(key).count(),
            2,
            "schema drift: fault-tolerance field {key} missing for an algorithm"
        );
    }
    // The committed summary must never record a protected engine that
    // perturbed a healthy ranking or missed the ≥99% availability bar.
    assert!(
        !json.contains("\"non_degraded_rankings_match\": false"),
        "a non-degraded response diverged from the fault-free engine"
    );
    assert!(
        !json.contains("\"meets_availability_target\": false"),
        "protected engine availability fell below the 99% target"
    );

    for series in ["sequential_context", "batch_t1", "batch_t4"] {
        assert_eq!(
            json.matches(&format!("\"name\": \"{series}\"")).count(),
            2,
            "schema drift: scoring series {series} missing for an algorithm"
        );
    }
    assert!(json.contains("\"speedup_vs_sequential\""));

    // Fused top-k series: score-then-sort baseline plus the fused and batch
    // forms, with speedups keyed to score-then-sort.
    assert!(json.contains("\"k\": 10"), "schema drift: recommend_topk.k");
    for series in [
        "score_then_sort",
        "fused_topk",
        "recommend_batch_t1",
        "recommend_batch_t4",
    ] {
        assert_eq!(
            json.matches(&format!("\"name\": \"{series}\"")).count(),
            2,
            "schema drift: recommend series {series} missing for an algorithm"
        );
    }
    assert!(json.contains("\"speedup_vs_score_then_sort\""));

    // Early-termination section: one entry per walk recommender (HT is the
    // honest no-win data point; AT/AC1 carry the measured speedup), each
    // reporting timing under both stopping policies, the DP iteration
    // counters, and the rank-identity verdict.
    assert!(
        json.contains("\"epsilon\""),
        "schema drift: early_termination.epsilon"
    );
    assert!(
        json.contains("\"dp_budget\""),
        "schema drift: early_termination.dp_budget"
    );
    for algo in ["\"HT\": {", "\"AT\": {", "\"AC1\": {"] {
        assert!(
            json.contains(algo),
            "schema drift: early_termination entry {algo} missing"
        );
    }
    for key in [
        "\"fixed_seconds_per_batch\"",
        "\"adaptive_seconds_per_batch\"",
        "\"speedup_vs_fixed_tau\"",
        "\"dp_iterations_budget\"",
        "\"dp_iterations_run\"",
        "\"iterations_saved_fraction\"",
        "\"queries\"",
        "\"converged_queries\"",
        "\"rank_frozen_queries\"",
        "\"top10_lists_identical\"",
    ] {
        assert_eq!(
            json.matches(key).count(),
            3,
            "schema drift: early-termination field {key} missing for an algorithm"
        );
    }
    // The committed summary must never record a ranking divergence.
    assert!(
        !json.contains("\"top10_lists_identical\": false"),
        "early termination diverged from the fixed-τ ranking"
    );

    // Long-tail quality: the re-rank policy the pass ran under, plus the
    // off-vs-on quality arms — coverage, Gini exposure concentration,
    // novelty, and list recall split by head/tail ground truth — for both
    // algorithms.
    for key in [
        "\"mmr_lambda\"",
        "\"popularity_penalty\"",
        "\"tail_quota\"",
        "\"tail_cutoff\"",
        "\"max_recall_drop\"",
    ] {
        assert!(json.contains(key), "schema drift: longtail_quality.{key}");
    }
    for key in ["\"rerank_off\"", "\"rerank_on\"", "\"evaluated_users\""] {
        assert_eq!(
            json.matches(key).count(),
            2,
            "schema drift: longtail-quality field {key} missing for an algorithm"
        );
    }
    // Each quality arm carries the full metric set: 2 algorithms × off/on.
    for key in [
        "\"recall_at_k\"",
        "\"tail_recall_at_k\"",
        "\"head_recall_at_k\"",
        "\"coverage\"",
        "\"gini\"",
        "\"novelty_bits\"",
    ] {
        assert_eq!(
            json.matches(key).count(),
            4,
            "schema drift: quality-arm field {key} missing for an arm"
        );
    }
    for key in ["\"disabled_identical\"", "\"recall_drop_bounded\""] {
        assert_eq!(
            json.matches(key).count(),
            2,
            "schema drift: longtail-quality gate {key} missing for an algorithm"
        );
    }
    // The committed summary must never record a disabled policy that
    // perturbed a ranking, nor an enabled policy that pays more than the
    // bounded recall budget for its diversity gains.
    assert!(
        !json.contains("\"disabled_identical\": false"),
        "a disabled re-rank policy changed a served ranking"
    );
    assert!(
        !json.contains("\"recall_drop_bounded\": false"),
        "the re-rank policy dropped recall beyond the allowed budget"
    );

    // Single-query latency field.
    assert!(
        json.contains("\"context_seconds\""),
        "schema drift: single_query_ht.context_seconds"
    );

    // Structural sanity: brace balance, so a truncated write is caught too.
    let opens = json.matches('{').count();
    let closes = json.matches('}').count();
    assert_eq!(opens, closes, "unbalanced JSON braces");
}
