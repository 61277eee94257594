//! Walk-scoring perf summary: the hot-path comparisons and correctness
//! gates that the serving benchmark (`perfbench/`) does not cover.
//!
//! On synthetic long-tail corpora it times 64-user scoring for HT and AC1
//! (the kernel + `ScoringContext` path run sequentially vs
//! `Recommender::score_batch` at 1 and 4 worker threads), top-10
//! recommendation (materialize-and-sort vs the fused
//! `recommend_into`/`recommend_batch` path), snapshot save/load and hot
//! swaps, FIFO vs QoS scheduling under overload, availability under
//! injected faults, adaptive vs fixed-τ stopping, long-tail quality with
//! re-ranking off vs on, and single-query HT latency. The summary is one
//! JSON document, printed and written to `BENCH_walk_scoring.json`;
//! `tests/bench_schema.rs` checks its shape and gates.
//!
//! Run with `cargo run --release -p longtail-bench --bin bench_walk_scoring`.

use longtail_bench::json::Json;
use longtail_core::{
    top_k, AbsorbingCostConfig, AbsorbingCostRecommender, AbsorbingTimeRecommender, DpStopping,
    GraphRecConfig, HittingTimeRecommender, PopularityRecommender, RecommendOptions, Recommender,
    RerankIndex, RerankPolicy, Reranker, ScoringContext,
};
use longtail_data::{
    holdout_longtail_favorites, LongTailSplit, ProtocolSplit, SplitConfig, SyntheticConfig,
    SyntheticData,
};
use longtail_eval::{
    catalog_coverage, exposure_counts, gini_concentration, list_recall, novelty, sample_test_users,
    tail_recall_split, RecommendationLists,
};
use longtail_serve::{
    BreakerConfig, Engine, FaultKind, FaultPlan, FaultyRecommender, Priority, RecommendRequest,
    RetryPolicy, SchedPolicy, ServeError, SharedRecommender,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCH: usize = 64;
const REPEATS: usize = 5;
const TOP_K: usize = 10;
/// Worker threads of the hot-swap engine and of the quality pass's batch
/// recommendation.
const ENGINE_WORKERS: usize = 4;
/// Admission-queue capacity of the QoS engines: deep enough that the whole
/// overload mix fits without engaging backpressure, so the scheduler alone
/// decides who misses a deadline.
const QUEUE_CAPACITY: usize = 256;

/// Request rounds of the fault-tolerance pass: `FAULT_ROUNDS * BATCH`
/// requests per engine, enough that the seeded fault mix lands dozens of
/// faults while the pass stays cheap next to the timing series.
const FAULT_ROUNDS: usize = 4;
/// Per-call probability of an injected panic in the chaos mix.
const FAULT_P_PANIC: f64 = 0.12;
/// Per-call probability of injected NaN score poisoning in the chaos mix.
const FAULT_P_NAN: f64 = 0.08;

/// Requests in the QoS overload mix (the sampled users, cycled): enough
/// that the single worker is overloaded for the whole pass and the seeded
/// class mix lands dozens of requests per class.
const QOS_REQUESTS: usize = 96;
/// Interactive deadline, as a fraction of the mix's total service demand
/// (`QOS_REQUESTS` × the calibrated per-request estimate). At 0.5, FIFO
/// meets it only for Interactive requests that happen to land in the first
/// half of the arrival order (~50% hit rate) while EDF-with-priority
/// serves the whole class first (~100%).
const QOS_INTERACTIVE_SLACK: f64 = 0.5;
/// Batch deadline fraction: generous enough that both schedulers meet it.
const QOS_BATCH_SLACK: f64 = 1.25;

/// τ budget of the early-termination comparison: a *high-fidelity* serving
/// tier whose truncation error is negligible (the paper's τ=15 trades
/// accuracy for speed; at τ=15 the sound remaining-change bounds cannot —
/// and should not — certify an earlier stop, so adaptive stopping leaves
/// that configuration untouched). With a generous budget, adaptive
/// stopping makes each query pay only for the iterations it actually
/// needs, which is what turns a conservative τ from a per-query tax into a
/// safety net.
const ET_ITERATIONS: usize = 240;

/// Maximum Recall@k an enabled re-rank policy may cost relative to the raw
/// fused path — the "quality for bounded accuracy" contract the JSON gate
/// checks.
const QUALITY_RECALL_DROP: f64 = 0.15;

/// Best-of-`REPEATS` wall-clock seconds for `f`.
fn time_best(mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPEATS {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// A timing series: one row per `(name, seconds per batch)`, each with its
/// speedup over the first row under `speedup_key`.
fn series(speedup_key: &str, rows: &[(&str, f64)]) -> Json {
    let base = rows[0].1;
    Json::Arr(
        rows.iter()
            .map(|&(name, seconds)| {
                Json::obj([
                    ("name", name.into()),
                    ("seconds_per_batch", seconds.into()),
                    (speedup_key, (base / seconds).into()),
                ])
            })
            .collect(),
    )
}

/// `{"n_users", "n_items"}` of a corpus.
fn dims(config: &SyntheticConfig) -> Json {
    Json::obj([
        ("n_users", config.n_users.into()),
        ("n_items", config.n_items.into()),
    ])
}

/// Scoring the batch: the context path run sequentially vs `score_batch`
/// at 1 and 4 threads.
fn measure_algorithm(users: &[u32], rec: &dyn Recommender) -> Json {
    let mut ctx = ScoringContext::new();
    let mut scores = Vec::new();
    let sequential = time_best(|| {
        for &u in users {
            rec.score_into(u, &mut ctx, &mut scores);
            std::hint::black_box(scores.last());
        }
    });
    let batch = |threads| {
        time_best(|| {
            std::hint::black_box(rec.score_batch(users, threads));
        })
    };
    series(
        "speedup_vs_sequential",
        &[
            ("sequential_context", sequential),
            ("batch_t1", batch(1)),
            ("batch_t4", batch(4)),
        ],
    )
}

/// Top-10 recommendation for the batch: score-then-sort (full vector +
/// `top_k` scan) vs the fused `recommend_into` path, plus the parallel
/// `recommend_batch` form.
///
/// Measured on a serving-scale catalog (see `main`): the point of the fused
/// path is that query cost tracks the *visited subgraph*, not the catalog,
/// so the catalog must be large enough for `O(n_items)` materialization to
/// register at all.
fn measure_recommend(users: &[u32], rec: &dyn Recommender) -> Json {
    let mut ctx = ScoringContext::new();
    let mut scores = Vec::new();
    let score_then_sort = time_best(|| {
        for &u in users {
            rec.score_into(u, &mut ctx, &mut scores);
            let rated = rec.rated_items(u);
            let list = top_k(&scores, TOP_K, |i| rated.binary_search(&i).is_ok());
            std::hint::black_box(&list);
        }
    });

    let mut ctx = ScoringContext::new();
    let opts = RecommendOptions::default();
    let mut list = Vec::new();
    let fused = time_best(|| {
        for &u in users {
            rec.recommend_into(u, TOP_K, &opts, &mut ctx, &mut list);
            std::hint::black_box(&list);
        }
    });
    let batch = |threads| {
        time_best(|| {
            std::hint::black_box(rec.recommend_batch(users, TOP_K, &opts, threads));
        })
    };
    series(
        "speedup_vs_score_then_sort",
        &[
            ("score_then_sort", score_then_sort),
            ("fused_topk", fused),
            ("recommend_batch_t1", batch(1)),
            ("recommend_batch_t4", batch(4)),
        ],
    )
}

/// Adaptive early termination vs the fixed-τ walk on the fused top-10 path:
/// per-batch wall clock under both stopping policies, the DP iteration
/// counters of one adaptive pass, and a full item-by-item check that both
/// policies served identical rankings.
fn measure_early_termination(users: &[u32], rec: &dyn Recommender) -> Json {
    let fixed_opts = RecommendOptions::with_stopping(DpStopping::Fixed);
    let adaptive_opts = RecommendOptions::default();
    let mut fixed_ctx = ScoringContext::new();
    let mut adaptive_ctx = ScoringContext::new();
    let mut fixed_list = Vec::new();
    let mut adaptive_list = Vec::new();

    // Rank identity: the acceptance bar for serving with early termination.
    let mut lists_identical = true;
    for &u in users {
        rec.recommend_into(u, TOP_K, &fixed_opts, &mut fixed_ctx, &mut fixed_list);
        rec.recommend_into(
            u,
            TOP_K,
            &adaptive_opts,
            &mut adaptive_ctx,
            &mut adaptive_list,
        );
        if fixed_list
            .iter()
            .map(|s| s.item)
            .ne(adaptive_list.iter().map(|s| s.item))
        {
            lists_identical = false;
        }
    }

    // Iteration counters for exactly one adaptive pass over the batch.
    adaptive_ctx.reset_dp_telemetry();
    for &u in users {
        rec.recommend_into(
            u,
            TOP_K,
            &adaptive_opts,
            &mut adaptive_ctx,
            &mut adaptive_list,
        );
    }
    let telemetry = adaptive_ctx.dp_telemetry();

    let fixed_seconds = time_best(|| {
        for &u in users {
            rec.recommend_into(u, TOP_K, &fixed_opts, &mut fixed_ctx, &mut fixed_list);
            std::hint::black_box(&fixed_list);
        }
    });
    let adaptive_seconds = time_best(|| {
        for &u in users {
            rec.recommend_into(
                u,
                TOP_K,
                &adaptive_opts,
                &mut adaptive_ctx,
                &mut adaptive_list,
            );
            std::hint::black_box(&adaptive_list);
        }
    });

    Json::obj([
        ("fixed_seconds_per_batch", fixed_seconds.into()),
        ("adaptive_seconds_per_batch", adaptive_seconds.into()),
        (
            "speedup_vs_fixed_tau",
            (fixed_seconds / adaptive_seconds).into(),
        ),
        ("dp_iterations_budget", telemetry.iterations_budget.into()),
        ("dp_iterations_run", telemetry.iterations_run.into()),
        (
            "iterations_saved_fraction",
            telemetry.iterations_saved_fraction().into(),
        ),
        ("queries", telemetry.queries.into()),
        ("converged_queries", telemetry.converged.into()),
        ("rank_frozen_queries", telemetry.rank_frozen.into()),
        ("top10_lists_identical", lists_identical.into()),
    ])
}

/// The model lifecycle on the serving corpus: snapshot save/load wall
/// time, the publish latency of an atomic hot swap, and the
/// served-during-swap correctness gates — every request submitted across
/// the deploy boundary must complete on exactly one version (none lost,
/// none torn), and the reloaded model must serve bit-identical rankings.
fn measure_model_lifecycle<R>(label: &'static str, users: &[u32], model: &R) -> Json
where
    R: longtail_core::Persistable + Clone + Send + Sync + 'static,
{
    let dir = std::env::temp_dir().join(format!("longtail_bench_lifecycle_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create snapshot dir");
    let path = dir.join(format!("{label}.snap"));

    let save_seconds = time_best(|| {
        model.save_to_file(&path).expect("snapshot save");
    });
    let snapshot_bytes = std::fs::metadata(&path).expect("stat snapshot").len();
    let mut loaded = None;
    let load_seconds = time_best(|| {
        loaded = Some(R::load_from_file(&path).expect("snapshot load"));
    });
    let loaded = loaded.expect("at least one load ran");

    // Bit-identity gate: the reloaded model must reproduce every ranking
    // (items, ranks and f64 bit patterns) of the trained original.
    let mut ctx = ScoringContext::new();
    let opts = RecommendOptions::default();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let mut reloaded_rankings_identical = true;
    for &u in users {
        model.recommend_into(u, TOP_K, &opts, &mut ctx, &mut a);
        loaded.recommend_into(u, TOP_K, &opts, &mut ctx, &mut b);
        if a.len() != b.len()
            || a.iter()
                .zip(&b)
                .any(|(x, y)| x.item != y.item || x.score.to_bits() != y.score.to_bits())
        {
            reloaded_rankings_identical = false;
        }
    }

    // Hot swap under load: a wave of in-flight requests straddles the
    // deploy; afterwards a second wave must serve on the new version only.
    let engine = Engine::builder()
        .model(label, Arc::new(model.clone()))
        .workers(ENGINE_WORKERS)
        .build();
    let wave = |out: &mut Vec<longtail_serve::PendingResponse>| {
        for &u in users {
            out.push(
                engine
                    .submit(RecommendRequest::new(label, u, TOP_K))
                    .expect("registered model"),
            );
        }
    };
    let mut first = Vec::new();
    wave(&mut first);
    let deploy_start = Instant::now();
    engine
        .deploy_from(
            label,
            Arc::new(loaded),
            longtail_serve::ModelProvenance::Snapshot(path.clone()),
        )
        .expect("registered model");
    let deploy_publish_seconds = deploy_start.elapsed().as_secs_f64();
    let mut second = Vec::new();
    wave(&mut second);

    let mut served = 0u64;
    let mut requests_lost = 0u64;
    let mut served_during_swap_correct = true;
    for (wave_no, pending) in [(1u32, first), (2u32, second)] {
        for p in pending {
            match p.wait() {
                Ok(r) => {
                    served += 1;
                    // Exactly one version per response; post-deploy
                    // submissions must not serve stale.
                    let version_ok = match wave_no {
                        2 => r.version == 2,
                        _ => r.version == 1 || r.version == 2,
                    };
                    if !version_ok {
                        served_during_swap_correct = false;
                    }
                }
                Err(_) => requests_lost += 1,
            }
        }
    }
    if requests_lost > 0 {
        served_during_swap_correct = false;
    }
    std::fs::remove_dir_all(&dir).ok();
    Json::obj([
        ("snapshot_bytes", snapshot_bytes.into()),
        ("save_seconds", save_seconds.into()),
        ("load_seconds", load_seconds.into()),
        ("deploy_publish_seconds", deploy_publish_seconds.into()),
        ("requests", (2 * users.len()).into()),
        ("served", served.into()),
        ("requests_lost", requests_lost.into()),
        (
            "served_during_swap_correct",
            served_during_swap_correct.into(),
        ),
        (
            "reloaded_rankings_identical",
            reloaded_rankings_identical.into(),
        ),
    ])
}

/// Availability under a seeded chaos mix (injected panics + NaN-poisoned
/// scores), three engines on the same deterministic request sequence: the
/// *protected* engine (circuit breakers, one retry on a fresh context, POP
/// degraded-mode fallback), the *unprotected* engine (same fault plan, no
/// protection), and a fault-free reference engine. Every response the
/// protected engine serves non-degraded must be rank-identical to the
/// fault-free engine — protection machinery must never perturb a healthy
/// ranking. The acceptance bar is that protection keeps at least 99% of
/// requests answered.
fn measure_fault_tolerance(
    label: &'static str,
    users: &[u32],
    model: SharedRecommender,
    fallback: SharedRecommender,
) -> Json {
    // Same seeds, same probabilities, same call-indexed fault set every
    // run; two instances so the protected and unprotected engines each
    // start from call 0.
    let plan = || {
        FaultPlan::new()
            .seeded(0xfa01, FAULT_P_PANIC, FaultKind::Panic)
            .seeded(0xfa02, FAULT_P_NAN, FaultKind::NanScores)
    };
    let requests: Vec<RecommendRequest> = (0..FAULT_ROUNDS)
        .flat_map(|_| {
            users
                .iter()
                .map(|&u| RecommendRequest::new(label, u, TOP_K))
        })
        .collect();

    let clean = Engine::builder()
        .model(label, Arc::clone(&model))
        .workers(0)
        .build();
    let protected_primary = Arc::new(FaultyRecommender::new(Arc::clone(&model), plan()));
    let protected = Engine::builder()
        .model(label, Arc::clone(&protected_primary) as SharedRecommender)
        .model("POP", Arc::clone(&fallback))
        .fallback(label, "POP")
        .breakers(BreakerConfig::default())
        .default_retry(RetryPolicy::attempts(2))
        .workers(0)
        .build();
    let unprotected_primary = Arc::new(FaultyRecommender::new(Arc::clone(&model), plan()));
    let unprotected = Engine::builder()
        .model(label, Arc::clone(&unprotected_primary) as SharedRecommender)
        .workers(0)
        .build();

    let mut answered_protected = 0usize;
    let mut degraded = 0usize;
    let mut non_degraded_rankings_match = true;
    for req in &requests {
        if let Ok(response) = protected.recommend(req) {
            answered_protected += 1;
            if response.degraded {
                degraded += 1;
            } else {
                let reference = clean.recommend(req).expect("fault-free engine serves");
                if response
                    .items
                    .iter()
                    .map(|s| s.item)
                    .ne(reference.items.iter().map(|s| s.item))
                {
                    non_degraded_rankings_match = false;
                }
            }
        }
    }
    let answered_unprotected = requests
        .iter()
        .filter(|req| unprotected.recommend(req).is_ok())
        .count();

    let n = requests.len() as f64;
    let availability_protected = answered_protected as f64 / n;
    let injected = |primary: &FaultyRecommender| primary.plan().count_faults(primary.calls_made());
    Json::obj([
        ("requests", requests.len().into()),
        (
            "injected_faults_protected",
            injected(&protected_primary).into(),
        ),
        (
            "injected_faults_unprotected",
            injected(&unprotected_primary).into(),
        ),
        ("answered_with_protection", answered_protected.into()),
        ("degraded", degraded.into()),
        ("retries", protected.stats().retries.into()),
        ("answered_without_protection", answered_unprotected.into()),
        (
            "availability_with_protection",
            availability_protected.into(),
        ),
        (
            "availability_without_protection",
            (answered_unprotected as f64 / n).into(),
        ),
        (
            "non_degraded_rankings_match",
            non_degraded_rankings_match.into(),
        ),
        (
            "meets_availability_target",
            (availability_protected >= 0.99).into(),
        ),
    ])
}

/// splitmix64: the seeded class mix of the QoS pass, stable across runs
/// and machines.
fn qos_mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deadline-hit rates under a seeded overload mix, FIFO vs the QoS
/// scheduler, on otherwise identical single-worker engines.
///
/// A calibration pass first serves the whole mix closed-loop — measuring
/// the per-request service estimate the deadlines are denominated in, and
/// training the QoS engine's service-time EWMA (the slack shedder never
/// acts without evidence). The overload mix then goes open loop: 96
/// requests submitted at once against one worker, every third request
/// (seeded) Interactive with a tight deadline, Batch with a loose one, or
/// deadline-free Background. The scheduler may only reorder or shed:
/// every response either matches the blocking path's ranking or is a typed
/// deadline failure, and each class's ledger must balance
/// (`submitted = served + shed + expired`, nothing `failed`). The
/// acceptance bar is that EDF-with-priority serves strictly more
/// Interactive deadlines than FIFO.
fn measure_qos_scheduling(label: &'static str, users: &[u32], model: SharedRecommender) -> Json {
    let build = |sched: SchedPolicy| {
        Engine::builder()
            .model(label, Arc::clone(&model))
            .workers(1)
            .queue_capacity(QUEUE_CAPACITY)
            .scheduling(sched)
            .build()
    };
    let fifo = build(SchedPolicy::Fifo);
    let qos = build(SchedPolicy::Qos);
    let mix_users: Vec<u32> = (0..QOS_REQUESTS).map(|i| users[i % users.len()]).collect();

    // Calibration: the mix served closed-loop on the inline path — the
    // blocking-path reference rankings, the service estimate, and (on the
    // QoS engine) the EWMA the slack shedder consults.
    let start = Instant::now();
    let reference: Vec<Vec<u32>> = mix_users
        .iter()
        .map(|&u| {
            let resp = fifo
                .recommend(&RecommendRequest::new(label, u, TOP_K))
                .expect("calibration serves");
            resp.items.iter().map(|s| s.item).collect()
        })
        .collect();
    let estimate = start.elapsed().as_secs_f64() / QOS_REQUESTS as f64;
    for &u in &mix_users {
        qos.recommend(&RecommendRequest::new(label, u, TOP_K))
            .expect("calibration serves");
    }

    // The overload mix. Deadlines are absolute, so each engine gets its
    // own freshly-stamped copy of the same request sequence.
    let demand = estimate * QOS_REQUESTS as f64;
    let mix_requests = || -> Vec<RecommendRequest> {
        let now = Instant::now();
        mix_users
            .iter()
            .enumerate()
            .map(|(i, &u)| {
                let req = RecommendRequest::new(label, u, TOP_K);
                match qos_mix(0x9a05 ^ i as u64) % 3 {
                    0 => req
                        .deadline_at(now + Duration::from_secs_f64(QOS_INTERACTIVE_SLACK * demand)),
                    1 => req
                        .with_priority(Priority::Batch)
                        .deadline_at(now + Duration::from_secs_f64(QOS_BATCH_SLACK * demand)),
                    _ => req.with_priority(Priority::Background),
                }
            })
            .collect()
    };
    // One scheduler's pass, open loop (every request is submitted before
    // any response is claimed): (requests/s, Interactive and Batch
    // deadline-hit rates, every class ledger balances, every served ranking
    // is the blocking path's, the engine's stats for exactly this burst).
    let evaluate = |engine: &Engine| {
        let requests = mix_requests();
        let before = engine.stats();
        let start = Instant::now();
        let results = engine.recommend_batch(requests);
        let seconds = start.elapsed().as_secs_f64();
        let stats = engine.stats().since(&before);
        let mut rankings_match_blocking = true;
        for (i, result) in results.iter().enumerate() {
            match result {
                // A served ranking must be the blocking path's, whatever
                // the scheduler did to the queue around it.
                Ok(resp) => {
                    if resp
                        .items
                        .iter()
                        .map(|s| s.item)
                        .ne(reference[i].iter().copied())
                    {
                        rankings_match_blocking = false;
                    }
                }
                // The only acceptable failure in this mix: out of time.
                Err(ServeError::DeadlineExceeded) => {}
                Err(_) => rankings_match_blocking = false,
            }
        }
        let ledger_consistent = stats
            .per_class
            .iter()
            .all(|c| c.failed == 0 && c.submitted == c.served + c.shed + c.expired);
        let hit_rate = |p: Priority| {
            let class = stats.per_class[p.index()];
            class.served as f64 / class.submitted.max(1) as f64
        };
        (
            QOS_REQUESTS as f64 / seconds,
            hit_rate(Priority::Interactive),
            hit_rate(Priority::Batch),
            ledger_consistent,
            rankings_match_blocking,
            stats,
        )
    };

    let (fifo_rate, fifo_interactive, fifo_batch, fifo_ledger, fifo_match, _) = evaluate(&fifo);
    let (qos_rate, qos_interactive, qos_batch, qos_ledger, qos_match, qos_stats) = evaluate(&qos);
    let interactive = qos_stats.per_class[Priority::Interactive.index()];
    Json::obj([
        ("service_estimate_seconds", estimate.into()),
        ("fifo_requests_per_sec", fifo_rate.into()),
        ("qos_requests_per_sec", qos_rate.into()),
        ("fifo_interactive_hit_rate", fifo_interactive.into()),
        ("qos_interactive_hit_rate", qos_interactive.into()),
        ("fifo_batch_hit_rate", fifo_batch.into()),
        ("qos_batch_hit_rate", qos_batch.into()),
        ("interactive_p50_seconds", interactive.latency_p50().into()),
        ("interactive_p99_seconds", interactive.latency_p99().into()),
        ("shed_unmeetable", qos_stats.shed_unmeetable.into()),
        ("ledger_consistent", (fifo_ledger && qos_ledger).into()),
        ("rankings_match_blocking", (fifo_match && qos_match).into()),
        (
            "interactive_hit_rate_improves",
            (qos_interactive > fifo_interactive).into(),
        ),
    ])
}

/// Serve each held-out user's top-k list with re-ranking off, disabled,
/// and on (under `policy`), and read the quality suite (coverage, Gini concentration,
/// novelty, list-based recall split head/tail) off the same artifacts.
/// `rec` must be trained on `split.train` (the held-out favourites are the
/// recall ground truth), and `index` built over the same training data.
///
/// Two gates: a `Default` (disabled) policy through the full re-rank
/// plumbing serves lists identical to no policy at all, and the enabled
/// policy's recall stays within [`QUALITY_RECALL_DROP`] of the raw path.
fn measure_longtail_quality(
    rec: &dyn Recommender,
    split: &ProtocolSplit,
    index: &RerankIndex,
    policy: RerankPolicy,
) -> Json {
    let mut users: Vec<u32> = split.test_cases.iter().map(|c| c.user).collect();
    users.sort_unstable();
    let n_items = split.train.n_items();
    let n_users = split.train.n_users();
    let pops = split.train.item_popularity();

    let arm = |lists: &RecommendationLists, recall: f64| {
        let counts = exposure_counts(lists, n_items);
        let by_class = tail_recall_split(lists, &split.test_cases, |i| {
            index.tail(i, policy.tail_cutoff)
        });
        Json::obj([
            ("recall_at_k", recall.into()),
            ("tail_recall_at_k", by_class.tail.into()),
            ("head_recall_at_k", by_class.head.into()),
            ("coverage", catalog_coverage(lists, n_items).into()),
            ("gini", gini_concentration(&counts).into()),
            ("novelty_bits", novelty(lists, &pops, n_users).into()),
        ])
    };

    let off_lists = RecommendationLists::compute_with(
        rec,
        &users,
        TOP_K,
        &RecommendOptions::default(),
        ENGINE_WORKERS,
    );
    let disabled_opts =
        RecommendOptions::new().rerank(Reranker::new(index, RerankPolicy::default()));
    let disabled_lists =
        RecommendationLists::compute_with(rec, &users, TOP_K, &disabled_opts, ENGINE_WORKERS);
    let on_opts = RecommendOptions::new().rerank(Reranker::new(index, policy));
    let on_lists = RecommendationLists::compute_with(rec, &users, TOP_K, &on_opts, ENGINE_WORKERS);

    let off_recall = list_recall(&off_lists, &split.test_cases);
    let on_recall = list_recall(&on_lists, &split.test_cases);
    Json::obj([
        ("evaluated_users", users.len().into()),
        ("rerank_off", arm(&off_lists, off_recall)),
        ("rerank_on", arm(&on_lists, on_recall)),
        (
            "disabled_identical",
            (off_lists.lists == disabled_lists.lists).into(),
        ),
        (
            "recall_drop_bounded",
            (on_recall >= off_recall - QUALITY_RECALL_DROP).into(),
        ),
    ])
}

fn main() {
    let config = SyntheticConfig {
        n_users: 600,
        n_items: 450,
        ..SyntheticConfig::movielens_like()
    };
    let data = SyntheticData::generate(&config);
    let train = &data.dataset;
    let walk_config = GraphRecConfig {
        max_items: 300,
        iterations: 15,
    };
    let ac_config = |graph| AbsorbingCostConfig {
        graph,
        item_entry_cost: 1.0,
    };
    let users = sample_test_users(&train.user_activity(), BATCH, 3, 0xbe9c);
    assert_eq!(users.len(), BATCH, "corpus too small for the batch");

    let ht = HittingTimeRecommender::new(train, walk_config);
    let ac1 = AbsorbingCostRecommender::item_entropy(train, ac_config(walk_config));
    let results = Json::obj([
        ("HT", measure_algorithm(&users, &ht)),
        ("AC1", measure_algorithm(&users, &ac1)),
    ]);

    // Fused top-k vs score-then-sort on a serving-scale catalog: the same
    // walk budget, but a catalog where building + scanning a full score
    // vector per query is real work. Query cost on the fused path tracks
    // the visited subgraph, so it is insensitive to this scaling.
    let serve_config = SyntheticConfig {
        n_users: 2200,
        n_items: 24_000,
        ..SyntheticConfig::douban_like()
    };
    let serve_data = SyntheticData::generate(&serve_config);
    let serve_train = &serve_data.dataset;
    let serve_users = sample_test_users(&serve_train.user_activity(), BATCH, 3, 0xbe9c);
    assert_eq!(serve_users.len(), BATCH, "serving corpus too small");
    let serve_ht = HittingTimeRecommender::new(serve_train, walk_config);
    let serve_ac1 = AbsorbingCostRecommender::item_entropy(serve_train, ac_config(walk_config));
    let recommend_topk = Json::obj([
        ("k", TOP_K.into()),
        ("dataset", dims(&serve_config)),
        ("HT", measure_recommend(&serve_users, &serve_ht)),
        ("AC1", measure_recommend(&serve_users, &serve_ac1)),
    ]);

    // The model lifecycle on the same serving corpus: snapshot save/load,
    // hot-swap publish latency, and the served-during-swap gates.
    let model_lifecycle = Json::obj([
        ("workers", ENGINE_WORKERS.into()),
        ("HT", measure_model_lifecycle("HT", &serve_users, &serve_ht)),
        (
            "AC1",
            measure_model_lifecycle("AC1", &serve_users, &serve_ac1),
        ),
    ]);

    // Deadline-hit rates under a seeded overload mix: the QoS scheduler
    // (strict priority + EDF + slack shedding) vs the FIFO baseline.
    let qos = |label, model: SharedRecommender| measure_qos_scheduling(label, &serve_users, model);
    let qos_scheduling = Json::obj([
        ("workers", 1usize.into()),
        ("requests", QOS_REQUESTS.into()),
        ("interactive_slack", QOS_INTERACTIVE_SLACK.into()),
        ("batch_slack", QOS_BATCH_SLACK.into()),
        ("HT", qos("HT", Arc::new(serve_ht.clone()))),
        ("AC1", qos("AC1", Arc::new(serve_ac1.clone()))),
    ]);

    // Availability under injected faults on the same serving corpus. The
    // engine catches every injected panic; silence the default hook's
    // per-panic backtrace for the duration so the output stays readable,
    // then restore it.
    let serve_pop: SharedRecommender = Arc::new(PopularityRecommender::train(serve_train));
    let faults = |label, model: SharedRecommender| {
        measure_fault_tolerance(label, &serve_users, model, Arc::clone(&serve_pop))
    };
    let panic_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let fault_tolerance = Json::obj([
        ("rounds", FAULT_ROUNDS.into()),
        (
            "fault_plan",
            Json::obj([
                ("p_panic", FAULT_P_PANIC.into()),
                ("p_nan", FAULT_P_NAN.into()),
            ]),
        ),
        ("HT", faults("HT", Arc::new(serve_ht.clone()))),
        ("AC1", faults("AC1", Arc::new(serve_ac1.clone()))),
    ]);
    std::panic::set_hook(panic_hook);

    // Long-tail quality on the small corpus: hold out tail favourites,
    // retrain on the remainder, and compare the quality suite with the
    // re-rank policy off vs on (plus the disabled-policy identity gate).
    let tail_split = LongTailSplit::by_rating_share(&train.item_popularity(), 0.2);
    let quality_split = holdout_longtail_favorites(train, &tail_split, &SplitConfig::default());
    let rerank_index = RerankIndex::from_dataset(&quality_split.train);
    let q_ht = HittingTimeRecommender::new(&quality_split.train, walk_config);
    let q_ac1 =
        AbsorbingCostRecommender::item_entropy(&quality_split.train, ac_config(walk_config));
    // The on-arm's policy: mild MMR redundancy suppression, a popularity
    // penalty, and a 3-slot tail quota.
    let policy = RerankPolicy::new()
        .mmr(0.3)
        .popularity_penalty(0.25)
        .tail_quota(3);
    let quality = |rec: &dyn Recommender| {
        measure_longtail_quality(rec, &quality_split, &rerank_index, policy)
    };
    let longtail_quality = Json::obj([
        ("k", TOP_K.into()),
        (
            "policy",
            Json::obj([
                ("mmr_lambda", policy.mmr_lambda.into()),
                ("popularity_penalty", policy.popularity_penalty.into()),
                ("tail_quota", policy.tail_quota.into()),
                ("tail_cutoff", policy.tail_cutoff.into()),
            ]),
        ),
        ("max_recall_drop", QUALITY_RECALL_DROP.into()),
        ("HT", quality(&q_ht)),
        ("AC1", quality(&q_ac1)),
    ]);

    // Early termination on the same serving corpus at the high-fidelity τ
    // budget (see ET_ITERATIONS): fixed-τ vs the default adaptive policy.
    let et_config = GraphRecConfig {
        max_items: walk_config.max_items,
        iterations: ET_ITERATIONS,
    };
    let epsilon = match DpStopping::default() {
        DpStopping::Adaptive { epsilon } => Some(epsilon),
        DpStopping::Fixed => None,
    };
    let et_ht = HittingTimeRecommender::new(serve_train, et_config);
    let et_at = AbsorbingTimeRecommender::new(serve_train, et_config);
    let et_ac1 = AbsorbingCostRecommender::item_entropy(serve_train, ac_config(et_config));
    let early = |rec: &dyn Recommender| measure_early_termination(&serve_users, rec);
    let early_termination = Json::obj([
        ("epsilon", epsilon.into()),
        ("k", TOP_K.into()),
        ("dp_budget", ET_ITERATIONS.into()),
        ("HT", early(&et_ht)),
        ("AT", early(&et_at)),
        ("AC1", early(&et_ac1)),
    ]);

    // Single-query latency of the context path.
    let probe = users[0];
    let mut ctx = ScoringContext::new();
    let mut scores = Vec::new();
    let single_ctx = time_best(|| {
        ht.score_into(probe, &mut ctx, &mut scores);
        std::hint::black_box(scores.last());
    });

    let summary = Json::obj([
        ("bench", "walk_scoring".into()),
        ("batch_users", BATCH.into()),
        ("repeats_best_of", REPEATS.into()),
        ("dataset", dims(&config)),
        (
            "walk",
            Json::obj([
                ("max_items", walk_config.max_items.into()),
                ("iterations", walk_config.iterations.into()),
            ]),
        ),
        (
            "threads",
            std::thread::available_parallelism()
                .map_or(1, |p| p.get())
                .into(),
        ),
        ("results", results),
        ("recommend_topk", recommend_topk),
        ("model_lifecycle", model_lifecycle),
        ("qos_scheduling", qos_scheduling),
        ("fault_tolerance", fault_tolerance),
        ("early_termination", early_termination),
        ("longtail_quality", longtail_quality),
        (
            "single_query_ht",
            Json::obj([("context_seconds", single_ctx.into())]),
        ),
    ])
    .pretty();
    let path = "BENCH_walk_scoring.json";
    std::fs::write(path, &summary).expect("write benchmark summary");
    print!("{summary}");
    println!("wrote {path}");
}
