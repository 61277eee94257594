//! Walk-scoring perf summary: sequential vs batch scoring, plus fused top-k
//! serving vs score-then-sort.
//!
//! Times 64-user scoring for HT and AC1 on a synthetic long-tail corpus
//! two ways — the kernel + `ScoringContext` path run sequentially, and
//! `Recommender::score_batch` at 1 and 4 worker threads — plus single-query
//! HT latency, and the top-10 *recommendation* comparison
//! (materialize-and-sort vs the fused `recommend_into`/`recommend_batch`
//! path), writing a machine-readable summary to `BENCH_walk_scoring.json`
//! so future PRs have a perf trajectory.
//!
//! Run with `cargo run --release -p longtail-bench --bin bench_walk_scoring`.

use longtail_core::{
    top_k, AbsorbingCostConfig, AbsorbingCostRecommender, AbsorbingTimeRecommender, DpStopping,
    DpTelemetry, GraphRecConfig, HittingTimeRecommender, PopularityRecommender, RecommendOptions,
    Recommender, RerankIndex, RerankPolicy, Reranker, ScoringContext,
};
use longtail_data::{
    holdout_longtail_favorites, LongTailSplit, ProtocolSplit, SplitConfig, SyntheticConfig,
    SyntheticData,
};
use longtail_eval::{
    catalog_coverage, exposure_counts, gini_concentration, list_recall, novelty, sample_test_users,
    tail_recall_split, time_open_loop_submission, RecommendationLists, TimingStats,
};
use longtail_serve::{
    BreakerConfig, DeltaConfig, DeltaRating, DeltaStore, Engine, FaultKind, FaultPlan,
    FaultyRecommender, Priority, RecommendRequest, RecommendResponse, RetryPolicy, SchedPolicy,
    ServeError, SharedRecommender,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCH: usize = 64;
const REPEATS: usize = 5;
const TOP_K: usize = 10;
/// Batches per sustained-throughput round of the serving-engine
/// comparison: enough round trips that per-batch thread start-up (the cost
/// the persistent pool removes) is what the measurement sees.
const ENGINE_ROUNDS: usize = 30;
/// Worker threads for both sides of the serving-engine comparison.
const ENGINE_WORKERS: usize = 4;
/// Admission-queue capacity of the async front-end measurement: deep
/// enough that a whole open-loop round fits without engaging backpressure
/// (throughput, not shedding, is what that series measures).
const ASYNC_QUEUE_CAPACITY: usize = 256;
/// Every this-many-th request of the async deadline pass carries an
/// already-expired deadline, making the shed count exact and
/// machine-independent.
const ASYNC_EXPIRED_STRIDE: usize = 4;

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

/// Appends per published epoch of the streaming-ingest pass: the store's
/// auto-publish cadence, so visibility latency is bounded without paying
/// an epoch per append.
const INGEST_PUBLISH_EVERY: usize = 64;
/// Streamed appends of the ingest pass: enough for dozens of epochs and a
/// delta whose overlay merge is real per-query work.
const INGEST_APPENDS: usize = 2048;

/// τ budget of the early-termination comparison: a *high-fidelity* serving
/// tier whose truncation error is negligible (the paper's τ=15 trades
/// accuracy for speed; at τ=15 the sound remaining-change bounds cannot —
/// and should not — certify an earlier stop, so adaptive stopping leaves
/// that configuration untouched). With a generous budget, adaptive
/// stopping makes each query pay only for the iterations it actually
/// needs, which is what turns a conservative τ from a per-query tax into a
/// safety net.
const ET_ITERATIONS: usize = 240;

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

struct Measurement {
    name: &'static str,
    seconds_per_batch: f64,
}

fn measure_algorithm(
    label: &'static str,
    users: &[u32],
    rec: &dyn Recommender,
) -> Vec<Measurement> {
    let mut out = Vec::new();
    let mut ctx = ScoringContext::new();
    let mut scores = Vec::new();
    let seq_ctx = time_best(|| {
        for &u in users {
            rec.score_into(u, &mut ctx, &mut scores);
            std::hint::black_box(scores.last());
        }
    });
    out.push(Measurement {
        name: "sequential_context",
        seconds_per_batch: seq_ctx,
    });

    for (name, threads) in [("batch_t1", 1usize), ("batch_t4", 4)] {
        let t = time_best(|| {
            std::hint::black_box(rec.score_batch(users, threads));
        });
        out.push(Measurement {
            name,
            seconds_per_batch: t,
        });
    }

    println!("\n{label}: {BATCH} users, best of {REPEATS} runs");
    let base = out[0].seconds_per_batch;
    for m in &out {
        println!(
            "  {:<24} {:>10.4} ms/batch  {:>8.4} ms/query  {:>5.2}x vs sequential",
            m.name,
            m.seconds_per_batch * 1e3,
            m.seconds_per_batch * 1e3 / BATCH as f64,
            base / m.seconds_per_batch
        );
    }
    out
}

struct EarlyTermination {
    fixed_seconds: f64,
    adaptive_seconds: f64,
    lists_identical: bool,
    telemetry: DpTelemetry,
}

/// Adaptive early termination vs the fixed-τ walk on the fused top-10 path:
/// per-batch wall clock under both stopping policies, the DP iteration
/// counters of one adaptive pass, and a full item-by-item check that both
/// policies served identical rankings.
fn measure_early_termination(
    label: &'static str,
    users: &[u32],
    rec: &dyn Recommender,
) -> EarlyTermination {
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

    println!(
        "\n{label} early termination: fixed {:.4} ms/batch, adaptive {:.4} ms/batch ({:.2}x), \
         {}/{} DP iterations ({:.0}% saved; {} converged, {} rank-frozen of {} queries), \
         top-{TOP_K} lists identical: {}",
        fixed_seconds * 1e3,
        adaptive_seconds * 1e3,
        fixed_seconds / adaptive_seconds,
        telemetry.iterations_run,
        telemetry.iterations_budget,
        telemetry.iterations_saved_fraction() * 100.0,
        telemetry.converged,
        telemetry.rank_frozen,
        telemetry.queries,
        lists_identical
    );

    EarlyTermination {
        fixed_seconds,
        adaptive_seconds,
        lists_identical,
        telemetry,
    }
}

/// Top-10 recommendation for the batch: score-then-sort (full vector +
/// `top_k` scan) vs the fused `recommend_into` path, plus the parallel
/// `recommend_batch` form.
///
/// Measured on a serving-scale catalog (see `main`): the point of the fused
/// path is that query cost tracks the *visited subgraph*, not the catalog,
/// so the catalog must be large enough for `O(n_items)` materialization to
/// register at all.
fn measure_recommend(
    label: &'static str,
    users: &[u32],
    rec: &dyn Recommender,
) -> Vec<Measurement> {
    let mut out = Vec::new();

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
    out.push(Measurement {
        name: "score_then_sort",
        seconds_per_batch: score_then_sort,
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
    out.push(Measurement {
        name: "fused_topk",
        seconds_per_batch: fused,
    });

    for (name, threads) in [("recommend_batch_t1", 1usize), ("recommend_batch_t4", 4)] {
        let t = time_best(|| {
            std::hint::black_box(rec.recommend_batch(users, TOP_K, &opts, threads));
        });
        out.push(Measurement {
            name,
            seconds_per_batch: t,
        });
    }

    println!("\n{label} top-{TOP_K} recommend: {BATCH} users, best of {REPEATS} runs");
    let base = out[0].seconds_per_batch;
    for m in &out {
        println!(
            "  {:<24} {:>10.4} ms/batch  {:>8.4} ms/query  {:>5.2}x vs score-then-sort",
            m.name,
            m.seconds_per_batch * 1e3,
            m.seconds_per_batch * 1e3 / BATCH as f64,
            base / m.seconds_per_batch
        );
    }
    out
}

struct ServingEngine {
    engine_seconds: f64,
    scoped_seconds: f64,
    requests: usize,
    lists_match_direct: bool,
}

/// Sustained serving throughput: `ENGINE_ROUNDS` back-to-back 64-user
/// batches through a persistent-worker [`Engine`] vs the same batches
/// through `Recommender::recommend_batch` (which spawns and joins
/// `ENGINE_WORKERS` scoped threads *per batch*). Also checks the engine's
/// lists item-for-item against the direct fused path — routing and pooling
/// must never change a ranking.
fn measure_serving_engine(
    label: &'static str,
    users: &[u32],
    model: SharedRecommender,
) -> ServingEngine {
    let engine = Engine::builder()
        .model(label, Arc::clone(&model))
        .workers(ENGINE_WORKERS)
        .build();
    let requests: Vec<RecommendRequest> = users
        .iter()
        .map(|&u| RecommendRequest::new(label, u, TOP_K))
        .collect();
    let opts = RecommendOptions::default();

    // Correctness gate before timing anything.
    let mut ctx = ScoringContext::new();
    let mut direct = Vec::new();
    let mut lists_match_direct = true;
    for (req, response) in requests
        .iter()
        .zip(engine.recommend_batch(requests.clone()))
    {
        let response = response.expect("registered model");
        model.recommend_into(req.user, TOP_K, &opts, &mut ctx, &mut direct);
        if response
            .items
            .iter()
            .map(|s| s.item)
            .ne(direct.iter().map(|s| s.item))
        {
            lists_match_direct = false;
        }
    }

    let engine_seconds = time_best(|| {
        for _ in 0..ENGINE_ROUNDS {
            std::hint::black_box(engine.recommend_batch(requests.clone()));
        }
    });
    let scoped_seconds = time_best(|| {
        for _ in 0..ENGINE_ROUNDS {
            std::hint::black_box(model.recommend_batch(users, TOP_K, &opts, ENGINE_WORKERS));
        }
    });
    let requests_total = ENGINE_ROUNDS * users.len();
    println!(
        "\n{label} serving engine ({ENGINE_WORKERS} workers, {requests_total} requests): \
         persistent pool {:.1} req/s, per-call scoped threads {:.1} req/s ({:.2}x), \
         lists match direct path: {lists_match_direct}",
        requests_total as f64 / engine_seconds,
        requests_total as f64 / scoped_seconds,
        scoped_seconds / engine_seconds,
    );
    ServingEngine {
        engine_seconds,
        scoped_seconds,
        requests: requests_total,
        lists_match_direct,
    }
}

struct ModelLifecycle {
    snapshot_bytes: u64,
    save_seconds: f64,
    load_seconds: f64,
    deploy_publish_seconds: f64,
    requests: usize,
    served: u64,
    requests_lost: u64,
    served_during_swap_correct: bool,
    reloaded_rankings_identical: bool,
}

/// The model lifecycle on the serving corpus: snapshot save/load wall
/// time, the publish latency of an atomic hot swap, and the
/// served-during-swap correctness gates — every request submitted across
/// the deploy boundary must complete on exactly one version (none lost,
/// none torn), and the reloaded model must serve bit-identical rankings.
fn measure_model_lifecycle<R>(label: &'static str, users: &[u32], model: &R) -> ModelLifecycle
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
    let requests = 2 * users.len();
    std::fs::remove_dir_all(&dir).ok();
    println!(
        "\n{label} model lifecycle: snapshot {snapshot_bytes} B, save {:.3} ms, \
         load {:.3} ms, hot-swap publish {:.3} ms, {served}/{requests} served across \
         the swap (lost {requests_lost}), swap correct: {served_during_swap_correct}, \
         reload bit-identical: {reloaded_rankings_identical}",
        save_seconds * 1e3,
        load_seconds * 1e3,
        deploy_publish_seconds * 1e3,
    );
    ModelLifecycle {
        snapshot_bytes,
        save_seconds,
        load_seconds,
        deploy_publish_seconds,
        requests,
        served,
        requests_lost,
        served_during_swap_correct,
        reloaded_rankings_identical,
    }
}

struct StreamingIngest {
    appends: usize,
    append_seconds: f64,
    epochs_published: u64,
    base_query_seconds: f64,
    overlay_query_seconds: f64,
    compaction_total_seconds: f64,
    compaction_publish_seconds: f64,
    folded: usize,
    remaining: usize,
    requests: usize,
    requests_lost: u64,
    overlay_matches_rebuild: bool,
}

/// Streaming ingest on the serving corpus: append throughput into the
/// delta store, per-query cost of overlay scoring vs the frozen base,
/// the compaction fold-rebuild-publish cycle with a request wave
/// straddling it (zero lost requests is a gate), and the rank-identity
/// gate — overlay answers must be bit-identical to a model rebuilt on
/// the union of base + streamed ratings.
fn measure_streaming_ingest(
    label: &'static str,
    users: &[u32],
    base: &longtail_data::Dataset,
    build: &dyn Fn(&longtail_data::Dataset) -> SharedRecommender,
) -> StreamingIngest {
    let store = Arc::new(DeltaStore::new(
        base.clone(),
        DeltaConfig {
            publish_every: INGEST_PUBLISH_EVERY,
            ..DeltaConfig::default()
        },
    ));
    let engine = Engine::builder()
        .model(label, build(base))
        .ingest(label, Arc::clone(&store))
        .workers(ENGINE_WORKERS)
        .build();
    let query_round = || {
        for &u in users {
            std::hint::black_box(
                engine
                    .recommend(&RecommendRequest::new(label, u, TOP_K))
                    .expect("registered model"),
            );
        }
    };

    // Frozen base: the delta is empty, so this is the overlay fast path.
    let base_query_seconds = time_best(query_round) / users.len() as f64;

    // The stream. Deterministic, so the union can be rebuilt exactly for
    // the rank gate below. Timed once — appends mutate the store.
    let (n_users, n_items) = (base.n_users() as u32, base.n_items() as u32);
    let stream = |i: u32| DeltaRating {
        user: (i * 7) % n_users,
        item: (i * 13) % n_items,
        value: 1.0 + (i % 5) as f64,
        timestamp: i as f64,
    };
    let append_start = Instant::now();
    for i in 0..INGEST_APPENDS as u32 {
        store.append(stream(i));
    }
    store.publish();
    let append_seconds = append_start.elapsed().as_secs_f64();
    let epochs_published = store.stats().epochs_published;

    // Live overlay: every query now merges the delta rows into the walk.
    let overlay_query_seconds = time_best(query_round) / users.len() as f64;

    // Rank-identity gate: overlay ≡ rebuilt-on-union, bit for bit, under
    // deterministic stopping.
    let mut union_ratings = base.to_ratings();
    union_ratings.extend((0..INGEST_APPENDS as u32).map(|i| {
        let d = stream(i);
        longtail_data::Rating {
            user: d.user,
            item: d.item,
            value: d.value,
        }
    }));
    let union =
        longtail_data::Dataset::from_ratings(n_users as usize, n_items as usize, &union_ratings);
    let rebuilt = build(&union);
    let opts = RecommendOptions::with_stopping(DpStopping::Fixed);
    let mut ctx = ScoringContext::new();
    let mut want = Vec::new();
    let mut overlay_matches_rebuild = true;
    for &u in users {
        let got = engine
            .recommend(&RecommendRequest::new(label, u, TOP_K).with_stopping(DpStopping::Fixed))
            .expect("registered model");
        rebuilt.recommend_into(u, TOP_K, &opts, &mut ctx, &mut want);
        if got.items.len() != want.len()
            || got
                .items
                .iter()
                .zip(&want)
                .any(|(x, y)| x.item != y.item || x.score.to_bits() != y.score.to_bits())
        {
            overlay_matches_rebuild = false;
        }
    }

    // Compaction with a request wave straddling it: fold the delta into a
    // fresh base, rebuild, publish through the hot-swap path. No request
    // may be lost, and afterwards the residual delta must be empty (the
    // stream stopped, so nothing can race the rebuild).
    let wave = |out: &mut Vec<longtail_serve::PendingResponse>| {
        for &u in users {
            out.push(
                engine
                    .submit(RecommendRequest::new(label, u, TOP_K))
                    .expect("registered model"),
            );
        }
    };
    let mut pending = Vec::new();
    wave(&mut pending);
    let compact_start = Instant::now();
    let report = engine
        .compact_and_deploy(label, |union| build(union))
        .expect("registered ingest model");
    let compaction_total_seconds = compact_start.elapsed().as_secs_f64();
    wave(&mut pending);
    let requests = pending.len();
    let mut requests_lost = 0u64;
    for p in pending {
        if p.wait().is_err() {
            requests_lost += 1;
        }
    }

    println!(
        "\n{label} streaming ingest: {} appends in {:.3} ms ({:.0}/s), {epochs_published} epochs, \
         query {:.4} -> {:.4} ms (overlay {:.2}x), compaction fold {} + rebuild {:.1} ms \
         (publish {:.3} ms, residual {}), {requests} requests across the swap (lost \
         {requests_lost}), overlay == rebuild: {overlay_matches_rebuild}",
        INGEST_APPENDS,
        append_seconds * 1e3,
        INGEST_APPENDS as f64 / append_seconds,
        base_query_seconds * 1e3,
        overlay_query_seconds * 1e3,
        overlay_query_seconds / base_query_seconds,
        report.folded,
        compaction_total_seconds * 1e3,
        report.publish_seconds * 1e3,
        report.remaining,
    );
    StreamingIngest {
        appends: INGEST_APPENDS,
        append_seconds,
        epochs_published,
        base_query_seconds,
        overlay_query_seconds,
        compaction_total_seconds,
        compaction_publish_seconds: report.publish_seconds,
        folded: report.folded,
        remaining: report.remaining,
        requests,
        requests_lost,
        overlay_matches_rebuild,
    }
}

struct AsyncServing {
    open_loop_seconds: f64,
    closed_loop_seconds: f64,
    requests: usize,
    deadline_requests: usize,
    deadline_expired: usize,
    expired_at_dequeue: u64,
    expired_in_dp: u64,
    deadline_completed: u64,
    counts_consistent: bool,
    rankings_match_blocking: bool,
}

/// The async front-end under open-loop load: every request of a round is
/// submitted before any response is claimed (arrivals never wait on
/// completions), vs the closed-loop serial baseline (`Engine::recommend`
/// one request at a time). A second pass mixes in already-expired
/// deadlines — every `ASYNC_EXPIRED_STRIDE`-th request — so the shed
/// accounting is exact: expired requests must be dropped at dequeue
/// without running the DP, and every live request must still serve a
/// ranking identical to the blocking batch path.
fn measure_async_serving(
    label: &'static str,
    users: &[u32],
    model: SharedRecommender,
) -> AsyncServing {
    let engine = Engine::builder()
        .model(label, Arc::clone(&model))
        .workers(ENGINE_WORKERS)
        .queue_capacity(ASYNC_QUEUE_CAPACITY)
        .build();
    let requests: Vec<RecommendRequest> = users
        .iter()
        .map(|&u| RecommendRequest::new(label, u, TOP_K))
        .collect();

    // Correctness gate: open-loop responses ≡ the blocking batch path.
    let blocking = engine.recommend_batch(requests.clone());
    let (_, open_loop) = time_open_loop_submission(&engine, requests.clone());
    let mut rankings_match_blocking = true;
    for (a, b) in open_loop.iter().zip(&blocking) {
        let (a, b) = (a.as_ref().expect("admitted"), b.as_ref().expect("admitted"));
        if a.items
            .iter()
            .map(|s| s.item)
            .ne(b.items.iter().map(|s| s.item))
        {
            rankings_match_blocking = false;
        }
    }

    let open_loop_seconds = time_best(|| {
        for _ in 0..ENGINE_ROUNDS {
            let (_, results) = time_open_loop_submission(&engine, requests.clone());
            std::hint::black_box(&results);
        }
    });
    let closed_loop_seconds = time_best(|| {
        for _ in 0..ENGINE_ROUNDS {
            for req in &requests {
                std::hint::black_box(engine.recommend(req).expect("registered model"));
            }
        }
    });

    // Deadline pass: a deterministic mix of live and already-expired
    // requests, accounted through the eval timer's EngineStats diff.
    let deadlined: Vec<RecommendRequest> = requests
        .iter()
        .enumerate()
        .map(|(i, req)| {
            if i % ASYNC_EXPIRED_STRIDE == 0 {
                req.clone().deadline_at(Instant::now())
            } else {
                req.clone()
            }
        })
        .collect();
    let expected_expired = deadlined.iter().filter(|r| r.deadline.is_some()).count();
    let (deadline_stats, deadline_results) = time_open_loop_submission(&engine, deadlined);
    let stats = deadline_stats.engine.expect("engine timer carries stats");
    let mut deadline_ok = true;
    for (i, result) in deadline_results.iter().enumerate() {
        let expired = i % ASYNC_EXPIRED_STRIDE == 0;
        match result {
            Err(ServeError::DeadlineExceeded) if expired => {}
            Ok(response) if !expired => {
                // Live requests still serve the blocking path's ranking.
                let b = blocking[i].as_ref().expect("admitted");
                if response
                    .items
                    .iter()
                    .map(|s| s.item)
                    .ne(b.items.iter().map(|s| s.item))
                {
                    deadline_ok = false;
                }
            }
            _ => deadline_ok = false,
        }
    }
    rankings_match_blocking &= deadline_ok;
    let counts_consistent = stats.submitted == users.len() as u64
        && stats.expired_at_dequeue + stats.expired_in_dp == expected_expired as u64
        && stats.completed == (users.len() - expected_expired) as u64
        && deadline_stats.dp.queries == stats.completed;

    let requests_total = ENGINE_ROUNDS * users.len();
    println!(
        "\n{label} async front-end ({ENGINE_WORKERS} workers, {requests_total} requests): \
         open-loop submit+drain {:.1} req/s, closed-loop inline {:.1} req/s ({:.2}x); \
         deadline pass: {}/{} expired shed at dequeue, counts consistent: {counts_consistent}, \
         rankings match blocking path: {rankings_match_blocking}",
        requests_total as f64 / open_loop_seconds,
        requests_total as f64 / closed_loop_seconds,
        closed_loop_seconds / open_loop_seconds,
        stats.expired_at_dequeue,
        expected_expired,
    );
    AsyncServing {
        open_loop_seconds,
        closed_loop_seconds,
        requests: requests_total,
        deadline_requests: users.len(),
        deadline_expired: expected_expired,
        expired_at_dequeue: stats.expired_at_dequeue,
        expired_in_dp: stats.expired_in_dp,
        deadline_completed: stats.completed,
        counts_consistent,
        rankings_match_blocking,
    }
}

struct FaultTolerance {
    requests: usize,
    injected_faults_protected: u64,
    injected_faults_unprotected: u64,
    answered_protected: usize,
    degraded: usize,
    retries: u64,
    answered_unprotected: usize,
    non_degraded_rankings_match: bool,
}

impl FaultTolerance {
    fn availability_with_protection(&self) -> f64 {
        self.answered_protected as f64 / self.requests as f64
    }
    fn availability_without_protection(&self) -> f64 {
        self.answered_unprotected as f64 / self.requests as f64
    }
    /// The acceptance bar of the fault-tolerance work: breakers + retry +
    /// fallback keep at least 99% of in-deadline requests answered.
    fn meets_availability_target(&self) -> bool {
        self.availability_with_protection() >= 0.99
    }
}

/// Availability under a seeded chaos mix (injected panics + NaN-poisoned
/// scores), three engines on the same deterministic request sequence: the
/// *protected* engine (circuit breakers, one retry on a fresh context, POP
/// degraded-mode fallback), the *unprotected* engine (same fault plan, no
/// protection), and a fault-free reference engine. Every response the
/// protected engine serves non-degraded must be rank-identical to the
/// fault-free engine — protection machinery must never perturb a healthy
/// ranking.
fn measure_fault_tolerance(
    label: &'static str,
    users: &[u32],
    model: SharedRecommender,
    fallback: SharedRecommender,
) -> FaultTolerance {
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

    let out = FaultTolerance {
        requests: requests.len(),
        injected_faults_protected: protected_primary
            .plan()
            .count_faults(protected_primary.calls_made()),
        injected_faults_unprotected: unprotected_primary
            .plan()
            .count_faults(unprotected_primary.calls_made()),
        answered_protected,
        degraded,
        retries: protected.stats().retries,
        answered_unprotected,
        non_degraded_rankings_match,
    };
    println!(
        "\n{label} fault tolerance ({} requests, seeded p_panic={FAULT_P_PANIC}, \
         p_nan={FAULT_P_NAN}): protected {}/{} answered ({} degraded, {} retries, \
         {} faults injected, availability {:.1}%), unprotected {}/{} answered \
         ({} faults injected, availability {:.1}%), \
         non-degraded rankings match fault-free engine: {}",
        out.requests,
        out.answered_protected,
        out.requests,
        out.degraded,
        out.retries,
        out.injected_faults_protected,
        out.availability_with_protection() * 100.0,
        out.answered_unprotected,
        out.requests,
        out.injected_faults_unprotected,
        out.availability_without_protection() * 100.0,
        out.non_degraded_rankings_match
    );
    out
}

/// One scheduler's side of the QoS comparison: the open-loop overload mix
/// through one engine, accounted per class.
struct QosPass {
    seconds: f64,
    interactive_submitted: u64,
    interactive_served: u64,
    batch_submitted: u64,
    batch_served: u64,
    ledger_consistent: bool,
    rankings_match_blocking: bool,
}

impl QosPass {
    fn interactive_hit_rate(&self) -> f64 {
        self.interactive_served as f64 / self.interactive_submitted.max(1) as f64
    }
    fn batch_hit_rate(&self) -> f64 {
        self.batch_served as f64 / self.batch_submitted.max(1) as f64
    }
}

struct QosScheduling {
    requests: usize,
    service_estimate_seconds: f64,
    fifo: QosPass,
    qos: QosPass,
    shed_unmeetable: u64,
    interactive_p50_seconds: f64,
    interactive_p99_seconds: f64,
}

impl QosScheduling {
    /// The acceptance bar of the scheduling work: under the same overload,
    /// EDF-with-priority serves strictly more Interactive deadlines than
    /// FIFO.
    fn interactive_hit_rate_improves(&self) -> bool {
        self.qos.interactive_hit_rate() > self.fifo.interactive_hit_rate()
    }
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
/// (`submitted = served + shed + expired`, nothing `failed`).
fn measure_qos_scheduling(
    label: &'static str,
    users: &[u32],
    model: SharedRecommender,
) -> QosScheduling {
    let build = |sched: SchedPolicy| {
        Engine::builder()
            .model(label, Arc::clone(&model))
            .workers(1)
            .queue_capacity(ASYNC_QUEUE_CAPACITY)
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
    let evaluate = |timing: &TimingStats, results: &[Result<RecommendResponse, ServeError>]| {
        let stats = timing.engine.expect("engine timer carries stats");
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
        let class = |p: Priority| stats.per_class[p.index()];
        QosPass {
            seconds: timing.total_seconds,
            interactive_submitted: class(Priority::Interactive).submitted,
            interactive_served: class(Priority::Interactive).served,
            batch_submitted: class(Priority::Batch).submitted,
            batch_served: class(Priority::Batch).served,
            ledger_consistent,
            rankings_match_blocking,
        }
    };

    let (fifo_timing, fifo_results) = time_open_loop_submission(&fifo, mix_requests());
    let (qos_timing, qos_results) = time_open_loop_submission(&qos, mix_requests());
    let qos_stats = qos_timing.engine.expect("engine timer carries stats");
    let interactive = qos_stats.per_class[Priority::Interactive.index()];
    let out = QosScheduling {
        requests: QOS_REQUESTS,
        service_estimate_seconds: estimate,
        fifo: evaluate(&fifo_timing, &fifo_results),
        qos: evaluate(&qos_timing, &qos_results),
        shed_unmeetable: qos_stats.shed_unmeetable,
        interactive_p50_seconds: interactive.latency_p50().unwrap_or(-1.0),
        interactive_p99_seconds: interactive.latency_p99().unwrap_or(-1.0),
    };
    println!(
        "\n{label} qos scheduling ({QOS_REQUESTS} requests, 1 worker, est {:.2} ms/req): \
         fifo {:.1} req/s, qos {:.1} req/s; interactive deadline hits \
         fifo {:.0}%, qos {:.0}% (improves: {}); batch hits fifo {:.0}%, qos {:.0}%; \
         {} slack-shed, interactive p50 {:.1} ms / p99 {:.1} ms, \
         ledgers consistent: {}, rankings match blocking path: {}",
        out.service_estimate_seconds * 1e3,
        out.requests as f64 / out.fifo.seconds,
        out.requests as f64 / out.qos.seconds,
        out.fifo.interactive_hit_rate() * 100.0,
        out.qos.interactive_hit_rate() * 100.0,
        out.interactive_hit_rate_improves(),
        out.fifo.batch_hit_rate() * 100.0,
        out.qos.batch_hit_rate() * 100.0,
        out.shed_unmeetable,
        out.interactive_p50_seconds * 1e3,
        out.interactive_p99_seconds * 1e3,
        out.fifo.ledger_consistent && out.qos.ledger_consistent,
        out.fifo.rankings_match_blocking && out.qos.rankings_match_blocking,
    );
    out
}

/// Maximum Recall@k an enabled re-rank policy may cost relative to the raw
/// fused path — the "quality for bounded accuracy" contract the JSON gate
/// checks.
const QUALITY_RECALL_DROP: f64 = 0.15;

/// The re-rank policy the on-arm of the quality pass measures: mild MMR
/// redundancy suppression, a popularity penalty, and a 3-slot tail quota.
fn quality_policy() -> RerankPolicy {
    RerankPolicy::new()
        .mmr(0.3)
        .popularity_penalty(0.25)
        .tail_quota(3)
}

/// One arm (re-rank off or on) of the long-tail quality comparison.
struct QualityArm {
    recall: f64,
    tail_recall: f64,
    head_recall: f64,
    coverage: f64,
    gini: f64,
    novelty: f64,
}

struct LongtailQuality {
    /// Held-out users whose served lists the metrics read.
    evaluated_users: usize,
    /// A `Default` (disabled) policy through the full rerank plumbing
    /// served lists bit-identical to no policy at all.
    disabled_identical: bool,
    off: QualityArm,
    on: QualityArm,
}

impl LongtailQuality {
    /// The enabled policy's served-list recall stayed within
    /// [`QUALITY_RECALL_DROP`] of the raw path.
    fn recall_drop_bounded(&self) -> bool {
        self.on.recall >= self.off.recall - QUALITY_RECALL_DROP
    }
}

/// Serve each held-out user's top-k list with re-ranking off, disabled,
/// and on, and read the quality suite (coverage, Gini concentration,
/// novelty, list-based recall split head/tail) off the same artifacts.
/// `rec` must be trained on `split.train` (the held-out favourites are the
/// recall ground truth), and `index` built over the same training data.
fn measure_longtail_quality(
    label: &'static str,
    rec: &dyn Recommender,
    split: &ProtocolSplit,
    index: &RerankIndex,
) -> LongtailQuality {
    let mut users: Vec<u32> = split.test_cases.iter().map(|c| c.user).collect();
    users.sort_unstable();
    let n_items = split.train.n_items();
    let n_users = split.train.n_users();
    let pops = split.train.item_popularity();
    let policy = quality_policy();

    let arm = |lists: &RecommendationLists| {
        let counts = exposure_counts(lists, n_items);
        let by_class = tail_recall_split(lists, &split.test_cases, |i| {
            index.tail(i, policy.tail_cutoff)
        });
        QualityArm {
            recall: list_recall(lists, &split.test_cases),
            tail_recall: by_class.tail,
            head_recall: by_class.head,
            coverage: catalog_coverage(lists, n_items),
            gini: gini_concentration(&counts),
            novelty: novelty(lists, &pops, n_users),
        }
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

    let out = LongtailQuality {
        evaluated_users: users.len(),
        disabled_identical: off_lists.lists == disabled_lists.lists,
        off: arm(&off_lists),
        on: arm(&on_lists),
    };
    println!(
        "\n{label} longtail quality ({} held-out users, k={TOP_K}): \
         recall {:.3} -> {:.3} (tail {:.3} -> {:.3}), coverage {:.3} -> {:.3}, \
         gini {:.3} -> {:.3}, novelty {:.2} -> {:.2} bits; \
         disabled identical: {}, recall drop bounded: {}",
        out.evaluated_users,
        out.off.recall,
        out.on.recall,
        out.off.tail_recall,
        out.on.tail_recall,
        out.off.coverage,
        out.on.coverage,
        out.off.gini,
        out.on.gini,
        out.off.novelty,
        out.on.novelty,
        out.disabled_identical,
        out.recall_drop_bounded(),
    );
    out
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
    let users = sample_test_users(&train.user_activity(), BATCH, 3, 0xbe9c);
    assert_eq!(users.len(), BATCH, "corpus too small for the batch");

    let ht = HittingTimeRecommender::new(train, walk_config);
    let ac1 = AbsorbingCostRecommender::item_entropy(
        train,
        AbsorbingCostConfig {
            graph: walk_config,
            item_entry_cost: 1.0,
        },
    );

    println!(
        "walk-scoring bench: {} users x {} items, {} ratings, mu={}, tau={}",
        train.n_users(),
        train.n_items(),
        train.n_ratings(),
        walk_config.max_items,
        walk_config.iterations
    );

    let ht_measurements = measure_algorithm("HT", &users, &ht);
    let ac_measurements = measure_algorithm("AC1", &users, &ac1);

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
    let serve_ac1 = AbsorbingCostRecommender::item_entropy(
        serve_train,
        AbsorbingCostConfig {
            graph: walk_config,
            item_entry_cost: 1.0,
        },
    );
    println!(
        "\nserving corpus: {} users x {} items, {} ratings, k={TOP_K}",
        serve_train.n_users(),
        serve_train.n_items(),
        serve_train.n_ratings()
    );
    let ht_recommend = measure_recommend("HT", &serve_users, &serve_ht);
    let ac_recommend = measure_recommend("AC1", &serve_users, &serve_ac1);

    // Sustained engine throughput on the same serving corpus: persistent
    // worker pool vs per-call scoped-thread spawning.
    let ht_engine = measure_serving_engine("HT", &serve_users, Arc::new(serve_ht.clone()));
    let ac_engine = measure_serving_engine("AC1", &serve_users, Arc::new(serve_ac1.clone()));

    // The async front-end on the same serving corpus: open-loop submission
    // throughput plus the deterministic deadline-shedding pass.
    let ht_async = measure_async_serving("HT", &serve_users, Arc::new(serve_ht.clone()));
    let ac_async = measure_async_serving("AC1", &serve_users, Arc::new(serve_ac1.clone()));

    // The model lifecycle on the same serving corpus: snapshot save/load,
    // hot-swap publish latency, and the served-during-swap gates.
    let ht_lifecycle = measure_model_lifecycle("HT", &serve_users, &serve_ht);
    let ac_lifecycle = measure_model_lifecycle("AC1", &serve_users, &serve_ac1);

    // Streaming ingest on the same serving corpus: append throughput,
    // overlay query cost vs the frozen base, the compaction redeploy
    // cycle under a request wave, and the overlay ≡ rebuild rank gate.
    let ht_ingest = measure_streaming_ingest("HT", &serve_users, serve_train, &|d| {
        Arc::new(HittingTimeRecommender::new(d, walk_config))
    });
    let ac_ingest = measure_streaming_ingest("AC1", &serve_users, serve_train, &|d| {
        Arc::new(AbsorbingCostRecommender::item_entropy(
            d,
            AbsorbingCostConfig {
                graph: walk_config,
                item_entry_cost: 1.0,
            },
        ))
    });

    // Deadline-hit rates under a seeded overload mix: the QoS scheduler
    // (strict priority + EDF + slack shedding) vs the FIFO baseline.
    let ht_qos = measure_qos_scheduling("HT", &serve_users, Arc::new(serve_ht.clone()));
    let ac_qos = measure_qos_scheduling("AC1", &serve_users, Arc::new(serve_ac1.clone()));

    // Availability under injected faults on the same serving corpus. The
    // engine catches every injected panic; silence the default hook's
    // per-panic backtrace for the duration so the bench output stays
    // readable, then restore it.
    let serve_pop: SharedRecommender = Arc::new(PopularityRecommender::train(serve_train));
    let panic_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let ht_fault = measure_fault_tolerance(
        "HT",
        &serve_users,
        Arc::new(serve_ht.clone()),
        Arc::clone(&serve_pop),
    );
    let ac_fault = measure_fault_tolerance(
        "AC1",
        &serve_users,
        Arc::new(serve_ac1.clone()),
        Arc::clone(&serve_pop),
    );
    std::panic::set_hook(panic_hook);

    // Long-tail quality on the small corpus: hold out tail favourites,
    // retrain on the remainder, and compare the quality suite with the
    // re-rank policy off vs on (plus the disabled-policy identity gate).
    let tail_split = LongTailSplit::by_rating_share(&train.item_popularity(), 0.2);
    let quality_split = holdout_longtail_favorites(train, &tail_split, &SplitConfig::default());
    let rerank_index = RerankIndex::from_dataset(&quality_split.train);
    let q_ht = HittingTimeRecommender::new(&quality_split.train, walk_config);
    let q_ac1 = AbsorbingCostRecommender::item_entropy(
        &quality_split.train,
        AbsorbingCostConfig {
            graph: walk_config,
            item_entry_cost: 1.0,
        },
    );
    let ht_quality = measure_longtail_quality("HT", &q_ht, &quality_split, &rerank_index);
    let ac_quality = measure_longtail_quality("AC1", &q_ac1, &quality_split, &rerank_index);

    // Early termination on the same serving corpus at the high-fidelity τ
    // budget (see ET_ITERATIONS): fixed-τ vs the default adaptive policy.
    let et_config = GraphRecConfig {
        max_items: walk_config.max_items,
        iterations: ET_ITERATIONS,
    };
    let et_ht = HittingTimeRecommender::new(serve_train, et_config);
    let et_at = AbsorbingTimeRecommender::new(serve_train, et_config);
    let et_ac1 = AbsorbingCostRecommender::item_entropy(
        serve_train,
        AbsorbingCostConfig {
            graph: et_config,
            item_entry_cost: 1.0,
        },
    );
    println!(
        "\nearly termination at tau={ET_ITERATIONS}, mu={}",
        et_config.max_items
    );
    let ht_early = measure_early_termination("HT", &serve_users, &et_ht);
    let at_early = measure_early_termination("AT", &serve_users, &et_at);
    let ac_early = measure_early_termination("AC1", &serve_users, &et_ac1);

    // Single-query latency of the context path.
    let probe = users[0];
    let mut ctx = ScoringContext::new();
    let mut scores = Vec::new();
    let single_ctx = time_best(|| {
        ht.score_into(probe, &mut ctx, &mut scores);
        std::hint::black_box(scores.last());
    });
    println!("\nsingle HT query: context {:.4} ms", single_ctx * 1e3);

    let json = render_json(
        &config,
        &serve_config,
        &walk_config,
        &ht_measurements,
        &ac_measurements,
        &ht_recommend,
        &ac_recommend,
        &ht_engine,
        &ac_engine,
        &ht_async,
        &ac_async,
        &ht_lifecycle,
        &ac_lifecycle,
        &ht_ingest,
        &ac_ingest,
        &ht_qos,
        &ac_qos,
        &ht_fault,
        &ac_fault,
        &ht_early,
        &at_early,
        &ac_early,
        &ht_quality,
        &ac_quality,
        single_ctx,
    );
    let path = "BENCH_walk_scoring.json";
    std::fs::write(path, json).expect("write benchmark summary");
    println!("\nwrote {path}");
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    config: &SyntheticConfig,
    serve_config: &SyntheticConfig,
    walk: &GraphRecConfig,
    ht: &[Measurement],
    ac: &[Measurement],
    ht_rec: &[Measurement],
    ac_rec: &[Measurement],
    ht_engine: &ServingEngine,
    ac_engine: &ServingEngine,
    ht_async: &AsyncServing,
    ac_async: &AsyncServing,
    ht_lifecycle: &ModelLifecycle,
    ac_lifecycle: &ModelLifecycle,
    ht_ingest: &StreamingIngest,
    ac_ingest: &StreamingIngest,
    ht_qos: &QosScheduling,
    ac_qos: &QosScheduling,
    ht_fault: &FaultTolerance,
    ac_fault: &FaultTolerance,
    ht_early: &EarlyTermination,
    at_early: &EarlyTermination,
    ac_early: &EarlyTermination,
    ht_quality: &LongtailQuality,
    ac_quality: &LongtailQuality,
    single_ctx: f64,
) -> String {
    fn series(ms: &[Measurement], baseline_key: &str) -> String {
        let base = ms[0].seconds_per_batch;
        let entries: Vec<String> = ms
            .iter()
            .map(|m| {
                format!(
                    "      {{\"name\": \"{}\", \"seconds_per_batch\": {:.6e}, \"{}\": {:.3}}}",
                    m.name,
                    m.seconds_per_batch,
                    baseline_key,
                    base / m.seconds_per_batch
                )
            })
            .collect();
        entries.join(",\n")
    }
    fn async_serving(a: &AsyncServing) -> String {
        format!(
            "{{\"open_loop_seconds\": {:.6e}, \"closed_loop_seconds\": {:.6e}, \
             \"open_loop_requests_per_sec\": {:.1}, \"closed_loop_requests_per_sec\": {:.1}, \
             \"speedup_vs_closed_loop\": {:.3}, \"rankings_match_blocking\": {}, \
             \"deadline\": {{\"requests\": {}, \"expired_requests\": {}, \
             \"expired_at_dequeue\": {}, \"expired_in_dp\": {}, \"completed\": {}, \
             \"counts_consistent\": {}}}}}",
            a.open_loop_seconds,
            a.closed_loop_seconds,
            a.requests as f64 / a.open_loop_seconds,
            a.requests as f64 / a.closed_loop_seconds,
            a.closed_loop_seconds / a.open_loop_seconds,
            a.rankings_match_blocking,
            a.deadline_requests,
            a.deadline_expired,
            a.expired_at_dequeue,
            a.expired_in_dp,
            a.deadline_completed,
            a.counts_consistent
        )
    }
    fn model_lifecycle(m: &ModelLifecycle) -> String {
        format!(
            "{{\"snapshot_bytes\": {}, \"save_seconds\": {:.6e}, \"load_seconds\": {:.6e}, \
             \"deploy_publish_seconds\": {:.6e}, \"requests\": {}, \"served\": {}, \
             \"requests_lost\": {}, \"served_during_swap_correct\": {}, \
             \"reloaded_rankings_identical\": {}}}",
            m.snapshot_bytes,
            m.save_seconds,
            m.load_seconds,
            m.deploy_publish_seconds,
            m.requests,
            m.served,
            m.requests_lost,
            m.served_during_swap_correct,
            m.reloaded_rankings_identical
        )
    }
    fn streaming_ingest(s: &StreamingIngest) -> String {
        format!(
            "{{\"appends\": {}, \"append_seconds\": {:.6e}, \"appends_per_sec\": {:.1}, \
             \"epochs_published\": {}, \"base_query_seconds\": {:.6e}, \
             \"overlay_query_seconds\": {:.6e}, \"overlay_overhead\": {:.3}, \
             \"compaction_total_seconds\": {:.6e}, \"compaction_publish_seconds\": {:.6e}, \
             \"folded\": {}, \"remaining\": {}, \"requests\": {}, \"requests_lost\": {}, \
             \"overlay_matches_rebuild\": {}}}",
            s.appends,
            s.append_seconds,
            s.appends as f64 / s.append_seconds,
            s.epochs_published,
            s.base_query_seconds,
            s.overlay_query_seconds,
            s.overlay_query_seconds / s.base_query_seconds,
            s.compaction_total_seconds,
            s.compaction_publish_seconds,
            s.folded,
            s.remaining,
            s.requests,
            s.requests_lost,
            s.overlay_matches_rebuild
        )
    }
    fn qos_scheduling(q: &QosScheduling) -> String {
        format!(
            "{{\"service_estimate_seconds\": {:.6e}, \
             \"fifo_requests_per_sec\": {:.1}, \"qos_requests_per_sec\": {:.1}, \
             \"fifo_interactive_hit_rate\": {:.4}, \"qos_interactive_hit_rate\": {:.4}, \
             \"fifo_batch_hit_rate\": {:.4}, \"qos_batch_hit_rate\": {:.4}, \
             \"interactive_p50_seconds\": {:.6e}, \"interactive_p99_seconds\": {:.6e}, \
             \"shed_unmeetable\": {}, \"ledger_consistent\": {}, \
             \"rankings_match_blocking\": {}, \"interactive_hit_rate_improves\": {}}}",
            q.service_estimate_seconds,
            q.requests as f64 / q.fifo.seconds,
            q.requests as f64 / q.qos.seconds,
            q.fifo.interactive_hit_rate(),
            q.qos.interactive_hit_rate(),
            q.fifo.batch_hit_rate(),
            q.qos.batch_hit_rate(),
            q.interactive_p50_seconds,
            q.interactive_p99_seconds,
            q.shed_unmeetable,
            q.fifo.ledger_consistent && q.qos.ledger_consistent,
            q.fifo.rankings_match_blocking && q.qos.rankings_match_blocking,
            q.interactive_hit_rate_improves()
        )
    }
    fn fault_tolerance(f: &FaultTolerance) -> String {
        format!(
            "{{\"requests\": {}, \"injected_faults_protected\": {}, \
             \"injected_faults_unprotected\": {}, \"answered_with_protection\": {}, \
             \"degraded\": {}, \"retries\": {}, \"answered_without_protection\": {}, \
             \"availability_with_protection\": {:.4}, \
             \"availability_without_protection\": {:.4}, \
             \"non_degraded_rankings_match\": {}, \"meets_availability_target\": {}}}",
            f.requests,
            f.injected_faults_protected,
            f.injected_faults_unprotected,
            f.answered_protected,
            f.degraded,
            f.retries,
            f.answered_unprotected,
            f.availability_with_protection(),
            f.availability_without_protection(),
            f.non_degraded_rankings_match,
            f.meets_availability_target()
        )
    }
    fn early(e: &EarlyTermination) -> String {
        format!(
            "{{\"fixed_seconds_per_batch\": {:.6e}, \"adaptive_seconds_per_batch\": {:.6e}, \
             \"speedup_vs_fixed_tau\": {:.3}, \"dp_iterations_budget\": {}, \
             \"dp_iterations_run\": {}, \"iterations_saved_fraction\": {:.3}, \
             \"queries\": {}, \"converged_queries\": {}, \"rank_frozen_queries\": {}, \
             \"top10_lists_identical\": {}}}",
            e.fixed_seconds,
            e.adaptive_seconds,
            e.fixed_seconds / e.adaptive_seconds,
            e.telemetry.iterations_budget,
            e.telemetry.iterations_run,
            e.telemetry.iterations_saved_fraction(),
            e.telemetry.queries,
            e.telemetry.converged,
            e.telemetry.rank_frozen,
            e.lists_identical
        )
    }
    fn quality_arm(a: &QualityArm) -> String {
        format!(
            "{{\"recall_at_k\": {:.4}, \"tail_recall_at_k\": {:.4}, \
             \"head_recall_at_k\": {:.4}, \"coverage\": {:.4}, \"gini\": {:.4}, \
             \"novelty_bits\": {:.4}}}",
            a.recall, a.tail_recall, a.head_recall, a.coverage, a.gini, a.novelty
        )
    }
    fn longtail_quality(q: &LongtailQuality) -> String {
        format!(
            "{{\"evaluated_users\": {}, \"rerank_off\": {}, \"rerank_on\": {}, \
             \"disabled_identical\": {}, \"recall_drop_bounded\": {}}}",
            q.evaluated_users,
            quality_arm(&q.off),
            quality_arm(&q.on),
            q.disabled_identical,
            q.recall_drop_bounded()
        )
    }
    fn engine(e: &ServingEngine) -> String {
        format!(
            "{{\"engine_pool_seconds\": {:.6e}, \"scoped_threads_seconds\": {:.6e}, \
             \"engine_requests_per_sec\": {:.1}, \"scoped_requests_per_sec\": {:.1}, \
             \"speedup_vs_scoped_threads\": {:.3}, \"lists_match_direct\": {}}}",
            e.engine_seconds,
            e.scoped_seconds,
            e.requests as f64 / e.engine_seconds,
            e.requests as f64 / e.scoped_seconds,
            e.scoped_seconds / e.engine_seconds,
            e.lists_match_direct
        )
    }
    let epsilon = match DpStopping::default() {
        DpStopping::Adaptive { epsilon } => epsilon,
        DpStopping::Fixed => -1.0,
    };
    format!(
        "{{\n  \"bench\": \"walk_scoring\",\n  \"batch_users\": {BATCH},\n  \"repeats_best_of\": {REPEATS},\n  \
         \"dataset\": {{\"n_users\": {}, \"n_items\": {}}},\n  \
         \"walk\": {{\"max_items\": {}, \"iterations\": {}}},\n  \
         \"threads\": {},\n  \
         \"results\": {{\n    \"HT\": [\n{}\n    ],\n    \"AC1\": [\n{}\n    ]\n  }},\n  \
         \"recommend_topk\": {{\n    \"k\": {TOP_K},\n    \
         \"dataset\": {{\"n_users\": {}, \"n_items\": {}}},\n    \
         \"HT\": [\n{}\n    ],\n    \"AC1\": [\n{}\n    ]\n  }},\n  \
         \"serving_engine\": {{\n    \"workers\": {ENGINE_WORKERS},\n    \
         \"rounds\": {ENGINE_ROUNDS},\n    \"requests\": {},\n    \
         \"HT\": {},\n    \"AC1\": {}\n  }},\n  \
         \"async_serving\": {{\n    \"workers\": {ENGINE_WORKERS},\n    \
         \"queue_capacity\": {ASYNC_QUEUE_CAPACITY},\n    \
         \"rounds\": {ENGINE_ROUNDS},\n    \"requests\": {},\n    \
         \"HT\": {},\n    \"AC1\": {}\n  }},\n  \
         \"model_lifecycle\": {{\n    \"workers\": {ENGINE_WORKERS},\n    \
         \"HT\": {},\n    \"AC1\": {}\n  }},\n  \
         \"streaming_ingest\": {{\n    \"workers\": {ENGINE_WORKERS},\n    \
         \"publish_every\": {INGEST_PUBLISH_EVERY},\n    \
         \"HT\": {},\n    \"AC1\": {}\n  }},\n  \
         \"qos_scheduling\": {{\n    \"workers\": 1,\n    \
         \"requests\": {QOS_REQUESTS},\n    \
         \"interactive_slack\": {QOS_INTERACTIVE_SLACK},\n    \
         \"batch_slack\": {QOS_BATCH_SLACK},\n    \
         \"HT\": {},\n    \"AC1\": {}\n  }},\n  \
         \"fault_tolerance\": {{\n    \"rounds\": {FAULT_ROUNDS},\n    \
         \"fault_plan\": {{\"p_panic\": {FAULT_P_PANIC}, \"p_nan\": {FAULT_P_NAN}}},\n    \
         \"HT\": {},\n    \"AC1\": {}\n  }},\n  \
         \"early_termination\": {{\n    \"epsilon\": {:e},\n    \"k\": {TOP_K},\n    \
         \"dp_budget\": {ET_ITERATIONS},\n    \
         \"HT\": {},\n    \"AT\": {},\n    \"AC1\": {}\n  }},\n  \
         \"longtail_quality\": {{\n    \"k\": {TOP_K},\n    \
         \"policy\": {{\"mmr_lambda\": {}, \"popularity_penalty\": {}, \
         \"tail_quota\": {}, \"tail_cutoff\": {}}},\n    \
         \"max_recall_drop\": {QUALITY_RECALL_DROP},\n    \
         \"HT\": {},\n    \"AC1\": {}\n  }},\n  \
         \"single_query_ht\": {{\"context_seconds\": {:.6e}}}\n}}\n",
        config.n_users,
        config.n_items,
        walk.max_items,
        walk.iterations,
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        series(ht, "speedup_vs_sequential"),
        series(ac, "speedup_vs_sequential"),
        serve_config.n_users,
        serve_config.n_items,
        series(ht_rec, "speedup_vs_score_then_sort"),
        series(ac_rec, "speedup_vs_score_then_sort"),
        ht_engine.requests,
        engine(ht_engine),
        engine(ac_engine),
        ht_async.requests,
        async_serving(ht_async),
        async_serving(ac_async),
        model_lifecycle(ht_lifecycle),
        model_lifecycle(ac_lifecycle),
        streaming_ingest(ht_ingest),
        streaming_ingest(ac_ingest),
        qos_scheduling(ht_qos),
        qos_scheduling(ac_qos),
        fault_tolerance(ht_fault),
        fault_tolerance(ac_fault),
        epsilon,
        early(ht_early),
        early(at_early),
        early(ac_early),
        quality_policy().mmr_lambda,
        quality_policy().popularity_penalty,
        quality_policy().tail_quota,
        quality_policy().tail_cutoff,
        longtail_quality(ht_quality),
        longtail_quality(ac_quality),
        single_ctx
    )
}
