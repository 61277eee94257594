//! `interactive`: the product's traffic at the paper's setting (τ = 15,
//! μ = 300). One generator thread sends Poisson arrivals at a fixed rate:
//! Zipf(1.0) users, a uniformly chosen model, 80% `Interactive` requests
//! and 20% `Batch` requests re-ranked by the long-tail policy. Phase 1 runs
//! at a moderate rate and gives the latency metrics; every one of its
//! requests must be served. Phase 2 runs at about twice capacity into a
//! bounded queue under `AdmissionPolicy::Reject`, its `Interactive`
//! requests carry a deadline at the latency limit, and it gives goodput.

use crate::check::{self, Served};
use crate::layers::{self, ReqView};
use crate::models::{self, BenchModel, K, MU, TAU_PAPER};
use crate::openloop::{drive, InFlight, Phase};
use crate::replay::replay_sample;
use crate::report::{peak_rss_mb, CpuTicks, Metrics};
use crate::rng::{Rng, Weighted};
use crate::stats::{
    describe, per_window, quantile, seconds_windows, window_rates, windowed, windowed_rate,
    CALM_HIGH, CALM_LOW,
};
use crate::trace::{SpanSink, Traced};
use crate::{nproc, repeat_share, tail_share, timed_setup, Args, RunResult};
use longtail_core::{GraphRecConfig, RerankIndex};
use longtail_data::{Dataset, SyntheticConfig};
use longtail_serve::{AdmissionPolicy, Engine, EngineStats, Priority, RecommendRequest};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up repetitions per run (`setup_s` is their median); LDA training
/// makes each one take about two seconds.
pub const SETUP_REPS: usize = 3;
pub const MODELS: [&str; 4] = ["HT", "AT", "AC1", "AC2"];
/// Phase-1 offered load (requests/s): about a third of the 2-worker
/// capacity, so queueing amplifies host noise little.
pub const RATE_MODERATE: f64 = 200.0;
/// Phase-2 offered load (requests/s): about twice the 2-worker capacity.
pub const RATE_OVERLOAD: f64 = 1400.0;
/// The latency limit; overload-phase `Interactive` requests carry it as
/// their deadline. Moderate-phase requests carry none: at a third of
/// capacity the engine must serve all of them, and a deadline there would
/// only expire the requests a host stall of a few tens of milliseconds
/// delays, a count that differs from run to run.
pub const LIMIT: Duration = Duration::from_millis(25);
/// Admission queue capacity (phase 2 overflows it).
pub const QUEUE_CAPACITY: usize = 64;
/// Share of requests in the `Batch` class.
pub const BATCH_SHARE: f64 = 0.2;
/// Share of `--seconds` spent in phase 1; the rest is phase 2. Half each:
/// the overload phase's rates rest on as many one-second windows as the
/// moderate phase's latencies.
pub const MODERATE_SHARE: f64 = 0.5;

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Intended send time, seconds from the phase start.
    pub at: f64,
    pub model: usize,
    pub user: u32,
    pub batch: bool,
}

/// Whether a request of `phase` (0 moderate, 1 overload) carries a
/// deadline: overload-phase `Interactive` requests do.
fn has_deadline(phase: usize, a: &Arrival) -> bool {
    phase == 1 && !a.batch
}

/// The request schedules of both phases, drawn from `seed` before any
/// timing starts. Users are Zipf(1.0) over one seeded permutation, so the
/// hot users repeat.
pub fn schedule(seed: u64, n_users: usize, seconds: f64) -> [Vec<Arrival>; 2] {
    let zipf = Weighted::zipf(n_users, 1.0);
    let perm = Rng::new(seed, 100).permutation(n_users);
    let phase = |stream: u64, rate: f64, length: f64| {
        let mut rng = Rng::new(seed, stream);
        let mut out = Vec::new();
        let mut t = rng.exp_gap(rate);
        while t < length {
            out.push(Arrival {
                at: t,
                model: rng.below(MODELS.len()),
                user: perm[zipf.sample(&mut rng)],
                batch: rng.f64() < BATCH_SHARE,
            });
            t += rng.exp_gap(rate);
        }
        out
    };
    let moderate = seconds * MODERATE_SHARE;
    [
        phase(2, RATE_MODERATE, moderate),
        phase(3, RATE_OVERLOAD, seconds - moderate),
    ]
}

struct World {
    train: Dataset,
    models: Vec<BenchModel>,
    index: Arc<RerankIndex>,
}

fn engine(world: &World, sink: Option<&Arc<SpanSink>>, workers: usize) -> Engine {
    let mut b = Engine::builder()
        .workers(workers)
        .queue_capacity(QUEUE_CAPACITY)
        .admission(AdmissionPolicy::Reject)
        .class_rerank(Priority::Batch, models::quality_policy());
    for m in &world.models {
        b = b
            .model(m.name, Traced::wrap(&m.rec, sink))
            .rerank_index(m.name, world.index.clone());
    }
    b.build()
}

struct Pass {
    phases: Vec<Phase>,
    stats: EngineStats,
    depths: Vec<f64>,
}

fn pass(engine: &Engine, schedules: &[Vec<Arrival>; 2], sample_depth: bool) -> Pass {
    let before = engine.stats();
    let mut depths = Vec::new();
    let phases = schedules
        .iter()
        .enumerate()
        .map(|(phase, arrivals)| {
            drive(
                arrivals,
                |a| a.at,
                arrivals.len(),
                |i, a, intended, tx| {
                    let req = RecommendRequest::new(MODELS[a.model], a.user, K);
                    let req = if a.batch {
                        req.with_priority(Priority::Batch)
                    } else {
                        req.with_priority(Priority::Interactive)
                    };
                    let req = if has_deadline(phase, a) {
                        req.deadline_at(intended + LIMIT)
                    } else {
                        req
                    };
                    if sample_depth {
                        depths.push(engine.queue_depth() as f64);
                    }
                    let submit_start = Instant::now();
                    let handle = engine.submit(req);
                    let submit_end = Instant::now();
                    tx.send(InFlight {
                        id: i,
                        intended,
                        submit_start,
                        submit_end,
                        handle,
                    })
                    .expect("collector alive");
                },
            )
        })
        .collect();
    Pass {
        phases,
        stats: engine.stats().since(&before),
        depths,
    }
}

/// The successfully served requests of a phase.
fn ok(phase: &Phase) -> Vec<&crate::openloop::Outcome> {
    phase
        .outcomes
        .iter()
        .flatten()
        .filter(|o| o.result.is_ok())
        .collect()
}

/// End-to-end metrics of one pass: each the good-side quartile over the
/// one-second windows of its phase. Returns (failed, attempted) of the
/// moderate phase.
fn e2e(m: &mut Metrics, world: &World, seconds: f64, p: &Pass) -> (u64, u64) {
    let split = models::tail_split(&world.train);
    let moderate = &p.phases[0];
    let since = |t: Instant, ph: &Phase| t.saturating_duration_since(ph.start).as_secs_f64();
    let served = ok(moderate);
    let lat: Vec<(f64, f64)> = served
        .iter()
        .map(|o| (since(o.intended, moderate), o.latency_ms()))
        .collect();
    let span = seconds * MODERATE_SHARE;
    let windows = seconds_windows(span);
    let values: Vec<f64> = lat.iter().map(|l| l.1).collect();
    println!("{}", describe("moderate latency_ms", &values));
    let p90s = per_window(&lat, span, windows, |v| quantile(v, 0.9));
    println!("moderate latency_ms p90 by window: {p90s:.2?}");
    m.set(
        "latency_p50_ms",
        windowed(&lat, span, windows, CALM_LOW, |v| quantile(v, 0.5)),
    );
    m.set(
        "latency_p90_ms",
        windowed(&lat, span, windows, CALM_LOW, |v| quantile(v, 0.9)),
    );
    let failed = (moderate.outcomes.len() - served.len()) as u64;
    for (id, o) in moderate.outcomes.iter().enumerate() {
        match o {
            Some(o) => {
                if let Err(e) = &o.result {
                    println!(
                        "moderate-phase request {id} at {:.3} s failed after {:.1} ms: {e}",
                        since(o.intended, moderate),
                        o.latency_ms()
                    );
                }
            }
            None => println!("moderate-phase request {id} lost"),
        }
    }
    m.set(
        "tail_share",
        tail_share(served.iter().map(|o| {
            let items = o.result.as_ref().expect("served").items.as_slice();
            (&split, items)
        })),
    );
    let overload = &p.phases[1];
    let span = seconds * (1.0 - MODERATE_SHARE);
    let windows = seconds_windows(span);
    let served = ok(overload);
    let limit_ms = LIMIT.as_secs_f64() * 1e3;
    let claimed = |keep: &dyn Fn(f64) -> bool| -> Vec<f64> {
        served
            .iter()
            .filter(|o| keep(o.latency_ms()))
            .map(|o| since(o.claimed, overload))
            .collect()
    };
    m.set(
        "goodput_rps",
        windowed_rate(&claimed(&|l| l <= limit_ms), span, windows, CALM_HIGH),
    );
    m.set(
        "throughput_rps",
        windowed_rate(&claimed(&|_| true), span, windows, CALM_HIGH),
    );
    let rates = window_rates(&claimed(&|_| true), span, windows);
    println!("overload replies/s by window: {rates:.0?}");
    let overload_lat: Vec<f64> = served.iter().map(|o| o.latency_ms()).collect();
    println!("{}", describe("overload latency_ms", &overload_lat));
    let late: Vec<f64> = p
        .phases
        .iter()
        .flat_map(|ph| ph.late_ms.iter().copied())
        .collect();
    m.set("gen.late_ms.p99", quantile(&late, 0.99));
    m.set("gen.late_ms.max", crate::stats::max(&late));
    let attempted = (p.stats.submitted + p.stats.rejected).max(1) as f64;
    m.set("serve.shed_frac", p.stats.shed as f64 / attempted);
    m.set(
        "serve.expired_frac",
        (p.stats.expired_at_dequeue + p.stats.expired_in_dp) as f64 / attempted,
    );
    m.set("serve.rejected_frac", p.stats.rejected as f64 / attempted);
    (failed, moderate.outcomes.len() as u64)
}

pub fn run(args: &Args) -> RunResult {
    let mut m = Metrics::default();
    let workers = nproc();
    let config = SyntheticConfig::douban_like().scaled(4.0);
    let walk = GraphRecConfig {
        max_items: MU,
        iterations: TAU_PAPER,
    };
    let (world, plain) = timed_setup(
        &mut m,
        SETUP_REPS,
        &["generate", "lda", "models", "engine"],
        |mark| {
            let train = models::corpus(config.clone(), args.seed);
            mark(0);
            let lda = models::train_lda(&train, config.n_genres);
            mark(1);
            let models = MODELS
                .iter()
                .map(|name| BenchModel::build(name, &train, walk, Some(&lda)))
                .collect();
            let index = Arc::new(RerankIndex::from_dataset(&train));
            mark(2);
            let world = World {
                train,
                models,
                index,
            };
            let engine = engine(&world, None, workers);
            mark(3);
            (world, engine)
        },
    );
    let schedules = schedule(args.seed, world.train.n_users(), args.seconds);
    m.set(
        "gen.repeat_frac",
        repeat_share(schedules[0].iter().map(|a| (a.model, a.user))),
    );
    m.set("env.nproc", nproc() as f64);
    m.set("env.workers", workers as f64);
    println!(
        "corpus {} users x {} items, {} ratings; workers {workers}; requests {} + {}",
        world.train.n_users(),
        world.train.n_items(),
        world.train.n_ratings(),
        schedules[0].len(),
        schedules[1].len()
    );

    let ticks = CpuTicks::now();
    let first = pass(&plain, &schedules, false);
    m.set("host.steal_frac", CpuTicks::now().steal_share_since(&ticks));
    // Peak memory of the program's run, before the gate allocates.
    m.set("peak_rss_mb", peak_rss_mb());
    drop(plain);
    // A traced run repeats the pass through traced engine wrappers; the
    // untraced pass is its overhead baseline.
    let (p, traced) = if args.trace {
        let mut baseline = Metrics::default();
        e2e(&mut baseline, &world, args.seconds, &first);
        let sink = Arc::new(SpanSink::default());
        let traced = engine(&world, Some(&sink), workers);
        let p = pass(&traced, &schedules, true);
        drop(traced);
        (p, Some((sink, baseline)))
    } else {
        (first, None)
    };
    let (mut failed, moderate_n) = e2e(&mut m, &world, args.seconds, &p);

    // The correctness gate over every served list of both phases.
    let arrivals: Vec<&Arrival> = schedules.iter().flatten().collect();
    let outcomes: Vec<&Option<crate::openloop::Outcome>> =
        p.phases.iter().flat_map(|ph| ph.outcomes.iter()).collect();
    let served: Vec<Served<'_>> = outcomes
        .iter()
        .zip(&arrivals)
        .enumerate()
        .filter_map(|(id, (o, a))| {
            let r = o.as_ref()?.result.as_ref().ok()?;
            (!r.degraded).then(|| Served {
                id,
                model: &world.models[a.model],
                user: a.user,
                reranked: r.provenance.is_some(),
                items: &r.items,
            })
        })
        .collect();
    let mismatches = check::verify(&served, Some(&world.index), workers);
    println!(
        "correctness: {} lists checked, {} mismatches; moderate-phase errors {failed}",
        served.len(),
        mismatches.len(),
    );
    failed += mismatches.len() as u64;
    let mut correct = mismatches.is_empty();
    // Attempted: every moderate-phase request, plus the overload replies
    // the gate checked (ids past the moderate phase).
    let overload_checked = served
        .iter()
        .filter(|s| s.id >= moderate_n as usize)
        .count();

    if let Some((sink, baseline)) = traced {
        correct &= per_layer(
            &mut m, &world, &arrivals, &outcomes, &p, &sink, workers, args,
        );
        crate::set_overhead(&mut m, &baseline);
    }
    m.dump("metric ");
    RunResult {
        metrics: m,
        correct,
        attempted: moderate_n + overload_checked as u64,
        failed,
    }
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    m: &mut Metrics,
    world: &World,
    arrivals: &[&Arrival],
    outcomes: &[&Option<crate::openloop::Outcome>],
    p: &Pass,
    sink: &SpanSink,
    workers: usize,
    args: &Args,
) -> bool {
    let moderate_n = p.phases[0].outcomes.len();
    let reqs: Vec<ReqView<'_>> = arrivals
        .iter()
        .zip(outcomes)
        .enumerate()
        .map(|(i, (a, o))| {
            let o = o.as_ref().expect("every request resolved");
            let phase = usize::from(i >= moderate_n);
            ReqView {
                model: MODELS[a.model],
                user: a.user,
                deadline: has_deadline(phase, a).then(|| o.intended + LIMIT),
                intended: o.intended,
                submit: (o.submit_start, o.submit_end),
                claimed: o.claimed,
                response: o.result.as_ref().ok(),
            }
        })
        .collect();
    let calls = layers::match_calls(&reqs, sink.take());
    let graph = world.train.to_graph();
    let (replays, identical) = replay_sample(
        &reqs,
        |i| (&world.models[arrivals[i].model], &graph),
        Some(&world.index),
        400,
    );
    let wall: f64 = p
        .phases
        .iter()
        .map(|ph| (ph.end - ph.start).as_secs_f64())
        .sum();
    layers::attribute(m, &reqs, &calls, &replays, workers, wall);
    m.set("serve.queue_depth.p90", quantile(&p.depths, 0.9));
    let spans = layers::span_tree(p.phases[0].start, &reqs, &calls, &replays, &[]);
    crate::write_trace(args, &spans);
    identical
}
