//! `ingest_mixed`: writes beside reads. One generator thread interleaves
//! reads and rating appends on one seeded schedule; one compactor thread
//! calls `Engine::compact_and_deploy` whenever a store `needs_compaction()`.
//! Base corpus: the Douban-like profile; models HT and AC1 (τ = 15,
//! μ = 300), each with a `DeltaStore` under `DeltaConfig::default()`.

use crate::check;
use crate::check::same_list;
use crate::ingest_log::{prefix_weights, resolve, run_end, EpochState, Seen};
use crate::layers::{self, ReqView};
use crate::models::{self, BenchModel, K, MU, TAU_PAPER};
use crate::openloop::{drive, InFlight, Phase};
use crate::replay::{Replayer, Stages};
use crate::report::{peak_rss_mb, CpuTicks, Metrics};
use crate::rng::{Rng, Weighted};
use crate::stats::{describe, max, per_window, quantile, windowed, CALM_LOW};
use crate::trace::{CallSpan, SpanSink, Traced};
use crate::{nproc, repeat_share, tail_share, timed_setup, Args, RunResult};
use longtail_core::{DpStopping, EdgeDelta, GraphRecConfig, ScoringContext};
use longtail_data::{Dataset, SyntheticConfig, TimedRating};
use longtail_serve::{
    CompactionReport, DeltaConfig, DeltaRating, DeltaStore, Engine, RecommendRequest,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up repetitions per run (`setup_s` is their median); each takes
/// about twenty milliseconds, so it takes many to steady the median.
pub const SETUP_REPS: usize = 15;
pub const MODELS: [&str; 2] = ["HT", "AC1"];
/// Read requests per second (moderate: well under the 2-worker capacity).
pub const READ_RATE: f64 = 250.0;
/// Rating appends per second: each store crosses its 10k-edge compaction
/// threshold about every five seconds, several times per run.
pub const APPEND_RATE: f64 = 2000.0;
/// Share of appends that introduce a new user.
pub const NEW_USER_SHARE: f64 = 0.02;
/// Share of appends by an already-introduced new user.
pub const RETURNING_SHARE: f64 = 0.3;
/// Share of reads for new users, once any is visible.
pub const NEW_USER_READS: f64 = 0.2;
/// The latency limit goodput counts against.
pub const LIMIT: Duration = Duration::from_millis(25);

/// One delta cycle: the seconds the scheduled appends take to fill a
/// store's delta to its compaction threshold. Read latency is taken per
/// window of at least this length, so every window spans the delta from
/// fresh to full.
pub fn cycle_seconds() -> f64 {
    DeltaConfig::default().max_delta_edges as f64 / APPEND_RATE
}

/// One scheduled event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    Read { model: usize, user: u32 },
    Append(DeltaRating),
}

/// An event with its intended send time (seconds from the run start).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    pub at: f64,
    pub event: Event,
}

/// The seeded schedule: Poisson reads and appends merged in time order.
/// Reads pick a model uniformly and a user Zipf(1.0) over a seeded
/// permutation of the base users, or a new user whose first rating is
/// certainly published (a full auto-publish batch later). Appends rate
/// existing or new users; items are drawn by popularity.
pub fn schedule(seed: u64, base: &Dataset, seconds: f64) -> Vec<Timed> {
    let mut rng = Rng::new(seed, 5);
    let n_users = base.n_users();
    let perm = Rng::new(seed, 6).permutation(n_users);
    let zipf = Weighted::zipf(n_users, 1.0);
    let items = Weighted::new(base.item_popularity().iter().map(|&p| p as f64 + 1.0));
    let publish_every = DeltaConfig::default().publish_every;
    let stamp0 = base.n_ratings() as f64;
    let mut new_users: Vec<(u32, usize)> = Vec::new();
    let mut appends = 0usize;
    let mut out = Vec::new();
    let mut next_read = rng.exp_gap(READ_RATE);
    let mut next_append = rng.exp_gap(APPEND_RATE);
    loop {
        let at = next_read.min(next_append);
        if at >= seconds {
            break;
        }
        let event = if next_read <= next_append {
            next_read += rng.exp_gap(READ_RATE);
            let visible = new_users.partition_point(|&(_, first)| first + publish_every <= appends);
            let user = if visible > 0 && rng.f64() < NEW_USER_READS {
                new_users[rng.below(visible)].0
            } else {
                perm[zipf.sample(&mut rng)]
            };
            Event::Read {
                model: rng.below(MODELS.len()),
                user,
            }
        } else {
            next_append += rng.exp_gap(APPEND_RATE);
            let x = rng.f64();
            let returning = x < NEW_USER_SHARE + RETURNING_SHARE;
            let user = if x < NEW_USER_SHARE || (returning && new_users.is_empty()) {
                let id = (n_users + new_users.len()) as u32;
                new_users.push((id, appends));
                id
            } else if returning {
                new_users[rng.below(new_users.len())].0
            } else {
                rng.below(n_users) as u32
            };
            let rating = DeltaRating {
                user,
                item: items.sample(&mut rng) as u32,
                value: 1.0 + rng.below(5) as f64,
                timestamp: stamp0 + appends as f64,
            };
            appends += 1;
            Event::Append(rating)
        };
        out.push(Timed { at, event });
    }
    out
}

/// A model build as the compactor performs it.
fn build(name: &str, train: &Dataset) -> BenchModel {
    let walk = GraphRecConfig {
        max_items: MU,
        iterations: TAU_PAPER,
    };
    BenchModel::build(name, train, walk, None)
}

struct World {
    models: Vec<BenchModel>,
    stores: Vec<Arc<DeltaStore>>,
    engine: Engine,
}

fn world(base: &Dataset, models: Vec<BenchModel>, sink: Option<&Arc<SpanSink>>) -> World {
    let stores: Vec<Arc<DeltaStore>> = models
        .iter()
        .map(|_| Arc::new(DeltaStore::new(base.clone(), DeltaConfig::default())))
        .collect();
    let mut b = Engine::builder().workers(nproc());
    for (m, store) in models.iter().zip(&stores) {
        b = b
            .model(m.name, Traced::wrap(&m.rec, sink))
            .ingest(m.name, store.clone());
    }
    World {
        models,
        stores,
        engine: b.build(),
    }
}

/// What one store went through in a pass.
#[derive(Default)]
struct StoreRun {
    /// The store's snapshots, taken by the generator whenever an append's
    /// returned epoch advanced and by the compactor at each fold and
    /// commit.
    seen: Vec<Seen>,
    /// Each version's fold point (version 1, the set-up model, folds none).
    folds: BTreeMap<u32, usize>,
    epoch_log: Vec<(u64, u32)>,
}

/// One `compact_and_deploy` run as the compactor saw it.
struct CompactionRun {
    store: usize,
    report: CompactionReport,
    started: Instant,
    seconds: f64,
    /// Total rating weight of the union dataset it rebuilt from.
    union_weight: f64,
    /// Snapshots right after the fold and right after the commit.
    seen: [Seen; 2],
}

struct Pass {
    phase: Phase,
    /// (model, user) of each read, by read id.
    reads: Vec<(usize, u32)>,
    appends: Vec<DeltaRating>,
    stores: Vec<StoreRun>,
    append_us: Vec<f64>,
    append_start: Vec<Instant>,
    publish_us: Vec<f64>,
    compaction_s: Vec<f64>,
    compaction_start: Vec<Instant>,
    compaction_publish_ms: Vec<f64>,
    live_max: f64,
    seconds: f64,
}

fn pass(
    w: &World,
    base: &Dataset,
    events: &[Timed],
    seconds: f64,
    sink: Option<&Arc<SpanSink>>,
) -> Pass {
    let reads: Vec<(usize, u32)> = events
        .iter()
        .filter_map(|t| match t.event {
            Event::Read { model, user } => Some((model, user)),
            Event::Append(_) => None,
        })
        .collect();
    let appends: Vec<DeltaRating> = events
        .iter()
        .filter_map(|t| match t.event {
            Event::Append(r) => Some(r),
            Event::Read { .. } => None,
        })
        .collect();
    let mut stores: Vec<StoreRun> = MODELS
        .iter()
        .map(|_| StoreRun {
            folds: BTreeMap::from([(1, 0)]),
            ..StoreRun::default()
        })
        .collect();
    let mut append_us = Vec::with_capacity(appends.len() * MODELS.len());
    let mut append_start = Vec::with_capacity(appends.len() * MODELS.len());
    let mut publish_us = Vec::new();
    let stop = AtomicBool::new(false);
    let mut read_id = 0;
    let (phase, (live_max, runs)) = std::thread::scope(|scope| {
        let compactor = scope.spawn(|| {
            let mut live_max = 0.0f64;
            let mut runs = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                for (k, name) in MODELS.iter().enumerate() {
                    let store = &w.stores[k];
                    live_max = live_max.max(store.stats().delta_edges_live as f64);
                    if !store.needs_compaction() {
                        continue;
                    }
                    let started = Instant::now();
                    let mut folded = None;
                    let report = w
                        .engine
                        .compact_and_deploy(name, |union| {
                            folded = Some((union.user_items().total_sum(), store.snapshot()));
                            Traced::wrap(&build(name, union).rec, sink)
                        })
                        .expect("ingest attached");
                    let seconds = started.elapsed().as_secs_f64();
                    let committed = store.snapshot();
                    let (union_weight, folded) = folded.expect("compaction built a model");
                    runs.push(CompactionRun {
                        store: k,
                        report,
                        started,
                        seconds,
                        union_weight,
                        seen: [Seen::of(&folded), Seen::of(&committed)],
                    });
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            (live_max, runs)
        });
        let mut last_epoch = vec![0u64; MODELS.len()];
        let phase = drive(
            events,
            |t| t.at,
            reads.len(),
            |_, t, intended, tx| match t.event {
                Event::Read { model, user } => {
                    let submit_start = Instant::now();
                    let handle = w
                        .engine
                        .submit(RecommendRequest::new(MODELS[model], user, K));
                    let submit_end = Instant::now();
                    tx.send(InFlight {
                        id: read_id,
                        intended,
                        submit_start,
                        submit_end,
                        handle,
                    })
                    .expect("collector alive");
                    read_id += 1;
                }
                Event::Append(rating) => {
                    for (k, store) in w.stores.iter().enumerate() {
                        let started = Instant::now();
                        let epoch = store.append(rating);
                        let us = started.elapsed().as_secs_f64() * 1e6;
                        append_us.push(us);
                        append_start.push(started);
                        if epoch > last_epoch[k] {
                            publish_us.push(us);
                            last_epoch[k] = epoch;
                            stores[k].seen.push(Seen::of(&store.snapshot()));
                        }
                    }
                }
            },
        );
        stop.store(true, Ordering::Relaxed);
        (phase, compactor.join().expect("compactor panicked"))
    });
    let prefix = prefix_weights(&appends);
    let base_weight = base.user_items().total_sum();
    let mut compaction_s = Vec::new();
    let mut compaction_start = Vec::new();
    let mut compaction_publish_ms = Vec::new();
    for run in runs {
        let store = &mut stores[run.store];
        // An unresolvable fold leaves the version out of `folds`; the gate
        // then reports every epoch over it.
        if let Some(fold) = run_end(&prefix, 0, run.union_weight - base_weight) {
            store.folds.insert(run.report.version, fold);
        }
        store.seen.extend(run.seen);
        compaction_s.push(run.seconds);
        compaction_start.push(run.started);
        compaction_publish_ms.push(run.report.publish_seconds * 1e3);
    }
    for (k, s) in stores.iter_mut().enumerate() {
        s.epoch_log = w.stores[k].epoch_log();
    }
    Pass {
        phase,
        reads,
        appends,
        stores,
        append_us,
        append_start,
        publish_us,
        compaction_s,
        compaction_start,
        compaction_publish_ms,
        live_max,
        seconds,
    }
}

/// End-to-end metrics of one pass. Latencies are the lower quartile over
/// windows of whole delta cycles.
fn e2e(m: &mut Metrics, base: &Dataset, p: &Pass, wrong: usize) {
    let ok = || {
        p.phase
            .outcomes
            .iter()
            .flatten()
            .filter(|o| o.result.is_ok())
    };
    let since = |t: Instant| t.saturating_duration_since(p.phase.start).as_secs_f64();
    let lat: Vec<(f64, f64)> = ok().map(|o| (since(o.intended), o.latency_ms())).collect();
    let values: Vec<f64> = lat.iter().map(|l| l.1).collect();
    println!("{}", describe("read latency_ms", &values));
    println!("{}", describe("append_us", &p.append_us));
    let windows = ((p.seconds / cycle_seconds()).floor() as usize).max(1);
    let p50s = per_window(&lat, p.seconds, windows, |v| quantile(v, 0.5));
    println!("read latency_ms p50 by delta-cycle window: {p50s:.3?}");
    m.set(
        "latency_p50_ms",
        windowed(&lat, p.seconds, windows, CALM_LOW, |v| quantile(v, 0.5)),
    );
    m.set(
        "latency_p90_ms",
        windowed(&lat, p.seconds, windows, CALM_LOW, |v| quantile(v, 0.9)),
    );
    // Rates over the whole phase. The open loop offers a fixed schedule
    // well under capacity, so these follow it unless reads slow down
    // severalfold or miss the limit.
    let elapsed = (p.phase.end - p.phase.start).as_secs_f64();
    let limit_ms = LIMIT.as_secs_f64() * 1e3;
    let within = ok().filter(|o| o.latency_ms() <= limit_ms).count();
    m.set("goodput_rps", within.saturating_sub(wrong) as f64 / elapsed);
    m.set("throughput_rps", values.len() as f64 / elapsed);
    let split = models::tail_split(base);
    m.set(
        "tail_share",
        tail_share(ok().map(|o| (&split, o.result.as_ref().expect("ok").items.as_slice()))),
    );
    m.set("ingest.append_us.p50", quantile(&p.append_us, 0.5));
    m.set("ingest.append_us.p99", quantile(&p.append_us, 0.99));
    m.set("ingest.publish_us.p50", quantile(&p.publish_us, 0.5));
    m.set("ingest.delta_edges_live.max", p.live_max);
    m.set("ingest.compaction_s.p50", quantile(&p.compaction_s, 0.5));
    m.set(
        "ingest.compaction_publish_ms.p50",
        quantile(&p.compaction_publish_ms, 0.5),
    );
    m.set("ingest.compactions", p.compaction_s.len() as f64);
    m.set("gen.late_ms.p99", quantile(&p.phase.late_ms, 0.99));
    m.set("gen.late_ms.max", max(&p.phase.late_ms));
}

/// The base dataset of a version whose base folded `appends[..fold]`.
fn union_of(base: &Dataset, appends: &[DeltaRating]) -> Dataset {
    let mut ratings = base.to_timed_ratings();
    ratings.extend(appends.iter().map(|a| TimedRating {
        user: a.user,
        item: a.item,
        value: a.value,
        timestamp: a.timestamp,
    }));
    let n_users = ratings
        .iter()
        .map(|r| r.user as usize + 1)
        .max()
        .unwrap_or(0)
        .max(base.n_users());
    Dataset::from_timed_ratings(n_users, base.n_items(), &ratings)
}

/// What the gate found for one store.
#[derive(Default)]
struct StoreCheck {
    problems: Vec<String>,
    replays: Vec<(usize, Stages)>,
    /// Served reads claiming an epoch no snapshot captured.
    unchecked: usize,
}

/// Check one store's reads: each claimed (version, epoch) must be in the
/// epoch log, and each read whose epoch a snapshot captured must equal a
/// fixed-τ recomputation over that epoch's base version (rebuilt from the
/// corpus and the appends it folded) and delta. Sampled reads are also
/// replayed stage by stage.
fn check_store(
    k: usize,
    base: &Dataset,
    first: &BenchModel,
    p: &Pass,
    replay_every: Option<usize>,
) -> StoreCheck {
    let run = &p.stores[k];
    let appends = &p.appends;
    let mut out_check = StoreCheck::default();
    let states = match resolve(&run.seen, &run.folds, &prefix_weights(appends)) {
        Ok(states) => states,
        Err(e) => {
            let msg = format!("MISMATCH {} snapshot log: {e}", MODELS[k]);
            println!("{msg}");
            out_check.problems.push(msg);
            return out_check;
        }
    };
    // Reads of this store, grouped by claimed epoch.
    let mut by_epoch: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (id, &(model, _)) in p.reads.iter().enumerate() {
        if model != k {
            continue;
        }
        let Some(Ok(resp)) = p.phase.outcomes[id].as_ref().map(|o| o.result.as_ref()) else {
            continue;
        };
        match resp.epoch {
            Some(e) if run.epoch_log.contains(&(e, resp.version)) => {
                by_epoch.entry(e).or_default().push(id)
            }
            other => {
                let msg = format!(
                    "MISMATCH read {id}: (version {}, epoch {other:?}) not in the epoch log",
                    resp.version
                );
                println!("{msg}");
                out_check.problems.push(msg);
            }
        }
    }
    out_check.unchecked = by_epoch
        .iter()
        .filter(|(e, _)| states.binary_search_by_key(*e, |s| s.epoch).is_err())
        .map(|(_, ids)| ids.len())
        .sum();
    let mut versions: HashMap<u32, (BenchModel, longtail_graph::BipartiteGraph)> = HashMap::new();
    let mut ctx = ScoringContext::new();
    let mut replayer = Replayer::default();
    let mut out = Vec::new();
    let mut delta: Option<(u32, EdgeDelta, usize)> = None;
    for st in states.iter().filter(|s| by_epoch.contains_key(&s.epoch)) {
        let EpochState {
            version,
            start,
            end,
            ..
        } = *st;
        if !matches!(&delta, Some((v, ..)) if *v == version) {
            // The version's base: the corpus plus every append it folded.
            let n_users = appends[..start]
                .iter()
                .map(|a| a.user as usize + 1)
                .fold(base.n_users(), usize::max);
            delta = Some((version, EdgeDelta::new(n_users, base.n_items()), start));
        }
        let (_, d, upto) = delta.as_mut().expect("delta set above");
        if end < *upto {
            // Epochs of one version only grow; start over if one did not.
            *d = EdgeDelta::new(d.n_users(), d.n_items());
            *upto = start;
        }
        for a in &appends[*upto..end] {
            d.insert(a.user, a.item, a.value, a.timestamp);
        }
        *upto = end;
        let (model, graph) = versions.entry(version).or_insert_with(|| {
            let union = union_of(base, &appends[..start]);
            let model = if version == 1 {
                first.clone()
            } else {
                build(MODELS[k], &union)
            };
            (model, union.to_graph())
        });
        for &id in &by_epoch[&st.epoch] {
            let user = p.reads[id].1;
            let resp = p.phase.outcomes[id]
                .as_ref()
                .and_then(|o| o.result.as_ref().ok())
                .expect("grouped from served reads");
            let opts = check::reference_options(false, None);
            model
                .rec
                .recommend_delta_into(d, user, K, &opts, &mut ctx, &mut out);
            let what = format!("{} user {user} v{version} epoch {}", model.name, st.epoch);
            if let Some(msg) = check::compare(id, &what, &resp.items, &out) {
                println!("{msg}");
                out_check.problems.push(msg);
            }
            if replay_every.is_some_and(|n| id % n == 0) {
                let stages = replayer.replay(
                    model,
                    graph,
                    Some(d),
                    user,
                    &opts,
                    resp.telemetry.iterations_run as usize,
                    &mut out,
                );
                if !same_list(&out, &resp.items) {
                    let msg = format!("REPLAY MISMATCH read {id} {what}");
                    println!("{msg}");
                    out_check.problems.push(msg);
                }
                out_check.replays.push((id, stages));
            }
        }
    }
    out_check
}

/// After the run: publish everything, then compare the engine's answers
/// over the live version and delta with a model rebuilt on base ⊎ every
/// append, for a sample of users (new, re-rated and untouched). Returns
/// mismatches plus the grow times over the final overlay and over its base
/// for those users.
fn check_final(k: usize, w: &World, base: &Dataset, p: &Pass) -> (Vec<String>, Vec<f64>, Vec<f64>) {
    let store = &w.stores[k];
    store.publish();
    let snap = store.snapshot();
    let fold = p.stores[k]
        .folds
        .get(&snap.base_version)
        .copied()
        .unwrap_or(0);
    let rebuilt = build(MODELS[k], &union_of(base, &p.appends));
    let live_graph = union_of(base, &p.appends[..fold]).to_graph();
    let overlay = longtail_graph::OverlayGraph::new(&live_graph, &snap.delta);
    let mut users: Vec<u32> = p.appends.iter().rev().take(20).map(|a| a.user).collect();
    users.extend((0..20).map(|i| (i * 97 % base.n_users()) as u32));
    users.sort_unstable();
    users.dedup();
    let opts = check::reference_options(false, None);
    let (mut ctx, mut b) = (ScoringContext::new(), Vec::new());
    let mut problems = Vec::new();
    let (mut over_ms, mut base_ms) = (Vec::new(), Vec::new());
    let mut replayer = Replayer::default();
    for &u in &users {
        let what = format!("{} final engine answer vs rebuild", MODELS[k]);
        let req = RecommendRequest::new(MODELS[k], u, K).with_stopping(DpStopping::Fixed);
        rebuilt.rec.recommend_into(u, K, &opts, &mut ctx, &mut b);
        let problem = match w.engine.recommend(&req) {
            Ok(resp) => check::compare(u as usize, &what, &resp.items, &b),
            Err(e) => Some(format!("MISMATCH user {u} {what}: {e}")),
        };
        if let Some(msg) = problem {
            println!("{msg}");
            problems.push(msg);
        }
        if (u as usize) < live_graph.n_users() {
            over_ms.push(replayer.grow_only(&rebuilt, &overlay, u).as_secs_f64() * 1e3);
            base_ms.push(replayer.grow_only(&rebuilt, &live_graph, u).as_secs_f64() * 1e3);
        }
    }
    (problems, over_ms, base_ms)
}

pub fn run(args: &Args) -> RunResult {
    let mut m = Metrics::default();
    let workers = nproc();
    let (base, w) = timed_setup(
        &mut m,
        SETUP_REPS,
        &["generate", "models", "engine"],
        |mark| {
            let base = models::corpus(SyntheticConfig::douban_like(), args.seed);
            mark(0);
            let models: Vec<BenchModel> = MODELS.iter().map(|name| build(name, &base)).collect();
            mark(1);
            let w = world(&base, models, None);
            mark(2);
            (base, w)
        },
    );
    m.set("env.nproc", nproc() as f64);
    m.set("env.workers", workers as f64);
    let events = schedule(args.seed, &base, args.seconds);
    let n_reads = events
        .iter()
        .filter(|t| matches!(t.event, Event::Read { .. }))
        .count();
    println!(
        "corpus {} users x {} items, {} ratings; workers {workers}; {} reads, {} appends",
        base.n_users(),
        base.n_items(),
        base.n_ratings(),
        n_reads,
        events.len() - n_reads
    );
    m.set(
        "gen.repeat_frac",
        repeat_share(events.iter().filter_map(|t| match t.event {
            Event::Read { model, user } => Some((model, user)),
            Event::Append(_) => None,
        })),
    );

    let ticks = CpuTicks::now();
    let first = pass(&w, &base, &events, args.seconds, None);
    m.set("host.steal_frac", CpuTicks::now().steal_share_since(&ticks));
    // Peak memory of the program's run, before the gate allocates.
    m.set("peak_rss_mb", peak_rss_mb());
    let (w, p, traced) = if args.trace {
        let mut baseline = Metrics::default();
        e2e(&mut baseline, &base, &first, 0);
        drop(w);
        let sink = Arc::new(SpanSink::default());
        let models: Vec<BenchModel> = MODELS.iter().map(|name| build(name, &base)).collect();
        let traced = world(&base, models, Some(&sink));
        let p = pass(&traced, &base, &events, args.seconds, Some(&sink));
        // The run's calls, before the gate queries the engine.
        let calls: Vec<CallSpan> = sink.take();
        (traced, p, Some((calls, baseline)))
    } else {
        (w, first, None)
    };

    let replay_every = args.trace.then_some((n_reads / 300).max(1));
    let mut problems = Vec::new();
    let mut replays = Vec::new();
    let mut unchecked = 0;
    let (mut over_ms, mut base_ms) = (Vec::new(), Vec::new());
    let checked: Vec<StoreCheck> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..MODELS.len())
            .map(|k| {
                let (base, w, p) = (&base, &w, &p);
                scope.spawn(move || check_store(k, base, &w.models[k], p, replay_every))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("checker panicked"))
            .collect()
    });
    for c in checked {
        problems.extend(c.problems);
        replays.extend(c.replays);
        unchecked += c.unchecked;
    }
    for k in 0..MODELS.len() {
        let (pr, o, b) = check_final(k, &w, &base, &p);
        problems.extend(pr);
        over_ms.extend(o);
        base_ms.extend(b);
    }
    let lost = p
        .phase
        .outcomes
        .iter()
        .filter(|o| !matches!(o, Some(o) if o.result.is_ok()))
        .count();
    let wrong = problems.len();
    e2e(&mut m, &base, &p, wrong);
    println!(
        "correctness: {n_reads} reads, {lost} lost or failed, {wrong} mismatches, \
         {unchecked} claimed an epoch no snapshot captured; compactions {}",
        p.compaction_s.len()
    );
    let correct = wrong == 0 && lost == 0;

    if let Some((calls, baseline)) = traced {
        let reqs: Vec<ReqView<'_>> = p
            .reads
            .iter()
            .zip(&p.phase.outcomes)
            .map(|(&(model, user), o)| {
                let o = o.as_ref().expect("every read resolved");
                ReqView {
                    model: MODELS[model],
                    user,
                    deadline: None,
                    intended: o.intended,
                    submit: (o.submit_start, o.submit_end),
                    claimed: o.claimed,
                    response: o.result.as_ref().ok(),
                }
            })
            .collect();
        let calls = layers::match_calls(&reqs, calls);
        let wall = (p.phase.end - p.phase.start).as_secs_f64();
        layers::attribute(&mut m, &reqs, &calls, &replays, workers, wall);
        let stats = w.engine.stats();
        let attempted = (stats.submitted + stats.rejected).max(1) as f64;
        m.set("serve.shed_frac", stats.shed as f64 / attempted);
        m.set(
            "serve.expired_frac",
            (stats.expired_at_dequeue + stats.expired_in_dp) as f64 / attempted,
        );
        m.set("serve.rejected_frac", stats.rejected as f64 / attempted);
        let over = quantile(&over_ms, 0.5);
        m.set("graph.overlay_grow_ms.p50", over);
        m.set(
            "graph.overlay_ratio",
            over / quantile(&base_ms, 0.5).max(1e-12),
        );
        println!("replayed {} reads", replays.len());
        let roots: Vec<(&'static str, Instant, f64)> = p
            .append_start
            .iter()
            .zip(&p.append_us)
            .map(|(&t, &us)| ("ingest.append", t, us))
            .chain(
                p.compaction_start
                    .iter()
                    .zip(&p.compaction_s)
                    .map(|(&t, &s)| ("ingest.compact", t, s * 1e6)),
            )
            .collect();
        let spans = layers::span_tree(p.phase.start, &reqs, &calls, &replays, &roots);
        crate::write_trace(args, &spans);
        crate::set_overhead(&mut m, &baseline);
    }
    m.dump("metric ");
    RunResult {
        metrics: m,
        correct,
        attempted: n_reads as u64,
        failed: (lost + wrong) as u64,
    }
}
