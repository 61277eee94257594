//! `batch_deep`: offline list precompute. Closed loop: one caller thread
//! feeds `Engine::recommend_batch` one chunk at a time; each chunk serves
//! its users by HT, then AT, then AC1, so every user of the corpus gets one
//! list per model per pass. Each pass serves a freshly deployed corpus, so
//! no request repeats within a run. τ = 240 under the default adaptive
//! stopping, where the DP is nearly the whole call and the rank-freeze
//! probe does real work; no deadlines, no re-rank.

use crate::check::{self, Served};
use crate::layers::{self, ReqView};
use crate::models::{self, BenchModel, K, MU, TAU_DEEP};
use crate::replay::replay_sample;
use crate::report::{peak_rss_mb, CpuTicks, Metrics};
use crate::rng::Rng;
use crate::stats::{describe, quantile, windowed, CALM_HIGH, CALM_LOW};
use crate::trace::{SpanSink, Traced};
use crate::{nproc, repeat_share, tail_share, timed_setup, Args, RunResult};
use longtail_core::GraphRecConfig;
use longtail_data::{Dataset, SyntheticConfig};
use longtail_serve::{Engine, RecommendRequest, RecommendResponse, ServeError, SharedRecommender};
use std::sync::Arc;
use std::time::Instant;

/// Set-up repetitions per run (`setup_s` is their median); each takes
/// tens of milliseconds.
pub const SETUP_REPS: usize = 7;
pub const MODELS: [&str; 3] = ["HT", "AT", "AC1"];
/// Users per chunk (each chunk holds one list per user per model; the last
/// chunk of a pass holds the users left over).
pub const CHUNK_USERS: usize = 8;
/// Corpora a run walks through, one per pass over every user: the profile
/// corpus under a seeded relabeling of its own, with its models deployed
/// when the pass starts — a precompute job over each new model version.
/// No (model, user) request repeats until a run outlasts all of them. Six
/// passes hold 16,200 lists, room for 810 lists/s over a 20 s run: about
/// twice the fastest rate seen on the reference VM. `gen.repeat_frac`
/// reports any wrap-around.
pub const CORPORA: usize = 6;

/// The order users are served in: a seeded permutation of the corpus.
pub fn user_order(seed: u64, n_users: usize) -> Vec<u32> {
    Rng::new(seed, 4).permutation(n_users)
}

/// The seed of the run's `corpus`-th corpus (the first is the run seed).
pub fn corpus_seed(seed: u64, corpus: usize) -> u64 {
    seed.wrapping_add((corpus as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One corpus of a run and the models built on it.
struct Corpus {
    train: Dataset,
    models: Vec<BenchModel>,
}

/// Each corpus's models as the engine serves them (wrapped when traced).
fn servable(corpora: &[Corpus], sink: Option<&Arc<SpanSink>>) -> Vec<Vec<SharedRecommender>> {
    corpora
        .iter()
        .map(|c| {
            c.models
                .iter()
                .map(|m| Traced::wrap(&m.rec, sink))
                .collect()
        })
        .collect()
}

/// An engine serving the first corpus's models.
fn engine(recs: &[Vec<SharedRecommender>], workers: usize) -> Engine {
    let mut b = Engine::builder().workers(workers);
    for (name, rec) in MODELS.iter().zip(&recs[0]) {
        b = b.model(*name, rec.clone());
    }
    b.build()
}

/// One served list of a pass.
struct List {
    /// The corpus it was served from.
    corpus: usize,
    model: usize,
    user: u32,
    chunk_start: Instant,
    submit: (Instant, Instant),
    claimed: Instant,
    result: Result<RecommendResponse, ServeError>,
}

struct Pass {
    lists: Vec<List>,
    /// (completion offset s, duration ms, lists) of each chunk.
    chunks: Vec<(f64, f64, usize)>,
    elapsed_s: f64,
}

/// Serve chunks until `seconds` have elapsed, deploying the next corpus's
/// models (`recs`) after each pass over `order`. The traced pass fans each
/// chunk out through `submit` and drains it in order — exactly what
/// `recommend_batch` does — so each submit can be timed.
fn pass(
    engine: &Engine,
    recs: &[Vec<SharedRecommender>],
    order: &[u32],
    seconds: f64,
    fan_out: bool,
) -> Pass {
    let started = Instant::now();
    let mut lists = Vec::new();
    let mut chunks = Vec::new();
    let (mut pos, mut corpus) = (0, 0);
    while started.elapsed().as_secs_f64() < seconds {
        if pos == order.len() {
            pos = 0;
            corpus = (corpus + 1) % recs.len();
            for (name, rec) in MODELS.iter().zip(&recs[corpus]) {
                engine.deploy(name, rec.clone()).expect("model registered");
            }
        }
        let users = &order[pos..(pos + CHUNK_USERS).min(order.len())];
        pos += users.len();
        let plan: Vec<(usize, u32)> = (0..MODELS.len())
            .flat_map(|m| users.iter().map(move |&u| (m, u)))
            .collect();
        let request = |&(m, u): &(usize, u32)| RecommendRequest::new(MODELS[m], u, K);
        let chunk_start = Instant::now();
        if fan_out {
            let submitted: Vec<_> = plan
                .iter()
                .map(|p| {
                    let s0 = Instant::now();
                    let h = engine.submit(request(p));
                    (s0, Instant::now(), h)
                })
                .collect();
            for (&(model, user), (s0, s1, h)) in plan.iter().zip(submitted) {
                let result = h.and_then(|h| h.wait());
                lists.push(List {
                    corpus,
                    model,
                    user,
                    chunk_start,
                    submit: (s0, s1),
                    claimed: Instant::now(),
                    result,
                });
            }
        } else {
            let results = engine.recommend_batch(plan.iter().map(request).collect());
            let claimed = Instant::now();
            for (&(model, user), result) in plan.iter().zip(results) {
                lists.push(List {
                    corpus,
                    model,
                    user,
                    chunk_start,
                    submit: (chunk_start, chunk_start),
                    claimed,
                    result,
                });
            }
        }
        chunks.push((
            started.elapsed().as_secs_f64(),
            chunk_start.elapsed().as_secs_f64() * 1e3,
            plan.len(),
        ));
    }
    Pass {
        lists,
        chunks,
        elapsed_s: started.elapsed().as_secs_f64(),
    }
}

/// Windows the end-to-end figures are medians over.
const WINDOWS: usize = 5;

/// End-to-end metrics of one pass, each the good-side quartile over
/// `WINDOWS` slices of the run: chunk latency percentiles, and lists per
/// second of chunk time. Returns the failed list count.
fn e2e(m: &mut Metrics, corpora: &[Corpus], p: &Pass, wrong: usize) -> u64 {
    let chunk_ms: Vec<f64> = p.chunks.iter().map(|c| c.1).collect();
    println!("{}", describe("chunk latency_ms", &chunk_ms));
    let lat: Vec<(f64, f64)> = p.chunks.iter().map(|c| (c.0, c.1)).collect();
    let span = p.elapsed_s;
    m.set(
        "latency_p50_ms",
        windowed(&lat, span, WINDOWS, CALM_LOW, |v| quantile(v, 0.5)),
    );
    m.set(
        "latency_p90_ms",
        windowed(&lat, span, WINDOWS, CALM_LOW, |v| quantile(v, 0.9)),
    );
    let ok = p.lists.iter().filter(|l| l.result.is_ok()).count();
    // Per chunk: lists served per second of the chunk's own duration.
    let rate: Vec<(f64, f64)> = p
        .chunks
        .iter()
        .map(|c| (c.0, c.2 as f64 / (c.1 / 1e3)))
        .collect();
    let per_chunk_sum = |v: &[f64]| v.len() as f64 / v.iter().map(|r| 1.0 / r).sum::<f64>();
    let throughput = windowed(&rate, span, WINDOWS, CALM_HIGH, per_chunk_sum);
    m.set("throughput_rps", throughput);
    let good = ok.saturating_sub(wrong) as f64 / p.lists.len().max(1) as f64;
    m.set("goodput_rps", throughput * good);
    let splits: Vec<_> = corpora
        .iter()
        .map(|c| models::tail_split(&c.train))
        .collect();
    m.set(
        "tail_share",
        tail_share(p.lists.iter().filter_map(|l| {
            let items = l.result.as_ref().ok()?.items.as_slice();
            Some((&splits[l.corpus], items))
        })),
    );
    (p.lists.len() - ok) as u64
}

pub fn run(args: &Args) -> RunResult {
    let mut m = Metrics::default();
    let workers = nproc();
    let walk = GraphRecConfig {
        max_items: MU,
        iterations: TAU_DEEP,
    };
    let (corpora, plain) = timed_setup(
        &mut m,
        SETUP_REPS,
        &["generate", "models", "engine"],
        |mark| {
            let trains: Vec<Dataset> = (0..CORPORA)
                .map(|c| {
                    let seed = corpus_seed(args.seed, c);
                    models::corpus(SyntheticConfig::movielens_like(), seed)
                })
                .collect();
            mark(0);
            let corpora: Vec<Corpus> = trains
                .into_iter()
                .map(|train| {
                    let models = MODELS
                        .iter()
                        .map(|name| BenchModel::build(name, &train, walk, None))
                        .collect();
                    Corpus { train, models }
                })
                .collect();
            mark(1);
            let recs = servable(&corpora, None);
            let engine = engine(&recs, workers);
            mark(2);
            (corpora, (engine, recs))
        },
    );
    m.set("env.nproc", nproc() as f64);
    m.set("env.workers", workers as f64);
    let train = &corpora[0].train;
    let order = user_order(args.seed, train.n_users());
    println!(
        "{CORPORA} corpora of {} users x {} items, {} ratings; workers {workers}; chunk {} lists",
        train.n_users(),
        train.n_items(),
        train.n_ratings(),
        CHUNK_USERS * MODELS.len()
    );

    let ticks = CpuTicks::now();
    let first = pass(&plain.0, &plain.1, &order, args.seconds, false);
    m.set("host.steal_frac", CpuTicks::now().steal_share_since(&ticks));
    // Peak memory of the program's run, before the gate allocates.
    m.set("peak_rss_mb", peak_rss_mb());
    drop(plain);
    let (p, traced) = if args.trace {
        let mut baseline = Metrics::default();
        e2e(&mut baseline, &corpora, &first, 0);
        let sink = Arc::new(SpanSink::default());
        let recs = servable(&corpora, Some(&sink));
        let traced = engine(&recs, workers);
        let p = pass(&traced, &recs, &order, args.seconds, true);
        drop((traced, recs));
        (p, Some((sink, baseline)))
    } else {
        (first, None)
    };

    let served: Vec<Served<'_>> = p
        .lists
        .iter()
        .enumerate()
        .filter_map(|(id, l)| {
            let r = l.result.as_ref().ok()?;
            (!r.degraded).then(|| Served {
                id,
                model: &corpora[l.corpus].models[l.model],
                user: l.user,
                reranked: false,
                items: &r.items,
            })
        })
        .collect();
    let mismatches = check::verify(&served, None, workers);
    let failed = e2e(&mut m, &corpora, &p, mismatches.len()) + mismatches.len() as u64;
    let mut correct = mismatches.is_empty();
    println!(
        "correctness: {} lists checked, {} mismatches, {} failed",
        served.len(),
        mismatches.len(),
        failed
    );
    m.set(
        "gen.repeat_frac",
        repeat_share(p.lists.iter().map(|l| (l.corpus, l.model, l.user))),
    );

    if let Some((sink, baseline)) = traced {
        let reqs: Vec<ReqView<'_>> = p
            .lists
            .iter()
            .map(|l| ReqView {
                model: MODELS[l.model],
                user: l.user,
                deadline: None,
                intended: l.chunk_start,
                submit: l.submit,
                claimed: l.claimed,
                response: l.result.as_ref().ok(),
            })
            .collect();
        let calls = layers::match_calls(&reqs, sink.take());
        let graphs: Vec<_> = corpora.iter().map(|c| c.train.to_graph()).collect();
        let (replays, identical) = replay_sample(
            &reqs,
            |i| {
                let l = &p.lists[i];
                (&corpora[l.corpus].models[l.model], &graphs[l.corpus])
            },
            None,
            300,
        );
        correct &= identical;
        layers::attribute(&mut m, &reqs, &calls, &replays, workers, p.elapsed_s);
        let spans = layers::span_tree(p.lists[0].chunk_start, &reqs, &calls, &replays, &[]);
        crate::write_trace(args, &spans);
        crate::set_overhead(&mut m, &baseline);
    }
    m.dump("metric ");
    RunResult {
        metrics: m,
        correct,
        attempted: p.lists.len() as u64,
        failed,
    }
}
