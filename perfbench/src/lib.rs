//! The longtail serving benchmark: seeded workloads driven from outside the
//! system through the public APIs of `longtail-serve`, `longtail-core`,
//! `longtail-graph`, `longtail-markov`, `longtail-topics` and
//! `longtail-data`, with a correctness gate on every reply and a separate
//! traced run that attributes time to each layer.
//!
//! Run one workload with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload
//! <interactive|batch_deep|ingest_mixed> --seed <n> --seconds <s> --trace <0|1>`;
//! the last line of standard output is the JSON result.

pub mod batch_deep;
pub mod check;
pub mod ingest_log;
pub mod ingest_mixed;
pub mod interactive;
pub mod layers;
pub mod models;
pub mod openloop;
pub mod replay;
pub mod report;
pub mod rng;
pub mod stats;
pub mod trace;

use report::Metrics;

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut it = args.into_iter();
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds must be in (0, 600], got {seconds}"));
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// What a workload run reports.
pub struct RunResult {
    pub metrics: Metrics,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["interactive", "batch_deep", "ingest_mixed"];

/// Run one workload.
pub fn run(args: &Args) -> Result<RunResult, String> {
    match args.workload.as_str() {
        "interactive" => Ok(interactive::run(args)),
        "batch_deep" => Ok(batch_deep::run(args)),
        "ingest_mixed" => Ok(ingest_mixed::run(args)),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

/// Available parallelism of this machine (the engine's worker count).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Time `reps` set-ups, each split into stages, keeping the last one's
/// product. Sets `setup_s` (median total) and each `setup.<stage>_s`
/// (median stage time) in `m`.
pub fn timed_setup<T>(
    m: &mut Metrics,
    reps: usize,
    stages: &[&str],
    mut once: impl FnMut(&mut dyn FnMut(usize)) -> T,
) -> T {
    let mut per_stage = vec![Vec::new(); stages.len()];
    let mut totals = Vec::new();
    let mut kept = None;
    for _ in 0..reps.max(1) {
        drop(kept.take());
        let started = std::time::Instant::now();
        let mut last = started;
        let mut mark = |stage: usize| {
            let now = std::time::Instant::now();
            per_stage[stage].push((now - last).as_secs_f64());
            last = now;
        };
        kept = Some(once(&mut mark));
        totals.push(started.elapsed().as_secs_f64());
    }
    m.set("setup_s", stats::median(&totals));
    for (name, times) in stages.iter().zip(&per_stage) {
        m.set(&format!("setup.{name}_s"), stats::median(times));
    }
    println!("setup totals (s): {totals:?}");
    kept.expect("at least one set-up")
}

/// Write a traced run's spans next to the benchmark binary, in the build
/// directory (`traces/<workload>-seed<n>.tsv`).
pub fn write_trace(args: &Args, spans: &[trace::Span]) {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|p| p.join("traces")))
        .unwrap_or_else(|| std::path::PathBuf::from("traces"));
    let path = dir.join(format!("{}-seed{}.tsv", args.workload, args.seed));
    match trace::write_spans(&path, spans) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("could not write spans to {}: {e}", path.display()),
    }
}

/// Share of served items that are long-tail items, each list judged by
/// the long-tail split of the corpus it was served from.
pub fn tail_share<'a>(
    lists: impl IntoIterator<
        Item = (
            &'a longtail_data::LongTailSplit,
            &'a [longtail_core::ScoredItem],
        ),
    >,
) -> f64 {
    let (mut tail, mut all) = (0usize, 0usize);
    for (split, list) in lists {
        for s in list {
            all += 1;
            tail += usize::from(split.is_tail(s.item));
        }
    }
    if all == 0 {
        0.0
    } else {
        tail as f64 / all as f64
    }
}

/// Share of `requests` that repeat an earlier one (`gen.repeat_frac`).
pub fn repeat_share<T: std::hash::Hash + Eq>(requests: impl IntoIterator<Item = T>) -> f64 {
    let mut seen = std::collections::HashSet::new();
    let (mut repeats, mut all) = (0usize, 0usize);
    for r in requests {
        all += 1;
        repeats += usize::from(!seen.insert(r));
    }
    repeats as f64 / all.max(1) as f64
}

/// `trace.overhead.<metric>`: the traced pass's end-to-end value minus the
/// untraced `baseline` pass's, for the timing metrics.
pub fn set_overhead(m: &mut Metrics, baseline: &Metrics) {
    for name in [
        "latency_p50_ms",
        "latency_p90_ms",
        "goodput_rps",
        "throughput_rps",
    ] {
        m.set(
            &format!("trace.overhead.{name}"),
            m.get(name) - baseline.get(name),
        );
    }
}
