//! The benchmark's metric catalog and its result line.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every untraced run. Each is defined on
/// all three workloads (see the README for the per-workload meaning).
pub const END_TO_END: &[(&str, &str)] = &[
    ("goodput_rps", "req/s"),
    ("throughput_rps", "lists/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("tail_share", "ratio"),
];

/// Per-layer metrics, reported by every traced run (0 where a layer does
/// no work on the workload). The two latency percentiles lead the list:
/// end-to-end figures every run prints but the gate cannot hold, because
/// host CPU steal moves them by more than the largest allowed bound (see
/// the README).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("serve.submit_us.p50", "us"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p90", "ms"),
    ("serve.reply_ms.p50", "ms"),
    ("serve.queue_depth.p90", "count"),
    ("serve.worker_busy_frac", "ratio"),
    ("serve.shed_frac", "ratio"),
    ("serve.expired_frac", "ratio"),
    ("serve.rejected_frac", "ratio"),
    ("core.call_ms.HT.p50", "ms"),
    ("core.call_ms.AT.p50", "ms"),
    ("core.call_ms.AC1.p50", "ms"),
    ("core.call_ms.AC2.p50", "ms"),
    ("core.call_ms.p90", "ms"),
    ("core.self_ms.p50", "ms"),
    ("core.dp_iters_saved_frac.HT", "ratio"),
    ("core.dp_iters_saved_frac.AT", "ratio"),
    ("core.dp_iters_saved_frac.AC1", "ratio"),
    ("core.rank_frozen_frac.HT", "ratio"),
    ("core.rank_frozen_frac.AT", "ratio"),
    ("core.rank_frozen_frac.AC1", "ratio"),
    ("core.topk_us.p50", "us"),
    ("core.rerank_us.p50", "us"),
    ("graph.grow_ms.p50", "ms"),
    ("graph.grow_ms.p90", "ms"),
    ("graph.grow_ns_per_nnz", "ns"),
    ("graph.subgraph_nodes.mean", "count"),
    ("graph.subgraph_nnz.mean", "count"),
    ("graph.overlay_grow_ms.p50", "ms"),
    ("graph.overlay_ratio", "ratio"),
    ("markov.dp_ms.p50", "ms"),
    ("markov.dp_ms.p90", "ms"),
    ("markov.ns_per_edge_iter", "ns"),
    ("markov.dp_iters.mean", "count"),
    ("ingest.append_us.p50", "us"),
    ("ingest.append_us.p99", "us"),
    ("ingest.publish_us.p50", "us"),
    ("ingest.delta_edges_live.max", "count"),
    ("ingest.compaction_s.p50", "s"),
    ("ingest.compaction_publish_ms.p50", "ms"),
    ("ingest.compactions", "count"),
    ("setup.generate_s", "s"),
    ("setup.lda_s", "s"),
    ("setup.models_s", "s"),
    ("setup.engine_s", "s"),
    ("gen.late_ms.p99", "ms"),
    ("gen.late_ms.max", "ms"),
    ("gen.repeat_frac", "ratio"),
    ("env.nproc", "count"),
    ("env.workers", "count"),
    ("trace.overhead.latency_p50_ms", "ms"),
    ("trace.overhead.latency_p90_ms", "ms"),
    ("trace.overhead.goodput_rps", "req/s"),
    ("trace.overhead.throughput_rps", "lists/s"),
];

/// Named metric values of one run; [`Metrics::line`] renders the subset a
/// catalog asks for, reporting 0 for a metric the workload never measured.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Print every measured value as a diagnostic line.
    pub fn dump(&self, prefix: &str) {
        for (name, value) in &self.0 {
            println!("{prefix}{name} = {value}");
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and the catalog's
    /// metrics with their units.
    pub fn line(
        &self,
        catalog: &[(&str, &str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let body: Vec<String> = catalog
            .iter()
            .map(|(name, unit)| {
                let v = self.get(name);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

/// The machine's CPU time counters from `/proc/stat`, in clock ticks summed
/// over all CPUs: the ticks a hypervisor gave to other guests while this
/// one wanted to run (`steal`), and all ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    pub steal: u64,
    pub total: u64,
}

impl CpuTicks {
    /// The counters now (zero where `/proc/stat` is unreadable).
    pub fn now() -> Self {
        let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = line
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        Self {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().sum(),
        }
    }

    /// Share of all CPU time since `earlier` that was stolen: host noise,
    /// reported beside each run's timings so a reader can tell a slow
    /// program from a busy host.
    pub fn steal_share_since(&self, earlier: &Self) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        self.steal.saturating_sub(earlier.steal) as f64 / total.max(1) as f64
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
