//! Per-layer attribution of a traced run: match the wrapper's call spans to
//! requests, fold them with the generator's spans and the offline replays
//! into the per-layer metrics, and build the span tree written to disk.

use crate::replay::Stages;
use crate::report::Metrics;
use crate::stats::{mean, quantile};
use crate::trace::{CallSpan, Span};
use longtail_serve::RecommendResponse;
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// What the layer attribution needs to know about one request.
pub struct ReqView<'a> {
    pub model: &'static str,
    pub user: u32,
    pub deadline: Option<Instant>,
    pub intended: Instant,
    pub submit: (Instant, Instant),
    pub claimed: Instant,
    pub response: Option<&'a RecommendResponse>,
}

/// Match the serving calls (`recommend_into`, `recommend_delta_into`)
/// among the call spans to requests: a deadlined request by its unique
/// deadline, the others by (model, user) in submission order. Requests
/// that never reached a model (refused or shed) stay unmatched.
pub fn match_calls(reqs: &[ReqView<'_>], calls: Vec<CallSpan>) -> Vec<Option<CallSpan>> {
    let mut by_deadline: HashMap<(&'static str, Instant), CallSpan> = HashMap::new();
    let mut by_user: HashMap<(&'static str, u32), VecDeque<CallSpan>> = HashMap::new();
    let mut calls: Vec<CallSpan> = calls
        .into_iter()
        .filter(|c| matches!(c.method, "recommend_into" | "recommend_delta_into"))
        .collect();
    calls.sort_by_key(|c| c.start);
    for call in calls {
        match call.deadline {
            Some(d) => {
                by_deadline.insert((call.model, d), call);
            }
            None => by_user
                .entry((call.model, call.user))
                .or_default()
                .push_back(call),
        }
    }
    reqs.iter()
        .map(|r| match r.deadline {
            Some(d) => by_deadline.remove(&(r.model, d)),
            None if r.response.is_some() => by_user
                .get_mut(&(r.model, r.user))
                .and_then(VecDeque::pop_front),
            None => None,
        })
        .collect()
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// Fold matched calls and replays into the `serve.*`, `core.*`, `graph.*`
/// and `markov.*` metrics. `replays` pairs a request index with its
/// replayed stages; `wall_s` is the traced phase's wall time.
pub fn attribute(
    m: &mut Metrics,
    reqs: &[ReqView<'_>],
    calls: &[Option<CallSpan>],
    replays: &[(usize, Stages)],
    workers: usize,
    wall_s: f64,
) {
    let submit_us: Vec<f64> = reqs
        .iter()
        .map(|r| ms(r.submit.0, r.submit.1) * 1e3)
        .collect();
    m.set("serve.submit_us.p50", quantile(&submit_us, 0.5));
    let mut waits = Vec::new();
    let mut replies = Vec::new();
    let mut call_ms: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut all_calls = Vec::new();
    let mut busy = 0.0;
    for (r, c) in reqs.iter().zip(calls) {
        let Some(c) = c else { continue };
        let d = ms(c.start, c.end);
        busy += d / 1e3;
        waits.push(ms(r.submit.1, c.start));
        if r.response.is_some() {
            replies.push(ms(c.end, r.claimed));
            call_ms.entry(r.model).or_default().push(d);
            all_calls.push(d);
        }
    }
    m.set("serve.queue_wait_ms.p50", quantile(&waits, 0.5));
    m.set("serve.queue_wait_ms.p90", quantile(&waits, 0.9));
    m.set("serve.reply_ms.p50", quantile(&replies, 0.5));
    m.set(
        "serve.worker_busy_frac",
        busy / (workers.max(1) as f64 * wall_s.max(1e-9)),
    );
    for (name, v) in &call_ms {
        m.set(&format!("core.call_ms.{name}.p50"), quantile(v, 0.5));
    }
    m.set("core.call_ms.p90", quantile(&all_calls, 0.9));

    // Adaptive-stopping counters from each response's own telemetry.
    let mut dp: HashMap<&str, (u64, u64, u64, u64)> = HashMap::new();
    for r in reqs {
        if let Some(resp) = r.response {
            let t = resp.telemetry;
            let e = dp.entry(r.model).or_default();
            e.0 += t.iterations_run;
            e.1 += t.iterations_budget;
            e.2 += t.rank_frozen;
            e.3 += t.queries;
        }
    }
    for (name, (run, budget, frozen, queries)) in dp {
        if budget > 0 {
            m.set(
                &format!("core.dp_iters_saved_frac.{name}"),
                1.0 - run as f64 / budget as f64,
            );
        }
        if queries > 0 {
            m.set(
                &format!("core.rank_frozen_frac.{name}"),
                frozen as f64 / queries as f64,
            );
        }
    }

    let stage =
        |f: &dyn Fn(&Stages) -> f64| -> Vec<f64> { replays.iter().map(|(_, s)| f(s)).collect() };
    let grow_ms = stage(&|s| s.grow.as_secs_f64() * 1e3);
    let dp_ms = stage(&|s| s.dp.as_secs_f64() * 1e3);
    m.set("graph.grow_ms.p50", quantile(&grow_ms, 0.5));
    m.set("graph.grow_ms.p90", quantile(&grow_ms, 0.9));
    m.set("markov.dp_ms.p50", quantile(&dp_ms, 0.5));
    m.set("markov.dp_ms.p90", quantile(&dp_ms, 0.9));
    m.set(
        "core.topk_us.p50",
        quantile(&stage(&|s| s.topk.as_secs_f64() * 1e6), 0.5),
    );
    let reranked: Vec<f64> = replays
        .iter()
        .filter(|(i, _)| reqs[*i].response.is_some_and(|r| r.provenance.is_some()))
        .map(|(_, s)| s.rerank.as_secs_f64() * 1e6)
        .collect();
    m.set("core.rerank_us.p50", quantile(&reranked, 0.5));
    let nnz: f64 = replays.iter().map(|(_, s)| s.nnz as f64).sum();
    let edge_iters: f64 = replays
        .iter()
        .map(|(_, s)| (s.nnz * s.iterations) as f64)
        .sum();
    if nnz > 0.0 {
        m.set(
            "graph.grow_ns_per_nnz",
            grow_ms.iter().sum::<f64>() * 1e6 / nnz,
        );
    }
    if edge_iters > 0.0 {
        m.set(
            "markov.ns_per_edge_iter",
            dp_ms.iter().sum::<f64>() * 1e6 / edge_iters,
        );
    }
    m.set(
        "graph.subgraph_nodes.mean",
        mean(&stage(&|s| s.nodes as f64)),
    );
    m.set("graph.subgraph_nnz.mean", mean(&stage(&|s| s.nnz as f64)));
    m.set(
        "markov.dp_iters.mean",
        mean(&stage(&|s| s.iterations as f64)),
    );
    let self_ms: Vec<f64> = replays
        .iter()
        .filter_map(|(i, s)| {
            calls[*i]
                .as_ref()
                .map(|c| ms(c.start, c.end) - s.total().as_secs_f64() * 1e3)
        })
        .collect();
    m.set("core.self_ms.p50", quantile(&self_ms, 0.5));
}

/// The span tree of a traced run: per request a root `request` span
/// (intended send → reply claimed) with `serve.submit` and `core.call`
/// children, and the replayed `graph.grow`, `markov.dp`, `core.topk` and
/// `core.rerank` stages under the call (laid end to end from its start);
/// then `roots` — (name, start, duration in µs) spans outside any request,
/// such as `ingest.append` and `ingest.compact`.
pub fn span_tree(
    origin: Instant,
    reqs: &[ReqView<'_>],
    calls: &[Option<CallSpan>],
    replays: &[(usize, Stages)],
    roots: &[(&'static str, Instant, f64)],
) -> Vec<Span> {
    let us = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e6;
    let replay_of: HashMap<usize, &Stages> = replays.iter().map(|(i, s)| (*i, s)).collect();
    let mut spans = Vec::new();
    let mut next = 1u64;
    let mut push = |spans: &mut Vec<Span>, parent, request, name, start_us: f64, dur_us: f64| {
        let id = next;
        next += 1;
        spans.push(Span {
            id,
            parent,
            request,
            name,
            start_us,
            dur_us,
        });
        id
    };
    for (i, r) in reqs.iter().enumerate() {
        let req = i as u64 + 1;
        let root = push(
            &mut spans,
            0,
            req,
            "request",
            us(r.intended),
            ms(r.intended, r.claimed) * 1e3,
        );
        push(
            &mut spans,
            root,
            req,
            "serve.submit",
            us(r.submit.0),
            ms(r.submit.0, r.submit.1) * 1e3,
        );
        let Some(c) = &calls[i] else { continue };
        let call = push(
            &mut spans,
            root,
            req,
            "core.call",
            us(c.start),
            ms(c.start, c.end) * 1e3,
        );
        if let Some(s) = replay_of.get(&i) {
            let mut at = us(c.start);
            for (name, d) in [
                ("graph.grow", s.grow),
                ("markov.dp", s.dp),
                ("core.topk", s.topk),
                ("core.rerank", s.rerank),
            ] {
                let d = d.as_secs_f64() * 1e6;
                push(&mut spans, call, req, name, at, d);
                at += d;
            }
        }
    }
    for &(name, start, dur_us) in roots {
        push(&mut spans, 0, 0, name, us(start), dur_us);
    }
    spans
}
