//! Tracing from outside the program: a [`Recommender`] wrapper that records
//! a span around every call the engine makes into a model, and the
//! in-memory span log the traced run writes out at the end.

use longtail_core::{
    DpTelemetry, EdgeDelta, RecommendOptions, Recommender, ScoredItem, ScoringContext,
};
use longtail_serve::SharedRecommender;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded call into a model.
#[derive(Debug, Clone)]
pub struct CallSpan {
    pub model: &'static str,
    pub method: &'static str,
    pub user: u32,
    pub start: Instant,
    pub end: Instant,
    /// The request deadline the call carried: unique per deadlined request,
    /// so it matches calls to requests exactly.
    pub deadline: Option<Instant>,
    pub reranked: bool,
}

/// Spans recorded by every [`Traced`] wrapper of one run.
#[derive(Default)]
pub struct SpanSink {
    calls: Mutex<Vec<CallSpan>>,
}

impl SpanSink {
    fn record(&self, span: CallSpan) {
        self.calls.lock().expect("span log poisoned").push(span);
    }

    pub fn take(&self) -> Vec<CallSpan> {
        std::mem::take(&mut *self.calls.lock().expect("span log poisoned"))
    }
}

/// Forwards every trait method to the wrapped model and records a span for
/// each scoring call. The accessors (`name`, `rated_items`, `n_items`) do no
/// work and are forwarded without a span.
pub struct Traced {
    inner: SharedRecommender,
    sink: Arc<SpanSink>,
}

impl Traced {
    /// `rec` as the engine should hold it: wrapped when the run is traced.
    pub fn wrap(rec: &SharedRecommender, sink: Option<&Arc<SpanSink>>) -> SharedRecommender {
        match sink {
            Some(sink) => Arc::new(Self {
                inner: rec.clone(),
                sink: sink.clone(),
            }),
            None => rec.clone(),
        }
    }

    fn span<R>(
        &self,
        method: &'static str,
        user: u32,
        opts: Option<&RecommendOptions<'_>>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        self.sink.record(CallSpan {
            model: self.inner.name(),
            method,
            user,
            start,
            end,
            deadline: opts.and_then(|o| o.deadline),
            reranked: opts.is_some_and(|o| o.rerank.is_some()),
        });
        result
    }
}

impl Recommender for Traced {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn score_into(&self, user: u32, ctx: &mut ScoringContext, out: &mut Vec<f64>) {
        self.span("score_into", user, None, || {
            self.inner.score_into(user, ctx, out)
        })
    }

    fn rated_items(&self, user: u32) -> &[u32] {
        self.inner.rated_items(user)
    }

    fn n_items(&self) -> usize {
        self.inner.n_items()
    }

    fn score_items(&self, user: u32) -> Vec<f64> {
        self.span("score_items", user, None, || self.inner.score_items(user))
    }

    fn recommend(&self, user: u32, k: usize) -> Vec<ScoredItem> {
        self.span("recommend", user, None, || self.inner.recommend(user, k))
    }

    fn recommend_with(
        &self,
        user: u32,
        k: usize,
        opts: &RecommendOptions<'_>,
        ctx: &mut ScoringContext,
    ) -> Vec<ScoredItem> {
        self.span("recommend_with", user, Some(opts), || {
            self.inner.recommend_with(user, k, opts, ctx)
        })
    }

    fn recommend_into(
        &self,
        user: u32,
        k: usize,
        opts: &RecommendOptions<'_>,
        ctx: &mut ScoringContext,
        out: &mut Vec<ScoredItem>,
    ) {
        self.span("recommend_into", user, Some(opts), || {
            self.inner.recommend_into(user, k, opts, ctx, out)
        })
    }

    fn recommend_delta_into(
        &self,
        delta: &EdgeDelta,
        user: u32,
        k: usize,
        opts: &RecommendOptions<'_>,
        ctx: &mut ScoringContext,
        out: &mut Vec<ScoredItem>,
    ) {
        self.span("recommend_delta_into", user, Some(opts), || {
            self.inner
                .recommend_delta_into(delta, user, k, opts, ctx, out)
        })
    }

    fn recommend_batch(
        &self,
        users: &[u32],
        k: usize,
        opts: &RecommendOptions<'_>,
        n_threads: usize,
    ) -> Vec<Vec<ScoredItem>> {
        self.span("recommend_batch", u32::MAX, Some(opts), || {
            self.inner.recommend_batch(users, k, opts, n_threads)
        })
    }

    fn recommend_batch_telemetry(
        &self,
        users: &[u32],
        k: usize,
        opts: &RecommendOptions<'_>,
        n_threads: usize,
    ) -> (Vec<Vec<ScoredItem>>, DpTelemetry) {
        self.span("recommend_batch_telemetry", u32::MAX, Some(opts), || {
            self.inner
                .recommend_batch_telemetry(users, k, opts, n_threads)
        })
    }

    fn score_batch(&self, users: &[u32], n_threads: usize) -> Vec<Vec<f64>> {
        self.span("score_batch", u32::MAX, None, || {
            self.inner.score_batch(users, n_threads)
        })
    }
}

/// One span of the written trace: `parent` is the id of the span that
/// caused it (0 for a request root), all spans of a request share `request`.
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub dur_us: f64,
}

/// Write spans as tab-separated lines with each span's self time (its
/// duration minus the part its children cover).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut child_time = std::collections::HashMap::<u64, f64>::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_time.entry(s.parent).or_default() += s.dur_us;
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\trequest\tname\tstart_us\tdur_us\tself_us")?;
    for s in spans {
        let own = s.dur_us - child_time.get(&s.id).copied().unwrap_or(0.0);
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{:.3}\t{:.3}\t{:.3}",
            s.id, s.parent, s.request, s.name, s.start_us, s.dur_us, own
        )?;
    }
    out.flush()
}
