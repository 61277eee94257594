//! The correctness gate: every non-degraded reply is recomputed by calling
//! the model directly with `DpStopping::Fixed` under the same options, and
//! its ranking must be identical.

use crate::models::{quality_policy, BenchModel, K};
use longtail_core::{
    DpStopping, RecommendOptions, RerankIndex, Reranker, ScoredItem, ScoringContext,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One served list to check.
pub struct Served<'a> {
    pub id: usize,
    pub model: &'a BenchModel,
    pub user: u32,
    /// Whether the request was re-ranked (its response carried provenance).
    pub reranked: bool,
    pub items: &'a [ScoredItem],
}

/// The reference options of a request: fixed-τ stopping, plus the
/// request's re-rank policy when it was re-ranked.
pub fn reference_options<'a>(
    reranked: bool,
    index: Option<&'a RerankIndex>,
) -> RecommendOptions<'a> {
    let opts = RecommendOptions::new().stopping(DpStopping::Fixed);
    match (reranked, index) {
        (true, Some(index)) => opts.rerank(Reranker::new(index, quality_policy())),
        (true, None) => panic!("a re-ranked reply needs the rerank index"),
        (false, _) => opts,
    }
}

/// Describe a ranking mismatch, `None` when the rankings agree.
pub fn compare(
    id: usize,
    what: &str,
    served: &[ScoredItem],
    reference: &[ScoredItem],
) -> Option<String> {
    let a: Vec<u32> = served.iter().map(|s| s.item).collect();
    let b: Vec<u32> = reference.iter().map(|s| s.item).collect();
    (a != b).then(|| format!("MISMATCH request {id} {what}: served {a:?} reference {b:?}"))
}

/// Exact list equality: same items, bit-identical scores.
pub fn same_list(a: &[ScoredItem], b: &[ScoredItem]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.item == y.item && x.score.to_bits() == y.score.to_bits())
}

/// Check every list in `served` on `threads` threads; returns the
/// mismatches, each already printed. Replies to the same request (the
/// same model instance, user and re-rank) share one reference computation.
pub fn verify(served: &[Served<'_>], index: Option<&RerankIndex>, threads: usize) -> Vec<String> {
    let mut groups: HashMap<(*const BenchModel, u32, bool), Vec<&Served<'_>>> = HashMap::new();
    for s in served {
        groups
            .entry((std::ptr::from_ref(s.model), s.user, s.reranked))
            .or_default()
            .push(s);
    }
    let groups: Vec<Vec<&Served<'_>>> = groups.into_values().collect();
    let cursor = AtomicUsize::new(0);
    let mismatches = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                let mut ctx = ScoringContext::new();
                let mut out = Vec::with_capacity(K);
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(group) = groups.get(i) else { break };
                    let first = group[0];
                    let opts = reference_options(first.reranked, index);
                    first
                        .model
                        .rec
                        .recommend_into(first.user, K, &opts, &mut ctx, &mut out);
                    for s in group {
                        let what = format!("{} user {}", s.model.name, s.user);
                        if let Some(m) = compare(s.id, &what, s.items, &out) {
                            mismatches.lock().expect("mismatch log poisoned").push(m);
                        }
                    }
                }
            });
        }
    });
    let mismatches = mismatches.into_inner().expect("mismatch log poisoned");
    for m in &mismatches {
        println!("{m}");
    }
    mismatches
}
