//! What each streaming-ingest epoch held, from what the benchmark saw from
//! outside: the appends it made (in order, from one thread), the store's
//! own snapshots taken while it ran, and each compaction's union dataset.
//! A snapshot's delta holds the appends made since its base version's fold
//! point, up to some later append; every append adds a positive whole-star
//! value, so the delta's total weight names that later append uniquely.
//! The result lets the correctness gate rebuild the exact (base version,
//! delta) pair a reply claims and recompute the reply from it, without
//! re-deriving the store's publish or compaction policy.

use longtail_core::EdgeDelta;
use longtail_serve::{DeltaRating, DeltaSnapshot};
use std::collections::BTreeMap;

/// One snapshot of a store as observed: its epoch, the version its delta
/// overlays, and the delta's total rating weight. The delta itself is
/// dropped at once, so observing costs no memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Seen {
    pub epoch: u64,
    pub version: u32,
    pub weight: f64,
}

impl Seen {
    pub fn of(snapshot: &DeltaSnapshot) -> Self {
        Self {
            epoch: snapshot.epoch,
            version: snapshot.base_version,
            weight: delta_weight(&snapshot.delta),
        }
    }
}

/// Total rating weight of a delta.
pub fn delta_weight(delta: &EdgeDelta) -> f64 {
    let mut total = 0.0;
    delta.for_each(|_, _, value, _| total += value);
    total
}

/// `prefix[i]` is the total value of `appends[..i]`.
pub fn prefix_weights(appends: &[DeltaRating]) -> Vec<f64> {
    std::iter::once(0.0)
        .chain(appends.iter().scan(0.0, |total, a| {
            *total += a.value;
            Some(*total)
        }))
        .collect()
}

/// The end of the run of appends starting at `start` whose values sum to
/// `weight`, if there is one.
pub fn run_end(prefix: &[f64], start: usize, weight: f64) -> Option<usize> {
    let target = prefix.get(start)? + weight;
    let end = prefix.partition_point(|&w| w < target - 0.25);
    (end >= start && end < prefix.len() && (prefix[end] - target).abs() < 0.25).then_some(end)
}

/// The content of one epoch: `appends[start..end]` overlaid on the base of
/// `version`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochState {
    pub epoch: u64,
    pub version: u32,
    pub start: usize,
    pub end: usize,
}

/// Resolve every observed snapshot into the appends it held. `folds` maps
/// each version to its fold point (the number of appends its base folded;
/// version 1, the set-up model, folds none). Returns the states in epoch
/// order, or an error naming a snapshot whose delta is not a run of the
/// appends, or an epoch seen twice with different contents.
pub fn resolve(
    seen: &[Seen],
    folds: &BTreeMap<u32, usize>,
    prefix: &[f64],
) -> Result<Vec<EpochState>, String> {
    let mut states: BTreeMap<u64, EpochState> = BTreeMap::new();
    for s in seen {
        let start = *folds
            .get(&s.version)
            .ok_or_else(|| format!("epoch {} overlays unknown version {}", s.epoch, s.version))?;
        let end = run_end(prefix, start, s.weight).ok_or_else(|| {
            format!(
                "epoch {} (v{}) holds weight {} that no run of appends from {start} sums to",
                s.epoch, s.version, s.weight
            )
        })?;
        let state = EpochState {
            epoch: s.epoch,
            version: s.version,
            start,
            end,
        };
        if let Some(other) = states.insert(s.epoch, state) {
            if other != state {
                return Err(format!("epoch {} seen as {other:?} and {state:?}", s.epoch));
            }
        }
    }
    Ok(states.into_values().collect())
}
