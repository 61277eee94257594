//! Streaming ingest: the epoch-versioned [`DeltaStore`] behind
//! [`crate::Engine`]'s base + delta serving and compaction redeploys.
//!
//! A `DeltaStore` accepts appended `(user, item, weight, timestamp)`
//! ratings into an [`EdgeDelta`] without ever rebuilding the frozen base
//! model. Appends land in a cheap pending log first; a **publish** folds
//! the log into the shared delta and advances the store's **epoch** — the
//! version number of the delta's contents. Queries take a
//! [`DeltaSnapshot`] (an `Arc` pin of the delta at one epoch) and serve
//! base + overlay through the model's one serving call,
//! [`longtail_core::Recommender::recommend_into`], with the pinned delta on
//! [`longtail_core::RecommendOptions::delta`]; snapshots taken
//! mid-publish see either the old or the new epoch, never a mix.
//!
//! **Epoch/version coupling** is structural: all store state sits under
//! one lock, and both halves of an engine read's pin happen inside it.
//! The engine resolves the model version and takes the delta snapshot in
//! one critical section, and a compaction commit publishes the rebuilt
//! model to its slot under the same lock before it swaps in the residual
//! delta. So every snapshot's `base_version` is the version the read
//! pinned, and no other path publishes versions of an ingest model:
//! [`crate::Engine::deploy`] refuses one. The `(epoch, base_version)`
//! pairs ever valid are listed by [`DeltaStore::epoch_log`], which
//! concurrent tests check every response against.

use longtail_core::EdgeDelta;
use longtail_data::{Dataset, TimedRating};
use parking_lot::Mutex;
use std::sync::Arc;

/// One streamed rating append.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaRating {
    /// The rating user (may exceed the base model's user count — new users
    /// are first-class in the overlay).
    pub user: u32,
    /// The rated item (may exceed the base model's item count).
    pub item: u32,
    /// Rating value; must be finite and positive.
    pub value: f64,
    /// Rating timestamp (same clock as the base data's stamps; feed the
    /// recency-decay path).
    pub timestamp: f64,
}

/// Tuning knobs of a [`DeltaStore`].
#[derive(Debug, Clone, Copy)]
pub struct DeltaConfig {
    /// Auto-publish the pending log into the live delta every this many
    /// appends (1 = every append is immediately visible; larger batches
    /// amortize the delta clone). [`DeltaStore::publish`] can always force
    /// it early.
    pub publish_every: usize,
    /// Advisory compaction threshold: once the live delta holds this many
    /// distinct edges, [`DeltaStore::needs_compaction`] turns true. The
    /// store keeps accepting appends past it — the bound is for the
    /// compaction loop to act on, not an admission limit.
    pub max_delta_edges: usize,
}

impl Default for DeltaConfig {
    fn default() -> Self {
        Self {
            publish_every: 64,
            max_delta_edges: 10_000,
        }
    }
}

/// All mutable state of a [`DeltaStore`], guarded by one mutex so epoch,
/// delta, base, version and counters always change together.
struct DeltaState {
    /// The dataset the current base model was built from — the left half
    /// of the next compaction's union.
    base: Dataset,
    /// The published delta, shared with every outstanding snapshot.
    delta: Arc<EdgeDelta>,
    /// Appends not yet folded into `delta`.
    pending: Vec<DeltaRating>,
    /// Appends not yet folded into any *base* — replayed onto a fresh
    /// delta at compaction commit to compute the residual.
    since_fold: Vec<DeltaRating>,
    /// Version of the delta's contents; bumped by every publish and every
    /// compaction commit.
    epoch: u64,
    /// The model version `delta` is relative to.
    base_version: u32,
    /// `(first epoch, version)` of every base, oldest first: one entry per
    /// compaction, expanded by [`DeltaStore::epoch_log`].
    bases: Vec<(u64, u32)>,
    /// Rating appends accepted.
    appends: u64,
    /// Compaction commits.
    compactions: u64,
}

impl DeltaState {
    fn snapshot(&self) -> DeltaSnapshot {
        DeltaSnapshot {
            epoch: self.epoch,
            base_version: self.base_version,
            delta: Arc::clone(&self.delta),
        }
    }
}

/// A consistent view of the store at one epoch: the published delta, its
/// epoch, and the model version it overlays. Holding the snapshot pins the
/// delta (`Arc`) — later publishes and compactions swap the store, never
/// this view.
#[derive(Debug, Clone)]
pub struct DeltaSnapshot {
    /// Epoch of the pinned delta.
    pub epoch: u64,
    /// The model version this delta overlays.
    pub base_version: u32,
    /// The pinned delta contents.
    pub delta: Arc<EdgeDelta>,
}

/// What one [`crate::Engine::compact_and_deploy`] run did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionReport {
    /// Version the rebuilt model is now serving as.
    pub version: u32,
    /// Epoch published at the commit (the first epoch of the new base).
    pub epoch: u64,
    /// Delta edges folded into the rebuilt base.
    pub folded: usize,
    /// Residual delta edges (appends that raced the rebuild) carried over.
    pub remaining: usize,
    /// Wall-clock seconds of the commit section — the lock-held window in
    /// which the swap publishes (model build time excluded; the build runs
    /// outside every lock).
    pub publish_seconds: f64,
}

/// Ingest counters of one [`DeltaStore`] (or summed over an engine's
/// stores via [`crate::EngineStats::ingest`]). `appends`, `compactions`
/// and `epochs_published` are monotone; `delta_edges_live` is a gauge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Rating appends accepted.
    pub appends: u64,
    /// Distinct delta edges currently live (published + pending) — a
    /// gauge: [`IngestStats::since`] reports the *current* value, not a
    /// difference.
    pub delta_edges_live: u64,
    /// Compaction redeploys committed.
    pub compactions: u64,
    /// Epochs published (every publish and every compaction commit).
    pub epochs_published: u64,
}

impl IngestStats {
    /// Difference against an `earlier` snapshot: monotone counters diff
    /// (saturating), the `delta_edges_live` gauge passes through.
    pub fn since(&self, earlier: &IngestStats) -> IngestStats {
        IngestStats {
            appends: self.appends.saturating_sub(earlier.appends),
            delta_edges_live: self.delta_edges_live,
            compactions: self.compactions.saturating_sub(earlier.compactions),
            epochs_published: self
                .epochs_published
                .saturating_sub(earlier.epochs_published),
        }
    }

    /// Sum `other` into self (counters add; the gauge adds too, so an
    /// engine-wide roll-up reports total live edges across stores).
    pub(crate) fn merge(&mut self, other: &IngestStats) {
        self.appends += other.appends;
        self.delta_edges_live += other.delta_edges_live;
        self.compactions += other.compactions;
        self.epochs_published += other.epochs_published;
    }
}

/// The epoch-versioned streaming-ingest store for one registered model.
///
/// Construct with the dataset the model was built from, attach to an
/// engine with [`crate::EngineBuilder::ingest`], append ratings from any
/// thread, and run [`crate::Engine::compact_and_deploy`] periodically to
/// fold the delta into a rebuilt base. See the module docs for the epoch
/// protocol.
pub struct DeltaStore {
    state: Mutex<DeltaState>,
    config: DeltaConfig,
    /// Serializes compaction runs; queries and appends never take it.
    compaction: Mutex<()>,
}

impl DeltaStore {
    /// A store over `base` — the dataset the attached model was built
    /// from. Starts at epoch 0 over model version 1 (the build-time
    /// registration).
    pub fn new(base: Dataset, config: DeltaConfig) -> Self {
        assert!(config.publish_every > 0, "publish_every must be at least 1");
        let delta = Arc::new(EdgeDelta::new(base.n_users(), base.n_items()));
        Self {
            state: Mutex::new(DeltaState {
                base,
                delta,
                pending: Vec::new(),
                since_fold: Vec::new(),
                epoch: 0,
                base_version: 1,
                bases: vec![(0, 1)],
                appends: 0,
                compactions: 0,
            }),
            config,
            compaction: Mutex::new(()),
        }
    }

    /// Accept one rating append. O(1) amortized: the rating lands in the
    /// pending log; every `publish_every`-th append folds the log into the
    /// live delta and advances the epoch. Returns the epoch the append is
    /// visible at (the current epoch if it is still pending).
    ///
    /// # Panics
    ///
    /// Panics on a rating value that is not finite and positive (same
    /// contract as [`EdgeDelta::insert`]); the store is then untouched.
    pub fn append(&self, rating: DeltaRating) -> u64 {
        check_value(&rating);
        let mut state = self.state.lock();
        state.appends += 1;
        state.pending.push(rating);
        state.since_fold.push(rating);
        if state.pending.len() >= self.config.publish_every {
            self.publish_locked(&mut state)
        } else {
            state.epoch
        }
    }

    /// Force-fold the pending log into the live delta now, making every
    /// accepted append visible to queries. Returns the current epoch
    /// (bumped only if anything was actually pending).
    pub fn publish(&self) -> u64 {
        let mut state = self.state.lock();
        self.publish_locked(&mut state)
    }

    fn publish_locked(&self, state: &mut DeltaState) -> u64 {
        if state.pending.is_empty() {
            return state.epoch;
        }
        // Clone-and-swap keeps outstanding snapshots immutable: they hold
        // the old Arc, queries after this publish see the new one.
        let mut fresh = (*state.delta).clone();
        for r in state.pending.drain(..) {
            fresh.insert(r.user, r.item, r.value, r.timestamp);
        }
        state.delta = Arc::new(fresh);
        state.epoch += 1;
        state.epoch
    }

    /// Pin the store's current view: delta contents, their epoch, and the
    /// model version they overlay.
    pub fn snapshot(&self) -> DeltaSnapshot {
        self.state.lock().snapshot()
    }

    /// Pin an engine read: run `resolve` (the engine's version
    /// resolution) and take the snapshot in one critical section. A
    /// compaction commit publishes its model under the same lock, so the
    /// snapshot's `base_version` is the version `resolve` returned.
    pub(crate) fn pin<V>(&self, resolve: impl FnOnce() -> V) -> (V, DeltaSnapshot) {
        let state = self.state.lock();
        (resolve(), state.snapshot())
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.state.lock().epoch
    }

    /// The model version the current delta overlays.
    pub fn base_version(&self) -> u32 {
        self.state.lock().base_version
    }

    /// Whether the live delta has outgrown
    /// [`DeltaConfig::max_delta_edges`] — the compaction loop's trigger.
    pub fn needs_compaction(&self) -> bool {
        let state = self.state.lock();
        state.delta.n_edges() + state.pending.len() >= self.config.max_delta_edges
    }

    /// Every `(epoch, base_version)` pairing that was ever current,
    /// oldest first: each epoch from 0 to the current one, with the base
    /// it was published over. A response claiming `(version, epoch)` is
    /// torn iff the pair is absent here.
    pub fn epoch_log(&self) -> Vec<(u64, u32)> {
        let state = self.state.lock();
        let ends = state.bases.iter().skip(1).map(|&(first, _)| first);
        state
            .bases
            .iter()
            .zip(ends.chain([state.epoch + 1]))
            .flat_map(|(&(first, version), end)| (first..end).map(move |e| (e, version)))
            .collect()
    }

    /// Point-in-time ingest counters (see [`IngestStats`]).
    pub fn stats(&self) -> IngestStats {
        let state = self.state.lock();
        IngestStats {
            appends: state.appends,
            delta_edges_live: (state.delta.n_edges() + state.pending.len()) as u64,
            compactions: state.compactions,
            // Every publish and every commit advances the epoch by one
            // from 0, so the epoch counts them.
            epochs_published: state.epoch,
        }
    }

    /// Compaction phase 1 — the **fold**: publish everything pending, mark
    /// the fold point (appends after it become the residual), and return
    /// the union dataset to rebuild from plus the folded edge count.
    ///
    /// Called by [`crate::Engine::compact_and_deploy`] under the
    /// compaction guard; queries keep serving base + full delta while the
    /// caller rebuilds outside every lock.
    pub(crate) fn begin_compaction(&self) -> (Dataset, usize) {
        let mut state = self.state.lock();
        self.publish_locked(&mut state);
        state.since_fold.clear();
        let folded = state.delta.n_edges();
        (union_dataset(&state.base, &state.delta), folded)
    }

    /// Compaction phase 2 — the **commit**, under the store lock:
    /// `publish` hot-swaps the rebuilt model into its slot and returns its
    /// version; then the rebuilt base and a fresh residual delta (the
    /// appends that raced the rebuild) are swapped in and the epoch
    /// advances. Reads pin under the same lock, so none sees the new
    /// version without the new delta. Returns `(version, epoch,
    /// residual_edges)`.
    pub(crate) fn commit_compaction(
        &self,
        union: Dataset,
        publish: impl FnOnce() -> u32,
    ) -> (u32, u64, usize) {
        let mut state = self.state.lock();
        let version = publish();
        let mut residual = EdgeDelta::new(union.n_users(), union.n_items());
        for r in &state.since_fold {
            residual.insert(r.user, r.item, r.value, r.timestamp);
        }
        let remaining = residual.n_edges();
        state.base = union;
        state.delta = Arc::new(residual);
        state.pending.clear();
        state.base_version = version;
        state.epoch += 1;
        let entry = (state.epoch, version);
        state.bases.push(entry);
        state.compactions += 1;
        (version, state.epoch, remaining)
    }

    /// The compaction guard: [`crate::Engine::compact_and_deploy`] holds
    /// it for its whole run so concurrent compactions of one store
    /// serialize instead of double-folding.
    pub(crate) fn lock_for_compaction(&self) -> parking_lot::MutexGuard<'_, ()> {
        self.compaction.lock()
    }
}

/// The union of a base dataset and a delta: every rating of both, with
/// duplicate `(user, item)` pairs summed and their latest stamp kept —
/// exactly the merge semantics of [`longtail_core::OverlayGraph`], so a
/// model rebuilt from the union ranks identically to base + overlay.
fn union_dataset(base: &Dataset, delta: &EdgeDelta) -> Dataset {
    let n_users = base.n_users().max(delta.n_users());
    let n_items = base.n_items().max(delta.n_items());
    let mut ratings = base.to_timed_ratings();
    delta.for_each(|user, item, value, timestamp| {
        ratings.push(TimedRating {
            user,
            item,
            value,
            timestamp,
        });
    });
    Dataset::from_timed_ratings(n_users, n_items, &ratings)
}

/// The rating-value contract of [`EdgeDelta::insert`], checked before the
/// store is touched: a value must be finite and positive. An infinite
/// weight would pass a bare `> 0` test and turn the overlay's normalized
/// rows, and every walk reaching them, into NaN.
fn check_value(rating: &DeltaRating) {
    assert!(
        rating.value.is_finite() && rating.value > 0.0,
        "rating values must be finite and positive, got {}",
        rating.value
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use longtail_data::Rating;

    fn base() -> Dataset {
        let ratings = [
            Rating {
                user: 0,
                item: 0,
                value: 5.0,
            },
            Rating {
                user: 1,
                item: 0,
                value: 4.0,
            },
            Rating {
                user: 1,
                item: 1,
                value: 5.0,
            },
        ];
        Dataset::from_ratings(2, 2, &ratings)
    }

    fn rating(user: u32, item: u32, value: f64, timestamp: f64) -> DeltaRating {
        DeltaRating {
            user,
            item,
            value,
            timestamp,
        }
    }

    #[test]
    fn appends_batch_in_pending_until_publish() {
        let store = DeltaStore::new(
            base(),
            DeltaConfig {
                publish_every: 100,
                ..DeltaConfig::default()
            },
        );
        assert_eq!(store.append(rating(0, 1, 3.0, 10.0)), 0, "still pending");
        assert!(store.snapshot().delta.is_empty());
        assert_eq!(store.publish(), 1);
        let snap = store.snapshot();
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.delta.n_edges(), 1);
        // Publishing with nothing pending is a no-op epoch-wise.
        assert_eq!(store.publish(), 1);
    }

    #[test]
    fn auto_publish_fires_every_n_appends() {
        let store = DeltaStore::new(
            base(),
            DeltaConfig {
                publish_every: 2,
                ..DeltaConfig::default()
            },
        );
        assert_eq!(store.append(rating(0, 1, 3.0, 1.0)), 0);
        assert_eq!(store.append(rating(1, 0, 2.0, 2.0)), 1, "second fold");
        assert_eq!(store.snapshot().delta.n_edges(), 2);
    }

    #[test]
    fn snapshots_pin_their_epoch_across_later_publishes() {
        let store = DeltaStore::new(base(), DeltaConfig::default());
        store.append(rating(0, 1, 3.0, 1.0));
        store.publish();
        let pinned = store.snapshot();
        store.append(rating(1, 0, 2.0, 2.0));
        store.publish();
        assert_eq!(pinned.epoch, 1);
        assert_eq!(pinned.delta.n_edges(), 1, "pin is immutable");
        assert_eq!(store.snapshot().delta.n_edges(), 2);
    }

    #[test]
    fn needs_compaction_counts_pending_too() {
        let store = DeltaStore::new(
            base(),
            DeltaConfig {
                publish_every: 100,
                max_delta_edges: 2,
            },
        );
        assert!(!store.needs_compaction());
        store.append(rating(0, 1, 3.0, 1.0));
        store.append(rating(1, 0, 2.0, 2.0));
        assert!(store.needs_compaction());
    }

    #[test]
    fn stats_count_appends_publishes_and_live_edges() {
        let store = DeltaStore::new(base(), DeltaConfig::default());
        store.append(rating(0, 1, 3.0, 1.0));
        store.append(rating(1, 0, 2.0, 2.0));
        store.publish();
        let s = store.stats();
        assert_eq!(s.appends, 2);
        assert_eq!(s.delta_edges_live, 2);
        assert_eq!(s.epochs_published, 1);
        assert_eq!(s.compactions, 0);
        let later = {
            store.append(rating(0, 1, 1.0, 3.0));
            store.stats()
        };
        let diff = later.since(&s);
        assert_eq!(diff.appends, 1);
        // Gauge semantics: the current live count, not a difference. The
        // re-rated pair collapses into the existing edge only at publish.
        assert_eq!(diff.delta_edges_live, 3);
    }

    #[test]
    fn union_dataset_sums_duplicates_and_keeps_latest_stamp() {
        let mut delta = EdgeDelta::new(2, 2);
        delta.insert(0, 0, 2.0, 50.0);
        delta.insert(1, 2, 5.0, 7.0); // new item grows the dims
        let union = union_dataset(&base(), &delta);
        assert_eq!(union.n_users(), 2);
        assert_eq!(union.n_items(), 3);
        let v = union.ratings_of(0).find(|&(i, _)| i == 0).unwrap().1;
        assert_eq!(v, 7.0, "base 5 + delta 2");
        assert_eq!(union.times().unwrap().get(0, 0), Some(50.0));
    }

    #[test]
    fn compaction_folds_then_commits_with_residual() {
        let store = DeltaStore::new(
            base(),
            DeltaConfig {
                publish_every: 100,
                ..DeltaConfig::default()
            },
        );
        store.append(rating(0, 1, 3.0, 1.0));
        let (union, folded) = store.begin_compaction();
        assert_eq!(folded, 1);
        assert_eq!(union.n_ratings(), 4);
        // An append racing the rebuild becomes the residual.
        store.append(rating(1, 0, 2.0, 2.0));
        let (version, epoch, remaining) = store.commit_compaction(union, || 2);
        assert_eq!(version, 2);
        assert_eq!(remaining, 1);
        assert_eq!(store.base_version(), 2);
        let snap = store.snapshot();
        assert_eq!(snap.epoch, epoch);
        assert_eq!(snap.base_version, 2);
        assert_eq!(snap.delta.n_edges(), 1, "only the racing append remains");
        let log = store.epoch_log();
        assert!(log.contains(&(epoch, 2)));
        assert_eq!(store.stats().compactions, 1);
    }

    #[test]
    fn epoch_log_retains_one_entry_per_base() {
        let store = DeltaStore::new(
            base(),
            DeltaConfig {
                publish_every: 1,
                ..DeltaConfig::default()
            },
        );
        let mut want = vec![(0, 1)];
        let mut version = 1;
        for i in 0..1000u32 {
            if i == 400 || i == 700 {
                let (union, _) = store.begin_compaction();
                version += 1;
                let (_, epoch, _) = store.commit_compaction(union, || version);
                want.push((epoch, version));
            }
            let epoch = store.append(rating(i % 2, (i / 2) % 2, 1.0, i as f64));
            want.push((epoch, version));
        }
        assert_eq!(
            want.len(),
            1003,
            "1000 publishes and 2 commits after epoch 0"
        );
        assert_eq!(store.epoch_log(), want);
        assert_eq!(store.state.lock().bases.len(), 3, "one entry per base");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_values_are_rejected() {
        DeltaStore::new(base(), DeltaConfig::default()).append(rating(0, 0, 0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinite_values_are_rejected() {
        DeltaStore::new(base(), DeltaConfig::default()).append(rating(0, 0, f64::INFINITY, 0.0));
    }

    #[test]
    fn a_rejected_rating_leaves_the_store_untouched() {
        for bad in [f64::INFINITY, 0.0] {
            let store = DeltaStore::new(base(), DeltaConfig::default());
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                store.append(rating(1, 1, bad, 2.0))
            }));
            assert!(outcome.is_err(), "value {bad} must be rejected");
            assert_eq!(store.publish(), 0, "value {bad}: nothing was pending");
            assert!(store.snapshot().delta.is_empty(), "value {bad}");
            let stats = store.stats();
            assert_eq!(stats.appends, 0, "value {bad}: no append counted");
            assert_eq!(stats.delta_edges_live, 0, "value {bad}");
        }
    }
}
