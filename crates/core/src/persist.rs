//! Model persistence: the [`Persistable`] capability that saves every
//! recommender family's trained state into the versioned, checksummed
//! binary snapshot format of [`longtail_graph::snapshot`] and loads it
//! back — bit-identically.
//!
//! The contract is *rankings survive the round trip*: for every family,
//! `load(save(model))` serves the same scores (and therefore the same
//! ranked lists) as the original, bit for bit. Two strategies get there:
//!
//! * **Deterministic rebuild** — families whose trained state is a pure,
//!   deterministic function of the rating matrix (HT, AT, PageRank,
//!   popularity) persist the `CsrMatrix` plus their configuration and
//!   re-derive the rest on load. Re-derivation is O(ratings), not
//!   O(training), so the restart-without-retrain property holds. The walk
//!   families (HT, AT, AC) also persist the graph's timestamp matrix when
//!   it has one, since recency-decayed serving reads it.
//! * **Verbatim state** — families whose training is expensive or seeded
//!   (kNN's quadratic neighbor search, rule mining, the randomized SVD
//!   sketch, collapsed-Gibbs LDA, AC2's topic entropies) persist the
//!   trained arrays themselves and restore them without recomputation.
//!
//! Each family declares a `KIND` tag and a `STATE_VERSION`; loading a
//! snapshot of the wrong family or schema version fails with the matching
//! typed [`SnapshotError`], as does any corrupt, truncated, or
//! structurally invalid payload — never a panic.

use crate::recommenders::{
    AbsorbingCostRecommender, AbsorbingTimeRecommender, AssociationRuleRecommender, EntropySource,
    HittingTimeRecommender, KnnRecommender, LdaRecommender, PageRankFlavor, PageRankRecommender,
    PopularityRecommender, PureSvdRecommender,
};
use crate::{AbsorbingCostConfig, GraphRecConfig, Recommender};
use longtail_data::Dataset;
use longtail_graph::snapshot::{Snapshot, SnapshotError, SnapshotWriter};
use longtail_graph::{BipartiteGraph, CsrMatrix};
use longtail_markov::PageRankConfig;
use longtail_topics::LdaModel;
use std::path::Path;

/// A recommender whose trained state can be saved to and restored from the
/// binary snapshot format, with bit-identical rankings after the round
/// trip.
///
/// Implementors provide the two section-level hooks
/// ([`Persistable::save_into`] / [`Persistable::load_from`]); the provided
/// methods handle the container — header, kind and state-version checks,
/// bytes and files.
pub trait Persistable: Recommender + Sized {
    /// Model-family tag recorded in the snapshot header (e.g. `"HT"`).
    const KIND: &'static str;
    /// Per-family schema version of the persisted sections; bumped whenever
    /// the section layout changes incompatibly.
    const STATE_VERSION: u32;

    /// Write this model's sections into `w`.
    fn save_into(&self, w: &mut SnapshotWriter);

    /// Reassemble a model from the sections of a parsed snapshot whose kind
    /// and state version have already been verified.
    fn load_from(snap: &Snapshot) -> Result<Self, SnapshotError>;

    /// Serialize to the complete snapshot byte layout.
    fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new(Self::KIND, Self::STATE_VERSION);
        self.save_into(&mut w);
        w.to_bytes()
    }

    /// Load from a parsed snapshot, verifying it holds this family at this
    /// state version first.
    fn from_snapshot(snap: &Snapshot) -> Result<Self, SnapshotError> {
        if snap.kind() != Self::KIND {
            return Err(SnapshotError::KindMismatch {
                expected: Self::KIND,
                found: snap.kind().to_string(),
            });
        }
        if snap.state_version() != Self::STATE_VERSION {
            return Err(SnapshotError::StateVersionMismatch {
                kind: Self::KIND.to_string(),
                found: snap.state_version(),
                supported: Self::STATE_VERSION,
            });
        }
        Self::load_from(snap)
    }

    /// Parse `bytes` as a snapshot and load this family from it.
    fn load_from_bytes(bytes: Vec<u8>) -> Result<Self, SnapshotError> {
        Self::from_snapshot(&Snapshot::from_bytes(bytes)?)
    }

    /// Serialize and write the snapshot to `path`.
    fn save_to_file(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        let mut w = SnapshotWriter::new(Self::KIND, Self::STATE_VERSION);
        self.save_into(&mut w);
        w.write_to_file(path)
    }

    /// Read, parse, and load a snapshot file.
    fn load_from_file(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        Self::from_snapshot(&Snapshot::read_from_file(path)?)
    }
}

fn invalid(section: &str, reason: String) -> SnapshotError {
    SnapshotError::InvalidSection {
        section: section.to_string(),
        reason,
    }
}

/// Read a section expected to hold exactly `N` `u64`s.
fn u64_array<const N: usize>(snap: &Snapshot, name: &str) -> Result<[u64; N], SnapshotError> {
    let vals = snap.u64s(name)?;
    <[u64; N]>::try_from(vals.as_slice()).map_err(|_| {
        invalid(
            name,
            format!("expected {N} element(s), found {}", vals.len()),
        )
    })
}

/// Read a section expected to hold exactly `N` `f64`s.
fn f64_array<const N: usize>(snap: &Snapshot, name: &str) -> Result<[f64; N], SnapshotError> {
    let vals = snap.f64s(name)?;
    <[f64; N]>::try_from(vals.as_slice()).map_err(|_| {
        invalid(
            name,
            format!("expected {N} element(s), found {}", vals.len()),
        )
    })
}

/// Persist a jagged list of `(u32, f64)` rows (kNN neighbor lists, rule
/// lists) as three flat sections: `{prefix}.ptr`, `{prefix}.ids`,
/// `{prefix}.weights`.
fn save_jagged(w: &mut SnapshotWriter, prefix: &str, lists: &[Vec<(u32, f64)>]) {
    let total: usize = lists.iter().map(Vec::len).sum();
    let mut ptr = Vec::with_capacity(lists.len() + 1);
    let mut ids = Vec::with_capacity(total);
    let mut weights = Vec::with_capacity(total);
    ptr.push(0u64);
    for list in lists {
        for &(id, weight) in list {
            ids.push(id);
            weights.push(weight);
        }
        ptr.push(ids.len() as u64);
    }
    w.put_u64s(&format!("{prefix}.ptr"), &ptr);
    w.put_u32s(&format!("{prefix}.ids"), &ids);
    w.put_f64s(&format!("{prefix}.weights"), &weights);
}

/// Load a jagged list written by [`save_jagged`], expecting exactly `n`
/// rows whose ids stay below `id_bound`.
fn load_jagged(
    snap: &Snapshot,
    prefix: &str,
    n: usize,
    id_bound: usize,
) -> Result<Vec<Vec<(u32, f64)>>, SnapshotError> {
    let ptr_name = format!("{prefix}.ptr");
    let ptr = snap.usizes(&ptr_name)?;
    let ids = snap.u32s(&format!("{prefix}.ids"))?;
    let weights = snap.f64s(&format!("{prefix}.weights"))?;
    if ptr.len() != n + 1 {
        return Err(invalid(
            &ptr_name,
            format!("length {} != expected {} rows + 1", ptr.len(), n),
        ));
    }
    if ptr[0] != 0 || ptr.windows(2).any(|w| w[0] > w[1]) {
        return Err(invalid(
            &ptr_name,
            "pointers must start at 0 and be non-decreasing".to_string(),
        ));
    }
    let total = *ptr.last().unwrap();
    if ids.len() != total || weights.len() != total {
        return Err(invalid(
            &format!("{prefix}.ids"),
            format!(
                "pointers promise {total} entries, found {} ids / {} weights",
                ids.len(),
                weights.len()
            ),
        ));
    }
    if let Some(&bad) = ids.iter().find(|&&id| id as usize >= id_bound) {
        return Err(invalid(
            &format!("{prefix}.ids"),
            format!("id {bad} out of bounds ({id_bound})"),
        ));
    }
    Ok((0..n)
        .map(|r| {
            ids[ptr[r]..ptr[r + 1]]
                .iter()
                .copied()
                .zip(weights[ptr[r]..ptr[r + 1]].iter().copied())
                .collect()
        })
        .collect())
}

/// Shared load prologue: rating matrix → dataset.
fn load_dataset(snap: &Snapshot) -> Result<Dataset, SnapshotError> {
    Ok(Dataset::from_matrix(CsrMatrix::load_from(snap, "ratings")?))
}

/// Save a walk model's training graph — the rating matrix plus, when the
/// graph carries them, its per-edge timestamps, which recency-decayed
/// serving reads — and its μ/τ configuration.
fn save_walk(w: &mut SnapshotWriter, graph: &BipartiteGraph, config: GraphRecConfig) {
    graph.user_items().save_into(w, "ratings");
    if let Some(times) = graph.user_item_times() {
        times.save_into(w, "times");
    }
    w.put_u64s(
        "config",
        &[config.max_items as u64, config.iterations as u64],
    );
}

/// Load what [`save_walk`] wrote. A snapshot without a timestamp section
/// loads an untimed graph; timestamps shaped unlike the ratings are an
/// invalid section.
fn load_walk(snap: &Snapshot) -> Result<(Dataset, GraphRecConfig), SnapshotError> {
    let ratings = CsrMatrix::load_from(snap, "ratings")?;
    let train = if snap.section_names().contains(&"times.dims") {
        let times = CsrMatrix::load_from(snap, "times")?;
        if !times.same_structure(&ratings) {
            return Err(invalid(
                "times",
                "timestamp matrix structure differs from the rating matrix".to_string(),
            ));
        }
        Dataset::from_matrix_with_times(ratings, times)
    } else {
        Dataset::from_matrix(ratings)
    };
    let [max_items, iterations] = u64_array(snap, "config")?;
    let config = GraphRecConfig {
        max_items: max_items as usize,
        iterations: iterations as usize,
    };
    Ok((train, config))
}

impl Persistable for HittingTimeRecommender {
    const KIND: &'static str = "HT";
    const STATE_VERSION: u32 = 1;

    fn save_into(&self, w: &mut SnapshotWriter) {
        save_walk(w, self.graph(), self.config());
    }

    fn load_from(snap: &Snapshot) -> Result<Self, SnapshotError> {
        let (train, config) = load_walk(snap)?;
        Ok(Self::new(&train, config))
    }
}

impl Persistable for AbsorbingTimeRecommender {
    const KIND: &'static str = "AT";
    const STATE_VERSION: u32 = 1;

    fn save_into(&self, w: &mut SnapshotWriter) {
        save_walk(w, self.graph(), self.config());
    }

    fn load_from(snap: &Snapshot) -> Result<Self, SnapshotError> {
        let (train, config) = load_walk(snap)?;
        Ok(Self::new(&train, config))
    }
}

impl Persistable for AbsorbingCostRecommender {
    const KIND: &'static str = "AC";
    const STATE_VERSION: u32 = 1;

    fn save_into(&self, w: &mut SnapshotWriter) {
        let config = self.config();
        save_walk(w, self.graph(), config.graph);
        w.put_f64s("item_entry_cost", &[config.item_entry_cost]);
        // The entropies are trained state: AC2's come from an LDA model
        // that is not persisted, so both variants restore them verbatim.
        w.put_f64s("user_entropy", self.user_entropies());
        let source = match self.entropy_source() {
            EntropySource::ItemBased => 0,
            EntropySource::TopicBased => 1,
        };
        w.put_u32s("entropy_source", &[source]);
    }

    fn load_from(snap: &Snapshot) -> Result<Self, SnapshotError> {
        let (train, graph_config) = load_walk(snap)?;
        let [item_entry_cost] = f64_array(snap, "item_entry_cost")?;
        let user_entropy = snap.f64s("user_entropy")?;
        if user_entropy.len() != train.n_users() {
            return Err(invalid(
                "user_entropy",
                format!("length {} != {} users", user_entropy.len(), train.n_users()),
            ));
        }
        let source = match snap.u32s("entropy_source")?.as_slice() {
            [0] => EntropySource::ItemBased,
            [1] => EntropySource::TopicBased,
            other => {
                return Err(invalid(
                    "entropy_source",
                    format!("expected [0] or [1], found {other:?}"),
                ))
            }
        };
        Ok(Self::from_parts(
            train.to_graph(),
            user_entropy,
            source,
            AbsorbingCostConfig {
                graph: graph_config,
                item_entry_cost,
            },
        ))
    }
}

impl Persistable for PageRankRecommender {
    const KIND: &'static str = "PR";
    const STATE_VERSION: u32 = 1;

    fn save_into(&self, w: &mut SnapshotWriter) {
        self.user_items().save_into(w, "ratings");
        let flavor = match self.flavor() {
            PageRankFlavor::Plain => 0,
            PageRankFlavor::Discounted => 1,
        };
        w.put_u32s("flavor", &[flavor]);
        let config = self.config();
        w.put_f64s("config.real", &[config.damping, config.tolerance]);
        w.put_u64s("config.max_iterations", &[config.max_iterations as u64]);
    }

    fn load_from(snap: &Snapshot) -> Result<Self, SnapshotError> {
        let train = load_dataset(snap)?;
        let flavor = match snap.u32s("flavor")?.as_slice() {
            [0] => PageRankFlavor::Plain,
            [1] => PageRankFlavor::Discounted,
            other => {
                return Err(invalid(
                    "flavor",
                    format!("expected [0] or [1], found {other:?}"),
                ))
            }
        };
        let [damping, tolerance] = f64_array(snap, "config.real")?;
        let [max_iterations] = u64_array(snap, "config.max_iterations")?;
        // The kernel and popularity vector are deterministic functions of
        // the rating matrix; `new` re-derives them in O(ratings).
        Ok(Self::new(
            &train,
            flavor,
            PageRankConfig {
                damping,
                tolerance,
                max_iterations: max_iterations as usize,
            },
        ))
    }
}

impl Persistable for PopularityRecommender {
    const KIND: &'static str = "POP";
    const STATE_VERSION: u32 = 1;

    fn save_into(&self, w: &mut SnapshotWriter) {
        self.user_items().save_into(w, "ratings");
    }

    fn load_from(snap: &Snapshot) -> Result<Self, SnapshotError> {
        // Counts and the popularity order are deterministic (count desc,
        // id asc), so the matrix alone reproduces the model exactly.
        Ok(Self::train(&load_dataset(snap)?))
    }
}

impl Persistable for KnnRecommender {
    const KIND: &'static str = "KNN";
    const STATE_VERSION: u32 = 1;

    fn save_into(&self, w: &mut SnapshotWriter) {
        self.user_items().save_into(w, "ratings");
        save_jagged(w, "neighbors", self.neighbor_lists());
    }

    fn load_from(snap: &Snapshot) -> Result<Self, SnapshotError> {
        let ratings = CsrMatrix::load_from(snap, "ratings")?;
        let neighbors = load_jagged(snap, "neighbors", ratings.rows(), ratings.rows())?;
        Ok(Self::from_parts(ratings, neighbors))
    }
}

impl Persistable for AssociationRuleRecommender {
    const KIND: &'static str = "RULES";
    const STATE_VERSION: u32 = 1;

    fn save_into(&self, w: &mut SnapshotWriter) {
        self.user_items().save_into(w, "ratings");
        save_jagged(w, "rules", self.rule_lists());
    }

    fn load_from(snap: &Snapshot) -> Result<Self, SnapshotError> {
        let ratings = CsrMatrix::load_from(snap, "ratings")?;
        let rules = load_jagged(snap, "rules", ratings.cols(), ratings.cols())?;
        Ok(Self::from_parts(ratings, rules))
    }
}

impl Persistable for PureSvdRecommender {
    const KIND: &'static str = "SVD";
    const STATE_VERSION: u32 = 1;

    fn save_into(&self, w: &mut SnapshotWriter) {
        self.user_items().save_into(w, "ratings");
        // The factor basis of a randomized SVD depends on the sketch; it
        // must be restored bit-exactly, not re-derived.
        w.put_f64s("item_factors", self.item_factors_flat());
        w.put_u64s("rank", &[self.rank() as u64]);
    }

    fn load_from(snap: &Snapshot) -> Result<Self, SnapshotError> {
        let ratings = CsrMatrix::load_from(snap, "ratings")?;
        let [rank] = u64_array(snap, "rank")?;
        let rank = rank as usize;
        let item_factors = snap.f64s("item_factors")?;
        if item_factors.len() != ratings.cols() * rank {
            return Err(invalid(
                "item_factors",
                format!(
                    "length {} != {} items x rank {rank}",
                    item_factors.len(),
                    ratings.cols()
                ),
            ));
        }
        Ok(Self::from_parts(ratings, item_factors, rank))
    }
}

impl Persistable for LdaRecommender {
    const KIND: &'static str = "LDA";
    const STATE_VERSION: u32 = 1;

    fn save_into(&self, w: &mut SnapshotWriter) {
        self.user_items().save_into(w, "ratings");
        let model = self.model();
        w.put_u64s("n_topics", &[model.n_topics() as u64]);
        w.put_f64s("theta", model.theta_flat());
        w.put_f64s("phi", model.phi_flat());
        w.put_f64s("log_likelihood", model.log_likelihood_trace());
    }

    fn load_from(snap: &Snapshot) -> Result<Self, SnapshotError> {
        let ratings = CsrMatrix::load_from(snap, "ratings")?;
        let [n_topics] = u64_array(snap, "n_topics")?;
        let n_topics = n_topics as usize;
        if n_topics == 0 {
            return Err(invalid(
                "n_topics",
                "a model needs at least one topic".into(),
            ));
        }
        let theta = snap.f64s("theta")?;
        let phi = snap.f64s("phi")?;
        let log_likelihood = snap.f64s("log_likelihood")?;
        if ratings.rows().checked_mul(n_topics) != Some(theta.len()) {
            return Err(invalid(
                "theta",
                format!(
                    "length {} != {} users x {n_topics} topics",
                    theta.len(),
                    ratings.rows()
                ),
            ));
        }
        if n_topics.checked_mul(ratings.cols()) != Some(phi.len()) {
            return Err(invalid(
                "phi",
                format!(
                    "length {} != {n_topics} topics x {} items",
                    phi.len(),
                    ratings.cols()
                ),
            ));
        }
        let model = LdaModel::from_parts(
            n_topics,
            ratings.rows(),
            ratings.cols(),
            theta,
            phi,
            log_likelihood,
        );
        Ok(Self::from_model(&Dataset::from_matrix(ratings), model))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use longtail_data::Rating;

    fn tiny_dataset() -> Dataset {
        let ratings: Vec<Rating> = [
            (0, 0, 5.0),
            (0, 1, 4.0),
            (0, 2, 3.0),
            (1, 1, 5.0),
            (1, 2, 4.0),
            (1, 3, 2.0),
            (2, 0, 1.0),
            (2, 3, 5.0),
            (2, 4, 4.0),
            (3, 2, 2.0),
            (3, 4, 5.0),
        ]
        .iter()
        .map(|&(user, item, value)| Rating { user, item, value })
        .collect();
        Dataset::from_ratings(4, 5, &ratings)
    }

    fn assert_round_trip<R: Persistable>(model: &R) {
        let bytes = model.to_snapshot_bytes();
        let back = R::load_from_bytes(bytes).unwrap();
        for user in 0..4u32 {
            let original = model.recommend(user, 5);
            let reloaded = back.recommend(user, 5);
            assert_eq!(original.len(), reloaded.len(), "user {user}");
            for (a, b) in original.iter().zip(&reloaded) {
                assert_eq!(a.item, b.item, "user {user}");
                assert_eq!(
                    a.score.to_bits(),
                    b.score.to_bits(),
                    "user {user}: scores must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn every_family_round_trips_bit_identically() {
        let train = tiny_dataset();
        let config = GraphRecConfig {
            max_items: 10,
            iterations: 8,
        };
        assert_round_trip(&HittingTimeRecommender::new(&train, config));
        assert_round_trip(&AbsorbingTimeRecommender::new(&train, config));
        let ac_config = AbsorbingCostConfig {
            graph: config,
            item_entry_cost: 1.0,
        };
        assert_round_trip(&AbsorbingCostRecommender::item_entropy(&train, ac_config));
        assert_round_trip(&AbsorbingCostRecommender::topic_entropy_auto(
            &train, 2, ac_config,
        ));
        assert_round_trip(&PageRankRecommender::plain(&train));
        assert_round_trip(&PageRankRecommender::discounted(&train));
        assert_round_trip(&PopularityRecommender::train(&train));
        assert_round_trip(&KnnRecommender::train(
            &train,
            2,
            crate::recommenders::UserSimilarity::Cosine,
        ));
        assert_round_trip(&AssociationRuleRecommender::train(
            &train,
            &crate::recommenders::RuleConfig {
                min_support: 1,
                min_confidence: 0.0,
            },
        ));
        assert_round_trip(&PureSvdRecommender::train(&train, 2));
        assert_round_trip(&LdaRecommender::train(&train, 2));
    }

    #[test]
    fn kind_and_state_version_mismatches_are_typed() {
        let train = tiny_dataset();
        let pop = PopularityRecommender::train(&train);
        let bytes = pop.to_snapshot_bytes();
        assert!(matches!(
            KnnRecommender::load_from_bytes(bytes),
            Err(SnapshotError::KindMismatch {
                expected: "KNN",
                ..
            })
        ));
        // Wrong state version: re-wrap the same sections under a bumped one.
        let mut w = SnapshotWriter::new("POP", 999);
        pop.save_into(&mut w);
        assert!(matches!(
            PopularityRecommender::load_from_bytes(w.to_bytes()),
            Err(SnapshotError::StateVersionMismatch { found: 999, .. })
        ));
    }

    #[test]
    fn structurally_invalid_payloads_fail_typed() {
        let train = tiny_dataset();
        // Neighbor id out of bounds.
        let knn = KnnRecommender::train(&train, 2, crate::recommenders::UserSimilarity::Cosine);
        let mut w = SnapshotWriter::new("KNN", 1);
        knn.user_items().save_into(&mut w, "ratings");
        save_jagged(
            &mut w,
            "neighbors",
            &[vec![(99, 1.0)], vec![], vec![], vec![]],
        );
        assert!(matches!(
            KnnRecommender::load_from_bytes(w.to_bytes()),
            Err(SnapshotError::InvalidSection { .. })
        ));
        // SVD factor matrix with the wrong length.
        let svd = PureSvdRecommender::train(&train, 2);
        let mut w = SnapshotWriter::new("SVD", 1);
        svd.user_items().save_into(&mut w, "ratings");
        w.put_f64s("item_factors", &[1.0, 2.0, 3.0]);
        w.put_u64s("rank", &[2]);
        assert!(matches!(
            PureSvdRecommender::load_from_bytes(w.to_bytes()),
            Err(SnapshotError::InvalidSection { .. })
        ));
        // Missing section.
        let mut w = SnapshotWriter::new("POP", 1);
        w.put_u64s("unrelated", &[1]);
        assert!(matches!(
            PopularityRecommender::load_from_bytes(w.to_bytes()),
            Err(SnapshotError::MissingSection(_))
        ));
        // A rating matrix declaring a catalog beyond the u32 id space, with
        // a valid checksum: HT would panic transposing it and POP would
        // overflow sizing its counts, unless the load rejects it first.
        let hostile = |kind: &str| {
            let mut w = SnapshotWriter::new(kind, 1);
            w.put_u64s("ratings.dims", &[2, u64::MAX]);
            w.put_u64s("ratings.row_ptr", &[0, 1, 1]);
            w.put_u32s("ratings.col_idx", &[0]);
            w.put_f64s("ratings.values", &[5.0]);
            w.put_u64s("config", &[10, 5]);
            w.to_bytes()
        };
        assert!(matches!(
            HittingTimeRecommender::load_from_bytes(hostile("HT")),
            Err(SnapshotError::InvalidSection { .. })
        ));
        assert!(matches!(
            PopularityRecommender::load_from_bytes(hostile("POP")),
            Err(SnapshotError::InvalidSection { .. })
        ));
        // LDA topic counts whose θ and φ sizes overflow, or that declare no
        // topic: empty θ and φ must not pass for a model of that size.
        for n_topics in [1u64 << 63, 0] {
            let mut w = SnapshotWriter::new("LDA", 1);
            train.user_items().save_into(&mut w, "ratings");
            w.put_u64s("n_topics", &[n_topics]);
            w.put_f64s("theta", &[]);
            w.put_f64s("phi", &[]);
            w.put_f64s("log_likelihood", &[]);
            assert!(
                matches!(
                    LdaRecommender::load_from_bytes(w.to_bytes()),
                    Err(SnapshotError::InvalidSection { .. })
                ),
                "n_topics = {n_topics}"
            );
        }
    }

    #[test]
    fn file_round_trip_reports_io_errors() {
        let train = tiny_dataset();
        let pop = PopularityRecommender::train(&train);
        let dir = std::env::temp_dir().join("longtail_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pop.snap");
        pop.save_to_file(&path).unwrap();
        let back = PopularityRecommender::load_from_file(&path).unwrap();
        assert_eq!(back.recommend(0, 3), pop.recommend(0, 3));
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            PopularityRecommender::load_from_file(&path),
            Err(SnapshotError::Io(_))
        ));
    }
}
