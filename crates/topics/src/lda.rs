//! LDA over user-item rating counts, trained by collapsed Gibbs sampling.
//!
//! §4.2.3 of the paper learns users' latent tastes from nothing but the
//! rating matrix: each user is a "document" in which rated item `i` occurs
//! `w(u, i)` times (the rating value acts as a frequency count). Topics then
//! align with genres — Table 1 shows a Children's/Animation topic and an
//! Action topic recovered this way. The trained model serves two purposes:
//!
//! * the **topic-based user entropy** of Eq. 11, which drives the AC2
//!   recommender;
//! * the **LDA recommender baseline** of §5.1.1, scoring items by
//!   `Σ_z θ̂_u[z] · φ̂_z[i]`.
//!
//! The sampler is the standard collapsed Gibbs update of Eq. 12 (Griffiths &
//! Steyvers 2004), with the count arrays `N1..N4` of Algorithm 2:
//!
//! * the topic–item counts are stored item-major (`[item * K + z]`), so a
//!   token reads its `K` counts as one slice, and each topic's denominator
//!   `n_z + NI·β` is cached and refreshed only for the two topics a token
//!   leaves and joins;
//! * each sweep's log-likelihood is computed from the posterior means, one
//!   `ln p(i|u)` per rated (user, item) pair, added once per token;
//! * token topics are stored as `u16`, so a model has at most 65,536
//!   topics.

use longtail_graph::CsrMatrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Most topics a model can have: token topics are stored as `u16`.
const MAX_TOPICS: usize = 1 << 16;

/// Hyper-parameters of the Gibbs-sampled LDA model.
#[derive(Debug, Clone, Copy)]
pub struct LdaConfig {
    /// Number of latent topics `K`.
    pub n_topics: usize,
    /// Dirichlet prior on per-user topic distributions. The paper's default
    /// is `50 / K`.
    pub alpha: f64,
    /// Dirichlet prior on per-topic item distributions. The paper's default
    /// is `0.1`.
    pub beta: f64,
    /// Number of full Gibbs sweeps over all tokens.
    pub iterations: usize,
    /// RNG seed (the sampler is deterministic given the seed).
    pub seed: u64,
}

impl LdaConfig {
    /// The paper's defaults for `K` topics: `α = 50/K`, `β = 0.1`.
    pub fn with_topics(n_topics: usize) -> Self {
        assert!(n_topics > 0, "need at least one topic");
        Self {
            n_topics,
            alpha: 50.0 / n_topics as f64,
            beta: 0.1,
            iterations: 100,
            seed: 0x10da_10da,
        }
    }
}

/// A trained LDA model: smoothed posterior estimates of the per-user topic
/// mixtures `θ` (Eq. 14) and per-topic item distributions `φ` (Eq. 13).
#[derive(Debug, Clone)]
pub struct LdaModel {
    n_topics: usize,
    n_users: usize,
    n_items: usize,
    /// Row-major `n_users x n_topics`, rows sum to 1.
    theta: Vec<f64>,
    /// Row-major `n_topics x n_items`, rows sum to 1.
    phi: Vec<f64>,
    /// Per-sweep corpus log-likelihood (up to a constant), for convergence
    /// inspection.
    log_likelihood: Vec<f64>,
}

impl LdaModel {
    /// Train on a user→item count matrix (ratings act as integer counts;
    /// fractional weights are rounded half-up, zero-weight entries emit no
    /// tokens).
    ///
    /// # Panics
    ///
    /// Panics if `n_topics` is outside `1..=65_536`, if `alpha` or `beta` is
    /// not finite and positive, if `alpha · n_topics` or `beta · n_items`
    /// overflows, or if the matrix has no positive entries.
    pub fn train(counts: &CsrMatrix, config: &LdaConfig) -> Self {
        let k = config.n_topics;
        assert!(
            (1..=MAX_TOPICS).contains(&k),
            "LdaConfig::n_topics must be in 1..={MAX_TOPICS}, got {k}"
        );
        for (name, prior) in [("alpha", config.alpha), ("beta", config.beta)] {
            assert!(
                prior.is_finite() && prior > 0.0,
                "LdaConfig::{name} must be finite and positive, got {prior}"
            );
        }
        let n_users = counts.rows();
        let n_items = counts.cols();
        // Eqs. 12–14 divide by `α·K` and `β·|I|`: an infinite sum would
        // zero every θ entry or every sampling weight.
        let alpha_sum = config.alpha * k as f64;
        let beta_sum = config.beta * n_items as f64;
        assert!(
            alpha_sum.is_finite(),
            "LdaConfig::alpha · n_topics must be finite, got {:e} · {k}",
            config.alpha
        );
        assert!(
            beta_sum.is_finite(),
            "LdaConfig::beta · n_items must be finite, got {:e} · {n_items}",
            config.beta
        );

        // Expand the sparse counts into a token stream. `doc_ptr` delimits
        // each user's tokens, exactly like CSR row pointers.
        let mut token_item: Vec<u32> = Vec::new();
        let mut doc_ptr: Vec<usize> = Vec::with_capacity(n_users + 1);
        doc_ptr.push(0);
        for u in 0..n_users {
            for (i, w) in counts.iter_row(u) {
                token_item.extend(std::iter::repeat_n(i, tokens(w)));
            }
            doc_ptr.push(token_item.len());
        }
        let n_tokens = token_item.len();
        assert!(n_tokens > 0, "count matrix has no positive entries");

        let mut rng = StdRng::seed_from_u64(config.seed);
        let alpha = config.alpha;
        let beta = config.beta;

        // Count arrays (Algorithm 2's N1..N4): item-topic (item-major),
        // user-topic and topic totals. Per-user totals are implicit in
        // doc_ptr.
        let mut n_item_topic = vec![0u32; n_items * k];
        let mut n_user_topic = vec![0u32; n_users * k];
        let mut n_topic = vec![0u32; k];
        let mut token_topic: Vec<u16> = Vec::with_capacity(n_tokens);

        // Random initialization (Algorithm 2, step 2).
        for u in 0..n_users {
            for &item in &token_item[doc_ptr[u]..doc_ptr[u + 1]] {
                let z = rng.random_range(0..k);
                token_topic.push(z as u16);
                n_item_topic[item as usize * k + z] += 1;
                n_user_topic[u * k + z] += 1;
                n_topic[z] += 1;
            }
        }
        // Eq. 12's topic denominators `n_z + NI·β`, refreshed whenever
        // `n_z` moves.
        let mut denom: Vec<f64> = n_topic.iter().map(|&n| n as f64 + beta_sum).collect();

        let mut model = Self {
            n_topics: k,
            n_users,
            n_items,
            theta: vec![0.0; n_users * k],
            phi: vec![0.0; k * n_items],
            log_likelihood: Vec::with_capacity(config.iterations),
        };
        // Posterior means: Eq. 13 for φ, Eq. 14 for θ.
        let posterior =
            |model: &mut Self, n_item_topic: &[u32], n_user_topic: &[u32], denom: &[f64]| {
                for z in 0..k {
                    for i in 0..n_items {
                        model.phi[z * n_items + i] =
                            (n_item_topic[i * k + z] as f64 + beta) / denom[z];
                    }
                }
                for u in 0..n_users {
                    let doc_len = (doc_ptr[u + 1] - doc_ptr[u]) as f64;
                    let denom = doc_len + alpha_sum;
                    for z in 0..k {
                        model.theta[u * k + z] = (n_user_topic[u * k + z] as f64 + alpha) / denom;
                    }
                }
            };

        let mut weights = vec![0.0f64; k];
        for _sweep in 0..config.iterations {
            for u in 0..n_users {
                let span = doc_ptr[u]..doc_ptr[u + 1];
                let user = &mut n_user_topic[u * k..(u + 1) * k];
                for (&i, topic) in token_item[span.clone()].iter().zip(&mut token_topic[span]) {
                    let item = &mut n_item_topic[i as usize * k..][..k];
                    // Remove the current assignment from the counts.
                    let old = *topic as usize;
                    item[old] -= 1;
                    user[old] -= 1;
                    n_topic[old] -= 1;
                    denom[old] = n_topic[old] as f64 + beta_sum;

                    // Eq. 12: p(z) ∝ (n_zi + β)/(n_z + NI·β) · (n_uz + α).
                    // The per-user denominator is constant across z and
                    // cancels in the draw.
                    let mut total = 0.0;
                    for (((w, &n_zi), &d), &n_uz) in
                        weights.iter_mut().zip(&*item).zip(&denom).zip(&*user)
                    {
                        *w = (n_zi as f64 + beta) / d * (n_uz as f64 + alpha);
                        total += *w;
                    }
                    let mut draw = rng.random_range(0.0..total);
                    let mut new = k - 1;
                    for (z, &w) in weights.iter().enumerate() {
                        draw -= w;
                        if draw <= 0.0 {
                            new = z;
                            break;
                        }
                    }

                    *topic = new as u16;
                    item[new] += 1;
                    user[new] += 1;
                    n_topic[new] += 1;
                    denom[new] = n_topic[new] as f64 + beta_sum;
                }
            }

            // The sweep's corpus log-likelihood `Σ_t ln p(item_t | u_t)` (up
            // to a constant), from the posterior means: one `p` per rated
            // pair, added once per token so the sum rounds as a per-token
            // sum does.
            posterior(&mut model, &n_item_topic, &n_user_topic, &denom);
            let mut ll = 0.0;
            for u in 0..n_users {
                for (i, w) in counts.iter_row(u) {
                    let log_p = model.score(u as u32, i).max(1e-300).ln();
                    for _ in 0..tokens(w) {
                        ll += log_p;
                    }
                }
            }
            model.log_likelihood.push(ll);
        }
        if config.iterations == 0 {
            posterior(&mut model, &n_item_topic, &n_user_topic, &denom);
        }
        model
    }

    /// Reassemble a model from its persisted posterior means — the load
    /// path of the model-lifecycle snapshot format. `theta` is the
    /// `n_users x n_topics` row-major user-topic matrix, `phi` the
    /// `n_topics x n_items` row-major topic-item matrix, and
    /// `log_likelihood` the per-sweep convergence trace (may be empty).
    ///
    /// # Panics
    ///
    /// Panics if the matrix lengths do not match the stated dimensions —
    /// fallible loaders must validate lengths before calling this.
    pub fn from_parts(
        n_topics: usize,
        n_users: usize,
        n_items: usize,
        theta: Vec<f64>,
        phi: Vec<f64>,
        log_likelihood: Vec<f64>,
    ) -> Self {
        assert_eq!(theta.len(), n_users * n_topics, "theta length mismatch");
        assert_eq!(phi.len(), n_topics * n_items, "phi length mismatch");
        Self {
            n_topics,
            n_users,
            n_items,
            theta,
            phi,
            log_likelihood,
        }
    }

    /// Number of topics `K`.
    #[inline]
    pub fn n_topics(&self) -> usize {
        self.n_topics
    }

    /// Number of users (documents).
    #[inline]
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// Number of items (vocabulary size).
    #[inline]
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Topic mixture `θ̂_u` of user `u` (length `K`, sums to 1).
    #[inline]
    pub fn theta(&self, u: u32) -> &[f64] {
        let k = self.n_topics;
        &self.theta[u as usize * k..(u as usize + 1) * k]
    }

    /// Item distribution `φ̂_z` of topic `z` (length `n_items`, sums to 1).
    #[inline]
    pub fn phi(&self, z: usize) -> &[f64] {
        &self.phi[z * self.n_items..(z + 1) * self.n_items]
    }

    /// The whole `θ̂` matrix as one flat `n_users x n_topics` row-major
    /// slice — the save path of the snapshot format.
    #[inline]
    pub fn theta_flat(&self) -> &[f64] {
        &self.theta
    }

    /// The whole `φ̂` matrix as one flat `n_topics x n_items` row-major
    /// slice — the save path of the snapshot format.
    #[inline]
    pub fn phi_flat(&self) -> &[f64] {
        &self.phi
    }

    /// Predictive score `p(i|u) = Σ_z θ̂_u[z] · φ̂_z[i]` — the LDA
    /// recommender's ranking function.
    pub fn score(&self, u: u32, i: u32) -> f64 {
        let theta = self.theta(u);
        (0..self.n_topics)
            .map(|z| theta[z] * self.phi[z * self.n_items + i as usize])
            .sum()
    }

    /// Predictive scores of every item for user `u`.
    pub fn score_all(&self, u: u32) -> Vec<f64> {
        let mut scores = Vec::new();
        self.score_all_into(u, &mut scores);
        scores
    }

    /// [`LdaModel::score_all`] into a caller-owned buffer (cleared and
    /// resized first), for allocation-free scoring loops.
    pub fn score_all_into(&self, u: u32, out: &mut Vec<f64>) {
        let theta = self.theta(u);
        out.clear();
        out.resize(self.n_items, 0.0);
        for (z, &t) in theta.iter().enumerate() {
            if t == 0.0 {
                continue;
            }
            let row = self.phi(z);
            for (s, &p) in out.iter_mut().zip(row.iter()) {
                *s += t * p;
            }
        }
    }

    /// Corpus log-likelihood trace, one entry per Gibbs sweep.
    #[inline]
    pub fn log_likelihood_trace(&self) -> &[f64] {
        &self.log_likelihood
    }
}

/// Tokens a rating of weight `w` emits: `w` rounded half-up.
fn tokens(w: f64) -> usize {
    (w + 0.5).floor() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two sharply separated taste groups: users 0-2 rate items 0-3, users
    /// 3-5 rate items 4-7.
    fn two_cluster_counts() -> CsrMatrix {
        let mut triplets = Vec::new();
        for u in 0..3u32 {
            for i in 0..4u32 {
                triplets.push((u, i, 5.0));
            }
        }
        for u in 3..6u32 {
            for i in 4..8u32 {
                triplets.push((u, i, 5.0));
            }
        }
        CsrMatrix::from_triplets(6, 8, &triplets)
    }

    fn trained() -> LdaModel {
        let config = LdaConfig {
            iterations: 60,
            ..LdaConfig::with_topics(2)
        };
        LdaModel::train(&two_cluster_counts(), &config)
    }

    #[test]
    fn theta_rows_are_distributions() {
        let m = trained();
        for u in 0..m.n_users() as u32 {
            let theta = m.theta(u);
            let sum: f64 = theta.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "user {u} theta sums to {sum}");
            assert!(theta.iter().all(|&p| p > 0.0));
        }
    }

    #[test]
    fn phi_rows_are_distributions() {
        let m = trained();
        for z in 0..m.n_topics() {
            let phi = m.phi(z);
            let sum: f64 = phi.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "topic {z} phi sums to {sum}");
        }
    }

    #[test]
    fn recovers_cluster_structure() {
        let m = trained();
        // Users within a cluster share their dominant topic; across
        // clusters the dominant topics differ.
        let dom = |u: u32| {
            let t = m.theta(u);
            if t[0] > t[1] {
                0
            } else {
                1
            }
        };
        assert_eq!(dom(0), dom(1));
        assert_eq!(dom(1), dom(2));
        assert_eq!(dom(3), dom(4));
        assert_eq!(dom(4), dom(5));
        assert_ne!(dom(0), dom(3));
    }

    #[test]
    fn scores_respect_cluster_membership() {
        let m = trained();
        // User 0 (cluster A) must prefer an unobserved cluster-A item over
        // cluster-B items... all items are observed here, so compare owned
        // vs foreign items directly.
        assert!(m.score(0, 1) > m.score(0, 6));
        assert!(m.score(4, 6) > m.score(4, 1));
    }

    #[test]
    fn score_all_matches_score() {
        let m = trained();
        let all = m.score_all(2);
        for i in 0..m.n_items() as u32 {
            assert!((all[i as usize] - m.score(2, i)).abs() < 1e-12);
        }
    }

    #[test]
    fn log_likelihood_improves_from_random_init() {
        let m = trained();
        let trace = m.log_likelihood_trace();
        assert_eq!(trace.len(), 60);
        let early = trace[0];
        let late = *trace.last().unwrap();
        assert!(late > early, "LL did not improve: {early} -> {late}");
    }

    #[test]
    fn deterministic_given_seed() {
        let counts = two_cluster_counts();
        let config = LdaConfig {
            iterations: 10,
            ..LdaConfig::with_topics(2)
        };
        let a = LdaModel::train(&counts, &config);
        let b = LdaModel::train(&counts, &config);
        assert_eq!(a.theta, b.theta);
        assert_eq!(a.phi, b.phi);
    }

    #[test]
    fn fractional_weights_round() {
        // 0.4 rounds to zero tokens; 0.6 rounds to one.
        let counts = CsrMatrix::from_triplets(1, 2, &[(0, 0, 0.6), (0, 1, 2.4)]);
        let config = LdaConfig {
            iterations: 5,
            ..LdaConfig::with_topics(1)
        };
        let m = LdaModel::train(&counts, &config);
        // Item 1 has twice the token mass of item 0 (2 vs 1).
        assert!(m.phi(0)[1] > m.phi(0)[0]);
    }

    #[test]
    #[should_panic(expected = "no positive entries")]
    fn empty_corpus_rejected() {
        let counts = CsrMatrix::zeros(2, 2);
        LdaModel::train(&counts, &LdaConfig::with_topics(2));
    }

    /// `train` on a 3 x 4 corpus under `config`.
    fn train_small(config: LdaConfig) -> LdaModel {
        let counts = CsrMatrix::from_triplets(3, 4, &[(0, 0, 2.0), (1, 3, 1.0), (2, 1, 4.0)]);
        LdaModel::train(&counts, &config)
    }

    #[test]
    #[should_panic(expected = "LdaConfig::n_topics must be in 1..=65536, got 0")]
    fn zero_topics_rejected() {
        train_small(LdaConfig {
            n_topics: 0,
            ..LdaConfig::with_topics(2)
        });
    }

    #[test]
    #[should_panic(expected = "LdaConfig::n_topics must be in 1..=65536, got 70000")]
    fn topics_beyond_u16_rejected() {
        train_small(LdaConfig::with_topics(70_000));
    }

    #[test]
    #[should_panic(expected = "LdaConfig::alpha must be finite and positive, got -1")]
    fn negative_alpha_rejected() {
        train_small(LdaConfig {
            alpha: -1.0,
            ..LdaConfig::with_topics(2)
        });
    }

    #[test]
    #[should_panic(expected = "LdaConfig::alpha must be finite and positive, got NaN")]
    fn nan_alpha_rejected() {
        train_small(LdaConfig {
            alpha: f64::NAN,
            ..LdaConfig::with_topics(2)
        });
    }

    #[test]
    #[should_panic(expected = "LdaConfig::beta must be finite and positive, got 0")]
    fn zero_beta_rejected() {
        train_small(LdaConfig {
            beta: 0.0,
            ..LdaConfig::with_topics(2)
        });
    }

    #[test]
    #[should_panic(expected = "LdaConfig::beta must be finite and positive, got inf")]
    fn infinite_beta_rejected() {
        train_small(LdaConfig {
            beta: f64::INFINITY,
            ..LdaConfig::with_topics(2)
        });
    }

    #[test]
    #[should_panic(expected = "LdaConfig::alpha · n_topics must be finite, got 1e308 · 2")]
    fn alpha_whose_sum_overflows_rejected() {
        train_small(LdaConfig {
            alpha: 1e308,
            ..LdaConfig::with_topics(2)
        });
    }

    #[test]
    #[should_panic(expected = "LdaConfig::beta · n_items must be finite, got 1e308 · 4")]
    fn beta_whose_sum_overflows_rejected() {
        train_small(LdaConfig {
            beta: 1e308,
            ..LdaConfig::with_topics(2)
        });
    }

    #[test]
    fn largest_topic_count_trains() {
        let m = train_small(LdaConfig {
            iterations: 1,
            ..LdaConfig::with_topics(1 << 16)
        });
        assert_eq!(m.n_topics(), 1 << 16);
    }
}
