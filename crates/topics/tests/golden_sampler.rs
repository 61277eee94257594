//! Golden test: the Gibbs sampler must reproduce the reference sampler bit
//! for bit.
//!
//! `reference_train` below is a verbatim copy of `LdaModel::train` before its
//! topic–item counts went item-major, its topic denominators were cached and
//! its log-likelihood was computed from the posterior means. Those changes
//! keep every per-token operand, every summation order and every RNG draw,
//! so θ, φ and the per-sweep log-likelihood trace must match exactly
//! (`to_bits`), on randomly drawn small corpora and on one corpus shaped
//! like the `douban_like` synthetic profile.

use longtail_graph::CsrMatrix;
use longtail_topics::{LdaConfig, LdaModel};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// What the reference sampler returns: θ (`n_users x K`), φ (`K x n_items`)
/// and the log-likelihood trace.
struct Reference {
    theta: Vec<f64>,
    phi: Vec<f64>,
    log_likelihood: Vec<f64>,
}

/// The reference `LdaModel::train`, verbatim but for its return type.
fn reference_train(counts: &CsrMatrix, config: &LdaConfig) -> Reference {
    let n_users = counts.rows();
    let n_items = counts.cols();
    let k = config.n_topics;
    assert!(k > 0, "need at least one topic");

    // Expand the sparse counts into a token stream. `doc_ptr` delimits
    // each user's tokens, exactly like CSR row pointers.
    let mut token_item: Vec<u32> = Vec::new();
    let mut doc_ptr: Vec<usize> = Vec::with_capacity(n_users + 1);
    doc_ptr.push(0);
    for u in 0..n_users {
        for (i, w) in counts.iter_row(u) {
            let reps = (w + 0.5).floor() as usize;
            token_item.extend(std::iter::repeat_n(i, reps));
        }
        doc_ptr.push(token_item.len());
    }
    let n_tokens = token_item.len();
    assert!(n_tokens > 0, "count matrix has no positive entries");

    let mut rng = StdRng::seed_from_u64(config.seed);
    let alpha = config.alpha;
    let beta = config.beta;
    let beta_sum = beta * n_items as f64;

    // Count arrays (Algorithm 2's N1..N4): topic-item, user-topic and
    // topic totals. Per-user totals are implicit in doc_ptr.
    let mut n_topic_item = vec![0u32; k * n_items];
    let mut n_user_topic = vec![0u32; n_users * k];
    let mut n_topic = vec![0u32; k];
    let mut token_topic: Vec<u16> = Vec::with_capacity(n_tokens);

    // Random initialization (Algorithm 2, step 2).
    for (t, &item) in token_item.iter().enumerate() {
        let u = user_of_token(&doc_ptr, t);
        let z = rng.random_range(0..k);
        token_topic.push(z as u16);
        n_topic_item[z * n_items + item as usize] += 1;
        n_user_topic[u * k + z] += 1;
        n_topic[z] += 1;
    }

    let mut weights = vec![0.0f64; k];
    let mut log_likelihood = Vec::with_capacity(config.iterations);
    for _sweep in 0..config.iterations {
        let mut token = 0usize;
        for u in 0..n_users {
            let span = doc_ptr[u]..doc_ptr[u + 1];
            for t in span {
                debug_assert_eq!(t, token);
                let item = token_item[t] as usize;
                let old = token_topic[t] as usize;
                // Remove the current assignment from the counts.
                n_topic_item[old * n_items + item] -= 1;
                n_user_topic[u * k + old] -= 1;
                n_topic[old] -= 1;

                // Eq. 12: p(z) ∝ (n_zi + β)/(n_z + NI·β) · (n_uz + α).
                // The per-user denominator is constant across z and
                // cancels in the draw.
                let mut total = 0.0;
                for z in 0..k {
                    let w = (n_topic_item[z * n_items + item] as f64 + beta)
                        / (n_topic[z] as f64 + beta_sum)
                        * (n_user_topic[u * k + z] as f64 + alpha);
                    weights[z] = w;
                    total += w;
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

                token_topic[t] = new as u16;
                n_topic_item[new * n_items + item] += 1;
                n_user_topic[u * k + new] += 1;
                n_topic[new] += 1;
                token += 1;
            }
        }
        log_likelihood.push(corpus_log_likelihood(
            &doc_ptr,
            &token_item,
            &n_topic_item,
            &n_user_topic,
            &n_topic,
            n_items,
            k,
            alpha,
            beta,
        ));
    }

    // Posterior means: Eq. 13 for φ, Eq. 14 for θ.
    let mut phi = vec![0.0f64; k * n_items];
    for z in 0..k {
        let denom = n_topic[z] as f64 + beta_sum;
        for i in 0..n_items {
            phi[z * n_items + i] = (n_topic_item[z * n_items + i] as f64 + beta) / denom;
        }
    }
    let mut theta = vec![0.0f64; n_users * k];
    let alpha_sum = alpha * k as f64;
    for u in 0..n_users {
        let doc_len = (doc_ptr[u + 1] - doc_ptr[u]) as f64;
        let denom = doc_len + alpha_sum;
        for z in 0..k {
            theta[u * k + z] = (n_user_topic[u * k + z] as f64 + alpha) / denom;
        }
    }

    Reference {
        theta,
        phi,
        log_likelihood,
    }
}

/// Binary search the document (user) owning token `t`.
fn user_of_token(doc_ptr: &[usize], t: usize) -> usize {
    match doc_ptr.binary_search(&t) {
        Ok(mut idx) => {
            // `t` is the first token of a document; skip empty docs that
            // share the same pointer.
            while doc_ptr[idx + 1] == t {
                idx += 1;
            }
            idx
        }
        Err(idx) => idx - 1,
    }
}

/// Token-level log-likelihood `Σ_t ln p(item_t | u_t)` under the current
/// count state, used to monitor sweep-over-sweep convergence.
#[allow(clippy::too_many_arguments)]
fn corpus_log_likelihood(
    doc_ptr: &[usize],
    token_item: &[u32],
    n_topic_item: &[u32],
    n_user_topic: &[u32],
    n_topic: &[u32],
    n_items: usize,
    k: usize,
    alpha: f64,
    beta: f64,
) -> f64 {
    let beta_sum = beta * n_items as f64;
    let alpha_sum = alpha * k as f64;
    let n_users = doc_ptr.len() - 1;
    let mut ll = 0.0;
    for u in 0..n_users {
        let doc_len = (doc_ptr[u + 1] - doc_ptr[u]) as f64;
        let theta_denom = doc_len + alpha_sum;
        for &token in &token_item[doc_ptr[u]..doc_ptr[u + 1]] {
            let item = token as usize;
            let mut p = 0.0;
            for z in 0..k {
                let phi = (n_topic_item[z * n_items + item] as f64 + beta)
                    / (n_topic[z] as f64 + beta_sum);
                let theta = (n_user_topic[u * k + z] as f64 + alpha) / theta_denom;
                p += phi * theta;
            }
            ll += p.max(1e-300).ln();
        }
    }
    ll
}

/// Bit patterns of a float slice, so a mismatch reports the exact values.
fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Train both samplers on `counts` and require identical output.
fn assert_bit_identical(counts: &CsrMatrix, config: &LdaConfig, case: &str) {
    let expected = reference_train(counts, config);
    let model = LdaModel::train(counts, config);
    assert_eq!(
        bits(model.theta_flat()),
        bits(&expected.theta),
        "{case}: theta"
    );
    assert_eq!(bits(model.phi_flat()), bits(&expected.phi), "{case}: phi");
    assert_eq!(
        bits(model.log_likelihood_trace()),
        bits(&expected.log_likelihood),
        "{case}: log-likelihood trace"
    );
}

/// Weights that round to 0, 1, 3 and 5 tokens, including the half-up
/// boundaries 0.5 → 1 and 4.5 → 5.
const WEIGHTS: [f64; 8] = [0.3, 0.49, 0.5, 1.0, 1.4, 2.6, 4.5, 5.0];

/// A small random corpus. Some users rate nothing or only items whose
/// weights round to no token, and items past the rated range stay
/// unrated. At least one token is guaranteed, since `train` rejects an
/// empty corpus.
fn random_corpus(rng: &mut StdRng) -> CsrMatrix {
    let n_users = rng.random_range(1..10usize);
    let n_items = rng.random_range(1..12usize);
    let rated_items = rng.random_range(1..n_items as u32 + 1);
    let mut triplets = Vec::new();
    for u in 0..n_users as u32 {
        if rng.random_range(0..4u32) == 0 {
            continue;
        }
        for i in 0..rated_items {
            if rng.random_range(0..2u32) == 0 {
                let w = WEIGHTS[rng.random_range(0..WEIGHTS.len())];
                triplets.push((u, i, w));
            }
        }
    }
    let u = rng.random_range(0..n_users as u32);
    let i = rng.random_range(0..rated_items);
    triplets.push((u, i, 1.0));
    CsrMatrix::from_triplets(n_users, n_items, &triplets)
}

#[test]
fn random_small_corpora_match_the_reference_bit_for_bit() {
    for case in 0..96u64 {
        let mut rng = StdRng::seed_from_u64(0x601d_0000 + case);
        let counts = random_corpus(&mut rng);
        let mut config = LdaConfig {
            iterations: case as usize % 6,
            seed: rng.random(),
            ..LdaConfig::with_topics(1 + case as usize % 16)
        };
        // Odd cases draw their priors; even ones keep the paper's.
        if case % 2 == 1 {
            config.alpha = rng.random_range(0.01..3.0);
            config.beta = rng.random_range(0.001..2.0);
        }
        assert_bit_identical(&counts, &config, &format!("case {case}"));
    }
}

#[test]
fn douban_like_corpus_matches_the_reference_bit_for_bit() {
    // The `douban_like` profile's shape: 2200 users, 1800 items, 12
    // topics; power-law user activity between 4 and 90 ratings; Zipf item
    // popularity; 1-5 star ratings as token counts.
    let (n_users, n_items, n_topics) = (2200usize, 1800usize, 12usize);
    let mut rng = StdRng::seed_from_u64(0xd0_baa2);
    let popularity: Vec<f64> = (1..=n_items).map(|r| (r as f64).powf(-1.15)).collect();
    let total: f64 = popularity.iter().sum();
    let mut cumulative = Vec::with_capacity(n_items);
    let mut acc = 0.0;
    for p in &popularity {
        acc += p / total;
        cumulative.push(acc);
    }
    let mut triplets = Vec::new();
    for u in 0..n_users as u32 {
        let x: f64 = rng.random();
        let activity = (4.0 * (1.0 - x).powf(-1.0 / 0.9)).min(90.0) as usize;
        for _ in 0..activity {
            let draw: f64 = rng.random();
            let item = cumulative.partition_point(|&c| c < draw).min(n_items - 1);
            let stars = rng.random_range(1..6u32) as f64;
            triplets.push((u, item as u32, stars));
        }
    }
    // Re-drawn items sum their stars, as repeated ratings would.
    let counts = CsrMatrix::from_triplets(n_users, n_items, &triplets);
    let config = LdaConfig {
        iterations: 3,
        ..LdaConfig::with_topics(n_topics)
    };
    assert_bit_identical(&counts, &config, "douban_like");
}
