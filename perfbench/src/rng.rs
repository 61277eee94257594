//! Seeded randomness for the benchmark's inputs: a SplitMix64 stream and
//! the samplers the schedules draw from. Kept local so a seed reproduces
//! the same inputs no matter how the repository's own RNG stub evolves.

/// SplitMix64: tiny, fast and statistically sound for workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `stream` under the run seed `seed`; distinct streams of
    /// one seed are independent (corpus, schedule, appends, ...).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Exponential inter-arrival gap of a Poisson process at `rate` per
    /// second.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.f64()).ln() / rate
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<u32> {
        let mut v: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

/// Draws indices in proportion to fixed non-negative weights.
#[derive(Debug, Clone)]
pub struct Weighted {
    cumulative: Vec<f64>,
}

impl Weighted {
    pub fn new(weights: impl IntoIterator<Item = f64>) -> Self {
        let mut total = 0.0;
        let cumulative: Vec<f64> = weights
            .into_iter()
            .map(|w| {
                total += w;
                total
            })
            .collect();
        assert!(total > 0.0, "weights must not all be zero");
        Self { cumulative }
    }

    /// Zipf(`exponent`) over ranks `0..n`: rank `r` has weight `1/(r+1)^s`.
    pub fn zipf(n: usize, exponent: f64) -> Self {
        Self::new((1..=n).map(|r| (r as f64).powf(-exponent)))
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("non-empty weights");
        let x = rng.f64() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}
