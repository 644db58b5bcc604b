//! Seeded Zipf(ian) rank sampler.
//!
//! Multi-tenant database fleets are famously skewed: a handful of tenants
//! produce most of the traffic while a long tail stays almost idle. The
//! Scenario-III fleet generator ([`crate::tenants`]) and perfbench's
//! tenant-churn stream (its closed and open loop) both need the same
//! reproducible skew, so the sampler lives here as a tiny self-contained
//! primitive: a precomputed CDF over `n` ranks with a splitmix64 PRNG, no
//! floating-point surprises across platforms beyond the usual IEEE
//! determinism (same seed → same rank sequence everywhere).

/// A seeded sampler drawing 0-based ranks with probability proportional to
/// `1 / (rank + 1)^exponent` (rank 0 is the hottest).
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
    state: u64,
}

/// splitmix64: the same mixer the serving engine uses for shard routing.
/// Kept crate-local — `ucad-dbsim` sits below the serving crates in the
/// dependency order, so it cannot import theirs.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl ZipfSampler {
    /// Builds a sampler over `n` ranks with the given skew exponent.
    /// `exponent == 0.0` degenerates to uniform; `1.0` is classic Zipf.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0` — an empty rank space cannot be sampled.
    pub fn new(n: usize, exponent: f64, seed: u64) -> Self {
        assert!(n > 0, "zipf sampler needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(exponent);
            cdf.push(total);
        }
        for c in cdf.iter_mut() {
            *c /= total;
        }
        // Guard against floating-point shortfall at the top end.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        ZipfSampler {
            cdf,
            state: splitmix64(seed ^ 0x5A1F_0000_0000_0000),
        }
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Draws the next 0-based rank.
    pub fn sample(&mut self) -> usize {
        self.state = splitmix64(self.state);
        // 53 uniform mantissa bits → u in [0, 1).
        let u = (self.state >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c <= u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_ranks_are_rejected() {
        let r = std::panic::catch_unwind(|| ZipfSampler::new(0, 1.0, 1));
        assert!(r.is_err());
    }

    #[test]
    fn same_seed_replays_the_same_sequence() {
        let mut a = ZipfSampler::new(8, 1.0, 42);
        let mut b = ZipfSampler::new(8, 1.0, 42);
        let sa: Vec<usize> = (0..64).map(|_| a.sample()).collect();
        let sb: Vec<usize> = (0..64).map(|_| b.sample()).collect();
        assert_eq!(sa, sb);
        let mut c = ZipfSampler::new(8, 1.0, 43);
        let sc: Vec<usize> = (0..64).map(|_| c.sample()).collect();
        assert_ne!(sa, sc, "different seeds must diverge");
    }

    #[test]
    fn distribution_shape_is_zipfian() {
        let n = 10;
        let draws = 40_000;
        let mut sampler = ZipfSampler::new(n, 1.0, 7);
        let mut freq = vec![0usize; n];
        for _ in 0..draws {
            let r = sampler.sample();
            assert!(r < n, "rank out of range: {r}");
            freq[r] += 1;
        }
        // Every rank should appear: the tail is thin, not empty.
        assert!(freq.iter().all(|&f| f > 0), "empty rank in {freq:?}");
        // Head dominates tail: the rank-0 share of a Zipf(1) over 10 ranks
        // is ~34%; rank 9's is ~3.4%. Allow generous sampling noise.
        assert!(freq[0] > 5 * freq[9], "head/tail ratio too flat: {freq:?}");
        // Monotone decay at coarse granularity.
        assert!(
            freq[0] > freq[3] && freq[3] > freq[9],
            "not decaying: {freq:?}"
        );
        // Empirical head share close to the analytic 1/H_10 ≈ 0.3414.
        let head_share = freq[0] as f64 / draws as f64;
        assert!(
            (head_share - 0.3414).abs() < 0.02,
            "head share {head_share} far from analytic 0.3414"
        );
    }

    #[test]
    fn zero_exponent_is_roughly_uniform() {
        let n = 4;
        let mut sampler = ZipfSampler::new(n, 0.0, 11);
        let mut freq = vec![0usize; n];
        for _ in 0..20_000 {
            freq[sampler.sample()] += 1;
        }
        let expect = 20_000 / n;
        for (rank, &f) in freq.iter().enumerate() {
            assert!(
                (f as i64 - expect as i64).unsigned_abs() < 600,
                "rank {rank} count {f} far from uniform {expect}"
            );
        }
    }
}
