//! Zipf (zeta) distribution sampling.
//!
//! Both the skewed TPC-H variant ("TPC-H Skew generated with Zipfian skew,
//! high skew factor of 3") and the enterprise access workloads ("queries
//! based on a skewed power-law (Zipf-like) distribution") need a Zipf
//! sampler. This implementation precomputes the CDF once and samples by
//! binary search, which is fast enough for the scales used here and exact.

use rand::Rng;

/// A Zipf distribution over `{0, 1, ..., n-1}` with exponent `s`:
/// `P(k) ∝ 1 / (k+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Create a Zipf distribution over `n` items with skew exponent `s`.
    ///
    /// `s = 0` degenerates to the uniform distribution; larger `s` puts
    /// more mass on low indices. Panics if `n == 0` or `s` is negative /
    /// non-finite (programming errors, not data errors).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over zero items");
        assert!(s.is_finite() && s >= 0.0, "Zipf exponent must be >= 0");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(total);
        }
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when the distribution has exactly one item.
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Probability of item `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        if k >= self.cdf.len() {
            return 0.0;
        }
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }

    /// Sample one item index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // First index whose CDF value is >= u.
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).unwrap_or(std::cmp::Ordering::Less))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn pmf_sums_to_one_and_is_monotone() {
        let z = Zipf::new(100, 1.5);
        let total: f64 = (0..100).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for k in 1..100 {
            assert!(z.pmf(k) <= z.pmf(k - 1) + 1e-12);
        }
        assert_eq!(z.pmf(1000), 0.0);
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for k in 0..10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn high_skew_concentrates_mass_on_head() {
        // Skew factor 3 is what the paper uses for TPC-H Skew: the head item
        // should dominate.
        let z = Zipf::new(1000, 3.0);
        assert!(z.pmf(0) > 0.8);
        let mut rng = SmallRng::seed_from_u64(1);
        let samples: Vec<usize> = (0..5000).map(|_| z.sample(&mut rng)).collect();
        let zeros = samples.iter().filter(|&&s| s == 0).count();
        assert!(zeros as f64 / 5000.0 > 0.7);
    }

    #[test]
    fn sampling_matches_pmf_roughly() {
        let z = Zipf::new(20, 1.0);
        let mut rng = SmallRng::seed_from_u64(2);
        let samples: Vec<usize> = (0..20000).map(|_| z.sample(&mut rng)).collect();
        let head = samples.iter().filter(|&&s| s == 0).count() as f64 / 20000.0;
        assert!((head - z.pmf(0)).abs() < 0.02);
        assert!(samples.iter().all(|&s| s < 20));
    }

    #[test]
    #[should_panic(expected = "Zipf over zero items")]
    fn zero_items_panics() {
        Zipf::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "exponent")]
    fn negative_exponent_panics() {
        Zipf::new(5, -1.0);
    }
}
