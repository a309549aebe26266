//! Zipf-distributed sampling of request types.
//!
//! Server request popularity is famously heavy-tailed; the Zipf exponent
//! controls how much of the branch-pattern working set is hot (trains
//! quickly) versus cold (stresses predictor capacity).

use crate::hashing::XorShift;

/// A Zipf distribution over `0..n` with exponent `s`, sampled by inverse
/// transform over the precomputed CDF.
///
/// ```
/// use workloads::{Zipf, hashing::XorShift};
///
/// let zipf = Zipf::new(100, 1.0);
/// let mut rng = XorShift::new(1);
/// let mut head = 0;
/// for _ in 0..1000 {
///     if zipf.sample(&mut rng) < 10 {
///         head += 1;
///     }
/// }
/// assert!(head > 400, "top 10% of ranks should draw most samples, got {head}");
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution over `0..n` with exponent `s ≥ 0`
    /// (`s = 0` is uniform).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs a positive support size");
        assert!(
            s >= 0.0 && s.is_finite(),
            "Zipf exponent must be finite and non-negative"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Support size.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Returns `true` for an empty support (never constructible).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws one rank in `0..n` (0 is the most popular).
    pub fn sample(&self, rng: &mut XorShift) -> usize {
        let u = rng.next_f64();
        // partition_point returns the first rank whose CDF exceeds u.
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Probability mass of rank `i`.
    pub fn pmf(&self, i: usize) -> f64 {
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_when_exponent_is_zero() {
        let zipf = Zipf::new(10, 0.0);
        for i in 0..10 {
            assert!((zipf.pmf(i) - 0.1).abs() < 1e-12, "rank {i}");
        }
    }

    #[test]
    fn mass_decreases_with_rank() {
        let zipf = Zipf::new(50, 1.2);
        for i in 1..50 {
            assert!(
                zipf.pmf(i) <= zipf.pmf(i - 1) + 1e-15,
                "rank {i} gained mass"
            );
        }
    }

    #[test]
    fn cdf_reaches_one() {
        let zipf = Zipf::new(17, 0.8);
        let total: f64 = (0..17).map(|i| zipf.pmf(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn samples_cover_the_support() {
        let zipf = Zipf::new(8, 0.5);
        let mut rng = XorShift::new(3);
        let mut seen = [false; 8];
        for _ in 0..10_000 {
            seen[zipf.sample(&mut rng)] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all ranks should eventually appear"
        );
    }

    #[test]
    fn higher_exponent_concentrates_samples() {
        let mut rng = XorShift::new(9);
        let head_share = |s: f64, rng: &mut XorShift| {
            let zipf = Zipf::new(1000, s);
            (0..20_000).filter(|_| zipf.sample(rng) < 10).count()
        };
        let flat = head_share(0.3, &mut rng);
        let steep = head_share(1.4, &mut rng);
        assert!(steep > flat, "steep={steep} flat={flat}");
    }

    #[test]
    #[should_panic(expected = "positive support")]
    fn empty_support_is_rejected() {
        let _ = Zipf::new(0, 1.0);
    }
}
