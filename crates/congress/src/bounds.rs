//! Probabilistic error bounds for sample-based estimates.
//!
//! Aqua supplements approximate answers with error bounds "based on the
//! Hoeffding and Chebyshev formulas" (§2), at a configurable confidence
//! level (90% in Figure 4). This module provides:
//!
//! * the finite-population **standard error** of a sample mean (Eq 2),
//! * **Hoeffding** bounds for means of bounded variables,
//! * **Chebyshev** bounds from the sample variance, and
//! * per-group bound computation for SUM/COUNT/AVG over a stratum.

use serde::{Deserialize, Serialize};

use engine::Moments;

/// The footnote-7 space lower bound: to guarantee (in expectation) that
/// every one of `groups` non-empty groups contributes at least
/// `min_tuples` sampled tuples to any query of per-group selectivity
/// ≥ `selectivity`, the sample needs at least `groups · min_tuples /
/// selectivity` tuples — "this places a lower bound on the space allocated
/// for samples, as a function of the number of groups and the target
/// selectivity threshold."
pub fn minimum_space(groups: usize, min_tuples: u64, selectivity: f64) -> f64 {
    assert!(
        selectivity > 0.0 && selectivity <= 1.0,
        "selectivity must be in (0, 1]"
    );
    groups as f64 * min_tuples as f64 / selectivity
}

/// Eq 2: the standard error of a sample mean of `n` values drawn from a
/// population of `population` values with standard deviation `s`,
/// including the finite-population correction `√(1 − n/N)`.
pub fn standard_error_of_mean(s: f64, n: u64, population: u64) -> f64 {
    if n == 0 || population == 0 {
        return f64::INFINITY;
    }
    let n_f = n as f64;
    let fpc = (1.0 - n_f / population as f64).max(0.0);
    s / n_f.sqrt() * fpc.sqrt()
}

/// Hoeffding bound on a sample mean: with probability ≥ `confidence`, the
/// true mean is within the returned ε of the sample mean, given that every
/// value lies in `[lo, hi]`. `ε = (hi − lo) · √(ln(2/δ) / 2n)`.
pub fn hoeffding_mean_bound(lo: f64, hi: f64, n: u64, confidence: f64) -> f64 {
    if n == 0 {
        return f64::INFINITY;
    }
    let delta = (1.0 - confidence).clamp(1e-12, 1.0);
    (hi - lo) * ((2.0 / delta).ln() / (2.0 * n as f64)).sqrt()
}

/// Chebyshev bound on a sample mean at the given confidence: the true mean
/// is within `k · SE` of the sample mean with probability ≥ 1 − 1/k², so
/// `k = 1/√δ` and the bound is `SE/√δ`.
pub fn chebyshev_mean_bound(std_error: f64, confidence: f64) -> f64 {
    let delta = (1.0 - confidence).clamp(1e-12, 1.0);
    std_error / delta.sqrt()
}

/// Which formula produced a bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BoundKind {
    /// Distribution-free, needs value range.
    Hoeffding,
    /// Variance-based.
    Chebyshev,
}

/// An absolute ± error bound on an estimate at some confidence level.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ErrorBound {
    /// Half-width of the confidence interval, in the estimate's units.
    pub half_width: f64,
    /// Confidence level (e.g. 0.9).
    pub confidence: f64,
    /// The formula used.
    pub kind: BoundKind,
}

/// Per-group bounds for the three scalable aggregates, computed from the
/// moments of the sampled values in each contributing stratum.
///
/// For a group assembled from strata `(moments_i, stratum population
/// N_i)`, the SUM estimator is `Σ_i (N_i/n_i) · sum_i` and its
/// Chebyshev-bounded variance is `Σ_i N_i² (1−n_i/N_i) S_i²/n_i` (classic
/// stratified-sampling variance, \[Coc77\]).
pub fn stratified_sum_bound(strata: &[(Moments, u64)], confidence: f64) -> ErrorBound {
    let mut variance = 0.0;
    for (m, pop) in strata {
        if m.n == 0 {
            continue;
        }
        let n = m.n as f64;
        let big_n = *pop as f64;
        let fpc = (1.0 - n / big_n).max(0.0);
        variance += big_n * big_n * fpc * m.variance() / n;
    }
    ErrorBound {
        half_width: chebyshev_mean_bound(variance.sqrt(), confidence),
        confidence,
        kind: BoundKind::Chebyshev,
    }
}

/// Hoeffding-based bound for an AVG over a single uniform stratum (the
/// form the paper's `avg_error` functions encapsulate).
pub fn avg_bound_hoeffding(m: &Moments, confidence: f64) -> ErrorBound {
    let half = if m.n == 0 || m.min > m.max {
        f64::INFINITY
    } else {
        hoeffding_mean_bound(m.min, m.max, m.n, confidence)
    };
    ErrorBound {
        half_width: half,
        confidence,
        kind: BoundKind::Hoeffding,
    }
}

/// Chebyshev-based bound for an AVG over strata: conservative combination
/// using the stratified mean's standard error with stratum weights
/// `W_i = N_i / N`.
pub fn stratified_avg_bound(strata: &[(Moments, u64)], confidence: f64) -> ErrorBound {
    let total_pop: u64 = strata.iter().map(|(_, p)| *p).sum();
    let mut variance = 0.0;
    if total_pop > 0 {
        for (m, pop) in strata {
            if m.n == 0 {
                continue;
            }
            let w = *pop as f64 / total_pop as f64;
            let n = m.n as f64;
            let fpc = (1.0 - n / *pop as f64).max(0.0);
            variance += w * w * fpc * m.variance() / n;
        }
    }
    ErrorBound {
        half_width: chebyshev_mean_bound(variance.sqrt(), confidence),
        confidence,
        kind: BoundKind::Chebyshev,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn moments_of(values: &[f64]) -> Moments {
        let mut m = Moments::new();
        for &v in values {
            m.push(v);
        }
        m
    }

    #[test]
    fn minimum_space_footnote7() {
        // 1000 groups, ≥ 10 tuples each, 7% selectivity → ~142.9K tuples.
        let x = minimum_space(1000, 10, 0.07);
        assert!((x - 1000.0 * 10.0 / 0.07).abs() < 1e-9);
        // Full selectivity needs exactly groups × min.
        assert_eq!(minimum_space(50, 2, 1.0), 100.0);
    }

    #[test]
    #[should_panic(expected = "selectivity")]
    fn minimum_space_rejects_zero_selectivity() {
        let _ = minimum_space(10, 1, 0.0);
    }

    #[test]
    fn standard_error_matches_eq2() {
        // S/√n · √(1 − n/N)
        let se = standard_error_of_mean(10.0, 25, 100);
        assert!((se - 10.0 / 5.0 * (0.75f64).sqrt()).abs() < 1e-12);
        // Sampling the entire population has zero error.
        assert_eq!(standard_error_of_mean(10.0, 100, 100), 0.0);
        assert_eq!(standard_error_of_mean(10.0, 0, 100), f64::INFINITY);
    }

    #[test]
    fn bounds_shrink_with_sample_size() {
        let b1 = hoeffding_mean_bound(0.0, 1.0, 100, 0.9);
        let b2 = hoeffding_mean_bound(0.0, 1.0, 400, 0.9);
        assert!((b1 / b2 - 2.0).abs() < 1e-9); // ∝ 1/√n
        let c1 = chebyshev_mean_bound(1.0, 0.9);
        let c2 = chebyshev_mean_bound(0.5, 0.9);
        assert!((c1 / c2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn bounds_grow_with_confidence() {
        assert!(
            hoeffding_mean_bound(0.0, 1.0, 100, 0.99) > hoeffding_mean_bound(0.0, 1.0, 100, 0.9)
        );
        assert!(chebyshev_mean_bound(1.0, 0.99) > chebyshev_mean_bound(1.0, 0.9));
    }

    #[test]
    fn chebyshev_90_is_se_over_sqrt_point1() {
        let b = chebyshev_mean_bound(2.0, 0.9);
        assert!((b - 2.0 / 0.1f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn stratified_sum_bound_zero_when_fully_sampled() {
        let m = moments_of(&[1.0, 5.0, 9.0]);
        let b = stratified_sum_bound(&[(m, 3)], 0.9);
        assert_eq!(b.half_width, 0.0);
        assert_eq!(b.kind, BoundKind::Chebyshev);
    }

    #[test]
    fn stratified_sum_bound_positive_under_subsampling() {
        let m = moments_of(&[1.0, 5.0, 9.0]);
        let b = stratified_sum_bound(&[(m, 30)], 0.9);
        assert!(b.half_width > 0.0);
        // More strata add variance.
        let b2 = stratified_sum_bound(&[(m, 30), (m, 30)], 0.9);
        assert!(b2.half_width > b.half_width);
    }

    #[test]
    fn avg_bounds() {
        let m = moments_of(&[0.0, 10.0, 5.0, 5.0]);
        let h = avg_bound_hoeffding(&m, 0.9);
        assert!(h.half_width > 0.0 && h.half_width.is_finite());
        assert_eq!(h.kind, BoundKind::Hoeffding);
        let empty = avg_bound_hoeffding(&Moments::new(), 0.9);
        assert_eq!(empty.half_width, f64::INFINITY);

        let s = stratified_avg_bound(&[(m, 20)], 0.9);
        assert!(s.half_width > 0.0 && s.half_width.is_finite());
        let full = stratified_avg_bound(&[(m, 4)], 0.9);
        assert_eq!(full.half_width, 0.0);
    }

    #[test]
    fn empty_strata_are_skipped() {
        let b = stratified_sum_bound(&[(Moments::new(), 10)], 0.9);
        assert_eq!(b.half_width, 0.0);
    }
}
