//! Aggregate functions, the weighted partial state the exact and cold
//! folds accumulate, and the per-(group, stratum) moments the served
//! answers and their error bounds are read from.

use std::fmt;

use serde::{Deserialize, Serialize};

use relation::Expr;

/// Aggregate operators supported by the engine.
///
/// SUM, COUNT, and AVG are the operators the paper's rewriting section
/// (§5.1) derives unbiased stratified estimators for. MIN and MAX are
/// supported for exact execution and as best-effort (not unbiased) sample
/// estimates — standard practice for extrema over samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggregateFn {
    /// `SUM(expr)`
    Sum,
    /// `COUNT(*)`
    Count,
    /// `AVG(expr)`
    Avg,
    /// `MIN(expr)`
    Min,
    /// `MAX(expr)`
    Max,
}

impl AggregateFn {
    /// Whether the function requires an input expression (`COUNT(*)` does not).
    pub fn needs_expr(self) -> bool {
        !matches!(self, AggregateFn::Count)
    }

    /// Whether the sample-based estimate of this aggregate is statistically
    /// unbiased under stratified scaling (§5.1).
    pub fn unbiased_under_scaling(self) -> bool {
        matches!(
            self,
            AggregateFn::Sum | AggregateFn::Count | AggregateFn::Avg
        )
    }
}

impl fmt::Display for AggregateFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AggregateFn::Sum => "SUM",
            AggregateFn::Count => "COUNT",
            AggregateFn::Avg => "AVG",
            AggregateFn::Min => "MIN",
            AggregateFn::Max => "MAX",
        })
    }
}

/// One aggregate in a query's SELECT list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregateSpec {
    /// The aggregate operator.
    pub func: AggregateFn,
    /// Input expression; `None` only for `COUNT(*)`.
    pub expr: Option<Expr>,
    /// Output column label.
    pub name: String,
}

impl AggregateSpec {
    /// `SUM(expr) AS name`
    pub fn sum(expr: Expr, name: impl Into<String>) -> Self {
        AggregateSpec {
            func: AggregateFn::Sum,
            expr: Some(expr),
            name: name.into(),
        }
    }

    /// `COUNT(*) AS name`
    pub fn count(name: impl Into<String>) -> Self {
        AggregateSpec {
            func: AggregateFn::Count,
            expr: None,
            name: name.into(),
        }
    }

    /// `AVG(expr) AS name`
    pub fn avg(expr: Expr, name: impl Into<String>) -> Self {
        AggregateSpec {
            func: AggregateFn::Avg,
            expr: Some(expr),
            name: name.into(),
        }
    }

    /// `MIN(expr) AS name`
    pub fn min(expr: Expr, name: impl Into<String>) -> Self {
        AggregateSpec {
            func: AggregateFn::Min,
            expr: Some(expr),
            name: name.into(),
        }
    }

    /// `MAX(expr) AS name`
    pub fn max(expr: Expr, name: impl Into<String>) -> Self {
        AggregateSpec {
            func: AggregateFn::Max,
            expr: Some(expr),
            name: name.into(),
        }
    }
}

/// Function-independent accumulation state for one group: `Σ value·weight`,
/// `Σ weight`, the raw value range, and the folded row count. Every
/// aggregate operator finishes from these five fields, so one partial per
/// (group, measure) serves SUM, COUNT, AVG, MIN and MAX alike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Partial {
    weighted_sum: f64,
    weight: f64,
    min: f64,
    max: f64,
    rows: u64,
}

impl Default for Partial {
    fn default() -> Self {
        Partial::new()
    }
}

impl Partial {
    /// Empty state.
    pub fn new() -> Partial {
        Partial {
            weighted_sum: 0.0,
            weight: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            rows: 0,
        }
    }

    /// Assemble a partial from raw field values. Only for the decode-free
    /// fold path (see `exec`), which must produce states bit-identical to a
    /// sequence of [`Partial::add`] calls — the caller owns that proof.
    pub(crate) fn from_raw(
        weighted_sum: f64,
        weight: f64,
        min: f64,
        max: f64,
        rows: u64,
    ) -> Partial {
        Partial {
            weighted_sum,
            weight,
            min,
            max,
            rows,
        }
    }

    /// Fold in one row's value and weight.
    #[inline]
    pub fn add(&mut self, value: f64, weight: f64) {
        self.weighted_sum += value * weight;
        self.weight += weight;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
        self.rows += 1;
    }

    /// Merge another partial into this one.
    pub fn merge(&mut self, other: &Partial) {
        self.weighted_sum += other.weighted_sum;
        self.weight += other.weight;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.rows += other.rows;
    }

    /// Number of raw rows folded in.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Merge an unscaled partial whose rows all carry ScaleFactor `sf`:
    /// one multiply per partial instead of one per row, the outer step of
    /// the Nested-integrated plan (Fig 11). MIN/MAX and the row count pass
    /// through unscaled.
    pub fn merge_scaled(&mut self, other: &Partial, sf: f64) {
        self.weighted_sum += other.weighted_sum * sf;
        self.weight += other.weight * sf;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.rows += other.rows;
    }

    /// The value of `func` over what was folded: SUM = `Σ value·weight`,
    /// COUNT = `Σ weight`, AVG their ratio, MIN/MAX the raw range. With
    /// weight 1 that is the exact aggregate; with each row's stratum
    /// ScaleFactor as its weight it is the paper's scaled SUM / scaled
    /// COUNT / ratio AVG (§5.1). AVG of an empty partial is NaN; the
    /// executors never emit empty groups.
    pub fn finish(&self, func: AggregateFn) -> f64 {
        match func {
            AggregateFn::Sum => self.weighted_sum,
            AggregateFn::Count => self.weight,
            AggregateFn::Avg => self.weighted_sum / self.weight,
            AggregateFn::Min => self.min,
            AggregateFn::Max => self.max,
        }
    }
}

/// Unweighted moments of the values in one (group, stratum) cell: `n`,
/// `Σx`, `Σx²` and the range. The served estimates scale `Σx` and `n` by
/// the stratum's ScaleFactor, and the Hoeffding and Chebyshev bounds
/// (`congress::bounds`) read the same fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Moments {
    /// Number of values folded in.
    pub n: u64,
    /// Σ v
    pub sum: f64,
    /// Σ v²
    pub sum_sq: f64,
    /// min v (`+∞` if empty)
    pub min: f64,
    /// max v (`−∞` if empty)
    pub max: f64,
}

impl Default for Moments {
    fn default() -> Self {
        Moments::new()
    }
}

impl Moments {
    /// Empty moments.
    pub fn new() -> Moments {
        Moments {
            n: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold in one value.
    #[inline]
    pub fn push(&mut self, v: f64) {
        self.n += 1;
        self.sum += v;
        self.sum_sq += v * v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.sum / self.n as f64
    }

    /// Unbiased sample variance (n−1 denominator); 0 for n < 2.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let n = self.n as f64;
        ((self.sum_sq - self.sum * self.sum / n) / (n - 1.0)).max(0.0)
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::ColumnId;

    /// `pairs` folded into one partial and finished as `func`.
    fn folded(func: AggregateFn, pairs: &[(f64, f64)]) -> f64 {
        let mut p = Partial::new();
        for &(v, w) in pairs {
            p.add(v, w);
        }
        p.finish(func)
    }

    #[test]
    fn sum_with_unit_weight_is_plain_sum() {
        let mut p = Partial::new();
        for v in [1.0, 2.0, 3.5] {
            p.add(v, 1.0);
        }
        assert_eq!(p.finish(AggregateFn::Sum), 6.5);
        assert_eq!(p.rows(), 3);
    }

    #[test]
    fn scaled_sum_matches_paper_example() {
        // §5.1: q1 from a 1% stratum (SF=100), q2 from a 2% stratum (SF=50).
        let got = folded(AggregateFn::Sum, &[(10.0, 100.0), (20.0, 50.0)]);
        assert_eq!(got, 10.0 * 100.0 + 20.0 * 50.0);
    }

    #[test]
    fn count_sums_scale_factors() {
        let got = folded(AggregateFn::Count, &[(0.0, 100.0), (0.0, 50.0)]);
        assert_eq!(got, 150.0);
    }

    #[test]
    fn avg_is_ratio_of_scaled_sums() {
        let got = folded(AggregateFn::Avg, &[(10.0, 100.0), (20.0, 50.0)]);
        let expect = (10.0 * 100.0 + 20.0 * 50.0) / 150.0;
        assert!((got - expect).abs() < 1e-12);
    }

    #[test]
    fn min_max_ignore_weights() {
        let pairs = [(5.0, 10.0), (-2.0, 1.0), (7.0, 0.5)];
        assert_eq!(folded(AggregateFn::Min, &pairs), -2.0);
        assert_eq!(folded(AggregateFn::Max, &pairs), 7.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let mut a = Partial::new();
        let mut b = Partial::new();
        let mut whole = Partial::new();
        for (i, v) in [1.0, 4.0, 9.0, 16.0].iter().enumerate() {
            let w = (i + 1) as f64;
            if i % 2 == 0 {
                a.add(*v, w);
            } else {
                b.add(*v, w);
            }
            whole.add(*v, w);
        }
        a.merge(&b);
        let avg = AggregateFn::Avg;
        assert!((a.finish(avg) - whole.finish(avg)).abs() < 1e-12);
        assert_eq!(a.rows(), whole.rows());
    }

    /// One multiply per inner partial: an unscaled partial merged at
    /// ScaleFactor `sf` is the rows folded at weight `sf`, up to rounding.
    #[test]
    fn merge_scaled_applies_the_scale_factor_once() {
        let mut raw = Partial::new();
        for v in [1.0, 3.0, 10.0] {
            raw.add(v, 1.0);
        }
        let mut outer = Partial::new();
        outer.merge_scaled(&raw, 2.0);
        assert_eq!(outer.finish(AggregateFn::Sum), 28.0);
        assert_eq!(outer.finish(AggregateFn::Count), 6.0);
        assert_eq!(outer.finish(AggregateFn::Avg), 28.0 / 6.0);
        assert_eq!(outer.finish(AggregateFn::Min), 1.0);
        assert_eq!(outer.finish(AggregateFn::Max), 10.0);
        assert_eq!(outer.rows(), 3);
    }

    fn moments_of(values: &[f64]) -> Moments {
        let mut m = Moments::new();
        for &v in values {
            m.push(v);
        }
        m
    }

    #[test]
    fn moments_basic_stats() {
        let m = moments_of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.n, 4);
        assert_eq!(m.mean(), 2.5);
        assert!((m.variance() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.min, 1.0);
        assert_eq!(m.max, 4.0);
    }

    #[test]
    fn variance_degenerate_cases() {
        assert_eq!(moments_of(&[5.0]).variance(), 0.0);
        assert_eq!(moments_of(&[2.0, 2.0, 2.0]).variance(), 0.0);
        assert_eq!(Moments::new().n, 0);
    }

    #[test]
    fn spec_constructors() {
        let s = AggregateSpec::sum(Expr::col(ColumnId(0)), "s");
        assert_eq!(s.func, AggregateFn::Sum);
        assert!(s.expr.is_some());
        let c = AggregateSpec::count("c");
        assert!(c.expr.is_none());
        assert!(!AggregateFn::Count.needs_expr());
        assert!(AggregateFn::Avg.needs_expr());
        assert!(AggregateFn::Sum.unbiased_under_scaling());
        assert!(!AggregateFn::Min.unbiased_under_scaling());
    }

    #[test]
    fn display_names() {
        assert_eq!(AggregateFn::Sum.to_string(), "SUM");
        assert_eq!(AggregateFn::Avg.to_string(), "AVG");
    }
}
