//! Aggregate functions and their accumulators.

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

    /// `Σ value·weight` accumulated so far.
    pub fn weighted_sum(&self) -> f64 {
        self.weighted_sum
    }

    /// `Σ weight` accumulated so far.
    pub fn total_weight(&self) -> f64 {
        self.weight
    }

    /// Minimum raw value seen (`+∞` if empty).
    pub fn min_value(&self) -> f64 {
        self.min
    }

    /// Maximum raw value seen (`-∞` if empty).
    pub fn max_value(&self) -> f64 {
        self.max
    }
}

/// Streaming accumulator for one aggregate over one group.
///
/// `add` takes the row's expression value and a weight. Exact execution
/// passes weight 1; the rewrite strategies pass the stratum ScaleFactor,
/// which yields exactly the paper's scaled SUM / scaled COUNT / ratio AVG.
#[derive(Debug, Clone, Copy)]
pub struct Accumulator {
    func: AggregateFn,
    state: Partial,
}

impl Accumulator {
    /// Fresh accumulator for `func`.
    pub fn new(func: AggregateFn) -> Self {
        Accumulator {
            func,
            state: Partial::new(),
        }
    }

    /// Restore an accumulator from a cached [`Partial`]. Because the state
    /// is function-independent, one cached partial per (grouping, measure)
    /// serves SUM, COUNT, AVG, MIN, and MAX alike.
    pub fn from_partial(func: AggregateFn, state: Partial) -> Self {
        Accumulator { func, state }
    }

    /// Fold in one row. `value` is ignored for COUNT.
    #[inline]
    pub fn add(&mut self, value: f64, weight: f64) {
        self.state.add(value, weight);
    }

    /// Merge another accumulator of the same function into this one.
    pub fn merge(&mut self, other: &Accumulator) {
        debug_assert_eq!(self.func, other.func);
        self.state.merge(&other.state);
    }

    /// Number of raw rows folded in.
    pub fn rows(&self) -> u64 {
        self.state.rows()
    }

    /// `Σ value·weight` accumulated so far.
    pub fn weighted_sum(&self) -> f64 {
        self.state.weighted_sum()
    }

    /// `Σ weight` accumulated so far.
    pub fn total_weight(&self) -> f64 {
        self.state.total_weight()
    }

    /// Minimum raw value seen (`+∞` if empty).
    pub fn min_value(&self) -> f64 {
        self.state.min_value()
    }

    /// Maximum raw value seen (`-∞` if empty).
    pub fn max_value(&self) -> f64 {
        self.state.max_value()
    }

    /// The aggregate's final value. AVG of an empty group is NaN; the
    /// executors never emit empty groups, so this is unreachable in queries.
    pub fn finish(&self) -> f64 {
        match self.func {
            AggregateFn::Sum => self.state.weighted_sum(),
            AggregateFn::Count => self.state.total_weight(),
            AggregateFn::Avg => self.state.weighted_sum() / self.state.total_weight(),
            AggregateFn::Min => self.state.min_value(),
            AggregateFn::Max => self.state.max_value(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::ColumnId;

    #[test]
    fn sum_with_unit_weight_is_plain_sum() {
        let mut a = Accumulator::new(AggregateFn::Sum);
        for v in [1.0, 2.0, 3.5] {
            a.add(v, 1.0);
        }
        assert_eq!(a.finish(), 6.5);
        assert_eq!(a.rows(), 3);
    }

    #[test]
    fn scaled_sum_matches_paper_example() {
        // §5.1: q1 from a 1% stratum (SF=100), q2 from a 2% stratum (SF=50).
        let mut a = Accumulator::new(AggregateFn::Sum);
        a.add(10.0, 100.0);
        a.add(20.0, 50.0);
        assert_eq!(a.finish(), 10.0 * 100.0 + 20.0 * 50.0);
    }

    #[test]
    fn count_sums_scale_factors() {
        let mut a = Accumulator::new(AggregateFn::Count);
        a.add(0.0, 100.0);
        a.add(0.0, 50.0);
        assert_eq!(a.finish(), 150.0);
    }

    #[test]
    fn avg_is_ratio_of_scaled_sums() {
        let mut a = Accumulator::new(AggregateFn::Avg);
        a.add(10.0, 100.0);
        a.add(20.0, 50.0);
        let expect = (10.0 * 100.0 + 20.0 * 50.0) / 150.0;
        assert!((a.finish() - expect).abs() < 1e-12);
    }

    #[test]
    fn min_max_ignore_weights() {
        let mut mn = Accumulator::new(AggregateFn::Min);
        let mut mx = Accumulator::new(AggregateFn::Max);
        for (v, w) in [(5.0, 10.0), (-2.0, 1.0), (7.0, 0.5)] {
            mn.add(v, w);
            mx.add(v, w);
        }
        assert_eq!(mn.finish(), -2.0);
        assert_eq!(mx.finish(), 7.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let mut a = Accumulator::new(AggregateFn::Avg);
        let mut b = Accumulator::new(AggregateFn::Avg);
        let mut whole = Accumulator::new(AggregateFn::Avg);
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
        assert!((a.finish() - whole.finish()).abs() < 1e-12);
        assert_eq!(a.rows(), whole.rows());
    }

    #[test]
    fn restored_partial_is_bit_identical_to_streamed() {
        // One shared Partial serves every aggregate function: streaming the
        // same (value, weight) pairs through an Accumulator must land on
        // exactly the same state.
        let pairs = [(1.5, 2.0), (-3.25, 8.0), (7.0, 0.5), (0.1, 1.0)];
        let mut p = Partial::new();
        for (v, w) in pairs {
            p.add(v, w);
        }
        for func in [
            AggregateFn::Sum,
            AggregateFn::Count,
            AggregateFn::Avg,
            AggregateFn::Min,
            AggregateFn::Max,
        ] {
            let mut streamed = Accumulator::new(func);
            for (v, w) in pairs {
                streamed.add(v, w);
            }
            let restored = Accumulator::from_partial(func, p);
            assert_eq!(restored.finish().to_bits(), streamed.finish().to_bits());
            assert_eq!(restored.rows(), streamed.rows());
            assert_eq!(restored.weighted_sum(), streamed.weighted_sum());
        }
    }

    #[test]
    fn partial_merge_matches_accumulator_merge() {
        let mut a = Partial::new();
        let mut b = Partial::new();
        let mut aa = Accumulator::new(AggregateFn::Sum);
        let mut ab = Accumulator::new(AggregateFn::Sum);
        for (i, v) in [2.0, 3.0, 5.0, 7.0].iter().enumerate() {
            if i % 2 == 0 {
                a.add(*v, 1.5);
                aa.add(*v, 1.5);
            } else {
                b.add(*v, 1.5);
                ab.add(*v, 1.5);
            }
        }
        a.merge(&b);
        aa.merge(&ab);
        assert_eq!(
            Accumulator::from_partial(AggregateFn::Sum, a).finish(),
            aa.finish()
        );
        assert_eq!(a.rows(), aa.rows());
        assert_eq!(a.min_value(), aa.min_value());
        assert_eq!(a.max_value(), aa.max_value());
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
