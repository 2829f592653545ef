//! Approximate answers with per-group error bounds (Figures 2 and 4).

use std::fmt;

use congress::bounds::{
    avg_bound_hoeffding, stratified_avg_bound, stratified_sum_bound, ErrorBound,
};
use engine::rewrite::execute_cells;
use engine::{
    AggregateFn, AggregateSpec, ExecOptions, GroupByQuery, Moments, QueryCache, QueryCells,
    QueryResult, StratifiedInput, StratumSummary,
};
use relation::GroupKey;

use crate::error::Result;

/// Error bounds for one output group, one entry per aggregate in the
/// query's SELECT list (`None` for MIN/MAX, which have no distribution-free
/// bound from a sample).
#[derive(Debug, Clone)]
pub struct GroupBounds {
    /// The group key.
    pub key: GroupKey,
    /// Per-aggregate bounds, aligned with the query's aggregates.
    pub bounds: Vec<Option<ErrorBound>>,
}

/// How an answer was produced, so callers can tell a genuine synopsis
/// estimate from an exact scan, asked for or degraded-mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnswerProvenance {
    /// The normal path: estimated from the congressional synopsis.
    Sampled,
    /// An exact scan of the base relation, as requested.
    Exact,
    /// Degraded mode: the synopsis was unavailable (e.g. quarantined after
    /// corruption) and the answer is an exact scan of the base relation.
    ExactFallback {
        /// Why the synopsis path was bypassed.
        reason: String,
    },
}

/// An approximate answer: scaled estimates plus bounds at the configured
/// confidence — the shape of the paper's Figure 4 output.
#[derive(Debug, Clone)]
pub struct ApproximateAnswer {
    /// Scaled estimates per group.
    pub result: QueryResult,
    /// Per-group error bounds (same key order as `result`).
    pub bounds: Vec<GroupBounds>,
    /// Confidence level the bounds hold at.
    pub confidence: f64,
    /// Which path produced the answer.
    pub provenance: AnswerProvenance,
}

impl ApproximateAnswer {
    /// Bound lookup by group key.
    pub fn bounds_for(&self, key: &GroupKey) -> Option<&GroupBounds> {
        self.bounds.iter().find(|b| &b.key == key)
    }

    /// `true` when the answer came from an exact scan rather than the
    /// synopsis (degraded mode).
    pub fn is_degraded(&self) -> bool {
        matches!(self.provenance, AnswerProvenance::ExactFallback { .. })
    }
}

impl fmt::Display for ApproximateAnswer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let AnswerProvenance::ExactFallback { reason } = &self.provenance {
            writeln!(f, "[degraded: exact scan — {reason}]")?;
        }
        writeln!(
            f,
            "group | {} (±bound @ {:.0}% confidence)",
            self.result.aggregate_names.join(" | "),
            self.confidence * 100.0
        )?;
        for (i, (key, vals)) in self.result.iter().enumerate() {
            write!(f, "{key}")?;
            for (j, v) in vals.iter().enumerate() {
                let b = self.bounds.get(i).and_then(|gb| gb.bounds[j]);
                match b {
                    Some(b) => write!(f, " | {:.4e} ± {:.1e}", v, b.half_width)?,
                    None => write!(f, " | {v:.4e}")?,
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Compute per-group, per-aggregate error bounds for `query` over a
/// stratified sample: run [`execute_cells`] (the answer path's fold) over
/// `cache`, if given, and read the bounds off the cells it returns
/// ([`compute_bounds_from_cells`]). `_result` is not read: the bounds
/// follow the groups the fold finds, which are `result`'s when it answers
/// `query` over `input`. The answer path reads the bounds off the cells
/// its estimate came from; this entry point stays for the benchmark's
/// traced replay (ROADMAP item 6).
///
/// For each output group `h` and contributing stratum `i`, the bound
/// machinery needs the moments of the aggregate input over the sampled
/// tuples and the stratum's (estimated) population within `h`:
/// `N_i = SF_i × (sampled tuples of stratum i in h)`. SUM and COUNT use
/// the stratified-sum Chebyshev bound over *predicate-indicator* values
/// (so tuples failing the WHERE clause contribute zeros, exactly like the
/// rewritten SQL); AVG uses the stratified mean bound over qualifying
/// tuples, falling back to Hoeffding when only one stratum contributes.
pub fn compute_bounds_cached(
    input: &StratifiedInput,
    query: &GroupByQuery,
    _result: &QueryResult,
    confidence: f64,
    cache: Option<&QueryCache>,
) -> Result<Vec<GroupBounds>> {
    let local;
    let cache = match cache {
        Some(c) => c,
        None => {
            local = QueryCache::new();
            &local
        }
    };
    let (strata, sfs) = (&input.stratum_of_row, &input.scale_factors);
    let opts = ExecOptions::default();
    let (_, cells) = execute_cells(&input.rows, strata, sfs, query, &opts, cache)?;
    Ok(compute_bounds_from_cells(input, query, confidence, &cells))
}

/// Bounds for each group the [`QueryCells`] name (`cells.gids`, the rows
/// of the result [`execute_cells`] returned beside them), from the query's
/// per-aggregate moment tables, so no row is folded again. A group's cells
/// come sorted by stratum id, so the bound formulas fold their
/// floating-point terms in one fixed order on every path.
///
/// SUM and COUNT are bounded over predicate-indicator values `v·sel` of all
/// of a cell's rows. The unselected rows would each add `0.0` to `Σx` and
/// `Σx²`, which cannot change their bits (a running sum that starts at
/// `+0.0` is never `−0.0`), so those are the selected rows' sums with the
/// layout's unfiltered row count as `n`. COUNT's value is the constant `1`,
/// whose sum and sum of squares over `k` selected rows are exactly `k`.
pub fn compute_bounds_from_cells(
    input: &StratifiedInput,
    query: &GroupByQuery,
    confidence: f64,
    cells: &QueryCells,
) -> Vec<GroupBounds> {
    let layout = &cells.layout;
    let mut parts: Vec<(Moments, u64)> = Vec::new();
    let mut bound = |spec: &AggregateSpec, table: &StratumSummary, gid: u32| {
        let table = table.cells();
        // A cell's moments with `n` sampled tuples standing for `SF × n` of
        // the population.
        let part = |c: usize, n: u64| {
            let cell = &table[c];
            let (sum, sum_sq) = match spec.func {
                AggregateFn::Count => (cell.n as f64, cell.n as f64),
                _ => (cell.sum, cell.sum_sq),
            };
            let sf = input.scale_factors[layout.stratum_of(c) as usize];
            let pop = (sf * n as f64).round() as u64;
            let moments = Moments {
                n,
                sum,
                sum_sq,
                ..*cell
            };
            (moments, pop.max(n))
        };
        parts.clear();
        match spec.func {
            // No distribution-free bound from a sample.
            AggregateFn::Min | AggregateFn::Max => None,
            AggregateFn::Avg => {
                // Qualifying tuples only; strata with none drop out.
                let selected = layout.cells_of(gid).filter(|&c| table[c].n > 0);
                parts.extend(selected.map(|c| part(c, table[c].n)));
                Some(if parts.len() == 1 {
                    avg_bound_hoeffding(&parts[0].0, confidence)
                } else {
                    stratified_avg_bound(&parts, confidence)
                })
            }
            AggregateFn::Sum | AggregateFn::Count => {
                parts.extend(layout.cells_of(gid).map(|c| part(c, layout.rows_of(c))));
                Some(stratified_sum_bound(&parts, confidence))
            }
        }
    };
    cells
        .gids
        .iter()
        .map(|&gid| {
            let aggregates = query.aggregates.iter().zip(&cells.tables);
            GroupBounds {
                key: cells.index.key(gid).clone(),
                bounds: aggregates.map(|(spec, t)| bound(spec, t, gid)).collect(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::rewrite::{Integrated, SamplePlan};
    use engine::AggregateSpec;
    use relation::{ColumnId, DataType, Expr, Predicate, RelationBuilder, Value};

    /// Base of 100 rows in 2 groups (80/20); stratified sample of 10+10.
    fn fixture() -> (StratifiedInput, GroupByQuery) {
        let mut b = RelationBuilder::new()
            .column("g", DataType::Str)
            .column("v", DataType::Float);
        for i in 0..100i64 {
            let g = if i < 80 { "big" } else { "small" };
            b.push_row(&[Value::str(g), Value::from((i % 13) as f64)])
                .unwrap();
        }
        let base = b.finish();
        let rows: Vec<usize> = (0..80).step_by(8).chain((80..100).step_by(2)).collect();
        let sampled = base.gather(&rows);
        let input = StratifiedInput {
            rows: sampled,
            stratum_of_row: (0..20).map(|i| u32::from(i >= 10)).collect(),
            scale_factors: vec![8.0, 2.0],
            strata_keys: vec![
                GroupKey::new(vec![Value::str("big")]),
                GroupKey::new(vec![Value::str("small")]),
            ],
            grouping_columns: vec![ColumnId(0)],
        };
        input.validate().unwrap();
        let q = GroupByQuery::new(
            vec![ColumnId(0)],
            vec![
                AggregateSpec::sum(Expr::col(ColumnId(1)), "s"),
                AggregateSpec::count("c"),
                AggregateSpec::avg(Expr::col(ColumnId(1)), "a"),
            ],
        );
        (input, q)
    }

    fn bounds(input: &StratifiedInput, q: &GroupByQuery, r: &QueryResult) -> Vec<GroupBounds> {
        compute_bounds_cached(input, q, r, 0.9, None).unwrap()
    }

    #[test]
    fn bounds_cover_every_group_and_aggregate() {
        let (input, q) = fixture();
        let plan = Integrated::build(&input).unwrap();
        let result = plan.execute(&q).unwrap();
        let bounds = bounds(&input, &q, &result);
        assert_eq!(bounds.len(), result.group_count());
        for gb in &bounds {
            assert_eq!(gb.bounds.len(), 3);
            for b in gb.bounds.iter().flatten() {
                assert!(b.half_width.is_finite());
                assert!(b.half_width >= 0.0);
                assert_eq!(b.confidence, 0.9);
            }
        }
    }

    #[test]
    fn count_bound_zero_when_stratum_fully_selected_uniformly() {
        // COUNT over a fully-sampled stratum with no predicate: indicator
        // variance is zero → bound is exactly 0.
        let (mut input, _) = fixture();
        input.scale_factors = vec![1.0, 1.0]; // pretend fully sampled
        let q = GroupByQuery::new(vec![ColumnId(0)], vec![AggregateSpec::count("c")]);
        let plan = Integrated::build(&input).unwrap();
        let result = plan.execute(&q).unwrap();
        let bounds = bounds(&input, &q, &result);
        for gb in &bounds {
            assert_eq!(gb.bounds[0].unwrap().half_width, 0.0);
        }
    }

    #[test]
    fn min_max_have_no_bounds() {
        let (input, _) = fixture();
        let q = GroupByQuery::new(
            vec![ColumnId(0)],
            vec![AggregateSpec::min(Expr::col(ColumnId(1)), "mn")],
        );
        let plan = Integrated::build(&input).unwrap();
        let result = plan.execute(&q).unwrap();
        let bounds = bounds(&input, &q, &result);
        assert!(bounds.iter().all(|gb| gb.bounds[0].is_none()));
    }

    #[test]
    fn predicate_widens_sum_bound_via_indicators() {
        let (input, _) = fixture();
        let plan = Integrated::build(&input).unwrap();
        let q_all = GroupByQuery::new(vec![ColumnId(0)], vec![AggregateSpec::count("c")]);
        // A ~50% predicate creates indicator variance where none existed.
        let q_half = q_all
            .clone()
            .with_predicate(Predicate::ge(ColumnId(1), 6.0));
        let r_all = plan.execute(&q_all).unwrap();
        let r_half = plan.execute(&q_half).unwrap();
        let b_all = bounds(&input, &q_all, &r_all);
        let b_half = bounds(&input, &q_half, &r_half);
        let key = GroupKey::new(vec![Value::str("big")]);
        let w_all = b_all.iter().find(|g| g.key == key).unwrap().bounds[0]
            .unwrap()
            .half_width;
        let w_half = b_half.iter().find(|g| g.key == key).unwrap().bounds[0]
            .unwrap()
            .half_width;
        assert!(
            w_half > w_all,
            "predicate indicator variance: {w_half} vs {w_all}"
        );
    }

    #[test]
    fn display_renders_bounds() {
        let (input, q) = fixture();
        let plan = Integrated::build(&input).unwrap();
        let result = plan.execute(&q).unwrap();
        let bounds = bounds(&input, &q, &result);
        let ans = ApproximateAnswer {
            result,
            bounds,
            confidence: 0.9,
            provenance: AnswerProvenance::Sampled,
        };
        let s = ans.to_string();
        assert!(s.contains('±') && s.contains("90%"));
        assert!(!s.contains("degraded") && !ans.is_degraded());
        assert!(ans
            .bounds_for(&GroupKey::new(vec![Value::str("big")]))
            .is_some());
    }

    #[test]
    fn display_flags_degraded_answers() {
        let (input, q) = fixture();
        let plan = Integrated::build(&input).unwrap();
        let result = plan.execute(&q).unwrap();
        let ans = ApproximateAnswer {
            result,
            bounds: Vec::new(),
            confidence: 1.0,
            provenance: AnswerProvenance::ExactFallback {
                reason: "synopsis quarantined".into(),
            },
        };
        assert!(ans.is_degraded());
        let s = ans.to_string();
        assert!(s.contains("degraded") && s.contains("synopsis quarantined"));
    }
}
