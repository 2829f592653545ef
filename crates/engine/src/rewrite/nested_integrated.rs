//! Nested-integrated rewriting (paper Fig 11): same physical layout as
//! Integrated, but the plan first aggregates *raw* values per
//! (query-grouping × ScaleFactor) inner group, then applies one multiply
//! per inner group — "fewer multiplications with the scalefactor ... (one
//! per group)" (§7.3.1).

use relation::{Column, ColumnId, DataType, Field, GroupKey, Relation};

use crate::aggregate::{Accumulator, AggregateFn};
use crate::cache::{ExecOptions, ServedFrom};
use crate::error::Result;
use crate::grouping::GroupIndex;
use crate::query::GroupByQuery;
use crate::result::QueryResult;
use crate::rewrite::{
    accumulate, capture, grouping_index, select, summary_accumulators, SamplePlan,
};
use crate::stratified::StratifiedInput;

/// The Nested-integrated physical layout (identical storage to
/// [`crate::rewrite::Integrated`]; the difference is the query plan).
#[derive(Debug, Clone)]
pub struct NestedIntegrated {
    rel: Relation,
    sf_col: ColumnId,
    stratum_of_row: Vec<u32>,
}

/// Outer-level accumulator combining inner per-SF partial aggregates.
#[derive(Debug, Clone, Copy)]
struct OuterAcc {
    func: AggregateFn,
    scaled_sum: f64,
    scaled_weight: f64,
    min: f64,
    max: f64,
    rows: u64,
}

impl OuterAcc {
    fn new(func: AggregateFn) -> Self {
        OuterAcc {
            func,
            scaled_sum: 0.0,
            scaled_weight: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            rows: 0,
        }
    }

    /// Fold in one inner group's raw accumulator with its ScaleFactor —
    /// the single multiply per (group × SF) the strategy is about.
    fn fold(&mut self, inner: &Accumulator, sf: f64) {
        self.scaled_sum += inner.weighted_sum() * sf;
        self.scaled_weight += inner.total_weight() * sf;
        self.min = self.min.min(inner.min_value());
        self.max = self.max.max(inner.max_value());
        self.rows += inner.rows();
    }

    fn finish(&self) -> f64 {
        match self.func {
            AggregateFn::Sum => self.scaled_sum,
            AggregateFn::Count => self.scaled_weight,
            AggregateFn::Avg => self.scaled_sum / self.scaled_weight,
            AggregateFn::Min => self.min,
            AggregateFn::Max => self.max,
        }
    }
}

impl NestedIntegrated {
    /// Materialize the layout from a stratified sample.
    pub fn build(input: &StratifiedInput) -> Result<NestedIntegrated> {
        input.validate()?;
        let sf = Column::Float(input.row_scale_factors());
        let rel = input.rows.with_columns(vec![(
            Field::new(super::integrated::SF_COLUMN, DataType::Float),
            sf,
        )])?;
        let sf_col = rel.schema().column_id(super::integrated::SF_COLUMN)?;
        Ok(NestedIntegrated {
            rel,
            sf_col,
            stratum_of_row: input.stratum_of_row.clone(),
        })
    }
}

impl SamplePlan for NestedIntegrated {
    fn name(&self) -> &'static str {
        "Nested-integrated"
    }

    fn execute_opts(&self, query: &GroupByQuery, opts: &ExecOptions) -> Result<QueryResult> {
        query.validate(&self.rel)?;
        let rel = &self.rel;

        // Inner grouping: (query grouping columns, SF). The unfiltered
        // inner index depends only on the grouping, so the cache can serve
        // it to every predicate over the same grouping.
        let mut inner_cols = query.grouping.clone();
        inner_cols.push(self.sf_col);

        // O(groups) fast path: a predicate over the grouping columns is
        // also constant within each *inner* group (the inner grouping
        // refines the query grouping), so cached unweighted partials
        // replace pass 1 entirely.
        if let Some(cache) = opts.cache {
            if rel.row_count() > 0 && query.predicate.references_only(&query.grouping) {
                if let Some(trace) = opts.trace {
                    trace.record(ServedFrom::Summary, 0);
                }
                let inner = cache.index_for(rel, &inner_cols, opts.parallel);
                let inner_accs = summary_accumulators(rel, &inner, None, query, opts, cache)?;
                return self.fold_outer(&inner, inner_accs, query);
            }
        }

        if let Some(trace) = opts.trace {
            let served = if opts.cache.is_some() {
                ServedFrom::CachedScan
            } else {
                ServedFrom::ColdScan
            };
            trace.record(served, rel.row_count() as u64);
        }
        let selection = select(rel, query, opts)?;
        let inner = grouping_index(rel, &inner_cols, opts);

        // Pass 1: raw (unscaled) aggregation per inner group.
        let inner_accs = accumulate(
            &inner,
            &selection.mask,
            &selection.exprs,
            None,
            query,
            opts.parallel,
            opts.cancel,
        )?;
        capture(opts, selection);
        self.fold_outer(&inner, inner_accs, query)
    }

    fn sample_relation(&self) -> &Relation {
        &self.rel
    }

    fn rate_change_cost(&self, stratum: u32) -> usize {
        // Same physical layout as Integrated: per-tuple SF copies.
        self.stratum_of_row
            .iter()
            .filter(|&&s| s == stratum)
            .count()
    }
}

impl NestedIntegrated {
    /// Pass 2: scale each inner group once and merge into the outer group
    /// obtained by dropping the trailing SF key value.
    fn fold_outer(
        &self,
        inner: &GroupIndex,
        inner_accs: Vec<Vec<Accumulator>>,
        query: &GroupByQuery,
    ) -> Result<QueryResult> {
        let outer_positions: Vec<usize> = (0..query.grouping.len()).collect();
        let mut outer: std::collections::HashMap<GroupKey, Vec<OuterAcc>> =
            std::collections::HashMap::new();
        for (gid, inner_group) in inner_accs.iter().enumerate() {
            if inner_group.first().is_none_or(|a| a.rows() == 0) {
                continue;
            }
            let inner_key = inner.key(gid as u32);
            let sf = inner_key.values()[query.grouping.len()]
                .as_f64()
                .expect("SF key value is numeric");
            let outer_key = inner_key.project(&outer_positions);
            let accs = outer.entry(outer_key).or_insert_with(|| {
                query
                    .aggregates
                    .iter()
                    .map(|a| OuterAcc::new(a.func))
                    .collect()
            });
            for (acc, raw) in accs.iter_mut().zip(inner_group) {
                acc.fold(raw, sf);
            }
        }

        let names = query.aggregates.iter().map(|a| a.name.clone()).collect();
        let rows = outer
            .into_iter()
            .map(|(k, accs)| (k, accs.iter().map(OuterAcc::finish).collect()))
            .collect();
        query.apply_having(QueryResult::new(names, rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateSpec;
    use crate::stratified::test_support::sample;
    use relation::{Expr, Value};

    #[test]
    fn avg_matches_figure_13_formula() {
        // Outer AVG must be Σ(SQ·SF) / Σ(SN·SF), not an average of means.
        let p = NestedIntegrated::build(&sample()).unwrap();
        let q = GroupByQuery::new(
            vec![ColumnId(0)],
            vec![AggregateSpec::avg(Expr::col(ColumnId(2)), "a")],
        );
        let r = p.execute(&q).unwrap();
        // group "x": strata SF=2 with values {1,3} and SF=2 with {10}
        // → (1+3+10)·2 / 3·2 = 28/6
        let k = GroupKey::new(vec![Value::str("x")]);
        let got = r.get(&k).unwrap()[0];
        assert!((got - 28.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn coarse_grouping_merges_multiple_sfs() {
        // Group by b: b=1 unions stratum ("x",1) @SF=2 and ("y",1) @SF=1.
        let p = NestedIntegrated::build(&sample()).unwrap();
        let q = GroupByQuery::new(vec![ColumnId(1)], vec![AggregateSpec::count("c")]);
        let r = p.execute(&q).unwrap();
        let k1 = GroupKey::new(vec![Value::Int(1)]);
        // 2 rows @SF2 + 2 rows @SF1 = 6
        assert_eq!(r.get(&k1), Some(&[6.0][..]));
    }

    #[test]
    fn min_max_pass_through_unscaled() {
        let p = NestedIntegrated::build(&sample()).unwrap();
        let q = GroupByQuery::new(
            vec![],
            vec![
                AggregateSpec::min(Expr::col(ColumnId(2)), "mn"),
                AggregateSpec::max(Expr::col(ColumnId(2)), "mx"),
            ],
        );
        let r = p.execute(&q).unwrap();
        let row = &r.rows()[0].1;
        assert_eq!(row[0], 1.0);
        assert_eq!(row[1], 200.0);
    }
}
