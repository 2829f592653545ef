//! Nested-integrated rewriting (paper Fig 11): same physical layout as
//! Integrated, but the plan first aggregates *raw* values per
//! (query-grouping × ScaleFactor) inner group, then applies one multiply
//! per inner group — "fewer multiplications with the scalefactor ... (one
//! per group)" (§7.3.1).

use std::collections::HashMap;

use relation::{Column, ColumnId, DataType, Field, GroupKey, Relation};

use crate::aggregate::Partial;
use crate::cache::ExecOptions;
use crate::error::Result;
use crate::exec;
use crate::query::GroupByQuery;
use crate::result::QueryResult;
use crate::rewrite::SamplePlan;
use crate::stratified::StratifiedInput;

/// The Nested-integrated physical layout (identical storage to
/// [`crate::rewrite::Integrated`]; the difference is the query plan).
#[derive(Debug, Clone)]
pub struct NestedIntegrated {
    rel: Relation,
    sf_col: ColumnId,
    stratum_of_row: Vec<u32>,
    scale_factors: Vec<f64>,
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
            scale_factors: input.scale_factors.clone(),
        })
    }
}

impl SamplePlan for NestedIntegrated {
    fn name(&self) -> &'static str {
        "Nested-integrated"
    }

    fn strata(&self) -> (&[u32], &[f64]) {
        (&self.stratum_of_row, &self.scale_factors)
    }

    fn execute_cold(&self, query: &GroupByQuery, opts: &ExecOptions) -> Result<QueryResult> {
        // Inner query: raw (unscaled) aggregates per (query grouping, SF).
        // HAVING filters outer groups only.
        let g = query.grouping.len();
        let mut inner = GroupByQuery {
            having: None,
            ..query.clone()
        };
        inner.grouping.push(self.sf_col);
        let (inner_keys, inner_totals) = exec::fold(&self.rel, &inner, None, opts)?;

        // Outer: one multiply per inner group, merged in first-selected-row
        // order into the key with the trailing SF dropped.
        let na = query.aggregates.len();
        let positions: Vec<usize> = (0..g).collect();
        let mut outer: HashMap<GroupKey, usize> = HashMap::new();
        let (mut keys, mut totals) = (Vec::new(), Vec::<Partial>::new());
        for (key, partials) in inner_keys.iter().zip(inner_totals.chunks(na)) {
            let sf = key.values()[g].as_f64().expect("SF key value is numeric");
            let at = *outer
                .entry(key.project(&positions))
                .or_insert_with_key(|k| {
                    keys.push(k.clone());
                    totals.resize(totals.len() + na, Partial::new());
                    keys.len() - 1
                });
            for (total, p) in totals[at * na..][..na].iter_mut().zip(partials) {
                total.merge_scaled(p, sf);
            }
        }
        exec::emit_rows(keys, &totals, query)
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
