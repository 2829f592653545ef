//! Integrated rewriting (paper Fig 8): the ScaleFactor is stored as an
//! extra column of the sample relation, and every aggregate input is
//! multiplied by it per tuple.

use relation::{Column, ColumnId, DataType, Field, Relation};

use crate::cache::ExecOptions;
use crate::error::Result;
use crate::exec;
use crate::query::GroupByQuery;
use crate::result::QueryResult;
use crate::rewrite::SamplePlan;
use crate::stratified::StratifiedInput;

/// Name of the appended ScaleFactor column.
pub const SF_COLUMN: &str = "__sf";

/// The Integrated physical layout: `SampRel(base columns..., __sf)`.
#[derive(Debug, Clone)]
pub struct Integrated {
    rel: Relation,
    sf_col: ColumnId,
    stratum_of_row: Vec<u32>,
    scale_factors: Vec<f64>,
}

impl Integrated {
    /// Materialize the layout from a stratified sample.
    pub fn build(input: &StratifiedInput) -> Result<Integrated> {
        input.validate()?;
        let sf = Column::Float(input.row_scale_factors());
        let rel = input
            .rows
            .with_columns(vec![(Field::new(SF_COLUMN, DataType::Float), sf)])?;
        let sf_col = rel.schema().column_id(SF_COLUMN)?;
        Ok(Integrated {
            rel,
            sf_col,
            stratum_of_row: input.stratum_of_row.clone(),
            scale_factors: input.scale_factors.clone(),
        })
    }

    /// Id of the ScaleFactor column within [`Self::sample_relation`].
    pub fn sf_column(&self) -> ColumnId {
        self.sf_col
    }
}

impl SamplePlan for Integrated {
    fn name(&self) -> &'static str {
        "Integrated"
    }

    fn strata(&self) -> (&[u32], &[f64]) {
        (&self.stratum_of_row, &self.scale_factors)
    }

    fn execute_cold(&self, query: &GroupByQuery, opts: &ExecOptions) -> Result<QueryResult> {
        let weights = self
            .rel
            .column(self.sf_col)
            .as_float()
            .expect("SF column is Float by construction");
        exec::scan(&self.rel, query, Some(weights), opts)
    }

    fn sample_relation(&self) -> &Relation {
        &self.rel
    }

    fn rate_change_cost(&self, stratum: u32) -> usize {
        // Every tuple of the stratum stores its own SF copy.
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
    use relation::{Expr, GroupKey, Value};

    #[test]
    fn layout_appends_sf_column() {
        let p = Integrated::build(&sample()).unwrap();
        let rel = p.sample_relation();
        assert_eq!(rel.schema().width(), 4); // a, b, v, __sf
        assert_eq!(
            rel.column(p.sf_column()).as_float().unwrap(),
            &[2.0, 2.0, 2.0, 1.0, 1.0]
        );
    }

    #[test]
    fn scaled_sum_per_group() {
        let p = Integrated::build(&sample()).unwrap();
        let q = GroupByQuery::new(
            vec![ColumnId(0), ColumnId(1)],
            vec![AggregateSpec::sum(Expr::col(ColumnId(2)), "s")],
        );
        let r = p.execute(&q).unwrap();
        // ("x",1): sampled v ∈ {1,3} at SF 2 → 8
        let k = GroupKey::new(vec![Value::str("x"), Value::Int(1)]);
        assert_eq!(r.get(&k), Some(&[8.0][..]));
    }

    #[test]
    fn invalid_input_rejected() {
        let mut s = sample();
        s.scale_factors[0] = -1.0;
        assert!(Integrated::build(&s).is_err());
    }
}
