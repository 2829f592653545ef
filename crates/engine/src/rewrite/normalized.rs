//! Normalized rewriting (paper Fig 9): the sample relation stores no
//! ScaleFactor; instead an auxiliary relation `AuxRel(grouping columns...,
//! sf)` holds one row per stratum, and every query joins SampRel with
//! AuxRel on the grouping attributes.

use relation::{Column, ColumnId, DataType, Field, Relation, RelationBuilder, Value};

use crate::cache::ExecOptions;
use crate::error::{EngineError, Result};
use crate::exec;
use crate::join::hash_join_unique;
use crate::query::GroupByQuery;
use crate::result::QueryResult;
use crate::rewrite::SamplePlan;
use crate::stratified::StratifiedInput;

/// The Normalized physical layout: plain sample + grouping-keyed AuxRel.
#[derive(Debug, Clone)]
pub struct Normalized {
    rel: Relation,
    aux: Relation,
    /// Grouping columns within `rel` (probe side of the join).
    probe_cols: Vec<ColumnId>,
    /// Matching key columns within `aux` (build side).
    build_cols: Vec<ColumnId>,
    /// Stratum id per sample row and AuxRel's SF column in stratum order:
    /// what the cached path reads in place of the per-query join.
    stratum_of_row: Vec<u32>,
    scale_factors: Vec<f64>,
}

impl Normalized {
    /// Materialize the layout from a stratified sample.
    pub fn build(input: &StratifiedInput) -> Result<Normalized> {
        input.validate()?;

        // AuxRel: one row per stratum — the stratum's grouping-column
        // values followed by its ScaleFactor.
        let mut b = RelationBuilder::new();
        for &c in &input.grouping_columns {
            let f = input.rows.schema().field(c)?;
            b = b.column(f.name.clone(), f.data_type);
        }
        b = b.column("__sf", DataType::Float);
        for (key, &sf) in input.strata_keys.iter().zip(&input.scale_factors) {
            let mut row: Vec<Value> = key.values().to_vec();
            row.push(Value::from(sf));
            b.push_row(&row)?;
        }
        let aux = b.finish();
        let build_cols: Vec<ColumnId> = (0..input.grouping_columns.len()).map(ColumnId).collect();

        Ok(Normalized {
            rel: input.rows.clone(),
            aux,
            probe_cols: input.grouping_columns.clone(),
            build_cols,
            stratum_of_row: input.stratum_of_row.clone(),
            scale_factors: input.scale_factors.clone(),
        })
    }

    /// The auxiliary (stratum → ScaleFactor) relation.
    pub fn aux_relation(&self) -> &Relation {
        &self.aux
    }

    /// Join SampRel to AuxRel and return the per-row ScaleFactor.
    fn join_scale_factors(&self) -> Result<Vec<f64>> {
        let matches = hash_join_unique(&self.rel, &self.probe_cols, &self.aux, &self.build_cols)?;
        let sf_col = self.aux.schema().column_id("__sf")?;
        let sfs = self.aux.column(sf_col).as_float().expect("__sf is Float");
        matches
            .into_iter()
            .map(|m| {
                m.map(|r| sfs[r]).ok_or_else(|| {
                    EngineError::InvalidStratifiedInput(
                        "sample tuple's group missing from AuxRel".into(),
                    )
                })
            })
            .collect()
    }
}

impl SamplePlan for Normalized {
    fn name(&self) -> &'static str {
        "Normalized"
    }

    fn strata(&self) -> (&[u32], &[f64]) {
        (&self.stratum_of_row, &self.scale_factors)
    }

    fn execute_cold(&self, query: &GroupByQuery, opts: &ExecOptions) -> Result<QueryResult> {
        // The join is part of the rewritten query (Fig 9), so it is paid on
        // every execution — that cost is exactly what Expt 3/4 measure.
        let weights = self.join_scale_factors()?;
        exec::scan(&self.rel, query, Some(&weights), opts)
    }

    fn sample_relation(&self) -> &Relation {
        &self.rel
    }

    fn storage_bytes(&self) -> usize {
        self.rel.approx_bytes() + self.aux.approx_bytes()
    }

    fn rate_change_cost(&self, stratum: u32) -> usize {
        // One AuxRel row holds the stratum's SF.
        usize::from((stratum as usize) < self.aux.row_count())
    }
}

/// Shared helper for [`super::KeyNormalized`]: build an AuxRel of
/// `(gid, sf)` pairs.
pub(crate) fn build_gid_aux(scale_factors: &[f64]) -> Relation {
    let gids: Vec<i64> = (0..scale_factors.len() as i64).collect();
    let schema = relation::Schema::new(vec![
        Field::new("__gid", DataType::Int),
        Field::new("__sf", DataType::Float),
    ])
    .expect("static schema");
    Relation::new(
        schema,
        vec![Column::Int(gids), Column::Float(scale_factors.to_vec())],
    )
    .expect("columns match schema")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateSpec;
    use crate::stratified::test_support::sample;
    use relation::{Expr, GroupKey};

    #[test]
    fn aux_relation_one_row_per_stratum() {
        let p = Normalized::build(&sample()).unwrap();
        assert_eq!(p.aux_relation().row_count(), 3);
        assert_eq!(p.aux_relation().schema().width(), 3); // a, b, __sf
    }

    #[test]
    fn join_recovers_scale_factors() {
        let p = Normalized::build(&sample()).unwrap();
        assert_eq!(
            p.join_scale_factors().unwrap(),
            vec![2.0, 2.0, 2.0, 1.0, 1.0]
        );
    }

    #[test]
    fn storage_includes_aux() {
        let p = Normalized::build(&sample()).unwrap();
        assert!(p.storage_bytes() > p.sample_relation().approx_bytes());
    }

    #[test]
    fn executes_scaled_query() {
        let p = Normalized::build(&sample()).unwrap();
        let q = GroupByQuery::new(
            vec![],
            vec![AggregateSpec::sum(Expr::col(ColumnId(2)), "s")],
        );
        let r = p.execute(&q).unwrap();
        // (1+3)·2 + 10·2 + (100+200)·1 = 328
        assert_eq!(r.get(&GroupKey::empty()), Some(&[328.0][..]));
    }

    #[test]
    fn missing_aux_row_detected() {
        let mut s = sample();
        // Remove a stratum key/SF pair while keeping its rows: corrupt.
        s.strata_keys.pop();
        s.scale_factors.pop();
        // stratum_of_row still references stratum 2 → validate() catches it
        assert!(Normalized::build(&s).is_err());
    }
}
