//! Key-normalized rewriting (paper Fig 10): like Normalized, but each
//! sample tuple carries an integer group identifier (GID) and AuxRel is
//! keyed by GID — "a shorter join predicate involving just one attribute"
//! (§7.3.1).

use relation::{Column, ColumnId, DataType, Field, Relation};

use crate::cache::ExecOptions;
use crate::error::{EngineError, Result};
use crate::exec;
use crate::join::hash_join_unique_int;
use crate::query::GroupByQuery;
use crate::result::QueryResult;
use crate::rewrite::normalized::build_gid_aux;
use crate::rewrite::SamplePlan;
use crate::stratified::StratifiedInput;

/// Name of the appended GID column.
pub const GID_COLUMN: &str = "__gid";

/// The Key-normalized physical layout: `SampRel(base..., __gid)` plus
/// `AuxRel(__gid, __sf)`.
#[derive(Debug, Clone)]
pub struct KeyNormalized {
    rel: Relation,
    aux: Relation,
    gid_col: ColumnId,
    /// Stratum id per sample row (the GID column's values) and AuxRel's SF
    /// column by GID: what the cached path reads in place of the GID join.
    stratum_of_row: Vec<u32>,
    scale_factors: Vec<f64>,
}

impl KeyNormalized {
    /// Materialize the layout from a stratified sample.
    pub fn build(input: &StratifiedInput) -> Result<KeyNormalized> {
        input.validate()?;
        let gids: Vec<i64> = input.stratum_of_row.iter().map(|&s| s as i64).collect();
        let rel = input.rows.with_columns(vec![(
            Field::new(GID_COLUMN, DataType::Int),
            Column::Int(gids),
        )])?;
        let gid_col = rel.schema().column_id(GID_COLUMN)?;
        let aux = build_gid_aux(&input.scale_factors);
        Ok(KeyNormalized {
            rel,
            aux,
            gid_col,
            stratum_of_row: input.stratum_of_row.clone(),
            scale_factors: input.scale_factors.clone(),
        })
    }

    /// The auxiliary (GID → ScaleFactor) relation.
    pub fn aux_relation(&self) -> &Relation {
        &self.aux
    }

    fn join_scale_factors(&self) -> Result<Vec<f64>> {
        let probe = self.rel.column(self.gid_col).as_int().expect("GID is Int");
        let build = self
            .aux
            .column(self.aux.schema().column_id(GID_COLUMN)?)
            .as_int()
            .expect("aux GID is Int");
        let sfs = self
            .aux
            .column(self.aux.schema().column_id("__sf")?)
            .as_float()
            .expect("__sf is Float");
        hash_join_unique_int(probe, build)?
            .into_iter()
            .map(|m| {
                m.map(|r| sfs[r]).ok_or_else(|| {
                    EngineError::InvalidStratifiedInput(
                        "sample tuple's GID missing from AuxRel".into(),
                    )
                })
            })
            .collect()
    }
}

impl SamplePlan for KeyNormalized {
    fn name(&self) -> &'static str {
        "Key-normalized"
    }

    fn strata(&self) -> (&[u32], &[f64]) {
        (&self.stratum_of_row, &self.scale_factors)
    }

    fn execute_cold(&self, query: &GroupByQuery, opts: &ExecOptions) -> Result<QueryResult> {
        // Pay the single-int GID join per query (Fig 10).
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
        usize::from((stratum as usize) < self.aux.row_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateSpec;
    use crate::stratified::test_support::sample;
    use relation::{Expr, GroupKey, Value};

    #[test]
    fn layout_has_gid_and_compact_aux() {
        let p = KeyNormalized::build(&sample()).unwrap();
        assert_eq!(p.sample_relation().schema().width(), 4); // a, b, v, __gid
        assert_eq!(p.aux_relation().schema().width(), 2); // __gid, __sf
        assert_eq!(p.aux_relation().row_count(), 3);
    }

    #[test]
    fn gid_join_recovers_scale_factors() {
        let p = KeyNormalized::build(&sample()).unwrap();
        assert_eq!(
            p.join_scale_factors().unwrap(),
            vec![2.0, 2.0, 2.0, 1.0, 1.0]
        );
    }

    #[test]
    fn aux_smaller_than_normalized_aux() {
        // The GID aux drops the grouping columns, so it is at most as wide.
        let s = sample();
        let kn = KeyNormalized::build(&s).unwrap();
        let n = crate::rewrite::Normalized::build(&s).unwrap();
        assert!(kn.aux_relation().approx_bytes() <= n.aux_relation().approx_bytes());
    }

    #[test]
    fn executes_scaled_query() {
        let p = KeyNormalized::build(&sample()).unwrap();
        let q = GroupByQuery::new(
            vec![ColumnId(0)],
            vec![AggregateSpec::avg(Expr::col(ColumnId(2)), "a")],
        );
        let r = p.execute(&q).unwrap();
        let y = GroupKey::new(vec![Value::str("y")]);
        assert_eq!(r.get(&y), Some(&[150.0][..]));
    }
}
