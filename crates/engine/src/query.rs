//! Typed group-by query description.

use serde::{Deserialize, Serialize};

use relation::predicate::CmpOp;
use relation::{ColumnId, Predicate, Relation};

use crate::aggregate::AggregateSpec;
use crate::error::{EngineError, Result};

/// A HAVING clause: keep only groups whose aggregate satisfies a
/// comparison. This is the paper's §1.1 motivating query shape — "identify
/// all states with per capita incomes above some value" — evaluated on the
/// *estimated* aggregates when running over a sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Having {
    /// Output name of the aggregate being filtered on.
    pub aggregate: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal threshold.
    pub value: f64,
}

impl Having {
    /// `aggregate <op> value`
    pub fn new(aggregate: impl Into<String>, op: CmpOp, value: f64) -> Having {
        Having {
            aggregate: aggregate.into(),
            op,
            value,
        }
    }

    /// Whether a group with aggregate value `v` survives the clause.
    pub fn keeps(&self, v: f64) -> bool {
        let ord = v.total_cmp(&self.value);
        match self.op {
            CmpOp::Eq => ord == std::cmp::Ordering::Equal,
            CmpOp::Ne => ord != std::cmp::Ordering::Equal,
            CmpOp::Lt => ord == std::cmp::Ordering::Less,
            CmpOp::Le => ord != std::cmp::Ordering::Greater,
            CmpOp::Gt => ord == std::cmp::Ordering::Greater,
            CmpOp::Ge => ord != std::cmp::Ordering::Less,
        }
    }
}

/// A single-table aggregate query with optional grouping and predicate —
/// the query class the paper targets (§3.1): `SELECT <grouping>,
/// <aggregates> FROM R WHERE <predicate> GROUP BY <grouping>`.
///
/// An empty `grouping` is the no-group-by query returning a single group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupByQuery {
    /// Grouping columns (possibly empty).
    pub grouping: Vec<ColumnId>,
    /// Aggregates in the SELECT list (at least one).
    pub aggregates: Vec<AggregateSpec>,
    /// WHERE-clause predicate.
    pub predicate: Predicate,
    /// Optional HAVING clause, applied after aggregation.
    pub having: Option<Having>,
}

impl GroupByQuery {
    /// Query with no predicate.
    pub fn new(grouping: Vec<ColumnId>, aggregates: Vec<AggregateSpec>) -> Self {
        GroupByQuery {
            grouping,
            aggregates,
            predicate: Predicate::True,
            having: None,
        }
    }

    /// Attach a predicate (chainable).
    pub fn with_predicate(mut self, p: Predicate) -> Self {
        self.predicate = p;
        self
    }

    /// Attach a HAVING clause (chainable).
    pub fn with_having(mut self, having: Having) -> Self {
        self.having = Some(having);
        self
    }

    /// Apply the HAVING clause (if any) to a computed result.
    pub fn apply_having(&self, result: crate::QueryResult) -> Result<crate::QueryResult> {
        let Some(having) = &self.having else {
            return Ok(result);
        };
        let idx =
            result
                .aggregate_index(&having.aggregate)
                .ok_or(EngineError::MalformedAggregate(
                    "HAVING references an aggregate not in the SELECT list",
                ))?;
        let names = result.aggregate_names.clone();
        let rows = result
            .rows()
            .iter()
            .filter(|(_, vals)| having.keeps(vals[idx]))
            .cloned()
            .collect();
        Ok(crate::QueryResult::new(names, rows))
    }

    /// Whether this is a no-group-by aggregate query.
    pub fn is_scalar(&self) -> bool {
        self.grouping.is_empty()
    }

    /// Validate the query against a relation's schema.
    pub fn validate(&self, rel: &Relation) -> Result<()> {
        if self.aggregates.is_empty() {
            return Err(EngineError::NoAggregates);
        }
        for &c in &self.grouping {
            rel.schema().field(c)?;
        }
        for a in &self.aggregates {
            match (&a.expr, a.func.needs_expr()) {
                (None, true) => {
                    return Err(EngineError::MalformedAggregate(
                        "aggregate requires an expression",
                    ))
                }
                (Some(_), false) => {
                    return Err(EngineError::MalformedAggregate(
                        "COUNT(*) takes no expression",
                    ))
                }
                (Some(e), true) => e.validate(rel)?,
                (None, false) => {}
            }
        }
        self.predicate.validate(rel)?;
        if let Some(h) = &self.having {
            if !self.aggregates.iter().any(|a| a.name == h.aggregate) {
                return Err(EngineError::MalformedAggregate(
                    "HAVING references an aggregate not in the SELECT list",
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateSpec;
    use relation::{DataType, Expr, RelationBuilder, Value};

    fn rel() -> Relation {
        let mut b = RelationBuilder::new()
            .column("g", DataType::Str)
            .column("v", DataType::Float);
        b.push_row(&[Value::str("a"), Value::from(1.0)]).unwrap();
        b.finish()
    }

    #[test]
    fn valid_query_passes() {
        let r = rel();
        let q = GroupByQuery::new(
            vec![ColumnId(0)],
            vec![
                AggregateSpec::sum(Expr::col(ColumnId(1)), "s"),
                AggregateSpec::count("c"),
            ],
        );
        assert!(q.validate(&r).is_ok());
        assert!(!q.is_scalar());
    }

    #[test]
    fn scalar_query() {
        let q = GroupByQuery::new(vec![], vec![AggregateSpec::count("c")]);
        assert!(q.is_scalar());
        assert!(q.validate(&rel()).is_ok());
    }

    #[test]
    fn rejects_empty_aggregates() {
        let q = GroupByQuery::new(vec![], vec![]);
        assert_eq!(q.validate(&rel()), Err(EngineError::NoAggregates));
    }

    #[test]
    fn rejects_malformed_aggregates() {
        let r = rel();
        let mut q = GroupByQuery::new(
            vec![],
            vec![AggregateSpec {
                func: crate::AggregateFn::Sum,
                expr: None,
                name: "s".into(),
            }],
        );
        assert!(matches!(
            q.validate(&r),
            Err(EngineError::MalformedAggregate(_))
        ));
        q.aggregates[0] = AggregateSpec {
            func: crate::AggregateFn::Count,
            expr: Some(Expr::lit(1.0)),
            name: "c".into(),
        };
        assert!(matches!(
            q.validate(&r),
            Err(EngineError::MalformedAggregate(_))
        ));
    }

    #[test]
    fn having_keeps_semantics() {
        let h = Having::new("s", CmpOp::Gt, 10.0);
        assert!(h.keeps(11.0));
        assert!(!h.keeps(10.0));
        assert!(Having::new("s", CmpOp::Le, 10.0).keeps(10.0));
        assert!(Having::new("s", CmpOp::Eq, 10.0).keeps(10.0));
        assert!(Having::new("s", CmpOp::Ne, 10.0).keeps(9.0));
        assert!(Having::new("s", CmpOp::Lt, 10.0).keeps(9.0));
        assert!(Having::new("s", CmpOp::Ge, 10.0).keeps(10.0));
    }

    #[test]
    fn having_validated_against_select_list() {
        let r = rel();
        let q = GroupByQuery::new(
            vec![ColumnId(0)],
            vec![AggregateSpec::sum(Expr::col(ColumnId(1)), "s")],
        )
        .with_having(Having::new("nope", CmpOp::Gt, 0.0));
        assert!(matches!(
            q.validate(&r),
            Err(EngineError::MalformedAggregate(_))
        ));
        let ok = GroupByQuery::new(
            vec![ColumnId(0)],
            vec![AggregateSpec::sum(Expr::col(ColumnId(1)), "s")],
        )
        .with_having(Having::new("s", CmpOp::Gt, 0.0));
        assert!(ok.validate(&r).is_ok());
    }

    #[test]
    fn apply_having_filters_groups() {
        use crate::QueryResult;
        use relation::GroupKey;
        let result = QueryResult::new(
            vec!["s".into()],
            vec![
                (GroupKey::new(vec![Value::str("hi")]), vec![100.0]),
                (GroupKey::new(vec![Value::str("lo")]), vec![1.0]),
            ],
        );
        let q = GroupByQuery::new(
            vec![ColumnId(0)],
            vec![AggregateSpec::sum(Expr::col(ColumnId(1)), "s")],
        )
        .with_having(Having::new("s", CmpOp::Ge, 50.0));
        let filtered = q.apply_having(result.clone()).unwrap();
        assert_eq!(filtered.group_count(), 1);
        assert_eq!(filtered.rows()[0].0, GroupKey::new(vec![Value::str("hi")]));
        // No clause → pass-through.
        let plain = GroupByQuery::new(vec![], vec![AggregateSpec::count("c")]);
        assert_eq!(plain.apply_having(result.clone()).unwrap(), result);
    }

    #[test]
    fn rejects_bad_columns() {
        let r = rel();
        let q = GroupByQuery::new(vec![ColumnId(7)], vec![AggregateSpec::count("c")]);
        assert!(q.validate(&r).is_err());
        // sum over string column
        let q = GroupByQuery::new(
            vec![],
            vec![AggregateSpec::sum(Expr::col(ColumnId(0)), "s")],
        );
        assert!(q.validate(&r).is_err());
        // predicate over unknown column
        let q = GroupByQuery::new(vec![], vec![AggregateSpec::count("c")])
            .with_predicate(Predicate::eq(ColumnId(9), 1i64));
        assert!(q.validate(&r).is_err());
    }
}
