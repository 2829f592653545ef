//! Rendering queries back to SQL, including the paper's Figures 8–11:
//! the rewritten SQL each physical strategy would hand the back-end DBMS.

use relation::predicate::CmpOp;
use relation::{Expr, Predicate, Schema, Value};

use crate::aggregate::{AggregateFn, AggregateSpec};
use crate::error::{EngineError, Result};
use crate::query::GroupByQuery;

fn col_name(schema: &Schema, id: relation::ColumnId) -> Result<&str> {
    Ok(&schema.field(id)?.name)
}

fn render_expr(e: &Expr, schema: &Schema) -> Result<String> {
    Ok(match e {
        Expr::Column(id) => col_name(schema, *id)?.to_string(),
        Expr::Literal(v) => format!("{v}"),
        Expr::Binary { op, lhs, rhs } => format!(
            "({} {} {})",
            render_expr(lhs, schema)?,
            op,
            render_expr(rhs, schema)?
        ),
    })
}

fn render_value(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Date(d) => format!("{d}"),
        other => format!("{other}"),
    }
}

fn render_cmp(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "=",
        CmpOp::Ne => "<>",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

fn render_pred(p: &Predicate, schema: &Schema) -> Result<String> {
    Ok(match p {
        Predicate::True => "1 = 1".to_string(),
        Predicate::Cmp { col, op, value } => format!(
            "{} {} {}",
            col_name(schema, *col)?,
            render_cmp(*op),
            render_value(value)
        ),
        Predicate::Between { col, lo, hi } => format!(
            "{} BETWEEN {} AND {}",
            col_name(schema, *col)?,
            render_value(lo),
            render_value(hi)
        ),
        Predicate::And(a, b) => format!(
            "({} AND {})",
            render_pred(a, schema)?,
            render_pred(b, schema)?
        ),
        Predicate::Or(a, b) => format!(
            "({} OR {})",
            render_pred(a, schema)?,
            render_pred(b, schema)?
        ),
        Predicate::Not(a) => format!("NOT ({})", render_pred(a, schema)?),
    })
}

fn render_agg(a: &AggregateSpec, schema: &Schema) -> Result<String> {
    let body = match (&a.expr, a.func) {
        (None, AggregateFn::Count) => "COUNT(*)".to_string(),
        (Some(e), f) => format!("{f}({})", render_expr(e, schema)?),
        _ => return Err(EngineError::MalformedAggregate("render")),
    };
    Ok(format!("{body} AS {}", a.name))
}

/// Canonical SQL text for a query against `table` (parseable back by
/// [`super::parse`]).
pub fn render(query: &GroupByQuery, schema: &Schema, table: &str) -> Result<String> {
    let mut select: Vec<String> = Vec::new();
    for &g in &query.grouping {
        select.push(col_name(schema, g)?.to_string());
    }
    for a in &query.aggregates {
        select.push(render_agg(a, schema)?);
    }
    let mut sql = format!("SELECT {} FROM {table}", select.join(", "));
    if query.predicate != Predicate::True {
        sql += &format!(" WHERE {}", render_pred(&query.predicate, schema)?);
    }
    if !query.grouping.is_empty() {
        let cols: Vec<&str> = query
            .grouping
            .iter()
            .map(|&g| col_name(schema, g))
            .collect::<Result<_>>()?;
        sql += &format!(" GROUP BY {}", cols.join(", "));
    }
    if let Some(h) = &query.having {
        sql += &format!(" HAVING {} {} {}", h.aggregate, render_cmp(h.op), h.value);
    }
    sql.push(';');
    Ok(sql)
}

/// Which Figure 8–11 rewrite to render.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewriteKind {
    /// Figure 8: per-tuple `SF` column.
    Integrated,
    /// Figure 11: nested plan grouping on `(cols, SF)`.
    NestedIntegrated,
    /// Figure 9: join with AuxRel on the grouping columns.
    Normalized,
    /// Figure 10: join with AuxRel on `GID`.
    KeyNormalized,
}

impl RewriteKind {
    /// All four, in the paper's presentation order.
    pub fn all() -> [RewriteKind; 4] {
        [
            RewriteKind::Integrated,
            RewriteKind::NestedIntegrated,
            RewriteKind::Normalized,
            RewriteKind::KeyNormalized,
        ]
    }

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            RewriteKind::Integrated => "Integrated",
            RewriteKind::NestedIntegrated => "Nested-integrated",
            RewriteKind::Normalized => "Normalized",
            RewriteKind::KeyNormalized => "Key-normalized",
        }
    }

    /// Stable lowercase token used by the CLI.
    pub fn token(self) -> &'static str {
        match self {
            RewriteKind::Integrated => "integrated",
            RewriteKind::NestedIntegrated => "nested",
            RewriteKind::Normalized => "normalized",
            RewriteKind::KeyNormalized => "keynorm",
        }
    }

    /// Parse a [`Self::token`] back; the error names the valid tokens.
    pub fn from_token(token: &str) -> std::result::Result<RewriteKind, String> {
        RewriteKind::all()
            .into_iter()
            .find(|r| r.token() == token)
            .ok_or_else(|| {
                format!("unknown rewrite `{token}` (integrated|nested|normalized|keynorm)")
            })
    }
}

/// The rewritten SQL the middleware would send to the DBMS for `query`
/// against sample relation `samp` (and auxiliary relation `aux` for the
/// normalized family) — the paper's Figures 8–11, generalized to any query
/// in the class. Only SUM/COUNT/AVG rewrites exist (§5.1); MIN/MAX pass
/// through unscaled.
pub fn render_rewritten(
    query: &GroupByQuery,
    schema: &Schema,
    kind: RewriteKind,
    samp: &str,
    aux: &str,
) -> Result<String> {
    let group_cols: Vec<String> = query
        .grouping
        .iter()
        .map(|&g| col_name(schema, g).map(str::to_string))
        .collect::<Result<_>>()?;
    let group_list = group_cols.join(", ");

    // Scaled aggregate per Figure 8/9/10 conventions.
    let scaled = |a: &AggregateSpec, sf: &str| -> Result<String> {
        Ok(match (a.func, &a.expr) {
            (AggregateFn::Sum, Some(e)) => {
                format!("SUM({} * {sf}) AS {}", render_expr(e, schema)?, a.name)
            }
            (AggregateFn::Count, _) => format!("SUM({sf}) AS {}", a.name),
            (AggregateFn::Avg, Some(e)) => {
                let x = render_expr(e, schema)?;
                format!("SUM({x} * {sf}) / SUM({sf}) AS {}", a.name)
            }
            (f, Some(e)) => format!("{f}({}) AS {}", render_expr(e, schema)?, a.name),
            _ => return Err(EngineError::MalformedAggregate("render_rewritten")),
        })
    };

    let where_clause = if query.predicate != Predicate::True {
        format!(" WHERE {}", render_pred(&query.predicate, schema)?)
    } else {
        String::new()
    };
    let group_by = if group_cols.is_empty() {
        String::new()
    } else {
        format!(" GROUP BY {group_list}")
    };
    let select_prefix = if group_cols.is_empty() {
        String::new()
    } else {
        format!("{group_list}, ")
    };

    let sql = match kind {
        RewriteKind::Integrated => {
            let aggs: Vec<String> = query
                .aggregates
                .iter()
                .map(|a| scaled(a, "SF"))
                .collect::<Result<_>>()?;
            format!(
                "SELECT {select_prefix}{} FROM {samp}{where_clause}{group_by};",
                aggs.join(", ")
            )
        }
        RewriteKind::NestedIntegrated => {
            // Figure 11: inner raw aggregation per (cols, SF), outer scale.
            // Figure 13's shape for AVG: the inner block emits both the
            // raw SUM (sq) and the raw COUNT (sn) so the outer block can
            // compute SUM(sq·SF)/SUM(sn·SF).
            let mut inner_aggs: Vec<String> = Vec::new();
            for (i, a) in query.aggregates.iter().enumerate() {
                match (a.func, &a.expr) {
                    (AggregateFn::Count, _) => inner_aggs.push(format!("COUNT(*) AS sn{i}")),
                    (AggregateFn::Avg, Some(e)) => {
                        inner_aggs.push(format!("SUM({}) AS sq{i}", render_expr(e, schema)?));
                        inner_aggs.push(format!("COUNT(*) AS sn{i}"));
                    }
                    (f, Some(e)) => {
                        inner_aggs.push(format!("{f}({}) AS sq{i}", render_expr(e, schema)?))
                    }
                    _ => return Err(EngineError::MalformedAggregate("render")),
                }
            }
            let outer_aggs: Vec<String> = query
                .aggregates
                .iter()
                .enumerate()
                .map(|(i, a)| match a.func {
                    AggregateFn::Sum => format!("SUM(sq{i} * SF) AS {}", a.name),
                    AggregateFn::Count => format!("SUM(sn{i} * SF) AS {}", a.name),
                    AggregateFn::Avg => {
                        format!("SUM(sq{i} * SF) / SUM(sn{i} * SF) AS {}", a.name)
                    }
                    AggregateFn::Min => format!("MIN(sq{i}) AS {}", a.name),
                    AggregateFn::Max => format!("MAX(sq{i}) AS {}", a.name),
                })
                .collect();
            let inner_group = if group_cols.is_empty() {
                " GROUP BY SF".to_string()
            } else {
                format!(" GROUP BY {group_list}, SF")
            };
            format!(
                "SELECT {select_prefix}{} FROM (SELECT {select_prefix}SF, {} FROM {samp}{where_clause}{inner_group}){group_by};",
                outer_aggs.join(", "),
                inner_aggs.join(", "),
            )
        }
        RewriteKind::Normalized => {
            // Figure 9: join on every stratification column of AuxRel.
            let aggs: Vec<String> = query
                .aggregates
                .iter()
                .map(|a| scaled(a, &format!("{aux}.SF")))
                .collect::<Result<_>>()?;
            format!(
                "SELECT {select_prefix}{} FROM {samp}, {aux} WHERE <{samp} strata columns> = <{aux} key columns>{}{group_by};",
                aggs.join(", "),
                if where_clause.is_empty() {
                    String::new()
                } else {
                    format!(" AND {}", &where_clause[7..])
                },
            )
        }
        RewriteKind::KeyNormalized => {
            let aggs: Vec<String> = query
                .aggregates
                .iter()
                .map(|a| scaled(a, &format!("{aux}.SF")))
                .collect::<Result<_>>()?;
            format!(
                "SELECT {select_prefix}{} FROM {samp}, {aux} WHERE {samp}.GID = {aux}.GID{}{group_by};",
                aggs.join(", "),
                if where_clause.is_empty() {
                    String::new()
                } else {
                    format!(" AND {}", &where_clause[7..])
                },
            )
        }
    };
    Ok(sql)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::{ColumnId, DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Str),
            Field::new("b", DataType::Int),
            Field::new("q", DataType::Float),
        ])
        .unwrap()
    }

    fn query() -> GroupByQuery {
        GroupByQuery::new(
            vec![ColumnId(0), ColumnId(1)],
            vec![AggregateSpec::sum(Expr::col(ColumnId(2)), "sq")],
        )
        .with_predicate(Predicate::le(ColumnId(1), 10i64))
    }

    #[test]
    fn render_basic() {
        let sql = render(&query(), &schema(), "rel").unwrap();
        assert_eq!(
            sql,
            "SELECT a, b, SUM(q) AS sq FROM rel WHERE b <= 10 GROUP BY a, b;"
        );
    }

    #[test]
    fn figure8_integrated_shape() {
        let sql = render_rewritten(
            &query(),
            &schema(),
            RewriteKind::Integrated,
            "samp_rel",
            "aux",
        )
        .unwrap();
        assert_eq!(
            sql,
            "SELECT a, b, SUM(q * SF) AS sq FROM samp_rel WHERE b <= 10 GROUP BY a, b;"
        );
    }

    #[test]
    fn figure11_nested_shape() {
        let sql = render_rewritten(
            &query(),
            &schema(),
            RewriteKind::NestedIntegrated,
            "samp_rel",
            "aux",
        )
        .unwrap();
        // Inner groups by (a, b, SF) with raw SUM; outer multiplies once.
        assert!(sql.contains("GROUP BY a, b, SF"), "{sql}");
        assert!(sql.contains("SUM(sq0 * SF) AS sq"), "{sql}");
        assert!(sql.starts_with("SELECT a, b, "), "{sql}");
    }

    #[test]
    fn figure10_keynormalized_shape() {
        let sql = render_rewritten(
            &query(),
            &schema(),
            RewriteKind::KeyNormalized,
            "samp_rel",
            "aux_rel",
        )
        .unwrap();
        assert!(sql.contains("samp_rel.GID = aux_rel.GID"), "{sql}");
        assert!(sql.contains("SUM(q * aux_rel.SF) AS sq"), "{sql}");
        assert!(sql.contains("AND b <= 10"), "{sql}");
    }

    #[test]
    fn avg_and_count_rewrites() {
        let q = GroupByQuery::new(
            vec![ColumnId(0)],
            vec![
                AggregateSpec::avg(Expr::col(ColumnId(2)), "aq"),
                AggregateSpec::count("c"),
            ],
        );
        let sql = render_rewritten(&q, &schema(), RewriteKind::Integrated, "s", "x").unwrap();
        // §5.2: avg → sum(Q*SF)/sum(SF); count → sum(SF).
        assert!(sql.contains("SUM(q * SF) / SUM(SF) AS aq"), "{sql}");
        assert!(sql.contains("SUM(SF) AS c"), "{sql}");
    }

    #[test]
    fn render_handles_having_and_no_grouping() {
        use crate::query::Having;
        let q = GroupByQuery::new(vec![], vec![AggregateSpec::count("c")])
            .with_having(Having::new("c", CmpOp::Gt, 5.0));
        let sql = render(&q, &schema(), "rel").unwrap();
        assert_eq!(sql, "SELECT COUNT(*) AS c FROM rel HAVING c > 5;");
    }

    #[test]
    fn string_literals_escaped() {
        let q = GroupByQuery::new(vec![], vec![AggregateSpec::count("c")])
            .with_predicate(Predicate::eq(ColumnId(0), "it's"));
        let sql = render(&q, &schema(), "rel").unwrap();
        assert!(sql.contains("a = 'it''s'"), "{sql}");
    }
}
