//! Exact query execution via hash aggregation.

use relation::kernels::{self, KernelStats};
use relation::{chunk_count, chunk_range, Bitmap, DataType, EncodedRelation, Expr, Relation};

use crate::aggregate::{Accumulator, Partial};
use crate::cache::{ExecOptions, ServedFrom};
use crate::cancel;
use crate::error::Result;
use crate::grouping::GroupIndex;
use crate::query::GroupByQuery;
use crate::result::QueryResult;
use crate::rewrite::{accumulate, eval_predicate, finish_rows, masked_exprs};

/// Execute `query` exactly over `rel` with a single hash-aggregation pass.
///
/// This produces the ground truth that the paper's error metrics (Def 3.1)
/// compare approximate answers against. Groups with no qualifying rows do
/// not appear in the output (matching SQL GROUP BY semantics); a scalar
/// query over zero qualifying rows yields an empty result rather than a
/// NULL row.
///
/// ```
/// use engine::{execute_exact, AggregateSpec, GroupByQuery};
/// use relation::{ColumnId, DataType, Expr, RelationBuilder, Value};
///
/// let mut b = RelationBuilder::new()
///     .column("g", DataType::Str)
///     .column("v", DataType::Float);
/// b.push_row(&[Value::str("a"), Value::from(1.0)]).unwrap();
/// b.push_row(&[Value::str("a"), Value::from(2.0)]).unwrap();
/// b.push_row(&[Value::str("b"), Value::from(5.0)]).unwrap();
/// let rel = b.finish();
///
/// let q = GroupByQuery::new(
///     vec![ColumnId(0)],
///     vec![AggregateSpec::sum(Expr::col(ColumnId(1)), "s")],
/// );
/// let result = execute_exact(&rel, &q).unwrap();
/// assert_eq!(result.group_count(), 2);
/// ```
pub fn execute_exact(rel: &Relation, query: &GroupByQuery) -> Result<QueryResult> {
    execute_exact_opts(rel, query, &ExecOptions::default())
}

/// [`execute_exact`] with explicit [`ExecOptions`]. The zone-map pass
/// runs first, so a selective predicate over a clustered column skips
/// whole chunks in the predicate scan *and* in the group-index build; the
/// result is bit-identical to a full scan because chunk verdicts are
/// exact. `opts.cancel` is polled at chunk boundaries of the aggregation
/// pass, so an exact scan over a large base table (e.g. a degraded
/// warehouse relation) still honors per-request deadlines; a token that
/// never fires cannot change the result. `opts.cache` is ignored — exact
/// execution runs over the base table, whose group index is
/// predicate-filtered and therefore not reusable across predicates.
pub fn execute_exact_opts(
    rel: &Relation,
    query: &GroupByQuery,
    opts: &ExecOptions,
) -> Result<QueryResult> {
    query.validate(rel)?;

    let (mask, ranges) = eval_predicate(rel, &query.predicate, opts);
    if let Some(trace) = opts.trace {
        trace.record(ServedFrom::ColdScan, ranges.covered_rows() as u64);
    }
    // Decode-free scalar fold: a no-grouping query over bare columns needs
    // no group index, no dense expression buffers, and — for fully
    // selected chunks — no decode at all. The encoded twin is shared by
    // clones and (when kernels evaluated the predicate) already built.
    if opts.kernels && query.grouping.is_empty() {
        let enc = rel.encoded().clone();
        if scalar_fold_applies(&enc, query) {
            return scalar_fold_encoded(&enc, &mask, query, opts);
        }
    }
    // Exact execution runs over the (potentially large) base table, so the
    // group index stays predicate-filtered — selective queries then hash
    // only qualifying rows — and aggregate inputs are evaluated only for
    // the rows the selection bitmap keeps. The build walks only the ranges
    // surviving pruning (the mask is false everywhere else).
    let index = GroupIndex::build_filtered_ranges(rel, &query.grouping, Some(&mask), &ranges);
    let exprs = masked_exprs(rel, query, &mask)?;
    let accs = accumulate(
        &index,
        &mask,
        &exprs,
        None,
        query,
        opts.parallel,
        opts.cancel,
    )?;
    finish_rows(&index, accs, query)
}

/// Execute `query` exactly over *encoded* chunked storage, decoding
/// on demand: the predicate is evaluated chunk-by-chunk with zone-map
/// skipping, only the grouping columns are materialized densely (and only
/// because group codes need random access), and each aggregate input is
/// decoded one chunk at a time into `scratch`-backed buffers for the rows
/// the mask keeps. Bit-identical to decoding the whole relation and
/// running [`execute_exact_opts`], which the equivalence tests assert.
pub fn execute_exact_encoded(
    enc: &EncodedRelation,
    query: &GroupByQuery,
    opts: &ExecOptions,
) -> Result<QueryResult> {
    query.validate_schema(enc.schema())?;
    relation::with_scratch(|scratch| execute_exact_encoded_pooled(enc, query, opts, scratch))
}

fn execute_exact_encoded_pooled(
    enc: &EncodedRelation,
    query: &GroupByQuery,
    opts: &ExecOptions,
    scratch: &mut relation::DecodeScratch,
) -> Result<QueryResult> {
    let (mask, ranges, stats) = if opts.kernels {
        let mut kstats = KernelStats::default();
        let out = query
            .predicate
            .eval_encoded_kernels(enc, scratch, &mut kstats);
        if let Some(trace) = opts.trace {
            trace.record_kernels(&kstats);
        }
        out
    } else {
        query.predicate.eval_encoded(enc, scratch)
    };
    if let Some(trace) = opts.trace {
        trace.record_chunks(stats.chunks - stats.pruned, stats.pruned);
        trace.record_selected(mask.count_ones() as u64);
        trace.record(ServedFrom::ColdScan, ranges.covered_rows() as u64);
    }

    if opts.kernels && scalar_fold_applies(enc, query) {
        return scalar_fold_encoded(enc, &mask, query, opts);
    }

    let index = if query.grouping.is_empty() {
        GroupIndex::build_empty_grouping(enc.row_count(), Some(&mask), &ranges)
    } else {
        // Materialize just the grouping columns: group-code extraction is
        // random access, so these few columns are decoded densely while
        // every other column stays encoded. The projected relation carries
        // the same values the full decode would, so ids, keys, and
        // first-occurrence rows are identical.
        let fields: Vec<_> = query
            .grouping
            .iter()
            .map(|&c| enc.schema().fields()[c.0].clone())
            .collect();
        let columns: Vec<_> = query
            .grouping
            .iter()
            .map(|&c| enc.column(c).to_column())
            .collect::<relation::Result<_>>()?;
        let proj = Relation::new(relation::Schema::new(fields)?, columns)?;
        let proj_cols: Vec<relation::ColumnId> =
            (0..query.grouping.len()).map(relation::ColumnId).collect();
        GroupIndex::build_filtered_ranges(&proj, &proj_cols, Some(&mask), &ranges)
    };

    let exprs: Vec<Option<Vec<f64>>> = query
        .aggregates
        .iter()
        .map(|a| {
            a.expr
                .as_ref()
                .map(|e| e.eval_masked_encoded(enc, &mask, scratch))
                .transpose()
        })
        .collect::<std::result::Result<_, _>>()?;
    let accs = accumulate(
        &index,
        &mask,
        &exprs,
        None,
        query,
        opts.parallel,
        opts.cancel,
    )?;
    finish_rows(&index, accs, query)
}

/// Whether `query` can be served by the decode-free scalar fold: no
/// grouping, and every aggregate input is COUNT or a bare non-string
/// column — the shapes whose per-chunk partials need no expression
/// evaluation and (for fully selected chunks) no decode.
fn scalar_fold_applies(enc: &EncodedRelation, query: &GroupByQuery) -> bool {
    query.grouping.is_empty()
        && query.aggregates.iter().all(|a| match &a.expr {
            None => true,
            Some(Expr::Column(c)) => enc.column(*c).data_type() != DataType::Str,
            Some(_) => false,
        })
}

/// Selected rows inside one chunk: chunk boundaries are 64-aligned, so the
/// count is a straight popcount over the chunk's disjoint bitmap words
/// (tail bits beyond the bitmap length are zero by invariant).
fn selected_in_chunk(mask: &Bitmap, start: usize, end: usize) -> usize {
    debug_assert_eq!(start % 64, 0);
    mask.words()[start / 64..end.div_ceil(64)]
        .iter()
        .map(|w| w.count_ones() as usize)
        .sum()
}

/// The decode-free scalar (`T = ∅`) aggregation fold.
///
/// Per chunk, per aggregate, the cheapest exact [`Partial`] is chosen:
///
/// * no selected rows → an empty partial (what an untouched accumulator
///   holds);
/// * COUNT → a popcount-built partial (`k` adds of `(0.0, 1.0)` produce
///   exactly `weight = k` for any `k ≤ 2⁵³`, and min/max pin at `0.0`);
/// * fully selected numeric chunk → [`kernels::fold_chunk_encoded`]
///   (`base·n + Σdeltas` with min/max from the zone map), which declines
///   — returning `None` — whenever the sequential f64 fold could round;
/// * otherwise → decode the chunk once into pooled scratch and fold the
///   selected rows through [`Partial::add`], the scan path's own op.
///
/// Partials merge in chunk order with chunk 0 as the base, replicating
/// [`accumulate`](crate::rewrite::accumulate)'s merge structure, so the
/// result is bit-identical to the masked-decode scan path.
fn scalar_fold_encoded(
    enc: &EncodedRelation,
    mask: &Bitmap,
    query: &GroupByQuery,
    opts: &ExecOptions,
) -> Result<QueryResult> {
    let n = enc.row_count();
    let nchunks = chunk_count(n);
    let zm = enc.zone_maps().clone();
    let mut kstats = KernelStats::default();
    let mut totals: Vec<Partial> = vec![Partial::new(); query.aggregates.len()];
    relation::with_scratch(|scratch| -> Result<()> {
        for c in 0..nchunks {
            cancel::check(opts.cancel)?;
            let (start, end) = chunk_range(c, n);
            let n_c = end - start;
            let sel = selected_in_chunk(mask, start, end);
            // Which column's chunk currently sits decoded in scratch —
            // aggregates sharing a column decode it once.
            let mut decoded = None;
            for (ai, spec) in query.aggregates.iter().enumerate() {
                let p = match &spec.expr {
                    _ if sel == 0 => Partial::new(),
                    None => {
                        kstats.fold_sum_chunks += 1;
                        Partial::from_raw(0.0, sel as f64, 0.0, 0.0, sel as u64)
                    }
                    Some(Expr::Column(col)) => {
                        let fold = if sel == n_c {
                            kernels::fold_chunk_encoded(enc.column(*col), c, zm.stats(*col, c))
                        } else {
                            None
                        };
                        match fold {
                            Some(f) => {
                                kstats.fold_sum_chunks += 1;
                                kstats.fold_minmax_chunks += 1;
                                Partial::from_raw(f.sum, n_c as f64, f.min, f.max, n_c as u64)
                            }
                            None => {
                                if decoded != Some(*col) {
                                    scratch.f64s.clear();
                                    enc.column(*col).decode_chunk_f64(c, &mut scratch.f64s);
                                    decoded = Some(*col);
                                }
                                let mut p = Partial::new();
                                for row in mask.ones_range(start, end) {
                                    p.add(scratch.f64s[row - start], 1.0);
                                }
                                p
                            }
                        }
                    }
                    Some(_) => unreachable!("gated by scalar_fold_applies"),
                };
                if c == 0 {
                    totals[ai] = p;
                } else {
                    totals[ai].merge(&p);
                }
            }
        }
        Ok(())
    })?;
    if let Some(trace) = opts.trace {
        trace.record_kernels(&kstats);
    }
    let accs = vec![query
        .aggregates
        .iter()
        .zip(&totals)
        .map(|(spec, p)| Accumulator::from_partial(spec.func, *p))
        .collect()];
    finish_rows(&GroupIndex::scalar_stub(), accs, query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateSpec;
    use relation::{ColumnId, DataType, Expr, GroupKey, Predicate, RelationBuilder, Value};

    fn rel() -> Relation {
        let mut b = RelationBuilder::new()
            .column("g", DataType::Str)
            .column("h", DataType::Int)
            .column("v", DataType::Float);
        let rows: [(&str, i64, f64); 6] = [
            ("a", 1, 10.0),
            ("a", 1, 20.0),
            ("a", 2, 30.0),
            ("b", 1, 40.0),
            ("b", 2, 50.0),
            ("b", 2, 60.0),
        ];
        for (g, h, v) in rows {
            b.push_row(&[Value::str(g), Value::Int(h), Value::from(v)])
                .unwrap();
        }
        b.finish()
    }

    fn gkey(g: &str) -> GroupKey {
        GroupKey::new(vec![Value::str(g)])
    }

    #[test]
    fn sum_count_avg_by_one_column() {
        let r = rel();
        let q = GroupByQuery::new(
            vec![ColumnId(0)],
            vec![
                AggregateSpec::sum(Expr::col(ColumnId(2)), "s"),
                AggregateSpec::count("c"),
                AggregateSpec::avg(Expr::col(ColumnId(2)), "a"),
            ],
        );
        let res = execute_exact(&r, &q).unwrap();
        assert_eq!(res.group_count(), 2);
        assert_eq!(res.get(&gkey("a")), Some(&[60.0, 3.0, 20.0][..]));
        assert_eq!(res.get(&gkey("b")), Some(&[150.0, 3.0, 50.0][..]));
    }

    #[test]
    fn scalar_aggregate() {
        let r = rel();
        let q = GroupByQuery::new(
            vec![],
            vec![AggregateSpec::sum(Expr::col(ColumnId(2)), "s")],
        );
        let res = execute_exact(&r, &q).unwrap();
        assert_eq!(res.scalar(), Some(210.0));
    }

    #[test]
    fn predicate_filters_groups_entirely() {
        let r = rel();
        // only rows with v >= 40 qualify -> group "a" disappears
        let q = GroupByQuery::new(vec![ColumnId(0)], vec![AggregateSpec::count("c")])
            .with_predicate(Predicate::ge(ColumnId(2), 40.0));
        let res = execute_exact(&r, &q).unwrap();
        assert_eq!(res.group_count(), 1);
        assert_eq!(res.get(&gkey("b")), Some(&[3.0][..]));
    }

    #[test]
    fn empty_selection_gives_empty_result() {
        let r = rel();
        let q = GroupByQuery::new(vec![], vec![AggregateSpec::count("c")])
            .with_predicate(Predicate::ge(ColumnId(2), 1e9));
        let res = execute_exact(&r, &q).unwrap();
        assert!(res.is_empty());
    }

    #[test]
    fn min_max_exact() {
        let r = rel();
        let q = GroupByQuery::new(
            vec![ColumnId(1)],
            vec![
                AggregateSpec::min(Expr::col(ColumnId(2)), "mn"),
                AggregateSpec::max(Expr::col(ColumnId(2)), "mx"),
            ],
        );
        let res = execute_exact(&r, &q).unwrap();
        let k1 = GroupKey::new(vec![Value::Int(1)]);
        let k2 = GroupKey::new(vec![Value::Int(2)]);
        assert_eq!(res.get(&k1), Some(&[10.0, 40.0][..]));
        assert_eq!(res.get(&k2), Some(&[30.0, 60.0][..]));
    }

    #[test]
    fn two_column_grouping_finest() {
        let r = rel();
        let q = GroupByQuery::new(
            vec![ColumnId(0), ColumnId(1)],
            vec![AggregateSpec::sum(Expr::col(ColumnId(2)), "s")],
        );
        let res = execute_exact(&r, &q).unwrap();
        assert_eq!(res.group_count(), 4);
        let k = GroupKey::new(vec![Value::str("a"), Value::Int(1)]);
        assert_eq!(res.get(&k), Some(&[30.0][..]));
    }

    #[test]
    fn aggregate_over_expression() {
        let r = rel();
        let q = GroupByQuery::new(
            vec![],
            vec![AggregateSpec::sum(
                Expr::col(ColumnId(2)).mul(Expr::lit(2.0)),
                "s2",
            )],
        );
        let res = execute_exact(&r, &q).unwrap();
        assert_eq!(res.scalar(), Some(420.0));
    }

    #[test]
    fn having_filters_exact_results() {
        use crate::query::Having;
        use relation::predicate::CmpOp;
        let r = rel();
        // Per-group sums: a → 60, b → 150; HAVING s > 100 keeps only b.
        let q = GroupByQuery::new(
            vec![ColumnId(0)],
            vec![AggregateSpec::sum(Expr::col(ColumnId(2)), "s")],
        )
        .with_having(Having::new("s", CmpOp::Gt, 100.0));
        let res = execute_exact(&r, &q).unwrap();
        assert_eq!(res.group_count(), 1);
        assert_eq!(res.get(&gkey("b")), Some(&[150.0][..]));
    }

    #[test]
    fn invalid_query_is_error() {
        let r = rel();
        let q = GroupByQuery::new(vec![], vec![]);
        assert!(execute_exact(&r, &q).is_err());
        let enc = relation::EncodedRelation::encode(&r);
        let opts = crate::ExecOptions::default();
        assert!(execute_exact_encoded(&enc, &GroupByQuery::new(vec![], vec![]), &opts).is_err());
    }

    /// Multi-chunk relation with a clustered id column so pruning actually
    /// skips chunks, plus group/value columns exercising every kernel.
    fn chunked_rel(rows: usize) -> Relation {
        let mut b = RelationBuilder::new()
            .column("id", DataType::Int)
            .column("g", DataType::Str)
            .column("v", DataType::Float);
        for i in 0..rows {
            let v = if i % 911 == 0 {
                f64::NAN
            } else {
                (i % 199) as f64 * 0.75 - 20.0
            };
            b.push_row(&[
                Value::Int(i as i64),
                Value::str(["alpha", "beta", "gamma"][i / (rows / 3 + 1)]),
                Value::from(v),
            ])
            .unwrap();
        }
        b.finish()
    }

    fn chunked_queries(rows: usize) -> Vec<GroupByQuery> {
        let v = Expr::col(ColumnId(2));
        vec![
            GroupByQuery::new(
                vec![ColumnId(1)],
                vec![
                    AggregateSpec::sum(v.clone(), "s"),
                    AggregateSpec::count("c"),
                    AggregateSpec::avg(v.clone(), "a"),
                ],
            ),
            // Selective clustered range: prunes most chunks.
            GroupByQuery::new(vec![ColumnId(1)], vec![AggregateSpec::count("c")])
                .with_predicate(Predicate::between(ColumnId(0), 100i64, 300i64)),
            // Matches nothing.
            GroupByQuery::new(vec![], vec![AggregateSpec::count("c")])
                .with_predicate(Predicate::ge(ColumnId(0), rows as i64 * 2)),
            // Scalar over an expression, unclustered float predicate.
            GroupByQuery::new(
                vec![],
                vec![AggregateSpec::sum(v.clone().mul(Expr::lit(2.0)), "s2")],
            )
            .with_predicate(Predicate::ge(ColumnId(2), 40.0)),
            // String predicate + two-column grouping.
            GroupByQuery::new(
                vec![ColumnId(1), ColumnId(0)],
                vec![AggregateSpec::min(v.clone(), "mn")],
            )
            .with_predicate(Predicate::eq(ColumnId(1), "beta")),
        ]
    }

    /// `query` evaluated one row at a time — `Predicate::eval_row`, then a
    /// sequential per-group fold in row order — with no zone maps, no
    /// encoding, no group index and no chunk merges. MIN/MAX skip NaN
    /// inputs (`f64::min`/`max`), as SQL aggregates skip NULLs.
    fn row_at_a_time(rel: &Relation, query: &GroupByQuery) -> Vec<(GroupKey, Vec<f64>)> {
        use crate::aggregate::AggregateFn;
        // Per group, per aggregate: the inputs of its qualifying rows.
        let mut groups = std::collections::BTreeMap::<GroupKey, Vec<Vec<f64>>>::new();
        for row in (0..rel.row_count()).filter(|&row| query.predicate.eval_row(rel, row)) {
            let key = query.grouping.iter().map(|&c| rel.column(c).value(row));
            let inputs = groups
                .entry(GroupKey::new(key.collect()))
                .or_insert_with(|| vec![Vec::new(); query.aggregates.len()]);
            for (spec, vals) in query.aggregates.iter().zip(inputs) {
                let expr = spec.expr.as_ref();
                vals.push(expr.map_or(0.0, |e| e.eval_row(rel, row).unwrap()));
            }
        }
        let fold = |(spec, vals): (&AggregateSpec, &Vec<f64>)| match spec.func {
            AggregateFn::Sum => vals.iter().sum(),
            AggregateFn::Count => vals.len() as f64,
            AggregateFn::Avg => vals.iter().sum::<f64>() / vals.len() as f64,
            AggregateFn::Min => vals.iter().copied().fold(f64::INFINITY, f64::min),
            AggregateFn::Max => vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        };
        let finish = |vals: Vec<Vec<f64>>| query.aggregates.iter().zip(&vals).map(fold).collect();
        groups
            .into_iter()
            .map(|(k, vals)| (k, finish(vals)))
            .collect()
    }

    /// Rows with each value as its bit pattern: equality is bit-identity.
    fn bits(result: &QueryResult) -> Vec<(&GroupKey, Vec<u64>)> {
        let to_bits = |values: &Vec<f64>| values.iter().map(|v| v.to_bits()).collect();
        result.rows().iter().map(|(k, v)| (k, to_bits(v))).collect()
    }

    fn traced(trace: &crate::ExecTrace) -> crate::ExecOptions<'_> {
        crate::ExecOptions {
            trace: Some(trace),
            ..Default::default()
        }
    }

    /// The three-chunk exact path is pinned against truth: the executor
    /// returns the groups of the row-at-a-time reference with values
    /// within 1e-9 relative (chunk merges reorder the additions).
    /// `execute_exact_opts` and `execute_exact_encoded` must also be
    /// bit-identical to the plain dense executor and record the same trace
    /// counters — decode-on-demand changes cost, never bits or counts.
    #[test]
    fn pruned_and_encoded_exact_execution_are_bit_identical() {
        use crate::ExecTrace;
        let rows = 40_000; // 3 chunks at CHUNK_ROWS = 16Ki
        let r = chunked_rel(rows);
        let enc = relation::EncodedRelation::encode(&r);
        for q in chunked_queries(rows) {
            let baseline = execute_exact(&r, &q).unwrap();
            let reference = row_at_a_time(&r, &q);
            assert_eq!(baseline.rows().len(), reference.len());
            for ((k1, v1), (k2, v2)) in baseline.rows().iter().zip(&reference) {
                assert_eq!(k1, k2);
                for (x, y) in v1.iter().zip(v2) {
                    assert!(
                        x == y || (x.is_nan() && y.is_nan()) || (x - y).abs() <= 1e-9 * y.abs(),
                        "key {k1}: executor {x} vs row-at-a-time {y}"
                    );
                }
            }
            let (dense_trace, enc_trace) = (ExecTrace::new(), ExecTrace::new());
            let pruned = execute_exact_opts(&r, &q, &traced(&dense_trace)).unwrap();
            let encoded = execute_exact_encoded(&enc, &q, &traced(&enc_trace)).unwrap();
            for other in [&pruned, &encoded] {
                assert_eq!(other.aggregate_names, baseline.aggregate_names);
                assert_eq!(bits(other), bits(&baseline));
            }
            let selected = (0..rows).filter(|&row| q.predicate.eval_row(&r, row));
            assert_eq!(dense_trace.rows_selected(), selected.count() as u64);
            assert_eq!(enc_trace.rows_scanned(), dense_trace.rows_scanned());
            assert_eq!(enc_trace.rows_selected(), dense_trace.rows_selected());
            assert_eq!(enc_trace.chunks_scanned(), dense_trace.chunks_scanned());
            assert_eq!(enc_trace.chunks_pruned(), dense_trace.chunks_pruned());
        }
    }

    /// Kernels on vs off must be bit-identical on both the dense and the
    /// encoded executor, and the trace must show the kernels actually
    /// fired (predicate chunks and, for the scalar queries, fold chunks).
    #[test]
    fn kernel_execution_is_bit_identical_to_decode() {
        use crate::{ExecOptions, ExecTrace};
        let rows = 40_000;
        let r = chunked_rel(rows);
        let enc = relation::EncodedRelation::encode(&r);
        let mut scalar_queries = chunked_queries(rows);
        // Bare-column scalar aggregates: the decode-free fold path proper.
        scalar_queries.push(GroupByQuery::new(
            vec![],
            vec![
                AggregateSpec::sum(Expr::col(ColumnId(0)), "s"),
                AggregateSpec::count("c"),
                AggregateSpec::avg(Expr::col(ColumnId(0)), "a"),
                AggregateSpec::min(Expr::col(ColumnId(2)), "mn"),
                AggregateSpec::max(Expr::col(ColumnId(2)), "mx"),
            ],
        ));
        scalar_queries.push(
            GroupByQuery::new(
                vec![],
                vec![
                    AggregateSpec::sum(Expr::col(ColumnId(2)), "s"),
                    AggregateSpec::count("c"),
                ],
            )
            .with_predicate(Predicate::between(ColumnId(0), 5_000i64, 21_000i64)),
        );
        let mut kernel_pred = 0;
        let mut kernel_folds = 0;
        for q in &scalar_queries {
            let off = ExecOptions {
                kernels: false,
                ..ExecOptions::default()
            };
            let baseline = execute_exact_opts(&r, q, &off).unwrap();
            let trace = ExecTrace::new();
            let on = ExecOptions {
                kernels: true,
                ..traced(&trace)
            };
            let dense_kernels = execute_exact_opts(&r, q, &on).unwrap();
            let enc_off = execute_exact_encoded(&enc, q, &off).unwrap();
            let enc_on = execute_exact_encoded(&enc, q, &on).unwrap();
            for other in [&dense_kernels, &enc_off, &enc_on] {
                assert_eq!(bits(other), bits(&baseline));
            }
            kernel_pred += trace.kernel_pred_chunks();
            kernel_folds += trace.kernel_fold_sum() + trace.kernel_fold_minmax();
        }
        assert!(kernel_pred > 0, "predicate kernels never fired");
        assert!(kernel_folds > 0, "encoded folds never fired");
    }

    #[test]
    fn selective_predicate_records_pruned_chunks() {
        use crate::ExecTrace;
        let rows = 64_000; // 4 chunks
        let r = chunked_rel(rows);
        let q = GroupByQuery::new(vec![ColumnId(1)], vec![AggregateSpec::count("c")])
            .with_predicate(Predicate::between(ColumnId(0), 0i64, 999i64));
        let trace = ExecTrace::new();
        let res = execute_exact_opts(&r, &q, &traced(&trace)).unwrap();
        assert_eq!(res.rows()[0].1[0], 1000.0);
        // The clustered BETWEEN keeps only the first chunk; the other three
        // are skipped by their zone maps.
        assert_eq!(trace.chunks_pruned(), 3);
        assert_eq!(trace.chunks_scanned(), 1);
    }
}
