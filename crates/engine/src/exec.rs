//! Exact query execution via hash aggregation, one surviving chunk at a time.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use relation::kernels::{self, KernelStats};
use relation::{
    chunk_count, chunk_range, Bitmap, ColumnId, DataType, DecodeScratch, EncodedRelation, Expr,
    GroupKey, Relation, RowRangeList, Value, CHUNK_ROWS, F64,
};

use crate::aggregate::{Accumulator, AggregateSpec, Partial};
use crate::cache::{ExecOptions, ServedFrom};
use crate::cancel;
use crate::error::Result;
use crate::query::GroupByQuery;
use crate::result::QueryResult;
use crate::rewrite::eval_predicate;

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

/// [`execute_exact`] with explicit [`ExecOptions`]: the zone-map pass,
/// then one aggregation pass over the chunks that survived it
/// (`fold_chunks`). Beyond the predicate's bitmap nothing allocated is
/// longer than a chunk or the set of groups actually seen.
///
/// Bit-identical to folding *every* chunk and merging in chunk order with
/// chunk 0 as the base — the contract `rewrite::accumulate` gives the
/// sample rewrites — because chunk verdicts are exact, chunks are
/// the same [`CHUNK_ROWS`], rows fold in row order, partials merge in chunk
/// order, and merging an empty [`Partial`] is a bitwise no-op: a partial
/// sum starts at `+0.0` and `+0.0 + −0.0 = +0.0`, so none is ever `−0.0`
/// and adding the empty `+0.0` on either side returns its bits;
/// `x.min(+∞) = +∞.min(x) = x` (`min`/`max` never hold NaN); weight and row
/// count add zero. So a pruned chunk, a chunk without a row of some group,
/// and a group first seen in a late chunk (its total starts empty) leave
/// the totals as the full merge would. Group ids are scan-local; output
/// order comes from the final key sort.
///
/// `opts.cancel` is polled before the scan and at every surviving chunk,
/// so a scan of a large base table (e.g. a degraded warehouse relation)
/// honors per-request deadlines; a token that never fires cannot change the
/// result. `opts.cache` and `opts.parallel` are ignored: the predicate is
/// per-query and the chunks fold serially.
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
    // no group ids, no expression buffers, and — for fully selected chunks
    // — no decode at all. The encoded twin is shared by clones and (when
    // kernels evaluated the predicate) already built.
    if opts.kernels && query.grouping.is_empty() {
        let enc = rel.encoded().clone();
        if scalar_fold_applies(&enc, query) {
            return scalar_fold_encoded(&enc, &mask, query, opts);
        }
    }
    fold_chunks(Source::Dense(rel), &mask, &ranges, query, opts)
}

/// Execute `query` exactly over *encoded* chunked storage, decoding on
/// demand: the predicate is evaluated chunk-by-chunk with zone-map
/// skipping, and the aggregation is [`execute_exact_opts`]'s own
/// `fold_chunks` with each surviving chunk's group codes and measure
/// inputs decoded into pooled scratch — no column is materialized densely.
/// Bit-identical to decoding the whole relation and running
/// [`execute_exact_opts`], which the equivalence tests assert.
pub fn execute_exact_encoded(
    enc: &EncodedRelation,
    query: &GroupByQuery,
    opts: &ExecOptions,
) -> Result<QueryResult> {
    query.validate_schema(enc.schema())?;
    relation::with_scratch(|scratch| {
        let (pred, mut kstats) = (&query.predicate, KernelStats::default());
        let (mask, ranges, stats) = if opts.kernels {
            pred.eval_encoded_kernels(enc, scratch, &mut kstats)
        } else {
            pred.eval_encoded(enc, scratch)
        };
        if let Some(trace) = opts.trace {
            trace.record_kernels(&kstats);
            trace.record_chunks(stats.chunks - stats.pruned, stats.pruned);
            trace.record_selected(mask.count_ones() as u64);
            trace.record(ServedFrom::ColdScan, ranges.covered_rows() as u64);
        }
        if opts.kernels && scalar_fold_applies(enc, query) {
            return scalar_fold_encoded(enc, &mask, query, opts);
        }
        fold_chunks(Source::Encoded(enc, scratch), &mask, &ranges, query, opts)
    })
}

/// Where [`fold_chunks`] fetches a chunk's data — all the dense and the
/// encoded executor (one chunk at a time decoded into pooled scratch)
/// differ in. `rows` are ascending row ids inside `chunk`.
enum Source<'a> {
    Dense(&'a Relation),
    Encoded(&'a EncodedRelation, &'a mut DecodeScratch),
}

impl Source<'_> {
    /// Append [`relation::Column::group_code`] of `col` at each of `rows`.
    fn codes(&mut self, col: ColumnId, chunk: usize, rows: &[u32], out: &mut Vec<u64>) {
        match self {
            Source::Dense(rel) => {
                let col = rel.column(col);
                out.extend(rows.iter().map(|&r| col.group_code(r as usize)));
            }
            Source::Encoded(enc, scratch) => {
                let (col, start) = (enc.column(col), chunk * CHUNK_ROWS);
                scratch.u64s.clear();
                col.decode_chunk_u64(chunk, &mut scratch.u64s);
                // A float's code is its NaN-canonical bit pattern.
                let float = col.data_type() == DataType::Float;
                let canonical = |b: u64| F64::new(f64::from_bits(b)).get().to_bits();
                let raw = rows.iter().map(|&r| scratch.u64s[r as usize - start]);
                out.extend(raw.map(|b| if float { canonical(b) } else { b }));
            }
        }
    }

    /// Append `e` evaluated at each of `rows`.
    fn measure(&mut self, e: &Expr, chunk: usize, rows: &[u32], out: &mut Vec<f64>) -> Result<()> {
        match self {
            Source::Dense(rel) => e.eval_rows(rel, rows, out)?,
            Source::Encoded(enc, scratch) => e.eval_rows_encoded(enc, chunk, rows, scratch, out)?,
        }
        Ok(())
    }

    /// The value of `col` that group code `code` stands for.
    fn value(&self, col: ColumnId, code: u64) -> Value {
        let (data_type, dict) = match self {
            Source::Dense(rel) => {
                let col = rel.column(col);
                (col.data_type(), col.as_str().map_or(&[][..], |s| s.dict()))
            }
            Source::Encoded(enc, _) => (enc.column(col).data_type(), enc.column(col).dict()),
        };
        match data_type {
            DataType::Int => Value::Int(code as i64),
            DataType::Float => Value::Float(F64::new(f64::from_bits(code))),
            DataType::Str => Value::Str(dict[code as usize].clone()),
            DataType::Date => Value::Date(code as i64 as i32),
        }
    }
}

/// Multiply-fold hasher for group-code keys: each word is xored into the
/// state and the 128-bit product with an odd constant folded back to 64
/// bits, so high input bits (all that float codes differ in) reach the low
/// bits a table indexes with. One SipHash probe per selected row was most of
/// an exact scan; this one is not collision-resistant against chosen keys,
/// so only this per-query table, dropped with the scan, uses it.
#[derive(Default)]
struct CodeHasher(u64);

impl Hasher for CodeHasher {
    fn write(&mut self, bytes: &[u8]) {
        for word in bytes.chunks(8) {
            let mut le = [0u8; 8];
            le[..word.len()].copy_from_slice(word);
            let product = u128::from(self.0 ^ u64::from_le_bytes(le)) * 0x9e37_79b9_7f4a_7c15;
            self.0 = (product as u64) ^ (product >> 64) as u64;
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type CodeMap<K> = HashMap<K, u32, BuildHasherDefault<CodeHasher>>;

/// The exact aggregation: one pass over the chunks of `ranges` (those that
/// survived pruning; `mask` is false elsewhere). Per chunk: list the selected
/// rows from the mask words, fetch the grouping columns' codes and resolve
/// each row's group id with one probe (a fixed-width key up to the paper's
/// |G| ≤ 4, an allocated one beyond), gather each measure at those rows
/// only, fold them in row order into a flat `groups × aggregates` scratch of
/// [`Partial`]s, and merge the groups the chunk touched into the running
/// totals, reusing every buffer. Bit-identity: see [`execute_exact_opts`].
fn fold_chunks(
    mut src: Source,
    mask: &Bitmap,
    ranges: &RowRangeList,
    query: &GroupByQuery,
    opts: &ExecOptions,
) -> Result<QueryResult> {
    let (cols, na) = (&query.grouping, query.aggregates.len());
    let mut narrow = CodeMap::<[u64; 4]>::default();
    let mut wide = CodeMap::<Vec<u64>>::default();
    let mut keys: Vec<GroupKey> = Vec::new();
    // Running totals and this chunk's partials (all empty between chunks).
    let (mut totals, mut partials) = (Vec::<Partial>::new(), Vec::<Partial>::new());
    let (mut rows, mut codes, mut vals) = (Vec::new(), Vec::new(), Vec::new());
    let (mut gids, mut touched) = (Vec::new(), Vec::new());

    cancel::check(opts.cancel)?;
    let spans = ranges.ranges().iter();
    for c in spans.flat_map(|&(lo, hi)| lo / CHUNK_ROWS..hi.div_ceil(CHUNK_ROWS)) {
        cancel::check(opts.cancel)?;
        let (start, end) = chunk_range(c, mask.len());
        rows.clear();
        rows.extend(mask.ones_range(start, end).map(|r| r as u32));
        let m = rows.len();
        // Column-major: column `j`'s codes are `codes[j * m..][..m]`, and
        // aggregate `a`'s inputs `vals[a * m..][..m]`.
        codes.clear();
        for &col in cols {
            src.codes(col, c, &rows, &mut codes);
        }
        vals.clear();
        for spec in &query.aggregates {
            match &spec.expr {
                Some(expr) => src.measure(expr, c, &rows, &mut vals)?,
                None => vals.resize(vals.len() + m, 0.0),
            }
        }

        gids.clear();
        for i in 0..m {
            let code = |j: usize| codes[j * m + i];
            let next = keys.len() as u32;
            let gid = if cols.len() <= 4 {
                let mut key = [0u64; 4];
                (0..cols.len()).for_each(|j| key[j] = code(j));
                *narrow.entry(key).or_insert(next)
            } else {
                let key: Vec<u64> = (0..cols.len()).map(code).collect();
                *wide.entry(key).or_insert(next)
            };
            if gid == next {
                let value = |(j, &col): (usize, &ColumnId)| src.value(col, code(j));
                keys.push(GroupKey::new(cols.iter().enumerate().map(value).collect()));
                totals.resize(totals.len() + na, Partial::new());
                partials.resize(totals.len(), Partial::new());
            }
            gids.push(gid);
        }

        for (i, &g) in gids.iter().enumerate() {
            let at = g as usize * na;
            if partials[at].rows() == 0 {
                touched.push(at);
            }
            for (a, p) in partials[at..at + na].iter_mut().enumerate() {
                p.add(vals[a * m + i], 1.0);
            }
        }
        for at in touched.drain(..).flat_map(|at| at..at + na) {
            totals[at].merge(&std::mem::take(&mut partials[at]));
        }
    }
    emit_rows(keys, &totals, query)
}

/// Per-group totals (flat `keys.len() × aggregates`) as a [`QueryResult`]
/// sorted by key, without groups of no qualifying rows, HAVING applied.
fn emit_rows(keys: Vec<GroupKey>, totals: &[Partial], query: &GroupByQuery) -> Result<QueryResult> {
    let names = query.aggregates.iter().map(|a| a.name.clone()).collect();
    let finish =
        |(a, p): (&AggregateSpec, &Partial)| Accumulator::from_partial(a.func, *p).finish();
    let rows = keys
        .into_iter()
        .zip(totals.chunks(query.aggregates.len()))
        .filter(|(_, ps)| ps[0].rows() > 0)
        .map(|(key, ps)| (key, query.aggregates.iter().zip(ps).map(finish).collect()))
        .collect();
    query.apply_having(QueryResult::new(names, rows))
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
/// Partials merge in chunk order into empty totals — bit for bit
/// [`fold_chunks`]'s result (see [`execute_exact_opts`]).
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
            // Chunks are word-aligned and tail bits past the mask are zero.
            let words = &mask.words()[start / 64..end.div_ceil(64)];
            let sel: usize = words.iter().map(|w| w.count_ones() as usize).sum();
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
                totals[ai].merge(&p);
            }
        }
        Ok(())
    })?;
    if let Some(trace) = opts.trace {
        trace.record_kernels(&kstats);
    }
    emit_rows(vec![GroupKey::empty()], &totals, query)
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

    /// The grouped path this module had before the per-chunk fold, kept as
    /// the reference: a predicate-filtered [`GroupIndex`] and masked
    /// measure buffers over the whole relation, every chunk folded (empty
    /// or not) and merged with chunk 0 as the base, rows emitted in the
    /// index's key order.
    fn whole_relation_reference(rel: &Relation, query: &GroupByQuery) -> QueryResult {
        use crate::rewrite::{accumulate, finish_rows, select};
        let opts = ExecOptions {
            kernels: false,
            ..ExecOptions::default()
        };
        let sel = select(rel, query, &opts).unwrap();
        let index = crate::GroupIndex::build_filtered(rel, &query.grouping, Some(&sel.mask));
        let accs = accumulate(&index, &sel.mask, &sel.exprs, None, query, None).unwrap();
        finish_rows(&index, accs, query).unwrap()
    }

    const WIDE_ROWS: usize = 70_000; // 5 chunks, the last one short

    /// Five chunks with a clustered `id`, one grouping column of every type
    /// (the Float one holding `-0.0`, `0.0` and NaN), three more Int keys
    /// for a 5-column grouping, and a measure with NaN and `-0.0` values.
    /// The Str key is "late" only from row 50,000 on (chunk 3) and "gap"
    /// only in chunks 1 and 3.
    fn wide_rel() -> Relation {
        let mut b = RelationBuilder::new()
            .column("id", DataType::Int)
            .column("s", DataType::Str)
            .column("d", DataType::Date)
            .column("f", DataType::Float)
            .column("k", DataType::Int)
            .column("k2", DataType::Int)
            .column("k3", DataType::Int)
            .column("v", DataType::Float);
        for i in 0..WIDE_ROWS {
            let chunk = i / relation::CHUNK_ROWS;
            let s = match i % 5 {
                0 if i >= 50_000 => "late",
                1 if chunk == 1 || chunk == 3 => "gap",
                2 => "two",
                _ => "rest",
            };
            let f = [-0.0, 0.0, f64::NAN, 1.5][i % 4];
            let v = match i % 13 {
                0 => f64::NAN,
                1 | 2 => -0.0,
                r => r as f64 * 0.1 - (i % 7) as f64 * 1e7,
            };
            b.push_row(&[
                Value::Int(i as i64),
                Value::str(s),
                Value::Date((i % 11) as i32 - 3),
                Value::from(f),
                Value::Int((i % 6) as i64 - 2),
                Value::Int((i % 2) as i64),
                Value::Int((i % 3) as i64),
                Value::from(v),
            ])
            .unwrap();
        }
        b.finish()
    }

    fn wide_queries() -> Vec<GroupByQuery> {
        use crate::query::Having;
        use relation::predicate::CmpOp;
        let v = Expr::col(ColumnId(7));
        let sums = || {
            vec![
                AggregateSpec::sum(v.clone(), "s"),
                AggregateSpec::avg(v.clone(), "a"),
                AggregateSpec::count("c"),
            ]
        };
        // Prunes chunk 0 (and chunk 4): "late" first appears in the last
        // live chunk, "gap" is absent from the middle one.
        let band = || Predicate::between(ColumnId(0), 20_000i64, 60_000i64);
        let mut queries: Vec<GroupByQuery> = [1usize, 2, 3, 4]
            .iter()
            .map(|&c| GroupByQuery::new(vec![ColumnId(c)], sums()).with_predicate(band()))
            .collect();
        queries.extend([
            // Every key type at once, unpruned.
            GroupByQuery::new((1..5).map(ColumnId).collect(), sums()),
            // Wide key: five columns, two of them Float and Str.
            GroupByQuery::new(
                vec![
                    ColumnId(3),
                    ColumnId(1),
                    ColumnId(4),
                    ColumnId(5),
                    ColumnId(6),
                ],
                sums(),
            )
            .with_predicate(band()),
            // Groups whose only measure values are `-0.0`: sums stay `+0.0`.
            GroupByQuery::new(vec![ColumnId(1)], sums())
                .with_predicate(Predicate::le(ColumnId(7), -0.0).and(band())),
            // Empty grouping over an expression: not the scalar-fold shape.
            GroupByQuery::new(
                vec![],
                vec![
                    AggregateSpec::sum(v.clone().mul(Expr::lit(2.0)), "s2"),
                    AggregateSpec::count("c"),
                ],
            )
            .with_predicate(band()),
            // Empty selection, grouped and not.
            GroupByQuery::new(vec![ColumnId(1)], sums())
                .with_predicate(Predicate::ge(ColumnId(0), 10 * WIDE_ROWS as i64)),
            GroupByQuery::new(
                vec![],
                vec![AggregateSpec::avg(v.clone().add(v.clone()), "a")],
            )
            .with_predicate(Predicate::ge(ColumnId(0), 10 * WIDE_ROWS as i64)),
            GroupByQuery::new(vec![ColumnId(2), ColumnId(4)], sums())
                .with_predicate(band())
                .with_having(Having::new("c", CmpOp::Gt, 600.0)),
            GroupByQuery::new(
                vec![ColumnId(1), ColumnId(2)],
                vec![
                    AggregateSpec::min(v.clone(), "mn"),
                    AggregateSpec::max(v.clone().sub(Expr::col(ColumnId(0))), "mx"),
                ],
            )
            .with_predicate(band()),
            GroupByQuery::new(vec![ColumnId(3)], vec![AggregateSpec::count("c")])
                .with_predicate(Predicate::between(ColumnId(0), 40_000i64, 69_000i64)),
        ]);
        queries
    }

    /// The per-chunk fold — dense and encoded, kernels on and off — returns
    /// the names, keys and bits of the whole-relation reference.
    #[test]
    fn chunk_fold_is_bit_identical_to_the_whole_relation_reference() {
        let r = wide_rel();
        let enc = relation::EncodedRelation::encode(&r);
        let mut groups = 0;
        for (qi, q) in wide_queries().iter().enumerate() {
            let reference = whole_relation_reference(&r, q);
            groups += reference.group_count();
            for kernels in [false, true] {
                let opts = ExecOptions {
                    kernels,
                    ..ExecOptions::default()
                };
                let dense = execute_exact_opts(&r, q, &opts).unwrap();
                let encoded = execute_exact_encoded(&enc, q, &opts).unwrap();
                for (path, got) in [("dense", &dense), ("encoded", &encoded)] {
                    let what = format!("query {qi}, {path}, kernels {kernels}");
                    assert_eq!(got.aggregate_names, reference.aggregate_names, "{what}");
                    assert_eq!(bits(got), bits(&reference), "{what}");
                }
            }
        }
        assert!(groups > 100, "the fixture lost its groups");
        // The shapes the band is there for really occur.
        let by_s = GroupByQuery::new(vec![ColumnId(1)], vec![AggregateSpec::count("c")]);
        let in_chunk = |c: i64, s: &str| {
            let lo = c * relation::CHUNK_ROWS as i64;
            let q = by_s.clone().with_predicate(Predicate::between(
                ColumnId(0),
                lo.max(20_000),
                lo + relation::CHUNK_ROWS as i64 - 1,
            ));
            execute_exact(&r, &q).unwrap().get(&gkey(s)).is_some()
        };
        assert!(!in_chunk(1, "late") && !in_chunk(2, "late") && in_chunk(3, "late"));
        assert!(in_chunk(1, "gap") && !in_chunk(2, "gap") && in_chunk(3, "gap"));
    }

    /// Float keys group by canonical bit pattern: `-0.0` and `0.0` apart,
    /// every NaN together — also when the codes come from an encoded chunk.
    #[test]
    fn float_keys_keep_signed_zero_apart_and_nan_together() {
        let r = wide_rel();
        let enc = relation::EncodedRelation::encode(&r);
        let q = GroupByQuery::new(vec![ColumnId(3)], vec![AggregateSpec::count("c")]);
        let opts = ExecOptions::default();
        for res in [
            execute_exact(&r, &q).unwrap(),
            execute_exact_encoded(&enc, &q, &opts).unwrap(),
        ] {
            assert_eq!(res.group_count(), 4);
            for f in [-0.0, 0.0, f64::NAN, 1.5] {
                let key = GroupKey::new(vec![Value::from(f)]);
                assert_eq!(res.get(&key), Some(&[WIDE_ROWS as f64 / 4.0][..]), "{f}");
            }
        }
    }

    /// A fired token stops the scan with `Cancelled` — before it starts,
    /// and from inside after the first chunk — on every exact path; a token
    /// that never fires leaves the bits unchanged.
    #[test]
    fn cancellation_before_and_inside_the_scan() {
        use crate::{CancelToken, EngineError};
        use std::sync::atomic::AtomicBool;
        let r = wide_rel();
        let enc = relation::EncodedRelation::encode(&r);
        let v = Expr::col(ColumnId(7));
        let grouped =
            GroupByQuery::new(vec![ColumnId(1)], vec![AggregateSpec::sum(v.clone(), "s")]);
        let scalar = GroupByQuery::new(vec![], vec![AggregateSpec::sum(v, "s")]);
        for q in [&grouped, &scalar] {
            // A fresh token per run: a fuse is spent by the polls it sees.
            let run = |token: &dyn Fn() -> CancelToken| {
                let (dense, encoded) = (token(), token());
                let opts = |cancel| ExecOptions {
                    cancel: Some(cancel),
                    ..ExecOptions::default()
                };
                [
                    execute_exact_opts(&r, q, &opts(&dense)),
                    execute_exact_encoded(&enc, q, &opts(&encoded)),
                ]
            };
            let fired = || CancelToken::with_flag(std::sync::Arc::new(AtomicBool::new(true)));
            for res in run(&fired) {
                assert_eq!(res.unwrap_err(), EngineError::Cancelled);
            }
            // Two polls pass (grouped: before the scan and at the first
            // chunk; scalar: the first two chunks); the next one fires.
            for res in run(&|| CancelToken::firing_after(2)) {
                assert_eq!(res.unwrap_err(), EngineError::Cancelled);
            }
            // At most one poll per chunk plus the one before: never fires.
            let plain = execute_exact(&r, q).unwrap();
            for res in run(&CancelToken::new)
                .into_iter()
                .chain(run(&|| CancelToken::firing_after(6)))
            {
                assert_eq!(bits(&res.unwrap()), bits(&plain));
            }
        }
    }
}
