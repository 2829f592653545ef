//! The cold group-by scan — exact queries and the four sample rewrites —
//! via hash aggregation, one surviving chunk at a time.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use relation::kernels::{self, KernelStats};
use relation::{
    chunk_count, chunk_range, Bitmap, Column, ColumnId, DataType, Expr, GroupKey, Relation, Value,
    F64,
};

use crate::aggregate::{AggregateSpec, Partial};
use crate::cache::{ExecOptions, ServedFrom};
use crate::cancel::{self, CancelToken};
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

/// [`execute_exact`] with explicit [`ExecOptions`]: the engine's one cold
/// group-by scan (`scan`, which the sample rewrites run too) at weight 1 —
/// the zone-map pass with code-domain kernels, then one aggregation pass
/// over the chunks holding a selected row, or the decode-free scalar fold
/// where it applies.
///
/// `opts.cancel` is polled before the scan and at every chunk folded, so a
/// scan of a large base table (e.g. a degraded warehouse relation) honors
/// per-request deadlines; a token that never fires cannot change the
/// result. `opts.cache` is ignored: the predicate is per-query and the
/// chunks fold serially.
pub fn execute_exact_opts(
    rel: &Relation,
    query: &GroupByQuery,
    opts: &ExecOptions,
) -> Result<QueryResult> {
    scan(rel, query, None, opts)
}

/// The cold group-by scan that exact queries and the Integrated, Normalized
/// and Key-normalized rewrites run (Nested-integrated stops at [`fold`] and
/// scales its inner groups itself): validate, the zone-map pass with code-domain kernels over the
/// relation's encoded twin, then one aggregation pass over the chunks
/// holding a selected row ([`fold_chunks`]) with row `r` folded at weight
/// `weights[r]` (1 when `None`), or — unweighted — the decode-free scalar
/// fold ([`scalar_fold_encoded`]) where it applies. Beyond the predicate's
/// bitmap nothing allocated is longer than a chunk or the set of groups
/// actually seen. The trace records a [`ServedFrom::ColdScan`] of the rows
/// in the chunks the zone-map pass kept.
///
/// Bit-identical to folding *every* chunk over a whole-relation group index
/// and merging in chunk order with chunk 0 as the base, because chunk
/// verdicts are exact, chunks are the same [`relation::CHUNK_ROWS`], rows
/// fold in row order, partials merge in chunk order, and merging an empty
/// [`Partial`] is a bitwise no-op: a partial sum starts at `+0.0` and
/// `+0.0 + −0.0 = +0.0`, so none is ever `−0.0` and adding the empty
/// `+0.0` on either side returns its bits; `x.min(+∞) = +∞.min(x) = x`
/// (`min`/`max` never hold NaN); weight and row count add zero. So a pruned
/// chunk, a chunk without a row of some group, and a group first seen in a
/// late chunk (its total starts empty) leave the totals as the full merge
/// would. Group ids are scan-local; output order comes from the final key
/// sort.
pub(crate) fn scan(
    rel: &Relation,
    query: &GroupByQuery,
    weights: Option<&[f64]>,
    opts: &ExecOptions,
) -> Result<QueryResult> {
    let (keys, totals) = fold(rel, query, weights, opts)?;
    emit_rows(keys, &totals, query)
}

/// [`scan`] up to the per-group totals: each group's key and its
/// aggregates' [`Partial`]s, flat `keys.len() × aggregates`.
pub(crate) fn fold(
    rel: &Relation,
    query: &GroupByQuery,
    weights: Option<&[f64]>,
    opts: &ExecOptions,
) -> Result<(Vec<GroupKey>, Vec<Partial>)> {
    query.validate(rel)?;
    debug_assert!(weights.is_none_or(|ws| ws.len() == rel.row_count()));

    let (mask, stats) = eval_predicate(rel, &query.predicate, opts);
    if let Some(trace) = opts.trace {
        trace.record(ServedFrom::ColdScan, stats.kept_rows);
    }
    // Decode-free scalar fold: a no-grouping query over bare columns needs
    // no group ids, no expression buffers, and — for fully selected chunks
    // — no decode at all.
    if weights.is_none() && scalar_fold_applies(rel, query) {
        let totals = scalar_fold_encoded(rel, &mask, query, opts)?;
        return Ok((vec![GroupKey::empty()], totals));
    }
    fold_chunks(rel, &mask, query, weights, opts.cancel)
}

/// The value of `col` that [`Column::group_code`] `code` stands for.
fn key_value(col: &Column, code: u64) -> Value {
    match col {
        Column::Int(_) => Value::Int(code as i64),
        Column::Float(_) => Value::Float(F64::new(f64::from_bits(code))),
        Column::Str(s) => Value::Str(s.dict()[code as usize].clone()),
        Column::Date(_) => Value::Date(code as i64 as i32),
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

/// The group-by fold: one pass over the chunks holding a row `mask`
/// selects, skipping the rest. Per chunk: list the selected rows from the
/// mask words, fetch the grouping columns' codes and resolve each row's
/// group id with one probe (a fixed-width key up to the paper's |G| ≤ 4,
/// an allocated one beyond), gather each measure at those rows only, fold
/// them in row order at their `weights` (1 when `None`) into a flat
/// `groups × aggregates` scratch of [`Partial`]s, and merge the groups the
/// chunk touched into the running totals, reusing every buffer. Returns
/// each group's key, in first-selected-row order, and its totals. `cancel`
/// is polled before the scan and at every chunk folded. Bit-identity: see
/// [`scan`].
fn fold_chunks(
    rel: &Relation,
    mask: &Bitmap,
    query: &GroupByQuery,
    weights: Option<&[f64]>,
    cancel: Option<&CancelToken>,
) -> Result<(Vec<GroupKey>, Vec<Partial>)> {
    let (cols, na) = (&query.grouping, query.aggregates.len());
    let mut narrow = CodeMap::<[u64; 4]>::default();
    let mut wide = CodeMap::<Vec<u64>>::default();
    let mut keys: Vec<GroupKey> = Vec::new();
    // Running totals and this chunk's partials (all empty between chunks).
    let (mut totals, mut partials) = (Vec::<Partial>::new(), Vec::<Partial>::new());
    let (mut rows, mut codes, mut vals) = (Vec::new(), Vec::new(), Vec::new());
    let (mut gids, mut touched) = (Vec::new(), Vec::new());

    cancel::check(cancel)?;
    for c in 0..chunk_count(mask.len()) {
        let (start, end) = chunk_range(c, mask.len());
        rows.clear();
        rows.extend(mask.ones_range(start, end).map(|r| r as u32));
        if rows.is_empty() {
            continue;
        }
        cancel::check(cancel)?;
        let m = rows.len();
        // Column-major: column `j`'s codes are `codes[j * m..][..m]`, and
        // aggregate `a`'s inputs `vals[a * m..][..m]`.
        codes.clear();
        for &col in cols {
            rel.column(col).group_codes_at(&rows, &mut codes);
        }
        vals.clear();
        for spec in &query.aggregates {
            match &spec.expr {
                Some(expr) => expr.eval_rows(rel, &rows, &mut vals)?,
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
                let value = |(j, &col): (usize, &ColumnId)| key_value(rel.column(col), code(j));
                keys.push(GroupKey::new(cols.iter().enumerate().map(value).collect()));
                totals.resize(totals.len() + na, Partial::new());
                partials.resize(totals.len(), Partial::new());
            }
            gids.push(gid);
        }

        for (i, (&g, &row)) in gids.iter().zip(&rows).enumerate() {
            let at = g as usize * na;
            if partials[at].rows() == 0 {
                touched.push(at);
            }
            let w = weights.map_or(1.0, |ws| ws[row as usize]);
            for (a, p) in partials[at..at + na].iter_mut().enumerate() {
                p.add(vals[a * m + i], w);
            }
        }
        for at in touched.drain(..).flat_map(|at| at..at + na) {
            totals[at].merge(&std::mem::take(&mut partials[at]));
        }
    }
    Ok((keys, totals))
}

/// Per-group totals (flat `keys.len() × aggregates`) as a [`QueryResult`]
/// sorted by key, without groups of no qualifying rows, HAVING applied.
pub(crate) fn emit_rows(
    keys: Vec<GroupKey>,
    totals: &[Partial],
    query: &GroupByQuery,
) -> Result<QueryResult> {
    let names = query.aggregates.iter().map(|a| a.name.clone()).collect();
    let finish = |(a, p): (&AggregateSpec, &Partial)| p.finish(a.func);
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
fn scalar_fold_applies(rel: &Relation, query: &GroupByQuery) -> bool {
    query.grouping.is_empty()
        && query.aggregates.iter().all(|a| match &a.expr {
            None => true,
            Some(Expr::Column(c)) => rel.column(*c).data_type() != DataType::Str,
            Some(_) => false,
        })
}

/// The decode-free scalar (`T = ∅`) aggregation fold over the relation's
/// encoded twin and zone maps.
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
/// [`fold_chunks`]'s result (see [`scan`]) — returned as the totals of the
/// one empty-key group.
fn scalar_fold_encoded(
    rel: &Relation,
    mask: &Bitmap,
    query: &GroupByQuery,
    opts: &ExecOptions,
) -> Result<Vec<Partial>> {
    let n = rel.row_count();
    let nchunks = chunk_count(n);
    let (enc, zm) = (rel.encoded(), rel.zone_maps());
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
    Ok(totals)
}

/// The cold composition the scan replaced, kept as the reference for
/// [`scan`]: the unpruned decode-path mask ([`relation::Predicate::eval`]),
/// each measure over the whole relation ([`Expr::eval`]), the unfiltered
/// [`GroupIndex`](crate::GroupIndex), every chunk's selected rows folded
/// in row order at `weights` (1 when `None`) into fresh per-group
/// [`Partial`]s, and the chunks merged in order with chunk 0 as the base.
#[cfg(test)]
pub(crate) fn reference_fold(
    rel: &Relation,
    query: &GroupByQuery,
    weights: Option<&[f64]>,
) -> QueryResult {
    let n = rel.row_count();
    let mask = query.predicate.eval(rel);
    let measure = |a: &AggregateSpec| a.expr.as_ref().map(|e| e.eval(rel).unwrap());
    let exprs: Vec<Option<Vec<f64>>> = query.aggregates.iter().map(measure).collect();
    let index = crate::GroupIndex::build(rel, &query.grouping);
    let na = query.aggregates.len();
    let chunk = |c: usize| {
        let (start, end) = chunk_range(c, n);
        let mut partials = vec![Partial::new(); index.group_count() * na];
        for row in mask.ones_range(start, end) {
            let at = index.group_of(row) as usize * na;
            let w = weights.map_or(1.0, |ws| ws[row]);
            for (a, p) in partials[at..at + na].iter_mut().enumerate() {
                p.add(exprs[a].as_ref().map_or(0.0, |vals| vals[row]), w);
            }
        }
        partials
    };
    let merge = |mut base: Vec<Partial>, next: Vec<Partial>| {
        base.iter_mut().zip(&next).for_each(|(b, p)| b.merge(p));
        base
    };
    let totals = (0..chunk_count(n)).map(chunk).reduce(merge);
    let totals = totals.unwrap_or_else(|| vec![Partial::new(); index.group_count() * na]);
    emit_rows(index.keys().to_vec(), &totals, query).unwrap()
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
    /// within 1e-9 relative (chunk merges reorder the additions). Its
    /// zone-map pruning and kernels over the encoded twin are bit-identical
    /// to the unpruned decode-path reference, traced or not.
    #[test]
    fn pruned_and_encoded_exact_execution_are_bit_identical() {
        use crate::ExecTrace;
        let rows = 40_000; // 3 chunks at CHUNK_ROWS = 16Ki
        let r = chunked_rel(rows);
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
            let trace = ExecTrace::new();
            let pruned = execute_exact_opts(&r, &q, &traced(&trace)).unwrap();
            let unpruned = whole_relation_reference(&r, &q);
            for other in [&pruned, &unpruned] {
                assert_eq!(other.aggregate_names, baseline.aggregate_names);
                assert_eq!(bits(other), bits(&baseline));
            }
            let selected = (0..rows).filter(|&row| q.predicate.eval_row(&r, row));
            assert_eq!(trace.rows_selected(), selected.count() as u64);
        }
    }

    /// `rel` as a sample stratified on `col`, stratum `s` at ScaleFactor
    /// `1 + s/2`.
    fn stratified(rel: &Relation, col: ColumnId) -> crate::StratifiedInput {
        let index = crate::GroupIndex::build(rel, &[col]);
        let strata = index.group_count();
        crate::StratifiedInput {
            rows: rel.clone(),
            stratum_of_row: index.group_ids().to_vec(),
            scale_factors: (0..strata).map(|s| 1.0 + s as f64 / 2.0).collect(),
            strata_keys: index.keys().to_vec(),
            grouping_columns: vec![col],
        }
    }

    /// The Integrated and Nested-integrated cold plans over `rel`
    /// stratified on `col`.
    fn cold_plans(rel: &Relation, col: ColumnId) -> Vec<Box<dyn crate::SamplePlan>> {
        use crate::rewrite::{Integrated, NestedIntegrated};
        let input = stratified(rel, col);
        vec![
            Box::new(Integrated::build(&input).unwrap()),
            Box::new(NestedIntegrated::build(&input).unwrap()),
        ]
    }

    /// A traced exact scan — and a cold Integrated or Nested-integrated
    /// plan — reports as scanned exactly the rows of the chunks that hold a
    /// selected row (decided row by row), so skipping chunks without one
    /// cannot move the scanned-rows counter.
    #[test]
    fn rows_scanned_counts_the_chunks_holding_a_selected_row() {
        use crate::ExecTrace;
        let rows = 40_000;
        let plans = cold_plans(&chunked_rel(rows), ColumnId(1));
        for (r, queries, plans) in [
            (chunked_rel(rows), chunked_queries(rows), plans),
            (wide_rel(), wide_queries(), Vec::new()),
        ] {
            let n = r.row_count();
            for q in &queries {
                let kept: usize = (0..relation::chunk_count(n))
                    .map(|c| chunk_range(c, n))
                    .filter(|&(start, end)| (start..end).any(|row| q.predicate.eval_row(&r, row)))
                    .map(|(start, end)| end - start)
                    .sum();
                let trace = ExecTrace::new();
                execute_exact_opts(&r, q, &traced(&trace)).unwrap();
                assert_eq!(trace.rows_scanned(), kept as u64, "{}", q.predicate);
                for plan in &plans {
                    let trace = ExecTrace::new();
                    plan.execute_opts(q, &traced(&trace)).unwrap();
                    assert_eq!(
                        trace.served(),
                        Some(ServedFrom::ColdScan),
                        "{}",
                        plan.name()
                    );
                    let what = format!("{}: {}", plan.name(), q.predicate);
                    assert_eq!(trace.rows_scanned(), kept as u64, "{what}");
                }
            }
        }
    }

    /// The scalar kernel fold over the encoded twin is bit-identical to the
    /// decode-path reference, and the trace shows the kernels actually
    /// fired (predicate chunks and, for the bare-column scalar queries,
    /// fold chunks).
    #[test]
    fn kernel_execution_is_bit_identical_to_decode() {
        use crate::ExecTrace;
        let rows = 40_000;
        let r = chunked_rel(rows);
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
            let reference = whole_relation_reference(&r, q);
            let trace = ExecTrace::new();
            let kernels = execute_exact_opts(&r, q, &traced(&trace)).unwrap();
            assert_eq!(kernels.aggregate_names, reference.aggregate_names);
            assert_eq!(bits(&kernels), bits(&reference));
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

    /// The unweighted [`reference_fold`].
    fn whole_relation_reference(rel: &Relation, query: &GroupByQuery) -> QueryResult {
        reference_fold(rel, query, None)
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

    /// The per-chunk fold returns the names, keys and bits of the
    /// whole-relation reference.
    #[test]
    fn chunk_fold_is_bit_identical_to_the_whole_relation_reference() {
        let r = wide_rel();
        let mut groups = 0;
        for (qi, q) in wide_queries().iter().enumerate() {
            let reference = whole_relation_reference(&r, q);
            groups += reference.group_count();
            let got = execute_exact(&r, q).unwrap();
            assert_eq!(got.aggregate_names, reference.aggregate_names, "query {qi}");
            assert_eq!(bits(&got), bits(&reference), "query {qi}");
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
    /// every NaN together.
    #[test]
    fn float_keys_keep_signed_zero_apart_and_nan_together() {
        let r = wide_rel();
        let q = GroupByQuery::new(vec![ColumnId(3)], vec![AggregateSpec::count("c")]);
        let res = execute_exact(&r, &q).unwrap();
        assert_eq!(res.group_count(), 4);
        for f in [-0.0, 0.0, f64::NAN, 1.5] {
            let key = GroupKey::new(vec![Value::from(f)]);
            assert_eq!(res.get(&key), Some(&[WIDE_ROWS as f64 / 4.0][..]), "{f}");
        }
    }

    /// A fired token stops the scan with `Cancelled` — before it starts,
    /// and from inside after the first chunk — grouped and scalar, exact
    /// and in the cold Integrated and Nested-integrated plans; a token that
    /// never fires leaves the bits unchanged.
    #[test]
    fn cancellation_before_and_inside_the_scan() {
        use crate::{CancelToken, EngineError};
        use std::sync::atomic::AtomicBool;
        let r = wide_rel();
        let plans = cold_plans(&r, ColumnId(1));
        let v = Expr::col(ColumnId(7));
        let grouped =
            GroupByQuery::new(vec![ColumnId(1)], vec![AggregateSpec::sum(v.clone(), "s")]);
        let scalar = GroupByQuery::new(vec![], vec![AggregateSpec::sum(v, "s")]);
        for q in [&grouped, &scalar] {
            // A fresh token per run: a fuse is spent by the polls it sees.
            let run = |plan: Option<&dyn crate::SamplePlan>, token: CancelToken| {
                let opts = ExecOptions {
                    cancel: Some(&token),
                    ..ExecOptions::default()
                };
                match plan {
                    Some(plan) => plan.execute_opts(q, &opts),
                    None => execute_exact_opts(&r, q, &opts),
                }
            };
            let cold = plans.iter().map(|p| Some(p.as_ref()));
            for plan in [None].into_iter().chain(cold) {
                let what = plan.map_or("exact", |p| p.name());
                let fired = CancelToken::with_flag(std::sync::Arc::new(AtomicBool::new(true)));
                assert_eq!(
                    run(plan, fired).unwrap_err(),
                    EngineError::Cancelled,
                    "{what}"
                );
                // Two polls pass (grouped, and every cold plan: before the
                // scan and at the first chunk; exact scalar: the first two
                // chunks); the next one fires.
                let res = run(plan, CancelToken::firing_after(2));
                assert_eq!(res.unwrap_err(), EngineError::Cancelled, "{what}");
                // At most one poll per chunk plus the one before: never fires.
                let plain = match plan {
                    Some(plan) => plan.execute(q).unwrap(),
                    None => execute_exact(&r, q).unwrap(),
                };
                for token in [CancelToken::new(), CancelToken::firing_after(6)] {
                    assert_eq!(bits(&run(plan, token).unwrap()), bits(&plain), "{what}");
                }
            }
        }
    }
}
