//! The paper's four query-rewriting strategies (§5.2) as physical plans,
//! and the one moment fold that serves them all.
//!
//! Given a [`StratifiedInput`](crate::StratifiedInput), each strategy's
//! `build` materializes the paper's physical *synopsis layout* and then
//! answers arbitrary [`GroupByQuery`]s against it:
//!
//! | Strategy | Layout | Per-query cost profile |
//! |---|---|---|
//! | [`Integrated`] | SF column stored per tuple (Fig 8) | one multiply per tuple |
//! | [`NestedIntegrated`] | SF column per tuple, nested plan (Fig 11) | one multiply per (group × SF) |
//! | [`Normalized`] | SF in AuxRel, joined on grouping columns (Fig 9) | multi-attribute hash join |
//! | [`KeyNormalized`] | SF in AuxRel, joined on integer GID (Fig 10) | single-int hash join |
//!
//! All four produce the *same* unbiased stratified estimate (§5.1) — an
//! invariant the integration tests assert — and differ only in execution
//! cost and maintenance cost (Integrated layouts duplicate the SF into
//! every tuple, so a group's rate change rewrites many tuples; Normalized
//! layouts confine it to one AuxRel row).
//!
//! The table's costs are those of these cold plans (no [`QueryCache`]),
//! which the paper's experiments, the criterion benches and the
//! equivalence tests run. Each runs the exact scan's pruned chunk fold
//! ([`crate::exec`]) and adds only its §5.2 step: Integrated passes its SF
//! column as the row weights, Normalized and Key-normalized the weights
//! their per-query join produces, and Nested-integrated folds (grouping,
//! SF) unweighted, then scales each inner group once. Serving builds no
//! layout: it calls [`execute_cells`] on the stratified input itself — one
//! fold of the selected rows into per-(group, stratum) moments, from which
//! both the estimates and the error bounds are read — and a plan given a
//! cache sends its query there too. The layouts only append columns, so
//! both see the same rows in the same order.

mod integrated;
mod key_normalized;
mod nested_integrated;
mod normalized;

pub use integrated::Integrated;
pub use key_normalized::KeyNormalized;
pub use nested_integrated::NestedIntegrated;
pub use normalized::Normalized;

use std::sync::Arc;

use relation::{chunk_count, chunk_range, Bitmap, ColumnId, Expr, Predicate, PruneStats, Relation};

use crate::aggregate::{AggregateFn, AggregateSpec};
use crate::cache::{
    CellLayout, ExecOptions, QueryCache, ServedFrom, StratumCell, StratumLayout, StratumSummary,
};
use crate::cancel::{self, CancelToken};
use crate::error::Result;
use crate::grouping::GroupIndex;
use crate::query::GroupByQuery;
use crate::result::QueryResult;

/// A physical sample layout that can answer group-by queries approximately.
pub trait SamplePlan {
    /// Strategy name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// Each sample row's stratum id and each stratum's ScaleFactor: what
    /// the cached path scales its per-cell moments by.
    fn strata(&self) -> (&[u32], &[f64]);

    /// The strategy's own plan (the cold path): recomputes everything per
    /// query, as the paper's experiments time it. `opts.cache` is ignored.
    fn execute_cold(&self, query: &GroupByQuery, opts: &ExecOptions) -> Result<QueryResult>;

    /// Execute `query` against the sample with explicit execution options.
    /// Options change the cost, not the answer: every option combination
    /// returns the same groups, bit-identical on each side of the cache
    /// switch. With a cache every strategy answers from per-cell moments
    /// ([`execute_cells`]), which scale each stratum's sum once instead of
    /// each row's value, so they sit within a few ulp of the cold plan's.
    fn execute_opts(&self, query: &GroupByQuery, opts: &ExecOptions) -> Result<QueryResult> {
        match opts.cache {
            Some(cache) => {
                let (strata, sfs) = self.strata();
                execute_cells(self.sample_relation(), strata, sfs, query, opts, cache)
            }
            None => self.execute_cold(query, opts),
        }
    }

    /// Execute `query` against the sample, producing scaled estimates.
    /// Equivalent to [`Self::execute_opts`] with default (cold, serial)
    /// options.
    fn execute(&self, query: &GroupByQuery) -> Result<QueryResult> {
        self.execute_opts(query, &ExecOptions::default())
    }

    /// The materialized sample relation (including any SF/GID columns).
    fn sample_relation(&self) -> &Relation;

    /// Total bytes of synopsis storage (sample plus any auxiliary relation).
    fn storage_bytes(&self) -> usize {
        self.sample_relation().approx_bytes()
    }

    /// How many stored cells must be rewritten when stratum `stratum`'s
    /// sampling rate (ScaleFactor) changes — the maintenance-cost side of
    /// the §5.2 trade-off. Integrated layouts duplicate the SF into every
    /// tuple, so the whole stratum is touched; Normalized layouts confine
    /// the change to a single AuxRel row.
    fn rate_change_cost(&self, stratum: u32) -> usize;
}

/// Evaluate `pred` over `rel` through the zone-map pruning pass: chunk
/// verdicts first, then only the `Maybe` chunks, in the code domain of the
/// relation's encoded twin where a kernel applies. Returns the selection
/// bitmap and the pass's [`PruneStats`]; the bitmap is bit-identical to
/// `pred.eval(rel)` because chunk verdicts are exact under the engine's
/// `total_cmp` comparison semantics and the kernels are exact inverses of
/// it. Chunk and kernel counters are recorded into the trace when one is
/// present.
pub(crate) fn eval_predicate(
    rel: &Relation,
    pred: &Predicate,
    opts: &ExecOptions,
) -> (Bitmap, PruneStats) {
    let mut kstats = relation::KernelStats::default();
    let (mask, stats) = pred.eval_pruned_kernels(rel, &mut kstats);
    if let Some(trace) = opts.trace {
        trace.record_kernels(&kstats);
        trace.record_chunks(stats.chunks - stats.pruned, stats.pruned);
        trace.record_selected(mask.count_ones() as u64);
    }
    (mask, stats)
}

/// Canonical cache key for a measure expression. `Debug` formatting is
/// injective over [`Expr`] trees (unlike `Display`, which cannot
/// distinguish e.g. the literal `1` from a column named `1`), and `None`
/// — the COUNT measure — gets its own reserved spelling.
pub fn measure_key(expr: Option<&Expr>) -> String {
    match expr {
        Some(e) => format!("{e:?}"),
        None => "COUNT(*)".to_string(),
    }
}

/// One query's per-(group, stratum) moments over its grouping's
/// [`CellLayout`]: what [`execute_cells`] read the estimates from and what
/// the error bounds are read from. Handed to the answer pipeline through
/// [`ExecOptions::capture`].
#[derive(Debug)]
pub struct QueryCells {
    /// The grouping's unfiltered group index.
    pub index: Arc<GroupIndex>,
    /// The grouping's cells.
    pub layout: Arc<CellLayout>,
    /// Per aggregate, the moment table of its measure. Aggregates over one
    /// measure share a table; COUNT reads the `count`s of the query's first
    /// measure (every table folds the same rows).
    pub tables: Vec<Arc<StratumSummary>>,
    /// Group id of each result row, in result order.
    pub gids: Vec<u32>,
}

/// The cached path of all four rewrites: answer `query` from per-(group,
/// stratum) moment cells over `rel`, whose rows fall in strata
/// `stratum_of_row` with ScaleFactors `scale_factors`, and move the
/// [`QueryCells`] into `opts.capture` when it is set.
///
/// * **Cells.** A predicate over the grouping columns alone selects whole
///   groups, so the generation's unfiltered tables
///   ([`unfiltered_cells`]) are the query's cells for the groups it keeps
///   and no row is touched. Any other predicate folds the rows it selects
///   once, serially in row order, into one table per distinct measure.
/// * **Estimates**, per group in key order over its cells in stratum
///   order: SUM = Σ SF·Σx, COUNT = Σ SF·n, AVG their ratio, MIN/MAX over
///   the cells — the stratified estimate of §5.1 with one multiply per
///   (group × stratum), Fig 11's nested plan. A group is emitted when one
///   of its cells holds a row; HAVING applies after.
///
/// Both sources are the same float operations in the same order (a cell
/// folds its rows in row order either way), so cached-cell and scanned
/// answers are bit-identical. The fold is serial so the bounds keep their
/// bits.
pub fn execute_cells(
    rel: &Relation,
    stratum_of_row: &[u32],
    scale_factors: &[f64],
    query: &GroupByQuery,
    opts: &ExecOptions,
    cache: &QueryCache,
) -> Result<QueryResult> {
    query.validate(rel)?;
    let grouping = &query.grouping;
    let strata = scale_factors.len();
    let (index, layout) = cell_layout(rel, stratum_of_row, strata, grouping, cache);
    let (measures, slots) = measures(query);

    let mut selected: Option<Vec<bool>> = None;
    let tables: Vec<Arc<StratumSummary>> =
        if rel.row_count() > 0 && query.predicate.references_only(grouping) {
            if let Some(trace) = opts.trace {
                trace.record(ServedFrom::Summary, 0);
            }
            // Constant within a group: decided once on its first row.
            if !matches!(query.predicate, Predicate::True) {
                let keeps = |g| query.predicate.eval_row(rel, index.first_row(g));
                selected = Some((0..index.group_count() as u32).map(keeps).collect());
            }
            let cached = |m| unfiltered_cells(rel, &layout, grouping, m, cache, opts.cancel);
            measures.iter().map(|&m| cached(m)).collect::<Result<_>>()?
        } else {
            if let Some(trace) = opts.trace {
                trace.record(ServedFrom::CachedScan, rel.row_count() as u64);
            }
            let (mask, _) = eval_predicate(rel, &query.predicate, opts);
            let tables = fold_cells(rel, &layout, &measures, Some(&mask), opts.cancel)?;
            tables.into_iter().map(Arc::new).collect()
        };
    let tables: Vec<_> = slots.iter().map(|&m| Arc::clone(&tables[m])).collect();

    let having = query.having.as_ref().map(|h| {
        let at = query.aggregates.iter().position(|a| a.name == h.aggregate);
        (h, at.expect("validate checked the HAVING aggregate"))
    });
    let groups = index.group_count();
    let (mut rows, mut gids) = (Vec::with_capacity(groups), Vec::with_capacity(groups));
    for &gid in index.gids_by_key() {
        let cells = layout.cells_of(gid);
        let sampled = |c: usize| tables[0].cells[c].count > 0;
        if selected.as_ref().is_some_and(|s| !s[gid as usize]) || !cells.clone().any(sampled) {
            continue;
        }
        let estimate = |(spec, table): (&AggregateSpec, &Arc<StratumSummary>)| {
            let (mut sum, mut weight) = (0.0, 0.0);
            let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
            for c in cells.clone() {
                let (cell, sf) = (
                    &table.cells[c],
                    scale_factors[layout.stratum_of(c) as usize],
                );
                sum += sf * cell.sum;
                weight += sf * cell.count as f64;
                min = min.min(cell.min);
                max = max.max(cell.max);
            }
            match spec.func {
                AggregateFn::Sum => sum,
                AggregateFn::Count => weight,
                AggregateFn::Avg => sum / weight,
                AggregateFn::Min => min,
                AggregateFn::Max => max,
            }
        };
        let values: Vec<f64> = query.aggregates.iter().zip(&tables).map(estimate).collect();
        if having.is_some_and(|(h, at)| !h.keeps(values[at])) {
            continue;
        }
        rows.push((index.key(gid).clone(), values));
        gids.push(gid);
    }
    let names = query.aggregates.iter().map(|a| a.name.clone()).collect();
    if let Some(slot) = opts.capture {
        // One fold per query; a slot someone already filled keeps its value.
        let _ = slot.set(QueryCells {
            index,
            layout,
            tables,
            gids,
        });
    }
    Ok(QueryResult::from_sorted(names, rows))
}

/// The distinct measure expressions of `query` — COUNT's constant `1`
/// (`None`) when it has no other — and each aggregate's position among
/// them; COUNT takes the first.
fn measures(query: &GroupByQuery) -> (Vec<Option<&Expr>>, Vec<usize>) {
    let mut measures: Vec<Option<&Expr>> = Vec::new();
    let mut slots = Vec::with_capacity(query.aggregates.len());
    for spec in &query.aggregates {
        let Some(e) = spec.expr.as_ref() else {
            slots.push(0);
            continue;
        };
        match measures.iter().position(|&m| m == Some(e)) {
            Some(at) => slots.push(at),
            None => {
                slots.push(measures.len());
                measures.push(Some(e));
            }
        }
    }
    if measures.is_empty() {
        measures.push(None);
    }
    (measures, slots)
}

/// The unfiltered group index of `grouping` over a sample and its
/// [`CellLayout`] (rows of `stratum_of_row` in `strata` strata), memoized
/// in `cache` along with the stratum sort they are built from.
pub fn cell_layout(
    rel: &Relation,
    stratum_of_row: &[u32],
    strata: usize,
    grouping: &[ColumnId],
    cache: &QueryCache,
) -> (Arc<GroupIndex>, Arc<CellLayout>) {
    let index = cache.index_for(rel, grouping);
    let layout = cache.cell_layout_for(grouping, || {
        let by_stratum = cache.layout_for(|| StratumLayout::build(stratum_of_row, strata));
        CellLayout::build(&index, &by_stratum)
    });
    (index, layout)
}

/// The generation's memoized moment table of `measure` (`None` = COUNT's
/// constant `1`) over every row of `rel`, folded over `layout` — the cells
/// of `grouping` — on a miss. The fold polls `cancel` at every chunk; a
/// cancelled fold caches nothing.
pub fn unfiltered_cells(
    rel: &Relation,
    layout: &CellLayout,
    grouping: &[ColumnId],
    measure: Option<&Expr>,
    cache: &QueryCache,
    cancel: Option<&CancelToken>,
) -> Result<Arc<StratumSummary>> {
    cache.stratum_summary_for(grouping, &measure_key(measure), || {
        let mut tables = fold_cells(rel, layout, &[measure], None, cancel)?;
        Ok(tables.pop().expect("one table per measure"))
    })
}

/// Fold the rows of `rel` that `mask` selects (every row when `None`) into
/// one moment table per measure over `layout`, one
/// [`relation::CHUNK_ROWS`] chunk at a time: list the chunk's rows from
/// the mask words, gather their cells once, gather each measure at those
/// rows ([`Expr::eval_rows`]; `None` is the constant `1`), and push each
/// value into its cell.
///
/// Serial and in row order, so every cell folds its rows in row order
/// whichever subset is selected: a table folded over whole groups' rows
/// holds, for those groups, bit for bit the cells of the unfiltered table.
/// Per-chunk partials merged afterwards would change those bits. `cancel`
/// is polled at every chunk.
fn fold_cells(
    rel: &Relation,
    layout: &CellLayout,
    measures: &[Option<&Expr>],
    mask: Option<&Bitmap>,
    cancel: Option<&CancelToken>,
) -> Result<Vec<StratumSummary>> {
    let n = rel.row_count();
    let empty = vec![StratumCell::new(); layout.cell_count()];
    let mut tables = vec![empty; measures.len()];
    let (mut rows, mut cells, mut vals) = (Vec::new(), Vec::new(), Vec::new());
    for c in 0..chunk_count(n) {
        cancel::check(cancel)?;
        let (start, end) = chunk_range(c, n);
        rows.clear();
        match mask {
            Some(mask) => rows.extend(mask.ones_range(start, end).map(|r| r as u32)),
            None => rows.extend(start as u32..end as u32),
        }
        if rows.is_empty() {
            continue;
        }
        cells.clear();
        cells.extend(rows.iter().map(|&r| layout.cell_of_row(r as usize)));
        for (measure, table) in measures.iter().zip(&mut tables) {
            vals.clear();
            match measure {
                Some(e) => e.eval_rows(rel, &rows, &mut vals)?,
                None => vals.resize(rows.len(), 1.0),
            }
            for (&cell, &v) in cells.iter().zip(&vals) {
                if cell != u32::MAX {
                    table[cell as usize].push(v);
                }
            }
        }
    }
    Ok(tables
        .into_iter()
        .map(|cells| StratumSummary { cells })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateSpec;
    use crate::query::Having;
    use crate::stratified::test_support::{pred_v_ge, sample};
    use crate::StratifiedInput;
    use relation::predicate::CmpOp;
    use relation::{DataType, GroupKey, RelationBuilder, Value};

    /// Construct all four plans over `s`.
    fn plans_over(s: &StratifiedInput) -> Vec<Box<dyn SamplePlan>> {
        vec![
            Box::new(Integrated::build(s).unwrap()),
            Box::new(NestedIntegrated::build(s).unwrap()),
            Box::new(Normalized::build(s).unwrap()),
            Box::new(KeyNormalized::build(s).unwrap()),
        ]
    }

    /// All four plans over the shared fixture.
    fn plans() -> Vec<Box<dyn SamplePlan>> {
        plans_over(&sample())
    }

    fn queries() -> Vec<GroupByQuery> {
        let v = Expr::col(ColumnId(2));
        vec![
            // finest grouping
            GroupByQuery::new(
                vec![ColumnId(0), ColumnId(1)],
                vec![
                    AggregateSpec::sum(v.clone(), "s"),
                    AggregateSpec::count("c"),
                    AggregateSpec::avg(v.clone(), "a"),
                ],
            ),
            // coarser grouping on a alone (strata merge within groups)
            GroupByQuery::new(
                vec![ColumnId(0)],
                vec![
                    AggregateSpec::sum(v.clone(), "s"),
                    AggregateSpec::count("c"),
                ],
            ),
            // no grouping
            GroupByQuery::new(vec![], vec![AggregateSpec::sum(v.clone(), "s")]),
            // with predicate
            GroupByQuery::new(vec![ColumnId(0)], vec![AggregateSpec::sum(v.clone(), "s")])
                .with_predicate(pred_v_ge(3.0)),
            // grouping on the non-stratum column b
            GroupByQuery::new(
                vec![ColumnId(1)],
                vec![AggregateSpec::avg(v, "a"), AggregateSpec::count("c")],
            ),
        ]
    }

    #[test]
    fn all_strategies_agree_exactly() {
        let plans = plans();
        for q in queries() {
            let reference = plans[0].execute(&q).unwrap();
            for p in &plans[1..] {
                let r = p.execute(&q).unwrap();
                assert_eq!(
                    r.aggregate_names,
                    reference.aggregate_names,
                    "{} names",
                    p.name()
                );
                assert_eq!(
                    r.group_count(),
                    reference.group_count(),
                    "{} group count for {:?}",
                    p.name(),
                    q.grouping
                );
                for ((k1, v1), (k2, v2)) in r.rows().iter().zip(reference.rows()) {
                    assert_eq!(k1, k2, "{} keys", p.name());
                    for (x, y) in v1.iter().zip(v2) {
                        assert!(
                            (x - y).abs() < 1e-9 * (1.0 + y.abs()),
                            "{}: {x} vs {y} for key {k1}",
                            p.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn estimates_scale_correctly() {
        // Fixture: ("x",1) has 4 rows sampled 2 @SF=2; ("x",2) 2 rows
        // sampled 1 @SF=2; ("y",1) fully sampled @SF=1.
        let plans = plans();
        let q = GroupByQuery::new(vec![ColumnId(0)], vec![AggregateSpec::count("c")]);
        for p in &plans {
            let r = p.execute(&q).unwrap();
            let x = GroupKey::new(vec![Value::str("x")]);
            let y = GroupKey::new(vec![Value::str("y")]);
            // COUNT(x) = 2·2 + 1·2 = 6 (true count 6); COUNT(y) = 2·1 = 2.
            assert_eq!(r.get(&x), Some(&[6.0][..]), "{}", p.name());
            assert_eq!(r.get(&y), Some(&[2.0][..]), "{}", p.name());
        }
    }

    #[test]
    fn fully_sampled_stratum_is_exact() {
        // ("y",1) is sampled at rate 1, so any query isolating it is exact.
        let plans = plans();
        let q = GroupByQuery::new(
            vec![ColumnId(0), ColumnId(1)],
            vec![
                AggregateSpec::sum(Expr::col(ColumnId(2)), "s"),
                AggregateSpec::avg(Expr::col(ColumnId(2)), "a"),
            ],
        );
        let y1 = GroupKey::new(vec![Value::str("y"), Value::Int(1)]);
        for p in &plans {
            let r = p.execute(&q).unwrap();
            let vals = r.get(&y1).unwrap();
            assert_eq!(vals[0], 300.0, "{}", p.name());
            assert_eq!(vals[1], 150.0, "{}", p.name());
        }
    }

    #[test]
    fn storage_accounting_positive() {
        for p in plans() {
            assert!(p.storage_bytes() > 0, "{}", p.name());
        }
    }

    #[test]
    fn rate_change_cost_tradeoff() {
        // Fixture strata sizes: 2, 1, 2 sampled tuples.
        let s = sample();
        let integrated = Integrated::build(&s).unwrap();
        let nested = NestedIntegrated::build(&s).unwrap();
        let norm = Normalized::build(&s).unwrap();
        let keyn = KeyNormalized::build(&s).unwrap();
        // Integrated layouts rewrite every tuple of the stratum.
        assert_eq!(integrated.rate_change_cost(0), 2);
        assert_eq!(integrated.rate_change_cost(1), 1);
        assert_eq!(nested.rate_change_cost(2), 2);
        // Normalized layouts touch exactly one AuxRel row.
        assert_eq!(norm.rate_change_cost(0), 1);
        assert_eq!(keyn.rate_change_cost(2), 1);
        // Unknown strata cost nothing on the normalized side.
        assert_eq!(norm.rate_change_cost(99), 0);
        assert_eq!(integrated.rate_change_cost(99), 0);
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<&str> = plans().iter().map(|p| p.name()).collect();
        let mut uniq = names.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), names.len());
    }

    /// Three chunks of a sample stratified on `g` (6 strata, mixed scale
    /// factors), with a second dimension `k` finer than the strata, a row
    /// `id`, and a measure `v` holding NaN and −0.0. `k = 9` occurs in the
    /// middle chunk only.
    fn chunked_sample() -> StratifiedInput {
        let rows = 40_000;
        let mut b = RelationBuilder::new()
            .column("id", DataType::Int)
            .column("g", DataType::Int)
            .column("k", DataType::Int)
            .column("v", DataType::Float);
        let mut stratum_of_row = Vec::with_capacity(rows);
        for i in 0..rows {
            let g = (i * 7 + i / 13) % 6;
            let middle = (relation::CHUNK_ROWS..2 * relation::CHUNK_ROWS).contains(&i);
            let k = if middle && i % 97 == 0 { 9 } else { i % 4 };
            let v = match i % 211 {
                0 => f64::NAN,
                1 => -0.0,
                r => r as f64 * 0.37 - 20.0,
            };
            b.push_row(&[
                Value::Int(i as i64),
                Value::Int(g as i64),
                Value::Int(k as i64),
                Value::from(v),
            ])
            .unwrap();
            stratum_of_row.push(g as u32);
        }
        StratifiedInput {
            rows: b.finish(),
            stratum_of_row,
            scale_factors: vec![1.0, 2.5, 7.0, 1.25, 3.0, 11.0],
            strata_keys: (0..6).map(|g| GroupKey::new(vec![Value::Int(g)])).collect(),
            grouping_columns: vec![ColumnId(1)],
        }
    }

    const ID: ColumnId = ColumnId(0);
    const G: ColumnId = ColumnId(1);
    const K: ColumnId = ColumnId(2);

    /// The cached path's cases: `(what, query)`.
    fn cell_cases() -> Vec<(&'static str, GroupByQuery)> {
        let v = || Expr::col(ColumnId(3));
        let expr = || v().mul(Expr::lit(2.0)).sub(Expr::col(ID));
        vec![
            (
                "NaN and -0.0 measures, SUM and AVG sharing one",
                GroupByQuery::new(
                    vec![G],
                    vec![
                        AggregateSpec::sum(v(), "s"),
                        AggregateSpec::avg(v(), "a"),
                        AggregateSpec::count("c"),
                    ],
                )
                .with_predicate(Predicate::ge(ID, 100i64)),
            ),
            (
                "COUNT only",
                GroupByQuery::new(vec![G], vec![AggregateSpec::count("c")])
                    .with_predicate(Predicate::le(ColumnId(3), 10.0)),
            ),
            (
                "MIN/MAX",
                GroupByQuery::new(
                    vec![K],
                    vec![AggregateSpec::min(v(), "mn"), AggregateSpec::max(v(), "mx")],
                )
                .with_predicate(Predicate::ge(ID, 5i64)),
            ),
            (
                "expression measure, no grouping",
                GroupByQuery::new(
                    vec![],
                    vec![
                        AggregateSpec::sum(expr(), "s"),
                        AggregateSpec::avg(expr(), "a"),
                    ],
                )
                .with_predicate(Predicate::le(ID, 30_000i64)),
            ),
            (
                "HAVING",
                GroupByQuery::new(
                    vec![G, K],
                    vec![AggregateSpec::sum(v(), "s"), AggregateSpec::count("c")],
                )
                .with_predicate(Predicate::ge(ColumnId(3), -5.0))
                .with_having(Having::new("c", CmpOp::Gt, 4_000.0)),
            ),
            (
                "empty selection",
                GroupByQuery::new(
                    vec![G],
                    vec![AggregateSpec::sum(v(), "s"), AggregateSpec::count("c")],
                )
                .with_predicate(Predicate::ge(ID, 1_000_000i64)),
            ),
            (
                "grouping finer than the strata",
                GroupByQuery::new(
                    vec![G, K],
                    vec![AggregateSpec::sum(v(), "s"), AggregateSpec::avg(v(), "a")],
                )
                .with_predicate(Predicate::le(ID, 39_000i64)),
            ),
            (
                "group in a middle chunk only",
                GroupByQuery::new(
                    vec![K],
                    vec![AggregateSpec::count("c"), AggregateSpec::sum(v(), "s")],
                )
                .with_predicate(Predicate::ge(ID, 1i64)),
            ),
            (
                "group-only predicate",
                GroupByQuery::new(
                    vec![G, K],
                    vec![
                        AggregateSpec::sum(v(), "s"),
                        AggregateSpec::count("c"),
                        AggregateSpec::min(v(), "mn"),
                    ],
                )
                .with_predicate(Predicate::le(G, 3i64).and(Predicate::ge(K, 1i64))),
            ),
            (
                "no predicate",
                GroupByQuery::new(vec![K], vec![AggregateSpec::avg(v(), "a")]),
            ),
        ]
    }

    fn bits(result: &QueryResult) -> Vec<(&GroupKey, Vec<u64>)> {
        let to_bits = |values: &Vec<f64>| values.iter().map(|v| v.to_bits()).collect();
        result.rows().iter().map(|(k, v)| (k, to_bits(v))).collect()
    }

    fn cached(cache: &QueryCache) -> ExecOptions<'_> {
        ExecOptions {
            cache: Some(cache),
            ..ExecOptions::default()
        }
    }

    /// Every rewrite's cached path returns the cold plan's groups with
    /// values within 1e-12 relative (NaN where it has NaN), and the same
    /// bits on every plan, cold cache or warm.
    #[test]
    fn cells_answer_like_the_cold_plans() {
        let s = chunked_sample();
        assert_eq!(relation::chunk_count(s.rows.row_count()), 3);
        for (what, q) in cell_cases() {
            let mut reference: Option<QueryResult> = None;
            for plan in plans_over(&s) {
                let ctx = format!("{what}: {}", plan.name());
                let cold = plan.execute(&q).unwrap();
                let cache = QueryCache::new();
                let first = plan.execute_opts(&q, &cached(&cache)).unwrap();
                let warm = plan.execute_opts(&q, &cached(&cache)).unwrap();
                assert_eq!(bits(&first), bits(&warm), "{ctx}: cold vs warm cache");
                let reference = reference.get_or_insert_with(|| warm.clone());
                assert_eq!(bits(&warm), bits(reference), "{ctx}: across plans");

                assert_eq!(warm.aggregate_names, cold.aggregate_names, "{ctx}");
                let keys = |r: &QueryResult| r.iter().map(|(k, _)| k.clone()).collect();
                let (warm_keys, cold_keys): (Vec<GroupKey>, Vec<GroupKey>) =
                    (keys(&warm), keys(&cold));
                assert_eq!(warm_keys, cold_keys, "{ctx}: groups");
                for ((key, w), (_, c)) in warm.iter().zip(cold.iter()) {
                    for (x, y) in w.iter().zip(c) {
                        let close = (x - y).abs() <= 1e-12 * y.abs();
                        assert!(
                            x == y || close || (x.is_nan() && y.is_nan()),
                            "{ctx}: {x} vs cold {y} at {key}"
                        );
                    }
                }
            }
        }
    }

    /// Integrated, Normalized and Key-normalized run the scan at the
    /// sample's per-row ScaleFactors: bit for bit the whole-relation
    /// reference fold at those weights. Nested-integrated scales each
    /// (group, SF) partial once instead, so it sits within 1e-12 relative.
    #[test]
    fn cold_plans_match_the_whole_relation_reference() {
        let s = chunked_sample();
        let weights = s.row_scale_factors();
        for (what, q) in cell_cases() {
            let reference = crate::exec::reference_fold(&s.rows, &q, Some(&weights));
            for plan in plans_over(&s) {
                let ctx = format!("{what}: {}", plan.name());
                let cold = plan.execute(&q).unwrap();
                assert_eq!(cold.aggregate_names, reference.aggregate_names, "{ctx}");
                if plan.name() != "Nested-integrated" {
                    assert_eq!(bits(&cold), bits(&reference), "{ctx}");
                    continue;
                }
                let keys = |r: &QueryResult| r.iter().map(|(k, _)| k.clone()).collect();
                let (got, want): (Vec<GroupKey>, Vec<GroupKey>) = (keys(&cold), keys(&reference));
                assert_eq!(got, want, "{ctx}: groups");
                for ((key, c), (_, r)) in cold.iter().zip(reference.iter()) {
                    for (x, y) in c.iter().zip(r) {
                        let close = (x - y).abs() <= 1e-12 * y.abs();
                        assert!(
                            x == y || close || (x.is_nan() && y.is_nan()),
                            "{ctx}: {x} vs reference {y} at {key}"
                        );
                    }
                }
            }
        }
    }

    /// The cases hit the shapes they name.
    #[test]
    fn cell_cases_cover_their_shapes() {
        let s = chunked_sample();
        let plan = Integrated::build(&s).unwrap();
        let cache = QueryCache::new();
        let run = |what: &str| {
            let (_, q) = cell_cases().into_iter().find(|(w, _)| *w == what).unwrap();
            plan.execute_opts(&q, &cached(&cache)).unwrap()
        };
        let nan = run("NaN and -0.0 measures, SUM and AVG sharing one");
        assert!(nan.iter().any(|(_, v)| v[0].is_nan() && v[1].is_nan()));
        let minmax = run("MIN/MAX");
        assert!(minmax.iter().all(|(_, v)| v[0] <= v[1]), "MIN/MAX skip NaN");
        assert!(run("empty selection").is_empty());
        let having = run("HAVING").group_count();
        let finer = run("grouping finer than the strata").group_count();
        assert!(0 < having && having < finer, "{having} of {finer}");
        let middle = GroupKey::new(vec![Value::Int(9)]);
        assert!(run("group in a middle chunk only").get(&middle).is_some());
    }

    /// A group-only predicate is served from the cached unfiltered cells;
    /// the same query forced through the fold (by a conjunct true on every
    /// row) returns the same bits.
    #[test]
    fn cached_cells_equal_the_fold() {
        let s = chunked_sample();
        for (what, q) in cell_cases() {
            if !q.predicate.references_only(&q.grouping) {
                continue;
            }
            let forced = q
                .clone()
                .with_predicate(q.predicate.clone().and(Predicate::ge(ID, 0i64)));
            for plan in plans_over(&s) {
                let cache = QueryCache::new();
                let trace = crate::ExecTrace::new();
                let opts = ExecOptions {
                    trace: Some(&trace),
                    ..cached(&cache)
                };
                let summary = plan.execute_opts(&q, &opts).unwrap();
                assert_eq!(trace.served(), Some(ServedFrom::Summary), "{what}");
                let scanned = plan.execute_opts(&forced, &opts).unwrap();
                assert_eq!(trace.served(), Some(ServedFrom::CachedScan), "{what}");
                assert_eq!(bits(&summary), bits(&scanned), "{what}: {}", plan.name());
            }
        }
    }

    /// `fold_cells` per cell equals a naive push of the cell's rows in row
    /// order, over every row and over a subset; COUNT's measure is `1`.
    #[test]
    fn fold_cells_matches_naive_moments() {
        let mut b = RelationBuilder::new()
            .column("g", DataType::Int)
            .column("v", DataType::Float);
        for i in 0..40 {
            b.push_row(&[Value::Int(i % 7), Value::from(i as f64)])
                .unwrap();
        }
        let r = b.finish();
        let ix = GroupIndex::build(&r, &[ColumnId(0)]);
        let strata: Vec<u32> = (0..40).map(|i| (i / 20) as u32 * 2).collect();
        let layout = CellLayout::build(&ix, &StratumLayout::build(&strata, 4));
        let v = Expr::col(ColumnId(1));
        let evens = Bitmap::from_fn(40, |row| row % 2 == 0);
        let all = fold_cells(&r, &layout, &[Some(&v), None], None, None).unwrap();
        let even = fold_cells(&r, &layout, &[Some(&v)], Some(&evens), None).unwrap();
        for c in 0..layout.cell_count() {
            let rows = (0..40).filter(|&row| layout.cell_of_row(row) == c as u32);
            let (mut want, mut want_even) = (StratumCell::new(), StratumCell::new());
            for row in rows {
                want.push(row as f64);
                if row % 2 == 0 {
                    want_even.push(row as f64);
                }
            }
            assert_eq!(all[0].cells()[c], want);
            assert_eq!(even[0].cells()[c], want_even);
            assert_eq!(all[1].cells()[c].sum, want.count as f64);
        }
    }

    /// The fold polls the token once per chunk: a fired token stops it
    /// before the first chunk or inside it, and a token that lets every
    /// poll pass leaves the bits unchanged. A group-only predicate on a
    /// cold cache is stopped inside the unfiltered fold, which then leaves
    /// nothing cached for the next query to read.
    #[test]
    fn cancellation_inside_the_cell_fold() {
        use crate::{CancelToken, EngineError};
        let s = chunked_sample();
        let cases = cell_cases();
        let group_only = cases.iter().find(|(w, _)| *w == "group-only predicate");
        for (what, q) in [&cases[0], group_only.unwrap()] {
            for plan in plans_over(&s) {
                let ctx = format!("{what}: {}", plan.name());
                let plain = plan.execute_opts(q, &cached(&QueryCache::new())).unwrap();
                // One cache across the runs below, cold at the first.
                let cache = QueryCache::new();
                let run = |token: CancelToken| {
                    let opts = ExecOptions {
                        cancel: Some(&token),
                        ..cached(&cache)
                    };
                    plan.execute_opts(q, &opts)
                };
                for polls in [0, 1, 2] {
                    let err = run(CancelToken::firing_after(polls)).unwrap_err();
                    assert_eq!(err, EngineError::Cancelled, "{ctx}");
                }
                let done = run(CancelToken::firing_after(3)).unwrap();
                assert_eq!(bits(&done), bits(&plain), "{ctx}");
            }
        }
    }
}
