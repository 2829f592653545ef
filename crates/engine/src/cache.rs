//! Per-generation memoization for the query-serving fast path.
//!
//! The paper's premise (§5) is that the synopsis is small and precomputed
//! so queries are cheap — but a naive executor still rebuilds a
//! [`GroupIndex`] over the sample and re-derives which (group, stratum)
//! cell each row falls in on *every* query. The sample only changes on
//! insert/refresh/rebuild, so both are pure functions of synopsis state
//! and can be memoized:
//!
//! * **Group indexes**, keyed by the query's grouping columns `T`. The
//!   cached index is always *unfiltered* (predicates are applied by the
//!   fold from the selection bitmap), so one index serves every predicate
//!   over the same grouping.
//! * **Cells**: per grouping, the [`CellLayout`] naming which (group,
//!   stratum) cells exist and which cell each sample row falls in; per
//!   (grouping, measure), the [`StratumSummary`] of dense `count` / `Σx` /
//!   `Σx²` / range cells over that layout folded from every row. Estimates
//!   and error bounds of unfiltered and group-only-predicate queries are
//!   both read off these without a row scan.
//! * **The stratum layout**: a stable permutation of sample rows sorted by
//!   stratum id, with one contiguous run per stratum — the one counting
//!   sort every grouping's [`CellLayout`] is built from.
//!
//! Each kind is a [`Memo`] map, so lookups are shard read locks and the
//! heavy computation happens outside any lock. A [`QueryCache`] belongs to
//! one immutable sample generation and is dropped with it, never cleared;
//! [`CacheCounts`] carry the hit/miss counts from one generation's cache
//! to the next.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

use relation::{ColumnId, Relation};

use crate::grouping::GroupIndex;
use crate::memo::{Memo, MemoCounts};
use crate::rewrite::QueryCells;

/// Execution options threaded through
/// [`SamplePlan::execute_opts`](crate::rewrite::SamplePlan::execute_opts):
/// which cache to consult (if any), what to record, and when to stop.
/// `trace` and a `cancel` token that never fires leave results
/// bit-identical. Every fold is serial: the cold plans' chunked
/// aggregation, the cached path's cell fold and exact scans. With a cache, every rewrite answers from
/// per-cell moments ([`execute_cells`](crate::rewrite::execute_cells)),
/// whose estimates scale each stratum's sum once instead of each row's
/// value: the same groups as the cold path, values within a few ulp of it.
#[derive(Clone, Copy)]
pub struct ExecOptions<'a> {
    /// Memoized indexes/layouts/cells for the relation being queried.
    /// `None` recomputes everything per query (the cold path, which runs
    /// the paper's per-rewrite plan).
    pub cache: Option<&'a QueryCache>,
    /// Optional per-query trace sink. The executor records which path
    /// served the answer and how many rows it touched; recording never
    /// affects the computed result.
    pub trace: Option<&'a ExecTrace>,
    /// Optional cooperative cancellation token, polled at chunk boundaries
    /// by the aggregation loops. When it fires mid-scan, execution stops
    /// within one chunk and returns
    /// [`EngineError::Cancelled`](crate::error::EngineError::Cancelled).
    /// A token that never fires cannot change the computed result.
    pub cancel: Option<&'a crate::cancel::CancelToken>,
    /// Read by nothing in the workspace: every scan runs the decode-free
    /// kernels (see [`relation::kernels`]). Defaults to `true`; kept only
    /// because the benchmark's traced replay still reads it, and goes once
    /// that replay is replaced by in-crate spans (ROADMAP item 6).
    pub kernels: bool,
    /// Internal plumbing, not a knob: a slot the cached path moves the
    /// query's [`QueryCells`] into once the estimates are read off them, so
    /// the answer pipeline's bounds come from the same tables without a
    /// second fold. Stays empty on the cold path. Never affects the
    /// computed result.
    pub capture: Option<&'a OnceLock<QueryCells>>,
}

impl Default for ExecOptions<'_> {
    fn default() -> Self {
        ExecOptions {
            cache: None,
            trace: None,
            cancel: None,
            kernels: true,
            capture: None,
        }
    }
}

/// Which execution path produced a query's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedFrom {
    /// O(groups) answer from the generation's cached cells — no row scan.
    Summary,
    /// One fold of the selected sample rows into cells over a memoized
    /// layout (a cache was available).
    CachedScan,
    /// Row scan with everything recomputed (no cache supplied).
    ColdScan,
}

impl ServedFrom {
    /// Stable lowercase label, used as a metric label value.
    pub fn label(&self) -> &'static str {
        match self {
            ServedFrom::Summary => "summary",
            ServedFrom::CachedScan => "cached_scan",
            ServedFrom::ColdScan => "cold_scan",
        }
    }

    /// All variants, in label order.
    pub fn all() -> [ServedFrom; 3] {
        [
            ServedFrom::Summary,
            ServedFrom::CachedScan,
            ServedFrom::ColdScan,
        ]
    }
}

/// Per-query execution trace, written by the executor when
/// [`ExecOptions::trace`] is set. Interior-mutable so the `ExecOptions`
/// struct stays `Copy`; one trace must only be used for one query.
#[derive(Debug, Default)]
pub struct ExecTrace {
    /// 0 = unset, else `ServedFrom as u8 + 1`.
    served: AtomicU8,
    rows_scanned: AtomicU64,
    rows_selected: AtomicU64,
    chunks_scanned: AtomicU64,
    chunks_pruned: AtomicU64,
    kernel_pred_chunks: AtomicU64,
    kernel_fold_sum: AtomicU64,
    kernel_fold_minmax: AtomicU64,
}

impl ExecTrace {
    /// A fresh trace with no path recorded yet.
    pub fn new() -> ExecTrace {
        ExecTrace::default()
    }

    /// Record the serving path and rows touched (executor-internal).
    pub fn record(&self, served: ServedFrom, rows_scanned: u64) {
        self.served.store(served as u8 + 1, Ordering::Relaxed);
        self.rows_scanned.store(rows_scanned, Ordering::Relaxed);
    }

    /// The path that served the query, if the executor recorded one.
    pub fn served(&self) -> Option<ServedFrom> {
        match self.served.load(Ordering::Relaxed) {
            1 => Some(ServedFrom::Summary),
            2 => Some(ServedFrom::CachedScan),
            3 => Some(ServedFrom::ColdScan),
            _ => None,
        }
    }

    /// Rows the executor scanned to answer (0 for summary-served).
    pub fn rows_scanned(&self) -> u64 {
        self.rows_scanned.load(Ordering::Relaxed)
    }

    /// Record rows that survived a predicate evaluation. Accumulates,
    /// because a rewrite may evaluate the predicate over more than one
    /// stratum scan — together with [`ExecTrace::rows_scanned`] this gives
    /// the observed predicate selectivity the adaptive allocator feeds on.
    pub fn record_selected(&self, rows: u64) {
        self.rows_selected.fetch_add(rows, Ordering::Relaxed);
    }

    /// Rows that survived predicate evaluation (0 when nothing recorded).
    pub fn rows_selected(&self) -> u64 {
        self.rows_selected.load(Ordering::Relaxed)
    }

    /// Record zone-map pruning counters for one predicate evaluation:
    /// chunks whose rows were actually inspected and chunks skipped
    /// entirely. Accumulates, because a rewrite may evaluate the predicate
    /// over more than one stratum scan.
    pub fn record_chunks(&self, scanned: u64, pruned: u64) {
        self.chunks_scanned.fetch_add(scanned, Ordering::Relaxed);
        self.chunks_pruned.fetch_add(pruned, Ordering::Relaxed);
    }

    /// Chunks whose rows were inspected during predicate evaluation.
    pub fn chunks_scanned(&self) -> u64 {
        self.chunks_scanned.load(Ordering::Relaxed)
    }

    /// Chunks skipped entirely by zone-map verdicts.
    pub fn chunks_pruned(&self) -> u64 {
        self.chunks_pruned.load(Ordering::Relaxed)
    }

    /// Record decode-free kernel counters from one scan. Accumulates,
    /// because a rewrite may run several scans per query.
    pub fn record_kernels(&self, stats: &relation::KernelStats) {
        self.kernel_pred_chunks
            .fetch_add(stats.pred_chunks, Ordering::Relaxed);
        self.kernel_fold_sum
            .fetch_add(stats.fold_sum_chunks, Ordering::Relaxed);
        self.kernel_fold_minmax
            .fetch_add(stats.fold_minmax_chunks, Ordering::Relaxed);
    }

    /// Chunks whose predicate verdicts came from code-domain kernels
    /// (no decode).
    pub fn kernel_pred_chunks(&self) -> u64 {
        self.kernel_pred_chunks.load(Ordering::Relaxed)
    }

    /// Fully-selected chunks whose SUM/COUNT came from the encoded fold.
    pub fn kernel_fold_sum(&self) -> u64 {
        self.kernel_fold_sum.load(Ordering::Relaxed)
    }

    /// Fully-selected chunks whose MIN/MAX came from the zone map.
    pub fn kernel_fold_minmax(&self) -> u64 {
        self.kernel_fold_minmax.load(Ordering::Relaxed)
    }
}

/// Per-(group, stratum) moment cell: `count`, `Σx`, `Σx²`, and the value
/// range. Mirrors `congress::bounds::Moments` field-for-field (the aqua
/// crate converts directly) without making engine depend on congress.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StratumCell {
    /// Number of values folded in.
    pub count: u64,
    /// Sum of values.
    pub sum: f64,
    /// Sum of squared values.
    pub sum_sq: f64,
    /// Minimum value seen (`+∞` if empty).
    pub min: f64,
    /// Maximum value seen (`-∞` if empty).
    pub max: f64,
}

impl Default for StratumCell {
    fn default() -> Self {
        StratumCell::new()
    }
}

impl StratumCell {
    /// Empty cell.
    pub fn new() -> StratumCell {
        StratumCell {
            count: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold in one value, in the same operation order as
    /// `congress::bounds::Moments::push` so restored moments are
    /// bit-identical to streamed ones.
    #[inline]
    pub fn push(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.sum_sq += v * v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }
}

/// Which (group, stratum) cells exist in one sample generation under one
/// grouping, and which cell each sample row falls in. A property of the
/// sample, not of any query: built once per grouping, then every
/// [`StratumSummary`] — cached or per query — is a dense array over it.
///
/// Cells are numbered in (group id, stratum id) order, so a group's cells
/// are one contiguous range sorted by stratum id and the bound formulas
/// fold their strata in a deterministic order. Sized by the cells that
/// exist, never by `groups × strata`.
#[derive(Debug)]
pub struct CellLayout {
    /// Cell of each sample row (`u32::MAX` for a row outside every group).
    cell_of_row: Vec<u32>,
    /// `gid_offsets[g]..gid_offsets[g + 1]` are the cells of group `g`.
    gid_offsets: Vec<u32>,
    stratum_of_cell: Vec<u32>,
    /// Unfiltered sample rows per cell.
    rows_of_cell: Vec<u64>,
}

impl CellLayout {
    /// Lay out the cells of `index` over the strata of `by_stratum` without
    /// hashing. Rows are visited stratum by stratum and the first row of a
    /// group within a stratum opens a cell: one such pass counts each
    /// group's cells, a second hands out cell ids from per-group cursors —
    /// ascending strata within a group because the strata are visited in
    /// ascending order.
    pub fn build(index: &GroupIndex, by_stratum: &StratumLayout) -> CellLayout {
        let groups = index.group_count();
        let mut gid_offsets = vec![0u32; groups + 1];
        visit_by_stratum(by_stratum, index, |_, g, _, opens_cell| {
            gid_offsets[g + 1] += u32::from(opens_cell)
        });
        for g in 0..groups {
            gid_offsets[g + 1] += gid_offsets[g];
        }

        let cells = gid_offsets[groups] as usize;
        let mut next_cell = gid_offsets[..groups].to_vec();
        let mut stratum_of_cell = vec![0u32; cells];
        let mut rows_of_cell = vec![0u64; cells];
        let mut cell_of_row = vec![u32::MAX; index.group_ids().len()];
        visit_by_stratum(by_stratum, index, |r, g, s, opens_cell| {
            if opens_cell {
                stratum_of_cell[next_cell[g] as usize] = s;
                next_cell[g] += 1;
            }
            let cell = next_cell[g] - 1;
            rows_of_cell[cell as usize] += 1;
            cell_of_row[r] = cell;
        });
        CellLayout {
            cell_of_row,
            gid_offsets,
            stratum_of_cell,
            rows_of_cell,
        }
    }

    /// Number of (group, stratum) cells with at least one sample row.
    pub fn cell_count(&self) -> usize {
        self.stratum_of_cell.len()
    }

    /// Cell of `row` (`u32::MAX` for a row outside every group).
    #[inline]
    pub(crate) fn cell_of_row(&self, row: usize) -> u32 {
        self.cell_of_row[row]
    }

    /// The cells of group `gid`, ascending by stratum id.
    pub fn cells_of(&self, gid: u32) -> Range<usize> {
        self.gid_offsets[gid as usize] as usize..self.gid_offsets[gid as usize + 1] as usize
    }

    /// Stratum id of `cell`.
    pub fn stratum_of(&self, cell: usize) -> u32 {
        self.stratum_of_cell[cell]
    }

    /// Unfiltered sample rows in `cell`.
    pub fn rows_of(&self, cell: usize) -> u64 {
        self.rows_of_cell[cell]
    }
}

/// Calls `f(row, gid, stratum, opens_cell)` for every grouped row, stratum
/// by stratum; `opens_cell` marks the first row of its group within its
/// stratum.
fn visit_by_stratum(
    by_stratum: &StratumLayout,
    index: &GroupIndex,
    mut f: impl FnMut(usize, usize, u32, bool),
) {
    let gids = index.group_ids();
    let mut last_stratum = vec![u32::MAX; index.group_count()];
    for s in 0..by_stratum.stratum_count() {
        for &r in by_stratum.rows_of(s) {
            let g = gids[r as usize];
            if g == u32::MAX {
                continue;
            }
            let g = g as usize;
            let opens_cell = last_stratum[g] != s as u32;
            last_stratum[g] = s as u32;
            f(r as usize, g, s as u32, opens_cell);
        }
    }
}

/// Per-cell moments of one measure over a [`CellLayout`]: the cached
/// table for the empty predicate when folded over every row, a query's
/// own table when folded over the rows it selected (see
/// [`execute_cells`](crate::rewrite::execute_cells)).
#[derive(Debug, Clone)]
pub struct StratumSummary {
    pub(crate) cells: Vec<StratumCell>,
}

impl StratumSummary {
    /// Moment cells, indexed by the layout's cell id.
    pub fn cells(&self) -> &[StratumCell] {
        &self.cells
    }
}

/// Lifetime hit/miss counts of the [`QueryCache`]s of successive sample
/// generations, per memoized-structure kind.
#[derive(Debug, Default)]
pub struct CacheCounts {
    /// Unfiltered group-index lookups.
    pub index: Arc<MemoCounts>,
    /// Stratum-summary (moment cells) and cell-layout lookups.
    pub stratum_summary: Arc<MemoCounts>,
    /// Stratum-layout lookups.
    pub layout: Arc<MemoCounts>,
}

impl CacheCounts {
    /// `(name, counts)` for every kind, in a stable order.
    pub fn kinds(&self) -> [(&'static str, &MemoCounts); 3] {
        [
            ("index", &self.index),
            ("stratum_summary", &self.stratum_summary),
            ("layout", &self.layout),
        ]
    }
}

/// Memoized query-serving state for one immutable sample generation.
#[derive(Debug, Default)]
pub struct QueryCache {
    indexes: Memo<Vec<ColumnId>, GroupIndex>,
    /// Per-grouping cell layouts; counted with the stratum-summary kind.
    cell_layouts: Memo<Vec<ColumnId>, CellLayout>,
    summaries: Memo<(Vec<ColumnId>, String), StratumSummary>,
    layout: Memo<(), StratumLayout>,
}

impl QueryCache {
    /// Fresh, empty cache with counts of its own.
    pub fn new() -> QueryCache {
        QueryCache::default()
    }

    /// Fresh, empty cache counting into `counts`.
    pub fn counting(counts: &CacheCounts) -> QueryCache {
        QueryCache {
            indexes: Memo::new(Arc::clone(&counts.index)),
            cell_layouts: Memo::new(Arc::clone(&counts.stratum_summary)),
            summaries: Memo::new(Arc::clone(&counts.stratum_summary)),
            layout: Memo::new(Arc::clone(&counts.layout)),
        }
    }

    /// The *unfiltered* group index of `rel` under `cols`, memoized.
    pub fn index_for(&self, rel: &Relation, cols: &[ColumnId]) -> Arc<GroupIndex> {
        self.indexes
            .get_or_insert_with(cols, || GroupIndex::build(rel, cols))
    }

    /// The memoized [`CellLayout`] for grouping `cols`, building it via
    /// `build` on a miss. Counted under the stratum-summary kind: the
    /// layout is the shared skeleton of that grouping's summaries.
    pub fn cell_layout_for(
        &self,
        cols: &[ColumnId],
        build: impl FnOnce() -> CellLayout,
    ) -> Arc<CellLayout> {
        self.cell_layouts.get_or_insert_with(cols, build)
    }

    /// The memoized [`StratumSummary`] for `(cols, measure)`, building it
    /// via `build` on a miss.
    pub fn stratum_summary_for(
        &self,
        cols: &[ColumnId],
        measure: &str,
        build: impl FnOnce() -> crate::error::Result<StratumSummary>,
    ) -> crate::error::Result<Arc<StratumSummary>> {
        let key = (cols.to_vec(), measure.to_string());
        self.summaries.get_or_try_insert_with(&key, build)
    }

    /// The memoized stratum layout, building it via `build` on a miss.
    pub fn layout_for(&self, build: impl FnOnce() -> StratumLayout) -> Arc<StratumLayout> {
        self.layout.get_or_insert_with(&(), build)
    }
}

/// Sample rows permuted into per-stratum contiguous runs.
///
/// Built once per synopsis generation with a stable counting sort, so run
/// order (by stratum id) and within-run order (by row index) are
/// deterministic.
#[derive(Debug, Clone)]
pub struct StratumLayout {
    /// Row indices sorted by stratum; each stratum is one contiguous run.
    perm: Vec<u32>,
    /// `run_offsets[s]..run_offsets[s + 1]` bounds stratum `s` in `perm`.
    run_offsets: Vec<u32>,
}

impl StratumLayout {
    /// Counting-sort `stratum_of_row` into per-stratum runs.
    pub fn build(stratum_of_row: &[u32], stratum_count: usize) -> StratumLayout {
        let mut counts = vec![0u32; stratum_count];
        for &s in stratum_of_row {
            counts[s as usize] += 1;
        }
        let mut run_offsets = Vec::with_capacity(stratum_count + 1);
        let mut acc = 0u32;
        run_offsets.push(0);
        for &c in &counts {
            acc += c;
            run_offsets.push(acc);
        }
        let mut cursors: Vec<u32> = run_offsets[..stratum_count].to_vec();
        let mut perm = vec![0u32; stratum_of_row.len()];
        for (row, &s) in stratum_of_row.iter().enumerate() {
            let c = &mut cursors[s as usize];
            perm[*c as usize] = row as u32;
            *c += 1;
        }
        StratumLayout { perm, run_offsets }
    }

    /// Number of strata.
    pub fn stratum_count(&self) -> usize {
        self.run_offsets.len() - 1
    }

    /// Row indices of stratum `s`, ascending.
    pub fn rows_of(&self, s: usize) -> &[u32] {
        let lo = self.run_offsets[s] as usize;
        let hi = self.run_offsets[s + 1] as usize;
        &self.perm[lo..hi]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::{DataType, RelationBuilder, Value};

    fn rel(n: usize) -> Relation {
        let mut b = RelationBuilder::new()
            .column("g", DataType::Int)
            .column("v", DataType::Float);
        for i in 0..n {
            b.push_row(&[Value::Int((i % 7) as i64), Value::from(i as f64)])
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn layout_partitions_rows_by_stratum() {
        let strata = vec![2u32, 0, 1, 0, 2, 2, 1];
        let layout = StratumLayout::build(&strata, 3);
        assert_eq!(layout.stratum_count(), 3);
        assert_eq!(layout.rows_of(0), &[1, 3]);
        assert_eq!(layout.rows_of(1), &[2, 6]);
        assert_eq!(layout.rows_of(2), &[0, 4, 5]);
    }

    #[test]
    fn layout_handles_empty_strata() {
        let strata = vec![0u32, 2, 2];
        let layout = StratumLayout::build(&strata, 4);
        assert_eq!(layout.rows_of(0), &[0]);
        assert_eq!(layout.rows_of(1), &[] as &[u32]);
        assert_eq!(layout.rows_of(2), &[1, 2]);
        assert_eq!(layout.rows_of(3), &[] as &[u32]);
    }

    #[test]
    fn index_cache_hits_on_same_grouping() {
        let r = rel(100);
        let counts = CacheCounts::default();
        let cache = QueryCache::counting(&counts);
        let a = cache.index_for(&r, &[ColumnId(0)]);
        let b = cache.index_for(&r, &[ColumnId(0)]);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((counts.index.hits(), counts.index.misses()), (1, 1));
        // A different grouping is a separate entry.
        let c = cache.index_for(&r, &[ColumnId(0), ColumnId(1)]);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(counts.index.misses(), 2);
    }

    fn empty_table() -> StratumSummary {
        StratumSummary { cells: Vec::new() }
    }

    #[test]
    fn stratum_summary_cache_keys_on_grouping_and_measure() {
        let cache = QueryCache::new();
        let cols = [ColumnId(0)];
        let a = cache
            .stratum_summary_for(&cols, "SUM(v)", || Ok(empty_table()))
            .unwrap();
        let b = cache
            .stratum_summary_for(&cols, "SUM(v)", || panic!("must hit"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // Different grouping → distinct entry.
        let c = cache
            .stratum_summary_for(&[ColumnId(1)], "SUM(v)", || Ok(empty_table()))
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        // Different measure → distinct entry.
        let d = cache
            .stratum_summary_for(&cols, "COUNT(*)", || Ok(empty_table()))
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &d));
        // Build errors propagate without caching anything.
        assert!(cache
            .stratum_summary_for(&cols, "BAD", || Err(
                crate::error::EngineError::NoAggregates
            ))
            .is_err());
        assert!(cache
            .stratum_summary_for(&cols, "BAD", || Ok(empty_table()))
            .is_ok());
    }

    #[test]
    fn cell_layout_numbers_cells_by_group_then_stratum() {
        let r = rel(40); // g = i % 7
        let ix = GroupIndex::build(&r, &[ColumnId(0)]);
        // Stratum 3 is empty and every group spans both others: cells > strata.
        let strata: Vec<u32> = (0..40).map(|i| (i / 20) as u32 * 2).collect();
        let layout = CellLayout::build(&ix, &StratumLayout::build(&strata, 4));
        assert_eq!(layout.cell_count(), 14);
        for gid in 0..ix.group_count() as u32 {
            let cells = layout.cells_of(gid);
            let ids: Vec<u32> = cells.clone().map(|c| layout.stratum_of(c)).collect();
            assert_eq!(ids, [0, 2]);
            for c in cells {
                let rows: Vec<usize> = (0..40)
                    .filter(|&r2| ix.group_of(r2) == gid && strata[r2] == layout.stratum_of(c))
                    .collect();
                assert_eq!(layout.rows_of(c), rows.len() as u64);
                assert!(rows.iter().all(|&r2| layout.cell_of_row(r2) == c as u32));
            }
        }
    }

    #[test]
    fn next_generation_rebuilds_entries_and_keeps_counts() {
        let r = rel(50);
        let counts = CacheCounts::default();
        let retired = QueryCache::counting(&counts);
        let a = retired.index_for(&r, &[ColumnId(0)]);
        let by_stratum = retired.layout_for(|| StratumLayout::build(&[0; 50], 1));
        let _ = retired
            .stratum_summary_for(&[ColumnId(0)], "SUM(v)", || Ok(empty_table()))
            .unwrap();
        let next = QueryCache::counting(&counts);
        // Built again for the new generation, not carried over.
        let b = next.index_for(&r, &[ColumnId(0)]);
        assert!(!Arc::ptr_eq(&a, &b));
        let mut ran = false;
        let _ = next
            .stratum_summary_for(&[ColumnId(0)], "SUM(v)", || {
                ran = true;
                Ok(empty_table())
            })
            .unwrap();
        assert!(ran);
        let resorted = next.layout_for(|| StratumLayout::build(&[0; 50], 1));
        assert!(!Arc::ptr_eq(&by_stratum, &resorted));
        // Both generations counted into the same kinds.
        assert_eq!((counts.index.hits(), counts.index.misses()), (0, 2));
        assert_eq!(counts.stratum_summary.misses(), 2);
        assert_eq!(counts.layout.misses(), 2);
        assert!(format!("{next:?}").contains("indexes"));
    }

    #[test]
    fn counts_break_down_by_kind() {
        let r = rel(100);
        let counts = CacheCounts::default();
        let cache = QueryCache::counting(&counts);
        cache.index_for(&r, &[ColumnId(0)]);
        cache.index_for(&r, &[ColumnId(0)]);
        let by_stratum = cache.layout_for(|| StratumLayout::build(&[0; 100], 1));
        let ix = GroupIndex::build(&r, &[ColumnId(0)]);
        cache.cell_layout_for(&[ColumnId(0)], || CellLayout::build(&ix, &by_stratum));
        let seen: Vec<_> = counts
            .kinds()
            .iter()
            .map(|(name, c)| (*name, c.hits(), c.misses()))
            .collect();
        assert_eq!(
            seen,
            [("index", 1, 1), ("stratum_summary", 0, 1), ("layout", 0, 1)]
        );
    }

    #[test]
    fn exec_trace_records_last_path() {
        let t = ExecTrace::new();
        assert_eq!(t.served(), None);
        assert_eq!(t.rows_scanned(), 0);
        t.record(ServedFrom::ColdScan, 123);
        assert_eq!(t.served(), Some(ServedFrom::ColdScan));
        assert_eq!(t.rows_scanned(), 123);
        t.record(ServedFrom::Summary, 0);
        assert_eq!(t.served(), Some(ServedFrom::Summary));
        assert_eq!(t.rows_scanned(), 0);
        for s in ServedFrom::all() {
            t.record(s, 1);
            assert_eq!(t.served(), Some(s));
        }
    }

    #[test]
    fn parallel_index_build_is_identical() {
        let r = rel(10_000);
        let seq = QueryCache::new().index_for(&r, &[ColumnId(0)]);
        let par = GroupIndex::par_build(&r, &[ColumnId(0)]);
        assert_eq!(seq.group_ids(), par.group_ids());
        assert_eq!(seq.keys(), par.keys());
    }

    #[test]
    fn concurrent_reads_share_one_build() {
        let r = rel(5_000);
        let cache = QueryCache::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| cache.index_for(&r, &[ColumnId(0)])))
                .collect();
            let first = cache.index_for(&r, &[ColumnId(0)]);
            for h in handles {
                let ix = h.join().unwrap();
                // All callers converge on the single inserted Arc.
                assert!(Arc::ptr_eq(&ix, &first));
            }
        });
    }
}
