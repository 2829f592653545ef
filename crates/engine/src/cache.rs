//! Per-synopsis memoization for the query-serving fast path.
//!
//! The paper's premise (§5) is that the synopsis is small and precomputed
//! so queries are cheap — but a naive executor still rebuilds a
//! [`GroupIndex`] over the sample and re-derives per-row ScaleFactors on
//! *every* query. The sample only changes on insert/refresh/rebuild, so
//! both are pure functions of synopsis state and can be memoized:
//!
//! * **Group indexes**, keyed by the query's grouping columns `T`. The
//!   cached index is always *unfiltered* (predicates are applied during
//!   accumulation from the selection bitmap), so one index serves every
//!   predicate over the same grouping.
//! * **Measure summaries** ([`MeasureSummary`]): per-(grouping, measure)
//!   aggregate [`Partial`]s folded once in the exact chunked scan order, so
//!   unfiltered and group-only-predicate queries restore accumulators in
//!   O(groups) instead of re-scanning rows — bit-identical to the scan path
//!   because the partials *are* the scan path's output.
//! * **Stratum summaries**: per grouping, the [`CellLayout`] naming which
//!   (group, stratum) cells exist and which cell each sample row falls in;
//!   per (grouping, measure), a [`StratumSummary`] of dense `count` / `Σx` /
//!   `Σx²` / range cells over that layout, feeding the variance-based error
//!   bounds without a row scan.
//! * **The stratum layout**: a stable permutation of sample rows sorted by
//!   stratum id, with one contiguous run per stratum. Expanding per-stratum
//!   ScaleFactors to per-row weights becomes a sequential scan over runs
//!   instead of a hash probe per row.
//! * **Per-row weights** derived from that layout (for the Normalized
//!   family, whose layouts do not store a per-tuple SF column).
//!
//! Concurrency: the maps are sharded by key hash and guarded by
//! `parking_lot::RwLock`s, so the steady state (every entry warm) is
//! read-locks only — many clients answer concurrently without contending on
//! a single mutex. Heavy computation happens outside any lock; on a cold
//! race both racers compute the identical value and the first insert wins.
//!
//! The owner ([`Synopsis`](../../aqua) in the aqua crate) must call
//! [`QueryCache::invalidate`] whenever the backing sample changes;
//! everything here is interior-mutable and `Sync` because answering holds
//! only a read lock on the synopsis.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use relation::{Bitmap, ColumnId, Relation};

use crate::aggregate::Partial;
use crate::grouping::{GroupIndex, PAR_MIN_ROWS};

/// Number of lock shards per table. Sixteen keeps the per-shard collision
/// probability low for realistic working sets (a handful of groupings ×
/// measures) while the array stays small enough to scan on invalidation.
const SHARDS: usize = 16;

fn shard_of<K: Hash + ?Sized>(key: &K) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % SHARDS
}

/// Execution options threaded through
/// [`SamplePlan::execute_opts`](crate::rewrite::SamplePlan::execute_opts):
/// which cache to consult (if any) and whether chunked parallel
/// aggregation may be used. Results are bit-identical for every
/// combination of these flags.
#[derive(Clone, Copy)]
pub struct ExecOptions<'a> {
    /// Memoized indexes/layouts for the relation being queried. `None`
    /// recomputes everything per query (the cold path).
    pub cache: Option<&'a QueryCache>,
    /// Allow chunked parallel aggregation of sample scans on the current
    /// rayon pool (above [`PAR_MIN_ROWS`] rows and >1 thread). Exact scans
    /// fold their surviving chunks serially and ignore it.
    pub parallel: bool,
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
    /// Use the decode-free scan kernels (see [`relation::kernels`]) for
    /// predicate evaluation and scalar aggregate folds. Defaults to the
    /// `CONGRESS_SCAN_KERNELS` env gate. Kernels are bit-identical to the
    /// decode path by construction, so this flag only changes how the scan
    /// computes — never what it computes.
    pub kernels: bool,
    /// Internal plumbing, not a knob: a slot the scan path moves its
    /// [`Selection`] into once the estimates are folded, so the answer
    /// pipeline's bounds pass folds the same rows without filtering and
    /// materialising them again. Stays empty when no row scan ran (the
    /// summary-served path). Never affects the computed result.
    pub capture: Option<&'a OnceLock<Selection>>,
}

impl Default for ExecOptions<'_> {
    fn default() -> Self {
        ExecOptions {
            cache: None,
            parallel: false,
            trace: None,
            cancel: None,
            kernels: relation::scan_kernels_enabled(),
            capture: None,
        }
    }
}

/// What a sample scan selected: the predicate's bitmap over the sample
/// rows and each aggregate's input expression evaluated over the selected
/// rows (`None` for COUNT; unselected slots hold `0.0`). Estimates and
/// error bounds both fold over exactly this.
#[derive(Debug)]
pub struct Selection {
    /// Rows satisfying the query's predicate.
    pub mask: Bitmap,
    /// Masked measure values, aligned with the query's aggregates.
    pub exprs: Vec<Option<Vec<f64>>>,
}

/// Which execution path produced a query's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedFrom {
    /// O(groups) answer from cached measure summaries — no row scan.
    Summary,
    /// Row scan over the sample with memoized group index / layout /
    /// weights (a cache was available).
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

/// Hit/miss counters for a [`QueryCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compute and insert.
    pub misses: u64,
}

/// Hit/miss pair for one cache kind or shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KindStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compute and insert.
    pub misses: u64,
}

impl KindStats {
    /// Hits over total lookups; 0.0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Full counter breakdown for a [`QueryCache`]: per memoized-structure
/// kind, per lock shard (for the sharded maps), plus the invalidation
/// count. `total()` recovers the legacy aggregate [`CacheStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheStatsDetail {
    /// Unfiltered group-index lookups.
    pub index: KindStats,
    /// Measure-summary (per-group partials) lookups.
    pub summary: KindStats,
    /// Stratum-summary (bounds moments) and cell-layout lookups.
    pub stratum_summary: KindStats,
    /// Stratum-layout lookups (single-slot, unsharded).
    pub layout: KindStats,
    /// Expanded per-row weight lookups (single-slot, unsharded).
    pub weights: KindStats,
    /// Per-lock-shard totals across the sharded maps.
    pub shards: Vec<KindStats>,
    /// Times [`QueryCache::invalidate`] dropped every entry.
    pub invalidations: u64,
}

impl CacheStatsDetail {
    /// `(name, stats)` for every kind, in a stable order.
    pub fn kinds(&self) -> [(&'static str, KindStats); 5] {
        [
            ("index", self.index),
            ("summary", self.summary),
            ("stratum_summary", self.stratum_summary),
            ("layout", self.layout),
            ("weights", self.weights),
        ]
    }

    /// Aggregate hit/miss totals over every kind.
    pub fn total(&self) -> CacheStats {
        let mut hits = 0;
        let mut misses = 0;
        for (_, k) in self.kinds() {
            hits += k.hits;
            misses += k.misses;
        }
        CacheStats { hits, misses }
    }
}

/// Cached per-group aggregate state for one (grouping, measure, weighting)
/// triple: exactly the [`Partial`]s the chunked scan produces, one per
/// group id of the cached unfiltered [`GroupIndex`]. Restoring an
/// [`Accumulator`](crate::aggregate::Accumulator) from these is
/// bit-identical to re-running the scan because they *are* the scan's
/// output, folded once in the canonical chunk order.
#[derive(Debug, Clone)]
pub struct MeasureSummary {
    partials: Vec<Partial>,
}

impl MeasureSummary {
    /// Wrap per-group partials (indexed by group id).
    pub fn new(partials: Vec<Partial>) -> MeasureSummary {
        MeasureSummary { partials }
    }

    /// Per-group partials, indexed by group id.
    pub fn partials(&self) -> &[Partial] {
        &self.partials
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
    /// Lay out the cells of `index` over `stratum_count` strata without
    /// hashing. Rows are visited stratum by stratum (a counting sort) and
    /// the first row of a group within a stratum opens a cell: one such
    /// pass counts each group's cells, a second hands out cell ids from
    /// per-group cursors — ascending strata within a group because the
    /// strata are visited in ascending order.
    pub fn build(index: &GroupIndex, stratum_of_row: &[u32], stratum_count: usize) -> CellLayout {
        let groups = index.group_count();
        let by_stratum = StratumLayout::build(stratum_of_row, stratum_count);
        let mut gid_offsets = vec![0u32; groups + 1];
        visit_by_stratum(&by_stratum, index, |_, g, _, opens_cell| {
            gid_offsets[g + 1] += u32::from(opens_cell)
        });
        for g in 0..groups {
            gid_offsets[g + 1] += gid_offsets[g];
        }

        let cells = gid_offsets[groups] as usize;
        let mut next_cell = gid_offsets[..groups].to_vec();
        let mut stratum_of_cell = vec![0u32; cells];
        let mut rows_of_cell = vec![0u64; cells];
        let mut cell_of_row = vec![u32::MAX; stratum_of_row.len()];
        visit_by_stratum(&by_stratum, index, |r, g, s, opens_cell| {
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
/// own table when folded over the rows it selected.
#[derive(Debug, Clone)]
pub struct StratumSummary {
    cells: Vec<StratumCell>,
}

impl StratumSummary {
    /// Fold `values[row]` of each row in `rows` into the row's cell.
    /// `values` is the evaluated measure expression (`None` means COUNT,
    /// which folds `1.0` per row — the bounds-path convention). `rows`
    /// must ascend: each cell then folds its rows in row order, whichever
    /// subset is given.
    pub fn fold(
        layout: &CellLayout,
        values: Option<&[f64]>,
        rows: impl Iterator<Item = usize>,
    ) -> StratumSummary {
        let mut cells = vec![StratumCell::new(); layout.cell_count()];
        for row in rows {
            let c = layout.cell_of_row[row];
            if c != u32::MAX {
                cells[c as usize].push(values.map_or(1.0, |vals| vals[row]));
            }
        }
        StratumSummary { cells }
    }

    /// Moment cells, indexed by the layout's cell id.
    pub fn cells(&self) -> &[StratumCell] {
        &self.cells
    }
}

type IndexShard = RwLock<HashMap<Vec<ColumnId>, Arc<GroupIndex>>>;
type SummaryKey = (Vec<ColumnId>, String, bool);
type SummaryShard = RwLock<HashMap<SummaryKey, Arc<MeasureSummary>>>;
type StratumKey = (Vec<ColumnId>, String);
type StratumShard = RwLock<HashMap<StratumKey, Arc<StratumSummary>>>;
type CellLayoutShard = RwLock<HashMap<Vec<ColumnId>, Arc<CellLayout>>>;

/// Memoized query-serving state for one immutable sample generation.
///
/// Thread-safe with interior mutability; see the module docs for the
/// sharded read-mostly locking design.
pub struct QueryCache {
    indexes: Vec<IndexShard>,
    summaries: Vec<SummaryShard>,
    stratum_summaries: Vec<StratumShard>,
    /// Per-grouping cell layouts; counted with the stratum-summary kind.
    cell_layouts: Vec<CellLayoutShard>,
    layout: RwLock<Option<Arc<StratumLayout>>>,
    weights: RwLock<Option<Arc<Vec<f64>>>>,
    /// Hit/miss counters per cache kind ([`Kind`] order).
    kind_hits: [AtomicU64; KINDS],
    kind_misses: [AtomicU64; KINDS],
    /// Hit/miss counters per lock shard (sharded maps only).
    shard_hits: Vec<AtomicU64>,
    shard_misses: Vec<AtomicU64>,
    invalidations: AtomicU64,
}

/// Internal index into the per-kind counter arrays; mirrors the field
/// order of [`CacheStatsDetail`].
#[derive(Clone, Copy)]
enum Kind {
    Index = 0,
    Summary = 1,
    StratumSummary = 2,
    Layout = 3,
    Weights = 4,
}

const KINDS: usize = 5;

impl Default for QueryCache {
    fn default() -> Self {
        QueryCache {
            indexes: (0..SHARDS).map(|_| RwLock::default()).collect(),
            summaries: (0..SHARDS).map(|_| RwLock::default()).collect(),
            stratum_summaries: (0..SHARDS).map(|_| RwLock::default()).collect(),
            cell_layouts: (0..SHARDS).map(|_| RwLock::default()).collect(),
            layout: RwLock::new(None),
            weights: RwLock::new(None),
            kind_hits: std::array::from_fn(|_| AtomicU64::new(0)),
            kind_misses: std::array::from_fn(|_| AtomicU64::new(0)),
            shard_hits: (0..SHARDS).map(|_| AtomicU64::new(0)).collect(),
            shard_misses: (0..SHARDS).map(|_| AtomicU64::new(0)).collect(),
            invalidations: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for QueryCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        let groupings: usize = self.indexes.iter().map(|s| s.read().len()).sum();
        let summaries: usize = self.summaries.iter().map(|s| s.read().len()).sum();
        f.debug_struct("QueryCache")
            .field("cached_groupings", &groupings)
            .field("cached_summaries", &summaries)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

impl QueryCache {
    /// Fresh, empty cache.
    pub fn new() -> QueryCache {
        QueryCache::default()
    }

    #[inline]
    fn hit(&self, kind: Kind, shard: Option<usize>) {
        self.kind_hits[kind as usize].fetch_add(1, Ordering::Relaxed);
        if let Some(s) = shard {
            self.shard_hits[s].fetch_add(1, Ordering::Relaxed);
        }
    }

    #[inline]
    fn miss(&self, kind: Kind, shard: Option<usize>) {
        self.kind_misses[kind as usize].fetch_add(1, Ordering::Relaxed);
        if let Some(s) = shard {
            self.shard_misses[s].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The *unfiltered* group index of `rel` under `cols`, memoized.
    /// `parallel` only affects how a missing index is built (the sharded
    /// build produces an identical index at any thread count).
    pub fn index_for(&self, rel: &Relation, cols: &[ColumnId], parallel: bool) -> Arc<GroupIndex> {
        let shard_ix = shard_of(cols);
        let shard = &self.indexes[shard_ix];
        if let Some(ix) = shard.read().get(cols) {
            self.hit(Kind::Index, Some(shard_ix));
            return Arc::clone(ix);
        }
        self.miss(Kind::Index, Some(shard_ix));
        let built = Arc::new(if parallel && rel.row_count() >= PAR_MIN_ROWS {
            GroupIndex::par_build(rel, cols)
        } else {
            GroupIndex::build(rel, cols)
        });
        Arc::clone(shard.write().entry(cols.to_vec()).or_insert(built))
    }

    /// The memoized per-group [`MeasureSummary`] for `(cols, measure,
    /// weighted)`, building it via `build` on a miss. `weighted`
    /// distinguishes SF-weighted partials (the answer path) from
    /// unweighted ones (NestedIntegrated's inner pass).
    pub fn summary_for(
        &self,
        cols: &[ColumnId],
        measure: &str,
        weighted: bool,
        build: impl FnOnce() -> crate::error::Result<Vec<Partial>>,
    ) -> crate::error::Result<Arc<MeasureSummary>> {
        let key: SummaryKey = (cols.to_vec(), measure.to_string(), weighted);
        let shard_ix = shard_of(&key);
        let shard = &self.summaries[shard_ix];
        if let Some(s) = shard.read().get(&key) {
            self.hit(Kind::Summary, Some(shard_ix));
            return Ok(Arc::clone(s));
        }
        self.miss(Kind::Summary, Some(shard_ix));
        let built = Arc::new(MeasureSummary::new(build()?));
        Ok(Arc::clone(shard.write().entry(key).or_insert(built)))
    }

    /// The memoized [`CellLayout`] for grouping `cols`, building it via
    /// `build` on a miss. Counted under the stratum-summary kind: the
    /// layout is the shared skeleton of that grouping's summaries.
    pub fn cell_layout_for(
        &self,
        cols: &[ColumnId],
        build: impl FnOnce() -> CellLayout,
    ) -> Arc<CellLayout> {
        let shard_ix = shard_of(cols);
        let shard = &self.cell_layouts[shard_ix];
        if let Some(l) = shard.read().get(cols) {
            self.hit(Kind::StratumSummary, Some(shard_ix));
            return Arc::clone(l);
        }
        self.miss(Kind::StratumSummary, Some(shard_ix));
        let built = Arc::new(build());
        Arc::clone(shard.write().entry(cols.to_vec()).or_insert(built))
    }

    /// The memoized [`StratumSummary`] for `(cols, measure)`, building it
    /// via `build` on a miss.
    pub fn stratum_summary_for(
        &self,
        cols: &[ColumnId],
        measure: &str,
        build: impl FnOnce() -> crate::error::Result<StratumSummary>,
    ) -> crate::error::Result<Arc<StratumSummary>> {
        let key: StratumKey = (cols.to_vec(), measure.to_string());
        let shard_ix = shard_of(&key);
        let shard = &self.stratum_summaries[shard_ix];
        if let Some(s) = shard.read().get(&key) {
            self.hit(Kind::StratumSummary, Some(shard_ix));
            return Ok(Arc::clone(s));
        }
        self.miss(Kind::StratumSummary, Some(shard_ix));
        let built = Arc::new(build()?);
        Ok(Arc::clone(shard.write().entry(key).or_insert(built)))
    }

    /// The memoized stratum layout, building it via `build` on a miss.
    pub fn layout_for(&self, build: impl FnOnce() -> StratumLayout) -> Arc<StratumLayout> {
        if let Some(l) = &*self.layout.read() {
            self.hit(Kind::Layout, None);
            return Arc::clone(l);
        }
        self.miss(Kind::Layout, None);
        let l = Arc::new(build());
        let mut guard = self.layout.write();
        Arc::clone(guard.get_or_insert(l))
    }

    /// Memoized per-row weights, building them via `build` on a miss.
    pub fn weights_for(
        &self,
        build: impl FnOnce() -> crate::error::Result<Vec<f64>>,
    ) -> crate::error::Result<Arc<Vec<f64>>> {
        if let Some(w) = &*self.weights.read() {
            self.hit(Kind::Weights, None);
            return Ok(Arc::clone(w));
        }
        self.miss(Kind::Weights, None);
        let w = Arc::new(build()?);
        let mut guard = self.weights.write();
        Ok(Arc::clone(guard.get_or_insert(w)))
    }

    /// Drop every memoized value. Must be called whenever the backing
    /// sample changes (insert/refresh/rebuild/import); counters survive so
    /// long-running systems keep meaningful hit rates.
    pub fn invalidate(&self) {
        for shard in &self.indexes {
            shard.write().clear();
        }
        for shard in &self.summaries {
            shard.write().clear();
        }
        for shard in &self.stratum_summaries {
            shard.write().clear();
        }
        for shard in &self.cell_layouts {
            shard.write().clear();
        }
        *self.layout.write() = None;
        *self.weights.write() = None;
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Lifetime hit/miss counters, aggregated over every cache kind.
    pub fn stats(&self) -> CacheStats {
        self.stats_detailed().total()
    }

    /// Full counter breakdown: per kind, per lock shard, plus the
    /// invalidation count.
    pub fn stats_detailed(&self) -> CacheStatsDetail {
        let kind = |k: Kind| KindStats {
            hits: self.kind_hits[k as usize].load(Ordering::Relaxed),
            misses: self.kind_misses[k as usize].load(Ordering::Relaxed),
        };
        CacheStatsDetail {
            index: kind(Kind::Index),
            summary: kind(Kind::Summary),
            stratum_summary: kind(Kind::StratumSummary),
            layout: kind(Kind::Layout),
            weights: kind(Kind::Weights),
            shards: (0..SHARDS)
                .map(|s| KindStats {
                    hits: self.shard_hits[s].load(Ordering::Relaxed),
                    misses: self.shard_misses[s].load(Ordering::Relaxed),
                })
                .collect(),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
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

    /// Expand per-stratum ScaleFactors into per-row weights by scanning
    /// each contiguous run once — no per-row hash or stratum-id lookup.
    /// The produced weights are exactly `scale_factors[stratum_of_row[r]]`
    /// for every row `r`, so downstream estimates are unchanged.
    pub fn expand(&self, scale_factors: &[f64]) -> Vec<f64> {
        debug_assert_eq!(scale_factors.len(), self.stratum_count());
        let mut out = vec![0.0; self.perm.len()];
        for (s, &sf) in scale_factors.iter().enumerate() {
            for &row in self.rows_of(s) {
                out[row as usize] = sf;
            }
        }
        out
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
    fn layout_expand_equals_per_row_lookup() {
        let strata: Vec<u32> = (0..1000).map(|i| (i * 13) % 5).collect();
        let sfs = [8.0, 2.5, 1.0, 4.0, 16.0];
        let layout = StratumLayout::build(&strata, 5);
        let expanded = layout.expand(&sfs);
        let naive: Vec<f64> = strata.iter().map(|&s| sfs[s as usize]).collect();
        assert_eq!(expanded, naive);
    }

    #[test]
    fn layout_handles_empty_strata() {
        let strata = vec![0u32, 2, 2];
        let layout = StratumLayout::build(&strata, 4);
        assert_eq!(layout.rows_of(1), &[] as &[u32]);
        assert_eq!(layout.rows_of(3), &[] as &[u32]);
        assert_eq!(layout.expand(&[1.0, 9.0, 3.0, 9.0]), vec![1.0, 3.0, 3.0]);
    }

    #[test]
    fn index_cache_hits_on_same_grouping() {
        let r = rel(100);
        let cache = QueryCache::new();
        let a = cache.index_for(&r, &[ColumnId(0)], false);
        let b = cache.index_for(&r, &[ColumnId(0)], false);
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // A different grouping is a separate entry.
        let c = cache.index_for(&r, &[ColumnId(0), ColumnId(1)], false);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn summary_cache_keys_on_measure_and_weighting() {
        let cache = QueryCache::new();
        let cols = [ColumnId(0)];
        let p = vec![Partial::new()];
        let a = cache
            .summary_for(&cols, "SUM(v)", true, || Ok(p.clone()))
            .unwrap();
        let b = cache
            .summary_for(&cols, "SUM(v)", true, || panic!("must hit"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // Same measure, different weighting → distinct entry.
        let c = cache
            .summary_for(&cols, "SUM(v)", false, || Ok(p.clone()))
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        // Different measure → distinct entry.
        let d = cache
            .summary_for(&cols, "COUNT(*)", true, || Ok(p.clone()))
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &d));
        // Build errors propagate without caching anything.
        assert!(cache
            .summary_for(&cols, "BAD", true, || Err(
                crate::error::EngineError::NoAggregates
            ))
            .is_err());
        assert!(cache
            .summary_for(&cols, "BAD", true, || Ok(p.clone()))
            .is_ok());
    }

    #[test]
    fn stratum_summary_build_matches_naive_moments() {
        let r = rel(40); // g = i % 7, v = i
        let ix = GroupIndex::build(&r, &[ColumnId(0)]);
        // Stratum 3 is empty and every group spans both others: cells > strata.
        let strata: Vec<u32> = (0..40).map(|i| (i / 20) as u32 * 2).collect();
        let values: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let layout = CellLayout::build(&ix, &strata, 4);
        assert_eq!(layout.cell_count(), 14);
        let summary = StratumSummary::fold(&layout, Some(&values), 0..40);
        let evens = StratumSummary::fold(&layout, Some(&values), (0..40).step_by(2));
        for gid in 0..ix.group_count() as u32 {
            let cells = layout.cells_of(gid);
            // Strata sorted ascending, and each cell matches a naive fold.
            let ids: Vec<u32> = cells.clone().map(|c| layout.stratum_of(c)).collect();
            assert_eq!(ids, [0, 2]);
            for c in cells {
                let rows: Vec<usize> = (0..40)
                    .filter(|&r2| ix.group_of(r2) == gid && strata[r2] == layout.stratum_of(c))
                    .collect();
                assert_eq!(layout.rows_of(c), rows.len() as u64);
                let mut want = StratumCell::new();
                let mut want_even = StratumCell::new();
                for &r2 in &rows {
                    want.push(values[r2]);
                    if r2 % 2 == 0 {
                        want_even.push(values[r2]);
                    }
                }
                assert_eq!(summary.cells()[c], want);
                assert_eq!(evens.cells()[c], want_even);
            }
        }
        // COUNT convention: values = None folds 1.0 per row.
        let counts = StratumSummary::fold(&layout, None, 0..40);
        assert_eq!(counts.cells().iter().map(|c| c.sum).sum::<f64>(), 40.0);
    }

    #[test]
    fn invalidate_drops_entries_but_keeps_counters() {
        let r = rel(50);
        let cache = QueryCache::new();
        cache.index_for(&r, &[ColumnId(0)], false);
        let _ = cache.layout_for(|| StratumLayout::build(&[0, 0, 1], 2));
        let _ = cache.weights_for(|| Ok(vec![1.0; 3])).unwrap();
        let _ = cache
            .summary_for(&[ColumnId(0)], "SUM(v)", true, || Ok(vec![Partial::new()]))
            .unwrap();
        let ix = GroupIndex::build(&r, &[ColumnId(0)]);
        let layout = cache.cell_layout_for(&[ColumnId(0)], || CellLayout::build(&ix, &[0; 50], 1));
        let _ = cache
            .stratum_summary_for(&[ColumnId(0)], "SUM(v)", || {
                Ok(StratumSummary::fold(&layout, None, 0..50))
            })
            .unwrap();
        cache.invalidate();
        let before = cache.stats();
        let a = cache.index_for(&r, &[ColumnId(0)], false);
        assert_eq!(cache.stats().misses, before.misses + 1);
        // Re-built after invalidation, not resurrected.
        let b = cache.index_for(&r, &[ColumnId(0)], false);
        assert!(Arc::ptr_eq(&a, &b));
        // Summaries were dropped too: the rebuild closure must run.
        let mut ran = false;
        let _ = cache
            .summary_for(&[ColumnId(0)], "SUM(v)", true, || {
                ran = true;
                Ok(vec![Partial::new()])
            })
            .unwrap();
        assert!(ran);
        let mut ran2 = false;
        let _ = cache
            .stratum_summary_for(&[ColumnId(0)], "SUM(v)", || {
                ran2 = true;
                Ok(StratumSummary::fold(&layout, None, 0..50))
            })
            .unwrap();
        assert!(ran2);
        let rebuilt = cache.cell_layout_for(&[ColumnId(0)], || CellLayout::build(&ix, &[0; 50], 1));
        assert!(!Arc::ptr_eq(&layout, &rebuilt));
        assert!(format!("{cache:?}").contains("cached_groupings"));
    }

    #[test]
    fn detailed_stats_break_down_by_kind_and_shard() {
        let r = rel(100);
        let cache = QueryCache::new();
        cache.index_for(&r, &[ColumnId(0)], false);
        cache.index_for(&r, &[ColumnId(0)], false);
        let _ = cache.layout_for(|| StratumLayout::build(&[0, 0], 1));
        let d = cache.stats_detailed();
        assert_eq!((d.index.hits, d.index.misses), (1, 1));
        assert_eq!((d.layout.hits, d.layout.misses), (0, 1));
        assert_eq!((d.summary.hits, d.summary.misses), (0, 0));
        // The aggregate view is exactly the per-kind sum.
        assert_eq!(d.total(), cache.stats());
        assert_eq!(d.total(), CacheStats { hits: 1, misses: 2 });
        // Shard counters only track the sharded maps (index lookups here),
        // and both index lookups hashed to the same shard.
        let shard_total: u64 = d.shards.iter().map(|s| s.hits + s.misses).sum();
        assert_eq!(shard_total, 2);
        assert!(d.shards.iter().any(|s| (s.hits, s.misses) == (1, 1)));
        assert!((d.index.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(KindStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn invalidations_are_counted() {
        let cache = QueryCache::new();
        assert_eq!(cache.stats_detailed().invalidations, 0);
        cache.invalidate();
        cache.invalidate();
        assert_eq!(cache.stats_detailed().invalidations, 2);
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
        let cold = QueryCache::new();
        let seq = cold.index_for(&r, &[ColumnId(0)], false);
        let warm = QueryCache::new();
        let par = warm.index_for(&r, &[ColumnId(0)], true);
        assert_eq!(seq.group_ids(), par.group_ids());
        assert_eq!(seq.keys(), par.keys());
    }

    #[test]
    fn concurrent_reads_share_one_build() {
        let r = rel(5_000);
        let cache = QueryCache::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| cache.index_for(&r, &[ColumnId(0)], false)))
                .collect();
            let first = cache.index_for(&r, &[ColumnId(0)], false);
            for h in handles {
                let ix = h.join().unwrap();
                // All callers converge on the single inserted Arc.
                assert!(Arc::ptr_eq(&ix, &first));
            }
        });
    }
}
