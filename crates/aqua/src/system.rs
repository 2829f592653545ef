//! The [`Aqua`] middleware: stored table + synopsis + query answering.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};

use congress::adaptive::{recompute_weights, DriftDetector, GroupMoments, WorkloadProfile};
use congress::GroupCensus;
use engine::rewrite::{cell_layout, measure_key, unfiltered_cells};
use engine::{
    execute_exact_opts, CancelToken, EngineError, ExecOptions, ExecTrace, GroupByQuery,
    QueryResult, ServedFrom,
};
use relation::{ColumnId, Relation, Value};

/// Serializable point-in-time metrics snapshot returned by
/// [`Aqua::stats`] (re-exported from the `obs` crate).
pub use obs::Snapshot as StatsSnapshot;

use crate::answer::{compute_bounds_from_cells, AnswerProvenance, ApproximateAnswer};
use crate::config::AquaConfig;
use crate::error::{AquaError, Result};
use crate::serve_cache::ServedAnswer;
use crate::synopsis::Synopsis;

/// `served` label for answers returned straight from the answer cache —
/// such a query never reaches the executor, so [`ExecTrace`] cannot name
/// its path.
pub const SERVED_ANSWER_CACHE: &str = "answer_cache";

/// Cached metric handles for the per-query hot path.
///
/// The serving profile showed span recording itself as measurable
/// per-query overhead: every answer paid `obs::label` string formatting
/// plus three registry `RwLock` + `BTreeMap` lookups. Handles are now
/// resolved once per (name, label) and memoized in `OnceLock` cells, so
/// recording a span is a few relaxed atomic adds. Registration stays
/// *lazy* — a metric family appears in the registry only once the path it
/// names has actually served a query (the obs contract tests pin this).
struct QueryMetrics {
    registry: Arc<obs::Registry>,
    rewrite: &'static str,
    /// Per-served-path query counters, found by label. The executor paths
    /// come from [`ServedFrom::all`]; "unknown" covers a missing trace and
    /// [`SERVED_ANSWER_CACHE`] the cache-hit path.
    served: [(&'static str, OnceLock<obs::Counter>); 5],
    errors: OnceLock<obs::Counter>,
    latency: OnceLock<obs::Histogram>,
    bounds_latency: OnceLock<obs::Histogram>,
    rows_scanned: OnceLock<obs::Counter>,
    chunks_scanned: OnceLock<obs::Counter>,
    chunks_pruned: OnceLock<obs::Counter>,
    /// `relation_decode_avoided_total{kind=...}`: chunks the decode-free
    /// kernels handled without materializing values, by kernel kind.
    decode_avoided: [(&'static str, OnceLock<obs::Counter>); 3],
    /// `relation_encoded_fold_total{kind=...}`: fully-selected chunks whose
    /// aggregates were folded straight from the encoded representation.
    encoded_fold: [(&'static str, OnceLock<obs::Counter>); 2],
    sql_queries: OnceLock<obs::Counter>,
    sql_parse_errors: OnceLock<obs::Counter>,
    scan_cancelled: OnceLock<obs::Counter>,
}

impl QueryMetrics {
    fn new(registry: Arc<obs::Registry>, rewrite: &'static str) -> QueryMetrics {
        let [a, b, c] = ServedFrom::all().map(|s| s.label());
        QueryMetrics {
            registry,
            rewrite,
            served: [
                (a, OnceLock::new()),
                (b, OnceLock::new()),
                (c, OnceLock::new()),
                ("unknown", OnceLock::new()),
                (SERVED_ANSWER_CACHE, OnceLock::new()),
            ],
            errors: OnceLock::new(),
            latency: OnceLock::new(),
            bounds_latency: OnceLock::new(),
            rows_scanned: OnceLock::new(),
            chunks_scanned: OnceLock::new(),
            chunks_pruned: OnceLock::new(),
            decode_avoided: [
                ("code-domain-predicate", OnceLock::new()),
                ("encoded-sum", OnceLock::new()),
                ("zonemap-minmax", OnceLock::new()),
            ],
            encoded_fold: [
                ("encoded-sum", OnceLock::new()),
                ("zonemap-minmax", OnceLock::new()),
            ],
            sql_queries: OnceLock::new(),
            sql_parse_errors: OnceLock::new(),
            scan_cancelled: OnceLock::new(),
        }
    }

    /// Record one successful query span: per-(rewrite, served) count,
    /// end-to-end latency, rows touched.
    fn record_query(
        &self,
        served: &str,
        elapsed_us: u64,
        rows_scanned: u64,
        chunks: (u64, u64),
        kernels: (u64, u64, u64),
    ) {
        let (label, cell) = self
            .served
            .iter()
            .find(|(l, _)| *l == served)
            .unwrap_or(&self.served[3]); // closed label set; fall back to "unknown"
        cell.get_or_init(|| {
            self.registry.counter(&obs::label(
                "aqua_queries_total",
                &[("rewrite", self.rewrite), ("served", label)],
            ))
        })
        .inc();
        self.latency
            .get_or_init(|| {
                self.registry.histogram(&obs::label(
                    "aqua_query_latency_us",
                    &[("rewrite", self.rewrite)],
                ))
            })
            .record(elapsed_us);
        self.rows_scanned
            .get_or_init(|| self.registry.counter("aqua_rows_scanned_total"))
            .add(rows_scanned);
        // Zone-map pruning counters, registered lazily like the served-path
        // families: summary-served queries touch no chunk, so the families
        // appear only once a scan path has actually run a pruning pass.
        let (scanned, pruned) = chunks;
        if scanned + pruned > 0 {
            self.chunks_scanned
                .get_or_init(|| self.registry.counter("relation_chunks_scanned_total"))
                .add(scanned);
            self.chunks_pruned
                .get_or_init(|| self.registry.counter("relation_chunks_pruned_total"))
                .add(pruned);
        }
        // Decode-free kernel counters, same lazy-on-first-hit registration:
        // the families only appear once a kernel has actually fired.
        let (pred, fold_sum, fold_minmax) = kernels;
        for ((kind, cell), hits) in self
            .decode_avoided
            .iter()
            .zip([pred, fold_sum, fold_minmax])
        {
            if hits > 0 {
                cell.get_or_init(|| {
                    self.registry.counter(&obs::label(
                        "relation_decode_avoided_total",
                        &[("kind", kind)],
                    ))
                })
                .add(hits);
            }
        }
        for ((kind, cell), hits) in self.encoded_fold.iter().zip([fold_sum, fold_minmax]) {
            if hits > 0 {
                cell.get_or_init(|| {
                    self.registry.counter(&obs::label(
                        "relation_encoded_fold_total",
                        &[("kind", kind)],
                    ))
                })
                .add(hits);
            }
        }
    }

    fn record_error(&self) {
        self.errors
            .get_or_init(|| self.registry.counter("aqua_query_errors_total"))
            .inc();
    }

    /// Record an error span; a cooperative cancellation additionally
    /// increments `aqua_scan_cancelled_total` so deadline enforcement is
    /// observable separately from genuine failures.
    fn record_result_error(&self, e: &AquaError) {
        self.record_error();
        if matches!(e, AquaError::Engine(EngineError::Cancelled)) {
            self.scan_cancelled
                .get_or_init(|| self.registry.counter("aqua_scan_cancelled_total"))
                .inc();
        }
    }

    /// `aqua_bounds_latency_us`: the error-bounds pass of each answer
    /// computed from the synopsis (answer-cache hits never reach it).
    fn bounds_latency(&self) -> &obs::Histogram {
        self.bounds_latency
            .get_or_init(|| self.registry.histogram("aqua_bounds_latency_us"))
    }

    fn sql_queries(&self) -> &obs::Counter {
        self.sql_queries
            .get_or_init(|| self.registry.counter("aqua_sql_queries_total"))
    }

    fn sql_parse_errors(&self) -> &obs::Counter {
        self.sql_parse_errors
            .get_or_init(|| self.registry.counter("aqua_sql_parse_errors_total"))
    }
}

/// Scan `table` exactly and record the scan in `registry`: what
/// [`Aqua::exact`], [`Aqua::exact_sql`] and a warehouse's degraded
/// relations (which have no [`Aqua`] of their own) answer with.
/// `aqua_exact_queries_total` and the `aqua_exact_latency_us` histogram
/// move once per finished scan; its rows and zone-map chunk walk land in
/// the counters the sample scans feed (`aqua_rows_scanned_total`,
/// `relation_chunks_{scanned,pruned}_total`). A scan that `cancel` stops
/// counts in `aqua_scan_cancelled_total` instead. No-ops under `obs-off`.
pub(crate) fn exact_scan(
    registry: &obs::Registry,
    table: &Relation,
    query: &GroupByQuery,
    cancel: Option<&CancelToken>,
) -> Result<QueryResult> {
    let timer = obs::Timer::start();
    let trace = ExecTrace::new();
    let opts = ExecOptions {
        trace: obs::ENABLED.then_some(&trace),
        cancel,
        ..ExecOptions::default()
    };
    let result = execute_exact_opts(table, query, &opts);
    if obs::ENABLED {
        match &result {
            Ok(_) => {
                let add = |name: &str, by: u64| registry.counter(name).add(by);
                add("aqua_exact_queries_total", 1);
                add("aqua_rows_scanned_total", trace.rows_scanned());
                add("relation_chunks_scanned_total", trace.chunks_scanned());
                add("relation_chunks_pruned_total", trace.chunks_pruned());
                let latency = registry.histogram("aqua_exact_latency_us");
                latency.record(timer.elapsed_us());
            }
            Err(EngineError::Cancelled) => registry.counter("aqua_scan_cancelled_total").inc(),
            Err(_) => {}
        }
    }
    Ok(result?)
}

/// Runtime knobs for the closed-loop tuner ([`Aqua::tune`]).
///
/// Deliberately *not* part of [`AquaConfig`]: the manifest describes the
/// synopsis contract (space, strategy, rewrite, …) while these only shape
/// when the system re-examines its own allocation. They can be changed on
/// a live system via [`Aqua::set_tune_options`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneOptions {
    /// Total-variation divergence between desired and applied allocations
    /// above which [`Aqua::tune`] reallocates.
    pub drift_threshold: f64,
    /// Minimum profiled queries before the drift detector may trigger.
    pub min_queries: u64,
    /// When `true`, every `check_interval`-th answered query runs a tune
    /// pass automatically after its locks are released.
    pub auto: bool,
    /// Auto-tune cadence, in answered queries.
    pub check_interval: u64,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            drift_threshold: 0.15,
            min_queries: 32,
            auto: false,
            check_interval: 64,
        }
    }
}

/// Outcome of one [`Aqua::tune`] pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneReport {
    /// Total-variation distance between the workload-desired and the
    /// currently applied per-group allocation, in `[0, 1]`.
    pub divergence: f64,
    /// Queries the workload profile had accumulated when assessed.
    pub queries_observed: u64,
    /// Whether this pass rebuilt the synopsis under recomputed weights.
    pub reallocated: bool,
    /// The drift threshold the decision was made against.
    pub threshold: f64,
}

/// The approximate query answering system of §2, over a single stored
/// relation (the paper reduces multi-table warehouses to this case via
/// join synopses).
///
/// Thread-safe: queries take a read lock; insertions and refreshes take a
/// write lock. The synopsis refreshes lazily — after a batch of warehouse
/// insertions, the next query pays one plan rebuild.
pub struct Aqua {
    inner: RwLock<Inner>,
    /// Cached metric handles — outside the lock, so span recording never
    /// takes it.
    metrics: QueryMetrics,
    /// Observed-workload accumulator feeding [`Aqua::tune`]. Its own lock,
    /// outside `inner`, so the per-query record is a short uncontended
    /// mutex rather than a write-lock acquisition.
    profile: Mutex<WorkloadProfile>,
    tune_opts: Mutex<TuneOptions>,
    /// Answered queries since the last auto-tune check.
    queries_since_tune: AtomicU64,
}

struct Inner {
    /// The stored warehouse table, grown by [`Aqua::insert_batch`].
    table: Relation,
    grouping: Vec<ColumnId>,
    synopsis: Synopsis,
}

impl Aqua {
    /// Build the system over `table`, declaring `grouping` as the
    /// dimensional attributes `G`. The initial synopsis is constructed by
    /// the bulk parallel pipeline (parallel census + seeded per-stratum
    /// draws, on `config.parallelism` threads — identical output at any
    /// thread count); the table is also streamed through the incremental
    /// maintainer so later [`Self::insert_batch`] calls keep the synopsis
    /// maintainable in one pass.
    pub fn build(table: Relation, grouping: Vec<ColumnId>, config: AquaConfig) -> Result<Aqua> {
        config.validate()?;
        for &c in &grouping {
            table.schema().field(c)?;
        }
        if table.is_empty() {
            return Err(AquaError::InvalidConfig(
                "cannot build a synopsis over an empty relation".into(),
            ));
        }
        let rewrite = config.rewrite.name();
        let mut synopsis = Synopsis::new(config, grouping.clone())?;
        synopsis.ingest(&table, 0)?;
        synopsis.rebuild_bulk(&table)?;
        let metrics = QueryMetrics::new(Arc::clone(synopsis.registry()), rewrite);
        Ok(Aqua {
            inner: RwLock::new(Inner {
                table,
                grouping,
                synopsis,
            }),
            metrics,
            profile: Mutex::new(WorkloadProfile::new()),
            tune_opts: Mutex::new(TuneOptions::default()),
            queries_since_tune: AtomicU64::new(0),
        })
    }

    /// The declared grouping columns.
    pub fn grouping_columns(&self) -> Vec<ColumnId> {
        self.inner.read().grouping.clone()
    }

    /// The active configuration (needed to persist and rebuild the system).
    pub fn config(&self) -> AquaConfig {
        *self.inner.read().synopsis.config()
    }

    /// A snapshot of the stored table (cheap: columns are copied, but
    /// string dictionaries are shared `Arc`s under the hood).
    pub fn table_snapshot(&self) -> Relation {
        self.inner.read().table.clone()
    }

    /// Rows currently stored in the warehouse table.
    pub fn table_rows(&self) -> usize {
        self.inner.read().table.row_count()
    }

    /// Sampled tuples in the active synopsis.
    pub fn synopsis_rows(&self) -> usize {
        self.inner.read().synopsis.sample_rows()
    }

    /// Answer a query approximately from the synopsis, with per-group
    /// error bounds — the full Figure 2 → Figure 4 pipeline.
    ///
    /// Serving runs through the plan's cached path
    /// ([`engine::rewrite::execute_cells`]): the synopsis's
    /// [`engine::QueryCache`] memoizes group indexes, cell layouts and the
    /// unfiltered moment cells across queries (invalidated on
    /// insert/refresh/rebuild), the selected sample rows are folded once
    /// into per-(group, stratum) moments, and the estimates and the error
    /// bounds are both read off those cells. Answers are bit-identical at
    /// any `config.parallelism`; the estimates sit within a few ulp of the
    /// cold plan's (`plan.execute`), which scales each row instead of each
    /// stratum.
    pub fn answer(&self, query: &GroupByQuery) -> Result<ApproximateAnswer> {
        self.answer_cancellable(query, None)
    }

    /// [`Self::answer`] with a cooperative [`CancelToken`] polled by the
    /// engine's chunked aggregation loops. A fired token aborts the scan
    /// within one chunk, returns
    /// `AquaError::Engine(EngineError::Cancelled)`, and increments
    /// `aqua_scan_cancelled_total`.
    pub fn answer_cancellable(
        &self,
        query: &GroupByQuery,
        cancel: Option<&CancelToken>,
    ) -> Result<ApproximateAnswer> {
        let timer = obs::Timer::start();
        // Always traced, also under `obs-off`: the trace is plain engine
        // counters, and the tuner's selectivity observations read it.
        let trace = ExecTrace::new();
        let result = (|| {
            let inner = self.read_fresh()?;
            self.answer_locked(&inner, query, &trace, cancel)
        })();
        if obs::ENABLED {
            match &result {
                Ok(_) => {
                    let served = trace.served().map_or("unknown", |s| s.label());
                    self.metrics.record_query(
                        served,
                        timer.elapsed_us(),
                        trace.rows_scanned(),
                        (trace.chunks_scanned(), trace.chunks_pruned()),
                        (
                            trace.kernel_pred_chunks(),
                            trace.kernel_fold_sum(),
                            trace.kernel_fold_minmax(),
                        ),
                    );
                }
                Err(e) => self.metrics.record_result_error(e),
            }
        }
        if result.is_ok() {
            // The read guard dropped with the closure above, so profile
            // recording and a potential auto-tune (write lock) are safe.
            self.record_profile(query, Some(&trace));
            self.maybe_auto_tune();
        }
        result
    }

    /// Take the read lock with a *fresh* synopsis: probe staleness under
    /// the read lock, refreshing (write lock) and retrying as needed. The
    /// returned guard pins the generation — while held, no writer can
    /// ingest, refresh, or invalidate, so anything computed from it may be
    /// published to the generation-scoped caches before release.
    fn read_fresh(&self) -> Result<parking_lot::RwLockReadGuard<'_, Inner>> {
        loop {
            let inner = self.inner.read();
            if !inner.synopsis.is_stale() {
                return Ok(inner);
            }
            drop(inner);
            self.refresh_if_stale()?;
        }
    }

    /// The answer pipeline against an already-locked, already-fresh inner
    /// state; `trace` receives the served-from path and rows touched
    /// without affecting the result.
    fn answer_locked(
        &self,
        inner: &Inner,
        query: &GroupByQuery,
        trace: &ExecTrace,
        cancel: Option<&CancelToken>,
    ) -> Result<ApproximateAnswer> {
        let plan = inner
            .synopsis
            .plan()
            .expect("read_fresh materialized the plan");
        // The plan leaves the cells it read the estimates off here, for
        // the bounds below.
        let cells = OnceLock::new();
        let opts = ExecOptions {
            cache: Some(inner.synopsis.query_cache()),
            parallel: inner.synopsis.config().effective_parallelism() != 1,
            trace: Some(trace),
            cancel,
            capture: Some(&cells),
            ..ExecOptions::default()
        };
        let result = plan.execute_opts(query, &opts)?;
        // Coarse checkpoint between the scan and the bounds pass: a token
        // that fired during execution already aborted above; one that fires
        // right after still skips the bounds computation.
        if let Some(c) = cancel {
            c.check()?;
        }
        let input = inner
            .synopsis
            .input()
            .expect("read_fresh materialized the input");
        let confidence = inner.synopsis.config().confidence;
        let timer = obs::Timer::start();
        let cells = cells.get().expect("a cached plan captures its cells");
        let bounds = compute_bounds_from_cells(input, query, &result, confidence, cells);
        if obs::ENABLED {
            self.metrics.bounds_latency().record(timer.elapsed_us());
        }
        Ok(ApproximateAnswer {
            result,
            bounds,
            confidence,
            provenance: AnswerProvenance::Sampled,
        })
    }

    /// Point-in-time metrics snapshot: query spans and maintenance
    /// counters from the synopsis registry, plus the query cache's
    /// per-kind / per-shard hit-miss breakdown and current table/sample
    /// size gauges. Under the `obs-off` feature the registry counters are
    /// all zero but the cache counters (pre-existing, always on) remain.
    pub fn stats(&self) -> StatsSnapshot {
        let inner = self.inner.read();
        let mut snap = inner.synopsis.registry().snapshot();
        let detail = inner.synopsis.query_cache().stats_detailed();
        for (name, k) in detail.kinds() {
            snap.set_counter(&format!("aqua_cache_{name}_hits_total"), k.hits);
            snap.set_counter(&format!("aqua_cache_{name}_misses_total"), k.misses);
        }
        for (i, s) in detail.shards.iter().enumerate() {
            let shard = i.to_string();
            snap.set_counter(
                &obs::label("aqua_cache_shard_hits_total", &[("shard", &shard)]),
                s.hits,
            );
            snap.set_counter(
                &obs::label("aqua_cache_shard_misses_total", &[("shard", &shard)]),
                s.misses,
            );
        }
        snap.set_counter("aqua_cache_invalidations_total", detail.invalidations);
        let total = detail.total();
        snap.set_counter("aqua_cache_hits_total", total.hits);
        snap.set_counter("aqua_cache_misses_total", total.misses);
        let plan = inner.synopsis.plan_cache().stats();
        snap.set_counter("aqua_plan_cache_hits_total", plan.hits);
        snap.set_counter("aqua_plan_cache_misses_total", plan.misses);
        snap.set_counter("aqua_plan_cache_invalidations_total", plan.invalidations);
        snap.set_gauge("aqua_plan_cache_entries", plan.entries as i64);
        snap.set_gauge(
            "aqua_plan_cache_hit_rate_permille",
            (plan.hit_rate() * 1000.0).round() as i64,
        );
        let ans = inner.synopsis.answer_cache().stats();
        snap.set_counter("aqua_answer_cache_hits_total", ans.hits);
        snap.set_counter("aqua_answer_cache_misses_total", ans.misses);
        snap.set_counter("aqua_answer_cache_invalidations_total", ans.invalidations);
        snap.set_gauge("aqua_answer_cache_entries", ans.entries as i64);
        snap.set_gauge(
            "aqua_answer_cache_hit_rate_permille",
            (ans.hit_rate() * 1000.0).round() as i64,
        );
        snap.set_gauge("aqua_table_rows", inner.table.row_count() as i64);
        snap.set_gauge("aqua_synopsis_rows", inner.synopsis.sample_rows() as i64);
        drop(inner);
        let profile = self.profile.lock();
        snap.set_gauge("aqua_profile_queries", profile.queries() as i64);
        snap.set_gauge("aqua_profile_groupings", profile.grouping_count() as i64);
        snap
    }

    /// Execute the query exactly against the stored table (what the
    /// warehouse itself would return, used for accuracy comparisons).
    pub fn exact(&self, query: &GroupByQuery) -> Result<QueryResult> {
        let inner = self.inner.read();
        exact_scan(inner.synopsis.registry(), &inner.table, query, None)
    }

    /// Insert new tuples into the warehouse. The synopsis maintainer sees
    /// each tuple once; the stored table grows; the physical plan is
    /// rebuilt lazily on the next query.
    pub fn insert_batch(&self, rows: &[Vec<Value>]) -> Result<()> {
        if rows.is_empty() {
            return Ok(());
        }
        let mut inner = self.inner.write();
        let mut builder = relation::RelationBuilder::from_schema(inner.table.schema());
        for row in rows {
            builder.push_row(row)?;
        }
        let batch = builder.finish();
        let first = inner.table.row_count();
        inner.synopsis.ingest(&batch, first)?;
        inner.table = Relation::concat(&[&inner.table, &batch])?;
        Ok(())
    }

    /// The Figure 2 pipeline in one call: parse SQL against the stored
    /// table's schema, answer it approximately, and return the answer
    /// along with the rewritten-SQL text the configured strategy would
    /// send to a back-end DBMS (Figures 8–11).
    ///
    /// This is the clone-per-call convenience wrapper around
    /// [`Self::answer_sql_shared`]; servers should call the shared form
    /// and keep the `Arc`.
    pub fn answer_sql(&self, sql: &str) -> Result<(ApproximateAnswer, String)> {
        let served = self.answer_sql_shared(sql)?;
        Ok((served.answer.clone(), served.rewritten.clone()))
    }

    /// The serving fast path: answer SQL through the plan cache and the
    /// answer cache, returning a shared [`ServedAnswer`].
    ///
    /// The SQL text is first normalized (case / whitespace / literal
    /// formatting folded — see [`engine::sql::normalize`]) and the
    /// normalized text is both the cache key *and* what gets parsed on a
    /// miss, so equivalent spellings share one plan and one answer.
    /// Repeat queries cost one hash probe + `Arc` bump; plans survive
    /// answer-cache invalidation only until the next ingest (both caches
    /// are generation-scoped, cleared under the write lock).
    pub fn answer_sql_shared(&self, sql: &str) -> Result<Arc<ServedAnswer>> {
        self.answer_sql_shared_cancellable(sql, None)
    }

    /// [`Self::answer_sql_shared`] with a cooperative [`CancelToken`].
    ///
    /// Answer-cache hits return immediately regardless of the token (the
    /// work is already done); on a miss the token rides through
    /// [`ExecOptions`] into the chunked aggregation loops, so a scan whose
    /// deadline fires aborts within one chunk and surfaces
    /// `AquaError::Engine(EngineError::Cancelled)`. Cancelled queries are
    /// never inserted into the answer cache.
    pub fn answer_sql_shared_cancellable(
        &self,
        sql: &str,
        cancel: Option<&CancelToken>,
    ) -> Result<Arc<ServedAnswer>> {
        let timer = obs::Timer::start();
        if obs::ENABLED {
            self.metrics.sql_queries().inc();
        }
        let key = match engine::sql::normalize(sql) {
            Ok(k) => k,
            Err(e) => {
                if obs::ENABLED {
                    self.metrics.sql_parse_errors().inc();
                }
                return Err(e.into());
            }
        };
        // Hold the read lock across lookup, compute, AND insert: the guard
        // pins the synopsis generation, so a cached entry always matches
        // what recomputing now would return, and an insert can never land
        // after the invalidation of the generation it was computed in.
        let inner = self.read_fresh()?;
        if let Some(served) = inner.synopsis.answer_cache().get(&key) {
            if obs::ENABLED {
                self.metrics.record_query(
                    SERVED_ANSWER_CACHE,
                    timer.elapsed_us(),
                    0,
                    (0, 0),
                    (0, 0, 0),
                );
            }
            // Cache hits are workload signal too; the plan cache still has
            // the parsed query (both caches share a generation), so the
            // profile sees the grouping without re-parsing. No trace here —
            // nothing was scanned — so no selectivity observation.
            if let Some(plan) = inner.synopsis.plan_cache().get(&key) {
                self.record_profile(&plan.query, None);
            }
            drop(inner);
            self.maybe_auto_tune();
            return Ok(served);
        }
        let plan_cache = inner.synopsis.plan_cache();
        let plan = match plan_cache.get(&key) {
            Some(p) => p,
            None => {
                let query = match engine::sql::parse(inner.table.schema(), &key) {
                    Ok(q) => q,
                    Err(e) => {
                        if obs::ENABLED {
                            self.metrics.sql_parse_errors().inc();
                        }
                        return Err(e.into());
                    }
                };
                let kind = match inner.synopsis.config().rewrite {
                    crate::RewriteChoice::Integrated => {
                        engine::sql::render::RewriteKind::Integrated
                    }
                    crate::RewriteChoice::NestedIntegrated => {
                        engine::sql::render::RewriteKind::NestedIntegrated
                    }
                    crate::RewriteChoice::Normalized => {
                        engine::sql::render::RewriteKind::Normalized
                    }
                    crate::RewriteChoice::KeyNormalized => {
                        engine::sql::render::RewriteKind::KeyNormalized
                    }
                };
                let rewritten = engine::sql::render_rewritten(
                    &query,
                    inner.table.schema(),
                    kind,
                    "samp_rel",
                    "aux_rel",
                )?;
                plan_cache.insert(key.clone(), engine::CachedPlan { query, rewritten })
            }
        };
        let trace = ExecTrace::new();
        let result = self.answer_locked(&inner, &plan.query, &trace, cancel);
        let answer = match result {
            Ok(a) => a,
            Err(e) => {
                if obs::ENABLED {
                    self.metrics.record_result_error(&e);
                }
                return Err(e);
            }
        };
        if obs::ENABLED {
            let served = trace.served().map_or("unknown", |s| s.label());
            self.metrics.record_query(
                served,
                timer.elapsed_us(),
                trace.rows_scanned(),
                (trace.chunks_scanned(), trace.chunks_pruned()),
                (
                    trace.kernel_pred_chunks(),
                    trace.kernel_fold_sum(),
                    trace.kernel_fold_minmax(),
                ),
            );
        }
        self.record_profile(&plan.query, Some(&trace));
        let served = Arc::new(ServedAnswer {
            answer,
            rewritten: plan.rewritten.clone(),
        });
        let served = inner.synopsis.answer_cache().insert(key, served);
        drop(inner);
        self.maybe_auto_tune();
        Ok(served)
    }

    /// Parse SQL against the stored table's schema and execute it exactly
    /// — the warehouse-side ground truth for [`Self::answer_sql`].
    pub fn exact_sql(&self, sql: &str) -> Result<QueryResult> {
        let inner = self.inner.read();
        let query = engine::sql::parse(inner.table.schema(), sql)?;
        exact_scan(inner.synopsis.registry(), &inner.table, &query, None)
    }

    /// Export the synopsis as a compact binary snapshot (durable storage,
    /// shipping to another node, etc.).
    pub fn export_synopsis(&self) -> Result<bytes::Bytes> {
        let mut inner = self.inner.write();
        let Inner {
            table, synopsis, ..
        } = &mut *inner;
        synopsis.export(table)
    }

    /// Rebuild a system from a stored table plus an exported snapshot.
    /// The restored synopsis answers queries immediately; subsequent
    /// insertions start a fresh maintainer (snapshots carry the sample,
    /// not the sampler state).
    pub fn build_from_snapshot(
        table: Relation,
        config: AquaConfig,
        snapshot: bytes::Bytes,
    ) -> Result<Aqua> {
        let rewrite = config.rewrite.name();
        let synopsis = Synopsis::import(config, &table, snapshot)?;
        let grouping = synopsis.grouping().to_vec();
        let metrics = QueryMetrics::new(Arc::clone(synopsis.registry()), rewrite);
        Ok(Aqua {
            inner: RwLock::new(Inner {
                table,
                grouping,
                synopsis,
            }),
            metrics,
            profile: Mutex::new(WorkloadProfile::new()),
            tune_opts: Mutex::new(TuneOptions::default()),
            queries_since_tune: AtomicU64::new(0),
        })
    }

    /// Force a bulk *parallel* reconstruction of the synopsis from the
    /// stored table, on `config.parallelism` threads. Queries block for
    /// the duration (writer lock) and then see the new synopsis whole —
    /// never a partially rebuilt one. The maintainer keeps its stream
    /// state for future incremental refreshes.
    pub fn rebuild(&self) -> Result<()> {
        let mut inner = self.inner.write();
        let Inner {
            table, synopsis, ..
        } = &mut *inner;
        synopsis.rebuild_bulk(table)
    }

    /// Force a synopsis refresh now (normally lazy).
    pub fn refresh(&self) -> Result<()> {
        let mut inner = self.inner.write();
        let Inner {
            table, synopsis, ..
        } = &mut *inner;
        synopsis.refresh(table)
    }

    /// Fold one answered query into the workload profile: its grouping,
    /// its predicate's observed selectivity (selected/scanned rows from the
    /// trace, when a scan actually ran), and its measure expressions.
    fn record_profile(&self, query: &GroupByQuery, trace: Option<&ExecTrace>) {
        let selectivity = trace.and_then(|t| match t.rows_scanned() {
            0 => None,
            scanned => Some((t.rows_selected() as f64 / scanned as f64).min(1.0)),
        });
        let mut profile = self.profile.lock();
        profile.record_query(&query.grouping, selectivity);
        for spec in &query.aggregates {
            profile.record_measure(&measure_key(spec.expr.as_ref()), spec.expr.as_ref());
        }
    }

    /// Every `check_interval`-th answered query runs a tune pass when auto
    /// mode is on. Called only after all `inner` guards are released.
    /// Serving must never fail because a background drift check did, so
    /// tune errors are swallowed here (the explicit [`Self::tune`] call
    /// surfaces them).
    fn maybe_auto_tune(&self) {
        let opts = *self.tune_opts.lock();
        if !opts.auto {
            return;
        }
        let n = self.queries_since_tune.fetch_add(1, Ordering::Relaxed) + 1;
        if n < opts.check_interval.max(1) {
            return;
        }
        self.queries_since_tune.store(0, Ordering::Relaxed);
        let _ = self.tune();
    }

    /// Replace the tuner knobs on a live system.
    pub fn set_tune_options(&self, opts: TuneOptions) {
        *self.tune_opts.lock() = opts;
    }

    /// The active tuner knobs.
    pub fn tune_options(&self) -> TuneOptions {
        *self.tune_opts.lock()
    }

    /// A snapshot of the observed-workload profile.
    pub fn workload_profile(&self) -> WorkloadProfile {
        self.profile.lock().clone()
    }

    /// Discard the accumulated workload profile (e.g. after a deliberate
    /// workload change the operator does not want averaged in).
    pub fn reset_profile(&self) {
        self.profile.lock().clear();
    }

    /// One closed-loop pass: assess how far the observed workload's
    /// desired allocation has drifted from the allocation the synopsis
    /// currently applies, and rebuild under recomputed §4.7/§8 weights if
    /// the divergence exceeds the configured threshold.
    ///
    /// An empty profile desires exactly the static congressional
    /// allocation, so calling this before any queries is a no-op check.
    pub fn tune(&self) -> Result<TuneReport> {
        self.tune_inner(false)
    }

    /// [`Self::tune`], but reallocate unconditionally — the operator's
    /// "apply what you have learned now" button.
    pub fn tune_force(&self) -> Result<TuneReport> {
        self.tune_inner(true)
    }

    fn tune_inner(&self, force: bool) -> Result<TuneReport> {
        let opts = *self.tune_opts.lock();
        let mut profile = self.profile.lock().clone();
        let mut inner = self.inner.write();
        let Inner {
            table, synopsis, ..
        } = &mut *inner;
        if synopsis.is_stale() {
            synopsis.refresh(table)?;
        }
        // Variance criterion: per-group moments of the workload's hottest
        // measure, summed from the same cached moment cells the bounds
        // path serves from (built on demand if cold).
        let hottest = profile.hottest_measure().map(|(_, m)| m.expr.clone());
        if let (Some(expr), Some(input)) = (hottest, synopsis.input()) {
            let (rel, grouping) = (&input.rows, synopsis.grouping());
            let (strata, cache) = (input.scale_factors.len(), synopsis.query_cache());
            let (index, layout) =
                cell_layout(rel, &input.stratum_of_row, strata, grouping, false, cache);
            let summary = unfiltered_cells(rel, &layout, grouping, expr.as_ref(), cache, None)?;
            for (gid, key) in index.keys().iter().enumerate() {
                let mut m = GroupMoments::default();
                for cell in &summary.cells()[layout.cells_of(gid as u32)] {
                    m.n += cell.count;
                    m.sum += cell.sum;
                    m.sum_sq += cell.sum_sq;
                }
                profile.set_group_moments(key.clone(), m);
            }
        }
        let census = GroupCensus::par_build(table, synopsis.grouping())?;
        let applied = synopsis.applied_allocation();
        let detector = DriftDetector::new(opts.drift_threshold, opts.min_queries);
        let space = synopsis.config().space as f64;
        let report = detector.assess(&census, &profile, &applied, space)?;
        let reallocated = force || report.should_reallocate;
        if reallocated {
            let strategy = recompute_weights(&census, &profile)?;
            synopsis.rebuild_bulk_with(table, Some(&strategy))?;
        }
        let registry = synopsis.registry();
        registry.counter("aqua_tune_checks_total").inc();
        if reallocated {
            registry.counter("aqua_tune_reallocations_total").inc();
        }
        registry
            .gauge("aqua_drift_permille")
            .set((report.divergence * 1000.0).round() as i64);
        Ok(TuneReport {
            divergence: report.divergence,
            queries_observed: report.queries,
            reallocated,
            threshold: opts.drift_threshold,
        })
    }

    /// Refresh the synopsis if stale, with double-checked locking: the
    /// staleness probe under the read lock is cheap and concurrent, and
    /// the re-check under the write lock ensures that when many clients
    /// race past a stale probe, only the first refreshes (a refresh
    /// invalidates the query cache, so redundant refreshes would throw
    /// away a freshly warmed cache for nothing).
    fn refresh_if_stale(&self) -> Result<()> {
        if !self.inner.read().synopsis.is_stale() {
            return Ok(());
        }
        let mut inner = self.inner.write();
        if inner.synopsis.is_stale() {
            let Inner {
                table, synopsis, ..
            } = &mut *inner;
            synopsis.refresh(table)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RewriteChoice, SamplingStrategy};
    use engine::AggregateSpec;
    use relation::{DataType, Expr, GroupKey, RelationBuilder};

    fn table(n: i64) -> Relation {
        let mut b = RelationBuilder::new()
            .column("g", DataType::Str)
            .column("v", DataType::Float);
        for i in 0..n {
            let g = match i % 10 {
                0 => "small",
                _ => "large",
            };
            b.push_row(&[Value::str(g), Value::from(10.0 + (i % 7) as f64)])
                .unwrap();
        }
        b.finish()
    }

    fn config() -> AquaConfig {
        AquaConfig {
            space: 100,
            strategy: SamplingStrategy::Congress,
            rewrite: RewriteChoice::NestedIntegrated,
            confidence: 0.9,
            seed: 4,
            parallelism: 0,
        }
    }

    fn count_query() -> GroupByQuery {
        GroupByQuery::new(vec![ColumnId(0)], vec![AggregateSpec::count("c")])
    }

    #[test]
    fn build_and_answer() {
        let aqua = Aqua::build(table(2000), vec![ColumnId(0)], config()).unwrap();
        assert_eq!(aqua.table_rows(), 2000);
        assert!(aqua.synopsis_rows() > 0);
        let ans = aqua.answer(&count_query()).unwrap();
        assert_eq!(ans.result.group_count(), 2);
        // COUNT estimates should be near 200 / 1800.
        let small = ans
            .result
            .get(&GroupKey::new(vec![Value::str("small")]))
            .unwrap()[0];
        assert!((small - 200.0).abs() < 80.0, "small count {small}");
        assert_eq!(ans.bounds.len(), 2);
    }

    #[test]
    fn answers_track_exact_within_bounds_often() {
        let aqua = Aqua::build(table(5000), vec![ColumnId(0)], config()).unwrap();
        let q = GroupByQuery::new(
            vec![ColumnId(0)],
            vec![AggregateSpec::avg(Expr::col(ColumnId(1)), "a")],
        );
        let approx = aqua.answer(&q).unwrap();
        let exact = aqua.exact(&q).unwrap();
        for (key, vals) in exact.iter() {
            let est = approx.result.get(key).unwrap()[0];
            // AVG of values in [10, 16]: estimate must land in-range and
            // close (bounded variables, decent sample).
            assert!((est - vals[0]).abs() < 2.0, "{key}: {est} vs {}", vals[0]);
        }
    }

    #[test]
    fn insert_batch_maintains_synopsis_lazily() {
        let aqua = Aqua::build(table(1000), vec![ColumnId(0)], config()).unwrap();
        let before = aqua.table_rows();
        // Insert a brand-new group.
        let rows: Vec<Vec<Value>> = (0..50)
            .map(|i| vec![Value::str("new_group"), Value::from(i as f64)])
            .collect();
        aqua.insert_batch(&rows).unwrap();
        assert_eq!(aqua.table_rows(), before + 50);
        // Next answer reflects the new group without an explicit refresh.
        let ans = aqua.answer(&count_query()).unwrap();
        let ng = ans
            .result
            .get(&GroupKey::new(vec![Value::str("new_group")]));
        assert!(ng.is_some(), "new group must appear in the answer");
    }

    #[test]
    fn empty_insert_is_noop() {
        let aqua = Aqua::build(table(100), vec![ColumnId(0)], config()).unwrap();
        aqua.insert_batch(&[]).unwrap();
        assert_eq!(aqua.table_rows(), 100);
    }

    #[test]
    fn build_rejects_bad_inputs() {
        assert!(Aqua::build(table(0).gather(&[]), vec![ColumnId(0)], config()).is_err());
        assert!(Aqua::build(table(10), vec![ColumnId(9)], config()).is_err());
        let mut c = config();
        c.space = 0;
        assert!(Aqua::build(table(10), vec![ColumnId(0)], c).is_err());
    }

    #[test]
    fn answer_sql_runs_figure2_pipeline() {
        let aqua = Aqua::build(table(3000), vec![ColumnId(0)], config()).unwrap();
        let (answer, rewritten) = aqua
            .answer_sql("SELECT g, COUNT(*) AS c FROM t GROUP BY g HAVING c > 100")
            .unwrap();
        assert_eq!(answer.result.group_count(), 2); // both groups exceed 100
                                                    // Rewritten SQL reflects the configured Nested-integrated plan.
        assert!(rewritten.contains("samp_rel"), "{rewritten}");
        assert!(rewritten.contains("SF"), "{rewritten}");
        // Bad SQL propagates a parse error.
        assert!(aqua.answer_sql("SELEKT oops").is_err());
        assert!(aqua
            .answer_sql("SELECT COUNT(*) FROM t WHERE nope = 1")
            .is_err());
    }

    #[test]
    fn tune_without_workload_is_a_noop_check() {
        let aqua = Aqua::build(table(2000), vec![ColumnId(0)], config()).unwrap();
        let report = aqua.tune().unwrap();
        assert!(!report.reallocated);
        assert_eq!(report.queries_observed, 0);
        assert!((0.0..=1.0).contains(&report.divergence));
        assert!(aqua.answer(&count_query()).is_ok());
    }

    #[test]
    fn profile_accumulates_and_force_tune_reallocates() {
        let aqua = Aqua::build(table(3000), vec![ColumnId(0)], config()).unwrap();
        for _ in 0..10 {
            aqua.answer(&count_query()).unwrap();
        }
        assert_eq!(aqua.workload_profile().queries(), 10);
        let report = aqua.tune_force().unwrap();
        assert!(report.reallocated);
        assert_eq!(report.queries_observed, 10);
        // The reallocated synopsis still answers, within the same budget.
        let ans = aqua.answer(&count_query()).unwrap();
        assert_eq!(ans.result.group_count(), 2);
        assert!(aqua.synopsis_rows() <= 100 + 2);
    }

    #[test]
    fn auto_tune_runs_on_interval() {
        let aqua = Aqua::build(table(2000), vec![ColumnId(0)], config()).unwrap();
        aqua.set_tune_options(TuneOptions {
            auto: true,
            check_interval: 4,
            ..TuneOptions::default()
        });
        for _ in 0..9 {
            aqua.answer(&count_query()).unwrap();
        }
        if obs::ENABLED {
            let snap = aqua.stats();
            assert!(
                snap.counter("aqua_tune_checks_total") >= 2,
                "auto mode should have tuned every 4th query"
            );
        }
        assert_eq!(aqua.workload_profile().queries(), 9);
    }

    #[test]
    fn sql_answer_cache_hits_count_toward_profile() {
        let aqua = Aqua::build(table(1000), vec![ColumnId(0)], config()).unwrap();
        let sql = "SELECT g, COUNT(*) AS c FROM t GROUP BY g";
        aqua.answer_sql(sql).unwrap();
        aqua.answer_sql(sql).unwrap(); // served from the answer cache
        assert_eq!(aqua.workload_profile().queries(), 2);
        aqua.reset_profile();
        assert!(aqua.workload_profile().is_empty());
    }

    /// A row predicate's selectivity reaches the profile on both feature
    /// legs, through the structured and the SQL entry point.
    #[test]
    fn row_predicate_selectivity_is_profiled() {
        let aqua = Aqua::build(table(2000), vec![ColumnId(0)], config()).unwrap();
        let q = count_query().with_predicate(relation::Predicate::ge(ColumnId(1), 12.0));
        let sql = "SELECT g, COUNT(*) AS c FROM t WHERE v >= 12 GROUP BY g";
        let selectivity = |aqua: &Aqua| {
            let stats = aqua.workload_profile().grouping_stats();
            assert_eq!(stats.len(), 1);
            (stats[0].1.selectivity_n, stats[0].1.mean_selectivity())
        };
        for answer in [
            Box::new(|a: &Aqua| a.answer(&q).map(drop)) as Box<dyn Fn(&Aqua) -> Result<()>>,
            Box::new(|a: &Aqua| a.answer_sql(sql).map(drop)),
        ] {
            aqua.reset_profile();
            answer(&aqua).unwrap();
            let (n, mean) = selectivity(&aqua);
            assert_eq!(n, 1);
            // v = 10 + i % 7 ≥ 12 on five of seven values.
            assert!((0.5..0.9).contains(&mean), "{mean}");
        }
    }

    #[test]
    fn exact_matches_engine() {
        let t = table(500);
        let aqua = Aqua::build(t.clone(), vec![ColumnId(0)], config()).unwrap();
        let q = count_query();
        let direct = engine::execute_exact(&t, &q).unwrap();
        assert_eq!(aqua.exact(&q).unwrap(), direct);
    }
}
