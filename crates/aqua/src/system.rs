//! The [`Aqua`] middleware: stored table + synopsis + query answering.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};

use congress::adaptive::{recompute_weights, DriftDetector, WorkloadProfile};
use congress::GroupCensus;
use engine::rewrite::{cell_layout, execute_cells, measure_key, unfiltered_cells};
use engine::{
    execute_exact_opts, CachedPlan, CancelToken, EngineError, ExecOptions, ExecTrace, GroupByQuery,
    Moments, PlanCache, QueryResult, ServedFrom,
};
use relation::{ColumnId, Relation, Schema, Value};

/// Serializable point-in-time metrics snapshot returned by
/// [`Aqua::stats`] (re-exported from the `obs` crate).
pub use obs::Snapshot as StatsSnapshot;

use crate::answer::{compute_bounds_from_cells, AnswerProvenance, ApproximateAnswer};
use crate::config::AquaConfig;
use crate::error::{AquaError, Result};
use crate::serve_cache::ServedAnswer;
use crate::synopsis::{Generation, Synopsis};

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
    /// `aqua_bounds_latency_us`: the error-bounds pass of each answer
    /// computed from the synopsis (answer-cache hits never reach it).
    bounds_latency: OnceLock<obs::Histogram>,
    rows_scanned: OnceLock<obs::Counter>,
    chunks_scanned: OnceLock<obs::Counter>,
    chunks_pruned: OnceLock<obs::Counter>,
    /// Decode-free kernel counters by (family, kind):
    /// `relation_decode_avoided_total` counts chunks the kernels handled
    /// without materializing values, `relation_encoded_fold_total`
    /// fully-selected chunks folded straight from the encoded form.
    kernels: [(&'static str, &'static str, OnceLock<obs::Counter>); 5],
    sql_queries: OnceLock<obs::Counter>,
    sql_parse_errors: OnceLock<obs::Counter>,
    scan_cancelled: OnceLock<obs::Counter>,
}

impl QueryMetrics {
    fn new(registry: Arc<obs::Registry>, rewrite: &'static str) -> QueryMetrics {
        let [a, b, c] = ServedFrom::all().map(|s| s.label());
        let (decode, fold) = (
            "relation_decode_avoided_total",
            "relation_encoded_fold_total",
        );
        QueryMetrics {
            registry,
            rewrite,
            served: [a, b, c, "unknown", SERVED_ANSWER_CACHE].map(|l| (l, OnceLock::new())),
            errors: OnceLock::new(),
            latency: OnceLock::new(),
            bounds_latency: OnceLock::new(),
            rows_scanned: OnceLock::new(),
            chunks_scanned: OnceLock::new(),
            chunks_pruned: OnceLock::new(),
            kernels: [
                (decode, "code-domain-predicate", OnceLock::new()),
                (decode, "encoded-sum", OnceLock::new()),
                (decode, "zonemap-minmax", OnceLock::new()),
                (fold, "encoded-sum", OnceLock::new()),
                (fold, "zonemap-minmax", OnceLock::new()),
            ],
            sql_queries: OnceLock::new(),
            sql_parse_errors: OnceLock::new(),
            scan_cancelled: OnceLock::new(),
        }
    }

    /// Record one successful query span: per-(rewrite, served) count,
    /// end-to-end latency, and the rows, chunks and kernels `trace` saw.
    fn record_query(&self, served: &str, elapsed_us: u64, trace: &ExecTrace) {
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
            .add(trace.rows_scanned());
        // Zone-map pruning counters, registered lazily like the served-path
        // families: summary-served queries touch no chunk, so the families
        // appear only once a scan path has actually run a pruning pass.
        let (scanned, pruned) = (trace.chunks_scanned(), trace.chunks_pruned());
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
        let (sum, minmax) = (trace.kernel_fold_sum(), trace.kernel_fold_minmax());
        let hits = [trace.kernel_pred_chunks(), sum, minmax, sum, minmax];
        for ((family, kind, cell), hits) in self.kernels.iter().zip(hits) {
            if hits > 0 {
                let counter = || {
                    self.registry
                        .counter(&obs::label(family, &[("kind", kind)]))
                };
                cell.get_or_init(counter).add(hits);
            }
        }
    }

    /// Record an error span; a cooperative cancellation additionally
    /// increments `aqua_scan_cancelled_total` so deadline enforcement is
    /// observable separately from genuine failures.
    fn record_result_error(&self, e: &AquaError) {
        self.errors
            .get_or_init(|| self.registry.counter("aqua_query_errors_total"))
            .inc();
        if matches!(e, AquaError::Engine(EngineError::Cancelled)) {
            self.scan_cancelled
                .get_or_init(|| self.registry.counter("aqua_scan_cancelled_total"))
                .inc();
        }
    }

    fn sql_query(&self) {
        if obs::ENABLED {
            self.sql_queries
                .get_or_init(|| self.registry.counter("aqua_sql_queries_total"))
                .inc();
        }
    }

    fn parse_error(&self) {
        if obs::ENABLED {
            self.sql_parse_errors
                .get_or_init(|| self.registry.counter("aqua_sql_parse_errors_total"))
                .inc();
        }
    }
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

/// What [`Aqua::run`] is asked.
#[derive(Debug, Clone, Copy)]
pub enum Query<'a> {
    /// SQL text, parsed against the stored table's schema.
    Sql(&'a str),
    /// An already parsed query.
    Parsed(&'a GroupByQuery),
}

/// One query for [`Aqua::run`]. Start from [`Request::sql`] or
/// [`Request::query`] and set the rest by struct update, e.g.
/// `Request { exact: true, ..Request::sql(text) }`.
#[derive(Debug, Clone, Copy)]
pub struct Request<'a> {
    /// The query.
    pub query: Query<'a>,
    /// Scan the stored table instead of estimating from the synopsis.
    pub exact: bool,
    /// Cooperative cancellation, polled at the scans' chunk boundaries.
    pub cancel: Option<&'a CancelToken>,
}

impl<'a> Request<'a> {
    /// An approximate request for SQL text, with no cancel token.
    pub fn sql(sql: &'a str) -> Request<'a> {
        Request {
            query: Query::Sql(sql),
            exact: false,
            cancel: None,
        }
    }

    /// An approximate request for a parsed query, with no cancel token.
    pub fn query(query: &'a GroupByQuery) -> Request<'a> {
        Request {
            query: Query::Parsed(query),
            ..Request::sql("")
        }
    }
}

/// The approximate query answering system of §2, over a single stored
/// relation (the paper reduces multi-table warehouses to this case via
/// join synopses).
///
/// Thread-safe: a query takes the read lock just long enough to pin what
/// it reads — the synopsis [`Generation`], or the stored table for an exact
/// scan — and answers without it; insertions, refreshes and rebuilds take
/// the write lock and swap in a new table or generation. The synopsis
/// refreshes lazily — after a batch of warehouse insertions, the next
/// query pays one refresh. A system may also have no synopsis (a warehouse
/// relation whose snapshot was lost): it then answers every query with an
/// exact scan until [`Aqua::rebuild`].
pub struct Aqua {
    inner: RwLock<Inner>,
    grouping: Vec<ColumnId>,
    config: AquaConfig,
    /// Normalized SQL → parsed + rewritten plan. A plan depends on the
    /// schema alone, so one cache serves every generation.
    plans: PlanCache,
    /// The system's metric registry (its synopsis records into it too) and
    /// cached handles into it — outside the lock, so span recording never
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
    /// The stored warehouse table, replaced whole by
    /// [`Aqua::insert_batch`]. Shared with the exact scans reading it, so
    /// the zone maps and encoded twin one of them builds serve the rest.
    table: Arc<Relation>,
    /// The synopsis, or why there is none.
    synopsis: std::result::Result<Synopsis, String>,
}

impl Inner {
    /// The table and the synopsis, or an error naming why there is none.
    fn sampled(&mut self) -> Result<(&Relation, &mut Synopsis)> {
        match &mut self.synopsis {
            Ok(synopsis) => Ok((self.table.as_ref(), synopsis)),
            Err(reason) => Err(AquaError::Storage(format!("no synopsis: {reason}"))),
        }
    }
}

/// A synopsis of `table` as [`Aqua::build`] makes one, recording into
/// `registry`: the bulk parallel pipeline draws the sample, and the table
/// is also streamed through the incremental maintainer.
fn sample(
    table: &Relation,
    grouping: &[ColumnId],
    config: AquaConfig,
    registry: &Arc<obs::Registry>,
) -> Result<Synopsis> {
    for &c in grouping {
        table.schema().field(c)?;
    }
    if table.is_empty() {
        return Err(AquaError::InvalidConfig(
            "cannot build a synopsis over an empty relation".into(),
        ));
    }
    let mut synopsis = Synopsis::new_in(config, grouping.to_vec(), Arc::clone(registry))?;
    synopsis.ingest(table, 0)?;
    synopsis.rebuild_bulk(table)?;
    Ok(synopsis)
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
        let registry = Arc::new(obs::Registry::new());
        let synopsis = Ok(sample(&table, &grouping, config, &registry)?);
        Ok(Aqua::assemble(table, grouping, config, synopsis, registry))
    }

    /// Rebuild a system from a stored table plus a snapshot exported from
    /// it ([`Self::export_synopsis`]). The restored synopsis answers from
    /// the snapshot's sample at once; the table is also streamed through the
    /// maintainer, as [`Self::build`] does, so later insertions maintain a
    /// sample of the whole table.
    pub fn build_from_snapshot(
        table: Relation,
        config: AquaConfig,
        snapshot: bytes::Bytes,
    ) -> Result<Aqua> {
        let registry = Arc::new(obs::Registry::new());
        let synopsis = Synopsis::import(config, &table, snapshot, Arc::clone(&registry))?;
        let grouping = synopsis.grouping().to_vec();
        Ok(Aqua::assemble(
            table,
            grouping,
            config,
            Ok(synopsis),
            registry,
        ))
    }

    /// A system over `table` without a synopsis, for `reason`: every query
    /// is an exact scan (approximate requests are flagged
    /// [`AnswerProvenance::ExactFallback`]), inserts only grow the table,
    /// and [`Self::rebuild`] restores sampled service.
    pub(crate) fn degraded(
        table: Relation,
        grouping: Vec<ColumnId>,
        config: AquaConfig,
        reason: String,
    ) -> Aqua {
        Aqua::assemble(table, grouping, config, Err(reason), Arc::default())
    }

    fn assemble(
        table: Relation,
        grouping: Vec<ColumnId>,
        config: AquaConfig,
        synopsis: std::result::Result<Synopsis, String>,
        registry: Arc<obs::Registry>,
    ) -> Aqua {
        Aqua {
            inner: RwLock::new(Inner {
                table: Arc::new(table),
                synopsis,
            }),
            grouping,
            config,
            plans: PlanCache::default(),
            metrics: QueryMetrics::new(registry, config.rewrite.name()),
            profile: Mutex::new(WorkloadProfile::new()),
            tune_opts: Mutex::new(TuneOptions::default()),
            queries_since_tune: AtomicU64::new(0),
        }
    }

    /// The declared grouping columns.
    pub fn grouping_columns(&self) -> Vec<ColumnId> {
        self.grouping.clone()
    }

    /// The active configuration (needed to persist and rebuild the system).
    pub fn config(&self) -> AquaConfig {
        self.config
    }

    /// A snapshot of the stored table (cheap: the columns and their string
    /// dictionaries are shared `Arc`s).
    pub fn table_snapshot(&self) -> Relation {
        Relation::clone(&self.inner.read().table)
    }

    /// Rows currently stored in the warehouse table.
    pub fn table_rows(&self) -> usize {
        self.inner.read().table.row_count()
    }

    /// Sampled tuples in the active synopsis (0 without one).
    pub fn synopsis_rows(&self) -> usize {
        let inner = self.inner.read();
        inner.synopsis.as_ref().map_or(0, Synopsis::sample_rows)
    }

    /// Why the system has no synopsis, if it has none.
    pub(crate) fn degraded_reason(&self) -> Option<String> {
        self.inner.read().synopsis.as_ref().err().cloned()
    }

    /// Answer one request: every query enters here.
    ///
    /// * **Approximate** — the Figure 2 → Figure 4 pipeline. SQL text is
    ///   normalized ([`engine::sql::normalize`]) into the key of the answer
    ///   and plan caches, and parsed on a miss; a parsed query skips the
    ///   answer cache. A miss folds the selected sample rows once into
    ///   per-(group, stratum) moments ([`engine::rewrite::execute_cells`])
    ///   and reads the estimates and the error bounds off them. All of it
    ///   runs against the one [`Generation`] the request pinned.
    /// * **Exact** — a scan of the stored table: no bounds, confidence 1.0,
    ///   [`AnswerProvenance::Exact`]. Without a synopsis, approximate
    ///   requests are answered so too, as [`AnswerProvenance::ExactFallback`].
    ///
    /// A fired `cancel` token stops either scan within one chunk with
    /// `AquaError::Engine(EngineError::Cancelled)`; answer-cache hits return
    /// regardless, and a cancelled answer is never cached.
    pub fn run(&self, request: &Request<'_>) -> Result<Arc<ServedAnswer>> {
        let timer = obs::Timer::start();
        let inner = self.inner.read();
        let fallback = match &inner.synopsis {
            Ok(synopsis) if !request.exact => {
                let pinned = synopsis.generation().cloned();
                drop(inner);
                let generation = match pinned {
                    Some(generation) => generation,
                    None => self.refreshed()?,
                };
                let served = self.estimate(&generation, request, &timer);
                if served.is_ok() {
                    self.maybe_auto_tune();
                }
                return served;
            }
            synopsis => synopsis.as_ref().err().filter(|_| !request.exact).cloned(),
        };
        let table = Arc::clone(&inner.table);
        drop(inner);
        self.scan(&table, request, fallback.as_ref())
    }

    /// [`Self::run`] on a parsed query, approximately. A name of its own
    /// because the benchmark's traced replay calls it (ROADMAP item 6).
    pub fn answer(&self, query: &GroupByQuery) -> Result<ApproximateAnswer> {
        Ok(Arc::unwrap_or_clone(self.run(&Request::query(query))?).answer)
    }

    /// [`Self::run`] on SQL text, approximately: the serving path. A name of
    /// its own because the benchmark calls it (ROADMAP item 6).
    pub fn answer_sql_shared(&self, sql: &str) -> Result<Arc<ServedAnswer>> {
        self.run(&Request::sql(sql))
    }

    /// [`Self::run`] on SQL text, exactly: the warehouse-side ground truth.
    /// A name of its own because the benchmark calls it (ROADMAP item 6).
    pub fn exact_sql(&self, sql: &str) -> Result<QueryResult> {
        let request = Request {
            exact: true,
            ..Request::sql(sql)
        };
        Ok(Arc::unwrap_or_clone(self.run(&request)?).answer.result)
    }

    /// The generation of a stale synopsis, refreshed under the write lock:
    /// of many readers racing past a stale probe only the first refreshes.
    fn refreshed(&self) -> Result<Arc<Generation>> {
        let mut inner = self.inner.write();
        let (table, synopsis) = inner.sampled()?;
        synopsis.current(table)
    }

    /// The approximate arm of [`Self::run`], against a pinned generation.
    fn estimate(
        &self,
        generation: &Generation,
        request: &Request<'_>,
        timer: &obs::Timer,
    ) -> Result<Arc<ServedAnswer>> {
        // Always traced, also under `obs-off`: the trace is plain engine
        // counters, and the tuner's selectivity observations read it.
        let trace = ExecTrace::new();
        let plan;
        let (key, query, rewritten) = match request.query {
            Query::Parsed(query) => (None, query, String::new()),
            Query::Sql(sql) => {
                self.metrics.sql_query();
                let key =
                    engine::sql::normalize(sql).inspect_err(|_| self.metrics.parse_error())?;
                if let Some(served) = generation.answers.get(&key) {
                    // Hits are workload signal too. The plan cache still has
                    // the parsed query; peeking does not count a plan hit.
                    let plan = self.plans.peek(&key);
                    let query = plan.as_ref().map(|p| &p.query);
                    self.answered(SERVED_ANSWER_CACHE, timer, &trace, query);
                    return Ok(served);
                }
                plan = self.plan(generation.input.rows.schema(), &key)?;
                (Some(key), &plan.query, plan.rewritten.clone())
            }
        };
        let result = self.answer_from(generation, query, &trace, request.cancel);
        if let (Err(e), true) = (&result, obs::ENABLED) {
            self.metrics.record_result_error(e);
        }
        let answer = result?;
        let served = trace.served().map_or("unknown", |s| s.label());
        self.answered(served, timer, &trace, Some(query));
        let served = Arc::new(ServedAnswer { answer, rewritten });
        Ok(match key {
            Some(key) => generation.answers.insert(key, served),
            None => served,
        })
    }

    /// The plan of normalized SQL `key` from the plan cache, parsed against
    /// `schema` and rendered into it on a miss.
    fn plan(&self, schema: &Schema, key: &str) -> Result<Arc<CachedPlan>> {
        self.plans.get_or_try_insert_with(key, || {
            let query =
                engine::sql::parse(schema, key).inspect_err(|_| self.metrics.parse_error())?;
            let kind = self.config.rewrite;
            let rewritten =
                engine::sql::render_rewritten(&query, schema, kind, "samp_rel", "aux_rel")?;
            Ok(CachedPlan { query, rewritten })
        })
    }

    /// Record one answered approximate query: its span and, given its
    /// parse, its grouping, measures and selectivity in the workload profile.
    fn answered(
        &self,
        served: &str,
        timer: &obs::Timer,
        trace: &ExecTrace,
        query: Option<&GroupByQuery>,
    ) {
        if obs::ENABLED {
            self.metrics.record_query(served, timer.elapsed_us(), trace);
        }
        if let Some(query) = query {
            self.record_profile(query, trace);
        }
    }

    /// The estimate and its bounds from `generation`; `trace` receives the
    /// served-from path and rows touched without affecting the result.
    fn answer_from(
        &self,
        generation: &Generation,
        query: &GroupByQuery,
        trace: &ExecTrace,
        cancel: Option<&CancelToken>,
    ) -> Result<ApproximateAnswer> {
        let opts = ExecOptions {
            trace: Some(trace),
            cancel,
            ..ExecOptions::default()
        };
        let input = &generation.input;
        let (strata, sfs) = (&input.stratum_of_row, &input.scale_factors);
        // The fold returns the cells it read the estimates off, for the
        // bounds below.
        let (result, cells) =
            execute_cells(&input.rows, strata, sfs, query, &opts, &generation.cells)?;
        // Coarse checkpoint between the scan and the bounds pass: a token
        // that fired during execution already aborted above; one that fires
        // right after still skips the bounds computation.
        if let Some(c) = cancel {
            c.check()?;
        }
        let confidence = self.config.confidence;
        let timer = obs::Timer::start();
        let bounds = compute_bounds_from_cells(input, query, confidence, &cells);
        if obs::ENABLED {
            let histogram = || self.metrics.registry.histogram("aqua_bounds_latency_us");
            let bounds_latency = self.metrics.bounds_latency.get_or_init(histogram);
            bounds_latency.record(timer.elapsed_us());
        }
        Ok(ApproximateAnswer {
            result,
            bounds,
            confidence,
            provenance: AnswerProvenance::Sampled,
        })
    }

    /// The exact arm of [`Self::run`]: scan the stored table. `fallback` is
    /// why a system without a synopsis answers an approximate request so
    /// (counted in `warehouse_degraded_answers_total`). A finished scan
    /// moves `aqua_exact_queries_total`, `aqua_exact_latency_us` and the
    /// counters the sample scans feed (`aqua_rows_scanned_total`,
    /// `relation_chunks_{scanned,pruned}_total`); one `cancel` stops moves
    /// `aqua_scan_cancelled_total` instead.
    fn scan(
        &self,
        table: &Relation,
        request: &Request<'_>,
        fallback: Option<&String>,
    ) -> Result<Arc<ServedAnswer>> {
        let registry = &self.metrics.registry;
        if fallback.is_some() {
            registry.counter("warehouse_degraded_answers_total").inc();
        }
        let parsed;
        let query = match request.query {
            Query::Sql(sql) => {
                parsed = engine::sql::parse(table.schema(), sql)?;
                &parsed
            }
            Query::Parsed(query) => query,
        };
        let timer = obs::Timer::start();
        let trace = ExecTrace::new();
        let opts = ExecOptions {
            trace: obs::ENABLED.then_some(&trace),
            cancel: request.cancel,
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
        let provenance = match fallback {
            Some(reason) => AnswerProvenance::ExactFallback {
                reason: reason.clone(),
            },
            None => AnswerProvenance::Exact,
        };
        let answer = ApproximateAnswer {
            result: result?,
            bounds: Vec::new(),
            confidence: 1.0,
            provenance,
        };
        Ok(Arc::new(ServedAnswer {
            answer,
            rewritten: String::new(),
        }))
    }

    /// Point-in-time metrics snapshot: the system's registry, the serving
    /// caches' counters (with a synopsis) and table/sample size gauges.
    /// Under `obs-off` the registry counters are all zero but the cache
    /// counters (pre-existing, always on) remain.
    pub fn stats(&self) -> StatsSnapshot {
        let inner = self.inner.read();
        let mut snap = self.metrics.registry.snapshot();
        if let Ok(synopsis) = &inner.synopsis {
            let (mut hits, mut misses) = (0, 0);
            for (name, k) in synopsis.cell_counts().kinds() {
                snap.set_counter(&format!("aqua_cache_{name}_hits_total"), k.hits());
                snap.set_counter(&format!("aqua_cache_{name}_misses_total"), k.misses());
                (hits, misses) = (hits + k.hits(), misses + k.misses());
            }
            snap.set_counter("aqua_cache_hits_total", hits);
            snap.set_counter("aqua_cache_misses_total", misses);
            let retired = synopsis.retired();
            snap.set_counter("aqua_cache_invalidations_total", retired);
            snap.set_counter("aqua_answer_cache_invalidations_total", retired);
            let answers = synopsis.generation().map_or(0, |g| g.answers.len());
            for (kind, counts, entries) in [
                ("plan", self.plans.counts(), self.plans.len()),
                ("answer", synopsis.answer_counts(), answers),
            ] {
                let name = |what| format!("aqua_{kind}_cache_{what}");
                snap.set_counter(&name("hits_total"), counts.hits());
                snap.set_counter(&name("misses_total"), counts.misses());
                snap.set_gauge(&name("entries"), entries as i64);
                let permille = (counts.hit_rate() * 1000.0).round() as i64;
                snap.set_gauge(&name("hit_rate_permille"), permille);
            }
        }
        let sample_rows = inner.synopsis.as_ref().map_or(0, Synopsis::sample_rows);
        snap.set_gauge("aqua_table_rows", inner.table.row_count() as i64);
        snap.set_gauge("aqua_synopsis_rows", sample_rows as i64);
        drop(inner);
        let profile = self.profile.lock();
        snap.set_gauge("aqua_profile_queries", profile.queries() as i64);
        snap.set_gauge("aqua_profile_groupings", profile.grouping_count() as i64);
        snap
    }

    /// Insert new tuples into the warehouse. The stored table grows; with a
    /// synopsis, its maintainer sees each tuple once and the next
    /// approximate query refreshes it.
    pub fn insert_batch(&self, rows: &[Vec<Value>]) -> Result<()> {
        if rows.is_empty() {
            return Ok(());
        }
        let mut inner = self.inner.write();
        let inner = &mut *inner;
        let mut builder = relation::RelationBuilder::from_schema(inner.table.schema());
        for row in rows {
            builder.push_row(row)?;
        }
        let batch = builder.finish();
        if let Ok(synopsis) = &mut inner.synopsis {
            synopsis.ingest(&batch, inner.table.row_count())?;
        }
        inner.table = Arc::new(Relation::concat(&[&inner.table, &batch])?);
        Ok(())
    }

    /// Export the synopsis as a compact binary snapshot (durable storage,
    /// shipping to another node, etc.); without one, an error naming why.
    /// Returns `Bytes` because the benchmark calls it (ROADMAP item 7).
    pub fn export_synopsis(&self) -> Result<bytes::Bytes> {
        let mut inner = self.inner.write();
        let (table, synopsis) = inner.sampled()?;
        synopsis.export(table)
    }

    /// What [`Warehouse::save_all`](crate::Warehouse::save_all) stores of
    /// this system — table, grouping, configuration and the synopsis
    /// snapshot (`None` without a synopsis) — read under one lock, so no
    /// insert can land between the snapshot and the table.
    pub(crate) fn saved(
        &self,
    ) -> Result<(Relation, Vec<ColumnId>, AquaConfig, Option<bytes::Bytes>)> {
        let mut inner = self.inner.write();
        let Inner { table, synopsis } = &mut *inner;
        let snapshot = match synopsis {
            Ok(synopsis) => Some(synopsis.export(table)?),
            Err(_) => None,
        };
        let table = Relation::clone(table);
        Ok((table, self.grouping.clone(), self.config, snapshot))
    }

    /// Force a bulk *parallel* reconstruction of the synopsis from the
    /// stored table, on `config.parallelism` threads. Queries that pinned
    /// the old generation finish on it; later ones wait for the writer lock
    /// and then see the new synopsis whole — never a partially rebuilt one. The maintainer keeps its stream
    /// state for future incremental refreshes. A system without a synopsis
    /// gets one built as [`Self::build`] builds it, and sampled service.
    pub fn rebuild(&self) -> Result<()> {
        let mut inner = self.inner.write();
        let inner = &mut *inner;
        match &mut inner.synopsis {
            Ok(synopsis) => synopsis.rebuild_bulk(&inner.table),
            Err(_) => {
                let registry = &self.metrics.registry;
                inner.synopsis = Ok(sample(&inner.table, &self.grouping, self.config, registry)?);
                Ok(())
            }
        }
    }

    /// Force a synopsis refresh now (normally lazy).
    pub fn refresh(&self) -> Result<()> {
        let mut inner = self.inner.write();
        let (table, synopsis) = inner.sampled()?;
        synopsis.refresh(table)
    }

    /// Fold one answered query into the workload profile: its grouping,
    /// its predicate's observed selectivity (selected/scanned rows from the
    /// trace, when a scan actually ran), and its measure expressions.
    fn record_profile(&self, query: &GroupByQuery, trace: &ExecTrace) {
        let selectivity = match trace.rows_scanned() {
            0 => None,
            scanned => Some((trace.rows_selected() as f64 / scanned as f64).min(1.0)),
        };
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
        let (table, synopsis) = inner.sampled()?;
        let generation = synopsis.current(table)?;
        // Variance criterion: per-group moments of the workload's hottest
        // measure, summed from the same cached moment cells the bounds
        // path serves from (built on demand if cold).
        if let Some((_, measure)) = profile.hottest_measure() {
            let (expr, input) = (measure.expr.clone(), &generation.input);
            let (rel, grouping) = (&input.rows, synopsis.grouping());
            let (strata, cache) = (input.scale_factors.len(), &generation.cells);
            let (index, layout) = cell_layout(rel, &input.stratum_of_row, strata, grouping, cache);
            let summary = unfiltered_cells(rel, &layout, grouping, expr.as_ref(), cache, None)?;
            for (gid, key) in index.keys().iter().enumerate() {
                let mut m = Moments::new();
                for cell in &summary.cells()[layout.cells_of(gid as u32)] {
                    m.n += cell.n;
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

    fn exact(aqua: &Aqua, q: &GroupByQuery) -> Arc<ServedAnswer> {
        let request = Request {
            exact: true,
            ..Request::query(q)
        };
        aqua.run(&request).unwrap()
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
        let exact = exact(&aqua, &q);
        for (key, vals) in exact.answer.result.iter() {
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
        // An exact scan sees the new rows but leaves the synopsis stale.
        let refreshes = |a: &Aqua| a.stats().counter("synopsis_refreshes_total");
        let before_scan = refreshes(&aqua);
        assert_eq!(exact(&aqua, &count_query()).answer.result.group_count(), 3);
        assert_eq!(refreshes(&aqua), before_scan);
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
        let served = aqua
            .answer_sql_shared("SELECT g, COUNT(*) AS c FROM t GROUP BY g HAVING c > 100")
            .unwrap();
        assert_eq!(served.answer.result.group_count(), 2); // both groups exceed 100
        assert_eq!(served.answer.provenance, AnswerProvenance::Sampled);
        // Rewritten SQL reflects the configured Nested-integrated plan.
        let rewritten = &served.rewritten;
        assert!(rewritten.contains("samp_rel"), "{rewritten}");
        assert!(rewritten.contains("SF"), "{rewritten}");
        // Bad SQL propagates a parse error.
        assert!(aqua.answer_sql_shared("SELEKT oops").is_err());
        assert!(aqua
            .answer_sql_shared("SELECT COUNT(*) FROM t WHERE nope = 1")
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
        aqua.answer_sql_shared(sql).unwrap();
        aqua.answer_sql_shared(sql).unwrap(); // served from the answer cache
        assert_eq!(aqua.workload_profile().queries(), 2);
        aqua.reset_profile();
        assert!(aqua.workload_profile().is_empty());
    }

    /// An answer-cache hit reads the parse for the profile without a
    /// counted plan-cache lookup: the plan answered nothing.
    #[test]
    fn answer_cache_hits_are_not_plan_cache_hits() {
        let aqua = Aqua::build(table(1000), vec![ColumnId(0)], config()).unwrap();
        let sql = "SELECT g, COUNT(*) AS c FROM t GROUP BY g";
        for _ in 0..5 {
            aqua.answer_sql_shared(sql).unwrap();
        }
        let s = aqua.stats();
        assert_eq!(s.counter("aqua_answer_cache_hits_total"), 4);
        assert_eq!(s.counter("aqua_plan_cache_hits_total"), 0);
        assert_eq!(s.counter("aqua_plan_cache_misses_total"), 1);
        assert_eq!(aqua.workload_profile().queries(), 5);
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
            Box::new(|a: &Aqua| a.answer_sql_shared(sql).map(drop)),
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
        let served = exact(&aqua, &q);
        assert_eq!(served.answer.result, direct);
        assert_eq!(served.answer.provenance, AnswerProvenance::Exact);
        assert!(served.answer.bounds.is_empty() && served.rewritten.is_empty());
        assert_eq!(served.answer.confidence, 1.0);
    }

    /// An exact scan reads the stored table itself, not a copy, so the zone
    /// maps its pruning pass builds serve every later scan.
    #[test]
    fn exact_scans_build_the_tables_zone_maps_once() {
        let aqua = Aqua::build(table(500), vec![ColumnId(0)], config()).unwrap();
        assert!(aqua.table_snapshot().zone_maps_if_built().is_none());
        let q = count_query().with_predicate(relation::Predicate::ge(ColumnId(1), 12.0));
        exact(&aqua, &q);
        assert!(aqua.table_snapshot().zone_maps_if_built().is_some());
    }

    /// A system without a synopsis scans for every request, only grows its
    /// table on insert, refuses what needs a synopsis with the reason, and
    /// regains sampled service on `rebuild`.
    #[test]
    fn degraded_system_scans_until_rebuilt() {
        let reason = "snapshot lost in a test";
        let aqua = Aqua::degraded(table(2000), vec![ColumnId(0)], config(), reason.into());
        assert_eq!(aqua.synopsis_rows(), 0);
        assert_eq!(aqua.degraded_reason().as_deref(), Some(reason));
        let fallback = AnswerProvenance::ExactFallback {
            reason: reason.into(),
        };
        let q = count_query();
        let direct = engine::execute_exact(&aqua.table_snapshot(), &q).unwrap();
        let approximate = aqua.run(&Request::query(&q)).unwrap();
        assert_eq!(approximate.answer.provenance, fallback);
        assert_eq!(approximate.answer.result, direct);
        let sql = aqua.run(&Request::sql("SELECT g, COUNT(*) AS c FROM t GROUP BY g"));
        assert_eq!(sql.unwrap().answer.provenance, fallback);
        assert_eq!(exact(&aqua, &q).answer.provenance, AnswerProvenance::Exact);

        let refused = [
            aqua.tune().map(drop),
            aqua.refresh(),
            aqua.export_synopsis().map(drop),
        ];
        for err in refused {
            assert!(err.unwrap_err().to_string().contains(reason));
        }

        let rows: Vec<Vec<Value>> = (0..30)
            .map(|i| vec![Value::str("new_group"), Value::from(i as f64)])
            .collect();
        aqua.insert_batch(&rows).unwrap();
        assert_eq!(aqua.table_rows(), 2030);
        assert_eq!(aqua.synopsis_rows(), 0);

        aqua.rebuild().unwrap();
        assert!(aqua.synopsis_rows() > 0);
        assert_eq!(aqua.degraded_reason(), None);
        let ans = aqua.answer(&q).unwrap();
        assert_eq!(ans.provenance, AnswerProvenance::Sampled);
        assert_eq!(ans.result.group_count(), 3);
    }
}
