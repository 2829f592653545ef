//! The traced run: one block of the workload replayed with a span around
//! every outer operation and, on the same inputs, around the call into each
//! layer's public function. Spans are recorded from this file only — none
//! sit inside the crates — so a layer call is *replayed* next to the
//! operation it belongs to, on a second instance of the system (`probe`)
//! that has seen the same inputs, and on pieces built from the crates'
//! public parts (`Shadow`) where `Aqua` keeps its own private.
//!
//! End-to-end metrics are never taken from here.

use std::io;
use std::sync::Arc;
use std::time::Instant;

use aqua::{Aqua, RecoveryPolicy, Warehouse};
use congress::alloc::Congress;
use congress::{AllocationStrategy, CongressionalSample, GroupCensus, SeedSpec};
use engine::sql::RewriteKind;
use engine::{ExecOptions, ExecTrace, Integrated, QueryCache, SamplePlan, StratifiedInput};
use relation::{EncodedRelation, KernelStats, Relation, RelationBuilder, Value};
use server::{QueryBackend, Server, ServerConfig};

use crate::drive::{build_aqua, Inputs, Observer, Op, Session, Workload};
use crate::http::{query_request, Client};
use crate::inputs::{self, Scale, BATCH_ROWS, DASH_QUERIES};
use crate::procfs;
use crate::report::{self, Fact, Metric};
use crate::run::{temp_warehouse, RunOutput};
use crate::stats::{median, percentile};

/// A per-layer metric. No bound: these explain a change, they do not gate it.
pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn layer(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef { name, unit }
}

/// Every traced run reports all of these, in this order. A `_us`, `_ms` or
/// `_s` figure is the median duration of the spans around the named call.
pub const PER_LAYER: &[LayerDef] = &[
    layer("server.http_parse_us", "us"),
    layer("server.json_render_us", "us"),
    layer("server.http_response_us", "us"),
    layer("server.front_end_us", "us"),
    layer("server.body_bytes_per_query", "bytes"),
    layer("server.shed_frac", "frac"),
    layer("server.coalesced_frac", "frac"),
    layer("aqua.answer_hit_us", "us"),
    layer("aqua.answer_miss_us", "us"),
    layer("aqua.answer_structured_us", "us"),
    layer("aqua.bounds_us", "us"),
    layer("aqua.answer_cache_hit_frac", "frac"),
    layer("aqua.plan_cache_hit_frac", "frac"),
    layer("aqua.cache_bytes_per_distinct_query", "bytes"),
    layer("aqua.insert_batch_ms", "ms"),
    layer("aqua.ingest_rows_per_s", "1/s"),
    layer("aqua.refresh_ms", "ms"),
    layer("aqua.build_s", "s"),
    layer("aqua.warehouse_save_s", "s"),
    layer("aqua.warehouse_open_s", "s"),
    layer("engine.sql_normalize_us", "us"),
    layer("engine.sql_parse_us", "us"),
    layer("engine.sql_render_rewritten_us", "us"),
    layer("engine.plan_execute_us", "us"),
    layer("engine.exact_execute_us", "us"),
    layer("engine.rows_scanned_per_query", "count"),
    layer("engine.chunks_pruned_frac", "frac"),
    layer("engine.kernel_evals_per_scanned_chunk", "count"),
    layer("engine.query_cache_hit_frac", "frac"),
    layer("relation.predicate_eval_us", "us"),
    layer("relation.encode_s", "s"),
    layer("relation.encoded_bytes_per_row", "bytes"),
    layer("relation.zone_map_build_ms", "ms"),
    layer("relation.concat_ms", "ms"),
    layer("relation.builder_rows_per_s", "1/s"),
    layer("congress.census_s", "s"),
    layer("congress.alloc_ms", "ms"),
    layer("congress.draw_s", "s"),
    layer("congress.maintainer_rows_per_s", "1/s"),
    layer("congress.snapshot_bytes_per_sample_row", "bytes"),
    layer("obs.record_ns", "ns"),
    layer("tpcd.generate_s", "s"),
    layer("trace.coverage_frac", "frac"),
    layer("trace.unattributed_us", "us"),
    layer("trace.overhead_frac", "frac"),
];

/// Units of the traced block whose layer calls are replayed, at most.
const REPLAYS_PER_BLOCK: usize = 200;
/// Ingest batches in the closing probe pass.
const PROBE_BATCHES: usize = 4;
/// Batch numbers of the probe pass start here, clear of any workload's.
const PROBE_BATCH_BASE: usize = 1 << 20;

type SpanId = u32;

/// `{name, layer, op_id, parent, start_ns, end_ns}`; spans of one operation
/// share `op_id`. `parent` is the span this one is part of: a replayed
/// layer call names the call it would have run inside.
struct Span {
    name: &'static str,
    op_id: u32,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn layer(&self) -> &'static str {
        self.name
            .split('.')
            .next()
            .expect("a span name has a layer")
    }

    fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Spans, in memory until the run ends.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn record(
        &mut self,
        name: &'static str,
        op_id: u32,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            op_id,
            parent,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Time `f` and record it.
    fn time<T>(
        &mut self,
        name: &'static str,
        op_id: u32,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        (out, self.record(name, op_id, parent, start, end))
    }

    /// Take over another thread's spans (they hold no parents).
    fn absorb(&mut self, other: Tracer) {
        assert!(other.spans.iter().all(|s| s.parent.is_none()));
        self.spans.extend(other.spans);
    }

    /// Median duration of the spans called `name`, in microseconds.
    fn p50_us(&self, name: &str) -> f64 {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect();
        assert!(!d.is_empty(), "the traced run recorded no `{name}` span");
        median(&d)
    }

    /// Self time of every span: its duration minus its direct children's.
    fn self_times_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] -= s.us();
            }
        }
        own
    }

    fn write_json(&self, path: &std::path::Path) {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(self.spans.len() * 110);
        out.push_str("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"op_id\": {}, \"parent\": ",
                s.name,
                s.layer(),
                s.op_id
            );
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            let _ = write!(
                out,
                ", \"start_ns\": {}, \"end_ns\": {}}}",
                s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
}

/// The synopsis pipeline assembled from the crates' public parts, because
/// `Aqua` does not hand out its plan, its sample or its query cache:
/// census → allocation → draw → stratified input → Integrated plan.
struct Shadow {
    input: StratifiedInput,
    plan: Integrated,
    cache: QueryCache,
}

impl Shadow {
    fn build(tr: &mut Tracer, inputs: &Inputs) -> Shadow {
        let rel = &inputs.data.relation;
        let grouping = inputs.data.grouping_columns();
        let space = inputs.scale.space() as f64;
        let (census, _) = tr.time("congress.census", 0, None, || {
            GroupCensus::build(rel, &grouping).expect("census over the generated table")
        });
        tr.time("congress.alloc", 0, None, || {
            Congress.allocate(&census, space).expect("allocation")
        });
        let (sample, _) = tr.time("congress.draw", 0, None, || {
            CongressionalSample::draw_par(
                rel,
                &census,
                &Congress,
                space,
                &SeedSpec::new(inputs.seed),
            )
            .expect("draw")
        });
        let input = sample.to_stratified_input(rel).expect("stratified input");
        let plan = Integrated::build(&input).expect("integrated plan");
        Shadow {
            input,
            plan,
            cache: QueryCache::new(),
        }
    }
}

/// Replays layer calls next to the operations of the traced block.
struct Replayer {
    /// Second instance of the system, fed the same inputs as the first.
    probe: Arc<Aqua>,
    shadow: Shadow,
    /// The generated table with its zone maps and encoded twin built.
    base: Relation,
    /// A synopsis of this file's own, to reach `Synopsis::ingest`.
    maintainer: aqua::Synopsis,
    maintained_rows: usize,
    exact: ExactCounts,
}

/// `ExecTrace` counts summed over the replayed exact queries (a trace
/// serves one query, so each replay reads its own into these).
#[derive(Default)]
struct ExactCounts {
    queries: u64,
    rows_scanned: u64,
    chunks_scanned: u64,
    chunks_pruned: u64,
    /// Predicate leaves answered in the code domain plus encoded folds,
    /// counted per chunk; a query with two leaves can score two a chunk.
    kernel_evals: u64,
}

fn answer_cache_hits(aqua: &Aqua) -> u64 {
    aqua.stats().counter("aqua_answer_cache_hits_total")
}

impl Replayer {
    /// The layer calls behind one approximate query. With `http`, the
    /// front end's pure functions too. `parent` is the operation's outer
    /// span, if the call pattern belongs to one.
    fn replay_query(
        &mut self,
        tr: &mut Tracer,
        op_id: u32,
        parent: Option<SpanId>,
        sql: &str,
        http: bool,
    ) {
        if http {
            let request = query_request(sql);
            tr.time("server.http_parse", op_id, parent, || {
                server::http::parse(&request)
            });
        }
        // Normalisation runs inside `answer_sql_shared`; its span is
        // recorded once the enclosing span has an id.
        let norm_start = Instant::now();
        let key = engine::sql::normalize(sql).expect("workload text normalises");
        let norm_end = Instant::now();

        let hits_before = answer_cache_hits(&self.probe);
        let start = Instant::now();
        let served = self
            .probe
            .answer_sql_shared(sql)
            .expect("workload text answers");
        let end = Instant::now();
        let hit = answer_cache_hits(&self.probe) > hits_before;
        let name = if hit {
            "aqua.answer_hit"
        } else {
            "aqua.answer_miss"
        };
        let answer = tr.record(name, op_id, parent, start, end);
        tr.record(
            "engine.sql_normalize",
            op_id,
            Some(answer),
            norm_start,
            norm_end,
        );

        if !hit {
            let schema = self.base.schema();
            let (query, _) = tr.time("engine.sql_parse", op_id, Some(answer), || {
                engine::sql::parse(schema, &key).expect("workload text parses")
            });
            tr.time("engine.sql_render_rewritten", op_id, Some(answer), || {
                engine::sql::render_rewritten(
                    &query,
                    schema,
                    RewriteKind::Integrated,
                    "samp_rel",
                    "aux_rel",
                )
                .expect("rewrite renders")
            });
            let (_, structured) = tr.time("aqua.answer_structured", op_id, Some(answer), || {
                self.probe.answer(&query).expect("structured answer")
            });
            // The probe's query cache is warm for this query by now (the
            // call above was its second run); one untimed pass brings the
            // shadow's to the same state.
            let opts = ExecOptions {
                cache: Some(&self.shadow.cache),
                ..ExecOptions::default()
            };
            let confidence = self.probe.config().confidence;
            let shadow = &self.shadow;
            let execute = || {
                shadow
                    .plan
                    .execute_opts(&query, &opts)
                    .expect("plan executes")
            };
            let bounds = |result: &engine::QueryResult| {
                aqua::answer::compute_bounds_cached(
                    &shadow.input,
                    &query,
                    result,
                    confidence,
                    Some(&shadow.cache),
                )
                .expect("bounds")
            };
            bounds(&execute());
            let (result, _) = tr.time("engine.plan_execute", op_id, Some(structured), execute);
            tr.time("aqua.bounds", op_id, Some(structured), || bounds(&result));
        }
        if http {
            let (body, _) = tr.time("server.json_render", op_id, parent, || {
                server::json::render_answer(&served)
            });
            tr.time("server.http_response", op_id, parent, || {
                server::http::response(200, "application/json", body.as_bytes(), true)
            });
        }
    }

    /// The layer calls behind one exact query, on the generated table.
    fn replay_exact(&mut self, tr: &mut Tracer, op_id: u32, parent: Option<SpanId>, sql: &str) {
        let base = &self.base;
        let (query, _) = tr.time("engine.sql_parse", op_id, parent, || {
            engine::sql::parse(base.schema(), sql).expect("workload text parses")
        });
        let trace = ExecTrace::new();
        let opts = ExecOptions {
            trace: Some(&trace),
            ..ExecOptions::default()
        };
        let (_, exec) = tr.time("engine.exact_execute", op_id, parent, || {
            engine::execute_exact_opts(base, &query, &opts).expect("exact execution")
        });
        self.exact.queries += 1;
        self.exact.rows_scanned += trace.rows_scanned();
        self.exact.chunks_scanned += trace.chunks_scanned();
        self.exact.chunks_pruned += trace.chunks_pruned();
        self.exact.kernel_evals +=
            trace.kernel_pred_chunks() + trace.kernel_fold_sum() + trace.kernel_fold_minmax();
        tr.time("relation.predicate_eval", op_id, Some(exec), || {
            // What `execute_exact_opts` calls first, by the same switch.
            if opts.kernels {
                query
                    .predicate
                    .eval_pruned_kernels(base, &mut KernelStats::default())
            } else {
                query.predicate.eval_pruned(base)
            }
        });
    }

    /// The layer calls behind one ingest.
    fn replay_ingest(
        &mut self,
        tr: &mut Tracer,
        op_id: u32,
        parent: Option<SpanId>,
        batch: &[Vec<Value>],
    ) {
        let (_, insert) = tr.time("aqua.insert_batch", op_id, parent, || {
            self.probe.insert_batch(batch).expect("probe ingests")
        });
        let schema = self.base.schema();
        let (rows, _) = tr.time("relation.builder", op_id, Some(insert), || {
            let mut builder = RelationBuilder::from_schema(schema);
            for row in batch {
                builder.push_row(row).expect("batch row fits the schema");
            }
            builder.finish()
        });
        let first_row = self.maintained_rows;
        tr.time("congress.maintainer", op_id, Some(insert), || {
            self.maintainer
                .ingest(&rows, first_row)
                .expect("maintainer ingests")
        });
        self.maintained_rows += rows.row_count();
        tr.time("relation.concat", op_id, Some(insert), || {
            Relation::concat(&[&self.base, &rows]).expect("concat")
        });
        // The refresh the next query would pay, on its own.
        tr.time("aqua.refresh", op_id, None, || {
            self.probe.refresh().expect("probe refreshes")
        });
    }
}

/// Observer of the traced block: an outer span per operation, and for the
/// chosen units the layer replays.
struct TraceObserver<'r> {
    tracer: Tracer,
    workload: Workload,
    client: usize,
    /// Replay the layer calls of every `replay_every`-th unit.
    replay_every: usize,
    /// Only the first client replays; the others just record outer spans.
    replayer: Option<&'r mut Replayer>,
    /// Query latencies, for the overhead figure.
    latencies: Latencies,
}

impl Observer for TraceObserver<'_> {
    fn op_done(&mut self, index: usize, op: Op<'_>, start: Instant, end: Instant, _ok: bool) {
        let op_id = (index * self.workload.clients() + self.client) as u32;
        let name = match (&op, self.workload) {
            (Op::Ingest(_), _) => "workload.insert_batch",
            (_, Workload::DashHttp | Workload::AdhocHttp) => "workload.http_query",
            (_, Workload::ExactScan) => "workload.exact_sql",
            (_, Workload::IngestInterleave) => "workload.answer_sql",
        };
        let outer = self.tracer.record(name, op_id, None, start, end);
        self.latencies.push(&op, start, end);
        let Some(replayer) = self.replayer.as_deref_mut() else {
            return;
        };
        let unit = index / self.workload.ops_per_unit();
        let chosen = unit.is_multiple_of(self.replay_every);
        match (op, self.workload) {
            // Every ingest is replayed, so that the probe's table and
            // caches stay in step with the system's.
            (Op::Ingest(batch), _) => {
                replayer.replay_ingest(&mut self.tracer, op_id, Some(outer), batch)
            }
            (Op::Query(sql), Workload::ExactScan) if chosen => {
                replayer.replay_exact(&mut self.tracer, op_id, Some(outer), sql)
            }
            (Op::Query(sql), workload) if chosen => {
                let http = workload != Workload::IngestInterleave;
                replayer.replay_query(&mut self.tracer, op_id, Some(outer), sql, http)
            }
            _ => {}
        }
    }
}

/// Query latencies in microseconds: all the untraced block records, and
/// what the overhead figure compares.
#[derive(Default, Clone)]
struct Latencies(Vec<f64>);

impl Latencies {
    fn push(&mut self, op: &Op<'_>, start: Instant, end: Instant) {
        if matches!(op, Op::Query(_)) {
            self.0.push(end.duration_since(start).as_secs_f64() * 1e6);
        }
    }
}

impl Observer for Latencies {
    fn op_done(&mut self, _: usize, op: Op<'_>, start: Instant, end: Instant, _: bool) {
        self.push(&op, start, end);
    }
}

fn p50(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(&values, 0.5)
}

/// Hit fraction out of two `stats()` snapshots' hit and miss counters.
fn hit_frac(before: &obs::Snapshot, after: &obs::Snapshot, hits: &str, misses: &str) -> f64 {
    let h = after.counter(hits) - before.counter(hits);
    let m = after.counter(misses) - before.counter(misses);
    h as f64 / (h + m).max(1) as f64
}

/// Cost of one `Counter::inc` plus one `Histogram::record`, in nanoseconds.
fn obs_record_ns() -> f64 {
    const ROUNDS: u64 = 200_000;
    let registry = obs::Registry::new();
    let counter = registry.counter("bench_probe_total");
    let histogram = registry.histogram("bench_probe_us");
    let start = Instant::now();
    for i in 0..ROUNDS {
        counter.inc();
        histogram.record(std::hint::black_box(i & 1023));
    }
    let elapsed = start.elapsed();
    std::hint::black_box(counter.get());
    elapsed.as_nanos() as f64 / ROUNDS as f64
}

/// The probe instance, the shadow pipeline, the prepared table and the
/// maintainer, each built under its span. Also returns the encoded table's
/// bytes per row.
fn build_replayer(tr: &mut Tracer, inputs: &Inputs) -> (Replayer, f64) {
    let (probe, _) = tr.time("aqua.build", 0, None, || Arc::new(build_aqua(inputs)));
    let shadow = Shadow::build(tr, inputs);
    let base = inputs.data.relation.clone();
    tr.time("relation.zone_map_build", 0, None, || {
        base.zone_maps();
    });
    let (encoded, _) = tr.time("relation.encode", 0, None, || {
        EncodedRelation::encode(&base)
    });
    let encoded_bytes_per_row = encoded.encoded_bytes() as f64 / base.row_count() as f64;
    drop(encoded);
    base.encoded();
    let mut maintainer = aqua::Synopsis::new(
        inputs::aqua_config(inputs.seed, inputs.scale),
        inputs.data.grouping_columns(),
    )
    .expect("maintainer synopsis");
    maintainer
        .ingest(&base, 0)
        .expect("maintainer sees the table");
    let replayer = Replayer {
        probe,
        shadow,
        maintained_rows: base.row_count(),
        base,
        maintainer,
        exact: ExactCounts::default(),
    };
    (replayer, encoded_bytes_per_row)
}

/// What the probe pass's HTTP client and server counted.
struct ProbeHttp {
    requests: u64,
    body_bytes: u64,
    server: obs::Snapshot,
}

/// Span ids of the probe pass start here, clear of the traced block's.
const PROBE_OP_BASE: u32 = u32::MAX / 2;

/// The probe pass: every layer call a few times on every workload, whatever
/// its own operations touch. A few ingests; then each of the first 16 texts
/// in-process (a miss, the ingest having emptied the answer cache), over
/// HTTP (now a hit, its layer calls replayed under the round trip's span)
/// and through the exact path.
fn probe_pass(tr: &mut Tracer, replayer: &mut Replayer, inputs: &Inputs) -> io::Result<ProbeHttp> {
    let mut op_id = PROBE_OP_BASE;
    for k in 0..PROBE_BATCHES {
        let batch = inputs::ingest_batch(inputs.seed, &inputs.data.relation, PROBE_BATCH_BASE + k);
        replayer.replay_ingest(tr, op_id, None, &batch);
        op_id += 1;
    }
    let server = Server::bind(
        ServerConfig::default(),
        Arc::clone(&replayer.probe) as Arc<dyn QueryBackend>,
    )?;
    let mut client = Client::connect(server.local_addr())?;
    let mut requests = 0;
    let mut body_bytes = 0;
    for sql in inputs.sqls.iter().take(DASH_QUERIES) {
        replayer.replay_query(tr, op_id, None, sql, false);
        op_id += 1;
        let request = query_request(sql);
        let start = Instant::now();
        let (status, body) = client.round_trip(&request)?;
        let end = Instant::now();
        if status != 200 {
            return Err(io::Error::other(format!("probe query answered {status}")));
        }
        requests += 1;
        body_bytes += body.len() as u64;
        let outer = tr.record("workload.http_query", op_id, None, start, end);
        replayer.replay_query(tr, op_id, Some(outer), sql, true);
        replayer.replay_exact(tr, op_id, None, sql);
        op_id += 1;
    }
    drop(client);
    let snapshot = server.snapshot();
    server.shutdown();
    Ok(ProbeHttp {
        requests,
        body_bytes,
        server: snapshot,
    })
}

/// `Warehouse::save_all` and `Warehouse::open` of `main`'s final table on a
/// temporary store, each under its span.
fn warehouse_round_trip(tr: &mut Tracer, main: &Aqua, inputs: &Inputs, workload: Workload) {
    let (warehouse, store, dir) =
        temp_warehouse(main, inputs, &format!("trace_{}", workload.name()));
    tr.time("aqua.warehouse_save", 0, None, || {
        warehouse.save_all(&store).expect("warehouse saves")
    });
    tr.time("aqua.warehouse_open", 0, None, || {
        Warehouse::open(&store, RecoveryPolicy::Rebuild).expect("warehouse opens")
    });
    std::fs::remove_dir_all(&dir).expect("remove the temporary store");
}

/// Per replayed operation: how much of its outer span the spans beneath it
/// account for.
struct Coverage {
    /// Covered share, one entry per replayed operation of the traced block.
    fracs: Vec<f64>,
    /// The remainder in microseconds, same operations.
    unattributed_us: Vec<f64>,
    /// The remainder of every replayed HTTP operation, the probe pass's
    /// included: reactor, queue hand-off, sockets.
    front_end_us: Vec<f64>,
}

fn coverage(tr: &Tracer) -> Coverage {
    let own = tr.self_times_us();
    let mut covered = vec![0.0; tr.spans.len()];
    // Children follow their parents in the list, so one backward pass
    // folds every subtree into its root.
    for i in (0..tr.spans.len()).rev() {
        if let Some(p) = tr.spans[i].parent {
            covered[p as usize] += own[i] + covered[i];
        }
    }
    let mut c = Coverage {
        fracs: Vec::new(),
        unattributed_us: Vec::new(),
        front_end_us: Vec::new(),
    };
    for (i, s) in tr.spans.iter().enumerate() {
        let replayed_query = s.parent.is_none()
            && s.name.starts_with("workload.")
            && s.name != "workload.insert_batch"
            && covered[i] > 0.0;
        if !replayed_query {
            continue;
        }
        if s.name == "workload.http_query" {
            c.front_end_us.push(own[i]);
        }
        if s.op_id < PROBE_OP_BASE {
            c.fracs.push(covered[i] / s.us());
            c.unattributed_us.push(own[i]);
        }
    }
    assert!(
        !c.fracs.is_empty(),
        "no operation of the traced block was replayed"
    );
    c
}

pub fn run(workload: Workload, seed: u64, seconds: u64, scale: Scale) -> io::Result<RunOutput> {
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch);
    let sizes = workload.sizes(seconds, scale);
    // Set-up, half a block of warm-up, an untraced block, a traced block.
    let units = DASH_QUERIES + sizes.warm + 2 * sizes.block;
    let (inputs, _) = tr.time("tpcd.generate", 0, None, || {
        Inputs::generate(workload, seed, scale, units)
    });
    let clients = workload.clients();

    let (mut session, _) = Session::start(workload, &inputs)?;
    session.run_units(sizes.warm, &mut vec![(); clients])?;

    // The untraced block: the reference the traced one is compared with,
    // and the source of the exact cache counts.
    let stats_before = session.aqua.stats();
    let rss_before = procfs::rss_bytes();
    let mut plain = vec![Latencies::default(); clients];
    session.run_units(sizes.block, &mut plain)?;
    let rss_growth = procfs::rss_bytes() - rss_before;
    let stats_after = session.aqua.stats();
    let untraced_p50 = p50(plain.into_iter().flat_map(|l| l.0).collect());
    let distinct_queries = match workload {
        Workload::DashHttp | Workload::IngestInterleave => DASH_QUERIES,
        _ => sizes.block,
    };

    let (mut replayer, encoded_bytes_per_row) = build_replayer(&mut tr, &inputs);
    // Bring the probe to where the system is: it has ingested the batches
    // so far and answered the first 16 texts (on the dashboard workloads it
    // holds them cached).
    for cycle in 0..session.ingested_rows() / BATCH_ROWS {
        let batch = inputs::ingest_batch(seed, &inputs.data.relation, cycle);
        replayer
            .probe
            .insert_batch(&batch)
            .expect("probe catches up");
    }
    for sql in inputs.sqls.iter().take(DASH_QUERIES) {
        replayer
            .probe
            .answer_sql_shared(sql)
            .expect("probe answers the set-up texts");
    }

    // The traced block.
    let mut replay_every = (sizes.block / REPLAYS_PER_BLOCK).max(1);
    if replay_every.is_multiple_of(2) {
        // Odd, so that the replays visit all 16 dashboard texts.
        replay_every += 1;
    }
    // The first client replays, and its spans name parents by position in
    // its own list, so it carries on the run's list; the other clients
    // record parentless outer spans into lists of their own.
    let mut observers: Vec<TraceObserver> = Vec::with_capacity(clients);
    let mut first = Some((
        std::mem::replace(&mut tr, Tracer::new(epoch)),
        &mut replayer,
    ));
    for client in 0..clients {
        let (tracer, replayer) = match first.take() {
            Some((tracer, replayer)) => (tracer, Some(replayer)),
            None => (Tracer::new(epoch), None),
        };
        observers.push(TraceObserver {
            tracer,
            workload,
            client,
            replay_every,
            replayer,
            latencies: Latencies::default(),
        });
    }
    session.run_units(sizes.block, &mut observers)?;
    let mut traced_latencies = Vec::new();
    for (client, o) in observers.into_iter().enumerate() {
        traced_latencies.extend(o.latencies.0);
        if client == 0 {
            tr = o.tracer;
        } else {
            tr.absorb(o.tracer);
        }
    }
    let traced_p50 = p50(traced_latencies);
    let stats_end = session.aqua.stats();
    let main_server = session.server.as_ref().map(|s| s.snapshot());
    let (main_requests, main_body_bytes) = (session.http_requests, session.http_body_bytes);
    let main = session.finish();

    let probe_http = probe_pass(&mut tr, &mut replayer, &inputs)?;
    let snapshot_bytes = replayer
        .probe
        .export_synopsis()
        .expect("synopsis exports")
        .len();
    warehouse_round_trip(&mut tr, &main, &inputs, workload);
    let cover = coverage(&tr);

    // Requests, body bytes and server counters: the workload's own (if it
    // has a socket) and the probe pass's together.
    let http_requests = (main_requests + probe_http.requests) as f64;
    let server_counter = |name: &str| -> f64 {
        let main: u64 = main_server.iter().map(|s| s.counter(name)).sum();
        (main + probe_http.server.counter(name)) as f64
    };
    let exact = &replayer.exact;
    let us = |name: &str| tr.p50_us(name);
    let ms = |name: &str| tr.p50_us(name) / 1e3;
    let s = |name: &str| tr.p50_us(name) / 1e6;
    let batch_rows_per_s = |name: &str| BATCH_ROWS as f64 / s(name);
    let values = [
        ("server.http_parse_us", us("server.http_parse")),
        ("server.json_render_us", us("server.json_render")),
        ("server.http_response_us", us("server.http_response")),
        ("server.front_end_us", median(&cover.front_end_us)),
        (
            "server.body_bytes_per_query",
            (main_body_bytes + probe_http.body_bytes) as f64 / http_requests,
        ),
        (
            "server.shed_frac",
            server_counter("server_shed_total") / http_requests,
        ),
        (
            "server.coalesced_frac",
            server_counter("server_coalesced_total") / http_requests,
        ),
        ("aqua.answer_hit_us", us("aqua.answer_hit")),
        ("aqua.answer_miss_us", us("aqua.answer_miss")),
        ("aqua.answer_structured_us", us("aqua.answer_structured")),
        ("aqua.bounds_us", us("aqua.bounds")),
        (
            "aqua.answer_cache_hit_frac",
            hit_frac(
                &stats_before,
                &stats_after,
                "aqua_answer_cache_hits_total",
                "aqua_answer_cache_misses_total",
            ),
        ),
        (
            "aqua.plan_cache_hit_frac",
            hit_frac(
                &stats_before,
                &stats_after,
                "aqua_plan_cache_hits_total",
                "aqua_plan_cache_misses_total",
            ),
        ),
        (
            "aqua.cache_bytes_per_distinct_query",
            rss_growth / distinct_queries as f64,
        ),
        ("aqua.insert_batch_ms", ms("aqua.insert_batch")),
        (
            "aqua.ingest_rows_per_s",
            batch_rows_per_s("aqua.insert_batch"),
        ),
        ("aqua.refresh_ms", ms("aqua.refresh")),
        ("aqua.build_s", s("aqua.build")),
        ("aqua.warehouse_save_s", s("aqua.warehouse_save")),
        ("aqua.warehouse_open_s", s("aqua.warehouse_open")),
        ("engine.sql_normalize_us", us("engine.sql_normalize")),
        ("engine.sql_parse_us", us("engine.sql_parse")),
        (
            "engine.sql_render_rewritten_us",
            us("engine.sql_render_rewritten"),
        ),
        ("engine.plan_execute_us", us("engine.plan_execute")),
        ("engine.exact_execute_us", us("engine.exact_execute")),
        (
            "engine.rows_scanned_per_query",
            exact.rows_scanned as f64 / exact.queries as f64,
        ),
        (
            "engine.chunks_pruned_frac",
            exact.chunks_pruned as f64 / (exact.chunks_scanned + exact.chunks_pruned).max(1) as f64,
        ),
        (
            "engine.kernel_evals_per_scanned_chunk",
            exact.kernel_evals as f64 / exact.chunks_scanned.max(1) as f64,
        ),
        (
            "engine.query_cache_hit_frac",
            hit_frac(
                &stats_before,
                &stats_end,
                "aqua_cache_hits_total",
                "aqua_cache_misses_total",
            ),
        ),
        ("relation.predicate_eval_us", us("relation.predicate_eval")),
        ("relation.encode_s", s("relation.encode")),
        ("relation.encoded_bytes_per_row", encoded_bytes_per_row),
        ("relation.zone_map_build_ms", ms("relation.zone_map_build")),
        ("relation.concat_ms", ms("relation.concat")),
        (
            "relation.builder_rows_per_s",
            batch_rows_per_s("relation.builder"),
        ),
        ("congress.census_s", s("congress.census")),
        ("congress.alloc_ms", ms("congress.alloc")),
        ("congress.draw_s", s("congress.draw")),
        (
            "congress.maintainer_rows_per_s",
            batch_rows_per_s("congress.maintainer"),
        ),
        (
            "congress.snapshot_bytes_per_sample_row",
            snapshot_bytes as f64 / replayer.probe.synopsis_rows() as f64,
        ),
        ("obs.record_ns", obs_record_ns()),
        ("tpcd.generate_s", s("tpcd.generate")),
        ("trace.coverage_frac", median(&cover.fracs)),
        ("trace.unattributed_us", median(&cover.unattributed_us)),
        ("trace.overhead_frac", traced_p50 / untraced_p50 - 1.0),
    ];
    assert!(
        PER_LAYER
            .iter()
            .map(|def| def.name)
            .eq(values.iter().map(|(name, _)| *name)),
        "the values above follow the catalogue's order"
    );
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .zip(values)
        .map(|(def, (_, value))| Metric {
            name: def.name,
            value,
            unit: def.unit,
        })
        .collect();

    let out = report::out_dir();
    tr.write_json(&out.join(format!("trace_{}.json", workload.name())));
    let mut facts = vec![
        ("workload", Fact::Text(workload.name().to_string())),
        ("seed", Fact::Number(seed as f64)),
        ("seconds", Fact::Number(seconds as f64)),
        ("rows", Fact::Number(scale.rows as f64)),
        ("block_units_per_client", Fact::Number(sizes.block as f64)),
        ("replay_every_units", Fact::Number(replay_every as f64)),
        (
            "replayed_operations",
            Fact::Number(cover.fracs.len() as f64),
        ),
        ("spans", Fact::Number(tr.spans.len() as f64)),
        ("untraced_lat_p50_us", Fact::Number(untraced_p50)),
        ("traced_lat_p50_us", Fact::Number(traced_p50)),
    ];
    facts.extend(report::environment_facts());
    report::write_run_file(
        &out.join(format!("trace_run_{}.json", workload.name())),
        &metrics,
        &facts,
    );

    for m in &metrics {
        println!("{}/{} {} {}", workload.name(), m.name, m.value, m.unit);
    }
    println!(
        "{}/tracing_overhead traced outer-span p50 {traced_p50:.3} us over untraced \
         lat_p50_us {untraced_p50:.3} us, {} operations replayed, {} spans",
        workload.name(),
        cover.fracs.len(),
        tr.spans.len()
    );
    Ok(RunOutput {
        correct: true,
        attempted: (clients * 2 * sizes.block * workload.ops_per_unit()) as u64,
        failed: 0,
        metrics,
    })
}
