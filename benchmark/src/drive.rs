//! The four workloads: what each one's operation sequence is, and the loops
//! that push it through the system's public surface. The same loops serve
//! the measured run and the traced run; what differs is the [`Observer`].

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aqua::{Aqua, ServedAnswer};
use engine::QueryResult;
use relation::Value;
use server::{QueryBackend, Server, ServerConfig};
use tpcd::TpcdDataset;

use crate::http::{query_request, Client};
use crate::inputs::{self, Scale, ScanQuery, DASH_QUERIES};
use crate::stats::{BlockRecorder, BLOCKS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DashHttp,
    AdhocHttp,
    ExactScan,
    IngestInterleave,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DashHttp,
        Workload::AdhocHttp,
        Workload::ExactScan,
        Workload::IngestInterleave,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DashHttp => "dash_http",
            Workload::AdhocHttp => "adhoc_http",
            Workload::ExactScan => "exact_scan",
            Workload::IngestInterleave => "ingest_interleave",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Load-generator threads, each with its own connection where there is
    /// a socket. Never more than the 2 cores the benchmark was sized on.
    pub fn clients(self) -> usize {
        match self {
            Workload::DashHttp => 2,
            _ => 1,
        }
    }

    /// A query slower than this — or refused, or failed — misses the limit.
    /// Fixed per workload and far from any mode of its latency distribution.
    pub fn latency_limit(self) -> Duration {
        Duration::from_millis(match self {
            Workload::DashHttp => 2,
            Workload::AdhocHttp => 10,
            Workload::ExactScan | Workload::IngestInterleave => 50,
        })
    }

    /// Operations in one unit of work: a query, or for `ingest_interleave`
    /// one cycle of an ingest plus [`INGEST_PASSES`] passes over the
    /// dashboard texts.
    pub fn ops_per_unit(self) -> usize {
        match self {
            Workload::IngestInterleave => 1 + INGEST_PASSES * DASH_QUERIES,
            _ => 1,
        }
    }

    /// Units per client each second of `--seconds` buys, at the speed of
    /// the tree this benchmark was defined on. The work is a function of
    /// the arguments only — never of how fast the run goes — so that op
    /// counts, cache sizes and memory repeat exactly; a faster tree
    /// finishes the same work sooner.
    fn units_per_second(self) -> f64 {
        match self {
            Workload::DashHttp => 7_000.0,
            Workload::AdhocHttp => 410.0,
            Workload::ExactScan => 95.0,
            Workload::IngestInterleave => 11.0,
        }
    }

    pub fn sizes(self, seconds: u64, scale: Scale) -> Sizes {
        let timed = self.units_per_second() * seconds as f64 / scale.ops_div as f64;
        let block = ((timed / BLOCKS as f64).round() as usize).max(1);
        Sizes {
            warm: block.div_ceil(2),
            block,
        }
    }
}

/// Units of work per client: an untimed warm-up, then [`BLOCKS`] blocks.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub warm: usize,
    pub block: usize,
}

impl Sizes {
    pub fn timed(&self) -> usize {
        self.block * BLOCKS
    }
}

/// What the program is fed for one workload.
pub struct Inputs {
    pub seed: u64,
    pub scale: Scale,
    pub data: TpcdDataset,
    /// The workload's query texts: the 16 dashboard texts, or one text per
    /// query for the never-repeating workloads.
    pub sqls: Vec<String>,
    /// `exact_scan` only: the constants behind `sqls`, for the reference
    /// evaluator.
    pub scans: Vec<ScanQuery>,
}

impl Inputs {
    /// Generate the table and, for the never-repeating workloads, `units`
    /// query texts: enough for set-up, warm-up and the timed work.
    pub fn generate(workload: Workload, seed: u64, scale: Scale, units: usize) -> Inputs {
        let data = inputs::generate(seed, scale);
        let rows = data.relation.row_count();
        let (sqls, scans) = match workload {
            Workload::DashHttp | Workload::IngestInterleave => {
                (inputs::dashboard_sqls(&data), Vec::new())
            }
            Workload::AdhocHttp => (inputs::adhoc_sqls(seed, rows, units), Vec::new()),
            Workload::ExactScan => {
                let scans = inputs::scan_queries(seed, rows, units);
                (scans.iter().map(|q| q.sql.clone()).collect(), scans)
            }
        };
        Inputs {
            seed,
            scale,
            data,
            sqls,
            scans,
        }
    }
}

/// One operation, as an observer sees it.
pub enum Op<'a> {
    Query(&'a str),
    Ingest(&'a [Vec<Value>]),
}

/// Told about every operation a client completes. `index` counts the
/// client's operations within the current `run_units` call.
pub trait Observer {
    fn op_done(&mut self, index: usize, op: Op<'_>, start: Instant, end: Instant, ok: bool);
}

/// Warm-up: nothing is recorded.
impl Observer for () {
    fn op_done(&mut self, _: usize, _: Op<'_>, _: Instant, _: Instant, _: bool) {}
}

impl Observer for BlockRecorder {
    fn op_done(&mut self, index: usize, op: Op<'_>, start: Instant, end: Instant, ok: bool) {
        self.record(index, matches!(op, Op::Query(_)), end - start, ok);
    }
}

pub fn build_aqua(inputs: &Inputs) -> Aqua {
    Aqua::build(
        inputs.data.relation.clone(),
        inputs.data.grouping_columns(),
        inputs::aqua_config(inputs.seed, inputs.scale),
    )
    .expect("synopsis builds over the generated table")
}

fn same_answer(a: &ServedAnswer, b: &ServedAnswer) -> bool {
    a.rewritten == b.rewritten
        && a.answer.result == b.answer.result
        && a.answer.bounds.len() == b.answer.bounds.len()
        && a.answer
            .bounds
            .iter()
            .zip(&b.answer.bounds)
            .all(|(x, y)| x.key == y.key && x.bounds == y.bounds)
}

/// One instance of the system with a workload's clients attached, and the
/// position reached in the workload's operation sequence.
pub struct Session<'a> {
    pub workload: Workload,
    pub inputs: &'a Inputs,
    pub aqua: Arc<Aqua>,
    pub server: Option<Server>,
    clients: Vec<Client>,
    /// HTTP workloads: request bytes per query text.
    requests: Vec<Vec<u8>>,
    /// `dash_http`: the body each text must come back with.
    expected: Vec<Vec<u8>>,
    /// Units each client has run so far.
    done: usize,
    /// Round trips made and response-body bytes read, all clients together.
    pub http_requests: u64,
    pub http_body_bytes: u64,
    /// `adhoc_http`: every 50th body, compared after the run.
    pub kept_bodies: Vec<(usize, Vec<u8>)>,
    /// `exact_scan`: every `keep_every`-th result (none while 0), compared
    /// after the run.
    pub kept_results: Vec<(usize, QueryResult)>,
    pub keep_every: usize,
}

/// 1 in this many `adhoc_http` bodies is kept for the output check.
pub const ADHOC_KEEP_EVERY: usize = 50;
/// Passes over the dashboard texts after each ingest: the first misses (the
/// ingest emptied the answer cache), the others hit. Two hit passes, not
/// one, so that two thirds of the queries are hits and the median latency
/// is a typical hit; at one half it would be the slowest hit of all.
pub const INGEST_PASSES: usize = 3;

impl<'a> Session<'a> {
    /// Build a fresh instance and push the workload's first 16 operations
    /// through it cold: they build the lazy zone maps, the encoded twin
    /// and the summary tables. Returns how long that took — one `setup_s`
    /// sample.
    pub fn start(workload: Workload, inputs: &'a Inputs) -> io::Result<(Session<'a>, Duration)> {
        let http = matches!(workload, Workload::DashHttp | Workload::AdhocHttp);
        let requests: Vec<Vec<u8>> = if http {
            inputs.sqls.iter().map(|s| query_request(s)).collect()
        } else {
            Vec::new()
        };
        let start = Instant::now();
        let aqua = Arc::new(build_aqua(inputs));
        let mut session = Session {
            workload,
            inputs,
            aqua,
            server: None,
            clients: Vec::new(),
            requests,
            expected: Vec::new(),
            done: 0,
            http_requests: 0,
            http_body_bytes: 0,
            kept_bodies: Vec::new(),
            kept_results: Vec::new(),
            keep_every: 0,
        };
        if http {
            let server = Server::bind(
                ServerConfig::default(),
                Arc::clone(&session.aqua) as Arc<dyn QueryBackend>,
            )?;
            for _ in 0..workload.clients() {
                session.clients.push(Client::connect(server.local_addr())?);
            }
            session.server = Some(server);
        }
        let failed = session.cold_ops()?;
        let elapsed = start.elapsed();
        if failed > 0 {
            return Err(io::Error::other(format!(
                "{failed} of the first {DASH_QUERIES} operations failed"
            )));
        }
        if workload == Workload::DashHttp {
            session.expected = inputs
                .sqls
                .iter()
                .map(|sql| {
                    let served = session
                        .aqua
                        .answer_sql_shared(sql)
                        .expect("dashboard text answers in-process");
                    server::json::render_answer(&served).into_bytes()
                })
                .collect();
        }
        Ok((session, elapsed))
    }

    /// The first 16 operations, through the workload's own path. The
    /// never-repeating workloads consume their first 16 texts here.
    fn cold_ops(&mut self) -> io::Result<u64> {
        struct Failures(u64);
        impl Observer for Failures {
            fn op_done(&mut self, _: usize, _: Op<'_>, _: Instant, _: Instant, ok: bool) {
                self.0 += u64::from(!ok);
            }
        }
        let mut failures = Failures(0);
        match self.workload {
            Workload::DashHttp => {
                // One client asks each text once; the answers are cached
                // for both.
                let counts = http_ops(
                    &mut self.clients[0],
                    &self.requests,
                    &self.inputs.sqls,
                    0..DASH_QUERIES,
                    |_, _| true,
                    &mut failures,
                )?;
                self.count_http(counts);
            }
            Workload::IngestInterleave => {
                for (i, sql) in self.inputs.sqls.iter().enumerate() {
                    let start = Instant::now();
                    let ok = self.aqua.answer_sql_shared(sql).is_ok();
                    failures.op_done(i, Op::Query(sql), start, Instant::now(), ok);
                }
            }
            Workload::AdhocHttp | Workload::ExactScan => {
                self.run_units(DASH_QUERIES, std::slice::from_mut(&mut failures))?;
            }
        }
        Ok(failures.0)
    }

    /// Run the next `units` units of the workload on every client, each
    /// reporting to its own observer.
    pub fn run_units<O: Observer + Send>(
        &mut self,
        units: usize,
        observers: &mut [O],
    ) -> io::Result<()> {
        assert_eq!(observers.len(), self.workload.clients());
        let first = self.done;
        self.done += units;
        let sqls = &self.inputs.sqls;
        match self.workload {
            Workload::DashHttp => {
                let requests = &self.requests;
                let expected = &self.expected;
                let counts = std::thread::scope(|scope| {
                    let handles: Vec<_> = self
                        .clients
                        .iter_mut()
                        .zip(observers.iter_mut())
                        .enumerate()
                        .map(|(c, (client, observer))| {
                            // The connections start half a round apart.
                            // They do not stay there: both queue behind the
                            // 128 KB answer and then ask in step, which the
                            // server's coalescing turns into one execution
                            // (`server.coalesced_frac` is about 0.4).
                            let order = (first..first + units)
                                .map(move |i| (i + c * DASH_QUERIES / 2) % DASH_QUERIES);
                            scope.spawn(move || {
                                http_ops(
                                    client,
                                    requests,
                                    sqls,
                                    order,
                                    |text, body| body == expected[text].as_slice(),
                                    observer,
                                )
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("client thread panicked"))
                        .collect::<io::Result<Vec<_>>>()
                })?;
                counts.into_iter().for_each(|c| self.count_http(c));
                Ok(())
            }
            Workload::AdhocHttp => {
                let kept = &mut self.kept_bodies;
                let counts = http_ops(
                    &mut self.clients[0],
                    &self.requests,
                    sqls,
                    first..first + units,
                    |text, body| {
                        if text % ADHOC_KEEP_EVERY == 0 {
                            kept.push((text, body.to_vec()));
                        }
                        true
                    },
                    &mut observers[0],
                )?;
                self.count_http(counts);
                Ok(())
            }
            Workload::ExactScan => {
                for (index, text) in (first..first + units).enumerate() {
                    let sql = &sqls[text];
                    let start = Instant::now();
                    let result = self.aqua.exact_sql(sql);
                    let end = Instant::now();
                    observers[0].op_done(index, Op::Query(sql), start, end, result.is_ok());
                    if let (Ok(result), true) =
                        (result, self.keep_every > 0 && text % self.keep_every == 0)
                    {
                        self.kept_results.push((text, result));
                    }
                }
                Ok(())
            }
            Workload::IngestInterleave => {
                let observer = &mut observers[0];
                let base = &self.inputs.data.relation;
                let mut index = 0;
                for cycle in first..first + units {
                    let batch = inputs::ingest_batch(self.inputs.seed, base, cycle);
                    let start = Instant::now();
                    let ok = self.aqua.insert_batch(&batch).is_ok();
                    observer.op_done(index, Op::Ingest(&batch), start, Instant::now(), ok);
                    index += 1;
                    // First pass: every text misses, the ingest having
                    // emptied the answer cache. Later passes: every text
                    // hits, and must return what the first pass computed.
                    let mut misses: Vec<Option<Arc<ServedAnswer>>> =
                        Vec::with_capacity(DASH_QUERIES);
                    for pass in 0..INGEST_PASSES {
                        for (text, sql) in sqls.iter().enumerate() {
                            let start = Instant::now();
                            let served = self.aqua.answer_sql_shared(sql).ok();
                            let end = Instant::now();
                            let ok = match (pass, &served) {
                                (0, served) => served.is_some(),
                                (_, Some(hit)) => misses[text]
                                    .as_deref()
                                    .is_some_and(|miss| same_answer(hit, miss)),
                                (_, None) => false,
                            };
                            observer.op_done(index, Op::Query(sql), start, end, ok);
                            index += 1;
                            if pass == 0 {
                                misses.push(served);
                            }
                        }
                    }
                }
                Ok(())
            }
        }
    }

    fn count_http(&mut self, (requests, bytes): (u64, u64)) {
        self.http_requests += requests;
        self.http_body_bytes += bytes;
    }

    /// Rows ingested so far.
    pub fn ingested_rows(&self) -> usize {
        match self.workload {
            Workload::IngestInterleave => self.done * inputs::BATCH_ROWS,
            _ => 0,
        }
    }

    /// Stop the server, if there is one, and hand back the system.
    pub fn finish(mut self) -> Arc<Aqua> {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        self.aqua
    }
}

/// Send the texts numbered by `order` over one connection, one at a time.
/// An answer other than 200, or one `check` rejects, is a failed operation;
/// a broken connection ends the run.
///
/// Returns the round trips made and the body bytes read.
fn http_ops<O: Observer>(
    client: &mut Client,
    requests: &[Vec<u8>],
    sqls: &[String],
    order: impl Iterator<Item = usize>,
    mut check: impl FnMut(usize, &[u8]) -> bool,
    observer: &mut O,
) -> io::Result<(u64, u64)> {
    let mut count = 0;
    let mut bytes = 0;
    for (index, text) in order.enumerate() {
        let start = Instant::now();
        let (status, body) = client.round_trip(&requests[text])?;
        let end = Instant::now();
        count += 1;
        bytes += body.len() as u64;
        let ok = status == 200 && check(text, body);
        observer.op_done(index, Op::Query(&sqls[text]), start, end, ok);
    }
    Ok((count, bytes))
}
