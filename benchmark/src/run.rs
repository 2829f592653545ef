//! The measured run: set-up, warm-up, six timed blocks, then — after memory
//! and CPU have been read — the extra set-up instances, the store
//! measurement and the accuracy pass. Tracing is off throughout.

use std::io;
use std::path::PathBuf;
use std::time::Duration;

use aqua::{Aqua, Warehouse};
use congress::FsStore;

use crate::accuracy::{self, Accuracy, ACCURACY_QUERIES};
use crate::drive::{Inputs, Session, Workload, ADHOC_KEEP_EVERY};
use crate::inputs::{Scale, DASH_QUERIES};
use crate::procfs;
use crate::report::{self, Fact, Metric};
use crate::stats::{median, BlockRecorder, BlockSummary, BLOCKS};

/// Fresh instances whose build-plus-cold-operations time makes `setup_s`.
const SETUP_INSTANCES: usize = 5;
/// `exact_scan` results checked against the reference evaluator.
const NAIVE_CHECKS: usize = 50;

pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// A warehouse registered with `aqua`'s table as it stands (base table +
/// synopsis), and an empty temporary store for it under `benchmark/out/`;
/// the caller removes the directory. The store is an `FsStore` with its
/// default flush policy: every blob is written to a temporary file,
/// fsynced, renamed, and its directory fsynced.
pub fn temp_warehouse(aqua: &Aqua, inputs: &Inputs, tag: &str) -> (Warehouse, FsStore, PathBuf) {
    let warehouse = Warehouse::new();
    warehouse
        .register(
            "lineitem",
            aqua.table_snapshot(),
            inputs.data.grouping_columns(),
            aqua.config(),
        )
        .expect("warehouse registers the final table");
    let dir = report::out_dir().join(format!("store_{tag}_{}", std::process::id()));
    let store = FsStore::open(&dir).expect("open the temporary store");
    (warehouse, store, dir)
}

/// Bytes `Warehouse::save_all` writes (base table + synopsis + manifest)
/// per base row.
fn store_bytes_per_row(aqua: &Aqua, inputs: &Inputs, tag: &str) -> f64 {
    let (warehouse, store, dir) = temp_warehouse(aqua, inputs, tag);
    let saved = warehouse.save_all(&store).expect("warehouse saves");
    std::fs::remove_dir_all(&dir).expect("remove the temporary store");
    saved.bytes_written as f64 / aqua.table_rows() as f64
}

pub fn run(workload: Workload, seed: u64, seconds: u64, scale: Scale) -> io::Result<RunOutput> {
    let sizes = workload.sizes(seconds, scale);
    let units = DASH_QUERIES + sizes.warm + sizes.timed();
    let inputs = Inputs::generate(workload, seed, scale, units);
    let clients = workload.clients();

    let mut setup_s = Vec::with_capacity(SETUP_INSTANCES);
    let (mut session, first_setup) = Session::start(workload, &inputs)?;
    setup_s.push(first_setup.as_secs_f64());

    session.run_units(sizes.warm, &mut vec![(); clients])?;

    session.keep_every = (sizes.timed() / NAIVE_CHECKS).max(1);
    let block_ops = sizes.block * workload.ops_per_unit();
    let mut recorders = vec![BlockRecorder::new(block_ops, workload.latency_limit()); clients];
    let cpu_before = procfs::cpu_time();
    session.run_units(sizes.timed(), &mut recorders)?;
    let cpu = procfs::cpu_time() - cpu_before;
    // Read now: everything below allocates, and none of it is the workload.
    let peak_rss_mb = procfs::peak_rss_mib();

    let queries: usize = recorders.iter().map(BlockRecorder::queries).sum();
    let attempted = (clients * sizes.timed() * workload.ops_per_unit()) as u64;
    let mut failed: u64 = recorders.iter().map(|r| r.failed).sum();
    let within_limit: u64 = recorders.iter().map(|r| r.within_limit).sum();
    let blocks = BlockSummary::from_clients(&recorders);

    // Output checks that wait for the end of the run.
    let mut correct = true;
    match workload {
        Workload::AdhocHttp => {
            for (text, body) in &session.kept_bodies {
                let served = session
                    .aqua
                    .answer_sql_shared(&inputs.sqls[*text])
                    .expect("kept text answers in-process");
                if server::json::render_answer(&served).as_bytes() != body.as_slice() {
                    failed += 1;
                }
            }
            let expected = units.div_ceil(ADHOC_KEEP_EVERY);
            correct &= session.kept_bodies.len() == expected;
        }
        Workload::ExactScan => {
            for (text, result) in &session.kept_results {
                let naive = accuracy::naive_scan(
                    &inputs.data.relation,
                    &inputs.data.ids,
                    &inputs.scans[*text],
                );
                if !accuracy::matches_naive(result, &naive) {
                    failed += 1;
                }
            }
            correct &= session.kept_results.len() >= NAIVE_CHECKS.min(sizes.timed());
        }
        Workload::IngestInterleave => {
            correct &= session.aqua.table_rows() == scale.rows + session.ingested_rows();
        }
        Workload::DashHttp => {}
    }
    correct &= failed == 0;

    let server_stats = session.server.as_ref().map(|s| s.snapshot());
    let aqua = session.finish();

    for _ in 1..SETUP_INSTANCES {
        let (extra, elapsed) = Session::start(workload, &inputs)?;
        setup_s.push(elapsed.as_secs_f64());
        extra.finish();
    }

    let store_bytes = store_bytes_per_row(&aqua, &inputs, workload.name());
    // Every text generated was asked: all 16 dashboard texts, or a seeded
    // subset of the never-repeating ones.
    let texts = accuracy::subset(seed, inputs.sqls.len(), ACCURACY_QUERIES)
        .into_iter()
        .map(|i| inputs.sqls[i].as_str());
    let Accuracy {
        err_l1_pct,
        ci_cover_frac,
        groups_found_frac,
        queries: accuracy_queries,
        cells_with_bound,
    } = accuracy::accuracy_pass(&aqua, texts);

    let metrics = report::end_to_end_metrics([
        median(&blocks.qps),
        median(&blocks.p50_us),
        median(&blocks.p95_us),
        within_limit as f64 / queries as f64,
        (attempted - failed.min(attempted)) as f64 / attempted as f64,
        cpu.as_secs_f64() * 1e6 / queries as f64,
        median(&setup_s),
        peak_rss_mb,
        store_bytes,
        err_l1_pct,
        ci_cover_frac,
        groups_found_frac,
    ]);

    let mut facts = vec![
        ("workload", Fact::Text(workload.name().to_string())),
        ("seed", Fact::Number(seed as f64)),
        ("seconds", Fact::Number(seconds as f64)),
        ("rows", Fact::Number(scale.rows as f64)),
        ("clients", Fact::Number(clients as f64)),
        ("warm_units_per_client", Fact::Number(sizes.warm as f64)),
        ("block_units_per_client", Fact::Number(sizes.block as f64)),
        ("blocks", Fact::Number(BLOCKS as f64)),
        ("timed_queries", Fact::Number(queries as f64)),
        ("attempted", Fact::Number(attempted as f64)),
        ("failed", Fact::Number(failed as f64)),
        (
            "min_block_latency_samples",
            Fact::Number(blocks.min_block_samples as f64),
        ),
        ("accuracy_queries", Fact::Number(accuracy_queries as f64)),
        (
            "accuracy_cells_with_bound",
            Fact::Number(cells_with_bound as f64),
        ),
        ("final_table_rows", Fact::Number(aqua.table_rows() as f64)),
        ("block_qps", Fact::Numbers(blocks.qps.clone())),
        ("block_lat_p50_us", Fact::Numbers(blocks.p50_us.clone())),
        ("block_lat_p95_us", Fact::Numbers(blocks.p95_us.clone())),
        ("setup_instances_s", Fact::Numbers(setup_s.clone())),
        (
            "timed_phase_s",
            Fact::Number(timed_phase(&blocks, queries).as_secs_f64()),
        ),
    ];
    if let Some(stats) = server_stats {
        facts.push((
            "server_shed_total",
            Fact::Number(stats.counter("server_shed_total") as f64),
        ));
        facts.push((
            "server_coalesced_total",
            Fact::Number(stats.counter("server_coalesced_total") as f64),
        ));
    }
    facts.extend(report::environment_facts());
    let path = report::out_dir().join(format!("run_{}.json", workload.name()));
    report::write_run_file(&path, &metrics, &facts);

    for m in &metrics {
        println!("{}/{} {} {}", workload.name(), m.name, m.value, m.unit);
    }
    println!(
        "{}/samples {} timed queries, {} per block at least, {} accuracy queries, \
         {} set-up instances",
        workload.name(),
        queries,
        blocks.min_block_samples,
        accuracy_queries,
        setup_s.len()
    );

    Ok(RunOutput {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// Length of the timed phase, from the per-block throughputs.
fn timed_phase(blocks: &BlockSummary, queries: usize) -> Duration {
    let per_block = queries as f64 / BLOCKS as f64;
    Duration::from_secs_f64(blocks.qps.iter().map(|qps| per_block / qps).sum())
}
