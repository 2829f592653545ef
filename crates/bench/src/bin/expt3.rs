//! Experiment 3 (§7.3.1, Table 3): execution time of the four rewriting
//! strategies on `Q_{g2}` as the sample percentage grows (NG = 1000).
//!
//! Run: `cargo run -p bench --release --bin expt3 [-- --quick]`
//!
//! Paper-expected shape: Integrated-family ≫ Normalized-family; the
//! Normalized times grow steeply with sample size (join cost); running on
//! the full table is the slow baseline ("actual query time = 40 sec" on
//! the paper's hardware).
//!
//! Each cell is the median and quartiles, in µs, of 15 timed runs (5 under
//! `--quick`) after one discarded warm-up. The binary exits non-zero if a
//! median reads 0 µs.

use aqua::{RewriteChoice, SamplingStrategy};
use bench::harness::{build_plan, ExperimentSetup};
use bench::report::{Table, Timing};
use engine::execute_exact;
use tpcd::GeneratorConfig;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let runs = if quick { 5 } else { 15 };
    let config = GeneratorConfig {
        table_size: if quick { 200_000 } else { 1_000_000 },
        num_groups: 1000,
        group_skew: 0.86,
        agg_skew: 0.86,
        seed: 20000516,
    };
    eprintln!("generating lineitem: T={} ...", config.table_size);
    let setup = ExperimentSetup::new(config);

    let exact = Timing::measure(runs, || {
        let _ = execute_exact(&setup.dataset.relation, &setup.qg2).unwrap();
    });
    println!("\nactual (full-table) query time: {exact} µs");

    let mut table = Table::new(
        format!(
            "Table 3: Qg2 execution time (µs, median [quartiles] of {runs} runs) by rewrite \
             strategy vs sample % [expect: Integrated-family fastest; Normalized-family grows \
             steeply]"
        ),
        &["technique", "1%", "5%", "10%"],
    );
    let mut timings = vec![exact];
    for rewrite in RewriteChoice::all() {
        let mut cells = vec![rewrite.name().to_string()];
        for f in [0.01, 0.05, 0.10] {
            let plan = build_plan(&setup, SamplingStrategy::Congress, rewrite, f, 3_000);
            let t = Timing::measure(runs, || {
                let _ = plan.execute(&setup.qg2).unwrap();
            });
            cells.push(t.to_string());
            timings.push(t);
        }
        table.row(&cells);
        eprintln!("  {}: done", rewrite.name());
    }
    println!("{table}");
    if timings.iter().any(Timing::unreadable) {
        eprintln!("expt3: a median reads 0 µs");
        std::process::exit(1);
    }
}
