//! Experiment 4 (§7.3.2, Figure 18): execution time of the four rewriting
//! strategies on `Q_{g2}` as the number of groups grows (SP = 7%).
//!
//! Run: `cargo run -p bench --release --bin expt4 [-- --quick]`
//!
//! Paper-expected shape: Integrated and Nested-integrated nearly flat and
//! fastest; Normalized-family slower (join); Nested-integrated beats
//! Integrated at low group counts but degrades past it at very high group
//! counts (per-group multiply overhead + nested plan).
//!
//! Each cell is the median and quartiles, in µs, of 15 timed runs (5 under
//! `--quick`) after one discarded warm-up. The binary exits non-zero if a
//! median reads 0 µs.

use aqua::{RewriteChoice, SamplingStrategy};
use bench::harness::{build_plan, ExperimentSetup};
use bench::report::{Table, Timing};
use tpcd::GeneratorConfig;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let runs = if quick { 5 } else { 15 };
    let table_size = if quick { 200_000 } else { 1_000_000 };
    let group_counts: &[usize] = if quick {
        &[10, 1000, 50_000]
    } else {
        &[10, 100, 1000, 10_000, 50_000, 200_000]
    };

    let mut table = Table::new(
        format!(
            "Figure 18: Qg2 execution time (µs, median [quartiles] of {runs} runs) vs number of \
             groups (SP=7%) [expect: Integrated-family flat & fast; Nested beats Integrated at \
             low NG, loses at high NG]"
        ),
        &[
            "NG",
            "Integrated",
            "Nested-integrated",
            "Normalized",
            "Key-normalized",
        ],
    );
    let mut timings = Vec::new();
    for &ng in group_counts {
        eprintln!("generating lineitem: T={table_size}, NG={ng} ...");
        let setup = ExperimentSetup::new(GeneratorConfig {
            table_size,
            num_groups: ng,
            group_skew: 0.86,
            agg_skew: 0.86,
            seed: 20000517,
        });
        let mut cells = vec![ng.to_string()];
        for rewrite in RewriteChoice::all() {
            let plan = build_plan(&setup, SamplingStrategy::Congress, rewrite, 0.07, 4_000);
            let t = Timing::measure(runs, || {
                let _ = plan.execute(&setup.qg2).unwrap();
            });
            cells.push(t.to_string());
            timings.push(t);
        }
        table.row(&cells);
    }
    println!("{table}");
    if timings.iter().any(Timing::unreadable) {
        eprintln!("expt4: a median reads 0 µs");
        std::process::exit(1);
    }
}
