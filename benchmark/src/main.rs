//! The repo benchmark. It drives the system through its public surface only
//! — `server::Server` over loopback HTTP and `Aqua::{build,
//! answer_sql_shared, exact_sql, insert_batch}` — on four fixed-work
//! workloads, and in a separate traced run times the calls into each
//! crate's public functions. See `benchmark/README.md`.

mod accuracy;
mod drive;
mod http;
mod inputs;
mod procfs;
mod repeat;
mod report;
mod run;
mod stats;
mod trace;

use std::process::ExitCode;

use drive::Workload;
use inputs::{Scale, DEFAULT_SEED};

const USAGE: &str = "\
usage: benchmark <command> [options]

commands:
  run     measure one workload and print its end-to-end metrics
          (--trace 1: the traced run instead, printing the per-layer metrics)
  trace   the same as `run --trace 1`
  repeat  run all four workloads (or the one named) --sets times and
          compare the sets

options:
  --workload <name>  dash_http | adhoc_http | exact_scan | ingest_interleave
  --all              every workload, one process each (run and trace)
  --seed <n>         seeds the table, every query constant and every batch
                     (default 20000516)
  --seconds <n>      amount of work: what took about n seconds of timed
                     phase when the benchmark was defined (default 18)
  --trace <0|1>      0: measured run, tracing off; 1: traced run
  --quick            50,000 rows and a twentieth of the operations; checks
                     outputs and the metric schema, timings not comparable
  --sets <n>         repeat: number of sets (default 3)
  --vary-seed        repeat: set i uses seed + i, as the driver's check does
";

/// Seconds of work a run does when `--seconds` is not given; also
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 18;

pub struct Options {
    pub workload: Option<Workload>,
    pub all: bool,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
    pub sets: usize,
    pub vary_seed: bool,
}

impl Options {
    pub fn scale(&self) -> Scale {
        if self.quick {
            Scale::QUICK
        } else {
            Scale::FULL
        }
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        all: false,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        sets: 3,
        vary_seed: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("{flag}: `{v}` is not a number"))
        }
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                o.workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--all" => o.all = true,
            "--seed" => o.seed = number(flag, value()?)?,
            "--seconds" => o.seconds = number(flag, value()?)?,
            "--trace" => {
                o.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--quick" => o.quick = true,
            "--sets" => o.sets = number(flag, value()?)?,
            "--vary-seed" => o.vary_seed = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if o.seconds == 0 || o.sets == 0 {
        return Err("--seconds and --sets must be at least 1".into());
    }
    Ok(o)
}

/// One workload in this process. The result line is the last thing printed.
fn run_one(workload: Workload, o: &Options) -> ExitCode {
    if o.quick {
        eprintln!("warning: --quick timings are not comparable with a full run");
    }
    let output = if o.trace {
        trace::run(workload, o.seed, o.seconds, o.scale())
    } else {
        run::run(workload, o.seed, o.seconds, o.scale())
    };
    match output {
        Ok(out) => {
            println!(
                "{}",
                report::result_line(out.correct, out.attempted, out.failed, &out.metrics)
            );
            if out.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("{}: an output check failed", workload.name());
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{}: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let mut options = match parse_options(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match command.as_str() {
        "trace" | "run" => {
            options.trace |= command == "trace";
            match (options.workload, options.all) {
                (Some(workload), false) => run_one(workload, &options),
                // Each workload gets a process of its own: peak memory is a
                // per-process high-water mark.
                (None, true) => repeat::run_all(&options),
                _ => {
                    eprintln!("give --workload <name> or --all\n\n{USAGE}");
                    ExitCode::FAILURE
                }
            }
        }
        "repeat" => repeat::repeat(&options),
        _ => {
            eprintln!("unknown command `{command}`\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
