//! The full Figure-2 experience: SQL in, rewritten SQL + approximate
//! answer with bounds out.
//!
//! A canned analyst session runs TPC-D-flavoured SQL against a 2%
//! congressional synopsis; each step prints the original SQL, the
//! rewritten SQL the middleware would hand the back-end DBMS (Figures
//! 8–11), the approximate answer with 90% bounds, and the exact answer
//! for comparison.
//!
//! Run: `cargo run --release --example sql_session`
//! Pipe your own queries: `echo "SELECT ..." | cargo run --release --example sql_session -- -`

use std::io::BufRead;

use aqua::{Aqua, AquaConfig, Request, SamplingStrategy};
use tpcd::{GeneratorConfig, TpcdDataset};

fn main() {
    let ds = TpcdDataset::generate(GeneratorConfig {
        table_size: 300_000,
        num_groups: 27,
        group_skew: 1.0,
        agg_skew: 0.86,
        seed: 2000,
    });
    let aqua = Aqua::build(
        ds.relation.clone(),
        ds.grouping_columns(),
        AquaConfig {
            space: 6_000,
            strategy: SamplingStrategy::Congress,
            seed: 14,
            ..AquaConfig::default()
        },
    )
    .expect("aqua builds");
    println!(
        "lineitem: {} rows; synopsis: {} tuples (Congress, Nested-integrated)\n",
        aqua.table_rows(),
        aqua.synopsis_rows()
    );

    let canned = [
        "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty \
         FROM lineitem GROUP BY l_returnflag, l_linestatus;",
        "SELECT l_returnflag, AVG(l_extendedprice * (1 - 0.05)) AS avg_discounted \
         FROM lineitem WHERE l_quantity >= 10 GROUP BY l_returnflag;",
        "SELECT COUNT(*) AS n FROM lineitem WHERE l_id BETWEEN 1000 AND 22000;",
        "SELECT l_returnflag, SUM(l_quantity) AS s FROM lineitem \
         GROUP BY l_returnflag HAVING s > 1000000;",
    ];

    let from_stdin = std::env::args().any(|a| a == "-");
    let queries: Vec<String> = if from_stdin {
        std::io::stdin()
            .lock()
            .lines()
            .map_while(std::io::Result::ok)
            .filter(|l| !l.trim().is_empty())
            .collect()
    } else {
        canned.iter().map(|s| s.to_string()).collect()
    };

    for sql in queries {
        println!("── SQL ──────────────────────────────────────────────");
        println!("{sql}");
        match aqua.run(&Request::sql(&sql)) {
            Ok(served) => {
                println!("── rewritten for the synopsis (Figure 8–11 style) ──");
                println!("{}", served.rewritten);
                println!("── approximate answer ──");
                print!("{}", served.answer);
                match aqua.exact_sql(&sql) {
                    Ok(exact) => {
                        println!("── exact answer ──");
                        print!("{exact}");
                    }
                    Err(e) => println!("(exact execution failed: {e})"),
                }
            }
            Err(e) => println!("error: {e}"),
        }
        println!();
    }
}
