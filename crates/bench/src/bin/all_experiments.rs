//! Runs the full experiment suite and prints every table — the input for
//! EXPERIMENTS.md — followed by the sweep's wall-clock line.
//!
//! With positional experiment ids (`all_experiments E8 a1`) it prints just
//! those tables, in sweep order, and nothing else.

use isis_bench::experiments as ex;
use std::process::ExitCode;

fn main() -> ExitCode {
    let q = isis_bench::quick_mode();
    let only: Vec<String> = std::env::args().skip(1).collect();
    if !only.is_empty() {
        if let Some(bad) = only.iter().find(|id| ex::by_id(id).is_none()) {
            let valid = ex::ALL.map(|(id, _)| id).join(" ");
            eprintln!("all_experiments: unknown experiment {bad:?}; valid ids: {valid}");
            return ExitCode::from(2);
        }
        for (id, table) in ex::ALL {
            if only.iter().any(|o| o.eq_ignore_ascii_case(id)) {
                table(q).print();
            }
        }
        return ExitCode::SUCCESS;
    }

    let jobs = isis_bench::jobs();
    let t0 = std::time::Instant::now();
    let tables: Vec<isis_bench::Table> = ex::ALL.iter().map(|(_, table)| table(q)).collect();
    let wall_clock_s = t0.elapsed().as_secs_f64();
    for t in &tables {
        t.print();
    }
    println!("sweep wall-clock: {wall_clock_s:.2} s with {jobs} job(s)");
    ExitCode::SUCCESS
}
