//! `now-perf`: the repo's benchmark. One invocation runs one workload for
//! one seed and prints, as the last line of standard output, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.
//!
//! ```text
//! now-perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! now-perf --list | --benchmark-json | --analyze <dir>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracer attached.
//! `--trace 1` runs the workload untraced and traced (the ratio is the
//! tracing overhead), reads the `stage.*` numbers off the traced pass's
//! causal log, and runs the per-layer probes. Everything else goes to
//! standard error.

mod alloc;
mod analyze;
mod json;
mod meter;
mod probes;
mod spec;
mod stage;
mod stats;
mod workloads;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

use std::collections::BTreeMap;
use std::process::ExitCode;

use stats::{least, median};
use workloads::{run_pass, Pass, Scale, Workload, MIN_REPS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

const USAGE: &str =
    "usage: now-perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
       now-perf --list | --benchmark-json | --analyze <dir>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        scale: Scale::Full,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => a.scale = Scale::Quick,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !spec::WORKLOADS.iter().any(|(n, _)| *n == a.workload) {
        return Err(format!(
            "unknown workload {:?}; --list names them",
            a.workload
        ));
    }
    Ok(a)
}

/// What one invocation reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

fn note(pass: &Pass, label: &str) {
    eprintln!(
        "[{label}] reps {}  setup {:.4} s  unit {:.4} s (least {:.4} s)  ops/rep {}",
        pass.reps,
        median(&pass.setup_s),
        median(&pass.unit_s),
        least(&pass.unit_s),
        pass.first.ops,
    );
    // One line `repeat.sh` diffs between sets: counts that are a pure
    // function of the seed.
    let exact: Vec<String> = pass
        .first
        .exact
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    eprintln!("exact {label} {}", exact.join(" "));
    for n in &pass.notes {
        eprintln!("[{label}] NOT CORRECT: {n}");
    }
}

/// The end-to-end metrics of an untraced pass: the median set-up, the
/// repetition that cost the host least (`stats::least` says why), and counts.
fn end_to_end(pass: &Pass) -> BTreeMap<&'static str, f64> {
    let ops = pass.first.ops as f64;
    let latency = pass.latency_us();
    let per_rep = |f: &dyn Fn(usize) -> f64| (0..pass.reps).map(f).collect::<Vec<_>>();
    BTreeMap::from([
        ("setup_s", median(&pass.setup_s)),
        ("ops_per_s", ops / least(&pass.unit_s)),
        (
            "msgs_per_s",
            1.0 / least(&per_rep(&|i| pass.unit_s[i] / pass.msgs[i] as f64)),
        ),
        (
            "msgs_per_op",
            median(&per_rep(&|i| pass.msgs[i] as f64 / ops)),
        ),
        ("lat_p50_us", latency[0]),
        ("lat_p90_us", latency[1]),
        ("cpu_us_per_op", least(&pass.cpu_s) * 1e6 / ops),
        (
            "peak_heap_mb",
            median(&per_rep(&|i| pass.peak_heap[i] as f64 / f64::from(1 << 20))),
        ),
    ])
}

fn drive<W: Workload>(w: &W, a: &Args) -> Outcome {
    if !a.trace {
        let pass = run_pass(w, a.seed, a.seconds, false, MIN_REPS);
        note(&pass, "untraced");
        return Outcome {
            correct: pass.correct,
            attempted: pass.attempted,
            failed: pass.failed,
            metrics: end_to_end(&pass),
        };
    }
    // A quarter of the budget each for the untraced and the traced pass of
    // the workload, the rest for the probes.
    let plain = run_pass(w, a.seed, a.seconds / 4.0, false, 1);
    note(&plain, "untraced");
    // Before the traced pass and the probes add to it.
    let peak_rss_mb = meter::peak_rss_mb();
    let traced = run_pass(w, a.seed, a.seconds / 4.0, true, 1);
    note(&traced, "traced");
    let mut correct = plain.correct && traced.correct;
    if plain.first.exact != traced.first.exact {
        correct = false;
        eprintln!(
            "NOT CORRECT: traced exact counts {:?} differ from untraced {:?}",
            traced.first.exact, plain.first.exact
        );
    }
    let first = &traced.first;
    let ops = first.ops.max(1) as f64;
    let mut metrics = if first.events.is_empty() {
        stage::metrics_from_census(&first.census, first.ops)
    } else {
        stage::metrics(&first.events, first.ops)
    };
    metrics.insert("stage.max_fanout", first.max_fanout as f64);
    metrics.insert("stage.sim_lat_p50_us", first.sim_lat_us.0);
    metrics.insert("stage.sim_lat_p99_us", first.sim_lat_us.1);
    metrics.insert("stage.op_p99_us", plain.latency_us()[2]);
    metrics.insert("alloc.count_per_op", plain.first.cost.allocs as f64 / ops);
    metrics.insert(
        "alloc.bytes_per_op",
        plain.first.cost.alloc_bytes as f64 / ops,
    );
    metrics.insert("host.peak_rss_mb", peak_rss_mb);
    metrics.insert(
        "trace.overhead_ratio",
        least(&traced.unit_s) / least(&plain.unit_s),
    );
    metrics.extend(probes::run_all(a.seed, a.seconds / 2.0));
    Outcome {
        correct,
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics,
    }
}

fn run(a: &Args) -> Outcome {
    use workloads::{chaos, factory, formation, lbcast, sock, trading};
    match a.workload.as_str() {
        "sim-formation" => drive(&formation::Formation::new(a.scale), a),
        "sim-lbcast" => drive(&lbcast::Lbcast::new(a.scale), a),
        "sim-trading-hier" => drive(&trading::HierFloor::new(a.scale), a),
        "sim-trading-flat" => drive(&trading::FlatFloor::new(a.scale), a),
        "sim-factory" => drive(&factory::Factory::new(a.scale), a),
        "chaos-sweep" => drive(&chaos::Sweep::new(a.scale), a),
        "sock-feed" => drive(&sock::Feed::new(a.scale), a),
        other => unreachable!("parse_args admitted {other:?}"),
    }
}

fn main() -> ExitCode {
    // Every simulation in this process is single-threaded whatever the
    // caller's environment says; set before any thread exists.
    std::env::set_var("NOW_SIM_JOBS", "1");
    std::env::set_var("NOW_JOBS", "1");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--list") => {
            for (name, why) in spec::WORKLOADS {
                println!("{name}\t{why}");
            }
            return ExitCode::SUCCESS;
        }
        Some("--benchmark-json") => {
            println!("{}", spec::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Some("--analyze") => {
            return match argv.get(1) {
                Some(dir) => analyze::main(dir),
                None => {
                    eprintln!("{USAGE}");
                    ExitCode::from(2)
                }
            };
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("now-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "now-perf {} seed {} seconds {} trace {} scale {:?} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.scale,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let out = run(&args);
    for (name, value) in &out.metrics {
        eprintln!(
            "  {name:<44} {value:>16.4} {}",
            spec::unit_of(name).unwrap_or("?")
        );
    }
    println!(
        "{}",
        json::result_line(out.correct, out.attempted.max(1), out.failed, &out.metrics)
    );
    // Wrong outputs still print their result line (the driver reads
    // `correct`), but a human or a script gets a failing status too.
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
