//! Microbench regression gate: compares the freshly generated
//! `BENCH_results.json` against a committed baseline and fails (exit 1)
//! when a watched hot-path benchmark regresses by more than 2×.
//!
//! Usage: `bench_gate <baseline.json> <fresh.json>`
//!
//! The compared statistic is the per-benchmark *minimum*, not the median:
//! the CI sweep runs in QUICK mode with as few as 3 samples on a machine
//! still hot from the test suite, where the median of 3 is dominated by
//! scheduler noise. The minimum is the least contaminated estimate of the
//! true cost, and a genuine 2× regression raises the minimum too.
//!
//! Only the microbench block is compared — experiment tables are covered
//! by the determinism tests, and wall-clock fields are machine-dependent.
//! Benchmarks present in the fresh file but not the baseline are reported
//! and skipped, so adding a bench never trips the gate retroactively.

use std::process::ExitCode;

/// Name prefixes/exacts under watch. A trailing `/` makes it a group
/// prefix; anything else must match the full `group/name` id.
const WATCH: &[&str] = &[
    "vclock/",
    "sim_step/",
    "multicast/",
    "codec/",
    "flat_group/abcast_n8",
    "request_path/flat_request_n8",
];

const MAX_RATIO: f64 = 2.0;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (Some(base_path), Some(fresh_path)) = (args.next(), args.next()) else {
        eprintln!("usage: bench_gate <baseline.json> <fresh.json>");
        return ExitCode::FAILURE;
    };
    let base = match minima(&base_path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("bench_gate: {base_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let fresh = match minima(&fresh_path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("bench_gate: {fresh_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut failed = false;
    let mut compared = 0usize;
    for (name, fresh_med) in &fresh {
        if !watched(name) {
            continue;
        }
        let Some(base_med) = base.iter().find(|(n, _)| n == name).map(|(_, m)| *m) else {
            println!("bench_gate: {name:<40} new benchmark, no baseline — skipped");
            continue;
        };
        compared += 1;
        let ratio = if base_med == 0 {
            1.0
        } else {
            *fresh_med as f64 / base_med as f64
        };
        let verdict = if ratio > MAX_RATIO { "REGRESSED" } else { "ok" };
        println!(
            "bench_gate: {name:<40} baseline {base_med:>10} ns | fresh {fresh_med:>10} ns | x{ratio:<5.2} {verdict}"
        );
        if ratio > MAX_RATIO {
            failed = true;
        }
    }
    if compared == 0 {
        eprintln!("bench_gate: no watched benchmarks in common — refusing to pass vacuously");
        return ExitCode::FAILURE;
    }
    if failed {
        eprintln!("bench_gate: FAIL — a watched minimum regressed more than {MAX_RATIO}x");
        return ExitCode::FAILURE;
    }
    println!("bench_gate: pass ({compared} benchmarks within {MAX_RATIO}x of baseline)");
    ExitCode::SUCCESS
}

fn watched(name: &str) -> bool {
    WATCH
        .iter()
        .any(|w| if let Some(p) = w.strip_suffix('/') { name.starts_with(p) && name[p.len()..].starts_with('/') } else { name == *w })
}

/// Extracts `(name, min_ns)` pairs from the `"microbench"` array of a
/// `BENCH_results.json`. The file is produced by our own writer, so the
/// parser only has to handle that fixed shape — each record is one
/// `{...}` object containing `"name"` and `"min_ns"` fields.
fn minima(path: &str) -> Result<Vec<(String, u128)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let block = text
        .split("\"microbench\":")
        .nth(1)
        .ok_or("no \"microbench\" block")?;
    let mut out = Vec::new();
    for obj in block.split('{').skip(1) {
        let obj = obj.split('}').next().unwrap_or("");
        let name = field_str(obj, "name").ok_or("record without name")?;
        let min = field_u128(obj, "min_ns").ok_or("record without min_ns")?;
        out.push((name, min));
    }
    if out.is_empty() {
        return Err("empty microbench block".into());
    }
    Ok(out)
}

fn field_str(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let rest = obj.split(&pat).nth(1)?;
    let start = rest.find('"')? + 1;
    let end = start + rest[start..].find('"')?;
    Some(rest[start..end].to_string())
}

fn field_u128(obj: &str, key: &str) -> Option<u128> {
    let pat = format!("\"{key}\":");
    let rest = obj.split(&pat).nth(1)?;
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}
