//! `now-perf --analyze <dir>`: the acceptance arithmetic over saved result
//! lines, the way the driver does it.
//!
//! `<dir>` holds files named `<workload>.<set>.<seed>.json`, each one result
//! line. For every workload and end-to-end metric this prints, per set, the
//! median over seeds and the interquartile spread as a share of it, and
//! between the first two sets the shift of the median in the worse
//! direction. It fails when a spread (other than `setup_s`'s) or a shift
//! exceeds the metric's bound, and marks spreads above a third of it.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::json::{parse, Json};
use crate::spec::{bound_of, END_TO_END};
use crate::stats::{iqr_share, median};

/// workload → set → metric → values over seeds
type Table = BTreeMap<String, BTreeMap<String, BTreeMap<String, Vec<f64>>>>;

fn load(dir: &str) -> Result<Table, String> {
    let mut table = Table::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{dir}: {e}"))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let parts: Vec<&str> = name.split('.').collect();
        let [workload, set, _seed, "json"] = parts[..] else {
            continue;
        };
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{name}: {e}"))?;
        let line = text.lines().last().unwrap_or("");
        let doc = parse(line).map_err(|e| format!("{name}: {e}"))?;
        if doc.get("correct") != Some(&Json::Bool(true)) {
            return Err(format!("{name}: the run was not correct"));
        }
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err(format!("{name}: no metrics"));
        };
        for (metric, entry) in metrics {
            let value = entry
                .get("value")
                .and_then(Json::num)
                .ok_or_else(|| format!("{name}: {metric} has no value"))?;
            table
                .entry(workload.to_string())
                .or_default()
                .entry(set.to_string())
                .or_default()
                .entry(metric.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(table)
}

/// Share by which `b` is worse than `a` (negative when better).
fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Entry point; see the module documentation.
pub fn main(dir: &str) -> ExitCode {
    let table = match load(dir) {
        Ok(t) if !t.is_empty() => t,
        Ok(_) => {
            eprintln!("now-perf: no <workload>.<set>.<seed>.json files in {dir}");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("now-perf: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failures = 0;
    println!(
        "{:<18} {:<14} {:>4} {:>14} {:>8} {:>14} {:>8} {:>8} {:>6}",
        "workload", "metric", "n", "median A", "iqr A", "median B", "iqr B", "shift", "bound"
    );
    for (workload, sets) in &table {
        let mut sets = sets.values();
        let (a, b) = (sets.next().expect("non-empty"), sets.next());
        for (metric, ..) in END_TO_END {
            let (bound, higher) = bound_of(metric).expect("in the spec");
            let Some(xa) = a.get(metric).filter(|v| v.len() >= 2) else {
                continue;
            };
            let (ma, sa) = (median(xa), iqr_share(xa));
            let (mb, sb, shift) = match b.and_then(|b| b.get(metric)).filter(|v| v.len() >= 2) {
                Some(xb) => (median(xb), iqr_share(xb), worse_by(ma, median(xb), higher)),
                None => (f64::NAN, 0.0, 0.0),
            };
            let spread = sa.max(sb);
            let gated_spread = if metric == "setup_s" { 0.0 } else { spread };
            let verdict = if gated_spread > bound || shift > bound {
                failures += 1;
                "FAIL"
            } else if gated_spread > bound / 3.0 {
                "loose"
            } else {
                ""
            };
            println!(
                "{workload:<18} {metric:<14} {:>4} {ma:>14.4} {:>7.2}% {mb:>14.4} {:>7.2}% {:>7.2}% {:>5.0}% {verdict}",
                xa.len(),
                sa * 100.0,
                sb * 100.0,
                shift * 100.0,
                bound * 100.0
            );
        }
    }
    if failures > 0 {
        eprintln!("now-perf: {failures} metric(s) outside their bound");
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_respects_direction() {
        assert!((worse_by(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, true) + 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, false) - 0.10).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 5.0, false), 0.0);
    }
}
