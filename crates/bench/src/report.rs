//! Experiment report formatting: aligned text tables, one per
//! paper-claim experiment, printed by `all_experiments` and asserted on
//! by the test suite.

use std::fmt::Write as _;

/// One experiment's results.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment id, e.g. `"E1"`.
    pub id: &'static str,
    /// Title line (the paper claim being reproduced).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes appended after the table.
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &'static str, title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            id,
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row (stringifying each cell).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Appends a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Looks a column index up by header name.
    pub fn col(&self, header: &str) -> usize {
        self.headers
            .iter()
            .position(|h| h == header)
            .unwrap_or_else(|| panic!("no column {header:?}"))
    }

    /// Typed accessor: cell as f64.
    pub fn f64(&self, row: usize, header: &str) -> f64 {
        self.rows[row][self.col(header)]
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric cell at {row}/{header}"))
    }

    /// Renders the aligned table.
    pub fn render(&self) -> String {
        let mut w: Vec<usize> = self.headers.iter().map(String::len).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                w[i] = w[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let line = |out: &mut String, cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(s, "{:>width$}  ", c, width = w[i]);
            }
            let _ = writeln!(out, "{}", s.trim_end());
        };
        line(&mut out, &self.headers);
        let rule: usize = w.iter().sum::<usize>() + 2 * w.len();
        let _ = writeln!(out, "{}", "-".repeat(rule.min(100)));
        for r in &self.rows {
            line(&mut out, r);
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Formats a float compactly.
pub fn f(v: f64) -> String {
    if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Whether the harness runs in quick mode (smaller sweeps; used by the
/// test suite and by `QUICK=1` on the binaries).
pub fn quick_mode() -> bool {
    std::env::var("QUICK").is_ok_and(|v| v != "0")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("E0", "demo", &["n", "msgs"]);
        t.row(vec!["8".into(), "16".into()]);
        t.row(vec!["128".into(), "256".into()]);
        t.note("a note");
        let s = t.render();
        assert!(s.contains("E0"));
        assert!(s.contains("note: a note"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    fn typed_accessors() {
        let mut t = Table::new("E0", "demo", &["n", "x"]);
        t.row(vec!["8".into(), "3.5".into()]);
        assert_eq!(t.f64(0, "x"), 3.5);
        assert_eq!(t.col("n"), 0);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new("E0", "demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(12345.6), "12346");
        assert_eq!(f(4.56789), "4.57");
        assert_eq!(f(0.01234), "0.0123");
    }
}
