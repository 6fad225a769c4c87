//! CLI for the protocol-safety linter: `cargo run -p detlint`.
//!
//! Lints the workspace this crate is built in, so it takes no arguments.
//! Exits 0 when the tree is clean, 1 on any finding, 2 on usage/IO errors.

use std::process::ExitCode;

use detlint::{default_root, lint_workspace, Rule};

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: detlint (no arguments: it lints the workspace it is built in)");
        return ExitCode::from(2);
    }
    let findings = match lint_workspace() {
        Ok(f) => f,
        Err(e) => {
            eprintln!("detlint: cannot lint {}: {e}", default_root().display());
            return ExitCode::from(2);
        }
    };

    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("detlint: clean ({} rules enforced)", Rule::ALL.len());
        ExitCode::from(0)
    } else {
        println!("detlint: {} finding(s)", findings.len());
        ExitCode::from(1)
    }
}
