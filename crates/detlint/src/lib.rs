//! `detlint` — the workspace's protocol-safety linter.
//!
//! Every result in EXPERIMENTS.md is an *exact* count from a deterministic
//! simulation (DESIGN.md, "Determinism rules"). Bans on naming a type or
//! function (R1, R2, R5, R9, R3's `.unwrap()` half) and suppression hygiene
//! (R10) are clippy's, set in `clippy.toml` and `[workspace.lints]`. This
//! crate keeps the rules that need the whole workspace's source, as a CLI
//! (`cargo run -p detlint`) and as a test that `cargo test` runs:
//!
//! - **R3** — no `.expect("")` in non-test protocol code (`trace`, `core`,
//!   `hier`): an invariant worth panicking on is worth stating.
//! - **R4** — every public state-mutating function (`pub fn …(&mut self`)
//!   in those crates is reachable from a `#[test]`, bench, example or
//!   binary: protocol code nothing exercises silently rots.
//! - **R6** — no bare `_ =>` arm in a `match` over a protocol enum (one
//!   named `…Msg`/`…Payload`/`…Cmd`): a later variant would be swallowed.
//!   Name the variants, or bind them (`other =>`) and trace the rest.
//! - **R7** — every protocol-enum variant is both *constructed* and *named
//!   in a pattern* somewhere: anything else is dead wire surface.
//!
//! R8 is retired and R9 moved to clippy; neither id is reused. A finding
//! is fixed in the code: there is no escape hatch.

pub mod callgraph;
pub mod flow;
pub mod scrub;
mod tok;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

use callgraph::{extract_fns, reachable};
use scrub::{scrub, Line};

/// The rule a finding belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Empty `.expect("")` in protocol paths.
    R3,
    /// Unreachable public state-mutating protocol function.
    R4,
    /// Bare `_ =>` arm swallowing protocol-enum variants.
    R6,
    /// Protocol variant constructed-but-unhandled or handled-but-never-made.
    R7,
}

impl Rule {
    /// All rules, in report order.
    pub const ALL: [Rule; 4] = [Rule::R3, Rule::R4, Rule::R6, Rule::R7];
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// One diagnostic: `file:line: rule: message`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Violated rule.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.rule, self.message)
    }
}

/// Integration tests, benches, examples and binaries: R4's seed code.
fn is_harness(rel: &str) -> bool {
    let seg = |s: &str| rel.contains(&format!("/{s}/")) || rel.starts_with(&format!("{s}/"));
    seg("tests") || seg("benches") || seg("examples") || rel.contains("/src/bin/")
}

/// Protocol source under the empty-expect rule (R3) and dead-code rule (R4).
const PROTOCOL_SRC: [&str; 3] = ["crates/trace/src/", "crates/core/src/", "crates/hier/src/"];

fn in_protocol_src(rel: &str) -> bool {
    PROTOCOL_SRC.iter().any(|p| rel.starts_with(p))
}

/// The per-line rule (R3) over one scrubbed file.
fn lint_lines(rel: &str, lines: &[Line]) -> Vec<Finding> {
    if !in_protocol_src(rel) {
        return Vec::new();
    }
    lines
        .iter()
        .enumerate()
        .filter(|(_, line)| !line.in_test && line.code.contains(".expect(\"\")"))
        .map(|(idx, _)| Finding {
            file: rel.to_string(),
            line: idx + 1,
            rule: Rule::R3,
            message: "empty `.expect(\"\")` — state the invariant being relied on".to_string(),
        })
        .collect()
}

/// A file already loaded for linting; [`lint_files`] takes these so tests
/// can lint fixture strings without touching the filesystem.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Workspace-relative path (forward slashes).
    pub rel: String,
    /// Full source text.
    pub text: String,
}

/// Scrubs every file once, keyed by its workspace-relative path: the form
/// every rule reads.
pub fn scrub_files(files: &[SourceFile]) -> BTreeMap<&str, Vec<Line>> {
    files.iter().map(|f| (f.rel.as_str(), scrub(&f.text))).collect()
}

/// Lints a set of files under all four rules.
pub fn lint_files(files: &[SourceFile]) -> Vec<Finding> {
    let scrubbed = scrub_files(files);
    let mut out: Vec<Finding> =
        scrubbed.iter().flat_map(|(rel, lines)| lint_lines(rel, lines)).collect();
    out.extend(lint_r4(&scrubbed));
    out.extend(flow::lint_flow(&scrubbed));
    out.sort();
    out
}

/// Rule R4 over the whole file set: reachability of public `&mut self`
/// protocol functions from harness/test seeds.
fn lint_r4(scrubbed: &BTreeMap<&str, Vec<Line>>) -> Vec<Finding> {
    let mut graph: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut seeds: BTreeSet<String> = BTreeSet::new();
    let mut targets: Vec<(&str, usize, String)> = Vec::new();

    for (&rel, lines) in scrubbed {
        let harness = is_harness(rel);
        for d in extract_fns(lines) {
            graph.entry(d.name.clone()).or_default().extend(d.callees.iter().cloned());
            if harness || d.in_test || d.name == "main" {
                seeds.insert(d.name.clone());
            }
            if in_protocol_src(rel)
                && d.is_pub
                && d.takes_mut_self
                && !d.in_test
                && !d.name.starts_with('_')
            {
                targets.push((rel, d.line, d.name));
            }
        }
    }

    let live = reachable(&graph, &seeds);
    targets
        .into_iter()
        .filter(|(_, _, name)| !live.contains(name))
        .map(|(rel, line, name)| Finding {
            file: rel.to_string(),
            line,
            rule: Rule::R4,
            message: format!(
                "public state-mutating fn `{name}` is unreachable from any test, bench, \
                 example or binary — dead protocol code"
            ),
        })
        .collect()
}

/// Directories walked when linting a real workspace tree.
const WALK_ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// Collects every `.rs` file beneath `root` (the workspace root).
pub fn collect_workspace(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for top in WALK_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(root, &dir, &mut files)?;
        }
    }
    if files.is_empty() {
        // A clean verdict over zero files is a trap (a moved checkout would
        // pass CI forever); insist the root actually holds the workspace.
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("no .rs files under {} — not a workspace root?", root.display()),
        ));
    }
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            walk(root, &path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(SourceFile {
                rel,
                text: std::fs::read_to_string(&path)?,
            });
        }
    }
    Ok(())
}

/// Lints the workspace this crate is built in under all four rules.
pub fn lint_workspace() -> std::io::Result<Vec<Finding>> {
    Ok(lint_files(&collect_workspace(&default_root())?))
}

/// The workspace root, assuming this crate lives at `<root>/crates/detlint`.
pub fn default_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    // ----- R3 ---------------------------------------------------------

    #[test]
    fn r3_flags_unwrap_and_empty_expect_in_protocol_code() {
        // The `.unwrap()` half is clippy's `unwrap_used`; detlint flags the
        // empty message.
        let src = "pub fn handle(&mut self) {\n  let v = self.q.pop().unwrap();\n  let w = self.m.get(&k).expect(\"\");\n}\n";
        let f = lint_lines("crates/core/src/group.rs", &scrub(src));
        assert_eq!((f.len(), f[0].rule, f[0].line), (1, Rule::R3, 3), "{f:?}");
        assert!(read("Cargo.toml").contains("\nunwrap_used = \"deny\""));
    }

    #[test]
    fn r3_messaged_expect_and_test_unwrap_are_allowed() {
        let src = "pub fn handle(&mut self) {\n  let v = self.m.get(&k).expect(\"key just listed\");\n}\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { x().unwrap(); y().expect(\"\"); }\n}\n";
        assert!(lint_lines("crates/core/src/group.rs", &scrub(src)).is_empty());
    }

    #[test]
    fn r3_unwrap_in_string_literal_is_ignored() {
        let src = "pub fn log(&mut self) { self.emit(\"never .unwrap() or .expect(\\\"\\\")\"); }\n";
        assert!(lint_lines("crates/hier/src/x.rs", &scrub(src)).is_empty());
    }

    #[test]
    fn r3_does_not_apply_to_sim_or_toolkit() {
        let src = "pub fn go(&mut self) { self.q.pop().expect(\"\"); }\n";
        assert_eq!(lint_lines("crates/hier/src/x.rs", &scrub(src)).len(), 1);
        assert!(lint_lines("crates/sim/src/x.rs", &scrub(src)).is_empty());
        assert!(lint_lines("crates/toolkit/src/flat/x.rs", &scrub(src)).is_empty());
    }

    // ----- R4 ---------------------------------------------------------

    fn sf(rel: &str, text: &str) -> SourceFile {
        SourceFile { rel: rel.to_string(), text: text.to_string() }
    }

    #[test]
    fn r4_flags_protocol_fn_unreachable_from_any_harness() {
        let files = [
            sf(
                "crates/core/src/process.rs",
                "impl P {\n  pub fn used(&mut self) {}\n  pub fn orphan(&mut self) {}\n}\n",
            ),
            sf("crates/core/tests/t.rs", "#[test]\nfn t() { p.used(); }\n"),
        ];
        let f: Vec<Finding> = lint_files(&files).into_iter().filter(|f| f.rule == Rule::R4).collect();
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("orphan"));
    }

    #[test]
    fn r4_transitive_reachability_counts() {
        let files = [
            sf(
                "crates/hier/src/member.rs",
                "impl M {\n  pub fn deep(&mut self) {}\n}\npub fn shallow(h: &mut M) { h.deep(); }\n",
            ),
            sf("tests/e2e.rs", "#[test]\nfn t() { shallow(&mut m); }\n"),
        ];
        assert!(lint_files(&files).iter().all(|f| f.rule != Rule::R4));
    }

    #[test]
    fn r4_immutable_and_private_fns_are_exempt() {
        let files = [sf(
            "crates/core/src/x.rs",
            "impl P {\n  pub fn read_only(&self) {}\n  fn private_mut(&mut self) {}\n}\n",
        )];
        assert!(lint_files(&files).iter().all(|f| f.rule != Rule::R4));
    }

    // ----- the clippy half of the rules ---------------------------------
    //
    // R1, R2, R5 and R9 are clippy's `disallowed-types`/`disallowed-methods`,
    // which `cargo test` never runs, so these tests pin the config: they fail
    // when a ban is deleted or a carve-out spreads.

    const HASH: [&str; 2] = ["std::collections::HashMap", "std::collections::HashSet"];
    const CLOCKS: [&str; 3] = ["std::time::Instant", "std::time::SystemTime", "std::hash::RandomState"];
    const THREADS: [&str; 3] = ["std::thread::spawn", "std::thread::scope", "std::thread::Builder::spawn"];
    const R9_TYPES: [&str; 4] =
        ["std::sync::Mutex", "std::sync::RwLock", "std::sync::Condvar", "std::cell::UnsafeCell"];

    fn read(rel: &str) -> String {
        std::fs::read_to_string(default_root().join(rel)).expect("file readable")
    }

    /// The `path = "…"` entries under `key` (`disallowed-types`, …).
    fn listed(config: &str, key: &str) -> Vec<String> {
        let body = config.split(&format!("{key} = [")).nth(1).unwrap_or("");
        let body = body.split("\n]").next().unwrap_or("");
        body.split("path = \"").skip(1).filter_map(|s| s.split('"').next()).map(String::from).collect()
    }

    /// Asserts clippy bans every path in `banned` for `rel` and none in
    /// `free`. clippy reads the nearest clippy.toml above the package
    /// manifest: `crates/<name>/clippy.toml` when it exists, else the root.
    fn check(rel: &str, banned: &[&str], free: &[&str]) {
        let own = rel.strip_prefix("crates/").and_then(|r| r.split('/').next());
        let own = own.map(|name| format!("crates/{name}/clippy.toml"));
        let config = read(own.filter(|p| default_root().join(p).is_file()).as_deref().unwrap_or("clippy.toml"));
        let bans = [listed(&config, "disallowed-types"), listed(&config, "disallowed-methods")].concat();
        for p in banned {
            assert!(bans.iter().any(|b| b == p), "{rel} must ban `{p}`");
        }
        for p in free {
            assert!(!bans.iter().any(|b| b == p), "{rel} must allow `{p}`");
        }
    }

    #[test]
    fn lint_config_pins_every_ban_and_carve_out() {
        let root = read("clippy.toml");
        assert_eq!(listed(&root, "disallowed-types"), [&HASH[..], &CLOCKS].concat());
        assert_eq!(listed(&root, "disallowed-methods"), THREADS);
        assert_eq!(listed(&read("crates/apps/clippy.toml"), "disallowed-methods"), THREADS);
        assert_eq!(listed(&read("crates/net/clippy.toml"), "disallowed-types"), R9_TYPES);
        // Each carve-out replaces the root file for its whole crate, so the
        // crates that have one are exactly the carve-outs.
        let own: BTreeSet<String> = std::fs::read_dir(default_root().join("crates"))
            .expect("crates/ readable")
            .filter_map(|e| Some(e.ok()?.path()).filter(|p| p.join("clippy.toml").is_file()))
            .filter_map(|p| Some(p.file_name()?.to_string_lossy().into_owned()))
            .collect();
        assert_eq!(own, ["apps", "bench", "net"].map(String::from).into());
        let manifest = read("Cargo.toml");
        for lint in ["unwrap_used", "allow_attributes", "allow_attributes_without_reason", "unsafe_code"] {
            assert!(manifest.contains(&format!("\n{lint} = \"deny\"")), "{lint} must be denied");
        }
        // Every package, the root facade (`src/`, `tests/`, `examples/`)
        // included, takes the workspace lints.
        let packages = [
            "", "crates/trace/", "crates/sim/", "crates/core/", "crates/hier/", "crates/toolkit/",
            "crates/chaos/", "crates/net/", "crates/apps/", "crates/bench/", "crates/detlint/",
        ];
        for p in packages {
            let m = read(&format!("{p}Cargo.toml"));
            assert!(m.contains("[lints]\nworkspace = true"), "{p}Cargo.toml must take the workspace lints");
        }
        let crates = std::fs::read_dir(default_root().join("crates")).expect("crates/ readable").count();
        assert_eq!(packages.len(), crates + 1, "a package is missing from the list");
    }

    #[test]
    fn r1_catches_injected_hashmap_iteration_in_tree() {
        check("crates/hier/src/tree.rs", &HASH, &[]);
    }

    #[test]
    fn chaos_src_is_under_r1() {
        check("crates/chaos/src/census.rs", &HASH, &[]);
    }

    #[test]
    fn chaos_is_under_r2_tests_included() {
        for rel in ["crates/chaos/tests/t.rs", "crates/chaos/src/bin/chaos_sweep.rs"] {
            check(rel, &[&CLOCKS[..], &THREADS].concat(), &[]);
        }
    }

    #[test]
    fn r2_flags_clocks_threads_and_entropy_even_in_tests() {
        for rel in ["crates/core/tests/t.rs", "crates/core/src/lib.rs"] {
            check(rel, &[&CLOCKS[..], &THREADS].concat(), &[]);
        }
    }

    #[test]
    fn r2_does_not_apply_outside_protocol_crates() {
        for rel in ["crates/bench/src/par_sweep.rs", "crates/apps/src/drivers.rs"] {
            check(rel, &[], &CLOCKS);
        }
    }

    #[test]
    fn r2_flags_scoped_threads_in_protocol_crates() {
        for rel in ["crates/sim/src/engine.rs", "crates/core/src/lib.rs", "crates/hier/src/tree.rs"] {
            check(rel, &["std::thread::scope", "std::thread::Builder::spawn"], &[]);
        }
    }

    #[test]
    fn r5_flags_threads_outside_bench() {
        // The apps keep R5 only: their HashSet and any clock stay legal.
        check("crates/apps/src/drivers.rs", &THREADS, &[&HASH[..], &CLOCKS].concat());
        check("tests/e2e.rs", &THREADS, &[]);
    }

    #[test]
    fn r5_permits_threads_in_bench_harness() {
        for rel in ["crates/bench/tests/par.rs", "crates/bench/src/bin/all_experiments.rs"] {
            check(rel, &[], &[&HASH[..], &CLOCKS, &THREADS, &R9_TYPES].concat());
        }
    }

    #[test]
    fn net_backend_may_use_threads_and_wall_clocks() {
        check("crates/net/src/daemon.rs", &R9_TYPES, &[&HASH[..], &CLOCKS, &THREADS].concat());
    }

    #[test]
    fn net_carve_out_does_not_leak_to_neighbours() {
        for rel in ["crates/netx/src/lib.rs", "tests/cluster.rs", "crates/hier/tests/t.rs"] {
            check(rel, &[&CLOCKS[..], &THREADS].concat(), &R9_TYPES);
        }
    }

    #[test]
    fn the_sim_crate_has_no_thread_carve_out() {
        assert!(!default_root().join("crates/sim/clippy.toml").exists());
        for rel in ["crates/sim/src/engine.rs", "crates/sim/tests/engine_props.rs"] {
            check(rel, &THREADS, &R9_TYPES);
        }
    }

    /// The linter must hold on the workspace it ships in: this is the test
    /// that makes `cargo test -q` enforce all four rules forever.
    #[test]
    fn workspace_is_clean() {
        let findings = lint_workspace().expect("workspace readable");
        assert!(
            findings.is_empty(),
            "detlint found {} violation(s):\n{}",
            findings.len(),
            findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
        );
        assert_eq!(Rule::ALL, [Rule::R3, Rule::R4, Rule::R6, Rule::R7]);
    }
}
