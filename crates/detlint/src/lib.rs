//! `detlint` — the workspace's determinism & protocol-safety linter.
//!
//! Every quantitative result in EXPERIMENTS.md is an *exact* count from a
//! deterministic simulation, so any ambient nondeterminism (hash-order
//! iteration, wall clocks, unseeded RNG) silently invalidates the tables.
//! This linter enforces the rules that keep replays byte-identical, both as
//! a CLI (`cargo run -p detlint`) and as a test inside this crate so
//! `cargo test` enforces them forever. See DESIGN.md, "Determinism rules".
//!
//! Rules:
//! - **R1** — no `HashMap`/`HashSet` in non-test code of the simulator,
//!   protocol, and fuzzer crates (`sim`, `core`, `hier`, `toolkit`,
//!   `chaos`): unordered containers make iteration order depend on
//!   `RandomState`, which leaks into message emission order, view
//!   contents, and scenario expansion order.
//! - **R2** — no wall-clock reads (`SystemTime`, `Instant`), OS threads
//!   (`thread::spawn`) or ambient RNG (`thread_rng`, `from_entropy`,
//!   `OsRng`, `rand::random`) anywhere under those crates, tests included:
//!   simulated time and the seeded [`now_sim::det_rand`] stream are the
//!   only admissible sources.
//! - **R3** — no `.unwrap()` / `.expect("")` in non-test protocol code
//!   (`core`, `hier`): a malformed or reordered message must surface as a
//!   protocol error, not a panic that takes down the process. A *messaged*
//!   `.expect("reason")` states an invariant and is allowed.
//! - **R4** — every public state-mutating function (`pub fn …(&mut self`)
//!   in `core`/`hier` is reachable from a `#[test]`, bench, example or
//!   binary: protocol code nothing exercises is dead weight that silently
//!   rots.
//! - **R5** — OS threads (`thread::scope`, `thread::spawn`) are permitted
//!   only in `crates/bench` harness code (the deterministic parallel sweep
//!   runner farms *whole independent simulations* across workers) and in
//!   `crates/net` (the real transport backend: accept loops, per-connection
//!   readers and daemon main loops are genuinely concurrent). No protocol
//!   or engine crate may ever touch a thread (inside one simulation,
//!   concurrency is simulated, never real). Protocol crates are covered by
//!   R2's thread ban; R5 closes the rest of the workspace.
//!
//! - **R6** — no bare `_ =>` arm in any `match` that inspects a protocol
//!   enum (an enum named `…Msg`/`…Payload`/`…Cmd` in protocol source): a
//!   variant added later would be swallowed without even a counter bump.
//!   Name the remaining variants, or bind them (`other =>`) and route
//!   through a traced unhandled path.
//! - **R7** — every protocol-enum variant is both *constructed* somewhere
//!   and *named in a pattern* somewhere: anything else is dead wire surface.
//! - **R8** — retired, and its id is not reused. It checked that the wire
//!   codec's hand-written `encode` and `decode` named every enum variant;
//!   `crates/net/src/wire.rs` now generates both from one declaration per
//!   layout, so the compiler rejects that drift.
//! - **R9** — thread-topology audit for `crates/net`: cross-thread mutable
//!   state flows only through `mpsc` channels or declared atomics. The
//!   constructs that would break that shape (`Mutex`, `RwLock`, `Condvar`,
//!   `UnsafeCell`, `static mut`) are banned in the net crate.
//! - **R10** — every `// detlint: allow(...)` directive must still
//!   suppress a live finding; stale or unknown-rule directives are
//!   findings themselves, so suppressions cannot outlive their reason.
//!
//! Carve-out: `crates/net` is deliberately outside R2's scope and inside
//! R5's permit list. It is the one place real wall-clocks and OS threads
//! are the *point* — a daemon speaking sockets cannot run on simulated
//! time. The protocol crates it hosts remain fully covered: they never
//! read a clock or spawn a thread themselves, they only see `Ctx`.
//!
//! Escape hatch: a finding is suppressed by a comment on the same or the
//! preceding line whose whole text is `detlint: allow(R1): <justification>`
//! (i.e. written as `// detlint: allow(R1): <justification>`). The
//! justification text is mandatory; a bare allow is itself reported, and
//! R10 retires any directive that stops suppressing something.

pub mod callgraph;
pub mod flow;
pub mod scrub;
pub mod threads;
mod tok;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

use callgraph::{extract_fns, reachable};
use scrub::{scrub, Line};

/// The rule a finding belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Unordered container in deterministic state/code.
    R1,
    /// Ambient nondeterminism (wall clock, threads, unseeded RNG).
    R2,
    /// Panic-on-malformed-input in protocol paths.
    R3,
    /// Unreachable public state-mutating protocol function.
    R4,
    /// OS-thread use outside the bench harness.
    R5,
    /// Bare `_ =>` arm swallowing protocol-enum variants.
    R6,
    /// Protocol variant constructed-but-unhandled or handled-but-never-made.
    R7,
    /// Lock/interior-mutability construct in the net backend.
    R9,
    /// Stale or malformed `detlint: allow` directive.
    R10,
}

impl Rule {
    /// All rules, in report order.
    pub const ALL: [Rule; 9] = [
        Rule::R1,
        Rule::R2,
        Rule::R3,
        Rule::R4,
        Rule::R5,
        Rule::R6,
        Rule::R7,
        Rule::R9,
        Rule::R10,
    ];

    fn id(self) -> &'static str {
        match self {
            Rule::R1 => "R1",
            Rule::R2 => "R2",
            Rule::R3 => "R3",
            Rule::R4 => "R4",
            Rule::R5 => "R5",
            Rule::R6 => "R6",
            Rule::R7 => "R7",
            Rule::R9 => "R9",
            Rule::R10 => "R10",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
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

/// What part of the tree a file belongs to, by path convention.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FileRole {
    /// Library source under some `src/`.
    Src,
    /// Integration tests, benches, examples, binaries — R4 seed code.
    Harness,
}

fn role_of(rel: &str) -> FileRole {
    let seg = |s: &str| rel.contains(&format!("/{s}/")) || rel.starts_with(&format!("{s}/"));
    if seg("tests") || seg("benches") || seg("examples") || rel.contains("/src/bin/") {
        FileRole::Harness
    } else {
        FileRole::Src
    }
}

/// Crates whose *source* must use ordered containers (R1) and avoid
/// panicking protocol paths (R3 applies to the protocol subset).
const R1_SCOPE: [&str; 6] = [
    "crates/trace/src/",
    "crates/sim/src/",
    "crates/core/src/",
    "crates/hier/src/",
    "crates/toolkit/src/",
    "crates/chaos/src/",
];

/// Crates where ambient nondeterminism is banned everywhere, tests included.
/// Note `crates/net` is deliberately absent: the real transport backend is
/// the one crate allowed to read wall clocks (its whole job is mapping real
/// elapsed time onto the `SimTime` axis the protocols expect).
const R2_SCOPE: [&str; 6] = [
    "crates/trace/",
    "crates/sim/",
    "crates/core/",
    "crates/hier/",
    "crates/toolkit/",
    // The fuzzer's whole claim is "same seed, same counterexample" — one
    // wall-clock read or ambient-RNG draw and a reported violation stops
    // being replayable. Tests included, like the other deterministic crates.
    "crates/chaos/",
];

/// Crates whose code may use OS threads (exempt from R5): the bench
/// harness's parallel sweep runner, and the real network backend whose
/// accept/reader/daemon loops are genuinely concurrent.
const R5_THREADS_OK: [&str; 2] = ["crates/bench/", "crates/net/"];

/// Protocol crates under the unwrap policy (R3) and dead-code rule (R4).
const R3_SCOPE: [&str; 3] = ["crates/trace/src/", "crates/core/src/", "crates/hier/src/"];

fn in_scope(rel: &str, scope: &[&str]) -> bool {
    scope.iter().any(|p| rel.starts_with(p))
}

/// Tokens that trigger R2, with the reason reported.
const R2_BANNED: [(&str, &str); 8] = [
    ("SystemTime", "wall-clock read"),
    ("Instant", "wall-clock read"),
    ("thread::spawn", "OS thread"),
    ("thread::scope", "OS thread"),
    ("thread_rng", "unseeded RNG"),
    ("from_entropy", "unseeded RNG"),
    ("OsRng", "unseeded RNG"),
    ("rand::random", "unseeded RNG"),
];

/// Looks for a `detlint: allow(rule)` directive on this or the preceding
/// line; also returns the 0-based index of the directive line found, so
/// R10 can tell live directives from stale ones. A directive *without*
/// justification does not suppress (the caller reports it separately).
fn allowed(lines: &[Line], idx: usize, rule: Rule) -> (AllowState, Option<usize>) {
    let mut state = (AllowState::None, None);
    for k in [idx.checked_sub(1), Some(idx)].into_iter().flatten() {
        match parse_allow(&lines[k].comment, rule) {
            AllowState::Justified => return (AllowState::Justified, Some(k)),
            AllowState::Bare => state = (AllowState::Bare, Some(k)),
            AllowState::None => {}
        }
    }
    state
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AllowState {
    None,
    /// `detlint: allow(Rx)` with no justification text.
    Bare,
    /// `detlint: allow(Rx): reason`.
    Justified,
}

/// A comment is a directive only when its trimmed text *starts* with
/// `detlint:` — prose that merely mentions the syntax (doc comments, this
/// very file) does not count. Returns the text inside `allow(...)`.
fn parse_directive(comment: &str) -> Option<&str> {
    let rest = comment.trim_start().strip_prefix("detlint:")?;
    let rest = rest.trim_start().strip_prefix("allow(")?;
    let close = rest.find(')')?;
    Some(rest[..close].trim())
}

fn parse_allow(comment: &str, rule: Rule) -> AllowState {
    if parse_directive(comment) != Some(rule.id()) {
        return AllowState::None;
    }
    // Re-find the close paren to inspect the justification tail.
    let rest = comment.trim_start();
    let Some(close) = rest.find(')') else {
        return AllowState::None;
    };
    let after = rest[close + 1..].trim_start();
    match after.strip_prefix(':') {
        Some(j) if !j.trim().is_empty() => AllowState::Justified,
        _ => AllowState::Bare,
    }
}

/// Emits `finding` unless an allow directive suppresses it; a bare
/// directive is converted into its own finding so justifications stay
/// mandatory. Directive lines that matched (either way) are recorded in
/// `used` — R10 retires the rest.
fn push_finding(
    out: &mut Vec<Finding>,
    lines: &[Line],
    idx: usize,
    used: &mut BTreeSet<usize>,
    finding: Finding,
) {
    match allowed(lines, idx, finding.rule) {
        (AllowState::Justified, k) => {
            used.extend(k);
        }
        (AllowState::Bare, k) => {
            used.extend(k);
            let rule = finding.rule;
            out.push(Finding {
                message: format!(
                    "allow({rule}) directive without justification — write `// detlint: allow({rule}): <reason>`"
                ),
                ..finding
            });
        }
        (AllowState::None, _) => out.push(finding),
    }
}

/// Lints one file's source text under the per-line rules (R1–R3, R5).
/// The whole-workspace rules (R4, R6, R7, R9, R10) need the full file set;
/// see [`lint_workspace`].
pub fn lint_source(rel: &str, source: &str) -> Vec<Finding> {
    let mut used = BTreeSet::new();
    lint_source_inner(rel, &scrub(source), &mut used)
}

fn lint_source_inner(rel: &str, lines: &[Line], used: &mut BTreeSet<usize>) -> Vec<Finding> {
    let mut out = Vec::new();

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;

        // R1: unordered containers in non-test simulator/protocol source.
        if in_scope(rel, &R1_SCOPE) && !line.in_test {
            for container in ["HashMap", "HashSet"] {
                if has_ident(&line.code, container) {
                    push_finding(
                        &mut out,
                        lines,
                        idx,
                        used,
                        Finding {
                            file: rel.to_string(),
                            line: lineno,
                            rule: Rule::R1,
                            message: format!(
                                "`{container}` in deterministic code — iteration order depends on \
                                 RandomState; use `BTree{}` or a sorted wrapper",
                                &container[4..]
                            ),
                        },
                    );
                }
            }
        }

        // R2: ambient nondeterminism, everywhere in scope (tests included).
        if in_scope(rel, &R2_SCOPE) {
            for (tok, why) in R2_BANNED {
                let hit = if tok.contains("::") {
                    line.code.contains(tok)
                } else {
                    has_ident(&line.code, tok)
                };
                if hit {
                    push_finding(
                        &mut out,
                        lines,
                        idx,
                        used,
                        Finding {
                            file: rel.to_string(),
                            line: lineno,
                            rule: Rule::R2,
                            message: format!(
                                "`{tok}` ({why}) — simulated time / seeded det_rand are the only \
                                 admissible sources here"
                            ),
                        },
                    );
                }
            }
        }

        // R5: OS threads only in the bench harness and the real network
        // backend. Protocol crates are already under R2's thread ban; R5
        // covers everything else.
        if !in_scope(rel, &R5_THREADS_OK) && !in_scope(rel, &R2_SCOPE) {
            for tok in ["thread::spawn", "thread::scope"] {
                if line.code.contains(tok) {
                    push_finding(
                        &mut out,
                        lines,
                        idx,
                        used,
                        Finding {
                            file: rel.to_string(),
                            line: lineno,
                            rule: Rule::R5,
                            message: format!(
                                "`{tok}` outside the bench harness and net backend — OS \
                                 threads are reserved for `crates/bench` sweep parallelism \
                                 and `crates/net` daemon loops; protocol and app code must \
                                 stay single-threaded and deterministic"
                            ),
                        },
                    );
                }
            }
        }

        // R3: unwrap policy in non-test protocol source.
        if in_scope(rel, &R3_SCOPE) && !line.in_test {
            if line.code.contains(".unwrap()") {
                push_finding(
                    &mut out,
                    lines,
                    idx,
                    used,
                    Finding {
                        file: rel.to_string(),
                        line: lineno,
                        rule: Rule::R3,
                        message: "`.unwrap()` in protocol path — return an error or use \
                                  `.expect(\"invariant\")` with the invariant spelled out"
                            .to_string(),
                    },
                );
            }
            if line.code.contains(".expect(\"\")") {
                push_finding(
                    &mut out,
                    lines,
                    idx,
                    used,
                    Finding {
                        file: rel.to_string(),
                        line: lineno,
                        rule: Rule::R3,
                        message: "empty `.expect(\"\")` — state the invariant being relied on"
                            .to_string(),
                    },
                );
            }
        }
    }
    out
}

/// True when `ident` appears in `code` as a whole word (not as a substring
/// of a longer identifier).
pub(crate) fn has_ident(code: &str, ident: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(p) = code[from..].find(ident) {
        let start = from + p;
        let end = start + ident.len();
        let pre = start
            .checked_sub(1)
            .map(|i| bytes[i] as char)
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        let post = bytes
            .get(end)
            .map(|&b| b as char)
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if pre && post {
            return true;
        }
        from = end;
    }
    false
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

/// Per-file record of which allow-directive lines suppressed something.
type UsedDirectives = BTreeMap<String, BTreeSet<usize>>;

/// Lints a set of files under all nine rules.
pub fn lint_files(files: &[SourceFile]) -> Vec<Finding> {
    let scrubbed: BTreeMap<String, Vec<Line>> =
        files.iter().map(|f| (f.rel.clone(), scrub(&f.text))).collect();
    let mut used: UsedDirectives = BTreeMap::new();

    let mut out = Vec::new();
    for f in files {
        let lines = &scrubbed[&f.rel];
        let u = used.entry(f.rel.clone()).or_default();
        out.extend(lint_source_inner(&f.rel, lines, u));
    }
    out.extend(lint_r4(files, &scrubbed, &mut used));

    // Workspace-level flow rules: route each raw finding through the allow
    // machinery of its own file.
    let raw: Vec<Finding> = flow::lint_flow(files)
        .into_iter()
        .chain(threads::lint_r9(files))
        .collect();
    for finding in raw {
        match scrubbed.get(&finding.file) {
            Some(lines) if finding.line >= 1 && finding.line <= lines.len() => {
                let u = used.entry(finding.file.clone()).or_default();
                let idx = finding.line - 1;
                push_finding(&mut out, lines, idx, u, finding);
            }
            _ => out.push(finding),
        }
    }

    out.extend(lint_r10(files, &scrubbed, &mut used));
    out.sort();
    out
}

/// Rule R4 over the whole file set: reachability of public `&mut self`
/// protocol functions from harness/test seeds.
fn lint_r4(
    files: &[SourceFile],
    scrubbed: &BTreeMap<String, Vec<Line>>,
    used: &mut UsedDirectives,
) -> Vec<Finding> {
    let mut graph: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut seeds: BTreeSet<String> = BTreeSet::new();
    let mut targets: Vec<(String, usize, String)> = Vec::new();

    for f in files {
        let lines = &scrubbed[&f.rel];
        let defs = extract_fns(lines);
        let role = role_of(&f.rel);
        for d in &defs {
            graph.entry(d.name.clone()).or_default().extend(d.callees.iter().cloned());
            if role == FileRole::Harness || d.in_test || d.name == "main" {
                seeds.insert(d.name.clone());
                // Harness top-level code outside fns is rare; fn bodies
                // cover everything the workspace actually has.
            }
            if in_scope(&f.rel, &R3_SCOPE)
                && d.is_pub
                && d.takes_mut_self
                && !d.in_test
                && !d.name.starts_with('_')
            {
                targets.push((f.rel.clone(), d.line, d.name.clone()));
            }
        }
    }

    let live = reachable(&graph, &seeds);
    let mut out = Vec::new();
    for (rel, line, name) in targets {
        if !live.contains(&name) {
            let lines = &scrubbed[&rel];
            let u = used.entry(rel.clone()).or_default();
            push_finding(
                &mut out,
                lines,
                line - 1,
                u,
                Finding {
                    file: rel.clone(),
                    line,
                    rule: Rule::R4,
                    message: format!(
                        "public state-mutating fn `{name}` is unreachable from any test, bench, \
                         example or binary — dead protocol code"
                    ),
                },
            );
        }
    }
    out
}

/// Rule R10: every allow directive must still suppress a live finding and
/// must name a rule that exists. Runs last, after every other rule has
/// recorded which directive lines it consulted. Directives are audited in
/// reverse line order so that an `allow(R10)` placed on a deliberately
/// retained directive registers as used before its own turn comes.
fn lint_r10(
    files: &[SourceFile],
    scrubbed: &BTreeMap<String, Vec<Line>>,
    used: &mut UsedDirectives,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        let lines = &scrubbed[&f.rel];
        let directives: Vec<(usize, String)> = lines
            .iter()
            .enumerate()
            .filter_map(|(idx, l)| parse_directive(&l.comment).map(|id| (idx, id.to_string())))
            .collect();
        for (idx, id) in directives.into_iter().rev() {
            let u = used.entry(f.rel.clone()).or_default();
            if !Rule::ALL.iter().any(|r| r.id() == id) {
                push_finding(
                    &mut out,
                    lines,
                    idx,
                    u,
                    Finding {
                        file: f.rel.clone(),
                        line: idx + 1,
                        rule: Rule::R10,
                        message: format!(
                            "allow directive names unknown rule `{id}` — it can never \
                             suppress anything (known rules: {})",
                            Rule::ALL.map(Rule::id).join(", ")
                        ),
                    },
                );
            } else if !u.contains(&idx) {
                push_finding(
                    &mut out,
                    lines,
                    idx,
                    u,
                    Finding {
                        file: f.rel.clone(),
                        line: idx + 1,
                        rule: Rule::R10,
                        message: format!(
                            "stale `detlint: allow({id})` — it no longer suppresses any \
                             finding; remove it (or re-justify against a live finding)"
                        ),
                    },
                );
            }
        }
    }
    out
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
        // A clean verdict over zero files is a trap (a typo'd root would
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

/// Lints the workspace rooted at `root` under all rules.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    Ok(lint_files(&collect_workspace(root)?))
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

/// Renders findings as a machine-readable JSON report.
pub fn to_json(findings: &[Finding]) -> String {
    let mut s = String::from("{\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&f.file),
            f.line,
            f.rule,
            json_escape(&f.message)
        ));
    }
    if !findings.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str(&format!("],\n  \"count\": {}\n}}\n", findings.len()));
    s
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(findings: &[Finding]) -> Vec<Rule> {
        findings.iter().map(|f| f.rule).collect()
    }

    // ----- R1 ---------------------------------------------------------

    /// The acceptance-criterion fixture: a synthetic `HashMap` iteration
    /// injected into `crates/hier/src/tree.rs` must be caught.
    #[test]
    fn r1_catches_injected_hashmap_iteration_in_tree() {
        let fixture = r#"
use std::collections::HashMap;
pub struct RepState {
    assigned: HashMap<u64, u64>,
}
impl RepState {
    pub fn flush(&mut self) {
        for (id, seq) in self.assigned.iter() {
            emit(*id, *seq);
        }
    }
}
"#;
        let f = lint_source("crates/hier/src/tree.rs", fixture);
        assert!(
            f.iter().filter(|x| x.rule == Rule::R1).count() >= 2,
            "import and field must both be flagged: {f:?}"
        );
    }

    #[test]
    fn r1_ignores_test_code_and_out_of_scope_files() {
        let fixture = "#[cfg(test)]\nmod tests {\n  use std::collections::HashMap;\n  fn t() { let _m: HashMap<u8, u8> = HashMap::new(); }\n}\n";
        assert!(lint_source("crates/hier/src/tree.rs", fixture).is_empty());
        let live = "use std::collections::HashMap;\n";
        assert!(lint_source("crates/bench/src/report.rs", live).is_empty());
        assert!(lint_source("crates/hier/tests/x.rs", live).is_empty());
    }

    #[test]
    fn r1_word_boundary_does_not_match_longer_idents() {
        assert!(lint_source("crates/sim/src/x.rs", "struct MyHashMapLike;\n").is_empty());
    }

    #[test]
    fn r1_allow_with_justification_suppresses() {
        let src = "// detlint: allow(R1): ordering is re-established by sort below\nuse std::collections::HashMap;\n";
        assert!(lint_source("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn r1_bare_allow_is_itself_a_finding() {
        let src = "use std::collections::HashMap; // detlint: allow(R1)\n";
        let f = lint_source("crates/sim/src/x.rs", src);
        assert_eq!(rules_of(&f), vec![Rule::R1]);
        assert!(f[0].message.contains("justification"));
    }

    // ----- chaos crate scope ------------------------------------------

    #[test]
    fn chaos_src_is_under_r1() {
        let src = "use std::collections::HashMap;\npub struct Census { counts: HashMap<String, u64> }\n";
        let f = lint_source("crates/chaos/src/census.rs", src);
        assert!(
            f.iter().filter(|x| x.rule == Rule::R1).count() >= 2,
            "unordered containers in the fuzzer must be flagged: {f:?}"
        );
    }

    #[test]
    fn chaos_is_under_r2_tests_included() {
        // A wall-clock read in fuzzer source would silently break
        // counterexample replay.
        let clock = "pub fn seed() -> u64 { std::time::Instant::now().elapsed().as_nanos() as u64 }\n";
        let f = lint_source("crates/chaos/src/gen.rs", clock);
        assert_eq!(rules_of(&f), vec![Rule::R2]);
        // Threads in chaos tests are R2 (not R5 — no double report).
        let threads = "#[test]\nfn t() { std::thread::spawn(|| {}); }\n";
        let f = lint_source("crates/chaos/tests/pipeline.rs", threads);
        assert_eq!(rules_of(&f), vec![Rule::R2]);
        // Ambient RNG in the sweep binary too.
        let rng = "fn main() { let s: u64 = rand::random(); }\n";
        let f = lint_source("crates/chaos/src/bin/chaos_sweep.rs", rng);
        assert_eq!(rules_of(&f), vec![Rule::R2]);
    }

    // ----- R2 ---------------------------------------------------------

    #[test]
    fn r2_flags_clocks_threads_and_entropy_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n  fn t() {\n    let t0 = std::time::Instant::now();\n    std::thread::spawn(|| {});\n    let mut r = thread_rng();\n  }\n}\n";
        let f = lint_source("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&f), vec![Rule::R2, Rule::R2, Rule::R2]);
    }

    #[test]
    fn r2_does_not_apply_outside_protocol_crates() {
        let src = "use std::time::Instant;\nfn t() { let _ = Instant::now(); }\n";
        assert!(lint_source("crates/bench/src/bin/all_experiments.rs", src).is_empty());
    }

    #[test]
    fn r2_spawn_method_on_sim_is_fine() {
        let src = "fn go(sim: &mut Sim<P>) { let _p = sim.spawn(node, proc_); }\n";
        assert!(lint_source("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn r2_flags_scoped_threads_in_protocol_crates() {
        let src = "fn t() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n";
        let f = lint_source("crates/sim/src/engine.rs", src);
        assert!(
            f.iter().any(|x| x.rule == Rule::R2),
            "thread::scope in a protocol crate must be R2: {f:?}"
        );
    }

    // ----- R3 ---------------------------------------------------------

    #[test]
    fn r3_flags_unwrap_and_empty_expect_in_protocol_code() {
        let src = "pub fn handle(&mut self) {\n  let v = self.q.pop().unwrap();\n  let w = self.m.get(&k).expect(\"\");\n}\n";
        let f = lint_source("crates/core/src/group.rs", src);
        assert_eq!(rules_of(&f), vec![Rule::R3, Rule::R3]);
    }

    #[test]
    fn r3_messaged_expect_and_test_unwrap_are_allowed() {
        let src = "pub fn handle(&mut self) {\n  let v = self.m.get(&k).expect(\"key just listed\");\n}\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { x().unwrap(); }\n}\n";
        assert!(lint_source("crates/core/src/group.rs", src).is_empty());
    }

    #[test]
    fn r3_unwrap_in_string_literal_is_ignored() {
        let src = "pub fn log(&mut self) { self.emit(\"call .unwrap() never\"); }\n";
        assert!(lint_source("crates/hier/src/x.rs", src).is_empty());
    }

    #[test]
    fn r3_does_not_apply_to_sim_or_toolkit() {
        let src = "pub fn go(&mut self) { self.q.pop().unwrap(); }\n";
        assert!(lint_source("crates/sim/src/x.rs", src).is_empty());
        assert!(lint_source("crates/toolkit/src/flat/x.rs", src).is_empty());
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
    fn r4_immutable_and_private_fns_are_exempt(){
        let files = [sf(
            "crates/core/src/x.rs",
            "impl P {\n  pub fn read_only(&self) {}\n  fn private_mut(&mut self) {}\n}\n",
        )];
        assert!(lint_files(&files).iter().all(|f| f.rule != Rule::R4));
    }

    // ----- R5 ---------------------------------------------------------

    #[test]
    fn r5_flags_threads_outside_bench() {
        let src = "fn go() { std::thread::spawn(|| {}); }\n";
        let f = lint_source("crates/apps/src/drivers.rs", src);
        assert_eq!(rules_of(&f), vec![Rule::R5]);
        let scoped = "fn go() { std::thread::scope(|s| {}); }\n";
        let f = lint_source("tests/e2e.rs", scoped);
        assert_eq!(rules_of(&f), vec![Rule::R5]);
    }

    #[test]
    fn r5_permits_threads_in_bench_harness() {
        let src = "pub fn par() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n";
        assert!(lint_source("crates/bench/src/par_sweep.rs", src).is_empty());
        assert!(lint_source("crates/bench/tests/par.rs", src).is_empty());
    }

    #[test]
    fn r5_does_not_double_report_protocol_crates() {
        // Protocol crates are R2's territory: exactly one finding, not two.
        let src = "fn t() { std::thread::spawn(|| {}); }\n";
        let f = lint_source("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&f), vec![Rule::R2]);
    }

    // ----- crates/net carve-out ---------------------------------------

    #[test]
    fn net_backend_may_use_threads_and_wall_clocks() {
        // The real transport backend is the one crate where OS threads and
        // wall-clock reads are the point; neither R2 nor R5 fires there.
        let src = "pub fn serve() {\n  let epoch = std::time::Instant::now();\n  std::thread::spawn(move || { let _ = epoch.elapsed(); });\n  std::thread::scope(|s| { s.spawn(|| {}); });\n}\n";
        assert!(lint_source("crates/net/src/daemon.rs", src).is_empty());
        assert!(lint_source("crates/net/src/bin/now_cluster.rs", src).is_empty());
    }

    #[test]
    fn net_carve_out_does_not_leak_to_neighbours() {
        // The exemption is exactly `crates/net/` — thread use in app code,
        // workspace tests, or a hypothetical sibling still fires R5...
        let threads = "fn go() { std::thread::spawn(|| {}); }\n";
        for rel in [
            "crates/apps/src/drivers.rs",
            "crates/netx/src/lib.rs",
            "tests/cluster.rs",
        ] {
            let f = lint_source(rel, threads);
            assert_eq!(rules_of(&f), vec![Rule::R5], "{rel} must still be R5");
        }
        // ...and wall clocks in the sim/protocol crates still fire R2, even
        // in their test code.
        let clock = "fn t() { let _ = std::time::Instant::now(); }\n";
        for rel in ["crates/sim/src/engine.rs", "crates/hier/tests/t.rs"] {
            let f = lint_source(rel, clock);
            assert_eq!(rules_of(&f), vec![Rule::R2], "{rel} must still be R2");
        }
    }

    #[test]
    fn the_sim_crate_has_no_thread_carve_out() {
        // Seeded violations: the simulator is one sequential loop, so a
        // thread token anywhere in `crates/sim` — the retired parallel
        // engine's old file included — fires R2.
        let scoped = "fn t() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n";
        let spawn = "fn go() { let h = std::thread::spawn(|| {}); h.join().ok(); }\n";
        for rel in [
            "crates/sim/src/par.rs",
            "crates/sim/src/engine.rs",
            "crates/sim/tests/engine_props.rs",
        ] {
            for src in [scoped, spawn] {
                let f = lint_source(rel, src);
                assert!(
                    f.iter().any(|x| x.rule == Rule::R2),
                    "{rel} must be under R2's thread ban: {f:?}"
                );
            }
        }
        // And with no threads there, R9 audits `crates/net/` only: a lock in
        // single-threaded sim code is not a topology hazard.
        let lock = |rel: &str| SourceFile {
            rel: rel.to_string(),
            text: "fn merge() { let shared = std::sync::Mutex::new(0); }\n".to_string(),
        };
        assert!(threads::lint_r9(&[lock("crates/sim/src/par.rs")]).is_empty());
        assert!(!threads::lint_r9(&[lock("crates/net/src/daemon.rs")]).is_empty());
    }

    #[test]
    fn r5_allow_with_justification_suppresses() {
        let src = "// detlint: allow(R5): spawns a watchdog outside any simulation\nfn go() { std::thread::spawn(|| {}); }\n";
        assert!(lint_source("crates/apps/src/x.rs", src).is_empty());
    }

    // ----- plumbing ---------------------------------------------------

    #[test]
    fn json_report_shape() {
        let f = vec![Finding {
            file: "a/b.rs".into(),
            line: 3,
            rule: Rule::R1,
            message: "say \"hi\"".into(),
        }];
        let j = to_json(&f);
        assert!(j.contains("\"count\": 1"));
        assert!(j.contains("\"rule\": \"R1\""));
        assert!(j.contains("say \\\"hi\\\""));
        assert!(to_json(&[]).contains("\"count\": 0"));
    }

    /// The linter must hold on the workspace it ships in: this is the test
    /// that makes `cargo test -q` enforce every rule forever.
    #[test]
    fn workspace_is_clean() {
        let findings = lint_workspace(&default_root()).expect("workspace readable");
        assert!(
            findings.is_empty(),
            "detlint found {} violation(s):\n{}",
            findings.len(),
            findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
        );
    }
}
