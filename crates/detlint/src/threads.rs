//! Thread-topology audit for `crates/net` (rule R9).
//!
//! The daemon's concurrency contract is structural: one core thread owns
//! all mutable protocol state, satellite threads (accept loop, per-
//! connection readers, per-peer writers) communicate with it *only* over
//! `mpsc` channels, and the few flags shared by reference are declared
//! atomics inside `Arc`. Under that shape, `Arc<T>` without interior
//! mutability is immutable, so the invariant "cross-thread mutable state
//! flows only through channels or atomics" holds by construction — unless
//! someone introduces a lock or an interior-mutability cell. R9 therefore
//! bans the constructs that would break the shape (`Mutex`, `RwLock`,
//! `Condvar`, `UnsafeCell`, `static mut`) anywhere in `crates/net`, and
//! [`net_topology`] exposes the spawn/channel/Arc graph so tests can pin
//! the intended ensemble.

use crate::scrub::{scrub, Line};
use crate::tok::{is_ident, path_chain, tokenize};
use crate::{has_ident, Finding, Rule, SourceFile};

/// The crate under audit.
const NET_SCOPE: &str = "crates/net/";

/// Constructs that would let mutable state cross threads outside channels
/// and declared atomics.
const BANNED: [(&str, &str); 4] = [
    ("Mutex", "lock-based sharing"),
    ("RwLock", "lock-based sharing"),
    ("Condvar", "lock-based signalling"),
    ("UnsafeCell", "raw interior mutability"),
];

/// One interesting site in the net crate's thread topology.
#[derive(Clone, Debug)]
pub struct Site {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Name of the enclosing function (empty at item level).
    pub context: String,
}

/// One `Arc<…>` occurrence with its inner type text.
#[derive(Clone, Debug)]
pub struct ArcSite {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// The tokens between the angle brackets, joined by spaces.
    pub inner: String,
}

/// The static thread topology of `crates/net`.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    /// `thread::spawn` call sites.
    pub spawns: Vec<Site>,
    /// `mpsc::channel` / `mpsc::sync_channel` creation sites.
    pub channels: Vec<Site>,
    /// `Arc<…>` occurrences (shared-by-reference state).
    pub arcs: Vec<ArcSite>,
    /// `Atomic*` identifier occurrences (declared atomics).
    pub atomics: Vec<Site>,
}

fn scan_file(rel: &str, lines: &[Line], topo: &mut Topology) {
    let toks = tokenize(lines);
    let mut context = String::new();
    let mut i = 0;
    while i < toks.len() {
        let t = toks[i].text.as_str();
        if t == "fn" && i + 1 < toks.len() && is_ident(&toks[i + 1].text) {
            context = toks[i + 1].text.clone();
            i += 2;
            continue;
        }
        if is_ident(t) {
            let (segs, next) = path_chain(&toks, i);
            let line = toks[i].line;
            let site = || Site { file: rel.to_string(), line, context: context.clone() };
            if segs.len() >= 2 {
                let pair = (segs[segs.len() - 2], segs[segs.len() - 1]);
                match pair {
                    ("thread", "spawn") => topo.spawns.push(site()),
                    ("mpsc", "channel") | ("mpsc", "sync_channel") => {
                        topo.channels.push(site())
                    }
                    _ => {}
                }
            }
            let last = segs[segs.len() - 1];
            if last.starts_with("Atomic") && last.len() > "Atomic".len() {
                topo.atomics.push(Site {
                    file: rel.to_string(),
                    line,
                    context: context.clone(),
                });
            }
            if last == "Arc" && toks.get(next).map(|x| x.text.as_str()) == Some("<") {
                let mut d = 0i32;
                let mut j = next;
                let mut inner: Vec<&str> = Vec::new();
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "<" => d += 1,
                        ">" => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        ";" | "{" => break, // a comparison, not generics
                        _ => {}
                    }
                    if d >= 1 && !(d == 1 && toks[j].text == "<") {
                        inner.push(&toks[j].text);
                    }
                    j += 1;
                }
                topo.arcs.push(ArcSite {
                    file: rel.to_string(),
                    line,
                    inner: inner.join(" "),
                });
                // Fall through to `next`, not past the generics: the inner
                // tokens still feed the atomics census below.
            }
            i = next.max(i + 1);
            continue;
        }
        i += 1;
    }
}

/// Builds the spawn/channel/Arc/atomic graph of every file in `crates/net`.
pub fn net_topology(files: &[SourceFile]) -> Topology {
    let mut topo = Topology::default();
    for f in files {
        if f.rel.starts_with(NET_SCOPE) {
            scan_file(&f.rel, &scrub(&f.text), &mut topo);
        }
    }
    topo
}

/// Runs R9 over the whole file set. Findings are raw (allow directives are
/// applied by the caller).
pub fn lint_r9(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        if !f.rel.starts_with(NET_SCOPE) {
            continue;
        }
        let lines = scrub(&f.text);
        for (idx, line) in lines.iter().enumerate() {
            for (tok, why) in BANNED {
                if has_ident(&line.code, tok) {
                    out.push(Finding {
                        file: f.rel.clone(),
                        line: idx + 1,
                        rule: Rule::R9,
                        message: format!(
                            "`{tok}` ({why}) in the net backend — cross-thread mutable \
                             state must flow through mpsc channels or declared atomics \
                             (single-owner core thread, message-passing satellites)"
                        ),
                    });
                }
            }
            if line.code.contains("static mut ") {
                out.push(Finding {
                    file: f.rel.clone(),
                    line: idx + 1,
                    rule: Rule::R9,
                    message: "`static mut` in the net backend — cross-thread mutable \
                              state must flow through mpsc channels or declared atomics"
                        .to_string(),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(rel: &str, text: &str) -> SourceFile {
        SourceFile { rel: rel.to_string(), text: text.to_string() }
    }

    #[test]
    fn locks_and_cells_in_net_are_flagged() {
        let f = sf(
            "crates/net/src/bad.rs",
            "use std::sync::Mutex;\nfn go() {\n  let m = RwLock::new(0);\n  static mut COUNT: u32 = 0;\n}\n",
        );
        let out = lint_r9(std::slice::from_ref(&f));
        assert_eq!(out.len(), 3, "{out:?}");
        assert!(out.iter().all(|x| x.rule == Rule::R9));
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn channels_atomics_and_arcs_are_the_sanctioned_shape() {
        let f = sf(
            "crates/net/src/good.rs",
            "fn serve(stop: Arc<AtomicBool>) {\n  let (tx, rx) = mpsc::channel();\n  std::thread::spawn(move || drop(tx));\n}\n",
        );
        assert!(lint_r9(std::slice::from_ref(&f)).is_empty());
        let topo = net_topology(&[f]);
        assert_eq!(topo.spawns.len(), 1);
        assert_eq!(topo.spawns[0].context, "serve");
        assert_eq!(topo.channels.len(), 1);
        assert_eq!(topo.arcs.len(), 1);
        assert_eq!(topo.arcs[0].inner, "AtomicBool");
        assert!(!topo.atomics.is_empty());
    }

    #[test]
    fn locks_outside_net_are_not_r9_business() {
        let f = sf("crates/bench/src/par_sweep.rs", "use std::sync::Mutex;\n");
        assert!(lint_r9(&[f]).is_empty());
    }
}
