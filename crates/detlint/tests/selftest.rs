//! Seeded-violation self-tests for the flow rules (R6, R7, R9, R10), plus
//! pins on what the analyzers actually see in the real workspace.
//!
//! Each rule gets a fixture with one injected violation and an assertion
//! on rule + file + line — so a future parser refactor that quietly stops
//! matching anything fails here, not in production drift. The pin tests
//! close the other hole: `workspace_is_clean` proves there are no
//! findings, these prove the analyzers are *looking at the right things*
//! (a checker that parses zero enums is also "clean").

use detlint::flow::{collect_enum_defs, is_flow_enum_name};
use detlint::threads::net_topology;
use detlint::{collect_workspace, default_root, lint_files, Finding, Rule, SourceFile};

fn sf(rel: &str, text: &str) -> SourceFile {
    SourceFile { rel: rel.to_string(), text: text.to_string() }
}

fn only(findings: &[Finding], rule: Rule) -> Vec<&Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

// ---------------------------------------------------------------- R6 ----

#[test]
fn r6_seeded_wildcard_fires_with_span() {
    let fixture = sf(
        "crates/hier/src/seeded.rs",
        "pub enum SeedMsg { Ping, Pong }\n\
         fn handle(m: &SeedMsg) {\n\
         \x20 match m {\n\
         \x20   SeedMsg::Ping => reply(),\n\
         \x20   _ => {}\n\
         \x20 }\n\
         }\n\
         fn mk() { send(SeedMsg::Ping); send(SeedMsg::Pong); }\n\
         fn h2(m: &SeedMsg) { if let SeedMsg::Pong = m { on_pong(); } }\n",
    );
    let f = lint_files(std::slice::from_ref(&fixture));
    let r6 = only(&f, Rule::R6);
    assert_eq!(r6.len(), 1, "{f:?}");
    assert_eq!(r6[0].file, "crates/hier/src/seeded.rs");
    assert_eq!(r6[0].line, 5, "the `_ =>` arm line");
    assert!(r6[0].message.contains("SeedMsg"));
}

#[test]
fn r6_named_binding_is_the_sanctioned_alternative() {
    let fixture = sf(
        "crates/hier/src/seeded.rs",
        "pub enum SeedMsg { Ping, Pong }\n\
         fn handle(m: SeedMsg) {\n\
         \x20 match m {\n\
         \x20   SeedMsg::Ping => reply(),\n\
         \x20   other => trace_unhandled(other),\n\
         \x20 }\n\
         }\n\
         fn mk() { send(SeedMsg::Ping); send(SeedMsg::Pong); }\n\
         fn h2(m: &SeedMsg) { if let SeedMsg::Pong = m { on_pong(); } }\n",
    );
    let f = lint_files(&[fixture]);
    assert!(only(&f, Rule::R6).is_empty(), "{f:?}");
}

// ---------------------------------------------------------------- R7 ----

#[test]
fn r7_seeded_dead_surface_fires_with_spans() {
    let fixture = sf(
        "crates/core/src/seeded.rs",
        "pub enum SeedMsg {\n\
         \x20 Used,\n\
         \x20 NeverConstructed,\n\
         \x20 NeverHandled,\n\
         }\n\
         fn handle(m: SeedMsg) {\n\
         \x20 match m {\n\
         \x20   SeedMsg::Used => {}\n\
         \x20   SeedMsg::NeverConstructed => {}\n\
         \x20 }\n\
         }\n\
         fn mk() { send(SeedMsg::Used); send(SeedMsg::NeverHandled); }\n",
    );
    let f = lint_files(std::slice::from_ref(&fixture));
    let r7 = only(&f, Rule::R7);
    assert_eq!(r7.len(), 2, "{f:?}");
    let never_made = r7.iter().find(|x| x.message.contains("NeverConstructed")).expect("flagged");
    assert_eq!((never_made.file.as_str(), never_made.line), ("crates/core/src/seeded.rs", 3));
    assert!(never_made.message.contains("never constructed"));
    let never_read = r7.iter().find(|x| x.message.contains("NeverHandled")).expect("flagged");
    assert_eq!(never_read.line, 4);
    assert!(never_read.message.contains("never named in any pattern"));
}

// ---------------------------------------------------------------- R9 ----

#[test]
fn r9_seeded_lock_in_net_fires_with_span() {
    let fixture = sf(
        "crates/net/src/seeded.rs",
        "use std::sync::mpsc;\n\
         fn share() {\n\
         \x20 let shared = std::sync::Mutex::new(Vec::new());\n\
         }\n",
    );
    let f = lint_files(std::slice::from_ref(&fixture));
    let r9 = only(&f, Rule::R9);
    assert_eq!(r9.len(), 1, "{f:?}");
    assert_eq!((r9[0].file.as_str(), r9[0].line), ("crates/net/src/seeded.rs", 3));
    assert!(r9[0].message.contains("Mutex"));
}

// --------------------------------------------------------------- R10 ----

#[test]
fn r10_stale_allow_fires_and_live_allow_does_not() {
    // Stale: the directive guards a line with nothing to suppress.
    let stale = sf(
        "crates/core/src/seeded.rs",
        "// detlint: allow(R3): popped right after a non-empty check\n\
         fn quiet() {}\n",
    );
    let f = lint_files(std::slice::from_ref(&stale));
    let r10 = only(&f, Rule::R10);
    assert_eq!(r10.len(), 1, "{f:?}");
    assert_eq!((r10[0].file.as_str(), r10[0].line), ("crates/core/src/seeded.rs", 1));
    assert!(r10[0].message.contains("stale"));

    // Live: the same directive suppressing a real R1 finding is not stale.
    let live = sf(
        "crates/sim/src/seeded.rs",
        "// detlint: allow(R1): ordering re-established by the sort below\n\
         use std::collections::HashMap;\n",
    );
    let f = lint_files(&[live]);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn r10_unknown_rule_and_prose_mentions() {
    let unknown = sf(
        "crates/core/src/seeded.rs",
        "// detlint: allow(R42): rules from the future\nfn quiet() {}\n",
    );
    let f = lint_files(std::slice::from_ref(&unknown));
    let r10 = only(&f, Rule::R10);
    assert_eq!(r10.len(), 1, "{f:?}");
    assert!(r10[0].message.contains("unknown rule `R42`"));

    // A retired rule is unknown too, and the message lists the real ids.
    let retired = sf(
        "crates/core/src/seeded.rs",
        "// detlint: allow(R8): codec parity\nfn quiet() {}\n",
    );
    let f = lint_files(std::slice::from_ref(&retired));
    let r10 = only(&f, Rule::R10);
    assert_eq!(r10.len(), 1, "{f:?}");
    assert!(r10[0].message.contains("unknown rule `R8`"), "{}", r10[0].message);
    assert!(r10[0].message.contains("R7, R9, R10"), "{}", r10[0].message);

    // Doc prose *mentioning* the syntax is not a directive.
    let prose = sf(
        "crates/core/src/seeded.rs",
        "//! Suppress with `// detlint: allow(R1): <reason>` on the line above.\nfn quiet() {}\n",
    );
    assert!(lint_files(&[prose]).is_empty());
}

#[test]
fn r10_bare_allow_counts_as_used_but_still_reports_missing_justification() {
    let bare = sf(
        "crates/sim/src/seeded.rs",
        "use std::collections::HashMap; // detlint: allow(R1)\n",
    );
    let f = lint_files(std::slice::from_ref(&bare));
    // Exactly one finding: the bare-allow complaint — not an extra R10.
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, Rule::R1);
    assert!(f[0].message.contains("justification"));
}

// ------------------------------------------------- workspace pins -------

#[test]
fn pin_flow_analyzer_sees_the_protocol_enums() {
    let files = collect_workspace(&default_root()).expect("workspace readable");
    let enums = collect_enum_defs(&files);
    for (name, want_variants) in [
        ("IsisMsg", 13),
        ("HierPayload", 4),
        ("TreeMsg", 6),
        ("CtlMsg", 13),
        ("LeaderCmd", 6),
        ("NameMsg", 4),
        ("HSvcMsg", 14),
    ] {
        assert!(is_flow_enum_name(name));
        let def = enums
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("enum {name} not found by the flow parser"));
        assert_eq!(def.variants.len(), want_variants, "{name} variant count");
    }
}

#[test]
fn pin_net_thread_topology_shape() {
    let files = collect_workspace(&default_root()).expect("workspace readable");
    let topo = net_topology(&files);
    let daemon_spawns: Vec<_> =
        topo.spawns.iter().filter(|s| s.file.ends_with("daemon.rs")).collect();
    // Core thread, accept loop, per-connection readers, per-peer writers.
    assert!(daemon_spawns.len() >= 4, "{daemon_spawns:?}");
    assert!(
        topo.channels.iter().filter(|c| c.file.ends_with("daemon.rs")).count() >= 3,
        "{:?}",
        topo.channels
    );
    assert!(!topo.atomics.is_empty());
    // Shared-by-reference state is atomics or immutable data — never locks.
    for arc in &topo.arcs {
        assert!(
            !arc.inner.contains("Mutex") && !arc.inner.contains("RwLock"),
            "lock smuggled through Arc: {arc:?}"
        );
    }
}

/// The acceptance check in executable form: all nine rules, zero findings.
#[test]
fn workspace_clean_under_all_nine_rules() {
    let files = collect_workspace(&default_root()).expect("workspace readable");
    let findings = lint_files(&files);
    assert!(
        findings.is_empty(),
        "{}",
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
    assert_eq!(Rule::ALL.len(), 9);
}
