//! Seeded-violation self-tests for the flow rules (R6–R10), plus pins on
//! what the analyzers actually see in the real workspace.
//!
//! Each rule gets a fixture with one injected violation and an assertion
//! on rule + file + line — so a future parser refactor that quietly stops
//! matching anything fails here, not in production drift. The pin tests
//! close the other hole: `workspace_is_clean` proves there are no
//! findings, these prove the analyzers are *looking at the right things*
//! (a checker that parses zero enums is also "clean").

use detlint::flow::is_flow_enum_name;
use detlint::threads::net_topology;
use detlint::wireparity::{collect_enum_defs, collect_wire_impls};
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

// ---------------------------------------------------------------- R8 ----

const SEED_ENUM: &str = "pub enum SeedMsg { A, B }\n";

#[test]
fn r8_seeded_missing_decode_arm_fires_at_decode_fn() {
    let msg = sf("crates/core/src/seeded.rs", SEED_ENUM);
    let codec = sf(
        "crates/net/src/wire.rs",
        "impl Wire for SeedMsg {\n\
         \x20 fn encode(&self, out: &mut Vec<u8>) {\n\
         \x20   match self {\n\
         \x20     SeedMsg::A => out.push(0),\n\
         \x20     SeedMsg::B => out.push(1),\n\
         \x20   }\n\
         \x20 }\n\
         \x20 fn decode(r: &mut WireReader) -> Result<Self, CodecError> {\n\
         \x20   Ok(match r.u8()? {\n\
         \x20     0 => Self::A,\n\
         \x20     _t => return Err(CodecError::BadTag),\n\
         \x20   })\n\
         \x20 }\n\
         }\n",
    );
    let f = lint_files(&[msg, codec]);
    let r8 = only(&f, Rule::R8);
    assert_eq!(r8.len(), 1, "{f:?}");
    assert_eq!(r8[0].file, "crates/net/src/wire.rs");
    assert_eq!(r8[0].line, 8, "the `fn decode` line");
    assert!(r8[0].message.contains("SeedMsg::B"));
    assert!(r8[0].message.contains("decode"));
}

#[test]
fn r8_seeded_missing_encode_arm_fires_at_encode_fn() {
    let msg = sf("crates/core/src/seeded.rs", SEED_ENUM);
    let codec = sf(
        "crates/net/src/wire.rs",
        "impl Wire for SeedMsg {\n\
         \x20 fn encode(&self, out: &mut Vec<u8>) {\n\
         \x20   match self { SeedMsg::A => out.push(0), SeedMsg::B => out.push(1) }\n\
         \x20 }\n\
         \x20 fn decode(r: &mut WireReader) -> Result<Self, CodecError> {\n\
         \x20   Ok(match r.u8()? { 0 => Self::A, 1 => Self::B, _ => return Err(CodecError::BadTag) })\n\
         \x20 }\n\
         }\n",
    );
    // Baseline: complete codec is clean.
    let clean = lint_files(&[msg.clone(), codec]);
    assert!(only(&clean, Rule::R8).is_empty(), "{clean:?}");
    // Now grow the enum without touching the codec: both sides must fire.
    let grown = sf("crates/core/src/seeded.rs", "pub enum SeedMsg { A, B, C }\n");
    let codec = sf(
        "crates/net/src/wire.rs",
        "impl Wire for SeedMsg {\n\
         \x20 fn encode(&self, out: &mut Vec<u8>) {\n\
         \x20   match self { SeedMsg::A => out.push(0), SeedMsg::B => out.push(1) }\n\
         \x20 }\n\
         \x20 fn decode(r: &mut WireReader) -> Result<Self, CodecError> {\n\
         \x20   Ok(match r.u8()? { 0 => Self::A, 1 => Self::B, _ => return Err(CodecError::BadTag) })\n\
         \x20 }\n\
         }\n",
    );
    let f = lint_files(&[grown, codec]);
    let r8 = only(&f, Rule::R8);
    assert_eq!(r8.len(), 2, "one per missing side: {f:?}");
    assert!(r8.iter().any(|x| x.line == 2 && x.message.contains("no encode arm")));
    assert!(r8.iter().any(|x| x.line == 5 && x.message.contains("no decode arm")));
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
fn pin_wire_parity_covers_the_codec_stack() {
    let files = collect_workspace(&default_root()).expect("workspace readable");
    let impls = collect_wire_impls(&files);
    // The full protocol stack: top-level message, the hier payload, every
    // nested payload enum, and the enum-ish leaf codecs.
    for name in [
        "IsisMsg", "HierPayload", "TreeMsg", "CtlMsg", "LeaderCmd", "CastKind", "LbcastStatus",
        "HierState",
    ] {
        let im = impls
            .iter()
            .find(|i| i.type_name == name)
            .unwrap_or_else(|| panic!("no Wire impl found for {name}"));
        assert!(
            !im.encode_refs.is_empty() && !im.decode_refs.is_empty(),
            "{name}: parity check would be vacuous (encode {:?} / decode {:?})",
            im.encode_refs,
            im.decode_refs
        );
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

/// The acceptance check in executable form: all ten rules, zero findings.
#[test]
fn workspace_clean_under_all_ten_rules() {
    let files = collect_workspace(&default_root()).expect("workspace readable");
    let findings = lint_files(&files);
    assert!(
        findings.is_empty(),
        "{}",
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
    assert_eq!(Rule::ALL.len(), 10);
}
