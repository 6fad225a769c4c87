//! Seeded-violation self-tests for the flow rules (R6, R7): one injected
//! violation per rule, asserted on rule + file + line, so a parser refactor
//! that quietly stops matching fails here. The pin closes the other hole:
//! `workspace_is_clean` proves there are no findings, the pin proves the
//! analyzer parses the real protocol enums (zero enums is also "clean").

use detlint::flow::{collect_enum_defs, is_flow_enum_name};
use detlint::{collect_workspace, default_root, lint_files, scrub_files, Finding, Rule, SourceFile};
use std::fs::read_to_string;

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

// ------------------------------------------------- workspace pins -------

#[test]
fn pin_flow_analyzer_sees_the_protocol_enums() {
    let files = collect_workspace(&default_root()).expect("workspace readable");
    let enums = collect_enum_defs(&scrub_files(&files));
    for (name, want_variants) in [
        ("IsisMsg", 13),
        ("HierPayload", 4),
        ("TreeMsg", 6),
        ("CtlMsg", 13),
        ("LeaderCmd", 6),
        ("NameMsg", 4),
        ("HSvcMsg", 7),
        ("SvcMsg", 3),
    ] {
        assert!(is_flow_enum_name(name));
        let def = enums
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("enum {name} not found by the flow parser"));
        assert_eq!(def.variants.len(), want_variants, "{name} variant count");
    }
}

/// The nine determinism rules (R1-R7, R9, R10) hold on the tree: detlint's
/// four find nothing, and each of the other five still has its clippy or
/// rustc home, named by rule in the config that carries it.
#[test]
fn workspace_clean_under_all_nine_rules() {
    let root = default_root();
    let files = collect_workspace(&root).expect("workspace readable");
    let findings = lint_files(&files);
    assert!(
        findings.is_empty(),
        "{}",
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
    assert_eq!(Rule::ALL, [Rule::R3, Rule::R4, Rule::R6, Rule::R7]);
    let config = |rel: &str| read_to_string(root.join(rel)).expect("config readable");
    let clippy = config("clippy.toml");
    for rule in ["R1", "R2", "R5"] {
        assert!(clippy.contains(&format!("reason = \"{rule}:")), "clippy.toml must carry {rule}");
    }
    assert!(config("crates/net/clippy.toml").contains("reason = \"R9:"), "crates/net must carry R9");
    let manifest = config("Cargo.toml");
    for lint in ["unsafe_code", "allow_attributes", "allow_attributes_without_reason"] {
        assert!(manifest.contains(&format!("\n{lint} = \"deny\"")), "{lint} (R9/R10) must be denied");
    }
}
