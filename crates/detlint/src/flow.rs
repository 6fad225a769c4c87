//! Message-flow analysis (rules R6/R7): which protocol-message variants the
//! workspace constructs, which ones its handlers name, and which `match`
//! arms silently swallow the rest.
//!
//! "Protocol enum" is a naming-convention contract: any `enum` whose name
//! ends in `Msg`, `Payload` or `Cmd` and is defined in non-test source of
//! the protocol/transport crates is wire surface. Every such variant must
//! be *constructed* somewhere (else it is dead wire surface) and *named in
//! a pattern* somewhere (else nothing can ever react to it), and no match
//! that inspects a protocol enum may end in a bare `_ =>` arm — a new
//! variant added later would vanish without even a counter bump.
//!
//! The wire codec in `crates/net/src/wire.rs` declares its layouts through
//! macros that name variants only as `Self::…`, so it adds nothing to the
//! construct/handle tally and cannot mask dead surface. Its parity with
//! the enums is checked by the compiler, not here.

use std::collections::{BTreeMap, BTreeSet};

use crate::scrub::Line;
use crate::tok::{is_ident, path_chain, tokenize, Token};
use crate::{Finding, Rule};

/// Crates whose source participates in the message-flow graph.
const FLOW_SCOPE: [&str; 6] = [
    "crates/sim/src/",
    "crates/core/src/",
    "crates/hier/src/",
    "crates/net/src/",
    "crates/toolkit/src/",
    "crates/apps/src/",
];

/// True when `name` follows the protocol-enum naming convention.
pub fn is_flow_enum_name(name: &str) -> bool {
    name.ends_with("Msg") || name.ends_with("Payload") || name.ends_with("Cmd")
}

/// An `enum` item found in a source file.
#[derive(Clone, Debug)]
pub struct EnumDef {
    /// Enum name (without generics).
    pub name: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the `enum` keyword.
    pub line: usize,
    /// Variant names with their 1-based definition lines.
    pub variants: Vec<(String, usize)>,
}

/// One arm of a `match` expression.
#[derive(Clone, Debug)]
pub struct Arm {
    /// 1-based line the pattern starts on.
    pub line: usize,
    /// Scrubbed pattern tokens up to `=>` (guard included).
    pub pattern: Vec<String>,
}

/// One `match` expression with its parsed arms.
#[derive(Clone, Debug)]
pub struct MatchSite {
    /// 1-based line of the `match` keyword.
    pub line: usize,
    /// Arms in source order.
    pub arms: Vec<Arm>,
}

/// Extracts every enum definition from a scrubbed file.
pub fn extract_enums(rel: &str, lines: &[Line]) -> Vec<EnumDef> {
    let toks = tokenize(lines);
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text != "enum" || i + 1 >= toks.len() || !is_ident(&toks[i + 1].text) {
            i += 1;
            continue;
        }
        let name = toks[i + 1].text.clone();
        let line = toks[i].line;
        // Skip generics/bounds to the `{` opening the body.
        let mut j = i + 2;
        let mut angle = 0i32;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "{" if angle <= 0 => break,
                ";" => break,
                _ => {}
            }
            j += 1;
        }
        if j >= toks.len() || toks[j].text != "{" {
            i += 2;
            continue;
        }
        let mut variants = Vec::new();
        let mut k = j + 1;
        'body: while k < toks.len() {
            // Skip `#[...]` attributes before the variant name.
            while k + 1 < toks.len() && toks[k].text == "#" && toks[k + 1].text == "[" {
                k += 2;
                let mut d = 1i32;
                while k < toks.len() && d > 0 {
                    match toks[k].text.as_str() {
                        "[" => d += 1,
                        "]" => d -= 1,
                        _ => {}
                    }
                    k += 1;
                }
            }
            if k >= toks.len() || toks[k].text == "}" {
                break;
            }
            if !is_ident(&toks[k].text) {
                break; // malformed body; bail rather than loop
            }
            variants.push((toks[k].text.clone(), toks[k].line));
            k += 1;
            // Skip the payload/discriminant to the `,` ending this variant.
            let (mut p, mut b, mut br) = (0i32, 0i32, 0i32);
            while k < toks.len() {
                match toks[k].text.as_str() {
                    "(" => p += 1,
                    ")" => p -= 1,
                    "[" => b += 1,
                    "]" => b -= 1,
                    "{" => br += 1,
                    "}" => {
                        if br == 0 {
                            break 'body; // enum body closed
                        }
                        br -= 1;
                    }
                    "," if p == 0 && b == 0 && br == 0 => {
                        k += 1;
                        continue 'body;
                    }
                    _ => {}
                }
                k += 1;
            }
            break;
        }
        out.push(EnumDef { name, file: rel.to_string(), line, variants });
        i = j + 1;
    }
    out
}

/// All non-test enum definitions in a scrubbed file set (see
/// [`crate::scrub_files`]), whatever their name.
pub fn collect_enum_defs(scrubbed: &BTreeMap<&str, Vec<Line>>) -> Vec<EnumDef> {
    scrubbed
        .iter()
        .flat_map(|(&rel, lines)| {
            extract_enums(rel, lines)
                .into_iter()
                .filter(|e| !lines[e.line - 1].in_test)
        })
        .collect()
}

/// Extracts every `match` expression (with parsed arms) and, alongside,
/// the token-index spans that sit in pattern position (match-arm patterns,
/// `let`-bound patterns are handled separately by the caller).
pub fn extract_matches(lines: &[Line]) -> Vec<MatchSite> {
    let toks = tokenize(lines);
    let (sites, _) = parse_matches(&toks);
    sites
}

/// Parses `match` sites from a token stream; also returns every token index
/// range `[start, end)` that is a match-arm pattern.
fn parse_matches(toks: &[Token]) -> (Vec<MatchSite>, Vec<(usize, usize)>) {
    let mut sites = Vec::new();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text != "match" {
            i += 1;
            continue;
        }
        let site_line = toks[i].line;
        // Scrutinee: runs to the first `{` outside any bracket/paren group
        // (struct literals are not legal in a bare match scrutinee).
        let (mut p, mut b, mut cb) = (0i32, 0i32, 0i32);
        let mut j = i + 1;
        let mut found = false;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" => p += 1,
                ")" => p -= 1,
                "[" => b += 1,
                "]" => b -= 1,
                "{" if p == 0 && b == 0 && cb == 0 => {
                    found = true;
                    break;
                }
                "{" => cb += 1,
                "}" => cb -= 1,
                ";" if p == 0 && b == 0 && cb == 0 => break, // not a match expr
                _ => {}
            }
            j += 1;
        }
        if !found {
            i += 1;
            continue;
        }
        let mut arms = Vec::new();
        let mut k = j + 1;
        'outer: while k < toks.len() {
            if toks[k].text == "}" {
                break; // body ends
            }
            // Pattern: collect until `=>` at this arm's base depth.
            let arm_line = toks[k].line;
            let pat_start = k;
            let mut pat: Vec<String> = Vec::new();
            let (mut p, mut b, mut br) = (0i32, 0i32, 0i32);
            while k < toks.len() {
                let t = toks[k].text.as_str();
                if t == "="
                    && p == 0
                    && b == 0
                    && br == 0
                    && toks.get(k + 1).map(|x| x.text.as_str()) == Some(">")
                {
                    spans.push((pat_start, k));
                    k += 2;
                    break;
                }
                match t {
                    "(" => p += 1,
                    ")" => p -= 1,
                    "[" => b += 1,
                    "]" => b -= 1,
                    "{" => br += 1,
                    "}" => {
                        if br == 0 {
                            break 'outer; // body ends mid-"pattern"
                        }
                        br -= 1;
                    }
                    _ => {}
                }
                pat.push(toks[k].text.clone());
                k += 1;
            }
            arms.push(Arm { line: arm_line, pattern: pat });
            // Arm expression: to a `,` at base depth, or just past a brace
            // group that returns to base depth (block arms omit the comma).
            let (mut p, mut b, mut br) = (0i32, 0i32, 0i32);
            while k < toks.len() {
                let t = toks[k].text.as_str();
                match t {
                    "(" => p += 1,
                    ")" => p -= 1,
                    "[" => b += 1,
                    "]" => b -= 1,
                    "{" => br += 1,
                    "}" => {
                        if br == 0 {
                            break 'outer; // body ends
                        }
                        br -= 1;
                        if br == 0 && p == 0 && b == 0 {
                            k += 1;
                            if toks.get(k).map(|x| x.text.as_str()) == Some(",") {
                                k += 1;
                            }
                            continue 'outer;
                        }
                    }
                    "," if p == 0 && b == 0 && br == 0 => {
                        k += 1;
                        continue 'outer;
                    }
                    _ => {}
                }
                k += 1;
            }
            break;
        }
        sites.push(MatchSite { line: site_line, arms });
        i += 1; // nested matches are found by the continuing scan
    }
    (sites, spans)
}

/// `Enum::Variant` references in a token slice: the last two segments of
/// each path chain, when both look like a type and a variant (leading
/// uppercase). `Self::X` is skipped — the flow pass cannot resolve it.
fn variant_refs(toks: &[Token], start: usize, end: usize) -> Vec<(String, String, usize)> {
    let mut out = Vec::new();
    let mut i = start;
    while i < end.min(toks.len()) {
        if !is_ident(&toks[i].text) {
            i += 1;
            continue;
        }
        let (segs, next) = path_chain(toks, i);
        if segs.len() >= 2 {
            let e = segs[segs.len() - 2];
            let v = segs[segs.len() - 1];
            if e != "Self"
                && e.chars().next().is_some_and(|c| c.is_uppercase())
                && v.chars().next().is_some_and(|c| c.is_uppercase())
            {
                out.push((e.to_string(), v.to_string(), toks[i].line));
            }
        }
        i = next.max(i + 1);
    }
    out
}

/// Per-file flow facts feeding the workspace-level R7 tally.
struct FileFacts {
    rel: String,
    sites: Vec<MatchSite>,
    /// (enum, variant, line) named in pattern position.
    handled: Vec<(String, String, usize)>,
    /// (enum, variant, line) in expression position (construction).
    constructed: Vec<(String, String, usize)>,
}

fn file_facts(rel: &str, lines: &[Line]) -> FileFacts {
    let toks = tokenize(lines);
    let (sites, mut pattern_spans) = parse_matches(&toks);

    // `let`-bound patterns (`if let E::V … = x`, `while let`, plain
    // destructuring `let`) and `matches!(x, E::V …)` also handle a variant.
    let mut i = 0;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "let" => {
                // Pattern runs to the `=` at depth 0 (or `else`/`;` for
                // malformed input).
                let start = i + 1;
                let (mut p, mut b, mut br) = (0i32, 0i32, 0i32);
                let mut j = start;
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "(" => p += 1,
                        ")" => p -= 1,
                        "[" => b += 1,
                        "]" => b -= 1,
                        "{" => br += 1,
                        "}" => br -= 1,
                        "=" | ";" if p == 0 && b == 0 && br == 0 => break,
                        _ => {}
                    }
                    if p < 0 || b < 0 || br < 0 {
                        break; // `let` pattern ended by an enclosing close
                    }
                    j += 1;
                }
                pattern_spans.push((start, j));
                i = j;
            }
            "matches" if toks.get(i + 1).map(|t| t.text.as_str()) == Some("!") => {
                // Everything inside `matches!(…)` after the first `,` is
                // pattern position; counting the scrutinee too is a harmless
                // over-approximation.
                let mut j = i + 2;
                if toks.get(j).map(|t| t.text.as_str()) == Some("(") {
                    let start = j + 1;
                    let mut d = 0i32;
                    while j < toks.len() {
                        match toks[j].text.as_str() {
                            "(" => d += 1,
                            ")" => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    pattern_spans.push((start, j));
                }
                i = j;
            }
            _ => i += 1,
        }
    }

    // Classify every variant reference on a non-test line.
    let in_pattern = |idx: usize| pattern_spans.iter().any(|&(s, e)| idx >= s && idx < e);
    let mut handled = Vec::new();
    let mut constructed = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !is_ident(&toks[i].text) {
            i += 1;
            continue;
        }
        let (segs, next) = path_chain(&toks, i);
        if segs.len() >= 2 {
            let e = segs[segs.len() - 2].to_string();
            let v = segs[segs.len() - 1].to_string();
            let line = toks[i].line;
            let uppercase = |s: &str| s.chars().next().is_some_and(|c| c.is_uppercase());
            if e != "Self" && uppercase(&e) && uppercase(&v) && !lines[line - 1].in_test {
                // `use` imports are neither construction nor handling.
                let after_use = i > 0 && toks[i - 1].text == "use";
                if !after_use {
                    if in_pattern(i) {
                        handled.push((e, v, line));
                    } else {
                        constructed.push((e, v, line));
                    }
                }
            }
        }
        i = next.max(i + 1);
    }

    FileFacts { rel: rel.to_string(), sites, handled, constructed }
}

fn in_flow_scope(rel: &str) -> bool {
    FLOW_SCOPE.iter().any(|p| rel.starts_with(p)) && !rel.contains("/src/bin/")
}

/// Runs R6 and R7 over the whole file set, scrubbed and keyed by path.
pub fn lint_flow(scrubbed: &BTreeMap<&str, Vec<Line>>) -> Vec<Finding> {
    // Protocol enums: naming convention, non-test source, flow scope.
    let mut enums: BTreeMap<String, EnumDef> = BTreeMap::new();
    let mut facts: Vec<FileFacts> = Vec::new();
    for (&rel, lines) in scrubbed {
        if in_flow_scope(rel) {
            for e in extract_enums(rel, lines) {
                if is_flow_enum_name(&e.name) && !lines[e.line - 1].in_test {
                    enums.entry(e.name.clone()).or_insert(e);
                }
            }
        }
        facts.push(file_facts(rel, lines));
    }

    let mut out = Vec::new();

    // R6: no bare `_ =>` in a match that names a protocol-enum variant.
    for ff in &facts {
        if !in_flow_scope(&ff.rel) {
            continue;
        }
        for site in &ff.sites {
            let toks_of = |arm: &Arm| -> Vec<Token> {
                arm.pattern
                    .iter()
                    .map(|t| Token { text: t.clone(), line: arm.line })
                    .collect()
            };
            let proto: Option<String> = site.arms.iter().find_map(|arm| {
                let ts = toks_of(arm);
                variant_refs(&ts, 0, ts.len())
                    .into_iter()
                    .find(|(e, v, _)| {
                        enums.get(e).is_some_and(|d| d.variants.iter().any(|(n, _)| n == v))
                    })
                    .map(|(e, _, _)| e)
            });
            let Some(enum_name) = proto else { continue };
            for arm in &site.arms {
                if arm.pattern.len() == 1 && arm.pattern[0] == "_" {
                    out.push(Finding {
                        file: ff.rel.clone(),
                        line: arm.line,
                        rule: Rule::R6,
                        message: format!(
                            "bare `_ =>` arm in a match over protocol enum `{enum_name}` — \
                             name the remaining variants (so adding one forces a decision \
                             here) or bind them (`other =>`) and route through a traced \
                             unhandled path"
                        ),
                    });
                }
            }
        }
    }

    // R7: every protocol-enum variant is both constructed and handled
    // somewhere outside the codec mirror.
    let mut handled: BTreeSet<(String, String)> = BTreeSet::new();
    let mut constructed: BTreeSet<(String, String)> = BTreeSet::new();
    for ff in &facts {
        for (e, v, _) in &ff.handled {
            handled.insert((e.clone(), v.clone()));
        }
        for (e, v, _) in &ff.constructed {
            constructed.insert((e.clone(), v.clone()));
        }
    }
    for def in enums.values() {
        for (v, vline) in &def.variants {
            let key = (def.name.clone(), v.clone());
            let h = handled.contains(&key);
            let c = constructed.contains(&key);
            if h && c {
                continue;
            }
            let why = match (c, h) {
                (true, false) => "constructed but never named in any pattern — \
                                  deliveries of it are silently undeliverable",
                (false, true) => "named in patterns but never constructed — \
                                  dead wire surface",
                _ => "neither constructed nor handled anywhere — dead variant",
            };
            out.push(Finding {
                file: def.file.clone(),
                line: *vline,
                rule: Rule::R7,
                message: format!("protocol variant `{}::{v}` is {why}", def.name),
            });
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scrub::scrub;
    use crate::SourceFile;

    #[test]
    fn enum_parser_reads_variants_with_payloads_and_attrs() {
        let src = "#[derive(Clone)]\npub enum FooMsg<Q> {\n  A,\n  #[allow(dead_code)]\n  B { x: u8, y: Vec<(u8, u8)> },\n  C(Box<Q>),\n}\n";
        let e = extract_enums("x.rs", &scrub(src));
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].name, "FooMsg");
        let names: Vec<&str> = e[0].variants.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["A", "B", "C"]);
        assert_eq!(e[0].variants[1].1, 5); // B sits on line 5
    }

    #[test]
    fn match_parser_separates_arms_and_handles_blocks() {
        let src = "fn f(m: M) {\n  match m {\n    M::A { x } if x > 0 => go(x),\n    M::B(_) => { nested(); }\n    _ => {}\n  }\n}\n";
        let sites = extract_matches(&scrub(src));
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].arms.len(), 3);
        assert_eq!(sites[0].arms[2].pattern, vec!["_".to_string()]);
        assert_eq!(sites[0].arms[2].line, 5);
    }

    #[test]
    fn nested_match_in_arm_expression_is_its_own_site() {
        let src = "fn f() {\n  match a {\n    X::P => match b { Y::Q => 1, Y::R => 2 },\n    X::S => 3,\n  };\n}\n";
        let sites = extract_matches(&scrub(src));
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].arms.len(), 2, "{:?}", sites[0].arms);
    }

    #[test]
    fn r6_fires_only_on_protocol_matches() {
        let proto = SourceFile {
            rel: "crates/hier/src/fake.rs".into(),
            text: "pub enum FakeMsg { A, B }\nfn h(m: &FakeMsg) {\n  match m {\n    FakeMsg::A => on_a(),\n    _ => {}\n  }\n}\nfn mk() { let _ = (FakeMsg::A, FakeMsg::B); }\nfn h2(m: &FakeMsg) { if let FakeMsg::B = m { on_b(); } }\n".into(),
        };
        let f = crate::lint_files(std::slice::from_ref(&proto));
        let r6: Vec<&Finding> = f.iter().filter(|x| x.rule == Rule::R6).collect();
        assert_eq!(r6.len(), 1, "{f:?}");
        assert_eq!(r6[0].line, 5);

        // The same wildcard over a non-protocol scrutinee is fine.
        let plain = SourceFile {
            rel: "crates/hier/src/other.rs".into(),
            text: "fn g(x: Option<u8>) -> u8 {\n  match x {\n    Some(v) => v,\n    _ => 0,\n  }\n}\n".into(),
        };
        assert!(crate::lint_files(&[plain]).iter().all(|x| x.rule != Rule::R6));
    }

    #[test]
    fn r7_flags_unconstructed_and_unhandled_variants() {
        let f = SourceFile {
            rel: "crates/core/src/fake.rs".into(),
            text: "pub enum GhostMsg { Used, NeverMade, NeverRead }\nfn h(m: GhostMsg) {\n  match m {\n    GhostMsg::Used => {}\n    GhostMsg::NeverMade => {}\n    GhostMsg::NeverRead2 => {}\n  }\n}\nfn mk() { send(GhostMsg::Used); send(GhostMsg::NeverRead); }\n".into(),
        };
        let out = crate::lint_files(&[f]);
        let r7: Vec<&Finding> = out.iter().filter(|x| x.rule == Rule::R7).collect();
        assert_eq!(r7.len(), 2, "{out:?}");
        assert!(r7.iter().any(|x| x.message.contains("NeverMade") && x.line == 1));
        assert!(r7.iter().any(|x| x.message.contains("NeverRead")));
    }

    #[test]
    fn let_and_matches_count_as_handling() {
        let f = SourceFile {
            rel: "crates/core/src/fake.rs".into(),
            text: "pub enum PairMsg { A, B }\nfn mk() { (PairMsg::A, PairMsg::B); }\nfn h(m: &PairMsg) -> bool {\n  if let PairMsg::A = m { return true; }\n  matches!(m, PairMsg::B)\n}\n".into(),
        };
        let out = crate::lint_files(&[f]);
        assert!(out.iter().all(|x| x.rule != Rule::R7), "{out:?}");
    }

    #[test]
    fn test_code_and_out_of_scope_enums_are_ignored() {
        let f = SourceFile {
            rel: "crates/bench/src/fake.rs".into(),
            text: "pub enum BenchMsg { A }\n".into(),
        };
        assert!(crate::lint_files(&[f]).is_empty());
        let t = SourceFile {
            rel: "crates/core/src/fake.rs".into(),
            text: "#[cfg(test)]\nmod tests {\n  pub enum TestOnlyMsg { A }\n}\n".into(),
        };
        assert!(crate::lint_files(&[t]).is_empty());
    }
}
