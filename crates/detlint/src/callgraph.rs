//! Approximate, name-based call graph for rule R4 (dead protocol code).
//!
//! Precision model: functions are identified by bare name, so two functions
//! sharing a name are merged. That makes reachability an *over*-approximation
//! — a colliding name keeps both alive — which is the right direction for a
//! linter: R4 never flags a function that is actually called, at the cost of
//! occasionally missing a dead one. Dynamic dispatch needs no special
//! handling for the same reason: `obj.handle(x)` contributes the edge
//! `handle` no matter which impl runs.

use std::collections::{BTreeMap, BTreeSet};

use crate::scrub::Line;
use crate::tok::{is_ident, tokenize, KEYWORDS};

/// One `fn` item found in a scrubbed file.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Whether the item is `pub` (any visibility qualifier counts).
    pub is_pub: bool,
    /// Whether the parameter list contains `&mut self`.
    pub takes_mut_self: bool,
    /// Whether the definition sits in a `#[cfg(test)]`/`#[test]` region.
    pub in_test: bool,
    /// Names called (idents immediately followed by `(`) inside the body.
    pub callees: BTreeSet<String>,
}

/// Extracts every `fn` definition (with body) from a scrubbed file.
pub fn extract_fns(lines: &[Line]) -> Vec<FnDef> {
    let toks = tokenize(lines);
    let in_test_at = |line_1based: usize| lines[line_1based - 1].in_test;
    let mut defs = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text != "fn" || i + 1 >= toks.len() || !is_ident(&toks[i + 1].text) {
            i += 1;
            continue;
        }
        let name = toks[i + 1].text.clone();
        let line = toks[i].line;

        // Visibility: scan a few tokens back for `pub`, stopping at item
        // boundaries. Covers `pub`, `pub(crate)`, `pub const unsafe fn`.
        let mut is_pub = false;
        for k in (i.saturating_sub(8)..i).rev() {
            match toks[k].text.as_str() {
                "pub" => {
                    is_pub = true;
                    break;
                }
                ";" | "}" | "{" => break,
                _ => {}
            }
        }

        // Parameter list: the parenthesized group right after the name
        // (skipping generics `<...>`).
        let mut j = i + 2;
        let mut angle = 0i32;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "(" if angle <= 0 => break,
                "{" | ";" => break, // malformed; bail to item scan
                _ => {}
            }
            j += 1;
        }
        let mut takes_mut_self = false;
        if j < toks.len() && toks[j].text == "(" {
            let mut depth = 0i32;
            let start = j;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            takes_mut_self = toks[start..=j.min(toks.len() - 1)]
                .windows(3)
                .any(|w| w[0].text == "&" && w[1].text == "mut" && w[2].text == "self");
        }

        // Body: next `{` before a `;` at this level; trait signatures end
        // with `;` and have no body.
        let mut body_callees = BTreeSet::new();
        let mut k = j;
        let mut has_body = false;
        while k < toks.len() {
            match toks[k].text.as_str() {
                "{" => {
                    has_body = true;
                    break;
                }
                ";" => break,
                _ => k += 1,
            }
        }
        if has_body {
            let mut depth = 0i32;
            let mut m = k;
            while m < toks.len() {
                match toks[m].text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                m += 1;
            }
            let end = m.min(toks.len()).saturating_sub(1);
            for w in k..end {
                let t = &toks[w].text;
                if is_ident(t)
                    && !KEYWORDS.contains(&t.as_str())
                    && toks[w + 1].text == "("
                {
                    body_callees.insert(t.clone());
                }
            }
        }

        defs.push(FnDef {
            name,
            line,
            is_pub,
            takes_mut_self,
            in_test: in_test_at(line),
            callees: body_callees,
        });
        // Continue scanning *inside* the body too, so nested/test-module fns
        // are extracted as their own definitions.
        i += 2;
    }
    defs
}

/// Computes the set of function names reachable from the given seed names by
/// closure over the merged name → callees map.
pub fn reachable(defs_by_name: &BTreeMap<String, BTreeSet<String>>, seeds: &BTreeSet<String>) -> BTreeSet<String> {
    let mut seen: BTreeSet<String> = seeds.clone();
    let mut frontier: Vec<String> = seeds.iter().cloned().collect();
    while let Some(name) = frontier.pop() {
        if let Some(callees) = defs_by_name.get(&name) {
            for c in callees {
                if seen.insert(c.clone()) {
                    frontier.push(c.clone());
                }
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scrub::scrub;

    fn defs(src: &str) -> Vec<FnDef> {
        extract_fns(&scrub(src))
    }

    #[test]
    fn finds_pub_mut_self_methods() {
        let src = "impl Foo {\n  pub fn poke(&mut self, x: u8) { self.bump(); }\n  fn quiet(&self) {}\n}";
        let d = defs(src);
        let poke = d.iter().find(|f| f.name == "poke").expect("poke found");
        assert!(poke.is_pub && poke.takes_mut_self);
        assert!(poke.callees.contains("bump"));
        let quiet = d.iter().find(|f| f.name == "quiet").expect("quiet found");
        assert!(!quiet.is_pub && !quiet.takes_mut_self);
    }

    #[test]
    fn trait_signatures_have_no_body() {
        let d = defs("trait T {\n  fn sig(&mut self);\n  fn with_default(&self) { helper() }\n}");
        assert!(d.iter().any(|f| f.name == "sig" && f.callees.is_empty()));
        assert!(d
            .iter()
            .any(|f| f.name == "with_default" && f.callees.contains("helper")));
    }

    #[test]
    fn generics_do_not_hide_mut_self() {
        let d = defs("impl S {\n  pub fn go<F: Fn(u8) -> u8>(&mut self, f: F) {}\n}");
        assert!(d[0].takes_mut_self);
    }

    #[test]
    fn test_fns_are_marked() {
        let src = "#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { target(); }\n}\npub fn target(&mut self) {}";
        let d = defs(src);
        assert!(d.iter().find(|f| f.name == "t").expect("t").in_test);
        assert!(!d.iter().find(|f| f.name == "target").expect("target").in_test);
    }

    #[test]
    fn reachability_closes_transitively() {
        let mut g: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        g.insert("a".into(), ["b"].iter().map(|s| s.to_string()).collect());
        g.insert("b".into(), ["c"].iter().map(|s| s.to_string()).collect());
        g.insert("d".into(), BTreeSet::new());
        let seeds: BTreeSet<String> = ["a".to_string()].into_iter().collect();
        let r = reachable(&g, &seeds);
        assert!(r.contains("c"));
        assert!(!r.contains("d"));
    }
}
