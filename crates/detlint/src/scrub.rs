//! Source scrubbing: a small lexer that removes comments and string
//! contents from Rust source so the rule passes can match tokens without
//! being fooled by doc text or payload literals.
//!
//! The output preserves line structure exactly: scrubbed line `i`
//! corresponds to source line `i`, so findings carry real line numbers.

/// One source line after scrubbing.
#[derive(Clone, Debug, Default)]
pub struct Line {
    /// The code with comments removed; string literals keep their quotes but
    /// their contents collapse to `S` (or nothing when the literal is
    /// empty), so `.expect("")` remains distinguishable from `.expect("x")`.
    pub code: String,
    /// Whether the line sits inside a `#[cfg(test)]` or `#[test]` region.
    pub in_test: bool,
}

enum State {
    Code,
    BlockComment(u32),
    Str { raw_hashes: Option<u32>, any: bool },
}

/// Scrubs `src` into per-line code and marks test regions.
pub fn scrub(src: &str) -> Vec<Line> {
    let mut lines: Vec<Line> = Vec::new();
    let mut cur = Line::default();
    let mut state = State::Code;
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    // A line comment runs to the newline, which ends the line.
                    while chars.get(i).is_some_and(|&c| c != '\n') {
                        i += 1;
                    }
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    state = State::Str { raw_hashes: None, any: false };
                    i += 1;
                } else if c == 'r' && is_raw_string_start(&chars, i) {
                    let mut hashes = 0;
                    let mut j = i + 1;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    cur.code.push('"');
                    state = State::Str { raw_hashes: Some(hashes), any: false };
                    i = j + 1; // past the opening quote
                } else if c == '\'' {
                    // Char literal or lifetime. `'x'` / `'\..'` are literals;
                    // everything else is a lifetime tick.
                    if let Some(end) = char_literal_end(&chars, i) {
                        cur.code.push_str("' '");
                        i = end;
                    } else {
                        cur.code.push('\'');
                        i += 1;
                    }
                } else {
                    cur.code.push(c);
                    i += 1;
                }
            }
            State::BlockComment(depth) => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else {
                    i += 1;
                }
            }
            State::Str { raw_hashes, any } => {
                let closed = match raw_hashes {
                    None => {
                        if c == '\\' {
                            // An escaped newline (string continuation) still
                            // ends the source line; don't swallow it or every
                            // later finding shifts by one line.
                            if chars.get(i + 1) == Some(&'\n') {
                                lines.push(std::mem::take(&mut cur));
                            }
                            i += 2; // skip the escaped char
                            state = State::Str { raw_hashes, any: true };
                            continue;
                        }
                        c == '"'
                    }
                    Some(h) => {
                        c == '"' && (0..h).all(|k| chars.get(i + 1 + k as usize) == Some(&'#'))
                    }
                };
                if closed {
                    if any {
                        cur.code.push('S');
                    }
                    cur.code.push('"');
                    i += 1 + raw_hashes.unwrap_or(0) as usize;
                    state = State::Code;
                } else {
                    i += 1;
                    state = State::Str { raw_hashes, any: true };
                }
            }
        }
    }
    if !cur.code.is_empty() {
        lines.push(cur);
    }
    mark_test_regions(&mut lines);
    lines
}

/// `r"`, `r#"`, `r##"`, … (and the byte forms `br"`, `br#"`) — but not a
/// plain identifier containing `r`.
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    // Must not be preceded by an identifier character (e.g. `for r in ..`
    // is fine either way, but `var"` is not a raw string). A single `b`
    // prefix is the one exception: `br#"…"#` is a raw byte string.
    let free = |j: usize| {
        j == 0 || {
            let p = chars[j - 1];
            !(p.is_alphanumeric() || p == '_')
        }
    };
    if !(free(i) || (chars[i - 1] == 'b' && free(i - 1))) {
        return false;
    }
    let mut j = i + 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// If position `i` (a `'`) starts a char literal, returns the index just
/// past its closing quote.
fn char_literal_end(chars: &[char], i: usize) -> Option<usize> {
    match chars.get(i + 1) {
        Some('\\') => {
            // Escaped char: skip the escaped character itself, then scan to
            // the closing quote (handles '\n', '\u{..}' — and '\'' / '\\',
            // where the escaped character must not be taken as the close).
            let mut j = i + 3;
            while j < chars.len() && chars[j] != '\'' && chars[j] != '\n' {
                j += 1;
            }
            (chars.get(j) == Some(&'\'')).then_some(j + 1)
        }
        Some(_) if chars.get(i + 2) == Some(&'\'') => Some(i + 3),
        _ => None,
    }
}

/// Marks every line inside a `#[cfg(test)]` / `#[test]` item's braces.
fn mark_test_regions(lines: &mut [Line]) {
    let mut depth: usize = 0;
    let mut pending_attr = false;
    let mut test_starts: Vec<usize> = Vec::new(); // depths owning a test region
    for line in lines.iter_mut() {
        let started_in_test = !test_starts.is_empty();
        if line.code.contains("#[cfg(test)]")
            || line.code.contains("#[test]")
            || line.code.contains("#[cfg(all(test")
        {
            pending_attr = true;
        }
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending_attr {
                        test_starts.push(depth);
                        pending_attr = false;
                    }
                }
                '}' => {
                    if test_starts.last() == Some(&depth) {
                        test_starts.pop();
                    }
                    depth = depth.saturating_sub(1);
                }
                // An attribute that applied to a braceless item
                // (`#[cfg(test)] use …;`) stops being pending.
                ';' => pending_attr = false,
                _ => {}
            }
        }
        line.in_test = started_in_test || !test_starts.is_empty() || pending_attr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_are_removed() {
        let l = scrub("let x = 1; // HashMap here\nlet y = 2;");
        assert_eq!(l[0].code.trim_end(), "let x = 1;");
        assert_eq!(l[1].code, "let y = 2;");
    }

    #[test]
    fn strings_collapse_but_keep_emptiness() {
        let l = scrub(r#"a.expect(""); b.expect("msg"); c("HashMap");"#);
        assert!(l[0].code.contains(r#"expect("")"#));
        assert!(l[0].code.contains(r#"expect("S")"#));
        assert!(!l[0].code.contains("HashMap"));
    }

    #[test]
    fn raw_strings_and_escapes_do_not_confuse_the_lexer() {
        let l = scrub("let s = r#\"no \" end\"#; let t = \"a\\\"b\"; x();");
        assert!(l[0].code.contains("x();"));
        assert!(!l[0].code.contains("end"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let l = scrub("fn f<'a>(x: &'a str) -> char { '}' }");
        // The '}' literal must not close the brace depth.
        assert!(l[0].code.contains("' '"));
        assert!(l[0].code.contains("<'a>"));
    }

    #[test]
    fn block_comments_span_lines() {
        let l = scrub("a();\n/* HashMap\n still comment */ b();");
        assert_eq!(l[1].code, "");
        assert!(l[2].code.contains("b();"));
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\nfn after() {}";
        let l = scrub(src);
        assert!(!l[0].in_test);
        assert!(l[1].in_test); // the attribute line itself
        assert!(l[2].in_test);
        assert!(l[3].in_test);
        assert!(l[4].in_test);
        assert!(!l[5].in_test);
    }

    #[test]
    fn test_attr_on_fn_marks_only_that_fn() {
        let src = "#[test]\nfn t() {\n  boom();\n}\nfn live() {}";
        let l = scrub(src);
        assert!(l[1].in_test && l[2].in_test && l[3].in_test);
        assert!(!l[4].in_test);
    }

    // ----- edge cases the flow parsers lean on ------------------------

    #[test]
    fn raw_string_with_hashes_hides_quotes_and_slashes() {
        let l = scrub("let s = r##\"quote \" and // and \"# inner\"##; tail();");
        assert!(l[0].code.contains("tail();"));
        assert!(!l[0].code.contains("quote"));
    }

    #[test]
    fn raw_byte_strings_are_one_literal() {
        let l = scrub("let s = br#\"x \" y\"#; after();");
        assert!(l[0].code.contains("after();"), "{:?}", l[0].code);
        assert!(!l[0].code.contains('#'), "{:?}", l[0].code);
        assert!(!l[0].code.contains('y'), "{:?}", l[0].code);
    }

    #[test]
    fn nested_block_comments_unwind_fully() {
        let src = "a();\n/* outer /* inner */ still comment */ b();\nc();";
        let l = scrub(src);
        assert_eq!(l[1].code.trim(), "b();");
        assert!(l[2].code.contains("c();"));
    }

    #[test]
    fn char_literals_holding_quote_and_slashes() {
        // '"' must not open a string; '/' twice must not start a comment;
        // '\'' and '\\' must not leak a stray quote into code.
        let l = scrub("let a = '\"'; let b = '/'; let c = '\\''; let d = '\\\\'; live();");
        assert!(l[0].code.contains("live();"), "{:?}", l[0].code);
        // Each literal collapses to the placeholder, so no quote survives.
        assert_eq!(l[0].code.matches('"').count(), 0, "{:?}", l[0].code);
    }

    #[test]
    fn multi_line_strings_keep_line_numbers() {
        // A plain newline inside the literal and an escaped continuation
        // must both preserve the physical line count.
        let src = "let s = \"first\nsecond\";\nx();\nlet t = \"one\\\ntwo\";\ny();";
        let l = scrub(src);
        assert_eq!(l.len(), 6);
        assert!(l[2].code.contains("x();"));
        assert!(l[5].code.contains("y();"));
    }

    #[test]
    fn unterminated_string_does_not_lose_the_tail() {
        // Malformed input (mid-edit files) must not panic or shift lines.
        let l = scrub("let s = \"never closed\nswallowed\n");
        assert_eq!(l.len(), 2);
        assert!(l[0].code.contains("let s"));
    }
}
