//! Shared token stream over scrubbed source lines.
//!
//! Both the call-graph pass (R4) and the flow analyses (R6, R7) work on the
//! same representation: identifiers kept whole, every other non-whitespace
//! character emitted as a single-char token, each token carrying its 1-based
//! source line. Multi-char operators (`::`, `=>`) therefore arrive as
//! adjacent single-char tokens; the consumers match on those pairs.

use crate::scrub::Line;

/// One token of scrubbed code.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// Identifier text or a single punctuation character.
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: usize,
}

/// Keywords excluded when harvesting identifier-like callees/paths.
pub const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "fn", "let", "mut", "move", "in",
    "impl", "pub", "use", "mod", "struct", "enum", "trait", "where", "self", "Self", "super",
    "crate", "const", "static", "type", "as", "dyn", "ref", "break", "continue", "unsafe",
    "async", "await", "true", "false",
];

/// Splits scrubbed lines into identifier and punctuation tokens.
pub fn tokenize(lines: &[Line]) -> Vec<Token> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let mut cur = String::new();
        for c in line.code.chars() {
            if c.is_alphanumeric() || c == '_' {
                cur.push(c);
            } else {
                if !cur.is_empty() {
                    out.push(Token { text: std::mem::take(&mut cur), line: idx + 1 });
                }
                if !c.is_whitespace() {
                    out.push(Token { text: c.to_string(), line: idx + 1 });
                }
            }
        }
        if !cur.is_empty() {
            out.push(Token { text: cur, line: idx + 1 });
        }
    }
    out
}

/// True when the token text is an identifier (starts with a letter or `_`).
pub fn is_ident(t: &str) -> bool {
    t.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_')
}

/// Walks a `A::B::C` path chain starting at token `i` (which must be an
/// ident) and returns the segment texts plus the index just past the chain.
/// A lone ident returns a one-element chain.
pub fn path_chain(toks: &[Token], i: usize) -> (Vec<&str>, usize) {
    let mut segs = vec![toks[i].text.as_str()];
    let mut j = i + 1;
    while j + 2 < toks.len()
        && toks[j].text == ":"
        && toks[j + 1].text == ":"
        && is_ident(&toks[j + 2].text)
    {
        segs.push(toks[j + 2].text.as_str());
        j += 3;
    }
    (segs, j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scrub::scrub;

    #[test]
    fn tokens_carry_lines_and_split_paths() {
        let t = tokenize(&scrub("a::b(x);\nfoo"));
        let texts: Vec<&str> = t.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["a", ":", ":", "b", "(", "x", ")", ";", "foo"]);
        assert_eq!(t[0].line, 1);
        assert_eq!(t[8].line, 2);
    }

    #[test]
    fn path_chain_walks_segments() {
        let t = tokenize(&scrub("isis_core::CastKind::Total, next"));
        let (segs, end) = path_chain(&t, 0);
        assert_eq!(segs, ["isis_core", "CastKind", "Total"]);
        assert_eq!(t[end].text, ",");
    }
}
