//! The one Rust lexer every rule reads.
//!
//! The rule engine must never mistake a `//` inside a string literal for
//! a comment, or an `unwrap()` inside a doc comment for a call, so a
//! single pass over the bytes classifies line and nested block comments,
//! strings (regular and byte), raw strings (any `#` count), and char/byte
//! literals (disambiguated from lifetimes), and lexes everything else into
//! spanned tokens — identifiers, lifetimes, numeric literals with their
//! suffixes, and maximal-munch punctuation. That is the vocabulary the
//! cross-cutting rules need: `<<` as one token (so the overflow audit can
//! ask "is this a shift?"), `::` as one token (so `env::var` is three
//! tokens, not five), and numeric suffixes attached to their literal (so
//! `4096i32` names the width `i32` without a phantom identifier appearing
//! in the stream).
//!
//! Comments are *trivia*: they come back in their own list beside the
//! code tokens, so the token-stream rules never see them while the pragma
//! parser and the `SAFETY:` check read them directly.
//!
//! The lexer is total: arbitrary or truncated input produces *some* token
//! stream, never a panic, and an unterminated string, raw string or block
//! comment runs to end of input. Tokens carry byte spans and 1-based
//! lines, plus an `in_attr` flag marking attribute context (`#[...]` /
//! `#![...]`), which downstream rules use to skip configuration syntax.

/// What one lexical token is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LexKind {
    /// Identifier or keyword (`unwrap`, `fn`, `i32`, ...).
    Ident,
    /// Lifetime (`'a`, `'static`); `text` includes the quote.
    Lifetime,
    /// Integer literal; radix prefix kept in `text`, suffix split off.
    Int,
    /// Float literal (has a `.` or exponent); suffix split off.
    Float,
    /// `"..."`/`b"..."` string literal (delimiters included).
    Str,
    /// `r"..."` / `r#"..."#` / `br#"..."#` raw string (delimiters included).
    RawStr,
    /// `'x'` char or `b'x'` byte literal (prefix and delimiters included).
    Char,
    /// Punctuation, maximal munch: `<<=`, `::`, `->`, `+`, `(` ...
    Punct,
    /// `//` comment (up to, not including, the newline) or nested
    /// `/* ... */` comment. Only ever found in [`Lexed::trivia`].
    Comment,
}

/// One token with its span and context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexToken {
    /// Token class.
    pub kind: LexKind,
    /// Source text of the token (for literals and comments the full
    /// construct, delimiters included).
    pub text: String,
    /// For `Int`/`Float`: the literal's type suffix (`u64`, `f32`, ...).
    pub suffix: Option<String>,
    /// Byte offset of the first byte in the original source.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line the token starts on.
    pub line: usize,
    /// Whether the token sits inside a `#[...]`/`#![...]` attribute.
    pub in_attr: bool,
}

impl LexToken {
    /// Whether this is punctuation with exactly this text.
    #[must_use]
    pub fn is_punct(&self, p: &str) -> bool {
        self.kind == LexKind::Punct && self.text == p
    }

    /// Whether this is an identifier with exactly this text.
    #[must_use]
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == LexKind::Ident && self.text == name
    }
}

/// A lexed file: code tokens and comment trivia, each in source order.
#[derive(Debug, Clone, Default)]
pub struct Lexed {
    /// Code tokens (literals included), attribute context marked.
    pub toks: Vec<LexToken>,
    /// Comments, kind [`LexKind::Comment`].
    pub trivia: Vec<LexToken>,
}

/// Multi-character operators, longest first so maximal munch is a simple
/// first-match scan.
const OPERATORS: &[&str] = &[
    "<<=", ">>=", "...", "..=", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>", "..",
];

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// End of the run of identifier bytes starting at `j`.
fn ident_run(b: &[u8], j: usize) -> usize {
    j + b[j..].iter().take_while(|&&x| is_ident_continue(x)).count()
}

/// Lexes `src` into code tokens and comment trivia.
#[must_use]
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let n = b.len();
    let mut out = Lexed::default();
    let mut line = 1usize;
    let mut i = 0usize;
    while i < n {
        let c = b[i];
        if c.is_ascii_whitespace() {
            line += usize::from(c == b'\n');
            i += 1;
            continue;
        }
        let start = i;
        let next = b.get(i + 1).copied();
        let mut suffix = None;
        let kind = if c == b'/' && next == Some(b'/') {
            i = b[i..].iter().position(|&x| x == b'\n').map_or(n, |k| i + k);
            LexKind::Comment
        } else if c == b'/' && next == Some(b'*') {
            i = block_comment_end(b, i);
            LexKind::Comment
        } else if let Some(end) = raw_string_end(b, i) {
            i = end;
            LexKind::RawStr
        } else if c == b'"' || (c == b'b' && next == Some(b'"')) {
            i = string_end(b, i + 1 + usize::from(c == b'b'));
            LexKind::Str
        } else if let Some(end) =
            char_literal_end(src, i + usize::from(c == b'b' && next == Some(b'\'')))
        {
            i = end;
            LexKind::Char
        } else if is_ident_start(c) {
            i = ident_run(b, i);
            LexKind::Ident
        } else if c.is_ascii_digit() {
            let (end, is_float, suffix_start) = number_end(b, i);
            i = end;
            suffix = (end > suffix_start).then(|| src[suffix_start..end].to_string());
            if is_float || suffix.as_deref().is_some_and(|s| s.starts_with('f')) {
                LexKind::Float
            } else {
                LexKind::Int
            }
        } else if c == b'\'' && next.is_some_and(is_ident_start) {
            i = ident_run(b, i + 1);
            LexKind::Lifetime
        } else {
            let rest = &b[i..];
            i += OPERATORS
                .iter()
                .find(|op| rest.starts_with(op.as_bytes()))
                .map_or(1, |op| op.len());
            LexKind::Punct
        };
        let tok = LexToken {
            kind,
            text: src.get(start..i).unwrap_or("").to_string(),
            suffix,
            start,
            end: i,
            line,
            in_attr: false,
        };
        line += b[start..i].iter().filter(|&&x| x == b'\n').count();
        if tok.kind == LexKind::Comment {
            out.trivia.push(tok);
        } else {
            out.toks.push(tok);
        }
    }
    mark_attr_context(&mut out.toks);
    out
}

/// End of the nested block comment opening at `i` (or end of input).
fn block_comment_end(b: &[u8], i: usize) -> usize {
    let mut depth = 1usize;
    let mut j = i + 2;
    while j < b.len() && depth > 0 {
        if b[j..].starts_with(b"/*") {
            depth += 1;
            j += 2;
        } else if b[j..].starts_with(b"*/") {
            depth -= 1;
            j += 2;
        } else {
            j += 1;
        }
    }
    j.min(b.len())
}

/// If a raw string (`r"`, `r#"`, `br##"`, ...) opens at `i`, its end: one
/// past the closing quote and hashes, or end of input.
fn raw_string_end(b: &[u8], i: usize) -> Option<usize> {
    let mut j = i + usize::from(b[i] == b'b');
    if b.get(j) != Some(&b'r') {
        return None;
    }
    j += 1;
    let hashes = b[j..].iter().take_while(|&&x| x == b'#').count();
    j += hashes;
    if b.get(j) != Some(&b'"') {
        return None;
    }
    let closer: Vec<u8> = std::iter::once(b'"')
        .chain(std::iter::repeat_n(b'#', hashes))
        .collect();
    let body = j + 1;
    Some(
        (body..b.len())
            .find(|&k| b[k..].starts_with(&closer))
            .map_or(b.len(), |k| k + closer.len()),
    )
}

/// End of the string whose body starts at `body`: one past the closing
/// quote, or end of input.
fn string_end(b: &[u8], body: usize) -> usize {
    let mut j = body;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    b.len()
}

/// If a character literal starts at the `'` at byte `i`, returns its end
/// offset (one past the closing quote); `None` means lifetime (or no
/// quote at all).
fn char_literal_end(src: &str, i: usize) -> Option<usize> {
    let b = src.as_bytes();
    if b.get(i) != Some(&b'\'') {
        return None;
    }
    if b.get(i + 1) == Some(&b'\\') {
        // Escape: consume the escaped char, then find the closing quote
        // within a small bound (covers \u{...}, \x41, \n, \', ...).
        let mut j = i + 2;
        if j < b.len() {
            j += src[j..].chars().next().map_or(1, char::len_utf8);
        }
        let limit = (j + 10).min(b.len());
        return (j..limit).find(|&k| b[k] == b'\'').map(|k| k + 1);
    }
    // Unescaped: exactly one char (not a quote) then a closing quote.
    let next = src.get(i + 1..)?.chars().next()?;
    let j = i + 1 + next.len_utf8();
    (next != '\'' && b.get(j) == Some(&b'\'')).then_some(j + 1)
}

/// Scans a numeric literal at `i`: returns its end, whether it has a
/// fractional part or exponent, and where its type suffix starts (equal
/// to the end when there is none; radix literals never split a suffix,
/// since none appear in width positions the rules check).
fn number_end(b: &[u8], i: usize) -> (usize, bool, usize) {
    let digits = |j: usize| {
        j + b[j..]
            .iter()
            .take_while(|&&x| x.is_ascii_digit() || x == b'_')
            .count()
    };
    if b[i] == b'0' && matches!(b.get(i + 1), Some(b'x' | b'X' | b'b' | b'B' | b'o' | b'O')) {
        let end = ident_run(b, i + 2);
        return (end, false, end);
    }
    let mut j = digits(i);
    let mut is_float = false;
    // A fractional part: a single `.` followed by a digit (so `0..n`
    // ranges and `1.method()` calls stay untouched).
    if b.get(j) == Some(&b'.') && b.get(j + 1).is_some_and(u8::is_ascii_digit) {
        is_float = true;
        j = digits(j + 1);
    }
    // Exponent (`1e9`, `2.5E-3`): only when followed by a digit or a
    // signed digit, otherwise the `e...` run is a type-suffix candidate.
    if matches!(b.get(j), Some(b'e' | b'E')) {
        let k = j + 1 + usize::from(matches!(b.get(j + 1), Some(b'+' | b'-')));
        if b.get(k).is_some_and(u8::is_ascii_digit) {
            is_float = true;
            j = digits(k);
        }
    }
    (ident_run(b, j), is_float, j)
}

/// The index of the delimiter matching the one at `at`: searching forward
/// from an opener (`(`, `[`, `{`), backward from a closer, and counting
/// only that delimiter pair. `None` when `at` holds no delimiter or the
/// group is unbalanced.
#[must_use]
pub(crate) fn matching(toks: &[LexToken], at: usize) -> Option<usize> {
    const PAIRS: [(&str, &str); 3] = [("(", ")"), ("[", "]"), ("{", "}")];
    let t = toks.get(at)?;
    let (this, partner, forward) = PAIRS.iter().find_map(|&(open, close)| {
        if t.is_punct(open) {
            Some((open, close, true))
        } else if t.is_punct(close) {
            Some((close, open, false))
        } else {
            None
        }
    })?;
    let mut depth = 0usize;
    let mut closes = |k: &usize| {
        if toks[*k].is_punct(this) {
            depth += 1;
        } else if toks[*k].is_punct(partner) {
            depth -= 1;
            return depth == 0;
        }
        false
    };
    if forward {
        (at..toks.len()).find(|k| closes(k))
    } else {
        (0..=at).rev().find(|k| closes(k))
    }
}

/// Marks every token inside `#[...]` / `#![...]` spans with `in_attr`.
/// An unclosed attribute extends to end of stream (total on malformed
/// input).
fn mark_attr_context(toks: &mut [LexToken]) {
    let mut i = 0;
    while i < toks.len() {
        let j = i + 1 + usize::from(toks.get(i + 1).is_some_and(|t| t.is_punct("!")));
        if !toks[i].is_punct("#") || !toks.get(j).is_some_and(|t| t.is_punct("[")) {
            i += 1;
            continue;
        }
        let close = matching(toks, j).unwrap_or(toks.len() - 1);
        for t in &mut toks[i..=close] {
            t.in_attr = true;
        }
        i = close + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<(LexKind, String)> {
        lex(src)
            .toks
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    fn comments(src: &str) -> Vec<String> {
        lex(src).trivia.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn idents_numbers_and_suffixes() {
        let toks = lex("let x = 4096i32 + 1.5f64;").toks;
        assert!(toks.iter().any(|t| t.is_ident("let")));
        let int = toks.iter().find(|t| t.kind == LexKind::Int).unwrap();
        assert_eq!(int.text, "4096i32");
        assert_eq!(int.suffix.as_deref(), Some("i32"));
        let f = toks.iter().find(|t| t.kind == LexKind::Float).unwrap();
        assert_eq!(f.suffix.as_deref(), Some("f64"));
    }

    #[test]
    fn maximal_munch_operators() {
        let got = texts("a <<= b << c <= d < e; x..=y; p->q; m::n");
        let puncts: Vec<&str> = got
            .iter()
            .filter(|(k, _)| *k == LexKind::Punct)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(
            puncts,
            ["<<=", "<<", "<=", "<", ";", "..=", ";", "->", ";", "::"]
        );
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; }").toks;
        assert!(toks
            .iter()
            .any(|t| t.kind == LexKind::Lifetime && t.text == "'a"));
        assert!(toks
            .iter()
            .any(|t| t.kind == LexKind::Char && t.text == "'x'"));
        let got = texts("let nl = '\\n'; let lt: &'static str = \"s\";");
        assert!(got.contains(&(LexKind::Char, "'\\n'".into())));
        assert!(got.contains(&(LexKind::Lifetime, "'static".into())));
        assert!(got.contains(&(LexKind::Str, "\"s\"".into())));
    }

    #[test]
    fn ranges_do_not_become_floats() {
        let toks = lex("for i in 0..38u32 {}").toks;
        assert!(toks.iter().any(|t| t.kind == LexKind::Int && t.text == "0"));
        assert!(toks.iter().any(|t| t.is_punct("..")));
        let hi = toks
            .iter()
            .find(|t| t.kind == LexKind::Int && t.text == "38u32")
            .unwrap();
        assert_eq!(hi.suffix.as_deref(), Some("u32"));
    }

    #[test]
    fn attr_context_is_marked() {
        let toks = lex("#[cfg(test)]\nmod tests {}\n").toks;
        let cfg = toks.iter().find(|t| t.is_ident("cfg")).unwrap();
        assert!(cfg.in_attr);
        let m = toks.iter().find(|t| t.is_ident("mod")).unwrap();
        assert!(!m.in_attr);
    }

    #[test]
    fn comments_are_trivia_and_never_tokens() {
        let src = "let x = 1; // tail\nlet y = \"s // not\";\n/* b /* nest */ end */ let z = 'c';";
        assert_eq!(comments(src), ["// tail", "/* b /* nest */ end */"]);
        let got = texts(src);
        assert!(got.contains(&(LexKind::Str, "\"s // not\"".into())));
        assert!(got.contains(&(LexKind::Char, "'c'".into())));
        assert!(got.iter().all(|(_, t)| !t.contains("nest")));
        let lexed = lex(src);
        assert_eq!(lexed.trivia[1].line, 3);
        assert!(lexed.toks.iter().any(|t| t.is_ident("z") && t.line == 3));
    }

    #[test]
    fn string_literals_surface_as_single_tokens() {
        let got = texts(r####"let s = r#"a :: b // c"#; let t = "x + y /* z */";"####);
        assert!(got.contains(&(LexKind::RawStr, r####"r#"a :: b // c"#"####.into())));
        assert!(got.contains(&(LexKind::Str, "\"x + y /* z */\"".into())));
        let got = texts(r####"let b = br##"x"# still"##;"####);
        assert!(got.contains(&(LexKind::RawStr, r####"br##"x"# still"##"####.into())));
        // Nothing inside the literals leaked into the punct stream.
        assert!(!got.iter().any(|(k, t)| *k == LexKind::Punct && t == "+"));
        assert!(comments(r####"let s = r#"// x"#;"####).is_empty());
    }

    #[test]
    fn escaped_quotes_do_not_terminate_strings() {
        let got = texts(r#"let s = "a \" b // c"; let t = 1;"#);
        assert!(got.contains(&(LexKind::Str, r#""a \" b // c""#.into())));
        assert!(got.contains(&(LexKind::Ident, "t".into())));
    }

    #[test]
    fn unterminated_constructs_extend_to_eof_without_panicking() {
        for (src, kind) in [
            ("let s = \"never closed", LexKind::Str),
            ("/* never closed", LexKind::Comment),
            ("/* a /* b */ never closed", LexKind::Comment),
            ("let r = r#\"never closed\"", LexKind::RawStr),
        ] {
            let lexed = lex(src);
            let last = lexed.toks.iter().chain(&lexed.trivia).max_by_key(|t| t.end);
            assert_eq!(last.map(|t| (&t.kind, t.end)), Some((&kind, src.len())));
        }
        let toks = lex("let q = '").toks;
        assert_eq!(toks.last().map(|t| t.text.as_str()), Some("'"));
    }

    #[test]
    fn matching_walks_both_ways_and_refuses_unbalanced_groups() {
        let toks = lex("f(a, (b)) { [c] }").toks;
        assert_eq!(matching(&toks, 1), Some(7));
        assert_eq!(matching(&toks, 7), Some(1));
        assert_eq!(matching(&toks, 8), Some(12));
        assert_eq!(matching(&toks, 9), Some(11));
        assert_eq!(matching(&toks, 0), None);
        let open = lex("{ ( }").toks;
        assert_eq!(matching(&open, 1), None);
        assert_eq!(matching(&open, 0), Some(2));
    }

    #[test]
    fn spans_are_monotone_and_in_bounds() {
        let src = "fn f(a: u64) -> u64 { (a << 3) + 0x2f }";
        let mut pos = 0;
        for t in &lex(src).toks {
            assert!(t.start >= pos, "{t:?}");
            assert!(t.end <= src.len());
            assert_eq!(&src[t.start..t.end], t.text, "span/text mismatch");
            pos = t.start;
        }
    }
}
