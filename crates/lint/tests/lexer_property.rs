//! Property tests for the lexer: it must be total (arbitrary and
//! truncated printable-ASCII input lexes without panicking, with sane
//! spans, and unterminated literals and comments run to end of input) and
//! must classify the tricky vocabulary exactly — raw strings as single
//! tokens, `//` inside string literals and quotes inside comments,
//! nested block comments as one comment, maximal-munch `<<`/`>>` (nested
//! generics included: the *rule* layer disambiguates, the lexer munches),
//! lifetimes vs char literals, and physical line numbers after string
//! continuations.

use rtped_core::check::{ascii_string, choice, vec_of};
use rtped_lint::lexer::{lex, LexKind, LexToken};

fn kinds_texts(src: &str) -> Vec<(LexKind, String)> {
    lex(src)
        .toks
        .into_iter()
        .map(|t| (t.kind, t.text))
        .collect()
}

/// Code tokens and comment trivia merged in source order.
fn stream(src: &str) -> Vec<LexToken> {
    let lexed = lex(src);
    let mut all = lexed.toks;
    all.extend(lexed.trivia);
    all.sort_by_key(|t| t.start);
    all
}

/// Asserts the stream's structural invariants: tokens and trivia are in
/// bounds, non-empty, strictly ordered and non-overlapping, match their
/// source text, never go back a line, and leave only ASCII whitespace
/// uncovered.
fn assert_stream(src: &str, toks: &[LexToken]) {
    let mut pos = 0usize;
    let mut line = 1usize;
    for t in toks {
        assert!(t.start >= pos, "overlapping token {t:?} in {src:?}");
        assert!(
            src[pos..t.start].bytes().all(|b| b.is_ascii_whitespace()),
            "uncovered non-whitespace before {t:?} in {src:?}"
        );
        assert!(t.end > t.start, "empty token {t:?} in {src:?}");
        assert!(t.end <= src.len(), "span out of bounds {t:?} in {src:?}");
        assert_eq!(&src[t.start..t.end], t.text, "span/text mismatch {t:?}");
        assert!(t.line >= line, "line regressed {t:?} in {src:?}");
        pos = t.end;
        line = t.line;
    }
    assert!(
        src[pos..].bytes().all(|b| b.is_ascii_whitespace()),
        "uncovered non-whitespace tail in {src:?}"
    );
}

/// Self-delimiting source segments. `Some(kind)`: the whole segment is
/// exactly one token (or comment) of that kind. `None`: plain code, which
/// lexes to identifiers, lifetimes, numbers and punctuation only.
const SEGMENTS: &[(&str, Option<LexKind>)] = &[
    ("let x = 1", None),
    ("fn f<'a>(v: &'a u8) -> u8 { *v }", None),
    ("let y = 1.0e3 + 0x2f", None),
    (
        "// slashes \" and 'quotes' inside a line comment",
        Some(LexKind::Comment),
    ),
    ("/* block with \" quote */", Some(LexKind::Comment)),
    (
        "/* outer /* nested */ still outer */",
        Some(LexKind::Comment),
    ),
    (r#""a string with // inside""#, Some(LexKind::Str)),
    (r#""escaped \" quote""#, Some(LexKind::Str)),
    (r#""/* not a comment */""#, Some(LexKind::Str)),
    (r#"b"byte string""#, Some(LexKind::Str)),
    ("\"two\nlines\"", Some(LexKind::Str)),
    (r##"r"raw string""##, Some(LexKind::RawStr)),
    (r###"r#"raw with " quote"#"###, Some(LexKind::RawStr)),
    (r####"br##"raw with "# inside"##"####, Some(LexKind::RawStr)),
    ("r#\"raw\nacross lines\"#", Some(LexKind::RawStr)),
    ("'c'", Some(LexKind::Char)),
    (r"'\''", Some(LexKind::Char)),
    (r"'\n'", Some(LexKind::Char)),
    ("b'x'", Some(LexKind::Char)),
    (r#"b'"'"#, Some(LexKind::Char)),
];

/// Length of a literal's or comment's opening delimiter: a cut that keeps
/// the opener but not the closer must leave a construct running to EOF.
fn opener_len(text: &str, kind: &LexKind) -> Option<usize> {
    match kind {
        LexKind::Str | LexKind::RawStr => text.find('"').map(|q| q + 1),
        LexKind::Comment => Some(2),
        _ => None,
    }
}

/// Curated snippets with their exact expected token streams. The snippet
/// must not end inside a line comment (the property joins them with
/// `\n;\n`).
fn case(i: usize) -> (&'static str, Vec<(LexKind, &'static str)>) {
    use LexKind::{Char, Float, Ident, Int, Lifetime, Punct, RawStr};
    match i {
        0 => (
            r###"let s = r#"a " b"#"###,
            vec![
                (Ident, "let"),
                (Ident, "s"),
                (Punct, "="),
                (RawStr, r###"r#"a " b"#"###),
            ],
        ),
        // Nested generics: the closing `>>` munches as one shift token —
        // deliberate; the arith rule disambiguates via its neighbors.
        1 => (
            "let v: Vec<Vec<u8>> = x",
            vec![
                (Ident, "let"),
                (Ident, "v"),
                (Punct, ":"),
                (Ident, "Vec"),
                (Punct, "<"),
                (Ident, "Vec"),
                (Punct, "<"),
                (Ident, "u8"),
                (Punct, ">>"),
                (Punct, "="),
                (Ident, "x"),
            ],
        ),
        2 => (
            "acc << shift",
            vec![(Ident, "acc"), (Punct, "<<"), (Ident, "shift")],
        ),
        3 => (
            "fn f<'a>(x: &'a str) -> &'a str",
            vec![
                (Ident, "fn"),
                (Ident, "f"),
                (Punct, "<"),
                (Lifetime, "'a"),
                (Punct, ">"),
                (Punct, "("),
                (Ident, "x"),
                (Punct, ":"),
                (Punct, "&"),
                (Lifetime, "'a"),
                (Ident, "str"),
                (Punct, ")"),
                (Punct, "->"),
                (Punct, "&"),
                (Lifetime, "'a"),
                (Ident, "str"),
            ],
        ),
        4 => (
            "let c = 'x'",
            vec![(Ident, "let"), (Ident, "c"), (Punct, "="), (Char, "'x'")],
        ),
        5 => (
            r"let nl = '\n'",
            vec![(Ident, "let"), (Ident, "nl"), (Punct, "="), (Char, r"'\n'")],
        ),
        6 => (
            r####"let b = br##"x "# y"##"####,
            vec![
                (Ident, "let"),
                (Ident, "b"),
                (Punct, "="),
                (RawStr, r####"br##"x "# y"##"####),
            ],
        ),
        7 => (
            "&'static str",
            vec![(Punct, "&"), (Lifetime, "'static"), (Ident, "str")],
        ),
        8 => (
            "1u64 + 2.5f32",
            vec![(Int, "1u64"), (Punct, "+"), (Float, "2.5f32")],
        ),
        // A byte literal holding a double quote is one token, and the
        // quote opens no string.
        9 => (
            r#"let q = b'"'"#,
            vec![
                (Ident, "let"),
                (Ident, "q"),
                (Punct, "="),
                (Char, r#"b'"'"#),
            ],
        ),
        _ => (
            "std::env::var",
            vec![
                (Ident, "std"),
                (Punct, "::"),
                (Ident, "env"),
                (Punct, "::"),
                (Ident, "var"),
            ],
        ),
    }
}

const CASES: usize = 11;

rtped_core::check! {
    #![cases = 192, seed = 0x7E4A]

    fn curated_snippets_classify_exactly(
        indices in vec_of(choice((0..CASES).collect::<Vec<usize>>()), 1..8)
    ) {
        let mut src = String::new();
        let mut expected: Vec<(LexKind, String)> = Vec::new();
        for &i in &indices {
            let (snippet, toks) = case(i);
            src.push_str(snippet);
            src.push_str("\n;\n");
            expected.extend(toks.into_iter().map(|(k, t)| (k, t.to_string())));
            expected.push((LexKind::Punct, ";".to_string()));
        }
        assert_stream(&src, &stream(&src));
        rtped_core::check_assert_eq!(kinds_texts(&src), expected, "{src:?}");
    }

    fn curated_segments_classify_exactly(
        segs in vec_of(choice(SEGMENTS.to_vec()), 1..10)
    ) {
        let mut src = String::new();
        let mut spans = Vec::new();
        for (text, kind) in &segs {
            src.push_str("\n;\n");
            spans.push((src.len()..src.len() + text.len(), kind.clone()));
            src.push_str(text);
        }
        src.push_str("\n;\n");
        let all = stream(&src);
        assert_stream(&src, &all);
        for (span, kind) in spans {
            let inside: Vec<&LexToken> = all
                .iter()
                .filter(|t| span.contains(&t.start))
                .collect();
            match kind {
                Some(kind) => {
                    rtped_core::check_assert_eq!(inside.len(), 1, "{span:?} of {src:?}");
                    rtped_core::check_assert_eq!(&inside[0].kind, &kind, "{src:?}");
                    rtped_core::check_assert_eq!(inside[0].end, span.end, "{src:?}");
                }
                None => rtped_core::check_assert!(
                    inside.iter().all(|t| matches!(
                        t.kind,
                        LexKind::Ident | LexKind::Lifetime | LexKind::Int | LexKind::Float
                            | LexKind::Punct
                    )),
                    "{span:?} of {src:?}"
                ),
            }
        }
    }

    fn truncated_segments_lex_totally_and_run_to_eof(
        segs in vec_of(choice(SEGMENTS.to_vec()), 1..10),
        cut_pct in 0..=100usize
    ) {
        let mut src = String::new();
        let mut open_at_cut = None;
        for (text, _) in &segs {
            src.push_str(text);
            src.push_str("\n;\n");
        }
        // All segments are ASCII, so any byte index is a char boundary;
        // cutting mid-literal must still yield a well-formed stream.
        let cut = src.len() * cut_pct / 100;
        let mut off = 0;
        for (text, kind) in &segs {
            let opener = kind.as_ref().and_then(|k| opener_len(text, k));
            if opener.is_some_and(|o| off + o <= cut && cut < off + text.len()) {
                open_at_cut = kind.clone();
            }
            off += text.len() + 3;
        }
        let truncated = &src[..cut];
        let all = stream(truncated);
        assert_stream(truncated, &all);
        if let Some(kind) = open_at_cut {
            let last = all.last().map(|t| (t.kind.clone(), t.end));
            rtped_core::check_assert_eq!(last, Some((kind, cut)), "{truncated:?}");
        }
    }

    fn truncated_snippets_lex_totally(
        indices in vec_of(choice((0..CASES).collect::<Vec<usize>>()), 1..8),
        cut_pct in 0..=100usize
    ) {
        let mut src = String::new();
        for &i in &indices {
            src.push_str(case(i).0);
            src.push_str("\n;\n");
        }
        let cut = src.len() * cut_pct / 100;
        let truncated = &src[..cut];
        assert_stream(truncated, &stream(truncated));
    }

    /// A backslash-escaped newline inside a string (a string
    /// continuation) still ends a physical line: the token after the
    /// string reports the line it sits on.
    fn string_continuations_keep_physical_lines(
        breaks in 0..6usize,
        byte in 0..=1usize
    ) {
        let prefix = if byte == 1 { "b" } else { "" };
        let body = "part \\\n    ".repeat(breaks);
        let src = format!("let s = {prefix}\"{body}end\";\nlet t = 1;\n");
        let t = lex(&src).toks.into_iter().find(|t| t.is_ident("t"));
        rtped_core::check_assert_eq!(t.map(|t| t.line), Some(breaks + 2), "{src:?}");
    }

    fn arbitrary_ascii_never_breaks_the_lexer(
        s in ascii_string(0..120)
    ) {
        assert_stream(&s, &stream(&s));
    }
}
