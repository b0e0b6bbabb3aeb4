//! `unchecked-arith-in-fixed-datapath`: the machine-checked face of the
//! fixed-point overflow contract (DESIGN.md §13, the Q12/i32/i64 proof).
//!
//! In the designated fixed-point modules — `rtped_hw::{nhog_mem, ecc,
//! macbar, shard}` and `rtped_hog::quant` — silent wraparound is a
//! correctness bug of the reproduction itself: the paper's SoC keeps its
//! accuracy claims only because every accumulator width is argued. So
//! arithmetic there must either be *explicit* (`wrapping_*`, `checked_*`,
//! `saturating_*`, `overflowing_*`) or carry a pragma citing the
//! no-overflow proof. The audit flags, in non-test, non-`const` code:
//!
//! - every left shift (`<<`, `<<=`) whose amount is not an integer
//!   literal — literal amounts are rejected at compile time when they
//!   exceed the width, variable amounts are not;
//! - every bare `+`, `-`, `*` (and `+=`, `-=`, `*=`) in a statement that
//!   *names a sized integer width* (`i8`…`i128`, `u8`…`u128`, as a type
//!   token or a literal suffix). Width-naming statements are exactly the
//!   ones manipulating declared datapath values; width-free geometry and
//!   counter arithmetic on `usize`/inferred ints stays in the domain of
//!   bounds checks and debug overflow panics, and is out of scope.
//!
//! A shift is distinguished from a double-open-generic (`Option<<T as
//! Trait>::Out>`) by its right operand: a shift's right-hand side is a
//! value, a qualified-path generic's is a type head followed by `as`.

use crate::lexer::{LexKind, LexToken};
use crate::rules::{in_test_region, Violation, UNCHECKED_ARITH};

/// Sized integer width names (type tokens or literal suffixes) that mark
/// a statement as width-annotated.
const WIDTHS: &[&str] = &[
    "i8", "i16", "i32", "i64", "i128", "u8", "u16", "u32", "u64", "u128",
];

/// The designated fixed-point files (workspace-relative).
#[must_use]
pub fn in_scope(rel: &str) -> bool {
    matches!(
        rel,
        "crates/hw/src/nhog_mem.rs"
            | "crates/hw/src/ecc.rs"
            | "crates/hw/src/macbar.rs"
            | "crates/hw/src/shard.rs"
            | "crates/hog/src/quant.rs"
    )
}

/// Runs the audit over one file's token stream.
pub fn check(rel: &str, toks: &[LexToken], tests: &[(usize, usize)], out: &mut Vec<Violation>) {
    if !in_scope(rel) {
        return;
    }
    let mut push = |line: usize, message: String| {
        out.push(Violation {
            file: rel.to_string(),
            line,
            rule: UNCHECKED_ARITH.to_string(),
            message,
        });
    };
    for stmt in statements(toks) {
        if stmt.is_empty() || is_const_item(stmt) {
            continue;
        }
        let width = stmt.iter().find_map(width_name);
        for (k, t) in stmt.iter().enumerate() {
            if t.kind != LexKind::Punct || t.in_attr || in_test_region(tests, t.line) {
                continue;
            }
            match t.text.as_str() {
                "<<" | "<<=" if is_shift(stmt, k) && !shift_amount_is_literal(stmt, k) => {
                    push(
                        t.line,
                        format!(
                            "bare `{}` with a variable amount in the fixed-point \
                             datapath — use `checked_shl`/`wrapping_shl` or cite \
                             the amount bound in a pragma",
                            t.text
                        ),
                    );
                }
                "+" | "-" | "*" => {
                    if let Some(w) = width {
                        if is_binary(stmt, k) {
                            push(
                                t.line,
                                format!(
                                    "bare `{}` in a `{w}`-annotated statement of the \
                                     fixed-point datapath — use an explicit \
                                     `wrapping_*`/`checked_*`/`saturating_*` form or \
                                     cite the no-overflow proof in a pragma",
                                    t.text
                                ),
                            );
                        }
                    }
                }
                "+=" | "-=" | "*=" => {
                    if let Some(w) = width {
                        push(
                            t.line,
                            format!(
                                "bare `{}` in a `{w}`-annotated statement of the \
                                 fixed-point datapath — accumulate via an explicit \
                                 `wrapping_*`/`checked_*`/`saturating_*` form or cite \
                                 the no-overflow proof in a pragma",
                                t.text
                            ),
                        );
                    }
                }
                _ => {}
            }
        }
    }
}

/// Splits the token stream into statement-ish segments at `;`, `{`, `}`.
/// Coarse by design: a match body is one segment, which errs toward
/// flagging — the safe direction for an overflow audit.
fn statements(toks: &[LexToken]) -> impl Iterator<Item = &[LexToken]> {
    toks.split(|t| t.kind == LexKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}"))
}

/// Whether the segment is (the head of) a `const`/`static` item —
/// const-eval arithmetic overflow is a hard compile error, so explicit
/// forms add nothing there.
fn is_const_item(stmt: &[LexToken]) -> bool {
    stmt.iter()
        .take_while(|t| t.kind == LexKind::Ident || t.is_punct("("))
        .take(4)
        .any(|t| t.is_ident("const") || t.is_ident("static"))
}

/// The width the statement names, if any: a sized-int type token outside
/// attributes, or a numeric literal suffix.
fn width_name(t: &LexToken) -> Option<&'static str> {
    if t.in_attr {
        return None;
    }
    let name: &str = match t.kind {
        LexKind::Ident => &t.text,
        LexKind::Int | LexKind::Float => t.suffix.as_deref()?,
        _ => return None,
    };
    WIDTHS.iter().find(|w| **w == name).copied()
}

/// Whether the operator at `k` is binary: its left neighbour must be a
/// value-ending token (identifier, literal, or a closing delimiter).
fn is_binary(stmt: &[LexToken], k: usize) -> bool {
    let Some(prev) = k.checked_sub(1).and_then(|p| stmt.get(p)) else {
        return false;
    };
    match prev.kind {
        LexKind::Ident => !is_non_value_keyword(&prev.text),
        LexKind::Int | LexKind::Float | LexKind::Str | LexKind::RawStr | LexKind::Char => true,
        LexKind::Punct => matches!(prev.text.as_str(), ")" | "]" | "?"),
        LexKind::Lifetime | LexKind::Comment => false,
    }
}

/// Keywords that can precede an operator without making it binary
/// (`return -x`, `as -`? no — `as` precedes a type; keep the audit exact
/// for the forms that occur).
fn is_non_value_keyword(name: &str) -> bool {
    matches!(
        name,
        "return" | "break" | "in" | "if" | "while" | "match" | "else" | "as"
    )
}

/// Whether `<<` at `k` is a genuine shift: binary position, and the right
/// operand is not a type head (`Ident` followed by `as`, the
/// qualified-path generic form).
fn is_shift(stmt: &[LexToken], k: usize) -> bool {
    if stmt[k].text == "<<=" {
        return true;
    }
    if !is_binary(stmt, k) {
        return false;
    }
    let next = stmt.get(k + 1);
    let after = stmt.get(k + 2);
    !matches!(
        (next, after),
        (Some(n), Some(a)) if n.kind == LexKind::Ident && a.is_ident("as")
    )
}

/// Whether the shift amount (the expression after `<<`/`<<=`) is a bare
/// integer literal, possibly parenthesised — those are compile-checked
/// against the shifted type's width.
fn shift_amount_is_literal(stmt: &[LexToken], k: usize) -> bool {
    let mut i = k + 1;
    while stmt.get(i).is_some_and(|t| t.is_punct("(")) {
        i += 1;
    }
    stmt.get(i).is_some_and(|t| t.kind == LexKind::Int)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str) -> Vec<Violation> {
        let toks = crate::lexer::lex(src).toks;
        let mut out = Vec::new();
        check(rel, &toks, &[], &mut out);
        out
    }

    #[test]
    fn variable_shift_flagged_literal_shift_exempt() {
        let v = run(
            "crates/hw/src/ecc.rs",
            "fn f(k: u32) -> u32 { let mut d = 0u32; d |= 1 << k; d << 2 }",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("<<"));
    }

    #[test]
    fn width_annotated_add_flagged_geometry_exempt() {
        let v = run(
            "crates/hw/src/macbar.rs",
            "fn f(a: i64, b: i64) -> i64 { let s: i64 = a + b; s }\nfn g(x: usize, y: usize) -> usize { x + y }",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn suffix_counts_as_width_and_explicit_forms_pass() {
        let v = run(
            "crates/hog/src/quant.rs",
            "fn f(a: i32) -> i32 { a.wrapping_mul(3) }\nfn g(x: usize) -> usize { x * 4096 }",
        );
        assert!(v.is_empty(), "{v:?}");
        let v = run(
            "crates/hog/src/quant.rs",
            "fn f(x: usize) { let _ = x * 2i64 as usize; }",
        );
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn const_items_and_out_of_scope_files_are_exempt() {
        assert!(run(
            "crates/hw/src/macbar.rs",
            "pub const ACC_MAX: i64 = (1 << 47) - 1;"
        )
        .is_empty());
        assert!(run(
            "crates/hw/src/pipeline.rs",
            "fn f(a: i64, b: i64) -> i64 { a + b }"
        )
        .is_empty());
    }

    #[test]
    fn qualified_path_generics_are_not_shifts() {
        let v = run(
            "crates/hw/src/shard.rs",
            "fn f(x: Option<<u64 as TryFrom<u32>>::Error>) { let _ = x; }",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unary_minus_is_not_binary() {
        let v = run(
            "crates/hw/src/macbar.rs",
            "fn f() -> i64 { let x: i64 = -4096; x }",
        );
        assert!(v.is_empty(), "{v:?}");
    }
}
