//! `unreached-item`: item-level reachability by name.
//!
//! [`crate::graph::check_unreached`] proves every module file is reached;
//! this rule looks one level down, at the items inside them. A candidate
//! is a bare-`pub` `fn`, `const`, `static`, `struct`, `enum`, `type` or
//! `trait` declared outside `#[cfg(test)]` in a library module — a file
//! some crate root's `lib.rs` declares over `mod` edges (binaries and
//! `main.rs` are no library; a file no crate root declares is not
//! compiled). It is reported, at the line of its name, when no identifier
//! token with that name is a *use*. Every token counts as a use except:
//!
//! - a definition's own name (the identifier after `fn`, `struct`, ...),
//!   so two dead items sharing a name do not keep each other alive;
//! - the tokens of a `use` declaration, `pub use` re-exports included;
//! - the candidate's own file's `#[cfg(test)]` code.
//!
//! Binaries, examples, integration tests and *other* files' test code
//! all count: they use library items as oracles (bank conflict-freedom,
//! streaming extractor == frame model). So do the benchmark package's
//! sources under `dasbench/src`, which are read for use sites only and
//! never linted.
//!
//! Matching is by name alone, so the rule never flags a used item; it
//! can only miss a dead one whose name collides with another token (a
//! field, a local, a method of another type), or a dead type its own
//! `impl` header still names.

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::{use_decl_end, ModuleGraph};
use crate::lexer::{LexKind, LexToken};
use crate::rules::{in_test_region, Violation, UNREACHED_ITEM};

/// Item kinds a bare `pub` makes a candidate.
const CANDIDATE_KINDS: &[&str] = &["fn", "const", "static", "struct", "enum", "type", "trait"];

/// Keywords whose next identifier names a definition, never a use.
const DEFINING: &[&str] = &[
    "fn", "const", "static", "struct", "enum", "type", "trait", "union", "mod",
];

/// Every use site of every name: name → `(file, in that file's tests)`.
type UseSites = BTreeMap<String, BTreeSet<(String, bool)>>;

/// The use-site label of the benchmark package's sources.
const USE_ONLY: &str = "dasbench/src";

/// `unreached-item` over the walked files `files` (path → tokens), their
/// `#[cfg(test)]` regions `tests`, and `use_only`: token streams read for
/// use sites only (the benchmark package's sources).
pub fn check(
    graph: &ModuleGraph,
    files: &BTreeMap<String, Vec<LexToken>>,
    tests: &BTreeMap<String, Vec<(usize, usize)>>,
    use_only: &[Vec<LexToken>],
    out: &mut Vec<Violation>,
) {
    let mut sites = UseSites::new();
    for (rel, toks) in files {
        collect_uses(
            rel,
            toks,
            tests.get(rel).map_or(&[], Vec::as_slice),
            &mut sites,
        );
    }
    for toks in use_only {
        collect_uses(USE_ONLY, toks, &[], &mut sites);
    }
    for rel in library_modules(graph) {
        let (Some(toks), Some(regions)) = (files.get(&rel), tests.get(&rel)) else {
            continue;
        };
        for (kind, name) in candidates(toks, regions) {
            let used = sites
                .get(&name.text)
                .is_some_and(|s| s.iter().any(|(file, in_test)| *file != rel || !in_test));
            if !used {
                out.push(Violation {
                    file: rel.clone(),
                    line: name.line,
                    rule: UNREACHED_ITEM.to_string(),
                    message: format!(
                        "`pub {kind} {}` is named nowhere but its definition, \
                         `use` declarations and this file's tests — delete it, \
                         or move it under #[cfg(test)]",
                        name.text
                    ),
                });
            }
        }
    }
}

/// Records every identifier token of one file that counts as a use.
fn collect_uses(rel: &str, toks: &[LexToken], tests: &[(usize, usize)], sites: &mut UseSites) {
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_ident("use") && !t.in_attr {
            i = use_decl_end(toks, i + 1) + 1;
            continue;
        }
        let defines = i > 0 && DEFINING.iter().any(|k| toks[i - 1].is_ident(k));
        if t.kind == LexKind::Ident && !defines {
            sites
                .entry(t.text.clone())
                .or_default()
                .insert((rel.to_string(), in_test_region(tests, t.line)));
        }
        i += 1;
    }
}

/// Library module files: each crate root's `lib.rs` and every file it
/// declares, transitively, over `mod` edges.
fn library_modules(graph: &ModuleGraph) -> BTreeSet<String> {
    let mut seen = BTreeSet::new();
    let mut stack: Vec<String> = graph
        .crate_roots
        .values()
        .map(|dir| format!("{dir}/lib.rs"))
        .collect();
    while let Some(file) = stack.pop() {
        let Some(edges) = graph.edges.get(&file) else {
            continue;
        };
        stack.extend(edges.iter().filter(|e| e.decl).map(|e| e.to.clone()));
        seen.insert(file);
    }
    seen
}

/// The bare-`pub` candidate items of one file outside its test regions,
/// as `(kind keyword, name token)`.
fn candidates<'a>(toks: &'a [LexToken], tests: &[(usize, usize)]) -> Vec<(&'a str, &'a LexToken)> {
    let mut out = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        if !t.is_ident("pub") || t.in_attr || in_test_region(tests, t.line) {
            continue;
        }
        // Qualifiers between `pub` and the item keyword: `const fn`,
        // `unsafe fn`, `async fn`, `extern "C" fn`, `unsafe trait`. A
        // `pub(crate)` stops at its `(` and is no candidate.
        let mut j = k + 1;
        while let Some(q) = toks.get(j) {
            let qualifier = q.is_ident("unsafe")
                || q.is_ident("async")
                || q.is_ident("extern")
                || q.kind == LexKind::Str
                || (q.is_ident("const") && toks.get(j + 1).is_some_and(|n| n.is_ident("fn")));
            if !qualifier {
                break;
            }
            j += 1;
        }
        let (Some(kw), Some(name)) = (toks.get(j), toks.get(j + 1)) else {
            continue;
        };
        if name.kind == LexKind::Ident {
            if let Some(kind) = CANDIDATE_KINDS.iter().find(|k| kw.is_ident(k)) {
                out.push((*kind, name));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::build;

    /// `unreached-item` findings as `(file, line, name)` over a two-crate
    /// table, with `use_only` sources read for use sites.
    fn unreached(files: &[(&str, &str)], use_only: &[&str]) -> Vec<(String, usize, String)> {
        let toks: BTreeMap<String, Vec<LexToken>> = files
            .iter()
            .map(|(rel, src)| (rel.to_string(), crate::lexer::lex(src).toks))
            .collect();
        let tests = toks
            .iter()
            .map(|(rel, t)| (rel.clone(), crate::rules::test_region_lines(t)))
            .collect();
        let table = [
            ("rtped_core".to_string(), "crates/core/src".to_string()),
            ("rtped_hw".to_string(), "crates/hw/src".to_string()),
        ]
        .into_iter()
        .collect();
        let use_only: Vec<Vec<LexToken>> = use_only
            .iter()
            .map(|src| crate::lexer::lex(src).toks)
            .collect();
        let mut out = Vec::new();
        check(&build(&table, &toks), &toks, &tests, &use_only, &mut out);
        assert!(out.iter().all(|v| v.rule == UNREACHED_ITEM));
        out.into_iter()
            .map(|v| {
                let name = v.message.split('`').nth(1).unwrap_or("").to_string();
                (v.file, v.line, name)
            })
            .collect()
    }

    #[test]
    fn each_candidate_kind_is_reported_at_its_name_line() {
        let src = "pub fn a() {}\npub const fn b() {}\npub const C: u8 = 0;\n\
                   pub static D: u8 = 0;\npub struct E;\npub enum F {}\n\
                   pub type G = u8;\npub unsafe trait H {}\npub(crate) fn i() {}\n\
                   pub mod j {}\npub use j as k;\npub\nfn l() {}\n";
        let found = unreached(&[("crates/core/src/lib.rs", src)], &[]);
        let names: Vec<(usize, &str)> = found.iter().map(|(_, l, n)| (*l, n.as_str())).collect();
        assert_eq!(
            names,
            [
                (1, "pub fn a"),
                (2, "pub fn b"),
                (3, "pub const C"),
                (4, "pub static D"),
                (5, "pub struct E"),
                (6, "pub enum F"),
                (7, "pub type G"),
                (8, "pub trait H"),
                (13, "pub fn l"),
            ]
        );
    }

    #[test]
    fn uses_outside_the_own_files_tests_keep_an_item() {
        let lib = "pub mod m;\npub fn by_bin() {}\npub fn by_other_tests() {}\n\
                   pub fn by_bench() {}\npub fn by_own_code() {}\nfn f() { by_own_code() }\n";
        let files = [
            ("crates/core/src/lib.rs", lib),
            (
                "crates/core/src/m.rs",
                "#[cfg(test)]\nmod tests { fn t() { crate::by_other_tests() } }\n",
            ),
            (
                "crates/core/src/bin/tool.rs",
                "fn main() { rtped_core::by_bin() }\n",
            ),
        ];
        let found = unreached(&files, &["fn main() { rtped_core::by_bench(); }"]);
        assert_eq!(found, []);
    }

    #[test]
    fn own_tests_use_declarations_and_other_definitions_do_not_count() {
        let lib = "pub mod m;\npub use m::Reexported;\npub fn tested() {}\n\
                   #[cfg(test)]\nmod tests { use super::*; fn t() { tested() } }\n";
        let files = [
            ("crates/core/src/lib.rs", lib),
            ("crates/core/src/m.rs", "pub struct Reexported;\n"),
            // Another crate's definition of the same name is no use.
            ("crates/hw/src/lib.rs", "fn tested() {}\n"),
        ];
        let found = unreached(&files, &[]);
        let got: Vec<(&str, usize)> = found.iter().map(|(f, l, _)| (f.as_str(), *l)).collect();
        assert_eq!(
            got,
            [("crates/core/src/lib.rs", 3), ("crates/core/src/m.rs", 1)]
        );
    }

    #[test]
    fn binaries_test_items_and_undeclared_files_are_no_candidates() {
        let files = [
            (
                "crates/core/src/lib.rs",
                "#[cfg(test)]\npub fn helper() {}\n",
            ),
            ("crates/core/src/main.rs", "pub fn cli() {}\nfn main() {}\n"),
            (
                "crates/core/src/bin/tool.rs",
                "pub fn opt() {}\nfn main() {}\n",
            ),
            ("crates/core/src/orphan.rs", "pub fn stray() {}\n"),
        ];
        assert_eq!(unreached(&files, &[]), []);
    }
}
