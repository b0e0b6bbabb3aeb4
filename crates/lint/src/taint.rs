//! Module-level determinism taint, plus hash-iteration auditing.
//!
//! Two rules share the module graph:
//!
//! **`determinism-taint`** replaces per-file allowlists with a computed
//! reachability argument. A file is a *taint source* when its non-test
//! code names a nondeterminism primitive: `Instant`, `SystemTime`,
//! `ThreadId`, raw `env::var`/`env::var_os`, or `{:p}` pointer
//! formatting. A file is *tainted* when it is a source or can reach a
//! source along use-graph edges — except through *absorbers*, the
//! sanctioned containment points (`rtped_core::timer`, `rtped_core::env`,
//! and the bench binaries, which measure wall time by design). Absorbers
//! are never tainted and taint never propagates through them: that is the
//! machine-checked form of "all wall-clock access goes through the timer
//! facade". The rule fires when a *report-producing* module — one whose
//! non-test code implements or names `ToJson` — is tainted, anchored at
//! the `use`/path line that lets the taint in (or at the source token
//! when the module itself is the source).
//!
//! **`hash-iteration-nondeterminism`** flags `HashMap`/`HashSet` in any
//! module that reaches canonical-report code (a `ToJson` module or
//! `rtped_core::json` itself). Randomized hash iteration order is the
//! classic byte-identity killer; the workspace standard is
//! `BTreeMap`/`BTreeSet` everywhere report-adjacent. The rule flags
//! *presence*, not just iteration: once the type is in a report-reaching
//! module, an unordered `for` loop is one refactor away. Test regions are
//! exempt (tests may hash freely; they assert on sorted output).
//!
//! The lint crate itself is an absorber for both rules: it names every
//! source token as pattern text and must stay self-checkable.

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::ModuleGraph;
use crate::lexer::{LexKind, LexToken};
use crate::rules::{in_test_region, Violation, DET_TAINT, HASH_ITER};

/// Files where nondeterminism is sanctioned by design: sources inside
/// them are not taint, and taint does not propagate through them.
#[must_use]
pub fn is_absorber(rel: &str) -> bool {
    rel == "crates/core/src/timer.rs"
        || rel == "crates/core/src/env.rs"
        || rel.starts_with("crates/bench/src/bin/")
        || rel.starts_with("crates/lint/")
}

/// A taint source found in a file.
#[derive(Debug, Clone)]
pub struct Source {
    pub line: usize,
    pub what: String,
}

/// The first taint source named by non-test code in the stream, if any.
#[must_use]
pub fn first_source(toks: &[LexToken], tests: &[(usize, usize)]) -> Option<Source> {
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.in_attr || in_test_region(tests, t.line) {
            i += 1;
            continue;
        }
        match t.kind {
            LexKind::Ident => {
                if matches!(t.text.as_str(), "Instant" | "SystemTime" | "ThreadId") {
                    return Some(Source {
                        line: t.line,
                        what: format!("`{}`", t.text),
                    });
                }
                if t.text == "env"
                    && toks.get(i + 1).is_some_and(|p| p.is_punct("::"))
                    && toks
                        .get(i + 2)
                        .is_some_and(|v| v.is_ident("var") || v.is_ident("var_os"))
                {
                    return Some(Source {
                        line: t.line,
                        what: format!("`env::{}`", toks[i + 2].text),
                    });
                }
            }
            LexKind::Str | LexKind::RawStr if t.text.contains(":p}") => {
                return Some(Source {
                    line: t.line,
                    what: "`{:p}` pointer formatting".to_string(),
                });
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Whether the stream's non-test code names `ToJson` (implements or
/// consumes the canonical serializer).
#[must_use]
pub fn is_report_module(toks: &[LexToken], tests: &[(usize, usize)]) -> bool {
    toks.iter()
        .any(|t| t.is_ident("ToJson") && !in_attr_or_test(t, tests))
}

fn in_attr_or_test(t: &LexToken, tests: &[(usize, usize)]) -> bool {
    t.in_attr || in_test_region(tests, t.line)
}

/// Runs both graph rules over the whole walked set.
///
/// `files` maps workspace-relative path → tokens; `tests` maps the same
/// paths → `#[cfg(test)]` line ranges.
pub fn check(
    graph: &ModuleGraph,
    files: &BTreeMap<String, Vec<LexToken>>,
    tests: &BTreeMap<String, Vec<(usize, usize)>>,
    out: &mut Vec<Violation>,
) {
    let empty: Vec<(usize, usize)> = Vec::new();
    let t = |rel: &str| tests.get(rel).unwrap_or(&empty);

    // Pass 1: classify every file.
    let mut sources: BTreeMap<String, Source> = BTreeMap::new();
    let mut reports: BTreeSet<String> = BTreeSet::new();
    for (rel, toks) in files {
        if is_absorber(rel) {
            continue;
        }
        if let Some(s) = first_source(toks, t(rel)) {
            sources.insert(rel.clone(), s);
        }
        if is_report_module(toks, t(rel)) {
            reports.insert(rel.clone());
        }
    }

    // Pass 2: tainted = reaches a source without passing through an
    // absorber. Absorbers themselves are never tainted.
    let mut tainted: BTreeSet<String> = BTreeSet::new();
    for rel in files.keys() {
        if is_absorber(rel) {
            continue;
        }
        if reaches_source(graph, rel, &sources) {
            tainted.insert(rel.clone());
        }
    }

    // `determinism-taint`: every tainted report module is a violation.
    for rel in &reports {
        if !tainted.contains(rel) {
            continue;
        }
        if let Some(s) = sources.get(rel) {
            out.push(Violation {
                file: rel.clone(),
                line: s.line,
                rule: DET_TAINT.to_string(),
                message: format!(
                    "report-producing module names {} directly — route it \
                     through the sanctioned facade (rtped_core::timer / \
                     rtped_core::env) or drop it from report code",
                    s.what
                ),
            });
        } else if let Some(edge) = graph.first_edge_into(rel, &tainted) {
            let via = &edge.to;
            let root = sources
                .get(via)
                .map(|s| format!("{} at {}:{}", s.what, via, s.line))
                .unwrap_or_else(|| format!("a source reachable through {via}"));
            out.push(Violation {
                file: rel.clone(),
                line: edge.line,
                rule: DET_TAINT.to_string(),
                message: format!(
                    "report-producing module imports determinism-tainted \
                     `{via}` ({root}) — reports must not depend on modules \
                     that name wall-clock/env/thread-identity primitives"
                ),
            });
        }
    }

    // `hash-iteration-nondeterminism`: HashMap/HashSet in report-reaching
    // modules. Report-reaching = names ToJson itself or reaches a report
    // module / the canonical json module.
    let mut report_targets = reports.clone();
    report_targets.insert("crates/core/src/json.rs".to_string());
    for (rel, toks) in files {
        if is_absorber(rel) {
            continue;
        }
        let reach = graph.reachable_from([rel.as_str()], true);
        if reach.is_disjoint(&report_targets) {
            continue;
        }
        let tr = t(rel);
        let mut in_use_decl = false;
        for tok in toks {
            if tok.is_ident("use") && !tok.in_attr {
                in_use_decl = true;
            } else if tok.is_punct(";") {
                in_use_decl = false;
            }
            if tok.kind == LexKind::Ident
                && matches!(tok.text.as_str(), "HashMap" | "HashSet")
                && !in_use_decl
                && !tok.in_attr
                && !in_test_region(tr, tok.line)
            {
                out.push(Violation {
                    file: rel.clone(),
                    line: tok.line,
                    rule: HASH_ITER.to_string(),
                    message: format!(
                        "`{}` in a module reaching canonical-report code — \
                         hash iteration order is nondeterministic; use \
                         `BTreeMap`/`BTreeSet`",
                        tok.text
                    ),
                });
            }
        }
    }
}

/// Forward DFS from `start` that never traverses out of an absorber,
/// answering "does any reachable file carry a source".
fn reaches_source(graph: &ModuleGraph, start: &str, sources: &BTreeMap<String, Source>) -> bool {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut stack: Vec<&str> = vec![start];
    while let Some(rel) = stack.pop() {
        if !seen.insert(rel) {
            continue;
        }
        if is_absorber(rel) {
            continue; // never tainted, never forwards taint
        }
        if sources.contains_key(rel) {
            return true;
        }
        if let Some(edges) = graph.edges.get(rel) {
            for e in edges {
                if !seen.contains(e.to.as_str()) {
                    stack.push(&e.to);
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex_map(files: &[(&str, &str)]) -> BTreeMap<String, Vec<LexToken>> {
        files
            .iter()
            .map(|(rel, src)| (rel.to_string(), crate::lexer::lex(src).toks))
            .collect()
    }

    fn run(files: &[(&str, &str)]) -> Vec<Violation> {
        let toks = lex_map(files);
        let table: BTreeMap<String, String> =
            [("rtped_core".to_string(), "crates/core/src".to_string())]
                .into_iter()
                .collect();
        let graph = crate::graph::build(&table, &toks);
        let tests = BTreeMap::new();
        let mut out = Vec::new();
        check(&graph, &toks, &tests, &mut out);
        out.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
        out
    }

    #[test]
    fn taint_flows_along_use_edges_into_report_modules() {
        let v = run(&[
            (
                "crates/core/src/lib.rs",
                "pub mod clocky;\npub mod report;\n",
            ),
            (
                "crates/core/src/clocky.rs",
                "pub fn now() -> u64 { let _ = std::time::Instant::now(); 0 }\n",
            ),
            (
                "crates/core/src/report.rs",
                "use crate::clocky::now;\npub struct R;\nimpl ToJson for R {}\n",
            ),
        ]);
        let taint: Vec<&Violation> = v.iter().filter(|v| v.rule == DET_TAINT).collect();
        assert_eq!(taint.len(), 1, "{v:?}");
        assert_eq!(taint[0].file, "crates/core/src/report.rs");
        assert_eq!(taint[0].line, 1);
        assert!(taint[0].message.contains("clocky"));
    }

    #[test]
    fn absorbers_cut_propagation() {
        let v = run(&[
            (
                "crates/core/src/lib.rs",
                "pub mod timer;\npub mod report;\n",
            ),
            (
                "crates/core/src/timer.rs",
                "pub fn now() -> u64 { let _ = std::time::Instant::now(); 0 }\n",
            ),
            (
                "crates/core/src/report.rs",
                "use crate::timer::now;\npub struct R;\nimpl ToJson for R {}\n",
            ),
        ]);
        assert!(v.iter().all(|v| v.rule != DET_TAINT), "{v:?}");
    }

    #[test]
    fn same_file_source_anchors_at_the_source_line() {
        let v = run(&[(
            "crates/core/src/report.rs",
            "pub struct R;\nimpl ToJson for R {}\npub fn id() -> String { format!(\"{:p}\", &0) }\n",
        )]);
        let taint: Vec<&Violation> = v.iter().filter(|v| v.rule == DET_TAINT).collect();
        assert_eq!(taint.len(), 1, "{v:?}");
        assert_eq!(taint[0].line, 3);
        assert!(taint[0].message.contains(":p"));
    }

    #[test]
    fn non_report_modules_may_be_tainted_silently() {
        let v = run(&[(
            "crates/core/src/probe.rs",
            "pub fn t() { let _ = std::thread::current().id(); let _: std::thread::ThreadId = todo!(); }\n",
        )]);
        assert!(v.iter().all(|v| v.rule != DET_TAINT), "{v:?}");
    }

    #[test]
    fn hash_types_flagged_only_in_report_reaching_modules() {
        let v = run(&[
            (
                "crates/core/src/report.rs",
                "use std::collections::HashMap;\npub struct R;\nimpl ToJson for R {}\npub fn f() { let m: HashMap<u32, u32> = HashMap::new(); for _ in m.iter() {} }\n",
            ),
            (
                "crates/core/src/scratch.rs",
                "use std::collections::HashSet;\npub fn g() { let _s: HashSet<u32> = HashSet::new(); }\n",
            ),
        ]);
        let hash: Vec<&Violation> = v.iter().filter(|v| v.rule == HASH_ITER).collect();
        assert_eq!(hash.len(), 2, "{v:?}");
        assert!(hash.iter().all(|h| h.file == "crates/core/src/report.rs"));
        assert_eq!(hash[0].line, 4);
    }

    #[test]
    fn env_var_is_a_source_but_lint_crate_is_absorbed() {
        let v = run(&[
            (
                "crates/core/src/report.rs",
                "pub struct R;\nimpl ToJson for R {}\npub fn f() -> String { std::env::var(\"X\").unwrap_or_default() }\n",
            ),
            (
                "crates/lint/src/rules.rs",
                "pub fn f() { let _ = std::time::Instant::now(); }\n",
            ),
        ]);
        let taint: Vec<&Violation> = v.iter().filter(|v| v.rule == DET_TAINT).collect();
        assert_eq!(taint.len(), 1, "{v:?}");
        assert_eq!(taint[0].file, "crates/core/src/report.rs");
        assert!(taint[0].message.contains("env::var"));
    }
}
