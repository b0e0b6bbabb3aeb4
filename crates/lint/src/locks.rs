//! `lock-order`: deadlock-freedom for the mutex-holding crates.
//!
//! The serving daemon (`crates/serve`) and the chaos harness
//! (`crates/fleet`) are the only places the workspace holds
//! `std::sync::Mutex` guards, and a cycle between their acquisition
//! orders is the one concurrency bug the deterministic test suite cannot
//! surface (it needs an adversarial schedule). This rule extracts every
//! `.lock()` acquisition site from the token stream, reconstructs guard
//! lifetimes from `let` bindings and brace depth, and derives the *nested
//! acquisition graph*: an edge `A -> B` whenever lock `B` is taken while
//! a guard on `A` is still live. The graph must
//!
//! 1. contain only edges declared in [`DECLARED_ORDER`] (an undeclared
//!    nesting is a violation at the inner acquisition site),
//! 2. never nest a lock inside itself (`std` mutexes are not reentrant —
//!    self-nesting is a guaranteed deadlock, declared or not), and
//! 3. be acyclic together with the declared table (a cycle anywhere
//!    fails, so an entry added to paper over a new nesting cannot
//!    reintroduce deadlock potential silently).
//!
//! Lock identity is the final field/method name of the receiver chain
//! (`self.queue.lock()` → `queue`, `self.shard(name).lock()` → `shard`),
//! which matches how the code names its mutexes; two different mutexes
//! sharing a field name would collapse — acceptable at this scale and
//! strictly conservative (it can only *add* edges).
//!
//! Guard lifetime model, from token structure:
//! - `let g = x.lock()…;` holds until the enclosing block closes or a
//!   `drop(g)` names the binding;
//! - a `.lock()` inside a larger expression (no `let` binding of the
//!   guard itself) is a temporary: held to the end of the statement.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{matching, LexKind, LexToken};
use crate::rules::{Violation, LOCK_ORDER};

/// The declared nesting order: `(outer, inner)` pairs that are allowed.
/// An empty inventory is itself a statement: today no lock is ever taken
/// while another is held, and any new nesting must be declared here (and
/// survive the cycle check) to land.
pub const DECLARED_ORDER: &[(&str, &str)] = &[];

/// Files the rule covers.
#[must_use]
pub fn in_scope(rel: &str) -> bool {
    rel.starts_with("crates/serve/src/") || rel.starts_with("crates/fleet/src/")
}

/// One extracted acquisition site.
#[derive(Debug, Clone)]
struct Acquisition {
    /// Lock name (receiver chain tail).
    name: String,
    /// 1-based line of the `.lock()` call.
    line: usize,
    /// Guard binding name when `let`-bound, else `None` (temporary).
    binding: Option<String>,
    /// Brace depth of the statement (guards die when depth drops below).
    depth: usize,
}

/// A live guard while walking a function body.
#[derive(Debug, Clone)]
struct LiveGuard {
    name: String,
    line: usize,
    binding: Option<String>,
    depth: usize,
}

/// Runs the rule over one file, appending nested-acquisition edges to
/// `edges` (for the workspace-level cycle check) and violations for
/// undeclared or self nestings.
pub fn check(
    rel: &str,
    toks: &[LexToken],
    edges: &mut BTreeSet<(String, String)>,
    out: &mut Vec<Violation>,
) {
    if !in_scope(rel) {
        return;
    }
    for body in function_bodies(toks) {
        walk_body(rel, body, edges, out);
    }
}

/// Workspace-level check: the union of observed edges plus the declared
/// table must be acyclic. Violations are attributed to the lint crate's
/// own table (file `crates/lint/src/locks.rs`) because that is where the
/// order is declared.
pub fn check_cycles(edges: &BTreeSet<(String, String)>, out: &mut Vec<Violation>) {
    let mut all: BTreeSet<(String, String)> = edges.clone();
    for (a, b) in DECLARED_ORDER {
        all.insert(((*a).to_string(), (*b).to_string()));
    }
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in &all {
        adj.entry(a.as_str()).or_default().push(b.as_str());
    }
    // Iterative DFS cycle detection with deterministic order.
    let mut state: BTreeMap<&str, u8> = BTreeMap::new(); // 1 = on stack, 2 = done
    for &start in adj.keys().collect::<Vec<_>>() {
        if state.get(start).copied() == Some(2) {
            continue;
        }
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        state.insert(start, 1);
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let succs = adj.get(node).map(Vec::as_slice).unwrap_or(&[]);
            if *next < succs.len() {
                let succ = succs[*next];
                *next += 1;
                match state.get(succ).copied() {
                    Some(1) => {
                        let cycle: Vec<&str> = stack
                            .iter()
                            .map(|&(n, _)| n)
                            .skip_while(|&n| n != succ)
                            .chain(std::iter::once(succ))
                            .collect();
                        out.push(Violation {
                            file: "crates/lint/src/locks.rs".to_string(),
                            line: 1,
                            rule: LOCK_ORDER.to_string(),
                            message: format!(
                                "lock acquisition graph (observed + declared) has a \
                                 cycle: {}",
                                cycle.join(" -> ")
                            ),
                        });
                        state.insert(node, 2);
                        stack.pop();
                    }
                    Some(2) => {}
                    _ => {
                        state.insert(succ, 1);
                        stack.push((succ, 0));
                    }
                }
            } else {
                state.insert(node, 2);
                stack.pop();
            }
        }
    }
}

/// Yields the token slice of every function body (`fn name(...) { ... }`)
/// in the stream, including bodies of nested functions and closures —
/// which simply re-enter the walk as part of the enclosing body.
fn function_bodies(toks: &[LexToken]) -> Vec<&[LexToken]> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("fn") && !toks[i].in_attr {
            // Find the body's opening brace: the first `{` at paren
            // depth 0 after the signature (skipping where-clauses).
            let mut j = i + 1;
            let mut paren = 0usize;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct("(") || t.is_punct("[") {
                    paren += 1;
                } else if t.is_punct(")") || t.is_punct("]") {
                    paren = paren.saturating_sub(1);
                } else if t.is_punct(";") && paren == 0 {
                    // Trait-method declaration without a body.
                    break;
                } else if t.is_punct("{") && paren == 0 {
                    let end = matching(toks, j).map_or(toks.len(), |c| c + 1);
                    out.push(&toks[j..end]);
                    j = end;
                    break;
                }
                j += 1;
            }
            i = j.max(i + 1);
        } else {
            i += 1;
        }
    }
    out
}

/// Walks one function body tracking live guards and emitting nesting
/// edges / violations.
fn walk_body(
    rel: &str,
    body: &[LexToken],
    edges: &mut BTreeSet<(String, String)>,
    out: &mut Vec<Violation>,
) {
    let mut live: Vec<LiveGuard> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0;
    // Pending `let` binding name for the current statement, if any.
    let mut stmt_binding: Option<String> = None;
    let mut stmt_has_let = false;
    while i < body.len() {
        let t = &body[i];
        if t.is_punct("{") {
            depth += 1;
            i += 1;
            continue;
        }
        if t.is_punct("}") {
            depth = depth.saturating_sub(1);
            live.retain(|g| g.depth <= depth);
            i += 1;
            continue;
        }
        if t.is_punct(";") {
            // Temporaries die at end of statement.
            live.retain(|g| g.binding.is_some());
            stmt_binding = None;
            stmt_has_let = false;
            i += 1;
            continue;
        }
        if t.is_ident("let") {
            stmt_has_let = true;
            // Binding name: next ident that is not `mut`.
            let mut j = i + 1;
            while j < body.len() && body[j].is_ident("mut") {
                j += 1;
            }
            stmt_binding = body
                .get(j)
                .filter(|n| n.kind == LexKind::Ident)
                .map(|n| n.text.clone());
            i = j;
            continue;
        }
        if t.is_ident("drop") && body.get(i + 1).is_some_and(|p| p.is_punct("(")) {
            if let Some(arg) = body.get(i + 2).filter(|a| a.kind == LexKind::Ident) {
                live.retain(|g| g.binding.as_deref() != Some(arg.text.as_str()));
            }
            i += 1;
            continue;
        }
        if t.is_ident("lock")
            && i >= 2
            && body[i - 1].is_punct(".")
            && body.get(i + 1).is_some_and(|p| p.is_punct("("))
        {
            let acq = Acquisition {
                name: receiver_name(body, i - 1),
                line: t.line,
                binding: if stmt_has_let && guard_survives(body, i) {
                    stmt_binding.clone()
                } else {
                    None
                },
                depth,
            };
            for held in &live {
                let edge = (held.name.clone(), acq.name.clone());
                if held.name == acq.name {
                    out.push(Violation {
                        file: rel.to_string(),
                        line: acq.line,
                        rule: LOCK_ORDER.to_string(),
                        message: format!(
                            "lock `{}` acquired while already held (guard from line \
                             {}) — std mutexes are not reentrant; this deadlocks",
                            acq.name, held.line
                        ),
                    });
                } else if !DECLARED_ORDER
                    .iter()
                    .any(|(a, b)| *a == edge.0 && *b == edge.1)
                {
                    out.push(Violation {
                        file: rel.to_string(),
                        line: acq.line,
                        rule: LOCK_ORDER.to_string(),
                        message: format!(
                            "lock `{}` acquired while `{}` is held (guard from line \
                             {}) — undeclared nesting; declare the pair in \
                             DECLARED_ORDER (crates/lint/src/locks.rs) if this \
                             order is intended",
                            acq.name, held.name, held.line
                        ),
                    });
                }
                edges.insert(edge);
            }
            live.push(LiveGuard {
                name: acq.name,
                line: acq.line,
                binding: acq.binding,
                depth: acq.depth,
            });
            i += 1;
            continue;
        }
        i += 1;
    }
}

/// Whether the `let` binding of the statement actually holds the guard
/// produced by the `.lock()` at ident index `lock_idx`: the tokens after
/// the call may only be result adapters (`.unwrap()`, `.expect(..)`,
/// `.map_err(..)`, `.unwrap_or_else(..)`) and a trailing `?` before the
/// statement ends. A longer method chain (`.lock().unwrap().len()`)
/// consumes the guard inside the statement — a temporary.
fn guard_survives(body: &[LexToken], lock_idx: usize) -> bool {
    let Some(mut j) = skip_paren_group(body, lock_idx + 1) else {
        return false;
    };
    loop {
        let Some(t) = body.get(j) else { return true };
        if t.is_punct(";") {
            return true;
        }
        if t.is_punct("?") {
            j += 1;
            continue;
        }
        if t.is_punct(".")
            && body.get(j + 1).is_some_and(|a| {
                matches!(
                    a.text.as_str(),
                    "unwrap" | "expect" | "map_err" | "unwrap_or_else"
                ) && a.kind == LexKind::Ident
            })
        {
            match skip_paren_group(body, j + 2) {
                Some(next) => {
                    j = next;
                    continue;
                }
                None => return false,
            }
        }
        return false;
    }
}

/// If `body[j]` opens a paren group, returns the index one past its
/// matching close.
fn skip_paren_group(body: &[LexToken], j: usize) -> Option<usize> {
    if !body.get(j)?.is_punct("(") {
        return None;
    }
    matching(body, j).map(|c| c + 1)
}

/// The lock's name: walking left from the `.` before `lock`, the nearest
/// identifier, skipping over one call/index argument list if the
/// receiver ends in `(...)`/`[...]`.
fn receiver_name(body: &[LexToken], dot: usize) -> String {
    let mut j = dot; // points at `.`
    loop {
        let Some(prev) = j.checked_sub(1).map(|p| &body[p]) else {
            return "<unknown>".to_string();
        };
        if prev.is_punct(")") || prev.is_punct("]") {
            // Skip the bracketed group to its opener.
            match matching(body, j - 1) {
                Some(open) => j = open,
                None => return "<unknown>".to_string(),
            }
            continue;
        }
        if prev.kind == LexKind::Ident {
            return prev.text.clone();
        }
        return "<unknown>".to_string();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> (BTreeSet<(String, String)>, Vec<Violation>) {
        let toks = crate::lexer::lex(src).toks;
        let mut edges = BTreeSet::new();
        let mut out = Vec::new();
        check("crates/serve/src/server.rs", &toks, &mut edges, &mut out);
        (edges, out)
    }

    #[test]
    fn sequential_temporaries_do_not_nest() {
        let src = "fn f(&self) {\n    let n = self.queue.lock().unwrap().len();\n    let m = self.journal.lock().unwrap().len();\n}\n";
        let (edges, v) = run(src);
        assert!(edges.is_empty(), "{edges:?}");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn let_bound_guard_nests_until_scope_end() {
        let src =
            "fn f(&self) {\n    let q = self.queue.lock();\n    let j = self.journal.lock();\n}\n";
        let (edges, v) = run(src);
        assert!(edges.contains(&("queue".to_string(), "journal".to_string())));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("undeclared"));
    }

    #[test]
    fn drop_releases_the_guard() {
        let src = "fn f(&self) {\n    let q = self.queue.lock();\n    drop(q);\n    let j = self.journal.lock();\n}\n";
        let (edges, v) = run(src);
        assert!(edges.is_empty(), "{edges:?}");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn self_nesting_is_a_deadlock() {
        let src =
            "fn f(&self) {\n    let a = self.queue.lock();\n    let b = self.queue.lock();\n}\n";
        let (_, v) = run(src);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("not reentrant"));
    }

    #[test]
    fn inner_scope_guard_dies_with_its_block() {
        let src = "fn f(&self) {\n    {\n        let q = self.queue.lock();\n    }\n    let j = self.journal.lock();\n}\n";
        let (edges, v) = run(src);
        assert!(edges.is_empty(), "{edges:?}");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn receiver_through_call_is_named_by_the_method() {
        let src = "fn f(&self) { let s = self.shard(name).lock(); }\n";
        let toks = crate::lexer::lex(src).toks;
        let mut edges = BTreeSet::new();
        let mut out = Vec::new();
        check("crates/serve/src/tenant.rs", &toks, &mut edges, &mut out);
        // One acquisition, no nesting; name resolution exercised via a
        // second acquisition under the guard.
        assert!(out.is_empty());
        let src2 = "fn f(&self) {\n    let s = self.shard(name).lock();\n    let j = self.journal.lock();\n}\n";
        let toks2 = crate::lexer::lex(src2).toks;
        let mut edges2 = BTreeSet::new();
        let mut out2 = Vec::new();
        check("crates/serve/src/tenant.rs", &toks2, &mut edges2, &mut out2);
        assert!(edges2.contains(&("shard".to_string(), "journal".to_string())));
    }

    #[test]
    fn cycles_in_the_union_graph_are_detected() {
        let mut edges = BTreeSet::new();
        edges.insert(("a".to_string(), "b".to_string()));
        edges.insert(("b".to_string(), "a".to_string()));
        let mut out = Vec::new();
        check_cycles(&edges, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("cycle"));
    }

    #[test]
    fn acyclic_graph_passes() {
        let mut edges = BTreeSet::new();
        edges.insert(("a".to_string(), "b".to_string()));
        edges.insert(("b".to_string(), "c".to_string()));
        edges.insert(("a".to_string(), "c".to_string()));
        let mut out = Vec::new();
        check_cycles(&edges, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}
