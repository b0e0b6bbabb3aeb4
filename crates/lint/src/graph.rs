//! The workspace module/use-graph: which source file uses which.
//!
//! Nodes are workspace-relative file paths (exactly the paths
//! [`crate::walk`] yields); a directed edge `A -> B` means "code in `A`
//! names module `B`" — via a `use` declaration, a `mod child;`
//! declaration, or a qualified path head in an expression
//! (`rtped_core::env::typed`, `crate::arith::check`). `mod` edges are
//! tagged as declarations ([`Edge::decl`]); every other edge is a use.
//! Resolution is deliberately file-granular and conservative:
//!
//! - `use rtped_core::json::Json` resolves to `crates/core/src/json.rs`
//!   when that file exists, else to the crate root `lib.rs`;
//! - `use crate::lexer::...` and `use super::...` resolve within the crate;
//! - a bare head naming a module the file declares (`graph::build`,
//!   `pub use feature_map::FeatureMap`) resolves to that child;
//! - a crate root's `pub use rtped_hw as hw;` makes `rtped::hw::m`
//!   resolve as `rtped_hw::m`;
//! - `mod child;` resolves to the child file (`child.rs` or
//!   `child/mod.rs`), and inline `mod child { ... }` adds no edge;
//! - paths that resolve to nothing in the walked file set (std,
//!   unresolvable shapes) are dropped.
//!
//! Crate names come from each member's `Cargo.toml` (first `name =` after
//! `[package]`), normalised to identifier form (`rtped-core` →
//! `rtped_core`); when no manifest is readable the directory name with a
//! `rtped_` prefix is assumed, which keeps the graph usable on fixture
//! corpora that mirror the workspace layout without manifests.
//!
//! The graph is the substrate for the cross-cutting rules: determinism
//! taint propagates along reversed edges of both kinds (users of a
//! tainted module are tainted), "reaches canonical-report code" is plain
//! forward reachability, and `unreached-module` ([`check_unreached`]) is
//! forward reachability from the roots over use edges only. All of them
//! only need file-level precision, which is why resolution stops at the
//! module file.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::lexer::{matching, LexKind, LexToken};
use crate::rules::{Violation, UNREACHED_MODULE};

/// One resolved use/mod edge.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Workspace-relative path of the file the edge points to.
    pub to: String,
    /// 1-based line of the `use`/`mod` declaration that created it.
    pub line: usize,
    /// A `mod child;` declaration rather than a use: module reachability
    /// skips these, taint follows both kinds.
    pub decl: bool,
}

/// The module graph over one walked file set.
#[derive(Debug, Clone, Default)]
pub struct ModuleGraph {
    /// Outgoing edges per file (sorted, deduplicated by target and kind
    /// keeping the first line).
    pub edges: BTreeMap<String, Vec<Edge>>,
    /// Crate-name (identifier form) → crate-root source dir, e.g.
    /// `rtped_core` → `crates/core/src`.
    pub crate_roots: BTreeMap<String, String>,
}

impl ModuleGraph {
    /// Files reachable from `starts` following edges forward, including
    /// the starts themselves; `mod` declaration edges are followed only
    /// when `decls` is set.
    #[must_use]
    pub fn reachable_from<'a>(
        &self,
        starts: impl IntoIterator<Item = &'a str>,
        decls: bool,
    ) -> BTreeSet<String> {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut stack: Vec<String> = starts.into_iter().map(str::to_string).collect();
        while let Some(file) = stack.pop() {
            if !seen.insert(file.clone()) {
                continue;
            }
            if let Some(edges) = self.edges.get(&file) {
                for e in edges {
                    if (decls || !e.decl) && !seen.contains(&e.to) {
                        stack.push(e.to.clone());
                    }
                }
            }
        }
        seen
    }

    /// The first edge from `from` whose target is in `targets`, if any —
    /// used to anchor a diagnostic on the `use` line that lets taint in.
    #[must_use]
    pub fn first_edge_into<'a>(
        &'a self,
        from: &str,
        targets: &BTreeSet<String>,
    ) -> Option<&'a Edge> {
        self.edges
            .get(from)
            .and_then(|edges| edges.iter().find(|e| targets.contains(&e.to)))
    }
}

/// Whether `rel` is an entry point module reachability starts from: a
/// binary (`src/bin/**`, `src/main.rs`), an example or an integration
/// test, at workspace or crate level.
fn is_root(rel: &str) -> bool {
    let path = format!("/{rel}");
    let parent = rel.rsplit('/').nth(1);
    path.contains("/src/bin/")
        || path.ends_with("/src/main.rs")
        || matches!(parent, Some("examples" | "tests"))
}

/// `unreached-module`: every `mod m;` whose file no root reaches over use
/// edges, anchored at the declaration. Declarations themselves reach
/// nothing, so a module only its parent declares is dead code.
pub fn check_unreached(graph: &ModuleGraph, out: &mut Vec<Violation>) {
    let roots = graph
        .edges
        .keys()
        .map(String::as_str)
        .filter(|f| is_root(f));
    let reached = graph.reachable_from(roots, false);
    for (rel, edges) in &graph.edges {
        for e in edges {
            if e.decl && !reached.contains(&e.to) {
                out.push(Violation {
                    file: rel.clone(),
                    line: e.line,
                    rule: UNREACHED_MODULE.to_string(),
                    message: format!(
                        "module `{}` is declared but no binary, example or \
                         integration test reaches it over `use` edges — \
                         delete it, or use it from one",
                        e.to
                    ),
                });
            }
        }
    }
}

/// Reads the crate-name table for the workspace at `root`, mapping the
/// identifier form of each member's package name to its `src` dir.
/// Missing or unreadable manifests fall back to `rtped_<dir>`.
#[must_use]
pub fn crate_roots(root: &Path, files: &[String]) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    // The facade crate: workspace-root `src/`.
    if files.iter().any(|f| f.starts_with("src/")) {
        let name =
            manifest_package_name(&root.join("Cargo.toml")).unwrap_or_else(|| "rtped".into());
        out.insert(name.replace('-', "_"), "src".to_string());
    }
    let mut dirs: BTreeSet<&str> = BTreeSet::new();
    for f in files {
        if let Some(rest) = f.strip_prefix("crates/") {
            if let Some((dir, _)) = rest.split_once('/') {
                dirs.insert(dir);
            }
        }
    }
    for dir in dirs {
        let manifest = root.join("crates").join(dir).join("Cargo.toml");
        let name = manifest_package_name(&manifest).unwrap_or_else(|| format!("rtped_{dir}"));
        out.insert(name.replace('-', "_"), format!("crates/{dir}/src"));
    }
    out
}

/// Extracts `name = "..."` from the `[package]` section of a manifest.
fn manifest_package_name(path: &Path) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut in_package = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    let v = rest.trim().trim_matches('"');
                    if !v.is_empty() {
                        return Some(v.to_string());
                    }
                }
            }
        }
    }
    None
}

/// Builds the module graph from the lexed token streams of every walked
/// file. `files` maps workspace-relative path → its tokens.
#[must_use]
pub fn build(
    crate_table: &BTreeMap<String, String>,
    files: &BTreeMap<String, Vec<LexToken>>,
) -> ModuleGraph {
    let file_set: BTreeSet<&str> = files.keys().map(String::as_str).collect();
    let aliases = crate_aliases(crate_table, files, &file_set);
    let mut graph = ModuleGraph {
        crate_roots: crate_table.clone(),
        ..ModuleGraph::default()
    };
    for (rel, toks) in files {
        let mut r = Resolver {
            rel,
            crate_table,
            files: &file_set,
            aliases: &aliases,
            children: BTreeMap::new(),
        };
        let mut edges: Vec<Edge> = Vec::new();
        // `mod child;` declares a file edge; `mod child {` is inline and
        // adds none. Declarations are collected first so that bare
        // `child::...` paths anywhere in the file resolve.
        for w in toks.windows(3) {
            let decl = w[0].is_ident("mod")
                && !w[0].in_attr
                && w[1].kind == LexKind::Ident
                && w[2].is_punct(";");
            if let Some(to) = decl
                .then(|| resolve_child_module(rel, &w[1].text, &file_set))
                .flatten()
            {
                r.children.insert(w[1].text.clone(), to.clone());
                edges.push(Edge {
                    to,
                    line: w[0].line,
                    decl: true,
                });
            }
        }
        let mut i = 0;
        while i < toks.len() {
            let t = &toks[i];
            if t.kind != LexKind::Ident || t.in_attr {
                i += 1;
                continue;
            }
            let mut targets = Vec::new();
            if t.is_ident("use") {
                i = r.resolve_use(toks, i + 1, &mut targets);
            } else {
                // Qualified path head in expression position:
                // `rtped_core::env::typed(...)`, `crate::arith::check(...)`,
                // `graph::build(...)`.
                let is_head = matches!(t.text.as_str(), "crate" | "self" | "super")
                    || crate_table.contains_key(&t.text)
                    || r.children.contains_key(&t.text);
                let segs: Vec<String> = std::iter::once(t.text.clone())
                    .chain(
                        toks[i + 1..]
                            .chunks(2)
                            .take_while(|c| {
                                c.len() == 2 && c[0].is_punct("::") && c[1].kind == LexKind::Ident
                            })
                            .take(2)
                            .map(|c| c[1].text.clone()),
                    )
                    .collect();
                if is_head && segs.len() > 1 && !(i > 0 && toks[i - 1].is_punct("::")) {
                    targets.extend(r.resolve(&segs));
                }
                i += 1;
            }
            edges.extend(targets.into_iter().map(|to| Edge {
                to,
                line: t.line,
                decl: false,
            }));
        }
        // One edge per (target, kind), keeping the first line.
        edges.sort();
        let mut seen = BTreeSet::new();
        edges.retain(|e| seen.insert((e.to.clone(), e.decl)));
        graph.edges.insert(rel.clone(), edges);
    }
    graph
}

/// `(crate, alias) → aliased crate` for every `use other_crate as alias;`
/// in a crate root: the facade's `pub use rtped_hw as hw;` makes
/// `rtped::hw::m` mean `rtped_hw::m`.
fn crate_aliases(
    crate_table: &BTreeMap<String, String>,
    files: &BTreeMap<String, Vec<LexToken>>,
    file_set: &BTreeSet<&str>,
) -> BTreeMap<(String, String), String> {
    let mut out = BTreeMap::new();
    for (krate, dir) in crate_table {
        let Some(toks) = resolve_in_dir(dir, None, file_set).and_then(|root| files.get(&root))
        else {
            continue;
        };
        for w in toks.windows(5) {
            if w[0].is_ident("use")
                && crate_table.contains_key(&w[1].text)
                && w[2].is_ident("as")
                && w[3].kind == LexKind::Ident
                && w[4].is_punct(";")
            {
                out.insert((krate.clone(), w[3].text.clone()), w[1].text.clone());
            }
        }
    }
    out
}

/// The index of the `;` ending a `use` declaration whose path starts at
/// `start`, jumping over brace groups; past the end of the stream when
/// malformed input leaves it unterminated (an unclosed group runs to the
/// end).
#[must_use]
pub fn use_decl_end(toks: &[LexToken], start: usize) -> usize {
    let mut end = start;
    while end < toks.len() && !toks[end].is_punct(";") {
        end = if toks[end].is_punct("{") {
            matching(toks, end).map_or(toks.len(), |c| c + 1)
        } else {
            end + 1
        };
    }
    end
}

/// Path resolution context for one file.
struct Resolver<'a> {
    rel: &'a str,
    crate_table: &'a BTreeMap<String, String>,
    files: &'a BTreeSet<&'a str>,
    aliases: &'a BTreeMap<(String, String), String>,
    /// Modules this file declares with `mod name;`, name → file.
    children: BTreeMap<String, String>,
}

impl Resolver<'_> {
    /// Resolves the path (or brace group of paths) after a `use` keyword
    /// into `out`. Returns the token index one past the declaration's `;`
    /// (or wherever scanning stopped on malformed input).
    fn resolve_use(&self, toks: &[LexToken], start: usize, out: &mut Vec<String>) -> usize {
        let end = use_decl_end(toks, start);
        let decl = &toks[start..end.min(toks.len())];
        let mut i = 0;
        while i < decl.len() {
            let next = self.use_tree(decl, i, &[], out);
            i = next.max(i + 1);
        }
        end + 1
    }

    /// Recursively walks one use-tree starting at `i` with the path
    /// segments accumulated so far, resolving every leaf path (and group
    /// prefix). Returns the index one past the subtree.
    fn use_tree(
        &self,
        decl: &[LexToken],
        mut i: usize,
        prefix: &[String],
        out: &mut Vec<String>,
    ) -> usize {
        let mut segs: Vec<String> = prefix.to_vec();
        while i < decl.len() {
            let t = &decl[i];
            if t.is_punct(",") || t.is_punct("}") {
                break; // end of this subtree; the group loop consumes it
            }
            if t.is_punct("{") {
                // Group: each comma-separated child extends the current
                // prefix (`use a::{b, c::d};`).
                i += 1;
                while i < decl.len() && !decl[i].is_punct("}") {
                    if decl[i].is_punct(",") {
                        i += 1;
                        continue;
                    }
                    let next = self.use_tree(decl, i, &segs, out);
                    i = next.max(i + 1);
                }
                out.extend(self.resolve(&segs));
                return i + 1;
            }
            if t.is_ident("as") {
                i += 2; // rename: `as alias`
                continue;
            }
            if t.kind == LexKind::Ident {
                segs.push(t.text.clone());
            }
            i += 1;
        }
        out.extend(self.resolve(&segs));
        i
    }

    /// Resolves a path's head (`rtped_core`, `crate`, `super`, `self`, a
    /// declared child module, or a crate alias plus its next segment) and
    /// the segment after it to a file in the walked set.
    fn resolve(&self, segs: &[String]) -> Option<String> {
        let (head, rest) = segs.split_first()?;
        let second = rest.first().map(String::as_str);
        match head.as_str() {
            "crate" => resolve_in_dir(&own_crate_root(self.rel)?, second, self.files),
            "self" | "super" => {
                // Sibling module of the current file's directory (for
                // `super` in a child module this approximates to the same
                // directory, which is file-exact for the flat module trees
                // this workspace uses).
                let (dir, _) = self.rel.rsplit_once('/')?;
                resolve_in_dir(dir, second, self.files)
            }
            _ if self.children.contains_key(head) => self.children.get(head).cloned(),
            _ => {
                let alias = second.and_then(|a| self.aliases.get(&(head.clone(), a.to_string())));
                if let Some(target) = alias {
                    let aliased: Vec<String> = std::iter::once(target.clone())
                        .chain(rest[1..].iter().cloned())
                        .collect();
                    return self.resolve(&aliased);
                }
                resolve_in_dir(self.crate_table.get(head)?, second, self.files)
            }
        }
    }
}

/// Resolves an optional module name within a source dir: the module file
/// when present, else the dir's `lib.rs`/`main.rs`/`mod.rs`.
fn resolve_in_dir(dir: &str, second: Option<&str>, files: &BTreeSet<&str>) -> Option<String> {
    if let Some(name) = second {
        let as_file = format!("{dir}/{name}.rs");
        if files.contains(as_file.as_str()) {
            return Some(as_file);
        }
        let as_dir = format!("{dir}/{name}/mod.rs");
        if files.contains(as_dir.as_str()) {
            return Some(as_dir);
        }
    }
    for root in ["lib.rs", "main.rs", "mod.rs"] {
        let candidate = format!("{dir}/{root}");
        if files.contains(candidate.as_str()) {
            return Some(candidate);
        }
    }
    None
}

/// The `src` root of the crate `rel` belongs to, if it is library code.
fn own_crate_root(rel: &str) -> Option<String> {
    if let Some(rest) = rel.strip_prefix("crates/") {
        let (dir, _) = rest.split_once('/')?;
        return Some(format!("crates/{dir}/src"));
    }
    if rel.starts_with("src/") {
        return Some("src".to_string());
    }
    None
}

/// Resolves `mod name;` declared in `rel` to the child file.
fn resolve_child_module(rel: &str, name: &str, files: &BTreeSet<&str>) -> Option<String> {
    let (dir, file) = rel.rsplit_once('/')?;
    let base = if matches!(file, "lib.rs" | "main.rs" | "mod.rs") {
        dir.to_string()
    } else {
        // `foo.rs` declaring `mod bar;` owns `foo/bar.rs`.
        format!("{dir}/{}", file.strip_suffix(".rs").unwrap_or(file))
    };
    let as_file = format!("{base}/{name}.rs");
    if files.contains(as_file.as_str()) {
        return Some(as_file);
    }
    let as_dir = format!("{base}/{name}/mod.rs");
    if files.contains(as_dir.as_str()) {
        return Some(as_dir);
    }
    None
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

    fn table() -> BTreeMap<String, String> {
        [
            ("rtped_core".to_string(), "crates/core/src".to_string()),
            ("rtped_hw".to_string(), "crates/hw/src".to_string()),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn use_edges_resolve_to_module_files() {
        let files = lex_map(&[
            ("crates/core/src/lib.rs", "pub mod json;\npub mod timer;\n"),
            ("crates/core/src/json.rs", ""),
            ("crates/core/src/timer.rs", ""),
            (
                "crates/hw/src/lib.rs",
                "use rtped_core::json::Json;\nuse rtped_core::{timer, json};\n",
            ),
        ]);
        let g = build(&table(), &files);
        let hw = &g.edges["crates/hw/src/lib.rs"];
        let targets: Vec<&str> = hw.iter().map(|e| e.to.as_str()).collect();
        assert!(targets.contains(&"crates/core/src/json.rs"));
        assert!(targets.contains(&"crates/core/src/timer.rs"));
        let core = &g.edges["crates/core/src/lib.rs"];
        assert_eq!(core.len(), 2);
    }

    #[test]
    fn crate_and_super_paths_resolve_within_the_crate() {
        let files = lex_map(&[
            ("crates/core/src/lib.rs", "pub mod a;\npub mod b;\n"),
            ("crates/core/src/a.rs", "use crate::b::Thing;\n"),
            ("crates/core/src/b.rs", "use super::a;\n"),
        ]);
        let g = build(&table(), &files);
        assert_eq!(
            g.edges["crates/core/src/a.rs"][0].to,
            "crates/core/src/b.rs"
        );
        assert_eq!(
            g.edges["crates/core/src/b.rs"][0].to,
            "crates/core/src/a.rs"
        );
    }

    #[test]
    fn qualified_paths_in_expressions_create_edges() {
        let files = lex_map(&[
            ("crates/core/src/lib.rs", "pub mod env;\n"),
            ("crates/core/src/env.rs", ""),
            (
                "crates/hw/src/lib.rs",
                "fn f() -> u64 { rtped_core::env::typed(\"X\", 3) }\n",
            ),
        ]);
        let g = build(&table(), &files);
        assert_eq!(
            g.edges["crates/hw/src/lib.rs"][0].to,
            "crates/core/src/env.rs"
        );
    }

    #[test]
    fn inline_mod_adds_no_edge_and_reachability_is_transitive() {
        let files = lex_map(&[
            ("crates/core/src/lib.rs", "pub mod a;\nmod tests { }\n"),
            ("crates/core/src/a.rs", "use crate::b;\n"),
        ]);
        let g = build(&table(), &files);
        assert_eq!(g.edges["crates/core/src/lib.rs"].len(), 1);
        let reach = g.reachable_from(["crates/core/src/lib.rs"], true);
        assert!(reach.contains("crates/core/src/a.rs"));
    }

    /// `unreached-module` findings as `(file, line, message)`, over a table
    /// that also holds the `rtped` facade.
    fn unreached(files: &[(&str, &str)]) -> Vec<(String, usize, String)> {
        let mut table = table();
        table.insert("rtped".to_string(), "src".to_string());
        let mut out = Vec::new();
        check_unreached(&build(&table, &lex_map(files)), &mut out);
        assert!(out.iter().all(|v| v.rule == UNREACHED_MODULE));
        out.into_iter()
            .map(|v| (v.file, v.line, v.message))
            .collect()
    }

    #[test]
    fn a_mod_declaration_alone_does_not_reach_its_module() {
        let files = [
            ("crates/core/src/lib.rs", "pub mod m;\npub fn g() {}\n"),
            ("crates/core/src/m.rs", ""),
            ("tests/t.rs", "use rtped_core::g;\n"),
        ];
        let found = unreached(&files);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(
            (found[0].0.as_str(), found[0].1),
            ("crates/core/src/lib.rs", 1)
        );
        assert!(found[0].2.contains("crates/core/src/m.rs"));
    }

    #[test]
    fn a_root_reaches_a_module_through_its_crate_root_reexport() {
        let files = [
            ("crates/core/src/lib.rs", "pub mod m;\npub use m::X;\n"),
            ("crates/core/src/m.rs", "pub struct X;\n"),
            ("examples/e.rs", "use rtped_core::X;\nfn main() {}\n"),
        ];
        assert_eq!(unreached(&files), []);
    }

    #[test]
    fn a_bare_child_path_in_the_crate_root_reaches_the_child() {
        let files = [
            ("crates/core/src/lib.rs", "mod m;\npub fn g() { m::f() }\n"),
            ("crates/core/src/m.rs", "pub fn f() {}\n"),
            (
                "crates/core/src/bin/tool.rs",
                "fn main() { rtped_core::g() }\n",
            ),
        ];
        assert_eq!(unreached(&files), []);
    }

    #[test]
    fn a_facade_alias_path_reaches_the_aliased_crates_module() {
        let files = [
            ("src/lib.rs", "pub use rtped_hw as hw;\n"),
            ("crates/hw/src/lib.rs", "pub mod m;\n"),
            ("crates/hw/src/m.rs", "pub struct Y;\n"),
            ("tests/t.rs", "use rtped::hw::m::Y;\n"),
        ];
        assert_eq!(unreached(&files), []);
    }

    #[test]
    fn an_unreached_module_is_reported_at_its_mod_line() {
        let files = [
            (
                "crates/core/src/lib.rs",
                "//! Docs naming rtped_core::dead are trivia.\n\npub mod live;\npub mod dead;\n",
            ),
            ("crates/core/src/live.rs", "pub fn f() {}\n"),
            ("crates/core/src/dead.rs", "use crate::live::f;\n"),
            (
                "crates/core/src/main.rs",
                "use rtped_core::live::f;\nfn main() { f() }\n",
            ),
        ];
        let found = unreached(&files);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(
            (found[0].0.as_str(), found[0].1),
            ("crates/core/src/lib.rs", 4)
        );
        assert!(found[0].2.contains("crates/core/src/dead.rs"));
    }

    #[test]
    fn a_corpus_without_crate_roots_has_no_candidates() {
        let files = [
            ("crates/core/src/orphan.rs", "pub fn f() {}\n"),
            ("crates/hw/src/ecc.rs", "use rtped_core::orphan::f;\n"),
            ("examples/e.rs", "fn main() {}\n"),
        ];
        assert_eq!(unreached(&files), []);
    }
}
