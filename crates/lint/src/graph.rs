//! The workspace module/use-graph: which source file uses which.
//!
//! Nodes are workspace-relative file paths (exactly the paths
//! [`crate::walk`] yields); a directed edge `A -> B` means "code in `A`
//! names module `B`" — via a `use` declaration, a `mod child;`
//! declaration, or a fully-qualified path head (`rtped_core::env::typed`).
//! Resolution is deliberately file-granular and conservative:
//!
//! - `use rtped_core::json::Json` resolves to `crates/core/src/json.rs`
//!   when that file exists, else to the crate root `lib.rs`;
//! - `use crate::lexer::...` and `use super::...` resolve within the crate;
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
//! taint propagates along reversed edges (users of a tainted module are
//! tainted), and "reaches canonical-report code" is plain forward
//! reachability. Both only need file-level precision, which is why this
//! walker resolves paths two segments deep and no further.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::lexer::{matching, LexKind, LexToken};

/// One resolved use/mod edge.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Workspace-relative path of the file the edge points to.
    pub to: String,
    /// 1-based line of the `use`/`mod` declaration that created it.
    pub line: usize,
}

/// The module graph over one walked file set.
#[derive(Debug, Clone, Default)]
pub struct ModuleGraph {
    /// Outgoing edges per file (sorted, deduplicated by target keeping the
    /// first declaration line).
    pub edges: BTreeMap<String, Vec<Edge>>,
    /// Crate-name (identifier form) → crate-root source dir, e.g.
    /// `rtped_core` → `crates/core/src`.
    pub crate_roots: BTreeMap<String, String>,
}

impl ModuleGraph {
    /// Files reachable from `start` following edges forward, including
    /// `start` itself.
    #[must_use]
    pub fn reachable_from(&self, start: &str) -> BTreeSet<String> {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut stack = vec![start.to_string()];
        while let Some(file) = stack.pop() {
            if !seen.insert(file.clone()) {
                continue;
            }
            if let Some(edges) = self.edges.get(&file) {
                for e in edges {
                    if !seen.contains(&e.to) {
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
    let mut graph = ModuleGraph {
        crate_roots: crate_table.clone(),
        ..ModuleGraph::default()
    };
    for (rel, toks) in files {
        let mut edges: Vec<Edge> = Vec::new();
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut i = 0;
        while i < toks.len() {
            let t = &toks[i];
            if t.kind != LexKind::Ident || t.in_attr {
                i += 1;
                continue;
            }
            match t.text.as_str() {
                "use" => {
                    let (targets, next) = resolve_use(rel, toks, i + 1, crate_table, &file_set);
                    for to in targets {
                        if seen.insert(to.clone()) {
                            edges.push(Edge { to, line: t.line });
                        }
                    }
                    i = next;
                }
                "mod" => {
                    // `mod child;` declares a file edge; `mod child {`
                    // is inline and adds none.
                    let name = toks.get(i + 1).filter(|n| n.kind == LexKind::Ident);
                    let semi = toks.get(i + 2).map(|p| p.is_punct(";")).unwrap_or(false);
                    if let (Some(name), true) = (name, semi) {
                        if let Some(to) = resolve_child_module(rel, &name.text, &file_set) {
                            if seen.insert(to.clone()) {
                                edges.push(Edge { to, line: t.line });
                            }
                        }
                    }
                    i += 1;
                }
                _ => {
                    // Fully-qualified path head in expression position:
                    // `rtped_core::env::typed(...)`.
                    if crate_table.contains_key(&t.text)
                        && toks.get(i + 1).map(|p| p.is_punct("::")).unwrap_or(false)
                    {
                        let second = toks.get(i + 2).filter(|s| s.kind == LexKind::Ident);
                        let to = resolve_crate_path(
                            &t.text,
                            second.map(|s| s.text.as_str()),
                            crate_table,
                            &file_set,
                        );
                        if let Some(to) = to {
                            if seen.insert(to.clone()) {
                                edges.push(Edge { to, line: t.line });
                            }
                        }
                    }
                    i += 1;
                }
            }
        }
        edges.sort();
        graph.edges.insert(rel.clone(), edges);
    }
    graph
}

/// Resolves the path (or brace group of paths) after a `use` keyword.
/// Returns the resolved targets and the token index one past the
/// declaration's `;` (or wherever scanning stopped on malformed input).
fn resolve_use(
    rel: &str,
    toks: &[LexToken],
    start: usize,
    crate_table: &BTreeMap<String, String>,
    files: &BTreeSet<&str>,
) -> (Vec<String>, usize) {
    // Collect the declaration's tokens up to the terminating `;`, jumping
    // over brace groups (an unclosed one runs to the end of the stream).
    let mut end = start;
    while end < toks.len() && !toks[end].is_punct(";") {
        end = if toks[end].is_punct("{") {
            matching(toks, end).map_or(toks.len(), |c| c + 1)
        } else {
            end + 1
        };
    }
    let decl = &toks[start..end.min(toks.len())];
    let mut targets = Vec::new();
    let mut i = 0;
    while i < decl.len() {
        let next = use_tree(rel, decl, i, &[], crate_table, files, &mut targets);
        i = next.max(i + 1);
    }
    targets.sort();
    targets.dedup();
    (targets, end + 1)
}

/// Recursively walks one use-tree starting at `i` with the path segments
/// accumulated so far, resolving every leaf path (and group prefix)
/// against the walked file set. Returns the index one past the subtree.
fn use_tree(
    rel: &str,
    decl: &[LexToken],
    mut i: usize,
    prefix: &[String],
    crate_table: &BTreeMap<String, String>,
    files: &BTreeSet<&str>,
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
                let next = use_tree(rel, decl, i, &segs, crate_table, files, out);
                i = next.max(i + 1);
            }
            resolve_segments(rel, &segs, crate_table, files, out);
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
    resolve_segments(rel, &segs, crate_table, files, out);
    i
}

/// Resolves an accumulated segment path (first two segments decide the
/// file) and records the target, if any.
fn resolve_segments(
    rel: &str,
    segs: &[String],
    crate_table: &BTreeMap<String, String>,
    files: &BTreeSet<&str>,
    out: &mut Vec<String>,
) {
    let Some(head) = segs.first() else { return };
    let second = segs.get(1).map(String::as_str);
    if let Some(to) = resolve_head(rel, head, second, crate_table, files) {
        out.push(to);
    }
}

/// Resolves one path head (`rtped_core`, `crate`, `super`, `self`) plus
/// its optional second segment to a file in the walked set.
fn resolve_head(
    rel: &str,
    head: &str,
    second: Option<&str>,
    crate_table: &BTreeMap<String, String>,
    files: &BTreeSet<&str>,
) -> Option<String> {
    match head {
        "crate" => {
            let src_root = own_crate_root(rel)?;
            resolve_in_dir(&src_root, second, files)
        }
        "self" | "super" => {
            // Sibling module of the current file's directory (for `super`
            // in a child module this approximates to the same directory,
            // which is file-exact for the flat module trees this
            // workspace uses).
            let dir = rel.rsplit_once('/').map(|(d, _)| d.to_string())?;
            resolve_in_dir(&dir, second, files)
        }
        _ => resolve_crate_path(head, second, crate_table, files),
    }
}

/// Resolves `crate_name::second` to a file.
fn resolve_crate_path(
    crate_name: &str,
    second: Option<&str>,
    crate_table: &BTreeMap<String, String>,
    files: &BTreeSet<&str>,
) -> Option<String> {
    let src_root = crate_table.get(crate_name)?;
    resolve_in_dir(src_root, second, files)
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
        let reach = g.reachable_from("crates/core/src/lib.rs");
        assert!(reach.contains("crates/core/src/a.rs"));
    }
}
