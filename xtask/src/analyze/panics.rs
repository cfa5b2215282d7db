//! Panic-surface audit.
//!
//! Enumerates every potential panic site in non-test library code —
//! `.unwrap()`, `.expect(…)`, `panic!`-family macros, and slice/array
//! indexing — and classifies each as *contained* (executes under one of the
//! `catch_unwind` containment boundaries: the scheduler's `eval_job`, the
//! Apply replay, and `run_stage_guarded`) or *uncontained*. Containment is
//! computed, not hardcoded: any function called from inside a
//! `catch_unwind(…)` argument is a containment root, and everything
//! reachable from a root over the call graph inherits containment. Code
//! lexically inside a `catch_unwind(…)` argument group is contained too.
//!
//! Uncontained sites surface as ratcheted `panic-uncontained` findings (the
//! existing baseline is blessed; new ones fail). Contained sites are counted
//! in the JSON report but are not findings — panicking into a boundary is
//! the designed fault-containment signal. Independently, every line with an
//! `.unwrap()`/`.expect(…)` site, contained or not, is an `unwrap` finding:
//! library code propagates errors (parsers return `ParseError`, core must
//! not panic on degenerate designs).

use std::collections::BTreeSet;

use super::callgraph::{extract_calls, skip_fn_item, CallGraph, CallKind};
use super::tokens::{Group, Tt};
use super::{Finding, Workspace};

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Keywords that may legitimately precede a `[` without it being an index
/// expression (`let [a, b] = …`, `if let [x] = …`, `in [1, 2]`, …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "if", "else", "match", "loop", "while", "for", "return", "move",
    "as", "dyn", "where", "impl", "fn", "pub", "const", "static", "use", "break", "continue",
    "box", "async", "unsafe", "type", "enum", "struct", "trait", "mod", "crate", "self", "Self",
    "super", "do", "yield",
];

/// One potential panic site.
///
/// `kind`, `func` and `line` are informational (asserted on in self-tests,
/// rendered by `Debug`); production code only aggregates `contained` into
/// the report summary.
#[derive(Debug, Clone)]
#[allow(dead_code)]
pub struct PanicSite {
    /// Which shape: `unwrap`, `expect`, `panic-macro`, `index`.
    pub kind: &'static str,
    /// Index of the owning fn in [`Workspace::fns`].
    pub func: usize,
    pub line: usize,
    pub contained: bool,
}

/// Fn indices called from inside any `catch_unwind(…)` argument group, plus
/// per-fn line ranges of those argument groups (for lexical containment of
/// sites in the boundary fn itself).
fn containment_roots(ws: &Workspace, graph: &CallGraph) -> (Vec<usize>, Vec<Vec<(usize, usize)>>) {
    let mut roots = Vec::new();
    let mut spans: Vec<Vec<(usize, usize)>> = vec![Vec::new(); ws.fns.len()];
    for (fi, f) in ws.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let mut groups: Vec<&Group> = Vec::new();
        collect_catch_unwind_args(&f.body.items, &mut groups);
        for g in groups {
            spans[fi].push((g.open_line, g.close_line));
            for c in extract_calls(g) {
                if c.kind == CallKind::Macro {
                    continue;
                }
                for (i, d) in ws.fns.iter().enumerate() {
                    if d.is_test || d.name != c.name {
                        continue;
                    }
                    let matches = match &c.kind {
                        CallKind::Method => d.impl_type.is_some(),
                        _ => true,
                    };
                    if matches {
                        roots.push(i);
                    }
                }
            }
        }
    }
    let _ = graph;
    roots.sort_unstable();
    roots.dedup();
    (roots, spans)
}

/// Collects the `(…)` argument group of every `catch_unwind` call.
fn collect_catch_unwind_args<'a>(items: &'a [Tt], out: &mut Vec<&'a Group>) {
    let mut i = 0usize;
    while i < items.len() {
        if items[i].ident() == Some("catch_unwind") {
            if let Some(g) = items.get(i + 1).and_then(Tt::group) {
                if g.delim == b'(' {
                    out.push(g);
                }
            }
        }
        if let Some(g) = items[i].group() {
            collect_catch_unwind_args(&g.items, out);
        }
        i += 1;
    }
}

/// Enumerates panic sites in one fn body (nested fns skipped — they own
/// their sites).
fn sites_in_body(items: &[Tt], out: &mut Vec<(&'static str, usize)>) {
    let mut i = 0usize;
    while i < items.len() {
        if items[i].ident() == Some("fn") && items.get(i + 1).and_then(Tt::ident).is_some() {
            i = skip_fn_item(items, i);
            continue;
        }
        if let Some(g) = items[i].group() {
            // Indexing: a `[…]` group whose preceding sibling is a value —
            // an identifier (non-keyword), a numeric literal, or a closed
            // `(…)`/`[…]` group. `vec![…]`, `#[…]`, types and patterns all
            // have non-value predecessors.
            if g.delim == b'[' && i >= 1 && is_value_end(&items[i - 1]) {
                out.push(("index", g.open_line));
            }
            sites_in_body(&g.items, out);
            i += 1;
            continue;
        }
        if let Some(id) = items[i].ident() {
            // `.unwrap()` / `.expect(…)`
            if (id == "unwrap" || id == "expect")
                && i >= 1
                && items[i - 1].is_punct(b'.')
                && items
                    .get(i + 1)
                    .and_then(Tt::group)
                    .is_some_and(|g| g.delim == b'(')
            {
                out.push((
                    if id == "unwrap" { "unwrap" } else { "expect" },
                    items[i].line(),
                ));
            }
            // `panic!(…)` family
            if PANIC_MACROS.contains(&id)
                && items.get(i + 1).is_some_and(|t| t.is_punct(b'!'))
                && items.get(i + 2).and_then(Tt::group).is_some()
            {
                out.push(("panic-macro", items[i].line()));
            }
        }
        i += 1;
    }
}

fn is_value_end(t: &Tt) -> bool {
    match t {
        Tt::Leaf(l) => match l.kind {
            super::tokens::LeafKind::Ident => !NON_INDEX_KEYWORDS.contains(&l.text.as_str()),
            super::tokens::LeafKind::Num => true,
            _ => false,
        },
        Tt::Group(g) => g.delim == b'(' || g.delim == b'[',
    }
}

/// Runs the audit. Returns `(all sites, findings)`: one `panic-uncontained`
/// per uncontained site, plus one `unwrap` per line holding an
/// `.unwrap()`/`.expect(…)`, contained or not.
pub fn analyze(ws: &Workspace, graph: &CallGraph) -> (Vec<PanicSite>, Vec<Finding>) {
    let (roots, spans) = containment_roots(ws, graph);
    let contained_fns: BTreeSet<usize> = graph.reach(&roots).into_keys().collect();

    let mut sites = Vec::new();
    let mut findings = Vec::new();
    let mut unwrap_lines: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (fi, f) in ws.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let file = &ws.files[f.file];
        let mut raw: Vec<(&'static str, usize)> = Vec::new();
        sites_in_body(&f.body.items, &mut raw);
        for (kind, line) in raw {
            let lexically_contained = spans[fi].iter().any(|&(lo, hi)| line >= lo && line <= hi);
            let contained = contained_fns.contains(&fi) || lexically_contained;
            let mut report = |rule: &str, why: &str| {
                findings.push(Finding {
                    rule: rule.to_string(),
                    file: file.rel.clone(),
                    line,
                    excerpt: file.excerpt(line),
                    path: vec![format!("{} ({kind}) {why}", f.display())],
                });
            };
            if !contained {
                report("panic-uncontained", "outside any catch_unwind boundary");
            }
            if matches!(kind, "unwrap" | "expect") && unwrap_lines.insert((f.file, line)) {
                report(
                    "unwrap",
                    if contained {
                        "in library code (contained)"
                    } else {
                        "in library code"
                    },
                );
            }
            sites.push(PanicSite {
                kind,
                func: fi,
                line,
                contained,
            });
        }
    }
    (sites, findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::callgraph::CallGraph;

    /// Sites, `panic-uncontained` findings and the workspace.
    fn run(files: &[(&str, &str)]) -> (Vec<PanicSite>, Vec<Finding>, Workspace) {
        let ws = Workspace::from_sources(files);
        let g = CallGraph::build(&ws.fns);
        let (s, mut f) = analyze(&ws, &g);
        f.retain(|f| f.rule == "panic-uncontained");
        (s, f, ws)
    }

    #[test]
    fn contained_vs_uncontained_classification() {
        let (sites, findings, ws) = run(&[(
            "crates/core/src/lib.rs",
            "fn guarded() { let _ = std::panic::catch_unwind(|| inner());\n }\n\
             fn inner() { deep(); }\n\
             fn deep(v: &[u32]) { v[0]; let _ = v.first().unwrap(); }\n\
             fn loose(v: &[u32]) { v.first().expect(\"x\"); }\n",
        )]);
        let deep = ws.fns.iter().position(|f| f.name == "deep").expect("deep");
        let loose = ws
            .fns
            .iter()
            .position(|f| f.name == "loose")
            .expect("loose");
        assert!(sites.iter().filter(|s| s.func == deep).all(|s| s.contained));
        assert!(sites
            .iter()
            .filter(|s| s.func == loose)
            .all(|s| !s.contained));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "panic-uncontained");
    }

    #[test]
    fn lexical_containment_inside_catch_unwind_args() {
        let (sites, findings, _) = run(&[(
            "crates/core/src/lib.rs",
            "fn guarded(v: &[u32]) {\n\
                 let _ = std::panic::catch_unwind(|| {\n\
                     v.first().unwrap()\n\
                 });\n\
                 v.first().expect(\"outside\");\n\
             }\n",
        )]);
        assert_eq!(sites.len(), 2, "{sites:?}");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 5);
    }

    #[test]
    fn unwrap_rule_reports_each_line_once_contained_or_not() {
        let ws = Workspace::from_sources(&[(
            "crates/core/src/lib.rs",
            "fn guarded(v: &[u32]) {\n\
                 let _ = std::panic::catch_unwind(|| v.first().unwrap());\n\
                 v.first().expect(\"outside\"); v.last().unwrap();\n\
                 let _ = v[0];\n\
             }\n",
        )]);
        let (_, findings) = analyze(&ws, &CallGraph::build(&ws.fns));
        let unwraps: Vec<usize> = findings
            .iter()
            .filter(|f| f.rule == "unwrap")
            .map(|f| f.line)
            .collect();
        assert_eq!(unwraps, [2, 3]);
    }

    #[test]
    fn attributes_and_patterns_are_not_indexing() {
        let (sites, _, _) = run(&[(
            "crates/core/src/lib.rs",
            "#[derive(Clone)]\n\
             struct S;\n\
             fn f(arr: [u32; 2]) {\n\
                 let [a, b] = arr;\n\
                 let v = vec![a, b];\n\
                 let _ = (a, b, v);\n\
             }\n",
        )]);
        assert!(sites.is_empty(), "{sites:?}");
    }

    #[test]
    fn real_indexing_is_a_site() {
        let (sites, findings, _) = run(&[(
            "crates/core/src/lib.rs",
            "fn f(v: &[u32], i: usize) -> u32 { v[i] + v[0] }\n",
        )]);
        assert_eq!(sites.len(), 2, "{sites:?}");
        assert_eq!(findings.len(), 2);
    }

    #[test]
    fn test_code_is_ignored() {
        let (sites, findings, _) = run(&[(
            "crates/core/src/lib.rs",
            "#[cfg(test)]\n\
             mod tests {\n\
                 #[test]\n\
                 fn t() { Some(1).unwrap(); }\n\
             }\n",
        )]);
        assert!(sites.is_empty());
        assert!(findings.is_empty());
    }
}
