//! Conservative intra-workspace call graph.
//!
//! Calls are extracted lexically from token trees and resolved by name:
//!
//! * `free(…)`            → every free fn named `free`
//! * `Type::assoc(…)`     → fns named `assoc` in an impl for `Type` (or for a
//!   trait named `Type`); `Self::x` uses the caller's impl type
//! * `module::free(…)`    → lowercase qualifier, treated as a free fn path
//! * `x.method(…)`        → every impl fn named `method` in the workspace
//! * `macro!(…)`          → recorded by name (not resolved); arguments are
//!   scanned for nested calls like any other group
//!
//! Unresolvable names (std, vendored deps) simply produce no edge. The
//! method rule massively over-approximates — `ctx.state.pos(id)` reaches
//! every `pos` impl — which is exactly the conservatism the determinism
//! taint analysis needs: nothing actually callable is ever missed.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use super::symbols::FnDef;
use super::tokens::{Group, Tt};

/// How a call site was written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `name(…)` with no path or receiver.
    Free,
    /// `Qual::name(…)` — qualifier retained (last path segment before `::`).
    Qualified(String),
    /// `recv.name(…)`.
    Method,
    /// `name!(…)`.
    Macro,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub kind: CallKind,
    pub name: String,
    pub line: usize,
}

/// Keywords that can directly precede a parenthesized group without being a
/// call (`if (a || b)`, `match (x, y)`, `return (…)`, …).
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "in", "loop", "return", "move", "let", "as", "mut",
    "ref", "box", "dyn", "where", "impl", "fn", "use", "pub", "const", "static", "break",
    "continue", "unsafe", "async", "await", "yield",
];

/// Extracts every call site from a token group, recursing into nested groups
/// (closures, macro args, blocks — all of them) but NOT into nested `fn`
/// definitions: those have their own [`FnDef`], and the parent reaches them
/// through the call edge by name, so scanning their bodies here would
/// misattribute their sites to the parent.
pub fn extract_calls(body: &Group) -> Vec<CallSite> {
    let mut out = Vec::new();
    extract_into(&body.items, &mut out);
    out
}

/// Given `items[at] == fn`, returns the index just past the nested fn's body
/// group (or past its `;` for a bodiless signature).
pub fn skip_fn_item(items: &[Tt], at: usize) -> usize {
    let mut j = at + 1;
    while j < items.len() {
        if items[j].is_punct(b';') {
            return j + 1;
        }
        if let Some(g) = items[j].group() {
            if g.delim == b'{' {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

fn extract_into(items: &[Tt], out: &mut Vec<CallSite>) {
    let mut i = 0usize;
    while i < items.len() {
        if items[i].ident() == Some("fn") && items.get(i + 1).and_then(Tt::ident).is_some() {
            i = skip_fn_item(items, i);
            continue;
        }
        if let Some(g) = items[i].group() {
            extract_into(&g.items, out);
            i += 1;
            continue;
        }
        let Some(name) = items[i].ident() else {
            i += 1;
            continue;
        };
        if NON_CALL_KEYWORDS.contains(&name) {
            i += 1;
            continue;
        }
        // Macro call: `name ! ( … )` / `name ! [ … ]` / `name ! { … }`.
        if i + 2 < items.len() && items[i + 1].is_punct(b'!') && items[i + 2].group().is_some() {
            out.push(CallSite {
                kind: CallKind::Macro,
                name: name.to_string(),
                line: items[i].line(),
            });
            i += 1;
            continue;
        }
        // Fn-call shape: ident immediately followed by a paren group.
        let followed_by_paren = items
            .get(i + 1)
            .and_then(Tt::group)
            .is_some_and(|g| g.delim == b'(');
        if !followed_by_paren {
            i += 1;
            continue;
        }
        let kind = if i >= 2 && items[i - 1].is_punct(b':') && items[i - 2].is_punct(b':') {
            let qual = if i >= 3 {
                items[i - 3].ident().unwrap_or("")
            } else {
                ""
            };
            CallKind::Qualified(qual.to_string())
        } else if i >= 1 && items[i - 1].is_punct(b'.') {
            CallKind::Method
        } else {
            CallKind::Free
        };
        out.push(CallSite {
            kind,
            name: name.to_string(),
            line: items[i].line(),
        });
        i += 1;
    }
}

/// The resolved graph: `edges[f]` lists `(callee_fn, call_line)` pairs.
pub struct CallGraph {
    pub edges: Vec<Vec<(usize, usize)>>,
    /// Raw call sites per function, for analyses that need unresolved calls
    /// (macro names, `.send(` detection).
    pub calls: Vec<Vec<CallSite>>,
}

impl CallGraph {
    /// Builds the graph over all non-test functions (test fns get empty
    /// edge lists — they are never part of the deterministic core).
    pub fn build(fns: &[FnDef]) -> CallGraph {
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_type_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            match &f.impl_type {
                None => free_by_name.entry(&f.name).or_default().push(i),
                Some(t) => {
                    methods_by_name.entry(&f.name).or_default().push(i);
                    by_type_name.entry((t, &f.name)).or_default().push(i);
                    if let Some(tr) = &f.impl_trait {
                        by_type_name.entry((tr, &f.name)).or_default().push(i);
                    }
                }
            }
        }
        let mut edges = Vec::with_capacity(fns.len());
        let mut calls = Vec::with_capacity(fns.len());
        for f in fns {
            if f.is_test {
                edges.push(Vec::new());
                calls.push(Vec::new());
                continue;
            }
            let sites = extract_calls(&f.body);
            let mut resolved: Vec<(usize, usize)> = Vec::new();
            let mut seen: BTreeSet<usize> = BTreeSet::new();
            for c in &sites {
                let targets: &[usize] = match &c.kind {
                    CallKind::Free => free_by_name.get(c.name.as_str()).map_or(&[], |v| v),
                    CallKind::Method => methods_by_name.get(c.name.as_str()).map_or(&[], |v| v),
                    CallKind::Macro => &[],
                    CallKind::Qualified(q) => {
                        let q = if q == "Self" {
                            f.impl_type.as_deref().unwrap_or("")
                        } else {
                            q.as_str()
                        };
                        if q.starts_with(|ch: char| ch.is_ascii_uppercase()) {
                            by_type_name.get(&(q, c.name.as_str())).map_or(&[], |v| v)
                        } else {
                            // Module path (`clock::now`, `mgl::window_for`):
                            // resolve as a free fn by bare name.
                            free_by_name.get(c.name.as_str()).map_or(&[], |v| v)
                        }
                    }
                };
                for &t in targets {
                    if seen.insert(t) {
                        resolved.push((t, c.line));
                    }
                }
            }
            edges.push(resolved);
            calls.push(sites);
        }
        CallGraph { edges, calls }
    }

    /// BFS from `seeds`; returns `parent[f] = Some(caller)` for every reached
    /// function (seeds map to `None`). Unreached functions are absent.
    pub fn reach(&self, seeds: &[usize]) -> BTreeMap<usize, Option<usize>> {
        let mut parent: BTreeMap<usize, Option<usize>> = BTreeMap::new();
        let mut q: VecDeque<usize> = VecDeque::new();
        for &s in seeds {
            if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(s) {
                e.insert(None);
                q.push_back(s);
            }
        }
        while let Some(f) = q.pop_front() {
            for &(callee, _) in &self.edges[f] {
                if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(callee) {
                    e.insert(Some(f));
                    q.push_back(callee);
                }
            }
        }
        parent
    }

    /// The reachability chain seed → … → `f`, as fn indices.
    pub fn path_to(parent: &BTreeMap<usize, Option<usize>>, f: usize) -> Vec<usize> {
        let mut path = vec![f];
        let mut cur = f;
        while let Some(Some(p)) = parent.get(&cur) {
            path.push(*p);
            cur = *p;
        }
        path.reverse();
        path
    }

    /// Functions from whose body a channel `send` may execute: any fn whose
    /// body contains a literal `.send(` / `.try_send(`, closed backwards over
    /// call edges (a caller of a may-send fn is may-send).
    pub fn may_send(&self) -> BTreeSet<usize> {
        let mut set: BTreeSet<usize> = BTreeSet::new();
        let mut q: VecDeque<usize> = VecDeque::new();
        for (i, sites) in self.calls.iter().enumerate() {
            if sites
                .iter()
                .any(|c| c.kind == CallKind::Method && (c.name == "send" || c.name == "try_send"))
                && set.insert(i)
            {
                q.push_back(i);
            }
        }
        // Reverse edges on the fly: scan all callers each round.
        let mut reverse: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (caller, es) in self.edges.iter().enumerate() {
            for &(callee, _) in es {
                reverse.entry(callee).or_default().push(caller);
            }
        }
        while let Some(f) = q.pop_front() {
            if let Some(callers) = reverse.get(&f) {
                for &c in callers {
                    if set.insert(c) {
                        q.push_back(c);
                    }
                }
            }
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::symbols::extract_fns;
    use crate::analyze::tokens::parse_trees;
    use crate::lexer::{mask_code, test_line_mask};

    fn graph(src: &str) -> (Vec<FnDef>, CallGraph) {
        let masked = mask_code(src);
        let fns = extract_fns(0, &parse_trees(&masked), &test_line_mask(&masked));
        let g = CallGraph::build(&fns);
        (fns, g)
    }

    fn idx(fns: &[FnDef], name: &str) -> usize {
        fns.iter().position(|f| f.name == name).expect("fn present")
    }

    #[test]
    fn free_call_resolution_and_reachability() {
        let (fns, g) = graph("fn a() { b(); }\nfn b() { c(); }\nfn c() {}\nfn lonely() {}\n");
        let parent = g.reach(&[idx(&fns, "a")]);
        assert!(parent.contains_key(&idx(&fns, "c")));
        assert!(!parent.contains_key(&idx(&fns, "lonely")));
        let path = CallGraph::path_to(&parent, idx(&fns, "c"));
        let names: Vec<_> = path.iter().map(|&i| fns[i].name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn method_calls_reach_all_impls() {
        let src = "struct A; struct B;\n\
                   impl A { fn go(&self) {} }\n\
                   impl B { fn go(&self) { helper(); } }\n\
                   fn helper() {}\n\
                   fn driver(x: &A) { x.go(); }\n";
        let (fns, g) = graph(src);
        let parent = g.reach(&[idx(&fns, "driver")]);
        // Conservative: driver reaches both A::go and B::go, hence helper.
        assert!(parent.contains_key(&idx(&fns, "helper")));
    }

    #[test]
    fn qualified_calls_use_type_and_self() {
        let src = "struct S;\n\
                   impl S { fn new() -> S { S::init(); S }\n\
                            fn init() {} }\n\
                   fn f() { S::new(); }\n";
        let (fns, g) = graph(src);
        let parent = g.reach(&[idx(&fns, "f")]);
        assert!(parent.contains_key(&idx(&fns, "init")));
    }

    #[test]
    fn trait_path_resolves_to_impls() {
        let src = "trait T {}\n\
                   struct S;\n\
                   impl T for S { fn hook() { leaf(); } }\n\
                   fn leaf() {}\n\
                   fn f() { T::hook(); }\n";
        let (fns, g) = graph(src);
        let parent = g.reach(&[idx(&fns, "f")]);
        assert!(parent.contains_key(&idx(&fns, "leaf")));
    }

    #[test]
    fn test_fns_are_excluded_from_the_graph() {
        let src = "fn lib() {}\n\
                   #[cfg(test)]\n\
                   mod tests { fn t() { lib(); } }\n";
        let (fns, g) = graph(src);
        let t = idx(&fns, "t");
        assert!(g.edges[t].is_empty());
    }

    #[test]
    fn may_send_propagates_to_callers() {
        let src = "fn low(tx: &Sender<u32>) { tx.send(1).ok(); }\n\
                   fn mid() { }\n\
                   fn high() { low(); }\n\
                   fn quiet() { mid(); }\n";
        let (fns, g) = graph(src);
        let ms = g.may_send();
        assert!(ms.contains(&idx(&fns, "low")));
        assert!(ms.contains(&idx(&fns, "high")));
        assert!(!ms.contains(&idx(&fns, "quiet")));
    }
}
