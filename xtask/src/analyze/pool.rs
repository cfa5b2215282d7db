//! Lock hand-off check: `pool-lock-across-send`.
//!
//! No lock guard may be live across a channel `send`. Checked two ways: a
//! `let g = …lock()…;` binding whose guard stays live to the end of its
//! block, and a `…lock()…` temporary whose statement continues (chain or
//! `if let`/`match` body). The "may send" test is interprocedural: a call
//! into any function from whose body a `.send(` is reachable over the call
//! graph counts, so holding a guard around a deep driver like
//! `batch_run_one` is flagged even though the `send` is four calls down.

use std::collections::BTreeSet;

use super::callgraph::{extract_calls, skip_fn_item, CallGraph, CallKind};
use super::tokens::{Group, Tt};
use super::{Finding, Workspace};

/// Methods that consume the guard right out of the lock call — the binding
/// then holds the guard itself.
const GUARD_ADAPTERS: &[&str] = &["unwrap", "expect", "unwrap_or_else", "map_err"];

pub fn analyze(ws: &Workspace, graph: &CallGraph) -> Vec<Finding> {
    let may_send = graph.may_send();
    let mut findings = Vec::new();
    for f in ws.fns.iter().filter(|f| !f.is_test) {
        let file = &ws.files[f.file];
        scan_level(&f.body.items, ws, &may_send, f, file, &mut findings);
    }
    findings
}

/// True when `span` directly contains a `.send(`/`.try_send(` call.
fn span_sends_directly(span: &[Tt]) -> bool {
    let mut i = 0usize;
    while i < span.len() {
        if span[i].ident() == Some("fn") && span.get(i + 1).and_then(Tt::ident).is_some() {
            i = skip_fn_item(span, i);
            continue;
        }
        if let Some(g) = span[i].group() {
            if span_sends_directly(&g.items) {
                return true;
            }
            i += 1;
            continue;
        }
        if matches!(span[i].ident(), Some("send" | "try_send"))
            && i >= 1
            && span[i - 1].is_punct(b'.')
            && span
                .get(i + 1)
                .and_then(Tt::group)
                .is_some_and(|g| g.delim == b'(')
        {
            return true;
        }
        i += 1;
    }
    false
}

/// The first callee in `span` that can transitively reach a `.send(`, if
/// any. Resolution is even coarser than the call graph's (any workspace fn
/// with the called name) — over-approximation only makes the guard check
/// stricter, and membership in `may_send` keeps it precise enough.
fn span_may_send_call(span: &[Tt], ws: &Workspace, may_send: &BTreeSet<usize>) -> Option<String> {
    let wrapper = Group {
        delim: b'{',
        open_line: span.first().map_or(0, Tt::line),
        close_line: span.last().map_or(0, Tt::line),
        items: span.to_vec(),
    };
    for c in extract_calls(&wrapper) {
        if c.kind == CallKind::Macro {
            continue;
        }
        for (i, d) in ws.fns.iter().enumerate() {
            if !d.is_test && d.name == c.name && may_send.contains(&i) {
                return Some(d.display());
            }
        }
    }
    None
}

/// Scans one brace-group level: splits into statements, finds guard-producing
/// `.lock(` uses and checks their live span for sends. Recurses into nested
/// groups for their own statement levels.
fn scan_level(
    items: &[Tt],
    ws: &Workspace,
    may_send: &BTreeSet<usize>,
    f: &super::symbols::FnDef,
    file: &super::SourceFile,
    findings: &mut Vec<Finding>,
) {
    // Statement boundaries: top-level `;`, plus block-ended statements
    // (`if … { }`, `match … { }`, loops) which Rust terminates without a
    // semicolon. A `let` statement is never split at a brace (`let x =
    // match … { … };`, `let … else { … };` run to their `;`), and a brace
    // followed by `else` continues its `if` chain.
    let mut stmts: Vec<(usize, usize)> = Vec::new();
    let mut start = 0usize;
    let mut i = 0usize;
    while i < items.len() {
        if items[i].is_punct(b';') {
            stmts.push((start, i));
            start = i + 1;
            i += 1;
            continue;
        }
        let brace = items[i].group().is_some_and(|g| g.delim == b'{');
        if brace {
            let stmt_first = items[start..i].first().and_then(Tt::ident);
            let followed_by_else = items.get(i + 1).and_then(Tt::ident) == Some("else");
            if stmt_first != Some("let") && !followed_by_else {
                stmts.push((start, i + 1));
                start = i + 1;
            }
        }
        i += 1;
    }
    if start < items.len() {
        stmts.push((start, items.len()));
    }

    for (si, &(s, e)) in stmts.iter().enumerate() {
        let stmt = &items[s..e];
        let Some(lock_at) = find_lock_call(stmt) else {
            continue;
        };
        let lock_line = stmt[lock_at].line();
        if let Some(guard) = guard_binding(stmt, lock_at) {
            // Guard lives from the next statement to the end of this level,
            // or until `drop(guard)` / a shadowing re-binding.
            let mut span: Vec<Tt> = Vec::new();
            for &(s2, e2) in &stmts[si + 1..] {
                let st = &items[s2..e2];
                if is_drop_of(st, &guard) || is_shadowing_let(st, &guard) {
                    break;
                }
                span.extend_from_slice(st);
            }
            report_if_sends(&span, ws, may_send, f, file, lock_line, findings);
        } else {
            // Temporary guard: lives to the end of this statement (covers
            // chained sends and `if let …lock()… { body }` bodies).
            let span = &stmt[lock_at + 1..];
            report_if_sends(span, ws, may_send, f, file, lock_line, findings);
        }
    }

    for t in items {
        if let Some(g) = t.group() {
            scan_level(&g.items, ws, may_send, f, file, findings);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn report_if_sends(
    span: &[Tt],
    ws: &Workspace,
    may_send: &BTreeSet<usize>,
    f: &super::symbols::FnDef,
    file: &super::SourceFile,
    lock_line: usize,
    findings: &mut Vec<Finding>,
) {
    let via = if span_sends_directly(span) {
        Some("a direct channel send".to_string())
    } else {
        span_may_send_call(span, ws, may_send).map(|callee| format!("call to {callee}"))
    };
    if let Some(via) = via {
        findings.push(Finding {
            rule: "pool-lock-across-send".to_string(),
            file: file.rel.clone(),
            line: lock_line,
            excerpt: file.excerpt(lock_line),
            path: vec![format!("{} holds a lock guard across {via}", f.display())],
        });
    }
}

/// Index of the `lock`/`read`-style guard call in a statement's top level,
/// if any (`. lock (` shape only — `read`/`write` collide with io traits).
fn find_lock_call(stmt: &[Tt]) -> Option<usize> {
    (0..stmt.len()).find(|&i| {
        stmt[i].ident() == Some("lock")
            && i >= 1
            && stmt[i - 1].is_punct(b'.')
            && stmt
                .get(i + 1)
                .and_then(Tt::group)
                .is_some_and(|g| g.delim == b'(')
    })
}

/// If the statement is `let [mut] NAME = …lock()…` and the lock chain runs to
/// the end of the statement (modulo guard adapters), the binding holds the
/// guard: returns NAME.
fn guard_binding(stmt: &[Tt], lock_at: usize) -> Option<String> {
    if stmt.first()?.ident()? != "let" {
        return None;
    }
    let mut n = 1usize;
    if stmt.get(n)?.ident() == Some("mut") {
        n += 1;
    }
    let name = stmt.get(n)?.ident()?.to_string();
    // After the lock's paren group, only adapter calls and `?` may follow.
    let mut j = lock_at + 2; // past `lock` and its `(…)`
    while j < stmt.len() {
        if stmt[j].is_punct(b'?') {
            j += 1;
            continue;
        }
        if stmt[j].is_punct(b'.')
            && stmt
                .get(j + 1)
                .and_then(Tt::ident)
                .is_some_and(|m| GUARD_ADAPTERS.contains(&m))
            && stmt
                .get(j + 2)
                .and_then(Tt::group)
                .is_some_and(|g| g.delim == b'(')
        {
            j += 3;
            continue;
        }
        return None; // projection (`.field`, `.take()`) — guard is dropped
    }
    Some(name)
}

/// `drop ( NAME )` as its own statement ends the guard's life.
fn is_drop_of(stmt: &[Tt], name: &str) -> bool {
    stmt.len() == 2
        && stmt[0].ident() == Some("drop")
        && stmt[1].group().is_some_and(|g| {
            g.delim == b'(' && g.items.len() == 1 && g.items[0].ident() == Some(name)
        })
}

/// `let [mut] NAME = …` re-binding shadows the guard.
fn is_shadowing_let(stmt: &[Tt], name: &str) -> bool {
    if stmt.first().and_then(Tt::ident) != Some("let") {
        return false;
    }
    let mut n = 1usize;
    if stmt.get(n).and_then(Tt::ident) == Some("mut") {
        n += 1;
    }
    stmt.get(n).and_then(Tt::ident) == Some(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::callgraph::CallGraph;

    fn findings(files: &[(&str, &str)]) -> Vec<Finding> {
        let ws = Workspace::from_sources(files);
        let g = CallGraph::build(&ws.fns);
        analyze(&ws, &g)
    }

    #[test]
    fn direct_send_under_live_guard_is_flagged() {
        let f = findings(&[(
            "crates/core/src/engine.rs",
            "fn go(m: &Mutex<u32>, tx: &Sender<u32>) {\n\
                 let g = m.lock().unwrap();\n\
                 tx.send(*g).ok();\n\
             }\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "pool-lock-across-send");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn drop_before_send_passes() {
        let f = findings(&[(
            "crates/core/src/engine.rs",
            "fn go(m: &Mutex<u32>, tx: &Sender<u32>) {\n\
                 let g = m.lock().unwrap();\n\
                 let v = *g;\n\
                 drop(g);\n\
                 tx.send(v).ok();\n\
             }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn transitive_send_through_callee_is_flagged() {
        let f = findings(&[(
            "crates/core/src/engine.rs",
            "fn deep(tx: &Sender<u32>) { tx.send(1).ok(); }\n\
             fn mid(tx: &Sender<u32>) { deep(tx); }\n\
             fn go(m: &Mutex<u32>, tx: &Sender<u32>) {\n\
                 let g = m.lock().unwrap();\n\
                 mid(tx);\n\
             }\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "pool-lock-across-send");
        assert!(f[0].path[0].contains("mid"), "{:?}", f[0].path);
    }

    #[test]
    fn guard_after_block_ended_statement_is_still_found() {
        // `if … { break; }` ends without a semicolon; the guard binding
        // after it must still be recognized as its own statement (this is
        // the engine batch_runner shape).
        let f = findings(&[(
            "crates/core/src/engine.rs",
            "fn deep(tx: &Sender<u32>) { tx.send(1).ok(); }\n\
             fn go(m: &Mutex<u32>, tx: &Sender<u32>, n: usize) {\n\
                 loop {\n\
                     if n > 3 { break; }\n\
                     let g = m.lock().unwrap();\n\
                     deep(tx);\n\
                 }\n\
             }\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "pool-lock-across-send");
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn if_let_over_lock_with_clean_body_passes() {
        // The temporary guard lives through the `if let` body only; work in
        // the following statements is not under the lock.
        let f = findings(&[(
            "crates/core/src/routability.rs",
            "fn deep(tx: &Sender<u32>) { tx.send(1).ok(); }\n\
             fn go(m: &Mutex<u32>, tx: &Sender<u32>) -> u32 {\n\
                 if let Some(v) = m.lock().unwrap().checked_add(1) {\n\
                     return v;\n\
                 }\n\
                 deep(tx);\n\
                 0\n\
             }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn if_let_over_lock_sending_in_body_is_flagged() {
        let f = findings(&[(
            "crates/core/src/routability.rs",
            "fn go(m: &Mutex<u32>, tx: &Sender<u32>) {\n\
                 if let Some(v) = m.lock().unwrap().checked_add(1) {\n\
                     tx.send(v).ok();\n\
                 }\n\
             }\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "pool-lock-across-send");
    }

    #[test]
    fn projection_bindings_are_not_guards() {
        // `.take()` moves data out; the temporary guard dies at the `;`.
        let f = findings(&[(
            "crates/core/src/engine.rs",
            "fn deep(tx: &Sender<u32>) { tx.send(1).ok(); }\n\
             fn go(m: &Mutex<Option<u32>>, tx: &Sender<u32>) {\n\
                 let v = m.lock().unwrap().take();\n\
                 deep(tx);\n\
             }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn temporary_guard_chained_into_send_is_flagged() {
        let f = findings(&[(
            "crates/core/src/engine.rs",
            "fn go(m: &Mutex<Sender<u32>>) {\n\
                 m.lock().unwrap().send(1).ok();\n\
             }\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "pool-lock-across-send");
    }
}
