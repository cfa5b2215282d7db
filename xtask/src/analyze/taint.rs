//! Determinism taint and the sanctioned-site rules.
//!
//! Seeds the "deterministic core" at the scheduler eval entry points
//! (`eval_job`, `drive_rounds`), the ECO dirty-window closure and every
//! `Stage::run` impl, computes the reachable function set over the
//! conservative call graph, and flags nondeterminism sources:
//!
//! * `hash-iter` — iteration over a `HashMap`/`HashSet`, named or straight
//!   off a constructor (order is randomized per process, so runs would
//!   diverge), in every fn reachable from a seed and every fn of
//!   `crates/core/src`. This replaces the old hardcoded hot-path file
//!   list: new hot-path code is covered the moment it becomes reachable,
//!   and the legalizer crate is covered whole.
//! * `det-thread-current` — `thread::current` (identity leaks into results)
//! * `det-rand` — entropy-seeded RNG construction
//! * `det-env-read` — environment reads steering reachable behavior
//!
//! Three workspace-wide rules pin a capability to its sanctioned sites,
//! reachable or not:
//!
//! * `instant-now` — `Instant::now`/`SystemTime::now` calls and
//!   `time::Instant` imports outside the one clock module
//! * `float-cast` — bare `as` float↔int casts outside `db::geom`, whose
//!   helpers document the saturation semantics
//! * `stage-bypass` — raw stage entry points called outside the pipeline
//!   and their defining modules (they skip the stage middleware)

use std::collections::{BTreeMap, BTreeSet};

use super::callgraph::{skip_fn_item, CallGraph, CallKind, CallSite};
use super::symbols::is_test_line;
use super::tokens::{LeafKind, Tt};
use super::{Finding, Workspace};

/// The one clock wrapper every `Instant` use must route through.
const CLOCK_FILES: &[&str] = &["crates/obs/src/clock.rs"];

/// The one sanctioned float→int conversion point.
const FLOAT_CAST_EXEMPT: &[&str] = &["crates/db/src/geom.rs"];

/// Raw per-stage entry points that bypass the stage pipeline's middleware
/// (span recording, displacement histograms, clean-room audit).
const STAGE_BYPASS_FNS: &[&str] = &[
    "drive_rounds",
    "optimize_max_disp_metered",
    "optimize_fixed_order_metered",
];

/// Files allowed to call the raw stage entry points: the pipeline module
/// itself plus the modules that define (and internally compose) them.
const STAGE_BYPASS_EXEMPT: &[&str] = &[
    "crates/core/src/pipeline.rs",
    "crates/core/src/mgl.rs",
    "crates/core/src/scheduler.rs",
    "crates/core/src/maxdisp.rs",
    "crates/core/src/fixed_order.rs",
];

/// Every non-test fn under this prefix is in `hash-iter` scope, reachable
/// or not.
const HASH_ITER_CRATE: &str = "crates/core/src/";

/// Integer type names a float expression must not be `as`-cast to.
const INT_TYPES: &[&str] = &[
    "i8", "i16", "i32", "i64", "i128", "isize", "u8", "u16", "u32", "u64", "u128", "usize", "Dbu",
];

/// Float methods whose call marks a line as float arithmetic.
const FLOAT_METHODS: &[&str] = &["round", "floor", "ceil", "powi", "sqrt"];

/// Free fns seeded by (file suffix, name): the scheduler's eval entry
/// points plus the ECO dirty-window closure, which decides the cell set
/// the delta pipeline re-legalizes and so must be as deterministic as the
/// stages it restricts.
const SEED_FREE_FNS: &[(&str, &str)] = &[
    ("crates/core/src/scheduler.rs", "eval_job"),
    ("crates/core/src/scheduler.rs", "drive_rounds"),
    ("crates/core/src/dirty.rs", "compute"),
    ("crates/core/src/dirty.rs", "compute_from_seeds"),
];

/// Trait whose `run` impls seed the deterministic core.
const SEED_TRAIT: &str = "Stage";
const SEED_TRAIT_METHOD: &str = "run";

/// Hash-container method calls that observe iteration order.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

/// Where a call-site rule applies.
enum Scope {
    /// Only in fns reachable from a seed.
    Reachable,
    /// In every non-test fn outside the listed files.
    Except(&'static [&'static str]),
}

/// The rule a call site breaks, if any, and where that rule applies.
fn call_rule(c: &CallSite) -> Option<(&'static str, Scope)> {
    let qual = match &c.kind {
        CallKind::Qualified(q) => q.as_str(),
        _ => "",
    };
    Some(match (qual, c.name.as_str()) {
        ("Instant" | "SystemTime", "now") => ("instant-now", Scope::Except(CLOCK_FILES)),
        (_, name) if c.kind != CallKind::Macro && STAGE_BYPASS_FNS.contains(&name) => {
            ("stage-bypass", Scope::Except(STAGE_BYPASS_EXEMPT))
        }
        ("thread", "current") => ("det-thread-current", Scope::Reachable),
        (_, "thread_rng" | "from_entropy") | ("rand", "random") => ("det-rand", Scope::Reachable),
        ("env", "var" | "vars" | "var_os" | "vars_os") => ("det-env-read", Scope::Reachable),
        _ => return None,
    })
}

/// Indices of the seed functions for this workspace.
pub fn seed_fns(ws: &Workspace) -> Vec<usize> {
    let mut seeds = Vec::new();
    for (i, f) in ws.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let file = &ws.files[f.file].rel;
        let free_seed = f.impl_type.is_none()
            && SEED_FREE_FNS
                .iter()
                .any(|(suf, name)| file.ends_with(suf) && f.name == *name);
        let stage_seed = f.impl_trait.as_deref() == Some(SEED_TRAIT) && f.name == SEED_TRAIT_METHOD;
        if free_seed || stage_seed {
            seeds.push(i);
        }
    }
    seeds
}

/// Names declared with a `HashMap`/`HashSet` type in one file: locals
/// (`let m: HashMap<…>`, `let m = HashMap::new()`), struct fields and fn
/// params (`m: &mut HashMap<…>`). Name-based, so a same-named `Vec` in the
/// same file would be over-flagged — acceptable for a lint that feeds a
/// ratchet.
fn hash_names(trees: &[Tt]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    collect_hash_names(trees, &mut names);
    names
}

fn is_hash_ty(id: &str) -> bool {
    id == "HashMap" || id == "HashSet"
}

fn collect_hash_names(items: &[Tt], out: &mut BTreeSet<String>) {
    for i in 0..items.len() {
        if let Some(g) = items[i].group() {
            collect_hash_names(&g.items, out);
            continue;
        }
        let Some(id) = items[i].ident() else { continue };
        if !is_hash_ty(id) {
            continue;
        }
        // Walk back over type-position noise to the `name :` or
        // `let [mut] name =` that owns this container.
        let mut j = i;
        while j > 0 {
            let prev = &items[j - 1];
            let skip = prev.is_punct(b'&')
                || prev.is_punct(b'<')
                || prev.is_punct(b':')
                || prev.is_punct(b'=')
                || prev.is_punct(b'(')
                || matches!(prev.ident(), Some("mut" | "dyn" | "std" | "collections"))
                || prev.leaf().is_some_and(|l| l.kind == LeafKind::Lifetime);
            if !skip {
                break;
            }
            j -= 1;
        }
        // j - 1 now points at the candidate owner name (if any).
        if j >= 1 {
            if let Some(name) = items[j - 1].ident() {
                if !matches!(
                    name,
                    "let" | "pub" | "mut" | "fn" | "impl" | "struct" | "enum"
                ) {
                    out.insert(name.to_string());
                }
            }
        }
    }
}

/// `items[at..]` starts with `. iter_method (`.
fn is_iter_call(items: &[Tt], at: usize) -> bool {
    items.get(at).is_some_and(|t| t.is_punct(b'.'))
        && items
            .get(at + 1)
            .and_then(Tt::ident)
            .is_some_and(|m| HASH_ITER_METHODS.contains(&m))
        && items
            .get(at + 2)
            .and_then(Tt::group)
            .is_some_and(|g| g.delim == b'(')
}

/// Scans one in-scope fn body for hash-container iteration; nested fn
/// definitions are skipped (they are scanned as their own functions).
fn scan_hash_iter(items: &[Tt], names: &BTreeSet<String>, hits: &mut Vec<usize>) {
    let mut i = 0usize;
    while i < items.len() {
        if items[i].ident() == Some("fn") && items.get(i + 1).and_then(Tt::ident).is_some() {
            i = skip_fn_item(items, i);
            continue;
        }
        if let Some(g) = items[i].group() {
            scan_hash_iter(&g.items, names, hits);
            i += 1;
            continue;
        }
        if let Some(name) = items[i].ident() {
            // `name . iter_method (` where `name` is a known hash container.
            if names.contains(name) && is_iter_call(items, i + 1) {
                hits.push(items[i + 2].line());
            }
            // `HashMap::new().iter()`: iteration straight off a constructor
            // path (`HashSet::<u32>::from(…)` included).
            if is_hash_ty(name) {
                let mut j = i + 1;
                while items.get(j).is_some_and(|t| {
                    t.ident().is_some() || [b':', b'<', b'>', b','].iter().any(|&c| t.is_punct(c))
                }) {
                    j += 1;
                }
                if items
                    .get(j)
                    .and_then(Tt::group)
                    .is_some_and(|g| g.delim == b'(')
                    && is_iter_call(items, j + 1)
                {
                    hits.push(items[j + 2].line());
                }
            }
            // `for pat in [&[mut]] name` — direct iteration of the container.
            if name == "in" {
                let mut j = i + 1;
                while items.get(j).is_some_and(|t| t.is_punct(b'&'))
                    || items.get(j).and_then(Tt::ident) == Some("mut")
                {
                    j += 1;
                }
                if let Some(n) = items.get(j).and_then(Tt::ident) {
                    let next_is_body = items
                        .get(j + 1)
                        .and_then(Tt::group)
                        .is_some_and(|g| g.delim == b'{');
                    if names.contains(n) && next_is_body {
                        hits.push(items[j].line());
                    }
                }
            }
        }
        i += 1;
    }
}

/// Per-line token facts of one file, for the line-scoped rules.
#[derive(Default)]
struct LineScan {
    /// Lines with float evidence: an `f32`/`f64` mention, a float literal
    /// or a rounding/float-math call.
    floaty: BTreeSet<usize>,
    /// `as` casts: (line, target is a float type).
    casts: Vec<(usize, bool)>,
    /// Lines importing or naming `time::Instant`.
    instant: Vec<usize>,
}

fn scan_lines(items: &[Tt], out: &mut LineScan) {
    for (i, t) in items.iter().enumerate() {
        let l = match t {
            Tt::Group(g) => {
                scan_lines(&g.items, out);
                continue;
            }
            Tt::Leaf(l) => l,
        };
        let next = |k: usize| items.get(i + k);
        if l.text.contains("f64") || l.text.contains("f32") {
            out.floaty.insert(l.line);
        }
        match (l.kind, l.text.as_str()) {
            // `1.5`: a number, a dot and a number.
            (LeafKind::Num, _)
                if next(1).is_some_and(|t| t.is_punct(b'.'))
                    && next(2)
                        .and_then(Tt::leaf)
                        .is_some_and(|n| n.kind == LeafKind::Num) =>
            {
                out.floaty.insert(l.line);
            }
            (LeafKind::Ident, m)
                if FLOAT_METHODS.contains(&m)
                    && i >= 1
                    && items[i - 1].is_punct(b'.')
                    && next(1).and_then(Tt::group).is_some_and(|g| g.delim == b'(') =>
            {
                out.floaty.insert(l.line);
            }
            (LeafKind::Ident, "as") => match next(1).and_then(Tt::ident) {
                Some("f32" | "f64") => out.casts.push((l.line, true)),
                Some(ty) if INT_TYPES.contains(&ty) => out.casts.push((l.line, false)),
                _ => {}
            },
            // `time::Instant` and `time::{…, Instant}`.
            (LeafKind::Ident, "time")
                if next(1).is_some_and(|t| t.is_punct(b':'))
                    && next(2).is_some_and(|t| t.is_punct(b':')) =>
            {
                let names_instant = match next(3) {
                    Some(Tt::Group(g)) => g.items.iter().any(|t| t.ident() == Some("Instant")),
                    Some(t) => t.ident() == Some("Instant"),
                    None => false,
                };
                if names_instant {
                    out.instant.push(l.line);
                }
            }
            _ => {}
        }
    }
}

/// Collects findings, one per (rule, file, line).
struct Sink<'a> {
    ws: &'a Workspace,
    seen: BTreeSet<(&'static str, usize, usize)>,
    out: Vec<Finding>,
}

impl Sink<'_> {
    fn push(
        &mut self,
        rule: &'static str,
        file: usize,
        line: usize,
        path: impl FnOnce() -> Vec<String>,
    ) {
        if self.seen.insert((rule, file, line)) {
            let f = &self.ws.files[file];
            self.out.push(Finding {
                rule: rule.to_string(),
                file: f.rel.clone(),
                line,
                excerpt: f.excerpt(line),
                path: path(),
            });
        }
    }
}

/// Runs the taint and sanctioned-site rules. Findings inside a fn carry
/// the seed → … → fn chain when the fn is reachable, else just the fn.
pub fn analyze(ws: &Workspace, graph: &CallGraph) -> Vec<Finding> {
    let parent = graph.reach(&seed_fns(ws));
    let per_file_hash_names: Vec<BTreeSet<String>> =
        ws.files.iter().map(|f| hash_names(&f.trees)).collect();
    let mut sink = Sink {
        ws,
        seen: BTreeSet::new(),
        out: Vec::new(),
    };

    for (fi, f) in ws.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let rel = ws.files[f.file].rel.as_str();
        let reachable = parent.contains_key(&fi);
        for c in &graph.calls[fi] {
            let Some((rule, scope)) = call_rule(c) else {
                continue;
            };
            let applies = match scope {
                Scope::Reachable => reachable,
                Scope::Except(files) => !files.contains(&rel),
            };
            if applies {
                sink.push(rule, f.file, c.line, || path_strings(ws, &parent, fi));
            }
        }
        if reachable || rel.starts_with(HASH_ITER_CRATE) {
            let mut hits = Vec::new();
            scan_hash_iter(&f.body.items, &per_file_hash_names[f.file], &mut hits);
            for line in hits {
                sink.push("hash-iter", f.file, line, || path_strings(ws, &parent, fi));
            }
        }
    }

    for (fidx, file) in ws.files.iter().enumerate() {
        let mut scan = LineScan::default();
        scan_lines(&file.trees, &mut scan);
        let live = |line: &usize| !is_test_line(&file.test_lines, *line);
        if !FLOAT_CAST_EXEMPT.contains(&file.rel.as_str()) {
            for (line, to_float) in scan.casts.iter().copied() {
                if live(&line) && (to_float || scan.floaty.contains(&line)) {
                    sink.push("float-cast", fidx, line, || {
                        vec!["bare float<->int `as` cast; use the db::geom helpers".to_string()]
                    });
                }
            }
        }
        if !CLOCK_FILES.contains(&file.rel.as_str()) {
            for line in scan.instant.into_iter().filter(live) {
                sink.push("instant-now", fidx, line, || {
                    vec!["`time::Instant` outside obs::clock".to_string()]
                });
            }
        }
    }
    sink.out
}

/// Formats the seed → … → f chain as `file:line display` strings (just `f`
/// when it is unreachable).
fn path_strings(ws: &Workspace, parent: &BTreeMap<usize, Option<usize>>, f: usize) -> Vec<String> {
    CallGraph::path_to(parent, f)
        .into_iter()
        .map(|i| {
            let d = &ws.fns[i];
            format!("{}:{} {}", ws.files[d.file].rel, d.line, d.display())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::from_sources(files)
    }

    #[test]
    fn hash_names_cover_locals_fields_and_params() {
        let w = ws(&[(
            "crates/x/src/lib.rs",
            "struct S { grid: HashMap<u32, u32> }\n\
             fn f(seen: &mut HashSet<u64>) {\n\
                 let mut groups: HashMap<u32, u32> = HashMap::new();\n\
                 let fresh = HashMap::new();\n\
             }\n",
        )]);
        let names = hash_names(&w.files[0].trees);
        for expect in ["grid", "seen", "groups", "fresh"] {
            assert!(names.contains(expect), "missing {expect}: {names:?}");
        }
    }

    #[test]
    fn reachable_hash_iteration_is_flagged_with_path() {
        let w = ws(&[(
            "crates/core/src/pipeline.rs",
            "trait Stage {}\n\
             struct S;\n\
             impl Stage for S {\n\
                 fn run(&self) { helper(); }\n\
             }\n\
             fn helper() {\n\
                 let m: HashMap<u32, u32> = HashMap::new();\n\
                 for k in m.keys() { let _ = k; }\n\
             }\n",
        )]);
        let g = CallGraph::build(&w.fns);
        let f = analyze(&w, &g);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "hash-iter");
        assert_eq!(f[0].line, 8);
        assert_eq!(f[0].path.len(), 2, "{:?}", f[0].path);
        assert!(f[0].path[0].contains("S::run"), "{:?}", f[0].path);
    }

    #[test]
    fn unreachable_code_is_not_flagged() {
        // Outside crates/core/src only reachability puts a fn in the
        // determinism scope; `instant-now` alone is workspace-wide.
        let w = ws(&[(
            "crates/db/src/lib.rs",
            "fn cold() {\n\
                 let m: HashMap<u32, u32> = HashMap::new();\n\
                 for k in m.keys() { let _ = k; }\n\
                 let v = std::env::var(\"X\");\n\
                 let t = Instant::now();\n\
             }\n",
        )]);
        let g = CallGraph::build(&w.fns);
        let f = analyze(&w, &g);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].rule.as_str(), f[0].line), ("instant-now", 5));
    }

    #[test]
    fn every_core_fn_is_in_hash_iter_scope() {
        // Unreachable from any seed, but in the legalizer crate.
        let w = ws(&[(
            "crates/core/src/engine.rs",
            "fn new() {\n\
                 let m: HashMap<u32, u32> = HashMap::new();\n\
                 for k in m.keys() { let _ = k; }\n\
             }\n",
        )]);
        let g = CallGraph::build(&w.fns);
        let f = analyze(&w, &g);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].rule.as_str(), f[0].line), ("hash-iter", 3));
        assert_eq!(f[0].path, ["crates/core/src/engine.rs:1 new"]);
    }

    #[test]
    fn constructor_iteration_is_flagged() {
        let w = ws(&[(
            "crates/core/src/scheduler.rs",
            "fn eval_job() {\n\
                 let _: Vec<u32> = HashSet::<u32>::new().into_iter().collect();\n\
                 let _ = HashMap::<u32, u32>::new();\n\
             }\n",
        )]);
        let g = CallGraph::build(&w.fns);
        let f = analyze(&w, &g);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].rule.as_str(), f[0].line), ("hash-iter", 2));
    }

    #[test]
    fn clock_module_is_exempt_from_instant_now() {
        let w = ws(&[
            (
                "crates/core/src/scheduler.rs",
                "fn eval_job() { mcl_obs::clock::now_nanos(); }\n",
            ),
            (
                "crates/obs/src/clock.rs",
                "pub fn now_nanos() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n",
            ),
        ]);
        let g = CallGraph::build(&w.fns);
        assert!(analyze(&w, &g).is_empty());
    }

    #[test]
    fn reachable_instant_now_outside_clock_is_flagged() {
        let w = ws(&[(
            "crates/core/src/scheduler.rs",
            "fn drive_rounds() { let t = Instant::now(); }\n",
        )]);
        let g = CallGraph::build(&w.fns);
        let f = analyze(&w, &g);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "instant-now");
    }

    #[test]
    fn env_and_rand_and_thread_sources() {
        let w = ws(&[(
            "crates/core/src/scheduler.rs",
            "fn eval_job() {\n\
                 let v = std::env::var(\"X\");\n\
                 let r = thread_rng();\n\
                 let t = std::thread::current();\n\
             }\n",
        )]);
        let g = CallGraph::build(&w.fns);
        let mut rules: Vec<_> = analyze(&w, &g).into_iter().map(|f| f.rule).collect();
        rules.sort();
        assert_eq!(rules, ["det-env-read", "det-rand", "det-thread-current"]);
    }

    #[test]
    fn for_loop_over_hash_container_is_flagged() {
        let w = ws(&[(
            "crates/core/src/scheduler.rs",
            "fn eval_job(seen: &HashSet<u64>) {\n\
                 for s in seen { let _ = s; }\n\
             }\n",
        )]);
        let g = CallGraph::build(&w.fns);
        let f = analyze(&w, &g);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "hash-iter");
    }
}
