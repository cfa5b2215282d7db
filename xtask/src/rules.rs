//! The lint rules.
//!
//! All rules are lexical (see `lexer`): they run on masked source with test
//! regions removed, and err on the side of flagging. Pre-existing hits live
//! in the ratchet allowlist (`xtask/lint-allow.txt`); the pass only fails on
//! *new* violations, so the workspace tightens monotonically.

use crate::lexer::{mask_code, test_line_mask};

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id (stable; used as the allowlist key).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// The offending excerpt.
    pub excerpt: String,
}

/// Files where `hash-iter` applies: the legalization hot paths, where
/// iterating a `HashMap`/`HashSet` risks nondeterministic order (and cache
/// misses) on the critical path.
const HOT_PATH_FILES: [&str; 9] = [
    "crates/core/src/mgl.rs",
    "crates/core/src/insertion.rs",
    "crates/core/src/scheduler.rs",
    "crates/core/src/maxdisp.rs",
    "crates/core/src/fixed_order.rs",
    "crates/core/src/state.rs",
    "crates/core/src/winindex.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/pipeline.rs",
];

/// The one sanctioned float→int conversion point; exempt from `float-cast`.
const FLOAT_CAST_EXEMPT: [&str; 1] = ["crates/db/src/geom.rs"];

/// The one crate allowed to read the monotonic clock directly; everything
/// else times through `mcl_obs::clock::Stopwatch` so spans, stage timings
/// and perf counters share a single clock discipline (exempt from
/// `instant-now`).
const INSTANT_EXEMPT_PREFIX: &str = "crates/obs/src/";

/// Raw per-stage entry points that bypass the stage pipeline's middleware
/// (span recording, displacement histograms, clean-room audit). New code
/// goes through `Engine::run` (`pipeline::run_stages`); calling these
/// directly silently loses the cross-cutting instrumentation.
const STAGE_BYPASS_FNS: [&str; 3] = [
    "drive_rounds",
    "optimize_max_disp_metered",
    "optimize_fixed_order_metered",
];

/// Files allowed to call the raw stage entry points: the pipeline module
/// itself plus the modules that define (and internally compose) them.
const STAGE_BYPASS_EXEMPT: [&str; 5] = [
    "crates/core/src/pipeline.rs",
    "crates/core/src/mgl.rs",
    "crates/core/src/scheduler.rs",
    "crates/core/src/maxdisp.rs",
    "crates/core/src/fixed_order.rs",
];

/// Files allowed to spawn an `EvalPool` directly: the scheduler module that
/// defines it, and the engine, which owns the one shared pool of a batch
/// (DESIGN.md §12). Anywhere else, a raw spawn reintroduces the per-design
/// pool churn the batch scheduler exists to eliminate — route the work
/// through `Engine::run` (a solo run is a batch of one).
const POOL_SPAWN_EXEMPT: [&str; 2] = ["crates/core/src/engine.rs", "crates/core/src/scheduler.rs"];

/// Integer type names a float expression must not be `as`-cast to.
const INT_TYPES: [&str; 13] = [
    "i8", "i16", "i32", "i64", "i128", "isize", "u8", "u16", "u32", "u64", "u128", "usize", "Dbu",
];

/// Runs every rule over one file's source. `rel` is the workspace-relative
/// path with `/` separators.
pub fn lint_source(rel: &str, src: &str) -> Vec<Violation> {
    let masked = mask_code(src);
    let tests = test_line_mask(&masked);
    let mut out = Vec::new();
    let src_lines: Vec<&str> = src.lines().collect();
    let map_names = if HOT_PATH_FILES.contains(&rel) {
        declared_map_names(&masked)
    } else {
        Vec::new()
    };
    for (idx, line) in masked.lines().enumerate() {
        if tests.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let report = |out: &mut Vec<Violation>, rule: &'static str| {
            out.push(Violation {
                rule,
                file: rel.to_string(),
                line: idx + 1,
                excerpt: src_lines.get(idx).unwrap_or(&"").trim().to_string(),
            });
        };
        // Rule `unwrap`: no `.unwrap()` / `.expect(` in library code.
        // (`unwrap_or*` and friends are fine — they cannot panic.)
        if line.contains(".unwrap()") || line.contains(".expect(") {
            report(&mut out, "unwrap");
        }
        // Rule `float-cast`: no bare `as` float↔int casts outside db::geom.
        if !FLOAT_CAST_EXEMPT.contains(&rel) && has_float_int_cast(line) {
            report(&mut out, "float-cast");
        }
        // Rule `hash-iter`: no HashMap/HashSet iteration in hot paths.
        if HOT_PATH_FILES.contains(&rel) && has_hash_iteration(line, &map_names) {
            report(&mut out, "hash-iter");
        }
        // Rule `instant-now`: no ad-hoc `Instant` timing outside the obs
        // crate's clock module.
        if !rel.starts_with(INSTANT_EXEMPT_PREFIX) && has_instant_use(line) {
            report(&mut out, "instant-now");
        }
        // Rule `stage-bypass`: no raw stage entry-point calls outside the
        // pipeline and the defining modules.
        if !STAGE_BYPASS_EXEMPT.contains(&rel) && has_stage_bypass_call(line) {
            report(&mut out, "stage-bypass");
        }
        // Rule `pool-spawn`: no `EvalPool::spawn` outside the scheduler and
        // the engine — shared pools are the engine's job.
        if !POOL_SPAWN_EXEMPT.contains(&rel) && line.contains("EvalPool::spawn(") {
            report(&mut out, "pool-spawn");
        }
    }
    out
}

/// Lexical `Instant` detection: a call to `Instant::now()` (possibly fully
/// qualified) or an import/mention of `std::time::Instant`.
fn has_instant_use(line: &str) -> bool {
    line.contains("Instant::now(") || line.contains("time::Instant")
}

/// Lexical detection of a call to a raw stage entry point. Matches
/// `name(` with an identifier boundary on the left, so wrappers like
/// `seed_drive_rounds(` or `drive_rounds_inline(` don't trip it.
fn has_stage_bypass_call(line: &str) -> bool {
    STAGE_BYPASS_FNS.iter().any(|name| {
        line.match_indices(&format!("{name}("))
            .any(|(pos, _)| !prev_is_ident_char(line, pos))
    })
}

fn prev_is_ident_char(line: &str, pos: usize) -> bool {
    pos > 0 && {
        let c = line.as_bytes()[pos - 1];
        c.is_ascii_alphanumeric() || c == b'_'
    }
}

/// Lexical float↔int cast detection. Flags `as f32`/`as f64` whose operand
/// looks integral, and `as <int>` whose line shows float evidence (a float
/// literal, an `f32`/`f64` mention, or a rounding call). The allowlist
/// absorbs heuristic misses; the point is that *new* conversions route
/// through `mcl_db::geom::dbu_from_f64_saturating` / `dbu_to_f64`.
fn has_float_int_cast(line: &str) -> bool {
    let floaty = line.contains("f64")
        || line.contains("f32")
        || line.contains(".round()")
        || line.contains(".floor()")
        || line.contains(".ceil()")
        || line.contains(".powi(")
        || line.contains(".sqrt()")
        || has_float_literal(line);
    for (pos, _) in line.match_indices(" as ") {
        let rest = &line[pos + 4..];
        let ty: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        let to_float = ty == "f32" || ty == "f64";
        let to_int = INT_TYPES.contains(&ty.as_str());
        if to_float || (to_int && floaty) {
            return true;
        }
    }
    false
}

fn has_float_literal(line: &str) -> bool {
    let b = line.as_bytes();
    for (i, &c) in b.iter().enumerate() {
        if c == b'.'
            && i > 0
            && b[i - 1].is_ascii_digit()
            && b.get(i + 1).is_some_and(u8::is_ascii_digit)
        {
            return true;
        }
    }
    false
}

/// Names of variables/fields declared with a `HashMap`/`HashSet` type or
/// constructor anywhere in the (masked) file. Lexical: we take the
/// identifier after `let [mut]` on declaration lines, or before `:` on field
/// and binding annotations.
fn declared_map_names(masked: &str) -> Vec<String> {
    let mut names = Vec::new();
    for line in masked.lines() {
        if !line.contains("HashMap") && !line.contains("HashSet") {
            continue;
        }
        let t = line.trim_start();
        let after_let = t
            .strip_prefix("let mut ")
            .or_else(|| t.strip_prefix("let "));
        let candidate = if let Some(rest) = after_let {
            rest
        } else {
            // Field/param annotation: `name: HashMap<...>`.
            t
        };
        let ident: String = candidate
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        let after = &candidate[ident.len()..];
        let annotated = after.trim_start().starts_with(':') || after.trim_start().starts_with('=');
        if !ident.is_empty() && !ident.chars().next().unwrap().is_ascii_digit() && annotated {
            names.push(ident);
        }
    }
    names.sort();
    names.dedup();
    names
}

/// Lexical HashMap/HashSet iteration detection: flags lines where an
/// order-observing adaptor (`iter`/`keys`/`values`/`drain`/`into_iter`) or a
/// `for .. in` loop is applied to a constructor expression or to a name
/// declared as a map/set in this file.
fn has_hash_iteration(line: &str, map_names: &[String]) -> bool {
    const ADAPTORS: [&str; 5] = [
        ".iter()",
        ".keys()",
        ".values()",
        ".drain()",
        ".into_iter()",
    ];
    let mentions_map = line.contains("HashMap") || line.contains("HashSet");
    if mentions_map && ADAPTORS.iter().any(|p| line.contains(p)) {
        return true;
    }
    for name in map_names {
        if ADAPTORS.iter().any(|p| {
            line.match_indices(&format!("{name}{p}"))
                .any(|(pos, _)| !prev_is_ident(line, pos))
        }) {
            return true;
        }
        // `for x in &name` / `for x in name`.
        for pat in [format!("in &{name}"), format!("in {name}")] {
            if line.match_indices(&pat).any(|(pos, _)| {
                let end = pos + pat.len();
                !prev_is_ident(line, pos)
                    && !line[end..]
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
            }) {
                return true;
            }
        }
    }
    false
}

fn prev_is_ident(line: &str, pos: usize) -> bool {
    pos > 0 && {
        let c = line.as_bytes()[pos - 1];
        c.is_ascii_alphanumeric() || c == b'_' || c == b'.'
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_unwrap_is_caught() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
        let v = lint_source("crates/core/src/mgl.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "unwrap");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn unwrap_in_tests_and_strings_ignored() {
        let src = "fn f() { let _ = \".unwrap()\"; }\n\
                   #[cfg(test)]\nmod tests {\n    fn g(x: Option<u8>) { x.unwrap(); }\n}\n";
        assert!(lint_source("crates/core/src/mgl.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_not_flagged() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n";
        assert!(lint_source("crates/core/src/mgl.rs", src).is_empty());
    }

    #[test]
    fn seeded_float_cast_is_caught() {
        let src = "fn f(x: f64) -> i64 { x as i64 }\n";
        let v = lint_source("crates/core/src/mgl.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "float-cast");
        // And the sanctioned choke point is exempt.
        assert!(lint_source("crates/db/src/geom.rs", src).is_empty());
    }

    #[test]
    fn int_to_float_cast_is_caught() {
        let src = "fn f(x: i64) { let _ = x as f64; }\n";
        let v = lint_source("crates/core/src/config.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "float-cast");
    }

    #[test]
    fn int_to_int_cast_not_flagged() {
        let src = "fn f(x: usize) -> u32 { x as u32 }\n";
        assert!(lint_source("crates/core/src/mgl.rs", src).is_empty());
    }

    #[test]
    fn seeded_hash_iteration_in_hot_path_caught() {
        let src = "fn f(m: &std::collections::HashMap<u32, u32>) {\n\
                   let _: Vec<_> = HashMap::new().iter().collect();\n}\n";
        let v = lint_source("crates/core/src/scheduler.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "hash-iter");
        // Same code outside the hot path is fine.
        assert!(lint_source("crates/core/src/config.rs", src).is_empty());
    }

    #[test]
    fn seeded_instant_now_is_caught() {
        let src = "fn f() { let t = std::time::Instant::now(); let _ = t; }\n";
        let v = lint_source("crates/core/src/legalizer.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "instant-now");
        // The obs clock module is the sanctioned call site.
        assert!(lint_source("crates/obs/src/clock.rs", src).is_empty());
    }

    #[test]
    fn imported_instant_is_caught_too() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); let _ = t; }\n";
        let v = lint_source("crates/bench/src/lib.rs", src);
        let rules: Vec<_> = v.iter().map(|x| (x.rule, x.line)).collect();
        assert_eq!(rules, vec![("instant-now", 1), ("instant-now", 2)]);
    }

    #[test]
    fn instant_in_tests_and_strings_ignored() {
        let src = "fn f() { let _ = \"Instant::now()\"; }\n\
                   #[cfg(test)]\nmod tests {\n    fn g() { let _ = std::time::Instant::now(); }\n}\n";
        assert!(lint_source("crates/core/src/mgl.rs", src).is_empty());
    }

    #[test]
    fn seeded_stage_bypass_is_caught() {
        let src =
            "fn f() {\n    let s = drive_rounds(&mut state, &cfg, &w, None, None, &mut s);\n}\n";
        let v = lint_source("crates/core/src/legalizer.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "stage-bypass");
        assert_eq!(v[0].line, 2);
        // The pipeline module and the defining modules are sanctioned.
        assert!(lint_source("crates/core/src/pipeline.rs", src).is_empty());
        assert!(lint_source("crates/core/src/scheduler.rs", src).is_empty());
    }

    #[test]
    fn stage_bypass_flags_every_raw_entry_point() {
        for call in [
            "drive_rounds(s, c, w, o, p, scr)",
            "optimize_max_disp_metered(s, c, m)",
            "optimize_fixed_order_metered(s, c, w, o, m)",
        ] {
            let src = format!("fn f() {{ let _ = {call}; }}\n");
            let v = lint_source("crates/core/src/engine.rs", &src);
            assert_eq!(v.len(), 1, "{call} not flagged");
            assert_eq!(v[0].rule, "stage-bypass");
        }
    }

    #[test]
    fn stage_bypass_respects_ident_boundaries() {
        // Prefixed/suffixed identifiers are different functions.
        let src = "fn f() {\n    seed_drive_rounds(&d);\n    \
                   drive_rounds_inline(s, c, w, o, scr);\n}\n";
        assert!(lint_source("crates/core/src/engine.rs", src).is_empty());
        // Test code and strings are masked like every other rule.
        let masked = "fn f() { let _ = \"drive_rounds(x)\"; }\n\
                      #[cfg(test)]\nmod tests {\n    fn g() { drive_rounds(s, c, w, o, p, scr); }\n}\n";
        assert!(lint_source("crates/core/src/engine.rs", masked).is_empty());
    }

    #[test]
    fn seeded_pool_spawn_is_caught() {
        let src = "fn f() {\n    let pool = EvalPool::spawn(scope, 3);\n}\n";
        let v = lint_source("crates/core/src/legalizer.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "pool-spawn");
        assert_eq!(v[0].line, 2);
        // The scheduler (defining module) and the engine (batch owner) are
        // the sanctioned spawn sites; test code is masked like everywhere.
        assert!(lint_source("crates/core/src/scheduler.rs", src).is_empty());
        assert!(lint_source("crates/core/src/engine.rs", src).is_empty());
        let in_test =
            "#[cfg(test)]\nmod tests {\n    fn g() { let _ = EvalPool::spawn(s, 1); }\n}\n";
        assert!(lint_source("crates/core/src/pipeline.rs", in_test).is_empty());
    }

    #[test]
    fn declared_map_iteration_caught_across_lines() {
        let src = "fn f() {\n\
                   let mut groups: HashMap<u32, u32> = HashMap::new();\n\
                   groups.insert(1, 2);\n\
                   for (k, v) in &groups { let _ = (k, v); }\n\
                   let keys: Vec<u32> = groups.keys().copied().collect();\n\
                   let _ = keys;\n}\n";
        let v = lint_source("crates/core/src/maxdisp.rs", src);
        let lines: Vec<usize> = v.iter().map(|x| x.line).collect();
        assert_eq!(
            lines,
            vec![4, 5],
            "for-loop and .keys() both flagged: {v:?}"
        );
        // Vec iteration with a similar name is not flagged.
        let ok = "fn f() {\n let groups_vec = vec![1];\n for x in &groups_vec { let _ = x; }\n}\n";
        assert!(lint_source("crates/core/src/maxdisp.rs", ok).is_empty());
    }
}
