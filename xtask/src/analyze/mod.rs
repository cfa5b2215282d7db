//! `cargo xtask analyze` — syntax-aware static analysis over the workspace.
//!
//! Pipeline: masking lexer (`crate::lexer`) → token trees ([`tokens`]) →
//! symbol table ([`symbols`]) → conservative call graph ([`callgraph`]) →
//! three analyses:
//!
//! * [`taint`]  — determinism taint from the scheduler/stage seed set, plus
//!   the workspace-wide sanctioned-site rules (clock, float casts, stage
//!   entry points)
//! * [`pool`]   — no lock guard live across a channel send
//! * [`panics`] — panic-surface audit against the catch_unwind boundaries,
//!   plus the `unwrap` rule
//!
//! Findings are ratcheted against `xtask/analyze-allow.txt` (fail only
//! above the blessed per-(rule, file) count, re-baseline with `--bless`)
//! and emitted both human-readable and as a stable JSON report
//! (`target/analyze-report.json`, or stdout with `--json`).

pub mod callgraph;
pub mod panics;
pub mod pool;
pub mod symbols;
pub mod taint;
pub mod tokens;

use std::path::Path;
use std::process::ExitCode;

use crate::lexer::{mask_code, test_line_mask};
use crate::ratchet::{self, Counts};
use callgraph::CallGraph;
use symbols::FnDef;
use tokens::Tt;

/// One analyzed source file.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Raw source lines (for excerpts).
    pub lines: Vec<String>,
    /// Token trees over the masked source.
    pub trees: Vec<Tt>,
    /// `test_lines[line - 1]`: whether a 1-based line is test-only code.
    pub test_lines: Vec<bool>,
}

impl SourceFile {
    fn new(rel: &str, src: &str) -> SourceFile {
        let masked = mask_code(src);
        SourceFile {
            rel: rel.to_string(),
            lines: src.lines().map(str::to_string).collect(),
            trees: tokens::parse_trees(&masked),
            test_lines: test_line_mask(&masked),
        }
    }

    /// Trimmed source text of a 1-based line, capped for report hygiene.
    pub fn excerpt(&self, line: usize) -> String {
        let text = self
            .lines
            .get(line.wrapping_sub(1))
            .map_or("", |s| s.trim());
        let mut out: String = text.chars().take(120).collect();
        if text.chars().count() > 120 {
            out.push('…');
        }
        out
    }
}

/// All files + the global function table.
pub struct Workspace {
    pub files: Vec<SourceFile>,
    pub fns: Vec<FnDef>,
}

impl Workspace {
    /// Builds a workspace from in-memory `(path, source)` pairs (tests).
    #[cfg(test)]
    pub fn from_sources(sources: &[(&str, &str)]) -> Workspace {
        Workspace::build(
            sources
                .iter()
                .map(|(rel, src)| SourceFile::new(rel, src))
                .collect(),
        )
    }

    /// Reads `rels` (workspace-relative) from disk under `root`.
    pub fn load(root: &Path, rels: &[String]) -> std::io::Result<Workspace> {
        let mut files = Vec::new();
        for rel in rels {
            files.push(SourceFile::new(
                rel,
                &std::fs::read_to_string(root.join(rel))?,
            ));
        }
        Ok(Workspace::build(files))
    }

    fn build(files: Vec<SourceFile>) -> Workspace {
        let fns = files
            .iter()
            .enumerate()
            .flat_map(|(idx, file)| symbols::extract_fns(idx, &file.trees, &file.test_lines))
            .collect();
        Workspace { files, fns }
    }
}

/// One analyzer finding.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: String,
    pub file: String,
    pub line: usize,
    pub excerpt: String,
    /// Context: for taint rules the seed → … → function reachability chain;
    /// for protocol/panic rules a one-line explanation.
    pub path: Vec<String>,
}

/// Full analysis output.
pub struct Report {
    pub findings: Vec<Finding>,
    pub files: usize,
    pub functions: usize,
    pub seeds: usize,
    pub reachable: usize,
    pub panic_contained: usize,
    pub panic_uncontained: usize,
}

/// Runs all three analyses over a workspace.
pub fn run_analyses(ws: &Workspace) -> Report {
    let graph = CallGraph::build(&ws.fns);
    let seeds = taint::seed_fns(ws);
    let reachable = graph.reach(&seeds).len();

    let mut findings = taint::analyze(ws, &graph);
    findings.extend(pool::analyze(ws, &graph));
    let (sites, panic_findings) = panics::analyze(ws, &graph);
    let panic_contained = sites.iter().filter(|s| s.contained).count();
    let panic_uncontained = sites.len() - panic_contained;
    findings.extend(panic_findings);

    findings.sort_by(|a, b| {
        (a.rule.as_str(), a.file.as_str(), a.line).cmp(&(b.rule.as_str(), b.file.as_str(), b.line))
    });
    Report {
        findings,
        files: ws.files.len(),
        functions: ws.fns.len(),
        seeds: seeds.len(),
        reachable,
        panic_contained,
        panic_uncontained,
    }
}

// ---------------------------------------------------------------------------
// JSON emission (hand-rolled; xtask has no dependencies)
// ---------------------------------------------------------------------------

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Stable JSON report: findings sorted by (rule, file, line), each marked
/// with whether its (rule, file) group is inside the blessed baseline.
pub fn report_json(report: &Report, allowed: &Counts, actual: &Counts) -> String {
    let mut s = String::from("{\n  \"schema\": 1,\n  \"findings\": [\n");
    for (i, f) in report.findings.iter().enumerate() {
        let key = (f.rule.clone(), f.file.clone());
        let cap = allowed.get(&key).copied().unwrap_or(0);
        let n = actual.get(&key).copied().unwrap_or(0);
        let allowlisted = n <= cap;
        let path: Vec<String> = f
            .path
            .iter()
            .map(|p| format!("\"{}\"", json_escape(p)))
            .collect();
        s.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"allowlisted\": {}, \"excerpt\": \"{}\", \"path\": [{}]}}{}\n",
            json_escape(&f.rule),
            json_escape(&f.file),
            f.line,
            allowlisted,
            json_escape(&f.excerpt),
            path.join(", "),
            if i + 1 == report.findings.len() { "" } else { "," },
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"summary\": {{\"files\": {}, \"functions\": {}, \"seeds\": {}, \"reachable_from_seeds\": {}, \"panic_sites_contained\": {}, \"panic_sites_uncontained\": {}}}\n}}\n",
        report.files,
        report.functions,
        report.seeds,
        report.reachable,
        report.panic_contained,
        report.panic_uncontained,
    ));
    s
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

const ALLOW_HEADER: &str = "\
# Analyzer ratchet baseline: `rule count file`, one line per (rule, file).\n\
# Maintained by `cargo xtask analyze --bless`. The pass fails when a file\n\
# exceeds its recorded count; shrink counts by fixing findings and\n\
# re-blessing. Do not raise counts by hand.\n";

fn allow_path(root: &Path) -> std::path::PathBuf {
    root.join("xtask").join("analyze-allow.txt")
}

fn finding_counts(findings: &[Finding]) -> Counts {
    let mut counts = Counts::new();
    for f in findings {
        *counts.entry((f.rule.clone(), f.file.clone())).or_default() += 1;
    }
    counts
}

/// Entry point for `cargo xtask analyze [--bless] [--json]`.
pub fn analyze_cmd(root: &Path, files: &[String], bless: bool, json: bool) -> ExitCode {
    let ws = match Workspace::load(root, files) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("xtask analyze: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = run_analyses(&ws);
    let actual = finding_counts(&report.findings);

    if bless {
        if let Err(e) = ratchet::write_counts(&allow_path(root), ALLOW_HEADER, &actual) {
            eprintln!("xtask analyze: cannot write the allowlist: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "xtask analyze: blessed {} findings across {} (rule, file) pairs",
            report.findings.len(),
            actual.len()
        );
        return ExitCode::SUCCESS;
    }

    let allowed = ratchet::read_counts(&allow_path(root));
    let out = report_json(&report, &allowed, &actual);
    if json {
        print!("{out}");
    } else {
        let target = root.join("target");
        let written = std::fs::create_dir_all(&target)
            .and_then(|()| std::fs::write(target.join("analyze-report.json"), &out));
        if let Err(e) = written {
            // CI uploads this file; a stale or missing report must not pass.
            eprintln!("xtask analyze: cannot write target/analyze-report.json: {e}");
            return ExitCode::FAILURE;
        }
    }

    let enforcement = ratchet::enforce(&allowed, &actual);
    for ((rule, file), n, cap) in &enforcement.exceeded {
        eprintln!("analyze[{rule}] {file}: {n} findings (allowlisted: {cap})");
        for f in report
            .findings
            .iter()
            .filter(|f| &f.rule == rule && &f.file == file)
        {
            eprintln!("  {}:{}: {}", f.file, f.line, f.excerpt);
            for (d, hop) in f.path.iter().enumerate() {
                eprintln!("    {}{hop}", "  ".repeat(d));
            }
        }
    }
    // Status lines go to stderr: stdout carries only the `--json` report.
    for ((rule, file), n, cap) in &enforcement.stale {
        eprintln!(
            "analyze[{rule}] {file}: down to {n} from {cap} — run `cargo xtask analyze --bless` to ratchet"
        );
    }

    if enforcement.failed() {
        eprintln!("xtask analyze: FAILED (new findings; fix them or bless deliberately)");
        ExitCode::FAILURE
    } else {
        eprintln!(
            "xtask analyze: ok ({} files, {} fns, {} reachable from {} seeds, {} findings allowlisted, panics {} contained / {} uncontained)",
            report.files,
            report.functions,
            report.reachable,
            report.seeds,
            report.findings.len(),
            report.panic_contained,
            report.panic_uncontained,
        );
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature workspace exercising all three analyses end to end: the
    /// acceptance mutation (hash iteration newly reachable from a stage
    /// entry point) must produce a failing finding.
    fn mini_workspace(hash_iter_reachable: bool) -> Workspace {
        let helper_body = if hash_iter_reachable {
            "let m: HashMap<u32, u32> = HashMap::new(); for k in m.keys() { let _ = k; }"
        } else {
            "let v = vec![1, 2]; for k in &v { let _ = k; }"
        };
        let scheduler = "pub fn eval_job() {\n\
                 let _ = std::panic::catch_unwind(|| contained_leaf());\n\
             }\n\
             fn contained_leaf(v: &[u32]) { let _ = v.first().unwrap(); }\n\
             pub fn drive_rounds(tx: &Sender<u32>) {\n\
                 tx.send(1).ok();\n\
             }\n";
        let maxdisp = format!(
            "pub fn optimize_max_disp_metered() {{ helper(); }}\n\
             fn helper() {{ {helper_body} }}\n"
        );
        Workspace::from_sources(&[
            ("crates/core/src/scheduler.rs", scheduler),
            ("crates/core/src/maxdisp.rs", &maxdisp),
        ])
    }

    #[test]
    fn clean_mini_workspace_has_no_protocol_or_taint_findings() {
        let report = run_analyses(&mini_workspace(false));
        let non_panic: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.rule != "panic-uncontained" && f.rule != "unwrap")
            .collect();
        assert!(non_panic.is_empty(), "{non_panic:?}");
        // The unwrap under catch_unwind is contained, not a finding.
        assert_eq!(report.panic_contained, 1);
        assert_eq!(report.panic_uncontained, 0);
        assert!(report.seeds >= 3, "eval_job, drive_rounds, maxdisp");
    }

    #[test]
    fn acceptance_hash_iteration_reachable_from_a_stage_entry_fails() {
        let report = run_analyses(&mini_workspace(true));
        let hits: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.rule == "hash-iter")
            .collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
        // The reachability path pins the seed:
        // optimize_max_disp_metered → helper.
        let seed = &hits[0].path[0];
        assert!(seed.contains("optimize_max_disp_metered"), "{seed}");
    }

    #[test]
    fn findings_are_sorted_and_json_is_stable() {
        let report = run_analyses(&mini_workspace(true));
        let sorted = report
            .findings
            .windows(2)
            .all(|w| (&w[0].rule, &w[0].file, w[0].line) <= (&w[1].rule, &w[1].file, w[1].line));
        assert!(sorted);
        let actual = finding_counts(&report.findings);
        let json = report_json(&report, &Counts::new(), &actual);
        assert!(json.contains("\"schema\": 1"));
        assert!(json.contains("\"rule\": \"hash-iter\""));
        assert!(json.contains("\"allowlisted\": false"));
        assert!(json.contains("\"summary\""));
        // Emission is deterministic.
        assert_eq!(json, report_json(&report, &Counts::new(), &actual));
    }

    /// `(rule, line)` of the findings a single file draws, without the
    /// panic audit's own `panic-uncontained` (covered in `panics`).
    fn rules(rel: &str, src: &str) -> Vec<(String, usize)> {
        run_analyses(&Workspace::from_sources(&[(rel, src)]))
            .findings
            .into_iter()
            .filter(|f| f.rule != "panic-uncontained")
            .map(|f| (f.rule, f.line))
            .collect()
    }

    fn hits(rule: &str, lines: &[usize]) -> Vec<(String, usize)> {
        lines.iter().map(|&l| (rule.to_string(), l)).collect()
    }

    #[test]
    fn seeded_unwrap_is_caught() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
        assert_eq!(rules("crates/core/src/mgl.rs", src), hits("unwrap", &[2]));
    }

    #[test]
    fn unwrap_in_tests_and_strings_ignored() {
        let src = "fn f() { let _ = \".unwrap()\"; }\n\
                   #[cfg(test)]\nmod tests {\n    fn g(x: Option<u8>) { x.unwrap(); }\n}\n";
        assert!(rules("crates/core/src/mgl.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_not_flagged() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n";
        assert!(rules("crates/core/src/mgl.rs", src).is_empty());
    }

    #[test]
    fn test_attribute_inside_a_string_masks_nothing() {
        // A `#[test]` in a literal must not turn the next block into test
        // code and hide it from every rule.
        let src = "fn g() {\n    let s = \"#[test]\";\n    let _ = s;\n}\n\
                   fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
        assert_eq!(rules("crates/core/src/mgl.rs", src), hits("unwrap", &[6]));
    }

    #[test]
    fn seeded_float_cast_is_caught() {
        let src = "fn f(x: f64) -> i64 { x as i64 }\n";
        assert_eq!(
            rules("crates/core/src/mgl.rs", src),
            hits("float-cast", &[1])
        );
        // And the sanctioned choke point is exempt.
        assert!(rules("crates/db/src/geom.rs", src).is_empty());
    }

    #[test]
    fn int_to_float_cast_is_caught() {
        let src = "fn f(x: i64) { let _ = x as f64; }\n";
        assert_eq!(
            rules("crates/core/src/config.rs", src),
            hits("float-cast", &[1])
        );
    }

    #[test]
    fn int_to_int_cast_not_flagged() {
        let src = "fn f(x: usize) -> u32 { x as u32 }\n";
        assert!(rules("crates/core/src/mgl.rs", src).is_empty());
    }

    #[test]
    fn float_evidence_is_per_line() {
        // A float literal or rounding call makes the line's int cast a
        // float cast; a field named like a float method does not.
        let src = "fn f(x: i64, s: S) {\n    let _ = (x as usize, 1.5);\n    \
                   let _ = (s.round as u32, s.v.round() as u32);\n    let _ = s.floor as u32;\n}\n";
        assert_eq!(
            rules("crates/bench/src/lib.rs", src),
            hits("float-cast", &[2, 3])
        );
    }

    #[test]
    fn seeded_hash_iteration_in_hot_path_caught() {
        let src = "fn f(m: &std::collections::HashMap<u32, u32>) {\n\
                   let _: Vec<_> = HashMap::new().iter().collect();\n}\n";
        assert_eq!(
            rules("crates/core/src/scheduler.rs", src),
            hits("hash-iter", &[2])
        );
        // The same code outside the legalizer crate, unreachable from the
        // seeds, is fine.
        assert!(rules("crates/db/src/design.rs", src).is_empty());
    }

    #[test]
    fn declared_map_iteration_caught_across_lines() {
        let src = "fn f() {\n\
                   let mut groups: HashMap<u32, u32> = HashMap::new();\n\
                   groups.insert(1, 2);\n\
                   for (k, v) in &groups { let _ = (k, v); }\n\
                   let keys: Vec<u32> = groups.keys().copied().collect();\n\
                   let _ = keys;\n}\n";
        // The for-loop and `.keys()` are both flagged.
        assert_eq!(
            rules("crates/core/src/maxdisp.rs", src),
            hits("hash-iter", &[4, 5])
        );
        // Vec iteration with a similar name is not flagged.
        let ok = "fn f() {\n let groups_vec = vec![1];\n for x in &groups_vec { let _ = x; }\n}\n";
        assert!(rules("crates/core/src/maxdisp.rs", ok).is_empty());
    }

    #[test]
    fn seeded_instant_now_is_caught() {
        let src = "fn f() { let t = std::time::Instant::now(); let _ = t; }\n";
        assert_eq!(
            rules("crates/core/src/legalizer.rs", src),
            hits("instant-now", &[1])
        );
        // The obs clock module is the sanctioned call site.
        assert!(rules("crates/obs/src/clock.rs", src).is_empty());
    }

    #[test]
    fn imported_instant_is_caught_too() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); let _ = t; }\n";
        assert_eq!(
            rules("crates/bench/src/lib.rs", src),
            hits("instant-now", &[1, 2])
        );
        // Group imports and the rest of the obs crate are covered too.
        let grouped = "use std::time::{Duration, Instant};\n";
        assert_eq!(
            rules("crates/obs/src/span.rs", grouped),
            hits("instant-now", &[1])
        );
    }

    #[test]
    fn instant_in_tests_and_strings_ignored() {
        let src = "fn f() { let _ = \"Instant::now()\"; }\n\
                   #[cfg(test)]\nmod tests {\n    fn g() { let _ = std::time::Instant::now(); }\n}\n";
        assert!(rules("crates/core/src/mgl.rs", src).is_empty());
    }

    #[test]
    fn seeded_stage_bypass_is_caught() {
        let src =
            "fn f() {\n    let s = drive_rounds(&mut state, &cfg, &w, None, None, &mut s);\n}\n";
        assert_eq!(
            rules("crates/core/src/legalizer.rs", src),
            hits("stage-bypass", &[2])
        );
        // The pipeline module and the defining modules are sanctioned.
        assert!(rules("crates/core/src/pipeline.rs", src).is_empty());
        assert!(rules("crates/core/src/scheduler.rs", src).is_empty());
    }

    #[test]
    fn stage_bypass_flags_every_raw_entry_point() {
        for call in [
            "drive_rounds(s, c, w, o, p, scr)",
            "optimize_max_disp_metered(s, c, m)",
            "optimize_fixed_order_metered(s, c, w, o, m)",
        ] {
            let src = format!("fn f() {{ let _ = {call}; }}\n");
            let v = rules("crates/core/src/engine.rs", &src);
            assert_eq!(v, hits("stage-bypass", &[1]), "{call} not flagged");
        }
    }

    #[test]
    fn stage_bypass_respects_ident_boundaries() {
        // Prefixed/suffixed identifiers are different functions.
        let src = "fn f() {\n    seed_drive_rounds(&d);\n    \
                   drive_rounds_inline(s, c, w, o, scr);\n}\n";
        assert!(rules("crates/core/src/engine.rs", src).is_empty());
        // Test code and strings are masked like every other rule.
        let masked = "fn f() { let _ = \"drive_rounds(x)\"; }\n\
                      #[cfg(test)]\nmod tests {\n    fn g() { drive_rounds(s, c, w, o, p, scr); }\n}\n";
        assert!(rules("crates/core/src/engine.rs", masked).is_empty());
    }

    #[test]
    fn unwritable_report_fails_the_pass() {
        let root = std::env::temp_dir().join(format!("xtask-report-{}", std::process::id()));
        std::fs::create_dir_all(root.join("xtask")).expect("mkdir");
        std::fs::write(root.join("lib.rs"), "fn f() {}\n").expect("source");
        // `target` is a file, so the report directory cannot be created.
        std::fs::write(root.join("target"), "").expect("blocker");
        let code = analyze_cmd(&root, &["lib.rs".to_string()], false, false);
        std::fs::remove_dir_all(&root).ok();
        assert_eq!(code, ExitCode::FAILURE);
    }

    #[test]
    fn json_escaping_is_sound() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
