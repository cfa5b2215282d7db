//! Workspace automation tasks. Run as `cargo xtask <task>`.
//!
//! One task, `analyze`: the static-analysis pass (DESIGN.md "Static
//! analysis architecture"). Token trees, a symbol table and a conservative
//! call graph feed the determinism-taint and sanctioned-site rules, the
//! lock-across-send check and the panic-surface audit. Findings ratchet
//! against `xtask/analyze-allow.txt`: the pass fails only when a
//! (rule, file) group exceeds its recorded count, and `--bless`
//! re-baselines after fixes. `--json` prints the stable JSON report to
//! stdout instead of `target/analyze-report.json`.

mod analyze;
mod lexer;
mod ratchet;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bless = args.iter().any(|a| a == "--bless");
    let json = args.iter().any(|a| a == "--json");
    if args.first().map(String::as_str) != Some("analyze") {
        eprintln!("usage: cargo xtask analyze [--bless] [--json]");
        return ExitCode::FAILURE;
    }
    let root = workspace_root();
    let files = library_sources(&root);
    if files.is_empty() {
        eprintln!("xtask analyze: no sources found under crates/*/src");
        return ExitCode::FAILURE;
    }
    analyze::analyze_cmd(&root, &files, bless, json)
}

fn workspace_root() -> PathBuf {
    // xtask lives at <root>/xtask.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask sits inside the workspace")
        .to_path_buf()
}

/// Collects every `.rs` file under `crates/*/src` and the root `src/`
/// (facade library + CLI binary), workspace-relative.
fn library_sources(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates_dir) else {
        return out;
    };
    for e in entries.flatten() {
        let src = e.path().join("src");
        if src.is_dir() {
            walk(&src, root, &mut out);
        }
    }
    let facade_src = root.join("src");
    if facade_src.is_dir() {
        walk(&facade_src, root, &mut out);
    }
    out.sort();
    out
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            walk(&p, root, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            let rel = p
                .strip_prefix(root)
                .expect("walked path is under the root")
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
}
