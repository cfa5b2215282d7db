//! Ratcheted allowlist plumbing for `cargo xtask analyze`.
//!
//! An allowlist file records pre-existing findings per (rule, file) as
//! `rule count file` lines. A pass fails only when a file exceeds its
//! recorded count — new code cannot add violations while old ones are
//! triaged away — and reports when a count has shrunk so the baseline can be
//! tightened with `--bless`.

use std::collections::BTreeMap;
use std::path::Path;

pub type Counts = BTreeMap<(String, String), usize>;

/// Parses `rule count file` lines; `#` comments and blanks are skipped.
/// Malformed lines are reported to stderr and ignored.
pub fn read_counts(path: &Path) -> Counts {
    let mut out = Counts::new();
    let Ok(text) = std::fs::read_to_string(path) else {
        return out;
    };
    let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
    let name = name.as_deref().unwrap_or("allowlist");
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(rule), Some(count), Some(file)) = (it.next(), it.next(), it.next()) else {
            eprintln!("{name}:{}: malformed line (rule count file)", i + 1);
            continue;
        };
        let Ok(count) = count.parse::<usize>() else {
            eprintln!("{name}:{}: bad count {count:?}", i + 1);
            continue;
        };
        out.insert((rule.to_string(), file.to_string()), count);
    }
    out
}

/// Writes the baseline back with the given `#`-prefixed header comment.
pub fn write_counts(path: &Path, header: &str, counts: &Counts) -> std::io::Result<()> {
    let mut s = String::from(header);
    for ((rule, file), n) in counts {
        if *n > 0 {
            s.push_str(&format!("{rule} {n} {file}\n"));
        }
    }
    std::fs::write(path, s)
}

/// Outcome of checking actual counts against the baseline.
pub struct Enforcement {
    /// (rule, file) groups over their cap, with (actual, cap).
    pub exceeded: Vec<((String, String), usize, usize)>,
    /// (rule, file) groups under their cap, with (actual, cap) — the ratchet
    /// can be tightened.
    pub stale: Vec<((String, String), usize, usize)>,
}

impl Enforcement {
    pub fn failed(&self) -> bool {
        !self.exceeded.is_empty()
    }
}

/// Compares per-(rule, file) `actual` counts against the `allowed` baseline.
pub fn enforce(allowed: &Counts, actual: &Counts) -> Enforcement {
    let mut exceeded = Vec::new();
    let mut stale = Vec::new();
    for (key, &n) in actual {
        let cap = allowed.get(key).copied().unwrap_or(0);
        if n > cap {
            exceeded.push((key.clone(), n, cap));
        }
    }
    for (key, &cap) in allowed {
        let n = actual.get(key).copied().unwrap_or(0);
        if n < cap {
            stale.push((key.clone(), n, cap));
        }
    }
    Enforcement { exceeded, stale }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(entries: &[(&str, &str, usize)]) -> Counts {
        entries
            .iter()
            .map(|(r, f, n)| (((*r).to_string(), (*f).to_string()), *n))
            .collect()
    }

    #[test]
    fn enforce_flags_only_exceeded_groups() {
        let allowed = counts(&[("unwrap", "a.rs", 2), ("unwrap", "b.rs", 1)]);
        let actual = counts(&[("unwrap", "a.rs", 3), ("unwrap", "b.rs", 1)]);
        let e = enforce(&allowed, &actual);
        assert!(e.failed());
        assert_eq!(e.exceeded.len(), 1);
        assert_eq!(e.exceeded[0].0 .1, "a.rs");
        assert!(e.stale.is_empty());
    }

    #[test]
    fn enforce_reports_stale_entries() {
        let allowed = counts(&[("unwrap", "a.rs", 5)]);
        let actual = counts(&[("unwrap", "a.rs", 2)]);
        let e = enforce(&allowed, &actual);
        assert!(!e.failed());
        assert_eq!(e.stale, vec![(("unwrap".into(), "a.rs".into()), 2, 5)]);
    }

    #[test]
    fn unknown_rules_default_to_zero_cap() {
        let e = enforce(&Counts::new(), &counts(&[("new-rule", "x.rs", 1)]));
        assert!(e.failed());
    }

    #[test]
    fn roundtrip_via_file() {
        let dir = std::env::temp_dir().join("xtask-ratchet-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("allow.txt");
        let c = counts(&[("r", "f.rs", 3), ("zero", "g.rs", 0)]);
        write_counts(&path, "# header\n", &c).expect("write");
        let back = read_counts(&path);
        // Zero entries are dropped on write.
        assert_eq!(back, counts(&[("r", "f.rs", 3)]));
        std::fs::remove_file(&path).ok();
    }
}
