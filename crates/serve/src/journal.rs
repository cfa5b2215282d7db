//! Write-ahead job journal: crash recovery for accepted work.
//!
//! Every admitted job appends `ACCEPT <id> <design>` (flushed and synced
//! *before* the client sees its acceptance) and `DONE <id> <STATUS>` once
//! its report is on disk. On restart, any `ACCEPT` without a matching
//! `DONE` is a job the daemon promised and then lost to a crash: recovery
//! reports it as `INTERRUPTED` (a `<design>.failure.json` record, the same
//! shape the batch CLI writes), sweeps half-written `*.tmp` report files,
//! and truncates the journal. A clean drain truncates the journal too, so
//! "journal is empty" is the post-shutdown invariant CI asserts.

use crate::server::write_failure_file;
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// An append-only journal over one text file.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

/// One accepted-but-unfinished job found during recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterruptedJob {
    /// The job id the dead daemon assigned.
    pub id: u64,
    /// The design name from the `ACCEPT` record.
    pub design: String,
}

impl Journal {
    /// Opens (creating if needed) the journal for appending.
    ///
    /// # Errors
    ///
    /// Any I/O error opening the file.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Records an admission. Flushes and fsyncs before returning: the
    /// acceptance the client is about to see must survive a crash.
    ///
    /// # Errors
    ///
    /// Any I/O error; the caller must then refuse the job (fail closed).
    pub fn accept(&mut self, id: u64, design: &str) -> std::io::Result<()> {
        writeln!(self.file, "ACCEPT {id} {design}")?;
        self.file.flush()?;
        self.file.sync_data()
    }

    /// Records a job's terminal status (after its report files landed).
    ///
    /// # Errors
    ///
    /// Any I/O error.
    pub fn done(&mut self, id: u64, status: &str) -> std::io::Result<()> {
        writeln!(self.file, "DONE {id} {status}")?;
        self.file.flush()
    }

    /// Empties the journal (clean drain: nothing outstanding).
    ///
    /// # Errors
    ///
    /// Any I/O error.
    pub fn truncate(&mut self) -> std::io::Result<()> {
        self.file = OpenOptions::new()
            .write(true)
            .truncate(true)
            .open(&self.path)?;
        Ok(())
    }
}

/// Parses journal text into the accepted-but-unfinished set, in
/// acceptance order. Unparsable lines (torn writes from the crash) are
/// skipped: a torn `ACCEPT` means the client never saw an acceptance, and
/// a torn `DONE` at worst re-reports a finished job as interrupted —
/// recovery stays conservative instead of failing.
pub fn dangling_accepts(text: &str) -> Vec<InterruptedJob> {
    let mut accepted: Vec<InterruptedJob> = Vec::new();
    let mut done: HashSet<u64> = HashSet::new();
    for line in text.lines() {
        let mut parts = line.splitn(3, ' ');
        match (parts.next(), parts.next(), parts.next()) {
            (Some("ACCEPT"), Some(id), Some(design)) => {
                if let Ok(id) = id.parse() {
                    accepted.push(InterruptedJob {
                        id,
                        design: design.to_string(),
                    });
                }
            }
            (Some("DONE"), Some(id), _) => {
                if let Ok(id) = id.parse::<u64>() {
                    done.insert(id);
                }
            }
            _ => {}
        }
    }
    accepted.retain(|j| !done.contains(&j.id));
    accepted
}

/// Recovers a journal on daemon start: returns the interrupted jobs (if
/// any), writes each one's `<design>.failure.json` into `report_dir`,
/// sweeps `*.tmp` partial report files, and truncates the journal.
///
/// A missing journal file is a clean start (empty result, no error).
///
/// # Errors
///
/// I/O errors reading/truncating the journal or writing failure records.
pub fn recover(
    journal_path: &Path,
    report_dir: Option<&Path>,
) -> std::io::Result<Vec<InterruptedJob>> {
    let text = match std::fs::read_to_string(journal_path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let interrupted = dangling_accepts(&text);
    if let Some(rd) = report_dir {
        sweep_partials(rd)?;
        for job in &interrupted {
            write_failure_file(
                rd,
                &job.design,
                "interrupted",
                "daemon terminated before the accepted job finished",
            )?;
        }
    }
    if !text.is_empty() {
        Journal::open(journal_path)?.truncate()?;
    }
    Ok(interrupted)
}

/// Deletes `*.tmp` files (reports that were mid-write at the crash; the
/// rename that publishes a report never ran, so they are garbage). Both
/// publishers of `write_report_files` call it before writing: the daemon's
/// recovery and `legalize --batch --report-dir`.
///
/// # Errors
///
/// I/O errors listing the directory or removing a file.
pub fn sweep_partials(report_dir: &Path) -> std::io::Result<()> {
    let entries = match std::fs::read_dir(report_dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.extension().is_some_and(|e| e == "tmp") {
            std::fs::remove_file(&p)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dangling_accepts_pairs_records() {
        let text = "ACCEPT 1 alpha\nACCEPT 2 beta\nDONE 1 OK\nACCEPT 3 gamma\nDONE 3 INTERNAL\n";
        let d = dangling_accepts(text);
        assert_eq!(
            d,
            vec![InterruptedJob {
                id: 2,
                design: "beta".into()
            }]
        );
    }

    #[test]
    fn torn_lines_are_skipped() {
        let text = "ACCEPT 1 alpha\nDONE 1 OK\nACCE";
        assert!(dangling_accepts(text).is_empty());
        // A torn ACCEPT id never admits a job.
        assert!(dangling_accepts("ACCEPT 1x alpha").is_empty());
    }

    #[test]
    fn recover_writes_failures_and_truncates() {
        let dir = std::env::temp_dir().join(format!("mcl-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let jpath = dir.join("jobs.journal");
        let reports = dir.join("reports");
        std::fs::create_dir_all(&reports).unwrap();
        std::fs::write(reports.join("half.json.tmp"), "{").unwrap();

        let mut j = Journal::open(&jpath).unwrap();
        j.accept(1, "good").unwrap();
        j.done(1, "OK").unwrap();
        j.accept(2, "lost").unwrap();
        drop(j);

        let interrupted = recover(&jpath, Some(&reports)).unwrap();
        assert_eq!(interrupted.len(), 1);
        assert_eq!(interrupted[0].design, "lost");
        let failure = std::fs::read_to_string(reports.join("lost.failure.json")).unwrap();
        assert!(failure.contains("\"class\":\"interrupted\""));
        assert!(!reports.join("half.json.tmp").exists(), "partial swept");
        assert_eq!(std::fs::read_to_string(&jpath).unwrap(), "", "truncated");

        // A second recovery over the now-empty journal is a clean start.
        assert!(recover(&jpath, Some(&reports)).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
