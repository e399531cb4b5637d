//! Append-only JSONL write-ahead journal.
//!
//! Every record is one line, written with a single `write_all`. Header,
//! result and quarantine records are `fsync`'d before the engine proceeds
//! — the classic WAL discipline. A claim is not: resume recomputes every
//! cell without a result whether or not its claim survived, so a lost
//! claim changes nothing, and the next synced record flushes it anyway.
//! A fresh cell therefore pays one sync, its result's. Each line ends in
//! `"sum"`: the [`fnv1a`] checksum, in 16 hex digits, of the line's bytes
//! before `,"sum"`:
//!
//! ```text
//! {"ev":"header","version":2,"spec":"<fingerprint>","cells":18,"sum":"…"}
//! {"ev":"claim","cell":3,"sum":"…"}
//! {"ev":"result","cell":3,"row":{...},"sum":"…"}   ← the report row, verbatim
//! {"ev":"quarantine","cell":7,"case":"six_bus","sum":"…"}
//! ```
//!
//! A `kill -9` can lose at most claims without results (in-flight cells)
//! plus one torn trailing line; a power loss can also drop the unsynced
//! claims after the last synced record, which are in-flight cells too.
//! The scanner reads the file as bytes, splits it on `\n`, and counts
//! every line that is not UTF-8 or whose checksum does not match as torn
//! and discards it, so a corrupted record (a kill inside a multi-byte
//! character included) costs a recomputed cell, never a corrupted row or
//! a refused resume. Because the `result`
//! record carries the *serialized report row itself*, a resumed run
//! re-emits recovered cells byte-for-byte — the mechanism behind the
//! atlas's byte-identical resume guarantee. The header pins the spec
//! fingerprint and cell count so a resume against a different grid, or
//! with a corrupted header, is refused instead of silently mixing two
//! sweeps.

use ed_powerflow::fnv1a;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Mutex, PoisonError};

/// Handle for appending records; shared across worker threads.
pub struct Journal {
    file: Mutex<File>,
}

impl Journal {
    /// Creates (truncating) a fresh journal and writes the header.
    ///
    /// # Errors
    ///
    /// Any I/O failure — the engine treats journal errors as fatal, never
    /// as something to continue past (a sweep that cannot checkpoint is
    /// not crash-tolerant).
    pub fn create(path: &Path, fingerprint: &str, cells: usize) -> io::Result<Journal> {
        let file = OpenOptions::new().write(true).create(true).truncate(true).open(path)?;
        let j = Journal { file: Mutex::new(file) };
        j.append(
            &format!(
                "{{\"ev\":\"header\",\"version\":2,\"spec\":\"{fingerprint}\",\"cells\":{cells}"
            ),
            true,
        )?;
        Ok(j)
    }

    /// Opens an existing journal for appending (resume).
    ///
    /// # Errors
    ///
    /// Any I/O failure, including a missing file.
    pub fn open_append(path: &Path) -> io::Result<Journal> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Journal { file: Mutex::new(file) })
    }

    /// Records that a worker is about to compute `cell`, without a sync:
    /// only `/atlas`'s in-flight count reads claims.
    ///
    /// # Errors
    ///
    /// Any I/O failure.
    pub fn claim(&self, cell: usize) -> io::Result<()> {
        self.append(&format!("{{\"ev\":\"claim\",\"cell\":{cell}"), false)
    }

    /// Records `cell`'s finished report row, verbatim.
    ///
    /// # Errors
    ///
    /// Any I/O failure.
    pub fn result(&self, cell: usize, row_json: &str) -> io::Result<()> {
        debug_assert!(row_json.starts_with('{') && row_json.ends_with('}'));
        self.append(&format!("{{\"ev\":\"result\",\"cell\":{cell},\"row\":{row_json}"), true)
    }

    /// Records that `cell` (of case `case`) was quarantined — the event
    /// the serve layer's `/atlas` endpoint reacts to by evicting warm
    /// sweep bases for the case.
    ///
    /// # Errors
    ///
    /// Any I/O failure.
    pub fn quarantine(&self, cell: usize, case: &str) -> io::Result<()> {
        self.append(&format!("{{\"ev\":\"quarantine\",\"cell\":{cell},\"case\":\"{case}\""), true)
    }

    /// Appends the record whose bytes before the closing brace are `body`,
    /// sealed with its checksum, and syncs the file when `sync` is set.
    fn append(&self, body: &str, sync: bool) -> io::Result<()> {
        let record = format!("{body},\"sum\":\"{:016x}\"}}\n", fnv1a(body.bytes()));
        let mut f = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        f.write_all(record.as_bytes())?;
        if sync {
            f.sync_data()?;
        }
        Ok(())
    }
}

/// Everything a journal scan recovers.
#[derive(Debug, Default, Clone)]
pub struct JournalScan {
    /// Spec fingerprint from the header, if one was readable.
    pub fingerprint: Option<String>,
    /// Total cell count from the header.
    pub cells: Option<usize>,
    /// Completed cells: index → verbatim report-row JSON.
    pub results: BTreeMap<usize, String>,
    /// Every claimed cell index (with or without a result).
    pub claims: BTreeSet<usize>,
    /// Quarantine events `(cell, case)` in journal order.
    pub quarantines: Vec<(usize, String)>,
    /// Lines that were not UTF-8, did not parse or failed their checksum
    /// (at most the torn tail of a killed run, unless the file is corrupt).
    pub torn_lines: usize,
}

impl JournalScan {
    /// Cells with a recorded result.
    pub fn completed(&self) -> usize {
        self.results.len()
    }

    /// Cells claimed but never resolved — the work a crash lost.
    pub fn in_flight(&self) -> usize {
        self.claims.iter().filter(|c| !self.results.contains_key(c)).count()
    }

    /// Distinct case names with at least one quarantine event.
    pub fn quarantined_cases(&self) -> Vec<String> {
        let mut cases: Vec<String> = self.quarantines.iter().map(|(_, c)| c.clone()).collect();
        cases.sort();
        cases.dedup();
        cases
    }
}

fn field_usize(line: &str, key: &str) -> Option<usize> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let digits: &str = line[start..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .filter(|d| !d.is_empty())?;
    digits.parse().ok()
}

/// The string value of `"key":"…"` in a journal line or journaled row.
pub(crate) fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')?;
    Some(&line[start..start + end])
}

/// The record body — the line's bytes before `,"sum"` — when the line's
/// checksum matches it.
fn verified(line: &str) -> Option<&str> {
    let (body, sum) = line.strip_suffix("\"}")?.rsplit_once(",\"sum\":\"")?;
    (sum == format!("{:016x}", fnv1a(body.bytes()))).then_some(body)
}

/// Scans a journal file, discarding torn and corrupted lines.
///
/// # Errors
///
/// Any I/O failure reading the file (a missing journal is an error — the
/// caller decides whether that means "fresh run" or "refuse").
pub fn scan(path: &Path) -> io::Result<JournalScan> {
    let bytes = std::fs::read(path)?;
    let mut s = JournalScan::default();
    for raw in bytes.split(|&b| b == b'\n') {
        // A line that is not UTF-8 is torn, like one that fails its checksum.
        let Ok(line) = std::str::from_utf8(raw) else {
            s.torn_lines += 1;
            continue;
        };
        let line = line.trim_end_matches('\r');
        if line.is_empty() {
            continue;
        }
        let Some(line) = verified(line) else {
            s.torn_lines += 1;
            continue;
        };
        if line.starts_with("{\"ev\":\"header\"") {
            s.fingerprint = field_str(line, "spec").map(str::to_string);
            s.cells = field_usize(line, "cells");
        } else if line.starts_with("{\"ev\":\"claim\"") {
            match field_usize(line, "cell") {
                Some(c) => {
                    s.claims.insert(c);
                }
                None => s.torn_lines += 1,
            }
        } else if line.starts_with("{\"ev\":\"result\"") {
            let cell = field_usize(line, "cell");
            let row = line.find(",\"row\":").map(|i| &line[i + 7..]);
            match (cell, row) {
                (Some(c), Some(r)) if r.starts_with('{') && r.ends_with('}') => {
                    s.claims.insert(c);
                    s.results.insert(c, r.to_string());
                }
                _ => s.torn_lines += 1,
            }
        } else if line.starts_with("{\"ev\":\"quarantine\"") {
            match (field_usize(line, "cell"), field_str(line, "case")) {
                (Some(c), Some(case)) => s.quarantines.push((c, case.to_string())),
                _ => s.torn_lines += 1,
            }
        } else {
            s.torn_lines += 1;
        }
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "ed-atlas-journal-{}-{tag}-{n}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn roundtrip_recovers_everything() {
        let path = temp_path("roundtrip");
        let j = Journal::create(&path, "deadbeef00000000", 4).unwrap();
        j.claim(0).unwrap();
        j.result(0, "{\"cell\":0,\"outcome\":\"completed\",\"violation_pct\":12.5}").unwrap();
        j.claim(1).unwrap();
        j.claim(2).unwrap();
        j.result(2, "{\"cell\":2,\"outcome\":\"quarantined\",\"fault\":\"panic\"}").unwrap();
        j.quarantine(2, "three_bus").unwrap();
        drop(j);

        let s = scan(&path).unwrap();
        assert_eq!(s.fingerprint.as_deref(), Some("deadbeef00000000"));
        assert_eq!(s.cells, Some(4));
        assert_eq!(s.completed(), 2);
        assert_eq!(s.in_flight(), 1, "cell 1 was claimed but never resolved");
        assert_eq!(
            s.results[&0],
            "{\"cell\":0,\"outcome\":\"completed\",\"violation_pct\":12.5}"
        );
        assert_eq!(s.quarantines, vec![(2, "three_bus".to_string())]);
        assert_eq!(s.quarantined_cases(), vec!["three_bus".to_string()]);
        assert_eq!(s.torn_lines, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_discarded_not_fatal() {
        let path = temp_path("torn");
        let j = Journal::create(&path, "feed000000000000", 2).unwrap();
        j.claim(0).unwrap();
        j.result(0, "{\"cell\":0,\"outcome\":\"completed\"}").unwrap();
        drop(j);
        // Simulate a kill mid-write: append half a record with no close.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"ev\":\"result\",\"cell\":1,\"row\":{\"cel").unwrap();
        drop(f);

        let s = scan(&path).unwrap();
        assert_eq!(s.completed(), 1);
        assert_eq!(s.torn_lines, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_record_is_torn_not_replayed() {
        let path = temp_path("corrupt");
        let j = Journal::create(&path, "c0ffee0000000000", 2).unwrap();
        j.result(0, "{\"cell\":0,\"outcome\":\"completed\",\"violation_pct\":8.25}").unwrap();
        j.result(1, "{\"cell\":1,\"outcome\":\"infeasible\"}").unwrap();
        drop(j);
        // One digit of cell 0's row changes: the line still parses, but
        // its checksum no longer matches.
        let text = std::fs::read_to_string(&path).unwrap().replacen("8.25", "8.35", 1);
        std::fs::write(&path, text).unwrap();

        let s = scan(&path).unwrap();
        assert_eq!(s.fingerprint.as_deref(), Some("c0ffee0000000000"));
        assert_eq!(s.results.keys().copied().collect::<Vec<_>>(), vec![1]);
        assert_eq!(s.torn_lines, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_utf8_line_is_torn_not_fatal() {
        let path = temp_path("non-utf8");
        let j = Journal::create(&path, "beef000000000000", 2).unwrap();
        j.result(0, "{\"cell\":0,\"outcome\":\"completed\",\"case\":\"six_bus\"}").unwrap();
        j.result(1, "{\"cell\":1,\"outcome\":\"infeasible\"}").unwrap();
        drop(j);
        // One byte of cell 0's record becomes a lone continuation byte.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.windows(7).position(|w| w == b"six_bus").unwrap();
        bytes[at] = 0x80;
        std::fs::write(&path, bytes).unwrap();

        let s = scan(&path).unwrap();
        assert_eq!(s.fingerprint.as_deref(), Some("beef000000000000"));
        assert_eq!(s.results.keys().copied().collect::<Vec<_>>(), vec![1]);
        assert_eq!(s.torn_lines, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_reopens_and_continues() {
        let path = temp_path("append");
        let j = Journal::create(&path, "0123456789abcdef", 2).unwrap();
        j.claim(0).unwrap();
        drop(j);
        let j2 = Journal::open_append(&path).unwrap();
        j2.result(0, "{\"cell\":0,\"outcome\":\"infeasible\"}").unwrap();
        drop(j2);
        let s = scan(&path).unwrap();
        assert_eq!(s.fingerprint.as_deref(), Some("0123456789abcdef"));
        assert_eq!(s.completed(), 1);
        assert_eq!(s.in_flight(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_journal_is_an_error() {
        assert!(scan(Path::new("/nonexistent/atlas.journal")).is_err());
    }
}
