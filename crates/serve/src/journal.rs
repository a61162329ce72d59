//! Append-only request journal, and the crash-recovery replay built on
//! it.
//!
//! One JSONL line per event, flushed line-by-line so a killed daemon
//! leaves at most one torn trailing line — which the loader skips by
//! construction (every parse is per-line and a torn line simply fails
//! to parse). The journal answers "what did the daemon admit and
//! finish" after the fact; it is written outside any hot path (one line
//! per submission and one per finished cell, not per cycle).
//!
//! Since version 2 a [`JournalEvent::CellDone`] line carries the full
//! result payload (attempts, cycles, CPI bits, schedule digest), which
//! is everything a wire reply needs — so [`replay_journal`] can rebuild
//! the result cache of a crashed shard from its journal alone, and
//! [`Journal::recover`] reopens the file in append mode (never
//! truncating history) and stamps a [`JournalEvent::Recovered`] marker.
//! Replay is last-write-wins per cell key, tolerates a torn tail, and
//! rejects a wrong-version header loudly rather than guessing at a
//! foreign schema.

use crate::json;
use ccs_core::checkpoint::CheckpointRecord;
use ccs_core::CcsError;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// Journal format version, recorded in the header line. Version 2
/// extended `cell_done` with the result payload that recovery replays;
/// version-1 journals cannot rebuild a cache and are rejected loudly.
/// Version 3 carries digests from `ccs_sim::SimResult::digest` instead
/// of a hash of the result's `Debug` rendering; replaying a version-2
/// journal would mix both definitions in one cache, so it is rejected
/// too.
pub const JOURNAL_VERSION: u64 = 3;

/// One journal event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalEvent {
    /// The daemon started (always the first line).
    Started {
        /// Listen address.
        addr: String,
        /// Worker threads.
        workers: u64,
        /// Admission-queue capacity.
        queue_capacity: u64,
    },
    /// A submission was admitted.
    Admitted {
        /// Monotonic sequence number.
        seq: u64,
        /// Client-chosen submission id.
        id: u64,
        /// Cells in the submission.
        cells: u64,
        /// Of which answered straight from cache.
        cached: u64,
    },
    /// A submission was rejected (busy or draining).
    RejectedEvent {
        /// Monotonic sequence number.
        seq: u64,
        /// Client-chosen submission id.
        id: u64,
        /// Why (`busy` or `draining`).
        reason: String,
    },
    /// An approximate submission was answered with an analytic envelope
    /// (cache miss on an `approx` request; no evaluation happened).
    ApproxServed {
        /// Monotonic sequence number.
        seq: u64,
        /// The cell's key.
        key: String,
    },
    /// A cell finished evaluating. Carries the full result payload so
    /// recovery can rebuild the cache entry bit-identically.
    CellDone {
        /// Monotonic sequence number.
        seq: u64,
        /// The cell's key.
        key: String,
        /// `ok`, `FAILED`, or `TIMEOUT`.
        status: String,
        /// Evaluation attempts the resilient executor spent.
        attempts: u64,
        /// Total cycles of the final schedule (0 unless `ok`).
        cycles: u64,
        /// CPI as raw `f64` bits (0 unless `ok`).
        cpi_bits: u64,
        /// Order-independent schedule digest (0 unless `ok`).
        digest: u64,
        /// The rendered error for non-`ok` cells.
        error: Option<String>,
    },
    /// Drain was requested.
    DrainRequested {
        /// Monotonic sequence number.
        seq: u64,
        /// Cells still in flight at the request.
        pending: u64,
    },
    /// The daemon finished draining and is exiting.
    Drained {
        /// Monotonic sequence number.
        seq: u64,
    },
    /// The daemon restarted and replayed this journal. Everything above
    /// this marker happened in an earlier incarnation.
    Recovered {
        /// Monotonic sequence number.
        seq: u64,
        /// Cache entries rebuilt from `cell_done` lines.
        replayed: u64,
        /// Torn or foreign lines skipped during replay.
        skipped: u64,
    },
}

impl JournalEvent {
    fn encode(&self) -> String {
        let mut out = String::with_capacity(64);
        match self {
            JournalEvent::Started {
                addr,
                workers,
                queue_capacity,
            } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"started\",\"journal\":{JOURNAL_VERSION},\"addr\":{},\
                     \"workers\":{workers},\"queue_capacity\":{queue_capacity}}}",
                    json::quoted(addr),
                );
            }
            JournalEvent::Admitted {
                seq,
                id,
                cells,
                cached,
            } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"admitted\",\"seq\":{seq},\"id\":{id},\
                     \"cells\":{cells},\"cached\":{cached}}}",
                );
            }
            JournalEvent::RejectedEvent { seq, id, reason } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"rejected\",\"seq\":{seq},\"id\":{id},\"reason\":{}}}",
                    json::quoted(reason),
                );
            }
            JournalEvent::ApproxServed { seq, key } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"approx\",\"seq\":{seq},\"key\":{}}}",
                    json::quoted(key),
                );
            }
            JournalEvent::CellDone {
                seq,
                key,
                status,
                attempts,
                cycles,
                cpi_bits,
                digest,
                error,
            } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"cell_done\",\"seq\":{seq},\"key\":{},\"status\":{},\
                     \"attempts\":{attempts},\"cycles\":{cycles},\
                     \"cpi_bits\":{cpi_bits},\"digest\":{digest}",
                    json::quoted(key),
                    json::quoted(status),
                );
                if let Some(e) = error {
                    let _ = write!(out, ",\"error\":{}", json::quoted(e));
                }
                out.push('}');
            }
            JournalEvent::DrainRequested { seq, pending } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"drain_requested\",\"seq\":{seq},\"pending\":{pending}}}",
                );
            }
            JournalEvent::Drained { seq } => {
                let _ = write!(out, "{{\"event\":\"drained\",\"seq\":{seq}}}");
            }
            JournalEvent::Recovered {
                seq,
                replayed,
                skipped,
            } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"recovered\",\"seq\":{seq},\
                     \"replayed\":{replayed},\"skipped\":{skipped}}}",
                );
            }
        }
        out
    }

    /// Parses one journal line.
    ///
    /// # Errors
    ///
    /// [`CcsError::Protocol`] for unknown or incomplete lines (a torn
    /// trailing line from a killed daemon lands here).
    pub fn decode(line: &str) -> Result<JournalEvent, CcsError> {
        let bad = |what: &str| CcsError::Protocol {
            message: format!("journal line {what}: {line:?}"),
        };
        // A record cut mid-write can still satisfy the lenient field
        // scanners below — worst case with a *truncated trailing
        // number*. Requiring the closing brace rejects torn lines
        // before any field is trusted.
        if !line.trim_end().ends_with('}') {
            return Err(bad("is truncated"));
        }
        let event = json::str_field(line, "event").ok_or_else(|| bad("missing event"))?;
        let num = |name: &str| json::u64_field(line, name).ok_or_else(|| bad("missing field"));
        match event.as_str() {
            "started" => Ok(JournalEvent::Started {
                addr: json::str_field(line, "addr").ok_or_else(|| bad("missing addr"))?,
                workers: num("workers")?,
                queue_capacity: num("queue_capacity")?,
            }),
            "admitted" => Ok(JournalEvent::Admitted {
                seq: num("seq")?,
                id: num("id")?,
                cells: num("cells")?,
                cached: num("cached")?,
            }),
            "rejected" => Ok(JournalEvent::RejectedEvent {
                seq: num("seq")?,
                id: num("id")?,
                reason: json::str_field(line, "reason").ok_or_else(|| bad("missing reason"))?,
            }),
            "approx" => Ok(JournalEvent::ApproxServed {
                seq: num("seq")?,
                key: json::str_field(line, "key").ok_or_else(|| bad("missing key"))?,
            }),
            "cell_done" => Ok(JournalEvent::CellDone {
                seq: num("seq")?,
                key: json::str_field(line, "key").ok_or_else(|| bad("missing key"))?,
                status: json::str_field(line, "status").ok_or_else(|| bad("missing status"))?,
                attempts: num("attempts")?,
                cycles: num("cycles")?,
                cpi_bits: num("cpi_bits")?,
                digest: num("digest")?,
                error: json::opt_str_field(line, "error").flatten(),
            }),
            "drain_requested" => Ok(JournalEvent::DrainRequested {
                seq: num("seq")?,
                pending: num("pending")?,
            }),
            "drained" => Ok(JournalEvent::Drained { seq: num("seq")? }),
            "recovered" => Ok(JournalEvent::Recovered {
                seq: num("seq")?,
                replayed: num("replayed")?,
                skipped: num("skipped")?,
            }),
            _ => Err(bad("unknown event")),
        }
    }
}

/// The daemon's append-only journal writer.
pub struct Journal {
    inner: Mutex<JournalInner>,
    path: PathBuf,
}

struct JournalInner {
    file: File,
    seq: u64,
}

impl Journal {
    /// Creates (truncating) the journal at `path` and writes the header
    /// line.
    ///
    /// # Errors
    ///
    /// [`CcsError::Checkpoint`] when the file cannot be created or
    /// written.
    pub fn create(
        path: impl Into<PathBuf>,
        addr: &str,
        workers: usize,
        queue_capacity: usize,
    ) -> Result<Journal, CcsError> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| CcsError::Checkpoint {
                    path: parent.display().to_string(),
                    message: e.to_string(),
                })?;
            }
        }
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| CcsError::Checkpoint {
                path: path.display().to_string(),
                message: e.to_string(),
            })?;
        let journal = Journal {
            inner: Mutex::new(JournalInner { file, seq: 0 }),
            path,
        };
        journal.append(JournalEvent::Started {
            addr: addr.to_string(),
            workers: workers as u64,
            queue_capacity: queue_capacity as u64,
        });
        Ok(journal)
    }

    /// Reopens an existing journal for crash recovery: replays it (see
    /// [`replay_journal`]), then opens the file in **append** mode —
    /// history is never truncated — resumes the sequence counter past
    /// the highest replayed event, and stamps a
    /// [`JournalEvent::Recovered`] marker. A missing file is not a
    /// crash; it falls back to [`Journal::create`] with an empty
    /// [`ReplayState`].
    ///
    /// # Errors
    ///
    /// [`CcsError::Checkpoint`] when the journal exists but cannot be
    /// replayed (unreadable, headerless, or a foreign version) or the
    /// file cannot be reopened.
    pub fn recover(
        path: impl Into<PathBuf>,
        addr: &str,
        workers: usize,
        queue_capacity: usize,
    ) -> Result<(Journal, ReplayState), CcsError> {
        let path = path.into();
        if !path.exists() {
            let journal = Journal::create(&path, addr, workers, queue_capacity)?;
            return Ok((journal, ReplayState::default()));
        }
        let state = replay_journal(&path)?;
        let file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| CcsError::Checkpoint {
                path: path.display().to_string(),
                message: e.to_string(),
            })?;
        let journal = Journal {
            inner: Mutex::new(JournalInner {
                file,
                seq: state.max_seq + 1,
            }),
            path,
        };
        journal.append(JournalEvent::Recovered {
            seq: 0,
            replayed: state.records.len() as u64,
            skipped: state.skipped,
        });
        Ok((journal, state))
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The next sequence number (what the next event will carry).
    pub fn next_seq(&self) -> u64 {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).seq
    }

    /// Appends one event, stamping its sequence number, and flushes the
    /// line. Write failures are swallowed: the journal is an audit
    /// trail, and a full disk must not take the daemon down with it.
    pub fn append(&self, mut event: JournalEvent) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let seq = inner.seq;
        inner.seq += 1;
        match &mut event {
            JournalEvent::Started { .. } => {}
            JournalEvent::Admitted { seq: s, .. }
            | JournalEvent::RejectedEvent { seq: s, .. }
            | JournalEvent::ApproxServed { seq: s, .. }
            | JournalEvent::CellDone { seq: s, .. }
            | JournalEvent::DrainRequested { seq: s, .. }
            | JournalEvent::Drained { seq: s }
            | JournalEvent::Recovered { seq: s, .. } => *s = seq,
        }
        let mut line = event.encode();
        line.push('\n');
        let _ = inner.file.write_all(line.as_bytes());
        let _ = inner.file.flush();
    }
}

/// Loads every parseable event from a journal file, skipping (and
/// counting) torn or foreign lines.
///
/// # Errors
///
/// [`CcsError::Checkpoint`] when the file cannot be read at all.
pub fn load_journal(path: &Path) -> Result<(Vec<JournalEvent>, usize), CcsError> {
    let file = File::open(path).map_err(|e| CcsError::Checkpoint {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    let mut events = Vec::new();
    let mut skipped = 0usize;
    for line in BufReader::new(file).lines() {
        let line = line.map_err(|e| CcsError::Checkpoint {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        if line.trim().is_empty() {
            continue;
        }
        match JournalEvent::decode(&line) {
            Ok(ev) => events.push(ev),
            Err(_) => skipped += 1,
        }
    }
    Ok((events, skipped))
}

/// What a journal replay reconstructed about a crashed daemon.
#[derive(Debug, Clone, Default)]
pub struct ReplayState {
    /// Finished-cell records, last-write-wins per key, in first-seen
    /// key order. `"ok"` records carry everything the result cache
    /// needs for a bit-identical wire reply.
    pub records: Vec<CheckpointRecord>,
    /// Cells admitted across the journal's lifetime (includes cache
    /// hits, which never produce a `cell_done` line).
    pub admitted: u64,
    /// Of the admitted cells, how many were answered from cache at
    /// admission time.
    pub cached: u64,
    /// `cell_done` lines seen (any status, before deduplication).
    pub done: u64,
    /// Torn or foreign lines skipped.
    pub skipped: u64,
    /// Whether the journal ends with a clean `drained` marker (false ⇒
    /// the previous incarnation crashed or was killed).
    pub drained: bool,
    /// Highest sequence number seen, so a recovered journal can keep
    /// numbering monotonically.
    pub max_seq: u64,
}

impl ReplayState {
    /// Admitted cells with no recorded outcome: work the crash ate.
    /// The campaign layer re-places these via client failover; they are
    /// reported so the loss is visible, not silent.
    pub fn lost_in_flight(&self) -> u64 {
        self.admitted.saturating_sub(self.cached + self.done)
    }
}

/// Replays a journal for crash recovery: validates the header version,
/// then folds every `cell_done` line into a last-write-wins record map.
///
/// # Errors
///
/// [`CcsError::Checkpoint`] when the file cannot be read, has no
/// parseable header line, or — loudly, rather than misreading a foreign
/// schema — carries a `"journal"` version other than
/// [`JOURNAL_VERSION`].
pub fn replay_journal(path: &Path) -> Result<ReplayState, CcsError> {
    let fail = |message: String| CcsError::Checkpoint {
        path: path.display().to_string(),
        message,
    };
    let file = File::open(path).map_err(|e| fail(e.to_string()))?;
    let mut state = ReplayState::default();
    let mut by_key: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    let mut header_seen = false;
    for line in BufReader::new(file).lines() {
        let line = line.map_err(|e| fail(e.to_string()))?;
        if line.trim().is_empty() {
            continue;
        }
        if !header_seen {
            // The header is written and flushed before the daemon
            // serves anything; a journal whose first line is not a
            // current-version `started` event is not ours to replay.
            let version = json::u64_field(&line, "journal");
            match (JournalEvent::decode(&line), version) {
                (Ok(JournalEvent::Started { .. }), Some(v)) if v == JOURNAL_VERSION => {
                    header_seen = true;
                    continue;
                }
                (Ok(JournalEvent::Started { .. }), Some(v)) => {
                    return Err(fail(format!(
                        "journal version {v} is not replayable (expected {JOURNAL_VERSION}); \
                         refusing to rebuild a cache from a foreign schema"
                    )));
                }
                _ => {
                    return Err(fail(format!(
                        "journal does not start with a version-{JOURNAL_VERSION} header line"
                    )));
                }
            }
        }
        match JournalEvent::decode(&line) {
            Ok(ev) => {
                match &ev {
                    JournalEvent::Started { .. } => {}
                    JournalEvent::Admitted {
                        seq, cells, cached, ..
                    } => {
                        state.admitted += cells;
                        state.cached += cached;
                        state.max_seq = state.max_seq.max(*seq);
                    }
                    JournalEvent::CellDone {
                        seq,
                        key,
                        status,
                        attempts,
                        cycles,
                        cpi_bits,
                        digest,
                        error,
                    } => {
                        state.done += 1;
                        state.max_seq = state.max_seq.max(*seq);
                        let record = CheckpointRecord {
                            key: key.clone(),
                            status: status.clone(),
                            attempts: u32::try_from(*attempts).unwrap_or(u32::MAX),
                            cycles: *cycles,
                            cpi_bits: *cpi_bits,
                            digest: *digest,
                            metrics_digest: None,
                            predicted_lo: None,
                            predicted_hi: None,
                            error: error.clone(),
                        };
                        match by_key.get(key) {
                            Some(&at) => state.records[at] = record,
                            None => {
                                by_key.insert(key.clone(), state.records.len());
                                state.records.push(record);
                            }
                        }
                    }
                    JournalEvent::RejectedEvent { seq, .. }
                    | JournalEvent::ApproxServed { seq, .. }
                    | JournalEvent::DrainRequested { seq, .. }
                    | JournalEvent::Recovered { seq, .. } => {
                        state.max_seq = state.max_seq.max(*seq);
                    }
                    JournalEvent::Drained { seq } => {
                        state.max_seq = state.max_seq.max(*seq);
                    }
                }
                state.drained = matches!(ev, JournalEvent::Drained { .. });
            }
            Err(_) => {
                state.skipped += 1;
                state.drained = false;
            }
        }
    }
    if !header_seen {
        return Err(fail(format!(
            "journal does not start with a version-{JOURNAL_VERSION} header line"
        )));
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ccs-serve-journal-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn events_round_trip_through_the_file() {
        let path = tmp("roundtrip");
        let journal = Journal::create(&path, "127.0.0.1:0", 4, 256).unwrap();
        journal.append(JournalEvent::Admitted {
            seq: 0,
            id: 7,
            cells: 3,
            cached: 1,
        });
        journal.append(JournalEvent::CellDone {
            seq: 0,
            key: "vpr/s1/n2000/4x2w/Focused/abc".into(),
            status: "ok".into(),
            attempts: 1,
            cycles: 4321,
            cpi_bits: 0x3ff4_0000_0000_0000,
            digest: 0xdead_beef,
            error: None,
        });
        journal.append(JournalEvent::ApproxServed {
            seq: 0,
            key: "vpr/s1/n2000/4x2w/Focused/def".into(),
        });
        journal.append(JournalEvent::DrainRequested { seq: 0, pending: 2 });
        journal.append(JournalEvent::Drained { seq: 0 });
        let (events, skipped) = load_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(skipped, 0);
        assert_eq!(events.len(), 6);
        assert!(matches!(
            events[0],
            JournalEvent::Started { workers: 4, queue_capacity: 256, .. }
        ));
        // Sequence numbers are stamped by the journal, in order.
        assert!(matches!(events[1], JournalEvent::Admitted { seq: 1, id: 7, cells: 3, cached: 1 }));
        assert!(matches!(
            &events[2],
            JournalEvent::CellDone { seq: 2, cycles: 4321, digest: 0xdead_beef, error: None, .. }
        ));
        assert!(matches!(events[3], JournalEvent::ApproxServed { seq: 3, .. }));
        assert!(matches!(events[5], JournalEvent::Drained { seq: 5 }));
    }

    fn done(key: &str, status: &str, cycles: u64) -> JournalEvent {
        JournalEvent::CellDone {
            seq: 0,
            key: key.into(),
            status: status.into(),
            attempts: 1,
            cycles,
            cpi_bits: cycles.wrapping_mul(3),
            digest: cycles.wrapping_mul(7),
            error: (status != "ok").then(|| "sim: deadlock".to_string()),
        }
    }

    #[test]
    fn replay_rebuilds_records_last_write_wins() {
        let path = tmp("replay");
        {
            let journal = Journal::create(&path, "addr", 2, 64).unwrap();
            journal.append(JournalEvent::Admitted {
                seq: 0,
                id: 1,
                cells: 4,
                cached: 1,
            });
            journal.append(done("cell/a", "ok", 100));
            journal.append(done("cell/b", "TIMEOUT", 0));
            // The same key finishing again (e.g. resubmitted after an
            // eviction) must supersede the earlier line.
            journal.append(done("cell/a", "ok", 100));
            journal.append(done("cell/b", "ok", 200));
        }
        let state = replay_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(state.admitted, 4);
        assert_eq!(state.cached, 1);
        assert_eq!(state.done, 4);
        assert_eq!(state.skipped, 0);
        assert!(!state.drained, "no drained marker ⇒ crash semantics");
        assert_eq!(state.records.len(), 2, "two distinct keys");
        assert_eq!(state.records[0].key, "cell/a");
        assert_eq!(state.records[1].key, "cell/b");
        assert_eq!(state.records[1].status, "ok", "last write wins");
        assert_eq!(state.records[1].cycles, 200);
        assert_eq!(state.lost_in_flight(), 0, "4 admitted = 1 cached + 3 unique done + 1 dup");
    }

    #[test]
    fn replay_tolerates_a_torn_tail_and_counts_losses() {
        let path = tmp("replay-torn");
        {
            let journal = Journal::create(&path, "addr", 1, 8).unwrap();
            journal.append(JournalEvent::Admitted {
                seq: 0,
                id: 9,
                cells: 3,
                cached: 0,
            });
            journal.append(done("cell/x", "ok", 42));
        }
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"event\":\"cell_done\",\"seq\":3,\"key\":\"cell/y\",\"sta").unwrap();
        drop(f);
        let state = replay_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(state.records.len(), 1);
        assert_eq!(state.skipped, 1, "the torn line is skipped, not fatal");
        assert_eq!(state.lost_in_flight(), 2, "cell/y (torn) and the never-finished third cell");
    }

    #[test]
    fn replay_rejects_wrong_version_and_headerless_files_loudly() {
        let path = tmp("replay-v1");
        std::fs::write(
            &path,
            "{\"event\":\"started\",\"journal\":1,\"addr\":\"a\",\"workers\":1,\
             \"queue_capacity\":8}\n",
        )
        .unwrap();
        let err = replay_journal(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(
            err.to_string().contains("version 1"),
            "must name the offending version: {err}"
        );

        let path = tmp("replay-v2");
        std::fs::write(
            &path,
            "{\"event\":\"started\",\"journal\":2,\"addr\":\"a\",\"workers\":1,\
             \"queue_capacity\":8}\n",
        )
        .unwrap();
        let err = replay_journal(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(
            err.to_string().contains("version 2"),
            "digests of another definition must not replay: {err}"
        );

        let path = tmp("replay-headerless");
        std::fs::write(&path, "{\"event\":\"drained\",\"seq\":4}\n").unwrap();
        let err = replay_journal(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.to_string().contains("header"), "{err}");
    }

    #[test]
    fn recover_appends_without_truncating_and_resumes_seq() {
        let path = tmp("recover");
        {
            let journal = Journal::create(&path, "addr", 2, 64).unwrap();
            journal.append(done("cell/a", "ok", 7));
        }
        let (journal, state) = Journal::recover(&path, "addr", 2, 64).unwrap();
        assert_eq!(state.records.len(), 1);
        journal.append(done("cell/b", "ok", 8));
        drop(journal);
        let (events, skipped) = load_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(skipped, 0);
        // started, cell_done, recovered, cell_done — history intact.
        assert_eq!(events.len(), 4);
        assert!(matches!(
            events[2],
            JournalEvent::Recovered { seq: 2, replayed: 1, skipped: 0 }
        ));
        assert!(matches!(events[3], JournalEvent::CellDone { seq: 3, .. }));
    }

    #[test]
    fn recover_of_a_missing_journal_is_a_fresh_start() {
        let path = tmp("recover-fresh");
        std::fs::remove_file(&path).ok();
        let (journal, state) = Journal::recover(&path, "addr", 1, 8).unwrap();
        assert!(state.records.is_empty());
        drop(journal);
        let (events, _) = load_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(matches!(events[0], JournalEvent::Started { .. }));
    }

    #[test]
    fn torn_trailing_line_is_skipped_not_fatal() {
        let path = tmp("torn");
        {
            let journal = Journal::create(&path, "addr", 1, 8).unwrap();
            journal.append(JournalEvent::Admitted {
                seq: 0,
                id: 1,
                cells: 1,
                cached: 0,
            });
        }
        // Simulate a kill mid-write: append half a line.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"event\":\"cell_done\",\"seq\":2,\"ke").unwrap();
        drop(f);
        let (events, skipped) = load_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(events.len(), 2);
        assert_eq!(skipped, 1);
    }
}
