//! The durable job journal: an append-only, fsync'd record log that lets
//! the daemon survive `kill -9`.
//!
//! Every admission decision and every terminal transition is written as
//! one *frame* — a 4-byte little-endian payload length, an 8-byte
//! little-endian FNV-1a checksum of the payload, and a JSON payload —
//! and `fdatasync`'d **before** the caller acts on it (the submit ack is
//! only sent after the `Submit` record is durable). That discipline makes
//! the set of possible crash images exactly the set of journal prefixes,
//! which is what the torture tests exploit: truncating a journal at every
//! byte boundary enumerates every state a `kill -9` can leave behind.
//!
//! Replay ([`decode_records`]) walks frames from the start and stops at
//! the first torn or checksum-invalid frame — a crash artifact, not an
//! error — reporting how much of the file was valid so the opener can
//! truncate the tail. A frame whose checksum *matches* but whose payload
//! does not decode is different: that is version skew or an outside
//! writer, and replay fails with a typed [`JournalError::Corrupt`]
//! instead of silently dropping records. Replay never panics and never
//! fabricates a record that was not written.
//!
//! Compaction ([`Journal::rewrite`]) renders the live state back to a
//! fresh log via the write-temp / fsync / rename / fsync-dir dance, so a
//! crash mid-compaction leaves either the old journal or the new one,
//! never a mix.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::fingerprint::fnv1a;

/// Frame header size: 4-byte length + 8-byte checksum.
const FRAME_HEADER: usize = 12;

/// Upper bound on one record's payload — a cheap plausibility filter so a
/// torn length field cannot make replay attempt a multi-gigabyte read.
pub const MAX_RECORD_BYTES: usize = 64 * 1024 * 1024;

/// Why a journal operation failed.
#[derive(Debug)]
pub enum JournalError {
    /// An underlying file-system operation failed.
    Io {
        /// Which operation (`open`, `append`, `sync`, …).
        op: &'static str,
        /// The journal path involved.
        path: PathBuf,
        /// The OS error.
        source: std::io::Error,
    },
    /// A checksum-valid record did not decode: version skew or an outside
    /// writer, not a crash artifact (crashes tear checksums).
    Corrupt {
        /// Byte offset of the offending frame.
        offset: u64,
        /// What failed to decode.
        reason: String,
    },
    /// A record failed to encode (a non-finite float reached the journal
    /// — an upstream validation bug, surfaced instead of persisted).
    Encode(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { op, path, source } => {
                write!(f, "journal {op} {}: {source}", path.display())
            }
            JournalError::Corrupt { offset, reason } => {
                write!(f, "journal corrupt at byte {offset}: {reason}")
            }
            JournalError::Encode(msg) => write!(f, "journal encode: {msg}"),
        }
    }
}

impl std::error::Error for JournalError {}

/// The `run` parameters of a journaled run-mode submission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Engine seed.
    pub seed: u64,
    /// Duration-noise coefficient of variation.
    pub exec_cv: f64,
    /// Dispatch policy name.
    pub policy: String,
    /// Recovery policy name.
    pub recovery: String,
    /// Fault script (empty for none).
    pub faults: String,
    /// Observation-driven allocation.
    pub adapt: bool,
}

/// One acknowledged submission. Written (and fsync'd) before the ack goes
/// out, so every job id a client ever saw is recoverable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubmitRecord {
    /// The acked job id.
    pub id: u64,
    /// The job's cache key.
    pub fingerprint: u64,
    /// Submitting tenant.
    pub tenant: String,
    /// The task graph, in `TaskGraph::to_json` form.
    pub graph_json: String,
    /// Cluster size.
    pub procs: u64,
    /// Link bandwidth (MB/s).
    pub bandwidth: f64,
    /// Scheduler name (post-degradation: what will actually run).
    pub algo: String,
    /// `true` when admission degraded the job to the fallback scheduler.
    pub degraded: bool,
    /// Optional per-job budget, milliseconds from (re)admission.
    pub deadline_ms: Option<u64>,
    /// Run-mode parameters, absent for schedule-only jobs.
    pub run: Option<RunRecord>,
}

/// A job reaching `done` or `failed`. Degraded results are excluded from
/// the shared cache, so theirs is the only output carried inline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TerminalRecord {
    /// The job id.
    pub id: u64,
    /// `true` for `done`, `false` for `failed`.
    pub ok: bool,
    /// Whether the result came from the degraded fallback.
    pub degraded: bool,
    /// Failure message for `ok: false`.
    pub error: Option<String>,
    /// Typed failure kind (`scheduler`, `panic`, `deadline`, …).
    pub error_kind: Option<String>,
    /// Inline makespan for results not in the shared cache.
    pub makespan: Option<f64>,
    /// Inline schedule JSON for results not in the shared cache.
    pub result_json: Option<String>,
    /// Inline trace JSON for results not in the shared cache.
    pub trace_json: Option<String>,
}

/// A finished shared-cache entry. Written before the `Terminal` records
/// of the jobs it completes, so a replayed `done` job always finds its
/// output (or, if the crash fell between the two, recomputes it).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheRecord {
    /// The cache key.
    pub fingerprint: u64,
    /// The schedule makespan.
    pub makespan: f64,
    /// The rendered schedule payload.
    pub result_json: String,
    /// The rendered trace payload of run-mode jobs.
    pub trace_json: Option<String>,
}

/// One journal record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Record {
    /// An acknowledged submission.
    Submit(SubmitRecord),
    /// A terminal transition.
    Terminal(TerminalRecord),
    /// A finished shared-cache entry.
    Cache(CacheRecord),
}

/// The result of replaying a journal file.
#[derive(Debug)]
pub struct Replay {
    /// Every decoded record, in write order.
    pub records: Vec<Record>,
    /// Byte length of the valid prefix (where appends may resume).
    pub valid_len: u64,
    /// Whether a torn or checksum-invalid tail was discarded — expected
    /// after a crash mid-append, surfaced for the LM341 diagnostic.
    pub truncated: bool,
}

/// Decodes a journal image into its valid record prefix.
///
/// Framing damage (short header, implausible length, checksum mismatch)
/// ends the prefix — that is what a crash leaves behind. See the module
/// docs for why checksum-valid-but-undecodable payloads fail instead.
///
/// # Errors
/// [`JournalError::Corrupt`] for a checksum-valid record that does not
/// decode as a [`Record`].
pub fn decode_records(bytes: &[u8]) -> Result<Replay, JournalError> {
    let mut records = Vec::new();
    let mut offset = 0usize;
    loop {
        let rest = &bytes[offset..];
        if rest.is_empty() {
            return Ok(Replay {
                records,
                valid_len: offset as u64,
                truncated: false,
            });
        }
        let torn = |records| {
            Ok(Replay {
                records,
                valid_len: offset as u64,
                truncated: true,
            })
        };
        if rest.len() < FRAME_HEADER {
            return torn(records);
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes")) as usize;
        let sum = u64::from_le_bytes(rest[4..12].try_into().expect("8 bytes"));
        if len > MAX_RECORD_BYTES || rest.len() < FRAME_HEADER + len {
            return torn(records);
        }
        let payload = &rest[FRAME_HEADER..FRAME_HEADER + len];
        if fnv1a(payload) != sum {
            return torn(records);
        }
        let text = std::str::from_utf8(payload).map_err(|_| JournalError::Corrupt {
            offset: offset as u64,
            reason: "checksum-valid payload is not UTF-8".into(),
        })?;
        let record: Record = serde_json::from_str(text).map_err(|e| JournalError::Corrupt {
            offset: offset as u64,
            reason: format!("checksum-valid payload does not decode: {e}"),
        })?;
        records.push(record);
        offset += FRAME_HEADER + len;
    }
}

/// Encodes one record as a frame (header + JSON payload).
fn encode_frame(record: &Record) -> Result<Vec<u8>, JournalError> {
    let payload =
        serde_json::to_string_checked(record).map_err(|e| JournalError::Encode(e.to_string()))?;
    let payload = payload.into_bytes();
    if payload.len() > MAX_RECORD_BYTES {
        return Err(JournalError::Encode(format!(
            "record payload is {} bytes (max {MAX_RECORD_BYTES})",
            payload.len()
        )));
    }
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    Ok(frame)
}

/// An open, append-position journal file.
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal").field("path", &self.path).finish()
    }
}

impl Journal {
    fn io<'a>(
        op: &'static str,
        path: &'a Path,
    ) -> impl FnOnce(std::io::Error) -> JournalError + 'a {
        move |source| JournalError::Io {
            op,
            path: path.to_path_buf(),
            source,
        }
    }

    /// Opens (creating if absent) and replays a journal. A torn tail —
    /// the expected residue of a crash mid-append — is truncated away so
    /// subsequent appends extend the valid prefix.
    ///
    /// # Errors
    /// [`JournalError`] on I/O failure or checksum-valid corruption.
    pub fn open(path: &Path) -> Result<(Journal, Replay), JournalError> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(Self::io("read", path)(e)),
        };
        let replay = decode_records(&bytes)?;
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(path)
            .map_err(Self::io("open", path))?;
        if replay.truncated {
            file.set_len(replay.valid_len)
                .map_err(Self::io("truncate", path))?;
            file.sync_all().map_err(Self::io("sync", path))?;
        }
        file.seek(SeekFrom::Start(replay.valid_len))
            .map_err(Self::io("seek", path))?;
        Ok((
            Journal {
                file,
                path: path.to_path_buf(),
            },
            replay,
        ))
    }

    /// Appends one record and `fdatasync`s it. Only after this returns may
    /// the caller act on the record (ack the client, drop the result).
    ///
    /// # Errors
    /// [`JournalError`] on encode or I/O failure; the journal position is
    /// then unspecified but replay still recovers the valid prefix.
    pub fn append(&mut self, record: &Record) -> Result<(), JournalError> {
        let frame = encode_frame(record)?;
        self.file
            .write_all(&frame)
            .map_err(Self::io("append", &self.path))?;
        self.file
            .sync_data()
            .map_err(Self::io("sync", &self.path))?;
        Ok(())
    }

    /// Rewrites the journal to contain exactly `records` (compaction),
    /// crash-safely: temp file, fsync, rename over the old log, fsync the
    /// directory. Returns the reopened, append-position journal.
    ///
    /// # Errors
    /// [`JournalError`] on encode or I/O failure; the previous journal is
    /// intact unless the rename already happened.
    pub fn rewrite(path: &Path, records: &[Record]) -> Result<Journal, JournalError> {
        let file_name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("journal");
        let tmp = path.with_file_name(format!("{file_name}.tmp"));
        {
            let mut file = File::create(&tmp).map_err(Self::io("create", &tmp))?;
            for record in records {
                let frame = encode_frame(record)?;
                file.write_all(&frame).map_err(Self::io("append", &tmp))?;
            }
            file.sync_all().map_err(Self::io("sync", &tmp))?;
        }
        std::fs::rename(&tmp, path).map_err(Self::io("rename", path))?;
        // Make the rename itself durable: fsync the containing directory.
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .truncate(false)
            .open(path)
            .map_err(Self::io("open", path))?;
        let end = file
            .seek(SeekFrom::End(0))
            .map_err(Self::io("seek", path))?;
        debug_assert!(end > 0 || records.is_empty());
        Ok(Journal {
            file,
            path: path.to_path_buf(),
        })
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Submit(SubmitRecord {
                id: 1,
                fingerprint: 0xdead_beef,
                tenant: "alice".into(),
                graph_json: "{\"tasks\":[]}".into(),
                procs: 8,
                bandwidth: 125.0,
                algo: "locmps".into(),
                degraded: false,
                deadline_ms: Some(2_000),
                run: Some(RunRecord {
                    seed: 7,
                    exec_cv: 0.1,
                    policy: "plan".into(),
                    recovery: "remold".into(),
                    faults: String::new(),
                    adapt: true,
                }),
            }),
            Record::Cache(CacheRecord {
                fingerprint: 0xdead_beef,
                makespan: 42.5,
                result_json: "{\"makespan\":42.5}".into(),
                trace_json: None,
            }),
            Record::Terminal(TerminalRecord {
                id: 1,
                ok: true,
                degraded: false,
                error: None,
                error_kind: None,
                makespan: None,
                result_json: None,
                trace_json: None,
            }),
        ]
    }

    fn encoded(records: &[Record]) -> Vec<u8> {
        records
            .iter()
            .flat_map(|r| encode_frame(r).unwrap())
            .collect()
    }

    #[test]
    fn records_roundtrip_through_a_file() {
        let dir = std::env::temp_dir().join(format!("locmps-journal-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.log");
        let _ = std::fs::remove_file(&path);

        let records = sample_records();
        {
            let (mut j, replay) = Journal::open(&path).unwrap();
            assert!(replay.records.is_empty());
            for r in &records {
                j.append(r).unwrap();
            }
        }
        let (_, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.records, records);
        assert!(!replay.truncated);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_truncation_point_recovers_a_prefix() {
        // fsync-before-ack makes crash images exactly journal prefixes, so
        // walking every byte boundary enumerates every possible kill -9.
        let records = sample_records();
        let bytes = encoded(&records);
        let mut seen_full = false;
        for cut in 0..=bytes.len() {
            let replay = decode_records(&bytes[..cut]).unwrap();
            // Never fabricates: the recovered records are a strict prefix.
            assert!(replay.records.len() <= records.len());
            assert_eq!(replay.records[..], records[..replay.records.len()]);
            // The valid prefix is exactly the frames that fit in the cut.
            assert!(replay.valid_len <= cut as u64);
            assert_eq!(replay.truncated, replay.valid_len != cut as u64);
            seen_full |= replay.records.len() == records.len();
        }
        assert!(seen_full, "the full cut must decode everything");
    }

    #[test]
    fn a_torn_tail_is_truncated_on_open_and_appends_resume() {
        let dir = std::env::temp_dir().join(format!("locmps-journal-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.log");
        let _ = std::fs::remove_file(&path);

        let records = sample_records();
        let bytes = encoded(&records);
        // Tear the last frame mid-payload.
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let (mut j, replay) = Journal::open(&path).unwrap();
        assert!(replay.truncated);
        assert_eq!(replay.records.len(), records.len() - 1);
        // Appending after recovery extends the valid prefix cleanly.
        j.append(&records[2]).unwrap();
        drop(j);
        let (_, replay) = Journal::open(&path).unwrap();
        assert!(!replay.truncated);
        assert_eq!(replay.records, records);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checksum_valid_garbage_is_a_typed_error() {
        // A frame whose payload checksums correctly but is not a Record:
        // version skew, not a crash — replay must refuse, not drop it.
        let payload = b"{\"NotARecord\":{}}";
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        match decode_records(&frame) {
            Err(JournalError::Corrupt { offset: 0, .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn rewrite_compacts_to_exactly_the_given_records() {
        let dir = std::env::temp_dir().join(format!("locmps-journal-rw-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.log");
        let _ = std::fs::remove_file(&path);

        let records = sample_records();
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            for r in &records {
                j.append(r).unwrap();
            }
            for r in &records {
                j.append(r).unwrap(); // duplicate bloat to compact away
            }
        }
        let kept = &records[..2];
        let mut j = Journal::rewrite(&path, kept).unwrap();
        j.append(&records[2]).unwrap();
        drop(j);
        let (_, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.records, records);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
