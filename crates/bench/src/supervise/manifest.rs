//! The crash-consistent sweep checkpoint file.
//!
//! Layout: one JSON object per line (JSONL). The first line is a
//! versioned header binding the file to a (harness, campaign)
//! fingerprint; each following line records one finished job:
//!
//! ```text
//! {"manifest":"snake-sweep-manifest","version":1,"fingerprint":"ab12…","jobs":22}
//! {"job":"LPS/snake","state":"completed","attempts":1,"stop":"completed","report":{…}}
//! {"job":"MUM/mta","state":"quarantined","attempts":3,"error":"panic: …"}
//! {"job":"CP/snake","state":"suspended","attempts":1,"cycle":48213,"checkpoint":"sweep.CP-snake.ckpt"}
//! ```
//!
//! Crash consistency:
//!
//! * the header is written to a temp file, fsynced, and atomically
//!   renamed into place — a manifest either exists with a valid header
//!   or not at all;
//! * records are appended with flush + `sync_data` per line, so a
//!   record is durable before its job counts as checkpointed;
//! * a torn final line (the process died mid-append) is tolerated on
//!   load: that job simply re-runs on resume. A malformed line
//!   *before* the tail is corruption and fails the load.
//!
//! Reports round-trip bit-exactly (see [`snake_core::json`]), which is
//! what makes a resumed sweep's rendered output byte-identical to an
//! uninterrupted run.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use snake_core::json::{self, Value};
use snake_core::MechanismReport;

/// The header's `manifest` field — identifies the file format.
pub const MANIFEST_MAGIC: &str = "snake-sweep-manifest";

/// Current manifest format version.
pub const MANIFEST_VERSION: u64 = 1;

/// 64-bit FNV-1a — the fingerprint/seed hash used across the sweep
/// supervisor (stable, dependency-free, not cryptographic).
pub use snake_sim::snapshot::fnv1a64;

/// The manifest's first line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestHeader {
    /// Fingerprint of the (harness, campaign) pair the file belongs to.
    pub fingerprint: String,
    /// Number of jobs in the campaign.
    pub jobs: u64,
}

impl ManifestHeader {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("manifest".into(), Value::str(MANIFEST_MAGIC)),
            ("version".into(), Value::u64(MANIFEST_VERSION)),
            ("fingerprint".into(), Value::str(&self.fingerprint)),
            ("jobs".into(), Value::u64(self.jobs)),
        ])
    }

    fn from_json(v: &Value) -> Result<Self, String> {
        let magic = v
            .get("manifest")
            .and_then(Value::as_str)
            .ok_or("missing \"manifest\" field")?;
        if magic != MANIFEST_MAGIC {
            return Err(format!("not a sweep manifest (magic {magic:?})"));
        }
        let version = v
            .get("version")
            .and_then(Value::as_u64)
            .ok_or("missing \"version\" field")?;
        if version != MANIFEST_VERSION {
            return Err(format!(
                "unsupported manifest version {version} (this build reads {MANIFEST_VERSION})"
            ));
        }
        Ok(ManifestHeader {
            fingerprint: v
                .get("fingerprint")
                .and_then(Value::as_str)
                .ok_or("missing \"fingerprint\" field")?
                .to_string(),
            jobs: v
                .get("jobs")
                .and_then(Value::as_u64)
                .ok_or("missing \"jobs\" field")?,
        })
    }
}

/// One checkpointed job.
//
// The report row dominates the enum's size, but records are transient
// (parsed, matched, dropped one manifest line at a time), so the
// indirection a `Box` would buy is not worth the churn.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum JobRecord {
    /// The job produced a report (including budget-truncated runs).
    Completed {
        /// Job id, `"<abbr>/<mechanism>"`.
        job: String,
        /// Attempts it took.
        attempts: u32,
        /// Stop-reason label (`"completed"`, `"budget_exceeded"`, …).
        stop: String,
        /// The recorded report row.
        report: MechanismReport,
    },
    /// The job exhausted its attempts (or hit a deterministic error).
    Quarantined {
        /// Job id, `"<abbr>/<mechanism>"`.
        job: String,
        /// Attempts made before giving up.
        attempts: u32,
        /// The last failure, human-readable.
        error: String,
        /// Typed crash classification label (`"panic"`, `"signal 11"`,
        /// `"oom"`, `"timeout"`, `"protocol"`); absent for typed
        /// simulator errors, deadlocks, and pre-isolation manifests.
        crash: Option<String>,
        /// Last stderr excerpt from a crashed sandboxed child.
        stderr: Option<String>,
    },
    /// The job was preempted mid-simulation (sweep deadline); its
    /// complete simulator state is durable in the checkpoint file, and
    /// resume restores it instead of re-running from cycle zero.
    Suspended {
        /// Job id, `"<abbr>/<mechanism>"`.
        job: String,
        /// Attempts when it was suspended.
        attempts: u32,
        /// Simulation cycle the state was captured at.
        cycle: u64,
        /// Path of the mid-simulation checkpoint artifact.
        checkpoint: String,
    },
}

impl JobRecord {
    /// The job id this record belongs to.
    pub fn job(&self) -> &str {
        match self {
            JobRecord::Completed { job, .. }
            | JobRecord::Quarantined { job, .. }
            | JobRecord::Suspended { job, .. } => job,
        }
    }

    /// Serializes to one compact JSON line (no trailing newline).
    pub fn to_json(&self) -> Value {
        match self {
            JobRecord::Completed {
                job,
                attempts,
                stop,
                report,
            } => Value::Obj(vec![
                ("job".into(), Value::str(job)),
                ("state".into(), Value::str("completed")),
                ("attempts".into(), Value::u64(u64::from(*attempts))),
                ("stop".into(), Value::str(stop)),
                ("report".into(), report.to_json()),
            ]),
            JobRecord::Quarantined {
                job,
                attempts,
                error,
                crash,
                stderr,
            } => {
                let mut fields = vec![
                    ("job".into(), Value::str(job)),
                    ("state".into(), Value::str("quarantined")),
                    ("attempts".into(), Value::u64(u64::from(*attempts))),
                    ("error".into(), Value::str(error)),
                ];
                // Optional fields are omitted entirely when absent, so
                // pre-isolation manifests stay byte-identical.
                if let Some(kind) = crash {
                    fields.push(("crash".into(), Value::str(kind)));
                }
                if let Some(excerpt) = stderr {
                    fields.push(("stderr".into(), Value::str(excerpt)));
                }
                Value::Obj(fields)
            }
            JobRecord::Suspended {
                job,
                attempts,
                cycle,
                checkpoint,
            } => Value::Obj(vec![
                ("job".into(), Value::str(job)),
                ("state".into(), Value::str("suspended")),
                ("attempts".into(), Value::u64(u64::from(*attempts))),
                ("cycle".into(), Value::u64(*cycle)),
                ("checkpoint".into(), Value::str(checkpoint)),
            ]),
        }
    }

    /// Parses one record line.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or missing field.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let job = v
            .get("job")
            .and_then(Value::as_str)
            .ok_or("missing \"job\" field")?
            .to_string();
        let attempts = v
            .get("attempts")
            .and_then(Value::as_u32)
            .ok_or("missing \"attempts\" field")?;
        match v.get("state").and_then(Value::as_str) {
            Some("completed") => Ok(JobRecord::Completed {
                job,
                attempts,
                stop: v
                    .get("stop")
                    .and_then(Value::as_str)
                    .ok_or("missing \"stop\" field")?
                    .to_string(),
                report: MechanismReport::from_json(
                    v.get("report").ok_or("missing \"report\" field")?,
                )?,
            }),
            Some("quarantined") => Ok(JobRecord::Quarantined {
                job,
                attempts,
                error: v
                    .get("error")
                    .and_then(Value::as_str)
                    .ok_or("missing \"error\" field")?
                    .to_string(),
                crash: v.get("crash").and_then(Value::as_str).map(str::to_string),
                stderr: v.get("stderr").and_then(Value::as_str).map(str::to_string),
            }),
            Some("suspended") => Ok(JobRecord::Suspended {
                job,
                attempts,
                cycle: v
                    .get("cycle")
                    .and_then(Value::as_u64)
                    .ok_or("missing \"cycle\" field")?,
                checkpoint: v
                    .get("checkpoint")
                    .and_then(Value::as_str)
                    .ok_or("missing \"checkpoint\" field")?
                    .to_string(),
            }),
            Some(other) => Err(format!("unknown record state {other:?}")),
            None => Err("missing \"state\" field".into()),
        }
    }
}

/// A failure reading or writing a manifest.
#[derive(Debug)]
pub enum ManifestError {
    /// File-system failure.
    Io {
        /// The manifest path involved.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The header or a non-tail record is malformed.
    Malformed {
        /// The manifest path involved.
        path: String,
        /// 1-based line number of the bad line.
        line: usize,
        /// What was wrong with it.
        why: String,
    },
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::Io { path, source } => write!(f, "{path}: {source}"),
            ManifestError::Malformed { path, line, why } => {
                write!(f, "{path}:{line}: malformed manifest: {why}")
            }
        }
    }
}

impl std::error::Error for ManifestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ManifestError::Io { source, .. } => Some(source),
            ManifestError::Malformed { .. } => None,
        }
    }
}

/// Heals a torn final line in an append-mode JSONL file: if the file
/// does not end in a newline (the writer died mid-append), everything
/// after the last complete line is truncated away and the truncation
/// is made durable. Shared by the sweep manifest and the daemon state
/// journal, whose crash-consistency rules are identical.
///
/// # Errors
///
/// Returns the underlying [`std::io::Error`] when the file cannot be
/// read or truncated.
pub fn truncate_torn_tail(path: &Path) -> Result<(), std::io::Error> {
    let bytes = std::fs::read(path)?;
    if !bytes.is_empty() && bytes.last() != Some(&b'\n') {
        let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1) as u64;
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(keep)?;
        f.sync_all()?;
    }
    Ok(())
}

/// Append handle on a manifest whose header is already durable.
#[derive(Debug)]
pub struct ManifestWriter {
    path: PathBuf,
    file: File,
}

impl ManifestWriter {
    /// Creates a fresh manifest: header written to `<path>.tmp`,
    /// fsynced, then renamed into place — so a crash during creation
    /// never leaves a half-written header at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`ManifestError::Io`] on any file-system failure.
    pub fn create(path: &Path, header: &ManifestHeader) -> Result<Self, ManifestError> {
        let io_err = |source| ManifestError::Io {
            path: path.display().to_string(),
            source,
        };
        let tmp = path.with_file_name(format!(
            "{}.tmp",
            path.file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| "manifest".into())
        ));
        let mut f = File::create(&tmp).map_err(io_err)?;
        writeln!(f, "{}", header.to_json()).map_err(io_err)?;
        f.sync_all().map_err(io_err)?;
        drop(f);
        std::fs::rename(&tmp, path).map_err(io_err)?;
        Self::append_to(path)
    }

    /// Opens an existing manifest for appending (resume).
    ///
    /// A torn final line (crash mid-append) is truncated away first —
    /// [`load`] already ignores it, and truncating keeps a new record
    /// from being glued onto the partial bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ManifestError::Io`] when the file cannot be opened or
    /// the torn tail cannot be truncated.
    pub fn append_to(path: &Path) -> Result<Self, ManifestError> {
        let io_err = |source| ManifestError::Io {
            path: path.display().to_string(),
            source,
        };
        truncate_torn_tail(path).map_err(io_err)?;
        let file = OpenOptions::new().append(true).open(path).map_err(io_err)?;
        Ok(ManifestWriter {
            path: path.to_path_buf(),
            file,
        })
    }

    /// Appends one record and makes it durable (flush + `sync_data`)
    /// before returning — after this, the job is checkpointed.
    ///
    /// # Errors
    ///
    /// Returns [`ManifestError::Io`] on any write or sync failure.
    pub fn append(&mut self, record: &JobRecord) -> Result<(), ManifestError> {
        let io_err = |source| ManifestError::Io {
            path: self.path.display().to_string(),
            source,
        };
        writeln!(self.file, "{}", record.to_json()).map_err(io_err)?;
        self.file.flush().map_err(io_err)?;
        self.file.sync_data().map_err(io_err)
    }

    /// The manifest's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// A successfully loaded manifest.
#[derive(Debug)]
pub struct LoadedManifest {
    /// The validated header.
    pub header: ManifestHeader,
    /// Every intact record, in file order. A torn final line (crash
    /// mid-append) is silently dropped — that job just re-runs.
    pub records: Vec<JobRecord>,
}

/// Loads and validates a manifest.
///
/// # Errors
///
/// Returns [`ManifestError`] when the file is unreadable, the header
/// is invalid, or a record *before the final line* is malformed.
pub fn load(path: &Path) -> Result<LoadedManifest, ManifestError> {
    let text = std::fs::read_to_string(path).map_err(|source| ManifestError::Io {
        path: path.display().to_string(),
        source,
    })?;
    let malformed = |line, why: String| ManifestError::Malformed {
        path: path.display().to_string(),
        line,
        why,
    };
    let mut lines = text.lines().enumerate();
    let (_, header_line) = lines
        .next()
        .ok_or_else(|| malformed(1, "empty manifest".into()))?;
    let header = json::parse(header_line)
        .map_err(|e| e.to_string())
        .and_then(|v| ManifestHeader::from_json(&v))
        .map_err(|why| malformed(1, why))?;
    let mut records = Vec::new();
    let rest: Vec<(usize, &str)> = lines.filter(|(_, l)| !l.trim().is_empty()).collect();
    let last_idx = rest.len();
    for (n, (line_no, line)) in rest.into_iter().enumerate() {
        let parsed = json::parse(line)
            .map_err(|e| e.to_string())
            .and_then(|v| JobRecord::from_json(&v));
        match parsed {
            Ok(rec) => records.push(rec),
            // A bad final line is a torn append from a crash: drop it.
            Err(_) if n + 1 == last_idx => break,
            Err(why) => return Err(malformed(line_no + 1, why)),
        }
    }
    Ok(LoadedManifest { header, records })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("snake-manifest-{}-{name}", std::process::id()))
    }

    fn sample_report() -> MechanismReport {
        MechanismReport {
            mechanism: "snake".into(),
            app: "lps".into(),
            ipc: 1.0 / 3.0,
            coverage: 0.8,
            accuracy: 0.75,
            precision: 0.9,
            l1_hit_rate: 0.7,
            reservation_fail_rate: 0.1,
            noc_utilization: 0.3,
            memory_stall_fraction: 0.5,
            energy_j: 1e-3,
            cycles: 123_456_789_012_345,
            timeliness_p50: 40,
            timeliness_p90: 90,
            evicted_unused: 3,
            stall_issued: 1.0 / 7.0,
            stall_no_warp: 0.05,
            stall_barrier: 0.1,
            stall_scoreboard: 0.05,
            stall_mem_data: 0.4,
            stall_mem_mshr: 0.15,
            stall_mem_missq: 0.08,
            stall_mem_noc: 0.02,
        }
    }

    #[test]
    fn round_trips_header_and_records() {
        let path = tmp_path("roundtrip.jsonl");
        let _ = std::fs::remove_file(&path);
        let header = ManifestHeader {
            fingerprint: "deadbeefdeadbeef".into(),
            jobs: 2,
        };
        let completed = JobRecord::Completed {
            job: "LPS/snake".into(),
            attempts: 2,
            stop: "completed".into(),
            report: sample_report(),
        };
        let quarantined = JobRecord::Quarantined {
            job: "MUM/mta".into(),
            attempts: 3,
            error: "panic: boom".into(),
            crash: Some("signal 11".into()),
            stderr: Some("Segmentation fault".into()),
        };
        let suspended = JobRecord::Suspended {
            job: "CP/snake".into(),
            attempts: 1,
            cycle: 48_213,
            checkpoint: "sweep.CP-snake.ckpt".into(),
        };
        {
            let mut w = ManifestWriter::create(&path, &header).unwrap();
            w.append(&completed).unwrap();
            w.append(&quarantined).unwrap();
            w.append(&suspended).unwrap();
        }
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.header, header);
        assert_eq!(loaded.records, vec![completed, quarantined, suspended]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_but_midfile_corruption_is_fatal() {
        let path = tmp_path("torn.jsonl");
        let header = ManifestHeader {
            fingerprint: "f".into(),
            jobs: 3,
        };
        let rec = JobRecord::Quarantined {
            job: "CP/mta".into(),
            attempts: 1,
            error: "e".into(),
            crash: None,
            stderr: None,
        };
        {
            let mut w = ManifestWriter::create(&path, &header).unwrap();
            w.append(&rec).unwrap();
        }
        // Simulate a crash mid-append: a truncated record on the tail.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"job\":\"LPS/sn").unwrap();
        }
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.records, vec![rec.clone()]);

        // The same garbage in the middle of the file is corruption.
        std::fs::write(
            &path,
            format!(
                "{}\n{{\"job\":\"LPS/sn\n{}\n",
                ManifestHeader {
                    fingerprint: "f".into(),
                    jobs: 3
                }
                .to_json(),
                rec.to_json()
            ),
        )
        .unwrap();
        let err = load(&path).unwrap_err();
        assert!(
            matches!(err, ManifestError::Malformed { line: 2, .. }),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_to_heals_a_torn_tail() {
        let path = tmp_path("heal.jsonl");
        let _ = std::fs::remove_file(&path);
        let header = ManifestHeader {
            fingerprint: "f".into(),
            jobs: 2,
        };
        let first = JobRecord::Quarantined {
            job: "CP/mta".into(),
            attempts: 1,
            error: "e".into(),
            crash: None,
            stderr: None,
        };
        {
            let mut w = ManifestWriter::create(&path, &header).unwrap();
            w.append(&first).unwrap();
        }
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"job\":\"LPS/sn").unwrap();
        }
        // Resuming must not glue the next record onto the torn bytes.
        let second = JobRecord::Quarantined {
            job: "LPS/snake".into(),
            attempts: 2,
            error: "panic: boom".into(),
            crash: Some("panic".into()),
            stderr: None,
        };
        {
            let mut w = ManifestWriter::append_to(&path).unwrap();
            w.append(&second).unwrap();
        }
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.records, vec![first, second]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let path = tmp_path("magic.jsonl");
        std::fs::write(&path, "{\"manifest\":\"other\",\"version\":1}\n").unwrap();
        assert!(load(&path).is_err());
        std::fs::write(
            &path,
            format!("{{\"manifest\":{MANIFEST_MAGIC:?},\"version\":99,\"fingerprint\":\"f\",\"jobs\":1}}\n"),
        )
        .unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn create_refuses_nothing_but_load_reports_missing_file() {
        let path = tmp_path("missing.jsonl");
        let _ = std::fs::remove_file(&path);
        assert!(matches!(load(&path).unwrap_err(), ManifestError::Io { .. }));
    }

    #[test]
    fn fnv_is_stable() {
        // Reference value for "abc" from the FNV-1a specification.
        assert_eq!(fnv1a64(b"abc"), 0xe71fa2190541574b);
        assert_ne!(fnv1a64(b"abc"), fnv1a64(b"abd"));
    }
}
