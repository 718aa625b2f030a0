//! Mid-simulation checkpoint/restore: kill-anywhere crash tolerance.
//!
//! A checkpoint captures the **complete** simulator state at a cycle
//! boundary — warp slots, scoreboards, L1 tag arrays, MSHRs, miss and
//! interconnect queues, the memory partition, prefetcher tables, the
//! fault injector's RNG stream position, watchdog progress counters,
//! and the observability accumulators — as one schema-versioned JSON
//! document. The format rides on [`crate::json`]'s lossless number
//! round-trips: a restored run continues on exactly the bit pattern
//! the interrupted run would have used, so the final [`SimOutcome`]
//! is byte-identical to the uninterrupted run's.
//!
//! Durability follows the sweep manifest's discipline: the document
//! is written to a temporary file, fsynced, and atomically renamed
//! into place, so a crash mid-write leaves either the previous
//! checkpoint or none — never a torn one. Loading additionally
//! verifies a checksum over the state payload, so a truncated or
//! corrupted file is rejected with a typed [`SnapshotError`] before
//! any state is applied.
//!
//! What is deliberately **excluded**: host wall-clock profiling
//! ([`crate::perfstat`] measures the machine, not the simulation) and
//! the invariant auditor's scratch state (a validation tool, rebuilt
//! from scratch on resume). See DESIGN.md "Checkpoint/restore".
//!
//! [`SimOutcome`]: crate::SimOutcome

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::io::Write;
use std::path::Path;

use crate::cache::tag_array::ROWS_KEY;
use crate::json::{self, Num, Value};

/// Version of the checkpoint document schema. Bump on any change to
/// the component state layouts; a mismatch on load is a typed error,
/// never a silent misinterpretation.
pub const SNAPSHOT_SCHEMA_VERSION: u64 = 1;

/// First token of every checkpoint file.
const SNAPSHOT_MAGIC: &str = "snake-checkpoint";

/// How deep a checkpoint's state stays a tree: every array or object
/// opened inside this many others in the checkpoint document is held
/// as a [`Value::Raw`] fragment of its text until its own component
/// restores. The document nests `state` (1), then `sms` and each
/// `noc`/`partition` field below it, so each SM and each noc and
/// partition field is one fragment. [`Checkpoint::load`] parses with
/// it and [`Gpu::checkpoint`] saves the same shape, so a checkpoint in
/// memory costs about one byte per byte of its text.
///
/// [`Gpu::checkpoint`]: crate::Gpu::checkpoint
pub const FRAGMENT_DEPTH: usize = 3;

/// A checkpoint artifact: the config/kernel fingerprint it was taken
/// under plus the full simulator state document.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Fingerprint of the configuration + kernel + mechanism the
    /// state belongs to (see [`Gpu::checkpoint`]); restoring under a
    /// different fingerprint is refused.
    ///
    /// [`Gpu::checkpoint`]: crate::Gpu::checkpoint
    pub fingerprint: u64,
    /// The serialized simulator state.
    pub state: Value,
}

/// A typed failure while writing, loading, or applying a checkpoint.
#[derive(Debug)]
#[non_exhaustive]
pub enum SnapshotError {
    /// Reading or writing the checkpoint file failed.
    Io {
        /// The path involved.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The file or a state field is not a valid checkpoint: torn
    /// tail, checksum mismatch, missing or mistyped field.
    Malformed {
        /// What exactly was wrong.
        what: String,
    },
    /// The checkpoint was written by a different schema version.
    SchemaMismatch {
        /// Version found in the file.
        found: u64,
    },
    /// The checkpoint belongs to a different configuration, kernel,
    /// or mechanism than the one it is being restored into.
    ConfigMismatch {
        /// Fingerprint found in the file.
        found: u64,
        /// Fingerprint of the restoring simulation.
        expected: u64,
    },
}

impl SnapshotError {
    /// Convenience constructor for malformed-state errors.
    pub fn malformed(what: impl Into<String>) -> Self {
        SnapshotError::Malformed { what: what.into() }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { path, source } => write!(f, "checkpoint {path}: {source}"),
            SnapshotError::Malformed { what } => write!(f, "malformed checkpoint: {what}"),
            SnapshotError::SchemaMismatch { found } => write!(
                f,
                "checkpoint schema version {found} does not match this binary's \
                 version {SNAPSHOT_SCHEMA_VERSION}"
            ),
            SnapshotError::ConfigMismatch { found, expected } => write!(
                f,
                "checkpoint fingerprint {found:#018x} does not match this \
                 run's configuration/kernel/mechanism fingerprint {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Streaming 64-bit FNV-1a: hashes text as it is formatted into it
/// (`write!(hasher, ...)`), so hashing a large rendering never
/// materializes it. Stable, dependency-free, not cryptographic.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a64 {
    /// Folds `bytes` into the hash.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv1a64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a 64-bit hash of `bytes` — the checkpoint checksum and the
/// fingerprint/seed hash of the sweep supervisor.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::default();
    h.write_bytes(bytes);
    h.finish()
}

impl Checkpoint {
    /// The simulation cycle the state was captured at — what a
    /// recovery supervisor reports when it resurrects a run from this
    /// artifact. Every schema-v1 state document carries the device
    /// cycle at its top level; `None` only for a foreign document.
    pub fn cycle(&self) -> Option<u64> {
        self.state.get("cycle").and_then(Value::as_u64)
    }

    /// Renders the artifact as a single compact JSON document (what
    /// [`write_atomic`] writes, minus the trailing newline). The
    /// payload checksum goes in before the state, so [`from_json`] can
    /// detect any corruption that still parses. The state is rendered
    /// once, into the buffer the document is returned in.
    ///
    /// [`write_atomic`]: Checkpoint::write_atomic
    /// [`from_json`]: Checkpoint::from_json
    pub fn render(&self) -> String {
        let mut doc = self.state.to_string();
        let header = format!(
            "{{\"magic\":\"{SNAPSHOT_MAGIC}\",\"version\":{SNAPSHOT_SCHEMA_VERSION},\
             \"fingerprint\":{},\"crc\":{},\"state\":",
            self.fingerprint,
            fnv1a64(doc.as_bytes())
        );
        doc.reserve_exact(header.len() + 1);
        doc.insert_str(0, &header);
        doc.push('}');
        doc
    }

    /// Rebuilds and validates an artifact from its JSON document.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] on a missing magic/field or a
    /// checksum mismatch; [`SnapshotError::SchemaMismatch`] when the
    /// document was written by a different schema version.
    pub fn from_json(mut v: Value) -> Result<Self, SnapshotError> {
        let magic = v
            .get("magic")
            .and_then(Value::as_str)
            .ok_or_else(|| SnapshotError::malformed("missing magic"))?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::malformed(format!(
                "magic {magic:?} is not {SNAPSHOT_MAGIC:?}"
            )));
        }
        let version = u64_field(&v, "version")?;
        if version != SNAPSHOT_SCHEMA_VERSION {
            return Err(SnapshotError::SchemaMismatch { found: version });
        }
        let fingerprint = u64_field(&v, "fingerprint")?;
        let crc = u64_field(&v, "crc")?;
        // `take` moves the state out and leaves `null` in `v`, which is
        // dropped unread: the crc is checked over the moved-out state.
        let state = v
            .take("state")
            .ok_or_else(|| SnapshotError::malformed("missing field \"state\""))?;
        let mut hash = Fnv1a64::default();
        write!(hash, "{state}").expect("hashing cannot fail");
        let actual = hash.finish();
        if actual != crc {
            return Err(SnapshotError::malformed(format!(
                "state checksum {actual:#018x} does not match recorded {crc:#018x}"
            )));
        }
        Ok(Checkpoint { fingerprint, state })
    }

    /// Writes the artifact to `path` with the manifest's crash
    /// discipline: temporary file in the same directory, `fsync`,
    /// atomic rename. A crash mid-write leaves the previous file (or
    /// none) intact. Returns the artifact size in bytes (reported on
    /// the [`SimEvent::CheckpointSaved`](crate::obs::SimEvent) trace
    /// event).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] with the offending path.
    pub fn write_atomic(&self, path: &Path) -> Result<u64, SnapshotError> {
        let err = |source| SnapshotError::Io {
            path: path.display().to_string(),
            source,
        };
        let tmp = path.with_extension("ckpt-tmp");
        let text = self.render();
        {
            let mut f = std::fs::File::create(&tmp).map_err(err)?;
            f.write_all(text.as_bytes()).map_err(err)?;
            f.write_all(b"\n").map_err(err)?;
            f.sync_all().map_err(err)?;
        }
        std::fs::rename(&tmp, path).map_err(err)?;
        Ok(text.len() as u64 + 1)
    }

    /// Loads and validates an artifact from `path`. A torn tail (the
    /// process died mid-write without the atomic rename, or the file
    /// was truncated afterwards) fails the parse or the checksum and
    /// is rejected here — state is never partially applied. The state
    /// is parsed down to [`FRAGMENT_DEPTH`] only; below it every
    /// component stays text until [`thaw`] parses it for its restore.
    /// The fingerprint is checked by [`Gpu::restore`], not here.
    ///
    /// [`Gpu::restore`]: crate::Gpu::restore
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] / [`SnapshotError::Malformed`] /
    /// [`SnapshotError::SchemaMismatch`] as described above.
    pub fn load(path: &Path) -> Result<Self, SnapshotError> {
        let text = std::fs::read_to_string(path).map_err(|source| SnapshotError::Io {
            path: path.display().to_string(),
            source,
        })?;
        let v = json::parse_fragments(text.trim_end(), FRAGMENT_DEPTH)
            .map_err(|e| SnapshotError::malformed(format!("{}: {e}", path.display())))?;
        // The fragments own everything from here on: free the text so
        // it is not held alongside them while the crc is checked.
        drop(text);
        Checkpoint::from_json(v)
    }

    /// Checks the artifact against the fingerprint of the simulation
    /// about to be restored.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::ConfigMismatch`] when they differ.
    pub fn verify_fingerprint(&self, expected: u64) -> Result<(), SnapshotError> {
        if self.fingerprint != expected {
            return Err(SnapshotError::ConfigMismatch {
                found: self.fingerprint,
                expected,
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Field accessors shared by every component's `restore_state`.
// ---------------------------------------------------------------------------

/// Looks up `key` in an object value.
///
/// # Errors
///
/// [`SnapshotError::Malformed`] naming the missing key.
pub fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, SnapshotError> {
    v.get(key)
        .ok_or_else(|| SnapshotError::malformed(format!("missing field {key:?}")))
}

/// Reads a `u64` field.
///
/// # Errors
///
/// [`SnapshotError::Malformed`] when missing or mistyped.
pub fn u64_field(v: &Value, key: &str) -> Result<u64, SnapshotError> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| SnapshotError::malformed(format!("missing or non-u64 field {key:?}")))
}

/// Reads a `u32` field.
///
/// # Errors
///
/// [`SnapshotError::Malformed`] when missing, mistyped, or out of range.
pub fn u32_field(v: &Value, key: &str) -> Result<u32, SnapshotError> {
    u64_field(v, key)?
        .try_into()
        .map_err(|_| SnapshotError::malformed(format!("field {key:?} exceeds u32")))
}

/// Reads a `usize` field.
///
/// # Errors
///
/// [`SnapshotError::Malformed`] when missing, mistyped, or out of range.
pub fn usize_field(v: &Value, key: &str) -> Result<usize, SnapshotError> {
    u64_field(v, key)?
        .try_into()
        .map_err(|_| SnapshotError::malformed(format!("field {key:?} exceeds usize")))
}

/// Reads an `i64` field (written by [`i64_value`]).
///
/// # Errors
///
/// [`SnapshotError::Malformed`] when missing or mistyped.
pub fn i64_field(v: &Value, key: &str) -> Result<i64, SnapshotError> {
    match v.get(key) {
        Some(n @ Value::Num(_)) => n
            .as_i64()
            .ok_or_else(|| SnapshotError::malformed(format!("field {key:?} is not an i64"))),
        _ => Err(SnapshotError::malformed(format!(
            "missing or non-numeric field {key:?}"
        ))),
    }
}

/// Reads an `f64` field; the number round-trips bit-exactly because
/// both sides use [`Value::f64`]'s shortest representation.
///
/// # Errors
///
/// [`SnapshotError::Malformed`] when missing or mistyped.
pub fn f64_field(v: &Value, key: &str) -> Result<f64, SnapshotError> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| SnapshotError::malformed(format!("missing or non-f64 field {key:?}")))
}

/// Reads a `bool` field.
///
/// # Errors
///
/// [`SnapshotError::Malformed`] when missing or mistyped.
pub fn bool_field(v: &Value, key: &str) -> Result<bool, SnapshotError> {
    v.get(key)
        .and_then(Value::as_bool)
        .ok_or_else(|| SnapshotError::malformed(format!("missing or non-bool field {key:?}")))
}

/// Reads a string field.
///
/// # Errors
///
/// [`SnapshotError::Malformed`] when missing or mistyped.
pub fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, SnapshotError> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| SnapshotError::malformed(format!("missing or non-string field {key:?}")))
}

/// Reads an array field.
///
/// # Errors
///
/// [`SnapshotError::Malformed`] when missing or mistyped.
pub fn arr_field<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], SnapshotError> {
    v.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| SnapshotError::malformed(format!("missing or non-array field {key:?}")))
}

/// One component's state as a tree, for its `restore_state`: each
/// fragment is parsed, a tree without fragments is borrowed as it is.
/// Tag-array rows (the `"lines"` entries inside a fragment) stay a
/// fragment: they are most of the text, and
/// [`TagArray::restore_state`] scans them itself.
///
/// [`TagArray::restore_state`]: crate::cache::tag_array::TagArray::restore_state
///
/// # Errors
///
/// [`SnapshotError::Malformed`] when a fragment is not valid JSON.
pub fn thaw(v: &Value) -> Result<Cow<'_, Value>, SnapshotError> {
    fn owned(v: &Value) -> Result<Value, SnapshotError> {
        Ok(match v {
            Value::Raw(text) => json::parse_keeping(text, ROWS_KEY)
                .map_err(|e| SnapshotError::malformed(format!("state fragment: {e}")))?,
            Value::Arr(items) => Value::Arr(items.iter().map(owned).collect::<Result<_, _>>()?),
            Value::Obj(entries) => Value::Obj(
                entries
                    .iter()
                    .map(|(k, v)| Ok((k.clone(), owned(v)?)))
                    .collect::<Result<_, _>>()?,
            ),
            v => v.clone(),
        })
    }
    if v.has_fragments() {
        owned(v).map(Cow::Owned)
    } else {
        Ok(Cow::Borrowed(v))
    }
}

/// Reports where two state documents first diverge, as a `/`-joined
/// path of object keys and array indices (e.g. `sms/0/warps/3/next`),
/// or `None` when they are identical. Fragments that differ are thawed
/// and walked like trees, so the path reaches inside them. Drives
/// `pfdebug`'s divergence bisector: the path names the first component
/// whose restored state differs.
pub fn first_divergence(a: &Value, b: &Value) -> Option<String> {
    fn walk(a: &Value, b: &Value, path: &mut Vec<String>) -> Option<String> {
        match (a, b) {
            (Value::Raw(_), _) | (_, Value::Raw(_)) if a != b => match (thaw(a), thaw(b)) {
                (Ok(a), Ok(b)) => walk(&a, &b, path),
                _ => Some(path.join("/")),
            },
            (Value::Obj(fa), Value::Obj(fb)) if fa.len() == fb.len() => {
                for ((ka, va), (kb, vb)) in fa.iter().zip(fb) {
                    if ka != kb {
                        return Some(format!("{}/{ka}≠{kb}", path.join("/")));
                    }
                    path.push(ka.to_string());
                    if let Some(hit) = walk(va, vb, path) {
                        return Some(hit);
                    }
                    path.pop();
                }
                None
            }
            (Value::Arr(xa), Value::Arr(xb)) if xa.len() == xb.len() => {
                for (i, (va, vb)) in xa.iter().zip(xb).enumerate() {
                    path.push(i.to_string());
                    if let Some(hit) = walk(va, vb, path) {
                        return Some(hit);
                    }
                    path.pop();
                }
                None
            }
            _ if a == b => None,
            _ => Some(path.join("/")),
        }
    }
    walk(a, b, &mut Vec::new())
}

/// Encodes an `i64` as a decimal [`Value::Num`].
pub fn i64_value(n: i64) -> Value {
    Value::Num(u64::try_from(n).map_or(Num::I(n), Num::U))
}

/// Encodes an `Option<u64>` as the number or `null`.
pub fn opt_u64_value(n: Option<u64>) -> Value {
    match n {
        Some(n) => Value::u64(n),
        None => Value::Null,
    }
}

/// Reads an `Option<u64>` field written by [`opt_u64_value`].
///
/// # Errors
///
/// [`SnapshotError::Malformed`] when missing or mistyped.
pub fn opt_u64_field(v: &Value, key: &str) -> Result<Option<u64>, SnapshotError> {
    match field(v, key)? {
        Value::Null => Ok(None),
        n => n
            .as_u64()
            .map(Some)
            .ok_or_else(|| SnapshotError::malformed(format!("field {key:?} is not u64 or null"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            fingerprint: 0xDEAD_BEEF_0123_4567,
            state: Value::obj(vec![
                ("cycle".into(), Value::u64(41)),
                ("ipc".into(), Value::f64(1.0 / 3.0)),
            ]),
        }
    }

    #[test]
    fn checkpoint_round_trips_bit_exactly() {
        let c = sample();
        let text = c.render();
        let back = Checkpoint::from_json(json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.render(), text);
    }

    #[test]
    fn atomic_write_then_load() {
        let dir = std::env::temp_dir().join(format!("snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        let c = sample();
        c.write_atomic(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), c);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_rejected_not_applied() {
        let dir = std::env::temp_dir().join(format!("snap-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        let c = sample();
        c.write_atomic(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        for cut in [1, full.len() / 2, full.len() - 2] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let err = Checkpoint::load(&path).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Malformed { .. }),
                "cut at {cut}: {err}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_that_still_parses_fails_the_checksum() {
        let text = sample().render().replace("41", "42");
        let err = Checkpoint::from_json(json::parse(&text).unwrap()).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed { .. }), "{err}");
    }

    #[test]
    fn version_and_fingerprint_mismatches_are_typed() {
        let mut v = json::parse(&sample().render()).unwrap();
        if let Value::Obj(fields) = &mut v {
            fields[1].1 = Value::u64(SNAPSHOT_SCHEMA_VERSION + 1);
        }
        assert!(matches!(
            Checkpoint::from_json(v).unwrap_err(),
            SnapshotError::SchemaMismatch { .. }
        ));
        let c = sample();
        assert!(c.verify_fingerprint(c.fingerprint).is_ok());
        assert!(matches!(
            c.verify_fingerprint(1).unwrap_err(),
            SnapshotError::ConfigMismatch { .. }
        ));
    }

    #[test]
    fn first_divergence_names_the_deep_path() {
        let a = json::parse(r#"{"sms":[{"w":[1,2]},{"w":[3,4]}],"cycle":9}"#).unwrap();
        assert_eq!(first_divergence(&a, &a), None);
        let b = json::parse(r#"{"sms":[{"w":[1,2]},{"w":[3,5]}],"cycle":9}"#).unwrap();
        assert_eq!(first_divergence(&a, &b).as_deref(), Some("sms/1/w/1"));
        let c = json::parse(r#"{"sms":[{"w":[1,2]}],"cycle":9}"#).unwrap();
        assert_eq!(first_divergence(&a, &c).as_deref(), Some("sms"));
    }

    #[test]
    fn first_divergence_reaches_inside_fragments() {
        let doc = |x: u64| {
            format!(
                r#"{{"magic":"m","state":{{"sms":[{{"l1":{{"w":[1,2]}}}},{{"l1":{{"w":[3,{x}]}}}}],"noc":{{"up":[[1,2]]}},"cycle":9}}}}"#
            )
        };
        let frag = |x| {
            json::parse_fragments(&doc(x), FRAGMENT_DEPTH)
                .unwrap()
                .take("state")
                .unwrap()
        };
        let tree = |x| json::parse(&doc(x)).unwrap().take("state").unwrap();
        assert!(matches!(
            &frag(4).get("sms").unwrap().as_arr().unwrap()[1],
            Value::Raw(_)
        ));
        assert_eq!(first_divergence(&frag(4), &frag(4)), None);
        assert_eq!(first_divergence(&frag(4), &tree(4)), None);
        for (a, b) in [(frag(4), frag(5)), (frag(4), tree(5)), (tree(4), frag(5))] {
            assert_eq!(first_divergence(&a, &b).as_deref(), Some("sms/1/l1/w/1"));
        }
        let noc = |row: &str| {
            json::parse_fragments(&format!(r#"{{"s":{{"noc":{{"up":{row}}}}}}}"#), 2).unwrap()
        };
        assert_eq!(
            first_divergence(&noc("[[1,2]]"), &noc("[[1,3]]")).as_deref(),
            Some("s/noc/up/0/1")
        );
        assert_eq!(
            first_divergence(&noc("[[1,2]]"), &noc("[[1,2],[3,4]]")).as_deref(),
            Some("s/noc/up")
        );
    }

    #[test]
    fn thaw_parses_fragments_and_borrows_trees() {
        let tree = json::parse(r#"{"a":[1,{"b":2}]}"#).unwrap();
        assert!(matches!(thaw(&tree).unwrap(), Cow::Borrowed(_)));
        for depth in 0..3 {
            let kept = json::parse_fragments(&tree.to_string(), depth).unwrap();
            let thawed = thaw(&kept).unwrap();
            assert!(!thawed.has_fragments());
            assert_eq!(format!("{:?}", *thawed), format!("{tree:?}"));
        }
        assert!(matches!(
            thaw(&Value::Raw("[1,".into())).unwrap_err(),
            SnapshotError::Malformed { .. }
        ));
    }

    #[test]
    fn field_accessors_report_the_key() {
        let v = Value::obj(vec![("a".into(), Value::u64(1))]);
        assert_eq!(u64_field(&v, "a").unwrap(), 1);
        let err = u64_field(&v, "b").unwrap_err();
        assert!(err.to_string().contains("\"b\""), "{err}");
        assert_eq!(
            i64_field(&json::parse(r#"{"x":-5}"#).unwrap(), "x").unwrap(),
            -5
        );
        assert_eq!(
            opt_u64_field(&json::parse(r#"{"x":null}"#).unwrap(), "x").unwrap(),
            None
        );
    }
}
