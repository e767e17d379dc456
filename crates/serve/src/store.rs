//! Crash-safe on-disk store for compiled artifacts and key metadata.
//!
//! The serving tier's durable state is tiny but precious: the compiled
//! artifact (plan + parameters + rotation-key policy) and the key-bundle
//! metadata that lets a restarted service regenerate exactly the key
//! material its artifact expects. This store persists both with the
//! failure model a crash-prone host demands:
//!
//! * **Versioned record format** — every record starts with an 8-byte
//!   magic + format version; unknown versions are refused, not guessed at.
//! * **Per-record checksums** — an FNV-1a 64 checksum over the full record
//!   body. A truncated write, a bit flip, or a partially overwritten file
//!   surfaces as [`RecordFault`], never as a silently wrong artifact.
//! * **Atomic writes** — records are written to a temp file in the same
//!   directory, flushed and fsynced, then renamed over the target.
//!   A crash mid-write leaves either the old record or a `*.tmp` orphan
//!   (swept on open), never a half-written record under the real name.
//! * **Recovery-on-open** — [`ArtifactStore::open`] scans every record,
//!   *quarantines* corrupt ones (renames them to `<name>.quarantined` so
//!   forensics survive) and reports what it did in [`RecoveryReport`].
//!   The service layer falls back to `compile_checked` recompilation for
//!   anything quarantined — a corrupt store delays startup, it does not
//!   prevent it.
//!
//! Key material itself (the secret key!) is deliberately **not** stored:
//! backends in this repo regenerate keys deterministically from a seed.
//! What must survive a restart is the *binding* — which seed, which
//! rotation steps, for which parameters — and that is what
//! [`KeyBundleRecord`] holds, fingerprint-bound to its artifact's
//! parameters so a mismatched pair is detected at load time.

use chet_compiler::artifact::{decode_compiled, decode_scales, encode_compiled, encode_scales};
use chet_compiler::CompiledCircuit;
use chet_hisa::serial::{fnv1a64, params_fingerprint, CodecError, Reader, Writer};
use std::collections::BTreeSet;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as IoWrite};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Record-file magic: identifies a chet-serve store record, any version.
const MAGIC: &[u8; 8] = b"CHETSTOR";

/// Store format version; bump on layout changes.
pub const STORE_FORMAT_VERSION: u8 = 1;

/// Extension of live records.
const RECORD_EXT: &str = "rec";

/// Extension quarantined records are renamed to.
const QUARANTINE_EXT: &str = "quarantined";

/// What kind of payload a record carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A compiled artifact ([`StoredArtifact`]).
    Artifact,
    /// Key-bundle metadata ([`KeyBundleRecord`]).
    KeyBundle,
}

impl RecordKind {
    fn tag(self) -> u8 {
        match self {
            RecordKind::Artifact => 1,
            RecordKind::KeyBundle => 2,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(RecordKind::Artifact),
            2 => Some(RecordKind::KeyBundle),
            _ => None,
        }
    }
}

/// Why a record failed verification.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordFault {
    /// The file is shorter than the fixed header, or shorter than the
    /// length its own header claims — the signature of a torn write.
    Truncated {
        /// Bytes actually present.
        len: usize,
    },
    /// The leading magic bytes are wrong: not a record of this kind of
    /// file at all (a journal record read as a store record, or the
    /// reverse, fails here).
    BadMagic,
    /// A record from a future (or corrupted) format version.
    UnknownVersion {
        /// The version byte found.
        version: u8,
    },
    /// The stored checksum does not match the record body.
    ChecksumMismatch {
        /// Checksum stored in the record.
        stored: u64,
        /// Checksum recomputed over the body.
        computed: u64,
    },
    /// The checksum held but the payload would not decode — e.g. an
    /// undefined enum tag. (Second line of defence.)
    Undecodable(CodecError),
    /// The record kind tag is undefined.
    UnknownKind {
        /// The tag found.
        tag: u8,
    },
}

impl fmt::Display for RecordFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordFault::Truncated { len } => write!(f, "record truncated ({len} bytes)"),
            RecordFault::BadMagic => write!(f, "bad record magic"),
            RecordFault::UnknownVersion { version } => {
                write!(f, "unknown record format version {version}")
            }
            RecordFault::ChecksumMismatch { stored, computed } => {
                write!(f, "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}")
            }
            RecordFault::Undecodable(e) => write!(f, "payload undecodable: {e}"),
            RecordFault::UnknownKind { tag } => write!(f, "unknown record kind tag {tag}"),
        }
    }
}

/// A store-level failure.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem error (directory missing, permissions, disk full…).
    Io(io::Error),
    /// A record failed verification at read time.
    Corrupt {
        /// The record's file name.
        name: String,
        /// What was wrong with it.
        fault: RecordFault,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt { name, fault } => write!(f, "record '{name}' corrupt: {fault}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Corrupt { .. } => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// One quarantined record, as reported by [`ArtifactStore::open`].
#[derive(Debug, Clone)]
pub struct QuarantinedRecord {
    /// Record name (file stem).
    pub name: String,
    /// Why it was quarantined.
    pub fault: RecordFault,
    /// Where the corpse was moved for forensics.
    pub quarantined_to: PathBuf,
}

/// What [`ArtifactStore::open`] found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Records that verified cleanly.
    pub intact: Vec<String>,
    /// Records that failed verification and were quarantined.
    pub quarantined: Vec<QuarantinedRecord>,
    /// Orphaned temp files from interrupted writes, swept away.
    pub swept_temp_files: usize,
}

/// Point-in-time integrity summary, surfaced through the service's
/// [`HealthReport`](crate::health::HealthReport).
#[derive(Debug, Clone, Default)]
pub struct StoreIntegrity {
    /// Records currently intact on disk.
    pub intact_records: usize,
    /// Records quarantined since open (open-time + runtime detections).
    pub quarantined_records: usize,
}

/// A persisted artifact: the compiled circuit plus the serve-layer state
/// needed to resume exactly where the previous process left off.
#[derive(Debug, Clone)]
pub struct StoredArtifact {
    /// Artifact version (the service's repair counter).
    pub version: u64,
    /// The compiled circuit.
    pub compiled: CompiledCircuit,
    /// The working scales the artifact was compiled with.
    pub scales: chet_runtime::kernels::ScaleConfig,
    /// Extra margin levels accumulated by repair recompilations.
    pub extra_margin: usize,
}

/// Key-bundle metadata: enough to regenerate the key material an artifact
/// expects, bound to the artifact's parameters by fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyBundleRecord {
    /// Fingerprint of the [`EncryptionParams`](chet_hisa::EncryptionParams)
    /// this bundle belongs to.
    pub params_fingerprint: u64,
    /// The deterministic key-generation seed.
    pub seed: u64,
    /// Rotation steps the bundle must cover.
    pub rotation_steps: BTreeSet<usize>,
}

fn encode_artifact_payload(a: &StoredArtifact) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(a.version);
    w.put_bytes(&encode_scales(&a.scales));
    w.put_usize(a.extra_margin);
    w.put_bytes(&encode_compiled(&a.compiled));
    w.into_bytes()
}

fn decode_artifact_payload(bytes: &[u8]) -> Result<StoredArtifact, CodecError> {
    let mut r = Reader::new(bytes);
    let version = r.get_u64("StoredArtifact.version")?;
    let scales = decode_scales(r.get_bytes("StoredArtifact.scales")?)?;
    let extra_margin = r.get_usize("StoredArtifact.extra_margin")?;
    let compiled = decode_compiled(r.get_bytes("StoredArtifact.compiled")?)?;
    r.finish()?;
    Ok(StoredArtifact { version, compiled, scales, extra_margin })
}

fn encode_key_bundle_payload(k: &KeyBundleRecord) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(k.params_fingerprint);
    w.put_u64(k.seed);
    w.put_u32(k.rotation_steps.len() as u32);
    for &s in &k.rotation_steps {
        w.put_usize(s);
    }
    w.into_bytes()
}

fn decode_key_bundle_payload(bytes: &[u8]) -> Result<KeyBundleRecord, CodecError> {
    let mut r = Reader::new(bytes);
    let params_fingerprint = r.get_u64("KeyBundleRecord.params_fingerprint")?;
    let seed = r.get_u64("KeyBundleRecord.seed")?;
    let at = r.position();
    let len = r.get_u32("KeyBundleRecord.rotation_steps")? as usize;
    if len.saturating_mul(8) > r.remaining() {
        return Err(CodecError::BadLength { at, what: "KeyBundleRecord.rotation_steps", len });
    }
    let mut rotation_steps = BTreeSet::new();
    for _ in 0..len {
        rotation_steps.insert(r.get_usize("KeyBundleRecord.rotation_steps")?);
    }
    r.finish()?;
    Ok(KeyBundleRecord { params_fingerprint, seed, rotation_steps })
}

/// Fixed bytes before a record's payload: magic, version, kind, length.
const HEADER: usize = 8 + 1 + 1 + 4;

/// Frames a payload into the record format the store and the journal
/// ([`crate::journal`]) share, each with its own magic and version:
///
/// ```text
/// magic[8] | version u8 | kind u8 | payload_len u32 | payload | fnv1a64 u64
/// ```
///
/// The checksum covers everything before it (magic through payload), so
/// header corruption is caught too.
pub(crate) fn frame_record(magic: &[u8; 8], version: u8, kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut body = Vec::with_capacity(HEADER + payload.len() + 8);
    body.extend_from_slice(magic);
    body.push(version);
    body.push(kind);
    body.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    body.extend_from_slice(payload);
    let sum = fnv1a64(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

/// Verifies the framing and checksum of the record at the front of
/// `bytes`, returning its kind tag, its payload and the bytes it spans.
/// With `whole`, bytes past the record are a length mismatch reported as
/// [`RecordFault::Truncated`] (a store file holds one record); without,
/// they belong to the next record (the journal scans a sequence).
pub(crate) fn unframe_record<'a>(
    magic: &[u8; 8],
    version: u8,
    bytes: &'a [u8],
    whole: bool,
) -> Result<(u8, &'a [u8], usize), RecordFault> {
    if bytes.len() < HEADER + 8 {
        return Err(RecordFault::Truncated { len: bytes.len() });
    }
    if &bytes[..8] != magic {
        return Err(RecordFault::BadMagic);
    }
    if bytes[8] != version {
        return Err(RecordFault::UnknownVersion { version: bytes[8] });
    }
    let payload_len = u32::from_le_bytes([bytes[10], bytes[11], bytes[12], bytes[13]]) as usize;
    let total = HEADER + payload_len + 8;
    if bytes.len() < total || (whole && bytes.len() != total) {
        return Err(RecordFault::Truncated { len: bytes.len() });
    }
    let body = &bytes[..HEADER + payload_len];
    let stored = u64::from_le_bytes(
        bytes[HEADER + payload_len..total]
            .try_into()
            .map_err(|_| RecordFault::Truncated { len: bytes.len() })?,
    );
    let computed = fnv1a64(body);
    if stored != computed {
        return Err(RecordFault::ChecksumMismatch { stored, computed });
    }
    Ok((bytes[9], &bytes[HEADER..HEADER + payload_len], total))
}

/// Unframes a whole store file into its record kind and payload.
fn unframe_store_record(bytes: &[u8]) -> Result<(RecordKind, &[u8]), RecordFault> {
    let (tag, payload, _) = unframe_record(MAGIC, STORE_FORMAT_VERSION, bytes, true)?;
    let kind = RecordKind::from_tag(tag).ok_or(RecordFault::UnknownKind { tag })?;
    Ok((kind, payload))
}

/// The crash-safe store. See the module docs for the format and recovery
/// guarantees. All methods take `&self`; concurrent writers of the *same*
/// record name serialize through the atomic rename (last writer wins, and
/// readers always see one complete record or the other — never a blend).
#[derive(Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
    integrity: std::sync::Mutex<StoreIntegrity>,
}

impl ArtifactStore {
    /// Opens (creating if needed) a store at `dir`, runs recovery, and
    /// reports what it found. Corrupt records are quarantined — renamed to
    /// `<name>.quarantined` — so a later `get` of that name misses cleanly
    /// and the caller recompiles.
    pub fn open(dir: impl Into<PathBuf>) -> Result<(Self, RecoveryReport), StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut report = RecoveryReport::default();
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort(); // deterministic recovery order
        for path in entries {
            let Some(name) = path.file_name().and_then(|n| n.to_str()).map(String::from) else {
                continue;
            };
            if name.ends_with(".tmp") {
                // Orphan from an interrupted write: the rename never
                // happened, so the real record (if any) is still intact.
                fs::remove_file(&path)?;
                report.swept_temp_files += 1;
                continue;
            }
            let Some(stem) = name.strip_suffix(&format!(".{RECORD_EXT}")) else {
                continue;
            };
            let bytes = fs::read(&path)?;
            match unframe_store_record(&bytes).and_then(|(kind, payload)| {
                decode_payload_checked(kind, payload).map(|_| ())
            }) {
                Ok(()) => report.intact.push(stem.to_string()),
                Err(fault) => {
                    let target = path.with_extension(QUARANTINE_EXT);
                    fs::rename(&path, &target)?;
                    report.quarantined.push(QuarantinedRecord {
                        name: stem.to_string(),
                        fault,
                        quarantined_to: target,
                    });
                }
            }
        }
        let integrity = StoreIntegrity {
            intact_records: report.intact.len(),
            quarantined_records: report.quarantined.len(),
        };
        Ok((ArtifactStore { dir, integrity: std::sync::Mutex::new(integrity) }, report))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current integrity counters.
    pub fn integrity(&self) -> StoreIntegrity {
        self.integrity.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    fn record_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.{RECORD_EXT}"))
    }

    /// Atomically writes a framed record: temp file in the same directory,
    /// flush + fsync, rename over the target.
    fn write_record(&self, name: &str, kind: RecordKind, payload: &[u8]) -> Result<(), StoreError> {
        let framed = frame_record(MAGIC, STORE_FORMAT_VERSION, kind.tag(), payload);
        let target = self.record_path(name);
        let tmp = self.dir.join(format!("{name}.{RECORD_EXT}.tmp"));
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&framed)?;
            f.flush()?;
            f.sync_all()?;
        }
        match fs::rename(&tmp, &target) {
            Ok(()) => {}
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                return Err(StoreError::Io(e));
            }
        }
        let mut g = self.integrity.lock().unwrap_or_else(|p| p.into_inner());
        g.intact_records += 1; // over-counts rewrites; refreshed on next open
        Ok(())
    }

    /// Reads and verifies a record. `Ok(None)` = no such record (including
    /// one quarantined earlier); a record that fails verification *now* is
    /// quarantined on the spot and reported as [`StoreError::Corrupt`].
    fn read_record(&self, name: &str, want: RecordKind) -> Result<Option<Vec<u8>>, StoreError> {
        let path = self.record_path(name);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::Io(e)),
        };
        match unframe_store_record(&bytes) {
            Ok((kind, payload)) if kind == want => Ok(Some(payload.to_vec())),
            Ok((kind, _)) => {
                self.quarantine(&path, name)?;
                Err(StoreError::Corrupt {
                    name: name.to_string(),
                    fault: RecordFault::UnknownKind { tag: kind.tag() },
                })
            }
            Err(fault) => {
                self.quarantine(&path, name)?;
                Err(StoreError::Corrupt { name: name.to_string(), fault })
            }
        }
    }

    fn quarantine(&self, path: &Path, _name: &str) -> Result<(), StoreError> {
        let target = path.with_extension(QUARANTINE_EXT);
        fs::rename(path, &target)?;
        let mut g = self.integrity.lock().unwrap_or_else(|p| p.into_inner());
        g.quarantined_records += 1;
        g.intact_records = g.intact_records.saturating_sub(1);
        Ok(())
    }

    /// Persists an artifact under `name`.
    pub fn put_artifact(&self, name: &str, artifact: &StoredArtifact) -> Result<(), StoreError> {
        self.write_record(name, RecordKind::Artifact, &encode_artifact_payload(artifact))
    }

    /// Loads and verifies an artifact. `Ok(None)` = absent or previously
    /// quarantined; corrupt-right-now records are quarantined and reported.
    pub fn get_artifact(&self, name: &str) -> Result<Option<StoredArtifact>, StoreError> {
        let Some(payload) = self.read_record(name, RecordKind::Artifact)? else {
            return Ok(None);
        };
        match decode_artifact_payload(&payload) {
            Ok(a) => Ok(Some(a)),
            Err(e) => {
                // Checksum passed but decode failed: quarantine anyway.
                let path = self.record_path(name);
                if path.exists() {
                    self.quarantine(&path, name)?;
                }
                Err(StoreError::Corrupt {
                    name: name.to_string(),
                    fault: RecordFault::Undecodable(e),
                })
            }
        }
    }

    /// Persists key-bundle metadata under `name`.
    pub fn put_key_bundle(&self, name: &str, bundle: &KeyBundleRecord) -> Result<(), StoreError> {
        self.write_record(name, RecordKind::KeyBundle, &encode_key_bundle_payload(bundle))
    }

    /// Loads and verifies key-bundle metadata.
    pub fn get_key_bundle(&self, name: &str) -> Result<Option<KeyBundleRecord>, StoreError> {
        let Some(payload) = self.read_record(name, RecordKind::KeyBundle)? else {
            return Ok(None);
        };
        match decode_key_bundle_payload(&payload) {
            Ok(k) => Ok(Some(k)),
            Err(e) => {
                let path = self.record_path(name);
                if path.exists() {
                    self.quarantine(&path, name)?;
                }
                Err(StoreError::Corrupt {
                    name: name.to_string(),
                    fault: RecordFault::Undecodable(e),
                })
            }
        }
    }

    /// Builds the key-bundle record matching a compiled artifact.
    pub fn key_bundle_for(compiled: &CompiledCircuit, seed: u64) -> KeyBundleRecord {
        KeyBundleRecord {
            params_fingerprint: params_fingerprint(&compiled.params),
            seed,
            rotation_steps: compiled.outcome.rotations.clone(),
        }
    }
}

/// Advisory lock file name inside a store directory.
pub const LOCK_FILE: &str = "store.lock";

/// Why [`StoreLock::acquire`] could not take the lock.
#[derive(Debug)]
pub enum LockError {
    /// Another live process holds the lock.
    Held {
        /// The holder's PID, as recorded in the lock file.
        holder_pid: u32,
    },
    /// Filesystem error while probing or creating the lock file.
    Io(io::Error),
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::Held { holder_pid } => {
                write!(f, "store directory locked by live process {holder_pid}")
            }
            LockError::Io(e) => write!(f, "store lock I/O error: {e}"),
        }
    }
}

impl std::error::Error for LockError {}

/// Monotonic per-process token distinguishing successive locks taken by
/// the same PID (a supervised in-process restart must not let the *old*
/// service's `Drop` delete the *new* service's lock file).
static LOCK_TOKEN: AtomicU64 = AtomicU64::new(1);

/// An advisory single-opener lock on a store directory.
///
/// Two processes concurrently appending to the same `journal.wal` (or
/// racing artifact rewrites) would interleave records and corrupt the
/// durable state the journal exists to protect — so the *second* opener
/// must fail loudly at startup, not scribble quietly. The lock is a
/// `store.lock` file created with `create_new` (atomic on every platform
/// this repo targets) holding `pid:token`.
///
/// Crash recovery matters more than strictness here: a process killed by
/// the crash harness leaves its lock file behind, and the restarted
/// process *must* get through. On Linux the holder's liveness is checked
/// via `/proc/<pid>`; a dead holder's lock is stolen. A live holder (or
/// an unverifiable one on non-Linux hosts) yields [`LockError::Held`].
///
/// Dropping the lock releases it — but only if the file still carries
/// this lock's own token, so a stale `Drop` never releases a successor.
#[derive(Debug)]
pub struct StoreLock {
    path: PathBuf,
    token: String,
}

impl StoreLock {
    /// Takes the advisory lock on `dir`, stealing it from a dead holder.
    pub fn acquire(dir: &Path) -> Result<StoreLock, LockError> {
        fs::create_dir_all(dir).map_err(LockError::Io)?;
        let path = dir.join(LOCK_FILE);
        let token = format!(
            "{}:{}",
            std::process::id(),
            LOCK_TOKEN.fetch_add(1, Ordering::Relaxed)
        );
        // Bounded steal attempts: each loop either creates the file, sees
        // a live holder, or removes a stale file and retries.
        for _ in 0..16 {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut f) => {
                    f.write_all(token.as_bytes()).map_err(LockError::Io)?;
                    f.sync_all().map_err(LockError::Io)?;
                    return Ok(StoreLock { path, token });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let contents = fs::read_to_string(&path).unwrap_or_default();
                    let holder_pid =
                        contents.split(':').next().and_then(|s| s.trim().parse::<u32>().ok());
                    match holder_pid {
                        Some(pid) if pid != std::process::id() && pid_alive(pid) => {
                            return Err(LockError::Held { holder_pid: pid });
                        }
                        Some(pid) if pid == std::process::id() && contents != token => {
                            // Another *live* lock in this very process —
                            // e.g. two services pointed at one store_dir.
                            return Err(LockError::Held { holder_pid: pid });
                        }
                        _ => {
                            // Dead holder or unreadable file: stale, steal.
                            match fs::remove_file(&path) {
                                Ok(()) => {}
                                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                                Err(e) => return Err(LockError::Io(e)),
                            }
                        }
                    }
                }
                Err(e) => return Err(LockError::Io(e)),
            }
        }
        Err(LockError::Io(io::Error::new(
            io::ErrorKind::WouldBlock,
            "store lock contended: steal retries exhausted",
        )))
    }
}

impl Drop for StoreLock {
    fn drop(&mut self) {
        // Release only if the file is still ours: a successor that stole
        // the lock (same-PID restart) must keep its file.
        if fs::read_to_string(&self.path).map(|c| c == self.token).unwrap_or(false) {
            let _ = fs::remove_file(&self.path);
        }
    }
}

/// Best-effort liveness probe for a PID.
fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new("/proc").join(pid.to_string()).exists()
    } else {
        // No portable probe without libc: assume alive (strict, safe).
        true
    }
}

fn decode_payload_checked(kind: RecordKind, payload: &[u8]) -> Result<(), RecordFault> {
    match kind {
        RecordKind::Artifact => {
            decode_artifact_payload(payload).map(|_| ()).map_err(RecordFault::Undecodable)
        }
        RecordKind::KeyBundle => {
            decode_key_bundle_payload(payload).map(|_| ()).map_err(RecordFault::Undecodable)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chet_hisa::params::SchemeKind;
    use chet_runtime::kernels::ScaleConfig;
    use chet_tensor::circuit::CircuitBuilder;
    use chet_tensor::ops::Padding;
    use chet_tensor::Tensor;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir()
            .join(format!("chet-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn artifact() -> StoredArtifact {
        let mut b = CircuitBuilder::new();
        let x = b.input(vec![1, 6, 6]);
        let w = Tensor::from_fn(vec![2, 1, 3, 3], |i| (i[2] * 3 + i[3]) as f64 * 0.05 - 0.1);
        let c = b.conv2d(x, w, None, 1, Padding::Valid);
        let g = b.global_avg_pool(c);
        let circuit = b.build(g);
        let scales = ScaleConfig::REFERENCE;
        let (compiled, report) = chet_compiler::Compiler::new(SchemeKind::RnsCkks)
            .with_output_precision(2f64.powi(20))
            .compile_checked(&circuit, &scales)
            .expect("compiles");
        StoredArtifact {
            version: 3,
            compiled,
            scales: report.final_scales,
            extra_margin: report.extra_levels,
        }
    }

    #[test]
    fn artifact_and_key_bundle_roundtrip() {
        let dir = tmpdir("roundtrip");
        let (store, rec) = ArtifactStore::open(&dir).unwrap();
        assert!(rec.intact.is_empty() && rec.quarantined.is_empty());
        let a = artifact();
        store.put_artifact("lenet", &a).unwrap();
        let bundle = ArtifactStore::key_bundle_for(&a.compiled, 0x5EED);
        store.put_key_bundle("lenet-keys", &bundle).unwrap();

        let back = store.get_artifact("lenet").unwrap().expect("present");
        assert_eq!(back.version, 3);
        assert_eq!(back.compiled.params, a.compiled.params);
        assert_eq!(back.extra_margin, a.extra_margin);
        assert_eq!(store.get_key_bundle("lenet-keys").unwrap(), Some(bundle));
        assert!(store.get_artifact("absent").unwrap().is_none());

        // Reopen: both records verify.
        drop(store);
        let (_store, rec) = ArtifactStore::open(&dir).unwrap();
        assert_eq!(rec.intact.len(), 2);
        assert!(rec.quarantined.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_at_every_byte_is_quarantined_on_open() {
        let dir = tmpdir("truncate");
        let (store, _) = ArtifactStore::open(&dir).unwrap();
        store.put_artifact("a", &artifact()).unwrap();
        let path = store.record_path("a");
        let full = fs::read(&path).unwrap();
        drop(store);

        // A sample of truncation points, including 0 and just-off-the-end.
        for cut in [0usize, 1, 7, 8, 9, 13, full.len() / 2, full.len() - 1] {
            fs::write(&path, &full[..cut]).unwrap();
            let (store, rec) = ArtifactStore::open(&dir).unwrap();
            assert_eq!(rec.quarantined.len(), 1, "cut at {cut} must quarantine");
            assert!(store.get_artifact("a").unwrap().is_none(), "cut at {cut}");
            assert_eq!(store.integrity().quarantined_records, 1);
            drop(store);
            // Restore for the next iteration.
            let _ = fs::remove_file(path.with_extension(QUARANTINE_EXT));
            fs::write(&path, &full).unwrap();
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_anywhere_is_detected_at_read_time() {
        let dir = tmpdir("bitflip");
        let (store, _) = ArtifactStore::open(&dir).unwrap();
        store.put_artifact("a", &artifact()).unwrap();
        let path = store.record_path("a");
        let full = fs::read(&path).unwrap();
        for i in (0..full.len()).step_by(17) {
            let mut bad = full.clone();
            bad[i] ^= 0x40;
            fs::write(&path, &bad).unwrap();
            match store.get_artifact("a") {
                Err(StoreError::Corrupt { .. }) => {}
                other => panic!("flip at {i}: expected Corrupt, got {other:?}"),
            }
            // get_artifact quarantined it; restore for the next flip.
            let _ = fs::remove_file(path.with_extension(QUARANTINE_EXT));
            fs::write(&path, &full).unwrap();
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphan_temp_files_are_swept_not_trusted() {
        let dir = tmpdir("orphan");
        let (store, _) = ArtifactStore::open(&dir).unwrap();
        store.put_artifact("a", &artifact()).unwrap();
        // Simulate a crash mid-write: a temp file with garbage.
        fs::write(dir.join("a.rec.tmp"), b"partial garbage").unwrap();
        drop(store);
        let (store, rec) = ArtifactStore::open(&dir).unwrap();
        assert_eq!(rec.swept_temp_files, 1);
        assert_eq!(rec.intact, vec!["a".to_string()]);
        assert!(store.get_artifact("a").unwrap().is_some());
        assert!(!dir.join("a.rec.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_bundle_binds_to_params_fingerprint() {
        let a = artifact();
        let bundle = ArtifactStore::key_bundle_for(&a.compiled, 7);
        assert_eq!(bundle.params_fingerprint, params_fingerprint(&a.compiled.params));
        assert_eq!(bundle.rotation_steps, a.compiled.outcome.rotations);
    }

    #[test]
    fn store_lock_excludes_second_opener_and_steals_stale() {
        let dir = tmpdir("lock");
        fs::create_dir_all(&dir).unwrap();
        let lock = StoreLock::acquire(&dir).unwrap();
        // Second acquisition in the same (live) process is refused.
        match StoreLock::acquire(&dir) {
            Err(LockError::Held { holder_pid }) => {
                assert_eq!(holder_pid, std::process::id());
            }
            other => panic!("expected Held, got {other:?}"),
        }
        drop(lock);
        // Released: can be re-acquired.
        let lock = StoreLock::acquire(&dir).unwrap();
        drop(lock);
        // A dead holder's lock is stolen (PID 0 never names a live
        // process a user can own).
        fs::write(dir.join(LOCK_FILE), "0:1").unwrap();
        let lock = StoreLock::acquire(&dir).unwrap();
        drop(lock);
        // An unreadable lock file is treated as stale too.
        fs::write(dir.join(LOCK_FILE), "not a pid").unwrap();
        let _lock = StoreLock::acquire(&dir).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_drop_does_not_release_a_successor_lock() {
        let dir = tmpdir("lock-succ");
        fs::create_dir_all(&dir).unwrap();
        let first = StoreLock::acquire(&dir).unwrap();
        // Simulate the crash-harness path: the file survives but the
        // holder is "dead" — forge a dead PID so a successor steals it.
        fs::write(dir.join(LOCK_FILE), "0:9").unwrap();
        let second = StoreLock::acquire(&dir).unwrap();
        // The first lock's Drop must not delete the second's file.
        drop(first);
        assert!(dir.join(LOCK_FILE).exists());
        drop(second);
        assert!(!dir.join(LOCK_FILE).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_kind_under_expected_name_is_corrupt() {
        let dir = tmpdir("kind");
        let (store, _) = ArtifactStore::open(&dir).unwrap();
        store
            .put_key_bundle(
                "a",
                &KeyBundleRecord {
                    params_fingerprint: 1,
                    seed: 2,
                    rotation_steps: BTreeSet::new(),
                },
            )
            .unwrap();
        assert!(matches!(store.get_artifact("a"), Err(StoreError::Corrupt { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn framed_key_bundle_record_is_pinned() {
        // The shared record layout, byte for byte: a change to the framing
        // (field order, widths, checksum span) moves this digest.
        let bundle = KeyBundleRecord {
            params_fingerprint: 0x0123_4567_89ab_cdef,
            seed: 7,
            rotation_steps: [1, 2, 4, 8].into_iter().collect(),
        };
        let payload = encode_key_bundle_payload(&bundle);
        let framed =
            frame_record(MAGIC, STORE_FORMAT_VERSION, RecordKind::KeyBundle.tag(), &payload);
        assert_eq!(framed.len(), 74);
        assert_eq!(fnv1a64(&framed), 0x0097_e33c_7e0c_9262);
        assert_eq!(unframe_store_record(&framed), Ok((RecordKind::KeyBundle, &payload[..])));
    }

    #[test]
    fn a_journal_record_is_not_a_store_record() {
        use crate::journal::{Journal, JournalConfig, JournalRecord, JOURNAL_FILE};
        let dir = tmpdir("journal-magic");
        let cfg = JournalConfig { enabled: true, ..JournalConfig::default() };
        let (journal, _) = Journal::open(&dir, &cfg).unwrap();
        journal.append_durable(&JournalRecord::Started { request_id: 1 }).unwrap();
        let bytes = fs::read(dir.join(JOURNAL_FILE)).unwrap();
        assert_eq!(unframe_store_record(&bytes), Err(RecordFault::BadMagic));
        let _ = fs::remove_dir_all(&dir);
    }
}
