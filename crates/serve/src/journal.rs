//! Durable request journal: a write-ahead log giving the service
//! exactly-once *acknowledgement* semantics across process crashes.
//!
//! CHET's serving model computes blindly over ciphertexts — a crash
//! mid-inference silently discards minutes of encrypted work, and the
//! client cannot tell a lost request from a slow one. The store
//! ([`crate::store`]) made the *artifact* crash-safe; this module makes
//! the *requests* crash-safe. Every request walks a journaled state
//! machine under a client-supplied idempotency key:
//!
//! ```text
//! Admitted(key, input) ──> Started ──> Completed(digest, output)
//!                                 └──> Failed(code)
//! ```
//!
//! * **Admitted** is written *durably* before `submit` returns: an
//!   acknowledged admission survives any crash after the ack.
//! * **Completed** is written durably *before* the response is sent: a
//!   response the client saw is always recoverable from the journal, and
//!   replay never re-executes it.
//! * **Failed** closes the request with a typed code — including
//!   [`FailCode::Shutdown`] for requests a draining shutdown rejected, so
//!   replay does not re-run work the client already saw rejected.
//!
//! # On-disk format
//!
//! The journal frames its records with the store's record framing
//! (`store::frame_record`) under its own magic: one append-only file
//! (`journal.wal`) of self-delimiting records, each
//!
//! ```text
//! magic[8]="CHETJRNL" | version u8 | kind u8 | payload_len u32 | payload | fnv1a64 u64
//! ```
//!
//! with the FNV-1a-64 checksum covering every byte before it. Recovery
//! scans the file front to back; the first record that fails framing,
//! checksum or decode marks a **torn tail** — everything from that offset
//! is moved to `journal.torn` (forensics survive) and the live file is
//! truncated back to the last intact record. Nothing after a torn record
//! can be trusted, because framing has lost sync.
//!
//! # Group commit
//!
//! Durability must not serialize the worker pool, so [`Journal::append_durable`]
//! uses **leader-based group commit**: appenders stage framed bytes into a
//! shared buffer under a small mutex, then race for the writer lock. The
//! winner (leader) writes and fsyncs *everything staged so far* in one
//! batch; the losers find their sequence number already durable when they
//! get the lock and return without touching the disk. Under concurrency,
//! one fsync acknowledges many requests. `group_commit: false` disables
//! the shortcut — every durable append holds the writer lock across its
//! own write + fsync — which is what `bench_journal` compares against.
//!
//! # Recovery
//!
//! [`Journal::open`] rebuilds the request state machine and reports, in
//! admission order, every request that was admitted but neither completed
//! nor failed — the service re-enqueues those ([`crate::InferenceService`]
//! replays them through the normal worker pool). Completed responses are
//! kept in a **bounded** in-memory cache so a duplicate idempotency key is
//! answered from the journal instead of re-running ciphertext compute.

use crate::chaos::{CrashPlan, CrashPoint};
use crate::store::{frame_record, unframe_record, RecordFault};
use chet_hisa::serial::{fnv1a64, CodecError, Reader, Writer};
use chet_tensor::Tensor;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as IoWrite};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Journal record magic — distinct from the store's `CHETSTOR`.
const MAGIC: &[u8; 8] = b"CHETJRNL";

/// Journal format version; bump on layout changes.
pub const JOURNAL_FORMAT_VERSION: u8 = 1;

/// Live journal file name inside the store directory.
pub const JOURNAL_FILE: &str = "journal.wal";

/// Where a torn tail is quarantined for forensics.
pub const TORN_FILE: &str = "journal.torn";

/// Journal tuning, carried in [`crate::ServeConfig::journal`].
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Master switch. When `true`, the service requires a `store_dir` and
    /// journals every admission/completion through it.
    pub enabled: bool,
    /// Leader-based group-commit batching for durable appends. `false`
    /// serializes one fsync per record (measurably slower under load; see
    /// `BENCH_journal.json`).
    pub group_commit: bool,
    /// Capacity of the completed-response cache serving duplicate
    /// idempotency keys. Bounded: oldest completions are evicted first.
    pub completed_cache: usize,
    /// Seeded kill-site plan for the crash harness (`None` in production).
    pub crash: Option<CrashPlan>,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig { enabled: false, group_commit: true, completed_cache: 256, crash: None }
    }
}

/// Typed close-out code for a journaled request that did not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailCode {
    /// Every route failed with an execution error.
    Exec,
    /// Cancelled (explicitly or by deadline).
    Cancelled,
    /// Rejected by a draining shutdown before a worker could finish it.
    Shutdown,
    /// The worker disappeared without replying.
    WorkerLost,
    /// Shed at admission after the journal had already admitted it.
    Overloaded,
}

impl FailCode {
    fn tag(self) -> u8 {
        match self {
            FailCode::Exec => 0,
            FailCode::Cancelled => 1,
            FailCode::Shutdown => 2,
            FailCode::WorkerLost => 3,
            FailCode::Overloaded => 4,
        }
    }

    fn from_tag(tag: u8, at: usize) -> Result<Self, CodecError> {
        match tag {
            0 => Ok(FailCode::Exec),
            1 => Ok(FailCode::Cancelled),
            2 => Ok(FailCode::Shutdown),
            3 => Ok(FailCode::WorkerLost),
            4 => Ok(FailCode::Overloaded),
            tag => Err(CodecError::BadTag { at, what: "FailCode", tag }),
        }
    }
}

impl fmt::Display for FailCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FailCode::Exec => "exec",
            FailCode::Cancelled => "cancelled",
            FailCode::Shutdown => "shutdown",
            FailCode::WorkerLost => "worker-lost",
            FailCode::Overloaded => "overloaded",
        };
        write!(f, "{s}")
    }
}

/// One journal record — a transition of one request's state machine.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// The request was accepted; written durably before the ack.
    Admitted {
        /// Request id (also the admission order).
        request_id: u64,
        /// Client-supplied idempotency key (empty = unkeyed, no dedup).
        idempotency_key: String,
        /// The input, so replay can re-run the request verbatim.
        image: Tensor,
    },
    /// A worker picked the request up (diagnostic; replay does not need
    /// it, but it distinguishes "lost in queue" from "lost mid-run").
    Started {
        /// Request id.
        request_id: u64,
    },
    /// The request produced a response; written durably before the reply.
    Completed {
        /// Request id.
        request_id: u64,
        /// Whether the response came from the degraded route.
        degraded: bool,
        /// [`response_digest`] of the output — the identity the crash
        /// harness uses to prove dedup served the *same* answer.
        digest: u64,
        /// The output itself, so a duplicate key can be served the actual
        /// response after a restart.
        output: Tensor,
    },
    /// The request resolved with a typed error.
    Failed {
        /// Request id.
        request_id: u64,
        /// Why.
        code: FailCode,
    },
}

impl JournalRecord {
    fn kind_tag(&self) -> u8 {
        match self {
            JournalRecord::Admitted { .. } => 1,
            JournalRecord::Started { .. } => 2,
            JournalRecord::Completed { .. } => 3,
            JournalRecord::Failed { .. } => 4,
        }
    }

    /// The request this record belongs to.
    pub fn request_id(&self) -> u64 {
        match self {
            JournalRecord::Admitted { request_id, .. }
            | JournalRecord::Started { request_id }
            | JournalRecord::Completed { request_id, .. }
            | JournalRecord::Failed { request_id, .. } => *request_id,
        }
    }
}

/// Stable digest of a response: shape, every output bit, and the degraded
/// flag. Two acknowledgements of the same idempotency key must carry equal
/// digests — that is how the crash harness detects double execution.
pub fn response_digest(output: &Tensor, degraded: bool) -> u64 {
    let mut w = Writer::new();
    w.put_u32(output.shape().len() as u32);
    for &d in output.shape() {
        w.put_usize(d);
    }
    for &v in output.data() {
        w.put_f64(v);
    }
    w.put_u8(u8::from(degraded));
    fnv1a64(&w.into_bytes())
}

fn put_tensor(w: &mut Writer, t: &Tensor) {
    w.put_u32(t.shape().len() as u32);
    for &d in t.shape() {
        w.put_usize(d);
    }
    w.put_u32(t.data().len() as u32);
    for &v in t.data() {
        w.put_f64(v);
    }
}

fn get_tensor(r: &mut Reader<'_>, what: &'static str) -> Result<Tensor, CodecError> {
    let at = r.position();
    let rank = r.get_u32(what)? as usize;
    if rank.saturating_mul(8) > r.remaining() {
        return Err(CodecError::BadLength { at, what, len: rank });
    }
    let mut shape = Vec::with_capacity(rank);
    for _ in 0..rank {
        shape.push(r.get_usize(what)?);
    }
    let at = r.position();
    let n = r.get_u32(what)? as usize;
    if n.saturating_mul(8) > r.remaining() {
        return Err(CodecError::BadLength { at, what, len: n });
    }
    if shape.iter().product::<usize>() != n {
        return Err(CodecError::BadLength { at, what, len: n });
    }
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        data.push(r.get_f64(what)?);
    }
    Ok(Tensor::new(shape, data))
}

fn encode_payload(rec: &JournalRecord) -> Vec<u8> {
    let mut w = Writer::new();
    match rec {
        JournalRecord::Admitted { request_id, idempotency_key, image } => {
            w.put_u64(*request_id);
            w.put_str(idempotency_key);
            put_tensor(&mut w, image);
        }
        JournalRecord::Started { request_id } => w.put_u64(*request_id),
        JournalRecord::Completed { request_id, degraded, digest, output } => {
            w.put_u64(*request_id);
            w.put_u8(u8::from(*degraded));
            w.put_u64(*digest);
            put_tensor(&mut w, output);
        }
        JournalRecord::Failed { request_id, code } => {
            w.put_u64(*request_id);
            w.put_u8(code.tag());
        }
    }
    w.into_bytes()
}

fn decode_payload(kind: u8, payload: &[u8]) -> Result<JournalRecord, CodecError> {
    let mut r = Reader::new(payload);
    let rec = match kind {
        1 => JournalRecord::Admitted {
            request_id: r.get_u64("Admitted.request_id")?,
            idempotency_key: r.get_str("Admitted.idempotency_key")?,
            image: get_tensor(&mut r, "Admitted.image")?,
        },
        2 => JournalRecord::Started { request_id: r.get_u64("Started.request_id")? },
        3 => JournalRecord::Completed {
            request_id: r.get_u64("Completed.request_id")?,
            degraded: r.get_u8("Completed.degraded")? != 0,
            digest: r.get_u64("Completed.digest")?,
            output: get_tensor(&mut r, "Completed.output")?,
        },
        4 => {
            let request_id = r.get_u64("Failed.request_id")?;
            let at = r.position();
            let code = FailCode::from_tag(r.get_u8("Failed.code")?, at)?;
            JournalRecord::Failed { request_id, code }
        }
        tag => return Err(CodecError::BadTag { at: 0, what: "JournalRecord", tag }),
    };
    r.finish()?;
    Ok(rec)
}

/// Frames one record for the wire: header, payload, trailing checksum.
fn frame(rec: &JournalRecord) -> Vec<u8> {
    frame_record(MAGIC, JOURNAL_FORMAT_VERSION, rec.kind_tag(), &encode_payload(rec))
}

/// Attempts to read one record at the front of `bytes`; returns the record
/// and the total bytes it consumed.
fn unframe(bytes: &[u8]) -> Result<(JournalRecord, usize), RecordFault> {
    let (kind, payload, total) = unframe_record(MAGIC, JOURNAL_FORMAT_VERSION, bytes, false)?;
    let rec = decode_payload(kind, payload).map_err(RecordFault::Undecodable)?;
    Ok((rec, total))
}

/// A journal-level failure.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem error (disk full, permissions…). Sticky: once an append
    /// fails, later appends fail too — a half-written journal must not
    /// quietly resume.
    Io(io::Error),
    /// The journal was closed (service shut down).
    Closed,
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Closed => write!(f, "journal is closed"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// A completed response recovered from (or served by) the journal — what a
/// duplicate idempotency key receives instead of re-running the circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedResponse {
    /// The original request id.
    pub request_id: u64,
    /// The idempotency key it completed under.
    pub idempotency_key: String,
    /// The decrypted output.
    pub output: Tensor,
    /// Whether the original run was degraded.
    pub degraded: bool,
    /// [`response_digest`] of `output` + `degraded`.
    pub digest: u64,
}

/// One admitted-but-unresolved request recovered at open, in admission
/// order. The service re-enqueues these through the normal worker pool.
#[derive(Debug, Clone)]
pub struct PendingRequest {
    /// Original request id (replay keeps it, so chaos/retry streams — all
    /// keyed by request id — replay bit-identically).
    pub request_id: u64,
    /// Original idempotency key.
    pub idempotency_key: String,
    /// Original input.
    pub image: Tensor,
    /// Whether a `Started` record was seen (it died mid-run, not queued).
    pub started: bool,
}

/// The quarantined torn tail, when recovery found one.
#[derive(Debug, Clone)]
pub struct TornTail {
    /// Byte offset in the old file where framing lost sync.
    pub at_offset: u64,
    /// Bytes moved to the quarantine file.
    pub bytes: u64,
    /// What was wrong with the first bad record.
    pub fault: RecordFault,
    /// Where the bytes went ([`TORN_FILE`]).
    pub quarantined_to: PathBuf,
}

/// What [`Journal::open`] found and rebuilt.
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// Intact records scanned.
    pub records: usize,
    /// Admitted-but-unresolved requests, in admission order.
    pub pending: Vec<PendingRequest>,
    /// Every completed response, in admission order (the harness inspects
    /// this; the bounded cache only keeps the newest `completed_cache`).
    pub completed: Vec<CompletedResponse>,
    /// Requests closed with a [`FailCode`].
    pub failed: usize,
    /// Requests with more than one `Completed` record — must be zero; a
    /// nonzero count is a double acknowledgement, the bug the journal
    /// exists to prevent.
    pub double_completions: usize,
    /// Torn tail quarantined at the end of the file, if any.
    pub torn: Option<TornTail>,
    /// Highest request id seen (the service resumes its counter above it).
    pub max_request_id: u64,
}

/// Bounded idempotency-key → response cache (FIFO eviction).
#[derive(Debug)]
struct CompletedCache {
    capacity: usize,
    map: HashMap<String, CompletedResponse>,
    order: VecDeque<String>,
}

impl CompletedCache {
    fn new(capacity: usize) -> Self {
        CompletedCache { capacity, map: HashMap::new(), order: VecDeque::new() }
    }

    fn insert(&mut self, resp: CompletedResponse) {
        if resp.idempotency_key.is_empty() || self.capacity == 0 {
            return; // unkeyed requests cannot be deduplicated
        }
        if self.map.insert(resp.idempotency_key.clone(), resp.clone()).is_none() {
            self.order.push_back(resp.idempotency_key);
            while self.order.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }

    fn get(&self, key: &str) -> Option<CompletedResponse> {
        self.map.get(key).cloned()
    }
}

/// Staged-but-not-yet-durable state, behind a small mutex appenders hold
/// only long enough to copy framed bytes in.
#[derive(Debug)]
struct Staged {
    buf: Vec<u8>,
    /// Sequence number of the last staged record (1-based).
    appended: u64,
    closed: bool,
}

/// Writer-side state: only one thread writes/fsyncs at a time.
#[derive(Debug)]
struct Sink {
    file: File,
    /// Sequence number of the last durable record.
    flushed: u64,
    /// Sticky I/O failure.
    dead: Option<String>,
}

/// The durable request journal. See the module docs for format, group
/// commit and recovery semantics. All methods take `&self` — the journal
/// is shared across the worker pool behind an `Arc`.
#[derive(Debug)]
pub struct Journal {
    staged: Mutex<Staged>,
    sink: Mutex<Sink>,
    completed: Mutex<CompletedCache>,
    group_commit: bool,
    crash: Option<CrashPlan>,
    /// Total records appended (staged) since open.
    records_appended: AtomicU64,
    /// Total fsync batches since open.
    fsyncs: AtomicU64,
    /// Torn-tail events quarantined (0 or 1 per open; cumulative across
    /// reopens is the operator's business).
    torn_records: AtomicU64,
}

impl Journal {
    /// Opens (creating if needed) the journal in `dir`, runs torn-tail
    /// recovery, rebuilds the request state machine and returns it with a
    /// [`ReplayReport`] of what must be replayed.
    pub fn open(dir: &Path, config: &JournalConfig) -> Result<(Journal, ReplayReport), JournalError> {
        fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(JournalError::Io(e)),
        };

        let mut report = ReplayReport::default();
        let mut records: Vec<JournalRecord> = Vec::new();
        let mut offset = 0usize;
        let mut torn_fault: Option<RecordFault> = None;
        while offset < bytes.len() {
            match unframe(&bytes[offset..]) {
                Ok((rec, consumed)) => {
                    records.push(rec);
                    offset += consumed;
                }
                Err(fault) => {
                    torn_fault = Some(fault);
                    break;
                }
            }
        }
        if let Some(fault) = torn_fault {
            // Quarantine the tail: keep the corpse for forensics, truncate
            // the live file back to the last intact record. Quarantine
            // first — if the process dies between the two steps, the next
            // open redoes both (the write is idempotent).
            let torn_path = dir.join(TORN_FILE);
            let tail = &bytes[offset..];
            fs::write(&torn_path, tail)?;
            let keep = OpenOptions::new().write(true).open(&path);
            match keep {
                Ok(f) => f.set_len(offset as u64)?,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(JournalError::Io(e)),
            }
            report.torn = Some(TornTail {
                at_offset: offset as u64,
                bytes: tail.len() as u64,
                fault,
                quarantined_to: torn_path,
            });
        }

        // Rebuild the state machine in admission order.
        let mut admitted: BTreeMap<u64, (String, Tensor)> = BTreeMap::new();
        let mut started: HashSet<u64> = HashSet::new();
        let mut completed_ids: HashSet<u64> = HashSet::new();
        let mut failed_ids: HashSet<u64> = HashSet::new();
        let mut completed: Vec<(u64, CompletedResponse)> = Vec::new();
        for rec in &records {
            report.max_request_id = report.max_request_id.max(rec.request_id());
            match rec {
                JournalRecord::Admitted { request_id, idempotency_key, image } => {
                    admitted.insert(*request_id, (idempotency_key.clone(), image.clone()));
                }
                JournalRecord::Started { request_id } => {
                    started.insert(*request_id);
                }
                JournalRecord::Completed { request_id, degraded, digest, output } => {
                    if !completed_ids.insert(*request_id) {
                        report.double_completions += 1;
                        continue;
                    }
                    let key = admitted
                        .get(request_id)
                        .map(|(k, _)| k.clone())
                        .unwrap_or_default();
                    completed.push((
                        *request_id,
                        CompletedResponse {
                            request_id: *request_id,
                            idempotency_key: key,
                            output: output.clone(),
                            degraded: *degraded,
                            digest: *digest,
                        },
                    ));
                }
                JournalRecord::Failed { request_id, .. } => {
                    if completed_ids.contains(request_id) {
                        // Completed wins: the client saw a response.
                        continue;
                    }
                    failed_ids.insert(*request_id);
                }
            }
        }
        completed.sort_by_key(|(id, _)| *id);
        report.records = records.len();
        report.failed = failed_ids.len();
        report.pending = admitted
            .iter()
            .filter(|(id, _)| !completed_ids.contains(id) && !failed_ids.contains(id))
            .map(|(id, (key, image))| PendingRequest {
                request_id: *id,
                idempotency_key: key.clone(),
                image: image.clone(),
                started: started.contains(id),
            })
            .collect();

        // The bounded cache keeps the newest completions.
        let mut cache = CompletedCache::new(config.completed_cache);
        let skip = completed.len().saturating_sub(config.completed_cache);
        for (_, resp) in completed.iter().skip(skip) {
            cache.insert(resp.clone());
        }
        report.completed = completed.into_iter().map(|(_, r)| r).collect();

        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let journal = Journal {
            staged: Mutex::new(Staged { buf: Vec::new(), appended: 0, closed: false }),
            sink: Mutex::new(Sink { file, flushed: 0, dead: None }),
            completed: Mutex::new(cache),
            group_commit: config.group_commit,
            crash: config.crash.clone(),
            records_appended: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            torn_records: AtomicU64::new(u64::from(report.torn.is_some())),
        };
        Ok((journal, report))
    }

    /// Stages a record for the next flush (no durability yet). Returns the
    /// record's journal sequence number for [`Journal::wait_durable`]-style
    /// reasoning; most callers use [`Journal::append_durable`] instead.
    pub fn append(&self, rec: &JournalRecord) -> Result<u64, JournalError> {
        let framed = frame(rec);
        let seq = {
            let mut g = self.staged.lock().unwrap_or_else(|p| p.into_inner());
            if g.closed {
                return Err(JournalError::Closed);
            }
            g.buf.extend_from_slice(&framed);
            g.appended += 1;
            g.appended
        };
        self.records_appended.fetch_add(1, Ordering::Relaxed);
        Ok(seq)
    }

    /// Stages a record and blocks until it (and everything staged before
    /// it) is fsynced. This is the acknowledgement barrier: `Admitted`
    /// goes through here before `submit` returns, and `Completed` before
    /// the reply is sent.
    pub fn append_durable(&self, rec: &JournalRecord) -> Result<u64, JournalError> {
        if !self.group_commit {
            // No group commit: hold the writer lock across stage + write +
            // fsync, one fsync per record.
            let mut sink = self.sink.lock().unwrap_or_else(|p| p.into_inner());
            let seq = self.append(rec)?;
            self.flush_into(&mut sink)?;
            return Ok(seq);
        }
        let seq = self.append(rec)?;
        let mut sink = self.sink.lock().unwrap_or_else(|p| p.into_inner());
        if sink.flushed >= seq {
            // A concurrent leader's batch already carried this record.
            if let Some(dead) = &sink.dead {
                return Err(JournalError::Io(io::Error::other(dead.clone())));
            }
            return Ok(seq);
        }
        self.flush_into(&mut sink)?;
        Ok(seq)
    }

    /// Publishes a completed response into the dedup cache. The service
    /// calls this right after journaling the `Completed` record (the
    /// journal itself cannot know the idempotency key binding without
    /// re-deriving it from admissions).
    pub fn note_completed(&self, resp: CompletedResponse) {
        self.completed.lock().unwrap_or_else(|p| p.into_inner()).insert(resp);
    }

    /// Looks a completed response up by idempotency key — the duplicate-
    /// submission fast path.
    pub fn lookup_completed(&self, key: &str) -> Option<CompletedResponse> {
        if key.is_empty() {
            return None;
        }
        self.completed.lock().unwrap_or_else(|p| p.into_inner()).get(key)
    }

    /// Flushes everything staged. Called by shutdown; also useful after a
    /// burst of non-durable appends.
    pub fn flush(&self) -> Result<(), JournalError> {
        let mut sink = self.sink.lock().unwrap_or_else(|p| p.into_inner());
        self.flush_into(&mut sink)
    }

    /// Marks the journal closed: subsequent appends fail with
    /// [`JournalError::Closed`]. Staged records are flushed first.
    pub fn close(&self) -> Result<(), JournalError> {
        let flush = self.flush();
        let mut g = self.staged.lock().unwrap_or_else(|p| p.into_inner());
        g.closed = true;
        flush
    }

    /// Records staged but not yet durable — the journal-lag health signal.
    pub fn lag(&self) -> u64 {
        let appended = {
            let g = self.staged.lock().unwrap_or_else(|p| p.into_inner());
            g.appended
        };
        let flushed = {
            let g = self.sink.lock().unwrap_or_else(|p| p.into_inner());
            g.flushed
        };
        appended.saturating_sub(flushed)
    }

    /// Total records appended since open.
    pub fn records_appended(&self) -> u64 {
        self.records_appended.load(Ordering::Relaxed)
    }

    /// Total fsync batches since open — `records_appended / fsyncs` is the
    /// realized group-commit batching factor.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// Torn-tail events quarantined by this open.
    pub fn torn_records(&self) -> u64 {
        self.torn_records.load(Ordering::Relaxed)
    }

    /// The batch write + fsync cycle, run with the writer lock held.
    /// Carries the crash harness's first two kill sites.
    fn flush_into(&self, sink: &mut Sink) -> Result<(), JournalError> {
        if let Some(dead) = &sink.dead {
            return Err(JournalError::Io(io::Error::other(dead.clone())));
        }
        let (batch, target) = {
            let mut g = self.staged.lock().unwrap_or_else(|p| p.into_inner());
            (std::mem::take(&mut g.buf), g.appended)
        };
        if batch.is_empty() {
            return Ok(());
        }
        if let Some(crash) = &self.crash {
            if crash.fires(CrashPoint::BeforeFsync) {
                // Model a torn write: half the batch durably reaches the
                // disk, then the process dies before the full fsync. The
                // next open must quarantine the torn tail.
                let half = &batch[..batch.len() / 2];
                let _ = sink.file.write_all(half);
                let _ = sink.file.sync_data();
                std::process::abort();
            }
        }
        let result = sink.file.write_all(&batch).and_then(|()| sink.file.sync_data());
        if let Err(e) = result {
            sink.dead = Some(e.to_string());
            return Err(JournalError::Io(e));
        }
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        if let Some(crash) = &self.crash {
            if crash.fires(CrashPoint::AfterFsyncBeforeAck) {
                // The batch is durable but nobody has been acknowledged.
                std::process::abort();
            }
        }
        sink.flushed = target;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir()
            .join(format!("chet-journal-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn img(seed: u64) -> Tensor {
        Tensor::random(vec![1, 2, 2], 1.0, seed)
    }

    fn admit(id: u64, key: &str) -> JournalRecord {
        JournalRecord::Admitted {
            request_id: id,
            idempotency_key: key.to_string(),
            image: img(id),
        }
    }

    fn complete(id: u64, key: &str) -> (JournalRecord, CompletedResponse) {
        let output = img(1000 + id);
        let digest = response_digest(&output, false);
        (
            JournalRecord::Completed {
                request_id: id,
                degraded: false,
                digest,
                output: output.clone(),
            },
            CompletedResponse {
                request_id: id,
                idempotency_key: key.to_string(),
                output,
                degraded: false,
                digest,
            },
        )
    }

    #[test]
    fn records_roundtrip_through_framing() {
        let recs = vec![
            admit(1, "k1"),
            JournalRecord::Started { request_id: 1 },
            complete(1, "k1").0,
            JournalRecord::Failed { request_id: 2, code: FailCode::Shutdown },
        ];
        for rec in &recs {
            let framed = frame(rec);
            let (back, consumed) = unframe(&framed).unwrap();
            assert_eq!(consumed, framed.len());
            assert_eq!(&back, rec);
        }
    }

    #[test]
    fn state_machine_replays_pending_in_admission_order() {
        let dir = tmpdir("replay");
        let cfg = JournalConfig { enabled: true, ..JournalConfig::default() };
        {
            let (j, rep) = Journal::open(&dir, &cfg).unwrap();
            assert!(rep.pending.is_empty());
            j.append_durable(&admit(1, "a")).unwrap();
            j.append_durable(&admit(2, "b")).unwrap();
            j.append(&JournalRecord::Started { request_id: 1 }).unwrap();
            j.append_durable(&admit(3, "c")).unwrap();
            let (rec, resp) = complete(2, "b");
            j.append_durable(&rec).unwrap();
            j.note_completed(resp);
            j.append_durable(&JournalRecord::Failed { request_id: 3, code: FailCode::Shutdown })
                .unwrap();
            j.close().unwrap();
        }
        let (j, rep) = Journal::open(&dir, &cfg).unwrap();
        assert_eq!(rep.records, 6);
        assert_eq!(rep.failed, 1);
        assert_eq!(rep.max_request_id, 3);
        assert!(rep.torn.is_none());
        // Only request 1 is pending: 2 completed, 3 failed(shutdown).
        assert_eq!(rep.pending.len(), 1);
        assert_eq!(rep.pending[0].request_id, 1);
        assert!(rep.pending[0].started);
        assert_eq!(rep.pending[0].idempotency_key, "a");
        // The completed response is servable by key after reopen.
        let resp = j.lookup_completed("b").expect("cached");
        assert_eq!(resp.request_id, 2);
        assert_eq!(rep.completed.len(), 1);
        assert_eq!(rep.double_completions, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_quarantined_and_prefix_survives() {
        let dir = tmpdir("torn");
        let cfg = JournalConfig { enabled: true, ..JournalConfig::default() };
        let path = dir.join(JOURNAL_FILE);
        {
            let (j, _) = Journal::open(&dir, &cfg).unwrap();
            j.append_durable(&admit(1, "a")).unwrap();
            j.append_durable(&admit(2, "b")).unwrap();
            j.close().unwrap();
        }
        let full = fs::read(&path).unwrap();
        let first_len = unframe(&full).unwrap().1;
        // Truncate into the middle of record 2: record 1 must survive,
        // the tail must be quarantined, and a reopen must not see damage.
        fs::write(&path, &full[..first_len + 7]).unwrap();
        let (j, rep) = Journal::open(&dir, &cfg).unwrap();
        assert_eq!(rep.records, 1);
        assert_eq!(rep.pending.len(), 1);
        let torn = rep.torn.expect("torn tail detected");
        assert_eq!(torn.at_offset, first_len as u64);
        assert_eq!(torn.bytes, 7);
        assert!(torn.quarantined_to.exists());
        assert_eq!(j.torn_records(), 1);
        drop(j);
        // The live file was truncated back to the intact prefix, so the
        // next open is clean.
        let (_, rep) = Journal::open(&dir, &cfg).unwrap();
        assert!(rep.torn.is_none());
        assert_eq!(rep.records, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_middle_record_quarantines_everything_after_it() {
        let dir = tmpdir("midflip");
        let cfg = JournalConfig { enabled: true, ..JournalConfig::default() };
        let path = dir.join(JOURNAL_FILE);
        {
            let (j, _) = Journal::open(&dir, &cfg).unwrap();
            j.append_durable(&admit(1, "a")).unwrap();
            j.append_durable(&admit(2, "b")).unwrap();
            j.append_durable(&admit(3, "c")).unwrap();
            j.close().unwrap();
        }
        let full = fs::read(&path).unwrap();
        let first_len = unframe(&full).unwrap().1;
        let mut bad = full.clone();
        bad[first_len + 20] ^= 0x10; // inside record 2
        fs::write(&path, &bad).unwrap();
        let (_, rep) = Journal::open(&dir, &cfg).unwrap();
        // Framing lost sync at record 2: record 3 is quarantined with it.
        assert_eq!(rep.records, 1);
        assert!(matches!(
            rep.torn.as_ref().map(|t| &t.fault),
            Some(RecordFault::ChecksumMismatch { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn completed_cache_is_bounded_fifo() {
        let mut cache = CompletedCache::new(2);
        for id in 1..=3u64 {
            let (_, resp) = complete(id, &format!("k{id}"));
            cache.insert(resp);
        }
        assert!(cache.get("k1").is_none(), "oldest evicted");
        assert!(cache.get("k2").is_some());
        assert!(cache.get("k3").is_some());
        // Unkeyed completions never enter the cache.
        let (_, mut resp) = complete(9, "");
        resp.idempotency_key = String::new();
        cache.insert(resp);
        assert!(cache.get("").is_none());
    }

    #[test]
    fn group_commit_batches_concurrent_durable_appends() {
        let dir = tmpdir("group");
        let cfg = JournalConfig { enabled: true, ..JournalConfig::default() };
        let (j, _) = Journal::open(&dir, &cfg).unwrap();
        let j = Arc::new(j);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let j2 = Arc::clone(&j);
            handles.push(std::thread::spawn(move || {
                for i in 0..16u64 {
                    j2.append_durable(&admit(t * 100 + i, "")).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(j.records_appended(), 64);
        assert_eq!(j.lag(), 0, "every durable append is flushed");
        // Leader-based batching: strictly fewer fsyncs than records would
        // prove batching, but on a fast disk every append may win its own
        // leadership; the hard bound is fsyncs <= records.
        assert!(j.fsyncs() <= 64);
        // Everything actually landed.
        let j_owned = Arc::try_unwrap(j).unwrap();
        j_owned.close().unwrap();
        let (_, rep) = Journal::open(&dir, &cfg).unwrap();
        assert_eq!(rep.records, 64);
        assert_eq!(rep.pending.len(), 64);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_group_commit_fsyncs_every_record() {
        let dir = tmpdir("nogroup");
        let cfg =
            JournalConfig { enabled: true, group_commit: false, ..JournalConfig::default() };
        let (j, _) = Journal::open(&dir, &cfg).unwrap();
        for i in 0..8u64 {
            j.append_durable(&admit(i, "")).unwrap();
        }
        assert_eq!(j.fsyncs(), 8);
        assert_eq!(j.lag(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn closed_journal_refuses_appends() {
        let dir = tmpdir("closed");
        let cfg = JournalConfig { enabled: true, ..JournalConfig::default() };
        let (j, _) = Journal::open(&dir, &cfg).unwrap();
        j.close().unwrap();
        assert!(matches!(j.append(&admit(1, "a")), Err(JournalError::Closed)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn response_digest_distinguishes_output_and_degraded() {
        let t = img(5);
        let a = response_digest(&t, false);
        assert_eq!(a, response_digest(&t, false));
        assert_ne!(a, response_digest(&t, true));
        assert_ne!(a, response_digest(&img(6), false));
    }

    #[test]
    fn completed_wins_over_a_later_failed_record() {
        // A watchdog-cancelled worker can race shutdown marking: if the
        // client saw a response, the response is the truth.
        let dir = tmpdir("race");
        let cfg = JournalConfig { enabled: true, ..JournalConfig::default() };
        {
            let (j, _) = Journal::open(&dir, &cfg).unwrap();
            j.append_durable(&admit(1, "k")).unwrap();
            let (rec, _) = complete(1, "k");
            j.append_durable(&rec).unwrap();
            j.append_durable(&JournalRecord::Failed { request_id: 1, code: FailCode::Shutdown })
                .unwrap();
        }
        let (_, rep) = Journal::open(&dir, &cfg).unwrap();
        assert!(rep.pending.is_empty());
        assert_eq!(rep.completed.len(), 1);
        assert_eq!(rep.failed, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn framed_admitted_record_is_pinned() {
        // The shared record layout under the journal's magic, byte for byte.
        let framed = frame(&admit(7, "pin"));
        assert_eq!(framed.len(), 101);
        assert_eq!(fnv1a64(&framed), 0x7ae1_eab0_08e2_31d3);
    }

    #[test]
    fn a_store_record_is_not_a_journal_record() {
        use crate::store::{ArtifactStore, KeyBundleRecord};
        let dir = tmpdir("store-magic");
        let (store, _) = ArtifactStore::open(&dir).unwrap();
        let bundle =
            KeyBundleRecord { params_fingerprint: 1, seed: 2, rotation_steps: Default::default() };
        store.put_key_bundle("keys", &bundle).unwrap();
        let bytes = fs::read(dir.join("keys.rec")).unwrap();
        assert!(matches!(unframe(&bytes), Err(RecordFault::BadMagic)));
        let _ = fs::remove_dir_all(&dir);
    }
}
