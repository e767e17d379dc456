//! The resilient inference service: worker pool, admission queue,
//! deadlines, retries, repair escalation and graceful degradation.
//!
//! # Request lifecycle
//!
//! [`InferenceService::submit`] places a job on a **bounded** queue — a
//! full queue sheds the request immediately with
//! [`ServeError::Overloaded`] rather than blocking the caller (FHE
//! latencies are so long that an unbounded queue just converts overload
//! into timeout storms). A worker thread dequeues up to
//! [`ServeConfig::max_batch`] compatible jobs as one **cohort** — a solo
//! request is a cohort of one — consults the per-backend
//! [`CircuitBreaker`] and runs it:
//!
//! * **Primary route** — the cohort's live members execute together,
//!   packed along the slot axis, on the backend built by the service's
//!   factory, under a cohort [`CancelToken`] and an op-counting observer.
//!   A cohort of one runs under its request's own token (deadline); a
//!   larger cohort's token trips only once every member has cancelled.
//!   Transient HISA failures are retried with deterministic exponential
//!   backoff; `LevelExhausted` and `PrecisionLoss` additionally escalate
//!   into the compiler's [`Compiler::compile_checked`] repair path,
//!   recompiling the shared artifact with one more margin level before
//!   the retry.
//! * **Degraded route** — when the breaker is open or primary attempts
//!   are exhausted, a cohort of one runs on the plaintext simulator
//!   ([`SimCkks`]) built from the same compiled parameters, and the
//!   response is flagged [`InferResponse::degraded`]. A larger cohort
//!   hands each member it cannot resolve back to run alone, as a cohort
//!   of one.
//!
//! Worker panics are caught ([`std::panic::catch_unwind`]), counted, and
//! treated as backend failures: the worker rebuilds its backend and the
//! service keeps running. [`InferenceService::shutdown`] drains the queue
//! and joins every worker before returning the final [`ServiceStats`].

use crate::breaker::{BreakerConfig, CircuitBreaker, Route};
use crate::chaos::{ChaosPlan, CrashPoint};
use crate::health::{HealthReport, JournalHealth, WorkerHealth, WorkerState};
use crate::journal::{
    response_digest, CompletedResponse, FailCode, Journal, JournalConfig, JournalRecord,
};
use crate::queue::{CoalescingQueue, PushError};
use crate::retry::RetryPolicy;
use crate::stats::{Counters, LatencyHistogram, ServiceStats};
use crate::store::{ArtifactStore, LockError, StoreIntegrity, StoreLock, StoredArtifact};
use crate::watchdog::{Escalation, Watchdog, WatchdogConfig, WatchdogHooks, WorkerSlot};
use chet_ckks::sim::SimCkks;
use chet_compiler::ir::{cost as ir_cost, extract_ir, ExtractMode};
use chet_compiler::{verify_compiled, CompiledCircuit, Compiler, SelectError};
use chet_hisa::cost::CostModel;
use chet_hisa::params::SchemeKind;
use chet_hisa::serial::params_fingerprint;
use chet_hisa::{Hisa, HisaError};
use chet_runtime::cancel::{CancelReason, CancelToken};
use chet_runtime::exec::{
    batch_capacity, try_infer_batch_with_control, try_infer_with_control, ExecControl, ExecError,
    ExecObserver, ExecReport,
};
use chet_runtime::fault::FaultInjector;
use chet_runtime::kernels::ScaleConfig;
use chet_tensor::circuit::Circuit;
use chet_tensor::ops::ShapeError;
use chet_tensor::Tensor;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Store record name for the service's compiled artifact.
const ARTIFACT_RECORD: &str = "artifact";
/// Store record name for the artifact's key-bundle metadata.
const KEY_BUNDLE_RECORD: &str = "key-bundle";

/// Service tuning. [`ServeConfig::default`] is sized for tests and small
/// deployments: 2 workers, a 32-deep queue, 3 attempts per request.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing requests.
    pub workers: usize,
    /// Bounded admission-queue depth; a full queue sheds load.
    pub queue_capacity: usize,
    /// Deadline applied by [`InferenceService::submit`] when the caller
    /// does not bring their own token (`None` = no deadline).
    pub default_deadline: Option<Duration>,
    /// Retry/backoff policy for primary attempts.
    pub retry: RetryPolicy,
    /// Circuit-breaker tuning for the primary backend.
    pub breaker: BreakerConfig,
    /// Seed for the degraded-route simulator backend.
    pub degraded_seed: u64,
    /// Intra-request kernel/limb parallelism: threads each worker's
    /// parallel regions fan out over (`None` = leave the process-global
    /// setting alone, i.e. `CHET_THREADS` or hardware parallelism).
    /// Applied via [`chet_runtime::par::set_threads`] at service start,
    /// so it is process-global, not per-service.
    pub threads: Option<usize>,
    /// Whether exhausted/skipped primary requests fall back to the
    /// degraded simulator route. `false` turns the fallback off: requests
    /// the breaker routes away are shed with [`ServeError::Overloaded`]
    /// (they were never queued against the primary) and exhausted retries
    /// fail with [`ServeError::Failed`] — the strict mode deployments use
    /// when a plaintext-simulated answer is worse than no answer.
    pub degraded_fallback: bool,
    /// Directory for the crash-safe artifact/key store (`None` = memory
    /// only). On start the service recovers from it — quarantining
    /// corrupt records and recompiling if needed — and every repair
    /// republishes into it.
    pub store_dir: Option<PathBuf>,
    /// Deterministic key-generation seed recorded in the store's key
    /// bundle, binding regenerable key material to the artifact.
    pub key_seed: u64,
    /// Watchdog tuning for wedged-worker detection.
    pub watchdog: WatchdogConfig,
    /// Seeded serve-layer chaos injection (`None` = no chaos). Test and
    /// soak machinery — never enable in production.
    pub chaos: Option<ChaosPlan>,
    /// Durable request journal ([`crate::journal`]). Requires `store_dir`
    /// when enabled: the journal lives next to the artifact store, under
    /// the same advisory lock.
    pub journal: JournalConfig,
    /// Publish-gate latency budget in microseconds (`None` = no budget).
    /// When set, the gate prices one inference of the artifact with the
    /// calibrated static cost model and refuses to publish
    /// ([`ServeError::CostBudget`]) artifacts predicted to exceed it — the
    /// deny knob that keeps a pathological recompile from silently turning
    /// a 100 ms service into a 10 s one.
    pub cost_budget_us: Option<f64>,
    /// Cost model the budget gate prices with (`None` = the scheme's
    /// default constants). Deployments load calibrated constants from
    /// `BENCH_rns_ops.json` fits here.
    pub cost_model: Option<CostModel>,
    /// Maximum requests coalesced into one encrypted batch (slot-axis
    /// packing). `1` (the default) disables coalescing: every request runs
    /// as a cohort of one, under its own token, with no linger. Values
    /// above the circuit's slot-axis capacity are clamped to it.
    pub max_batch: usize,
    /// How long a dequeuing worker lingers for stragglers when its batch
    /// is still short of `max_batch`. `ZERO` (the default) batches only
    /// what is already queued — latency is never traded away silently;
    /// deployments chasing throughput set tens of milliseconds here.
    pub max_linger: Duration,
    /// Decrypted outputs are snapped to multiples of this quantum before
    /// they are journaled, digested or returned (`None` = raw outputs).
    /// Approximate-arithmetic backends (real RNS-CKKS) produce outputs
    /// that differ in the noise bits between a solo and a batched run of
    /// the same request; a quantum a few bits above the noise floor makes
    /// the response — and therefore the idempotency digest — byte-stable
    /// across both paths.
    pub output_quantum: Option<f64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 32,
            default_deadline: None,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            degraded_seed: 0x5EED,
            threads: None,
            degraded_fallback: true,
            store_dir: None,
            key_seed: 1,
            watchdog: WatchdogConfig::default(),
            chaos: None,
            journal: JournalConfig::default(),
            cost_budget_us: None,
            cost_model: None,
            max_batch: 1,
            max_linger: Duration::ZERO,
            output_quantum: None,
        }
    }
}

/// A completed inference.
#[derive(Debug, Clone)]
pub struct InferResponse {
    /// Request id assigned at submission.
    pub id: u64,
    /// The decrypted prediction.
    pub output: Tensor,
    /// `true` when the request ran on the degraded (simulator) route
    /// instead of the primary backend.
    pub degraded: bool,
    /// Primary attempts spent (0 when the breaker skipped the primary).
    pub attempts: usize,
    /// Version of the compiled artifact the run used.
    pub artifact_version: u64,
    /// Circuit nodes executed by the final (successful) run.
    pub ops_executed: usize,
    /// Executor degradation log for the successful run.
    pub report: ExecReport,
    /// End-to-end latency, from submission to completion.
    pub latency: Duration,
}

/// A structured request or service failure — the service never panics a
/// caller and never blocks one on overload.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The admission queue was full; the request was shed, not queued.
    Overloaded {
        /// Configured queue capacity that was exceeded.
        capacity: usize,
    },
    /// The service is draining and no longer accepts requests.
    ShuttingDown,
    /// The request was cancelled (explicitly or by deadline) before it
    /// produced a result.
    Cancelled(CancelReason),
    /// Every route failed; the last error observed is attached.
    Failed {
        /// Primary attempts spent before giving up.
        attempts: usize,
        /// The failure from the last route tried.
        error: ExecError,
    },
    /// The initial [`Compiler::compile_checked`] could not produce a
    /// servable artifact.
    Compile(SelectError),
    /// The static verifier found `Deny` diagnostics in the artifact; the
    /// service refuses to publish it.
    Lint {
        /// Number of `Deny` diagnostics reported.
        denies: usize,
        /// Rendering of the first `Deny` diagnostic.
        first: String,
    },
    /// The executing worker disappeared without replying (it panicked
    /// outside the guarded region, or the service was torn down).
    WorkerLost,
    /// Another live process holds the store/journal advisory lock. Two
    /// writers interleaving one journal would corrupt the durable state,
    /// so the second opener fails at startup instead.
    StoreLocked {
        /// PID of the live lock holder.
        holder_pid: u32,
    },
    /// A request with this idempotency key is already admitted and still
    /// unresolved — resubmitting now would double-execute. Wait on the
    /// original ticket (request id attached), or retry after it resolves.
    DuplicatePending {
        /// Request id of the in-flight original.
        request_id: u64,
    },
    /// The request journal could not make an admission durable (disk
    /// full, I/O error). The request was NOT accepted: with journaling
    /// enabled, an acknowledgement the journal cannot back is a lie.
    JournalUnavailable {
        /// The underlying journal error.
        detail: String,
    },
    /// The publish gate's static cost model predicts the artifact exceeds
    /// the configured latency budget; the service refuses to publish it.
    CostBudget {
        /// Predicted per-inference latency, microseconds.
        predicted_us: f64,
        /// The configured budget, microseconds.
        budget_us: f64,
    },
    /// The request is malformed (e.g. its input shape does not match the
    /// served circuit) and was refused at admission. Non-retryable: the
    /// same request will fail the same way every time, so it never reaches
    /// a worker, the retry loop or the circuit breaker.
    InvalidRequest {
        /// The structured shape/validation failure.
        detail: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { capacity } => {
                write!(f, "admission queue full (capacity {capacity}); request shed")
            }
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::Cancelled(reason) => write!(f, "request {reason}"),
            ServeError::Failed { attempts, error } => {
                write!(f, "request failed after {attempts} primary attempt(s): {error}")
            }
            ServeError::Compile(e) => write!(f, "artifact compilation failed: {e}"),
            ServeError::Lint { denies, first } => {
                write!(f, "artifact rejected by static verifier ({denies} deny): {first}")
            }
            ServeError::WorkerLost => write!(f, "worker disappeared without replying"),
            ServeError::StoreLocked { holder_pid } => {
                write!(f, "store/journal directory locked by live process {holder_pid}")
            }
            ServeError::DuplicatePending { request_id } => {
                write!(f, "idempotency key already in flight as request {request_id}")
            }
            ServeError::JournalUnavailable { detail } => {
                write!(f, "request journal unavailable: {detail}")
            }
            ServeError::CostBudget { predicted_us, budget_us } => {
                write!(
                    f,
                    "artifact rejected by cost budget: predicted {predicted_us:.0} us \
                     per inference exceeds the {budget_us:.0} us budget"
                )
            }
            ServeError::InvalidRequest { detail } => {
                write!(f, "invalid request (non-retryable): {detail}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Failed { error, .. } => Some(error),
            ServeError::Compile(e) => Some(e),
            _ => None,
        }
    }
}

/// Handle to one submitted request.
#[derive(Debug)]
pub struct Ticket {
    id: u64,
    token: CancelToken,
    rx: mpsc::Receiver<Result<InferResponse, ServeError>>,
}

impl Ticket {
    /// The request id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Cancels the request cooperatively; the worker aborts at the next
    /// tensor-op boundary.
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// Blocks until the request resolves.
    pub fn wait(self) -> Result<InferResponse, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::WorkerLost))
    }

    /// Non-blocking poll: `None` while the request is still in flight.
    pub fn poll(&self) -> Option<Result<InferResponse, ServeError>> {
        self.rx.try_recv().ok()
    }
}

/// The publish gate: runs the static verifier over an artifact and refuses
/// it (as [`ServeError::Lint`]) when any `Deny` diagnostic is present. The
/// service calls this before publishing an artifact — at startup and after
/// every repair recompilation — so a bad artifact can never become the
/// shared serving state, even if the compile path that produced it skipped
/// its own checks.
pub fn vet_artifact(circuit: &Circuit, compiled: &CompiledCircuit) -> Result<(), ServeError> {
    let report = verify_compiled(circuit, compiled);
    if report.has_deny() {
        let first = report
            .first_deny()
            .map(|d| d.to_string())
            .unwrap_or_else(|| "unknown deny diagnostic".to_string());
        return Err(ServeError::Lint { denies: report.deny_count(), first });
    }
    Ok(())
}

/// [`vet_artifact`] plus the cost-budget deny knob: when `budget_us` is
/// set, extracts the artifact's HISA IR and prices one inference with the
/// static cost model; a prediction over budget refuses publication as
/// [`ServeError::CostBudget`].
pub fn vet_artifact_with_budget(
    circuit: &Circuit,
    compiled: &CompiledCircuit,
    budget_us: Option<f64>,
    model: Option<&CostModel>,
) -> Result<(), ServeError> {
    vet_artifact(circuit, compiled)?;
    let Some(budget_us) = budget_us else { return Ok(()) };
    // Extraction walks the verifier's own interpretation and fails only on
    // a deny diagnostic, which `vet_artifact` above has already refused; if
    // it ever fails anyway, an unpriceable artifact should not be refused
    // on cost grounds.
    let Ok(ir) = extract_ir(circuit, compiled, ExtractMode::Metadata) else {
        return Ok(());
    };
    let model = match model {
        Some(m) => m.clone(),
        None => CostModel::for_scheme(compiled.params.kind()),
    };
    let predicted_us = ir_cost::estimate(&ir, &model).total_us;
    if predicted_us > budget_us {
        return Err(ServeError::CostBudget { predicted_us, budget_us });
    }
    Ok(())
}

/// Outcome of a keyed submission ([`InferenceService::submit_keyed`]).
#[derive(Debug)]
pub enum Submission {
    /// The request was admitted (and, with journaling on, its admission
    /// is already durable). Wait on the ticket as usual.
    Accepted(Ticket),
    /// This idempotency key already completed — here is the original
    /// response, served from the journal's completed cache without
    /// touching ciphertext compute.
    Duplicate(CompletedResponse),
}

struct Job {
    id: u64,
    image: Tensor,
    token: CancelToken,
    submitted: Instant,
    reply: mpsc::Sender<Result<InferResponse, ServeError>>,
    /// Client idempotency key (empty = unkeyed, no dedup).
    key: String,
    /// `true` when this job was re-enqueued from the journal at startup.
    replayed: bool,
}

/// The shared compiled artifact, re-versioned by each successful repair.
struct ArtifactState {
    version: u64,
    compiled: Arc<CompiledCircuit>,
    scales: ScaleConfig,
    extra_margin: usize,
}

struct ServiceCore {
    circuit: Circuit,
    compiler: Compiler,
    config: ServeConfig,
    artifact: RwLock<ArtifactState>,
    breaker: CircuitBreaker,
    counters: Counters,
    latency: LatencyHistogram,
    accepting: AtomicBool,
    next_id: AtomicU64,
    /// The crash-safe store, when configured; repairs republish into it.
    store: Option<ArtifactStore>,
    /// The durable request journal, when enabled.
    journal: Option<Arc<Journal>>,
    /// Advisory single-opener lock on the store directory; held for the
    /// service's lifetime, released (or stolen from our corpse) on exit.
    _store_lock: Option<StoreLock>,
    /// Tokens of requests admitted but not yet replied to — the handle
    /// deadline-based shutdown uses to cancel everything still queued.
    pending: Mutex<HashMap<u64, CancelToken>>,
    /// Idempotency keys admitted but not yet resolved (key → request id):
    /// the double-execution gate for concurrent duplicate submissions.
    pending_keys: Mutex<HashMap<String, u64>>,
    /// Set by the watchdog's final rung: the respawn budget is exhausted
    /// and a supervisor should recycle this process through
    /// [`InferenceService::restart_from_journal`].
    restart_requested: AtomicBool,
}

impl ServiceCore {
    fn artifact_snapshot(&self) -> (u64, Arc<CompiledCircuit>) {
        let g = self.artifact.read().unwrap_or_else(|p| p.into_inner());
        (g.version, Arc::clone(&g.compiled))
    }

    /// Best-effort persistence of the current artifact + key bundle. A
    /// full disk must not take serving down, so failures are swallowed —
    /// the next open simply recompiles.
    fn persist_artifact(&self, state: &ArtifactState) {
        if let Some(store) = &self.store {
            let stored = StoredArtifact {
                version: state.version,
                compiled: (*state.compiled).clone(),
                scales: state.scales,
                extra_margin: state.extra_margin,
            };
            let _ = store.put_artifact(ARTIFACT_RECORD, &stored);
            let bundle = ArtifactStore::key_bundle_for(&state.compiled, self.config.key_seed);
            let _ = store.put_key_bundle(KEY_BUNDLE_RECORD, &bundle);
        }
    }

    /// Escalates a `LevelExhausted`/`PrecisionLoss` failure into the
    /// compiler's checked-repair path: recompile with one more spare
    /// margin level (the repair loop also re-bumps scales as needed) and
    /// publish the artifact under a new version. Concurrent escalations
    /// against the same observed version collapse into one recompile.
    fn repair(&self, observed_version: u64) {
        let mut g = self.artifact.write().unwrap_or_else(|p| p.into_inner());
        if g.version != observed_version {
            return; // someone already repaired past what this worker saw
        }
        let margin = g.extra_margin + 1;
        let compiler = self.compiler.clone().with_margin_levels(margin);
        if let Ok((compiled, report)) = compiler.compile_checked(&self.circuit, &g.scales) {
            if vet_artifact_with_budget(
                &self.circuit,
                &compiled,
                self.config.cost_budget_us,
                self.config.cost_model.as_ref(),
            )
            .is_ok()
            {
                g.scales = report.final_scales;
                g.compiled = Arc::new(compiled);
                g.extra_margin = margin;
                g.version += 1;
                Counters::bump(&self.counters.repairs);
                // Republish durably so a restart resumes from the
                // repaired artifact, not the one that needed repairing.
                self.persist_artifact(&g);
            }
        }
        // A failed recompile (or an artifact the verifier denies) keeps the
        // old artifact: stale but servable beats unservable.
    }

    fn stats(&self) -> ServiceStats {
        let c = &self.counters;
        ServiceStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            completed_ok: c.completed_ok.load(Ordering::Relaxed),
            degraded: c.degraded.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            cancelled: c.cancelled.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            repairs: c.repairs.load(Ordering::Relaxed),
            retries_exhausted: c.retries_exhausted.load(Ordering::Relaxed),
            panics_caught: c.panics_caught.load(Ordering::Relaxed),
            watchdog_escalations: c.watchdog_escalations.load(Ordering::Relaxed),
            workers_respawned: c.workers_respawned.load(Ordering::Relaxed),
            quarantined_records: c.quarantined_records.load(Ordering::Relaxed),
            store_recompiles: c.store_recompiles.load(Ordering::Relaxed),
            dropped_responses: c.dropped_responses.load(Ordering::Relaxed),
            replayed: c.replayed.load(Ordering::Relaxed),
            deduped: c.deduped.load(Ordering::Relaxed),
            journal_failed_shutdown: c.journal_failed_shutdown.load(Ordering::Relaxed),
            replay_backlog: c.replay_backlog.load(Ordering::Relaxed),
            journal_records: self.journal.as_ref().map_or(0, |j| j.records_appended()),
            journal_fsyncs: self.journal.as_ref().map_or(0, |j| j.fsyncs()),
            journal_lag: self.journal.as_ref().map_or(0, |j| j.lag()),
            journal_torn_records: self.journal.as_ref().map_or(0, |j| j.torn_records()),
            queue_depth: c.queue_depth.load(Ordering::Relaxed),
            in_flight: c.in_flight.load(Ordering::Relaxed),
            batches_formed: c.batches_formed.load(Ordering::Relaxed),
            batched_requests: c.batched_requests.load(Ordering::Relaxed),
            artifact_version: self.artifact_snapshot().0,
            breaker: self.breaker.snapshot(),
            latency: self.latency.snapshot(),
        }
    }

    /// Journals one record, durably. Journal damage must not take serving
    /// down mid-request (admission is where unavailability is enforced),
    /// so worker-path failures are counted into the sticky journal error
    /// and otherwise swallowed.
    fn journal_durable(&self, rec: &JournalRecord) {
        if let Some(j) = &self.journal {
            let _ = j.append_durable(rec);
        }
    }

    /// The effective coalescing target right now: the configured
    /// `max_batch` clamped to the *current* artifact's slot-axis batch
    /// capacity (a repair can grow the plan's margins, and with them the
    /// member width the circuit needs per request).
    fn batch_target(&self) -> usize {
        if self.config.max_batch <= 1 {
            return 1;
        }
        let (_, compiled) = self.artifact_snapshot();
        let cap = batch_capacity(&self.circuit, &compiled.plan, compiled.params.slots());
        self.config.max_batch.min(cap).max(1)
    }

    /// Snaps every element of a decrypted output to the configured
    /// quantum (no-op when `output_quantum` is unset). Runs before the
    /// response is journaled, digested or replied, so solo and batched
    /// runs of the same request produce byte-identical responses even on
    /// approximate backends.
    fn quantize_output(&self, output: &mut Tensor) {
        let Some(q) = self.config.output_quantum else { return };
        if !q.is_finite() || q <= 0.0 {
            return;
        }
        for v in output.data_mut() {
            *v = (*v / q).round() * q;
        }
    }
}

/// Admission-time shape validation: the served circuit's `Input` op fixes
/// the only acceptable request shape, and a mismatch is the client's fault
/// — a structured, non-retryable refusal, not a worker panic.
fn validate_input_shape(circuit: &Circuit, image: &Tensor) -> Result<(), ShapeError> {
    match circuit.input_shape() {
        Some(shape) if image.shape() != shape => Err(ShapeError {
            op: "submit",
            reason: format!(
                "input shape {:?} does not match the served circuit's input {shape:?}",
                image.shape()
            ),
        }),
        _ => Ok(()),
    }
}

/// What a primary-attempt failure means for the control loop.
enum Disposition {
    /// Transient backend fault: back off and retry.
    Retry,
    /// Artifact fault: escalate into checked recompilation, then retry.
    Repair,
    /// Client/circuit fault: retrying cannot help.
    Permanent,
    /// The request's token tripped.
    Cancelled(CancelReason),
}

/// Maps a request's terminal [`ServeError`] to its journal close-out code.
fn fail_code(e: &ServeError) -> FailCode {
    match e {
        ServeError::Cancelled(_) => FailCode::Cancelled,
        ServeError::ShuttingDown => FailCode::Shutdown,
        ServeError::WorkerLost => FailCode::WorkerLost,
        ServeError::Overloaded { .. } => FailCode::Overloaded,
        ServeError::Failed { .. }
        | ServeError::Compile(_)
        | ServeError::Lint { .. }
        | ServeError::StoreLocked { .. }
        | ServeError::DuplicatePending { .. }
        | ServeError::JournalUnavailable { .. }
        | ServeError::CostBudget { .. }
        | ServeError::InvalidRequest { .. } => FailCode::Exec,
    }
}

fn classify(e: &ExecError) -> Disposition {
    match e {
        ExecError::Cancelled { reason, .. } => Disposition::Cancelled(*reason),
        ExecError::PrecisionLoss { .. } => Disposition::Repair,
        ExecError::Hisa { source: HisaError::LevelExhausted { .. }, .. } => Disposition::Repair,
        ExecError::Hisa { .. } => Disposition::Retry,
        ExecError::Kernel { .. } | ExecError::UnsupportedCircuit { .. } => Disposition::Permanent,
    }
}

/// Counts circuit nodes executed (for [`InferResponse::ops_executed`]),
/// bumps the worker's watchdog heartbeat — progress the monitor can see
/// even while the cooperative token goes unchecked — and enforces the
/// cohort rule: the executor watches the `cohort` token, which this
/// observer trips only once **every** member has cancelled, so one
/// member's deadline or explicit cancel never aborts the ciphertext work
/// its cohort is still waiting on. `members` is empty when the run is
/// under a single request's own token.
struct CohortObserver<'a> {
    ops: usize,
    slot: &'a WorkerSlot,
    members: &'a [&'a Job],
    cohort: &'a CancelToken,
}

impl ExecObserver for CohortObserver<'_> {
    fn on_op(&mut self, _op_index: usize, _op: &str) {
        self.ops += 1;
        self.slot.beat();
        if !self.members.is_empty() && self.members.iter().all(|job| job.token.is_cancelled()) {
            self.cohort.cancel();
        }
    }
}

/// A resilient multi-threaded inference service over a compiled CHET
/// artifact. See the module docs for the request lifecycle.
pub struct InferenceService {
    core: Arc<ServiceCore>,
    queue: Arc<CoalescingQueue<Job>>,
    /// Shared with the watchdog, which pushes respawned workers' handles.
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    watchdog: Option<Watchdog>,
}

/// Spawns one worker thread and its watchdog slot.
fn spawn_worker<H, F>(
    worker_id: usize,
    core: &Arc<ServiceCore>,
    queue: &Arc<CoalescingQueue<Job>>,
    factory: &Arc<F>,
) -> (JoinHandle<()>, Arc<WorkerSlot>)
where
    H: Hisa + 'static,
    F: Fn(usize, &CompiledCircuit) -> H + Send + Sync + 'static,
{
    let slot = WorkerSlot::new(worker_id);
    let core = Arc::clone(core);
    let queue = Arc::clone(queue);
    let factory = Arc::clone(factory);
    let slot2 = Arc::clone(&slot);
    let handle = thread::spawn(move || worker_loop(worker_id, &core, &*factory, &queue, &slot2));
    (handle, slot)
}

/// Opens the store (when configured), recovers a usable artifact from it,
/// and reports `(store, recovered artifact, store-had-damage)`.
fn recover_from_store(
    config: &ServeConfig,
    circuit: &Circuit,
    counters: &Counters,
) -> (Option<ArtifactStore>, Option<StoredArtifact>, bool) {
    let Some(dir) = &config.store_dir else {
        return (None, None, false);
    };
    let Ok((store, report)) = ArtifactStore::open(dir) else {
        // Unopenable store directory: serve memory-only rather than
        // refuse to start.
        return (None, None, false);
    };
    for _ in &report.quarantined {
        Counters::bump(&counters.quarantined_records);
    }
    let mut damaged = !report.quarantined.is_empty();
    let recovered = match store.get_artifact(ARTIFACT_RECORD) {
        Ok(Some(a)) => {
            // The key bundle must bind to the artifact's parameters; a
            // mismatched (or corrupt) pair means the stored state is torn
            // across records — recompile rather than trust half of it.
            match store.get_key_bundle(KEY_BUNDLE_RECORD) {
                Ok(Some(bundle))
                    if bundle.params_fingerprint == params_fingerprint(&a.compiled.params) =>
                {
                    // The static verifier is the last gate, exactly as at
                    // compile time: a stored artifact that fails vetting
                    // is as unusable as a corrupt one.
                    if vet_artifact_with_budget(
                        circuit,
                        &a.compiled,
                        config.cost_budget_us,
                        config.cost_model.as_ref(),
                    )
                    .is_ok()
                    {
                        Some(a)
                    } else {
                        damaged = true;
                        None
                    }
                }
                Ok(_) => {
                    damaged = true;
                    None
                }
                Err(_) => {
                    Counters::bump(&counters.quarantined_records);
                    damaged = true;
                    None
                }
            }
        }
        Ok(None) => None,
        Err(_) => {
            // Corrupt at read time (quarantined by the store on the spot).
            Counters::bump(&counters.quarantined_records);
            damaged = true;
            None
        }
    };
    (Some(store), recovered, damaged)
}

impl InferenceService {
    /// Compiles `circuit` with a default RNS-CKKS compiler (via the
    /// checked-repair path, so the artifact starts probe-validated) and
    /// starts the worker pool. `factory` builds one primary backend per
    /// worker from the compiled artifact; it runs on the worker's own
    /// thread, so the backend type need not be `Send`.
    pub fn start<H, F>(
        circuit: Circuit,
        scales: ScaleConfig,
        config: ServeConfig,
        factory: F,
    ) -> Result<Self, ServeError>
    where
        H: Hisa + 'static,
        F: Fn(usize, &CompiledCircuit) -> H + Send + Sync + 'static,
    {
        Self::start_with_compiler(Compiler::new(SchemeKind::RnsCkks), circuit, scales, config, factory)
    }

    /// [`InferenceService::start`] with a caller-configured [`Compiler`]
    /// (security level, output precision, cost model...).
    pub fn start_with_compiler<H, F>(
        compiler: Compiler,
        circuit: Circuit,
        scales: ScaleConfig,
        config: ServeConfig,
        factory: F,
    ) -> Result<Self, ServeError>
    where
        H: Hisa + 'static,
        F: Fn(usize, &CompiledCircuit) -> H + Send + Sync + 'static,
    {
        if let Some(n) = config.threads {
            chet_runtime::par::set_threads(n);
        }
        if config.journal.enabled && config.store_dir.is_none() {
            return Err(ServeError::JournalUnavailable {
                detail: "journaling requires a store_dir".to_string(),
            });
        }
        // Advisory lock before anything touches the directory: a second
        // live opener must fail *here*, not interleave journal appends.
        let store_lock = match &config.store_dir {
            Some(dir) => match StoreLock::acquire(dir) {
                Ok(lock) => Some(lock),
                Err(LockError::Held { holder_pid }) => {
                    return Err(ServeError::StoreLocked { holder_pid });
                }
                // An unlockable directory (permissions, weird FS) degrades
                // like an unopenable store: serve without the lock rather
                // than refuse to start — unless journaling is on, where
                // unprotected appends are not acceptable.
                Err(LockError::Io(e)) if config.journal.enabled => {
                    return Err(ServeError::JournalUnavailable { detail: e.to_string() });
                }
                Err(LockError::Io(_)) => None,
            },
            None => None,
        };
        let counters = Counters::default();
        // Crash-safe store first: a usable stored artifact skips the
        // (expensive) checked compile entirely; damaged or missing state
        // falls back to recompilation — a corrupt store delays startup,
        // it never prevents it.
        let (store, recovered, damaged) = recover_from_store(&config, &circuit, &counters);
        // Open the journal and rebuild the request state machine before
        // any worker exists: recovery decides what replays.
        let (journal, replay) = if config.journal.enabled {
            let dir = config.store_dir.clone().unwrap_or_default();
            match Journal::open(&dir, &config.journal) {
                Ok((j, report)) => (Some(Arc::new(j)), Some(report)),
                Err(e) => {
                    return Err(ServeError::JournalUnavailable { detail: e.to_string() });
                }
            }
        } else {
            (None, None)
        };
        let recovered_some = recovered.is_some();
        let state = match recovered {
            Some(a) => ArtifactState {
                version: a.version,
                compiled: Arc::new(a.compiled),
                scales: a.scales,
                extra_margin: a.extra_margin,
            },
            None => {
                let (compiled, report) =
                    compiler.compile_checked(&circuit, &scales).map_err(ServeError::Compile)?;
                vet_artifact_with_budget(
                    &circuit,
                    &compiled,
                    config.cost_budget_us,
                    config.cost_model.as_ref(),
                )?;
                if damaged {
                    Counters::bump(&counters.store_recompiles);
                }
                ArtifactState {
                    version: 1,
                    compiled: Arc::new(compiled),
                    scales: report.final_scales,
                    extra_margin: report.extra_levels,
                }
            }
        };
        // Request ids resume above everything the journal has seen, so a
        // replayed id is never reissued to a new request.
        let next_id = replay.as_ref().map_or(1, |r| r.max_request_id + 1);
        let core = Arc::new(ServiceCore {
            circuit,
            compiler,
            artifact: RwLock::new(state),
            breaker: CircuitBreaker::new(config.breaker.clone()),
            counters,
            latency: LatencyHistogram::default(),
            accepting: AtomicBool::new(true),
            next_id: AtomicU64::new(next_id),
            store,
            journal,
            _store_lock: store_lock,
            pending: Mutex::new(HashMap::new()),
            pending_keys: Mutex::new(HashMap::new()),
            restart_requested: AtomicBool::new(false),
            config,
        });
        if !recovered_some {
            // Persist the freshly compiled artifact so the next start
            // recovers instead of recompiling.
            let g = core.artifact.read().unwrap_or_else(|p| p.into_inner());
            core.persist_artifact(&g);
        }
        let queue = Arc::new(CoalescingQueue::<Job>::new(core.config.queue_capacity.max(1)));
        let factory = Arc::new(factory);
        let mut handles = Vec::new();
        let mut slots = Vec::new();
        let worker_count = core.config.workers.max(1);
        for worker_id in 0..worker_count {
            let (handle, slot) = spawn_worker(worker_id, &core, &queue, &factory);
            handles.push(handle);
            slots.push(slot);
        }
        let workers = Arc::new(Mutex::new(handles));
        let slots = Arc::new(Mutex::new(slots));
        let next_worker_id = Arc::new(AtomicUsize::new(worker_count));
        let hooks = {
            let esc_core = Arc::clone(&core);
            let spawn_core = Arc::clone(&core);
            let spawn_queue = Arc::clone(&queue);
            let spawn_factory = Arc::clone(&factory);
            WatchdogHooks {
                on_escalate: Box::new(move |ev| {
                    Counters::bump(&esc_core.counters.watchdog_escalations);
                    match ev.action {
                        // A worker wedging mid-request is a backend
                        // failure as far as routing is concerned.
                        Escalation::Cancelled => esc_core.breaker.record_failure(false),
                        Escalation::Quarantined => {
                            Counters::bump(&esc_core.counters.workers_respawned)
                        }
                        // Final rung: pool capacity cannot be repaired
                        // in-process any more. Raise the supervised-
                        // restart flag; the journal makes recycling the
                        // process safe (unresolved requests replay).
                        Escalation::RestartRequested => {
                            esc_core.restart_requested.store(true, Ordering::Release);
                        }
                        Escalation::None => {}
                    }
                }),
                respawn: Box::new(move |worker_id| {
                    spawn_worker(worker_id, &spawn_core, &spawn_queue, &spawn_factory)
                }),
            }
        };
        let watchdog = Watchdog::start(
            core.config.watchdog.clone(),
            slots,
            Arc::clone(&workers),
            next_worker_id,
            hooks,
        );
        // Re-enqueue every admitted-but-unresolved request from the
        // journal, in admission order, through the normal worker pool.
        // The blocking send is deliberate: the replay backlog may exceed
        // the queue capacity, and shedding a request whose admission was
        // already acknowledged would break the durability contract.
        if let Some(report) = replay {
            for pending in report.pending {
                let token = match core.config.default_deadline {
                    Some(budget) => CancelToken::with_deadline(budget),
                    None => CancelToken::new(),
                };
                // The reply receiver is dropped immediately: the original
                // client connection died with the old process. The result
                // still lands in the journal (and the completed cache), so
                // the client's duplicate retry finds it by key.
                let (reply, _rx) = mpsc::channel();
                core.pending
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .insert(pending.request_id, token.clone());
                if !pending.idempotency_key.is_empty() {
                    core.pending_keys
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .insert(pending.idempotency_key.clone(), pending.request_id);
                }
                Counters::bump(&core.counters.submitted);
                Counters::bump(&core.counters.replayed);
                Counters::bump(&core.counters.replay_backlog);
                Counters::bump(&core.counters.queue_depth);
                let job = Job {
                    id: pending.request_id,
                    image: pending.image,
                    token,
                    submitted: Instant::now(),
                    reply,
                    key: pending.idempotency_key,
                    replayed: true,
                };
                if queue.push_blocking(job).is_err() {
                    break; // queue closed (shutdown raced startup)
                }
                if let Some(crash) = &core.config.journal.crash {
                    // Crash-harness kill site: die with part of the
                    // backlog re-enqueued. Replay mutates nothing, so the
                    // next open recovers the identical pending set.
                    if crash.fires(CrashPoint::MidReplay) {
                        std::process::abort();
                    }
                }
            }
        }
        Ok(InferenceService { core, queue, workers, watchdog: Some(watchdog) })
    }

    /// Supervised-restart entry point: identical to
    /// [`InferenceService::start_with_compiler`], named for the recovery
    /// path. A supervisor that sees [`InferenceService::needs_restart`]
    /// (or a crash) drops/loses the old service and calls this; the new
    /// instance steals the dead process's advisory lock, replays every
    /// unresolved request from the journal in admission order, and serves
    /// completed idempotency keys from the journal's response cache.
    pub fn restart_from_journal<H, F>(
        compiler: Compiler,
        circuit: Circuit,
        scales: ScaleConfig,
        config: ServeConfig,
        factory: F,
    ) -> Result<Self, ServeError>
    where
        H: Hisa + 'static,
        F: Fn(usize, &CompiledCircuit) -> H + Send + Sync + 'static,
    {
        Self::start_with_compiler(compiler, circuit, scales, config, factory)
    }

    /// Submits a request under the configured default deadline. Returns
    /// [`ServeError::Overloaded`] *immediately* when the queue is full.
    pub fn submit(&self, image: Tensor) -> Result<Ticket, ServeError> {
        let token = match self.core.config.default_deadline {
            Some(budget) => CancelToken::with_deadline(budget),
            None => CancelToken::new(),
        };
        self.submit_with(image, token)
    }

    /// Submits a request under a caller-supplied [`CancelToken`] (bring
    /// your own deadline, or keep a clone to cancel explicitly).
    pub fn submit_with(&self, image: Tensor, token: CancelToken) -> Result<Ticket, ServeError> {
        self.submit_inner(image, token, String::new())
    }

    /// Submits a request under a client-supplied **idempotency key**,
    /// with exactly-once acknowledgement semantics when journaling is on:
    ///
    /// * If this key already **completed** — in this process's lifetime
    ///   or any journaled predecessor's — the original response comes
    ///   back as [`Submission::Duplicate`] without re-running ciphertext
    ///   compute, digest-identical to the first acknowledgement.
    /// * If this key is already admitted and **in flight**, the duplicate
    ///   is refused with [`ServeError::DuplicatePending`] (admitting it
    ///   would double-execute).
    /// * Otherwise the request is admitted; its `Admitted` journal record
    ///   is fsynced *before* this method returns, so an accepted
    ///   submission survives any crash after the ack.
    pub fn submit_keyed(&self, image: Tensor, key: &str) -> Result<Submission, ServeError> {
        if let Some(j) = &self.core.journal {
            if let Some(resp) = j.lookup_completed(key) {
                Counters::bump(&self.core.counters.deduped);
                return Ok(Submission::Duplicate(resp));
            }
        }
        let token = match self.core.config.default_deadline {
            Some(budget) => CancelToken::with_deadline(budget),
            None => CancelToken::new(),
        };
        self.submit_inner(image, token, key.to_string()).map(Submission::Accepted)
    }

    /// Looks up a completed response by idempotency key without
    /// submitting anything — how a reconnecting client polls for the
    /// outcome of a request whose original connection died.
    pub fn lookup(&self, key: &str) -> Option<CompletedResponse> {
        self.core.journal.as_ref().and_then(|j| j.lookup_completed(key))
    }

    /// Whether the watchdog has exhausted its respawn budget and asked
    /// for a supervised restart ([`InferenceService::restart_from_journal`]).
    pub fn needs_restart(&self) -> bool {
        self.core.restart_requested.load(Ordering::Acquire)
    }

    fn submit_inner(
        &self,
        image: Tensor,
        token: CancelToken,
        key: String,
    ) -> Result<Ticket, ServeError> {
        if !self.core.accepting.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        // Structured shape validation *before* admission: a request that
        // can only ever fail is refused here as the client's error — it
        // never occupies queue depth, never charges the breaker, and never
        // panics a worker.
        if let Err(e) = validate_input_shape(&self.core.circuit, &image) {
            return Err(ServeError::InvalidRequest { detail: e.to_string() });
        }
        // Claim the idempotency key before journaling: two concurrent
        // submissions of the same key race here, and exactly one wins.
        if !key.is_empty() {
            let mut keys = self.core.pending_keys.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(&request_id) = keys.get(&key) {
                return Err(ServeError::DuplicatePending { request_id });
            }
            // Reserve with a placeholder id; replaced just below once the
            // real id is assigned (the map is only read for existence and
            // for the error's diagnostic id).
            keys.insert(key.clone(), 0);
        }
        let id = self.core.next_id.fetch_add(1, Ordering::Relaxed);
        if !key.is_empty() {
            self.core
                .pending_keys
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .insert(key.clone(), id);
        }
        // Durable admission before the ack: once this returns Ok, the
        // request survives any crash.
        if let Some(j) = &self.core.journal {
            let rec = JournalRecord::Admitted {
                request_id: id,
                idempotency_key: key.clone(),
                image: image.clone(),
            };
            if let Err(e) = j.append_durable(&rec) {
                if !key.is_empty() {
                    self.core.pending_keys.lock().unwrap_or_else(|p| p.into_inner()).remove(&key);
                }
                return Err(ServeError::JournalUnavailable { detail: e.to_string() });
            }
        }
        let (reply, rx) = mpsc::channel();
        let job = Job {
            id,
            image,
            token: token.clone(),
            submitted: Instant::now(),
            reply,
            key: key.clone(),
            replayed: false,
        };
        // Register before sending so the deadline-shutdown sweep can never
        // miss a request that a worker is just picking up.
        self.core
            .pending
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(id, token.clone());
        match self.queue.try_push(job) {
            Ok(()) => {
                Counters::bump(&self.core.counters.submitted);
                Counters::bump(&self.core.counters.queue_depth);
                Ok(Ticket { id, token, rx })
            }
            Err(e) => {
                self.core.pending.lock().unwrap_or_else(|p| p.into_inner()).remove(&id);
                if !key.is_empty() {
                    self.core.pending_keys.lock().unwrap_or_else(|p| p.into_inner()).remove(&key);
                }
                match e {
                    PushError::Full(_) => {
                        // The admission is already durable; close it out
                        // durably too, or replay would resurrect a request
                        // the client saw shed.
                        self.core.journal_durable(&JournalRecord::Failed {
                            request_id: id,
                            code: FailCode::Overloaded,
                        });
                        Counters::bump(&self.core.counters.shed);
                        Err(ServeError::Overloaded { capacity: self.core.config.queue_capacity })
                    }
                    PushError::Closed(_) => {
                        self.core.journal_durable(&JournalRecord::Failed {
                            request_id: id,
                            code: FailCode::Shutdown,
                        });
                        Err(ServeError::ShuttingDown)
                    }
                }
            }
        }
    }

    /// Point-in-time service statistics.
    pub fn stats(&self) -> ServiceStats {
        self.core.stats()
    }

    /// Watchdog interventions observed so far (step-1 cancellations and
    /// step-2 quarantines), in order. Empty when the watchdog is off.
    pub fn watchdog_events(&self) -> Vec<crate::watchdog::WatchdogEvent> {
        self.watchdog.as_ref().map(Watchdog::events).unwrap_or_default()
    }

    /// Point-in-time service health: per-worker liveness, breaker state,
    /// store integrity and queue age. See [`HealthReport`].
    pub fn health(&self) -> HealthReport {
        let c = &self.core.counters;
        let slots = self.watchdog.as_ref().map(Watchdog::slots).unwrap_or_default();
        let mut oldest_busy: Option<Duration> = None;
        let workers = slots
            .iter()
            .map(|slot| {
                let state = if slot.is_quarantined() {
                    WorkerState::Quarantined
                } else if let Some((job_id, busy_for)) = slot.busy_view() {
                    oldest_busy = Some(oldest_busy.map_or(busy_for, |o| o.max(busy_for)));
                    WorkerState::Busy { job_id, busy_for, escalation: slot.escalation() }
                } else {
                    WorkerState::Idle
                };
                WorkerHealth { worker_id: slot.worker_id(), state }
            })
            .collect();
        HealthReport {
            accepting: self.core.accepting.load(Ordering::Acquire),
            workers,
            breaker: self.core.breaker.snapshot(),
            queue_depth: c.queue_depth.load(Ordering::Relaxed),
            in_flight: c.in_flight.load(Ordering::Relaxed),
            oldest_busy,
            store: self
                .core
                .store
                .as_ref()
                .map(ArtifactStore::integrity)
                .unwrap_or_else(StoreIntegrity::default),
            watchdog_escalations: c.watchdog_escalations.load(Ordering::Relaxed),
            workers_respawned: c.workers_respawned.load(Ordering::Relaxed),
            journal: JournalHealth {
                enabled: self.core.journal.is_some(),
                lag_records: self.core.journal.as_ref().map_or(0, |j| j.lag()),
                replay_backlog: c.replay_backlog.load(Ordering::Relaxed),
                torn_records: self.core.journal.as_ref().map_or(0, |j| j.torn_records()),
            },
            restart_requested: self.core.restart_requested.load(Ordering::Acquire),
        }
    }

    /// Stops admission, drains every queued request, joins the workers
    /// and returns the final statistics.
    pub fn shutdown(mut self) -> ServiceStats {
        self.drain();
        self.core.stats()
    }

    /// [`InferenceService::shutdown`] with a drain deadline: requests
    /// still unresolved when `deadline` elapses have their tokens
    /// cancelled, so each resolves promptly as
    /// [`ServeError::Cancelled`] instead of running to completion. Every
    /// admitted request still gets exactly one typed resolution — drained
    /// or deadline-shed, never silently dropped.
    pub fn shutdown_with_deadline(mut self, deadline: Duration) -> ServiceStats {
        self.core.accepting.store(false, Ordering::Release);
        self.queue.close();
        // Deadline sweeper: cancels every still-pending token once the
        // deadline passes. The condvar lets a fast drain release it early.
        let core = Arc::clone(&self.core);
        let done = Arc::new((Mutex::new(false), Condvar::new()));
        let done2 = Arc::clone(&done);
        let sweeper = thread::spawn(move || {
            let (lock, cv) = &*done2;
            let mut finished = lock.lock().unwrap_or_else(|p| p.into_inner());
            let wait_until = Instant::now() + deadline;
            while !*finished {
                let now = Instant::now();
                if now >= wait_until {
                    for token in core.pending.lock().unwrap_or_else(|p| p.into_inner()).values()
                    {
                        token.cancel();
                    }
                    return;
                }
                let (g, _) = cv
                    .wait_timeout(finished, wait_until - now)
                    .unwrap_or_else(|p| p.into_inner());
                finished = g;
            }
        });
        self.join_workers();
        {
            let (lock, cv) = &*done;
            *lock.lock().unwrap_or_else(|p| p.into_inner()) = true;
            cv.notify_all();
        }
        let _ = sweeper.join();
        if let Some(mut wd) = self.watchdog.take() {
            wd.stop();
        }
        self.journal_shutdown_sweep();
        self.core.stats()
    }

    /// Durably closes out any request still pending after the workers
    /// drained (a quarantined worker that never replied, or queue entries
    /// orphaned when every worker exited), then flushes and closes the
    /// journal. Without the `Failed(Shutdown)` records, replay would
    /// resurrect — and re-run — work the client already saw rejected.
    fn journal_shutdown_sweep(&self) {
        let Some(journal) = &self.core.journal else {
            return;
        };
        let leftover: Vec<u64> = {
            let g = self.core.pending.lock().unwrap_or_else(|p| p.into_inner());
            let mut ids: Vec<u64> = g.keys().copied().collect();
            ids.sort_unstable();
            ids
        };
        for id in leftover {
            // On a closed journal (Drop after an explicit shutdown) the
            // append refuses; don't count records that were not written.
            if journal
                .append(&JournalRecord::Failed { request_id: id, code: FailCode::Shutdown })
                .is_ok()
            {
                Counters::bump(&self.core.counters.journal_failed_shutdown);
            }
        }
        let _ = journal.close(); // close() flushes staged records first
    }

    fn join_workers(&mut self) {
        // The watchdog may push respawned handles while we join, so keep
        // sweeping until the registry stays empty.
        loop {
            let handles: Vec<JoinHandle<()>> = {
                let mut g = self.workers.lock().unwrap_or_else(|p| p.into_inner());
                g.drain(..).collect()
            };
            if handles.is_empty() {
                return;
            }
            for handle in handles {
                let _ = handle.join();
            }
        }
    }

    fn drain(&mut self) {
        self.core.accepting.store(false, Ordering::Release);
        // Closing the queue lets workers finish the backlog, then exit.
        self.queue.close();
        self.join_workers();
        if let Some(mut wd) = self.watchdog.take() {
            wd.stop();
        }
        self.journal_shutdown_sweep();
    }
}

impl Drop for InferenceService {
    fn drop(&mut self) {
        self.drain();
    }
}

fn worker_loop<H, F>(
    worker_id: usize,
    core: &ServiceCore,
    factory: &F,
    queue: &CoalescingQueue<Job>,
    slot: &WorkerSlot,
) where
    H: Hisa,
    F: Fn(usize, &CompiledCircuit) -> H,
{
    // (artifact version, backend) — rebuilt when the artifact is repaired
    // or the backend is lost to a caught panic. The fault injector runs
    // `config.chaos`'s op classes; with none armed it forwards every call.
    let mut cached: Option<(u64, FaultInjector<H>)> = None;
    loop {
        // A quarantined worker has been replaced; once it regains control
        // (its wedged op finally returned and the job was replied to) it
        // must not take new work.
        if slot.is_quarantined() {
            return;
        }
        let target = core.batch_target();
        let linger = if target > 1 { core.config.max_linger } else { Duration::ZERO };
        let Some(jobs) =
            queue.pop_batch(target, linger, |a, b| a.image.shape() == b.image.shape())
        else {
            return; // queue closed and drained: shutdown
        };
        for _ in &jobs {
            Counters::drop_one(&core.counters.queue_depth);
        }
        Counters::add(&core.counters.in_flight, jobs.len() as u64);
        // `Started` is diagnostic (replay keys off Admitted/Completed), so
        // it rides the next group commit instead of forcing its own fsync.
        if let Some(j) = &core.journal {
            for job in &jobs {
                let _ = j.append(&JournalRecord::Started { request_id: job.id });
            }
        }
        if jobs.len() > 1 {
            Counters::bump(&core.counters.batches_formed);
            Counters::add(&core.counters.batched_requests, jobs.len() as u64);
        }
        let cohort: Vec<&Job> = jobs.iter().collect();
        let results = run_cohort(core, factory, worker_id, &mut cached, &cohort, slot);
        for (job, result) in jobs.iter().zip(results) {
            finish_job(core, job, result);
            Counters::drop_one(&core.counters.in_flight);
        }
        slot.finish();
    }
}

/// Everything that happens to one request after its result is decided:
/// output quantization, latency/outcome accounting, durable journal
/// close-out, the (chaos-droppable) reply, and pending-state cleanup.
/// Each cohort member goes through it alone, whatever the cohort's size.
fn finish_job(core: &ServiceCore, job: &Job, result: Result<InferResponse, ServeError>) {
    core.latency.record(job.submitted.elapsed());
    match &result {
        Ok(resp) if resp.degraded => Counters::bump(&core.counters.degraded),
        Ok(_) => Counters::bump(&core.counters.completed_ok),
        Err(ServeError::Cancelled(_)) => Counters::bump(&core.counters.cancelled),
        Err(_) => Counters::bump(&core.counters.failed),
    }
    let result = result.map(|mut resp| {
        core.quantize_output(&mut resp.output);
        resp.latency = job.submitted.elapsed();
        resp
    });
    // Durable resolution BEFORE the reply: a response the client saw
    // is always recoverable from the journal, so replay never
    // re-executes an acknowledged request (and a duplicate key gets
    // the digest-identical answer).
    match &result {
        Ok(resp) => {
            let digest = response_digest(&resp.output, resp.degraded);
            core.journal_durable(&JournalRecord::Completed {
                request_id: job.id,
                degraded: resp.degraded,
                digest,
                output: resp.output.clone(),
            });
            if let Some(j) = &core.journal {
                j.note_completed(CompletedResponse {
                    request_id: job.id,
                    idempotency_key: job.key.clone(),
                    output: resp.output.clone(),
                    degraded: resp.degraded,
                    digest,
                });
            }
        }
        Err(e) => {
            core.journal_durable(&JournalRecord::Failed {
                request_id: job.id,
                code: fail_code(e),
            });
        }
    }
    let dropped = core
        .config
        .chaos
        .as_ref()
        .is_some_and(|plan| plan.drops_response(job.id));
    if dropped {
        // Chaos: the computed response never reaches the caller. The
        // reply sender is dropped, so the ticket resolves as
        // `WorkerLost` — a typed error, not a hang. (The journal keeps
        // the truth: the request *did* execute, so a keyed retry is
        // served the computed response instead of re-executing.)
        Counters::bump(&core.counters.dropped_responses);
    } else {
        let _ = job.reply.send(result); // caller may have dropped the ticket
    }
    core.pending.lock().unwrap_or_else(|p| p.into_inner()).remove(&job.id);
    if !job.key.is_empty() {
        // Completed keys moved to the journal's completed cache above;
        // failed keys become submittable again.
        core.pending_keys.lock().unwrap_or_else(|p| p.into_inner()).remove(&job.key);
    }
    if job.replayed {
        Counters::drop_one(&core.counters.replay_backlog);
    }
}

/// Resolves a dequeue as one cohort, results in `jobs` order. Members
/// already cancelled (deadline expired while queued or in the linger
/// window) resolve at once; the live ones run together on the primary
/// route ([`run_primary`]). A cohort of one that the primary route gives
/// up on ends as a lone request does: the strict-mode error or the
/// degraded simulator route. A larger cohort hands those members back here
/// one at a time, which re-applies breaker routing, retries and the
/// degraded route exactly as an unbatched request would see them.
fn run_cohort<H, F>(
    core: &ServiceCore,
    factory: &F,
    worker_id: usize,
    cached: &mut Option<(u64, FaultInjector<H>)>,
    jobs: &[&Job],
    slot: &WorkerSlot,
) -> Vec<Result<InferResponse, ServeError>>
where
    H: Hisa,
    F: Fn(usize, &CompiledCircuit) -> H,
{
    let results: Vec<Option<Result<InferResponse, ServeError>>> = jobs
        .iter()
        .map(|job| job.token.check().err().map(|reason| Err(ServeError::Cancelled(reason))))
        .collect();
    let live: Vec<&Job> =
        jobs.iter().zip(&results).filter(|(_, r)| r.is_none()).map(|(job, _)| *job).collect();
    let resolved = match live.first() {
        None => Vec::new(),
        Some(head) => match run_primary(core, factory, worker_id, cached, &live, slot) {
            Ok(resolved) => resolved,
            Err(_) if live.len() > 1 => live
                .iter()
                .flat_map(|job| run_cohort(core, factory, worker_id, cached, &[*job], slot))
                .collect(),
            Err(GaveUp { attempts, .. }) if core.config.degraded_fallback => {
                vec![run_degraded(core, head, attempts, slot)]
            }
            // Strict mode: no simulator fallback. A request the breaker
            // refused to admit to the primary is shed (it lost the
            // half-open race, or arrived during cooldown); one whose
            // attempts were exhausted fails with the last primary error.
            Err(GaveUp { attempts, error: Some(error) }) => {
                vec![Err(ServeError::Failed { attempts, error })]
            }
            Err(GaveUp { attempts: 0, .. }) => {
                vec![Err(ServeError::Overloaded { capacity: core.config.queue_capacity })]
            }
            Err(GaveUp { .. }) => vec![Err(ServeError::WorkerLost)],
        },
    };
    let mut resolved = resolved.into_iter();
    results
        .into_iter()
        .map(|r| r.or_else(|| resolved.next()).unwrap_or(Err(ServeError::WorkerLost)))
        .collect()
}

/// How the primary route gave up on a cohort it could not resolve.
struct GaveUp {
    /// Primary attempts spent (0 when the breaker skipped the primary).
    attempts: usize,
    /// The last primary error (`None` when no attempt ran, or every
    /// attempt panicked).
    error: Option<ExecError>,
}

/// Runs a cohort of live members through the primary route, retrying and
/// repairing it as a unit at `batch_n = cohort.len().next_power_of_two()`.
/// Returns one resolution per member, in order, or [`GaveUp`] when the
/// breaker skipped the primary, a probe failed, the attempts ran out or —
/// for a larger cohort — a member must finish alone (a permanent error, a
/// tripped cohort token).
fn run_primary<H, F>(
    core: &ServiceCore,
    factory: &F,
    worker_id: usize,
    cached: &mut Option<(u64, FaultInjector<H>)>,
    cohort: &[&Job],
    slot: &WorkerSlot,
) -> Result<Vec<Result<InferResponse, ServeError>>, GaveUp>
where
    H: Hisa,
    F: Fn(usize, &CompiledCircuit) -> H,
{
    let solo = cohort.len() == 1;
    let head = cohort.first().ok_or(GaveUp { attempts: 0, error: None })?;
    // A cohort of one runs under its member's own token, so a watchdog
    // cancel resolves it `Cancelled`. A larger cohort runs under a fresh
    // token that its observer trips once every member has cancelled, and
    // that the watchdog cancels if the cohort wedges.
    let token = if solo { head.token.clone() } else { CancelToken::new() };
    let members: &[&Job] = if solo { &[] } else { cohort };
    slot.begin(head.id, &token);
    let route = core.breaker.route();
    if route == Route::Degraded {
        return Err(GaveUp { attempts: 0, error: None });
    }
    let probe = route == Route::Probe;
    let images: Vec<&Tensor> = cohort.iter().map(|job| &job.image).collect();
    let batch_n = cohort.len().next_power_of_two();
    let mut attempt = 1usize;
    let mut last_error: Option<ExecError> = None;
    while core.config.retry.allows(attempt) {
        let (version, compiled) = core.artifact_snapshot();
        if !matches!(cached, Some((v, _)) if *v == version) {
            let chaos = core.config.chaos.clone().unwrap_or_else(|| ChaosPlan::disabled(0));
            let backend = factory(worker_id, &compiled);
            *cached = Some((version, FaultInjector::new(backend, chaos.faults, chaos.seed)));
        }
        let Some((_, backend)) = cached.as_mut() else {
            return Ok(cohort.iter().map(|_| Err(ServeError::WorkerLost)).collect());
        };
        // (Re)key the chaos stream for this run: faults are a pure
        // function of (seed, head request id, op index), never of which
        // worker picked the cohort up or how many exist.
        backend.begin_request(head.id);
        let mut observer = CohortObserver { ops: 0, slot, members, cohort: &token };
        let mut ctrl = ExecControl { cancel: Some(&token), observer: Some(&mut observer) };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            try_infer_batch_with_control(
                backend,
                &core.circuit,
                &compiled.plan,
                &images,
                batch_n,
                &mut ctrl,
            )
        }));
        let ops_executed = observer.ops;
        match outcome {
            Ok(Ok((outputs, report))) => {
                core.breaker.record_success(probe);
                let resolve = |(job, output): (&&Job, Tensor)| match job.token.check() {
                    // A member whose own token tripped while its cohort
                    // ran on resolves `Cancelled`: the caller gave up, and
                    // sees the outcome it would have seen alone.
                    Err(reason) if !solo => Err(ServeError::Cancelled(reason)),
                    _ => Ok(InferResponse {
                        id: job.id,
                        output,
                        degraded: false,
                        attempts: attempt,
                        artifact_version: version,
                        ops_executed,
                        report,
                        latency: Duration::ZERO, // finish_job fills this in
                    }),
                };
                return Ok(cohort.iter().zip(outputs).map(resolve).collect());
            }
            Ok(Err(e)) => match classify(&e) {
                Disposition::Cancelled(reason) if solo => {
                    return Ok(vec![Err(ServeError::Cancelled(reason))]);
                }
                Disposition::Permanent if solo => {
                    // A malformed circuit is the client's fault, not the
                    // backend's: don't charge the breaker.
                    return Ok(vec![Err(ServeError::Failed { attempts: attempt, error: e })]);
                }
                // The cohort token tripped (every member cancelled, or the
                // watchdog cancelled a wedged cohort), or the error is
                // permanent — including the executor refusing a cohort a
                // repair has grown past the slot-axis capacity. Each member
                // resolves alone, on its own terms.
                Disposition::Cancelled(_) | Disposition::Permanent => {
                    return Err(GaveUp { attempts: attempt, error: Some(e) });
                }
                Disposition::Repair => {
                    core.breaker.record_failure(probe);
                    core.repair(version);
                    last_error = Some(e);
                }
                Disposition::Retry => {
                    core.breaker.record_failure(probe);
                    last_error = Some(e);
                }
            },
            Err(_panic) => {
                // The backend is in an unknown state: drop it; the next
                // attempt (on any request) rebuilds from the factory.
                *cached = None;
                Counters::bump(&core.counters.panics_caught);
                core.breaker.record_failure(probe);
            }
        }
        // A failed probe never gets a second chance: the breaker reopened.
        if probe {
            return Err(GaveUp { attempts: attempt, error: last_error });
        }
        attempt += 1;
        if !core.config.retry.allows(attempt) {
            break;
        }
        Counters::bump(&core.counters.retries);
        let mut pause = core.config.retry.backoff(head.id, attempt.saturating_sub(1) as u32);
        if let Some(soonest) = cohort.iter().filter_map(|job| job.token.remaining()).min() {
            pause = pause.min(soonest);
        }
        if !pause.is_zero() {
            thread::sleep(pause);
        }
        let reasons: Vec<CancelReason> =
            cohort.iter().filter_map(|job| job.token.check().err()).collect();
        if reasons.len() == cohort.len() {
            return Ok(reasons.into_iter().map(|r| Err(ServeError::Cancelled(r))).collect());
        }
    }
    // Retries exhausted. A request's own primary route ends only here in a
    // cohort of one; a larger cohort's members each get theirs alone.
    if solo {
        Counters::bump(&core.counters.retries_exhausted);
    }
    Err(GaveUp { attempts: attempt.min(core.config.retry.max_attempts.max(1)), error: last_error })
}

fn run_degraded(
    core: &ServiceCore,
    job: &Job,
    attempts: usize,
    slot: &WorkerSlot,
) -> Result<InferResponse, ServeError> {
    if let Err(reason) = job.token.check() {
        return Err(ServeError::Cancelled(reason));
    }
    let (version, compiled) = core.artifact_snapshot();
    let mut sim = SimCkks::new(&compiled.params, &compiled.rotation_keys, core.config.degraded_seed)
        .without_noise();
    let mut observer = CohortObserver { ops: 0, slot, members: &[], cohort: &job.token };
    let mut ctrl = ExecControl { cancel: Some(&job.token), observer: Some(&mut observer) };
    match try_infer_with_control(&mut sim, &core.circuit, &compiled.plan, &job.image, &mut ctrl) {
        Ok((output, report)) => Ok(InferResponse {
            id: job.id,
            output,
            degraded: true,
            attempts,
            artifact_version: version,
            ops_executed: observer.ops,
            report,
            latency: Duration::ZERO, // finish_job fills this in
        }),
        Err(ExecError::Cancelled { reason, .. }) => Err(ServeError::Cancelled(reason)),
        Err(e) => Err(ServeError::Failed { attempts, error: e }),
    }
}
