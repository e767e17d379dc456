//! # chet-serve
//!
//! A resilient, multi-threaded inference service over the CHET compiler
//! and runtime — the serving layer a compiled FHE model would actually
//! run behind. The paper's pipeline compiles one circuit and runs it
//! once; this crate turns that artifact into a long-lived service that
//! survives the failures a production deployment sees:
//!
//! * **Bounded admission** — a fixed-depth queue that sheds overload with
//!   a structured [`ServeError::Overloaded`] instead of blocking callers.
//! * **Deadlines & cancellation** — every request carries a
//!   [`CancelToken`](chet_runtime::cancel::CancelToken); the executor
//!   checks it between tensor ops, so an abandoned request stops burning
//!   ciphertext compute within one op.
//! * **Retries with deterministic backoff** — transient HISA faults are
//!   retried under a seeded exponential-backoff-with-jitter schedule
//!   ([`RetryPolicy`]); `LevelExhausted`/`PrecisionLoss` escalate into
//!   the compiler's checked-repair recompilation first.
//! * **Circuit breaking & graceful degradation** — consecutive backend
//!   failures trip a three-state [`CircuitBreaker`]; while it is open,
//!   requests run on the plaintext simulator and come back flagged
//!   [`InferResponse::degraded`] rather than failing outright.
//! * **Observability** — [`ServiceStats`] snapshots queue depth,
//!   in-flight count, retry/repair/shed counters, breaker transitions and
//!   a log₂ latency histogram.
//!
//! Everything is plain `std`: OS threads, `mpsc` channels and atomics —
//! no async runtime. See `examples/serve_demo.rs` for a tour.

// Same failure-model gate as the runtime and compiler (enforced by
// `ci.sh` via clippy): non-test serving code must not unwrap/expect —
// a serving layer that can panic on a malformed request is not a serving
// layer. Tests may unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod breaker;
pub mod chaos;
pub mod health;
pub mod journal;
pub mod queue;
pub mod retry;
pub mod service;
pub mod stats;
pub mod store;
pub mod watchdog;

pub use breaker::{BreakerConfig, BreakerSnapshot, BreakerState, BreakerTransition, CircuitBreaker};
pub use chaos::{ChaosPlan, CrashPlan, CrashPoint};
pub use health::{HealthReport, HealthVerdict, JournalHealth, WorkerHealth, WorkerState};
pub use journal::{
    response_digest, CompletedResponse, FailCode, Journal, JournalConfig, JournalError,
    JournalRecord, PendingRequest, ReplayReport, TornTail, JOURNAL_FILE, TORN_FILE,
};
pub use queue::{CoalescingQueue, PushError};
pub use retry::RetryPolicy;
pub use service::{
    vet_artifact, vet_artifact_with_budget, InferResponse, InferenceService, ServeConfig,
    ServeError, Submission, Ticket,
};
pub use stats::{LatencyHistogram, LatencySnapshot, ServiceStats};
pub use store::{
    ArtifactStore, KeyBundleRecord, LockError, RecordFault, RecoveryReport, StoreError,
    StoreIntegrity, StoreLock, StoredArtifact,
};
pub use watchdog::{Escalation, WatchdogConfig, WatchdogEvent, WorkerSlot};
