//! Seeded chaos injection at the *service* boundary.
//!
//! A [`ChaosPlan`] arms the failure classes a serving tier sees. Its op
//! classes are one [`FaultPlan`] that every `chet-serve` worker runs its
//! backend under, as a [`FaultInjector`](chet_runtime::fault::FaultInjector)
//! keyed per request:
//!
//! * **slow workers** (`FaultPlan::slow`) — an op stalls briefly; latency
//!   grows but the cooperative `CancelToken` checks still fire between
//!   ops.
//! * **hung workers** (`FaultPlan::hung`) — an op stalls *ignoring*
//!   cancellation, modelling a wedged FFI call or a scheduler pathology;
//!   only the watchdog can see it ([`crate::watchdog`]).
//! * **bit-flipped ciphertexts** (`FaultPlan::nan_slots`) — a corrupted
//!   ciphertext decodes to garbage; modelled as NaN-poisoning the decode,
//!   which the executor's output check converts to
//!   `ExecError::PrecisionLoss` — detected, never served.
//! * **bit-flipped / dropped rotation keys**
//!   (`FaultPlan::drop_rotation_keys`) — a corrupted key bundle is
//!   unusable, surfacing as `HisaError::MissingRotationKey` on the
//!   fallible path.
//!
//! The rest is serve-specific and lives here:
//!
//! * **dropped responses** — the worker computes an answer but the reply
//!   channel dies; the caller's [`Ticket`](crate::Ticket) resolves as
//!   `ServeError::WorkerLost`, never hangs.
//! * **process crashes** at named durability sites ([`CrashPlan`]).
//! * **store truncation mid-write** — simulated by the [`truncate_file`] /
//!   [`flip_byte`] helpers against the store directory; the store's
//!   checksums quarantine the damage on the next open.
//!
//! # Determinism
//!
//! Every decision is a pure function of `(plan seed, request id, per-
//! request op index)` — splitmix64 in counter mode. Worker identity and
//! thread count never enter a draw, so a chaos soak replays bit-identically
//! across `CHET_THREADS` settings: same seed, same faults, at the same ops
//! of the same requests. The worker calls `FaultInjector::begin_request`
//! before each attempt to (re)key the stream.

use chet_runtime::fault::{splitmix64, unit, FaultPlan};
use std::fs::OpenOptions;
use std::io::{self, Read as IoRead, Seek, SeekFrom, Write as IoWrite};
use std::path::Path;

/// Salt folded into [`ChaosPlan::drops_response`] draws so the drop
/// decision is independent of the op-level stream for the same request.
const DROP_RESPONSE_SALT: u64 = 0xD80B_1E55_0CEA_4ED5;

/// Which serve-layer fault classes fire, and how often.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// Seed; with the same seed and request ids, the schedule replays
    /// bit-identically regardless of worker count.
    pub seed: u64,
    /// Per-request rate in `[0, 1]` of dropped responses (the worker
    /// computes, the reply channel dies; the ticket resolves
    /// `WorkerLost`).
    pub drop_responses: f64,
    /// The op classes every worker's backend runs under.
    pub faults: FaultPlan,
}

impl ChaosPlan {
    /// No chaos; arm classes in [`ChaosPlan::faults`] to switch them on.
    pub fn disabled(seed: u64) -> Self {
        ChaosPlan { seed, drop_responses: 0.0, faults: FaultPlan::none(0.0) }
    }

    /// Every serve-layer fault class at the given rate — the soak-test
    /// plan.
    pub fn all(seed: u64, rate: f64) -> Self {
        ChaosPlan {
            seed,
            drop_responses: rate,
            faults: FaultPlan {
                slow: Some(rate),
                hung: Some(rate),
                nan_slots: Some(rate),
                drop_rotation_keys: Some(rate),
                ..FaultPlan::none(rate)
            },
        }
    }

    /// Whether this request's computed response gets dropped on the floor.
    /// Pure function of `(seed, request_id)` — the worker that happens to
    /// run the request is irrelevant.
    pub fn drops_response(&self, request_id: u64) -> bool {
        if self.drop_responses <= 0.0 {
            return false;
        }
        unit(self.seed ^ splitmix64(request_id) ^ DROP_RESPONSE_SALT) < self.drop_responses
    }
}

/// A named process-kill site inside the durability path. The journal (and
/// the service's replay loop) call [`CrashPlan::fires`] at each point; the
/// crash harness uses the names to build its kill-and-restart matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Inside a journal flush cycle, after the framed bytes were handed to
    /// the OS but **before** `fsync`. The harness models this as a *torn*
    /// write: half the batch reaches the disk, then the process dies —
    /// recovery must quarantine the torn tail, and nothing in the batch
    /// was ever acknowledged.
    BeforeFsync,
    /// Immediately **after** `fsync` returned, before the append's caller
    /// (the admission or completion path) can acknowledge anyone. The
    /// records are durable but no client saw a response — replay must run
    /// them (admissions) or serve them from the completed cache
    /// (completions) without re-executing acknowledged work.
    AfterFsyncBeforeAck,
    /// During recovery itself, between two re-enqueued pending requests.
    /// Replay mutates nothing in the journal, so a crash here must leave
    /// the *next* recovery able to replay the same pending set.
    MidReplay,
}

impl CrashPoint {
    /// Parses the CLI spelling used by the crash harness and `ci.sh`.
    pub fn parse(s: &str) -> Option<CrashPoint> {
        match s {
            "before-fsync" => Some(CrashPoint::BeforeFsync),
            "after-fsync" | "after-fsync-before-ack" => Some(CrashPoint::AfterFsyncBeforeAck),
            "mid-replay" => Some(CrashPoint::MidReplay),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            CrashPoint::BeforeFsync => "before-fsync",
            CrashPoint::AfterFsyncBeforeAck => "after-fsync",
            CrashPoint::MidReplay => "mid-replay",
        }
    }
}

/// Salt for [`CrashPlan::from_seed`] hit-index draws.
const CRASH_PLAN_SALT: u64 = 0xC4A5_40D1_E5EE_D00D;

/// A seeded plan to kill the process at the `after`-th hit of one named
/// [`CrashPoint`]. Test/harness machinery — never enable in production.
///
/// The hit counter is shared across clones (the service clones its config
/// into workers), so the plan fires exactly once per process regardless of
/// which thread reaches the site.
#[derive(Debug, Clone)]
pub struct CrashPlan {
    /// Which durability site to die at.
    pub point: CrashPoint,
    /// Die on the `after`-th hit of that site (1-based; 0 never fires).
    pub after: u64,
    hits: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl CrashPlan {
    /// A plan that fires on the `after`-th hit of `point`.
    pub fn at(point: CrashPoint, after: u64) -> Self {
        CrashPlan { point, after, hits: std::sync::Arc::default() }
    }

    /// Derives the hit index deterministically from a seed: somewhere in
    /// `[1, span]`, so different seeds kill the process at different
    /// depths of the same crash point.
    pub fn from_seed(point: CrashPoint, seed: u64, span: u64) -> Self {
        let after = 1 + splitmix64(seed ^ CRASH_PLAN_SALT) % span.max(1);
        CrashPlan::at(point, after)
    }

    /// Counts one arrival at `point`; returns `true` when this is the
    /// arrival the plan kills. The *caller* performs the abort (so it can
    /// stage torn state first); returning `true` more than once is
    /// impossible because the first true is followed by process death.
    pub fn fires(&self, point: CrashPoint) -> bool {
        if point != self.point || self.after == 0 {
            return false;
        }
        let n = self.hits.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1;
        n == self.after
    }
}

/// Truncates a file to `keep` bytes — the "crash mid-write" chaos fault
/// for store records. Used by the recovery tests and `ci.sh`'s corruption
/// round-trip.
pub fn truncate_file(path: &Path, keep: u64) -> io::Result<()> {
    OpenOptions::new().write(true).open(path)?.set_len(keep)
}

/// XORs one byte of a file with `mask` — the "silent media corruption"
/// chaos fault for store records.
pub fn flip_byte(path: &Path, offset: u64, mask: u8) -> io::Result<()> {
    let mut f = OpenOptions::new().read(true).write(true).open(path)?;
    f.seek(SeekFrom::Start(offset))?;
    let mut b = [0u8; 1];
    f.read_exact(&mut b)?;
    b[0] ^= mask;
    f.seek(SeekFrom::Start(offset))?;
    f.write_all(&b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chet_ckks::sim::SimCkks;
    use chet_hisa::{EncryptionParams, Hisa, HisaError, RotationKeyPolicy};
    use chet_runtime::fault::FaultInjector;
    use std::time::Duration;

    const S: f64 = (1u64 << 30) as f64;

    fn sim() -> SimCkks {
        let params = EncryptionParams::rns_ckks(8192, 40, 4);
        SimCkks::new(&params, &RotationKeyPolicy::PowersOfTwo, 1).without_noise()
    }

    /// The injector a worker runs a request under, keyed by its id.
    fn worker<H: Hisa>(backend: H, plan: &ChaosPlan, request_id: u64) -> FaultInjector<H> {
        let mut f = FaultInjector::new(backend, plan.faults.clone(), plan.seed);
        f.begin_request(request_id);
        f
    }

    /// `plan` with its stalls shortened to nothing.
    fn no_pauses(mut plan: ChaosPlan) -> ChaosPlan {
        plan.faults.slow_pause = Duration::ZERO;
        plan.faults.hang_pause = Duration::ZERO;
        plan
    }

    /// Drives a fixed op trace and returns (error pattern, injection log).
    fn trace(plan: &ChaosPlan, request_id: u64) -> (Vec<bool>, Vec<String>) {
        let mut c = worker(sim(), plan, request_id);
        let pt = c.encode(&[1.0, 2.0], S);
        let ct = c.encrypt(&pt);
        let mut errs = Vec::new();
        for step in [1usize, 2, 4, 8, 16, 32] {
            errs.push(c.try_rot_left(&ct, step).is_err());
            errs.push(c.try_add(&ct, &ct).is_err());
            let _ = c.decode(&pt);
        }
        (errs, c.injected().to_vec())
    }

    #[test]
    fn schedule_is_a_pure_function_of_seed_and_request_id() {
        let plan = no_pauses(ChaosPlan::all(42, 0.3));
        assert_eq!(trace(&plan, 7), trace(&plan, 7));
        assert_ne!(trace(&plan, 7), trace(&plan, 8));
        assert_ne!(trace(&plan, 7), trace(&ChaosPlan { seed: 43, ..plan.clone() }, 7));
    }

    #[test]
    fn begin_request_replays_the_same_schedule_on_retry() {
        let plan = no_pauses(ChaosPlan::all(9, 0.5));
        let mut c = FaultInjector::new(sim(), plan.faults, plan.seed);
        let pt = c.inner_mut().encode(&[1.0], S);
        let ct = c.inner_mut().encrypt(&pt);
        let attempt = |c: &mut FaultInjector<SimCkks>| {
            c.begin_request(3);
            (0..8).map(|_| c.try_rot_left(&ct, 1).is_err()).collect::<Vec<_>>()
        };
        let first = attempt(&mut c);
        let second = attempt(&mut c);
        assert_eq!(first, second);
    }

    #[test]
    fn disabled_plan_is_transparent() {
        let mut c = worker(sim(), &ChaosPlan::disabled(1), 1);
        let pt = c.try_encode(&[1.0, 2.0], S).unwrap();
        let ct = c.encrypt(&pt);
        assert!(c.try_rot_left(&ct, 1).is_ok());
        assert!(c.try_add(&ct, &ct).is_ok());
        assert!(!c.decode(&pt).iter().any(|x| x.is_nan()));
        assert!(c.injected().is_empty());
    }

    #[test]
    fn bitflip_poisons_decode_and_rotation_faults_are_typed() {
        let mut plan = ChaosPlan::disabled(5);
        plan.faults.nan_slots = Some(1.0);
        plan.faults.drop_rotation_keys = Some(1.0);
        let mut c = worker(sim(), &plan, 11);
        let pt = c.encode(&[1.0, 2.0, 3.0], S);
        let ct = c.encrypt(&pt);
        assert!(c.decode(&pt).iter().all(|x| x.is_nan()));
        assert!(matches!(
            c.try_rot_left(&ct, 2),
            Err(HisaError::MissingRotationKey { step: 2, .. })
        ));
        assert_eq!(c.injected().len(), 2);
    }

    #[test]
    fn chaos_composes_with_the_hisa_fault_injector() {
        use chet_runtime::fault::FaultPlan;
        // Inner injector always drops rotation keys; the worker's chaos
        // injector is quiet. It must forward try_* so the inner fault
        // still fires.
        let inner = FaultInjector::new(
            sim(),
            FaultPlan::none(1.0).with_dropped_rotation_keys(),
            3,
        );
        let mut c = worker(inner, &ChaosPlan::disabled(0), 1);
        let pt = c.encode(&[1.0], S);
        let ct = c.encrypt(&pt);
        assert!(matches!(
            c.try_rot_left(&ct, 1),
            Err(HisaError::MissingRotationKey { .. })
        ));
    }

    #[test]
    fn worker_injector_never_forks() {
        // The simulator forks; the worker's injector must not, under an
        // inert plan or a chaos plan (kernel fan-out stays on the one
        // worker backend).
        assert!(sim().fork().is_some());
        for plan in [ChaosPlan::disabled(0), ChaosPlan::all(42, 0.3)] {
            assert!(worker(sim(), &plan, 1).fork().is_none());
        }
    }

    #[test]
    fn drop_response_decision_is_per_request_and_deterministic() {
        let plan = ChaosPlan { drop_responses: 0.5, ..ChaosPlan::disabled(77) };
        let a: Vec<bool> = (0..64).map(|id| plan.drops_response(id)).collect();
        let b: Vec<bool> = (0..64).map(|id| plan.drops_response(id)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|&d| d) && a.iter().any(|&d| !d), "rate 0.5 should mix");
        assert!(!ChaosPlan::disabled(77).drops_response(1));
    }

    #[test]
    fn file_corruption_helpers_do_what_they_say() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("chet-chaos-helper-{}", std::process::id()));
        std::fs::write(&path, [1u8, 2, 3, 4, 5]).unwrap();
        truncate_file(&path, 2).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), vec![1, 2]);
        flip_byte(&path, 1, 0xFF).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), vec![1, 0xFD]);
        let _ = std::fs::remove_file(&path);
    }
}
