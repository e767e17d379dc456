//! Seeded chaos injection at the *service* boundary.
//!
//! `chet_runtime::fault` injects HISA-level failures (missing rotation
//! keys, exhausted levels) into a single backend. This module extends that
//! idea to the failure classes only a serving tier sees:
//!
//! * **slow workers** — an op stalls briefly; latency grows but the
//!   cooperative `CancelToken` checks still fire between ops.
//! * **hung workers** — an op stalls *ignoring* cancellation, modelling a
//!   wedged FFI call or a scheduler pathology; only the watchdog can see
//!   it ([`crate::watchdog`]).
//! * **bit-flipped ciphertexts** — a corrupted ciphertext decodes to
//!   garbage; modelled as NaN-poisoning the decode, which the executor's
//!   output check converts to `ExecError::PrecisionLoss` — detected,
//!   never served.
//! * **bit-flipped / dropped rotation keys** — a corrupted key bundle is
//!   unusable, surfacing as `HisaError::MissingRotationKey` on the
//!   fallible path.
//! * **dropped responses** — the worker computes an answer but the reply
//!   channel dies; the caller's [`Ticket`](crate::Ticket) resolves as
//!   `ServeError::WorkerLost`, never hangs.
//! * **store truncation mid-write** — simulated by the [`truncate_file`] /
//!   [`flip_byte`] helpers against the store directory; the store's
//!   checksums quarantine the damage on the next open.
//!
//! # Determinism
//!
//! Every decision is a pure function of `(plan seed, request id, per-
//! request op index)` — splitmix64 in counter mode, exactly like the
//! fault injector. Worker identity and thread count never enter a draw,
//! so a chaos soak replays bit-identically across `CHET_THREADS`
//! settings: same seed, same faults, at the same ops of the same
//! requests. The worker calls [`ChaosInjector::begin_request`] before
//! each attempt to (re)key the stream.
//!
//! # Interception
//!
//! [`ChaosInjector`] intercepts the [`Hisa`] core at four entry points and
//! forwards the rest untouched: [`Hisa::try_encode`] and
//! [`Hisa::try_exec`] stall, [`Hisa::try_rotate`] stalls and drops keys,
//! [`Hisa::decode`] flips bits. Every adapter — panicking or `try_*` —
//! reaches the wrapped backend through those, so each instruction has one
//! injection point, and wrapping a
//! [`FaultInjector`](chet_runtime::fault::FaultInjector) keeps *its*
//! injections: the soak composes HISA-level and serve-level chaos.
//!
//! A rotation batch reaches the wrapped backend whole when no plan is
//! active — every `chet-serve` worker runs under this wrapper, even with
//! `chaos: None`, so hoisted key switching survives serving. With a plan,
//! each step stalls and rolls, then reaches the backend as a one-element
//! batch: rolling the whole batch first would run the op counter past an
//! inner failure and shift every later decision in the request.

use chet_hisa::{Hisa, HisaError, Instr, RotDir};
use chet_runtime::fault::splitmix64;
use std::collections::BTreeSet;
use std::fs::OpenOptions;
use std::io::{self, Read as IoRead, Seek, SeekFrom, Write as IoWrite};
use std::path::Path;
use std::time::Duration;

/// Salt folded into [`ChaosPlan::drops_response`] draws so the drop
/// decision is independent of the op-level stream for the same request.
const DROP_RESPONSE_SALT: u64 = 0xD80B_1E55_0CEA_4ED5;

/// Which serve-layer fault classes fire, and how often. All rates are
/// per-eligible-op probabilities in `[0, 1]`.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// Seed; with the same seed and request ids, the schedule replays
    /// bit-identically regardless of worker count.
    pub seed: u64,
    /// Rate of short op stalls ([`ChaosPlan::slow_pause`]).
    pub slow_workers: f64,
    /// Rate of bounded *uncancellable* op stalls
    /// ([`ChaosPlan::hang_pause`]): the sleep ignores the request token,
    /// modelling a wedged backend only the watchdog can detect.
    pub hung_workers: f64,
    /// Rate of ciphertext bit flips, surfaced as NaN-poisoned decodes
    /// (caught by the executor's output check as `PrecisionLoss`).
    pub bitflip_ciphertexts: f64,
    /// Rate of corrupted/dropped rotation keys, surfaced as
    /// [`HisaError::MissingRotationKey`] on the fallible path.
    pub drop_rotation_keys: f64,
    /// Per-request rate of dropped responses (the worker computes, the
    /// reply channel dies; the ticket resolves `WorkerLost`).
    pub drop_responses: f64,
    /// Length of a slow-worker stall.
    pub slow_pause: Duration,
    /// Length of a hung-worker stall. Deliberately bounded: the fault
    /// models a *temporarily* wedged op so soaks terminate; the watchdog
    /// must still flag it, because a real wedge has no such bound.
    pub hang_pause: Duration,
}

impl ChaosPlan {
    /// No chaos; set individual rates to switch classes on.
    pub fn disabled(seed: u64) -> Self {
        ChaosPlan {
            seed,
            slow_workers: 0.0,
            hung_workers: 0.0,
            bitflip_ciphertexts: 0.0,
            drop_rotation_keys: 0.0,
            drop_responses: 0.0,
            slow_pause: Duration::from_micros(200),
            hang_pause: Duration::from_millis(120),
        }
    }

    /// Every serve-layer fault class at the given rate — the soak-test
    /// plan.
    pub fn all(seed: u64, rate: f64) -> Self {
        ChaosPlan {
            slow_workers: rate,
            hung_workers: rate,
            bitflip_ciphertexts: rate,
            drop_rotation_keys: rate,
            drop_responses: rate,
            ..ChaosPlan::disabled(seed)
        }
    }

    /// Whether the plan can fire anything at all.
    pub fn is_enabled(&self) -> bool {
        self.slow_workers > 0.0
            || self.hung_workers > 0.0
            || self.bitflip_ciphertexts > 0.0
            || self.drop_rotation_keys > 0.0
            || self.drop_responses > 0.0
    }

    /// Whether this request's computed response gets dropped on the floor.
    /// Pure function of `(seed, request_id)` — the worker that happens to
    /// run the request is irrelevant.
    pub fn drops_response(&self, request_id: u64) -> bool {
        if self.drop_responses <= 0.0 {
            return false;
        }
        let z = splitmix64(self.seed ^ splitmix64(request_id) ^ DROP_RESPONSE_SALT);
        to_unit(z) < self.drop_responses
    }
}

fn to_unit(z: u64) -> f64 {
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// A [`Hisa`] wrapper that injects the [`ChaosPlan`]'s op-level faults at
/// the interception points listed in the module docs.
pub struct ChaosInjector<H: Hisa> {
    inner: H,
    plan: Option<ChaosPlan>,
    /// Per-request stream origin, rekeyed by [`ChaosInjector::begin_request`].
    stream: u64,
    /// Ops rolled within the current request.
    ops: u64,
    injected: Vec<String>,
}

impl<H: Hisa> ChaosInjector<H> {
    /// Wraps a backend. `None` (or a plan with all rates zero) makes the
    /// wrapper a transparent passthrough.
    pub fn new(inner: H, plan: Option<ChaosPlan>) -> Self {
        let plan = plan.filter(ChaosPlan::is_enabled);
        ChaosInjector { inner, plan, stream: 0, ops: 0, injected: Vec::new() }
    }

    /// (Re)keys the fault stream for a request: all subsequent decisions
    /// are a pure function of `(seed, request_id, op index)`. Call before
    /// every attempt — a retry of the same request replays the same
    /// schedule, which is exactly what reproducibility demands.
    pub fn begin_request(&mut self, request_id: u64) {
        if let Some(p) = &self.plan {
            self.stream = splitmix64(p.seed ^ splitmix64(request_id));
        }
        self.ops = 0;
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &H {
        &self.inner
    }

    /// Log of injected faults, in op order.
    pub fn injected(&self) -> &[String] {
        &self.injected
    }

    /// Rolls one decision against `rate`, always advancing the op counter
    /// when chaos is enabled (so disabling one class does not reshuffle
    /// the others' schedules).
    fn roll(&mut self, rate: f64) -> bool {
        if self.plan.is_none() {
            return false;
        }
        let z = splitmix64(self.stream.wrapping_add(self.ops));
        self.ops += 1;
        rate > 0.0 && to_unit(z) < rate
    }

    /// Timing faults shared by every op: a short cancellable-between-ops
    /// stall, or a bounded stall that ignores cancellation entirely.
    fn stall(&mut self) {
        let Some(p) = self.plan.clone() else { return };
        if self.roll(p.slow_workers) {
            self.injected.push("slow op".into());
            std::thread::sleep(p.slow_pause);
        }
        if self.roll(p.hung_workers) {
            self.injected.push("hung op (uncancellable stall)".into());
            // Deliberately does NOT consult any CancelToken: that is the
            // fault being modelled. The watchdog path must catch this.
            std::thread::sleep(p.hang_pause);
        }
    }

    fn roll_rotation_fault(&mut self, step: usize) -> Option<HisaError> {
        let rate = self.plan.as_ref().map_or(0.0, |p| p.drop_rotation_keys);
        if self.roll(rate) {
            self.injected.push(format!("corrupted rotation key for step {step}"));
            return Some(HisaError::MissingRotationKey { step, available: Vec::new() });
        }
        None
    }
}

impl<H: Hisa> Hisa for ChaosInjector<H> {
    type Ct = H::Ct;
    type Pt = H::Pt;

    fn slots(&self) -> usize {
        self.inner.slots()
    }

    fn try_encode(&mut self, values: &[f64], scale: f64) -> Result<H::Pt, HisaError> {
        self.stall();
        self.inner.try_encode(values, scale)
    }

    fn decode(&mut self, p: &H::Pt) -> Vec<f64> {
        let mut v = self.inner.decode(p);
        let rate = self.plan.as_ref().map_or(0.0, |pl| pl.bitflip_ciphertexts);
        if self.roll(rate) && !v.is_empty() {
            // A flipped ciphertext bit scrambles the whole decryption;
            // poison every slot so the corruption cannot hide in unused
            // layout slots. The executor's finite-output check turns this
            // into ExecError::PrecisionLoss — detected, never served.
            for x in v.iter_mut() {
                *x = f64::NAN;
            }
            self.injected.push("bit-flipped ciphertext (poisoned decode)".into());
        }
        v
    }

    fn encrypt(&mut self, p: &H::Pt) -> H::Ct {
        self.inner.encrypt(p)
    }

    fn decrypt(&mut self, c: &H::Ct) -> H::Pt {
        self.inner.decrypt(c)
    }

    fn try_exec(&mut self, instr: Instr<'_, H::Ct, H::Pt>) -> Result<H::Ct, HisaError> {
        self.stall();
        self.inner.try_exec(instr)
    }

    /// Whole batch without a plan; step by step with one (module docs).
    fn try_rotate(
        &mut self,
        c: &H::Ct,
        dir: RotDir,
        steps: &[usize],
    ) -> Result<Vec<H::Ct>, HisaError> {
        if self.plan.is_none() {
            return self.inner.try_rotate(c, dir, steps);
        }
        let mut out = Vec::with_capacity(steps.len());
        for &x in steps {
            self.stall();
            if let Some(e) = self.roll_rotation_fault(x) {
                return Err(e);
            }
            out.extend(self.inner.try_rotate(c, dir, &[x])?);
        }
        Ok(out)
    }

    fn max_rescale(&mut self, c: &H::Ct, ub: f64) -> f64 {
        self.inner.max_rescale(c, ub)
    }

    fn scale_of(&self, c: &H::Ct) -> f64 {
        self.inner.scale_of(c)
    }

    fn available_rotations(&self) -> Option<BTreeSet<usize>> {
        self.inner.available_rotations()
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
    use chet_hisa::{EncryptionParams, RotationKeyPolicy};

    const S: f64 = (1u64 << 30) as f64;

    fn sim() -> SimCkks {
        let params = EncryptionParams::rns_ckks(8192, 40, 4);
        SimCkks::new(&params, &RotationKeyPolicy::PowersOfTwo, 1).without_noise()
    }

    /// Drives a fixed op trace and returns (error pattern, injection log).
    fn trace(plan: ChaosPlan, request_id: u64) -> (Vec<bool>, Vec<String>) {
        let mut c = ChaosInjector::new(sim(), Some(plan));
        c.begin_request(request_id);
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
        let plan = ChaosPlan {
            slow_pause: Duration::ZERO,
            hang_pause: Duration::ZERO,
            ..ChaosPlan::all(42, 0.3)
        };
        assert_eq!(trace(plan.clone(), 7), trace(plan.clone(), 7));
        assert_ne!(trace(plan.clone(), 7), trace(plan.clone(), 8));
        assert_ne!(
            trace(plan.clone(), 7),
            trace(ChaosPlan { seed: 43, ..plan }, 7)
        );
    }

    #[test]
    fn begin_request_replays_the_same_schedule_on_retry() {
        let plan = ChaosPlan {
            slow_pause: Duration::ZERO,
            hang_pause: Duration::ZERO,
            ..ChaosPlan::all(9, 0.5)
        };
        let mut c = ChaosInjector::new(sim(), Some(plan));
        let pt = c.encode(&[1.0], S);
        let ct = c.encrypt(&pt);
        let attempt = |c: &mut ChaosInjector<SimCkks>| {
            c.begin_request(3);
            (0..8).map(|_| c.try_rot_left(&ct, 1).is_err()).collect::<Vec<_>>()
        };
        let first = attempt(&mut c);
        let second = attempt(&mut c);
        assert_eq!(first, second);
    }

    #[test]
    fn disabled_plan_is_transparent() {
        let mut c = ChaosInjector::new(sim(), Some(ChaosPlan::disabled(1)));
        c.begin_request(1);
        let pt = c.try_encode(&[1.0, 2.0], S).unwrap();
        let ct = c.encrypt(&pt);
        assert!(c.try_rot_left(&ct, 1).is_ok());
        assert!(c.try_add(&ct, &ct).is_ok());
        assert!(!c.decode(&pt).iter().any(|x| x.is_nan()));
        assert!(c.injected().is_empty());
    }

    #[test]
    fn bitflip_poisons_decode_and_rotation_faults_are_typed() {
        let plan = ChaosPlan {
            bitflip_ciphertexts: 1.0,
            drop_rotation_keys: 1.0,
            ..ChaosPlan::disabled(5)
        };
        let mut c = ChaosInjector::new(sim(), Some(plan));
        c.begin_request(11);
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
        use chet_runtime::fault::{FaultInjector, FaultPlan};
        // Inner injector always drops rotation keys; outer chaos is
        // quiet. The chaos wrapper must forward try_* so the inner fault
        // still fires.
        let inner = FaultInjector::new(
            sim(),
            FaultPlan::none(1.0).with_dropped_rotation_keys(),
            3,
        );
        let mut c = ChaosInjector::new(inner, Some(ChaosPlan::disabled(0)));
        c.begin_request(1);
        let pt = c.encode(&[1.0], S);
        let ct = c.encrypt(&pt);
        assert!(matches!(
            c.try_rot_left(&ct, 1),
            Err(HisaError::MissingRotationKey { .. })
        ));
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
