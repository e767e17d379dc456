//! Seeded chaos-harness acceptance tests.
//!
//! The headline soak drives the service through every serve-layer fault
//! class at once — slow workers, bounded hangs, bit-flipped ciphertexts,
//! dropped rotation keys, dropped responses — and holds the robustness
//! contract: every request resolves (ok, flagged-degraded, or a typed
//! error — never a hang), every *answer* that comes back is the right
//! answer, and the whole trajectory is a pure function of the chaos seed
//! (independent of worker count and `CHET_THREADS`).

use chet_ckks::sim::SimCkks;
use chet_compiler::Compiler;
use chet_hisa::error::HisaError;
use chet_hisa::params::SchemeKind;
use chet_hisa::{Hisa, Instr, RotDir};
use chet_runtime::fault::FaultPlan;
use chet_runtime::kernels::ScaleConfig;
use chet_serve::{
    BreakerConfig, BreakerState, ChaosPlan, InferenceService, RetryPolicy, ServeConfig,
    ServeError, WatchdogConfig,
};
use chet_tensor::circuit::{Circuit, CircuitBuilder};
use chet_tensor::ops::Padding;
use chet_tensor::Tensor;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn small_cnn() -> Circuit {
    let mut b = CircuitBuilder::new();
    let x = b.input(vec![1, 6, 6]);
    let w = Tensor::from_fn(vec![2, 1, 3, 3], |i| (i[2] * 3 + i[3]) as f64 * 0.05 - 0.1);
    let c = b.conv2d(x, w, Some(vec![0.1, -0.1]), 1, Padding::Valid);
    let a = b.activation(c, 0.2, 0.9);
    let p = b.avg_pool2d(a, 2, 2);
    b.build(p)
}

fn image(seed: u64) -> Tensor {
    Tensor::random(vec![1, 6, 6], 1.0, seed)
}

fn compiler() -> Compiler {
    Compiler::new(SchemeKind::RnsCkks).with_output_precision(2f64.powi(20))
}

/// Plaintext reference for one image: the v0 artifact run directly on a
/// clean noiseless simulator. Repairs republish with wider margins, so
/// served outputs are compared with a loose-but-damning tolerance — a
/// surviving bit-flip would be off by orders of magnitude, not 1e-3.
fn reference(img: &Tensor) -> Tensor {
    use chet_compiler::CompiledCircuit;
    use std::sync::OnceLock;
    static ARTIFACT: OnceLock<(Circuit, CompiledCircuit)> = OnceLock::new();
    let (circuit, compiled) = ARTIFACT.get_or_init(|| {
        let circuit = small_cnn();
        let (compiled, _) = compiler()
            .compile_checked(&circuit, &ScaleConfig::REFERENCE)
            .expect("reference must compile");
        (circuit, compiled)
    });
    let mut sim = SimCkks::new(&compiled.params, &compiled.rotation_keys, 9).without_noise();
    chet_runtime::exec::try_infer(&mut sim, circuit, &compiled.plan, img)
        .expect("reference run is fault-free")
}

fn assert_right_answer(id: u64, got: &Tensor, want: &Tensor) {
    assert_eq!(got.shape(), want.shape(), "request {id}: shape mismatch");
    for (a, b) in got.data().iter().zip(want.data()) {
        assert!(
            (a - b).abs() < 1e-3,
            "request {id}: wrong answer surfaced as success: {a} vs {b}"
        );
    }
}

/// Every fault class enabled, rates tuned so a ~200-request soak stays
/// fast while each class still fires many times.
fn chaos_plan(seed: u64) -> ChaosPlan {
    ChaosPlan {
        seed,
        drop_responses: 0.03,
        faults: FaultPlan {
            slow: Some(0.01),
            hung: Some(0.002),
            nan_slots: Some(0.002),
            drop_rotation_keys: Some(0.003),
            slow_pause: Duration::from_micros(50),
            hang_pause: Duration::from_millis(4),
            ..FaultPlan::none(0.0)
        },
    }
}

fn soak_config(workers: usize, seed: u64) -> ServeConfig {
    ServeConfig {
        workers,
        queue_capacity: 256,
        retry: RetryPolicy {
            max_attempts: 3,
            base: Duration::from_micros(50),
            cap: Duration::from_millis(1),
            jitter: 0.25,
            seed: 0x00C0_FFEE,
        },
        breaker: BreakerConfig { failure_threshold: 3, open_requests: 2, half_open_successes: 1 },
        chaos: Some(chaos_plan(seed)),
        ..ServeConfig::default()
    }
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Collapses one request outcome into the soak digest.
fn fold_outcome(hash: u64, id: u64, outcome: &Result<(bool, u32, Tensor), String>) -> u64 {
    let mut h = fnv1a(hash, &id.to_le_bytes());
    match outcome {
        Ok((degraded, attempts, output)) => {
            h = fnv1a(h, &[1, u8::from(*degraded)]);
            h = fnv1a(h, &attempts.to_le_bytes());
            for v in output.data() {
                h = fnv1a(h, &v.to_bits().to_le_bytes());
            }
        }
        Err(label) => {
            h = fnv1a(h, &[2]);
            h = fnv1a(h, label.as_bytes());
        }
    }
    h
}

fn error_label(e: &ServeError) -> String {
    // Digest-stable label: variant identity, not Display text (which may
    // carry durations or other nondeterministic detail).
    match e {
        ServeError::Overloaded { .. } => "overloaded".into(),
        ServeError::ShuttingDown => "shutting-down".into(),
        ServeError::Cancelled(r) => format!("cancelled:{r:?}"),
        ServeError::Failed { attempts, .. } => format!("failed:{attempts}"),
        ServeError::Compile(_) => "compile".into(),
        ServeError::Lint { .. } => "lint".into(),
        ServeError::WorkerLost => "worker-lost".into(),
        ServeError::StoreLocked { .. } => "store-locked".into(),
        ServeError::DuplicatePending { .. } => "duplicate-pending".into(),
        ServeError::JournalUnavailable { .. } => "journal-unavailable".into(),
        ServeError::CostBudget { .. } => "cost-budget".into(),
        ServeError::InvalidRequest { .. } => "invalid-request".into(),
    }
}

/// Runs a sequential (one-in-flight) chaos soak and returns the outcome
/// digest. Sequential submission makes the breaker trajectory — and so
/// the digest — independent of worker count: chaos decisions are pure
/// functions of `(seed, request_id, op index)` and never of which worker
/// executes.
fn run_soak(workers: usize, seed: u64, requests: u64) -> (u64, chet_serve::ServiceStats) {
    let svc = InferenceService::start_with_compiler(
        compiler(),
        small_cnn(),
        ScaleConfig::REFERENCE,
        soak_config(workers, seed),
        |_, compiled| SimCkks::new(&compiled.params, &compiled.rotation_keys, 9).without_noise(),
    )
    .expect("artifact must compile");

    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    for i in 0..requests {
        let img = image(1000 + i);
        let ticket = svc.submit(img.clone()).expect("sequential submits never overload");
        let id = ticket.id();
        let outcome = match ticket.wait() {
            Ok(resp) => {
                assert_right_answer(id, &resp.output, &reference(&img));
                Ok((resp.degraded, resp.attempts as u32, resp.output))
            }
            Err(e) => {
                assert!(
                    matches!(
                        e,
                        ServeError::Failed { .. }
                            | ServeError::WorkerLost
                            | ServeError::Cancelled(_)
                    ),
                    "request {id}: unexpected error class under chaos: {e}"
                );
                Err(error_label(&e))
            }
        };
        digest = fold_outcome(digest, id, &outcome);
    }
    (digest, svc.shutdown())
}

#[test]
fn seeded_chaos_soak_is_safe_and_reproducible() {
    const SEED: u64 = 0xC4A0_5EED;
    const REQUESTS: u64 = 208;

    let (digest_a, stats_a) = run_soak(1, SEED, REQUESTS);

    // Safety: nothing panicked, nothing hung (the soak returned), and
    // every fault class actually fired.
    assert_eq!(stats_a.panics_caught, 0);
    assert_eq!(stats_a.submitted, REQUESTS);
    assert!(stats_a.retries > 0, "chaos should have caused retries");
    assert!(stats_a.dropped_responses > 0, "drop-response chaos should have fired");
    assert!(
        stats_a.retries_exhausted > 0,
        "deterministic per-request chaos replays on retry, so some requests exhaust"
    );
    assert!(
        stats_a.completed_ok + stats_a.degraded > REQUESTS / 2,
        "most requests should still be answered: {stats_a:?}"
    );

    // Reproducibility: the same seed yields the same digest…
    let (digest_b, _) = run_soak(1, SEED, REQUESTS);
    assert_eq!(digest_a, digest_b, "chaos soak must be reproducible from its seed");
    // …and pinned, so a change to the serving path that moves any outcome
    // (an attempt count, a degraded flag, an error class) shows up here.
    assert_eq!(digest_a, 0x4BE2_AAF8_D4AD_0D49, "chaos soak trajectory moved");

    // …independent of worker-pool size…
    let (digest_c, _) = run_soak(3, SEED, REQUESTS);
    assert_eq!(digest_a, digest_c, "digest must not depend on worker count");

    // …and a different seed yields a different trajectory.
    let (digest_d, _) = run_soak(1, SEED ^ 1, REQUESTS);
    assert_ne!(digest_a, digest_d, "the seed must actually steer the chaos");
}

#[test]
fn concurrent_chaos_burst_never_loses_or_corrupts_a_request() {
    let svc = InferenceService::start_with_compiler(
        compiler(),
        small_cnn(),
        ScaleConfig::REFERENCE,
        soak_config(3, 0xB02_57ED),
        |_, compiled| SimCkks::new(&compiled.params, &compiled.rotation_keys, 9).without_noise(),
    )
    .expect("artifact must compile");

    let tickets: Vec<_> = (0..96u64
        )
        .map(|i| {
            let img = image(7000 + i);
            (img.clone(), svc.submit(img).expect("queue sized for the burst"))
        })
        .collect();

    let mut resolved = BTreeSet::new();
    for (img, t) in tickets {
        let id = t.id();
        match t.wait() {
            Ok(resp) => assert_right_answer(id, &resp.output, &reference(&img)),
            Err(
                ServeError::Failed { .. } | ServeError::WorkerLost | ServeError::Cancelled(_),
            ) => {}
            Err(other) => panic!("request {id}: unexpected error class: {other}"),
        }
        assert!(resolved.insert(id), "request id {id} resolved twice");
    }
    assert_eq!(resolved.len(), 96, "every submitted request must resolve exactly once");

    let stats = svc.shutdown();
    assert_eq!(stats.panics_caught, 0);
    assert_eq!(
        stats.completed_ok + stats.degraded + stats.failed + stats.cancelled,
        96,
        "terminal counters must account for every request: {stats:?}"
    );
}

#[test]
fn shutdown_under_chaos_accounts_for_every_request() {
    let mut cfg = soak_config(2, 0xD3AD_11FE);
    cfg.queue_capacity = 64;
    let svc = InferenceService::start_with_compiler(
        compiler(),
        small_cnn(),
        ScaleConfig::REFERENCE,
        cfg,
        |_, compiled| SimCkks::new(&compiled.params, &compiled.rotation_keys, 9).without_noise(),
    )
    .expect("artifact must compile");

    let tickets: Vec<_> =
        (0..64u64).map(|i| svc.submit(image(3000 + i)).expect("queue holds the batch")).collect();
    let submitted: BTreeSet<u64> = tickets.iter().map(|t| t.id()).collect();
    assert_eq!(submitted.len(), 64);

    // Drain with a deadline far shorter than the full batch needs: the
    // sweeper must convert whatever cannot finish into typed
    // cancellations rather than leaving tickets hanging.
    let stats = svc.shutdown_with_deadline(Duration::from_millis(40));

    let mut resolved = BTreeSet::new();
    for t in tickets {
        let id = t.id();
        match t.wait() {
            Ok(_) => {}
            Err(
                ServeError::Failed { .. }
                | ServeError::WorkerLost
                | ServeError::Cancelled(_)
                | ServeError::ShuttingDown,
            ) => {}
            Err(other) => panic!("request {id}: unexpected error at shutdown: {other}"),
        }
        assert!(resolved.insert(id), "request id {id} resolved twice");
    }
    assert_eq!(
        resolved, submitted,
        "graceful shutdown must resolve every accepted request exactly once"
    );
    assert_eq!(stats.panics_caught, 0);
    assert_eq!(
        stats.completed_ok + stats.degraded + stats.failed + stats.cancelled,
        64,
        "no request may be silently dropped at shutdown: {stats:?}"
    );
}

// ---------------------------------------------------------------------
// Breaker half-open under concurrent probes.
// ---------------------------------------------------------------------

struct GateCtl {
    /// While set, every rotation fails with `MissingRotationKey`.
    faulty: AtomicBool,
    /// Pause injected into `encrypt` (once per request), ms.
    encrypt_pause_ms: AtomicU64,
}

/// Test backend: shared-switch fault injection plus a per-request pause,
/// so the test can hold a half-open probe in flight while rivals arrive.
struct Gate {
    inner: SimCkks,
    ctl: Arc<GateCtl>,
}

impl Hisa for Gate {
    type Ct = <SimCkks as Hisa>::Ct;
    type Pt = <SimCkks as Hisa>::Pt;

    fn slots(&self) -> usize {
        self.inner.slots()
    }
    fn try_encode(&mut self, values: &[f64], scale: f64) -> Result<Self::Pt, HisaError> {
        self.inner.try_encode(values, scale)
    }
    fn decode(&mut self, p: &Self::Pt) -> Vec<f64> {
        self.inner.decode(p)
    }
    fn encrypt(&mut self, p: &Self::Pt) -> Self::Ct {
        let pause = self.ctl.encrypt_pause_ms.load(Ordering::Relaxed);
        if pause > 0 {
            std::thread::sleep(Duration::from_millis(pause));
        }
        self.inner.encrypt(p)
    }
    fn decrypt(&mut self, c: &Self::Ct) -> Self::Pt {
        self.inner.decrypt(c)
    }
    fn try_exec(&mut self, instr: Instr<'_, Self::Ct, Self::Pt>) -> Result<Self::Ct, HisaError> {
        self.inner.try_exec(instr)
    }
    fn try_rotate(
        &mut self,
        c: &Self::Ct,
        dir: RotDir,
        steps: &[usize],
    ) -> Result<Vec<Self::Ct>, HisaError> {
        if let (true, Some(&step)) = (self.ctl.faulty.load(Ordering::Relaxed), steps.first()) {
            return Err(HisaError::MissingRotationKey { step, available: Vec::new() });
        }
        self.inner.try_rotate(c, dir, steps)
    }
    fn max_rescale(&mut self, c: &Self::Ct, ub: f64) -> f64 {
        self.inner.max_rescale(c, ub)
    }
    fn scale_of(&self, c: &Self::Ct) -> f64 {
        self.inner.scale_of(c)
    }
    fn available_rotations(&self) -> Option<BTreeSet<usize>> {
        self.inner.available_rotations()
    }
}

#[test]
fn half_open_breaker_admits_exactly_one_concurrent_probe() {
    let ctl = Arc::new(GateCtl {
        faulty: AtomicBool::new(true),
        encrypt_pause_ms: AtomicU64::new(0),
    });
    let factory_ctl = Arc::clone(&ctl);
    let cfg = ServeConfig {
        workers: 2,
        queue_capacity: 16,
        retry: RetryPolicy {
            max_attempts: 1,
            base: Duration::from_micros(50),
            cap: Duration::from_millis(1),
            jitter: 0.0,
            seed: 1,
        },
        // threshold 1: one failure opens; open_requests 0: the very next
        // request probes; half_open_successes 1: one good probe closes.
        breaker: BreakerConfig { failure_threshold: 1, open_requests: 0, half_open_successes: 1 },
        // Strict mode: no degraded fallback — breaker-refused requests
        // must shed with `Overloaded`, not queue or silently degrade.
        degraded_fallback: false,
        ..ServeConfig::default()
    };
    let svc = InferenceService::start_with_compiler(
        compiler(),
        small_cnn(),
        ScaleConfig::REFERENCE,
        cfg,
        move |_, compiled| Gate {
            inner: SimCkks::new(&compiled.params, &compiled.rotation_keys, 9).without_noise(),
            ctl: Arc::clone(&factory_ctl),
        },
    )
    .expect("artifact must compile");

    // Trip the breaker: one strict failure.
    let err = svc.submit(image(1)).expect("queue empty").wait().unwrap_err();
    assert!(matches!(err, ServeError::Failed { attempts: 1, .. }), "got {err}");
    assert_eq!(svc.stats().breaker.state, BreakerState::Open);

    // Heal the backend but make each primary run hold for 120 ms, so the
    // probe is still in flight while the rest of the batch is judged.
    ctl.faulty.store(false, Ordering::Relaxed);
    ctl.encrypt_pause_ms.store(120, Ordering::Relaxed);

    let tickets: Vec<_> =
        (0..6u64).map(|i| svc.submit(image(10 + i)).expect("queue holds the batch")).collect();
    let mut ok = 0;
    let mut shed = 0;
    for t in tickets {
        match t.wait() {
            Ok(resp) => {
                assert!(!resp.degraded, "strict mode has no degraded route");
                ok += 1;
            }
            Err(ServeError::Overloaded { .. }) => shed += 1,
            Err(other) => panic!("probe rivals must shed with Overloaded, got {other}"),
        }
    }
    assert_eq!(ok, 1, "exactly one half-open trial may be admitted");
    assert_eq!(shed, 5, "every rival must be shed, not queued behind the probe");

    ctl.encrypt_pause_ms.store(0, Ordering::Relaxed);
    let resp = svc.submit(image(99)).expect("queue empty").wait().expect("breaker closed again");
    assert!(!resp.degraded);

    let stats = svc.shutdown();
    assert_eq!(stats.breaker.state, BreakerState::Closed);
    let kinds: Vec<(BreakerState, BreakerState)> =
        stats.breaker.transitions.iter().map(|t| (t.from, t.to)).collect();
    assert!(kinds.contains(&(BreakerState::Open, BreakerState::HalfOpen)), "{kinds:?}");
    assert!(kinds.contains(&(BreakerState::HalfOpen, BreakerState::Closed)), "{kinds:?}");
}

#[test]
fn watchdog_escalates_hung_worker_and_respawns() {
    let cfg = ServeConfig {
        workers: 1,
        queue_capacity: 8,
        retry: RetryPolicy {
            max_attempts: 1,
            base: Duration::from_micros(50),
            cap: Duration::from_millis(1),
            jitter: 0.0,
            seed: 1,
        },
        watchdog: WatchdogConfig {
            enabled: true,
            tick: Duration::from_millis(2),
            grace: Duration::from_millis(5),
            stall_timeout: Duration::from_millis(30),
            quarantine_after: Duration::from_millis(15),
            max_respawns: 4,
        },
        // Every op hangs long past the stall timeout, ignoring the
        // cancel token — exactly the wedge the watchdog exists for.
        chaos: Some(ChaosPlan {
            faults: FaultPlan {
                slow: Some(0.0),
                hung: Some(1.0),
                nan_slots: Some(0.0),
                drop_rotation_keys: Some(0.0),
                hang_pause: Duration::from_millis(150),
                ..FaultPlan::none(0.0)
            },
            ..ChaosPlan::disabled(0xD06_60D)
        }),
        ..ServeConfig::default()
    };
    let svc = InferenceService::start_with_compiler(
        compiler(),
        small_cnn(),
        ScaleConfig::REFERENCE,
        cfg,
        |_, compiled| SimCkks::new(&compiled.params, &compiled.rotation_keys, 9).without_noise(),
    )
    .expect("artifact must compile");

    // The hung op eventually returns; the cooperative check right after
    // it observes the watchdog's cancellation and resolves typed.
    let err = svc.submit(image(5)).expect("queue empty").wait().unwrap_err();
    assert!(matches!(err, ServeError::Cancelled(_) | ServeError::Failed { .. }), "got {err}");

    let events = svc.watchdog_events();
    assert!(!events.is_empty(), "the watchdog must have intervened");
    assert!(
        events.iter().any(|e| e.action == chet_serve::Escalation::Cancelled),
        "step 1 (cancel) expected: {events:?}"
    );
    assert!(
        events.iter().any(|e| e.action == chet_serve::Escalation::Quarantined),
        "step 2 (quarantine + respawn) expected: {events:?}"
    );

    let health = svc.health();
    assert_eq!(health.verdict(), chet_serve::HealthVerdict::Degraded);
    assert!(health.watchdog_escalations >= 2);
    assert!(health.workers_respawned >= 1);

    let stats = svc.shutdown();
    assert!(stats.watchdog_escalations >= 2, "{stats:?}");
    assert!(stats.workers_respawned >= 1, "{stats:?}");
}
