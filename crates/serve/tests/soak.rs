//! Service-level robustness acceptance tests.
//!
//! The headline test drives a worker pool through seeded *transient*
//! fault injection: every request must resolve (ok, flagged-degraded, or
//! a structured error — never a panic, never a hang), the circuit breaker
//! must trip while the faults last and recover through half-open once
//! they clear, and the whole trajectory must be reproducible from the
//! seeds.

use chet_ckks::sim::SimCkks;
use chet_compiler::Compiler;
use chet_hisa::params::SchemeKind;
use chet_hisa::{Hisa, HisaError, Instr, RotDir};
use chet_runtime::cancel::{CancelReason, CancelToken};
use chet_runtime::fault::{FaultInjector, FaultPlan};
use chet_runtime::kernels::ScaleConfig;
use chet_serve::{
    BreakerConfig, BreakerState, InferenceService, RetryPolicy, ServeConfig, ServeError,
};
use chet_tensor::circuit::{Circuit, CircuitBuilder};
use chet_tensor::ops::Padding;
use chet_tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// conv → activation → avg-pool: exercises rotations, plaintext muls and
/// rescales, so every injected fault class has a trigger site.
fn small_cnn() -> Circuit {
    let mut b = CircuitBuilder::new();
    let x = b.input(vec![1, 6, 6]);
    let w = Tensor::from_fn(vec![2, 1, 3, 3], |i| (i[2] * 3 + i[3]) as f64 * 0.05 - 0.1);
    let c = b.conv2d(x, w, Some(vec![0.1, -0.1]), 1, Padding::Valid);
    let a = b.activation(c, 0.2, 0.9);
    let p = b.avg_pool2d(a, 2, 2);
    b.build(p)
}

fn scales() -> ScaleConfig {
    ScaleConfig::from_log2(25, 12, 12, 10)
}

fn image(seed: u64) -> Tensor {
    Tensor::random(vec![1, 6, 6], 1.0, seed)
}

fn compiler() -> Compiler {
    Compiler::new(SchemeKind::RnsCkks).with_output_precision(2f64.powi(20))
}

/// Fast-backoff config so the suite stays quick.
fn config(workers: usize, queue: usize) -> ServeConfig {
    ServeConfig {
        workers,
        queue_capacity: queue,
        default_deadline: None,
        retry: RetryPolicy {
            max_attempts: 3,
            base: Duration::from_micros(50),
            cap: Duration::from_millis(1),
            jitter: 0.25,
            seed: 0x00C0_FFEE,
        },
        breaker: BreakerConfig { failure_threshold: 3, open_requests: 2, half_open_successes: 1 },
        threads: None,
        ..ServeConfig::default()
    }
}

#[test]
fn soak_transient_faults_all_requests_resolve_and_breaker_recovers() {
    let svc = InferenceService::start_with_compiler(
        compiler(),
        small_cnn(),
        scales(),
        config(3, 128),
        |worker_id, compiled| {
            let sim = SimCkks::new(&compiled.params, &compiled.rotation_keys, 5).without_noise();
            // Each worker's backend drops rotation keys for its first 3
            // eligible instructions, then heals.
            let plan = FaultPlan::none(1.0).with_dropped_rotation_keys().transient(3);
            FaultInjector::new(sim, plan, 40 + worker_id as u64)
        },
    )
    .expect("artifact must compile");

    // Burst phase: fire a batch concurrently while faults are active.
    let tickets: Vec<_> =
        (0..40).map(|i| svc.submit(image(100 + i)).expect("queue sized for the burst")).collect();
    let mut ok = 0u64;
    let mut degraded = 0u64;
    for t in tickets {
        match t.wait() {
            Ok(resp) if resp.degraded => degraded += 1,
            Ok(_) => ok += 1,
            Err(e) => panic!("burst request must resolve ok or degraded, got {e}"),
        }
    }
    assert_eq!(ok + degraded, 40);

    // Settling phase: sequential requests until every worker backend has
    // burned through its fault window and the breaker closes again.
    let mut settled = false;
    for i in 0..100u64 {
        let resp = svc.submit(image(500 + i)).expect("queue empty").wait().expect("must resolve");
        if !resp.degraded && svc.stats().breaker.state == BreakerState::Closed {
            settled = true;
            break;
        }
    }
    assert!(settled, "breaker should close once the transient faults clear");

    let stats = svc.shutdown();
    // ≥ 99% of requests complete ok-or-degraded; here it is 100%: every
    // primary failure falls back to the degraded route.
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.cancelled, 0);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.panics_caught, 0, "fault injection must never panic a worker");
    assert!(stats.retries > 0, "transient faults should have caused retries");
    assert!(stats.degraded > 0, "an open breaker should have degraded requests");
    let kinds: Vec<(BreakerState, BreakerState)> =
        stats.breaker.transitions.iter().map(|t| (t.from, t.to)).collect();
    assert!(
        kinds.contains(&(BreakerState::Closed, BreakerState::Open)),
        "breaker should trip while faults are active: {kinds:?}"
    );
    assert!(
        kinds.contains(&(BreakerState::HalfOpen, BreakerState::Closed)),
        "breaker should recover through half-open: {kinds:?}"
    );
    assert_eq!(stats.breaker.state, BreakerState::Closed);
    assert_eq!(stats.latency.count, stats.completed_ok + stats.degraded + stats.failed);
}

#[test]
fn single_worker_breaker_lifecycle_is_deterministic() {
    let svc = InferenceService::start_with_compiler(
        compiler(),
        small_cnn(),
        scales(),
        config(1, 8),
        |_, compiled| {
            let sim = SimCkks::new(&compiled.params, &compiled.rotation_keys, 5).without_noise();
            // 6 faulting instructions: request 1 burns 3 (its retries),
            // then 3 probes fail before the 4th probe finds a healed
            // backend.
            let plan = FaultPlan::none(1.0).with_dropped_rotation_keys().transient(6);
            FaultInjector::new(sim, plan, 7)
        },
    )
    .expect("artifact must compile");

    let mut outcomes = Vec::new();
    for i in 0..16u64 {
        let resp = svc.submit(image(i)).expect("sequential submits never overload").wait();
        let resp = resp.expect("every request resolves ok or degraded");
        outcomes.push(resp.degraded);
    }
    // Request 1 exhausts its 3 attempts (tripping the breaker) and
    // degrades; requests 2..13 ride the open/half-open cooldown cycles;
    // the 4th probe (request 13) heals the breaker and 14..16 run primary.
    let expected = [
        true, true, true, true, true, true, true, true, true, true, true, true, false, false,
        false, false,
    ];
    assert_eq!(outcomes.as_slice(), &expected);

    let stats = svc.shutdown();
    assert_eq!(stats.completed_ok, 4);
    assert_eq!(stats.degraded, 12);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.retries, 2, "only request 1 retried (attempts 2 and 3)");
    assert_eq!(stats.repairs, 0);
    let kinds: Vec<(BreakerState, BreakerState)> =
        stats.breaker.transitions.iter().map(|t| (t.from, t.to)).collect();
    use BreakerState::{Closed, HalfOpen, Open};
    assert_eq!(
        kinds,
        vec![
            (Closed, Open),     // request 1's third consecutive failure
            (Open, HalfOpen),   // request 4 probes
            (HalfOpen, Open),   // probe fails (fault window active)
            (Open, HalfOpen),   // request 7
            (HalfOpen, Open),
            (Open, HalfOpen),   // request 10
            (HalfOpen, Open),
            (Open, HalfOpen),   // request 13
            (HalfOpen, Closed), // probe succeeds: window exhausted
        ]
    );
}

#[test]
fn overload_sheds_immediately_with_structured_rejection() {
    // One worker, tiny queue, and a permanently faulty primary whose
    // backoff keeps the worker busy long enough for the queue to fill.
    let mut cfg = config(1, 2);
    cfg.retry.base = Duration::from_millis(10);
    cfg.retry.cap = Duration::from_millis(20);
    let svc = InferenceService::start_with_compiler(
        compiler(),
        small_cnn(),
        scales(),
        cfg,
        |_, compiled| {
            let sim = SimCkks::new(&compiled.params, &compiled.rotation_keys, 5).without_noise();
            FaultInjector::new(sim, FaultPlan::none(1.0).with_dropped_rotation_keys(), 11)
        },
    )
    .expect("artifact must compile");

    let mut tickets = Vec::new();
    let mut sheds = 0;
    for i in 0..10u64 {
        match svc.submit(image(i)) {
            Ok(t) => tickets.push(t),
            Err(ServeError::Overloaded { capacity }) => {
                assert_eq!(capacity, 2);
                sheds += 1;
            }
            Err(other) => panic!("only Overloaded is expected at admission: {other}"),
        }
    }
    assert!(sheds > 0, "a full queue must shed load");
    // Accepted requests still resolve (degraded, since the primary never
    // heals) — shedding never corrupts queued work.
    for t in tickets {
        let resp = t.wait().expect("accepted requests resolve");
        assert!(resp.degraded);
    }
    let stats = svc.shutdown();
    assert_eq!(stats.shed, sheds);
    assert_eq!(stats.failed, 0);
}

#[test]
fn deadlines_and_cancellation_abort_cooperatively() {
    let mut cfg = config(1, 8);
    cfg.default_deadline = Some(Duration::ZERO);
    let svc = InferenceService::start_with_compiler(
        compiler(),
        small_cnn(),
        scales(),
        cfg,
        |_, compiled| SimCkks::new(&compiled.params, &compiled.rotation_keys, 5).without_noise(),
    )
    .expect("artifact must compile");

    // An already-expired deadline aborts before any ciphertext work.
    let err = svc.submit(image(1)).expect("queue empty").wait().unwrap_err();
    assert_eq!(err, ServeError::Cancelled(CancelReason::DeadlineExceeded));

    // An explicitly cancelled token aborts with the explicit reason even
    // though it also has no deadline budget left.
    let token = CancelToken::new();
    token.cancel();
    let err = svc.submit_with(image(2), token).expect("queue empty").wait().unwrap_err();
    assert_eq!(err, ServeError::Cancelled(CancelReason::Cancelled));

    let stats = svc.shutdown();
    assert_eq!(stats.cancelled, 2);
    assert_eq!(stats.completed_ok + stats.degraded + stats.failed, 0);
}

#[test]
fn level_exhaustion_escalates_into_repair_recompilation() {
    let svc = InferenceService::start_with_compiler(
        compiler(),
        small_cnn(),
        scales(),
        config(1, 8),
        |_, compiled| {
            let sim = SimCkks::new(&compiled.params, &compiled.rotation_keys, 5).without_noise();
            // Every rescale faults with LevelExhausted while the window
            // lasts; rebuilding the backend after each repair restarts the
            // window, so both attempts fault and both escalate.
            let plan = FaultPlan::none(1.0).with_exhausted_levels().transient(1);
            FaultInjector::new(sim, plan, 13)
        },
    )
    .expect("artifact must compile");

    let v0 = svc.stats().artifact_version;
    let resp = svc.submit(image(3)).expect("queue empty").wait().expect("must resolve");
    assert!(resp.degraded, "primary never healed, so the request degrades");
    let stats = svc.shutdown();
    assert!(stats.repairs >= 1, "LevelExhausted must trigger at least one recompilation");
    assert!(stats.artifact_version > v0, "each repair publishes a new artifact version");
}

#[test]
fn healthy_service_matches_direct_inference_and_reports_cleanly() {
    let svc = InferenceService::start_with_compiler(
        compiler(),
        small_cnn(),
        scales(),
        config(2, 16),
        |_, compiled| SimCkks::new(&compiled.params, &compiled.rotation_keys, 9).without_noise(),
    )
    .expect("artifact must compile");

    // Reference: the same compiled artifact run directly.
    let circuit = small_cnn();
    let (compiled, _) =
        compiler().compile_checked(&circuit, &scales()).expect("artifact must compile");
    let mut direct = SimCkks::new(&compiled.params, &compiled.rotation_keys, 9).without_noise();
    let expected =
        chet_runtime::exec::try_infer(&mut direct, &circuit, &compiled.plan, &image(42))
            .expect("healthy direct run");

    let resp = svc.submit(image(42)).expect("queue empty").wait().expect("healthy run");
    assert!(!resp.degraded);
    assert_eq!(resp.attempts, 1);
    assert_eq!(resp.output.shape(), expected.shape());
    for (a, b) in resp.output.data().iter().zip(expected.data()) {
        assert!((a - b).abs() < 1e-9, "service must run the same artifact: {a} vs {b}");
    }
    assert!(resp.ops_executed > 0, "the observer should have seen every node");

    let stats = svc.shutdown();
    assert_eq!(stats.completed_ok, 1);
    assert_eq!(stats.degraded + stats.failed + stats.cancelled + stats.shed, 0);
    assert_eq!(stats.breaker.state, BreakerState::Closed);
    assert!(stats.breaker.transitions.is_empty());
}

/// A backend that panics on its first rotation, standing in for a native
/// library fault. Only used to prove the worker contains panics.
struct PanicOnce {
    inner: SimCkks,
    armed: bool,
}

impl Hisa for PanicOnce {
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
        if self.armed {
            self.armed = false;
            panic!("simulated native-library crash");
        }
        self.inner.try_rotate(c, dir, steps)
    }
    fn max_rescale(&mut self, c: &Self::Ct, ub: f64) -> f64 {
        self.inner.max_rescale(c, ub)
    }
    fn scale_of(&self, c: &Self::Ct) -> f64 {
        self.inner.scale_of(c)
    }
    fn available_rotations(&self) -> Option<std::collections::BTreeSet<usize>> {
        self.inner.available_rotations()
    }
}

#[test]
fn worker_contains_backend_panics_and_recovers() {
    let builds = Arc::new(AtomicU64::new(0));
    let builds_in_factory = Arc::clone(&builds);
    let svc = InferenceService::start_with_compiler(
        compiler(),
        small_cnn(),
        scales(),
        config(1, 8),
        move |_, compiled| {
            // Only the first backend instance is armed to panic; the
            // rebuild after the caught panic is healthy.
            let n = builds_in_factory.fetch_add(1, Ordering::Relaxed);
            PanicOnce {
                inner: SimCkks::new(&compiled.params, &compiled.rotation_keys, 5).without_noise(),
                armed: n == 0,
            }
        },
    )
    .expect("artifact must compile");

    let resp = svc.submit(image(8)).expect("queue empty").wait().expect("must resolve");
    assert!(!resp.degraded, "the rebuilt backend should finish the request on the primary");
    assert_eq!(resp.attempts, 2);
    let stats = svc.shutdown();
    assert_eq!(stats.panics_caught, 1);
    assert_eq!(stats.completed_ok, 1);
    assert_eq!(stats.failed, 0);
    assert_eq!(builds.load(Ordering::Relaxed), 2, "the worker rebuilt its backend once");
}
