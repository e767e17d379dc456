//! Backend wrappers must not break rotation batches apart when they have
//! nothing to inject (DESIGN.md §13.3, §16.4).
//!
//! `RnsCkks` hoists the key-switch decomposition across each
//! `try_rot_*_many` batch, so a wrapper that splits batches into single
//! rotations silently pays full key-switch cost per step. A counting
//! double over the noiseless simulator records every rotation call that
//! reaches the backend; the tests check that:
//!
//! * inert `ChaosInjector` / `FaultInjector` stacks deliver the same
//!   batched calls as the bare backend, with bit-equal outputs;
//! * an active plan splits batches on exactly the single-rotation
//!   schedule, so seeded fault campaigns replay unchanged;
//! * both `chet-serve` worker paths (solo and cohort) hand batches to the
//!   backend when chaos is off.

use chet::ckks::sim::SimCkks;
use chet::compiler::Compiler;
use chet::hisa::params::SchemeKind;
use chet::hisa::{EncryptionParams, Hisa, HisaError, RotationKeyPolicy};
use chet::runtime::exec::{batch_capacity, try_infer, ExecPlan};
use chet::runtime::fault::{FaultInjector, FaultPlan};
use chet::runtime::kernels::ScaleConfig;
use chet::runtime::layout::LayoutKind;
use chet::serve::{ChaosInjector, ChaosPlan, InferenceService, ServeConfig};
use chet::tensor::circuit::{Circuit, CircuitBuilder};
use chet::tensor::ops::Padding;
use chet::tensor::Tensor;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::Duration;

type Ct = <SimCkks as Hisa>::Ct;
type Pt = <SimCkks as Hisa>::Pt;

/// One rotation call as the backend saw it.
#[derive(Debug, Clone, PartialEq)]
struct Call {
    left: bool,
    batched: bool,
    steps: Vec<usize>,
}

type Log = Arc<Mutex<Vec<Call>>>;

/// Forwards everything to a simulator and logs each rotation call.
/// Does not forward `fork`, so fan-out runs on it and every rotation of
/// the run is logged in program order.
struct Counting {
    inner: SimCkks,
    log: Log,
}

impl Counting {
    fn record(&self, left: bool, batched: bool, steps: &[usize]) {
        let call = Call { left, batched, steps: steps.to_vec() };
        self.log.lock().unwrap().push(call);
    }
}

impl Hisa for Counting {
    type Ct = Ct;
    type Pt = Pt;

    fn slots(&self) -> usize {
        self.inner.slots()
    }
    fn encode(&mut self, values: &[f64], scale: f64) -> Pt {
        self.inner.encode(values, scale)
    }
    fn decode(&mut self, p: &Pt) -> Vec<f64> {
        self.inner.decode(p)
    }
    fn encrypt(&mut self, p: &Pt) -> Ct {
        self.inner.encrypt(p)
    }
    fn decrypt(&mut self, c: &Ct) -> Pt {
        self.inner.decrypt(c)
    }
    fn rot_left(&mut self, c: &Ct, x: usize) -> Ct {
        self.inner.rot_left(c, x)
    }
    fn rot_right(&mut self, c: &Ct, x: usize) -> Ct {
        self.inner.rot_right(c, x)
    }
    fn add(&mut self, a: &Ct, b: &Ct) -> Ct {
        self.inner.add(a, b)
    }
    fn add_plain(&mut self, a: &Ct, p: &Pt) -> Ct {
        self.inner.add_plain(a, p)
    }
    fn add_scalar(&mut self, a: &Ct, x: f64) -> Ct {
        self.inner.add_scalar(a, x)
    }
    fn sub(&mut self, a: &Ct, b: &Ct) -> Ct {
        self.inner.sub(a, b)
    }
    fn sub_plain(&mut self, a: &Ct, p: &Pt) -> Ct {
        self.inner.sub_plain(a, p)
    }
    fn sub_scalar(&mut self, a: &Ct, x: f64) -> Ct {
        self.inner.sub_scalar(a, x)
    }
    fn mul(&mut self, a: &Ct, b: &Ct) -> Ct {
        self.inner.mul(a, b)
    }
    fn mul_plain(&mut self, a: &Ct, p: &Pt) -> Ct {
        self.inner.mul_plain(a, p)
    }
    fn mul_scalar(&mut self, a: &Ct, x: f64, scale: f64) -> Ct {
        self.inner.mul_scalar(a, x, scale)
    }
    fn rescale(&mut self, c: &Ct, divisor: f64) -> Ct {
        self.inner.rescale(c, divisor)
    }
    fn max_rescale(&mut self, c: &Ct, ub: f64) -> f64 {
        self.inner.max_rescale(c, ub)
    }
    fn scale_of(&self, c: &Ct) -> f64 {
        self.inner.scale_of(c)
    }
    fn try_encode(&mut self, values: &[f64], scale: f64) -> Result<Pt, HisaError> {
        self.inner.try_encode(values, scale)
    }
    fn try_rot_left(&mut self, c: &Ct, x: usize) -> Result<Ct, HisaError> {
        self.record(true, false, &[x]);
        self.inner.try_rot_left(c, x)
    }
    fn try_rot_right(&mut self, c: &Ct, x: usize) -> Result<Ct, HisaError> {
        self.record(false, false, &[x]);
        self.inner.try_rot_right(c, x)
    }
    fn try_rot_left_many(&mut self, c: &Ct, steps: &[usize]) -> Result<Vec<Ct>, HisaError> {
        self.record(true, true, steps);
        self.inner.try_rot_left_many(c, steps)
    }
    fn try_rot_right_many(&mut self, c: &Ct, steps: &[usize]) -> Result<Vec<Ct>, HisaError> {
        self.record(false, true, steps);
        self.inner.try_rot_right_many(c, steps)
    }
    fn try_add(&mut self, a: &Ct, b: &Ct) -> Result<Ct, HisaError> {
        self.inner.try_add(a, b)
    }
    fn try_add_plain(&mut self, a: &Ct, p: &Pt) -> Result<Ct, HisaError> {
        self.inner.try_add_plain(a, p)
    }
    fn try_sub(&mut self, a: &Ct, b: &Ct) -> Result<Ct, HisaError> {
        self.inner.try_sub(a, b)
    }
    fn try_sub_plain(&mut self, a: &Ct, p: &Pt) -> Result<Ct, HisaError> {
        self.inner.try_sub_plain(a, p)
    }
    fn try_rescale(&mut self, c: &Ct, divisor: f64) -> Result<Ct, HisaError> {
        self.inner.try_rescale(c, divisor)
    }
    fn available_rotations(&self) -> Option<BTreeSet<usize>> {
        self.inner.available_rotations()
    }
}

const SCALES: ScaleConfig = ScaleConfig {
    input: (1u64 << 26) as f64,
    weight_plain: (1u64 << 16) as f64,
    weight_scalar: (1u64 << 16) as f64,
    mask: (1u64 << 16) as f64,
};

/// conv → activation → avg-pool → dense: every kernel that batches
/// rotations.
fn small_cnn() -> Circuit {
    let mut b = CircuitBuilder::new();
    let x = b.input(vec![1, 6, 6]);
    let w = Tensor::from_fn(vec![2, 1, 3, 3], |i| (i[2] * 3 + i[3]) as f64 * 0.05 - 0.1);
    let c = b.conv2d(x, w, Some(vec![0.1, -0.1]), 1, Padding::Valid);
    let a = b.activation(c, 0.2, 0.9);
    let p = b.avg_pool2d(a, 2, 2);
    let f = b.flatten(p);
    let m = b.matmul(f, Tensor::random(vec![3, 8], 0.4, 32), None);
    b.build(m)
}

fn image(seed: u64) -> Tensor {
    Tensor::random(vec![1, 6, 6], 1.0, seed)
}

fn sim() -> SimCkks {
    let params = EncryptionParams::rns_ckks(8192, 40, 6);
    SimCkks::new(&params, &RotationKeyPolicy::PowersOfTwo, 5).without_noise()
}

fn bits(t: &Tensor) -> Vec<u64> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// Runs the circuit through `try_infer` on `wrap(counting double)`;
/// returns the output bits and the rotation calls the double received.
fn observe<W: Hisa>(wrap: impl FnOnce(Counting) -> W) -> (Vec<u64>, Vec<Call>) {
    let log = Log::default();
    let mut h = wrap(Counting { inner: sim(), log: Arc::clone(&log) });
    let circuit = small_cnn();
    let plan = ExecPlan::uniform(&circuit, LayoutKind::CHW, SCALES);
    let out = try_infer(&mut h, &circuit, &plan, &image(17)).expect("fault-free run");
    let calls = log.lock().unwrap().clone();
    (bits(&out), calls)
}

/// Every fault class except rotations, enabled at rate 0: the counters
/// advance but nothing fires.
fn inert_faults() -> FaultPlan {
    FaultPlan { drop_rotation_keys: false, ..FaultPlan::all(0.0) }
}

fn has_multi_step_batch(calls: &[Call]) -> bool {
    calls.iter().any(|c| c.batched && c.steps.len() > 1)
}

#[test]
fn inert_wrappers_deliver_rotation_batches_unchanged() {
    let (out, bare) = observe(|h| h);
    assert!(has_multi_step_batch(&bare), "circuit must batch rotations: {bare:?}");

    let inert = [
        ("chaos(None)", observe(|h| ChaosInjector::new(h, None))),
        ("fault(inert)", observe(|h| FaultInjector::new(h, inert_faults(), 3))),
        (
            "chaos(None) over fault(inert)",
            observe(|h| ChaosInjector::new(FaultInjector::new(h, inert_faults(), 3), None)),
        ),
    ];
    for (name, (o, calls)) in &inert {
        assert_eq!(calls, &bare, "{name}: rotation calls must reach the backend unchanged");
        assert_eq!(o, &out, "{name}: output must be bit-equal");
    }

    // Rotation faults armed (rate 0): every step rolls, so the batch is
    // split — but into exactly the same steps, with the same result.
    let dropping = FaultPlan::none(0.0).with_dropped_rotation_keys();
    let (o, split) = observe(|h| FaultInjector::new(h, dropping, 3));
    assert!(split.iter().all(|c| !c.batched && c.steps.len() == 1), "{split:?}");
    let flat = |calls: &[Call]| -> Vec<(bool, usize)> {
        calls.iter().flat_map(|c| c.steps.iter().map(move |&s| (c.left, s))).collect()
    };
    assert_eq!(flat(&split), flat(&bare));
    assert_eq!(o, out, "rotation-dropping plan at rate 0 must be bit-equal");
}

const STEPS: [usize; 4] = [1, 2, 4, 8];

/// Drives `batched` through one `try_rot_left_many` and `single` through
/// the equivalent `try_rot_left` loop, then a few trailing ops; both must
/// agree on every outcome and on the injection log at each point.
/// Returns whether the batch failed.
fn assert_same_schedule<H: Hisa<Ct = Ct, Pt = Pt>>(
    mut batched: H,
    mut single: H,
    log: impl Fn(&H) -> Vec<String>,
) -> bool {
    let mut plain = sim();
    let pt = plain.encode(&[1.0, 2.0, 3.0], (1u64 << 30) as f64);
    let ct = plain.encrypt(&pt);

    let a = batched.try_rot_left_many(&ct, &STEPS).map(|v| v.len());
    let b: Result<Vec<Ct>, HisaError> =
        STEPS.iter().map(|&x| single.try_rot_left(&ct, x)).collect();
    assert_eq!(a, b.map(|v| v.len()));
    assert_eq!(log(&batched), log(&single));

    // The op counters must agree too: later decisions land identically.
    for _ in 0..4 {
        assert_eq!(batched.try_add(&ct, &ct).is_ok(), single.try_add(&ct, &ct).is_ok());
        let nan = |h: &mut H| h.decode(&pt).iter().any(|x| x.is_nan());
        assert_eq!(nan(&mut batched), nan(&mut single));
    }
    assert_eq!(log(&batched), log(&single));
    a.is_err()
}

fn quick_chaos(seed: u64) -> ChaosPlan {
    ChaosPlan {
        slow_pause: Duration::ZERO,
        hang_pause: Duration::ZERO,
        ..ChaosPlan::all(seed, 0.3)
    }
}

#[test]
fn active_chaos_splits_batches_on_the_single_rotation_schedule() {
    let mut outcomes = BTreeSet::new();
    for id in 0..16u64 {
        let twin = || {
            let mut c = ChaosInjector::new(sim(), Some(quick_chaos(42)));
            c.begin_request(id);
            c
        };
        outcomes.insert(assert_same_schedule(twin(), twin(), |c| c.injected().to_vec()));

        // Chaos over a fallible backend: an inner failure before chaos's
        // first fault must stop the rolls at the same step.
        let stacked = || {
            let faults = FaultPlan::none(0.3).with_dropped_rotation_keys();
            let mut c =
                ChaosInjector::new(FaultInjector::new(sim(), faults, id), Some(quick_chaos(7)));
            c.begin_request(id);
            c
        };
        let both = |c: &ChaosInjector<FaultInjector<SimCkks>>| {
            [c.injected(), c.inner().injected()].concat()
        };
        outcomes.insert(assert_same_schedule(stacked(), stacked(), both));
    }
    assert_eq!(outcomes.len(), 2, "request ids must cover both failed and clean batches");
}

#[test]
fn rotation_dropping_fault_plan_splits_batches_on_the_single_rotation_schedule() {
    let mut outcomes = BTreeSet::new();
    for seed in 0..16u64 {
        let plan = FaultPlan::none(0.2).with_dropped_rotation_keys().with_scale_drift();
        let twin = || FaultInjector::new(sim(), plan.clone(), seed);
        outcomes.insert(assert_same_schedule(twin(), twin(), |f| f.injected().to_vec()));
    }
    assert_eq!(outcomes.len(), 2, "seeds must cover both failed and clean batches");
}

/// Starts a service with `chaos: None` over the counting double, runs
/// `n` concurrent requests and returns the stats and the calls logged.
fn serve(config: ServeConfig, n: u64) -> (chet::serve::ServiceStats, Vec<Call>) {
    let log = Log::default();
    let factory_log = Arc::clone(&log);
    let factory = move |_: usize, compiled: &chet::compiler::CompiledCircuit| {
        let inner = SimCkks::new(&compiled.params, &compiled.rotation_keys, 42).without_noise();
        Counting { inner, log: Arc::clone(&factory_log) }
    };
    assert!(config.chaos.is_none());
    let svc = InferenceService::start_with_compiler(
        compiler(),
        small_cnn(),
        serve_scales(),
        config,
        factory,
    )
    .expect("service starts");
    let tickets: Vec<_> = (0..n).map(|i| svc.submit(image(100 + i)).unwrap()).collect();
    for t in tickets {
        assert!(!t.wait().expect("request succeeds").degraded);
    }
    let stats = svc.shutdown();
    let calls = log.lock().unwrap().clone();
    (stats, calls)
}

fn compiler() -> Compiler {
    Compiler::new(SchemeKind::RnsCkks).with_output_precision(2f64.powi(20))
}

fn serve_scales() -> ScaleConfig {
    ScaleConfig::from_log2(25, 12, 12, 10)
}

#[test]
fn served_requests_reach_the_backend_as_rotation_batches() {
    // Solo path (`run_primary`).
    let solo = ServeConfig { workers: 1, max_batch: 1, ..ServeConfig::default() };
    let (stats, calls) = serve(solo, 1);
    assert_eq!((stats.completed_ok, stats.batches_formed), (1, 0));
    assert!(has_multi_step_batch(&calls), "solo path split the batches: {calls:?}");

    // Cohort path (`run_batch`): all four members fit one batch, and the
    // linger holds the worker until they have all arrived.
    let compiled = compiler().compile(&small_cnn(), &serve_scales()).unwrap();
    let cap = batch_capacity(&small_cnn(), &compiled.plan, compiled.params.slots());
    assert!(cap >= 4, "capacity {cap}");
    let cohort = ServeConfig {
        workers: 1,
        queue_capacity: 64,
        max_batch: 4,
        max_linger: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let (stats, calls) = serve(cohort, 4);
    assert_eq!((stats.completed_ok, stats.batched_requests), (4, 4), "{stats:?}");
    assert!(has_multi_step_batch(&calls), "cohort path split the batches: {calls:?}");
}
