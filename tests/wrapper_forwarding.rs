//! Backend wrappers must hand the backend exactly the instruction stream
//! the bare backend would see (DESIGN.md §9, §13.3, §16.4).
//!
//! `Hisa` has one fallible core (`try_exec`, `try_rotate`, …) and every
//! other method is an adapter over it, so a wrapper intercepts each
//! instruction in one place. A counting double over the noiseless
//! simulator implements only that core and logs every call that reaches
//! it; the tests check that:
//!
//! * the bare backend, `RunTally`, an inert `FaultInjector`, the
//!   injector a worker runs with `chaos: None` and the two stacked
//!   deliver an identical call stream — every instruction kind, every
//!   rotation batch with its direction and steps — with bit-equal
//!   outputs;
//! * an active plan (a chaos plan's op classes, or rotation drops) splits
//!   batches on exactly the single-rotation schedule, so seeded fault
//!   campaigns replay unchanged;
//! * both `chet-serve` worker paths (solo and cohort) hand batches to the
//!   backend when chaos is off, and each path's stream — a whole
//!   four-member cohort's included — is one direct solo run's.

use chet::ckks::sim::SimCkks;
use chet::compiler::Compiler;
use chet::hisa::params::SchemeKind;
use chet::hisa::{EncryptionParams, Hisa, HisaError, Instr, RotDir, RotationKeyPolicy};
use chet::runtime::exec::{batch_capacity, try_infer, ExecPlan};
use chet::runtime::fault::{FaultInjector, FaultPlan};
use chet::runtime::kernels::ScaleConfig;
use chet::runtime::layout::LayoutKind;
use chet::runtime::RunTally;
use chet::serve::{ChaosPlan, InferenceService, ServeConfig};
use chet::tensor::circuit::{Circuit, CircuitBuilder};
use chet::tensor::ops::Padding;
use chet::tensor::Tensor;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::Duration;

type Ct = <SimCkks as Hisa>::Ct;
type Pt = <SimCkks as Hisa>::Pt;

/// One core call as the backend saw it.
#[derive(Debug, Clone, PartialEq)]
enum Call {
    Encode(usize),
    Decode,
    Encrypt,
    Decrypt,
    Exec(&'static str),
    Rotate(RotDir, Vec<usize>),
    MaxRescale,
}

type Log = Arc<Mutex<Vec<Call>>>;

/// The core only, forwarded to a simulator, logging every call. Does not
/// forward `fork`, so fan-out runs on it and the whole run is logged in
/// program order.
struct Counting {
    inner: SimCkks,
    log: Log,
}

impl Counting {
    fn record(&self, call: Call) {
        self.log.lock().unwrap().push(call);
    }
}

impl Hisa for Counting {
    type Ct = Ct;
    type Pt = Pt;

    fn slots(&self) -> usize {
        self.inner.slots()
    }
    fn try_encode(&mut self, values: &[f64], scale: f64) -> Result<Pt, HisaError> {
        self.record(Call::Encode(values.len()));
        self.inner.try_encode(values, scale)
    }
    fn decode(&mut self, p: &Pt) -> Vec<f64> {
        self.record(Call::Decode);
        self.inner.decode(p)
    }
    fn encrypt(&mut self, p: &Pt) -> Ct {
        self.record(Call::Encrypt);
        self.inner.encrypt(p)
    }
    fn decrypt(&mut self, c: &Ct) -> Pt {
        self.record(Call::Decrypt);
        self.inner.decrypt(c)
    }
    fn try_exec(&mut self, instr: Instr<'_, Ct, Pt>) -> Result<Ct, HisaError> {
        self.record(Call::Exec(instr.name()));
        self.inner.try_exec(instr)
    }
    fn try_rotate(&mut self, c: &Ct, dir: RotDir, steps: &[usize]) -> Result<Vec<Ct>, HisaError> {
        self.record(Call::Rotate(dir, steps.to_vec()));
        self.inner.try_rotate(c, dir, steps)
    }
    fn max_rescale(&mut self, c: &Ct, ub: f64) -> f64 {
        self.record(Call::MaxRescale);
        self.inner.max_rescale(c, ub)
    }
    fn scale_of(&self, c: &Ct) -> f64 {
        self.inner.scale_of(c)
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

/// Every kernel kind: conv, activation (ct×ct mul), batch-norm, concat,
/// pool, and dense with bias.
fn every_kernel() -> Circuit {
    let mut b = CircuitBuilder::new();
    let x = b.input(vec![1, 6, 6]);
    let w = Tensor::from_fn(vec![2, 1, 3, 3], |i| (i[2] * 3 + i[3]) as f64 * 0.05 - 0.1);
    let c = b.conv2d(x, w, Some(vec![0.1, -0.1]), 1, Padding::Valid);
    let a = b.activation(c, 0.2, 0.9);
    let n1 = b.batch_norm(a, vec![0.9, 1.1], vec![0.05, -0.05]);
    let n2 = b.batch_norm(a, vec![1.2, 0.8], vec![-0.1, 0.1]);
    let k = b.concat(vec![n1, n2]);
    let p = b.avg_pool2d(k, 2, 2);
    let f = b.flatten(p);
    let m = b.matmul(f, Tensor::random(vec![3, 16], 0.4, 33), Some(vec![0.2, -0.3, 0.1]));
    b.build(m)
}

fn image(seed: u64) -> Tensor {
    Tensor::random(vec![1, 6, 6], 1.0, seed)
}

fn sim() -> SimCkks {
    let params = EncryptionParams::rns_ckks(8192, 40, 8);
    SimCkks::new(&params, &RotationKeyPolicy::PowersOfTwo, 5).without_noise()
}

fn bits(t: &Tensor) -> Vec<u64> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

fn infer_bits<H: Hisa>(h: &mut H, circuit: &Circuit) -> Vec<u64> {
    let plan = ExecPlan::uniform(circuit, LayoutKind::CHW, SCALES);
    bits(&try_infer(h, circuit, &plan, &image(17)).expect("fault-free run"))
}

/// Issues every instruction kind through its adapter, plus single and
/// batched rotations in both directions. Kernels never subtract, so this
/// is where the `Sub*` kinds get covered.
fn drive_adapters<H: Hisa>(h: &mut H) -> Vec<u64> {
    const S: f64 = (1u64 << 30) as f64;
    let p = h.try_encode(&[0.5, -1.0, 2.0, 0.25], S).expect("fits");
    let q = h.try_encode(&[1.5, 0.75, -0.5, 1.0], S).expect("fits");
    let (a, b) = (h.encrypt(&p), h.encrypt(&q));
    let prod = h.try_mul(&a, &b).unwrap();
    let d = h.max_rescale(&prod, S * S);
    let mut out = vec![
        h.try_add(&a, &b).unwrap(),
        h.try_add_plain(&a, &q).unwrap(),
        h.try_add_scalar(&a, 1.5).unwrap(),
        h.try_sub(&a, &b).unwrap(),
        h.try_sub_plain(&a, &q).unwrap(),
        h.try_sub_scalar(&a, 0.5).unwrap(),
        h.try_mul_plain(&a, &q).unwrap(),
        h.try_mul_scalar(&a, 2.0, S).unwrap(),
        h.try_rescale(&prod, d).unwrap(),
        h.try_rot_left(&a, 1).unwrap(),
        h.try_rot_right(&a, 2).unwrap(),
        prod,
    ];
    out.extend(h.try_rot_left_many(&a, &[1, 2, 4]).unwrap());
    out.extend(h.try_rot_left_many(&a, &[3, 0]).unwrap());
    out.extend(h.try_rot_right_many(&a, &[1, 5]).unwrap());
    out.extend(h.try_rot_right_many(&a, &[]).unwrap());
    out.iter()
        .flat_map(|c| {
            let pt = h.decrypt(c);
            h.decode(&pt)
        })
        .map(f64::to_bits)
        .collect()
}

/// Both circuits through `try_infer`, then the adapter drive.
fn everything<H: Hisa>(h: &mut H) -> Vec<u64> {
    let mut out = infer_bits(h, &small_cnn());
    out.extend(infer_bits(h, &every_kernel()));
    out.extend(drive_adapters(h));
    out
}

/// Runs `run` on a fresh counting double; returns its result and the
/// calls the double received.
fn observe<R>(run: impl FnOnce(Counting) -> R) -> (R, Vec<Call>) {
    observe_on(sim(), run)
}

fn observe_on<R>(inner: SimCkks, run: impl FnOnce(Counting) -> R) -> (R, Vec<Call>) {
    let log = Log::default();
    let out = run(Counting { inner, log: Arc::clone(&log) });
    let calls = log.lock().unwrap().clone();
    (out, calls)
}

/// Every fault class except rotations, enabled at rate 0: the counters
/// advance but nothing fires.
fn inert_faults() -> FaultPlan {
    FaultPlan { drop_rotation_keys: None, ..FaultPlan::all(0.0) }
}

fn has_multi_step_batch(calls: &[Call]) -> bool {
    calls.iter().any(|c| matches!(c, Call::Rotate(_, steps) if steps.len() > 1))
}

/// The instruction kinds among the calls.
fn kinds(calls: &[Call]) -> BTreeSet<&'static str> {
    calls.iter().filter_map(|c| if let Call::Exec(k) = c { Some(*k) } else { None }).collect()
}

/// Rotation calls flattened to (direction, step) pairs.
fn rotation_steps(calls: &[Call]) -> Vec<(RotDir, usize)> {
    calls
        .iter()
        .flat_map(|c| match c {
            Call::Rotate(dir, steps) => steps.iter().map(|&s| (*dir, s)).collect(),
            _ => Vec::new(),
        })
        .collect()
}

#[test]
fn inert_wrappers_deliver_rotation_batches_unchanged() {
    let (out, bare) = observe(|mut h| everything(&mut h));
    assert!(has_multi_step_batch(&bare), "circuits must batch rotations");
    let (_, circuit) = observe(|mut h| infer_bits(&mut h, &every_kernel()));
    let want = ["add", "add_plain", "add_scalar", "mul", "mul_plain", "mul_scalar", "rescale"];
    assert_eq!(kinds(&circuit), want.into_iter().collect(), "every kernel-issued kind");
    assert_eq!(kinds(&bare).len(), 10, "every instruction kind: {:?}", kinds(&bare));

    let stacks = [
        ("tally", observe(|mut h| everything(&mut RunTally::new(&mut h, None)))),
        ("fault(inert)", observe(|h| everything(&mut FaultInjector::new(h, inert_faults(), 3)))),
        (
            "chaos(None)",
            observe(|h| everything(&mut FaultInjector::new(h, ChaosPlan::disabled(0).faults, 0))),
        ),
        (
            "chaos(None) over fault(inert)",
            observe(|h| {
                let inner = FaultInjector::new(h, inert_faults(), 3);
                everything(&mut FaultInjector::new(inner, ChaosPlan::disabled(0).faults, 0))
            }),
        ),
    ];
    for (name, (o, calls)) in &stacks {
        assert_eq!(calls, &bare, "{name}: calls must reach the backend unchanged");
        assert_eq!(o, &out, "{name}: output must be bit-equal");
    }

    // Rotation faults armed (rate 0): every step rolls, so each batch is
    // split — into exactly the same steps, with the same result.
    let dropping = FaultPlan::none(0.0).with_dropped_rotation_keys();
    let (o, split) = observe(|h| everything(&mut FaultInjector::new(h, dropping, 3)));
    assert!(split.iter().all(|c| !matches!(c, Call::Rotate(_, s) if s.len() != 1)), "{split:?}");
    assert_eq!(rotation_steps(&split), rotation_steps(&bare));
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
    let pt = plain.try_encode(&[1.0, 2.0, 3.0], (1u64 << 30) as f64).unwrap();
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
    let all = ChaosPlan::all(seed, 0.3);
    ChaosPlan {
        faults: FaultPlan { slow_pause: Duration::ZERO, hang_pause: Duration::ZERO, ..all.faults },
        ..all
    }
}

#[test]
fn active_chaos_splits_batches_on_the_single_rotation_schedule() {
    let mut outcomes = BTreeSet::new();
    for id in 0..16u64 {
        let twin = || {
            let mut c = FaultInjector::new(sim(), quick_chaos(42).faults, 42);
            c.begin_request(id);
            c
        };
        outcomes.insert(assert_same_schedule(twin(), twin(), |c| c.injected().to_vec()));

        // Chaos over a fallible backend: an inner failure before chaos's
        // first fault must stop the rolls at the same step.
        let stacked = || {
            let faults = FaultPlan::none(0.3).with_dropped_rotation_keys();
            let mut c =
                FaultInjector::new(FaultInjector::new(sim(), faults, id), quick_chaos(7).faults, 7);
            c.begin_request(id);
            c
        };
        let both = |c: &FaultInjector<FaultInjector<SimCkks>>| {
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
    let factory = move |_: usize, compiled: &chet::compiler::CompiledCircuit| Counting {
        inner: serve_sim(compiled),
        log: Arc::clone(&factory_log),
    };
    assert!(config.chaos.is_none());
    let svc = InferenceService::start_with_compiler(
        compiler(),
        small_cnn(),
        ScaleConfig::REFERENCE,
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

fn serve_sim(compiled: &chet::compiler::CompiledCircuit) -> SimCkks {
    SimCkks::new(&compiled.params, &compiled.rotation_keys, 42).without_noise()
}

fn compiler() -> Compiler {
    Compiler::new(SchemeKind::RnsCkks).with_output_precision(2f64.powi(20))
}

#[test]
fn served_requests_reach_the_backend_as_rotation_batches() {
    // A solo request: a cohort of one.
    let solo = ServeConfig { workers: 1, max_batch: 1, ..ServeConfig::default() };
    let (stats, calls) = serve(solo, 1);
    assert_eq!((stats.completed_ok, stats.batches_formed), (1, 0));
    assert!(has_multi_step_batch(&calls), "solo path split the batches: {calls:?}");
    // The worker stack (chaos(None) under the executor's pipeline) hands
    // the backend exactly the direct run's stream.
    let (compiled, _) = compiler().compile_checked(&small_cnn(), &ScaleConfig::REFERENCE).unwrap();
    let (_, direct) = observe_on(serve_sim(&compiled), |mut h| {
        try_infer(&mut h, &small_cnn(), &compiled.plan, &image(100)).unwrap()
    });
    assert_eq!(calls, direct, "solo served stream must equal the direct run's");

    // A cohort of four: all four members fit one batch, and the linger
    // holds the worker until they have all arrived.
    let compiled = compiler().compile(&small_cnn(), &ScaleConfig::REFERENCE).unwrap();
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
    // Batch amortisation: the whole cohort costs the backend exactly one
    // solo request's call stream.
    assert_eq!(calls, direct, "cohort stream must equal one direct solo run's");
}
