//! One error channel (DESIGN.md §9): a failing HISA call travels straight
//! from the backend to `ExecError`, attributed to the circuit node that
//! issued it, and on a backend that does not fork nothing runs after it.
//!
//! A test double over the noiseless simulator implements only the `Hisa`
//! core, logs every call it receives, does not fork (so kernel fan-out runs
//! in program order on it) and fails its k-th fallible call (`try_encode`,
//! `try_exec`, `try_rotate`) with an injected error. The tests check that:
//!
//! * for every k, the run fails with `ExecError::Hisa` carrying the
//!   injected error and the index of the node that issued the call, and
//!   the backend received exactly the fault-free stream up to that call;
//! * a cancel token tripped inside a kernel fan-out stops the run at that
//!   node with `ExecError::Cancelled` and the token's reason;
//! * a plan whose layout count differs from the circuit's node count is
//!   rejected as a value by `try_infer` and `vet_artifact`, never a panic.

use chet::ckks::sim::SimCkks;
use chet::compiler::Compiler;
use chet::hisa::params::SchemeKind;
use chet::hisa::{EncryptionParams, Hisa, HisaError, Instr, RotDir, RotationKeyPolicy};
use chet::runtime::exec::{
    try_encrypt_input, try_infer, try_run_encrypted_with, ExecControl, ExecError, ExecObserver,
    ExecPlan,
};
use chet::runtime::kernels::ScaleConfig;
use chet::runtime::layout::LayoutKind;
use chet::runtime::{CancelReason, CancelToken};
use chet::serve::{vet_artifact, ServeError};
use chet::tensor::circuit::{Circuit, CircuitBuilder};
use chet::tensor::ops::Padding;
use chet::tensor::Tensor;
use std::sync::{Arc, Mutex};

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

impl Call {
    fn fallible(&self) -> bool {
        matches!(self, Call::Encode(_) | Call::Exec(_) | Call::Rotate(..))
    }
}

type Log = Arc<Mutex<Vec<Call>>>;

/// The core only, over a simulator, logging every call. On its k-th
/// fallible call it either fails with `error` or trips `trip`.
struct Failing {
    inner: SimCkks,
    log: Log,
    fallible: usize,
    k: usize,
    error: Option<HisaError>,
    trip: Option<CancelToken>,
}

impl Failing {
    fn new(log: &Log, k: usize) -> Self {
        let params = EncryptionParams::rns_ckks(4096, 40, 8);
        let inner = SimCkks::new(&params, &RotationKeyPolicy::PowersOfTwo, 5).without_noise();
        Failing { inner, log: Arc::clone(log), fallible: 0, k, error: None, trip: None }
    }

    /// Logs `call`; on the k-th fallible call, trips the token and returns
    /// the injected error, if any.
    fn record(&mut self, call: Call) -> Result<(), HisaError> {
        let fallible = call.fallible();
        self.log.lock().unwrap().push(call);
        if fallible {
            self.fallible += 1;
            if self.fallible == self.k {
                if let Some(token) = &self.trip {
                    token.cancel();
                }
                if let Some(e) = self.error.take() {
                    return Err(e);
                }
            }
        }
        Ok(())
    }
}

impl Hisa for Failing {
    type Ct = Ct;
    type Pt = Pt;

    fn slots(&self) -> usize {
        self.inner.slots()
    }
    fn try_encode(&mut self, values: &[f64], scale: f64) -> Result<Pt, HisaError> {
        self.record(Call::Encode(values.len()))?;
        self.inner.try_encode(values, scale)
    }
    fn decode(&mut self, p: &Pt) -> Vec<f64> {
        self.record(Call::Decode).unwrap();
        self.inner.decode(p)
    }
    fn encrypt(&mut self, p: &Pt) -> Ct {
        self.record(Call::Encrypt).unwrap();
        self.inner.encrypt(p)
    }
    fn decrypt(&mut self, c: &Ct) -> Pt {
        self.record(Call::Decrypt).unwrap();
        self.inner.decrypt(c)
    }
    fn try_exec(&mut self, instr: Instr<'_, Ct, Pt>) -> Result<Ct, HisaError> {
        self.record(Call::Exec(instr.name()))?;
        self.inner.try_exec(instr)
    }
    fn try_rotate(&mut self, c: &Ct, dir: RotDir, steps: &[usize]) -> Result<Vec<Ct>, HisaError> {
        self.record(Call::Rotate(dir, steps.to_vec()))?;
        self.inner.try_rotate(c, dir, steps)
    }
    fn max_rescale(&mut self, c: &Ct, ub: f64) -> f64 {
        self.record(Call::MaxRescale).unwrap();
        self.inner.max_rescale(c, ub)
    }
    fn scale_of(&self, c: &Ct) -> f64 {
        self.inner.scale_of(c)
    }
}

/// Records, before each node runs, how many calls the backend has seen.
struct NodeStarts(Log, Vec<usize>);

impl ExecObserver for NodeStarts {
    fn on_op(&mut self, op_index: usize, _op: &str) {
        assert_eq!(op_index, self.1.len());
        self.1.push(self.0.lock().unwrap().len());
    }
}

const SCALES: ScaleConfig = ScaleConfig {
    input: (1u64 << 26) as f64,
    weight_plain: (1u64 << 16) as f64,
    weight_scalar: (1u64 << 16) as f64,
    mask: (1u64 << 16) as f64,
};

/// conv → activation → avg-pool → dense with bias.
fn small_cnn() -> Circuit {
    let mut b = CircuitBuilder::new();
    let x = b.input(vec![1, 6, 6]);
    let w = Tensor::from_fn(vec![2, 1, 3, 3], |i| (i[2] * 3 + i[3]) as f64 * 0.05 - 0.1);
    let c = b.conv2d(x, w, Some(vec![0.1, -0.1]), 1, Padding::Valid);
    let a = b.activation(c, 0.2, 0.9);
    let p = b.avg_pool2d(a, 2, 2);
    let f = b.flatten(p);
    let m = b.matmul(f, Tensor::random(vec![3, 8], 0.4, 32), Some(vec![0.2, -0.3, 0.1]));
    b.build(m)
}

fn image() -> Tensor {
    Tensor::random(vec![1, 6, 6], 1.0, 17)
}

/// Runs the circuit on `h` with a freshly encrypted input (encrypted on
/// the simulator behind the double, so the log holds only the run).
fn run(
    h: &mut Failing,
    circuit: &Circuit,
    plan: &ExecPlan,
    ctrl: &mut ExecControl<'_>,
) -> Result<(), ExecError> {
    let input = try_encrypt_input(&mut h.inner, circuit, plan, &image()).expect("input encrypts");
    try_run_encrypted_with(h, circuit, plan, input, ctrl).map(|_| ())
}

/// The fault-free call stream and the log position at which each node
/// started.
fn fault_free(circuit: &Circuit, plan: &ExecPlan) -> (Vec<Call>, Vec<usize>) {
    let log = Log::default();
    let mut h = Failing::new(&log, 0);
    let mut starts = NodeStarts(Arc::clone(&log), Vec::new());
    let mut ctrl = ExecControl { cancel: None, observer: Some(&mut starts) };
    run(&mut h, circuit, plan, &mut ctrl).expect("fault-free run");
    let calls = log.lock().unwrap().clone();
    (calls, starts.1)
}

/// The node whose kernel issued the call at log position `pos`.
fn node_of(starts: &[usize], pos: usize) -> usize {
    starts.iter().rposition(|&s| s <= pos).expect("a node issued the call")
}

#[test]
fn every_failing_call_stops_the_run_at_its_node() {
    let circuit = small_cnn();
    for kind in [LayoutKind::HW, LayoutKind::CHW] {
        let plan = ExecPlan::uniform(&circuit, kind, SCALES);
        let (calls, starts) = fault_free(&circuit, &plan);
        let fallible: Vec<usize> = (0..calls.len()).filter(|&i| calls[i].fallible()).collect();
        assert!(fallible.len() > 20, "{kind}: the circuit issues a real call stream");
        for (k, &pos) in (1..).zip(&fallible) {
            let injected =
                HisaError::InvalidRescale { divisor: k as f64, reason: "injected".into() };
            let log = Log::default();
            let mut h = Failing::new(&log, k);
            h.error = Some(injected.clone());
            let err = run(&mut h, &circuit, &plan, &mut ExecControl::none())
                .expect_err("the injected failure aborts the run");
            match err {
                ExecError::Hisa { op_index, source, .. } => {
                    assert_eq!(op_index, node_of(&starts, pos), "{kind}, call {k}: attribution");
                    assert_eq!(source, injected, "{kind}, call {k}");
                }
                other => panic!("{kind}, call {k}: expected ExecError::Hisa, got {other:?}"),
            }
            assert_eq!(
                *log.lock().unwrap(),
                calls[..=pos],
                "{kind}, call {k}: the backend sees the fault-free stream through the failing \
                 call, and nothing after it"
            );
        }
    }
}

#[test]
fn token_tripped_mid_fan_out_cancels_at_that_node() {
    let circuit = small_cnn();
    let plan = ExecPlan::uniform(&circuit, LayoutKind::CHW, SCALES);
    let (calls, starts) = fault_free(&circuit, &plan);
    // The conv's first non-rotation call runs inside job 0 of its
    // per-output-channel fan-out (two channels, so job 1 is still to come).
    let conv = 1;
    let pos = (starts[conv]..starts[conv + 1])
        .find(|&i| calls[i].fallible() && !matches!(calls[i], Call::Rotate(..)))
        .expect("the conv issues instructions");
    let k = calls[..=pos].iter().filter(|c| c.fallible()).count();

    let token = CancelToken::new();
    let log = Log::default();
    let mut h = Failing::new(&log, k);
    h.trip = Some(token.clone());
    let err = run(&mut h, &circuit, &plan, &mut ExecControl::cancelled_by(&token))
        .expect_err("the tripped token aborts the run");
    assert!(
        matches!(err, ExecError::Cancelled { op_index: 1, reason: CancelReason::Cancelled, .. }),
        "expected a cancellation at the conv node, got {err:?}"
    );
    let issued = log.lock().unwrap().len();
    assert!(issued < starts[conv + 1], "the conv's remaining jobs must not run");
}

#[test]
fn plan_for_another_circuit_is_rejected_not_panicked() {
    // A 4-node CNN compiled; its artifact is then offered for the same CNN
    // with one more activation (the store of a different network).
    let cnn = |extra_activation: bool| {
        let mut b = CircuitBuilder::new();
        let x = b.input(vec![1, 6, 6]);
        let w = Tensor::from_fn(vec![2, 1, 3, 3], |i| (i[2] * 3 + i[3]) as f64 * 0.05 - 0.1);
        let c = b.conv2d(x, w, Some(vec![0.1, -0.1]), 1, Padding::Valid);
        let a = b.activation(c, 0.2, 0.9);
        let mut out = b.avg_pool2d(a, 2, 2);
        if extra_activation {
            out = b.activation(out, 0.1, 1.0);
        }
        b.build(out)
    };
    let (four, five) = (cnn(false), cnn(true));
    assert_eq!((four.ops().len(), five.ops().len()), (4, 5));
    let artifact = Compiler::new(SchemeKind::RnsCkks)
        .with_output_precision(2f64.powi(20))
        .compile(&four, &ScaleConfig::REFERENCE)
        .expect("the 4-node CNN compiles");

    match vet_artifact(&five, &artifact) {
        Err(ServeError::Lint { first, .. }) => assert!(first.contains("CHET-E005"), "{first}"),
        other => panic!("a mismatched artifact must be denied, got {other:?}"),
    }

    let mut h = SimCkks::new(&artifact.params, &artifact.rotation_keys, 1).without_noise();
    let err =
        try_infer(&mut h, &five, &artifact.plan, &image()).expect_err("layout count mismatch");
    assert!(matches!(err, ExecError::UnsupportedCircuit { .. }), "got {err:?}");

    // No layout at all: rejected before the input is encrypted.
    let empty = ExecPlan { layouts: Vec::new(), ..artifact.plan.clone() };
    let err = try_infer(&mut h, &four, &empty, &image()).expect_err("no input layout");
    assert!(matches!(err, ExecError::UnsupportedCircuit { .. }), "got {err:?}");
}
