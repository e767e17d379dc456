//! The fixpoint-free forward walker: a [`Hisa`] interpretation whose
//! ciphertexts carry abstract-domain facts.
//!
//! This is the paper's §5.1 trick turned into a verifier: the circuit
//! executes through the *standard* runtime executor and kernels, but every
//! HISA instruction becomes a domain transfer instead of ring arithmetic.
//! The interpretation is infallible — contract violations surface as
//! diagnostics in the shared [`DiagSink`], stamped with the executing
//! node's span by the executor observer — so one walk covers the whole
//! circuit no matter how broken the artifact is.
//!
//! `walk` is the one entry point: the verifier, parameter selection (over the
//! open search model) and IR extraction all call it. Extraction attaches an
//! IR recorder ([`crate::ir::extract_ir`]); every other walk records
//! nothing and pays nothing for it, not even the plaintext values the
//! kernels would build ([`Hisa::try_encode_with`] skips the fill).
//!
//! The walker forks like every backend (DESIGN.md §12): each kernel
//! fan-out job walks on a child with a forked domain, its own findings log
//! and, when recording, its own recorder, on its own thread. Children join
//! in job order, and the join replays what the child saw into the parent —
//! the domain's accumulators, the findings (a first-use finding survives
//! only if its key is new to the parent's sink), the recorded nodes and
//! encodes — so a walk reports and records exactly what a sequential walk
//! in program order would, at every thread count.

use super::domain::{
    AbstractDomain, AbstractOp, FirstUse, LevelDomain, RotationDomain, ScaleDomain, SlotDomain,
};
use super::{DiagSink, LintCode, OpSpan};
use crate::compiler::CompiledCircuit;
use crate::ir::{IrOp, Recorder};
use chet_hisa::{Hisa, HisaError, Instr, RotDir};
use chet_runtime::ciphertensor::CipherTensor;
use chet_runtime::exec::{
    try_encrypt_input, try_run_encrypted_with, ExecControl, ExecError, ExecObserver, ExecPlan,
};
use chet_runtime::layout::Layout;
use chet_tensor::circuit::Circuit;
use chet_tensor::Tensor;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard};

/// Abstract ciphertext: the product-domain fact.
#[derive(Debug, Clone)]
pub struct VCt<F> {
    /// The domain fact for this value.
    pub fact: F,
    /// SSA id of the IR node that defined this value (`0` when the walk
    /// records nothing).
    pub(crate) id: usize,
}

/// Abstract plaintext: encoding scale + encoded length.
#[derive(Debug, Clone, Copy)]
pub struct VPt {
    /// Fixed-point scale the plaintext was encoded at.
    pub scale: f64,
    /// Number of values encoded.
    pub len: usize,
    /// Plaintext pool id in the recorded IR (`0` when the walk records
    /// nothing).
    pub(crate) pid: usize,
}

/// The verifier's domain stack: scales × levels × slots × rotations.
pub type StandardDomain = ((ScaleDomain, LevelDomain), (SlotDomain, RotationDomain));

/// One finding a fan-out child logged: code, first-use key, message.
type Finding = (LintCode, Option<FirstUse>, String);

/// Where a walker's findings go.
enum Findings {
    /// The walk's sink, shared with the executor observer that stamps each
    /// circuit node's span on it.
    Shared(Arc<Mutex<DiagSink>>),
    /// A fan-out child's log: its job's findings in program order,
    /// replayed into the parent at the join. Spans change only between
    /// circuit nodes, never inside a kernel, so the sink still carries the
    /// fork's span then; the child never touches the parent's sink.
    Forked(Vec<Finding>),
}

fn lock(sink: &Mutex<DiagSink>) -> MutexGuard<'_, DiagSink> {
    sink.lock().unwrap_or_else(|e| e.into_inner())
}

impl Findings {
    /// Runs `f` with the sink's current span; `None` in a fork, whose
    /// recorder holds the span of everything it records.
    fn with_span<T>(&self, f: impl FnOnce(Option<&OpSpan>) -> T) -> T {
        match self {
            Findings::Shared(sink) => f(lock(sink).current.as_ref()),
            Findings::Forked(_) => f(None),
        }
    }

    fn emit(&mut self, code: LintCode, first: Option<FirstUse>, message: String) {
        match self {
            Findings::Shared(sink) => lock(sink).emit_first(code, first, message),
            // Under one span a repeated ordinary finding would collapse
            // into the first in any sink; first-use findings are all kept,
            // for the parent's sink to judge.
            Findings::Forked(log) => {
                if first.is_some() || !log.iter().any(|(c, f, _)| *c == code && f.is_none()) {
                    log.push((code, first, message));
                }
            }
        }
    }
}

/// The verifying interpretation of the HISA over a pluggable domain.
pub struct VerifyInterp<D: AbstractDomain> {
    slots: usize,
    /// The domain under interpretation (public so callers can read
    /// accumulated facts after the walk).
    pub domain: D,
    findings: Findings,
    /// The IR recorder; only `extract_ir` attaches one.
    recorder: Option<Recorder>,
}

impl VerifyInterp<StandardDomain> {
    /// The standard verifier stack for a compiled artifact.
    pub fn new(compiled: &CompiledCircuit, sink: Arc<Mutex<DiagSink>>) -> Self {
        let slots = compiled.params.slots();
        let domain = (
            (
                ScaleDomain::new(compiled.plan.scales.input),
                LevelDomain::new(&compiled.params.modulus),
            ),
            (
                SlotDomain::new(slots),
                RotationDomain::new(slots, compiled.rotation_keys.steps(slots)),
            ),
        );
        VerifyInterp::with_domain(slots, domain, sink)
    }

    /// The standard stack with an IR recorder attached.
    pub(crate) fn recording(
        compiled: &CompiledCircuit,
        sink: Arc<Mutex<DiagSink>>,
        recorder: Recorder,
    ) -> Self {
        VerifyInterp { recorder: Some(recorder), ..VerifyInterp::new(compiled, sink) }
    }

    /// Rotation steps the walked trace requested (feeds the `CHET-W002`
    /// unused-key audit).
    pub fn used_rotations(&self) -> BTreeSet<usize> {
        self.domain.1 .1.used.clone()
    }
}

impl<D: AbstractDomain> VerifyInterp<D> {
    /// A custom-domain walker (for tests or additional lint stacks).
    pub fn with_domain(slots: usize, domain: D, sink: Arc<Mutex<DiagSink>>) -> Self {
        VerifyInterp { slots, domain, findings: Findings::Shared(sink), recorder: None }
    }

    /// The scale the domain tracks for a ciphertext (`1.0` when no domain
    /// in the stack models scales).
    pub fn fact_scale(&self, c: &VCt<D::Fact>) -> f64 {
        self.domain.scale_of(&c.fact).unwrap_or(1.0)
    }

    /// Detaches the recorder after the walk.
    pub(crate) fn into_recorder(self) -> Option<Recorder> {
        self.recorder
    }

    /// With a recorder attached, appends the node `ir` builds for a value
    /// with fact `fact` whose operand has fact `at`, and returns its id.
    fn record(
        &mut self,
        fact: &D::Fact,
        at: &D::Fact,
        ir: impl FnOnce(&Recorder) -> IrOp,
    ) -> usize {
        let Some(r) = &self.recorder else { return 0 };
        let op = ir(r);
        let at = self.domain.level_of(at).unwrap_or_default();
        let scale = self.domain.scale_of(fact).unwrap_or(1.0);
        let Some(r) = &mut self.recorder else { return 0 };
        self.findings.with_span(|span| r.node(op, span, scale, at))
    }

    /// One transfer (plus, when recording, the IR node `ir` builds).
    fn step(
        &mut self,
        op: AbstractOp,
        a: &VCt<D::Fact>,
        b: Option<&VCt<D::Fact>>,
        ir: impl FnOnce() -> IrOp,
    ) -> VCt<D::Fact> {
        // Disjoint field borrows: the domain mutates while emitting into
        // the findings.
        let findings = &mut self.findings;
        let mut emit = |code, first, msg| findings.emit(code, first, msg);
        let fact = self.domain.transfer(&op, &a.fact, b.map(|x| &x.fact), &mut emit);
        // A node carries its operand's level: a rescale's is the level
        // before the pop; every other op keeps the level (binary ones meet
        // their operands), so the result's is the operand's.
        let at = if let AbstractOp::Rescale { .. } = op { &a.fact } else { &fact };
        let id = self.record(&fact, at, |_| ir());
        VCt { fact, id }
    }

    /// `CHET-E004` when an encode holds more values than slots.
    fn check_slots(&mut self, len: usize) {
        if len > self.slots {
            let message = format!("encoding {len} values into {} slots", self.slots);
            self.findings.emit(LintCode::SlotOverflow, None, message);
        }
    }

    /// With a recorder attached, hands one encode's values to it and
    /// returns their plaintext id.
    fn record_encode(&mut self, values: Cow<'_, [f64]>, scale: f64) -> usize {
        let Some(r) = &mut self.recorder else { return 0 };
        self.findings.with_span(|span| r.encode(values, scale, span))
    }

    fn rotate(&mut self, c: &VCt<D::Fact>, step: usize) -> VCt<D::Fact> {
        if step == 0 {
            return c.clone();
        }
        self.step(AbstractOp::Rotate { step }, c, None, || IrOp::RotLeft { a: c.id, step })
    }
}

impl<D: AbstractDomain> Hisa for VerifyInterp<D> {
    type Ct = VCt<D::Fact>;
    type Pt = VPt;

    fn slots(&self) -> usize {
        self.slots
    }

    fn try_encode(&mut self, values: &[f64], scale: f64) -> Result<VPt, HisaError> {
        self.check_slots(values.len());
        let pid = self.record_encode(Cow::Borrowed(values), scale);
        Ok(VPt { scale, len: values.len().min(self.slots), pid })
    }

    /// Without a recorder a walk reads only the length and scale, so the
    /// values are never filled; the recorder interns them, so it fills. A
    /// recorder that keeps no values only hashes them, so each thread
    /// fills one reused buffer: slot-wide buffers allocated and freed per
    /// encode on the fan-out's worker threads would leave those threads'
    /// allocator arenas holding memory the rest of the process cannot use.
    fn try_encode_with(
        &mut self,
        len: usize,
        scale: f64,
        fill: &mut dyn FnMut(&mut [f64]),
    ) -> Result<VPt, HisaError> {
        thread_local! {
            static FILLED: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
        }
        self.check_slots(len);
        let pid = match self.recorder.as_ref().map(Recorder::keeps_values) {
            None => 0,
            Some(true) => {
                let mut values = vec![0.0; len];
                fill(&mut values);
                self.record_encode(Cow::Owned(values), scale)
            }
            Some(false) => FILLED.with_borrow_mut(|values| {
                values.clear();
                values.resize(len, 0.0);
                fill(values);
                self.record_encode(Cow::Borrowed(values), scale)
            }),
        };
        Ok(VPt { scale, len: len.min(self.slots), pid })
    }

    fn decode(&mut self, _p: &VPt) -> Vec<f64> {
        vec![0.0; self.slots]
    }

    fn encrypt(&mut self, p: &VPt) -> Self::Ct {
        let fact = self.domain.fresh(p.scale, p.len);
        let id = self.record(&fact, &fact, Recorder::next_input);
        VCt { fact, id }
    }

    fn decrypt(&mut self, c: &Self::Ct) -> VPt {
        VPt { scale: self.fact_scale(c), len: self.slots, pid: 0 }
    }

    /// Infallible: violations are diagnostics, not errors.
    fn try_exec(&mut self, instr: Instr<'_, Self::Ct, VPt>) -> Result<Self::Ct, HisaError> {
        let a = instr.lhs();
        let (op, b) = match instr {
            Instr::Add(_, b) | Instr::Sub(_, b) => (AbstractOp::Add, Some(b)),
            Instr::AddPlain(_, p) | Instr::SubPlain(_, p) => {
                (AbstractOp::AddPlain { scale: p.scale }, None)
            }
            Instr::AddScalar(..) | Instr::SubScalar(..) => (AbstractOp::AddScalar, None),
            Instr::Mul(_, b) => (AbstractOp::Mul, Some(b)),
            Instr::MulPlain(_, p) => (AbstractOp::MulPlain { scale: p.scale }, None),
            Instr::MulScalar(_, _, scale) => (AbstractOp::MulScalar { scale }, None),
            Instr::Rescale(_, divisor) if divisor <= 1.0 => return Ok(a.clone()),
            Instr::Rescale(_, divisor) => (AbstractOp::Rescale { divisor }, None),
        };
        Ok(self.step(op, a, b, || IrOp::of_instr(&instr)))
    }

    fn try_rotate(
        &mut self,
        c: &Self::Ct,
        dir: RotDir,
        steps: &[usize],
    ) -> Result<Vec<Self::Ct>, HisaError> {
        Ok(steps.iter().map(|&x| self.rotate(c, dir.normalize(x, self.slots))).collect())
    }

    fn max_rescale(&mut self, c: &Self::Ct, ub: f64) -> f64 {
        if ub < 2.0 {
            return 1.0;
        }
        self.domain
            .max_rescale(&c.fact, ub)
            .unwrap_or_else(|| 2f64.powi(ub.log2().floor() as i32))
    }

    fn scale_of(&self, c: &Self::Ct) -> f64 {
        self.fact_scale(c)
    }

    /// A child for one fan-out job: a forked domain, an empty findings log,
    /// and a child recorder when recording. Nothing per job is copied but
    /// a recording child's span.
    fn fork(&mut self) -> Option<Self> {
        let recorder = match &mut self.recorder {
            Some(r) => Some(self.findings.with_span(|span| r.fork(span))),
            None => None,
        };
        Some(VerifyInterp {
            slots: self.slots,
            domain: self.domain.fork(),
            findings: Findings::Forked(Vec::new()),
            recorder,
        })
    }

    /// Folds a child back in job order: its domain accumulators, then its
    /// findings in the order it logged them, then its recorded stream.
    fn join(&mut self, child: Self) {
        self.domain.join(child.domain);
        if let Findings::Forked(log) = child.findings {
            for (code, first, message) in log {
                self.findings.emit(code, first, message);
            }
        }
        if let (Some(r), Some(c)) = (&mut self.recorder, child.recorder) {
            r.join(c);
        }
    }
}

/// Stamps the executing circuit node's span on the walk's [`DiagSink`]:
/// findings are attributed to it, and the IR recorder reads it for every
/// node and encode.
struct SpanObserver(Arc<Mutex<DiagSink>>);

impl ExecObserver for SpanObserver {
    fn on_op(&mut self, op_index: usize, op: &str) {
        lock(&self.0).set_span(op_index, op);
    }
}

/// One walked inference: the layout the input was encrypted under and the
/// abstract output tensor.
pub(crate) struct Walked<F> {
    pub(crate) input_layout: Layout,
    pub(crate) output: CipherTensor<VCt<F>>,
}

/// Walks one inference of `circuit` under `plan`: encrypts a zero image of
/// the input shape (the walk is input-independent), then runs the standard
/// executor with the span observer attached. The verifier, parameter
/// selection and IR extraction all walk through here.
pub(crate) fn walk<D: AbstractDomain>(
    interp: &mut VerifyInterp<D>,
    circuit: &Circuit,
    plan: &ExecPlan,
) -> Result<Walked<D::Fact>, ExecError> {
    let input_shape = circuit.input_shape().ok_or_else(|| ExecError::UnsupportedCircuit {
        reason: "circuit has no encrypted input".into(),
    })?;
    let enc = try_encrypt_input(interp, circuit, plan, &Tensor::zeros(input_shape.to_vec()))?;
    let input_layout = enc.layout.clone();
    if let Some(r) = &mut interp.recorder {
        r.begin_body();
    }
    let mut observer = match &interp.findings {
        Findings::Shared(sink) => Some(SpanObserver(Arc::clone(sink))),
        Findings::Forked(_) => None,
    };
    let observer = observer.as_mut().map(|o| o as &mut dyn ExecObserver);
    let mut ctrl = ExecControl { cancel: None, observer };
    let (output, _report) = try_run_encrypted_with(interp, circuit, plan, enc, &mut ctrl)?;
    Ok(Walked { input_layout, output })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chet_hisa::cost::HisaOp;
    use chet_runtime::kernels::{encode_tiled, KernelError};
    use chet_runtime::par::try_fan_out;
    use chet_runtime::RunTally;

    fn walker(sink: Arc<Mutex<DiagSink>>) -> VerifyInterp<(LevelDomain, RotationDomain)> {
        let domain = (LevelDomain::open(None), RotationDomain::collector(64));
        VerifyInterp::with_domain(64, domain, sink)
    }

    fn unread(_: &mut [f64]) {
        panic!("a walk without a recorder filled a plaintext");
    }

    #[test]
    fn a_walk_without_a_recorder_never_fills() {
        let mut h = walker(Arc::default());
        let pt = h.try_encode_with(48, 4.0, &mut unread).unwrap();
        assert_eq!((pt.scale, pt.len, pt.pid), (4.0, 48, 0));
        // The kernels' tiled encode (member width 16 of 64 slots) too.
        let pt = encode_tiled(&mut h, 16, 8.0, unread).unwrap();
        assert_eq!((pt.scale, pt.len), (8.0, 64));
    }

    #[test]
    fn run_tally_forwards_the_hook_to_the_walker() {
        let mut h = walker(Arc::default());
        let mut tally = RunTally::new(&mut h, None);
        let pt = tally.try_encode_with(48, 4.0, &mut unread).unwrap();
        assert_eq!((pt.scale, pt.len), (4.0, 48));
        let pt = encode_tiled(&mut tally, 16, 8.0, unread).unwrap();
        assert_eq!(pt.len, 64);
    }

    #[test]
    fn an_overflowing_encode_reports_as_the_slice_path_does() {
        let findings = |hook: bool| {
            let sink = Arc::new(Mutex::new(DiagSink::default()));
            let mut h = walker(Arc::clone(&sink));
            let pt = if hook {
                h.try_encode_with(65, 4.0, &mut unread)
            } else {
                h.try_encode(&[0.0; 65], 4.0)
            };
            assert_eq!(pt.unwrap().len, 64);
            let diags = sink.lock().unwrap().diagnostics().to_vec();
            diags.into_iter().map(|d| (d.code, d.message)).collect::<Vec<_>>()
        };
        let hook = findings(true);
        assert_eq!(hook.len(), 1);
        assert_eq!(hook[0].0, LintCode::SlotOverflow);
        assert_eq!(hook, findings(false));
    }

    /// The walker with forking taken away: every fan-out runs its jobs in
    /// order on the one walker, the sequential walk a fork must reproduce.
    struct Sequential<D: AbstractDomain>(VerifyInterp<D>);

    impl<D: AbstractDomain> Hisa for Sequential<D> {
        type Ct = VCt<D::Fact>;
        type Pt = VPt;

        fn slots(&self) -> usize {
            self.0.slots()
        }

        fn try_encode(&mut self, values: &[f64], scale: f64) -> Result<VPt, HisaError> {
            self.0.try_encode(values, scale)
        }

        fn try_encode_with(
            &mut self,
            len: usize,
            scale: f64,
            fill: &mut dyn FnMut(&mut [f64]),
        ) -> Result<VPt, HisaError> {
            self.0.try_encode_with(len, scale, fill)
        }

        fn decode(&mut self, p: &VPt) -> Vec<f64> {
            self.0.decode(p)
        }

        fn encrypt(&mut self, p: &VPt) -> Self::Ct {
            self.0.encrypt(p)
        }

        fn decrypt(&mut self, c: &Self::Ct) -> VPt {
            self.0.decrypt(c)
        }

        fn try_exec(&mut self, instr: Instr<'_, Self::Ct, VPt>) -> Result<Self::Ct, HisaError> {
            self.0.try_exec(instr)
        }

        fn try_rotate(
            &mut self,
            c: &Self::Ct,
            dir: RotDir,
            steps: &[usize],
        ) -> Result<Vec<Self::Ct>, HisaError> {
            self.0.try_rotate(c, dir, steps)
        }

        fn max_rescale(&mut self, c: &Self::Ct, ub: f64) -> f64 {
            self.0.max_rescale(c, ub)
        }

        fn scale_of(&self, c: &Self::Ct) -> f64 {
            self.0.scale_of(c)
        }
    }

    /// A hand-written walk over `x` in which values cross fan-outs every
    /// way a kernel's can: each job encodes a plaintext (jobs 0 and 2 the
    /// same content as the parent's last one), fans out again and consumes
    /// the nested results, and returns a value it defined plus one a
    /// nested job defined; the parent consumes the job results after the
    /// join and returns one nested value untouched.
    fn crossing_walk<H: Hisa>(h: &mut H, x: &H::Ct) -> Result<Vec<H::Ct>, KernelError> {
        let jobs = try_fan_out(h, 3, |h, i| {
            let pt = h.try_encode(&[(i % 2) as f64 + 1.0; 4], 1024.0)?;
            let y = h.try_mul_plain(x, &pt)?;
            let rotated = try_fan_out(h, 2, |h, j| Ok(h.try_rot_left(&y, i + j + 1)?))?;
            Ok((h.try_add(&rotated[0], &y)?, rotated[1].clone()))
        })?;
        let mut acc = jobs[0].0.clone();
        for (sum, rotated) in &jobs[1..] {
            acc = h.try_add(&acc, sum)?;
            acc = h.try_sub(&acc, rotated)?;
        }
        let pt = h.try_encode(&[1.0; 4], 1024.0)?;
        Ok(vec![h.try_mul_plain(&acc, &pt)?, jobs[2].1.clone()])
    }

    /// Records `crossing_walk` on a recording walker, run as `wrap` makes
    /// it, and returns the graph.
    fn record_crossing<H: Hisa<Ct = VCt<<StandardDomain as AbstractDomain>::Fact>>>(
        compiled: &CompiledCircuit,
        mode: crate::ir::ExtractMode,
        wrap: impl FnOnce(VerifyInterp<StandardDomain>) -> H,
        unwrap: impl FnOnce(H) -> VerifyInterp<StandardDomain>,
    ) -> crate::ir::IrGraph {
        let sink = Arc::new(Mutex::new(DiagSink::default()));
        let mut walker =
            VerifyInterp::recording(compiled, Arc::clone(&sink), Recorder::new(compiled, mode));
        let input = walker.encode(&[0.5; 4], 1024.0);
        let x = walker.encrypt(&input);
        walker.recorder.as_mut().unwrap().begin_body();
        sink.lock().unwrap().set_span(3, "conv2d");
        let mut h = wrap(walker);
        let outputs = crossing_walk(&mut h, &x).unwrap();
        let recorder = unwrap(h).into_recorder().unwrap();
        let layout = Layout::dense_vector(4, compiled.params.slots());
        let ids = outputs.iter().map(|c| c.id).collect();
        recorder.finish(compiled, layout.clone(), layout, ids, vec![4])
    }

    #[test]
    fn a_forked_recording_matches_the_sequential_one() {
        use crate::compiler::Compiler;
        use crate::ir::{ExtractMode, IrOp};
        use chet_hisa::params::SchemeKind;
        use chet_runtime::kernels::ScaleConfig;
        use chet_tensor::circuit::CircuitBuilder;

        let mut b = CircuitBuilder::new();
        let x = b.input(vec![4, 1, 1]);
        let m = b.matmul(x, Tensor::from_fn(vec![2, 4], |i| i[1] as f64 * 0.25), None);
        let compiled =
            Compiler::new(SchemeKind::RnsCkks).compile(&b.build(m), &ScaleConfig::default()).unwrap();
        let _guard = chet_math::par::test_support::config_lock();
        let threads = chet_math::par::threads();
        chet_math::par::set_threads(4);
        for mode in [ExtractMode::Full, ExtractMode::Metadata] {
            let forked = record_crossing(&compiled, mode, |w| w, |w| w);
            let sequential = record_crossing(&compiled, mode, Sequential, |s| s.0);
            assert_eq!(forked, sequential, "{mode:?}");
            // One input, three jobs of (mulPlain, two rotations, add), then
            // two adds, two subs and a mulPlain; two distinct plaintexts.
            assert_eq!(forked.nodes.len(), 1 + 3 * 4 + 5, "{mode:?}");
            assert_eq!(forked.plains.len(), 2, "{mode:?}");
            let pts: Vec<usize> = forked.encodes.iter().map(|e| e.pt).collect();
            assert_eq!(pts, [0, 1, 0, 0], "{mode:?}");
            // The nested value the parent returned untouched resolves to
            // the last job's second rotation.
            let last = &forked.nodes[forked.outputs[1]];
            assert!(matches!(last.op, IrOp::RotLeft { step: 4, .. }), "{:?}", last.op);
            // Every node and encode after the input carries the span the
            // walk ran at, whether a job or the root recorded it.
            let spans = forked.nodes[1..].iter().map(|n| &n.span);
            let mut spans = spans.chain(forked.encodes.iter().map(|e| &e.span));
            assert!(spans.all(|s| s.as_ref().is_some_and(|s| s.op_index == 3)), "{mode:?}");
        }
        chet_math::par::set_threads(threads);
    }

    #[test]
    fn open_walk_ledgers_every_transfer_and_normalizes_rotations() {
        let domain = (LevelDomain::open(None), RotationDomain::collector(64));
        let mut h = VerifyInterp::with_domain(64, domain, Arc::default());
        let pt = h.encode(&[], 4.0);
        let ct = h.encrypt(&pt);
        h.add(&ct, &ct);
        h.add(&ct, &ct);
        h.mul(&ct, &ct);
        h.rot_left(&ct, 5);
        h.rot_right(&ct, 3);
        h.rot_left(&ct, 64); // full turn: no key, no transfer
        let steps: Vec<usize> = h.domain.1.used.iter().copied().collect();
        assert_eq!(steps, vec![5, 61]);
        let ops: Vec<HisaOp> = h.domain.0.ledger.unwrap().iter().map(|(op, _)| op).collect();
        use HisaOp::{Add, MulCipher, Rotate};
        assert_eq!(ops, [Add, Add, MulCipher, Rotate, Rotate]);
    }
}
