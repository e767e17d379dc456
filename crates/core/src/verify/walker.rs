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

use super::domain::{
    AbstractDomain, AbstractOp, LevelDomain, RotationDomain, ScaleDomain, SlotDomain,
};
use super::{DiagSink, LintCode};
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
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

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

/// The verifying interpretation of the HISA over a pluggable domain.
pub struct VerifyInterp<D: AbstractDomain> {
    slots: usize,
    /// The domain under interpretation (public so callers can read
    /// accumulated facts after the walk).
    pub domain: D,
    sink: Arc<Mutex<DiagSink>>,
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
        VerifyInterp { slots, domain, sink, recorder: None }
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
        let span = self.sink.lock().unwrap_or_else(|e| e.into_inner()).current_span();
        self.recorder.as_mut().map_or(0, |r| r.node(op, span, scale, at))
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
        // the shared sink (which the executor observer stamps with spans).
        let sink = &self.sink;
        let mut emit = |code: LintCode, msg: String| {
            sink.lock().unwrap_or_else(|e| e.into_inner()).emit(code, msg)
        };
        let fact = self.domain.transfer(&op, &a.fact, b.map(|x| &x.fact), &mut emit);
        // A node carries its operand's level: a rescale's is the level
        // before the pop; every other op keeps the level (binary ones meet
        // their operands), so the result's is the operand's.
        let at = if let AbstractOp::Rescale { .. } = op { &a.fact } else { &fact };
        let id = self.record(&fact, at, |_| ir());
        VCt { fact, id }
    }

    /// `CHET-E004` when an encode holds more values than slots.
    fn check_slots(&self, len: usize) {
        if len > self.slots {
            self.sink.lock().unwrap_or_else(|e| e.into_inner()).emit(
                LintCode::SlotOverflow,
                format!("encoding {len} values into {} slots", self.slots),
            );
        }
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
        let mut pid = 0;
        if let Some(r) = &mut self.recorder {
            let span = self.sink.lock().unwrap_or_else(|e| e.into_inner()).current_span();
            pid = r.encode(values, scale, span);
        }
        Ok(VPt { scale, len: values.len().min(self.slots), pid })
    }

    /// Without a recorder a walk reads only the length and scale, so the
    /// values are never filled; the recorder interns them, so it fills.
    fn try_encode_with(
        &mut self,
        len: usize,
        scale: f64,
        fill: &mut dyn FnMut(&mut [f64]),
    ) -> Result<VPt, HisaError> {
        if self.recorder.is_some() {
            let mut values = vec![0.0; len];
            fill(&mut values);
            return self.try_encode(&values, scale);
        }
        self.check_slots(len);
        Ok(VPt { scale, len: len.min(self.slots), pid: 0 })
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
}

/// Stamps the executing circuit node's span on the walk's [`DiagSink`]:
/// findings are attributed to it, and the IR recorder reads it for every
/// node and encode.
struct SpanObserver(Arc<Mutex<DiagSink>>);

impl ExecObserver for SpanObserver {
    fn on_op(&mut self, op_index: usize, op: &str) {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).set_span(op_index, op);
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
    let mut observer = SpanObserver(Arc::clone(&interp.sink));
    let mut ctrl = ExecControl { cancel: None, observer: Some(&mut observer) };
    let (output, _report) = try_run_encrypted_with(interp, circuit, plan, enc, &mut ctrl)?;
    Ok(Walked { input_layout, output })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chet_hisa::cost::HisaOp;
    use chet_runtime::kernels::encode_tiled;
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
        let ops: Vec<HisaOp> = h.domain.0.ledger.unwrap().iter().map(|(op, _)| *op).collect();
        use HisaOp::{Add, MulCipher, Rotate};
        assert_eq!(ops, [Add, Add, MulCipher, Rotate, Rotate]);
    }
}
