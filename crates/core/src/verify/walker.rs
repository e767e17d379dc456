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

use super::domain::{
    AbstractDomain, AbstractOp, LevelDomain, RotationDomain, ScaleDomain, SlotDomain,
};
use super::{DiagSink, LintCode};
use crate::compiler::CompiledCircuit;
use chet_hisa::{Hisa, HisaError, Instr, RotDir};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// Abstract ciphertext: the product-domain fact.
#[derive(Debug, Clone)]
pub struct VCt<F> {
    /// The domain fact for this value.
    pub fact: F,
}

/// Abstract plaintext: encoding scale + encoded length.
#[derive(Debug, Clone, Copy)]
pub struct VPt {
    /// Fixed-point scale the plaintext was encoded at.
    pub scale: f64,
    /// Number of values encoded.
    pub len: usize,
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
        VerifyInterp { slots, domain, sink }
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
        VerifyInterp { slots, domain, sink }
    }

    /// The scale the domain tracks for a ciphertext (`1.0` when no domain
    /// in the stack models scales).
    pub fn fact_scale(&self, c: &VCt<D::Fact>) -> f64 {
        self.domain.scale_of(&c.fact).unwrap_or(1.0)
    }

    fn step(&mut self, op: AbstractOp, a: &VCt<D::Fact>, b: Option<&VCt<D::Fact>>) -> VCt<D::Fact> {
        // Disjoint field borrows: the domain mutates while emitting into
        // the shared sink (which the executor observer stamps with spans).
        let sink = &self.sink;
        let mut emit = |code: LintCode, msg: String| {
            sink.lock().unwrap_or_else(|e| e.into_inner()).emit(code, msg)
        };
        VCt { fact: self.domain.transfer(&op, &a.fact, b.map(|x| &x.fact), &mut emit) }
    }

    fn rotate(&mut self, c: &VCt<D::Fact>, step: usize) -> VCt<D::Fact> {
        if step == 0 {
            return c.clone();
        }
        self.step(AbstractOp::Rotate { step }, c, None)
    }
}

impl<D: AbstractDomain> Hisa for VerifyInterp<D> {
    type Ct = VCt<D::Fact>;
    type Pt = VPt;

    fn slots(&self) -> usize {
        self.slots
    }

    fn try_encode(&mut self, values: &[f64], scale: f64) -> Result<VPt, HisaError> {
        if values.len() > self.slots {
            self.sink.lock().unwrap_or_else(|e| e.into_inner()).emit(
                LintCode::SlotOverflow,
                format!("encoding {} values into {} slots", values.len(), self.slots),
            );
        }
        Ok(VPt { scale, len: values.len().min(self.slots) })
    }

    fn decode(&mut self, _p: &VPt) -> Vec<f64> {
        vec![0.0; self.slots]
    }

    fn encrypt(&mut self, p: &VPt) -> Self::Ct {
        VCt { fact: self.domain.fresh(p.scale, p.len) }
    }

    fn decrypt(&mut self, c: &Self::Ct) -> VPt {
        VPt { scale: self.fact_scale(c), len: self.slots }
    }

    /// Infallible: violations are diagnostics, not errors.
    fn try_exec(&mut self, instr: Instr<'_, Self::Ct, VPt>) -> Result<Self::Ct, HisaError> {
        let a = instr.lhs();
        Ok(match instr {
            Instr::Add(_, b) | Instr::Sub(_, b) => self.step(AbstractOp::Add, a, Some(b)),
            Instr::AddPlain(_, p) | Instr::SubPlain(_, p) => {
                self.step(AbstractOp::AddPlain { scale: p.scale }, a, None)
            }
            Instr::AddScalar(..) | Instr::SubScalar(..) => {
                self.step(AbstractOp::AddScalar, a, None)
            }
            Instr::Mul(_, b) => self.step(AbstractOp::Mul, a, Some(b)),
            Instr::MulPlain(_, p) => self.step(AbstractOp::MulPlain { scale: p.scale }, a, None),
            Instr::MulScalar(_, _, scale) => self.step(AbstractOp::MulScalar { scale }, a, None),
            Instr::Rescale(_, divisor) if divisor <= 1.0 => a.clone(),
            Instr::Rescale(_, divisor) => self.step(AbstractOp::Rescale { divisor }, a, None),
        })
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

#[cfg(test)]
mod tests {
    use super::*;
    use chet_hisa::cost::HisaOp;

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
