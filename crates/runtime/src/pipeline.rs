//! The fallible execution pipeline: a [`Hisa`] interpretation that turns
//! backend contract violations into latched [`HisaError`] values instead of
//! panics.
//!
//! [`FalliblePipeline`] wraps any backend and intercepts its fallible core:
//!
//! * [`Hisa::try_exec`] and [`Hisa::try_rotate`] forward to the backend
//!   (rotation batches whole, so hoisted key switching survives) and never
//!   fail. The first backend error is *latched*; from then on every
//!   instruction short-circuits, returning its input unchanged without
//!   touching the backend, so the executor can keep walking the node list
//!   safely and attribute the failure to the exact circuit op at which it
//!   occurred — see `exec::try_run_encrypted`.
//! * [`Hisa::try_encode`] latches an encode failure too. The pipeline's
//!   plaintexts are `Result<H::Pt, HisaError>`, so a failed encode still
//!   yields a value — the error — and no second, fallback encode reaches
//!   the backend; an instruction given such a plaintext fails with it.
//! * [`Hisa::max_rescale`] answers `1.0` once an error is latched;
//!   `fork` / `join` / `cancel_requested` carry the latch, the degradation
//!   tallies and the cancel token across kernel fan-out.
//!
//! Everything else — the panicking and `try_*` adapters the kernels call —
//! reaches the backend only through those entry points.
//!
//! The pipeline also implements the paper-faithful *graceful degradation*
//! bookkeeping: when a rotation step has no dedicated key but can be
//! decomposed into available keys (e.g. power-of-two composition), the
//! rotation still executes, and the pipeline records the cost penalty in
//! [`FalliblePipeline::degraded_rotations`] / `extra_rotation_ops` so the
//! caller can log it. Only when no decomposition exists does the rotation
//! fail with [`HisaError::MissingRotationKey`].

use crate::cancel::CancelToken;
use chet_hisa::keys::plan_rotation;
use chet_hisa::{Hisa, HisaError, Instr, RotDir};
use std::collections::BTreeSet;

/// How a [`FalliblePipeline`] holds its backend: the executor's root
/// pipeline borrows the caller's backend; forked children (one per fan-out
/// job) own the child backend their job runs on.
enum Inner<'a, H: Hisa> {
    Borrowed(&'a mut H),
    Owned(H),
}

impl<H: Hisa> Inner<'_, H> {
    fn get(&self) -> &H {
        match self {
            Inner::Borrowed(h) => h,
            Inner::Owned(h) => h,
        }
    }

    fn get_mut(&mut self) -> &mut H {
        match self {
            Inner::Borrowed(h) => h,
            Inner::Owned(h) => h,
        }
    }
}

/// Error-latching [`Hisa`] wrapper. See the module docs.
pub struct FalliblePipeline<'a, H: Hisa> {
    inner: Inner<'a, H>,
    error: Option<HisaError>,
    degraded_rotations: usize,
    extra_rotation_ops: usize,
    available: Option<BTreeSet<usize>>,
    slots: usize,
    cancel: Option<CancelToken>,
}

impl<'a, H: Hisa> FalliblePipeline<'a, H> {
    /// Wraps a backend. The backend's rotation-key set (if it reports one)
    /// is captured once for degradation accounting.
    pub fn new(inner: &'a mut H) -> Self {
        let available = inner.available_rotations();
        let slots = inner.slots();
        FalliblePipeline {
            inner: Inner::Borrowed(inner),
            error: None,
            degraded_rotations: 0,
            extra_rotation_ops: 0,
            available,
            slots,
            cancel: None,
        }
    }

    /// Attaches a cooperative cancellation token: fan-out regions poll it
    /// (via [`Hisa::cancel_requested`]) before launching each job, so a
    /// deadline that fires mid-kernel stops the remaining fan-out work
    /// instead of only being noticed at the next node boundary.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The latched error, if any instruction has failed so far.
    pub fn error(&self) -> Option<&HisaError> {
        self.error.as_ref()
    }

    /// Takes the latched error, resetting the pipeline to a live state.
    pub fn take_error(&mut self) -> Option<HisaError> {
        self.error.take()
    }

    /// Rotations served by composing several keyed rotations because the
    /// exact key was missing.
    pub fn degraded_rotations(&self) -> usize {
        self.degraded_rotations
    }

    /// Extra elementary rotations spent on degraded rotations (the cost
    /// penalty relative to having exact keys).
    pub fn extra_rotation_ops(&self) -> usize {
        self.extra_rotation_ops
    }

    fn latch(&mut self, e: HisaError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    fn note_rotation(&mut self, step: usize) {
        if step == 0 {
            return;
        }
        if let Some(avail) = &self.available {
            if !avail.contains(&step) {
                if let Some(plan) = plan_rotation(step, avail, self.slots) {
                    self.degraded_rotations += 1;
                    self.extra_rotation_ops += plan.len().saturating_sub(1);
                }
            }
        }
    }
}

/// Unwraps an instruction's plaintext operand: a plaintext whose encode
/// failed fails the instruction with the encode's error.
fn with_plaintext<'a, Ct, Pt>(
    instr: Instr<'a, Ct, Result<Pt, HisaError>>,
) -> Result<Instr<'a, Ct, Pt>, HisaError> {
    let pt = |p: &'a Result<Pt, HisaError>| p.as_ref().map_err(Clone::clone);
    Ok(match instr {
        Instr::Add(a, b) => Instr::Add(a, b),
        Instr::AddPlain(a, p) => Instr::AddPlain(a, pt(p)?),
        Instr::AddScalar(a, x) => Instr::AddScalar(a, x),
        Instr::Sub(a, b) => Instr::Sub(a, b),
        Instr::SubPlain(a, p) => Instr::SubPlain(a, pt(p)?),
        Instr::SubScalar(a, x) => Instr::SubScalar(a, x),
        Instr::Mul(a, b) => Instr::Mul(a, b),
        Instr::MulPlain(a, p) => Instr::MulPlain(a, pt(p)?),
        Instr::MulScalar(a, x, scale) => Instr::MulScalar(a, x, scale),
        Instr::Rescale(a, d) => Instr::Rescale(a, d),
    })
}

impl<H: Hisa> Hisa for FalliblePipeline<'_, H> {
    type Ct = H::Ct;
    /// A plaintext, or the latched error of its failed encode.
    type Pt = Result<H::Pt, HisaError>;

    fn slots(&self) -> usize {
        self.slots
    }

    fn try_encode(&mut self, values: &[f64], scale: f64) -> Result<Self::Pt, HisaError> {
        let p = self.inner.get_mut().try_encode(values, scale);
        if let Err(e) = &p {
            self.latch(e.clone());
        }
        Ok(p)
    }

    /// # Panics
    ///
    /// On a plaintext whose encode failed, with the encode's error.
    fn decode(&mut self, p: &Self::Pt) -> Vec<f64> {
        match p {
            Ok(p) => self.inner.get_mut().decode(p),
            Err(e) => panic!("{e}"),
        }
    }

    /// # Panics
    ///
    /// On a plaintext whose encode failed, with the encode's error.
    fn encrypt(&mut self, p: &Self::Pt) -> H::Ct {
        match p {
            Ok(p) => self.inner.get_mut().encrypt(p),
            Err(e) => panic!("{e}"),
        }
    }

    fn decrypt(&mut self, c: &H::Ct) -> Self::Pt {
        Ok(self.inner.get_mut().decrypt(c))
    }

    /// Never fails: a backend error is latched and the instruction returns
    /// its first operand unchanged, as does every instruction after it.
    fn try_exec(&mut self, instr: Instr<'_, H::Ct, Self::Pt>) -> Result<H::Ct, HisaError> {
        let lhs = instr.lhs();
        if self.error.is_none() {
            match with_plaintext(instr).and_then(|i| self.inner.get_mut().try_exec(i)) {
                Ok(v) => return Ok(v),
                Err(e) => self.latch(e),
            }
        }
        Ok(lhs.clone())
    }

    /// Forwards the whole batch to the backend so hoisted key switching
    /// (one gadget decomposition shared across the batch) stays intact.
    /// Never fails, like [`Hisa::try_exec`]: on error every step yields
    /// the input unchanged.
    fn try_rotate(
        &mut self,
        c: &H::Ct,
        dir: RotDir,
        steps: &[usize],
    ) -> Result<Vec<H::Ct>, HisaError> {
        if self.error.is_none() {
            for &x in steps {
                self.note_rotation(dir.normalize(x, self.slots));
            }
            match self.inner.get_mut().try_rotate(c, dir, steps) {
                Ok(v) => return Ok(v),
                Err(e) => self.latch(e),
            }
        }
        Ok(vec![c.clone(); steps.len()])
    }

    fn max_rescale(&mut self, c: &H::Ct, ub: f64) -> f64 {
        if self.error.is_some() {
            return 1.0;
        }
        self.inner.get_mut().max_rescale(c, ub)
    }

    fn scale_of(&self, c: &H::Ct) -> f64 {
        self.inner.get().scale_of(c)
    }

    fn available_rotations(&self) -> Option<BTreeSet<usize>> {
        self.available.clone()
    }

    /// Forks a child pipeline over a forked backend (or `None` when the
    /// backend cannot fork). The child inherits a clone of the current
    /// latch, so jobs launched after a failure short-circuit exactly like
    /// the sequential execution would, and a clone of the cancel token, so
    /// every fan-out thread observes the same trip.
    fn fork(&mut self) -> Option<Self> {
        let child = self.inner.get_mut().fork()?;
        Some(FalliblePipeline {
            inner: Inner::Owned(child),
            error: self.error.clone(),
            degraded_rotations: 0,
            extra_rotation_ops: 0,
            available: self.available.clone(),
            slots: self.slots,
            cancel: self.cancel.clone(),
        })
    }

    /// Joins happen in job order, so the parent latches the *first* child
    /// error by job index — the same error sequential execution would have
    /// latched — and degradation tallies fold in deterministically.
    fn join(&mut self, child: Self) {
        self.degraded_rotations += child.degraded_rotations;
        self.extra_rotation_ops += child.extra_rotation_ops;
        if self.error.is_none() {
            self.error = child.error;
        }
        if let Inner::Owned(h) = child.inner {
            self.inner.get_mut().join(h);
        }
    }

    fn cancel_requested(&self) -> bool {
        self.cancel.as_ref().is_some_and(|t| t.is_cancelled())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chet_ckks::sim::SimCkks;
    use chet_hisa::{EncryptionParams, RotationKeyPolicy};

    const S: f64 = (1u64 << 30) as f64;

    #[test]
    fn latches_first_error_and_short_circuits() {
        let params = EncryptionParams::rns_ckks(8192, 40, 2);
        let policy = RotationKeyPolicy::Exact([4usize].into_iter().collect());
        let mut h = SimCkks::new(&params, &policy, 1).without_noise();
        let mut p = FalliblePipeline::new(&mut h);
        let pt = p.encode(&[1.0, 2.0], S);
        let ct = p.encrypt(&pt);
        // Step 3 is unreachable from {4}: latches MissingRotationKey.
        let r = p.rot_left(&ct, 3);
        assert!(matches!(p.error(), Some(HisaError::MissingRotationKey { step: 3, .. })));
        // Subsequent ops short-circuit without touching the backend.
        let _ = p.add(&r, &ct);
        let _ = p.rescale(&r, 2f64.powi(40));
        assert!(matches!(
            p.take_error(),
            Some(HisaError::MissingRotationKey { step: 3, .. })
        ));
        assert!(p.error().is_none());
    }

    #[test]
    fn counts_degraded_rotations() {
        let params = EncryptionParams::rns_ckks(8192, 40, 2);
        let mut h =
            SimCkks::new(&params, &RotationKeyPolicy::PowersOfTwo, 1).without_noise();
        let mut p = FalliblePipeline::new(&mut h);
        let pt = p.encode(&[1.0; 8], S);
        let ct = p.encrypt(&pt);
        // 7 = 4 + 2 + 1 under power-of-two keys: degraded, 2 extra ops.
        let _ = p.rot_left(&ct, 7);
        assert_eq!(p.degraded_rotations(), 1);
        assert_eq!(p.extra_rotation_ops(), 2);
        // A direct key is not degraded.
        let _ = p.rot_left(&ct, 4);
        assert_eq!(p.degraded_rotations(), 1);
        assert!(p.error().is_none());
    }
}
