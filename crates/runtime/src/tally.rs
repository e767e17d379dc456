//! The executor's run wrapper: a [`Hisa`] interpretation that carries a
//! run's cancel token into kernel fan-out and tallies its degraded
//! rotations for [`ExecReport`].
//!
//! [`RunTally`] forwards every instruction to the backend unchanged —
//! rotation batches whole, so hoisted key switching survives — and returns
//! the backend's errors as they are; kernels propagate them with `?`. It
//! intercepts only what nothing else does:
//!
//! * [`Hisa::try_rotate`] counts *degraded* rotations: a step with no
//!   dedicated key that the backend still serves by composing available
//!   keys (e.g. power-of-two composition). The tally and its cost penalty
//!   become [`ExecReport::degraded_rotations`] / `extra_rotation_ops`, so
//!   the caller can log them — the paper-faithful graceful degradation.
//!   A step with no decomposition fails in the backend with
//!   [`chet_hisa::HisaError::MissingRotationKey`].
//! * [`Hisa::cancel_requested`] polls the run's [`CancelToken`];
//!   [`Hisa::fork`] / [`Hisa::join`] share the token with fan-out children
//!   and fold their tallies back in job order.

use crate::cancel::CancelToken;
use crate::exec::ExecReport;
use chet_hisa::keys::plan_rotation;
use chet_hisa::{Hisa, HisaError, Instr, RotDir};
use std::collections::BTreeSet;

/// How a [`RunTally`] holds its backend: the executor's root wrapper
/// borrows the caller's backend; forked children (one per fan-out job) own
/// the child backend their job runs on.
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

/// Cancel-token and degraded-rotation wrapper. See the module docs.
pub struct RunTally<'a, H: Hisa> {
    inner: Inner<'a, H>,
    report: ExecReport,
    available: Option<BTreeSet<usize>>,
    slots: usize,
    cancel: Option<CancelToken>,
}

impl<'a, H: Hisa> RunTally<'a, H> {
    /// Wraps a backend for one run. The backend's rotation-key set (if it
    /// reports one) is captured once for degradation accounting; `cancel`
    /// is polled at every fan-out job boundary.
    pub fn new(inner: &'a mut H, cancel: Option<CancelToken>) -> Self {
        let available = inner.available_rotations();
        let slots = inner.slots();
        RunTally {
            inner: Inner::Borrowed(inner),
            report: ExecReport::default(),
            available,
            slots,
            cancel,
        }
    }

    /// The degraded rotations counted so far.
    pub fn report(&self) -> ExecReport {
        self.report
    }

    fn note_rotation(&mut self, step: usize) {
        if step == 0 {
            return;
        }
        if let Some(avail) = &self.available {
            if !avail.contains(&step) {
                if let Some(plan) = plan_rotation(step, avail, self.slots) {
                    self.report.degraded_rotations += 1;
                    self.report.extra_rotation_ops += plan.len().saturating_sub(1);
                }
            }
        }
    }
}

impl<H: Hisa> Hisa for RunTally<'_, H> {
    type Ct = H::Ct;
    type Pt = H::Pt;

    fn slots(&self) -> usize {
        self.slots
    }

    fn try_encode(&mut self, values: &[f64], scale: f64) -> Result<H::Pt, HisaError> {
        self.inner.get_mut().try_encode(values, scale)
    }

    /// Forwarded whole, so a backend that skips the fill still does.
    fn try_encode_with(
        &mut self,
        len: usize,
        scale: f64,
        fill: &mut dyn FnMut(&mut [f64]),
    ) -> Result<H::Pt, HisaError> {
        self.inner.get_mut().try_encode_with(len, scale, fill)
    }

    fn decode(&mut self, p: &H::Pt) -> Vec<f64> {
        self.inner.get_mut().decode(p)
    }

    fn encrypt(&mut self, p: &H::Pt) -> H::Ct {
        self.inner.get_mut().encrypt(p)
    }

    fn decrypt(&mut self, c: &H::Ct) -> H::Pt {
        self.inner.get_mut().decrypt(c)
    }

    fn try_exec(&mut self, instr: Instr<'_, H::Ct, H::Pt>) -> Result<H::Ct, HisaError> {
        self.inner.get_mut().try_exec(instr)
    }

    /// Counts degraded steps, then forwards the whole batch.
    fn try_rotate(
        &mut self,
        c: &H::Ct,
        dir: RotDir,
        steps: &[usize],
    ) -> Result<Vec<H::Ct>, HisaError> {
        for &x in steps {
            self.note_rotation(dir.normalize(x, self.slots));
        }
        self.inner.get_mut().try_rotate(c, dir, steps)
    }

    fn max_rescale(&mut self, c: &H::Ct, ub: f64) -> f64 {
        self.inner.get_mut().max_rescale(c, ub)
    }

    fn scale_of(&self, c: &H::Ct) -> f64 {
        self.inner.get().scale_of(c)
    }

    fn available_rotations(&self) -> Option<BTreeSet<usize>> {
        self.available.clone()
    }

    /// Forks a child over a forked backend (or `None` when the backend
    /// cannot fork). The child shares the cancel token, so every fan-out
    /// thread observes the same trip.
    fn fork(&mut self) -> Option<Self> {
        let child = self.inner.get_mut().fork()?;
        Some(RunTally {
            inner: Inner::Owned(child),
            report: ExecReport::default(),
            available: self.available.clone(),
            slots: self.slots,
            cancel: self.cancel.clone(),
        })
    }

    /// Joins happen in job order, so the tallies fold in deterministically.
    fn join(&mut self, child: Self) {
        self.report.degraded_rotations += child.report.degraded_rotations;
        self.report.extra_rotation_ops += child.report.extra_rotation_ops;
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
    fn counts_degraded_rotations() {
        let params = EncryptionParams::rns_ckks(8192, 40, 2);
        let mut h =
            SimCkks::new(&params, &RotationKeyPolicy::PowersOfTwo, 1).without_noise();
        let mut p = RunTally::new(&mut h, None);
        let pt = p.encode(&[1.0; 8], S);
        let ct = p.encrypt(&pt);
        // 7 = 4 + 2 + 1 under power-of-two keys: degraded, 2 extra ops.
        p.try_rot_left(&ct, 7).unwrap();
        assert_eq!(p.report(), ExecReport { degraded_rotations: 1, extra_rotation_ops: 2 });
        // A direct key is not degraded.
        p.try_rot_left(&ct, 4).unwrap();
        assert_eq!(p.report().degraded_rotations, 1);
    }
}
