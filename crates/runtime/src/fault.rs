//! Deterministic fault injection for the fallible execution pipeline.
//!
//! [`FaultInjector`] wraps any [`Hisa`] backend and probabilistically turns
//! healthy `try_*` instructions into the failures a production FHE service
//! actually sees: rotation keys missing from the key bundle, operand scales
//! that drifted apart, a modulus chain exhausted earlier than the plan
//! assumed, and NaN-poisoned decrypted slots. Which faults can fire and how
//! often is configured by [`FaultPlan`]; *when* they fire is a pure function
//! of the seed and the instruction counter (splitmix64 — no wall clock, no
//! global RNG), so every run with the same seed injects the same faults at
//! the same instructions. That determinism is what makes the robustness
//! property tests reproducible: `try_infer` must return `Err`, never panic,
//! for **every** seed.
//!
//! The injector intercepts four entry points of the [`Hisa`] core and
//! forwards the rest untouched: [`Hisa::try_encode`] (slot overflow),
//! [`Hisa::try_exec`] (scale drift on `add`/`add_plain`/`sub`/`sub_plain`,
//! exhausted levels and invalid divisors on `rescale`),
//! [`Hisa::try_rotate`] (dropped rotation keys) and [`Hisa::decode`] (NaN
//! poisoning). Every adapter — panicking or `try_*` — reaches the backend
//! through those, so each instruction has one injection point.
//!
//! A rotation batch passes through to the wrapped backend whole — keeping
//! its hoisted key switching — whenever [`FaultPlan::drop_rotation_keys`]
//! is off. With rotation faults on, each step rolls and then reaches the
//! backend as a one-element batch, so the schedule is the single-rotation
//! schedule exactly.

use chet_hisa::{Hisa, HisaError, Instr, RotDir};
use std::collections::BTreeSet;

/// splitmix64: the tiny deterministic mixer every seeded component in this
/// codebase shares (fault injection, retry jitter, chaos schedules). Pure
/// counter-mode function of its input — no global RNG, no wall clock.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which fault classes the injector may fire, and how often.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Rotations fail with [`HisaError::MissingRotationKey`].
    pub drop_rotation_keys: bool,
    /// Binary adds/subs fail with [`HisaError::ScaleMismatch`] as if one
    /// operand's scale had drifted.
    pub scale_drift: bool,
    /// Rescales fail with [`HisaError::LevelExhausted`] as if the modulus
    /// chain ran out early.
    pub exhaust_levels: bool,
    /// Decoded vectors get one slot poisoned to NaN (models catastrophic
    /// noise growth flipping a slot).
    pub nan_slots: bool,
    /// Encodes fail with [`HisaError::SlotOverflow`].
    pub slot_overflow: bool,
    /// Rescales fail with [`HisaError::InvalidRescale`].
    pub invalid_rescale: bool,
    /// Per-eligible-instruction probability in `[0, 1]` that a fault fires.
    pub rate: f64,
    /// Transient-fault window: when `Some(n)`, faults only fire within the
    /// first `n` eligible instructions, then the backend behaves healthily
    /// (see [`FaultPlan::transient`]). `None` = faults never clear.
    pub transient_after: Option<u64>,
}

impl FaultPlan {
    /// No faults enabled; `with_*` builders switch classes on.
    pub fn none(rate: f64) -> Self {
        FaultPlan {
            drop_rotation_keys: false,
            scale_drift: false,
            exhaust_levels: false,
            nan_slots: false,
            slot_overflow: false,
            invalid_rescale: false,
            rate,
            transient_after: None,
        }
    }

    /// Every fault class enabled at the given rate.
    pub fn all(rate: f64) -> Self {
        FaultPlan {
            drop_rotation_keys: true,
            scale_drift: true,
            exhaust_levels: true,
            nan_slots: true,
            slot_overflow: true,
            invalid_rescale: true,
            rate,
            transient_after: None,
        }
    }

    /// Enables dropped-rotation-key faults.
    pub fn with_dropped_rotation_keys(mut self) -> Self {
        self.drop_rotation_keys = true;
        self
    }

    /// Enables scale-drift faults.
    pub fn with_scale_drift(mut self) -> Self {
        self.scale_drift = true;
        self
    }

    /// Enables premature level-exhaustion faults.
    pub fn with_exhausted_levels(mut self) -> Self {
        self.exhaust_levels = true;
        self
    }

    /// Enables NaN slot poisoning on decode.
    pub fn with_nan_slots(mut self) -> Self {
        self.nan_slots = true;
        self
    }

    /// Enables slot-overflow faults on encode.
    pub fn with_slot_overflow(mut self) -> Self {
        self.slot_overflow = true;
        self
    }

    /// Whether the plan still injects at eligible-instruction index `seen`.
    fn active_at(&self, seen: u64) -> bool {
        self.transient_after.is_none_or(|n| seen < n)
    }

    /// Enables invalid-rescale-divisor faults.
    pub fn with_invalid_rescale(mut self) -> Self {
        self.invalid_rescale = true;
        self
    }

    /// Makes the faults *transient*: injection stops after the first `n`
    /// eligible instructions, modelling a backend that recovers (a key
    /// bundle re-fetched, a flaky node restarted). Retry/backoff paths can
    /// then be exercised deterministically — the first attempts fail, a
    /// later retry against the same injector succeeds.
    pub fn transient(mut self, n: u64) -> Self {
        self.transient_after = Some(n);
        self
    }
}

/// A [`Hisa`] backend wrapper that injects deterministic faults. See the
/// module docs.
pub struct FaultInjector<H: Hisa> {
    inner: H,
    plan: FaultPlan,
    state: u64,
    rolls: u64,
    injected: Vec<String>,
}

impl<H: Hisa> FaultInjector<H> {
    /// Wraps a backend; `seed` fully determines the fault schedule.
    pub fn new(inner: H, plan: FaultPlan, seed: u64) -> Self {
        FaultInjector { inner, plan, state: seed, rolls: 0, injected: Vec::new() }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &H {
        &self.inner
    }

    /// The wrapped backend, mutably (e.g. to decrypt results out-of-band).
    pub fn inner_mut(&mut self) -> &mut H {
        &mut self.inner
    }

    /// Unwraps the injector, returning the backend.
    pub fn into_inner(self) -> H {
        self.inner
    }

    /// Log of faults injected so far, in instruction order.
    pub fn injected(&self) -> &[String] {
        &self.injected
    }

    /// splitmix64 step: counter-mode, so the schedule depends only on the
    /// seed and how many rolls preceded this one.
    fn next_u64(&mut self) -> u64 {
        let r = splitmix64(self.state);
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        r
    }

    /// Rolls one fault decision for an enabled class.
    fn roll(&mut self, enabled: bool) -> bool {
        if !enabled {
            return false;
        }
        // Always advance the counter when the class is enabled so a
        // transient window (or rate change) doesn't reshuffle later
        // decisions for the same seed.
        let seen = self.rolls;
        self.rolls += 1;
        let r = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.plan.active_at(seen) && r < self.plan.rate
    }

    fn log(&mut self, what: String) {
        self.injected.push(what);
    }
}

impl<H: Hisa> Hisa for FaultInjector<H> {
    type Ct = H::Ct;
    type Pt = H::Pt;

    fn slots(&self) -> usize {
        self.inner.slots()
    }

    fn try_encode(&mut self, values: &[f64], scale: f64) -> Result<H::Pt, HisaError> {
        if self.roll(self.plan.slot_overflow) {
            let slots = self.inner.slots();
            self.log(format!("slot overflow on encode of {} values", values.len()));
            return Err(HisaError::SlotOverflow { len: slots + values.len().max(1), slots });
        }
        self.inner.try_encode(values, scale)
    }

    fn decode(&mut self, p: &H::Pt) -> Vec<f64> {
        let mut v = self.inner.decode(p);
        if self.roll(self.plan.nan_slots) && !v.is_empty() {
            // Poison the whole vector: a corrupted ciphertext ruins every
            // slot, and partial poisoning could hide in unused layout slots.
            for x in v.iter_mut() {
                *x = f64::NAN;
            }
            self.log("nan-poisoned decode".into());
        }
        v
    }

    fn encrypt(&mut self, p: &H::Pt) -> H::Ct {
        self.inner.encrypt(p)
    }

    fn decrypt(&mut self, c: &H::Ct) -> H::Pt {
        self.inner.decrypt(c)
    }

    fn try_exec(&mut self, instr: Instr<'_, H::Ct, H::Pt>) -> Result<H::Ct, HisaError> {
        match instr {
            // One roll per instruction: the alternatives are disjoint, so
            // the guard runs once.
            Instr::Add(a, _) | Instr::AddPlain(a, _) | Instr::Sub(a, _) | Instr::SubPlain(a, _)
                if self.roll(self.plan.scale_drift) =>
            {
                let s = self.inner.scale_of(a);
                self.log(format!("scale drift on {}", instr.name()));
                return Err(HisaError::ScaleMismatch { left: s, right: s * 1.5 });
            }
            Instr::Rescale(_, divisor) => {
                if self.roll(self.plan.exhaust_levels) {
                    self.log(format!("premature level exhaustion on rescale by {divisor}"));
                    return Err(HisaError::LevelExhausted {
                        remaining: 0.0,
                        requested: divisor.max(2.0).log2(),
                    });
                }
                if self.roll(self.plan.invalid_rescale) {
                    self.log(format!("invalid rescale divisor {divisor}"));
                    return Err(HisaError::InvalidRescale {
                        divisor,
                        reason: "injected fault: divisor rejected by backend".into(),
                    });
                }
            }
            _ => {}
        }
        self.inner.try_exec(instr)
    }

    /// Forwards the whole batch unless rotation faults are enabled: a
    /// disabled class neither fires nor advances the roll counter, so the
    /// batch is exactly equivalent to its steps. Otherwise each step rolls,
    /// then reaches the backend as a one-element batch.
    fn try_rotate(
        &mut self,
        c: &H::Ct,
        dir: RotDir,
        steps: &[usize],
    ) -> Result<Vec<H::Ct>, HisaError> {
        if !self.plan.drop_rotation_keys {
            return self.inner.try_rotate(c, dir, steps);
        }
        let mut out = Vec::with_capacity(steps.len());
        for &x in steps {
            if self.roll(true) {
                let side = if dir == RotDir::Left { "left" } else { "right" };
                self.log(format!("dropped rotation key for {side} step {x}"));
                return Err(HisaError::MissingRotationKey { step: x, available: Vec::new() });
            }
            out.extend(self.inner.try_rotate(c, dir, &[x])?);
        }
        Ok(out)
    }

    fn max_rescale(&mut self, c: &H::Ct, ub: f64) -> f64 {
        self.inner.max_rescale(c, ub)
    }

    fn scale_of(&self, c: &H::Ct) -> f64 {
        self.inner.scale_of(c)
    }

    fn available_rotations(&self) -> Option<BTreeSet<usize>> {
        self.inner.available_rotations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chet_ckks::sim::SimCkks;
    use chet_hisa::{EncryptionParams, RotationKeyPolicy};

    const S: f64 = (1u64 << 30) as f64;

    fn sim() -> SimCkks {
        let params = EncryptionParams::rns_ckks(8192, 40, 4);
        SimCkks::new(&params, &RotationKeyPolicy::PowersOfTwo, 1).without_noise()
    }

    #[test]
    fn same_seed_injects_identical_fault_schedule() {
        let run = |seed: u64| {
            let mut f = FaultInjector::new(sim(), FaultPlan::all(0.5), seed);
            let pt = f.try_encode(&[1.0, 2.0], S).ok();
            let mut errs = Vec::new();
            if let Some(pt) = pt {
                let ct = f.encrypt(&pt);
                for step in [1usize, 2, 4, 8] {
                    errs.push(f.try_rot_left(&ct, step).is_err());
                    errs.push(f.try_add(&ct, &ct).is_err());
                }
            }
            (f.injected().to_vec(), errs)
        };
        assert_eq!(run(42), run(42));
        // A different seed produces a different schedule for this plan.
        assert_ne!(run(42).0, run(43).0);
    }

    #[test]
    fn rate_one_always_fires_and_rate_zero_never_does() {
        let mut hot = FaultInjector::new(sim(), FaultPlan::all(1.0), 7);
        assert!(matches!(
            hot.try_encode(&[1.0], S),
            Err(HisaError::SlotOverflow { .. })
        ));
        let pt = hot.inner_mut().encode(&[1.0, 2.0], S);
        let ct = hot.inner_mut().encrypt(&pt);
        assert!(matches!(
            hot.try_rot_left(&ct, 1),
            Err(HisaError::MissingRotationKey { step: 1, .. })
        ));
        assert!(matches!(hot.try_add(&ct, &ct), Err(HisaError::ScaleMismatch { .. })));
        assert!(matches!(
            hot.try_rescale(&ct, 2f64.powi(40)),
            Err(HisaError::LevelExhausted { .. })
        ));
        assert_eq!(hot.injected().len(), 4);

        let mut cold = FaultInjector::new(sim(), FaultPlan::all(0.0), 7);
        assert!(cold.try_encode(&[1.0], S).is_ok());
        assert!(cold.try_rot_left(&ct, 1).is_ok());
        assert!(cold.try_add(&ct, &ct).is_ok());
        assert!(cold.injected().is_empty());
    }

    #[test]
    fn nan_poisoning_hits_decode() {
        let mut f = FaultInjector::new(
            sim(),
            FaultPlan::none(1.0).with_nan_slots(),
            11,
        );
        let pt = f.encode(&[1.0, 2.0, 3.0], S);
        let v = f.decode(&pt);
        assert!(v.iter().any(|x| x.is_nan()), "decode should poison a slot");
        assert_eq!(f.injected().len(), 1);
    }

    #[test]
    fn transient_faults_clear_after_the_window() {
        // Rate 1.0, but only the first 3 eligible instructions may fault:
        // rotations fail exactly 3 times, then the same injector heals.
        let mut f = FaultInjector::new(
            sim(),
            FaultPlan::none(1.0).with_dropped_rotation_keys().transient(3),
            9,
        );
        let pt = f.encode(&[1.0, 2.0], S);
        let ct = f.encrypt(&pt);
        let outcomes: Vec<bool> =
            (0..6).map(|_| f.try_rot_left(&ct, 1).is_err()).collect();
        assert_eq!(outcomes, [true, true, true, false, false, false]);
        assert_eq!(f.injected().len(), 3);
    }

    #[test]
    fn transient_zero_window_never_fires() {
        let mut f = FaultInjector::new(sim(), FaultPlan::all(1.0).transient(0), 5);
        assert!(f.try_encode(&[1.0], S).is_ok());
        let pt = f.encode(&[1.0], S);
        let ct = f.encrypt(&pt);
        assert!(f.try_rot_left(&ct, 1).is_ok());
        assert!(f.try_add(&ct, &ct).is_ok());
        assert!(f.injected().is_empty());
    }

    #[test]
    fn transient_window_masks_late_faults_without_reshuffling_the_rng() {
        // In-window decisions match a permanent plan at the same seed (the
        // window masks faults, it doesn't advance the RNG differently), and
        // after the window the injector is quiet even where the permanent
        // plan keeps firing.
        let schedule = |plan: FaultPlan| {
            let mut f = FaultInjector::new(sim(), plan, 21);
            let pt = f.encode(&[1.0], S);
            let ct = f.encrypt(&pt);
            (0..16).map(|_| f.try_rot_left(&ct, 2).is_err()).collect::<Vec<_>>()
        };
        let base = FaultPlan::none(0.5).with_dropped_rotation_keys();
        let permanent = schedule(base.clone());
        let transient = schedule(base.transient(4));
        assert_eq!(permanent[..4], transient[..4]);
        assert!(transient[4..].iter().all(|&e| !e), "faults must clear after the window");
        assert!(permanent[4..].iter().any(|&e| e), "permanent plan should keep firing");
    }

    #[test]
    fn invalid_rescale_fault_is_reachable() {
        let mut f = FaultInjector::new(
            sim(),
            FaultPlan::none(1.0).with_invalid_rescale(),
            3,
        );
        let pt = f.encode(&[1.0], S);
        let ct = f.encrypt(&pt);
        assert!(matches!(
            f.try_rescale(&ct, 2f64.powi(40)),
            Err(HisaError::InvalidRescale { .. })
        ));
    }
}
