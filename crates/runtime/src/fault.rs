//! Deterministic fault injection for the fallible execution pipeline.
//!
//! [`FaultInjector`] wraps any [`Hisa`] backend and probabilistically turns
//! healthy `try_*` instructions into the failures a production FHE service
//! actually sees: rotation keys missing from the key bundle, operand scales
//! that drifted apart, a modulus chain exhausted earlier than the plan
//! assumed, NaN-poisoned decrypted slots, and ops that stall (briefly, or
//! long enough that only a watchdog notices). Which faults can fire and
//! how often is configured by [`FaultPlan`], one rate per class; *when*
//! they fire is a pure function of the key and the roll counter
//! (splitmix64 — no wall clock, no global RNG), so every run with the same
//! seed injects the same faults at the same instructions. That determinism
//! is what makes the robustness property tests reproducible: `try_infer`
//! must return `Err`, never panic, for **every** seed.
//!
//! # One stream
//!
//! Roll `k` draws [`unit`]`(key + k)`. The key is `splitmix64(seed)` from
//! [`FaultInjector::new`] — mixed, so the streams of seeds `s` and `s + 1`
//! are not one stream shifted by a roll — until
//! [`FaultInjector::begin_request`] rekeys it to
//! `splitmix64(seed ^ splitmix64(id))` and restarts the counter, so a
//! served request's faults depend only on `(seed, request id, op index)`
//! and a retry replays them. Only armed classes roll: an unarmed class
//! (`None`) never touches the counter, an armed one rolls at every
//! eligible call, even at rate 0.
//!
//! # Interception
//!
//! The injector intercepts four entry points of the [`Hisa`] core and
//! forwards the rest untouched. [`Hisa::try_encode`] rolls slow, hung,
//! then slot overflow; [`Hisa::try_exec`] rolls slow, hung, then scale
//! drift on `add`/`add_plain`/`sub`/`sub_plain` or exhausted levels and
//! invalid divisors on `rescale`; each step of [`Hisa::try_rotate`] rolls
//! slow, hung, then a dropped key; [`Hisa::decode`] rolls NaN poisoning.
//! Every `try_*` adapter reaches the backend through those, so each
//! instruction has one injection point, and two stacked injectors each
//! keep their own faults.
//!
//! A rotation batch passes through to the wrapped backend whole — keeping
//! its hoisted key switching — unless slow, hung or key-drop faults are
//! armed. Then each step rolls and reaches the backend as a one-element
//! batch, so the schedule is the single-rotation schedule exactly:
//! rolling the whole batch first would run the counter past an inner
//! failure and shift every later decision.
//!
//! The injector forwards neither `fork` nor `join`: kernel fan-out under
//! it runs in order on the one wrapped backend.

use chet_hisa::{Hisa, HisaError, Instr, RotDir};
use std::collections::BTreeSet;
use std::time::Duration;

/// splitmix64: the tiny deterministic mixer every seeded component in this
/// codebase shares (fault injection, retry jitter, chaos schedules). Pure
/// counter-mode function of its input — no global RNG, no wall clock.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` at counter `z`: the top 53 bits of
/// [`splitmix64`]`(z)`.
pub fn unit(z: u64) -> f64 {
    (splitmix64(z) >> 11) as f64 / (1u64 << 53) as f64
}

/// Which fault classes the injector may fire, and how often. Each class is
/// unarmed (`None`) or armed at a per-eligible-call probability in
/// `[0, 1]`.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Rotations fail with [`HisaError::MissingRotationKey`].
    pub drop_rotation_keys: Option<f64>,
    /// Binary adds/subs fail with [`HisaError::ScaleMismatch`] as if one
    /// operand's scale had drifted.
    pub scale_drift: Option<f64>,
    /// Rescales fail with [`HisaError::LevelExhausted`] as if the modulus
    /// chain ran out early.
    pub exhaust_levels: Option<f64>,
    /// Decoded vectors are poisoned to NaN (models catastrophic noise
    /// growth, or a bit-flipped ciphertext).
    pub nan_slots: Option<f64>,
    /// Encodes fail with [`HisaError::SlotOverflow`].
    pub slot_overflow: Option<f64>,
    /// Rescales fail with [`HisaError::InvalidRescale`].
    pub invalid_rescale: Option<f64>,
    /// Ops stall for [`FaultPlan::slow_pause`]; cancellation checks
    /// between ops still fire.
    pub slow: Option<f64>,
    /// Ops stall for [`FaultPlan::hang_pause`], ignoring any cancel token:
    /// a wedged backend only a watchdog can detect.
    pub hung: Option<f64>,
    /// Length of a slow stall.
    pub slow_pause: Duration,
    /// Length of a hung stall. Deliberately bounded so soaks terminate; a
    /// watchdog must still flag it, because a real wedge has no bound.
    pub hang_pause: Duration,
    /// The rate the `with_*` builders arm a class at.
    pub rate: f64,
    /// Transient-fault window: when `Some(n)`, faults only fire within the
    /// first `n` rolls (counted from `new` or the last `begin_request`),
    /// then the backend behaves healthily (see [`FaultPlan::transient`]).
    /// `None` = faults never clear.
    pub transient_after: Option<u64>,
}

impl FaultPlan {
    /// No faults armed; `with_*` builders arm classes at `rate`.
    pub fn none(rate: f64) -> Self {
        FaultPlan {
            drop_rotation_keys: None,
            scale_drift: None,
            exhaust_levels: None,
            nan_slots: None,
            slot_overflow: None,
            invalid_rescale: None,
            slow: None,
            hung: None,
            slow_pause: Duration::from_micros(200),
            hang_pause: Duration::from_millis(120),
            rate,
            transient_after: None,
        }
    }

    /// Every error class armed at the given rate; the stalls stay unarmed.
    pub fn all(rate: f64) -> Self {
        FaultPlan {
            drop_rotation_keys: Some(rate),
            scale_drift: Some(rate),
            exhaust_levels: Some(rate),
            nan_slots: Some(rate),
            slot_overflow: Some(rate),
            invalid_rescale: Some(rate),
            ..FaultPlan::none(rate)
        }
    }

    /// Arms dropped-rotation-key faults.
    pub fn with_dropped_rotation_keys(mut self) -> Self {
        self.drop_rotation_keys = Some(self.rate);
        self
    }

    /// Arms scale-drift faults.
    pub fn with_scale_drift(mut self) -> Self {
        self.scale_drift = Some(self.rate);
        self
    }

    /// Arms premature level-exhaustion faults.
    pub fn with_exhausted_levels(mut self) -> Self {
        self.exhaust_levels = Some(self.rate);
        self
    }

    /// Arms NaN poisoning on decode.
    pub fn with_nan_slots(mut self) -> Self {
        self.nan_slots = Some(self.rate);
        self
    }

    /// Arms slot-overflow faults on encode.
    pub fn with_slot_overflow(mut self) -> Self {
        self.slot_overflow = Some(self.rate);
        self
    }

    /// Arms invalid-rescale-divisor faults.
    pub fn with_invalid_rescale(mut self) -> Self {
        self.invalid_rescale = Some(self.rate);
        self
    }

    /// Makes the faults *transient*: injection stops after the first `n`
    /// rolls, modelling a backend that recovers (a key bundle re-fetched,
    /// a flaky node restarted). Retry/backoff paths can then be exercised
    /// deterministically — the first attempts fail, a later retry against
    /// the same injector succeeds.
    pub fn transient(mut self, n: u64) -> Self {
        self.transient_after = Some(n);
        self
    }

    /// Whether the plan still injects at roll index `seen`.
    fn active_at(&self, seen: u64) -> bool {
        self.transient_after.is_none_or(|n| seen < n)
    }
}

/// A [`Hisa`] backend wrapper that injects deterministic faults. See the
/// module docs.
pub struct FaultInjector<H: Hisa> {
    inner: H,
    plan: FaultPlan,
    seed: u64,
    /// Stream origin: the mixed seed, or the request's key after
    /// `begin_request`.
    key: u64,
    /// Rolls since `new` or the last `begin_request`.
    ops: u64,
    injected: Vec<String>,
}

impl<H: Hisa> FaultInjector<H> {
    /// Wraps a backend; `seed` fully determines the fault schedule.
    pub fn new(inner: H, plan: FaultPlan, seed: u64) -> Self {
        FaultInjector { inner, plan, seed, key: splitmix64(seed), ops: 0, injected: Vec::new() }
    }

    /// (Re)keys the fault stream for a request: all later decisions are a
    /// pure function of `(seed, request_id, op index)`. Call before every
    /// attempt — a retry of the same request replays the same schedule.
    pub fn begin_request(&mut self, request_id: u64) {
        self.key = splitmix64(self.seed ^ splitmix64(request_id));
        self.ops = 0;
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

    /// Rolls one decision for a class. An armed class always advances the
    /// counter, so a transient window (or a rate change) doesn't reshuffle
    /// later decisions for the same seed.
    fn roll(&mut self, rate: Option<f64>) -> bool {
        let Some(rate) = rate else { return false };
        let seen = self.ops;
        self.ops += 1;
        self.plan.active_at(seen) && unit(self.key.wrapping_add(seen)) < rate
    }

    /// The stalls every encode, instruction and rotation step may hit.
    fn stall(&mut self) {
        if self.roll(self.plan.slow) {
            self.log("slow op".into());
            std::thread::sleep(self.plan.slow_pause);
        }
        if self.roll(self.plan.hung) {
            self.log("hung op (uncancellable stall)".into());
            // Deliberately consults no cancel token: that is the fault
            // being modelled.
            std::thread::sleep(self.plan.hang_pause);
        }
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
        self.stall();
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
        self.stall();
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

    /// Forwards the whole batch unless a class that rolls per rotation
    /// step is armed; otherwise each step rolls, then reaches the backend
    /// as a one-element batch (module docs).
    fn try_rotate(
        &mut self,
        c: &H::Ct,
        dir: RotDir,
        steps: &[usize],
    ) -> Result<Vec<H::Ct>, HisaError> {
        let p = &self.plan;
        if p.slow.is_none() && p.hung.is_none() && p.drop_rotation_keys.is_none() {
            return self.inner.try_rotate(c, dir, steps);
        }
        let mut out = Vec::with_capacity(steps.len());
        for &x in steps {
            self.stall();
            if self.roll(self.plan.drop_rotation_keys) {
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

    /// `ChaosPlan::all(42, 0.3)`'s op classes with zero pauses: the four
    /// classes a served request rolls.
    fn keyed_plan() -> FaultPlan {
        FaultPlan {
            slow: Some(0.3),
            hung: Some(0.3),
            nan_slots: Some(0.3),
            drop_rotation_keys: Some(0.3),
            slow_pause: Duration::ZERO,
            hang_pause: Duration::ZERO,
            ..FaultPlan::none(0.3)
        }
    }

    /// One encode, then a rotation and an add per step: the error pattern
    /// and the injection log.
    fn drive(f: &mut FaultInjector<SimCkks>) -> (Vec<bool>, Vec<String>) {
        let mut errs = Vec::new();
        if let Ok(pt) = f.try_encode(&[1.0, 2.0], S) {
            let ct = f.encrypt(&pt);
            for step in [1usize, 2, 4, 8] {
                errs.push(f.try_rot_left(&ct, step).is_err());
                errs.push(f.try_add(&ct, &ct).is_err());
            }
        }
        (errs, f.injected().to_vec())
    }

    #[test]
    fn same_seed_injects_identical_fault_schedule() {
        let run = |seed: u64| drive(&mut FaultInjector::new(sim(), FaultPlan::all(0.5), seed));
        assert_eq!(run(42), run(42));
        // A different seed produces a different schedule for this plan.
        assert_ne!(run(42).1, run(43).1);

        // Keyed by request: a pure function of the seed and the id.
        let keyed = |seed: u64, id: u64| {
            let mut f = FaultInjector::new(sim(), keyed_plan(), seed);
            f.begin_request(id);
            drive(&mut f)
        };
        assert_eq!(keyed(42, 7), keyed(42, 7));
        assert_ne!(keyed(42, 7), keyed(42, 8));
        assert_ne!(keyed(42, 7), keyed(43, 7));
        // Rekeying the same injector replays the schedule on a retry.
        let mut f = FaultInjector::new(sim(), keyed_plan(), 9);
        f.begin_request(3);
        let first = drive(&mut f).0;
        f.begin_request(3);
        assert_eq!(first, drive(&mut f).0);
        // The schedule a served request sees, pinned for ids 0..16.
        let (patterns, lens): (Vec<String>, Vec<usize>) = (0..16)
            .map(|id| {
                let (errs, log) = keyed(42, id);
                (errs.iter().map(|&e| if e { '1' } else { '0' }).collect(), log.len())
            })
            .unzip();
        assert_eq!(
            patterns,
            [
                "00001000", "00000010", "00000000", "00001000", "00100000", "00101000",
                "00000000", "00100000", "10000000", "00000000", "00000000", "00100000",
                "00001000", "00000010", "00100000", "00000010",
            ]
        );
        assert_eq!(lens, [4, 5, 5, 8, 8, 7, 8, 8, 7, 9, 9, 7, 6, 8, 10, 4]);
    }

    /// Adjacent seeds (one per worker, say) start unrelated unkeyed
    /// streams: no draw of seed `s + 1`'s first 64 appears among seed
    /// `s`'s, so neither is the other shifted.
    #[test]
    fn adjacent_seeds_share_no_unkeyed_draws() {
        let draws = |seed: u64| {
            let f = FaultInjector::new(sim(), FaultPlan::none(0.5), seed);
            (0..64).map(|k| unit(f.key.wrapping_add(k))).collect::<Vec<_>>()
        };
        for s in [0, 40, 90, 12_345] {
            let (a, b) = (draws(s), draws(s + 1));
            assert!(b.iter().all(|x| !a.contains(x)), "seeds {s} and {}", s + 1);
        }
    }

    #[test]
    fn rate_one_always_fires_and_rate_zero_never_does() {
        let mut hot = FaultInjector::new(sim(), FaultPlan::all(1.0), 7);
        assert!(matches!(
            hot.try_encode(&[1.0], S),
            Err(HisaError::SlotOverflow { .. })
        ));
        let pt = hot.inner_mut().try_encode(&[1.0, 2.0], S).unwrap();
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

        // Keyed by request: decode poisons every slot and a rotation fails
        // typed.
        let flips = FaultPlan::none(1.0).with_nan_slots().with_dropped_rotation_keys();
        let mut keyed = FaultInjector::new(sim(), flips, 5);
        keyed.begin_request(11);
        assert!(keyed.decode(&pt).iter().all(|x| x.is_nan()));
        assert!(matches!(
            keyed.try_rot_left(&ct, 2),
            Err(HisaError::MissingRotationKey { step: 2, .. })
        ));
        assert_eq!(keyed.injected().len(), 2);

        // Both stalls fire on an instruction, which then still runs.
        let stalls = FaultPlan {
            slow: Some(1.0),
            hung: Some(1.0),
            slow_pause: Duration::ZERO,
            hang_pause: Duration::ZERO,
            ..FaultPlan::none(1.0)
        };
        let mut stalled = FaultInjector::new(sim(), stalls, 5);
        assert!(stalled.try_mul(&ct, &ct).is_ok());
        assert_eq!(stalled.injected(), ["slow op", "hung op (uncancellable stall)"]);

        // Every class armed at rate 0 rolls and never fires.
        let zero = FaultPlan { slow: Some(0.0), hung: Some(0.0), ..FaultPlan::all(0.0) };
        let mut cold = FaultInjector::new(sim(), zero, 7);
        assert!(cold.try_encode(&[1.0], S).is_ok());
        assert!(cold.try_rot_left(&ct, 1).is_ok());
        assert!(cold.try_add(&ct, &ct).is_ok());
        assert!(!cold.decode(&pt).iter().any(|x| x.is_nan()));
        assert!(cold.injected().is_empty());

        // Nothing armed: transparent, even at rate 1 and keyed.
        let mut inert = FaultInjector::new(sim(), FaultPlan::none(1.0), 1);
        inert.begin_request(1);
        assert!(inert.try_encode(&[1.0, 2.0], S).is_ok());
        assert!(inert.try_rot_left(&ct, 1).is_ok());
        assert!(inert.try_add(&ct, &ct).is_ok());
        assert!(!inert.decode(&pt).iter().any(|x| x.is_nan()));
        assert!(inert.injected().is_empty());

        // Two stacked injectors: an inert outer one forwards the core, so
        // the inner one's rate-1 fault still fires.
        let inner = FaultInjector::new(sim(), FaultPlan::none(1.0).with_dropped_rotation_keys(), 3);
        let mut stacked = FaultInjector::new(inner, FaultPlan::none(0.0), 0);
        stacked.begin_request(1);
        assert!(matches!(
            stacked.try_rot_left(&ct, 1),
            Err(HisaError::MissingRotationKey { .. })
        ));
        assert!(stacked.injected().is_empty());
        assert_eq!(stacked.inner().injected().len(), 1);
    }

    #[test]
    fn nan_poisoning_hits_decode() {
        let mut f = FaultInjector::new(
            sim(),
            FaultPlan::none(1.0).with_nan_slots(),
            11,
        );
        let pt = f.try_encode(&[1.0, 2.0, 3.0], S).unwrap();
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
        let pt = f.try_encode(&[1.0, 2.0], S).unwrap();
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
        let pt = f.try_encode(&[1.0], S).unwrap();
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
            let pt = f.try_encode(&[1.0], S).unwrap();
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
        let pt = f.try_encode(&[1.0], S).unwrap();
        let ct = f.encrypt(&pt);
        assert!(matches!(
            f.try_rescale(&ct, 2f64.powi(40)),
            Err(HisaError::InvalidRescale { .. })
        ));
    }
}
