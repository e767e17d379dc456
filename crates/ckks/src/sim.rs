//! Plaintext simulator backend.
//!
//! [`SimCkks`] implements the full HISA on *clear* slot vectors while
//! faithfully modelling everything the compiler cares about:
//!
//! * **Modulus consumption** — `rescale`/`max_rescale` follow the exact
//!   semantics of the targeted variant (powers of two for CKKS, the prime
//!   chain for RNS-CKKS) and the simulator panics when the modulus is
//!   exhausted, just as a real ciphertext would become corrupt.
//! * **Rotation keys** — rotations are planned against the configured
//!   [`RotationKeyPolicy`] and composed from several steps when the exact
//!   key is absent, so key-selection experiments (paper Fig. 7) measure the
//!   same op counts as a real backend.
//! * **Approximation noise** — an optional CKKS-style noise model perturbs
//!   slots on encryption, key-switching and rescaling, which drives the
//!   profile-guided scale-selection pass (paper §5.5).
//! * **Op counting** — per-[`HisaOp`] counters for tests and cost-model
//!   validation.
//!
//! This is the substitution documented in DESIGN.md: it exercises the same
//! runtime/compiler code paths as the lattice backends at a tiny fraction of
//! the cost, enabling full-network sweeps.

use chet_hisa::cost::HisaOp;
use chet_hisa::keys::{plan_rotation, RotationKeyPolicy};
use chet_hisa::params::{EncryptionParams, ModulusSpec};
use chet_hisa::{Hisa, HisaError, Instr, RotDir};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Remaining-modulus state of a simulated ciphertext.
#[derive(Debug, Clone, PartialEq)]
enum Remaining {
    /// CKKS: remaining log2 of the ciphertext modulus.
    Pow2 { log_q: f64 },
    /// RNS-CKKS: number of chain primes still active.
    Chain { level: usize },
}

/// A simulated ciphertext: clear slot values plus scale and modulus state.
#[derive(Debug, Clone)]
pub struct SimCt {
    values: Vec<f64>,
    scale: f64,
    remaining: Remaining,
}

impl SimCt {
    /// The clear slot values (testing hook).
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// A simulated plaintext.
#[derive(Debug, Clone)]
pub struct SimPt {
    values: Vec<f64>,
    scale: f64,
}

/// The simulator backend. See the module docs.
#[derive(Debug)]
pub struct SimCkks {
    slots: usize,
    degree: usize,
    modulus: ModulusSpec,
    chain: Arc<Vec<u64>>,
    keys: BTreeSet<usize>,
    noise_stddev: f64,
    rng: StdRng,
    counters: HashMap<HisaOp, u64>,
}

impl SimCkks {
    /// Creates a simulator for the given parameters and rotation-key policy.
    pub fn new(params: &EncryptionParams, policy: &RotationKeyPolicy, seed: u64) -> Self {
        let slots = params.slots();
        let chain = match &params.modulus {
            ModulusSpec::PrimeChain { primes, .. } => primes.clone(),
            ModulusSpec::PowerOfTwo { .. } => Vec::new(),
        };
        SimCkks {
            slots,
            degree: params.degree,
            modulus: params.modulus.clone(),
            chain: Arc::new(chain),
            keys: policy.steps(slots),
            noise_stddev: params.error_stddev,
            rng: StdRng::seed_from_u64(seed),
            counters: HashMap::new(),
        }
    }

    /// Disables the approximation-noise model (exact reference semantics).
    pub fn without_noise(mut self) -> Self {
        self.noise_stddev = 0.0;
        self
    }

    /// Number of times each HISA op has executed.
    pub fn op_count(&self, op: HisaOp) -> u64 {
        self.counters.get(&op).copied().unwrap_or(0)
    }

    fn bump(&mut self, op: HisaOp) {
        *self.counters.entry(op).or_insert(0) += 1;
    }

    fn fresh_remaining(&self) -> Remaining {
        match &self.modulus {
            ModulusSpec::PowerOfTwo { log_q, .. } => Remaining::Pow2 { log_q: *log_q as f64 },
            ModulusSpec::PrimeChain { primes, .. } => Remaining::Chain { level: primes.len() },
        }
    }

    fn meet(&self, a: &Remaining, b: &Remaining) -> Remaining {
        match (a, b) {
            (Remaining::Pow2 { log_q: x }, Remaining::Pow2 { log_q: y }) => {
                Remaining::Pow2 { log_q: x.min(*y) }
            }
            (Remaining::Chain { level: x }, Remaining::Chain { level: y }) => {
                Remaining::Chain { level: (*x).min(*y) }
            }
            _ => panic!("mixed modulus models in one circuit"),
        }
    }

    /// Per-slot noise with standard deviation `units · sqrt(N) / scale` in
    /// the value domain — the shape of CKKS embedding noise.
    fn inject_noise(&mut self, values: &mut [f64], units: f64, scale: f64) {
        if self.noise_stddev == 0.0 || units == 0.0 {
            return;
        }
        let sd = units * (self.degree as f64).sqrt() / scale;
        let noise = crate::sampling::gaussian_f64(&mut self.rng, values.len(), sd);
        for (v, e) in values.iter_mut().zip(noise) {
            *v += e;
        }
    }

    fn check_scales(a: f64, b: f64) -> Result<(), HisaError> {
        if (a / b - 1.0).abs() < 1e-6 {
            Ok(())
        } else {
            Err(HisaError::ScaleMismatch { left: a, right: b })
        }
    }

    /// `a + x` in every slot, `x` quantized at the ciphertext's scale.
    fn shifted(a: &SimCt, x: f64) -> SimCt {
        let q = (x * a.scale).round() / a.scale;
        let values = a.values.iter().map(|v| v + q).collect();
        SimCt { values, scale: a.scale, remaining: a.remaining.clone() }
    }

    /// Left rotation by a normalized step, composed from the key set.
    fn rotated(&mut self, c: &SimCt, step: usize) -> Result<SimCt, HisaError> {
        if step == 0 {
            return Ok(c.clone());
        }
        let plan = plan_rotation(step, &self.keys, self.slots).ok_or_else(|| {
            HisaError::MissingRotationKey { step, available: self.keys.iter().copied().collect() }
        })?;
        let mut out = c.clone();
        for s in plan {
            self.bump(HisaOp::Rotate);
            out.values.rotate_left(s);
            let units = self.noise_stddev;
            let scale = out.scale;
            self.inject_noise(&mut out.values, units, scale);
        }
        Ok(out)
    }

    fn rescaled(&mut self, c: &SimCt, divisor: f64) -> Result<SimCt, HisaError> {
        if divisor <= 1.0 {
            return Ok(c.clone());
        }
        self.bump(HisaOp::Rescale);
        let mut out = c.clone();
        out.scale = c.scale / divisor;
        out.remaining = match &c.remaining {
            Remaining::Pow2 { log_q } => {
                let consumed = divisor.log2();
                let left = log_q - consumed;
                if left < 1.0 {
                    return Err(HisaError::LevelExhausted {
                        remaining: log_q - 1.0,
                        requested: consumed,
                    });
                }
                Remaining::Pow2 { log_q: left }
            }
            Remaining::Chain { level } => {
                let mut lvl = *level;
                let mut d = divisor;
                while d > 1.5 {
                    if lvl <= 1 {
                        return Err(HisaError::LevelExhausted {
                            remaining: (*level - 1) as f64,
                            requested: (*level - lvl + 1) as f64,
                        });
                    }
                    lvl -= 1;
                    d /= self.chain[lvl] as f64;
                }
                Remaining::Chain { level: lvl }
            }
        };
        let units = self.noise_stddev;
        let scale = out.scale;
        self.inject_noise(&mut out.values, units, scale);
        Ok(out)
    }
}

fn zip(a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
    a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
}

impl Hisa for SimCkks {
    type Ct = SimCt;
    type Pt = SimPt;

    fn slots(&self) -> usize {
        self.slots
    }

    fn try_encode(&mut self, values: &[f64], scale: f64) -> Result<SimPt, HisaError> {
        if values.len() > self.slots {
            return Err(HisaError::SlotOverflow { len: values.len(), slots: self.slots });
        }
        self.bump(HisaOp::Encode);
        assert!(scale >= 1.0, "scale must be >= 1");
        let mut v = values.to_vec();
        v.resize(self.slots, 0.0);
        // Fixed-point quantization plus the canonical-embedding rounding
        // noise a real encoder incurs (~0.29·sqrt(N)/scale per slot).
        for x in v.iter_mut() {
            *x = (*x * scale).round() / scale;
        }
        if self.noise_stddev > 0.0 {
            let sd = 0.29 * (self.degree as f64).sqrt() / scale;
            let noise = crate::sampling::gaussian_f64(&mut self.rng, v.len(), sd);
            for (x, e) in v.iter_mut().zip(noise) {
                *x += e;
            }
        }
        Ok(SimPt { values: v, scale })
    }

    fn decode(&mut self, p: &SimPt) -> Vec<f64> {
        p.values.clone()
    }

    fn encrypt(&mut self, p: &SimPt) -> SimCt {
        let mut values = p.values.clone();
        let scale = p.scale;
        let units = self.noise_stddev;
        self.inject_noise(&mut values, units, scale);
        SimCt { values, scale, remaining: self.fresh_remaining() }
    }

    fn decrypt(&mut self, c: &SimCt) -> SimPt {
        SimPt { values: c.values.clone(), scale: c.scale }
    }

    fn try_exec(&mut self, instr: Instr<'_, SimCt, SimPt>) -> Result<SimCt, HisaError> {
        // Rescale counts only when it divides (see `rescaled`).
        if !matches!(instr, Instr::Rescale(..)) {
            self.bump(instr.op());
        }
        Ok(match instr {
            Instr::Add(a, b) | Instr::Sub(a, b) => {
                Self::check_scales(a.scale, b.scale)?;
                let values = if let Instr::Add(..) = instr {
                    zip(&a.values, &b.values, |x, y| x + y)
                } else {
                    zip(&a.values, &b.values, |x, y| x - y)
                };
                SimCt { values, scale: a.scale, remaining: self.meet(&a.remaining, &b.remaining) }
            }
            Instr::AddPlain(a, p) | Instr::SubPlain(a, p) => {
                Self::check_scales(a.scale, p.scale)?;
                let values = if let Instr::AddPlain(..) = instr {
                    zip(&a.values, &p.values, |x, y| x + y)
                } else {
                    zip(&a.values, &p.values, |x, y| x - y)
                };
                SimCt { values, scale: a.scale, remaining: a.remaining.clone() }
            }
            Instr::AddScalar(a, x) => Self::shifted(a, x),
            Instr::SubScalar(a, x) => Self::shifted(a, -x),
            Instr::Mul(a, b) => {
                let values = zip(&a.values, &b.values, |x, y| x * y);
                let scale = a.scale * b.scale;
                let mut out =
                    SimCt { values, scale, remaining: self.meet(&a.remaining, &b.remaining) };
                let units = self.noise_stddev;
                self.inject_noise(&mut out.values, units, scale.sqrt());
                out
            }
            Instr::MulPlain(a, p) => {
                let values = zip(&a.values, &p.values, |x, y| x * y);
                SimCt { values, scale: a.scale * p.scale, remaining: a.remaining.clone() }
            }
            Instr::MulScalar(a, x, scale) => {
                assert!(scale >= 1.0, "scalar scale must be >= 1");
                let q = (x * scale).round() / scale;
                let values = a.values.iter().map(|v| v * q).collect();
                SimCt { values, scale: a.scale * scale, remaining: a.remaining.clone() }
            }
            Instr::Rescale(c, divisor) => self.rescaled(c, divisor)?,
        })
    }

    fn try_rotate(
        &mut self,
        c: &SimCt,
        dir: RotDir,
        steps: &[usize],
    ) -> Result<Vec<SimCt>, HisaError> {
        steps.iter().map(|&x| self.rotated(c, dir.normalize(x, self.slots))).collect()
    }

    fn max_rescale(&mut self, c: &SimCt, ub: f64) -> f64 {
        if ub < 2.0 {
            return 1.0;
        }
        match &c.remaining {
            Remaining::Pow2 { log_q } => {
                // Largest power of two <= ub that keeps the modulus alive.
                let k = ub.log2().floor().min(log_q - 1.0);
                if k < 1.0 {
                    1.0
                } else {
                    2f64.powi(k as i32)
                }
            }
            Remaining::Chain { level } => {
                let mut prod = 1.0f64;
                let mut lvl = *level;
                while lvl > 1 {
                    let p = self.chain[lvl - 1] as f64;
                    if prod * p > ub {
                        break;
                    }
                    prod *= p;
                    lvl -= 1;
                }
                prod
            }
        }
    }

    fn scale_of(&self, c: &SimCt) -> f64 {
        c.scale
    }

    /// Forks a child simulator for one fan-out job. The child's RNG seed is
    /// drawn from the parent stream, so the randomness split depends only on
    /// program order (fork #0, fork #1, …) — never on thread scheduling.
    fn fork(&mut self) -> Option<Self> {
        use rand::RngCore;
        let child_seed = self.rng.next_u64();
        Some(SimCkks {
            slots: self.slots,
            degree: self.degree,
            modulus: self.modulus.clone(),
            chain: Arc::clone(&self.chain),
            keys: self.keys.clone(),
            noise_stddev: self.noise_stddev,
            rng: StdRng::seed_from_u64(child_seed),
            counters: HashMap::new(),
        })
    }

    /// Folds a child's op counters back into the parent so `op_count` sees
    /// work done inside parallel regions.
    fn join(&mut self, child: Self) {
        for (op, n) in child.counters {
            *self.counters.entry(op).or_insert(0) += n;
        }
    }

    fn available_rotations(&self) -> Option<std::collections::BTreeSet<usize>> {
        Some(self.keys.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chet_hisa::params::EncryptionParams;

    fn enc(h: &mut SimCkks, vals: &[f64], scale: f64) -> SimCt {
        let pt = h.try_encode(vals, scale).unwrap();
        h.encrypt(&pt)
    }

    fn dec(h: &mut SimCkks, ct: &SimCt) -> Vec<f64> {
        let pt = h.decrypt(ct);
        h.decode(&pt)
    }

    fn sim(chain_len: usize) -> SimCkks {
        let params = EncryptionParams::rns_ckks(8192, 40, chain_len);
        SimCkks::new(&params, &RotationKeyPolicy::PowersOfTwo, 42).without_noise()
    }

    fn sim_pow2(log_q: u32) -> SimCkks {
        let params = EncryptionParams::ckks(8192, log_q);
        SimCkks::new(&params, &RotationKeyPolicy::PowersOfTwo, 42).without_noise()
    }

    const S: f64 = (1u64 << 30) as f64;

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let mut h = sim(3);
        let pt = h.try_encode(&[1.0, -2.5, 3.25], S).unwrap();
        let ct = h.encrypt(&pt);
        let out = dec(&mut h, &ct);
        assert_eq!(&out[..3], &[1.0, -2.5, 3.25]);
    }

    #[test]
    fn mul_then_rescale_restores_scale() {
        let mut h = sim(3);
        let a = enc(&mut h, &[2.0], S);
        let b = enc(&mut h, &[3.0], S);
        let c = h.try_mul(&a, &b).unwrap();
        assert_eq!(h.scale_of(&c), S * S);
        let d = h.max_rescale(&c, S * S); // one ~40-bit prime fits
        assert!(d > 1.0);
        let c = h.try_rescale(&c, d).unwrap();
        assert!(h.scale_of(&c) < S * 4.0);
        let out = dec(&mut h, &c);
        assert!((out[0] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn chain_exhaustion_panics() {
        let mut h = sim(2);
        let a = enc(&mut h, &[1.0], S);
        let d1 = h.max_rescale(&a, 2f64.powi(45));
        let a = h.try_rescale(&a, d1).unwrap();
        // Only one prime left: no further rescale possible.
        let d2 = h.max_rescale(&a, 2f64.powi(45));
        assert_eq!(d2, 1.0);
    }

    #[test]
    #[should_panic(expected = "modulus exhausted")]
    fn pow2_exhaustion_panics() {
        let mut h = sim_pow2(60);
        let a = enc(&mut h, &[1.0], S);
        let a = h.try_rescale(&a, 2f64.powi(30)).unwrap();
        // 0 bits left -> panic
        let _ = h.try_rescale(&a, 2f64.powi(30)).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn pow2_max_rescale_is_power_of_two() {
        let mut h = sim_pow2(200);
        let a = enc(&mut h, &[1.0], S);
        let d = h.max_rescale(&a, 3.9e9); // between 2^31 and 2^32
        assert_eq!(d, 2f64.powi(31));
    }

    #[test]
    fn rotation_follows_key_plan() {
        let params = EncryptionParams::rns_ckks(8192, 40, 2);
        // Exact key for 5 only.
        let policy = RotationKeyPolicy::Exact([5usize].into_iter().collect());
        let mut h = SimCkks::new(&params, &policy, 1).without_noise();
        let vals: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let ct = enc(&mut h, &vals, S);
        let r = h.try_rot_left(&ct, 5).unwrap();
        assert_eq!(h.op_count(HisaOp::Rotate), 1);
        let out = dec(&mut h, &r);
        assert_eq!(out[0], 5.0);
        assert_eq!(out[2], 7.0);
    }

    #[test]
    fn composite_rotation_counts_multiple_ops() {
        let mut h = sim(2); // power-of-two keys
        let ct = enc(&mut h, &[0.0; 8], S);
        let _ = h.try_rot_left(&ct, 7).unwrap(); // 4 + 2 + 1
        assert_eq!(h.op_count(HisaOp::Rotate), 3);
    }

    #[test]
    #[should_panic(expected = "no rotation-key plan")]
    fn missing_key_panics() {
        let params = EncryptionParams::rns_ckks(8192, 40, 2);
        let policy = RotationKeyPolicy::Exact([4usize].into_iter().collect());
        let mut h = SimCkks::new(&params, &policy, 1);
        let ct = enc(&mut h, &[0.0], S);
        let _ = h.try_rot_left(&ct, 3).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn rot_right_is_inverse_of_rot_left() {
        let mut h = sim(2);
        let vals: Vec<f64> = (0..16).map(|i| (i * i) as f64).collect();
        let ct = enc(&mut h, &vals, S);
        let r = h.try_rot_left(&ct, 6).unwrap();
        let rr = h.try_rot_right(&r, 6).unwrap();
        let out = dec(&mut h, &rr);
        assert_eq!(&out[..16], &vals[..]);
    }

    #[test]
    #[should_panic(expected = "scales must match")]
    fn mismatched_add_scales_panic() {
        let mut h = sim(2);
        let a = enc(&mut h, &[1.0], S);
        let b = enc(&mut h, &[1.0], S * 2.0);
        let _ = h.try_add(&a, &b).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn scalar_ops_track_scale() {
        let mut h = sim(3);
        let a = enc(&mut h, &[4.0], S);
        let b = h.try_mul_scalar(&a, 0.5, S).unwrap();
        assert_eq!(h.scale_of(&b), S * S);
        let c = h.try_add_scalar(&b, 1.0).unwrap();
        let out = dec(&mut h, &c);
        assert!((out[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn fallible_surface_returns_errors_instead_of_panicking() {
        use chet_hisa::HisaError;

        // Slot overflow on encode.
        let mut h = sim(2);
        let too_many = vec![0.0; h.slots() + 1];
        assert!(matches!(
            h.try_encode(&too_many, S),
            Err(HisaError::SlotOverflow { len, slots }) if len == slots + 1
        ));

        // Missing rotation key.
        let params = EncryptionParams::rns_ckks(8192, 40, 2);
        let policy = RotationKeyPolicy::Exact([4usize].into_iter().collect());
        let mut h = SimCkks::new(&params, &policy, 1);
        let ct = enc(&mut h, &[0.0], S);
        assert!(matches!(
            h.try_rot_left(&ct, 3),
            Err(HisaError::MissingRotationKey { step: 3, .. })
        ));

        // Scale mismatch on add.
        let mut h = sim(2);
        let a = enc(&mut h, &[1.0], S);
        let b = enc(&mut h, &[1.0], S * 2.0);
        assert!(matches!(h.try_add(&a, &b), Err(HisaError::ScaleMismatch { .. })));

        // Level exhaustion on rescale (both modulus models).
        let mut h = sim_pow2(60);
        let a = enc(&mut h, &[1.0], S);
        let a = h.try_rescale(&a, 2f64.powi(30)).unwrap();
        assert!(matches!(
            h.try_rescale(&a, 2f64.powi(30)),
            Err(HisaError::LevelExhausted { .. })
        ));
        let mut h = sim(2);
        let a = enc(&mut h, &[1.0], S);
        let d1 = h.max_rescale(&a, 2f64.powi(45));
        let a = h.try_rescale(&a, d1).unwrap();
        assert!(matches!(
            h.try_rescale(&a, 2f64.powi(40)),
            Err(HisaError::LevelExhausted { .. })
        ));
    }

    #[test]
    fn available_rotations_reports_key_steps() {
        let params = EncryptionParams::rns_ckks(8192, 40, 2);
        let policy = RotationKeyPolicy::Exact([5usize, 9].into_iter().collect());
        let h = SimCkks::new(&params, &policy, 1);
        let avail = h.available_rotations().expect("sim has a key set");
        assert_eq!(avail, [5usize, 9].into_iter().collect());
    }

    #[test]
    fn noise_model_perturbs_but_preserves_precision() {
        let params = EncryptionParams::rns_ckks(8192, 40, 3);
        let mut h = SimCkks::new(&params, &RotationKeyPolicy::PowersOfTwo, 9);
        let pt = h.try_encode(&[1.5; 16], (1u64 << 35) as f64).unwrap();
        let ct = h.encrypt(&pt);
        let out = dec(&mut h, &ct);
        let err = (out[0] - 1.5).abs();
        assert!(err > 0.0, "noise model should perturb slots");
        assert!(err < 1e-4, "noise should stay below fixed-point precision, got {err}");
    }
}
