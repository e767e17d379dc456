//! The HEAAN v1.0-style CKKS scheme (`Q = 2^L`) implementing the HISA.
//!
//! Key switching follows HEAAN: evaluation keys live modulo `P·Q` for a
//! power-of-two special modulus `P = 2^log_p`, and switching divides by `P`
//! with rounding. Rescaling divides by arbitrary powers of two, which is the
//! variant's defining flexibility (paper §2.3: in CKKS the divisor must be a
//! power of two).

use super::poly::{BigMultiplier, BigPoly};
use crate::encoding::CkksEncoder;
use chet_hisa::keys::{plan_rotation, RotationKeyPolicy};
use chet_hisa::params::{EncryptionParams, ModulusSpec};
use chet_hisa::{Hisa, HisaError, Instr, RotDir};
use chet_math::bigint::UBig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};

/// A CKKS ciphertext over `Z_{2^l}`: component polynomials carry the
/// current modulus, plus the fixed-point scale.
#[derive(Debug, Clone)]
pub struct BigCiphertext {
    c0: BigPoly,
    c1: BigPoly,
    scale: f64,
}

impl BigCiphertext {
    /// Remaining modulus bits.
    pub fn log_q(&self) -> u32 {
        self.c0.log_q
    }

    /// Current fixed-point scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

/// An encoded plaintext (kept at the maximum modulus, with exact
/// coefficients for decoding).
#[derive(Debug, Clone)]
pub struct BigPlaintext {
    poly: BigPoly,
    scale: f64,
    coeffs: Vec<f64>,
}

/// The HEAAN-style CKKS scheme instance.
pub struct BigCkks {
    degree: usize,
    log_q_max: u32,
    log_p: u32,
    encoder: CkksEncoder,
    mult: BigMultiplier,
    /// Ternary secret at modulus `P·Q` (bound hint keeps products cheap).
    sk: BigPoly,
    pk: (BigPoly, BigPoly),
    relin: (BigPoly, BigPoly),
    galois: HashMap<usize, (BigPoly, BigPoly)>,
    key_steps: BTreeSet<usize>,
    error_stddev: f64,
    rng: StdRng,
}

impl std::fmt::Debug for BigCkks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BigCkks")
            .field("degree", &self.degree)
            .field("log_q_max", &self.log_q_max)
            .field("rotation_keys", &self.key_steps.len())
            .finish()
    }
}

impl BigCkks {
    /// Generates a full key set for power-of-two CKKS parameters.
    ///
    /// # Panics
    ///
    /// Panics if the parameters do not carry a power-of-two modulus.
    pub fn new(params: &EncryptionParams, policy: &RotationKeyPolicy, seed: u64) -> Self {
        let (log_q_max, log_p) = match params.modulus {
            ModulusSpec::PowerOfTwo { log_q, log_special } => (log_q, log_special),
            ModulusSpec::PrimeChain { .. } => panic!("BigCkks requires a power-of-two modulus"),
        };
        let degree = params.degree;
        let n = degree;
        let mut rng = StdRng::seed_from_u64(seed);
        // Worst product during key switching: ct (log_q_max bits) times an
        // evaluation key (log_q_max + log_p bits).
        let mult = BigMultiplier::new(n, 2 * log_q_max + log_p);
        let encoder = CkksEncoder::new(n);

        let sk_coeffs = crate::sampling::ternary(&mut rng, n);
        let mut sk = BigPoly::from_signed(&sk_coeffs, log_q_max + log_p);
        sk.bound_bits = Some(2);

        // pk = (−(a·s + e), a) mod 2^log_q_max.
        let a = Self::sample_uniform(&mut rng, n, log_q_max);
        let e = Self::sample_error(&mut rng, n, params.error_stddev, log_q_max);
        let sk_q = sk.mod_down_to(log_q_max);
        let pk0 = mult.mul(&a, &sk_q, log_q_max).add(&e).neg();
        let pk = (pk0, a);

        let mut scheme = BigCkks {
            degree,
            log_q_max,
            log_p,
            encoder,
            mult,
            sk,
            pk,
            relin: (BigPoly::zero(n, 1), BigPoly::zero(n, 1)),
            galois: HashMap::new(),
            key_steps: BTreeSet::new(),
            error_stddev: params.error_stddev,
            rng,
        };

        // Relinearization key encodes s².
        let s_sq = scheme.mult.mul(&scheme.sk, &scheme.sk, log_q_max + log_p);
        scheme.relin = scheme.gen_switch_key(&s_sq);

        let steps = policy.steps(degree / 2);
        for &step in &steps {
            let g = scheme.encoder.galois_element(step);
            let s_rot = scheme.sk.automorphism(g);
            let key = scheme.gen_switch_key(&s_rot);
            scheme.galois.insert(step, key);
        }
        scheme.key_steps = steps;
        scheme
    }

    fn sample_uniform(rng: &mut StdRng, n: usize, log_q: u32) -> BigPoly {
        let limbs = (log_q as usize).div_ceil(64);
        let mut p = BigPoly::zero(n, log_q);
        for c in p.coeffs.iter_mut() {
            let mut acc = UBig::zero();
            for i in 0..limbs {
                acc = acc.add(&UBig::from(rng.gen::<u64>()).shl_bits(64 * i as u32));
            }
            *c = acc.mask_bits(log_q);
        }
        p
    }

    fn sample_error(rng: &mut StdRng, n: usize, stddev: f64, log_q: u32) -> BigPoly {
        let e = crate::sampling::gaussian(rng, n, stddev);
        let mut p = BigPoly::from_signed(&e, log_q);
        p.bound_bits = Some(8);
        p
    }

    /// Builds an evaluation key encoding `s_from` for switching to `s`:
    /// `(−(a·s + e) + P·s_from, a) mod 2^(log_q_max + log_p)`.
    fn gen_switch_key(&mut self, s_from: &BigPoly) -> (BigPoly, BigPoly) {
        let lq = self.log_q_max + self.log_p;
        let a = Self::sample_uniform(&mut self.rng, self.degree, lq);
        let e = Self::sample_error(&mut self.rng, self.degree, self.error_stddev, lq);
        let mut shifted = s_from.clone();
        shifted.coeffs = shifted
            .coeffs
            .iter()
            .map(|c| {
                // Centered shift: represent P·(centered value) mod 2^lq.
                let q_from = UBig::pow2(s_from.log_q);
                let half = q_from.shr_bits(1);
                if c > &half {
                    UBig::pow2(lq).sub(&q_from.sub(c).shl_bits(self.log_p).mask_bits(lq))
                } else {
                    c.shl_bits(self.log_p).mask_bits(lq)
                }
            })
            .collect();
        shifted.log_q = lq;
        shifted.bound_bits = None;
        let b = self.mult.mul(&a, &self.sk, lq).add(&e).neg().add(&shifted);
        (b, a)
    }

    /// Switches a polynomial `t` (valid under `s_from`) to the scheme
    /// secret, returning the ciphertext pair contribution.
    fn switch_key(&self, t: &BigPoly, key: &(BigPoly, BigPoly)) -> (BigPoly, BigPoly) {
        let l = t.log_q;
        let lq = l + self.log_p;
        let k0 = key.0.mod_down_to(lq);
        let k1 = key.1.mod_down_to(lq);
        let d0 = self.mult.mul(t, &k0, lq).rescale_by_pow2(self.log_p);
        let d1 = self.mult.mul(t, &k1, lq).rescale_by_pow2(self.log_p);
        (d0, d1)
    }

    fn align(&self, a: &BigCiphertext, b: &BigCiphertext) -> (BigCiphertext, BigCiphertext) {
        let l = a.log_q().min(b.log_q());
        (self.to_level(a, l), self.to_level(b, l))
    }

    fn to_level(&self, c: &BigCiphertext, l: u32) -> BigCiphertext {
        if c.log_q() == l {
            return c.clone();
        }
        BigCiphertext { c0: c.c0.mod_down_to(l), c1: c.c1.mod_down_to(l), scale: c.scale }
    }

    fn check_scales(a: f64, b: f64) -> Result<(), HisaError> {
        if (a / b - 1.0).abs() < 1e-6 {
            Ok(())
        } else {
            Err(HisaError::ScaleMismatch { left: a, right: b })
        }
    }

    /// `a + x` in every slot, `x` quantized at the ciphertext's scale.
    fn shifted(a: &BigCiphertext, x: f64) -> BigCiphertext {
        let k = (x * a.scale).round();
        assert!(k.abs() < 9.0e18, "scalar too large for the current scale");
        let mut c0 = a.c0.clone();
        c0.add_constant(k as i64);
        BigCiphertext { c0, c1: a.c1.clone(), scale: a.scale }
    }

    fn rescaled(c: &BigCiphertext, divisor: f64) -> Result<BigCiphertext, HisaError> {
        if divisor <= 1.0 {
            return Ok(c.clone());
        }
        let k = divisor.log2();
        if (k - k.round()).abs() >= 1e-9 {
            return Err(HisaError::InvalidRescale {
                divisor,
                reason: "CKKS rescale divisor must be a power of two".into(),
            });
        }
        let k = k.round() as u32;
        // Rescaling must leave at least one modulus bit, or the ciphertext
        // silently degenerates (historically unchecked in this backend).
        if k >= c.log_q() {
            return Err(HisaError::LevelExhausted {
                remaining: (c.log_q() - 1) as f64,
                requested: k as f64,
            });
        }
        Ok(BigCiphertext {
            c0: c.c0.rescale_by_pow2(k),
            c1: c.c1.rescale_by_pow2(k),
            scale: c.scale / divisor,
        })
    }

    fn rotate_step(&mut self, ct: &BigCiphertext, step: usize) -> Result<BigCiphertext, HisaError> {
        let g = self.encoder.galois_element(step);
        let key = self
            .galois
            .get(&step)
            .ok_or_else(|| HisaError::MissingRotationKey {
                step,
                available: self.key_steps.iter().copied().collect(),
            })?
            .clone();
        let c0g = ct.c0.automorphism(g);
        let c1g = ct.c1.automorphism(g);
        let (ks0, ks1) = self.switch_key(&c1g, &key);
        Ok(BigCiphertext { c0: c0g.add(&ks0), c1: ks1, scale: ct.scale })
    }
}

impl Hisa for BigCkks {
    type Ct = BigCiphertext;
    type Pt = BigPlaintext;

    fn slots(&self) -> usize {
        self.degree / 2
    }

    fn try_encode(&mut self, values: &[f64], scale: f64) -> Result<BigPlaintext, HisaError> {
        if values.len() > self.degree / 2 {
            return Err(HisaError::SlotOverflow { len: values.len(), slots: self.degree / 2 });
        }
        let int_coeffs = self.encoder.encode(values, scale);
        let poly = BigPoly::from_signed(&int_coeffs, self.log_q_max);
        let coeffs = int_coeffs.iter().map(|&c| c as f64).collect();
        Ok(BigPlaintext { poly, scale, coeffs })
    }

    fn decode(&mut self, p: &BigPlaintext) -> Vec<f64> {
        self.encoder.decode(&p.coeffs, p.scale)
    }

    fn encrypt(&mut self, p: &BigPlaintext) -> BigCiphertext {
        let n = self.degree;
        let u_coeffs = crate::sampling::ternary(&mut self.rng, n);
        let mut u = BigPoly::from_signed(&u_coeffs, self.log_q_max);
        u.bound_bits = Some(2);
        let e0 = Self::sample_error(&mut self.rng, n, self.error_stddev, self.log_q_max);
        let e1 = Self::sample_error(&mut self.rng, n, self.error_stddev, self.log_q_max);
        let c0 = self.mult.mul(&self.pk.0, &u, self.log_q_max).add(&e0).add(&p.poly);
        let c1 = self.mult.mul(&self.pk.1, &u, self.log_q_max).add(&e1);
        BigCiphertext { c0, c1, scale: p.scale }
    }

    fn decrypt(&mut self, c: &BigCiphertext) -> BigPlaintext {
        let l = c.log_q();
        let sk_l = self.sk.mod_down_to(l);
        let m = self.mult.mul(&c.c1, &sk_l, l).add(&c.c0);
        let coeffs: Vec<f64> = (0..self.degree).map(|i| m.coeff_centered_f64(i)).collect();
        let int_coeffs: Vec<i64> =
            coeffs.iter().map(|&c| c.clamp(-9.0e18, 9.0e18) as i64).collect();
        let poly = BigPoly::from_signed(&int_coeffs, self.log_q_max);
        BigPlaintext { poly, scale: c.scale, coeffs }
    }

    fn try_exec(
        &mut self,
        instr: Instr<'_, BigCiphertext, BigPlaintext>,
    ) -> Result<BigCiphertext, HisaError> {
        Ok(match instr {
            Instr::Add(a, b) | Instr::Sub(a, b) => {
                Self::check_scales(a.scale, b.scale)?;
                let (x, y) = self.align(a, b);
                let (c0, c1) = if let Instr::Add(..) = instr {
                    (x.c0.add(&y.c0), x.c1.add(&y.c1))
                } else {
                    (x.c0.sub(&y.c0), x.c1.sub(&y.c1))
                };
                BigCiphertext { c0, c1, scale: x.scale }
            }
            Instr::AddPlain(a, p) | Instr::SubPlain(a, p) => {
                Self::check_scales(a.scale, p.scale)?;
                let pt = p.poly.mod_down_to(a.log_q());
                let c0 =
                    if let Instr::AddPlain(..) = instr { a.c0.add(&pt) } else { a.c0.sub(&pt) };
                BigCiphertext { c0, c1: a.c1.clone(), scale: a.scale }
            }
            Instr::AddScalar(a, x) => Self::shifted(a, x),
            Instr::SubScalar(a, x) => Self::shifted(a, -x),
            Instr::Mul(a, b) => {
                let (x, y) = self.align(a, b);
                let l = x.log_q();
                let d0 = self.mult.mul(&x.c0, &y.c0, l);
                let d1 = self.mult.mul(&x.c0, &y.c1, l).add(&self.mult.mul(&x.c1, &y.c0, l));
                let d2 = self.mult.mul(&x.c1, &y.c1, l);
                let (ks0, ks1) = self.switch_key(&d2, &self.relin.clone());
                BigCiphertext { c0: d0.add(&ks0), c1: d1.add(&ks1), scale: x.scale * y.scale }
            }
            Instr::MulPlain(a, p) => {
                let mut pt = p.poly.mod_down_to(a.log_q());
                pt.bound_bits = Some(63);
                BigCiphertext {
                    c0: self.mult.mul(&a.c0, &pt, a.log_q()),
                    c1: self.mult.mul(&a.c1, &pt, a.log_q()),
                    scale: a.scale * p.scale,
                }
            }
            Instr::MulScalar(a, x, scale) => {
                assert!(scale >= 1.0, "scalar scale must be >= 1");
                let k = (x * scale).round();
                assert!(k.abs() < 9.0e18, "scalar too large for the requested scale");
                BigCiphertext {
                    c0: a.c0.mul_scalar(k as i64),
                    c1: a.c1.mul_scalar(k as i64),
                    scale: a.scale * scale,
                }
            }
            Instr::Rescale(c, divisor) => Self::rescaled(c, divisor)?,
        })
    }

    fn try_rotate(
        &mut self,
        c: &BigCiphertext,
        dir: RotDir,
        steps: &[usize],
    ) -> Result<Vec<BigCiphertext>, HisaError> {
        let slots = self.slots();
        let mut out = Vec::with_capacity(steps.len());
        for &x in steps {
            let step = dir.normalize(x, slots);
            let mut cur = c.clone();
            if step != 0 {
                let plan = plan_rotation(step, &self.key_steps, slots).ok_or_else(|| {
                    HisaError::MissingRotationKey {
                        step,
                        available: self.key_steps.iter().copied().collect(),
                    }
                })?;
                for s in plan {
                    cur = self.rotate_step(&cur, s)?;
                }
            }
            out.push(cur);
        }
        Ok(out)
    }

    fn max_rescale(&mut self, c: &BigCiphertext, ub: f64) -> f64 {
        if ub < 2.0 {
            return 1.0;
        }
        let k = ub.log2().floor().min(c.log_q() as f64 - 1.0);
        if k < 1.0 {
            1.0
        } else {
            2f64.powi(k as i32)
        }
    }

    fn scale_of(&self, c: &BigCiphertext) -> f64 {
        c.scale
    }

    fn available_rotations(&self) -> Option<BTreeSet<usize>> {
        Some(self.key_steps.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chet_hisa::SecurityLevel;

    const SCALE: f64 = (1u64 << 30) as f64;

    fn scheme() -> BigCkks {
        let mut params = EncryptionParams::ckks(1024, 120).with_security(SecurityLevel::Insecure);
        params.modulus = ModulusSpec::PowerOfTwo { log_q: 120, log_special: 140 };
        BigCkks::new(&params, &RotationKeyPolicy::PowersOfTwo, 777)
    }

    fn enc(h: &mut BigCkks, vals: &[f64]) -> BigCiphertext {
        let pt = h.try_encode(vals, SCALE).unwrap();
        h.encrypt(&pt)
    }

    fn dec(h: &mut BigCkks, ct: &BigCiphertext) -> Vec<f64> {
        let pt = h.decrypt(ct);
        h.decode(&pt)
    }

    fn assert_close(got: &[f64], want: &[f64], tol: f64) {
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            assert!((g - w).abs() < tol, "slot {i}: got {g}, want {w}");
        }
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let mut h = scheme();
        let vals = [1.5, -2.25, 3.0, 42.0];
        let ct = enc(&mut h, &vals);
        assert_close(&dec(&mut h, &ct)[..4], &vals, 1e-3);
    }

    #[test]
    fn addition_and_subtraction() {
        let mut h = scheme();
        let a = enc(&mut h, &[1.0, 2.0]);
        let b = enc(&mut h, &[0.5, -4.0]);
        let s = h.try_add(&a, &b).unwrap();
        assert_close(&dec(&mut h, &s)[..2], &[1.5, -2.0], 1e-3);
        let d = h.try_sub(&s, &b).unwrap();
        assert_close(&dec(&mut h, &d)[..2], &[1.0, 2.0], 1e-3);
    }

    #[test]
    fn multiplication_and_rescale() {
        let mut h = scheme();
        let a = enc(&mut h, &[3.0, -2.0]);
        let b = enc(&mut h, &[2.0, 2.5]);
        let c = h.try_mul(&a, &b).unwrap();
        let d = h.max_rescale(&c, SCALE * SCALE);
        assert_eq!(d, SCALE * SCALE); // ub itself is a legal power of two
        let c = h.try_rescale(&c, SCALE).unwrap(); // bring back to SCALE
        assert_close(&dec(&mut h, &c)[..2], &[6.0, -5.0], 1e-2);
    }

    #[test]
    fn plaintext_and_scalar_mul() {
        let mut h = scheme();
        let a = enc(&mut h, &[1.0, 2.0, 3.0]);
        let p = h.try_encode(&[2.0, -1.0, 0.5], SCALE).unwrap();
        let c = h.try_mul_plain(&a, &p).unwrap();
        let c = h.try_rescale(&c, SCALE).unwrap();
        assert_close(&dec(&mut h, &c)[..3], &[2.0, -2.0, 1.5], 1e-2);
        let s = h.try_mul_scalar(&a, 0.25, SCALE).unwrap();
        let s = h.try_rescale(&s, SCALE).unwrap();
        assert_close(&dec(&mut h, &s)[..3], &[0.25, 0.5, 0.75], 1e-2);
    }

    #[test]
    fn rotations() {
        let mut h = scheme();
        let vals: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let ct = enc(&mut h, &vals);
        let r = h.try_rot_left(&ct, 3).unwrap();
        let out = dec(&mut h, &r);
        assert_close(&out[..4], &[3.0, 4.0, 5.0, 6.0], 1e-2);
        let r = h.try_rot_right(&ct, 1).unwrap();
        let out = dec(&mut h, &r);
        assert_close(&out[1..4], &[0.0, 1.0, 2.0], 1e-2);
    }

    #[test]
    fn scalar_add() {
        let mut h = scheme();
        let a = enc(&mut h, &[10.0]);
        let b = h.try_add_scalar(&a, -2.5).unwrap();
        assert_close(&dec(&mut h, &b)[..1], &[7.5], 1e-3);
    }

    #[test]
    fn depth_two_with_flexible_rescale() {
        // Rescale by a non-native amount (2^20), the CKKS flexibility.
        let mut h = scheme();
        let a = enc(&mut h, &[2.0]);
        let b = enc(&mut h, &[3.0]);
        let ab = h.try_mul(&a, &b).unwrap(); // scale 2^60
        let ab = h.try_rescale(&ab, 2f64.powi(20)).unwrap(); // scale 2^40
        let c = enc(&mut h, &[4.0]);
        let abc = h.try_mul(&ab, &c).unwrap(); // scale 2^70
        let out = dec(&mut h, &abc);
        assert!((out[0] - 24.0).abs() < 0.05, "got {}", out[0]);
    }

    #[test]
    fn max_rescale_respects_modulus() {
        let mut h = scheme();
        let a = enc(&mut h, &[1.0]);
        // modulus 120 bits: can't consume more than 119.
        let d = h.max_rescale(&a, 2f64.powi(127));
        assert_eq!(d, 2f64.powi(119));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_rescale_panics() {
        let mut h = scheme();
        let a = enc(&mut h, &[1.0]);
        let _ = h.try_rescale(&a, 3.0).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn fallible_surface_returns_errors() {
        let mut h = scheme();
        let a = enc(&mut h, &[1.0]);

        // Invalid divisor is an error, not a panic, on the try path.
        assert!(matches!(
            h.try_rescale(&a, 3.0),
            Err(HisaError::InvalidRescale { .. })
        ));

        // Consuming the whole modulus is level exhaustion (previously this
        // underflowed silently).
        assert!(matches!(
            h.try_rescale(&a, 2f64.powi(120)),
            Err(HisaError::LevelExhausted { remaining, requested })
                if remaining == 119.0 && requested == 120.0
        ));

        // Scale mismatch surfaces as a value.
        let b = {
            let pt = h.try_encode(&[1.0], SCALE * 2.0).unwrap();
            h.encrypt(&pt)
        };
        assert!(matches!(h.try_add(&a, &b), Err(HisaError::ScaleMismatch { .. })));

        // Missing rotation key.
        let mut params =
            EncryptionParams::ckks(1024, 120).with_security(SecurityLevel::Insecure);
        params.modulus = ModulusSpec::PowerOfTwo { log_q: 120, log_special: 140 };
        let policy = RotationKeyPolicy::Exact([4usize].into_iter().collect());
        let mut h = BigCkks::new(&params, &policy, 777);
        let ct = enc(&mut h, &[1.0]);
        assert!(matches!(
            h.try_rot_left(&ct, 3),
            Err(HisaError::MissingRotationKey { step: 3, .. })
        ));
    }
}
