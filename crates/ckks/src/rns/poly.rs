//! RNS ring elements: polynomials in `Z_Q[X]/(X^N + 1)` stored as one
//! residue vector per active modulus.
//!
//! Limb storage is recycled through the process-wide [`pool`]: `RnsPoly`
//! acquires its residue vectors from the pool and returns them on drop,
//! so steady-state evaluation allocates nothing.

use super::context::RnsContext;
use super::pool;
use chet_math::modint::{add_mod, neg_mod, sub_mod, Barrett, ShoupMul};
use chet_math::par;

/// A polynomial over a prefix of the modulus chain, optionally extended by
/// the special prime (only during key switching).
///
/// `data[i]` holds residues modulo `ctx.modulus(i)` for `i < level`; when
/// `special` is set, the last entry holds residues modulo the special prime.
#[derive(Debug)]
pub struct RnsPoly {
    /// Number of active chain primes.
    pub level: usize,
    /// Whether the special prime component is present (as the last entry).
    pub special: bool,
    /// Whether residues are in NTT (evaluation) form.
    pub ntt_form: bool,
    /// Residue vectors, one per active modulus.
    pub data: Vec<Vec<u64>>,
}

impl Clone for RnsPoly {
    fn clone(&self) -> Self {
        let data = self
            .data
            .iter()
            .map(|limb| {
                let mut out = pool::acquire_uninit(limb.len());
                out.copy_from_slice(limb);
                out
            })
            .collect();
        RnsPoly { level: self.level, special: self.special, ntt_form: self.ntt_form, data }
    }
}

impl Drop for RnsPoly {
    fn drop(&mut self) {
        for limb in self.data.drain(..) {
            pool::release(limb);
        }
    }
}

impl RnsPoly {
    /// Modulus index in the context for component `k` of this poly.
    fn mod_index(&self, ctx: &RnsContext, k: usize) -> usize {
        mod_index_of(self.special, self.data.len(), ctx, k)
    }

    /// The zero polynomial at `level` (plus special prime if requested).
    pub fn zero(ctx: &RnsContext, level: usize, special: bool, ntt_form: bool) -> Self {
        let comps = level + special as usize;
        RnsPoly {
            level,
            special,
            ntt_form,
            data: (0..comps).map(|_| pool::acquire_zeroed(ctx.degree())).collect(),
        }
    }

    /// An uninitialized polynomial at `level`: every limb is pool-acquired
    /// with arbitrary contents. Callers must overwrite every residue.
    pub(crate) fn uninit(ctx: &RnsContext, level: usize, special: bool, ntt_form: bool) -> Self {
        let comps = level + special as usize;
        RnsPoly {
            level,
            special,
            ntt_form,
            data: (0..comps).map(|_| pool::acquire_uninit(ctx.degree())).collect(),
        }
    }

    /// Lifts signed coefficients into residues at `level` (plus special if
    /// requested), in coefficient form.
    pub fn from_signed(ctx: &RnsContext, coeffs: &[i64], level: usize, special: bool) -> Self {
        assert_eq!(coeffs.len(), ctx.degree());
        let mut poly = RnsPoly::uninit(ctx, level, special, false);
        let comps = poly.data.len();
        par::par_iter_mut(&mut poly.data, |k, comp| {
            let br = ctx.barrett(mod_index_of(special, comps, ctx, k));
            let q = br.modulus();
            for (c, &v) in comp.iter_mut().zip(coeffs) {
                // Both candidates, then a select: signs are random, so a
                // branch on them mispredicts half the time.
                let r = br.reduce(v.unsigned_abs());
                let neg = if r == 0 { 0 } else { q - r };
                *c = if v < 0 { neg } else { r };
            }
        });
        poly
    }

    /// Converts all components to NTT form.
    pub fn ntt_forward(&mut self, ctx: &RnsContext) {
        assert!(!self.ntt_form, "already in NTT form");
        let (special, comps) = (self.special, self.data.len());
        par::par_iter_mut(&mut self.data, |k, comp| {
            ctx.ntt(mod_index_of(special, comps, ctx, k)).forward(comp);
        });
        self.ntt_form = true;
    }

    /// Converts all components back to coefficient form.
    pub fn ntt_inverse(&mut self, ctx: &RnsContext) {
        assert!(self.ntt_form, "not in NTT form");
        let (special, comps) = (self.special, self.data.len());
        par::par_iter_mut(&mut self.data, |k, comp| {
            ctx.ntt(mod_index_of(special, comps, ctx, k)).inverse(comp);
        });
        self.ntt_form = false;
    }

    fn check_compatible(&self, other: &RnsPoly) {
        assert_eq!(self.level, other.level, "RNS level mismatch");
        assert_eq!(self.special, other.special, "special-prime presence mismatch");
        assert_eq!(self.ntt_form, other.ntt_form, "NTT form mismatch");
    }

    /// Compatibility for prefix ops: `other` may sit at a *higher* chain
    /// level — its first `self.data.len()` components align with ours.
    fn check_prefix_compatible(&self, other: &RnsPoly) {
        assert!(other.level >= self.level, "RNS level mismatch");
        assert!(!self.special && !other.special, "prefix ops are chain-only");
        assert_eq!(self.ntt_form, other.ntt_form, "NTT form mismatch");
    }

    /// `self += other`.
    pub fn add_assign(&mut self, ctx: &RnsContext, other: &RnsPoly) {
        self.check_compatible(other);
        let (special, comps) = (self.special, self.data.len());
        par::par_iter_mut(&mut self.data, |k, comp| {
            let q = ctx.modulus(mod_index_of(special, comps, ctx, k));
            for (a, &b) in comp.iter_mut().zip(&other.data[k]) {
                *a = add_mod(*a, b, q);
            }
        });
    }

    /// `self += other` where `other` may live at a higher level; only the
    /// aligned chain prefix is read. Lets ciphertext-plaintext ops reuse a
    /// full-level plaintext without cloning and truncating it first.
    pub fn add_assign_prefix(&mut self, ctx: &RnsContext, other: &RnsPoly) {
        self.check_prefix_compatible(other);
        par::par_iter_mut(&mut self.data, |k, comp| {
            let q = ctx.modulus(k);
            for (a, &b) in comp.iter_mut().zip(&other.data[k]) {
                *a = add_mod(*a, b, q);
            }
        });
    }

    /// `self -= other`.
    pub fn sub_assign(&mut self, ctx: &RnsContext, other: &RnsPoly) {
        self.check_compatible(other);
        let (special, comps) = (self.special, self.data.len());
        par::par_iter_mut(&mut self.data, |k, comp| {
            let q = ctx.modulus(mod_index_of(special, comps, ctx, k));
            for (a, &b) in comp.iter_mut().zip(&other.data[k]) {
                *a = sub_mod(*a, b, q);
            }
        });
    }

    /// `self -= other` with prefix alignment (see [`Self::add_assign_prefix`]).
    pub fn sub_assign_prefix(&mut self, ctx: &RnsContext, other: &RnsPoly) {
        self.check_prefix_compatible(other);
        par::par_iter_mut(&mut self.data, |k, comp| {
            let q = ctx.modulus(k);
            for (a, &b) in comp.iter_mut().zip(&other.data[k]) {
                *a = sub_mod(*a, b, q);
            }
        });
    }

    /// `self = -self`.
    pub fn neg_assign(&mut self, ctx: &RnsContext) {
        let (special, comps) = (self.special, self.data.len());
        par::par_iter_mut(&mut self.data, |k, comp| {
            let q = ctx.modulus(mod_index_of(special, comps, ctx, k));
            for a in comp.iter_mut() {
                *a = neg_mod(*a, q);
            }
        });
    }

    /// Pointwise product (both operands must be in NTT form).
    pub fn mul(&self, ctx: &RnsContext, other: &RnsPoly) -> RnsPoly {
        let mut out = self.clone();
        out.mul_assign(ctx, other);
        out
    }

    /// `self *= other` pointwise (NTT form).
    pub fn mul_assign(&mut self, ctx: &RnsContext, other: &RnsPoly) {
        self.check_compatible(other);
        assert!(self.ntt_form, "ring products require NTT form");
        let (special, comps) = (self.special, self.data.len());
        par::par_iter_mut(&mut self.data, |k, comp| {
            let br = ctx.barrett(mod_index_of(special, comps, ctx, k));
            for (a, &b) in comp.iter_mut().zip(&other.data[k]) {
                *a = br.mul(*a, b);
            }
        });
    }

    /// `self *= other` pointwise with prefix alignment (NTT form).
    pub fn mul_assign_prefix(&mut self, ctx: &RnsContext, other: &RnsPoly) {
        self.check_prefix_compatible(other);
        assert!(self.ntt_form, "ring products require NTT form");
        par::par_iter_mut(&mut self.data, |k, comp| {
            let br = ctx.barrett(k);
            for (a, &b) in comp.iter_mut().zip(&other.data[k]) {
                *a = br.mul(*a, b);
            }
        });
    }

    /// Multiplies every residue by a signed scalar.
    pub fn mul_scalar_assign(&mut self, ctx: &RnsContext, k_int: i128) {
        let (special, comps) = (self.special, self.data.len());
        par::par_iter_mut(&mut self.data, |k, comp| {
            let q = ctx.modulus(mod_index_of(special, comps, ctx, k));
            let kq = ShoupMul::new(((k_int % q as i128 + q as i128) % q as i128) as u64, q);
            for a in comp.iter_mut() {
                *a = kq.mul(*a, q);
            }
        });
    }

    /// Adds a signed scalar to every residue (used to add a constant
    /// polynomial to an NTT-form component set).
    pub fn add_scalar_all_slots_assign(&mut self, ctx: &RnsContext, k_int: i128) {
        for k in 0..self.data.len() {
            let q = ctx.modulus(self.mod_index(ctx, k));
            let kq = ((k_int % q as i128 + q as i128) % q as i128) as u64;
            for a in self.data[k].iter_mut() {
                *a = add_mod(*a, kq, q);
            }
        }
    }

    /// Applies the Galois automorphism `X → X^g` (coefficient form only).
    pub fn automorphism(&self, ctx: &RnsContext, g: usize) -> RnsPoly {
        assert!(!self.ntt_form, "apply automorphisms in coefficient form");
        let mut out = RnsPoly::uninit(ctx, self.level, self.special, false);
        let (special, comps) = (self.special, self.data.len());
        let n = ctx.degree();
        let m = 2 * n;
        par::par_iter_mut(&mut out.data, |k, comp| {
            let q = ctx.modulus(mod_index_of(special, comps, ctx, k));
            // k·g mod 2n is a bijection on [0, 2n) for odd g, so every
            // output index is written exactly once.
            for (i, &c) in self.data[k].iter().enumerate() {
                let idx = i * g % m;
                if idx < n {
                    comp[idx] = c;
                } else {
                    comp[idx - n] = neg_mod(c, q);
                }
            }
        });
        out
    }

    /// Applies a Galois automorphism directly in evaluation form via a
    /// precomputed slot permutation (see [`RnsContext::auto_perm`]):
    /// `out[i] = self[perm[i]]` on every component. Exact — NTT evaluation
    /// slots carry no signs, the automorphism just permutes them.
    pub fn permute_ntt(&self, ctx: &RnsContext, perm: &[u32]) -> RnsPoly {
        assert!(self.ntt_form, "slot permutation requires NTT form");
        assert_eq!(perm.len(), ctx.degree());
        let mut out = RnsPoly::uninit(ctx, self.level, self.special, true);
        par::par_iter_mut(&mut out.data, |k, comp| {
            let src = &self.data[k];
            for (o, &p) in comp.iter_mut().zip(perm) {
                *o = src[p as usize];
            }
        });
        out
    }

    /// Drops chain primes down to `new_level` (modulus switching without
    /// rescaling). Requires the special component to be absent.
    pub fn drop_to_level(&mut self, new_level: usize) {
        assert!(!self.special, "cannot drop levels while special prime is attached");
        assert!(new_level >= 1 && new_level <= self.level, "invalid target level");
        while self.data.len() > new_level {
            if let Some(limb) = self.data.pop() {
                pool::release(limb);
            }
        }
        self.level = new_level;
    }

    /// Detaches the last component and returns it (caller owns the buffer
    /// and is responsible for returning it to the pool).
    pub(crate) fn pop_component(&mut self) -> Option<Vec<u64>> {
        self.data.pop()
    }
}

/// Component-`k` modulus index for a poly with `comps` components.
/// (Free function so per-limb closures can use it without borrowing the
/// whole poly.)
#[inline]
fn mod_index_of(special: bool, comps: usize, ctx: &RnsContext, k: usize) -> usize {
    if special && k == comps - 1 {
        ctx.special_index()
    } else {
        k
    }
}

/// Centered base conversion of one residue: interprets `v mod q_src` as a
/// signed value in `(−q_src/2, q_src/2]` and reduces it modulo the
/// destination modulus.
#[inline]
pub fn centered_switch(v: u64, q_src: u64, dst: &Barrett) -> u64 {
    if v > q_src / 2 {
        // negative: −(q_src − v)
        let mag = dst.reduce(q_src - v);
        if mag == 0 {
            0
        } else {
            dst.modulus() - mag
        }
    } else {
        dst.reduce(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chet_hisa::params::EncryptionParams;

    fn ctx() -> RnsContext {
        RnsContext::new(&EncryptionParams::rns_ckks(1024, 40, 3))
    }

    #[test]
    fn from_signed_roundtrip_through_ntt() {
        let c = ctx();
        let coeffs: Vec<i64> = (0..1024).map(|i| (i as i64 % 17) - 8).collect();
        let mut p = RnsPoly::from_signed(&c, &coeffs, 3, true);
        let before = p.clone();
        p.ntt_forward(&c);
        p.ntt_inverse(&c);
        for k in 0..p.data.len() {
            assert_eq!(p.data[k], before.data[k]);
        }
    }

    #[test]
    fn from_signed_matches_euclidean_remainder() {
        let c = ctx();
        let q0 = c.modulus(0) as i64;
        let mut coeffs: Vec<i64> = vec![0, 1, -1, q0, -q0, q0 - 1, 1 - q0, 3 * q0 + 2];
        coeffs.extend([i64::MIN, i64::MIN + 1, i64::MAX, -3 * q0 - 2]);
        coeffs.resize(1024, -7);
        let p = RnsPoly::from_signed(&c, &coeffs, 3, true);
        for (k, limb) in p.data.iter().enumerate() {
            let q = c.modulus(if k == 3 { c.special_index() } else { k }) as i64;
            let want: Vec<u64> = coeffs.iter().map(|v| v.rem_euclid(q) as u64).collect();
            assert_eq!(limb, &want, "limb {k}");
        }
    }

    #[test]
    fn add_then_sub_is_identity() {
        let c = ctx();
        let a_coeffs: Vec<i64> = (0..1024).map(|i| i as i64 % 100).collect();
        let b_coeffs: Vec<i64> = (0..1024).map(|i| -(i as i64 % 50)).collect();
        let a = RnsPoly::from_signed(&c, &a_coeffs, 2, false);
        let b = RnsPoly::from_signed(&c, &b_coeffs, 2, false);
        let mut s = a.clone();
        s.add_assign(&c, &b);
        s.sub_assign(&c, &b);
        assert_eq!(s.data, a.data);
    }

    #[test]
    fn prefix_ops_match_truncated_ops() {
        let c = ctx();
        let a_coeffs: Vec<i64> = (0..1024).map(|i| i as i64 % 90 - 40).collect();
        let b_coeffs: Vec<i64> = (0..1024).map(|i| i as i64 % 70 - 30).collect();
        let a = RnsPoly::from_signed(&c, &a_coeffs, 2, false);
        let full = RnsPoly::from_signed(&c, &b_coeffs, 3, false); // higher level
        let mut truncated = full.clone();
        truncated.drop_to_level(2);

        let mut via_prefix = a.clone();
        via_prefix.add_assign_prefix(&c, &full);
        let mut via_trunc = a.clone();
        via_trunc.add_assign(&c, &truncated);
        assert_eq!(via_prefix.data, via_trunc.data);

        let mut via_prefix = a.clone();
        via_prefix.sub_assign_prefix(&c, &full);
        let mut via_trunc = a.clone();
        via_trunc.sub_assign(&c, &truncated);
        assert_eq!(via_prefix.data, via_trunc.data);

        let mut an = a.clone();
        an.ntt_forward(&c);
        let mut fln = full.clone();
        fln.ntt_forward(&c);
        let mut trn = truncated.clone();
        trn.ntt_forward(&c);
        let mut via_prefix = an.clone();
        via_prefix.mul_assign_prefix(&c, &fln);
        let mut via_trunc = an.clone();
        via_trunc.mul_assign(&c, &trn);
        assert_eq!(via_prefix.data, via_trunc.data);
    }

    #[test]
    fn neg_assign_is_additive_inverse() {
        let c = ctx();
        let coeffs: Vec<i64> = (0..1024).map(|i| i as i64 % 200 - 100).collect();
        let a = RnsPoly::from_signed(&c, &coeffs, 3, true);
        let mut n = a.clone();
        n.neg_assign(&c);
        let mut s = a.clone();
        s.add_assign(&c, &n);
        for comp in &s.data {
            assert!(comp.iter().all(|&x| x == 0));
        }
    }

    #[test]
    fn ntt_mul_matches_schoolbook_on_small_poly() {
        let c = ctx();
        // a = 3 + 2X, b = 1 − X  ⇒ ab = 3 − X − 2X²
        let mut ac = vec![0i64; 1024];
        ac[0] = 3;
        ac[1] = 2;
        let mut bc = vec![0i64; 1024];
        bc[0] = 1;
        bc[1] = -1;
        let mut a = RnsPoly::from_signed(&c, &ac, 1, false);
        let mut b = RnsPoly::from_signed(&c, &bc, 1, false);
        a.ntt_forward(&c);
        b.ntt_forward(&c);
        let mut prod = a.mul(&c, &b);
        prod.ntt_inverse(&c);
        let q = c.modulus(0);
        assert_eq!(prod.data[0][0], 3);
        assert_eq!(prod.data[0][1], q - 1);
        assert_eq!(prod.data[0][2], q - 2);
        assert!(prod.data[0][3..].iter().all(|&x| x == 0));
    }

    #[test]
    fn automorphism_permutes_with_signs() {
        let c = ctx();
        // m = X: sigma_g(X) = X^g; for g=5, X^5.
        let mut mc = vec![0i64; 1024];
        mc[1] = 1;
        let m = RnsPoly::from_signed(&c, &mc, 1, false);
        let out = m.automorphism(&c, 5);
        assert_eq!(out.data[0][5], 1);
        assert_eq!(out.data[0][1], 0);
        // High-degree wraparound picks up a sign: X^1023 -> X^{5115 mod 2048 = 1019}...
        let mut hc = vec![0i64; 1024];
        hc[1023] = 1;
        let h = RnsPoly::from_signed(&c, &hc, 1, false);
        let out = h.automorphism(&c, 5);
        // 1023*5 = 5115; 5115 mod 2048 = 1019 < 1024, even number of wraps -> positive
        assert_eq!(out.data[0][1019], 1);
    }

    #[test]
    fn ntt_domain_automorphism_matches_coefficient_domain() {
        // The tentpole identity: NTT(σ_g(x)) == permute(NTT(x)) for the
        // context's precomputed permutation tables.
        let c = ctx();
        let coeffs: Vec<i64> = (0..1024).map(|i| (i as i64 * 37) % 1000 - 500).collect();
        let x = RnsPoly::from_signed(&c, &coeffs, 3, true);
        for g in [5usize, 25, 2047, 1229] {
            let mut via_coeff = x.automorphism(&c, g);
            via_coeff.ntt_forward(&c);
            let mut xn = x.clone();
            xn.ntt_forward(&c);
            let via_perm = xn.permute_ntt(&c, &c.auto_perm(g));
            assert_eq!(via_coeff.data, via_perm.data, "g={g}");
            assert_eq!(via_coeff.level, via_perm.level);
            assert!(via_perm.ntt_form);
        }
    }

    #[test]
    fn scalar_mul_handles_negatives() {
        let c = ctx();
        let mut mc = vec![0i64; 1024];
        mc[0] = 7;
        let mut m = RnsPoly::from_signed(&c, &mc, 2, false);
        m.mul_scalar_assign(&c, -3);
        let q = c.modulus(0);
        assert_eq!(m.data[0][0], q - 21);
    }

    #[test]
    fn centered_switch_small_values() {
        let q_src = 1000003u64;
        let dst = Barrett::new(97);
        assert_eq!(centered_switch(5, q_src, &dst), 5);
        assert_eq!(centered_switch(q_src - 5, q_src, &dst), 97 - 5);
        assert_eq!(centered_switch(0, q_src, &dst), 0);
        assert_eq!(centered_switch(q_src - 97, q_src, &dst), 0);
    }

    #[test]
    fn drop_level_truncates() {
        let c = ctx();
        let mut p = RnsPoly::zero(&c, 3, false, true);
        p.drop_to_level(1);
        assert_eq!(p.level, 1);
        assert_eq!(p.data.len(), 1);
    }

    #[test]
    #[should_panic(expected = "level mismatch")]
    fn mixed_level_ops_panic() {
        let c = ctx();
        let a = RnsPoly::zero(&c, 2, false, true);
        let b = RnsPoly::zero(&c, 3, false, true);
        let mut a2 = a;
        a2.add_assign(&c, &b);
    }
}
