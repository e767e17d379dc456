//! Negacyclic number-theoretic transforms over `Z_q[X]/(X^N + 1)`.
//!
//! The forward transform maps coefficient vectors to evaluations at the odd
//! powers of a primitive `2N`-th root of unity `ψ`, so that pointwise
//! multiplication of transformed vectors realizes *negacyclic* convolution —
//! exactly the polynomial product in the CKKS ciphertext ring.
//!
//! The butterflies use Shoup multiplication with precomputed twiddles in
//! bit-reversed order (the layout popularized by Harvey and used by SEAL),
//! with Harvey's *lazy reduction* discipline: butterfly outputs are only
//! kept below `4q` (forward) / `2q` (inverse) and a single conditional
//! subtraction pass at the end of each transform restores canonical
//! residues. This removes two compare-and-subtract reductions per
//! butterfly and requires `q < 2^62` so `4q` fits in a `u64`.
//!
//! # 32-bit lanes for primes below `2^30`
//!
//! For `q < 2^30` ([`LANE_MODULUS_LIMIT`](crate::lanes::LANE_MODULUS_LIMIT))
//! the same lazy invariants bound every value the stages touch below
//! `4q < 2^32`:
//!
//! * forward: stage inputs `< 4q`; `u` is brought below `2q`, the lazy
//!   product `v < 2q`, and the outputs `u + v`, `u + 2q − v` are `< 4q`;
//! * inverse: stage inputs `< 2q`; the difference `u + 2q − v < 4q` feeds
//!   the lazy product, the sum is reduced below `2q`.
//!
//! Each Shoup product is then three 32×32→64-bit multiplies, exact in a
//! 64-bit lane, using the 32-bit Shoup quotient `⌊w·2^32/q⌋` — the top
//! half of the 64-bit quotient the tables already hold, so no extra
//! twiddle tables exist. The stage loop iterates slices (no per-index
//! bounds checks) with branch-free lazy reductions, and is compiled
//! portably and under AVX2 ([`crate::lanes`]); both builds, and the 64-bit
//! path, return the same canonical residues.

use crate::lanes::{self, is_lane_modulus};
use crate::modint::{add_mod, inv_mod, sub_mod, ShoupMul};
use crate::prime::primitive_root_2n;

/// Reverses the lowest `bits` bits of `x`.
#[inline]
pub fn bit_reverse(x: usize, bits: u32) -> usize {
    x.reverse_bits() >> (usize::BITS - bits)
}

/// Precomputed tables for the negacyclic NTT of a fixed `(q, n)` pair.
#[derive(Debug, Clone)]
pub struct NttTable {
    q: u64,
    n: usize,
    log_n: u32,
    /// ψ^bitrev(i) with Shoup precomputation.
    psi_rev: Vec<ShoupMul>,
    /// ψ^{-bitrev(i)} with Shoup precomputation.
    psi_inv_rev: Vec<ShoupMul>,
    /// n^{-1} mod q.
    n_inv: ShoupMul,
}

/// Error returned when an [`NttTable`] cannot be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NttError(String);

impl std::fmt::Display for NttError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot build NTT table: {}", self.0)
    }
}

impl std::error::Error for NttError {}

impl NttTable {
    /// Builds NTT tables for modulus `q` and power-of-two degree `n`.
    ///
    /// # Errors
    ///
    /// Returns an error if `n` is not a power of two or `q ≠ 1 mod 2n`.
    pub fn new(q: u64, n: usize) -> Result<Self, NttError> {
        if !n.is_power_of_two() || n < 2 {
            return Err(NttError(format!("degree {n} is not a power of two >= 2")));
        }
        if (q - 1) % (2 * n as u64) != 0 {
            return Err(NttError(format!("modulus {q} is not 1 mod {}", 2 * n)));
        }
        if q >= 1u64 << 62 {
            return Err(NttError(format!(
                "modulus {q} >= 2^62 leaves no lazy-reduction headroom"
            )));
        }
        let log_n = n.trailing_zeros();
        let psi = primitive_root_2n(q, n);
        let psi_inv = inv_mod(psi, q).expect("psi is invertible mod prime q");

        let mut psi_pow = vec![0u64; n];
        let mut psi_inv_pow = vec![0u64; n];
        psi_pow[0] = 1;
        psi_inv_pow[0] = 1;
        for i in 1..n {
            psi_pow[i] = crate::modint::mul_mod(psi_pow[i - 1], psi, q);
            psi_inv_pow[i] = crate::modint::mul_mod(psi_inv_pow[i - 1], psi_inv, q);
        }
        let mut psi_rev = Vec::with_capacity(n);
        let mut psi_inv_rev = Vec::with_capacity(n);
        for i in 0..n {
            let r = bit_reverse(i, log_n);
            psi_rev.push(ShoupMul::new(psi_pow[r], q));
            psi_inv_rev.push(ShoupMul::new(psi_inv_pow[r], q));
        }
        let n_inv = ShoupMul::new(inv_mod(n as u64, q).expect("n invertible"), q);
        Ok(NttTable { q, n, log_n, psi_rev, psi_inv_rev, n_inv })
    }

    /// The modulus this table was built for.
    pub fn modulus(&self) -> u64 {
        self.q
    }

    /// The transform length (ring degree).
    pub fn degree(&self) -> usize {
        self.n
    }

    /// In-place forward negacyclic NTT (coefficient → evaluation domain).
    ///
    /// Internally the Cooley–Tukey butterflies run lazily: values stay in
    /// `[0, 4q)` across stages (inputs to each butterfly are brought below
    /// `2q` with one conditional subtraction, the Shoup product of the
    /// second operand lands in `[0, 2q)` without its final reduction, and
    /// the sum/difference are formed as `u + v` / `u + 2q − v`). A single
    /// two-step reduction pass at the end restores canonical `[0, q)`
    /// residues, so callers observe the exact modular transform.
    ///
    /// Moduli below `2^30` run the 32-bit-lane stage loop (see the module
    /// docs), on its AVX2 build when the CPU has AVX2.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.degree()`.
    pub fn forward(&self, a: &mut [u64]) {
        self.forward_on(a, lanes::avx2());
    }

    fn forward_on(&self, a: &mut [u64], avx2: bool) {
        assert_eq!(a.len(), self.n, "input length must equal the ring degree");
        if !is_lane_modulus(self.q) {
            return forward_wide(a, &self.psi_rev, self.q);
        }
        #[cfg(target_arch = "x86_64")]
        if avx2 {
            // SAFETY: callers pass `avx2 = true` only when the CPU has AVX2.
            return unsafe { forward_lanes_avx2(a, &self.psi_rev, self.q) };
        }
        let _ = avx2;
        forward_lanes(a, &self.psi_rev, self.q);
    }

    /// In-place inverse negacyclic NTT (evaluation → coefficient domain).
    ///
    /// The Gentleman–Sande butterflies keep values in `[0, 2q)` (the sum
    /// takes one conditional subtraction of `2q`, the difference is fed
    /// through a lazy Shoup product), the final `n^{-1}` multiplication is
    /// also lazy, and one conditional subtraction per coefficient restores
    /// canonical residues. Moduli below `2^30` run the 32-bit-lane stage
    /// loop, like [`Self::forward`].
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.degree()`.
    pub fn inverse(&self, a: &mut [u64]) {
        self.inverse_on(a, lanes::avx2());
    }

    fn inverse_on(&self, a: &mut [u64], avx2: bool) {
        assert_eq!(a.len(), self.n, "input length must equal the ring degree");
        if !is_lane_modulus(self.q) {
            return inverse_wide(a, &self.psi_inv_rev, self.n_inv, self.q);
        }
        #[cfg(target_arch = "x86_64")]
        if avx2 {
            // SAFETY: callers pass `avx2 = true` only when the CPU has AVX2.
            return unsafe { inverse_lanes_avx2(a, &self.psi_inv_rev, self.n_inv, self.q) };
        }
        let _ = avx2;
        inverse_lanes(a, &self.psi_inv_rev, self.n_inv, self.q);
    }

    /// log2 of the transform length.
    pub fn log_degree(&self) -> u32 {
        self.log_n
    }
}

/// `x − m` if `x ≥ m`, else `x`.
#[inline(always)]
fn reduce_once(x: u64, m: u64) -> u64 {
    if x >= m {
        x - m
    } else {
        x
    }
}

/// Applies `bf(x, y, twiddle)` to every butterfly of one stage whose
/// blocks pair `t` values with the next `t`; `tw` holds one twiddle per
/// block. Stages with `t = 1` and `t = 2` run as one flat loop over
/// fixed-size chunks, so the compiler vectorizes across blocks instead of
/// leaving a scalar two-element inner loop per block.
#[inline(always)]
fn for_each_butterfly(
    a: &mut [u64],
    tw: &[ShoupMul],
    t: usize,
    mut bf: impl FnMut(&mut u64, &mut u64, &ShoupMul),
) {
    match t {
        1 => {
            for ([x, y], s) in a.as_chunks_mut::<2>().0.iter_mut().zip(tw) {
                bf(x, y, s);
            }
        }
        2 => {
            for ([x0, x1, y0, y1], s) in a.as_chunks_mut::<4>().0.iter_mut().zip(tw) {
                bf(x0, y0, s);
                bf(x1, y1, s);
            }
        }
        _ => {
            for (block, s) in a.chunks_exact_mut(2 * t).zip(tw) {
                let (lo, hi) = block.split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                    bf(x, y, s);
                }
            }
        }
    }
}

/// Forward stages for `q < 2^62`: 64×64→128-bit Shoup products.
fn forward_wide(a: &mut [u64], psi_rev: &[ShoupMul], q: u64) {
    let two_q = 2 * q;
    let n = a.len();
    let mut t = n;
    let mut m = 1usize;
    while m < n {
        t >>= 1;
        for_each_butterfly(a, &psi_rev[m..2 * m], t, |x, y, s| {
            // Invariant: a[*] < 4q on entry to every stage.
            let u = reduce_once(*x, two_q);
            let v = s.mul_lazy(*y, q);
            *x = u + v; // < 2q + 2q = 4q
            *y = u + two_q - v; // < 4q, > 0
        });
        m <<= 1;
    }
    for x in a.iter_mut() {
        *x = reduce_once(reduce_once(*x, two_q), q);
    }
}

/// Inverse stages for `q < 2^62`: 64×64→128-bit Shoup products.
fn inverse_wide(a: &mut [u64], psi_inv_rev: &[ShoupMul], n_inv: ShoupMul, q: u64) {
    let two_q = 2 * q;
    let mut t = 1usize;
    let mut m = a.len();
    while m > 1 {
        let h = m >> 1;
        for_each_butterfly(a, &psi_inv_rev[h..m], t, |x, y, s| {
            // Invariant: a[*] < 2q on entry to every stage.
            let (u, v) = (*x, *y);
            *x = reduce_once(u + v, two_q);
            *y = s.mul_lazy(u + two_q - v, q); // < 2q
        });
        t <<= 1;
        m = h;
    }
    for x in a.iter_mut() {
        *x = reduce_once(n_inv.mul_lazy(*x, q), q);
    }
}

/// Forward stages for `q < 2^30`: every lazy value is below `4q < 2^32`,
/// so each Shoup product is three 32×32→64-bit multiplies.
#[inline(always)]
fn forward_lanes(a: &mut [u64], psi_rev: &[ShoupMul], q: u64) {
    let two_q = 2 * q;
    let n = a.len();
    let mut t = n;
    let mut m = 1usize;
    while m < n {
        t >>= 1;
        for_each_butterfly(a, &psi_rev[m..2 * m], t, |x, y, s| {
            let u = lanes::reduce_once(*x, two_q);
            let v = lanes::mul_shoup_lazy(*y, s, q);
            *x = u + v;
            *y = u + two_q - v;
        });
        m <<= 1;
    }
    for x in a.iter_mut() {
        *x = lanes::reduce_once(lanes::reduce_once(*x, two_q), q);
    }
}

/// Inverse stages for `q < 2^30` (see [`forward_lanes`]).
#[inline(always)]
fn inverse_lanes(a: &mut [u64], psi_inv_rev: &[ShoupMul], n_inv: ShoupMul, q: u64) {
    let two_q = 2 * q;
    let mut t = 1usize;
    let mut m = a.len();
    while m > 1 {
        let h = m >> 1;
        for_each_butterfly(a, &psi_inv_rev[h..m], t, |x, y, s| {
            let (u, v) = (*x, *y);
            *x = lanes::reduce_once(u + v, two_q);
            *y = lanes::mul_shoup_lazy(u + two_q - v, s, q);
        });
        t <<= 1;
        m = h;
    }
    for x in a.iter_mut() {
        *x = lanes::reduce_once(lanes::mul_shoup_lazy(*x, &n_inv, q), q);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn forward_lanes_avx2(a: &mut [u64], psi_rev: &[ShoupMul], q: u64) {
    forward_lanes(a, psi_rev, q);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn inverse_lanes_avx2(a: &mut [u64], psi_inv_rev: &[ShoupMul], n_inv: ShoupMul, q: u64) {
    inverse_lanes(a, psi_inv_rev, n_inv, q);
}

/// Reference negacyclic convolution in `O(n^2)`, for testing and tiny sizes.
pub fn negacyclic_convolution_naive(a: &[u64], b: &[u64], q: u64) -> Vec<u64> {
    let n = a.len();
    assert_eq!(b.len(), n);
    let mut out = vec![0u64; n];
    for i in 0..n {
        if a[i] == 0 {
            continue;
        }
        for j in 0..n {
            let prod = crate::modint::mul_mod(a[i], b[j], q);
            let k = i + j;
            if k < n {
                out[k] = add_mod(out[k], prod, q);
            } else {
                out[k - n] = sub_mod(out[k - n], prod, q);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::ntt_primes;

    fn table(n: usize) -> NttTable {
        let q = ntt_primes(50, n, 1)[0];
        NttTable::new(q, n).unwrap()
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let t = table(256);
        let q = t.modulus();
        let mut a: Vec<u64> = (0..256).map(|i| (i as u64 * 7919) % q).collect();
        let orig = a.clone();
        t.forward(&mut a);
        assert_ne!(a, orig);
        t.inverse(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    fn pointwise_product_is_negacyclic_convolution() {
        let n = 64;
        let t = table(n);
        let q = t.modulus();
        let a: Vec<u64> = (0..n).map(|i| (i as u64 * 31 + 5) % q).collect();
        let b: Vec<u64> = (0..n).map(|i| (i as u64 * 17 + 3) % q).collect();
        let expect = negacyclic_convolution_naive(&a, &b, q);

        let mut fa = a.clone();
        let mut fb = b.clone();
        t.forward(&mut fa);
        t.forward(&mut fb);
        let mut fc: Vec<u64> = fa
            .iter()
            .zip(&fb)
            .map(|(&x, &y)| crate::modint::mul_mod(x, y, q))
            .collect();
        t.inverse(&mut fc);
        assert_eq!(fc, expect);
    }

    #[test]
    fn x_times_x_pow_nminus1_is_minus_one() {
        // X * X^{n-1} = X^n = -1 in the negacyclic ring.
        let n = 32;
        let t = table(n);
        let q = t.modulus();
        let mut a = vec![0u64; n];
        a[1] = 1;
        let mut b = vec![0u64; n];
        b[n - 1] = 1;
        let c = negacyclic_convolution_naive(&a, &b, q);
        assert_eq!(c[0], q - 1);
        assert!(c[1..].iter().all(|&x| x == 0));
    }

    #[test]
    fn rejects_bad_degree() {
        assert!(NttTable::new(97, 24).is_err());
    }

    #[test]
    fn rejects_non_ntt_modulus() {
        assert!(NttTable::new(97, 256).is_err());
    }

    #[test]
    fn bit_reverse_involution() {
        for bits in 1..12u32 {
            for x in 0..(1usize << bits) {
                assert_eq!(bit_reverse(bit_reverse(x, bits), bits), x);
            }
        }
    }

    /// Tiny deterministic generator for the property sweeps below.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 11
        }
    }

    #[test]
    fn lazy_roundtrip_across_random_primes_and_degrees() {
        // Forward/inverse round-trip over a spread of degrees and prime
        // sizes, exercising the lazy-reduction invariants with random
        // reduced inputs.
        let mut rng = Lcg(0xDEC0DE);
        for &n in &[4usize, 16, 64, 256, 1024] {
            for &bits in &[20u32, 30, 40, 50, 59] {
                let q = ntt_primes(bits, n, 1)[0];
                let t = NttTable::new(q, n).unwrap();
                let mut a: Vec<u64> = (0..n).map(|_| rng.next() % q).collect();
                let orig = a.clone();
                t.forward(&mut a);
                assert!(a.iter().all(|&x| x < q), "forward output not canonical");
                t.inverse(&mut a);
                assert_eq!(a, orig, "roundtrip failed for n={n}, q={q}");
            }
        }
    }

    #[test]
    fn lazy_pointwise_product_matches_naive_across_primes() {
        let mut rng = Lcg(0xFACADE);
        for &n in &[8usize, 32, 128] {
            for &bits in &[24u32, 40, 59] {
                let q = ntt_primes(bits, n, 1)[0];
                let t = NttTable::new(q, n).unwrap();
                let a: Vec<u64> = (0..n).map(|_| rng.next() % q).collect();
                let b: Vec<u64> = (0..n).map(|_| rng.next() % q).collect();
                let expect = negacyclic_convolution_naive(&a, &b, q);
                let mut fa = a.clone();
                let mut fb = b.clone();
                t.forward(&mut fa);
                t.forward(&mut fb);
                let mut fc: Vec<u64> = fa
                    .iter()
                    .zip(&fb)
                    .map(|(&x, &y)| crate::modint::mul_mod(x, y, q))
                    .collect();
                t.inverse(&mut fc);
                assert_eq!(fc, expect, "n={n}, q={q}");
            }
        }
    }

    #[test]
    fn lazy_handles_boundary_residues() {
        // Adversarial inputs saturated at the residue boundaries: all
        // zeros, all q−1, and alternating 0 / q−1 — the patterns that
        // maximize the intermediate magnitudes in the lazy butterflies.
        for &n in &[16usize, 256, 1024] {
            for &bits in &[40u32, 59] {
                let q = ntt_primes(bits, n, 1)[0];
                let t = NttTable::new(q, n).unwrap();
                let patterns: [Vec<u64>; 3] = [
                    vec![0u64; n],
                    vec![q - 1; n],
                    (0..n).map(|i| if i % 2 == 0 { 0 } else { q - 1 }).collect(),
                ];
                for p in &patterns {
                    let mut a = p.clone();
                    t.forward(&mut a);
                    assert!(a.iter().all(|&x| x < q), "non-canonical forward output");
                    t.inverse(&mut a);
                    assert_eq!(&a, p);
                    // Squaring the saturated polynomial must agree with the
                    // naive reference too (stresses the inverse transform
                    // with non-trivial evaluation values).
                    let expect = negacyclic_convolution_naive(p, p, q);
                    let mut f = p.clone();
                    t.forward(&mut f);
                    let mut sq: Vec<u64> =
                        f.iter().map(|&x| crate::modint::mul_mod(x, x, q)).collect();
                    t.inverse(&mut sq);
                    assert_eq!(sq, expect);
                }
            }
        }
    }

    /// The largest prime below `2^bits` that is `1 mod 2n`, if one exists
    /// in the top bit range.
    fn largest_ntt_prime(bits: u32, n: usize) -> Option<u64> {
        let m = 2 * n as u64;
        let top = (1u64 << bits) - 1;
        let mut c = top - (top - 1) % m;
        while c >= 1 << (bits - 1) {
            if crate::prime::is_prime(c) {
                return Some(c);
            }
            c -= m;
        }
        None
    }

    /// Every build of the small-prime stage loop the host can run: the
    /// portable build always, the AVX2 build when the CPU has AVX2.
    fn lane_builds() -> Vec<bool> {
        let mut builds = vec![false];
        if cfg!(target_arch = "x86_64") && lanes::avx2() {
            builds.push(true);
        }
        builds
    }

    #[test]
    fn lane_builds_match_naive_convolution_and_roundtrip() {
        let mut rng = Lcg(0x1A4E5);
        let degrees = [2usize, 4, 8, 32, 128, 512, 2048, 16384];
        for bits in (20u32..=30).rev() {
            for &n in &degrees {
                let Some(q) = largest_ntt_prime(bits, n) else { continue };
                assert!(is_lane_modulus(q));
                let t = NttTable::new(q, n).unwrap();
                // Dense random b; a dense for small n, sparse (with the
                // boundary residues) for large n so the O(n·nnz) naive
                // reference stays cheap.
                let b: Vec<u64> = (0..n).map(|_| rng.next() % q).collect();
                let a: Vec<u64> = if n <= 512 {
                    (0..n).map(|_| rng.next() % q).collect()
                } else {
                    (0..n)
                        .map(|i| match i % (n / 8) {
                            0 => q - 1,
                            1 => rng.next() % q,
                            _ => 0,
                        })
                        .collect()
                };
                let want = negacyclic_convolution_naive(&a, &b, q);
                let patterns = [a.clone(), b.clone(), vec![0; n], vec![q - 1; n]];
                for avx2 in lane_builds() {
                    let (mut fa, mut fb) = (a.clone(), b.clone());
                    t.forward_on(&mut fa, avx2);
                    t.forward_on(&mut fb, avx2);
                    let mut fc: Vec<u64> = fa
                        .iter()
                        .zip(&fb)
                        .map(|(&x, &y)| crate::modint::mul_mod(x, y, q))
                        .collect();
                    t.inverse_on(&mut fc, avx2);
                    assert_eq!(fc, want, "convolution: avx2={avx2} q={q} n={n}");
                    for p in &patterns {
                        let mut x = p.clone();
                        t.forward_on(&mut x, avx2);
                        let mut wide = p.clone();
                        forward_wide(&mut wide, &t.psi_rev, q);
                        assert_eq!(x, wide, "forward vs 64-bit path: avx2={avx2} q={q} n={n}");
                        t.inverse_on(&mut x, avx2);
                        assert_eq!(&x, p, "roundtrip: avx2={avx2} q={q} n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn forward_output_order_is_bitrev_odd_powers() {
        // Pins the evaluation layout the RNS evaluator's NTT-domain
        // automorphism tables depend on: output slot `i` of the forward
        // transform holds `a(ψ^{2·bitrev(i)+1})`.
        let n = 32;
        let t = table(n);
        let q = t.modulus();
        let psi = crate::prime::primitive_root_2n(q, n);
        let a: Vec<u64> = (0..n).map(|i| (i as u64 * 131 + 7) % q).collect();
        let mut f = a.clone();
        t.forward(&mut f);
        let log_n = t.log_degree();
        for i in 0..n {
            let e = (2 * bit_reverse(i, log_n) as u64 + 1) % (2 * n as u64);
            let x = crate::modint::pow_mod(psi, e, q);
            // Naive evaluation of a at ψ^e.
            let mut acc = 0u64;
            let mut xp = 1u64;
            for &c in &a {
                acc = add_mod(acc, crate::modint::mul_mod(c, xp, q), q);
                xp = crate::modint::mul_mod(xp, x, q);
            }
            assert_eq!(f[i], acc, "slot {i}");
        }
    }
}
