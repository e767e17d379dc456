//! Lane kernels for residues modulo primes below 2^30.
//!
//! Below `2^30` every lazily reduced value stays under `4q < 2^32`, so the
//! products the RNS hot paths form are 32×32→64-bit multiplies held in
//! 64-bit lanes — the shape of x86's `pmuludq`. Each kernel here is one
//! `#[inline(always)]` loop compiled twice: a portable build, and a build
//! under `#[target_feature(enable = "avx2")]` that the compiler vectorizes
//! four lanes wide. [`avx2`] detects the CPU feature once per process and
//! every safe entry point dispatches on it; both builds compute the same
//! integers, so results never depend on the host.

use crate::modint::ShoupMul;
use std::sync::OnceLock;

/// Moduli below this bound take the 32-bit-lane kernels (here and in
/// [`crate::ntt`]); larger ones keep the 64-bit paths.
pub const LANE_MODULUS_LIMIT: u64 = 1 << 30;

/// Whether modulus `q` takes the 32-bit-lane kernels.
#[inline]
pub fn is_lane_modulus(q: u64) -> bool {
    q < LANE_MODULUS_LIMIT
}

/// Whether this CPU runs the AVX2 builds of the lane kernels (detected
/// once per process).
pub fn avx2() -> bool {
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// How many products of residues modulo `q < 2^32` a `u64` accumulator
/// holding a reduced partial sum (`< q`) can absorb without overflow:
/// the largest `m` with `(q − 1) + m·(q − 1)² ≤ 2^64 − 1`. At least 16 for
/// every `q < 2^30`.
///
/// # Panics
///
/// Panics if `q < 2` or `q > 2^32`.
pub fn u64_budget(q: u64) -> usize {
    assert!((2..=1u64 << 32).contains(&q), "u64 lanes need 2 <= q <= 2^32");
    let max = q - 1;
    ((u64::MAX - max) / (max * max)) as usize
}

/// `acc0[i] += d[i]·k0[i]` and `acc1[i] += d[i]·k1[i]` over equal-length
/// slices — the key-switch inner product's step for one digit, with the
/// key residues stored in the 32-bit words they fit (the AVX2 build
/// zero-extends them into 64-bit lanes).
///
/// Callers guarantee every `d` value is below `2^32` (the multiplies run
/// on its low 32 bits) and that the sums stay below `2^64` (see
/// [`u64_budget`]); debug builds check the latter.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn mul_acc_pair(acc0: &mut [u64], acc1: &mut [u64], d: &[u64], k0: &[u32], k1: &[u32]) {
    let n = acc0.len();
    assert!(acc1.len() == n && d.len() == n && k0.len() == n && k1.len() == n);
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: the CPU supports AVX2 (checked just above).
        unsafe { mul_acc_pair_avx2(acc0, acc1, d, k0, k1) };
        return;
    }
    mul_acc_pair_lanes(acc0, acc1, d, k0, k1);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn mul_acc_pair_avx2(acc0: &mut [u64], acc1: &mut [u64], d: &[u64], k0: &[u32], k1: &[u32]) {
    mul_acc_pair_lanes(acc0, acc1, d, k0, k1);
}

#[inline(always)]
fn mul_acc_pair_lanes(acc0: &mut [u64], acc1: &mut [u64], d: &[u64], k0: &[u32], k1: &[u32]) {
    let rows = acc0.iter_mut().zip(acc1.iter_mut()).zip(d.iter().zip(k0.iter().zip(k1)));
    for ((a0, a1), (&d, (&k0, &k1))) in rows {
        let d = u64::from(d as u32);
        *a0 += d * u64::from(k0);
        *a1 += d * u64::from(k1);
    }
}

/// Lazy Shoup product in a 32-bit lane: `a·w mod q` plus possibly one `q`,
/// for `a < 2^32` (only its low word is read) and `w = s.value < q < 2^30`.
/// The 32-bit Shoup quotient is the top half of the 64-bit one,
/// `⌊⌊w·2^64/q⌋ / 2^32⌋ = ⌊w·2^32/q⌋`, and the estimate `⌊a·w_shoup / 2^32⌋`
/// undershoots `⌊a·w / q⌋` by at most one, so the result is below `2q`.
#[inline(always)]
pub(crate) fn mul_shoup_lazy(a: u64, s: &ShoupMul, q: u64) -> u64 {
    let lane = |x: u64| u64::from(x as u32);
    let a = lane(a);
    let hi = (a * (s.quotient >> 32)) >> 32;
    // The difference is below 2q < 2^32, so only the low words of the
    // products matter — one 32×32 multiply each.
    lane((a * lane(s.value)).wrapping_sub(hi * lane(q)))
}

/// `x − m` if `x ≥ m`, else `x`, for `x, m < 2^63`, branch-free: the sign
/// bit of `x − m` selects (one blend per four lanes under AVX2).
#[inline(always)]
pub(crate) fn reduce_once(x: u64, m: u64) -> u64 {
    let d = x.wrapping_sub(m);
    if (d as i64) < 0 {
        x
    } else {
        d
    }
}

/// Base conversion with a centered lift: `dst[i]` is `src[i]` read as a
/// residue modulo `q_src` in `(−q_src/2, q_src/2]`, reduced modulo `q`.
/// Requires `q < 2^30`, `q_src < 2^62` and canonical `src`.
///
/// # Panics
///
/// Panics if the slice lengths differ or `q` is not a lane modulus.
pub fn centered_switch(dst: &mut [u64], src: &[u64], q_src: u64, q: u64) {
    assert!(dst.len() == src.len() && is_lane_modulus(q) && q_src < 1 << 62);
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: the CPU supports AVX2 (checked just above).
        unsafe { centered_switch_avx2(dst, src, q_src, q) };
        return;
    }
    centered_switch_lanes(dst, src, q_src, q);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn centered_switch_avx2(dst: &mut [u64], src: &[u64], q_src: u64, q: u64) {
    centered_switch_lanes(dst, src, q_src, q);
}

/// Splits the magnitude `m < 2^62` as `hi·2^32 + lo` and reduces
/// `hi·(2^32 mod q) + lo` with two lazy Shoup products (each `< 2q`).
#[inline(always)]
fn centered_switch_lanes(dst: &mut [u64], src: &[u64], q_src: u64, q: u64) {
    let (radix, one) = (ShoupMul::new((1 << 32) % q, q), ShoupMul::new(1, q));
    let half = (q_src / 2) as i64;
    for (d, &v) in dst.iter_mut().zip(src) {
        let negative = v as i64 > half;
        let m = if negative { q_src - v } else { v };
        let r = mul_shoup_lazy(m >> 32, &radix, q) + mul_shoup_lazy(m, &one, q);
        let r = reduce_once(reduce_once(r, 2 * q), q);
        *d = if negative { reduce_once(q - r, q) } else { r };
    }
}

/// `acc[i] ← (acc[i] − t[i])·w mod q` for canonical residues modulo
/// `q < 2^30` — the last step of dividing by a dropped modulus.
///
/// # Panics
///
/// Panics if the slice lengths differ or `q` is not a lane modulus.
pub fn sub_mul(acc: &mut [u64], t: &[u64], w: &ShoupMul, q: u64) {
    assert!(acc.len() == t.len() && is_lane_modulus(q));
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: the CPU supports AVX2 (checked just above).
        unsafe { sub_mul_avx2(acc, t, w, q) };
        return;
    }
    sub_mul_lanes(acc, t, w, q);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sub_mul_avx2(acc: &mut [u64], t: &[u64], w: &ShoupMul, q: u64) {
    sub_mul_lanes(acc, t, w, q);
}

#[inline(always)]
fn sub_mul_lanes(acc: &mut [u64], t: &[u64], w: &ShoupMul, q: u64) {
    for (a, &b) in acc.iter_mut().zip(t) {
        let d = reduce_once(a.wrapping_sub(b).wrapping_add(q), q);
        *a = reduce_once(mul_shoup_lazy(d, w, q), q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::ntt_primes;

    #[test]
    fn budget_is_exact_at_the_boundary() {
        for q in [3u64, 97, ntt_primes(20, 1024, 1)[0], ntt_primes(30, 32768, 1)[0], 1 << 32] {
            let m = u64_budget(q) as u128;
            let max = u128::from(q - 1);
            assert!(max + m * max * max <= u128::from(u64::MAX), "q={q}");
            assert!(max + (m + 1) * max * max > u128::from(u64::MAX), "q={q}");
        }
        assert!(u64_budget(LANE_MODULUS_LIMIT - 1) >= 16);
    }

    /// Every build of a kernel the host can run: `false` is the portable
    /// build, `true` the AVX2 build where the CPU has it.
    fn builds() -> Vec<bool> {
        let mut b = vec![false];
        if cfg!(target_arch = "x86_64") && avx2() {
            b.push(true);
        }
        b
    }

    #[test]
    fn centered_switch_and_sub_mul_builds_match_scalar_reference() {
        let mut x = 0x5EED_u64;
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 11
        };
        for q_src in [ntt_primes(30, 32768, 2)[1], ntt_primes(60, 32768, 1)[0]] {
            for q in [ntt_primes(20, 1024, 1)[0], ntt_primes(30, 32768, 1)[0]] {
                let half = q_src / 2;
                let mut src: Vec<u64> = (0..61).map(|_| next() % q_src).collect();
                src.extend([0, 1, half, half + 1, q_src - 1, q % q_src, q_src - 1 - q % q_src]);
                let want: Vec<u64> = src
                    .iter()
                    .map(|&v| if v > half { (q - (q_src - v) % q) % q } else { v % q })
                    .collect();
                let acc0: Vec<u64> = (0..src.len()).map(|_| next() % q).collect();
                let w = ShoupMul::new(next() % q, q);
                let want_acc: Vec<u64> = acc0
                    .iter()
                    .zip(&want)
                    .map(|(&a, &b)| crate::modint::mul_mod((a + q - b) % q, w.value, q))
                    .collect();
                for avx2 in builds() {
                    let mut dst = vec![0; src.len()];
                    let mut acc = acc0.clone();
                    match avx2 {
                        #[cfg(target_arch = "x86_64")]
                        // SAFETY: `builds` yields `true` only when the CPU has AVX2.
                        true => unsafe {
                            centered_switch_avx2(&mut dst, &src, q_src, q);
                            sub_mul_avx2(&mut acc, &dst, &w, q);
                        },
                        _ => {
                            centered_switch_lanes(&mut dst, &src, q_src, q);
                            sub_mul_lanes(&mut acc, &dst, &w, q);
                        }
                    }
                    assert_eq!(dst, want, "centered_switch avx2={avx2} q_src={q_src} q={q}");
                    assert_eq!(acc, want_acc, "sub_mul avx2={avx2} q_src={q_src} q={q}");
                }
            }
        }
    }

    #[test]
    fn mul_acc_pair_builds_agree_with_u128_reference() {
        let q = ntt_primes(30, 32768, 1)[0];
        let n = 37; // not a multiple of any vector width
        let d: Vec<u64> = (0..n as u64).map(|i| (q - 1 - i * 7919) % q).collect();
        // `u32` key residues: varied in `k0`, all at `q − 1` in `k1`, so
        // `acc1[0]` reaches the budget's worst case `m·(q − 1)²`.
        let k0: Vec<u32> = (0..n as u64).map(|i| ((i * 104_729) % q) as u32).collect();
        let k1 = vec![(q - 1) as u32; n];
        let mut want0 = vec![0u128; n];
        let mut want1 = vec![0u128; n];
        let mut builds: Vec<(&str, Vec<u64>, Vec<u64>)> =
            vec![("portable", vec![0; n], vec![0; n]), ("dispatch", vec![0; n], vec![0; n])];
        #[cfg(target_arch = "x86_64")]
        if avx2() {
            builds.push(("avx2", vec![0; n], vec![0; n]));
        }
        for _ in 0..u64_budget(q) {
            for i in 0..n {
                want0[i] += u128::from(d[i]) * u128::from(k0[i]);
                want1[i] += u128::from(d[i]) * u128::from(k1[i]);
            }
            for (name, a0, a1) in &mut builds {
                match *name {
                    "portable" => mul_acc_pair_lanes(a0, a1, &d, &k0, &k1),
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: only pushed when the CPU has AVX2.
                    "avx2" => unsafe { mul_acc_pair_avx2(a0, a1, &d, &k0, &k1) },
                    _ => mul_acc_pair(a0, a1, &d, &k0, &k1),
                }
            }
        }
        for (name, a0, a1) in &builds {
            for i in 0..n {
                assert_eq!(u128::from(a0[i]), want0[i], "{name} acc0[{i}]");
                assert_eq!(u128::from(a1[i]), want1[i], "{name} acc1[{i}]");
            }
        }
    }
}
