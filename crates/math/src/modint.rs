//! 64-bit modular arithmetic.
//!
//! All moduli handled here are odd primes below `2^62`, which lets every
//! intermediate fit in `u128` and keeps lazy-reduction slack for the NTT
//! butterflies.

/// Adds `a + b mod q`. Inputs must already be reduced.
#[inline(always)]
pub fn add_mod(a: u64, b: u64, q: u64) -> u64 {
    debug_assert!(a < q && b < q);
    let s = a + b;
    if s >= q {
        s - q
    } else {
        s
    }
}

/// Subtracts `a - b mod q`. Inputs must already be reduced.
#[inline(always)]
pub fn sub_mod(a: u64, b: u64, q: u64) -> u64 {
    debug_assert!(a < q && b < q);
    if a >= b {
        a - b
    } else {
        a + q - b
    }
}

/// Negates `a mod q`. Input must already be reduced.
#[inline(always)]
pub fn neg_mod(a: u64, q: u64) -> u64 {
    debug_assert!(a < q);
    if a == 0 {
        0
    } else {
        q - a
    }
}

/// Multiplies `a * b mod q` using a 128-bit intermediate.
#[inline(always)]
pub fn mul_mod(a: u64, b: u64, q: u64) -> u64 {
    ((a as u128 * b as u128) % q as u128) as u64
}

/// Computes `base^exp mod q` by square-and-multiply.
pub fn pow_mod(mut base: u64, mut exp: u64, q: u64) -> u64 {
    if q == 1 {
        return 0;
    }
    let mut acc = 1u64;
    base %= q;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, q);
        }
        base = mul_mod(base, base, q);
        exp >>= 1;
    }
    acc
}

/// Computes the modular inverse of `a` modulo `q` via the extended Euclidean
/// algorithm.
///
/// Returns `None` when `gcd(a, q) != 1` (no inverse exists).
pub fn inv_mod(a: u64, q: u64) -> Option<u64> {
    if a == 0 {
        return None;
    }
    let (mut old_r, mut r) = (a as i128, q as i128);
    let (mut old_s, mut s) = (1i128, 0i128);
    while r != 0 {
        let quot = old_r / r;
        let tmp_r = old_r - quot * r;
        old_r = r;
        r = tmp_r;
        let tmp_s = old_s - quot * s;
        old_s = s;
        s = tmp_s;
    }
    if old_r != 1 {
        return None;
    }
    let mut inv = old_s % q as i128;
    if inv < 0 {
        inv += q as i128;
    }
    Some(inv as u64)
}

/// A multiplier precomputed for Shoup's trick: repeated multiplications by a
/// fixed constant `w` modulo `q` cost one `mul_hi`, two wrapping multiplies
/// and one conditional subtraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShoupMul {
    /// The constant operand, reduced modulo `q`.
    pub value: u64,
    /// `floor(value * 2^64 / q)`.
    pub quotient: u64,
}

impl ShoupMul {
    /// Precomputes the Shoup quotient for the constant `value` modulo `q`.
    ///
    /// # Panics
    ///
    /// Panics if `value >= q`.
    pub fn new(value: u64, q: u64) -> Self {
        assert!(value < q, "shoup constant must be reduced");
        let quotient = (((value as u128) << 64) / q as u128) as u64;
        ShoupMul { value, quotient }
    }

    /// Computes `a * self.value mod q`.
    #[inline(always)]
    pub fn mul(&self, a: u64, q: u64) -> u64 {
        let hi = ((a as u128 * self.quotient as u128) >> 64) as u64;
        let r = a
            .wrapping_mul(self.value)
            .wrapping_sub(hi.wrapping_mul(q));
        if r >= q {
            r - q
        } else {
            r
        }
    }

    /// Lazy Shoup product: returns `a * self.value mod q` *plus possibly
    /// one extra `q`*, i.e. a value in `[0, 2q)` congruent to the product.
    ///
    /// Valid for **any** `a: u64` (not just reduced inputs): with
    /// `hi = ⌊a·quotient / 2^64⌋` and `quotient = ⌊value·2^64 / q⌋`, the
    /// estimate `hi` undershoots `⌊a·value / q⌋` by at most one, so the
    /// wrapping difference lands in `[0, 2q)`. Skipping the final
    /// conditional subtraction is the heart of the Harvey lazy-reduction
    /// butterflies (requires `q < 2^63` so `2q` fits in `u64`).
    #[inline(always)]
    pub fn mul_lazy(&self, a: u64, q: u64) -> u64 {
        let hi = ((a as u128 * self.quotient as u128) >> 64) as u64;
        a.wrapping_mul(self.value).wrapping_sub(hi.wrapping_mul(q))
    }
}

/// A Barrett reducer for a fixed modulus `q < 2^62`: division-free
/// reduction of 64- and 128-bit values by multiplying with the precomputed
/// ratio `⌊2^128 / q⌋` and correcting the quotient estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Barrett {
    q: u64,
    /// `⌊2^128 / q⌋`; its high word is `⌊2^64 / q⌋`.
    ratio: u128,
}

impl Barrett {
    /// Precomputes the reducer for modulus `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q < 2` or `q >= 2^62`.
    pub fn new(q: u64) -> Self {
        assert!((2..1u64 << 62).contains(&q), "barrett modulus must be in [2, 2^62)");
        // ⌊(2^128 − 1) / q⌋ = ⌊2^128 / q⌋ unless q divides 2^128 (q a power
        // of two), where it is one less — still a valid underestimate.
        Barrett { q, ratio: u128::MAX / q as u128 }
    }

    /// The modulus.
    #[inline(always)]
    pub fn modulus(&self) -> u64 {
        self.q
    }

    /// `x mod q` for any `x: u64`.
    ///
    /// The estimate `⌊x·⌊2^64/q⌋ / 2^64⌋` undershoots `⌊x/q⌋` by at most
    /// one, so one conditional subtraction finishes.
    #[inline(always)]
    pub fn reduce(&self, x: u64) -> u64 {
        let quot = ((x as u128 * (self.ratio >> 64)) >> 64) as u64;
        let r = x - quot * self.q;
        if r >= self.q {
            r - self.q
        } else {
            r
        }
    }

    /// `x mod q` for any `x: u128`.
    ///
    /// Computes the high 128 bits of the 256-bit product `x·ratio` (only its
    /// low word is needed: the remainder is formed modulo 2^64). The
    /// estimate undershoots `⌊x/q⌋` by at most two, and `3q < 2^64` keeps
    /// the pre-correction remainder exact.
    #[inline(always)]
    pub fn reduce_u128(&self, x: u128) -> u64 {
        let (x0, x1) = (x as u64 as u128, (x >> 64) as u64 as u128);
        let (r0, r1) = (self.ratio as u64 as u128, (self.ratio >> 64) as u64 as u128);
        let lo_lo = (x0 * r0) >> 64;
        let lo_hi = x0 * r1;
        let hi_lo = x1 * r0;
        // Bits 64..128 of the product, with their carry into bit 128.
        let mid = lo_lo + (lo_hi as u64 as u128) + (hi_lo as u64 as u128);
        let quot = ((x1 * r1) as u64)
            .wrapping_add((lo_hi >> 64) as u64)
            .wrapping_add((hi_lo >> 64) as u64)
            .wrapping_add((mid >> 64) as u64);
        let mut r = (x as u64).wrapping_sub(quot.wrapping_mul(self.q));
        if r >= self.q {
            r -= self.q;
        }
        if r >= self.q {
            r -= self.q;
        }
        r
    }

    /// `a·b mod q` for reduced `a, b < q`. Below `q = 2^32` the product
    /// fits a `u64` and takes the one-word reduction.
    #[inline(always)]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        if self.q <= 1 << 32 {
            self.reduce(a * b)
        } else {
            self.reduce_u128(a as u128 * b as u128)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: u64 = (1 << 61) - 1; // not prime, but fine for ring tests below 2^62

    #[test]
    fn add_sub_roundtrip() {
        let a = 123_456_789_u64;
        let b = Q - 5;
        let s = add_mod(a, b, Q);
        assert_eq!(sub_mod(s, b, Q), a);
    }

    #[test]
    fn neg_is_additive_inverse() {
        for a in [0u64, 1, 17, Q - 1] {
            assert_eq!(add_mod(a, neg_mod(a, Q), Q), 0);
        }
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let q = 1_000_000_007u64;
        let mut acc = 1u64;
        for e in 0..20u64 {
            assert_eq!(pow_mod(3, e, q), acc);
            acc = mul_mod(acc, 3, q);
        }
    }

    #[test]
    fn inverse_multiplies_to_one() {
        let q = 1_000_000_007u64;
        for a in [1u64, 2, 3, 999, q - 1] {
            let inv = inv_mod(a, q).unwrap();
            assert_eq!(mul_mod(a, inv, q), 1);
        }
    }

    #[test]
    fn inverse_of_zero_is_none() {
        assert_eq!(inv_mod(0, 97), None);
    }

    #[test]
    fn inverse_of_non_coprime_is_none() {
        assert_eq!(inv_mod(6, 9), None);
    }

    #[test]
    fn shoup_matches_plain_mul() {
        let q = 4_611_686_018_427_322_369u64; // < 2^62
        let w = 1_234_567_890_123_456_789 % q;
        let shoup = ShoupMul::new(w, q);
        for a in [0u64, 1, 2, q / 2, q - 1] {
            assert_eq!(shoup.mul(a, q), mul_mod(a, w, q));
        }
    }

    #[test]
    fn shoup_lazy_congruent_and_bounded_for_unreduced_inputs() {
        let q = 4_611_686_018_427_322_369u64; // < 2^62
        for w in [0u64, 1, q / 3, q - 1] {
            let shoup = ShoupMul::new(w, q);
            // Inputs deliberately exceed q (up to just below 4q), as the
            // lazy NTT butterflies produce.
            for a in [0u64, 1, q - 1, q, 2 * q - 1, 2 * q, 4 * q - 1, u64::MAX] {
                let r = shoup.mul_lazy(a, q);
                assert!(r < 2 * q, "lazy result {r} out of [0, 2q)");
                assert_eq!(r % q, mul_mod(a % q, w, q), "a={a} w={w}");
            }
        }
    }
}
