//! Homomorphic tensor kernels over the HISA (paper §4, Figures 1 & 4).
//!
//! Every kernel is generic over [`Hisa`], so the same code runs on the real
//! lattice backends, the plaintext simulator, *and* the compiler's
//! data-flow analyses (paper §5.1's "different interpretation" trick).
//!
//! Conventions shared by all kernels:
//!
//! * Junk slots are zero on entry and on exit ("masking discipline"): every
//!   kernel that can leave partial sums in invalid positions multiplies by
//!   a 0/1 mask at scale `P_m`, as in the paper's Figures 1 and 4.
//! * After each multiplicative step the ciphertext is *settled*: rescaled
//!   by [`Hisa::max_rescale`] toward the working scale `P_c`. Under
//!   RNS-CKKS this consumes whole chain primes only when enough scale has
//!   accumulated; under CKKS it divides exactly — reproducing both schemes'
//!   rescaling semantics.
//! * One error channel: kernels and their helpers issue every instruction
//!   through the fallible `try_*` adapters and return the first failure
//!   with `?`, as a [`KernelError`]; the executor attributes the error to
//!   the node.

// Kernel `expect`s assert accumulator-population invariants (every output
// ciphertext slot gets written because loop bounds derive from the same
// tensor shapes) — unreachable unless the kernel itself is wrong. The
// recoverable failure class travels as `KernelError` values instead.
#![allow(clippy::expect_used)]

pub mod concat;
pub mod conv;
pub mod convert;
pub mod elementwise;
pub mod matmul;
pub mod pool;

use chet_hisa::{Hisa, HisaError};
use std::fmt;

/// Why a kernel failed. The executor attributes each cause to the circuit
/// node that was running: a contract violation becomes
/// `ExecError::Kernel`, a HISA failure `ExecError::Hisa`, a cancellation
/// `ExecError::Cancelled`.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelError {
    /// A kernel input-contract violation: malformed weight shapes,
    /// mismatched dimensions, or a layout the kernel cannot enumerate.
    /// Kernels validate their inputs up front, so a malformed network is
    /// rejected before any instruction runs.
    Contract {
        /// The kernel that rejected its inputs.
        kernel: &'static str,
        /// What was malformed.
        reason: String,
    },
    /// A HISA instruction failed.
    Hisa(HisaError),
    /// The run's cancel token tripped at a fan-out job boundary (see
    /// [`crate::par::try_fan_out`]).
    Cancelled,
}

impl KernelError {
    pub(crate) fn new(kernel: &'static str, reason: impl Into<String>) -> Self {
        KernelError::Contract { kernel, reason: reason.into() }
    }
}

impl From<HisaError> for KernelError {
    fn from(e: HisaError) -> Self {
        KernelError::Hisa(e)
    }
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Contract { kernel, reason } => write!(f, "{kernel}: {reason}"),
            KernelError::Hisa(e) => write!(f, "{e}"),
            KernelError::Cancelled => write!(f, "run cancelled mid-fan-out"),
        }
    }
}

impl std::error::Error for KernelError {}

/// The four fixed-point scales CHET exposes (paper §5.5, Table 4):
/// image (`P_c`), plaintext-vector weights (`P_w`), scalar weights (`P_u`)
/// and masks (`P_m`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleConfig {
    /// Fixed-point scale of the encrypted image and the working scale
    /// kernels settle toward (`P_c`).
    pub input: f64,
    /// Scale of plaintext-vector weights (`P_w`).
    pub weight_plain: f64,
    /// Scale of scalar weights (`P_u`).
    pub weight_scalar: f64,
    /// Scale of 0/1 masks (`P_m`).
    pub mask: f64,
}

impl ScaleConfig {
    /// The reference scale set the tests, examples and command-line tools
    /// compile with (`P_c = 2^25`, `P_w = P_u = 2^12`, `P_m = 2^10`): small
    /// enough that the reduced networks select `N = 8192–16384`, large
    /// enough that encrypted outputs track the reference.
    pub const REFERENCE: ScaleConfig = ScaleConfig::from_log2(25, 12, 12, 10);

    /// Builds a config from log2 exponents `(P_c, P_w, P_u, P_m)`.
    pub const fn from_log2(pc: u32, pw: u32, pu: u32, pm: u32) -> Self {
        ScaleConfig {
            input: pow2(pc),
            weight_plain: pow2(pw),
            weight_scalar: pow2(pu),
            mask: pow2(pm),
        }
    }
}

/// `2^e`, exactly (`f64::powi` is not `const`).
const fn pow2(e: u32) -> f64 {
    let mut x = 1.0;
    let mut i = 0;
    while i < e {
        x *= 2.0;
        i += 1;
    }
    x
}

impl Default for ScaleConfig {
    /// Defaults in the ballpark of the paper's Table 4 (`P_c = 2^30`,
    /// `P_w = 2^16`, `P_u = 2^15`), with a larger mask scale (`P_m = 2^12`)
    /// because this implementation's canonical-embedding masks carry
    /// `~sqrt(N)/P_m` encoding noise.
    fn default() -> Self {
        ScaleConfig::from_log2(30, 16, 15, 12)
    }
}

/// Rotates by a signed slot offset (positive = left).
pub fn rot_signed<H: Hisa>(h: &mut H, ct: &H::Ct, offset: isize) -> Result<H::Ct, HisaError> {
    match offset.cmp(&0) {
        std::cmp::Ordering::Equal => Ok(h.copy(ct)),
        std::cmp::Ordering::Greater => h.try_rot_left(ct, offset as usize),
        std::cmp::Ordering::Less => h.try_rot_right(ct, offset.unsigned_abs()),
    }
}

/// Rotates the same ciphertext by a batch of signed offsets (positive =
/// left), returning outputs in input order.
///
/// Routes through [`Hisa::try_rot_left_many`]/[`Hisa::try_rot_right_many`]
/// — one [`Hisa::try_rotate`] batch per direction — so backends with
/// hoisted key switching (the RNS scheme) share one gadget decomposition
/// across the whole batch.
pub fn rot_signed_many<H: Hisa>(
    h: &mut H,
    ct: &H::Ct,
    offsets: &[isize],
) -> Result<Vec<H::Ct>, HisaError> {
    let lefts: Vec<usize> = offsets.iter().filter(|&&o| o > 0).map(|&o| o as usize).collect();
    let rights: Vec<usize> =
        offsets.iter().filter(|&&o| o < 0).map(|&o| o.unsigned_abs()).collect();
    let mut left_out = h.try_rot_left_many(ct, &lefts)?.into_iter();
    let mut right_out = h.try_rot_right_many(ct, &rights)?.into_iter();
    Ok(offsets
        .iter()
        .map(|&o| match o.cmp(&0) {
            std::cmp::Ordering::Equal => h.copy(ct),
            std::cmp::Ordering::Greater => left_out.next().expect("left rotation produced"),
            std::cmp::Ordering::Less => right_out.next().expect("right rotation produced"),
        })
        .collect())
}

/// Rescales `ct` toward `target` scale using the largest divisor the scheme
/// currently offers (a no-op when none fits).
pub fn settle<H: Hisa>(h: &mut H, ct: H::Ct, target: f64) -> Result<H::Ct, HisaError> {
    let current = h.scale_of(&ct);
    if current <= target * 1.5 {
        return Ok(ct);
    }
    let d = h.max_rescale(&ct, current / target);
    if d > 1.0 {
        h.try_rescale(&ct, d)
    } else {
        Ok(ct)
    }
}

/// Sums `count` groups spaced `stride` slots apart into group 0 by a
/// rotate-and-add tree. Requires slots beyond the used region to be zero
/// and `next_power_of_two(count) * stride <= slots`.
pub fn reduce_groups<H: Hisa>(
    h: &mut H,
    ct: &H::Ct,
    stride: usize,
    count: usize,
) -> Result<H::Ct, HisaError> {
    let mut acc = h.copy(ct);
    if count <= 1 {
        return Ok(acc);
    }
    let target = count.next_power_of_two();
    let mut step = target / 2;
    while step >= 1 {
        let rotated = h.try_rot_left(&acc, step * stride)?;
        acc = h.try_add(&acc, &rotated)?;
        step /= 2;
    }
    Ok(acc)
}

/// Encodes a kernel-built plaintext (mask, weight vector, bias) of `len`
/// values, which `fill` writes into a zeroed buffer, tiling it cyclically
/// when the vector is shorter than the ciphertext and its length divides
/// the slot count — the batch-packing contract: kernels build plaintexts
/// at the layout's *member* width (`layout.slots`), and a batched
/// ciphertext (`layout.batch > 1`) holds `batch` members at period
/// `layout.slots`, so the same plaintext must act on every member.
///
/// With `batch == 1` the member width equals the physical width and this is
/// a plain encode. Lengths that do not divide the slot count (hand-written
/// test data) zero-pad as encoding always has.
///
/// The values are built only when the interpretation reads them
/// ([`Hisa::try_encode_with`]): a compiler walk that needs only the length
/// and scale never runs `fill`, and tiling happens inside the fill.
pub fn encode_tiled<H: Hisa>(
    h: &mut H,
    len: usize,
    scale: f64,
    mut fill: impl FnMut(&mut [f64]),
) -> Result<H::Pt, HisaError> {
    let slots = h.slots();
    if len > 0 && len < slots && slots.is_multiple_of(len) {
        h.try_encode_with(slots, scale, &mut |values| {
            fill(&mut values[..len]);
            for start in (len..slots).step_by(len) {
                values.copy_within(..len, start);
            }
        })
    } else {
        h.try_encode_with(len, scale, &mut fill)
    }
}

/// Multiplies by a 0/1 mask of `len` values, which `fill` writes into a
/// zeroed buffer, at the mask scale and settles. The mask is encoded via
/// [`encode_tiled`], so member-width masks act uniformly on every batch
/// member of a batched ciphertext.
pub fn apply_mask<H: Hisa>(
    h: &mut H,
    ct: &H::Ct,
    len: usize,
    fill: impl FnMut(&mut [f64]),
    scales: &ScaleConfig,
) -> Result<H::Ct, HisaError> {
    let pt = encode_tiled(h, len, scales.mask, fill)?;
    let masked = h.try_mul_plain(ct, &pt)?;
    settle(h, masked, scales.input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chet_ckks::sim::SimCkks;
    use chet_hisa::{EncryptionParams, RotationKeyPolicy};

    fn sim() -> SimCkks {
        let params = EncryptionParams::rns_ckks(8192, 40, 4);
        SimCkks::new(&params, &RotationKeyPolicy::PowersOfTwo, 3).without_noise()
    }

    #[test]
    fn rot_signed_directions() {
        let mut h = sim();
        let pt = h.try_encode(&[1.0, 2.0, 3.0, 4.0], 2f64.powi(30)).unwrap();
        let ct = h.encrypt(&pt);
        let l = rot_signed(&mut h, &ct, 1).unwrap();
        let r = rot_signed(&mut h, &ct, -1).unwrap();
        let z = rot_signed(&mut h, &ct, 0).unwrap();
        let dl = h.decrypt(&l);
        assert_eq!(h.decode(&dl)[0], 2.0);
        let dr = h.decrypt(&r);
        assert_eq!(h.decode(&dr)[1], 1.0);
        let dz = h.decrypt(&z);
        assert_eq!(h.decode(&dz)[0], 1.0);
    }

    #[test]
    fn reduce_groups_sums_strided_data() {
        let mut h = sim();
        // 5 groups of stride 8, value = group index + 1.
        let mut v = vec![0.0; 64];
        for g in 0..5 {
            v[g * 8] = (g + 1) as f64;
        }
        let pt = h.try_encode(&v, 2f64.powi(30)).unwrap();
        let ct = h.encrypt(&pt);
        let red = reduce_groups(&mut h, &ct, 8, 5).unwrap();
        let d = h.decrypt(&red);
        assert_eq!(h.decode(&d)[0], 15.0);
    }

    #[test]
    fn settle_brings_scale_down() {
        let mut h = sim();
        let s = 2f64.powi(30);
        let pt = h.try_encode(&[2.0], s).unwrap();
        let ct = h.encrypt(&pt);
        let big = h.try_mul_scalar(&ct, 3.0, 2f64.powi(20)).unwrap();
        assert_eq!(h.scale_of(&big), 2f64.powi(50));
        let settled = settle(&mut h, big, s).unwrap();
        // One 40-bit prime fits in the 2^20 excess? No: excess is 2^20 < prime,
        // so nothing happens yet (RNS drift semantics).
        assert_eq!(h.scale_of(&settled), 2f64.powi(50));
        let bigger = h.try_mul_scalar(&settled, 1.0, 2f64.powi(25)).unwrap();
        let settled = settle(&mut h, bigger, s).unwrap();
        // Now excess 2^45 >= one 40-bit prime: rescale fires.
        assert!(h.scale_of(&settled) < 2f64.powi(40));
    }

    /// `encode_tiled` as it took a built slice, before the fill closure:
    /// the reference the closure form must match bit for bit.
    fn encode_tiled_slice<H: Hisa>(h: &mut H, vec: &[f64], scale: f64) -> H::Pt {
        let slots = h.slots();
        if !vec.is_empty() && vec.len() < slots && slots.is_multiple_of(vec.len()) {
            let mut tiled = Vec::with_capacity(slots);
            while tiled.len() < slots {
                tiled.extend_from_slice(vec);
            }
            h.try_encode(&tiled, scale).unwrap()
        } else {
            h.try_encode(vec, scale).unwrap()
        }
    }

    /// Decoded plaintexts of both forms agree bit for bit at batch 1 (the
    /// member width is the slot count), at tiled member widths (batch 2
    /// and 8), and for a length that does not divide the slots.
    fn check_encode_tiled_bit_identity<H: Hisa>(h: &mut H) {
        let slots = h.slots();
        for len in [slots, slots / 2, slots / 8, 3] {
            let member: Vec<f64> = (0..len).map(|i| ((i * 7) % 13) as f64 * 0.125 - 0.5).collect();
            let closure = encode_tiled(h, len, 2f64.powi(20), |b| b.copy_from_slice(&member))
                .unwrap();
            let slice = encode_tiled_slice(h, &member, 2f64.powi(20));
            let (got, want) = (h.decode(&closure), h.decode(&slice));
            assert!(
                got.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()),
                "member width {len}"
            );
        }
    }

    #[test]
    fn encode_tiled_closure_matches_the_slice_form_on_sim() {
        check_encode_tiled_bit_identity(&mut sim());
    }

    #[test]
    fn encode_tiled_closure_matches_the_slice_form_on_rns() {
        let params = EncryptionParams::rns_ckks(2048, 40, 2)
            .with_security(chet_hisa::SecurityLevel::Insecure);
        let policy = RotationKeyPolicy::Exact(Default::default());
        check_encode_tiled_bit_identity(&mut chet_ckks::rns::RnsCkks::new(&params, &policy, 7));
    }

    #[test]
    fn apply_mask_zeroes_junk() {
        let mut h = sim();
        let s = 2f64.powi(30);
        let pt = h.try_encode(&[5.0, 7.0, 9.0], s).unwrap();
        let ct = h.encrypt(&pt);
        let mask = [1.0, 0.0, 1.0];
        let fill = |b: &mut [f64]| b.copy_from_slice(&mask);
        let m = apply_mask(&mut h, &ct, mask.len(), fill, &ScaleConfig::default()).unwrap();
        let d = h.decrypt(&m);
        let out = h.decode(&d);
        assert_eq!(&out[..3], &[5.0, 0.0, 9.0]);
    }
}
