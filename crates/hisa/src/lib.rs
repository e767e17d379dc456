//! # chet-hisa
//!
//! The **Homomorphic Instruction Set Architecture** (HISA) from the CHET
//! paper (PLDI 2019, Table 2): a scheme-agnostic interface between the CHET
//! runtime/compiler and concrete FHE backends.
//!
//! The crate provides:
//!
//! * [`Hisa`] — the instruction-set trait. Concrete schemes (RNS-CKKS,
//!   bigint CKKS, the plaintext simulator) implement it, and — crucially —
//!   so do the *compiler analyses*: CHET runs circuits under alternative
//!   interpretations of the ciphertext datatype to perform data-flow
//!   analysis without materializing a data-flow graph (paper §5.1).
//! * [`params`] — encryption parameters ([`EncryptionParams`],
//!   [`ModulusSpec`]) shared by schemes and the parameter-selection pass.
//! * [`security`] — the homomorphic-encryption-standard table mapping ring
//!   degree `N` to the maximum coefficient modulus for a security level
//!   (paper §2.3/§5.2).
//! * [`cost`] — the per-op cost model (paper Table 1 asymptotics with
//!   tunable constants) used by data-layout selection.
//! * [`keys`] — rotation-key policies: default power-of-two keys vs the
//!   exact key set chosen by the rotation-key-selection pass (paper §5.4).
//!
//! # One fallible core, many adapters
//!
//! An interpretation implements nine methods: [`Hisa::slots`],
//! [`Hisa::try_encode`], [`Hisa::decode`], [`Hisa::encrypt`],
//! [`Hisa::decrypt`], [`Hisa::max_rescale`], [`Hisa::scale_of`],
//! [`Hisa::try_exec`] — one entry point for the ten ciphertext-producing
//! instructions, named by [`Instr`] — and [`Hisa::try_rotate`], the batched
//! rotation primitive that hoisted key switching needs. Every other
//! instruction method (`add`, `try_mul_plain`, `rot_left`,
//! `try_rot_right_many`, `add_assign`, …) is a provided adapter that
//! reaches the implementation only through that core: panicking forms
//! unwrap the fallible one, single rotations are one-element batches. A
//! wrapper therefore intercepts an instruction in exactly one place, and
//! cannot lose a backend capability by forgetting to forward one of its
//! spellings. `ci.sh` fails if any `impl Hisa` overrides an adapter.
//!
//! Kernels encode through one optional hook, [`Hisa::try_encode_with`],
//! which hands the interpretation a length and a closure that fills the
//! values: the backends fill and encode, while an analysis that reads only
//! a plaintext's length and scale never builds the vector.
//!
//! # Examples
//!
//! ```
//! use chet_hisa::security::{min_degree_for_modulus, SecurityLevel};
//!
//! // A circuit consuming 200 bits of modulus fits in N = 8192 at 128-bit
//! // security; 240 bits (Table 4, LeNet-5-small under HEAAN's relaxed
//! // security) needs N = 16384 at the full 128-bit level.
//! assert_eq!(min_degree_for_modulus(200, SecurityLevel::Bits128), Some(8192));
//! assert_eq!(min_degree_for_modulus(240, SecurityLevel::Bits128), Some(16384));
//! ```

pub mod cost;
pub mod error;
pub mod json;
pub mod keys;
pub mod params;
pub mod security;
pub mod serial;

pub use cost::{CostModel, HisaOp, LevelInfo};
pub use error::HisaError;
pub use keys::{normalize_rotation, RotationKeyPolicy};
pub use params::{EncryptionParams, ModulusSpec, SchemeKind};
pub use security::SecurityLevel;

use std::collections::BTreeSet;

/// Direction of a slot rotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RotDir {
    /// Slot `i` receives old slot `i + x`.
    Left,
    /// Slot `i` receives old slot `i - x`.
    Right,
}

impl RotDir {
    /// The equivalent left step in `[0, slots)` for a rotation by `x`.
    pub fn normalize(self, x: usize, slots: usize) -> usize {
        match self {
            RotDir::Left => normalize_rotation(x as i64, slots),
            RotDir::Right => normalize_rotation(-(x as i64), slots),
        }
    }
}

/// One ciphertext-producing HISA instruction (paper Table 2), with borrowed
/// operands: the argument of [`Hisa::try_exec`].
///
/// Semantics notes mirroring the paper:
///
/// * `MulScalar(c, x, scale)` multiplies every slot by the real constant
///   `x` encoded at fixed-point `scale` (paper `P_u`); `MulPlain`
///   multiplies slot-wise by an encoded vector (paper `P_w` / `P_m`).
/// * `Rescale(c, d)` divides the ciphertext scale by `d`; `d` must be a
///   value previously returned by [`Hisa::max_rescale`]. Divisors `<= 1`
///   are a no-op.
/// * Binary ops require (approximately) matching operand scales; backends
///   internally align *levels* by modulus switching, as SEAL/HEAAN do.
#[derive(Debug)]
pub enum Instr<'a, Ct, Pt> {
    /// Ciphertext + ciphertext.
    Add(&'a Ct, &'a Ct),
    /// Ciphertext + plaintext.
    AddPlain(&'a Ct, &'a Pt),
    /// Ciphertext + scalar broadcast.
    AddScalar(&'a Ct, f64),
    /// Ciphertext − ciphertext.
    Sub(&'a Ct, &'a Ct),
    /// Ciphertext − plaintext.
    SubPlain(&'a Ct, &'a Pt),
    /// Ciphertext − scalar broadcast.
    SubScalar(&'a Ct, f64),
    /// Ciphertext × ciphertext (with relinearization).
    Mul(&'a Ct, &'a Ct),
    /// Ciphertext × plaintext.
    MulPlain(&'a Ct, &'a Pt),
    /// Ciphertext × scalar `x` encoded at `scale`: `MulScalar(c, x, scale)`.
    MulScalar(&'a Ct, f64, f64),
    /// Divides the ciphertext scale by `divisor`, consuming modulus.
    Rescale(&'a Ct, f64),
}

impl<'a, Ct, Pt> Instr<'a, Ct, Pt> {
    /// The (first) ciphertext operand.
    pub fn lhs(&self) -> &'a Ct {
        match *self {
            Instr::Add(a, _)
            | Instr::AddPlain(a, _)
            | Instr::AddScalar(a, _)
            | Instr::Sub(a, _)
            | Instr::SubPlain(a, _)
            | Instr::SubScalar(a, _)
            | Instr::Mul(a, _)
            | Instr::MulPlain(a, _)
            | Instr::MulScalar(a, _, _)
            | Instr::Rescale(a, _) => a,
        }
    }

    /// The name of the [`Hisa`] method that issues this instruction.
    pub fn name(&self) -> &'static str {
        match self {
            Instr::Add(..) => "add",
            Instr::AddPlain(..) => "add_plain",
            Instr::AddScalar(..) => "add_scalar",
            Instr::Sub(..) => "sub",
            Instr::SubPlain(..) => "sub_plain",
            Instr::SubScalar(..) => "sub_scalar",
            Instr::Mul(..) => "mul",
            Instr::MulPlain(..) => "mul_plain",
            Instr::MulScalar(..) => "mul_scalar",
            Instr::Rescale(..) => "rescale",
        }
    }

    /// The cost-model family the instruction is priced under.
    pub fn op(&self) -> HisaOp {
        match self {
            Instr::Add(..)
            | Instr::AddPlain(..)
            | Instr::AddScalar(..)
            | Instr::Sub(..)
            | Instr::SubPlain(..)
            | Instr::SubScalar(..) => HisaOp::Add,
            Instr::Mul(..) => HisaOp::MulCipher,
            Instr::MulPlain(..) => HisaOp::MulPlain,
            Instr::MulScalar(..) => HisaOp::MulScalar,
            Instr::Rescale(..) => HisaOp::Rescale,
        }
    }
}

/// The panicking adapters' unwrap: the error's message is the panic
/// message, as it always was for the real backends.
fn or_panic<T>(r: Result<T, HisaError>) -> T {
    r.unwrap_or_else(|e| panic!("{e}"))
}

/// The one result of a one-element rotation batch.
fn single<Ct>(r: Result<Vec<Ct>, HisaError>) -> Result<Ct, HisaError> {
    r.map(|mut v| v.swap_remove(0))
}

/// The Homomorphic Instruction Set Architecture (paper Table 2).
///
/// `Ct` and `Pt` are the backend's ciphertext and plaintext types. For real
/// schemes they hold ring elements; for compiler analyses they hold
/// data-flow facts (consumed modulus, accumulated cost, rotation sets, …).
/// Vectors have [`Hisa::slots`] entries; rotations are cyclic.
///
/// Implementations write the nine required methods (the fallible core, see
/// the crate docs) plus, optionally, [`Hisa::copy`],
/// [`Hisa::available_rotations`], [`Hisa::fork`], [`Hisa::join`],
/// [`Hisa::cancel_requested`] and [`Hisa::try_encode_with`]. The remaining
/// methods are adapters over the core and must not be overridden.
///
/// All methods take `&mut self` because backends carry mutable state
/// (random number generators, lazily generated keys) and analyses accumulate
/// global facts.
///
/// `Hisa: Send` and `Ct/Pt: Send + Sync` exist for the runtime's parallel
/// execution layer: kernel fan-out moves forked backends onto pool threads
/// and shares borrowed ciphertexts across them. Every interpretation —
/// lattice schemes, the simulator, compiler analyses — is plain owned data,
/// so the bounds are satisfied structurally.
pub trait Hisa: Send {
    /// Ciphertext handle.
    type Ct: Clone + Send + Sync;
    /// Plaintext handle.
    type Pt: Clone + Send + Sync;

    // ---- The fallible core ---------------------------------------------

    /// Number of SIMD slots per ciphertext (`N/2` for CKKS-family schemes).
    fn slots(&self) -> usize;

    /// Encodes a vector of reals at the given fixed-point scale. Missing
    /// entries (beyond `values.len()`) are zero.
    /// [`HisaError::SlotOverflow`] when `values.len() > self.slots()`.
    fn try_encode(&mut self, values: &[f64], scale: f64) -> Result<Self::Pt, HisaError>;

    /// Decodes a plaintext back to a vector of reals (length [`Hisa::slots`]).
    fn decode(&mut self, p: &Self::Pt) -> Vec<f64>;

    /// Encrypts a plaintext.
    fn encrypt(&mut self, p: &Self::Pt) -> Self::Ct;

    /// Decrypts a ciphertext.
    fn decrypt(&mut self, c: &Self::Ct) -> Self::Pt;

    /// Executes one ciphertext-producing instruction:
    /// [`HisaError::ScaleMismatch`] on diverged operand scales,
    /// [`HisaError::LevelExhausted`] when the modulus cannot absorb a
    /// rescale, [`HisaError::InvalidRescale`] when a divisor violates the
    /// backend's contract.
    fn try_exec(&mut self, instr: Instr<'_, Self::Ct, Self::Pt>) -> Result<Self::Ct, HisaError>;

    /// Rotates the *same* ciphertext by each step in `steps`, returning one
    /// result per step, in step order. Fails fast:
    /// [`HisaError::MissingRotationKey`] when a step cannot be planned from
    /// the available keys.
    ///
    /// This is the only rotation entry point, so backends with an expensive
    /// per-ciphertext setup (key-switch decomposition) *hoist* that setup
    /// across the batch (nGraph-HE2's optimization) and every caller gets
    /// it. Results must be bit-identical to rotating by each step alone.
    fn try_rotate(
        &mut self,
        c: &Self::Ct,
        dir: RotDir,
        steps: &[usize],
    ) -> Result<Vec<Self::Ct>, HisaError>;

    /// Largest legal rescale divisor `<= ub` for this ciphertext (a power of
    /// two for CKKS, a product of the next chain primes for RNS-CKKS, `1.0`
    /// when no rescaling is possible).
    fn max_rescale(&mut self, c: &Self::Ct, ub: f64) -> f64;

    /// Current fixed-point scale of a ciphertext.
    fn scale_of(&self, c: &Self::Ct) -> f64;

    // ---- Optional hooks ------------------------------------------------

    /// Explicit ciphertext copy (analyses may want to observe it).
    fn copy(&mut self, c: &Self::Ct) -> Self::Ct {
        c.clone()
    }

    /// The rotation steps this backend holds keys for, or `None` when the
    /// backend rotates freely (simulated/analysis interpretations without a
    /// key set). The runtime uses this to detect *degraded* rotations —
    /// steps served by composing several keyed rotations instead of one.
    fn available_rotations(&self) -> Option<BTreeSet<usize>> {
        None
    }

    /// Forks an evaluation-equivalent child backend for parallel kernel
    /// fan-out, or `None` when this interpretation cannot fork (the
    /// default — fan-out then runs sequentially on `self`).
    ///
    /// Contract: the child must produce bit-identical evaluation results
    /// to the parent for every instruction, and forking must be
    /// deterministic in *program order* — any randomness the child carries
    /// is derived from the parent's state at fork time (e.g. a seed drawn
    /// from the parent RNG), never from thread identity or timing. The
    /// runtime forks one child per fan-out job, in job order, so results
    /// stay independent of the thread count.
    fn fork(&mut self) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }

    /// Merges a forked child back after its fan-out job completed: global
    /// facts the child accumulated (op counters, degradation tallies) fold
    /// into the parent. Joins happen in job order, whether or not the job
    /// failed. The default discards the child.
    fn join(&mut self, child: Self)
    where
        Self: Sized,
    {
        let _ = child;
    }

    /// Cooperative-cancellation hint checked by fan-out regions before each
    /// job launches: `true` means the caller has given up on this run
    /// (deadline expiry, client disconnect) and remaining jobs should be
    /// skipped. The default — no cancellation source — never trips.
    /// Interpretations that carry a cancellation token (the runtime
    /// executor's run wrapper) override this; forked children share the
    /// parent's token, so a trip mid-fan-out stops every thread at its next
    /// job boundary.
    fn cancel_requested(&self) -> bool {
        false
    }

    /// Encodes a `len`-value plaintext whose values `fill` writes into a
    /// zeroed buffer, at the given scale: [`Hisa::try_encode`] with the
    /// vector built on demand. Kernels encode every plaintext through this
    /// hook, so an interpretation that reads only a plaintext's length and
    /// scale (the compiler's analyses) can skip `fill` and never build the
    /// vector. The default fills a buffer and calls [`Hisa::try_encode`];
    /// an override must answer as that would, and a wrapper that changes
    /// no encode forwards it.
    fn try_encode_with(
        &mut self,
        len: usize,
        scale: f64,
        fill: &mut dyn FnMut(&mut [f64]),
    ) -> Result<Self::Pt, HisaError> {
        let mut values = vec![0.0; len];
        fill(&mut values);
        self.try_encode(&values, scale)
    }

    // ---- Adapters over the core (never overridden) ---------------------

    /// [`Hisa::try_encode`], panicking on error.
    fn encode(&mut self, values: &[f64], scale: f64) -> Self::Pt {
        or_panic(self.try_encode(values, scale))
    }

    /// Rotates slots left by `x` (slot `i` receives old slot `i + x`).
    fn try_rot_left(&mut self, c: &Self::Ct, x: usize) -> Result<Self::Ct, HisaError> {
        single(self.try_rotate(c, RotDir::Left, &[x]))
    }

    /// Rotates slots right by `x`.
    fn try_rot_right(&mut self, c: &Self::Ct, x: usize) -> Result<Self::Ct, HisaError> {
        single(self.try_rotate(c, RotDir::Right, &[x]))
    }

    /// Rotates the same ciphertext left by each step (one hoisted batch).
    fn try_rot_left_many(
        &mut self,
        c: &Self::Ct,
        steps: &[usize],
    ) -> Result<Vec<Self::Ct>, HisaError> {
        self.try_rotate(c, RotDir::Left, steps)
    }

    /// Rotates the same ciphertext right by each step (one hoisted batch).
    fn try_rot_right_many(
        &mut self,
        c: &Self::Ct,
        steps: &[usize],
    ) -> Result<Vec<Self::Ct>, HisaError> {
        self.try_rotate(c, RotDir::Right, steps)
    }

    /// [`Hisa::try_rot_left`], panicking on error.
    fn rot_left(&mut self, c: &Self::Ct, x: usize) -> Self::Ct {
        or_panic(self.try_rot_left(c, x))
    }

    /// [`Hisa::try_rot_right`], panicking on error.
    fn rot_right(&mut self, c: &Self::Ct, x: usize) -> Self::Ct {
        or_panic(self.try_rot_right(c, x))
    }

    /// [`Hisa::try_rot_left_many`], panicking on error.
    fn rot_left_many(&mut self, c: &Self::Ct, steps: &[usize]) -> Vec<Self::Ct> {
        or_panic(self.try_rot_left_many(c, steps))
    }

    /// [`Hisa::try_rot_right_many`], panicking on error.
    fn rot_right_many(&mut self, c: &Self::Ct, steps: &[usize]) -> Vec<Self::Ct> {
        or_panic(self.try_rot_right_many(c, steps))
    }

    /// [`Instr::Add`].
    fn try_add(&mut self, a: &Self::Ct, b: &Self::Ct) -> Result<Self::Ct, HisaError> {
        self.try_exec(Instr::Add(a, b))
    }

    /// [`Instr::AddPlain`].
    fn try_add_plain(&mut self, a: &Self::Ct, p: &Self::Pt) -> Result<Self::Ct, HisaError> {
        self.try_exec(Instr::AddPlain(a, p))
    }

    /// [`Instr::AddScalar`].
    fn try_add_scalar(&mut self, a: &Self::Ct, x: f64) -> Result<Self::Ct, HisaError> {
        self.try_exec(Instr::AddScalar(a, x))
    }

    /// [`Instr::Sub`].
    fn try_sub(&mut self, a: &Self::Ct, b: &Self::Ct) -> Result<Self::Ct, HisaError> {
        self.try_exec(Instr::Sub(a, b))
    }

    /// [`Instr::SubPlain`].
    fn try_sub_plain(&mut self, a: &Self::Ct, p: &Self::Pt) -> Result<Self::Ct, HisaError> {
        self.try_exec(Instr::SubPlain(a, p))
    }

    /// [`Instr::SubScalar`].
    fn try_sub_scalar(&mut self, a: &Self::Ct, x: f64) -> Result<Self::Ct, HisaError> {
        self.try_exec(Instr::SubScalar(a, x))
    }

    /// [`Instr::Mul`].
    fn try_mul(&mut self, a: &Self::Ct, b: &Self::Ct) -> Result<Self::Ct, HisaError> {
        self.try_exec(Instr::Mul(a, b))
    }

    /// [`Instr::MulPlain`].
    fn try_mul_plain(&mut self, a: &Self::Ct, p: &Self::Pt) -> Result<Self::Ct, HisaError> {
        self.try_exec(Instr::MulPlain(a, p))
    }

    /// [`Instr::MulScalar`].
    fn try_mul_scalar(&mut self, a: &Self::Ct, x: f64, scale: f64) -> Result<Self::Ct, HisaError> {
        self.try_exec(Instr::MulScalar(a, x, scale))
    }

    /// [`Instr::Rescale`].
    fn try_rescale(&mut self, c: &Self::Ct, divisor: f64) -> Result<Self::Ct, HisaError> {
        self.try_exec(Instr::Rescale(c, divisor))
    }

    /// [`Hisa::try_add`], panicking on error.
    fn add(&mut self, a: &Self::Ct, b: &Self::Ct) -> Self::Ct {
        or_panic(self.try_add(a, b))
    }

    /// In-place [`Hisa::add`].
    fn add_assign(&mut self, a: &mut Self::Ct, b: &Self::Ct) {
        *a = self.add(a, b);
    }

    /// [`Hisa::try_add_plain`], panicking on error.
    fn add_plain(&mut self, a: &Self::Ct, p: &Self::Pt) -> Self::Ct {
        or_panic(self.try_add_plain(a, p))
    }

    /// [`Hisa::try_add_scalar`], panicking on error.
    fn add_scalar(&mut self, a: &Self::Ct, x: f64) -> Self::Ct {
        or_panic(self.try_add_scalar(a, x))
    }

    /// [`Hisa::try_sub`], panicking on error.
    fn sub(&mut self, a: &Self::Ct, b: &Self::Ct) -> Self::Ct {
        or_panic(self.try_sub(a, b))
    }

    /// [`Hisa::try_sub_plain`], panicking on error.
    fn sub_plain(&mut self, a: &Self::Ct, p: &Self::Pt) -> Self::Ct {
        or_panic(self.try_sub_plain(a, p))
    }

    /// [`Hisa::try_sub_scalar`], panicking on error.
    fn sub_scalar(&mut self, a: &Self::Ct, x: f64) -> Self::Ct {
        or_panic(self.try_sub_scalar(a, x))
    }

    /// [`Hisa::try_mul`], panicking on error.
    fn mul(&mut self, a: &Self::Ct, b: &Self::Ct) -> Self::Ct {
        or_panic(self.try_mul(a, b))
    }

    /// [`Hisa::try_mul_plain`], panicking on error.
    fn mul_plain(&mut self, a: &Self::Ct, p: &Self::Pt) -> Self::Ct {
        or_panic(self.try_mul_plain(a, p))
    }

    /// [`Hisa::try_mul_scalar`], panicking on error.
    fn mul_scalar(&mut self, a: &Self::Ct, x: f64, scale: f64) -> Self::Ct {
        or_panic(self.try_mul_scalar(a, x, scale))
    }

    /// [`Hisa::try_rescale`], panicking on error.
    fn rescale(&mut self, c: &Self::Ct, divisor: f64) -> Self::Ct {
        or_panic(self.try_rescale(c, divisor))
    }
}
