//! # chet-math
//!
//! Number-theoretic and arithmetic substrate for the CHET reproduction.
//!
//! This crate provides everything the CKKS-family encryption schemes in
//! [`chet-ckks`] need, implemented from scratch:
//!
//! * [`modint`] — 64-bit modular arithmetic with Shoup multiplication and
//!   Barrett reduction.
//! * [`lanes`] — 32-bit-lane kernels for primes below `2^30`, each compiled
//!   portably and for AVX2 and dispatched once per process on the CPU's
//!   AVX2 bit.
//! * [`prime`] — Miller–Rabin primality testing and NTT-friendly prime
//!   generation (primes `p ≡ 1 mod 2N`).
//! * [`ntt`] — negacyclic number-theoretic transforms over prime fields,
//!   the workhorse of polynomial multiplication in `Z_q[X]/(X^N + 1)`.
//! * [`bigint`] — a small arbitrary-precision unsigned integer, used by the
//!   HEAAN-style CKKS variant whose coefficient modulus is a power of two.
//! * [`crt`] — residue number system (RNS) tools and Garner reconstruction,
//!   used to multiply big-coefficient polynomials via NTT over a CRT basis.
//! * [`fft`] — a complex floating-point FFT used by the CKKS canonical
//!   embedding (slot encoding).
//!
//! # Examples
//!
//! ```
//! use chet_math::prime::ntt_primes;
//! use chet_math::ntt::NttTable;
//!
//! // A 50-bit NTT-friendly prime for ring degree 1024.
//! let q = ntt_primes(50, 1024, 1)[0];
//! let table = NttTable::new(q, 1024).unwrap();
//! let mut a = vec![0u64; 1024];
//! a[1] = 1; // X
//! table.forward(&mut a);
//! table.inverse(&mut a);
//! assert_eq!(a[1], 1);
//! ```

//! * [`par`] — a small fixed thread pool for data-parallel regions
//!   (per-limb RNS arithmetic, per-ciphertext kernel fan-out), with a
//!   deterministic index-ordered merge contract.

pub mod bigint;
pub mod crt;
pub mod fft;
pub mod lanes;
pub mod modint;
pub mod ntt;
pub mod par;
pub mod prime;

pub use bigint::UBig;
pub use crt::CrtBasis;
pub use fft::Complex64;
pub use ntt::NttTable;
