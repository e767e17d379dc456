//! # chet-ckks
//!
//! From-scratch CKKS-family encryption backends for the CHET reproduction.
//!
//! Three backends implement the [`chet_hisa::Hisa`] instruction set:
//!
//! * [`rns::RnsCkks`] — SEAL v3.1-style RNS-CKKS: coefficient modulus is a
//!   chain of word-sized NTT primes, with hybrid key switching through one
//!   special prime. Real RLWE encryption.
//! * [`big::BigCkks`] — HEAAN v1.0-style CKKS: coefficient modulus is a
//!   power of two, coefficients are big integers, polynomial products run
//!   over an NTT/CRT basis. Real RLWE encryption.
//! * [`sim::SimCkks`] — a plaintext simulator with exact slot semantics,
//!   faithful modulus/rotation-key accounting and a CKKS noise model. Used
//!   for fast full-network sweeps (see DESIGN.md substitutions).
//!
//! Shared infrastructure: [`encoding::CkksEncoder`] (the canonical
//! embedding) and [`sampling`] (RLWE distributions).
//!
//! # Examples
//!
//! ```
//! use chet_ckks::sim::SimCkks;
//! use chet_hisa::{EncryptionParams, Hisa, HisaError, RotationKeyPolicy};
//!
//! let params = EncryptionParams::rns_ckks(8192, 40, 3);
//! let mut fhe = SimCkks::new(&params, &RotationKeyPolicy::PowersOfTwo, 7);
//! let scale = (1u64 << 30) as f64;
//! let pt = fhe.try_encode(&[1.0, 2.0, 3.0], scale)?;
//! let ct = fhe.encrypt(&pt);
//! let doubled = fhe.try_add(&ct, &ct)?;
//! let dec = fhe.decrypt(&doubled);
//! let out = fhe.decode(&dec);
//! assert!((out[1] - 4.0).abs() < 1e-3);
//! # Ok::<(), HisaError>(())
//! ```

// Vectorized limb kernels live behind safe functions in `chet-math`.
#![forbid(unsafe_code)]

pub mod big;
pub mod encoding;
pub mod rns;
pub mod sampling;
pub mod sim;

pub use encoding::CkksEncoder;
