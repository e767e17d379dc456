//! # chet-runtime
//!
//! The CHET runtime (paper §4.2): `CipherTensor`s with HW/CHW layout
//! metadata and vectorized homomorphic kernels for the tensor operations of
//! convolutional neural networks — the FHE analogue of a linear-algebra
//! library.
//!
//! * [`layout`] — tensor-to-vector layouts, strides, margins.
//! * [`ciphertensor`] — encrypted tensors; packing, encryption, decryption.
//! * [`kernels`] — conv2d, dense, pooling, activations, batch-norm, concat.
//! * [`exec`] — the circuit executor driven by an [`exec::ExecPlan`] (the
//!   compiler's policy decisions).
//!
//! Everything is generic over [`chet_hisa::Hisa`], so the same kernels run
//! on real lattice backends, the plaintext simulator, and the compiler's
//! data-flow interpretations.
//!
//! # Examples
//!
//! ```
//! use chet_ckks::sim::SimCkks;
//! use chet_hisa::{EncryptionParams, RotationKeyPolicy};
//! use chet_runtime::exec::{infer, ExecPlan};
//! use chet_runtime::kernels::ScaleConfig;
//! use chet_runtime::layout::LayoutKind;
//! use chet_tensor::circuit::CircuitBuilder;
//! use chet_tensor::Tensor;
//!
//! let mut b = CircuitBuilder::new();
//! let x = b.input(vec![1, 4, 4]);
//! let p = b.avg_pool2d(x, 2, 2);
//! let circuit = b.build(p);
//!
//! let params = EncryptionParams::rns_ckks(8192, 40, 3);
//! let mut fhe = SimCkks::new(&params, &RotationKeyPolicy::PowersOfTwo, 1).without_noise();
//! let plan = ExecPlan::uniform(&circuit, LayoutKind::CHW, ScaleConfig::default());
//! let image = Tensor::from_fn(vec![1, 4, 4], |i| i[2] as f64);
//! let out = infer(&mut fhe, &circuit, &plan, &image);
//! assert_eq!(out.shape(), &[1, 2, 2]);
//! ```

// Failure-model gate (enforced by `ci.sh` via clippy): non-test runtime
// code must not unwrap/expect — contract violations flow through the
// fallible `try_*` surface as `HisaError`/`KernelError`/`ExecError`
// values. Tests may unwrap freely. Deliberate panics on internal
// invariants use `#[allow]` with a justification at the site.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cancel;
pub mod ciphertensor;
pub mod exec;
pub mod fault;
pub mod kernels;
pub mod layout;
pub mod par;
pub mod tally;

pub use cancel::{CancelReason, CancelToken};
pub use ciphertensor::{decrypt_tensor, encrypt_tensor, try_encrypt_tensor, CipherTensor};
pub use exec::{
    infer, try_infer, try_infer_with_control, try_run_encrypted_with, ExecControl, ExecError,
    ExecObserver, ExecPlan, ExecReport,
};
pub use fault::{FaultInjector, FaultPlan};
pub use kernels::{KernelError, ScaleConfig};
pub use layout::{Layout, LayoutKind};
pub use tally::RunTally;
