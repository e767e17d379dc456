//! # CHET — an optimizing compiler for fully-homomorphic neural-network
//! inferencing (PLDI 2019 reproduction)
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`math`] — NTT, CRT, bigint, FFT substrate.
//! * [`hisa`] — the Homomorphic Instruction Set Architecture (Table 2),
//!   security tables, cost model, rotation-key policies.
//! * [`ckks`] — from-scratch RNS-CKKS (SEAL-style), bigint CKKS
//!   (HEAAN-style) and a plaintext simulator, all behind the HISA.
//! * [`tensor`] — plain tensors, the circuit DSL, FLOP counting, a small
//!   HE-compatible trainer.
//! * [`runtime`] — `CipherTensor` layouts and homomorphic kernels.
//! * [`compiler`] — the CHET compiler: parameter, layout, rotation-key and
//!   fixed-point-scale selection.
//! * [`networks`] — the paper's Table 3 evaluation networks.
//! * [`serve`] — a resilient multi-threaded inference service: bounded
//!   admission, deadlines, retries, circuit breaking and graceful
//!   degradation over a compiled artifact.
//!
//! # Quickstart
//!
//! ```
//! use chet::compiler::Compiler;
//! use chet::hisa::params::SchemeKind;
//! use chet::ckks::rns::RnsCkks;
//! use chet::runtime::exec::try_infer;
//! use chet::runtime::kernels::ScaleConfig;
//! use chet::tensor::circuit::CircuitBuilder;
//! use chet::tensor::Tensor;
//!
//! // 1. Describe the tensor circuit (here: conv + activation).
//! let mut b = CircuitBuilder::new();
//! let image = b.input(vec![1, 8, 8]);
//! let w = Tensor::random(vec![2, 1, 3, 3], 0.3, 7);
//! let conv = b.conv2d(image, w, None, 1, chet::tensor::ops::Padding::Valid);
//! let out = b.activation(conv, 0.2, 0.9);
//! let circuit = b.build(out);
//!
//! // 2. Compile: CHET picks parameters, layouts, rotation keys.
//! let scales = ScaleConfig::REFERENCE;
//! let compiled = Compiler::new(SchemeKind::RnsCkks)
//!     .with_output_precision(2f64.powi(25))
//!     .compile(&circuit, &scales)?;
//!
//! // 3. Run encrypted inference on the real lattice backend.
//! let mut fhe = RnsCkks::new(&compiled.params, &compiled.rotation_keys, 42);
//! let input = Tensor::random(vec![1, 8, 8], 1.0, 3);
//! let encrypted_result = try_infer(&mut fhe, &circuit, &compiled.plan, &input)?;
//! let reference = circuit.eval(&[input]);
//! assert!(encrypted_result.max_abs_diff(&reference) < 0.1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use chet_ckks as ckks;
pub use chet_compiler as compiler;
pub use chet_hisa as hisa;
pub use chet_math as math;
pub use chet_networks as networks;
pub use chet_runtime as runtime;
pub use chet_serve as serve;
pub use chet_tensor as tensor;

pub use chet_compiler::{CompiledCircuit, Compiler};
pub use chet_hisa::Hisa;
pub use chet_tensor::{Circuit, CircuitBuilder, Tensor};
