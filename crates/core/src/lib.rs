//! # chet-compiler
//!
//! The CHET optimizing compiler for homomorphic tensor circuits — the
//! primary contribution of *"CHET: An Optimizing Compiler for
//! Fully-Homomorphic Neural-Network Inferencing"* (PLDI 2019).
//!
//! Given a tensor circuit (from `chet-tensor`) the compiler:
//!
//! 1. **Selects encryption parameters** (§5.2, [`params`]) by walking the
//!    circuit over scale, level and rotation domains and consulting the
//!    HE-standard security table.
//! 2. **Selects data layouts** (§5.3, [`layout`]) by pricing each of the
//!    four pruned layout policies' level ledgers with the Table 1 cost
//!    model.
//! 3. **Selects rotation keys** (§5.4, [`rotations`]) by recording the
//!    exact rotation steps the circuit uses.
//! 4. **Selects fixed-point scales** (§5.5, [`scales`]) with a
//!    profile-guided round-robin search against an output tolerance.
//!
//! Parameter selection, layout pricing, verification and IR extraction
//! share one abstract walker ([`verify::walker::VerifyInterp`]): the
//! circuit executes under a different interpretation of the ciphertext
//! datatype (§5.1). Each pass is a product of the [`verify::domain`]
//! transfer functions; [`ir::extract_ir`] additionally records the walk as
//! an explicit HISA dataflow graph for the whole-circuit analyses.
//!
//! # Examples
//!
//! ```
//! use chet_compiler::Compiler;
//! use chet_hisa::params::SchemeKind;
//! use chet_runtime::kernels::ScaleConfig;
//! use chet_tensor::circuit::CircuitBuilder;
//! use chet_tensor::Tensor;
//!
//! // output = conv2d(image, weights)  — the paper's §3.2 example.
//! let mut b = CircuitBuilder::new();
//! let image = b.input(vec![1, 28, 28]);
//! let weights = Tensor::random(vec![4, 1, 5, 5], 0.2, 1);
//! let out = b.conv2d(image, weights, None, 1, chet_tensor::ops::Padding::Valid);
//! let circuit = b.build(out);
//!
//! let compiled = Compiler::new(SchemeKind::RnsCkks)
//!     .compile(&circuit, &ScaleConfig::default())
//!     .expect("compiles");
//! println!(
//!     "N = {}, log Q = {:.0}, policy = {}",
//!     compiled.params.degree,
//!     compiled.params.modulus.log_q(),
//!     compiled.policy,
//! );
//! ```

// Failure-model gate (enforced by `ci.sh` via clippy): non-test compiler
// code must not unwrap/expect — selection failures are `SelectError`
// values. Tests may unwrap freely. Deliberate panics on internal
// invariants use `#[allow]` with a justification at the site.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod artifact;
pub mod compiler;
pub mod equiv;
pub mod ir;
pub mod layout;
pub mod params;
pub mod rotations;
pub mod scales;
pub mod validate;
pub mod verify;

pub use artifact::{decode_compiled, encode_compiled, ARTIFACT_FORMAT_VERSION};
pub use compiler::{CompiledCircuit, Compiler, RepairAction, RepairReport};
pub use equiv::{validate_extraction, EquivReport};
pub use ir::{extract_ir, try_replay_ir, ExtractMode, IrGraph};
pub use layout::{LayoutPolicy, ALL_POLICIES};
pub use params::{select_parameters, AnalysisOutcome, SelectError};
pub use rotations::{prune_rotation_keys, select_rotation_keys};
pub use scales::{select_scales, ScaleSearch};
pub use validate::{validate_compiled, ProbeFailure};
pub use verify::{
    verify_compiled, Diagnostic, DiagnosticReport, LintCode, OpSpan, Severity,
};
