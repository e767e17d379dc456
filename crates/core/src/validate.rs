//! Post-compile validation: the simulated probe behind
//! `Compiler::compile_checked` (self-repairing recompilation).
//!
//! Compilation chooses parameters from *static* analysis (modulus tracking
//! under an abstract interpretation). The probe closes the loop dynamically:
//! it re-validates the selected parameters against the security table, then
//! replays the compiled plan on the noise-modelling simulator with the
//! *exact* rotation keys the compiler emitted, via the fallible executor, so
//! a bad artifact surfaces as a classified [`ProbeFailure`] instead of a
//! panic or a silently-wrong deployment. The repair loop maps each failure
//! class to a parameter adjustment (more scale bits, a spare level) and
//! recompiles — bounded, deterministic, and logged in the `RepairReport`.

use crate::compiler::CompiledCircuit;
use crate::verify::OpSpan;
use chet_ckks::sim::SimCkks;
use chet_hisa::HisaError;
use chet_runtime::exec::{try_infer, ExecError};
use chet_tensor::circuit::Circuit;
use chet_tensor::Tensor;

/// Seed for the deterministic probe image and the simulator's noise RNG —
/// fixed so validation is reproducible across runs and machines.
pub const PROBE_SEED: u64 = 2024;

/// What the simulated probe found wrong with a compiled artifact. Each
/// variant maps to a distinct repair in `compile_checked`, and carries the
/// failing op's span (when the executor could attribute one) in the same
/// `(op index, kernel)` convention as the static diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeFailure {
    /// The modulus chain ran out mid-circuit — repaired by compiling with a
    /// spare rescaling level.
    LevelExhausted {
        /// The executor's error, with op attribution.
        detail: String,
        /// The circuit node the probe died at.
        span: Option<OpSpan>,
    },
    /// The probe output deviated beyond tolerance or contained non-finite
    /// slots — repaired by raising the fixed-point scales.
    PrecisionLoss {
        /// What deviated and by how much.
        detail: String,
        /// The node the loss is attributed to (the circuit output).
        span: Option<OpSpan>,
    },
    /// Any other execution failure (missing rotation key, scale mismatch,
    /// invalid parameters) — not repairable by this loop.
    Execution {
        /// The underlying error.
        detail: String,
        /// The failing node, when the executor could attribute one.
        span: Option<OpSpan>,
    },
}

impl ProbeFailure {
    /// The human-readable failure detail.
    pub fn detail(&self) -> &str {
        match self {
            ProbeFailure::LevelExhausted { detail, .. }
            | ProbeFailure::PrecisionLoss { detail, .. }
            | ProbeFailure::Execution { detail, .. } => detail,
        }
    }

    /// The failing circuit node, when one was attributed.
    pub fn span(&self) -> Option<&OpSpan> {
        match self {
            ProbeFailure::LevelExhausted { span, .. }
            | ProbeFailure::PrecisionLoss { span, .. }
            | ProbeFailure::Execution { span, .. } => span.as_ref(),
        }
    }
}

impl std::fmt::Display for ProbeFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProbeFailure::LevelExhausted { detail, .. } => {
                write!(f, "level exhaustion: {detail}")
            }
            ProbeFailure::PrecisionLoss { detail, .. } => write!(f, "precision loss: {detail}"),
            ProbeFailure::Execution { detail, .. } => write!(f, "execution failure: {detail}"),
        }
    }
}

/// Replays a compiled artifact on the simulator and checks the output
/// against the plaintext reference.
///
/// # Errors
///
/// Returns the first [`ProbeFailure`] observed: invalid parameters, an
/// executor error, or an out-of-tolerance output.
pub fn validate_compiled(
    circuit: &Circuit,
    compiled: &CompiledCircuit,
    tolerance: f64,
) -> Result<(), ProbeFailure> {
    if let Err(e) = compiled.params.validate() {
        return Err(ProbeFailure::Execution { detail: e.to_string(), span: None });
    }
    let input_shape = circuit.input_shape().ok_or_else(|| ProbeFailure::Execution {
        detail: "circuit has no encrypted input".into(),
        span: None,
    })?;
    let image = Tensor::random(input_shape.to_vec(), 1.0, PROBE_SEED);
    let reference = circuit.eval(&[image.clone()]);
    let mut sim = SimCkks::new(&compiled.params, &compiled.rotation_keys, PROBE_SEED);
    match try_infer(&mut sim, circuit, &compiled.plan, &image) {
        Err(e @ ExecError::Hisa { source: HisaError::LevelExhausted { .. }, .. }) => {
            let span = OpSpan::from_exec_error(&e);
            Err(ProbeFailure::LevelExhausted { detail: e.to_string(), span })
        }
        Err(e @ ExecError::PrecisionLoss { .. }) => {
            let span = OpSpan::from_exec_error(&e);
            Err(ProbeFailure::PrecisionLoss { detail: e.to_string(), span })
        }
        Err(e) => {
            let span = OpSpan::from_exec_error(&e);
            Err(ProbeFailure::Execution { detail: e.to_string(), span })
        }
        Ok(got) => {
            let flat_ref = reference.reshape(vec![reference.numel()]);
            let flat_got = got.reshape(vec![got.numel()]);
            let diff = flat_got.max_abs_diff(&flat_ref);
            if diff > tolerance {
                let out = circuit.output();
                Err(ProbeFailure::PrecisionLoss {
                    detail: format!(
                        "probe output deviates {diff:.4} from the plaintext reference \
                         (tolerance {tolerance})"
                    ),
                    span: Some(OpSpan::new(out, circuit.ops()[out].name())),
                })
            } else {
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::Compiler;
    use chet_hisa::params::SchemeKind;
    use chet_runtime::kernels::ScaleConfig;
    use chet_tensor::circuit::CircuitBuilder;
    use chet_tensor::ops::Padding;

    fn tiny() -> Circuit {
        let mut b = CircuitBuilder::new();
        let x = b.input(vec![1, 6, 6]);
        let w = Tensor::from_fn(vec![2, 1, 3, 3], |i| (i[2] * 3 + i[3]) as f64 * 0.05 - 0.1);
        let c = b.conv2d(x, w, Some(vec![0.1, -0.1]), 1, Padding::Valid);
        let a = b.activation(c, 0.2, 0.9);
        let g = b.global_avg_pool(a);
        b.build(g)
    }

    #[test]
    fn healthy_artifact_validates() {
        let circuit = tiny();
        let compiled = Compiler::new(SchemeKind::RnsCkks)
            .with_output_precision(2f64.powi(20))
            .compile(&circuit, &ScaleConfig::from_log2(26, 16, 16, 16))
            .unwrap();
        assert_eq!(validate_compiled(&circuit, &compiled, 0.05), Ok(()));
    }

    #[test]
    fn starved_scales_fail_as_precision_loss() {
        let circuit = tiny();
        let compiled = Compiler::new(SchemeKind::RnsCkks)
            .with_output_precision(2f64.powi(10))
            .compile(&circuit, &ScaleConfig::from_log2(14, 6, 6, 4))
            .unwrap();
        match validate_compiled(&circuit, &compiled, 0.05) {
            Err(ProbeFailure::PrecisionLoss { .. }) => {}
            other => panic!("starved scales should lose precision, got {other:?}"),
        }
    }
}
