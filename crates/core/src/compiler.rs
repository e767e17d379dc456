//! The top-level CHET compiler (paper §3, Figure 2).
//!
//! Input: a tensor circuit + input schema (shapes are embedded in the
//! circuit; scales come from the user or the profile-guided search).
//! Output: a [`CompiledCircuit`] — the optimized homomorphic tensor circuit
//! (layout plan), the encryption parameters for the encryptor/decryptor,
//! and the rotation-key configuration the client must generate.

use crate::layout::{enumerate_layouts, LayoutChoice, LayoutPolicy};
use crate::params::{AnalysisOutcome, SelectError};
use crate::rotations::{prune_rotation_keys, select_rotation_keys};
use crate::scales::{select_scales, ScaleSearch};
use crate::validate::{validate_compiled, ProbeFailure};
use crate::verify::{verify_compiled, DiagnosticReport, LintCode, Severity};
use chet_hisa::cost::CostModel;
use chet_hisa::params::{EncryptionParams, SchemeKind};
use chet_hisa::security::SecurityLevel;
use chet_hisa::RotationKeyPolicy;
use chet_runtime::exec::ExecPlan;
use chet_runtime::kernels::ScaleConfig;
use chet_tensor::circuit::{Circuit, Op};
use chet_tensor::Tensor;

/// Compiler configuration.
#[derive(Debug, Clone)]
pub struct Compiler {
    kind: SchemeKind,
    security: SecurityLevel,
    output_precision: f64,
    cost_model: CostModel,
    margin_levels: usize,
    repair_tolerance: f64,
    layout_policy: Option<LayoutPolicy>,
}

/// The compiler's output: everything needed to run the circuit
/// homomorphically (paper Figure 2's "optimized homomorphic tensor circuit"
/// plus encryptor/decryptor configuration).
#[derive(Debug, Clone)]
pub struct CompiledCircuit {
    /// Layout assignment + scales + margin: drives the runtime executor.
    pub plan: ExecPlan,
    /// Encryption parameters for the encryptor/decryptor.
    pub params: EncryptionParams,
    /// The rotation keys the encryptor must generate.
    pub rotation_keys: RotationKeyPolicy,
    /// Which layout policy won the search.
    pub policy: LayoutPolicy,
    /// Estimated execution cost of the chosen plan.
    pub estimated_cost: f64,
    /// Analysis facts (modulus consumption, op counts, rotations).
    pub outcome: AnalysisOutcome,
    /// The output fixed-point precision the compilation targeted (the
    /// static verifier's `CHET-W004` budget).
    pub output_precision: f64,
    /// Rotation steps the key-pruning pass dropped from the provisional
    /// key request (surfaced as the `CHET-N002` note). Empty for artifacts
    /// compiled from an analysis outcome (pruning is a no-op there).
    pub pruned_rotations: Vec<usize>,
}

impl CompiledCircuit {
    /// How many inference requests batch-pack into one ciphertext set under
    /// this artifact's plan and parameters (the paper's `slots /
    /// ciphertext_size` throughput lever; surfaced as the `CHET-B001` note
    /// and consumed by the serving layer's request coalescer). Always ≥ 1;
    /// capacity 1 means batching cannot help this circuit.
    pub fn batch_capacity(&self, circuit: &Circuit) -> usize {
        chet_runtime::exec::batch_capacity(circuit, &self.plan, self.params.slots())
    }
}

/// One adjustment made by [`Compiler::compile_checked`]'s repair loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairAction {
    /// 1-based attempt that observed the failure.
    pub attempt: usize,
    /// The probe failure that triggered the repair.
    pub reason: String,
    /// What the repair changed.
    pub adjustment: String,
}

/// The outcome of [`Compiler::compile_checked`]'s validate-and-repair loop.
#[derive(Debug, Clone)]
pub struct RepairReport {
    /// Compile attempts spent (1 = validated on the first try).
    pub attempts: usize,
    /// Adjustments applied, in order.
    pub actions: Vec<RepairAction>,
    /// The scales the validated artifact was compiled with.
    pub final_scales: ScaleConfig,
    /// Spare rescaling levels added beyond the compiler's configuration.
    pub extra_levels: usize,
    /// The static verifier's findings on the accepted artifact (zero Deny
    /// by construction; Warn/Note diagnostics are informational).
    pub lints: DiagnosticReport,
}

impl RepairReport {
    /// Whether any repair was needed.
    pub fn repaired(&self) -> bool {
        !self.actions.is_empty()
    }
}

/// The precision repair: more fractional bits everywhere, weighted toward
/// the input scale (which dominates output noise).
fn bump_scales(s: &ScaleConfig) -> ScaleConfig {
    ScaleConfig {
        input: s.input * 2f64.powi(6),
        weight_plain: s.weight_plain * 2f64.powi(4),
        weight_scalar: s.weight_scalar * 2f64.powi(4),
        mask: s.mask * 2f64.powi(3),
    }
}

impl Compiler {
    /// A compiler targeting the given scheme variant with CHET's defaults:
    /// 128-bit security and output precision `2^30`.
    pub fn new(kind: SchemeKind) -> Self {
        Compiler {
            kind,
            security: SecurityLevel::Bits128,
            output_precision: 2f64.powi(30),
            cost_model: CostModel::for_scheme(kind),
            margin_levels: 0,
            repair_tolerance: 0.05,
            layout_policy: None,
        }
    }

    /// Overrides the security level (builder style).
    pub fn with_security(mut self, security: SecurityLevel) -> Self {
        self.security = security;
        self
    }

    /// Overrides the desired output fixed-point precision.
    pub fn with_output_precision(mut self, precision: f64) -> Self {
        self.output_precision = precision;
        self
    }

    /// Reserves `levels` spare rescaling levels beyond what the static
    /// analysis measured (insurance against modulus exhaustion at run time;
    /// [`Compiler::compile_checked`] bumps this automatically).
    pub fn with_margin_levels(mut self, levels: usize) -> Self {
        self.margin_levels = levels;
        self
    }

    /// Overrides the output tolerance the post-compile probe enforces in
    /// [`Compiler::compile_checked`] (default `0.05`).
    pub fn with_repair_tolerance(mut self, tolerance: f64) -> Self {
        self.repair_tolerance = tolerance;
        self
    }

    /// Pins the layout policy instead of searching all four (paper Table 5/6
    /// style ablations, and adversarial artifacts for the static verifier).
    pub fn with_layout_policy(mut self, policy: LayoutPolicy) -> Self {
        self.layout_policy = Some(policy);
        self
    }

    /// The targeted scheme variant.
    pub fn kind(&self) -> SchemeKind {
        self.kind
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    fn finish(&self, choice: LayoutChoice) -> CompiledCircuit {
        let rotation_keys = select_rotation_keys(&choice.outcome);
        // §5.4 invariant: the emitted key set must exactly match the steps
        // the analysis recorded. Pruning is a no-op for the Exact policy
        // built from the outcome, but keeps stale/hand-edited policies from
        // shipping unused keys.
        let slots = choice.outcome.params.slots();
        let (rotation_keys, extras) =
            prune_rotation_keys(rotation_keys, &choice.outcome.rotations, slots);
        CompiledCircuit {
            plan: choice.plan,
            params: choice.outcome.params.clone(),
            rotation_keys,
            policy: choice.policy,
            estimated_cost: choice.estimated_cost,
            outcome: choice.outcome,
            output_precision: self.output_precision,
            pruned_rotations: extras,
        }
    }

    /// Compiles a circuit with user-provided fixed-point scales: runs the
    /// layout search (each candidate priced after parameter selection) and
    /// the rotation-key selection on the winner.
    ///
    /// # Errors
    ///
    /// Fails when the circuit shape is unsupported (multiple encrypted
    /// inputs) or no supported ring degree can hold the circuit.
    pub fn compile(
        &self,
        circuit: &Circuit,
        scales: &ScaleConfig,
    ) -> Result<CompiledCircuit, SelectError> {
        let inputs =
            circuit.ops().iter().filter(|op| matches!(op, Op::Input { .. })).count();
        if inputs > 1 {
            // Rejecting here keeps the executor's run-time check from ever
            // firing on compiler-produced plans.
            return Err(SelectError::UnsupportedCircuit {
                reason: "circuits with multiple encrypted inputs are unsupported".into(),
            });
        }
        let mut ranked = enumerate_layouts(
            circuit,
            scales,
            self.kind,
            self.security,
            self.output_precision,
            &self.cost_model,
            self.margin_levels,
        )?;
        let at = match self.layout_policy {
            None => 0,
            Some(policy) => ranked.iter().position(|c| c.policy == policy).ok_or_else(|| {
                SelectError::UnsupportedCircuit {
                    reason: format!("layout policy {policy} produced no viable plan"),
                }
            })?,
        };
        let choice = ranked.swap_remove(at);
        Ok(self.finish(choice))
    }

    /// Compiles, then validates the artifact in two phases: the *static
    /// verifier* first ([`verify_compiled`] — abstract interpretation, no
    /// ciphertext arithmetic), and only then the dynamic SimCkks probe for
    /// what statics cannot decide (noise-driven output precision). Both
    /// phases repair and recompile on failure: a static level-exhaustion
    /// finding or a probed exhaustion adds a spare rescaling level, probed
    /// precision loss raises the fixed-point scales. Any other Deny
    /// diagnostic is a compiler bug no parameter adjustment fixes, so it
    /// fails immediately with the lint code in the error. At most three
    /// repair attempts follow the initial compile; every adjustment is
    /// logged in the returned [`RepairReport`], along with the accepted
    /// artifact's full lint report.
    ///
    /// # Errors
    ///
    /// Propagates the first compile failure unchanged; returns
    /// [`SelectError::RepairFailed`] when the retry budget is exhausted or
    /// either phase hits a failure no repair addresses.
    pub fn compile_checked(
        &self,
        circuit: &Circuit,
        scales: &ScaleConfig,
    ) -> Result<(CompiledCircuit, RepairReport), SelectError> {
        const MAX_RETRIES: usize = 3;
        let mut compiler = self.clone();
        let mut scales = *scales;
        let mut actions: Vec<RepairAction> = Vec::new();
        for attempt in 0..=MAX_RETRIES {
            let compiled = match compiler.compile(circuit, &scales) {
                Ok(c) => c,
                Err(e) if attempt == 0 => return Err(e),
                Err(e) => {
                    return Err(SelectError::RepairFailed {
                        attempts: attempt + 1,
                        last_error: e.to_string(),
                    })
                }
            };
            // Phase 1: static verification. Rejects bad artifacts from the
            // trace alone and decides scale/level/key/slot properties, so
            // the probe below only has to answer the noise question.
            let lints = verify_compiled(circuit, &compiled);
            if lints.has_deny() {
                let repairable = lints
                    .by_severity(Severity::Deny)
                    .all(|d| d.code == LintCode::LevelExhaustion);
                let first = lints
                    .first_deny()
                    .map(|d| d.to_string())
                    .unwrap_or_else(|| "unknown deny diagnostic".into());
                if !repairable || attempt == MAX_RETRIES {
                    return Err(SelectError::RepairFailed {
                        attempts: attempt + 1,
                        last_error: first,
                    });
                }
                compiler.margin_levels += 1;
                actions.push(RepairAction {
                    attempt: attempt + 1,
                    reason: first,
                    adjustment: format!(
                        "reserved a spare rescaling level ({} total)",
                        compiler.margin_levels
                    ),
                });
                continue;
            }
            // Phase 2: the dynamic probe, for the noise behaviour statics
            // cannot decide.
            let failure = match validate_compiled(circuit, &compiled, compiler.repair_tolerance)
            {
                Ok(()) => {
                    // Phase 3: whole-circuit IR analysis. The CHET-P
                    // performance lints ride along in the report (they are
                    // never deny, so they cannot fail a healthy compile).
                    let mut lints = lints;
                    if let Ok(ir) = crate::ir::extract_ir(
                        circuit,
                        &compiled,
                        crate::ir::ExtractMode::Metadata,
                    ) {
                        lints.diagnostics.extend(crate::ir::analyze::analyze(&ir));
                    }
                    // The batch-capacity note (CHET-B001): how far the
                    // serving layer can coalesce requests into one
                    // ciphertext under this artifact.
                    let capacity = compiled.batch_capacity(circuit);
                    lints.diagnostics.push(crate::verify::Diagnostic {
                        code: LintCode::BatchCapacity,
                        span: None,
                        message: format!(
                            "slot-axis batch capacity: {capacity} request(s) per \
                             ciphertext ({} slots)",
                            compiled.params.slots()
                        ),
                    });
                    return Ok((
                        compiled,
                        RepairReport {
                            attempts: attempt + 1,
                            actions,
                            final_scales: scales,
                            extra_levels: compiler.margin_levels - self.margin_levels,
                            lints,
                        },
                    ))
                }
                Err(f) => f,
            };
            if attempt == MAX_RETRIES {
                return Err(SelectError::RepairFailed {
                    attempts: attempt + 1,
                    last_error: failure.to_string(),
                });
            }
            let adjustment = match &failure {
                ProbeFailure::LevelExhausted { .. } => {
                    compiler.margin_levels += 1;
                    format!("reserved a spare rescaling level ({} total)", compiler.margin_levels)
                }
                ProbeFailure::PrecisionLoss { .. } => {
                    scales = bump_scales(&scales);
                    format!(
                        "raised scales to log2 ({:.0}, {:.0}, {:.0}, {:.0})",
                        scales.input.log2(),
                        scales.weight_plain.log2(),
                        scales.weight_scalar.log2(),
                        scales.mask.log2(),
                    )
                }
                ProbeFailure::Execution { detail, .. } => {
                    // Missing keys / scale mismatches are compiler bugs, not
                    // parameter shortfalls: no adjustment would help.
                    return Err(SelectError::RepairFailed {
                        attempts: attempt + 1,
                        last_error: detail.clone(),
                    });
                }
            };
            actions.push(RepairAction {
                attempt: attempt + 1,
                reason: failure.to_string(),
                adjustment,
            });
        }
        unreachable!("repair loop returns within MAX_RETRIES + 1 attempts")
    }

    /// Compiles with profile-guided scale selection (paper §5.5): first
    /// finds minimal scales meeting `tolerance` on the training images
    /// (under the CHW layout), then runs the regular compilation with them.
    ///
    /// # Errors
    ///
    /// Fails if even the starting scales cannot reach the tolerance, or if
    /// parameter selection fails.
    pub fn compile_with_profile(
        &self,
        circuit: &Circuit,
        images: &[Tensor],
        search: &ScaleSearch,
    ) -> Result<(CompiledCircuit, ScaleConfig), SelectError> {
        let probe_layouts = crate::layout::policy_layouts(circuit, LayoutPolicy::Chw);
        let (scales, _evals) = select_scales(
            circuit,
            &probe_layouts,
            self.kind,
            self.security,
            self.output_precision,
            images,
            search,
        )?;
        let compiled = self.compile(circuit, &scales)?;
        Ok((compiled, scales))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chet_ckks::rns::RnsCkks;
    use chet_ckks::sim::SimCkks;
    use chet_runtime::exec::try_infer;
    use chet_tensor::circuit::CircuitBuilder;
    use chet_tensor::ops::Padding;

    fn cnn() -> Circuit {
        let mut b = CircuitBuilder::new();
        let x = b.input(vec![1, 8, 8]);
        let w1 = Tensor::from_fn(vec![2, 1, 3, 3], |i| (i[0] + i[2] + i[3]) as f64 * 0.08 - 0.15);
        let c1 = b.conv2d(x, w1, Some(vec![0.05, -0.05]), 1, Padding::Valid);
        let a1 = b.activation(c1, 0.15, 0.9);
        let p1 = b.avg_pool2d(a1, 2, 2);
        let f = b.flatten(p1);
        let wfc = Tensor::from_fn(vec![3, 18], |i| ((i[0] + i[1]) % 4) as f64 * 0.1 - 0.15);
        let m = b.matmul(f, wfc, Some(vec![0.1, 0.0, -0.1]));
        b.build(m)
    }

    #[test]
    fn compile_produces_consistent_artifacts() {
        let circuit = cnn();
        let compiled =
            Compiler::new(SchemeKind::RnsCkks).compile(&circuit, &ScaleConfig::default()).unwrap();
        assert_eq!(compiled.plan.layouts.len(), circuit.ops().len());
        assert!(compiled.params.validate().is_ok());
        match &compiled.rotation_keys {
            RotationKeyPolicy::Exact(steps) => assert!(!steps.is_empty()),
            _ => panic!("compiler must emit exact rotation keys"),
        }
        assert!(compiled.estimated_cost > 0.0);
    }

    #[test]
    fn compiled_circuit_runs_on_simulator() {
        let circuit = cnn();
        let scales = ScaleConfig::default();
        let compiled = Compiler::new(SchemeKind::RnsCkks).compile(&circuit, &scales).unwrap();
        let mut sim = SimCkks::new(&compiled.params, &compiled.rotation_keys, 11);
        let image = Tensor::random(vec![1, 8, 8], 1.0, 3);
        let got = try_infer(&mut sim, &circuit, &compiled.plan, &image).unwrap();
        let want = circuit.eval(&[image]);
        assert!(
            got.max_abs_diff(&want) < 5e-2,
            "sim inference should track reference: {}",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn compiled_circuit_runs_on_real_rns_ckks() {
        // Full pipeline on the real lattice backend. Uses the circuit's own
        // selected parameters and exact rotation keys.
        let circuit = cnn();
        let scales = ScaleConfig::from_log2(26, 16, 16, 16);
        let compiled = Compiler::new(SchemeKind::RnsCkks)
            .with_output_precision(2f64.powi(20))
            .compile(&circuit, &scales)
            .unwrap();
        let mut fhe = RnsCkks::new(&compiled.params, &compiled.rotation_keys, 99);
        let image = Tensor::random(vec![1, 8, 8], 1.0, 4);
        let got = try_infer(&mut fhe, &circuit, &compiled.plan, &image).unwrap();
        let want = circuit.eval(&[image]);
        assert!(
            got.max_abs_diff(&want) < 0.05,
            "encrypted inference must track reference: {}",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn ckks_and_rns_targets_both_compile() {
        // Paper §6: CHET makes switching schemes easy — same circuit, two
        // backends.
        let circuit = cnn();
        let scales = ScaleConfig::default();
        let rns = Compiler::new(SchemeKind::RnsCkks).compile(&circuit, &scales).unwrap();
        let big = Compiler::new(SchemeKind::Ckks).compile(&circuit, &scales).unwrap();
        assert_eq!(rns.params.kind(), SchemeKind::RnsCkks);
        assert_eq!(big.params.kind(), SchemeKind::Ckks);
    }

    #[test]
    fn profile_guided_compilation() {
        let circuit = cnn();
        let images: Vec<Tensor> =
            (0..2).map(|s| Tensor::random(vec![1, 8, 8], 1.0, 40 + s)).collect();
        let search = ScaleSearch {
            start: (30, 20, 20, 10),
            min: (18, 10, 10, 5),
            tolerance: 0.05,
            max_evals: 20,
        };
        let (compiled, scales) = Compiler::new(SchemeKind::RnsCkks)
            .compile_with_profile(&circuit, &images, &search)
            .unwrap();
        assert!(scales.input <= 2f64.powi(30));
        assert!(compiled.params.validate().is_ok());
    }
}
