//! Encryption-parameter selection (paper §5.2).
//!
//! Walks the circuit once per candidate ring degree under the verifier's
//! domains — scales, modulus levels under the open search model, and the
//! requested rotation steps — to find the modulus each variant needs, then
//! picks the smallest ring degree whose security budget admits it. The
//! accepted walk's level ledger is what layout selection prices (§5.3).

use crate::verify::domain::{Ledger, LevelDomain, RotationDomain, ScaleDomain};
use crate::verify::walker::{self, VerifyInterp};
use chet_hisa::cost::HisaOp;
use chet_hisa::params::{EncryptionParams, ModulusSpec, SchemeKind};
use chet_hisa::security::{max_log_q, SecurityLevel, DEGREES};
use chet_hisa::Hisa;
use chet_math::prime::ntt_primes;
use chet_runtime::exec::ExecPlan;
use chet_runtime::kernels::ScaleConfig;
use chet_runtime::layout::LayoutKind;
use chet_tensor::circuit::{Circuit, Op};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Headroom bits reserved above the output scale for message magnitude.
const HEADROOM_BITS: f64 = 10.0;

/// Everything the parameter-selection analysis learns about a circuit under
/// one layout plan.
#[derive(Debug, Clone)]
pub struct AnalysisOutcome {
    /// The selected encryption parameters.
    pub params: EncryptionParams,
    /// Rotation steps the circuit requests (input to key selection).
    pub rotations: BTreeSet<usize>,
    /// Total modulus consumed (log2).
    pub consumed_log2: f64,
    /// Scale of the circuit output ciphertext.
    pub output_scale: f64,
    /// HISA op counts.
    pub op_counts: HashMap<HisaOp, u64>,
}

/// Why compilation (parameter / layout / scale selection, or the
/// post-compile validation loop) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectError {
    /// No supported ring degree can hold the circuit.
    NoParameters {
        /// Scheme/security context of the failed search.
        detail: String,
    },
    /// The circuit uses a shape the toolchain cannot compile (e.g. multiple
    /// encrypted inputs) — rejected up front, before any analysis runs.
    UnsupportedCircuit {
        /// What made the circuit unsupported.
        reason: String,
    },
    /// No layout policy admits valid encryption parameters.
    NoLayout,
    /// Profile-guided scale selection could not meet the tolerance.
    ScaleSearchFailed {
        /// What the search could not achieve.
        detail: String,
    },
    /// `compile_checked`'s bounded repair loop ran out of attempts.
    RepairFailed {
        /// Attempts spent (initial compile + retries).
        attempts: usize,
        /// The failure observed on the last attempt.
        last_error: String,
    },
}

impl std::fmt::Display for SelectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectError::NoParameters { detail } => {
                write!(f, "parameter selection failed: {detail}")
            }
            SelectError::UnsupportedCircuit { reason } => {
                write!(f, "unsupported circuit: {reason}")
            }
            SelectError::NoLayout => {
                write!(f, "parameter selection failed: no layout policy admits valid parameters")
            }
            SelectError::ScaleSearchFailed { detail } => {
                write!(f, "parameter selection failed: {detail}")
            }
            SelectError::RepairFailed { attempts, last_error } => {
                write!(f, "automatic repair failed after {attempts} attempts: {last_error}")
            }
        }
    }
}

impl std::error::Error for SelectError {}

/// Generates the candidate rescaling primes for the RNS variant, sized to
/// the working scale (all ≡ 1 mod 2·32768, hence NTT-friendly for every
/// supported degree).
pub fn candidate_primes(scales: &ScaleConfig) -> Vec<u64> {
    // Primes must be ≡ 1 mod 65536; below ~30 bits too few exist, so the
    // candidate size floors there even for smaller working scales.
    let bits = (scales.input.log2().round() as u32).clamp(30, 59);
    ntt_primes(bits, 32768, 40)
}

/// Quick structural check that a circuit's tensors fit `slots`-wide vectors
/// under a margin, before running the full analysis.
pub fn circuit_fits(circuit: &Circuit, margin: usize, slots: usize) -> bool {
    let shapes = circuit.shapes();
    for (i, op) in circuit.ops().iter().enumerate() {
        match op {
            Op::Input { shape } => {
                let [_, h, w] = shape[..] else { return false };
                if (w + margin) * (h + margin) > slots {
                    return false;
                }
            }
            Op::MatMul { .. } => {
                if shapes[i][0] > slots {
                    return false;
                }
            }
            _ => {}
        }
    }
    true
}

/// What one open-search walk measures at a fixed slot count.
struct Walk {
    /// The level domain: deepest consumption and the pricing ledger.
    levels: LevelDomain,
    /// Normalized rotation steps the circuit requests.
    rotations: BTreeSet<usize>,
    /// Scale of the circuit's output ciphertext.
    output_scale: f64,
}

/// Walks the circuit at `slots` over scales × levels (open search model) ×
/// requested rotation steps. `None` when the walk exhausts the candidate
/// primes or a kernel rejects the shape — either way, no parameters at this
/// degree.
fn walk(
    circuit: &Circuit,
    plan: &ExecPlan,
    slots: usize,
    candidates: Option<&[u64]>,
) -> Option<Walk> {
    let domain = (
        (ScaleDomain::new(plan.scales.input), LevelDomain::open(candidates)),
        RotationDomain::collector(slots),
    );
    let mut interp = VerifyInterp::with_domain(slots, domain, Arc::default());
    let walked = walker::walk(&mut interp, circuit, plan).ok()?;
    let output_scale = interp.scale_of(walked.output.cts.last()?);
    let ((_, levels), rotations) = interp.domain;
    if levels.exhausted() {
        return None;
    }
    Some(Walk { levels, rotations: rotations.used, output_scale })
}

/// Selects encryption parameters for a circuit under a layout assignment
/// (paper §5.2): the smallest `Q` that evaluates the circuit at the desired
/// output precision, and the smallest `N` whose security budget admits it.
///
/// For the CKKS (HEAAN-style) variant the security check follows the
/// paper's Table 4 practice and constrains `log Q` alone; for RNS-CKKS the
/// full `Q·P` is checked against the HE-standard table.
///
/// `extra_levels` budgets that many spare rescaling levels beyond what the
/// analysis measured — the knob `compile_checked`'s repair loop turns when
/// the simulated probe exhausts the modulus early (e.g. noise or scheduling
/// effects the static analysis underestimates); a plain compile passes 0.
///
/// # Errors
///
/// Returns an error when even `N = 32768` cannot hold the circuit.
#[allow(clippy::too_many_arguments)]
pub fn select_parameters(
    circuit: &Circuit,
    layouts: &[LayoutKind],
    scales: &ScaleConfig,
    kind: SchemeKind,
    security: SecurityLevel,
    output_precision: f64,
    extra_levels: usize,
) -> Result<AnalysisOutcome, SelectError> {
    select_and_ledger(circuit, layouts, scales, kind, security, output_precision, extra_levels)
        .map(|(outcome, _)| outcome)
}

/// [`select_parameters`], also returning the accepted walk's
/// program-order `(op, operand level)` ledger for cost estimation.
#[allow(clippy::too_many_arguments)]
pub(crate) fn select_and_ledger(
    circuit: &Circuit,
    layouts: &[LayoutKind],
    scales: &ScaleConfig,
    kind: SchemeKind,
    security: SecurityLevel,
    output_precision: f64,
    extra_levels: usize,
) -> Result<(AnalysisOutcome, Ledger), SelectError> {
    let margin = chet_runtime::exec::required_margin_for(circuit);
    let plan = ExecPlan { layouts: layouts.to_vec(), scales: *scales, margin };
    let candidates = match kind {
        SchemeKind::RnsCkks => Some(candidate_primes(scales)),
        SchemeKind::Ckks => None,
    };
    for &n in &DEGREES {
        let slots = n / 2;
        if !circuit_fits(circuit, margin, slots) {
            continue;
        }
        let Some(walk) = walk(circuit, &plan, slots, candidates.as_deref()) else {
            continue;
        };
        let deepest = walk.levels.deepest;
        // The ciphertext must hold output_value·output_scale plus headroom
        // after consuming `consumed` bits of modulus. The live output scale
        // can exceed the requested precision; budget for the larger.
        let residual_bits = walk.output_scale.log2().max(output_precision.log2());
        let modulus = match &candidates {
            None => {
                let margin_bits = extra_levels as f64 * scales.input.log2().ceil();
                let log_q = (deepest.consumed_log2 + residual_bits + HEADROOM_BITS + margin_bits)
                    .ceil() as u32;
                if log_q > max_log_q(n, security) {
                    continue;
                }
                // HEAAN-style relaxed check (documented in DESIGN.md): only
                // `log Q` is held to the security table, not Q·P.
                ModulusSpec::PowerOfTwo { log_q, log_special: log_q }
            }
            Some(cands) => {
                // Base primes cover the residual value.
                let base_bits = 60u32;
                let base_count =
                    ((residual_bits + HEADROOM_BITS) / (base_bits as f64 - 0.5)).ceil() as usize;
                let mut pool = ntt_primes(base_bits, 32768, base_count + 1);
                let special = pool.remove(0);
                // Chain order: rescaling pops from the back, so the first-
                // consumed candidate goes last.
                let mut primes = pool;
                let take = (deepest.chain_idx + extra_levels).min(cands.len());
                primes.extend(cands[..take].iter().rev());
                let spec = ModulusSpec::PrimeChain { primes, special };
                if spec.total_log_q() > max_log_q(n, security) as f64 {
                    continue;
                }
                spec
            }
        };
        let params = EncryptionParams {
            degree: n,
            modulus,
            security,
            error_stddev: EncryptionParams::DEFAULT_ERROR_STDDEV,
        };
        let ledger = walk.levels.ledger.unwrap_or_default();
        let mut op_counts = HashMap::new();
        for (op, _) in ledger.iter() {
            *op_counts.entry(op).or_insert(0) += 1;
        }
        let outcome = AnalysisOutcome {
            params,
            rotations: walk.rotations,
            consumed_log2: deepest.consumed_log2,
            output_scale: walk.output_scale,
            op_counts,
        };
        return Ok((outcome, ledger));
    }
    Err(SelectError::NoParameters {
        detail: format!(
            "no supported ring degree admits this circuit under {kind} at {security:?}"
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chet_tensor::circuit::CircuitBuilder;
    use chet_tensor::ops::Padding;
    use chet_tensor::Tensor;

    fn small_circuit() -> Circuit {
        let mut b = CircuitBuilder::new();
        let x = b.input(vec![1, 8, 8]);
        let w = Tensor::from_fn(vec![2, 1, 3, 3], |i| (i[2] + i[3]) as f64 * 0.1 - 0.1);
        let c = b.conv2d(x, w, None, 1, Padding::Valid);
        let a = b.activation(c, 0.25, 0.5);
        let f = b.flatten(a);
        let wfc = Tensor::from_fn(vec![3, 72], |i| (i[1] % 3) as f64 * 0.1);
        let m = b.matmul(f, wfc, None);
        b.build(m)
    }

    #[test]
    fn selects_rns_parameters_for_small_circuit() {
        let c = small_circuit();
        let layouts = vec![LayoutKind::CHW; c.ops().len()];
        let out = select_parameters(
            &c,
            &layouts,
            &ScaleConfig::default(),
            SchemeKind::RnsCkks,
            SecurityLevel::Bits128,
            2f64.powi(30),
            0,
        )
        .unwrap();
        assert_eq!(out.params.kind(), SchemeKind::RnsCkks);
        assert!(out.params.validate().is_ok(), "{:?}", out.params.validate());
        assert!(out.consumed_log2 > 0.0, "circuit must consume modulus");
        assert!(!out.rotations.is_empty(), "conv/fc must rotate");
    }

    #[test]
    fn op_counts_accumulate_the_ledger_per_op() {
        let c = small_circuit();
        let layouts = vec![LayoutKind::CHW; c.ops().len()];
        let (out, ledger) = select_and_ledger(
            &c,
            &layouts,
            &ScaleConfig::default(),
            SchemeKind::Ckks,
            SecurityLevel::Bits128,
            2f64.powi(30),
            0,
        )
        .unwrap();
        assert_eq!(out.op_counts.values().sum::<u64>(), ledger.len() as u64);
        for (op, n) in &out.op_counts {
            assert_eq!(*n, ledger.iter().filter(|(o, _)| o == op).count() as u64, "{op}");
        }
        assert!(out.op_counts[&HisaOp::Rotate] >= out.rotations.len() as u64);
    }

    #[test]
    fn selects_ckks_parameters_for_small_circuit() {
        let c = small_circuit();
        let layouts = vec![LayoutKind::HW; c.ops().len()];
        let out = select_parameters(
            &c,
            &layouts,
            &ScaleConfig::default(),
            SchemeKind::Ckks,
            SecurityLevel::Bits128,
            2f64.powi(30),
            0,
        )
        .unwrap();
        match out.params.modulus {
            ModulusSpec::PowerOfTwo { log_q, .. } => {
                assert!(log_q as f64 >= out.consumed_log2 + 30.0);
            }
            _ => panic!("expected power-of-two modulus"),
        }
    }

    #[test]
    fn deeper_circuits_need_more_modulus() {
        let shallow = small_circuit();
        let mut b = CircuitBuilder::new();
        let x = b.input(vec![1, 8, 8]);
        let w = Tensor::from_fn(vec![1, 1, 3, 3], |_| 0.1);
        let mut node = x;
        for _ in 0..3 {
            node = b.conv2d(node, w.clone(), None, 1, Padding::Same);
            node = b.activation(node, 0.1, 1.0);
        }
        let deep = b.build(node);
        let scales = ScaleConfig::default();
        let l1 = vec![LayoutKind::CHW; shallow.ops().len()];
        let l2 = vec![LayoutKind::CHW; deep.ops().len()];
        let s = select_parameters(&shallow, &l1, &scales, SchemeKind::Ckks, SecurityLevel::Bits128, 2f64.powi(30), 0).unwrap();
        let d = select_parameters(&deep, &l2, &scales, SchemeKind::Ckks, SecurityLevel::Bits128, 2f64.powi(30), 0).unwrap();
        assert!(d.consumed_log2 > s.consumed_log2);
        assert!(d.params.modulus.log_q() > s.params.modulus.log_q());
    }

    #[test]
    fn degree_grows_with_image_size() {
        // A big image forces a bigger ring regardless of depth.
        let mut b = CircuitBuilder::new();
        let x = b.input(vec![1, 90, 90]);
        let p = b.avg_pool2d(x, 2, 2);
        let c = b.build(p);
        let layouts = vec![LayoutKind::HW; c.ops().len()];
        let out = select_parameters(
            &c,
            &layouts,
            &ScaleConfig::default(),
            SchemeKind::RnsCkks,
            SecurityLevel::Bits128,
            2f64.powi(30),
            0,
        )
        .unwrap();
        assert!(out.params.degree >= 16384, "90x90 image needs >= 8100 slots");
    }

    #[test]
    fn fits_check_rejects_oversized() {
        let mut b = CircuitBuilder::new();
        let x = b.input(vec![1, 200, 200]);
        let p = b.avg_pool2d(x, 2, 2);
        let c = b.build(p);
        assert!(!circuit_fits(&c, 0, 16384));
        assert!(circuit_fits(&c, 0, 65536));
    }
}
