//! Profile-guided fixed-point scale selection (paper §5.5).
//!
//! Given representative images and an output tolerance, CHET searches over
//! the four scale exponents `(P_c, P_w, P_u, P_m)` in round-robin order,
//! decrementing each while every image's encrypted output stays within
//! tolerance of the unencrypted reference. Smaller scales mean a smaller
//! modulus and faster execution.
//!
//! Evaluation runs on the simulator backend with the CKKS noise model — the
//! same code path as a real backend, at a tiny fraction of the cost (see
//! DESIGN.md substitutions).

use crate::params::{select_parameters, SelectError};
use chet_ckks::sim::SimCkks;
use chet_hisa::params::SchemeKind;
use chet_hisa::security::SecurityLevel;
use chet_hisa::RotationKeyPolicy;
use chet_runtime::exec::{required_margin_for, try_infer, ExecPlan};
use chet_runtime::kernels::ScaleConfig;
use chet_runtime::layout::LayoutKind;
use chet_tensor::circuit::Circuit;
use chet_tensor::Tensor;

/// Search configuration for scale selection.
#[derive(Debug, Clone, Copy)]
pub struct ScaleSearch {
    /// Starting log2 exponents `(P_c, P_w, P_u, P_m)` (paper: 40 each; the
    /// defaults here start at the upper bounds that fit typical nets).
    pub start: (u32, u32, u32, u32),
    /// Lower bounds per exponent.
    pub min: (u32, u32, u32, u32),
    /// Accepted max-abs deviation of any output slot from the reference.
    pub tolerance: f64,
    /// Cap on candidate evaluations.
    pub max_evals: usize,
}

impl Default for ScaleSearch {
    fn default() -> Self {
        ScaleSearch {
            start: (40, 30, 30, 16),
            min: (14, 6, 6, 4),
            tolerance: 0.05,
            max_evals: 120,
        }
    }
}

/// Whether a scale configuration keeps every image within tolerance. A run
/// that fails (an [`chet_runtime::ExecError`], non-finite output slots
/// included) is not acceptable.
fn acceptable(
    circuit: &Circuit,
    layouts: &[LayoutKind],
    scales: &ScaleConfig,
    kind: SchemeKind,
    security: SecurityLevel,
    output_precision: f64,
    images: &[Tensor],
    tolerance: f64,
) -> bool {
    let outcome = match select_parameters(
        circuit,
        layouts,
        scales,
        kind,
        security,
        output_precision,
        0,
    ) {
        Ok(o) => o,
        Err(_) => return false,
    };
    let plan = ExecPlan {
        layouts: layouts.to_vec(),
        scales: *scales,
        margin: required_margin_for(circuit),
    };
    let mut sim = SimCkks::new(&outcome.params, &RotationKeyPolicy::PowersOfTwo, 2024);
    for image in images {
        let reference = circuit.eval(&[image.clone()]);
        let Ok(got) = try_infer(&mut sim, circuit, &plan, image) else {
            return false;
        };
        let flat_ref = reference.reshape(vec![reference.numel()]);
        let flat_got = got.reshape(vec![got.numel()]);
        if flat_got.max_abs_diff(&flat_ref) > tolerance {
            return false;
        }
    }
    true
}

/// Runs the round-robin scale search (paper §5.5). Returns the smallest
/// acceptable configuration found, along with the number of evaluations.
///
/// # Errors
///
/// Fails if even the starting scales are unacceptable.
#[allow(clippy::too_many_arguments)]
pub fn select_scales(
    circuit: &Circuit,
    layouts: &[LayoutKind],
    kind: SchemeKind,
    security: SecurityLevel,
    output_precision: f64,
    images: &[Tensor],
    search: &ScaleSearch,
) -> Result<(ScaleConfig, usize), SelectError> {
    let mut exps = [search.start.0, search.start.1, search.start.2, search.start.3];
    let mins = [search.min.0, search.min.1, search.min.2, search.min.3];
    let to_config =
        |e: &[u32; 4]| ScaleConfig::from_log2(e[0], e[1], e[2], e[3]);

    let mut evals = 1usize;
    if !acceptable(
        circuit,
        layouts,
        &to_config(&exps),
        kind,
        security,
        output_precision,
        images,
        search.tolerance,
    ) {
        return Err(SelectError::ScaleSearchFailed {
            detail: "starting scales do not reach the requested output tolerance".into(),
        });
    }

    // Round-robin descent: drop each exponent in turn while acceptable.
    let mut stuck = [false; 4];
    let mut i = 0usize;
    while !stuck.iter().all(|&s| s) && evals < search.max_evals {
        let slot = i % 4;
        i += 1;
        if stuck[slot] || exps[slot] <= mins[slot] {
            stuck[slot] = true;
            continue;
        }
        let mut candidate = exps;
        candidate[slot] -= 1;
        evals += 1;
        if acceptable(
            circuit,
            layouts,
            &to_config(&candidate),
            kind,
            security,
            output_precision,
            images,
            search.tolerance,
        ) {
            exps = candidate;
        } else {
            stuck[slot] = true;
        }
    }
    Ok((to_config(&exps), evals))
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn search_shrinks_scales_within_tolerance() {
        let circuit = tiny();
        let layouts = vec![LayoutKind::CHW; circuit.ops().len()];
        let images: Vec<Tensor> = (0..2)
            .map(|s| Tensor::random(vec![1, 6, 6], 1.0, 100 + s))
            .collect();
        let search = ScaleSearch {
            start: (30, 20, 20, 14),
            min: (16, 8, 8, 6),
            tolerance: 0.05,
            max_evals: 30,
        };
        let (cfg, evals) = select_scales(
            &circuit,
            &layouts,
            SchemeKind::RnsCkks,
            SecurityLevel::Bits128,
            2f64.powi(20),
            &images,
            &search,
        )
        .unwrap();
        assert!(evals >= 2);
        // Something must have shrunk from the start.
        assert!(
            cfg.input < 2f64.powi(30)
                || cfg.weight_plain < 2f64.powi(20)
                || cfg.weight_scalar < 2f64.powi(20)
                || cfg.mask < 2f64.powi(10),
            "search should tighten at least one scale: {cfg:?}"
        );
        // And the result must still be acceptable end to end.
        assert!(acceptable(
            &circuit,
            &layouts,
            &cfg,
            SchemeKind::RnsCkks,
            SecurityLevel::Bits128,
            2f64.powi(20),
            &images,
            search.tolerance,
        ));
    }

    #[test]
    fn impossible_tolerance_fails() {
        let circuit = tiny();
        let layouts = vec![LayoutKind::CHW; circuit.ops().len()];
        let images = vec![Tensor::random(vec![1, 6, 6], 1.0, 7)];
        let search = ScaleSearch {
            start: (16, 8, 8, 4),
            min: (14, 6, 6, 4),
            tolerance: 1e-12,
            max_evals: 4,
        };
        let r = select_scales(
            &circuit,
            &layouts,
            SchemeKind::RnsCkks,
            SecurityLevel::Bits128,
            2f64.powi(20),
            &images,
            &search,
        );
        assert!(r.is_err());
    }
}
