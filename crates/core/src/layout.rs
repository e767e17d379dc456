//! Data-layout selection (paper §5.3).
//!
//! CHET prunes the exponential layout space to four policies with
//! domain-specific heuristics, prices each with the cost model, and keeps
//! the cheapest.

use crate::params::{select_and_ledger, AnalysisOutcome, SelectError};
use crate::verify::domain::LevelFact;
use chet_hisa::cost::{CostModel, HisaOp, LevelInfo};
use chet_hisa::params::{EncryptionParams, SchemeKind};
use chet_hisa::security::SecurityLevel;
use chet_runtime::exec::{required_margin_for, ExecPlan};
use chet_runtime::kernels::ScaleConfig;
use chet_runtime::layout::LayoutKind;
use chet_tensor::circuit::{Circuit, Op};

/// The four pruned layout policies (paper §5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayoutPolicy {
    /// Every tensor in HW.
    Hw,
    /// Every tensor in CHW.
    Chw,
    /// Convolutions (and their producers) in HW, everything else in CHW.
    HwConvChwRest,
    /// HW until the first fully connected layer, CHW afterwards.
    ChwFcHwBefore,
}

/// All four policies, in the paper's order.
pub const ALL_POLICIES: [LayoutPolicy; 4] = [
    LayoutPolicy::Hw,
    LayoutPolicy::Chw,
    LayoutPolicy::HwConvChwRest,
    LayoutPolicy::ChwFcHwBefore,
];

impl std::fmt::Display for LayoutPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            LayoutPolicy::Hw => "HW",
            LayoutPolicy::Chw => "CHW",
            LayoutPolicy::HwConvChwRest => "HW-conv, CHW-rest",
            LayoutPolicy::ChwFcHwBefore => "CHW-fc, HW-before",
        };
        f.write_str(s)
    }
}

/// Expands a policy into a per-node layout assignment.
pub fn policy_layouts(circuit: &Circuit, policy: LayoutPolicy) -> Vec<LayoutKind> {
    let n = circuit.ops().len();
    match policy {
        LayoutPolicy::Hw => vec![LayoutKind::HW; n],
        LayoutPolicy::Chw => vec![LayoutKind::CHW; n],
        LayoutPolicy::HwConvChwRest => {
            let mut kinds = vec![LayoutKind::CHW; n];
            // Convs and every node feeding a conv run in HW, so the conv
            // sees HW inputs and emits HW outputs.
            for (i, op) in circuit.ops().iter().enumerate() {
                if let Op::Conv2d { input, .. } = op {
                    kinds[i] = LayoutKind::HW;
                    kinds[*input] = LayoutKind::HW;
                }
            }
            kinds
        }
        LayoutPolicy::ChwFcHwBefore => {
            let first_fc = circuit
                .ops()
                .iter()
                .position(|op| matches!(op, Op::MatMul { .. }))
                .unwrap_or(n);
            (0..n)
                .map(|i| if i < first_fc { LayoutKind::HW } else { LayoutKind::CHW })
                .collect()
        }
    }
}

/// A fully priced layout choice.
#[derive(Debug, Clone)]
pub struct LayoutChoice {
    /// The policy this choice came from.
    pub policy: LayoutPolicy,
    /// The executable plan (layouts + scales + margin).
    pub plan: ExecPlan,
    /// The analysis outcome (parameters, rotations, consumption).
    pub outcome: AnalysisOutcome,
    /// Estimated execution cost under the scheme's cost model.
    pub estimated_cost: f64,
}

/// Estimates the cost of executing a circuit at the chosen parameters
/// (paper §5.3's cost-estimation pass) by pricing the parameter-selection
/// walk's ledger: each `(op, operand level)` entry costs the model's
/// `op_cost` at the modulus remaining there, summed in program order.
pub fn estimate_cost(
    ledger: impl IntoIterator<Item = (HisaOp, LevelFact)>,
    params: &EncryptionParams,
    cost_model: &CostModel,
) -> f64 {
    let (log_q, rns_len) = (params.modulus.log_q(), params.modulus.chain_len());
    ledger.into_iter().fold(0.0, |total, (op, at)| {
        let lvl = LevelInfo {
            log_q: (log_q - at.consumed_log2).max(1.0),
            rns_len: rns_len.saturating_sub(at.chain_idx).max(1),
        };
        total + cost_model.op_cost(op, params.degree, lvl)
    })
}

/// Searches the four layout policies and returns each priced choice,
/// cheapest first (paper §5.3); the first is the data-layout selection.
/// Each choice costs one walk per ring degree tried; the accepted walk's
/// ledger is priced without walking again. `extra_levels` spare rescaling
/// levels are budgeted per candidate (see [`crate::select_parameters`]).
///
/// # Errors
///
/// Returns an error if no policy admits valid encryption parameters.
#[allow(clippy::too_many_arguments)]
pub fn enumerate_layouts(
    circuit: &Circuit,
    scales: &ScaleConfig,
    kind: SchemeKind,
    security: SecurityLevel,
    output_precision: f64,
    cost_model: &CostModel,
    extra_levels: usize,
) -> Result<Vec<LayoutChoice>, SelectError> {
    let margin = required_margin_for(circuit);
    let mut choices = Vec::new();
    for policy in ALL_POLICIES {
        let layouts = policy_layouts(circuit, policy);
        let Ok((outcome, ledger)) = select_and_ledger(
            circuit,
            &layouts,
            scales,
            kind,
            security,
            output_precision,
            extra_levels,
        ) else {
            continue;
        };
        let estimated_cost = estimate_cost(ledger.iter(), &outcome.params, cost_model);
        let plan = ExecPlan { layouts, scales: *scales, margin };
        choices.push(LayoutChoice { policy, plan, outcome, estimated_cost });
    }
    if choices.is_empty() {
        return Err(SelectError::NoLayout);
    }
    // Invariant: cost estimates are sums of finite model constants.
    #[allow(clippy::expect_used)]
    choices.sort_by(|a, b| {
        a.estimated_cost.partial_cmp(&b.estimated_cost).expect("costs are finite")
    });
    Ok(choices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chet_tensor::circuit::CircuitBuilder;
    use chet_tensor::ops::Padding;
    use chet_tensor::Tensor;

    fn cnn(channels: usize) -> Circuit {
        let mut b = CircuitBuilder::new();
        let x = b.input(vec![channels, 12, 12]);
        let w1 = Tensor::from_fn(vec![4, channels, 3, 3], |_| 0.1);
        let c1 = b.conv2d(x, w1, None, 1, Padding::Valid);
        let a1 = b.activation(c1, 0.2, 0.9);
        let p1 = b.avg_pool2d(a1, 2, 2);
        let w2 = Tensor::from_fn(vec![4, 4, 3, 3], |_| 0.05);
        let c2 = b.conv2d(p1, w2, None, 1, Padding::Valid);
        let f = b.flatten(c2);
        let wfc = Tensor::from_fn(vec![5, 4 * 3 * 3], |_| 0.1);
        let m = b.matmul(f, wfc, None);
        b.build(m)
    }

    #[test]
    fn policies_expand_as_expected() {
        let c = cnn(2);
        let hw = policy_layouts(&c, LayoutPolicy::Hw);
        assert!(hw.iter().all(|&k| k == LayoutKind::HW));
        let chw = policy_layouts(&c, LayoutPolicy::Chw);
        assert!(chw.iter().all(|&k| k == LayoutKind::CHW));
        let hybrid = policy_layouts(&c, LayoutPolicy::HwConvChwRest);
        assert!(hybrid.contains(&LayoutKind::HW) && hybrid.contains(&LayoutKind::CHW));
        let fc = policy_layouts(&c, LayoutPolicy::ChwFcHwBefore);
        let first_fc = c.ops().iter().position(|op| matches!(op, Op::MatMul { .. })).unwrap();
        assert!(fc[..first_fc].iter().all(|&k| k == LayoutKind::HW));
        assert!(fc[first_fc..].iter().all(|&k| k == LayoutKind::CHW));
    }

    #[test]
    fn rns_ops_at_lower_levels_price_cheaper() {
        let params = EncryptionParams::rns_ckks(8192, 40, 6);
        let model = CostModel::for_scheme(SchemeKind::RnsCkks);
        let fresh = LevelFact { consumed_log2: 0.0, chain_idx: 0 };
        let deep = LevelFact { consumed_log2: 160.0, chain_idx: 4 };
        let hi = estimate_cost([(HisaOp::MulCipher, fresh)], &params, &model);
        let lo = estimate_cost([(HisaOp::MulCipher, deep)], &params, &model);
        assert!(lo < hi, "ops at lower levels must be cheaper");
    }

    #[test]
    fn enumerates_and_ranks_all_policies() {
        let c = cnn(2);
        let choices = enumerate_layouts(
            &c,
            &ScaleConfig::default(),
            SchemeKind::RnsCkks,
            SecurityLevel::Bits128,
            2f64.powi(30),
            &CostModel::for_scheme(SchemeKind::RnsCkks),
            0,
        )
        .unwrap();
        assert_eq!(choices.len(), 4);
        for w in choices.windows(2) {
            assert!(w[0].estimated_cost <= w[1].estimated_cost);
        }
    }

    #[test]
    fn best_choice_has_positive_cost_and_valid_params() {
        let c = cnn(2);
        let best = enumerate_layouts(
            &c,
            &ScaleConfig::default(),
            SchemeKind::RnsCkks,
            SecurityLevel::Bits128,
            2f64.powi(30),
            &CostModel::for_scheme(SchemeKind::RnsCkks),
            0,
        )
        .unwrap()
        .remove(0);
        assert!(best.estimated_cost > 0.0);
        assert!(best.outcome.params.validate().is_ok());
    }

    #[test]
    fn chw_beats_hw_on_many_channels_rns() {
        // With many channels, HW pays C·R·S rotations per conv while CHW
        // shares them — the cost model must reflect that (paper Table 5).
        let c = cnn(8);
        let choices = enumerate_layouts(
            &c,
            &ScaleConfig::default(),
            SchemeKind::RnsCkks,
            SecurityLevel::Bits128,
            2f64.powi(30),
            &CostModel::for_scheme(SchemeKind::RnsCkks),
            0,
        )
        .unwrap();
        let cost_of = |p: LayoutPolicy| {
            choices.iter().find(|ch| ch.policy == p).map(|ch| ch.estimated_cost).unwrap()
        };
        assert!(
            cost_of(LayoutPolicy::Chw) < cost_of(LayoutPolicy::Hw),
            "CHW should win on channel-heavy nets under RNS-CKKS"
        );
    }
}
