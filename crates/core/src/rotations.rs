//! Rotation-key selection (paper §5.4).
//!
//! Instead of the default power-of-two key set (`2 log N − 2` keys, each
//! arbitrary rotation composed from several), CHET records exactly which
//! rotation steps a circuit uses and generates keys for those.

use crate::params::AnalysisOutcome;
use chet_hisa::keys::{normalize_rotation, RotationKeyPolicy};
use std::collections::BTreeSet;

/// Builds the exact rotation-key policy from an analysis outcome.
pub fn select_rotation_keys(outcome: &AnalysisOutcome) -> RotationKeyPolicy {
    RotationKeyPolicy::Exact(outcome.rotations.clone())
}

/// Restricts an exact key policy to the steps a circuit actually uses,
/// returning the pruned policy and the extra steps that were dropped (the
/// `CHET-W002` waste). The power-of-two default is left untouched — its
/// whole point is covering arbitrary steps by composition — but its unused
/// steps are still reported.
pub fn prune_rotation_keys(
    policy: RotationKeyPolicy,
    used: &BTreeSet<usize>,
    slots: usize,
) -> (RotationKeyPolicy, Vec<usize>) {
    let used: BTreeSet<usize> = used
        .iter()
        .map(|&s| normalize_rotation(s as i64, slots))
        .filter(|&s| s != 0)
        .collect();
    let keyed = policy.steps(slots);
    let extras: Vec<usize> = keyed.difference(&used).copied().collect();
    match policy {
        RotationKeyPolicy::Exact(_) => {
            let kept: BTreeSet<usize> = keyed.intersection(&used).copied().collect();
            (RotationKeyPolicy::Exact(kept), extras)
        }
        p @ RotationKeyPolicy::PowersOfTwo => (p, extras),
    }
}

/// Number of keys saved (or added) versus the power-of-two default.
pub fn key_count_delta(outcome: &AnalysisOutcome) -> isize {
    let slots = outcome.params.slots();
    let exact = outcome.rotations.len() as isize;
    let default = RotationKeyPolicy::PowersOfTwo.key_count(slots) as isize;
    exact - default
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::select_parameters;
    use chet_hisa::params::SchemeKind;
    use chet_hisa::security::SecurityLevel;
    use chet_runtime::kernels::ScaleConfig;
    use chet_runtime::layout::LayoutKind;
    use chet_tensor::circuit::CircuitBuilder;
    use chet_tensor::ops::Padding;
    use chet_tensor::Tensor;

    #[test]
    fn exact_keys_cover_circuit_rotations() {
        let mut b = CircuitBuilder::new();
        let x = b.input(vec![1, 6, 6]);
        let w = Tensor::from_fn(vec![1, 1, 3, 3], |_| 0.2);
        let c = b.conv2d(x, w, None, 1, Padding::Valid);
        let circuit = b.build(c);
        let layouts = vec![LayoutKind::HW; circuit.ops().len()];
        let outcome = select_parameters(
            &circuit,
            &layouts,
            &ScaleConfig::default(),
            SchemeKind::RnsCkks,
            SecurityLevel::Bits128,
            2f64.powi(30),
            0,
        )
        .unwrap();
        let policy = select_rotation_keys(&outcome);
        match &policy {
            RotationKeyPolicy::Exact(steps) => {
                // A 3x3 valid conv in HW rotates by {0,1,2} + h_stride·{0,1,2}
                // minus the zero offset: 8 distinct steps.
                assert_eq!(steps.len(), 8, "{steps:?}");
                assert!(steps.contains(&1));
            }
            _ => panic!("expected exact policy"),
        }
        // The paper's observation: selected keys are ~O(log N) in practice
        // and usually fewer than the default set.
        assert!(key_count_delta(&outcome) < 0);
    }
}
