//! The service's static-verifier publish gate: artifacts carrying `Deny`
//! diagnostics must never become the shared serving state.

use chet_compiler::Compiler;
use chet_hisa::keys::RotationKeyPolicy;
use chet_hisa::params::SchemeKind;
use chet_runtime::kernels::ScaleConfig;
use chet_serve::{vet_artifact, ServeError};
use chet_tensor::circuit::{Circuit, CircuitBuilder};
use chet_tensor::ops::Padding;
use chet_tensor::Tensor;
use std::collections::BTreeSet;

fn small_cnn() -> Circuit {
    let mut b = CircuitBuilder::new();
    let x = b.input(vec![1, 6, 6]);
    let w = Tensor::from_fn(vec![2, 1, 3, 3], |i| (i[2] * 3 + i[3]) as f64 * 0.05 - 0.1);
    let c = b.conv2d(x, w, Some(vec![0.1, -0.1]), 1, Padding::Valid);
    let a = b.activation(c, 0.2, 0.9);
    let p = b.avg_pool2d(a, 2, 2);
    b.build(p)
}

fn compile() -> (Circuit, chet_compiler::CompiledCircuit) {
    let circuit = small_cnn();
    let compiled = Compiler::new(SchemeKind::RnsCkks)
        .with_output_precision(2f64.powi(20))
        .compile(&circuit, &ScaleConfig::REFERENCE)
        .unwrap();
    (circuit, compiled)
}

#[test]
fn healthy_artifact_passes_the_gate() {
    let (circuit, compiled) = compile();
    assert_eq!(vet_artifact(&circuit, &compiled), Ok(()));
}

#[test]
fn tampered_rotation_keys_are_refused() {
    let (circuit, mut compiled) = compile();
    // Strip every rotation key: the conv kernel needs them, so the static
    // verifier must report CHET-E003 and the gate must refuse to publish.
    compiled.rotation_keys = RotationKeyPolicy::Exact(BTreeSet::new());
    match vet_artifact(&circuit, &compiled) {
        Err(ServeError::Lint { denies, first }) => {
            assert!(denies >= 1, "expected at least one deny, got {denies}");
            assert!(first.contains("CHET-E003"), "unexpected first deny: {first}");
        }
        other => panic!("gate must refuse a keyless artifact, got {other:?}"),
    }
}

#[test]
fn lint_error_displays_the_diagnostic() {
    let (circuit, mut compiled) = compile();
    compiled.rotation_keys = RotationKeyPolicy::Exact(BTreeSet::new());
    let err = vet_artifact(&circuit, &compiled).unwrap_err();
    let rendered = err.to_string();
    assert!(rendered.contains("static verifier"), "{rendered}");
    assert!(rendered.contains("CHET-E003"), "{rendered}");
}

#[test]
fn cost_budget_gate_denies_expensive_artifacts() {
    let (circuit, compiled) = compile();
    // A 1 µs budget is below any circuit's predicted latency, so the
    // budgeted gate must refuse what the plain verifier accepts.
    assert_eq!(chet_serve::vet_artifact(&circuit, &compiled), Ok(()));
    match chet_serve::vet_artifact_with_budget(&circuit, &compiled, Some(1.0), None) {
        Err(ServeError::CostBudget { predicted_us, budget_us }) => {
            assert!(predicted_us > budget_us, "{predicted_us} vs {budget_us}");
            assert_eq!(budget_us, 1.0);
        }
        other => panic!("expected a cost-budget refusal, got {other:?}"),
    }
}

#[test]
fn cost_budget_gate_passes_within_budget() {
    let (circuit, compiled) = compile();
    // No budget: identical to the plain gate.
    assert_eq!(chet_serve::vet_artifact_with_budget(&circuit, &compiled, None, None), Ok(()));
    // A huge budget admits the artifact.
    assert_eq!(
        chet_serve::vet_artifact_with_budget(&circuit, &compiled, Some(1e12), None),
        Ok(())
    );
}

#[test]
fn cost_budget_error_displays_both_sides() {
    let (circuit, compiled) = compile();
    let err =
        chet_serve::vet_artifact_with_budget(&circuit, &compiled, Some(1.0), None).unwrap_err();
    let rendered = err.to_string();
    assert!(rendered.contains("budget"), "{rendered}");
    assert!(rendered.contains("1.0") || rendered.contains("1 us"), "{rendered}");
}
