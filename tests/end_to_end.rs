//! Integration tests spanning compiler + runtime + schemes: every Table 3
//! network (reduced variants) compiles and its encrypted inference tracks
//! the plaintext reference.

use chet::compiler::Compiler;
use chet::hisa::params::SchemeKind;
use chet::runtime::exec::try_infer;
use chet::runtime::kernels::ScaleConfig;
use chet_ckks::sim::SimCkks;

#[test]
fn every_network_compiles_and_runs_on_simulator() {
    for name in
        ["LeNet-5-small", "LeNet-5-medium", "LeNet-5-large", "Industrial", "SqueezeNet-CIFAR"]
    {
        let net = chet::networks::try_reduced(name).expect("known network");
        let compiled = Compiler::new(SchemeKind::RnsCkks)
            .with_output_precision(2f64.powi(25))
            .compile(&net.circuit, &ScaleConfig::REFERENCE)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut sim = SimCkks::new(&compiled.params, &compiled.rotation_keys, 7);
        let image = net.sample_image(3);
        let got = try_infer(&mut sim, &net.circuit, &compiled.plan, &image).unwrap();
        let want = net.circuit.eval(&[image]);
        let gf = got.reshape(vec![got.numel()]);
        let wf = want.reshape(vec![want.numel()]);
        let diff = gf.max_abs_diff(&wf);
        assert!(diff < 0.1, "{name}: encrypted-vs-plain diff {diff}");
        assert_eq!(gf.argmax(), wf.argmax(), "{name}: prediction must agree");
    }
}

#[test]
fn both_scheme_targets_compile_every_network() {
    for name in
        ["LeNet-5-small", "LeNet-5-medium", "LeNet-5-large", "Industrial", "SqueezeNet-CIFAR"]
    {
        let net = chet::networks::try_reduced(name).expect("known network");
        for kind in [SchemeKind::RnsCkks, SchemeKind::Ckks] {
            let compiled = Compiler::new(kind)
                .with_output_precision(2f64.powi(25))
                .compile(&net.circuit, &ScaleConfig::REFERENCE)
                .unwrap_or_else(|e| panic!("{name}/{kind}: {e}"));
            assert!(compiled.params.degree >= 1024);
            assert!(compiled.estimated_cost > 0.0);
        }
    }
}

#[test]
fn deeper_networks_consume_more_modulus() {
    let shallow = chet::networks::try_reduced("LeNet-5-small").expect("known network");
    let deep = chet::networks::try_reduced("Industrial").expect("known network");
    let a = Compiler::new(SchemeKind::Ckks)
        .with_output_precision(2f64.powi(25))
        .compile(&shallow.circuit, &ScaleConfig::REFERENCE)
        .unwrap();
    let b = Compiler::new(SchemeKind::Ckks)
        .with_output_precision(2f64.powi(25))
        .compile(&deep.circuit, &ScaleConfig::REFERENCE)
        .unwrap();
    assert!(
        b.outcome.consumed_log2 > a.outcome.consumed_log2,
        "industrial ({:.0} bits) must exceed lenet-small ({:.0} bits)",
        b.outcome.consumed_log2,
        a.outcome.consumed_log2
    );
}

#[test]
fn rotation_keys_are_circuit_specific_and_compact() {
    let net = chet::networks::try_reduced("LeNet-5-small").expect("known network");
    let compiled = Compiler::new(SchemeKind::RnsCkks)
        .with_output_precision(2f64.powi(25))
        .compile(&net.circuit, &ScaleConfig::REFERENCE)
        .unwrap();
    let slots = compiled.params.slots();
    let exact = compiled.rotation_keys.key_count(slots);
    let default = chet::hisa::RotationKeyPolicy::PowersOfTwo.key_count(slots);
    assert!(exact > 0);
    // Paper §6: selected keys are a constant factor of log(N).
    let log_n = (2 * slots).ilog2() as usize;
    assert!(
        exact <= 8 * log_n,
        "selected keys ({exact}) should be O(log N) (log N = {log_n})"
    );
    let _ = default;
}

#[test]
fn layout_choice_differs_across_schemes_somewhere() {
    // Paper Tables 5/6: the best layout depends on the scheme. Across the
    // network suite at least one network should pick different layouts for
    // the two targets (cost models differ in the mulScalar/mulPlain gap).
    let mut any_differ = false;
    for name in ["LeNet-5-small", "LeNet-5-medium", "LeNet-5-large", "Industrial", "SqueezeNet-CIFAR"] {
        let net = chet::networks::try_reduced(name).expect("known network");
        let rns = Compiler::new(SchemeKind::RnsCkks)
            .with_output_precision(2f64.powi(25))
            .compile(&net.circuit, &ScaleConfig::REFERENCE)
            .unwrap();
        let big = Compiler::new(SchemeKind::Ckks)
            .with_output_precision(2f64.powi(25))
            .compile(&net.circuit, &ScaleConfig::REFERENCE)
            .unwrap();
        if rns.policy != big.policy {
            any_differ = true;
        }
    }
    assert!(any_differ, "scheme-dependent layout choice (paper Tables 5/6)");
}

#[test]
fn circuits_deeper_than_the_prime_candidates_fail_selection_without_panicking() {
    // Each activation consumes rescaling primes; 30 or 45 of them exhaust
    // the candidate list, which must reject every degree with an error.
    for depth in [30, 45] {
        let mut b = chet::CircuitBuilder::new();
        let mut node = b.input(vec![1, 4, 4]);
        for _ in 0..depth {
            node = b.activation(node, 0.1, 1.0);
        }
        let circuit = b.build(node);
        let compiled = std::panic::catch_unwind(|| {
            Compiler::new(SchemeKind::RnsCkks).compile(&circuit, &ScaleConfig::REFERENCE)
        })
        .unwrap_or_else(|_| panic!("depth {depth}: compile panicked"));
        assert!(compiled.is_err(), "depth {depth}: compiled past the candidate primes");
    }
}
