//! IR faithfulness: the extracted HISA graph must *be* the computation.
//!
//! For every Table 3 network (reduced), replaying the extracted IR on the
//! reference simulator must be bit-identical to direct inference — at one
//! thread and at four (the trace records in deterministic program order;
//! the runtime's fan-out is a pure performance knob, so the replay must
//! match any thread count). On top of the identity property, the suite
//! pins the analyzer's guarantees: the rotation lints fire on real
//! networks with concrete op spans, and the translation validator accepts
//! the identity rewrite everywhere.

use chet::compiler::equiv::{validate_extraction, DEFAULT_SEEDS};
use chet::compiler::ir::{analyze::analyze, extract_ir, try_replay_ir, ExtractMode};
use chet::compiler::verify::{LintCode, Severity};
use chet::compiler::{CompiledCircuit, Compiler};
use chet::hisa::params::SchemeKind;
use chet::math::par::test_support::config_lock;
use chet::runtime::exec::try_infer;
use chet::runtime::kernels::ScaleConfig;
use chet::runtime::par::set_threads;
use chet_ckks::sim::SimCkks;

const NETWORKS: [&str; 5] =
    ["LeNet-5-small", "LeNet-5-medium", "LeNet-5-large", "Industrial", "SqueezeNet-CIFAR"];

fn compile(name: &str) -> (chet::networks::Network, CompiledCircuit) {
    let net = chet::networks::try_reduced(name).expect("known network");
    let compiled = Compiler::new(SchemeKind::RnsCkks)
        .with_output_precision(2f64.powi(25))
        .compile(&net.circuit, &ScaleConfig::REFERENCE)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    (net, compiled)
}

/// Replay of the extracted graph is bit-identical to direct inference on
/// every network, at 1 and 4 threads.
#[test]
fn ir_replay_is_bit_identical_to_direct_inference() {
    let _guard = config_lock();
    for name in NETWORKS {
        let (net, compiled) = compile(name);
        let ir = extract_ir(&net.circuit, &compiled, ExtractMode::Full)
            .unwrap_or_else(|e| panic!("{name}: extraction failed: {e}"));
        let image = net.sample_image(11);
        for threads in [1usize, 4] {
            set_threads(threads);
            let mut direct_sim =
                SimCkks::new(&compiled.params, &compiled.rotation_keys, 7).without_noise();
            let direct = try_infer(&mut direct_sim, &net.circuit, &compiled.plan, &image)
                .unwrap_or_else(|e| panic!("{name}: direct inference failed: {e}"));
            let mut replay_sim =
                SimCkks::new(&compiled.params, &compiled.rotation_keys, 7).without_noise();
            let replayed = try_replay_ir(&mut replay_sim, &ir, &image)
                .unwrap_or_else(|e| panic!("{name}: replay failed: {e}"));
            assert_eq!(direct.shape(), replayed.shape(), "{name}: shape diverged");
            let direct_bits: Vec<u64> = direct.data().iter().map(|v| v.to_bits()).collect();
            let replay_bits: Vec<u64> = replayed.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                direct_bits, replay_bits,
                "{name} at {threads} threads: replay is not bit-identical"
            );
        }
    }
}

/// The translation validator proves the identity rewrite on every network
/// over the default seed sweep.
#[test]
fn translation_validator_accepts_identity_on_all_networks() {
    let _guard = config_lock();
    set_threads(1);
    for name in NETWORKS {
        let (net, compiled) = compile(name);
        let report = validate_extraction(&net.circuit, &compiled, &DEFAULT_SEEDS)
            .unwrap_or_else(|e| panic!("{name}: validation could not run: {e}"));
        assert!(report.equivalent(), "{name}: {report}");
        assert_eq!(report.checks.len(), DEFAULT_SEEDS.len());
    }
}

/// The rotation analyzer finds a concrete redundant-rotation opportunity
/// (CHET-P001 duplicate or CHET-P002 hoistable) with an op span in the
/// convolutional networks — the acceptance bar for the CSE pass.
#[test]
fn rotation_lints_fire_with_spans_on_real_networks() {
    let _guard = config_lock();
    set_threads(1);
    let (net, compiled) = compile("LeNet-5-small");
    let ir = extract_ir(&net.circuit, &compiled, ExtractMode::Metadata).expect("extracts");
    let diags = analyze(&ir);
    let rotation_perf: Vec<_> = diags
        .iter()
        .filter(|d| {
            matches!(d.code, LintCode::DuplicateRotation | LintCode::HoistableRotation)
        })
        .collect();
    assert!(
        !rotation_perf.is_empty(),
        "expected at least one CHET-P001/P002 rotation opportunity, got: {diags:?}"
    );
    assert!(
        rotation_perf.iter().any(|d| d.span.is_some()),
        "rotation findings must carry an op span: {rotation_perf:?}"
    );
    // Advisory only: the P family must never deny.
    assert!(diags.iter().all(|d| d.severity() != Severity::Deny));
}

/// Metadata-mode extraction produces the same graph shape as full mode
/// (only plaintext values are dropped), so lint/cost results agree across
/// modes.
#[test]
fn metadata_mode_matches_full_mode_structure() {
    let _guard = config_lock();
    set_threads(1);
    let (net, compiled) = compile("LeNet-5-small");
    let full = extract_ir(&net.circuit, &compiled, ExtractMode::Full).expect("full");
    let meta = extract_ir(&net.circuit, &compiled, ExtractMode::Metadata).expect("meta");
    assert_eq!(full.nodes, meta.nodes);
    assert_eq!(full.inputs, meta.inputs);
    assert_eq!(full.outputs, meta.outputs);
    assert_eq!(full.encodes, meta.encodes);
    assert_eq!(full.plains.len(), meta.plains.len());
    assert!(meta.plains.iter().all(|p| p.values.is_none()));
    assert!(full.plains.iter().all(|p| p.values.is_some()));
}
