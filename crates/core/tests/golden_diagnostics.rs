//! Golden-diagnostic tests: adversarial circuits and tampered artifacts
//! that the static verifier must reject with *exact* lint codes, severities
//! and op spans — no simulator probe involved.
//!
//! Each adversary targets one lint:
//!
//! | circuit / tamper                         | expected            |
//! |------------------------------------------|---------------------|
//! | concat(input, conv(input)) under RNS     | CHET-E001 (deny)    |
//! | modulus chain swapped for a 2-prime one  | CHET-E002 (deny)    |
//! | all rotation keys stripped               | CHET-E003 (deny)    |
//! | base prime removed from the chain        | CHET-E002 (deny)    |
//! | slot count shrunk below the tensor size  | CHET-E004 (deny)    |
//! | ring degree made non-power-of-two        | CHET-E006 (deny)    |
//! | unreachable conv node                    | CHET-W003 (warn)    |
//! | rotation keys reduced to {1}             | CHET-N001 (note)    |
//!
//! Plus the property the whole design rests on: an artifact with **zero
//! Deny** diagnostics passes the dynamic SimCkks probe.

use chet_compiler::{
    extract_ir, validate_compiled, verify_compiled, CompiledCircuit, Compiler, ExtractMode,
    LayoutPolicy, LintCode, SelectError, Severity,
};
use chet_hisa::keys::RotationKeyPolicy;
use chet_hisa::params::{EncryptionParams, ModulusSpec, SchemeKind};
use chet_runtime::kernels::ScaleConfig;
use chet_tensor::circuit::{Circuit, CircuitBuilder};
use chet_tensor::ops::Padding;
use chet_tensor::Tensor;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn compile(circuit: &Circuit) -> CompiledCircuit {
    Compiler::new(SchemeKind::RnsCkks)
        .with_output_precision(2f64.powi(20))
        .compile(circuit, &ScaleConfig::REFERENCE)
        .unwrap()
}

/// conv → activation → avg-pool: rotations, plaintext muls and rescales.
fn healthy() -> Circuit {
    let mut b = CircuitBuilder::new();
    let x = b.input(vec![1, 6, 6]);
    let w = Tensor::from_fn(vec![2, 1, 3, 3], |i| (i[2] * 3 + i[3]) as f64 * 0.05 - 0.1);
    let c = b.conv2d(x, w, Some(vec![0.1, -0.1]), 1, Padding::Valid);
    let a = b.activation(c, 0.2, 0.9);
    let p = b.avg_pool2d(a, 2, 2);
    b.build(p)
}

/// `concat(input, activation(input))` pinned to the CHW layout: CHW concat
/// must *add* the two channel blocks into one ciphertext, but the
/// activation branch has rescaled by real chain primes while the raw branch
/// keeps the exact input scale — the join's operands have diverged. (Under
/// the layout search the compiler dodges this by picking HW, where concat
/// is free; pinning CHW is the adversary.)
fn scale_mismatch_adversary() -> Circuit {
    let mut b = CircuitBuilder::new();
    let x = b.input(vec![1, 6, 6]);
    let a = b.activation(x, 0.2, 0.9);
    let cat = b.concat(vec![x, a]);
    b.build(cat)
}

#[test]
fn scale_mismatch_is_rejected_statically_with_span() {
    let circuit = scale_mismatch_adversary();
    let compiled = Compiler::new(SchemeKind::RnsCkks)
        .with_output_precision(2f64.powi(20))
        .with_layout_policy(LayoutPolicy::Chw)
        .compile(&circuit, &ScaleConfig::REFERENCE)
        .unwrap();
    let report = verify_compiled(&circuit, &compiled);
    assert!(report.has(LintCode::ScaleMismatch), "want CHET-E001 in:\n{}", report.render_text());
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == LintCode::ScaleMismatch)
        .unwrap();
    assert_eq!(d.severity(), Severity::Deny);
    let span = d.span.as_ref().expect("E001 must carry the failing op's span");
    assert_eq!(span.op_index, circuit.output(), "mismatch surfaces at the concat");
    assert_eq!(span.kernel, "concat");
}

#[test]
fn compile_checked_rejects_scale_mismatch_before_any_probe() {
    let circuit = scale_mismatch_adversary();
    let err = Compiler::new(SchemeKind::RnsCkks)
        .with_output_precision(2f64.powi(20))
        .with_layout_policy(LayoutPolicy::Chw)
        .compile_checked(&circuit, &ScaleConfig::REFERENCE)
        .unwrap_err();
    match err {
        SelectError::RepairFailed { last_error, .. } => {
            // The static verifier speaks in lint codes; the dynamic probe
            // never does. Seeing the code proves the rejection was static.
            assert!(last_error.contains("CHET-E001"), "want static E001, got: {last_error}");
        }
        other => panic!("expected RepairFailed, got {other:?}"),
    }
}

/// conv → two squarings → global pool: more rescaling than a
/// single-prime chain holds.
fn two_squarings() -> Circuit {
    let mut b = CircuitBuilder::new();
    let x = b.input(vec![1, 6, 6]);
    let w = Tensor::from_fn(vec![1, 1, 3, 3], |i| (i[2] * 3 + i[3]) as f64 * 0.05 - 0.1);
    let c = b.conv2d(x, w, None, 1, Padding::Valid);
    let a1 = b.activation(c, 0.2, 0.9);
    let a2 = b.activation(a1, 0.2, 0.9);
    let g = b.global_avg_pool(a2);
    b.build(g)
}

/// `compiled` with its chain swapped for one with a single consumable
/// prime.
fn starve(mut compiled: CompiledCircuit) -> CompiledCircuit {
    compiled.params = EncryptionParams::rns_ckks(compiled.params.degree, 40, 2);
    compiled
}

#[test]
fn level_exhaustion_on_a_starved_modulus_chain() {
    let circuit = two_squarings();
    // Swap the selected chain for one with a single consumable prime; the
    // two squarings need more.
    let compiled = starve(compile(&circuit));
    let report = verify_compiled(&circuit, &compiled);
    assert!(report.has(LintCode::LevelExhaustion), "want CHET-E002 in:\n{}", report.render_text());
    let d = report.diagnostics.iter().find(|d| d.code == LintCode::LevelExhaustion).unwrap();
    assert_eq!(d.severity(), Severity::Deny);
    assert!(d.span.is_some(), "E002 must point at the op that crossed the budget");
}

#[test]
fn stripped_rotation_keys_are_rejected_with_span() {
    let circuit = healthy();
    let mut compiled = compile(&circuit);
    compiled.rotation_keys = RotationKeyPolicy::Exact(BTreeSet::new());
    let report = verify_compiled(&circuit, &compiled);
    assert!(report.has(LintCode::MissingRotationKey), "want CHET-E003 in:\n{}", report.render_text());
    let d = report.diagnostics.iter().find(|d| d.code == LintCode::MissingRotationKey).unwrap();
    assert_eq!(d.severity(), Severity::Deny);
    let span = d.span.as_ref().expect("E003 must carry the rotating op's span");
    assert_eq!(span.kernel, "conv2d", "the conv is the first kernel that rotates");
    // An empty key set has nothing unused: W002 must not fire.
    assert!(!report.has(LintCode::UnusedRotationKey), "{}", report.render_text());
}

/// IR extraction refuses the artifacts the verifier denies, without
/// panicking, and its error names the first deny's lint code and circuit op.
#[test]
fn extraction_fails_on_denied_artifacts_with_code_and_op() {
    let circuit = healthy();
    let mut keyless = compile(&circuit);
    keyless.rotation_keys = RotationKeyPolicy::Exact(BTreeSet::new());
    // Dropping the base prime leaves the last rescale prime as the
    // non-consumable anchor, so the activation's rescale exhausts the chain.
    let mut starved = compile(&circuit);
    let ModulusSpec::PrimeChain { primes, .. } = &mut starved.params.modulus else {
        panic!("an RNS artifact carries a prime chain");
    };
    primes.remove(0);
    for (what, compiled, code, op) in [
        ("no rotation keys", keyless, LintCode::MissingRotationKey, 1),
        ("base prime removed", starved, LintCode::LevelExhaustion, 2),
    ] {
        let report = verify_compiled(&circuit, &compiled);
        let deny = report.first_deny().unwrap_or_else(|| panic!("{what}: verifier passed"));
        assert_eq!((deny.code, deny.span.as_ref().map(|s| s.op_index)), (code, Some(op)));
        let extracted = std::panic::catch_unwind(|| {
            extract_ir(&circuit, &compiled, ExtractMode::Metadata)
        })
        .unwrap_or_else(|_| panic!("{what}: extraction panicked"));
        let err = extracted.err().unwrap_or_else(|| panic!("{what}: extraction succeeded"));
        let msg = err.to_string();
        assert!(msg.contains(&format!("op #{op} ")), "{what}: want op #{op} in: {msg}");
        assert!(msg.contains(code.code()), "{what}: want {code} in: {msg}");
    }
}

#[test]
fn composed_rotations_are_noted_not_denied() {
    let circuit = healthy();
    let mut compiled = compile(&circuit);
    compiled.rotation_keys = RotationKeyPolicy::Exact(BTreeSet::from([1]));
    let report = verify_compiled(&circuit, &compiled);
    // Every step is reachable by composing step-1 keys, so nothing is
    // denied — but the degradation is noted.
    assert!(!report.has_deny(), "{}", report.render_text());
    assert!(report.has(LintCode::DegradedRotation), "want CHET-N001 in:\n{}", report.render_text());
    let d = report.diagnostics.iter().find(|d| d.code == LintCode::DegradedRotation).unwrap();
    assert_eq!(d.severity(), Severity::Note);
}

#[test]
fn shrunk_slot_count_is_rejected() {
    let circuit = healthy();
    let mut compiled = compile(&circuit);
    compiled.params.degree = 32; // 16 slots < the 36-element input
    let report = verify_compiled(&circuit, &compiled);
    assert!(report.has(LintCode::SlotOverflow), "want CHET-E004 in:\n{}", report.render_text());
    assert_eq!(
        report.diagnostics.iter().find(|d| d.code == LintCode::SlotOverflow).unwrap().severity(),
        Severity::Deny
    );
}

#[test]
fn invalid_ring_degree_is_rejected() {
    let circuit = healthy();
    let mut compiled = compile(&circuit);
    compiled.params.degree = 1000; // not a power of two
    let report = verify_compiled(&circuit, &compiled);
    assert!(report.has(LintCode::InvalidParams), "want CHET-E006 in:\n{}", report.render_text());
}

/// Two convolutions of the input, one of which never reaches the output;
/// also returns the dead node.
fn dead_node_circuit() -> (Circuit, usize) {
    let mut b = CircuitBuilder::new();
    let x = b.input(vec![1, 6, 6]);
    let w = Tensor::from_fn(vec![1, 1, 3, 3], |i| (i[2] * 3 + i[3]) as f64 * 0.05 - 0.1);
    let dead = b.conv2d(x, w.clone(), None, 1, Padding::Valid);
    let c = b.conv2d(x, w, Some(vec![0.1]), 1, Padding::Valid);
    let a = b.activation(c, 0.2, 0.9);
    (b.build(a), dead)
}

#[test]
fn dead_node_is_warned_with_exact_span() {
    let (circuit, dead) = dead_node_circuit();
    let compiled = compile(&circuit);
    let report = verify_compiled(&circuit, &compiled);
    assert!(report.has(LintCode::DeadOp), "want CHET-W003 in:\n{}", report.render_text());
    let d = report.diagnostics.iter().find(|d| d.code == LintCode::DeadOp).unwrap();
    assert_eq!(d.severity(), Severity::Warn);
    let span = d.span.as_ref().expect("W003 must name the dead node");
    assert_eq!(span.op_index, dead);
    assert_eq!(span.kernel, "conv2d");
}

#[test]
fn redundant_rescale_is_warned() {
    // The kernels' `settle` helper never rescales a ciphertext already
    // within 1.5× of the working scale, so this waste can't come from a
    // compiled plan — drive the walker directly, as a hand-written HISA
    // trace (or a buggy kernel) would.
    use chet_compiler::verify::walker::VerifyInterp;
    use chet_compiler::verify::DiagSink;
    use chet_hisa::Hisa;
    use std::sync::{Arc, Mutex};

    let circuit = healthy();
    let compiled = compile(&circuit);
    let sink = Arc::new(Mutex::new(DiagSink::default()));
    let mut h = VerifyInterp::new(&compiled, Arc::clone(&sink));
    let pt = h.try_encode(&[1.0, 2.0, 3.0, 4.0], compiled.plan.scales.input).unwrap();
    let ct = h.encrypt(&pt);
    let _ = h.try_rescale(&ct, 2.0).unwrap(); // already at the working scale: pure waste
    let sink = sink.lock().unwrap_or_else(|e| e.into_inner());
    let d = sink
        .diagnostics()
        .iter()
        .find(|d| d.code == LintCode::RedundantRescale)
        .expect("rescaling at the working scale must raise CHET-W001");
    assert_eq!(d.severity(), Severity::Warn);
    assert_eq!(d.code.code(), "CHET-W001");
}

#[test]
fn healthy_artifact_is_clean() {
    let circuit = healthy();
    let compiled = compile(&circuit);
    let report = verify_compiled(&circuit, &compiled);
    assert!(report.diagnostics.is_empty(), "{}", report.render_text());
    assert_eq!(report.checked_ops, circuit.ops().len());
}

// The soundness contract behind `compile_checked` skipping the probe for
// statically-verified properties: zero Deny diagnostics ⇒ the dynamic
// SimCkks probe executes the artifact successfully.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn zero_deny_implies_probe_passes(
        maps in 1usize..3,
        k in 2usize..4,
        act_a in 0.05f64..0.3,
        act_b in 0.5f64..1.1,
        seed in 0u64..1000,
    ) {
        let mut b = CircuitBuilder::new();
        let x = b.input(vec![1, 6, 6]);
        let w = Tensor::random(vec![maps, 1, k, k], 0.2, seed);
        let c = b.conv2d(x, w, None, 1, Padding::Valid);
        let a = b.activation(c, act_a, act_b);
        let g = b.global_avg_pool(a);
        let circuit = b.build(g);
        let compiled = compile(&circuit);
        let report = verify_compiled(&circuit, &compiled);
        if report.has_deny() {
            // Vacuous case: the implication only binds deny-free artifacts.
            return Ok(());
        }
        let probe = validate_compiled(&circuit, &compiled, 0.5);
        prop_assert!(probe.is_ok(), "static verifier passed but probe failed: {:?}", probe);
    }
}

#[test]
fn pruned_rotation_keys_are_noted() {
    let circuit = healthy();
    let mut compiled = compile(&circuit);
    // Simulate the key-pruning pass having dropped two provisional steps.
    compiled.pruned_rotations = vec![3, 5];
    let report = verify_compiled(&circuit, &compiled);
    assert!(!report.has_deny(), "{}", report.render_text());
    let note = report
        .diagnostics
        .iter()
        .find(|d| d.code == LintCode::PrunedRotationKey)
        .unwrap_or_else(|| panic!("want CHET-N002 in:\n{}", report.render_text()));
    assert_eq!(note.severity(), Severity::Note);
    assert!(note.message.contains("[3, 5]"), "{}", note.message);
}

/// `--machine` lines must be valid JSON that parses back into the exact
/// diagnostic — the round-trip contract machine consumers rely on.
#[test]
fn machine_rendering_round_trips() {
    let circuit = healthy();
    let mut compiled = compile(&circuit);
    compiled.rotation_keys = RotationKeyPolicy::Exact(BTreeSet::new());
    compiled.pruned_rotations = vec![7];
    let report = verify_compiled(&circuit, &compiled);
    assert!(!report.diagnostics.is_empty());
    // Both spanned (E003) and span-free (N002) findings must survive.
    assert!(report.diagnostics.iter().any(|d| d.span.is_some()));
    assert!(report.diagnostics.iter().any(|d| d.span.is_none()));
    for d in &report.diagnostics {
        let line = d.render_machine();
        assert!(!line.contains('\n'), "one line per diagnostic: {line}");
        let back = chet_compiler::Diagnostic::parse_machine(&line)
            .unwrap_or_else(|| panic!("unparseable machine line: {line}"));
        assert_eq!(&back, d, "round-trip mutated the diagnostic: {line}");
        // The --machine flavor with a network key parses identically.
        let with_net = d.render_machine_for("LeNet-5-small");
        let back = chet_compiler::Diagnostic::parse_machine(&with_net).unwrap();
        assert_eq!(&back, d);
    }
}

/// Messages containing JSON metacharacters must be escaped, not break the
/// line format.
#[test]
fn machine_rendering_escapes_messages() {
    let d = chet_compiler::Diagnostic {
        code: LintCode::DeadCiphertext,
        span: Some(chet_compiler::OpSpan::new(4, "conv2d".to_string())),
        message: "tricky \"quoted\" text, a back\\slash and a\nnewline".to_string(),
    };
    let line = d.render_machine();
    assert!(!line.contains('\n'), "newline must be escaped: {line}");
    let back = chet_compiler::Diagnostic::parse_machine(&line).unwrap();
    assert_eq!(back, d);
}

/// The lint catalog: every code is unique, parseable back from its string
/// form, and the IR-analysis family (CHET-P) is present.
#[test]
fn lint_catalog_is_complete() {
    assert_eq!(LintCode::ALL.len(), 18);
    let codes: BTreeSet<&str> = LintCode::ALL.iter().map(|c| c.code()).collect();
    assert_eq!(codes.len(), LintCode::ALL.len(), "duplicate lint code strings");
    for c in LintCode::ALL {
        assert_eq!(LintCode::from_code(c.code()), Some(c), "{}", c.code());
        assert!(!c.name().is_empty() && !c.description().is_empty());
    }
    for p in [
        "CHET-P001",
        "CHET-P002",
        "CHET-P003",
        "CHET-P004",
        "CHET-P005",
        "CHET-N002",
        "CHET-B001",
    ] {
        assert!(codes.contains(p), "missing {p}");
    }
}

/// Every adversary's rendered report: each artifact is compiled, tampered
/// and verified at the current thread count. The redundant rescale runs
/// inside a kernel-style fan-out, so its finding reaches the sink through
/// a forked walker's join.
fn adversary_reports() -> Vec<(&'static str, String)> {
    use chet_compiler::verify::walker::VerifyInterp;
    use chet_compiler::verify::DiagSink;
    use chet_hisa::Hisa;
    use std::sync::{Arc, Mutex};

    let mut reports = Vec::new();
    let mut push = |what, circuit: &Circuit, compiled: &CompiledCircuit| {
        reports.push((what, verify_compiled(circuit, compiled).render_text()));
    };

    let circuit = scale_mismatch_adversary();
    let chw = Compiler::new(SchemeKind::RnsCkks)
        .with_output_precision(2f64.powi(20))
        .with_layout_policy(LayoutPolicy::Chw)
        .compile(&circuit, &ScaleConfig::REFERENCE)
        .unwrap();
    push("scale mismatch", &circuit, &chw);

    let circuit = two_squarings();
    push("level exhaustion", &circuit, &starve(compile(&circuit)));

    let circuit = healthy();
    let mut keyless = compile(&circuit);
    keyless.rotation_keys = RotationKeyPolicy::Exact(BTreeSet::new());
    push("stripped keys", &circuit, &keyless);
    let mut composed = compile(&circuit);
    composed.rotation_keys = RotationKeyPolicy::Exact(BTreeSet::from([1]));
    push("composed rotations", &circuit, &composed);
    let mut baseless = compile(&circuit);
    let ModulusSpec::PrimeChain { primes, .. } = &mut baseless.params.modulus else {
        panic!("an RNS artifact carries a prime chain");
    };
    primes.remove(0);
    push("base prime removed", &circuit, &baseless);

    let (circuit, _) = dead_node_circuit();
    push("dead node", &circuit, &compile(&circuit));

    let circuit = healthy();
    let compiled = compile(&circuit);
    let sink = Arc::new(Mutex::new(DiagSink::default()));
    let mut h = VerifyInterp::new(&compiled, Arc::clone(&sink));
    sink.lock().unwrap().set_span(1, "conv2d");
    let pt = h.try_encode(&[1.0, 2.0, 3.0, 4.0], compiled.plan.scales.input).unwrap();
    let ct = h.encrypt(&pt);
    chet_runtime::par::try_fan_out(&mut h, 4, |h, i| Ok(h.try_rescale(&ct, 2.0 + i as f64)?))
        .unwrap();
    let sink = sink.lock().unwrap();
    let text: Vec<String> = sink.diagnostics().iter().map(ToString::to_string).collect();
    reports.push(("redundant rescale", text.join("\n")));
    reports
}

/// The walker forks at every kernel fan-out, and a join replays the
/// child's findings in job order, so every report — codes, spans,
/// messages and their order — reads the same at any thread count.
#[test]
fn adversary_reports_are_identical_across_thread_counts() {
    let _guard = chet_math::par::test_support::config_lock();
    chet_runtime::par::set_threads(1);
    let one = adversary_reports();
    chet_runtime::par::set_threads(4);
    let four = adversary_reports();
    for ((what, a), (_, b)) in one.iter().zip(&four) {
        assert!(!a.is_empty(), "{what}: empty report");
        assert_eq!(a, b, "{what}: the report differs between 1 and 4 threads");
    }
    assert_eq!(one.len(), 7);
    let rescale = &one[6].1;
    assert!(rescale.contains("CHET-W001") && rescale.contains("op #1"), "{rescale}");
}
