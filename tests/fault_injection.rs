//! Robustness acceptance tests: every `HisaError` variant surfaces through
//! `try_infer` as a value (never a panic), and `compile_checked` repairs a
//! deliberately under-scaled compilation within its retry budget.

use chet::ckks::rns::RnsCkks;
use chet::ckks::sim::SimCkks;
use chet::compiler::Compiler;
use chet::hisa::params::SchemeKind;
use chet::hisa::{EncryptionParams, HisaError, RotationKeyPolicy};
use chet::runtime::exec::{
    try_infer, try_infer_batch_with_control, ExecControl, ExecError, ExecPlan,
};
use chet::runtime::fault::{FaultInjector, FaultPlan};
use chet::runtime::kernels::ScaleConfig;
use chet::runtime::layout::LayoutKind;
use chet::tensor::circuit::{Circuit, CircuitBuilder};
use chet::tensor::ops::Padding;
use chet::tensor::Tensor;

const SCALES: ScaleConfig = ScaleConfig {
    input: (1u64 << 26) as f64,
    weight_plain: (1u64 << 16) as f64,
    weight_scalar: (1u64 << 16) as f64,
    mask: (1u64 << 16) as f64,
};

/// conv → activation → avg-pool: exercises rotations, plaintext muls,
/// scalar muls and rescales, so every fault class has a trigger site.
fn small_cnn() -> Circuit {
    let mut b = CircuitBuilder::new();
    let x = b.input(vec![1, 6, 6]);
    let w = Tensor::from_fn(vec![2, 1, 3, 3], |i| (i[2] * 3 + i[3]) as f64 * 0.05 - 0.1);
    let c = b.conv2d(x, w, Some(vec![0.1, -0.1]), 1, Padding::Valid);
    let a = b.activation(c, 0.2, 0.9);
    let p = b.avg_pool2d(a, 2, 2);
    b.build(p)
}

fn image() -> Tensor {
    Tensor::random(vec![1, 6, 6], 1.0, 17)
}

fn sim(policy: &RotationKeyPolicy) -> SimCkks {
    let params = EncryptionParams::rns_ckks(8192, 40, 6);
    SimCkks::new(&params, policy, 5).without_noise()
}

fn plan(circuit: &Circuit) -> ExecPlan {
    ExecPlan::uniform(circuit, LayoutKind::CHW, SCALES)
}

/// Runs `try_infer` on the simulator wrapped in a single-fault injector and
/// returns the error it must produce.
fn inject(fault: FaultPlan, seed: u64) -> ExecError {
    let circuit = small_cnn();
    let plan = plan(&circuit);
    let mut h = FaultInjector::new(sim(&RotationKeyPolicy::PowersOfTwo), fault, seed);
    try_infer(&mut h, &circuit, &plan, &image())
        .expect_err("a rate-1.0 fault must abort inference")
}

#[test]
fn missing_rotation_key_surfaces_through_try_infer() {
    // Real path, no injection: an Exact key set that cannot reach the
    // steps the circuit needs (step 4 only generates multiples of 4).
    let circuit = small_cnn();
    let plan = plan(&circuit);
    let mut h = sim(&RotationKeyPolicy::Exact([4usize].into_iter().collect()));
    match try_infer(&mut h, &circuit, &plan, &image()) {
        Err(e @ ExecError::Hisa { source: HisaError::MissingRotationKey { .. }, .. }) => {
            let msg = e.to_string();
            assert!(msg.contains("no rotation-key plan"), "{msg}");
            assert!(msg.contains("conv2d"), "failure attributed to the conv: {msg}");
        }
        other => panic!("expected MissingRotationKey, got {other:?}"),
    }
}

#[test]
fn scale_mismatch_surfaces_through_try_infer() {
    let e = inject(FaultPlan::none(1.0).with_scale_drift(), 1);
    match e {
        ExecError::Hisa { source: HisaError::ScaleMismatch { left, right }, .. } => {
            assert_ne!(left, right);
        }
        other => panic!("expected ScaleMismatch, got {other:?}"),
    }
}

#[test]
fn level_exhausted_surfaces_through_try_infer() {
    let e = inject(FaultPlan::none(1.0).with_exhausted_levels(), 2);
    assert!(
        matches!(e, ExecError::Hisa { source: HisaError::LevelExhausted { .. }, .. }),
        "expected LevelExhausted, got {e:?}"
    );
}

#[test]
fn slot_overflow_surfaces_through_try_infer() {
    let e = inject(FaultPlan::none(1.0).with_slot_overflow(), 3);
    match e {
        ExecError::Hisa { source: HisaError::SlotOverflow { len, slots }, op, .. } => {
            assert_eq!(op, "input", "overflow fires at client-side encode");
            assert!(len > slots);
        }
        other => panic!("expected SlotOverflow, got {other:?}"),
    }
}

#[test]
fn invalid_rescale_surfaces_through_try_infer() {
    let e = inject(FaultPlan::none(1.0).with_invalid_rescale(), 4);
    assert!(
        matches!(e, ExecError::Hisa { source: HisaError::InvalidRescale { .. }, .. }),
        "expected InvalidRescale, got {e:?}"
    );
}

#[test]
fn nan_slots_surface_as_precision_loss() {
    let e = inject(FaultPlan::none(1.0).with_nan_slots(), 5);
    assert!(
        matches!(e, ExecError::PrecisionLoss { .. }),
        "expected PrecisionLoss from NaN-poisoned decode, got {e:?}"
    );
}

#[test]
fn fault_free_run_reports_no_degradation() {
    // With the compiler's exact rotation keys every requested step has a
    // dedicated key, so nothing is degraded.
    let circuit = small_cnn();
    let compiled = Compiler::new(SchemeKind::RnsCkks)
        .with_output_precision(2f64.powi(20))
        .compile(&circuit, &SCALES)
        .expect("compiles");
    let mut h = SimCkks::new(&compiled.params, &compiled.rotation_keys, 5).without_noise();
    let image = image();
    let (got, report) = try_infer_batch_with_control(
        &mut h,
        &circuit,
        &compiled.plan,
        &[&image],
        1,
        &mut ExecControl::none(),
    )
    .expect("healthy run");
    let want = circuit.eval(&[image]);
    assert!(got[0].max_abs_diff(&want) < 1e-3);
    assert_eq!(report.degraded_rotations, 0);
    assert_eq!(report.extra_rotation_ops, 0);
}

#[test]
fn missing_exact_keys_degrade_gracefully_with_logged_penalty() {
    // Power-of-two keys serve a conv's ±1/±2 steps by composition when the
    // exact step set is absent; the run completes and the report logs the
    // extra rotations spent.
    let circuit = small_cnn();
    let plan = plan(&circuit);
    // Keys {1, 6, 8192-6, ...} would be the exact set; give only pow2 keys
    // plus check the degradation accounting against an Exact superset that
    // forces composition for at least one step.
    let slots = 4096usize;
    let keys: std::collections::BTreeSet<usize> =
        [1usize, 2, 4, 8, 16, slots - 1, slots - 2, slots - 4, slots - 8, slots - 16]
            .into_iter()
            .collect();
    let mut h = sim(&RotationKeyPolicy::Exact(keys));
    let image = image();
    let (got, report) = try_infer_batch_with_control(
        &mut h,
        &circuit,
        &plan,
        &[&image],
        1,
        &mut ExecControl::none(),
    )
    .expect("degraded run completes");
    let want = circuit.eval(&[image]);
    assert!(got[0].max_abs_diff(&want) < 1e-3, "degraded run stays correct");
    assert!(report.degraded_rotations > 0, "missing exact keys must be logged");
    assert!(report.extra_rotation_ops >= report.degraded_rotations);
}

#[test]
fn compile_checked_repairs_starved_scales_and_infers_on_both_backends() {
    // Deliberately insufficient scales: the probe sees precision loss and
    // the repair loop must converge within <= 3 retries.
    let circuit = small_cnn();
    let starved = ScaleConfig::from_log2(14, 6, 6, 4);
    // Probe at a tolerance tighter than the acceptance bound so the
    // repaired artifact has headroom on images other than the probe's.
    let (compiled, report) = Compiler::new(SchemeKind::RnsCkks)
        .with_output_precision(2f64.powi(20))
        .with_repair_tolerance(0.02)
        .compile_checked(&circuit, &starved)
        .expect("repair loop must converge");
    assert!(report.repaired(), "starved scales must need repair");
    assert!(report.attempts <= 4, "initial compile + at most 3 retries");
    assert!(report.final_scales.input > starved.input, "repair raises scales");

    let image = image();
    let want = circuit.eval(&[image.clone()]);

    let mut sim = SimCkks::new(&compiled.params, &compiled.rotation_keys, 2024);
    let got_sim = try_infer(&mut sim, &circuit, &compiled.plan, &image).unwrap();
    assert!(
        got_sim.max_abs_diff(&want) < 5e-2,
        "repaired artifact on SimCkks: {}",
        got_sim.max_abs_diff(&want)
    );

    let mut fhe = RnsCkks::new(&compiled.params, &compiled.rotation_keys, 99);
    let got_fhe = try_infer(&mut fhe, &circuit, &compiled.plan, &image).unwrap();
    assert!(
        got_fhe.max_abs_diff(&want) < 5e-2,
        "repaired artifact on RnsCkks: {}",
        got_fhe.max_abs_diff(&want)
    );
}

#[test]
fn multi_input_circuits_rejected_at_compile_time() {
    let mut b = CircuitBuilder::new();
    let x = b.input(vec![1, 4, 4]);
    let y = b.input(vec![1, 4, 4]);
    let c = b.concat(vec![x, y]);
    let circuit = b.build(c);
    match Compiler::new(SchemeKind::RnsCkks).compile(&circuit, &ScaleConfig::default()) {
        Err(chet::compiler::SelectError::UnsupportedCircuit { reason }) => {
            assert!(reason.contains("multiple encrypted inputs"));
        }
        other => panic!("expected UnsupportedCircuit, got {other:?}"),
    }
}
