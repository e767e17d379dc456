//! Tour of the failure model (DESIGN.md §9): fallible inference with op
//! attribution, graceful rotation-key degradation, deterministic fault
//! injection, and self-repairing compilation.
//!
//! ```bash
//! cargo run --release --example failure_model
//! ```

use chet::ckks::sim::SimCkks;
use chet::compiler::Compiler;
use chet::hisa::params::SchemeKind;
use chet::hisa::RotationKeyPolicy;
use chet::runtime::exec::{try_infer, try_infer_with_control, ExecControl, ExecPlan};
use chet::runtime::fault::{FaultInjector, FaultPlan};
use chet::runtime::kernels::ScaleConfig;
use chet::runtime::layout::LayoutKind;
use chet::tensor::circuit::CircuitBuilder;
use chet::tensor::ops::Padding;
use chet::tensor::Tensor;

fn network() -> chet::Circuit {
    let mut b = CircuitBuilder::new();
    let x = b.input(vec![1, 6, 6]);
    let w = Tensor::random(vec![2, 1, 3, 3], 0.3, 7);
    let c = b.conv2d(x, w, None, 1, Padding::Valid);
    let a = b.activation(c, 0.2, 0.9);
    let p = b.avg_pool2d(a, 2, 2);
    b.build(p)
}

fn main() {
    let circuit = network();
    let image = Tensor::random(vec![1, 6, 6], 1.0, 17);
    let reference = circuit.eval(&[image.clone()]);

    // 1. Self-repairing compilation: deliberately starved scales. The
    //    compiler probe-runs the artifact on the noise simulator, notices
    //    the precision loss, bumps the scales and recompiles.
    let starved = ScaleConfig::from_log2(14, 6, 6, 4);
    let compiler = Compiler::new(SchemeKind::RnsCkks)
        .with_output_precision(2f64.powi(20))
        .with_repair_tolerance(0.02);
    let (compiled, report) = compiler
        .compile_checked(&circuit, &starved)
        .expect("repair converges");
    println!("repaired: {} (attempts: {})", report.repaired(), report.attempts);
    for action in &report.actions {
        println!(
            "  attempt {}: {} -> {}",
            action.attempt, action.reason, action.adjustment
        );
    }
    println!(
        "  final scales: P_c 2^{:.0} (started at 2^14)",
        report.final_scales.input.log2()
    );

    // 2. Fallible inference on the repaired artifact.
    let mut sim = SimCkks::new(&compiled.params, &compiled.rotation_keys, 2024);
    let out = try_infer(&mut sim, &circuit, &compiled.plan, &image)
        .expect("repaired artifact infers");
    println!("max |err| vs plaintext: {:.4}", out.max_abs_diff(&reference));

    // 3. Graceful degradation: strip the key set down to powers of two.
    //    Missing rotations are composed from available steps; the penalty
    //    is reported, not silently absorbed.
    let slots = compiled.params.slots();
    let sparse: std::collections::BTreeSet<usize> =
        [1usize, 2, 4, 8, 16].iter().flat_map(|&s| [s, slots - s]).collect();
    let mut degraded =
        SimCkks::new(&compiled.params, &RotationKeyPolicy::Exact(sparse), 2024);
    let (out, report) = try_infer_with_control(
        &mut degraded,
        &circuit,
        &compiled.plan,
        &image,
        &mut ExecControl::none(),
    )
    .expect("degraded keys still infer");
    println!(
        "degraded rotations: {} (+{} extra key-switches), max |err| {:.4}",
        report.degraded_rotations,
        report.extra_rotation_ops,
        out.max_abs_diff(&reference)
    );

    // 4. Deterministic fault injection: every backend fault surfaces as a
    //    typed error value attributed to the failing tensor op.
    let plan = ExecPlan {
        layouts: vec![LayoutKind::CHW; circuit.ops().len()],
        scales: compiled.plan.scales,
        margin: compiled.plan.margin,
    };
    for (name, fault) in [
        ("scale drift", FaultPlan::none(1.0).with_scale_drift()),
        ("level exhaustion", FaultPlan::none(1.0).with_exhausted_levels()),
        ("dropped keys", FaultPlan::none(1.0).with_dropped_rotation_keys()),
    ] {
        let inner = SimCkks::new(&compiled.params, &compiled.rotation_keys, 2024);
        let mut faulty = FaultInjector::new(inner, fault, 42);
        match try_infer(&mut faulty, &circuit, &plan, &image) {
            Ok(_) => println!("{name}: no fault reached the output"),
            Err(e) => println!("{name}: {e}"),
        }
    }
}
