//! Parallel-execution determinism: the fan-out layer must be a pure
//! performance knob. Every Table 3 network (reduced), under both uniform
//! layouts, must produce **bit-identical** decrypted outputs at 1 thread
//! and at N threads — including the simulator's injected noise, whose RNG
//! splits are fixed by fork order, not scheduling.
//!
//! Also covers cancellation under parallelism: a deadline firing mid-run
//! stops the fan-out at a job boundary with `ExecError::Cancelled` and
//! leaves the process-global pool reusable (no deadlock, no orphaned
//! region).

use chet::compiler::Compiler;
use chet::hisa::params::SchemeKind;
use chet::math::par::test_support::config_lock;
use chet::runtime::cancel::CancelToken;
use chet::runtime::exec::{
    try_infer, try_infer_batch_with_control, ExecControl, ExecError, ExecPlan,
};
use chet::runtime::kernels::ScaleConfig;
use chet::runtime::layout::LayoutKind;
use chet::runtime::par::set_threads;
use chet_ckks::sim::SimCkks;
use chet_tensor::Tensor;

const NETWORKS: [&str; 5] =
    ["LeNet-5-small", "LeNet-5-medium", "LeNet-5-large", "Industrial", "SqueezeNet-CIFAR"];

/// Runs one network once at the given thread count, on a *noisy* seeded
/// simulator (noise is the sharpest determinism probe: any RNG split that
/// depends on scheduling changes the output bits).
fn run_once(name: &str, kind: LayoutKind, threads: usize) -> Tensor {
    let net = chet::networks::try_reduced(name).expect("known network");
    let compiled = Compiler::new(SchemeKind::RnsCkks)
        .with_output_precision(2f64.powi(25))
        .compile(&net.circuit, &ScaleConfig::REFERENCE)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let plan = ExecPlan::uniform(&net.circuit, kind, ScaleConfig::REFERENCE);
    let mut sim = SimCkks::new(&compiled.params, &compiled.rotation_keys, 7);
    let image = net.sample_image(3);
    set_threads(threads);
    try_infer(&mut sim, &net.circuit, &plan, &image)
        .unwrap_or_else(|e| panic!("{name}/{kind} at {threads} threads: {e}"))
}

#[test]
fn outputs_bit_identical_across_thread_counts() {
    let _guard = config_lock();
    for name in NETWORKS {
        for kind in [LayoutKind::HW, LayoutKind::CHW] {
            let one = run_once(name, kind, 1);
            for threads in [2, 4, 8] {
                let many = run_once(name, kind, threads);
                assert_eq!(
                    one.data(),
                    many.data(),
                    "{name}/{kind}: output bits differ between 1 and {threads} threads"
                );
            }
        }
    }
    set_threads(1);
}

#[test]
fn cancellation_mid_run_is_clean_under_parallelism() {
    let _guard = config_lock();
    set_threads(4);
    let net = chet::networks::try_reduced("Industrial").expect("known network");
    let compiled = Compiler::new(SchemeKind::RnsCkks)
        .with_output_precision(2f64.powi(25))
        .compile(&net.circuit, &ScaleConfig::REFERENCE)
        .expect("compiles");
    let plan = ExecPlan::uniform(&net.circuit, LayoutKind::CHW, ScaleConfig::REFERENCE);
    let image = net.sample_image(3);

    // Pre-tripped token: deterministic "deadline fired mid-fan-out" — the
    // first cooperative check aborts the run.
    let token = CancelToken::new();
    token.cancel();
    let mut sim = SimCkks::new(&compiled.params, &compiled.rotation_keys, 7);
    let mut ctrl = ExecControl::cancelled_by(&token);
    let err = try_infer_batch_with_control(&mut sim, &net.circuit, &plan, &[&image], 1, &mut ctrl)
        .expect_err("cancelled run must not succeed");
    assert!(
        matches!(err, ExecError::Cancelled { .. }),
        "expected Cancelled, got {err}"
    );

    // A tight real deadline trips somewhere inside the run; the error must
    // still classify as Cancelled (never Kernel), regardless of whether it
    // fired between nodes or mid-fan-out.
    let token = CancelToken::with_deadline(std::time::Duration::from_micros(200));
    let mut sim = SimCkks::new(&compiled.params, &compiled.rotation_keys, 7);
    let mut ctrl = ExecControl::cancelled_by(&token);
    match try_infer_batch_with_control(&mut sim, &net.circuit, &plan, &[&image], 1, &mut ctrl) {
        Ok(_) => {} // a fast machine may beat a 200 µs budget; that's fine
        Err(ExecError::Cancelled { .. }) => {}
        Err(other) => panic!("deadline must surface as Cancelled, not {other}"),
    }

    // The pool survives a cancelled region: an uncancelled run afterwards
    // completes and matches the single-threaded bits.
    let mut sim = SimCkks::new(&compiled.params, &compiled.rotation_keys, 7);
    let parallel_out =
        try_infer(&mut sim, &net.circuit, &plan, &image).expect("pool reusable after cancel");
    set_threads(1);
    let mut sim = SimCkks::new(&compiled.params, &compiled.rotation_keys, 7);
    let serial_out = try_infer(&mut sim, &net.circuit, &plan, &image).expect("serial run");
    assert_eq!(parallel_out.data(), serial_out.data(), "post-cancel run stays deterministic");
}
