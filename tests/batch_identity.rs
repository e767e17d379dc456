//! Batch-axis packing must be invisible to clients: for every built-in
//! network, running a member inside a batched ciphertext (batch widths 1,
//! 2 and the layout's full capacity, including a zero-padded partial
//! batch at full width) produces **bit-identical** output to running the
//! same image solo through `try_infer`.
//!
//! `ci.sh` runs this suite under both `CHET_THREADS=1` and
//! `CHET_THREADS=4`, so identity also holds across worker-pool shapes.

use chet::compiler::Compiler;
use chet::hisa::params::SchemeKind;
use chet::runtime::exec::{batch_capacity, try_infer, try_infer_batch_with_control, ExecControl};
use chet::runtime::kernels::ScaleConfig;
use chet_ckks::sim::SimCkks;

#[test]
fn batched_members_are_bit_identical_to_solo_for_every_network() {
    for name in
        ["LeNet-5-small", "LeNet-5-medium", "LeNet-5-large", "Industrial", "SqueezeNet-CIFAR"]
    {
        let net = chet::networks::try_reduced(name).expect("known network");
        let compiled = Compiler::new(SchemeKind::RnsCkks)
            .with_output_precision(2f64.powi(25))
            .compile(&net.circuit, &ScaleConfig::REFERENCE)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let cap = batch_capacity(&net.circuit, &compiled.plan, compiled.params.slots());
        assert!(cap >= 2, "{name}: reduced layout must fit at least 2 members, got {cap}");

        let images: Vec<_> = (0..3u64).map(|s| net.sample_image(10 + s)).collect();
        let solo: Vec<_> = images
            .iter()
            .map(|img| {
                let mut sim =
                    SimCkks::new(&compiled.params, &compiled.rotation_keys, 7).without_noise();
                try_infer(&mut sim, &net.circuit, &compiled.plan, img)
                    .unwrap_or_else(|e| panic!("{name}: solo inference failed: {e}"))
            })
            .collect();

        let mut widths = vec![1, 2, cap];
        widths.dedup();
        for batch_n in widths {
            // At full width the batch is partial (3 real members), which
            // exercises the zero-padding path.
            let members = images.len().min(batch_n);
            let refs: Vec<&_> = images.iter().take(members).collect();
            let mut sim =
                SimCkks::new(&compiled.params, &compiled.rotation_keys, 7).without_noise();
            let (outputs, _report) = try_infer_batch_with_control(
                &mut sim,
                &net.circuit,
                &compiled.plan,
                &refs,
                batch_n,
                &mut ExecControl::none(),
            )
            .unwrap_or_else(|e| panic!("{name}: batch {batch_n} failed: {e}"));
            assert_eq!(outputs.len(), members);
            for (k, out) in outputs.iter().enumerate() {
                assert_eq!(out.shape(), solo[k].shape(), "{name} batch {batch_n} member {k}");
                assert_eq!(
                    out.data(),
                    solo[k].data(),
                    "{name} batch {batch_n} member {k}: batched output must be bit-identical"
                );
            }
        }
    }
}
