//! Criterion benchmarks of the homomorphic tensor kernels (conv, dense,
//! pooling) under both layouts on the real RNS-CKKS backend.

use chet_ckks::rns::RnsCkks;
use chet_hisa::{EncryptionParams, Hisa, RotationKeyPolicy, SecurityLevel};
use chet_runtime::ciphertensor::encrypt_tensor;
use chet_runtime::kernels::conv::try_hconv2d_with_mask;
use chet_runtime::kernels::matmul::try_hmatmul;
use chet_runtime::kernels::pool::try_havg_pool2d_with_mask;
use chet_runtime::kernels::ScaleConfig;
use chet_runtime::layout::{Layout, LayoutKind};
use chet_tensor::ops::Padding;
use chet_tensor::Tensor;
use criterion::{criterion_group, criterion_main, Criterion};

fn backend() -> RnsCkks {
    let params =
        EncryptionParams::rns_ckks(4096, 40, 3).with_security(SecurityLevel::Insecure);
    RnsCkks::new(&params, &RotationKeyPolicy::PowersOfTwo, 7)
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    group.sample_size(10);
    let scales = ScaleConfig::default();
    let image = Tensor::random(vec![2, 8, 8], 1.0, 1);
    let weights = Tensor::random(vec![2, 2, 3, 3], 0.3, 2);

    for kind in [LayoutKind::HW, LayoutKind::CHW] {
        let mut h = backend();
        let layout = match kind {
            LayoutKind::HW => Layout::hw(2, 8, 8, 0, h.slots()),
            LayoutKind::CHW => Layout::chw(2, 8, 8, 0, h.slots()),
        };
        let enc = encrypt_tensor(&mut h, &image, &layout, scales.input);
        group.bench_function(format!("conv3x3_{kind}"), |b| {
            b.iter(|| {
                try_hconv2d_with_mask(
                    &mut h, &enc, &weights, None, 1, Padding::Valid, kind, &scales, true,
                )
                .expect("conv runs")
            })
        });
        group.bench_function(format!("avgpool2_{kind}"), |b| {
            b.iter(|| {
                try_havg_pool2d_with_mask(&mut h, &enc, 2, 2, &scales, true).expect("pool runs")
            })
        });
    }

    let mut h = backend();
    let layout = Layout::chw(2, 8, 8, 0, h.slots());
    let enc = encrypt_tensor(&mut h, &image, &layout, scales.input);
    let w = Tensor::random(vec![4, 128], 0.2, 3);
    group.bench_function("matmul_128x4", |b| {
        b.iter(|| try_hmatmul(&mut h, &enc, &w, None, &scales).expect("dense layer runs"))
    });
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
