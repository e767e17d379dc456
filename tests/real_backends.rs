//! Integration tests on the real lattice backends: the compiled pipeline
//! produces correct encrypted inference under both CKKS variants.

use chet::ckks::big::BigCkks;
use chet::ckks::rns::RnsCkks;
use chet::compiler::Compiler;
use chet::hisa::params::SchemeKind;
use chet::runtime::exec::try_infer;
use chet::runtime::kernels::ScaleConfig;
use chet::tensor::circuit::CircuitBuilder;
use chet::tensor::ops::Padding;
use chet::tensor::Tensor;

fn small_cnn() -> chet::Circuit {
    let mut b = CircuitBuilder::new();
    let x = b.input(vec![1, 6, 6]);
    let w = Tensor::random(vec![2, 1, 3, 3], 0.3, 31);
    let c = b.conv2d(x, w, Some(vec![0.1, -0.1]), 1, Padding::Valid);
    let a = b.activation(c, 0.2, 0.9);
    let p = b.avg_pool2d(a, 2, 2);
    let f = b.flatten(p);
    let wfc = Tensor::random(vec![3, 8], 0.4, 32);
    let m = b.matmul(f, wfc, None);
    b.build(m)
}

#[test]
fn rns_ckks_encrypted_inference_tracks_reference() {
    let circuit = small_cnn();
    let scales = ScaleConfig::from_log2(25, 12, 12, 12);
    let compiled = Compiler::new(SchemeKind::RnsCkks)
        .with_output_precision(2f64.powi(25))
        .compile(&circuit, &scales)
        .unwrap();
    let mut h = RnsCkks::new(&compiled.params, &compiled.rotation_keys, 9);
    let image = Tensor::random(vec![1, 6, 6], 1.0, 8);
    let got = try_infer(&mut h, &circuit, &compiled.plan, &image).unwrap();
    let want = circuit.eval(&[image]);
    let diff = got.max_abs_diff(&want);
    assert!(diff < 0.05, "diff {diff}");
}

#[test]
fn big_ckks_encrypted_inference_tracks_reference() {
    let circuit = small_cnn();
    let scales = ScaleConfig::from_log2(25, 12, 12, 12);
    let compiled = Compiler::new(SchemeKind::Ckks)
        .with_output_precision(2f64.powi(25))
        .compile(&circuit, &scales)
        .unwrap();
    let mut h = BigCkks::new(&compiled.params, &compiled.rotation_keys, 9);
    let image = Tensor::random(vec![1, 6, 6], 1.0, 8);
    let got = try_infer(&mut h, &circuit, &compiled.plan, &image).unwrap();
    let want = circuit.eval(&[image]);
    let diff = got.max_abs_diff(&want);
    assert!(diff < 0.05, "diff {diff}");
}

#[test]
fn both_backends_agree_with_each_other() {
    let circuit = small_cnn();
    let scales = ScaleConfig::from_log2(25, 12, 12, 12);
    let image = Tensor::random(vec![1, 6, 6], 1.0, 77);

    let rns = Compiler::new(SchemeKind::RnsCkks)
        .with_output_precision(2f64.powi(25))
        .compile(&circuit, &scales)
        .unwrap();
    let mut h1 = RnsCkks::new(&rns.params, &rns.rotation_keys, 1);
    let out_rns = try_infer(&mut h1, &circuit, &rns.plan, &image).unwrap();

    let big = Compiler::new(SchemeKind::Ckks)
        .with_output_precision(2f64.powi(25))
        .compile(&circuit, &scales)
        .unwrap();
    let mut h2 = BigCkks::new(&big.params, &big.rotation_keys, 1);
    let out_big = try_infer(&mut h2, &circuit, &big.plan, &image).unwrap();

    assert!(
        out_rns.max_abs_diff(&out_big) < 0.05,
        "the two schemes compute the same function: {}",
        out_rns.max_abs_diff(&out_big)
    );
}

#[test]
fn reduced_lenet_runs_under_real_rns_encryption() {
    // The flagship: a structurally complete LeNet (2 conv, 2 FC, 4 act)
    // under real RLWE encryption, with compiler-selected everything.
    let net = chet::networks::reduced("LeNet-5-small");
    let scales = ScaleConfig::from_log2(25, 12, 12, 12);
    let compiled = Compiler::new(SchemeKind::RnsCkks)
        .with_output_precision(2f64.powi(25))
        .compile(&net.circuit, &scales)
        .unwrap();
    let mut h = RnsCkks::new(&compiled.params, &compiled.rotation_keys, 4);
    let image = net.sample_image(6);
    let got = try_infer(&mut h, &net.circuit, &compiled.plan, &image).unwrap();
    let want = net.circuit.eval(&[image]);
    let gf = got.reshape(vec![got.numel()]);
    let wf = want.reshape(vec![want.numel()]);
    let diff = gf.max_abs_diff(&wf);
    assert!(diff < 0.3, "diff {diff}");
    // With random (untrained) weights the reference logits can be nearly
    // tied, in which case an argmax flip within the noise bound is
    // legitimate; require agreement only when the reference margin is
    // clearly above the noise.
    let w = wf.data();
    let top = wf.argmax();
    let mut second = f64::MIN;
    for (i, &v) in w.iter().enumerate() {
        if i != top {
            second = second.max(v);
        }
    }
    if w[top] - second > 3.0 * diff {
        assert_eq!(gf.argmax(), top, "encrypted prediction agrees");
    }
}
