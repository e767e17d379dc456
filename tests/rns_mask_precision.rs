//! Known defect: on `RnsCkks`, reduced LeNet-5-small compiled as the
//! benchmark compiles it decrypts to logits that do not depend on the
//! input image.
//!
//! The kernels mask ciphertexts with 0/1 plaintexts encoded at the small
//! mask scale (2^10). CKKS encoding rounds the plaintext's coefficients
//! to integers, and a mask with a few ones among 8192 slots has
//! coefficients near `2^10·k/N ≪ 1`, so it rounds to (almost) zero: the
//! sparse mask after conv2 decodes to max |v| ≈ 0.001 where its valid
//! slots should be 1.0. `SimCkks` does not round encodings, which is why
//! `compile_checked`'s probe accepts the plan, and the benchmark's 0.25
//! tolerance hides the flat logits. Both tests stay ignored until the
//! numerics (probably the parameters) change.

use chet::compiler::Compiler;
use chet::hisa::params::SchemeKind;
use chet::hisa::{Hisa, RotationKeyPolicy};
use chet::runtime::exec::try_infer;
use chet::runtime::kernels::ScaleConfig;
use chet::Tensor;
use chet_ckks::rns::RnsCkks;

const CAUSE: &str = "CKKS encoding rounds a sparse 0/1 mask at scale 2^10 to ~0 (N = 16384)";

fn compiled() -> (chet::networks::Network, chet::CompiledCircuit) {
    let net = chet::networks::try_reduced("LeNet-5-small").expect("known network");
    let compiled = Compiler::new(SchemeKind::RnsCkks)
        .with_output_precision(2f64.powi(25))
        .compile(&net.circuit, &ScaleConfig::REFERENCE)
        .expect("LeNet-5-small compiles");
    (net, compiled)
}

/// A mask with eight ones among the 8192 slots, encoded at the mask scale
/// 2^10, must decode to itself (today it decodes up to 0.22 away).
#[test]
#[ignore = "CKKS encoding rounds a sparse 0/1 mask at scale 2^10 to ~0 (N = 16384)"]
fn sparse_mask_survives_encoding() {
    let (_, compiled) = compiled();
    assert_eq!(compiled.params.degree, 16384);
    let no_rotations = RotationKeyPolicy::Exact(Default::default());
    let mut h = RnsCkks::new(&compiled.params, &no_rotations, 42);
    let mask: Vec<f64> = (0..h.slots()).map(|i| f64::from(u8::from(i % 1024 == 0))).collect();
    let pt = h.try_encode(&mask, 2f64.powi(10)).unwrap();
    let decoded = h.decode(&pt);
    let worst = mask.iter().zip(&decoded).map(|(m, d)| (m - d).abs()).fold(0.0, f64::max);
    assert!(worst < 0.05, "{CAUSE}: mask decodes {worst:.3} away from 0/1");
}

/// Two images whose reference logits differ must not decrypt to the same
/// logits.
#[test]
#[ignore = "CKKS encoding rounds a sparse 0/1 mask at scale 2^10 to ~0 (N = 16384)"]
fn lenet_logits_depend_on_the_input() {
    let (net, compiled) = compiled();
    let mut h = RnsCkks::new(&compiled.params, &compiled.rotation_keys, 42);
    let images = [net.sample_image(0), net.sample_image(1), Tensor::zeros(net.input_shape.clone())];
    let reference: Vec<Tensor> =
        images.iter().map(|x| net.circuit.eval(std::slice::from_ref(x))).collect();
    let encrypted: Vec<Tensor> = images
        .iter()
        .map(|x| try_infer(&mut h, &net.circuit, &compiled.plan, x).expect("encrypted inference"))
        .collect();
    let spread = |t: &[Tensor], a: usize, b: usize| {
        t[a].data().iter().zip(t[b].data()).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
    };
    for (a, b) in [(0, 1), (0, 2), (1, 2)] {
        let want = spread(&reference, a, b);
        let got = spread(&encrypted, a, b);
        assert!(
            got > want / 2.0,
            "{CAUSE}: images {a} and {b} differ by {want:.4} in the reference logits \
             but by {got:.4} encrypted"
        );
    }
}
