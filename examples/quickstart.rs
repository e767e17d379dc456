//! Quickstart: compile the paper's §3.2 example — a single convolution on
//! an encrypted 28×28 image — and run it under real RNS-CKKS encryption.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use chet::ckks::rns::RnsCkks;
use chet::compiler::Compiler;
use chet::hisa::params::SchemeKind;
use chet::runtime::exec::try_infer;
use chet::runtime::kernels::ScaleConfig;
use chet::tensor::circuit::CircuitBuilder;
use chet::tensor::ops::Padding;
use chet::tensor::Tensor;

fn main() {
    // output = conv2d(image, weights): the tensor circuit of paper §3.2.
    let mut b = CircuitBuilder::new();
    let image_node = b.input(vec![1, 28, 28]);
    let weights = Tensor::random(vec![4, 1, 5, 5], 0.2, 1);
    let out = b.conv2d(image_node, weights, None, 1, Padding::Valid);
    let circuit = b.build(out);

    // The input schema: image is encrypted at fixed-point scale 2^25.
    let scales = ScaleConfig::from_log2(25, 12, 12, 10);

    println!("compiling for RNS-CKKS (SEAL-style) ...");
    let compiled = Compiler::new(SchemeKind::RnsCkks)
        .with_output_precision(2f64.powi(25))
        .compile(&circuit, &scales)
        .expect("circuit compiles");
    println!(
        "  selected N = {}, log Q = {:.0} bits, chain length r = {}",
        compiled.params.degree,
        compiled.params.modulus.log_q(),
        compiled.params.modulus.chain_len(),
    );
    println!("  layout policy: {}", compiled.policy);
    println!(
        "  rotation keys: {} (instead of {} power-of-two defaults)",
        compiled.rotation_keys.key_count(compiled.params.slots()),
        chet::hisa::RotationKeyPolicy::PowersOfTwo.key_count(compiled.params.slots()),
    );

    println!("generating keys and encrypting ...");
    let mut fhe = RnsCkks::new(&compiled.params, &compiled.rotation_keys, 42);
    let image = Tensor::random(vec![1, 28, 28], 1.0, 3);

    println!("running homomorphic convolution ...");
    let t0 = std::time::Instant::now();
    let encrypted_result = try_infer(&mut fhe, &circuit, &compiled.plan, &image)
        .expect("the compiled plan runs on its own parameters");
    println!("  done in {:.2} s", t0.elapsed().as_secs_f64());

    let reference = circuit.eval(&[image]);
    let diff = encrypted_result.max_abs_diff(&reference);
    println!("max |encrypted − reference| = {diff:.2e}");
    assert!(diff < 0.05, "encrypted result tracks the reference");
    println!("OK: encrypted convolution matches the unencrypted reference.");
}
