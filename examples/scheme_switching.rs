//! Scheme portability (paper §6: "CHET was able to easily port the same
//! input circuit to a more recent and efficient FHE scheme"): one tensor
//! circuit, compiled for both CKKS variants, run on both backends.
//!
//! ```text
//! cargo run --release --example scheme_switching
//! ```

use chet::ckks::big::BigCkks;
use chet::ckks::rns::RnsCkks;
use chet::compiler::Compiler;
use chet::hisa::params::SchemeKind;
use chet::runtime::exec::try_infer;
use chet::runtime::kernels::ScaleConfig;
use chet::tensor::circuit::CircuitBuilder;
use chet::tensor::ops::Padding;
use chet::tensor::Tensor;

fn main() {
    // A small CNN block: conv + activation + pooling.
    let mut b = CircuitBuilder::new();
    let x = b.input(vec![1, 10, 10]);
    let w = Tensor::random(vec![2, 1, 3, 3], 0.3, 11);
    let c = b.conv2d(x, w, Some(vec![0.05, -0.05]), 1, Padding::Valid);
    let a = b.activation(c, 0.2, 0.9);
    let p = b.avg_pool2d(a, 2, 2);
    let circuit = b.build(p);

    let scales = ScaleConfig::REFERENCE;
    let image = Tensor::random(vec![1, 10, 10], 1.0, 3);
    let reference = circuit.eval(&[image.clone()]);

    for kind in [SchemeKind::RnsCkks, SchemeKind::Ckks] {
        // Identical source circuit; only the target changes.
        let compiled = Compiler::new(kind)
            .with_output_precision(2f64.powi(25))
            .compile(&circuit, &scales)
            .expect("compiles");
        println!("target: {kind}");
        println!(
            "  N = {}, log Q = {:.0}, layout = {}",
            compiled.params.degree,
            compiled.params.modulus.log_q(),
            compiled.policy,
        );
        let t0 = std::time::Instant::now();
        let out = match kind {
            SchemeKind::RnsCkks => {
                let mut h = RnsCkks::new(&compiled.params, &compiled.rotation_keys, 1);
                try_infer(&mut h, &circuit, &compiled.plan, &image)
            }
            SchemeKind::Ckks => {
                let mut h = BigCkks::new(&compiled.params, &compiled.rotation_keys, 1);
                try_infer(&mut h, &circuit, &compiled.plan, &image)
            }
        }
        .expect("the compiled plan runs on its own parameters");
        println!(
            "  latency {:.2} s, max |Δ| vs reference = {:.2e}\n",
            t0.elapsed().as_secs_f64(),
            out.max_abs_diff(&reference)
        );
        assert!(out.max_abs_diff(&reference) < 0.05);
    }
    println!("Same circuit, two FHE schemes — no code changes (paper §6).");
}
