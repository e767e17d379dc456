//! Table 3 — the evaluation networks: layer counts, floating-point
//! operation counts, and accuracy.
//!
//! The paper's accuracy column certifies HE-compatible *training* on
//! MNIST/CIFAR. Our datasets are substituted (DESIGN.md), so this harness
//! reports the property the compiler owns — encrypted inference agreeing
//! with unencrypted inference (max |Δ| and argmax agreement) — plus an
//! end-to-end trained-model demonstration on synthetic data (plain vs
//! encrypted accuracy of an MLP with learnable `ax²+bx` activations).

use chet_bench::{harness_precision, print_table, BackendChoice, HarnessArgs};
use chet_compiler::Compiler;
use chet_hisa::params::SchemeKind;
use chet_runtime::kernels::ScaleConfig;
use chet_tensor::train::{synthetic_blobs, Mlp, TrainConfig};
use chet_tensor::Tensor;

fn main() {
    let args = HarnessArgs::parse();
    let nets = args.networks();
    let paper_flops = [
        ("LeNet-5-small", Some(159_960u64), "98.5%"),
        ("LeNet-5-medium", Some(5_791_168), "99.0%"),
        ("LeNet-5-large", Some(21_385_674), "99.3%"),
        ("Industrial", None, "n/a"),
        ("SqueezeNet-CIFAR", Some(37_759_754), "81.5%"),
    ];

    println!("== Table 3: evaluation networks ==\n");
    let mut rows = Vec::new();
    for (i, net) in nets.iter().enumerate() {
        let counts = net.circuit.layer_counts();
        let compiled = Compiler::new(SchemeKind::RnsCkks)
            .with_output_precision(harness_precision())
            .compile(&net.circuit, &ScaleConfig::REFERENCE)
            .expect("network compiles");
        // Encrypted-vs-plain agreement over a few images (simulator with
        // the CKKS noise model: same code path, fast).
        let mut max_diff = 0f64;
        let mut agree = 0usize;
        let images = args.images.max(3);
        for s in 0..images {
            let image = net.sample_image(100 + s as u64);
            let want = net.circuit.eval(&[image.clone()]);
            let (got, _) = chet_bench::time_inference(
                BackendChoice::Sim,
                &compiled.params,
                &compiled.rotation_keys,
                &net.circuit,
                &compiled.plan,
                &image,
                50 + s as u64,
            );
            let gf = got.reshape(vec![got.numel()]);
            let wf = want.reshape(vec![want.numel()]);
            max_diff = max_diff.max(gf.max_abs_diff(&wf));
            if gf.argmax() == wf.argmax() {
                agree += 1;
            }
        }
        let (paper, paper_acc) = paper_flops
            .get(i)
            .map(|(_, f, a)| (*f, *a))
            .unwrap_or((None, "n/a"));
        rows.push(vec![
            net.name.to_string(),
            counts.get("conv2d").copied().unwrap_or(0).to_string(),
            counts.get("matmul").copied().unwrap_or(0).to_string(),
            counts.get("activation").copied().unwrap_or(0).to_string(),
            net.flops().to_string(),
            paper.map(|f| f.to_string()).unwrap_or_else(|| "undisclosed".into()),
            paper_acc.to_string(),
            format!("{max_diff:.2e}"),
            format!("{agree}/{images}"),
        ]);
    }
    print_table(
        &[
            "Network",
            "Conv",
            "FC",
            "Act",
            "# FP ops (ours)",
            "# FP ops (paper)",
            "Acc (paper)",
            "enc-vs-plain |Δ|max",
            "argmax agree",
        ],
        &rows,
    );

    // Trained-model demonstration: HE-compatible training works and the
    // compiled encrypted model matches the plain one.
    println!("\n-- trained HE-compatible model (synthetic data; DESIGN.md substitution) --");
    let train = synthetic_blobs(400, 16, 4, 11);
    let test = synthetic_blobs(100, 16, 4, 12);
    let mut mlp = Mlp::new(&[16, 24, 4], 3);
    mlp.train(&train, &TrainConfig::default());
    let plain_acc = mlp.accuracy(&test);
    let circuit = mlp.to_circuit(vec![16, 1, 1]);
    let compiled = Compiler::new(SchemeKind::RnsCkks)
        .with_output_precision(harness_precision())
        .compile(&circuit, &ScaleConfig::REFERENCE)
        .expect("mlp compiles");
    let mut enc_correct = 0usize;
    let eval_n = if args.full { test.len() } else { 25 };
    for (x, y) in test.iter().take(eval_n) {
        let image = Tensor::new(vec![16, 1, 1], x.clone());
        let (out, _) = chet_bench::time_inference(
            BackendChoice::Sim,
            &compiled.params,
            &compiled.rotation_keys,
            &circuit,
            &compiled.plan,
            &image,
            77,
        );
        if out.argmax() == *y {
            enc_correct += 1;
        }
    }
    println!(
        "plain accuracy: {:.1}%   encrypted accuracy: {:.1}%  ({} test points)",
        plain_acc * 100.0,
        enc_correct as f64 / eval_n as f64 * 100.0,
        eval_n
    );
    println!("learned activation coefficients (a, b): {:?}", mlp.activation_coefficients());
}
