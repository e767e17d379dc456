//! From training to private inference: train an HE-compatible model with
//! the learnable activation `f(x) = a·x² + b·x` (paper §6), export it as a
//! tensor circuit, compile with profile-guided scale selection (paper
//! §5.5), and serve it under real encryption.
//!
//! ```text
//! cargo run --release --example training_to_encrypted
//! ```

use chet::ckks::rns::RnsCkks;
use chet::compiler::{Compiler, ScaleSearch};
use chet::hisa::params::SchemeKind;
use chet::runtime::exec::try_infer;
use chet::tensor::train::{synthetic_blobs, Mlp, TrainConfig};
use chet::tensor::Tensor;

fn main() {
    // 1. Train (plaintext, synthetic data — DESIGN.md substitution).
    let train = synthetic_blobs(400, 12, 3, 21);
    let test = synthetic_blobs(60, 12, 3, 22);
    let mut mlp = Mlp::new(&[12, 16, 3], 5);
    let loss = mlp.train(&train, &TrainConfig::default());
    println!(
        "trained MLP 12-16-3: final loss {loss:.4}, plain accuracy {:.1}%",
        mlp.accuracy(&test) * 100.0
    );
    println!("learned activation (a, b): {:?}", mlp.activation_coefficients());

    // 2. Export as a tensor circuit.
    let circuit = mlp.to_circuit(vec![12, 1, 1]);

    // 3. Profile-guided compilation: CHET finds minimal fixed-point scales
    //    meeting a 0.05 output tolerance on profiling inputs.
    let profile_images: Vec<Tensor> = train
        .iter()
        .take(3)
        .map(|(x, _)| Tensor::new(vec![12, 1, 1], x.clone()))
        .collect();
    let search = ScaleSearch {
        start: (30, 20, 20, 14),
        min: (18, 10, 10, 8),
        tolerance: 0.05,
        max_evals: 40,
    };
    let (compiled, scales) = Compiler::new(SchemeKind::RnsCkks)
        .with_output_precision(2f64.powi(20))
        .compile_with_profile(&circuit, &profile_images, &search)
        .expect("profile-guided compilation succeeds");
    println!(
        "profile-guided scales: P_c=2^{:.0} P_w=2^{:.0} P_u=2^{:.0} P_m=2^{:.0}",
        scales.input.log2(),
        scales.weight_plain.log2(),
        scales.weight_scalar.log2(),
        scales.mask.log2()
    );
    println!(
        "parameters: N = {}, log Q = {:.0}",
        compiled.params.degree,
        compiled.params.modulus.log_q()
    );

    // 4. Encrypted evaluation on the real backend.
    let mut fhe = RnsCkks::new(&compiled.params, &compiled.rotation_keys, 33);
    let mut enc_correct = 0usize;
    let n_eval = 20usize;
    for (x, y) in test.iter().take(n_eval) {
        let image = Tensor::new(vec![12, 1, 1], x.clone());
        let out = try_infer(&mut fhe, &circuit, &compiled.plan, &image)
            .expect("the compiled plan runs on its own parameters");
        if out.argmax() == *y {
            enc_correct += 1;
        }
    }
    let plain_correct = test
        .iter()
        .take(n_eval)
        .filter(|(x, y)| mlp.predict(x) == *y)
        .count();
    println!(
        "encrypted accuracy {}/{n_eval} vs plain {}/{n_eval} on held-out points",
        enc_correct, plain_correct
    );
    assert!(enc_correct >= plain_correct.saturating_sub(2), "encryption preserves accuracy");
    println!("OK: encrypted inference preserves the trained model's accuracy.");
}
