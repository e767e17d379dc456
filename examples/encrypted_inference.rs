//! End-to-end private inference with the client/server split of the
//! paper's Figure 3: the client encrypts an image, the server evaluates a
//! LeNet-5 on ciphertexts only, the client decrypts the prediction.
//!
//! ```text
//! cargo run --release --example encrypted_inference            # reduced LeNet
//! cargo run --release --example encrypted_inference -- --full  # 28x28 LeNet-5-small
//! ```

use chet::ckks::rns::RnsCkks;
use chet::compiler::Compiler;
use chet::hisa::params::SchemeKind;
use chet::hisa::Hisa;
use chet::runtime::ciphertensor::decrypt_tensor;
use chet::runtime::exec::{try_encrypt_input, try_run_encrypted_with, ExecControl};
use chet::runtime::kernels::ScaleConfig;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let net = if full {
        chet::networks::lenet5_small()
    } else {
        chet::networks::try_reduced("LeNet-5-small").expect("known network")
    };
    println!("network: {} ({} FP ops)", net.name, net.flops());

    // ---- Offline: CHET compiles the circuit (Figure 2). ----
    let scales = ScaleConfig::REFERENCE;
    let compiled = Compiler::new(SchemeKind::RnsCkks)
        .with_output_precision(2f64.powi(25))
        .compile(&net.circuit, &scales)
        .expect("network compiles");
    println!(
        "compiled: N = {}, r = {}, layout = {}, {} rotation keys",
        compiled.params.degree,
        compiled.params.modulus.chain_len(),
        compiled.policy,
        compiled.rotation_keys.key_count(compiled.params.slots()),
    );

    // ---- Client: keygen + encrypt (private key never leaves). ----
    let mut client = RnsCkks::new(&compiled.params, &compiled.rotation_keys, 2024);
    let image = net.sample_image(5);
    let encrypted_image = try_encrypt_input(&mut client, &net.circuit, &compiled.plan, &image)
        .expect("the image fits the plan's input layout");
    println!(
        "client: image encrypted into {} ciphertext(s) of {} slots",
        encrypted_image.num_cts(),
        client.slots()
    );

    // ---- Server: evaluates the optimized homomorphic tensor circuit.
    // (Here the same scheme object plays the server role; in deployment the
    // server holds only the public evaluation keys.) ----
    let t0 = std::time::Instant::now();
    let (encrypted_prediction, _) = try_run_encrypted_with(
        &mut client,
        &net.circuit,
        &compiled.plan,
        encrypted_image,
        &mut ExecControl::none(),
    )
    .expect("the compiled circuit runs");
    println!("server: homomorphic inference took {:.1} s", t0.elapsed().as_secs_f64());

    // ---- Client: decrypts the prediction. ----
    let prediction = decrypt_tensor(&mut client, &encrypted_prediction);
    let reference = net.circuit.eval(&[image]);
    let pf = prediction.reshape(vec![prediction.numel()]);
    let rf = reference.reshape(vec![reference.numel()]);
    println!("predicted class (encrypted):   {}", pf.argmax());
    println!("predicted class (plain ref):   {}", rf.argmax());
    println!("max |Δ| across logits:         {:.2e}", pf.max_abs_diff(&rf));
    assert_eq!(pf.argmax(), rf.argmax(), "encrypted prediction agrees");
    println!("OK: the server never saw the image, the prediction, or any intermediate.");
}
