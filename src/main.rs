//! `chet` — command-line front end for the CHET compiler reproduction.
//!
//! ```text
//! chet networks                         list the Table 3 evaluation networks
//! chet compile <network> [--scheme rns|ckks] [--full]
//!                                       compile and print the selected
//!                                       parameters, layout and keys
//! chet infer <network> [--seed N] [--full]
//!                                       end-to-end encrypted inference on
//!                                       the real RNS-CKKS backend
//! ```

use chet::ckks::rns::RnsCkks;
use chet::compiler::Compiler;
use chet::hisa::params::SchemeKind;
use chet::runtime::exec::try_infer;
use chet::runtime::kernels::ScaleConfig;

fn find_network(name: &str, full: bool) -> chet::networks::Network {
    let canonical = chet::networks::NETWORK_NAMES
        .iter()
        .find(|n| n.eq_ignore_ascii_case(name))
        .copied()
        .unwrap_or_else(|| {
            eprintln!("unknown network '{name}'; try `chet networks`");
            std::process::exit(2);
        });
    if full {
        chet::networks::all_networks()
            .into_iter()
            .find(|n| n.name == canonical)
            .expect("canonical name exists")
    } else {
        chet::networks::try_reduced(canonical).unwrap_or_else(|e| {
            eprintln!("{e}; try `chet networks`");
            std::process::exit(2);
        })
    }
}

fn cmd_networks() {
    println!("{:<18} {:>6} {:>4} {:>4} {:>14} {:>8}", "network", "conv", "fc", "act", "FP ops", "depth");
    for net in chet::networks::all_networks() {
        let counts = net.circuit.layer_counts();
        println!(
            "{:<18} {:>6} {:>4} {:>4} {:>14} {:>8}",
            net.name,
            counts.get("conv2d").copied().unwrap_or(0),
            counts.get("matmul").copied().unwrap_or(0),
            counts.get("activation").copied().unwrap_or(0),
            net.flops(),
            net.circuit.multiplicative_depth(),
        );
    }
}

fn cmd_compile(name: &str, kind: SchemeKind, full: bool) {
    let net = find_network(name, full);
    println!("compiling {} for {kind} ...", net.name);
    let compiled = Compiler::new(kind)
        .with_output_precision(2f64.powi(25))
        .compile(&net.circuit, &ScaleConfig::REFERENCE)
        .unwrap_or_else(|e| {
            eprintln!("compilation failed: {e}");
            std::process::exit(1);
        });
    println!("  ring degree N      : {}", compiled.params.degree);
    println!("  log2 Q             : {:.0} bits", compiled.params.modulus.log_q());
    println!("  chain length r     : {}", compiled.params.modulus.chain_len());
    println!("  modulus consumed   : {:.0} bits", compiled.outcome.consumed_log2);
    println!("  layout policy      : {}", compiled.policy);
    println!(
        "  rotation keys      : {} (power-of-two default: {})",
        compiled.rotation_keys.key_count(compiled.params.slots()),
        chet::hisa::RotationKeyPolicy::PowersOfTwo.key_count(compiled.params.slots()),
    );
    println!("  estimated cost     : {:.3e}", compiled.estimated_cost);
}

fn cmd_infer(name: &str, seed: u64, full: bool) {
    let net = find_network(name, full);
    let compiled = Compiler::new(SchemeKind::RnsCkks)
        .with_output_precision(2f64.powi(25))
        .compile(&net.circuit, &ScaleConfig::REFERENCE)
        .unwrap_or_else(|e| {
            eprintln!("compilation failed: {e}");
            std::process::exit(1);
        });
    println!(
        "{}: N = {}, r = {}, layout {}",
        net.name,
        compiled.params.degree,
        compiled.params.modulus.chain_len(),
        compiled.policy
    );
    let mut fhe = RnsCkks::new(&compiled.params, &compiled.rotation_keys, 2024);
    let image = net.sample_image(seed);
    let t0 = std::time::Instant::now();
    let out = try_infer(&mut fhe, &net.circuit, &compiled.plan, &image).unwrap_or_else(|e| {
        eprintln!("encrypted inference failed: {e}");
        std::process::exit(1);
    });
    let secs = t0.elapsed().as_secs_f64();
    let want = net.circuit.eval(&[image]);
    let of = out.reshape(vec![out.numel()]);
    let wf = want.reshape(vec![want.numel()]);
    println!("encrypted inference: {secs:.1} s");
    println!("predicted class    : {} (plain reference: {})", of.argmax(), wf.argmax());
    println!("max |Δ| vs plain   : {:.2e}", of.max_abs_diff(&wf));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    match args.first().map(String::as_str) {
        Some("networks") => cmd_networks(),
        Some("compile") => {
            let name = args.get(1).map(String::as_str).unwrap_or("LeNet-5-small");
            let kind = match args.iter().position(|a| a == "--scheme") {
                Some(i) => match args.get(i + 1).map(String::as_str) {
                    Some("ckks") | Some("heaan") => SchemeKind::Ckks,
                    _ => SchemeKind::RnsCkks,
                },
                None => SchemeKind::RnsCkks,
            };
            cmd_compile(name, kind, full);
        }
        Some("infer") => {
            let name = args.get(1).map(String::as_str).unwrap_or("LeNet-5-small");
            let seed = args
                .iter()
                .position(|a| a == "--seed")
                .and_then(|i| args.get(i + 1))
                .and_then(|v| v.parse().ok())
                .unwrap_or(7);
            cmd_infer(name, seed, full);
        }
        _ => {
            eprintln!(
                "usage: chet <networks | compile <net> [--scheme rns|ckks] | infer <net> [--seed N]> [--full]"
            );
            std::process::exit(2);
        }
    }
}
