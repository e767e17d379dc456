//! Figure 7 — speedup of CHET-selected rotation keys over the default
//! power-of-two key set.
//!
//! Expected shape (paper): selecting exactly the rotation keys a circuit
//! needs gives a geometric-mean speedup of ~1.8× across networks and
//! schemes, because non-power-of-two rotations no longer decompose into
//! several power-of-two rotations — while the number of keys stays within
//! a small factor of `log N`.

use chet_bench::{average_latency, fmt_dur, harness_precision, print_table, BackendChoice, HarnessArgs};
use chet_compiler::Compiler;
use chet_hisa::params::SchemeKind;
use chet_hisa::RotationKeyPolicy;
use chet_runtime::kernels::ScaleConfig;

fn main() {
    let args = HarnessArgs::parse();
    let scales = ScaleConfig::REFERENCE;
    println!("== Figure 7: selected rotation keys vs power-of-two keys ==\n");
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    for (label, kind, backend) in [
        ("CHET-SEAL", SchemeKind::RnsCkks, BackendChoice::Rns),
        ("CHET-HEAAN", SchemeKind::Ckks, BackendChoice::Big),
    ] {
        let backend = if args.sim { BackendChoice::Sim } else { backend };
        for net in args.networks() {
            let compiled = Compiler::new(kind)
                .with_output_precision(harness_precision())
                .compile(&net.circuit, &scales)
                .expect("compiles");
            let exact_keys = match &compiled.rotation_keys {
                RotationKeyPolicy::Exact(s) => s.len(),
                _ => unreachable!(),
            };
            let t_exact = average_latency(backend, &compiled, &net.circuit, &net, args.images);
            eprintln!("[cell] {label} {} exact: {}", net.name, fmt_dur(t_exact));
            let mut pow2 = compiled.clone();
            pow2.rotation_keys = RotationKeyPolicy::PowersOfTwo;
            let pow2_keys = pow2.rotation_keys.key_count(pow2.params.slots());
            let t_pow2 = average_latency(backend, &pow2, &net.circuit, &net, args.images);
            eprintln!("[cell] {label} {} pow2: {}", net.name, fmt_dur(t_pow2));
            let speedup = t_pow2.as_secs_f64() / t_exact.as_secs_f64().max(1e-9);
            ratios.push(speedup);
            rows.push(vec![
                format!("{label} / {}", net.name),
                fmt_dur(t_exact),
                fmt_dur(t_pow2),
                format!("{speedup:.2}x"),
                exact_keys.to_string(),
                pow2_keys.to_string(),
            ]);
        }
    }
    print_table(
        &["Scheme / Network", "exact keys", "pow2 keys", "speedup", "#keys (exact)", "#keys (pow2)"],
        &rows,
    );
    let geomean = ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64;
    println!(
        "\ngeometric-mean speedup: {:.2}x  (paper Fig. 7: ~1.8x)",
        geomean.exp()
    );
}
