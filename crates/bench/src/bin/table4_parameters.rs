//! Table 4 — encryption parameters `N`, `log Q` selected by CHET per
//! network (HEAAN-style CKKS target) and the fixed-point scale exponents.
//!
//! Expected shape (paper): `N` and `log Q` grow with circuit depth — from
//! `N = 8192, log Q = 240` (LeNet-5-small) up to `N = 32768, log Q = 940`
//! (SqueezeNet-CIFAR). Absolute values differ because our kernels' rescale
//! discipline and mask scales differ from the authors' implementation; the
//! monotone growth with depth is the reproduced claim.

use chet_bench::{harness_precision, print_table, HarnessArgs};
use chet_compiler::Compiler;
use chet_hisa::params::{ModulusSpec, SchemeKind};
use chet_runtime::kernels::ScaleConfig;

fn main() {
    let args = HarnessArgs::parse();
    let nets = args.networks();
    let paper: &[(&str, u32, u32)] = &[
        ("LeNet-5-small", 8192, 240),
        ("LeNet-5-medium", 8192, 240),
        ("LeNet-5-large", 16384, 400),
        ("Industrial", 32768, 705),
        ("SqueezeNet-CIFAR", 32768, 940),
    ];

    println!("== Table 4: encryption parameters selected by CHET (CKKS/HEAAN target) ==\n");
    let scales = ScaleConfig::REFERENCE;
    let mut rows = Vec::new();
    for (i, net) in nets.iter().enumerate() {
        let compiled = Compiler::new(SchemeKind::Ckks)
            .with_output_precision(harness_precision())
            .compile(&net.circuit, &scales)
            .expect("network compiles for CKKS");
        let (n, log_q) = match compiled.params.modulus {
            ModulusSpec::PowerOfTwo { log_q, .. } => (compiled.params.degree, log_q),
            _ => unreachable!("CKKS target yields a power-of-two modulus"),
        };
        let (pn, pq) = paper.get(i).map(|&(_, n, q)| (n, q)).unwrap_or((0, 0));
        rows.push(vec![
            net.name.to_string(),
            n.to_string(),
            log_q.to_string(),
            format!("{pn}"),
            format!("{pq}"),
            format!("{:.0}", compiled.outcome.consumed_log2),
            format!("{}", compiled.policy),
        ]);
    }
    print_table(
        &["Network", "N (ours)", "log Q (ours)", "N (paper)", "log Q (paper)", "consumed bits", "layout"],
        &rows,
    );

    println!("\n-- fixed-point scales in use (log2 of P_c, P_w, P_u, P_m) --");
    println!(
        "P_c = {:.0}, P_w = {:.0}, P_u = {:.0}, P_m = {:.0}   (paper Table 4 per-network values: 30-40 / 16-25 / 15-20 / 8-10)",
        scales.input.log2(),
        scales.weight_plain.log2(),
        scales.weight_scalar.log2(),
        scales.mask.log2(),
    );

    println!("\n-- RNS-CKKS (SEAL target) chain selections --");
    let mut rows = Vec::new();
    for net in &nets {
        let compiled = Compiler::new(SchemeKind::RnsCkks)
            .with_output_precision(harness_precision())
            .compile(&net.circuit, &scales)
            .expect("network compiles for RNS-CKKS");
        match &compiled.params.modulus {
            ModulusSpec::PrimeChain { primes, .. } => rows.push(vec![
                net.name.to_string(),
                compiled.params.degree.to_string(),
                primes.len().to_string(),
                format!("{:.0}", compiled.params.modulus.log_q()),
                format!("{}", compiled.policy),
            ]),
            _ => unreachable!(),
        }
    }
    print_table(&["Network", "N", "chain length r", "log Q", "layout"], &rows);
}
