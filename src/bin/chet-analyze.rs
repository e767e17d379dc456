//! `chet-analyze` — slot-axis batch-capacity lint over the built-in
//! networks (the `CHET-B001` note, standalone).
//!
//! Compiles each network and reports how many inference requests the
//! serving layer can coalesce into one ciphertext set (the paper's
//! `slots / ciphertext_size` throughput lever): the member width the
//! circuit needs, the scheme's slot count, and the resulting capacity.
//!
//! ```text
//! chet-analyze [--machine] [--reduced] [--min <capacity>]
//! ```
//!
//! * `--machine` — one JSON object per network per line (keys `network`,
//!   `code`, `slots`, `member_width`, `capacity`) instead of a table.
//! * `--reduced` — analyze the reduced test-scale networks instead of the
//!   full Table 3 set.
//! * `--min <capacity>` — exit 1 if any analyzed network's capacity falls
//!   below the floor (CI gate: batching must stay possible).

use chet::compiler::Compiler;
use chet::hisa::params::SchemeKind;
use chet::runtime::exec::batch_capacity;
use chet::runtime::kernels::ScaleConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let machine = args.iter().any(|a| a == "--machine");
    let reduced = args.iter().any(|a| a == "--reduced");
    let min: Option<usize> = args.iter().position(|a| a == "--min").map(|i| {
        args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("chet-analyze: --min needs an integer argument");
            std::process::exit(2);
        })
    });

    let networks: Vec<chet::networks::Network> = if reduced {
        chet::networks::NETWORK_NAMES
            .iter()
            .map(|n| {
                chet::networks::try_reduced(n).unwrap_or_else(|e| {
                    eprintln!("chet-analyze: {e}");
                    std::process::exit(2);
                })
            })
            .collect()
    } else {
        chet::networks::all_networks()
    };

    if !machine {
        println!("{:<28} {:>8} {:>12} {:>9}", "network", "slots", "member_width", "capacity");
    }
    let mut floor_violations = 0usize;
    for net in &networks {
        let compiled = Compiler::new(SchemeKind::RnsCkks)
            .with_output_precision(2f64.powi(25))
            .compile(&net.circuit, &ScaleConfig::REFERENCE)
            .unwrap_or_else(|e| {
                eprintln!("chet-analyze: {} failed to compile: {e}", net.name);
                std::process::exit(1);
            });
        let slots = compiled.params.slots();
        let capacity = batch_capacity(&net.circuit, &compiled.plan, slots);
        let member_width = slots / capacity;
        if machine {
            println!(
                "{{\"network\":\"{}\",\"code\":\"CHET-B001\",\"slots\":{slots},\
                 \"member_width\":{member_width},\"capacity\":{capacity}}}",
                net.name
            );
        } else {
            println!("{:<28} {slots:>8} {member_width:>12} {capacity:>9}", net.name);
        }
        if let Some(floor) = min {
            if capacity < floor {
                eprintln!(
                    "chet-analyze: {}: capacity {capacity} below floor {floor}",
                    net.name
                );
                floor_violations += 1;
            }
        }
    }
    if floor_violations > 0 {
        std::process::exit(1);
    }
}
