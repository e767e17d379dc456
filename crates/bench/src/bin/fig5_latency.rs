//! Figure 5 — average inference latency of CHET-SEAL, CHET-HEAAN and the
//! Manual-HEAAN baseline per network.
//!
//! Expected shape (paper): CHET-compiled configurations beat the manual
//! baseline on every network (the paper's experts took weeks to tune what
//! the compiler finds automatically), and CHET-SEAL is roughly an order of
//! magnitude faster than the hand-written HEAAN circuits.
//!
//! The Manual-HEAAN baseline is emulated as the pre-CHET default an expert
//! would start from (DESIGN.md substitution): fixed HW layout, default
//! power-of-two rotation keys, conservative fixed-point scales.

use chet_bench::{average_latency, fmt_dur, harness_precision, harness_scales, print_table, BackendChoice, HarnessArgs};
use chet_compiler::layout::policy_layouts;
use chet_compiler::{select_parameters, select_rotation_keys, CompiledCircuit, Compiler, LayoutPolicy};
use chet_hisa::params::SchemeKind;
use chet_hisa::{RotationKeyPolicy, SecurityLevel};
use chet_runtime::exec::{required_margin_for, ExecPlan};
use chet_runtime::kernels::ScaleConfig;

fn main() {
    let args = HarnessArgs::parse();
    let (rns_backend, big_backend) = if args.sim {
        (BackendChoice::Sim, BackendChoice::Sim)
    } else {
        (BackendChoice::Rns, BackendChoice::Big)
    };

    println!("== Figure 5: CHET-SEAL vs CHET-HEAAN vs Manual-HEAAN latency ==");
    println!(
        "(networks: {}; {} image(s) per cell)\n",
        if args.full { "full-size" } else { "reduced" },
        args.images
    );

    let chet_scales = harness_scales();
    // The "manual" developer uses generous, untuned scales (costing depth)
    // and no layout/rotation-key search.
    let manual_scales = ScaleConfig::from_log2(30, 18, 18, 14);

    let mut rows = Vec::new();
    for net in args.networks() {
        // CHET-SEAL: full compilation for RNS-CKKS.
        let seal = Compiler::new(SchemeKind::RnsCkks)
            .with_output_precision(harness_precision())
            .compile(&net.circuit, &chet_scales)
            .expect("compiles for SEAL target");
        let t_seal = average_latency(rns_backend, &seal, &net.circuit, &net, args.images);
        eprintln!("[cell] {} CHET-SEAL: {}", net.name, fmt_dur(t_seal));

        // CHET-HEAAN: full compilation for CKKS.
        let heaan = Compiler::new(SchemeKind::Ckks)
            .with_output_precision(harness_precision())
            .compile(&net.circuit, &chet_scales)
            .expect("compiles for HEAAN target");
        let t_heaan = average_latency(big_backend, &heaan, &net.circuit, &net, args.images);
        eprintln!("[cell] {} CHET-HEAAN: {}", net.name, fmt_dur(t_heaan));

        // Manual-HEAAN: HW layout, power-of-two keys, conservative scales.
        let layouts = policy_layouts(&net.circuit, LayoutPolicy::Hw);
        let outcome = select_parameters(
            &net.circuit,
            &layouts,
            &manual_scales,
            SchemeKind::Ckks,
            SecurityLevel::Bits128,
            harness_precision(),
            0,
        )
        .expect("manual baseline parameters");
        let manual = CompiledCircuit {
            plan: ExecPlan {
                layouts,
                scales: manual_scales,
                margin: required_margin_for(&net.circuit),
            },
            params: outcome.params.clone(),
            rotation_keys: RotationKeyPolicy::PowersOfTwo,
            policy: LayoutPolicy::Hw,
            estimated_cost: 0.0,
            outcome: outcome.clone(),
            output_precision: harness_precision(),
            pruned_rotations: Vec::new(),
        };
        let _ = select_rotation_keys(&outcome); // (manual dev does not use it)
        let t_manual = average_latency(big_backend, &manual, &net.circuit, &net, args.images);
        eprintln!("[cell] {} Manual-HEAAN: {}", net.name, fmt_dur(t_manual));

        let speedup_vs_manual = t_manual.as_secs_f64() / t_heaan.as_secs_f64().max(1e-9);
        let seal_vs_heaan = t_heaan.as_secs_f64() / t_seal.as_secs_f64().max(1e-9);
        rows.push(vec![
            net.name.to_string(),
            fmt_dur(t_seal),
            fmt_dur(t_heaan),
            fmt_dur(t_manual),
            format!("{speedup_vs_manual:.2}x"),
            format!("{seal_vs_heaan:.2}x"),
        ]);
    }
    print_table(
        &[
            "Network",
            "CHET-SEAL",
            "CHET-HEAAN",
            "Manual-HEAAN",
            "CHET-HEAAN vs manual",
            "SEAL vs HEAAN",
        ],
        &rows,
    );
    println!(
        "\nExpected shape: CHET-HEAAN < Manual-HEAAN on every network; CHET-SEAL \
         fastest overall (paper Fig. 5)."
    );
}
