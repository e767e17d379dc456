//! Ablation — eager vs lazy masking (DESIGN.md §7).
//!
//! CHET's runtime masks intermediate tensors to zero out junk slots (paper
//! Figures 1 & 4). Masking costs a plaintext multiply *and* multiplicative
//! depth per masked op. The executor's backward analysis skips masks no
//! consumer needs ("lazy"); this binary quantifies what that saves: modulus
//! consumed, the resulting ring degree / chain length, and real latency.

use chet_bench::{fmt_dur, harness_precision, print_table, time_inference, BackendChoice, HarnessArgs};
use chet_compiler::layout::policy_layouts;
use chet_compiler::{select_parameters, select_rotation_keys, LayoutPolicy};
use chet_hisa::params::SchemeKind;
use chet_hisa::SecurityLevel;
use chet_runtime::exec::{clean_output_required, required_margin_for, ExecPlan};
use chet_runtime::kernels::ScaleConfig;

fn main() {
    let mut args = HarnessArgs::parse();
    if args.nets == 5 {
        args.nets = 2; // default to the light networks; override with --nets
    }
    let backend = if args.sim { BackendChoice::Sim } else { BackendChoice::Rns };
    println!("== Ablation: eager vs lazy masking (HW layout, RNS-CKKS) ==\n");
    let scales = ScaleConfig::REFERENCE;
    let mut rows = Vec::new();
    for net in args.networks() {
        let layouts = policy_layouts(&net.circuit, LayoutPolicy::Hw);
        let outcome = select_parameters(
            &net.circuit,
            &layouts,
            &scales,
            SchemeKind::RnsCkks,
            SecurityLevel::Bits128,
            harness_precision(),
            0,
        )
        .expect("compiles");
        let plan = ExecPlan {
            layouts: layouts.clone(),
            scales,
            margin: required_margin_for(&net.circuit),
        };
        let masks_needed =
            clean_output_required(&net.circuit, &plan).iter().filter(|&&b| b).count();
        let maskable = net
            .circuit
            .ops()
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    chet_tensor::circuit::Op::Conv2d { .. }
                        | chet_tensor::circuit::Op::AvgPool2d { .. }
                )
            })
            .count();
        let keys = select_rotation_keys(&outcome);
        let image = net.sample_image(3);
        let (_, t_lazy) = time_inference(
            backend,
            &outcome.params,
            &keys,
            &net.circuit,
            &plan,
            &image,
            5,
        );
        rows.push(vec![
            net.name.to_string(),
            format!("{maskable}"),
            format!("{masks_needed}"),
            format!("{:.0}", outcome.consumed_log2),
            format!("N={}, r={}", outcome.params.degree, outcome.params.modulus.chain_len()),
            fmt_dur(t_lazy),
        ]);
    }
    print_table(
        &[
            "Network",
            "maskable ops",
            "masks kept (lazy)",
            "consumed bits",
            "params",
            "latency (lazy)",
        ],
        &rows,
    );
    println!(
        "\nEager masking would multiply every maskable op by a P_m mask, adding \
         ~log2(P_m) bits of modulus per op; the lazy analysis keeps only the masks \
         a consumer (Same-padding conv, concat, layout conversion) requires."
    );
}
