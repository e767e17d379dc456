//! Figure 6 — estimated cost vs observed latency across (network × layout)
//! points.
//!
//! Expected shape (paper): the compiler's cost estimates and the measured
//! latencies are highly correlated (the paper shows a tight log-log trend),
//! validating cost-model-driven layout selection.

use chet_bench::{average_latency, harness_precision, pearson, print_table, spearman, BackendChoice, HarnessArgs};
use chet_compiler::layout::enumerate_layouts;
use chet_compiler::CompiledCircuit;
use chet_hisa::cost::CostModel;
use chet_hisa::params::SchemeKind;
use chet_hisa::SecurityLevel;
use chet_runtime::kernels::ScaleConfig;

fn main() {
    let args = HarnessArgs::parse();
    let backend = if args.sim { BackendChoice::Sim } else { BackendChoice::Rns };
    println!("== Figure 6: estimated cost vs observed latency (RNS-CKKS) ==\n");
    let scales = ScaleConfig::REFERENCE;
    let cost_model = CostModel::for_scheme(SchemeKind::RnsCkks);

    let mut rows = Vec::new();
    let mut est = Vec::new();
    let mut obs = Vec::new();
    for net in args.networks() {
        let choices = enumerate_layouts(
            &net.circuit,
            &scales,
            SchemeKind::RnsCkks,
            SecurityLevel::Bits128,
            harness_precision(),
            &cost_model,
            0,
        )
        .expect("compiles");
        for choice in &choices {
            let compiled = CompiledCircuit::from_choice(choice.clone(), harness_precision());
            let dt = average_latency(backend, &compiled, &net.circuit, &net, args.images);
            eprintln!("[cell] {} / {}: {}", net.name, choice.policy, dt.as_secs_f64());
            est.push(choice.estimated_cost.ln());
            obs.push(dt.as_secs_f64().max(1e-9).ln());
            rows.push(vec![
                net.name.to_string(),
                format!("{}", choice.policy),
                format!("{:.3e}", choice.estimated_cost),
                format!("{:.3}", dt.as_secs_f64()),
            ]);
        }
    }
    print_table(&["Network", "Layout", "Estimated cost", "Latency (s)"], &rows);
    println!(
        "\nlog-log Pearson r = {:.3}, Spearman rho = {:.3}  ({} points)",
        pearson(&est, &obs),
        spearman(&est, &obs),
        est.len()
    );
    println!("Expected shape: strong positive correlation (paper: 'highly correlated').");
}
