//! `chet-lint` — static circuit verifier over the built-in networks.
//!
//! Compiles every Table 3 network, runs the abstract-interpretation
//! verifier (`chet_compiler::verify_compiled`) over the compiled artifact,
//! and then the IR-level rotation/CSE analyzer
//! (`chet_compiler::ir::analyze`) over the extracted HISA graph, printing
//! each diagnostic with its stable lint code and op span. No ciphertext
//! (or simulator) execution happens: this is the static half of
//! `compile_checked`, exposed as a CI-friendly lint pass.
//!
//! ```text
//! chet-lint [--machine] [--cost] [--ir-dump]
//!           [--check <baseline>] [--write-baseline <baseline>]
//!           [--write-times <file>]
//! ```
//!
//! * `--machine` — one JSON object per diagnostic per line (keys `network`,
//!   `code`, `name`, `severity`, `op_index`, `kernel`, `message`; messages
//!   JSON-escaped), instead of pretty output.
//! * `--cost` — print the static cost model's predicted latency breakdown
//!   per network and its top-5 hottest circuit ops. Uses the calibrated
//!   per-op constants from `BENCH_rns_ops.json` when that artifact exists,
//!   the scheme defaults otherwise.
//! * `--ir-dump` — print the extracted HISA dataflow graph per network.
//! * `--check <file>` — fail (exit 1) if any network produces a Deny
//!   diagnostic, or more findings of any code than the checked-in baseline
//!   allows (so new warnings fail CI instead of accumulating).
//! * `--write-baseline <file>` — record the current per-network finding
//!   counts as the new baseline.
//! * `--write-times <file>` — record per-network verify wall times (µs).
//!   Opt-in: without the flag nothing is written, so a plain lint run
//!   never dirties the working tree with machine-local timings.

use chet::compiler::ir::{analyze::analyze, cost as ir_cost, extract_ir, ExtractMode, IrGraph};
use chet::compiler::verify::{verify_compiled, DiagnosticReport};
use chet::compiler::{CompiledCircuit, Compiler};
use chet::hisa::cost::{op_from_name, CostModel, ALL_OPS};
use chet::hisa::params::SchemeKind;
use chet::runtime::kernels::ScaleConfig;
use std::collections::BTreeMap;
use std::time::Instant;

/// (network, lint code) -> finding count.
type Counts = BTreeMap<(String, String), usize>;

fn parse_baseline(path: &str) -> Counts {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("chet-lint: cannot read baseline {path}: {e}");
        std::process::exit(2);
    });
    let mut counts = Counts::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next(), parts.next().and_then(|c| c.parse().ok())) {
            (Some(net), Some(code), Some(n)) => {
                counts.insert((net.to_string(), code.to_string()), n);
            }
            _ => {
                eprintln!("chet-lint: malformed baseline line: {line}");
                std::process::exit(2);
            }
        }
    }
    counts
}

fn render_baseline(counts: &Counts) -> String {
    let mut out = String::from("# chet-lint baseline: <network> <lint code> <count>\n");
    for ((net, code), n) in counts {
        out.push_str(&format!("{net} {code} {n}\n"));
    }
    out
}

/// The cost model `--cost` prices circuits with: the calibrated constants
/// from `BENCH_rns_ops.json` when the artifact is present and parseable,
/// the scheme defaults otherwise.
fn cost_model() -> (CostModel, &'static str) {
    let mut model = CostModel::for_scheme(SchemeKind::RnsCkks);
    let Ok(text) = std::fs::read_to_string("BENCH_rns_ops.json") else {
        return (model, "defaults (no BENCH_rns_ops.json)");
    };
    let Ok(v) = chet::hisa::json::parse(&text) else {
        return (model, "defaults (BENCH_rns_ops.json unparseable)");
    };
    let mut loaded = 0usize;
    for op in ALL_OPS {
        if let Some(c) = v.get("constants").and_then(|o| o.get(&op.to_string())).and_then(|c| c.as_num()) {
            if c.is_finite() && c > 0.0 {
                model.set_constant(op, c);
                loaded += 1;
            }
        }
    }
    if loaded == ALL_OPS.len() {
        (model, "calibrated (BENCH_rns_ops.json)")
    } else {
        (CostModel::for_scheme(SchemeKind::RnsCkks), "defaults (incomplete calibration)")
    }
}

fn lint_network(name: &str, report: &DiagnosticReport, machine: bool, counts: &mut Counts) {
    for d in &report.diagnostics {
        *counts.entry((name.to_string(), d.code.code().to_string())).or_insert(0) += 1;
    }
    if machine {
        for d in &report.diagnostics {
            println!("{}", d.render_machine_for(name));
        }
    } else {
        println!("{name}:");
        print!("{}", report.render_text());
    }
}

/// Extracts the HISA IR for analysis/cost; extraction failure degrades to
/// `None` (the static verifier already covered the artifact) rather than
/// failing the lint run.
fn extract(net: &chet::networks::Network, compiled: &CompiledCircuit) -> Option<IrGraph> {
    match extract_ir(&net.circuit, compiled, ExtractMode::Metadata) {
        Ok(ir) => Some(ir),
        Err(e) => {
            eprintln!("chet-lint: note: {}: IR extraction failed: {e}", net.name);
            None
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let machine = args.iter().any(|a| a == "--machine");
    let cost = args.iter().any(|a| a == "--cost");
    let ir_dump = args.iter().any(|a| a == "--ir-dump");
    let flag_value = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("chet-lint: {flag} needs a file argument");
                std::process::exit(2);
            })
        })
    };
    let check = flag_value("--check");
    let write = flag_value("--write-baseline");
    let write_times = flag_value("--write-times");
    // op_from_name is the sanity link between the calibration artifact's op
    // names and the model's: an op name we can't map back means the
    // artifact and binary disagree about the op set.
    debug_assert!(ALL_OPS.iter().all(|op| op_from_name(&op.to_string()) == Some(*op)));

    let model = if cost { Some(cost_model()) } else { None };
    if let (Some((_, origin)), false) = (&model, machine) {
        println!("cost model: {origin}\n");
    }

    let mut counts = Counts::new();
    let mut denies = 0usize;
    let mut times = String::new();
    for net in chet::networks::all_networks() {
        let compiled = Compiler::new(SchemeKind::RnsCkks)
            .with_output_precision(2f64.powi(25))
            .compile(&net.circuit, &ScaleConfig::REFERENCE)
            .unwrap_or_else(|e| {
                eprintln!("chet-lint: {} failed to compile: {e}", net.name);
                std::process::exit(1);
            });
        let t0 = Instant::now();
        let mut report = verify_compiled(&net.circuit, &compiled);
        let micros = t0.elapsed().as_micros();
        let ir = extract(&net, &compiled);
        if let Some(ir) = &ir {
            report.diagnostics.extend(analyze(ir));
        }
        times.push_str(&format!("{} {micros}\n", net.name));
        lint_network(net.name, &report, machine, &mut counts);
        if !machine {
            println!("  verified {} op(s) in {micros} us", report.checked_ops);
        }
        if let (Some((m, _)), Some(ir)) = (&model, &ir) {
            let breakdown = ir_cost::estimate(ir, m);
            if machine {
                println!(
                    "{{\"network\": {}, \"predicted_us\": {:.1}}}",
                    chet::hisa::json::Json::Str(net.name.to_string()).render(),
                    breakdown.total_us
                );
            } else {
                for line in breakdown.render_text(5).lines() {
                    println!("  {line}");
                }
            }
        }
        if ir_dump {
            if let Some(ir) = &ir {
                println!("{}", ir.render_text());
            }
        }
        denies += report.deny_count();
    }

    if let Some(path) = write_times {
        if let Err(e) = std::fs::write(&path, &times) {
            eprintln!("chet-lint: cannot write timings {path}: {e}");
            std::process::exit(2);
        }
    }

    if let Some(path) = write {
        if let Err(e) = std::fs::write(&path, render_baseline(&counts)) {
            eprintln!("chet-lint: cannot write baseline {path}: {e}");
            std::process::exit(2);
        }
        println!("baseline written to {path}");
    }

    let mut failed = denies > 0;
    if denies > 0 {
        eprintln!("chet-lint: {denies} deny diagnostic(s)");
    }
    if let Some(path) = check {
        let baseline = parse_baseline(&path);
        for ((net, code), n) in &counts {
            let allowed = baseline.get(&(net.clone(), code.clone())).copied().unwrap_or(0);
            if *n > allowed {
                eprintln!(
                    "chet-lint: {net}: {code} count {n} exceeds baseline {allowed} ({path})"
                );
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
