//! # chet-bench
//!
//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the CHET paper's evaluation (see DESIGN.md §4 for the
//! index). Each `src/bin/table*`/`src/bin/fig*` binary prints the
//! reproduction next to the paper's reported shape, and the
//! `src/bin/ablation_*` binaries the matmul and masking ablations.
//! Two binaries write committed records that `ci.sh` checks:
//! `bench_rns_ops` calibrates the cost model (`BENCH_rns_ops.json`) and
//! `bench_journal` measures the serving journal (`BENCH_journal.json`).
//! End-to-end latency, throughput and thread scaling are measured by
//! `chet-benchmark` (`crates/benchmark`), not here.
//!
//! Conventions:
//!
//! * `--full` runs the full-size Table 3 networks (can take hours on the
//!   real lattice backends); the default uses the structurally identical
//!   reduced variants (see `chet_networks::reduced`) so the whole suite
//!   completes in CI time.
//! * `--sim` replaces the lattice backends with the plaintext simulator
//!   (exact slot semantics; useful to sanity-check harness logic quickly).
//! * HEAAN-style CKKS runs use relaxed security, mirroring the paper's
//!   "somewhat less than 128-bit security" for its hand-written HEAAN
//!   baselines and Table 4.

use chet_ckks::big::BigCkks;
use chet_ckks::rns::RnsCkks;
use chet_ckks::sim::SimCkks;
use chet_compiler::CompiledCircuit;
use chet_hisa::params::SchemeKind;
use chet_hisa::{EncryptionParams, RotationKeyPolicy};
use chet_networks::Network;
use chet_runtime::exec::{try_infer, ExecPlan};
use chet_tensor::Tensor;
use std::time::{Duration, Instant};

/// Which concrete backend an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendChoice {
    /// Real SEAL-style RNS-CKKS.
    Rns,
    /// Real HEAAN-style bigint CKKS.
    Big,
    /// Plaintext simulator (for harness smoke runs).
    Sim,
}

impl BackendChoice {
    /// The scheme variant this backend implements (Sim defaults to RNS
    /// semantics unless the parameters say otherwise).
    pub fn kind(self) -> SchemeKind {
        match self {
            BackendChoice::Rns | BackendChoice::Sim => SchemeKind::RnsCkks,
            BackendChoice::Big => SchemeKind::Ckks,
        }
    }
}

/// Simple CLI options shared by the harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Use full-size networks instead of reduced variants.
    pub full: bool,
    /// Use the simulator instead of the real lattice backends.
    pub sim: bool,
    /// Number of images to average latency over.
    pub images: usize,
    /// Limit to the first `nets` networks (single-core runs of the heavier
    /// networks take minutes per cell; see EXPERIMENTS.md).
    pub nets: usize,
}

impl HarnessArgs {
    /// Parses `--full`, `--sim`, `--images N` and `--nets N` from
    /// `std::env::args`; on a bad argument, prints it with the usage line
    /// and exits with status 2.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{e}\n{HARNESS_USAGE}");
            std::process::exit(2)
        })
    }

    /// Parses the harness options from `args` (program name already
    /// skipped). `--images` and `--nets` take a count of at least 1.
    pub fn from_args(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut parsed = HarnessArgs { full: false, sim: false, images: 1, nets: 5 };
        while let Some(a) = args.next() {
            match a.as_str() {
                "--full" => parsed.full = true,
                "--sim" => parsed.sim = true,
                "--images" => parsed.images = positive_count("--images", args.next())?,
                "--nets" => parsed.nets = positive_count("--nets", args.next())?,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(parsed)
    }

    /// The evaluation networks under these options.
    pub fn networks(&self) -> Vec<Network> {
        let mut nets = if self.full {
            chet_networks::all_networks()
        } else {
            chet_networks::NETWORK_NAMES
                .iter()
                .filter_map(|n| chet_networks::try_reduced(n).ok())
                .collect()
        };
        nets.truncate(self.nets);
        nets
    }
}

const HARNESS_USAGE: &str = "usage: [--full] [--sim] [--images N] [--nets N] (N >= 1)";

fn positive_count(flag: &str, value: Option<String>) -> Result<usize, String> {
    let value = value.unwrap_or_default();
    match value.parse() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("{flag} takes a count of at least 1, got {value:?}")),
    }
}

/// Fixed-point scales used across the harness binaries: small enough that
/// the reduced networks select `N = 8192–16384` (fast single-core runs),
/// large enough that encrypted outputs track the reference.
pub fn harness_scales() -> chet_runtime::kernels::ScaleConfig {
    chet_runtime::kernels::ScaleConfig::from_log2(25, 12, 12, 10)
}

/// Output fixed-point precision requested from the compiler in harness
/// runs (matches the working scale).
pub fn harness_precision() -> f64 {
    2f64.powi(25)
}

/// Times one encrypted inference on the chosen backend.
pub fn time_inference(
    backend: BackendChoice,
    params: &EncryptionParams,
    keys: &RotationKeyPolicy,
    circuit: &chet_tensor::Circuit,
    plan: &ExecPlan,
    image: &Tensor,
    seed: u64,
) -> (Tensor, Duration) {
    match backend {
        BackendChoice::Rns => {
            let mut h = RnsCkks::new(params, keys, seed);
            let t0 = Instant::now();
            let out = try_infer(&mut h, circuit, plan, image).expect("compiled plan runs");
            (out, t0.elapsed())
        }
        BackendChoice::Big => {
            let mut h = BigCkks::new(params, keys, seed);
            let t0 = Instant::now();
            let out = try_infer(&mut h, circuit, plan, image).expect("compiled plan runs");
            (out, t0.elapsed())
        }
        BackendChoice::Sim => {
            let mut h = SimCkks::new(params, keys, seed);
            let t0 = Instant::now();
            let out = try_infer(&mut h, circuit, plan, image).expect("compiled plan runs");
            (out, t0.elapsed())
        }
    }
}

/// Average latency over `n` images (fresh backend per image, as in the
/// paper's per-image latency metric).
pub fn average_latency(
    backend: BackendChoice,
    compiled: &CompiledCircuit,
    circuit: &chet_tensor::Circuit,
    net: &Network,
    n: usize,
) -> Duration {
    let mut total = Duration::ZERO;
    for i in 0..n {
        let image = net.sample_image(7 + i as u64);
        let (_, dt) = time_inference(
            backend,
            &compiled.params,
            &compiled.rotation_keys,
            circuit,
            &compiled.plan,
            &image,
            1234 + i as u64,
        );
        total += dt;
    }
    total / n as u32
}

/// Runs the Table 5/6 layout-vs-latency sweep for one scheme variant.
pub fn run_layout_table(
    title: &str,
    kind: SchemeKind,
    security: chet_hisa::SecurityLevel,
    backend: BackendChoice,
    args: &HarnessArgs,
) {
    use chet_compiler::layout::enumerate_layouts;
    use chet_compiler::{select_rotation_keys, ALL_POLICIES};
    use chet_hisa::cost::CostModel;

    println!("== {title} ==");
    println!(
        "(networks: {}; backend: {:?}; {} image(s) per cell)\n",
        if args.full { "full-size" } else { "reduced" },
        backend,
        args.images
    );
    let scales = harness_scales();
    let cost_model = CostModel::for_scheme(kind);
    let mut rows = Vec::new();
    for net in args.networks() {
        let choices = enumerate_layouts(
            &net.circuit,
            &scales,
            kind,
            security,
            harness_precision(),
            &cost_model,
            0,
        )
        .expect("some policy compiles");
        let best = choices[0].policy;
        let mut row = vec![net.name.to_string()];
        for policy in ALL_POLICIES {
            let Some(choice) = choices.iter().find(|c| c.policy == policy) else {
                row.push("n/a".into());
                continue;
            };
            let compiled = CompiledCircuit {
                plan: choice.plan.clone(),
                params: choice.outcome.params.clone(),
                rotation_keys: select_rotation_keys(&choice.outcome),
                policy: choice.policy,
                estimated_cost: choice.estimated_cost,
                outcome: choice.outcome.clone(),
                output_precision: harness_precision(),
                pruned_rotations: Vec::new(),
            };
            let dt = average_latency(backend, &compiled, &net.circuit, &net, args.images);
            let marker = if policy == best { " *" } else { "" };
            eprintln!("[cell] {} / {}: {}{}", net.name, choice.policy, fmt_dur(dt), marker);
            row.push(format!("{}{}", fmt_dur(dt), marker));
        }
        rows.push(row);
    }
    print_table(
        &["Network", "HW", "CHW", "HW-conv,CHW-rest", "CHW-fc,HW-before"],
        &rows,
    );
    println!("\n'*' marks the layout CHET's cost model selects.");
}

/// Pearson correlation between two equally long series.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    cov / (vx.sqrt() * vy.sqrt()).max(1e-12)
}

/// Spearman rank correlation.
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    fn ranks(v: &[f64]) -> Vec<f64> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&a, &b| v[a].partial_cmp(&v[b]).expect("finite"));
        let mut r = vec![0.0; v.len()];
        for (rank, &i) in idx.iter().enumerate() {
            r[i] = rank as f64;
        }
        r
    }
    pearson(&ranks(xs), &ranks(ys))
}

/// Formats a duration compactly.
pub fn fmt_dur(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s < 1.0 {
        format!("{:.0} ms", s * 1e3)
    } else if s < 120.0 {
        format!("{s:.1} s")
    } else {
        format!("{:.1} min", s / 60.0)
    }
}

/// Prints a padded text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let joined: Vec<String> =
            cells.iter().enumerate().map(|(i, c)| format!("{:<w$}", c, w = widths[i])).collect();
        println!("| {} |", joined.join(" | "));
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    println!(
        "|{}|",
        widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("|")
    );
    for row in rows {
        line(row.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_of_linear_series_is_one() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [10.0, 20.0, 30.0, 40.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_monotone_is_one() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [1.0, 10.0, 100.0, 1000.0];
        assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn anticorrelated_is_negative() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [3.0, 2.0, 1.0];
        assert!(pearson(&xs, &ys) < -0.99);
    }

    #[test]
    fn fmt_duration_ranges() {
        assert!(fmt_dur(Duration::from_millis(12)).ends_with("ms"));
        assert!(fmt_dur(Duration::from_secs(5)).ends_with('s'));
        assert!(fmt_dur(Duration::from_secs(300)).ends_with("min"));
    }

    #[test]
    fn harness_args_reject_zero_counts() {
        let parse = |args: &[&str]| HarnessArgs::from_args(args.iter().map(|a| a.to_string()));
        let args = parse(&["--sim", "--images", "3", "--nets", "2"]).expect("valid");
        assert_eq!((args.full, args.sim, args.images, args.nets), (false, true, 3, 2));
        for bad in [
            &["--images", "0"][..],
            &["--nets", "0"],
            &["--images"],
            &["--nets", "x"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn reduced_networks_available() {
        let args = HarnessArgs { full: false, sim: true, images: 1, nets: 5 };
        assert_eq!(args.networks().len(), 5);
    }
}
