//! `chet-benchmark` — one benchmark for the whole stack.
//!
//! `cargo run --release -p chet-benchmark -- --workload <name> --seed <n>
//! [--seconds <s>] [--trace [0|1]]` runs one workload, checks every output
//! against the plain reference, prints every metric by name with its unit
//! and ends with one JSON result object. See `README.md` beside this crate.

mod layers;
mod loadgen;
mod metrics;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Args;

const USAGE: &str = "usage: chet-benchmark --workload <lenet-rns-closed|lenet-rns-open-b8|fivenets-sim-journal|compile-full> --seed <u64> [--seconds <s>] [--trace [0|1]]";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
    };
    let mut pending_trace = false;
    while let Some(flag) = argv.next() {
        // `--trace` may stand alone or take 0 / 1.
        if std::mem::take(&mut pending_trace) && (flag == "0" || flag == "1") {
            args.trace = flag == "1";
            continue;
        }
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = true;
                pending_trace = true;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of: {}",
            workloads::NAMES.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(args)
}

/// Where the run may write: `<target dir>/benchmark`, inside the checkout.
fn output_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("benchmark")
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "chet-benchmark  workload {}  commit {}  nproc {}  seed {}  seconds {}  trace {}",
        args.workload,
        commit(),
        workloads::nproc(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let out_dir = output_dir();
    let (spin, reference, waited) = stats::wait_for_quiet_host(&out_dir);
    println!("host spin {spin:.2} ms (fastest seen {reference:.2} ms), waited {waited:.1} s for a quiet host");
    let scratch = out_dir.join(format!("scratch-{}-{}", args.workload, std::process::id()));
    let log = spans::SpanLog::new(args.trace);
    let result = workloads::run(&args, &scratch, &log);
    let _ = std::fs::remove_dir_all(&scratch);
    let (outcome, text) = match result {
        Ok(done) => done,
        Err(e) => {
            eprintln!("chet-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{text}");
    print!("{}", outcome.render_text(args.trace));
    if args.trace {
        let path = out_dir.join(format!("{}.spans.jsonl", args.workload));
        match log.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => {
                eprintln!("chet-benchmark: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", outcome.to_json(args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn accepts_the_driver_and_the_issue_spellings() {
        let a =
            parse("--workload compile-full --seed 9 --seconds 12 --trace 0").expect("driver form");
        assert_eq!((a.seed, a.seconds, a.trace), (9, 12.0, false));
        assert!(
            parse("--workload compile-full --seed 9 --trace 1")
                .expect("traced")
                .trace
        );
        assert!(
            parse("--workload compile-full --trace --seed 9")
                .expect("bare flag")
                .trace
        );
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload compile-full --seconds 0").is_err());
    }
}
