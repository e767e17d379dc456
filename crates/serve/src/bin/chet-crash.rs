//! Kill-and-restart crash harness for the durable request journal.
//!
//! Proves the journal's exactly-once acknowledgement contract the honest
//! way: by actually killing the process. The harness runs in two roles:
//!
//! * **Parent** (default): orchestrates a scenario for one named crash
//!   point — spawns itself as a child serving process armed with a seeded
//!   [`CrashPlan`], lets it die mid-flight (`std::process::abort` at the
//!   planted kill site), restarts it until a round completes cleanly,
//!   then audits the journal directly:
//!     - zero lost acknowledged requests — every `acked <key> <digest>`
//!       line a child printed must appear in the journal's completed set
//!       with the identical digest;
//!     - zero double executions — no idempotency key completes more than
//!       once across all rounds, and `double_completions == 0`;
//!     - a clean final state — no pending requests survive the last round.
//!   Prints `digest=<hex>` over the sorted completed (key, digest) pairs;
//!   ci.sh diffs it across `CHET_THREADS=1/4` and across seeds.
//! * **Child** (`--child`): starts an [`InferenceService`] with journaling
//!   on and the crash plan armed, submits `--requests` keyed requests,
//!   and prints an ack line per response the moment the client sees it.
//!
//! Crash points (see [`CrashPoint`]): `before-fsync` models a torn batch
//! write (half the batch reaches disk), `after-fsync` dies with durable
//! records nobody was acked for, `mid-replay` dies while re-enqueueing
//! the recovered backlog. The `mid-replay` scenario runs three rounds:
//! an early `after-fsync` crash to build a backlog, a `mid-replay` crash
//! during its recovery, then a clean round.

use chet_ckks::sim::SimCkks;
use chet_compiler::Compiler;
use chet_hisa::params::SchemeKind;
use chet_hisa::serial::fnv1a64;
use chet_runtime::kernels::ScaleConfig;
use chet_serve::{
    CrashPlan, CrashPoint, InferenceService, Journal, JournalConfig, ServeConfig, ServeError,
    Submission,
};
use chet_tensor::circuit::{Circuit, CircuitBuilder};
use chet_tensor::ops::Padding;
use chet_tensor::Tensor;
use std::collections::BTreeMap;
use std::io::Write as IoWrite;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

fn small_cnn() -> Circuit {
    let mut b = CircuitBuilder::new();
    let x = b.input(vec![1, 6, 6]);
    let w = Tensor::from_fn(vec![2, 1, 3, 3], |i| (i[2] * 3 + i[3]) as f64 * 0.05 - 0.1);
    let c = b.conv2d(x, w, Some(vec![0.1, -0.1]), 1, Padding::Valid);
    let a = b.activation(c, 0.2, 0.9);
    let p = b.avg_pool2d(a, 2, 2);
    b.build(p)
}

fn compiler() -> Compiler {
    Compiler::new(SchemeKind::RnsCkks).with_output_precision(2f64.powi(20))
}

fn image(seed: u64, i: u64) -> Tensor {
    Tensor::random(vec![1, 6, 6], 1.0, seed.wrapping_mul(1_000_003).wrapping_add(i))
}

struct Args {
    child: bool,
    point: String,
    seed: u64,
    dir: Option<PathBuf>,
    requests: u64,
    span: u64,
    keep: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        child: false,
        point: "none".to_string(),
        seed: 11,
        dir: None,
        requests: 24,
        span: 0,
        keep: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut take = |what: &str| it.next().ok_or(format!("{what} needs a value"));
        match a.as_str() {
            "--child" => args.child = true,
            "--keep" => args.keep = true,
            "--point" => args.point = take("--point")?,
            "--dir" => args.dir = Some(PathBuf::from(take("--dir")?)),
            "--seed" => args.seed = take("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--requests" => {
                args.requests =
                    take("--requests")?.parse().map_err(|e| format!("--requests: {e}"))?;
            }
            "--span" => args.span = take("--span")?.parse().map_err(|e| format!("--span: {e}"))?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.point != "none" && CrashPoint::parse(&args.point).is_none() {
        return Err(format!("unknown crash point '{}'", args.point));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "chet-crash: {e}\nusage: chet-crash [--point before-fsync|after-fsync|mid-replay|none] \
                 [--seed N] [--requests N] [--dir D] [--keep]"
            );
            return ExitCode::FAILURE;
        }
    };
    if args.child {
        run_child(&args)
    } else {
        run_parent(&args)
    }
}

/// One serving round: start (replaying whatever the journal holds),
/// submit every key, print an ack line per delivered response, shut down.
fn run_child(args: &Args) -> ExitCode {
    let Some(dir) = args.dir.clone() else {
        eprintln!("chet-crash --child: --dir is required");
        return ExitCode::FAILURE;
    };
    let crash = CrashPoint::parse(&args.point)
        .map(|p| CrashPlan::from_seed(p, args.seed, args.span.max(1)));
    let config = ServeConfig {
        workers: 2,
        queue_capacity: 256,
        store_dir: Some(dir),
        journal: JournalConfig { enabled: true, completed_cache: 1024, crash, ..JournalConfig::default() },
        ..ServeConfig::default()
    };
    let service = match InferenceService::start_with_compiler(
        compiler(),
        small_cnn(),
        ScaleConfig::REFERENCE,
        config,
        |_, compiled| SimCkks::new(&compiled.params, &compiled.rotation_keys, 9).without_noise(),
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("chet-crash --child: service failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stdout = std::io::stdout();
    let ack = |key: &str, digest: u64| {
        // Ack lines must hit the pipe *before* any later abort: the
        // parent treats every printed ack as a durability obligation.
        let mut out = stdout.lock();
        let _ = writeln!(out, "acked {key} {digest:016x}");
        let _ = out.flush();
    };
    let mut waiting = Vec::new(); // (key, ticket)
    let mut polling = Vec::new(); // keys in flight from a previous life
    for i in 0..args.requests {
        let key = format!("req-{i}");
        match service.submit_keyed(image(args.seed, i), &key) {
            Ok(Submission::Accepted(ticket)) => waiting.push((key, ticket)),
            Ok(Submission::Duplicate(resp)) => ack(&key, resp.digest),
            Err(ServeError::DuplicatePending { .. }) => polling.push(key),
            Err(e) => {
                eprintln!("chet-crash --child: submit {key}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    for (key, ticket) in waiting {
        match ticket.wait() {
            Ok(resp) => ack(&key, chet_serve::response_digest(&resp.output, resp.degraded)),
            Err(e) => {
                eprintln!("chet-crash --child: {key} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // Keys admitted by a previous life and replayed at startup: their
    // reply channels died with the old process, so the response surfaces
    // through the journal's completed cache.
    let deadline = Instant::now() + Duration::from_secs(30);
    for key in polling {
        loop {
            if let Some(resp) = service.lookup(&key) {
                ack(&key, resp.digest);
                break;
            }
            if Instant::now() >= deadline {
                eprintln!("chet-crash --child: timed out waiting for replayed {key}");
                return ExitCode::FAILURE;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    service.shutdown();
    ExitCode::SUCCESS
}

/// Spawns one child round, returning (clean exit, acked key→digest).
fn spawn_round(
    dir: &std::path::Path,
    seed: u64,
    point: &str,
    span: u64,
    requests: u64,
) -> Result<(bool, BTreeMap<String, u64>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--child",
            "--dir",
            &dir.display().to_string(),
            "--seed",
            &seed.to_string(),
            "--point",
            point,
            "--span",
            &span.to_string(),
            "--requests",
            &requests.to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning child: {e}"))?;
    let mut acked = BTreeMap::new();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        if let Some(rest) = line.strip_prefix("acked ") {
            let mut parts = rest.split_whitespace();
            let key = parts.next().unwrap_or_default().to_string();
            let digest = parts
                .next()
                .and_then(|d| u64::from_str_radix(d, 16).ok())
                .ok_or(format!("malformed ack line: {line}"))?;
            acked.insert(key, digest);
        }
    }
    Ok((out.status.success(), acked))
}

fn run_parent(args: &Args) -> ExitCode {
    match run_scenario(args) {
        Ok(digest) => {
            println!("digest={digest:016x}");
            println!("crash scenario '{}' seed {} passed", args.point, args.seed);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("chet-crash: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_scenario(args: &Args) -> Result<u64, String> {
    let dir = args.dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!(
            "chet-crash-{}-{}-{}",
            args.point,
            args.seed,
            std::process::id()
        ))
    });
    let _ = std::fs::remove_dir_all(&dir);
    let n = args.requests;
    // Round plan per scenario. Crash rounds either die at the planted
    // site or (if the plan's trigger count outruns the run) finish clean;
    // the final round must always finish clean.
    let rounds: Vec<(&str, u64)> = match args.point.as_str() {
        "none" => vec![("none", 0)],
        // Crash somewhere across the whole run — a span of 2N durable
        // flushes (N admissions + up to N completions) lets the seeded
        // kill land either before or after the first acks — then recover.
        "before-fsync" => vec![("before-fsync", 2 * n), ("none", 0)],
        "after-fsync" | "after-fsync-before-ack" => vec![("after-fsync", 2 * n), ("none", 0)],
        // Build a backlog with an early crash, crash again mid-replay of
        // that backlog, then recover for real.
        "mid-replay" => {
            vec![("after-fsync", (n / 3).max(1)), ("mid-replay", 2), ("none", 0)]
        }
        other => return Err(format!("unknown crash point '{other}'")),
    };

    // Acked digests accumulated across every round (every line a client
    // saw, in any life of the process).
    let mut acked: BTreeMap<String, u64> = BTreeMap::new();
    let total = rounds.len();
    for (i, (point, span)) in rounds.iter().enumerate() {
        let (clean, round_acks) = spawn_round(&dir, args.seed, point, *span, n)?;
        let last = i + 1 == total;
        eprintln!(
            "round {}/{total}: point={point} clean_exit={clean} acks={}",
            i + 1,
            round_acks.len()
        );
        if last && !clean {
            return Err("final clean round did not exit cleanly".to_string());
        }
        for (key, digest) in round_acks {
            if let Some(prev) = acked.get(&key) {
                if *prev != digest {
                    return Err(format!(
                        "key {key} acked with two different digests ({prev:016x} vs {digest:016x}): \
                         duplicate execution"
                    ));
                }
            }
            acked.insert(key, digest);
        }
    }

    // Audit the journal directly — not through the service — so the
    // assertions hold against what is actually on disk.
    let cfg = JournalConfig { enabled: true, completed_cache: 4096, ..JournalConfig::default() };
    let (_, report) =
        Journal::open(&dir, &cfg).map_err(|e| format!("opening journal for audit: {e}"))?;
    if report.double_completions != 0 {
        return Err(format!(
            "{} double completion(s) in the journal: duplicate execution",
            report.double_completions
        ));
    }
    if !report.pending.is_empty() {
        return Err(format!(
            "{} request(s) still pending after the clean final round",
            report.pending.len()
        ));
    }
    // Zero double executions, by key: each idempotency key completes at
    // most once across every life of the process.
    let mut completed: BTreeMap<String, u64> = BTreeMap::new();
    for resp in &report.completed {
        if completed.insert(resp.idempotency_key.clone(), resp.digest).is_some() {
            return Err(format!(
                "key {} completed more than once: duplicate execution",
                resp.idempotency_key
            ));
        }
    }
    // Zero lost acknowledged requests: every ack a client saw is durable,
    // digest-identical.
    for (key, digest) in &acked {
        match completed.get(key) {
            Some(d) if d == digest => {}
            Some(d) => {
                return Err(format!(
                    "key {key}: acked digest {digest:016x} but journal holds {d:016x}"
                ));
            }
            None => return Err(format!("key {key}: acknowledged but lost from the journal")),
        }
    }
    eprintln!(
        "audit: {} journal records, {} completed, {} acked, torn_tail={}",
        report.records,
        completed.len(),
        acked.len(),
        report.torn.is_some()
    );
    if !args.keep {
        let _ = std::fs::remove_dir_all(&dir);
    }
    // The scenario digest: sorted completed (key, digest) pairs. Pure
    // function of the seed and request set — bit-identical across
    // CHET_THREADS and across runs.
    let mut w = Vec::new();
    for (key, digest) in &completed {
        w.extend_from_slice(key.as_bytes());
        w.extend_from_slice(&digest.to_le_bytes());
    }
    Ok(fnv1a64(&w))
}
