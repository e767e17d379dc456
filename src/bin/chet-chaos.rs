//! `chet-chaos` — seeded chaos soak over the serving layer.
//!
//! Starts an [`InferenceService`] over the small CNN with every
//! serve-layer fault class enabled (slow workers, bounded hangs,
//! bit-flipped ciphertexts, dropped rotation keys, dropped responses),
//! drives a sequential request soak through it, and prints a digest of
//! the complete outcome trajectory. The soak enforces the robustness
//! contract as it runs:
//!
//! * every request resolves — ok, flagged-degraded, or a typed error;
//! * every answer that does come back matches the plaintext reference
//!   (a surviving corruption exits 1);
//! * the digest is a pure function of the chaos seed: CI runs the same
//!   seed under `CHET_THREADS=1` and `CHET_THREADS=4` and requires
//!   byte-identical digests.
//!
//! ```text
//! chet-chaos [--seed N] [--requests N] [--workers N]
//! ```

use chet::ckks::sim::SimCkks;
use chet::compiler::Compiler;
use chet::hisa::params::SchemeKind;
use chet::runtime::fault::FaultPlan;
use chet::runtime::kernels::ScaleConfig;
use chet::serve::{
    BreakerConfig, ChaosPlan, InferenceService, RetryPolicy, ServeConfig, ServeError,
};
use chet::tensor::circuit::{Circuit, CircuitBuilder};
use chet::tensor::ops::Padding;
use chet::{CompiledCircuit, Tensor};
use std::time::Duration;

fn small_cnn() -> Circuit {
    let mut b = CircuitBuilder::new();
    let x = b.input(vec![1, 6, 6]);
    let w = Tensor::from_fn(vec![2, 1, 3, 3], |i| (i[2] * 3 + i[3]) as f64 * 0.05 - 0.1);
    let c = b.conv2d(x, w, Some(vec![0.1, -0.1]), 1, Padding::Valid);
    let a = b.activation(c, 0.2, 0.9);
    let p = b.avg_pool2d(a, 2, 2);
    b.build(p)
}

fn image(seed: u64) -> Tensor {
    Tensor::random(vec![1, 6, 6], 1.0, seed)
}

fn compiler() -> Compiler {
    Compiler::new(SchemeKind::RnsCkks).with_output_precision(2f64.powi(20))
}

fn chaos_plan(seed: u64) -> ChaosPlan {
    ChaosPlan {
        seed,
        drop_responses: 0.03,
        faults: FaultPlan {
            slow: Some(0.01),
            hung: Some(0.002),
            nan_slots: Some(0.002),
            drop_rotation_keys: Some(0.003),
            slow_pause: Duration::from_micros(50),
            hang_pause: Duration::from_millis(4),
            ..FaultPlan::none(0.0)
        },
    }
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn parse_args() -> (u64, u64, usize) {
    let mut seed = 0xC4A0_5EEDu64;
    let mut requests = 208u64;
    let mut workers = 2usize;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut grab = |name: &str| {
            args.next().and_then(|v| v.parse::<u64>().ok()).unwrap_or_else(|| {
                eprintln!("chet-chaos: {name} needs a numeric value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--seed" => seed = grab("--seed"),
            "--requests" => requests = grab("--requests"),
            "--workers" => workers = grab("--workers") as usize,
            other => {
                eprintln!("chet-chaos: unknown flag {other}");
                eprintln!("usage: chet-chaos [--seed N] [--requests N] [--workers N]");
                std::process::exit(2);
            }
        }
    }
    (seed, requests, workers)
}

fn main() {
    let (seed, requests, workers) = parse_args();

    let circuit = small_cnn();
    let (reference_artifact, _): (CompiledCircuit, _) = compiler()
        .compile_checked(&circuit, &ScaleConfig::REFERENCE)
        .unwrap_or_else(|e| {
            eprintln!("chet-chaos: reference compile failed: {e}");
            std::process::exit(2);
        });

    let config = ServeConfig {
        workers,
        queue_capacity: 256,
        retry: RetryPolicy {
            max_attempts: 3,
            base: Duration::from_micros(50),
            cap: Duration::from_millis(1),
            jitter: 0.25,
            seed: 0x00C0_FFEE,
        },
        breaker: BreakerConfig { failure_threshold: 3, open_requests: 2, half_open_successes: 1 },
        chaos: Some(chaos_plan(seed)),
        ..ServeConfig::default()
    };
    let svc = InferenceService::start_with_compiler(
        compiler(),
        small_cnn(),
        ScaleConfig::REFERENCE,
        config,
        |_, compiled| SimCkks::new(&compiled.params, &compiled.rotation_keys, 9).without_noise(),
    )
    .unwrap_or_else(|e| {
        eprintln!("chet-chaos: service failed to start: {e}");
        std::process::exit(2);
    });

    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    let mut wrong_answers = 0u64;
    for i in 0..requests {
        let img = image(1000 + i);
        let ticket = match svc.submit(img.clone()) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("chet-chaos: sequential submit rejected: {e}");
                std::process::exit(1);
            }
        };
        let id = ticket.id();
        digest = fnv1a(digest, &id.to_le_bytes());
        match ticket.wait() {
            Ok(resp) => {
                let mut sim =
                    SimCkks::new(&reference_artifact.params, &reference_artifact.rotation_keys, 9)
                        .without_noise();
                let want = chet::runtime::exec::try_infer(
                    &mut sim,
                    &circuit,
                    &reference_artifact.plan,
                    &img,
                )
                .expect("reference run is fault-free");
                let ok = resp.output.shape() == want.shape()
                    && resp.output.data().iter().zip(want.data()).all(|(a, b)| (a - b).abs() < 1e-3);
                if !ok {
                    eprintln!("chet-chaos: request {id}: WRONG ANSWER surfaced as success");
                    wrong_answers += 1;
                }
                digest = fnv1a(digest, &[1, u8::from(resp.degraded)]);
                digest = fnv1a(digest, &(resp.attempts as u32).to_le_bytes());
                for v in resp.output.data() {
                    digest = fnv1a(digest, &v.to_bits().to_le_bytes());
                }
            }
            Err(e) => {
                let label = match e {
                    ServeError::Failed { attempts, .. } => format!("failed:{attempts}"),
                    ServeError::WorkerLost => "worker-lost".into(),
                    ServeError::Cancelled(r) => format!("cancelled:{r:?}"),
                    other => {
                        eprintln!("chet-chaos: request {id}: unexpected error class: {other}");
                        std::process::exit(1);
                    }
                };
                digest = fnv1a(digest, &[2]);
                digest = fnv1a(digest, label.as_bytes());
            }
        }
    }

    let stats = svc.shutdown();
    println!(
        "requests={} ok={} degraded={} failed={} cancelled={} dropped_responses={} \
         retries={} retries_exhausted={} repairs={} watchdog_escalations={} panics={}",
        requests,
        stats.completed_ok,
        stats.degraded,
        stats.failed,
        stats.cancelled,
        stats.dropped_responses,
        stats.retries,
        stats.retries_exhausted,
        stats.repairs,
        stats.watchdog_escalations,
        stats.panics_caught,
    );
    println!("digest=0x{digest:016X}");

    if stats.panics_caught > 0 {
        eprintln!("chet-chaos: fault injection must never panic a worker");
        std::process::exit(1);
    }
    if wrong_answers > 0 {
        eprintln!("chet-chaos: {wrong_answers} wrong answers — corruption went undetected");
        std::process::exit(1);
    }
}
