//! Table 1 — asymptotic costs of HISA primitives for CKKS and RNS-CKKS.
//!
//! Microbenchmarks each HISA op on the real backends across ring degrees
//! and modulus sizes, and reports how measured time scales next to the
//! paper's asymptotic predictions:
//!
//! * RNS-CKKS: add/mulScalar/mulPlain ∝ `N·r`; mul/rotate ∝ `N·logN·r²`.
//! * CKKS: add ∝ `N·logQ`; mulScalar ∝ `N·M(Q)`; mulPlain/mul/rotate ∝
//!   `N·logN·M(Q)`.

use chet_bench::{fmt_dur, print_table, HarnessArgs};
use chet_ckks::big::BigCkks;
use chet_ckks::rns::RnsCkks;
use chet_hisa::{EncryptionParams, Hisa, RotationKeyPolicy, SecurityLevel};
use std::time::{Duration, Instant};

fn bench_op(mut f: impl FnMut(), reps: usize) -> Duration {
    // Warmup.
    f();
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed() / reps as u32
}

fn bench_backend<H: Hisa>(h: &mut H, reps: usize) -> Vec<Duration> {
    let scale = 2f64.powi(30);
    let vals: Vec<f64> = (0..64).map(|i| i as f64 * 0.01).collect();
    let pt = h.try_encode(&vals, scale).expect("encode");
    let a = h.encrypt(&pt);
    let b = h.encrypt(&pt);
    vec![
        bench_op(|| drop(h.try_add(&a, &b).expect("add")), reps),
        bench_op(|| drop(h.try_mul_scalar(&a, 1.5, scale).expect("mul_scalar")), reps),
        bench_op(|| drop(h.try_mul_plain(&a, &pt).expect("mul_plain")), reps),
        bench_op(|| drop(h.try_mul(&a, &b).expect("mul")), reps),
        bench_op(|| drop(h.try_rot_left(&a, 1).expect("rot_left")), reps),
    ]
}

fn main() {
    let args = HarnessArgs::parse();
    let reps = if args.full { 20 } else { 5 };
    let ops = ["add", "mulScalar", "mulPlain", "mul (ct×ct)", "rotate"];

    println!("== Table 1: HISA primitive costs ==\n");

    println!("RNS-CKKS (SEAL-style) — expected: add/scalar/plain ~ N·r, mul/rot ~ N·logN·r²");
    let mut rows = Vec::new();
    let configs: &[(usize, usize)] =
        if args.full { &[(4096, 2), (8192, 2), (8192, 4), (16384, 4), (16384, 8)] } else { &[(4096, 2), (8192, 2), (8192, 4)] };
    let mut baseline: Option<Vec<Duration>> = None;
    for &(n, r) in configs {
        let params = EncryptionParams::rns_ckks(n, 40, r)
            .with_security(SecurityLevel::Insecure);
        let policy = RotationKeyPolicy::Exact([1usize].into_iter().collect());
        let mut h = RnsCkks::new(&params, &policy, 7);
        let times = bench_backend(&mut h, reps);
        let mut row = vec![format!("N={n}, r={r}")];
        for (i, t) in times.iter().enumerate() {
            let rel = baseline
                .as_ref()
                .map(|b| format!(" ({:.1}x)", t.as_secs_f64() / b[i].as_secs_f64()))
                .unwrap_or_default();
            row.push(format!("{}{}", fmt_dur(*t), rel));
        }
        if baseline.is_none() {
            baseline = Some(times);
        }
        rows.push(row);
    }
    let headers: Vec<&str> = std::iter::once("config").chain(ops.iter().copied()).collect();
    print_table(&headers, &rows);

    println!("\nCKKS (HEAAN-style) — expected: add ~ N·logQ, mulScalar ~ N·M(Q), others ~ N·logN·M(Q)");
    let mut rows = Vec::new();
    let configs: &[(usize, u32)] =
        if args.full { &[(2048, 120), (4096, 120), (4096, 240), (8192, 240)] } else { &[(2048, 120), (4096, 120)] };
    let mut baseline: Option<Vec<Duration>> = None;
    for &(n, log_q) in configs {
        let params = EncryptionParams::ckks(n, log_q).with_security(SecurityLevel::Insecure);
        let policy = RotationKeyPolicy::Exact([1usize].into_iter().collect());
        let mut h = BigCkks::new(&params, &policy, 7);
        let times = bench_backend(&mut h, reps);
        let mut row = vec![format!("N={n}, logQ={log_q}")];
        for (i, t) in times.iter().enumerate() {
            let rel = baseline
                .as_ref()
                .map(|b| format!(" ({:.1}x)", t.as_secs_f64() / b[i].as_secs_f64()))
                .unwrap_or_default();
            row.push(format!("{}{}", fmt_dur(*t), rel));
        }
        if baseline.is_none() {
            baseline = Some(times);
        }
        rows.push(row);
    }
    print_table(&headers, &rows);

    println!(
        "\nShape check (paper Table 1): mulScalar ≈ mulPlain under RNS-CKKS, while \
         mulScalar is much cheaper than mulPlain under CKKS — the asymmetry driving \
         the HW-vs-CHW layout trade-off."
    );
}
