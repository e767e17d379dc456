//! RNS-CKKS op calibration benchmark — `BENCH_rns_ops.json`.
//!
//! Microbenchmarks every HISA primitive on the real RNS-CKKS backend
//! across (ring degree, chain length) configurations, fits the per-op
//! microsecond constants of the static cost model
//! ([`chet_hisa::cost::calibrate`]), and then closes the loop: it prices
//! the reduced LeNet-5-small circuit with the calibrated model
//! ([`chet_compiler::ir::cost::estimate`]) and compares the prediction
//! against a measured end-to-end encrypted run on the same backend.
//!
//! Every configuration uses the prime layout the compiler emits (60-bit
//! base and special primes around 30-bit rescale primes), so the sampled
//! ops run the same limb kernels as compiled networks: the 30-bit limbs
//! take the 32-bit-lane paths, the 60-bit ones the 64-bit paths.
//!
//! The emitted `BENCH_rns_ops.json` is the calibration artifact `ci.sh`
//! gates on: per-op fit quality (`max_rel_err`) and whole-network
//! prediction error (`network.rel_err`, required ≤ 0.30 by the paper
//! repro's acceptance bar) are both checked against committed bounds.

use chet_bench::{fmt_dur, print_table, HarnessArgs};
use chet_ckks::rns::RnsCkks;
use chet_compiler::ir::{cost as ir_cost, extract_ir, ExtractMode};
use chet_compiler::Compiler;
use chet_hisa::cost::{calibrate, CostSample, HisaOp, LevelInfo, ALL_OPS};
use chet_hisa::json::Json;
use chet_hisa::params::SchemeKind;
use chet_hisa::{EncryptionParams, Hisa, ModulusSpec, RotationKeyPolicy, SecurityLevel};
use chet_math::prime::ntt_primes;
use chet_runtime::exec::{try_encrypt_input, try_run_encrypted_with, ExecControl};
use chet_runtime::kernels::ScaleConfig;
use chet_runtime::par::set_threads;
use std::collections::BTreeMap;
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

/// Base and special prime size the compiler emits for RNS-CKKS.
const BASE_PRIME_BITS: u32 = 60;
/// Rescale prime size the compiler emits at the benchmark's working scale
/// (2^25 floors to 30-bit candidates, which take the 32-bit-lane kernels).
const RESCALE_PRIME_BITS: u32 = 30;

/// The prime layout `chet_compiler::params` emits for a chain of `r`
/// primes at degree `n`: one 60-bit base prime, `r − 1` 30-bit rescale
/// primes, and a 60-bit special prime.
fn compiler_layout(n: usize, r: usize) -> EncryptionParams {
    let mut primes = ntt_primes(BASE_PRIME_BITS, n, 2);
    let special = primes.remove(0);
    primes.extend(ntt_primes(RESCALE_PRIME_BITS, n, r - 1));
    EncryptionParams {
        degree: n,
        modulus: ModulusSpec::PrimeChain { primes, special },
        security: SecurityLevel::Insecure,
        error_stddev: EncryptionParams::DEFAULT_ERROR_STDDEV,
    }
}

/// Measures every HISA op on a fresh RNS-CKKS context at `(n, r)` and
/// returns one [`CostSample`] per op, all at the fresh-ciphertext modulus
/// state (full chain — the state the microbenchmark operands are in).
fn sample_config(n: usize, r: usize, reps: usize) -> Vec<CostSample> {
    let params = compiler_layout(n, r);
    // Several distinct rotation keys, cycled below: real inference streams a
    // different key almost every rotation, so a single hot key would
    // under-measure the memory-bound key-switch cost by nearly half.
    const KEY_STEPS: usize = 8;
    let policy = RotationKeyPolicy::Exact((1..=KEY_STEPS).collect());
    let mut h = RnsCkks::new(&params, &policy, 7);

    let scale = 2f64.powi(RESCALE_PRIME_BITS as i32);
    let slots = n / 2;
    let vals: Vec<f64> = (0..slots).map(|i| (i % 64) as f64 * 0.01).collect();
    let pt = h.try_encode(&vals, scale).expect("encode");
    let a = h.encrypt(&pt);
    let b = h.encrypt(&pt);
    // Rescale needs a ciphertext whose scale can drop by one chain prime:
    // the ct×ct product at scale² qualifies; `max_rescale` picks the
    // divisor the backend would actually use (one prime off the chain).
    let prod = h.try_mul(&a, &b).expect("mul");
    let divisor = h.max_rescale(&prod, 2f64.powi(RESCALE_PRIME_BITS as i32 + 1));

    let lvl = LevelInfo { log_q: params.modulus.log_q(), rns_len: r };
    // Keys are built on first use; build every keyed step's key before
    // timing (`bench_op` warms up with one call, which builds one key), so
    // the timed loop measures steady-state rotations.
    for step in 1..=KEY_STEPS {
        drop(h.try_rot_left(&a, step).expect("rot_left"));
    }
    // Cycle through the keyed steps so every rotation pulls a different key,
    // like the network does.
    let mut next_step = 0usize;
    let t_rotate = bench_op(
        || {
            next_step = next_step % KEY_STEPS + 1;
            drop(h.try_rot_left(&a, next_step).expect("rot_left"));
        },
        reps * KEY_STEPS,
    );
    // Hoisted rotations: one batched call rotating the same ciphertext by
    // every keyed step shares a single key-switch decomposition; the
    // per-extra-rotation cost beyond the first full rotation is the
    // `rotateHoisted` sample.
    let steps: Vec<usize> = (1..=KEY_STEPS).collect();
    let t_batch = bench_op(|| drop(h.try_rot_left_many(&a, &steps).expect("rot_left_many")), reps);
    let t_hoisted = t_batch.saturating_sub(t_rotate) / (KEY_STEPS as u32 - 1);
    let timed: Vec<(HisaOp, Duration)> = vec![
        (HisaOp::Add, bench_op(|| drop(h.try_add(&a, &b).expect("add")), reps)),
        (
            HisaOp::MulScalar,
            bench_op(|| drop(h.try_mul_scalar(&a, 1.5, scale).expect("mul_scalar")), reps),
        ),
        (HisaOp::MulPlain, bench_op(|| drop(h.try_mul_plain(&a, &pt).expect("mul_plain")), reps)),
        (HisaOp::MulCipher, bench_op(|| drop(h.try_mul(&a, &b).expect("mul")), reps)),
        (HisaOp::Rotate, t_rotate),
        (HisaOp::Rescale, bench_op(|| drop(h.try_rescale(&prod, divisor).expect("rescale")), reps)),
        (HisaOp::Encode, bench_op(|| drop(h.try_encode(&vals, scale).expect("encode")), reps)),
        (HisaOp::RotateHoisted, t_hoisted),
    ];
    timed
        .into_iter()
        .map(|(op, t)| CostSample { op, n, lvl, measured_us: t.as_secs_f64() * 1e6 })
        .collect()
}

/// Times one end-to-end encrypted inference of the reduced network on the
/// real RNS-CKKS backend (input encryption excluded — the cost model
/// prices the circuit body, not the client-side encrypt).
fn measure_network(model: &chet_hisa::cost::CostModel, reps: usize) -> (String, f64, f64) {
    let net = chet_networks::try_reduced("LeNet-5-small").expect("known network");
    let scales = ScaleConfig::REFERENCE;
    let compiled = Compiler::new(SchemeKind::RnsCkks)
        .with_output_precision(2f64.powi(25))
        .compile(&net.circuit, &scales)
        .expect("LeNet-5-small compiles");
    let image = net.sample_image(11);

    // One backend across all reps: the first inference warms the limb pool
    // (and is discarded), the rest measure steady-state latency. The median
    // damps the large run-to-run variance of a multi-second single-core run.
    let mut h = RnsCkks::new(&compiled.params, &compiled.rotation_keys, 7);
    let mut times = Vec::with_capacity(reps);
    for rep in 0..=reps {
        let input = try_encrypt_input(&mut h, &net.circuit, &compiled.plan, &image)
            .expect("input encrypts");
        let t0 = Instant::now();
        let _ = try_run_encrypted_with(
            &mut h,
            &net.circuit,
            &compiled.plan,
            input,
            &mut ExecControl::none(),
        )
        .expect("encrypted run succeeds");
        if rep > 0 {
            times.push(t0.elapsed());
        }
    }
    times.sort();
    let measured_us = times[times.len() / 2].as_secs_f64() * 1e6;

    let ir = extract_ir(&net.circuit, &compiled, ExtractMode::Metadata).expect("IR extracts");
    let breakdown = ir_cost::estimate(&ir, model);
    for line in breakdown.render_text(3).lines() {
        println!("  {line}");
    }
    (net.name.to_string(), measured_us, breakdown.total_us)
}

fn main() {
    let args = HarnessArgs::parse();
    let reps = if args.full { 20 } else { 5 };
    let net_reps = if args.full { 5 } else { 3 };
    // The static model prices sequential op streams; pin the runtime to
    // one thread so measured and predicted describe the same execution.
    set_threads(1);

    println!("== RNS-CKKS cost-model calibration ==\n");

    // (16384, 8) anchors the fit near the reduced network's own operating
    // point (N=16384, chain 10); without it the r≤4 configs extrapolate a
    // 3× span in the rotation weight r·(r+log n).
    let configs: &[(usize, usize)] = if args.full {
        &[(4096, 2), (8192, 2), (8192, 4), (16384, 4), (16384, 8)]
    } else {
        &[(4096, 2), (8192, 2), (8192, 4), (16384, 8)]
    };

    let mut samples = Vec::new();
    for &(n, r) in configs {
        println!("sampling N={n}, r={r} ({reps} reps/op)...");
        samples.extend(sample_config(n, r, reps));
    }

    let (model, fits) = calibrate(SchemeKind::RnsCkks, &samples);

    println!("\nper-op fits (least-squares through the origin):");
    let fit_rows: Vec<Vec<String>> = fits
        .iter()
        .map(|f| {
            vec![
                f.op.to_string(),
                format!("{:.4}", f.constant),
                f.samples.to_string(),
                format!("{:.1}%", f.max_rel_err * 100.0),
            ]
        })
        .collect();
    print_table(&["op", "µs constant", "samples", "max rel err"], &fit_rows);

    println!("\nper-sample predictions:");
    let sample_rows: Vec<Vec<String>> = samples
        .iter()
        .map(|s| {
            let pred = model.op_cost(s.op, s.n, s.lvl);
            vec![
                s.op.to_string(),
                format!("N={}, r={}", s.n, s.lvl.rns_len),
                fmt_dur(Duration::from_secs_f64(s.measured_us / 1e6)),
                fmt_dur(Duration::from_secs_f64(pred / 1e6)),
            ]
        })
        .collect();
    print_table(&["op", "config", "measured", "predicted"], &sample_rows);

    println!("\nwhole-network check (reduced LeNet-5-small, RNS backend, 1 thread)...");
    let (net_name, measured_us, predicted_us) = measure_network(&model, net_reps);
    let rel_err = (predicted_us - measured_us).abs() / measured_us;
    println!(
        "  measured {}  predicted {}  rel err {:.1}%",
        fmt_dur(Duration::from_secs_f64(measured_us / 1e6)),
        fmt_dur(Duration::from_secs_f64(predicted_us / 1e6)),
        rel_err * 100.0
    );

    // --- BENCH_rns_ops.json ---------------------------------------------
    let mut root = BTreeMap::new();
    root.insert("bench".into(), Json::Str("rns_ops".into()));
    root.insert("scheme".into(), Json::Str("rns-ckks".into()));
    root.insert("prime_bits".into(), Json::Num(f64::from(RESCALE_PRIME_BITS)));
    root.insert("base_prime_bits".into(), Json::Num(f64::from(BASE_PRIME_BITS)));

    let mut constants = BTreeMap::new();
    for op in ALL_OPS {
        constants.insert(op.to_string(), Json::Num(model.constant(op)));
    }
    root.insert("constants".into(), Json::Obj(constants));

    let fit_json: Vec<Json> = fits
        .iter()
        .map(|f| {
            let mut o = BTreeMap::new();
            o.insert("op".into(), Json::Str(f.op.to_string()));
            o.insert("constant".into(), Json::Num(f.constant));
            o.insert("samples".into(), Json::Num(f.samples as f64));
            o.insert("max_rel_err".into(), Json::Num(f.max_rel_err));
            Json::Obj(o)
        })
        .collect();
    root.insert("fits".into(), Json::Arr(fit_json));

    let op_json: Vec<Json> = samples
        .iter()
        .map(|s| {
            let mut o = BTreeMap::new();
            o.insert("op".into(), Json::Str(s.op.to_string()));
            o.insert("n".into(), Json::Num(s.n as f64));
            o.insert("log_q".into(), Json::Num(s.lvl.log_q));
            o.insert("rns_len".into(), Json::Num(s.lvl.rns_len as f64));
            o.insert("measured_us".into(), Json::Num(s.measured_us));
            o.insert("predicted_us".into(), Json::Num(model.op_cost(s.op, s.n, s.lvl)));
            Json::Obj(o)
        })
        .collect();
    root.insert("ops".into(), Json::Arr(op_json));

    let mut net_json = BTreeMap::new();
    net_json.insert("name".into(), Json::Str(net_name));
    net_json.insert("measured_us".into(), Json::Num(measured_us));
    net_json.insert("predicted_us".into(), Json::Num(predicted_us));
    net_json.insert("rel_err".into(), Json::Num(rel_err));
    root.insert("network".into(), Json::Obj(net_json));

    let rendered = Json::Obj(root).render();
    std::fs::write("BENCH_rns_ops.json", &rendered).expect("write BENCH_rns_ops.json");
    println!("\nwrote BENCH_rns_ops.json");
}
