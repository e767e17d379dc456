//! Per-op wall-clock attribution for one end-to-end encrypted inference —
//! the measurement-side complement of the static cost model.
//!
//! Wraps the real RNS-CKKS backend in a timing shim that buckets every
//! HISA call by op family (forwarding the batched rotation entry points so
//! hoisted key switching still fires), runs the reduced LeNet-5-small
//! through the same executor path `bench_rns_ops` times, and prints where
//! the seconds actually go. Use this when the calibration gate's
//! measured-vs-predicted gap moves: it says *which* op family the static
//! model is mispricing.

use chet_ckks::rns::RnsCkks;
use chet_compiler::Compiler;
use chet_hisa::params::SchemeKind;
use chet_hisa::{Hisa, HisaError, Instr, RotDir};
use chet_runtime::exec::{try_encrypt_input, try_run_encrypted_with, ExecControl};
use chet_runtime::kernels::ScaleConfig;
use chet_runtime::par::set_threads;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Timing wrapper: forwards every op to the inner backend and accumulates
/// wall-clock per bucket (a one-step rotation batch is a single `rotate`).
/// Single-threaded by construction (`fork` returns `None`), so the buckets
/// sum to the run's critical path.
struct Timed {
    inner: RnsCkks,
    buckets: BTreeMap<&'static str, (u64, Duration)>,
}

impl Timed {
    fn new(inner: RnsCkks) -> Self {
        Timed { inner, buckets: BTreeMap::new() }
    }

    fn time<T>(&mut self, bucket: &'static str, ops: u64, f: impl FnOnce(&mut RnsCkks) -> T) -> T {
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        let e = self.buckets.entry(bucket).or_insert((0, Duration::ZERO));
        e.0 += ops;
        e.1 += t0.elapsed();
        out
    }

    fn report(&self) {
        let total: Duration = self.buckets.values().map(|&(_, d)| d).sum();
        println!("per-op wall-clock attribution (total in-op {:.2} s):", total.as_secs_f64());
        let mut rows: Vec<_> = self.buckets.iter().collect();
        rows.sort_by(|a, b| b.1 .1.cmp(&a.1 .1));
        for (name, (count, dur)) in rows {
            println!(
                "  {name:>14}  x{count:<6} {:>9.1} ms  ({:>5.1}%)",
                dur.as_secs_f64() * 1e3,
                100.0 * dur.as_secs_f64() / total.as_secs_f64().max(f64::MIN_POSITIVE),
            );
        }
    }
}

impl Hisa for Timed {
    type Ct = <RnsCkks as Hisa>::Ct;
    type Pt = <RnsCkks as Hisa>::Pt;

    fn slots(&self) -> usize {
        self.inner.slots()
    }

    fn try_encode(&mut self, values: &[f64], scale: f64) -> Result<Self::Pt, HisaError> {
        self.time("encode", 1, |h| h.try_encode(values, scale))
    }

    fn decode(&mut self, p: &Self::Pt) -> Vec<f64> {
        self.inner.decode(p)
    }

    fn encrypt(&mut self, p: &Self::Pt) -> Self::Ct {
        self.inner.encrypt(p)
    }

    fn decrypt(&mut self, c: &Self::Ct) -> Self::Pt {
        self.inner.decrypt(c)
    }

    fn try_exec(&mut self, instr: Instr<'_, Self::Ct, Self::Pt>) -> Result<Self::Ct, HisaError> {
        self.time(instr.op().name(), 1, |h| h.try_exec(instr))
    }

    fn try_rotate(
        &mut self,
        c: &Self::Ct,
        dir: RotDir,
        steps: &[usize],
    ) -> Result<Vec<Self::Ct>, HisaError> {
        let bucket = if steps.len() == 1 { "rotate" } else { "rotateBatched" };
        self.time(bucket, steps.len() as u64, |h| h.try_rotate(c, dir, steps))
    }

    fn max_rescale(&mut self, c: &Self::Ct, ub: f64) -> f64 {
        self.inner.max_rescale(c, ub)
    }

    fn scale_of(&self, c: &Self::Ct) -> f64 {
        self.inner.scale_of(c)
    }

    fn available_rotations(&self) -> Option<std::collections::BTreeSet<usize>> {
        self.inner.available_rotations()
    }

    // No forking: every op runs (and is timed) on this wrapper.
}

fn main() {
    set_threads(1);
    let net = chet_networks::try_reduced("LeNet-5-small").expect("known network");
    let scales = ScaleConfig::from_log2(25, 12, 12, 10);
    let compiled = Compiler::new(SchemeKind::RnsCkks)
        .with_output_precision(2f64.powi(25))
        .compile(&net.circuit, &scales)
        .expect("LeNet-5-small compiles");
    println!(
        "reduced LeNet-5-small: N={}, chain={}, {} rotation keys",
        compiled.params.degree,
        compiled.params.modulus.chain_len(),
        compiled.rotation_keys.steps(compiled.params.degree / 2).len(),
    );
    let image = net.sample_image(11);

    let mut h = Timed::new(RnsCkks::new(&compiled.params, &compiled.rotation_keys, 7));
    let input =
        try_encrypt_input(&mut h, &net.circuit, &compiled.plan, &image).expect("input encrypts");
    let t0 = Instant::now();
    let _ = try_run_encrypted_with(&mut h, &net.circuit, &compiled.plan, input, &mut ExecControl::none())
        .expect("encrypted run succeeds");
    println!("end-to-end: {:.2} s", t0.elapsed().as_secs_f64());
    h.report();
}
