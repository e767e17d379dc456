//! Direct, call-side measurements of the layers below `chet-serve`: the
//! compile pipeline (core), encrypted execution (runtime), unit HISA ops
//! (ckks) and the NTT / thread pool (math). Everything here goes through
//! public functions only; the one trait implemented is the single-method
//! `ExecObserver`, for node boundaries.

use crate::spans::SpanLog;
use crate::stats::per_call_us;
use chet_compiler::ir::{analyze, cost as ir_cost, extract_ir, ExtractMode, IrGraph, IrOp};
use chet_compiler::verify::verify_compiled;
use chet_compiler::{CompiledCircuit, Compiler};
use chet_hisa::cost::{calibrate, CostModel, CostSample, HisaOp, LevelInfo, ALL_OPS};
use chet_hisa::keys::plan_rotation;
use chet_hisa::params::SchemeKind;
use chet_hisa::{Hisa, HisaError};
use chet_math::ntt::NttTable;
use chet_networks::Network;
use chet_runtime::exec::{
    try_encrypt_input, try_infer_batch_with_control, try_run_encrypted_with, ExecControl,
    ExecError, ExecObserver,
};
use chet_runtime::kernels::ScaleConfig;
use chet_runtime::{decrypt_tensor, par};
use chet_tensor::Tensor;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// The fixed-point scales every workload compiles with.
pub fn scales() -> ScaleConfig {
    ScaleConfig::from_log2(25, 12, 12, 10)
}

/// The compiler every workload uses: RNS-CKKS, output precision 2^25.
pub fn compiler() -> Compiler {
    Compiler::new(SchemeKind::RnsCkks).with_output_precision(2f64.powi(25))
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Largest |a - b| over two equally long value lists (∞ on a length mismatch).
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// The plain reference every reply is checked against.
pub fn reference(net: &Network, image: &Tensor) -> Tensor {
    net.circuit.eval(std::slice::from_ref(image))
}

// ---- core ---------------------------------------------------------------

/// One network through the compile pipeline, stage by stage.
pub struct Pipeline {
    pub compile_ms: f64,
    pub verify_ms: f64,
    pub extract_ir_ms: f64,
    pub analyze_ms: f64,
    pub estimate_ms: f64,
    pub total_ms: f64,
    pub denies: usize,
    pub p_findings: usize,
    pub hoistable_groups: usize,
    pub rotation_keys: usize,
    pub chain_len: usize,
    pub ir_nodes: usize,
    pub ir_rotations: usize,
}

/// `compile → verify_compiled → extract_ir(Metadata) → analyze → estimate`,
/// one span per stage under a `core.pipeline` span.
pub fn pipeline(net: &Network, log: &SpanLog, request: Option<u64>) -> Result<Pipeline, String> {
    let start = Instant::now();
    let root = log.open("core.pipeline", None, request);
    let (compiled, compile_ms) = log.time("core.compile", root, request, || {
        compiler().compile(&net.circuit, &scales())
    });
    let compiled = compiled.map_err(|e| format!("{}: compile failed: {e}", net.name))?;
    let (report, verify_ms) = log.time("core.verify", root, request, || {
        verify_compiled(&net.circuit, &compiled)
    });
    let (ir, extract_ir_ms) = log.time("core.extract_ir", root, request, || {
        extract_ir(&net.circuit, &compiled, ExtractMode::Metadata)
    });
    let ir = ir.map_err(|e| format!("{}: IR extraction failed: {e}", net.name))?;
    let (findings, analyze_ms) = log.time("core.analyze", root, request, || analyze::analyze(&ir));
    let model = CostModel::for_scheme(SchemeKind::RnsCkks);
    let (_, estimate_ms) = log.time("core.estimate", root, request, || {
        ir_cost::estimate(&ir, &model)
    });
    log.close(root);
    let total_ms = ms_since(start);
    let hoistable_groups = findings
        .iter()
        .filter(|d| d.code.code() == "CHET-P002")
        .count();
    Ok(Pipeline {
        compile_ms,
        verify_ms,
        extract_ir_ms,
        analyze_ms,
        estimate_ms,
        total_ms,
        denies: report.deny_count(),
        p_findings: findings.len(),
        hoistable_groups,
        rotation_keys: compiled.rotation_keys.steps(compiled.params.slots()).len(),
        chain_len: compiled.params.modulus.chain_len(),
        ir_nodes: ir.nodes.len(),
        ir_rotations: ir
            .nodes
            .iter()
            .filter(|n| matches!(n.op, IrOp::RotLeft { .. }))
            .count(),
    })
}

/// The HISA instruction stream of an artifact (metadata only).
pub fn ir_of(net: &Network, compiled: &CompiledCircuit) -> Result<IrGraph, String> {
    extract_ir(&net.circuit, compiled, ExtractMode::Metadata)
        .map_err(|e| format!("{}: IR extraction failed: {e}", net.name))
}

/// The production compile path (`compile_checked`) for each network; the
/// summed wall clock in ms and the artifacts.
pub fn compile_checked_all(nets: &[Network]) -> Result<(f64, Vec<CompiledCircuit>), String> {
    let start = Instant::now();
    let compiled = nets
        .iter()
        .map(|net| {
            compiler()
                .compile_checked(&net.circuit, &scales())
                .map(|(c, _)| c)
                .map_err(|e| format!("{}: compile_checked failed: {e}", net.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((ms_since(start), compiled))
}

// ---- runtime ------------------------------------------------------------

/// Node boundaries of one encrypted run (`on_op` fires before each node).
#[derive(Default)]
struct NodeClock {
    marks: Vec<(String, Instant)>,
}

impl ExecObserver for NodeClock {
    fn on_op(&mut self, _op_index: usize, op: &str) {
        self.marks.push((op.to_string(), Instant::now()));
    }
}

/// One encrypt → run → decrypt through the runtime's public entry points.
pub struct DirectInfer {
    pub encrypt_ms: f64,
    pub run_ms: f64,
    pub decrypt_ms: f64,
    pub infer_ms: f64,
    /// Wall clock per node kind, and what of `run_ms` no node accounts for.
    pub node_ms: BTreeMap<&'static str, f64>,
    pub node_residual_ms: f64,
    pub output: Tensor,
}

pub const NODE_KINDS: [&str; 5] = ["conv2d", "matmul", "avg_pool2d", "activation", "other"];

pub fn direct_infer<H: Hisa>(
    h: &mut H,
    net: &Network,
    compiled: &CompiledCircuit,
    image: &Tensor,
    log: &SpanLog,
) -> Result<DirectInfer, ExecError> {
    let start = Instant::now();
    let root = log.open("runtime.infer", None, None);
    let (input, encrypt_ms) = log.time("runtime.encrypt", root, None, || {
        try_encrypt_input(h, &net.circuit, &compiled.plan, image)
    });
    let input = input?;
    let mut clock = NodeClock::default();
    let run_start = Instant::now();
    let ran = {
        let mut ctrl = ExecControl {
            cancel: None,
            observer: Some(&mut clock),
        };
        try_run_encrypted_with(h, &net.circuit, &compiled.plan, input, &mut ctrl)
    };
    let run_end = Instant::now();
    let (out, _) = ran?;
    let s_run = log.record("runtime.run", run_start, run_end, root, None);
    let (output, decrypt_ms) = log.time("runtime.decrypt", root, None, || decrypt_tensor(h, &out));
    log.close(root);
    let infer_ms = ms_since(start);

    let mut node_ms: BTreeMap<&'static str, f64> = NODE_KINDS.iter().map(|&k| (k, 0.0)).collect();
    let ends = clock.marks.iter().skip(1).map(|m| m.1).chain([run_end]);
    for ((op, begin), finish) in clock.marks.iter().zip(ends) {
        let kind = NODE_KINDS
            .iter()
            .copied()
            .find(|k| k == op)
            .unwrap_or("other");
        *node_ms.entry(kind).or_default() += (finish - *begin).as_secs_f64() * 1e3;
        log.record(&format!("runtime.node.{op}"), *begin, finish, s_run, None);
    }
    let run_ms = (run_end - run_start).as_secs_f64() * 1e3;
    Ok(DirectInfer {
        encrypt_ms,
        run_ms,
        decrypt_ms,
        infer_ms,
        node_residual_ms: run_ms - node_ms.values().sum::<f64>(),
        node_ms,
        output,
    })
}

/// One batched inference at the widest power-of-two batch up to 8 the
/// artifact packs; wall clock in ms and the largest deviation from the
/// plain reference over the members.
pub fn direct_batch<H: Hisa>(
    h: &mut H,
    net: &Network,
    compiled: &CompiledCircuit,
    seed: u64,
) -> Result<(f64, f64), ExecError> {
    let capacity = compiled.batch_capacity(&net.circuit).max(1);
    let batch = 1usize << capacity.min(8).ilog2();
    let images: Vec<Tensor> = (0..batch as u64)
        .map(|i| net.sample_image(seed.wrapping_add(i)))
        .collect();
    let refs: Vec<&Tensor> = images.iter().collect();
    let start = Instant::now();
    let (outputs, _) = try_infer_batch_with_control(
        h,
        &net.circuit,
        &compiled.plan,
        &refs,
        batch,
        &mut ExecControl::none(),
    )?;
    let elapsed = ms_since(start);
    let err = images
        .iter()
        .zip(&outputs)
        .map(|(image, out)| max_abs_diff(out.data(), reference(net, image).data()))
        .fold(0.0, f64::max);
    Ok((elapsed, err))
}

/// Runs `f` with the process-global thread count set to `threads`.
pub fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let before = par::threads();
    par::set_threads(threads);
    let out = f();
    par::set_threads(before);
    out
}

// ---- ckks ---------------------------------------------------------------

/// Unit times of the HISA ops at one modulus state.
pub struct UnitTimes {
    pub rns_len: usize,
    pub us: BTreeMap<HisaOp, f64>,
    pub encrypt_us: f64,
    pub decrypt_us: f64,
}

/// [`per_call_us`] of a fallible op; the first error aborts the section.
fn unit_us<T>(reps: usize, mut f: impl FnMut() -> Result<T, HisaError>) -> Result<f64, HisaError> {
    let mut failed = None;
    let us = per_call_us(reps, || {
        if let Err(e) = f() {
            failed.get_or_insert(e);
        }
    });
    failed.map_or(Ok(us), Err)
}

/// The divisor that rescales `c` by exactly one chain prime (1.0 when no
/// level is left): the smallest doubling bound that admits one prime
/// cannot admit two.
fn one_prime<H: Hisa>(h: &mut H, c: &H::Ct) -> f64 {
    (16..70)
        .map(|bits| h.max_rescale(c, 2f64.powi(bits)))
        .find(|&d| d > 1.0)
        .unwrap_or(1.0)
}

/// Drops `c` one level while keeping its scale.
fn drop_level<H: Hisa>(h: &mut H, c: &H::Ct) -> Result<H::Ct, HisaError> {
    let d = one_prime(h, c);
    let lifted = h.try_mul_scalar(c, 1.0, d)?;
    h.try_rescale(&lifted, d)
}

/// Times every HISA op call-side on ciphertexts `drop` levels below the
/// top of a chain of `top_len` primes. Rotations cycle through up to eight
/// distinct keyed steps, as inference streams a different key almost every
/// rotation; the hoisted time is the per-extra-rotation cost of one
/// `try_rot_left_many` call over the same steps.
pub fn unit_ops<H: Hisa>(
    h: &mut H,
    scales: &ScaleConfig,
    top_len: usize,
    drop: usize,
    reps: usize,
) -> Result<UnitTimes, HisaError> {
    let slots = h.slots();
    let vals: Vec<f64> = (0..slots).map(|i| (i % 64) as f64 * 0.01).collect();
    let steps: Vec<usize> = match h.available_rotations() {
        Some(keyed) if !keyed.is_empty() => keyed.into_iter().take(8).collect(),
        _ => (1..=8).collect(),
    };
    let encode_us = unit_us(reps, || h.try_encode(&vals, scales.input))?;
    let pt = h.try_encode(&vals, scales.input)?;
    let weights = h.try_encode(&vals, scales.weight_plain)?;
    let encrypt_us = unit_us(reps, || Ok(h.encrypt(&pt)))?;
    let mut a = h.encrypt(&pt);
    let mut b = h.encrypt(&pt);
    for _ in 0..drop {
        a = drop_level(h, &a)?;
        b = drop_level(h, &b)?;
    }
    let decrypt_us = unit_us(reps, || Ok(h.decrypt(&a)))?;
    let prod = h.try_mul(&a, &b)?;
    let divisor = one_prime(h, &prod);

    let mut us = BTreeMap::new();
    us.insert(HisaOp::Encode, encode_us);
    us.insert(HisaOp::Add, unit_us(reps, || h.try_add(&a, &b))?);
    us.insert(
        HisaOp::MulScalar,
        unit_us(reps, || h.try_mul_scalar(&a, 1.5, scales.weight_scalar))?,
    );
    us.insert(
        HisaOp::MulPlain,
        unit_us(reps, || h.try_mul_plain(&a, &weights))?,
    );
    us.insert(HisaOp::MulCipher, unit_us(reps, || h.try_mul(&a, &b))?);
    us.insert(
        HisaOp::Rescale,
        unit_us(reps, || h.try_rescale(&prod, divisor))?,
    );
    let mut next = 0usize;
    let rotate_us = unit_us(reps.max(steps.len()), || {
        next = (next + 1) % steps.len();
        h.try_rot_left(&a, steps[next])
    })?;
    us.insert(HisaOp::Rotate, rotate_us);
    let hoisted_us = if steps.len() > 1 {
        let batch_us = unit_us(reps.div_ceil(2), || h.try_rot_left_many(&a, &steps))?;
        ((batch_us - rotate_us) / (steps.len() - 1) as f64).max(0.0)
    } else {
        rotate_us
    };
    us.insert(HisaOp::RotateHoisted, hoisted_us);
    Ok(UnitTimes {
        rns_len: top_len - drop,
        us,
        encrypt_us,
        decrypt_us,
    })
}

/// The op-family ledger of one inference: every IR instruction priced at
/// the unit time measured for its op, interpolated by limb count between
/// the two measured modulus states. Classification follows the executor:
/// the first rotation of a source ciphertext pays the key-switch
/// decomposition, later ones share it (`try_rot_left_many`); composed
/// rotations pay one full rotation per extra hop.
pub struct OpLedger {
    /// (op, elementary executions, priced ms), in `ALL_OPS` order.
    pub rows: Vec<(HisaOp, u64, f64)>,
}

impl OpLedger {
    pub fn count(&self, op: HisaOp) -> u64 {
        self.rows.iter().find(|r| r.0 == op).map_or(0, |r| r.1)
    }

    pub fn ms(&self, ops: &[HisaOp]) -> f64 {
        self.rows
            .iter()
            .filter(|r| ops.contains(&r.0))
            .map(|r| r.2)
            .sum()
    }

    pub fn total_ms(&self) -> f64 {
        self.rows.iter().map(|r| r.2).sum()
    }
}

pub fn op_ledger(ir: &IrGraph, top: &UnitTimes, low: &UnitTimes) -> OpLedger {
    let unit = |op: HisaOp, rns_len: usize| -> f64 {
        let (t, l) = (top.us[&op], low.us[&op]);
        if top.rns_len == low.rns_len {
            return t;
        }
        let x = (rns_len as f64 - low.rns_len as f64) / (top.rns_len as f64 - low.rns_len as f64);
        (l + (t - l) * x).max(0.0)
    };
    let mut acc: BTreeMap<HisaOp, (u64, f64)> = BTreeMap::new();
    let mut charge = |op: HisaOp, count: u64, rns_len: usize| {
        let e = acc.entry(op).or_default();
        e.0 += count;
        e.1 += unit(op, rns_len) * count as f64 / 1e3;
    };
    let mut rotated: BTreeSet<usize> = BTreeSet::new();
    for node in &ir.nodes {
        let r = node.level.rns_len;
        match node.op {
            IrOp::Input { .. } => {}
            IrOp::RotLeft { a, step } => {
                let hops = plan_rotation(step, &ir.keyed_steps, ir.slots)
                    .map_or(1, |p| p.len().max(1)) as u64;
                if rotated.insert(a) {
                    charge(HisaOp::Rotate, hops, r);
                } else {
                    charge(HisaOp::RotateHoisted, 1, r);
                    charge(HisaOp::Rotate, hops - 1, r);
                }
            }
            IrOp::Mul { .. } => charge(HisaOp::MulCipher, 1, r),
            IrOp::MulPlain { .. } => charge(HisaOp::MulPlain, 1, r),
            IrOp::MulScalar { .. } => charge(HisaOp::MulScalar, 1, r),
            IrOp::Rescale { .. } => charge(HisaOp::Rescale, 1, r),
            IrOp::Add { .. }
            | IrOp::Sub { .. }
            | IrOp::AddPlain { .. }
            | IrOp::SubPlain { .. }
            | IrOp::AddScalar { .. } => charge(HisaOp::Add, 1, r),
        }
    }
    // Server-side encodes run at the top of the chain.
    charge(HisaOp::Encode, ir.encodes.len() as u64, top.rns_len);
    let rows = ALL_OPS
        .iter()
        .map(|&op| {
            let (count, ms) = acc.get(&op).copied().unwrap_or_default();
            (op, count, ms)
        })
        .collect();
    OpLedger { rows }
}

/// The analytic `CostModel` fitted to this run's unit times, and its
/// price for one inference of `ir`, in ms.
pub fn calibrated_prediction_ms(ir: &IrGraph, top: &UnitTimes, low: &UnitTimes) -> f64 {
    let samples: Vec<CostSample> = [top, low]
        .into_iter()
        .flat_map(|t| {
            let lvl = LevelInfo {
                log_q: ir.log_q * t.rns_len as f64 / top.rns_len as f64,
                rns_len: t.rns_len,
            };
            t.us.iter().map(move |(&op, &measured_us)| CostSample {
                op,
                n: ir.degree,
                lvl,
                measured_us,
            })
        })
        .collect();
    let (model, _) = calibrate(ir.scheme, &samples);
    ir_cost::estimate(ir, &model).total_us / 1e3
}

// ---- math ---------------------------------------------------------------

/// Median forward / inverse negacyclic NTT of one limb at degree `n`, µs.
pub fn ntt_us(n: usize, reps: usize) -> (f64, f64) {
    let q = chet_math::prime::ntt_primes(40, n, 1)[0];
    let table = NttTable::new(q, n).expect("an NTT-friendly prime admits a table");
    let mut limb: Vec<u64> = (0..n as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % q)
        .collect();
    let fwd = per_call_us(reps, || table.forward(std::hint::black_box(&mut limb)));
    let inv = per_call_us(reps, || table.inverse(std::hint::black_box(&mut limb)));
    (fwd, inv)
}

/// Median cost of opening and closing one empty parallel region, µs.
pub fn par_dispatch_us(width: usize, reps: usize) -> f64 {
    per_call_us(reps, || {
        chet_math::par::parallel_for(width, &|i| {
            std::hint::black_box(i);
        });
    })
}
