//! The whole-circuit HISA intermediate representation (ROADMAP #5).
//!
//! The paper's compiler deliberately never materializes a data-flow graph
//! (§5.1): every analysis is an on-the-fly interpretation of the circuit.
//! That works for *local* facts (scales, levels, key sets) but cannot see
//! whole-program structure — duplicate rotations across kernels, common
//! subexpressions, dead computation — and cannot *predict* latency. This
//! module adds the missing substrate without giving up the §5.1 mechanism:
//! the IR is extracted *by* an interpretation. [`TraceInterp`] implements
//! [`Hisa`] with symbolic ciphertexts (an SSA id plus the scale/level fact
//! the simulator would carry) and records every instruction the standard
//! executor and kernels issue, producing an [`IrGraph`] — the exact HISA
//! instruction stream of one inference, in program order.
//!
//! Three consumers ride on the graph:
//!
//! * [`analyze`](crate::ir::analyze) — the rotation/CSE analyzer emitting
//!   the stable `CHET-P0xx` performance lints.
//! * [`cost`](crate::ir::cost) — the calibrated static cost model: per-op
//!   microsecond predictions summed over the instruction stream.
//! * [`try_replay_ir`] — a faithful re-interpreter: replaying the graph on
//!   a backend reproduces the original execution bit-for-bit (the property
//!   [`crate::equiv`] turns into a translation validator).
//!
//! Fidelity contract: [`TraceInterp`] mirrors the `SimCkks` reference
//! backend's *decision surface* exactly — `scale_of`, `max_rescale`, the
//! rescale chain-pop loop, rotation normalization/planning, and every error
//! condition. Kernels branch only on that surface (never on slot values),
//! so the recorded instruction stream is the one any value-level backend
//! executes, and replay is bit-identical to direct inference.

pub mod analyze;
pub mod cost;

use crate::compiler::CompiledCircuit;
use crate::verify::OpSpan;
use chet_hisa::keys::plan_rotation;
use chet_hisa::params::{ModulusSpec, SchemeKind};
use chet_hisa::serial::fnv1a64;
use chet_hisa::{Hisa, HisaError, Instr, LevelInfo, RotDir};
use chet_runtime::ciphertensor::{decrypt_tensor, try_encrypt_tensor, CipherTensor};
use chet_runtime::exec::{
    try_encrypt_input, try_run_encrypted_with, ExecControl, ExecError, ExecObserver,
};
use chet_runtime::layout::Layout;
use chet_tensor::circuit::{Circuit, Op};
use chet_tensor::Tensor;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Sentinel plaintext id for input-phase encodes (client-side plaintexts
/// that become [`IrOp::Input`] nodes, never operands).
const INPUT_PT: usize = usize::MAX;

/// How much of the trace to materialize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtractMode {
    /// Keep encoded plaintext values — required for [`try_replay_ir`].
    Full,
    /// Drop plaintext values (ids and hashes only) — enough for the lint
    /// and cost analyses, at a fraction of the memory.
    Metadata,
}

/// One HISA instruction in the graph. Operands are node ids (SSA: every
/// instruction defines exactly one new value); `pt` operands index
/// [`IrGraph::plains`].
#[derive(Debug, Clone, PartialEq)]
pub enum IrOp {
    /// The `ct`-th ciphertext of the encrypted input tensor.
    Input { ct: usize },
    /// Ciphertext + ciphertext.
    Add { a: usize, b: usize },
    /// Ciphertext − ciphertext.
    Sub { a: usize, b: usize },
    /// Ciphertext × ciphertext.
    Mul { a: usize, b: usize },
    /// Ciphertext + encoded plaintext.
    AddPlain { a: usize, pt: usize },
    /// Ciphertext − encoded plaintext.
    SubPlain { a: usize, pt: usize },
    /// Ciphertext × encoded plaintext.
    MulPlain { a: usize, pt: usize },
    /// Ciphertext + scalar broadcast (subtraction records a negated `x`,
    /// exactly as the reference backend computes it).
    AddScalar { a: usize, x: f64 },
    /// Ciphertext × scalar encoded at `scale`.
    MulScalar { a: usize, x: f64, scale: f64 },
    /// Cyclic left rotation by a normalized step in `[1, slots)` (right
    /// rotations are recorded as their left-normalized equivalent).
    RotLeft { a: usize, step: usize },
    /// Scale division by `divisor` (> 1), consuming modulus.
    Rescale { a: usize, divisor: f64 },
}

impl IrOp {
    /// Ciphertext operand node ids.
    pub fn operands(&self) -> impl Iterator<Item = usize> + '_ {
        let (a, b) = match self {
            IrOp::Input { .. } => (None, None),
            IrOp::Add { a, b } | IrOp::Sub { a, b } | IrOp::Mul { a, b } => {
                (Some(*a), Some(*b))
            }
            IrOp::AddPlain { a, .. }
            | IrOp::SubPlain { a, .. }
            | IrOp::MulPlain { a, .. }
            | IrOp::AddScalar { a, .. }
            | IrOp::MulScalar { a, .. }
            | IrOp::RotLeft { a, .. }
            | IrOp::Rescale { a, .. } => (Some(*a), None),
        };
        a.into_iter().chain(b)
    }

    /// Short mnemonic for dumps and reports.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            IrOp::Input { .. } => "input",
            IrOp::Add { .. } => "add",
            IrOp::Sub { .. } => "sub",
            IrOp::Mul { .. } => "mul",
            IrOp::AddPlain { .. } => "addPlain",
            IrOp::SubPlain { .. } => "subPlain",
            IrOp::MulPlain { .. } => "mulPlain",
            IrOp::AddScalar { .. } => "addScalar",
            IrOp::MulScalar { .. } => "mulScalar",
            IrOp::RotLeft { .. } => "rotLeft",
            IrOp::Rescale { .. } => "rescale",
        }
    }
}

/// One SSA node: the instruction plus the metadata every analysis needs —
/// the circuit span it executed under, the result's fixed-point scale, and
/// the *operand's* modulus state (cost grows with the operand modulus).
#[derive(Debug, Clone, PartialEq)]
pub struct IrNode {
    /// The instruction.
    pub op: IrOp,
    /// The circuit node (tensor op) whose kernel issued this instruction.
    pub span: Option<OpSpan>,
    /// Fixed-point scale of the result.
    pub scale: f64,
    /// Modulus state of the (first) ciphertext operand at execution time.
    pub level: LevelInfo,
}

/// An interned encoded plaintext. The pool is deduplicated by content hash,
/// so repeated weight encodings share one entry; [`IrGraph::encodes`]
/// separately records every *encode call* (each call costs, even when the
/// resulting plaintext is a duplicate).
#[derive(Debug, Clone, PartialEq)]
pub struct IrPlain {
    /// The encoded values ([`ExtractMode::Metadata`] drops them).
    pub values: Option<Vec<f64>>,
    /// Encoding scale.
    pub scale: f64,
    /// Number of values encoded.
    pub len: usize,
    /// FNV-1a over the value bit patterns and the scale (the dedup key).
    pub hash: u64,
}

/// One `encode` call the traced execution issued (server-side only — the
/// client's input encodes are not part of circuit latency).
#[derive(Debug, Clone, PartialEq)]
pub struct EncodeEvent {
    /// The interned plaintext the call produced.
    pub pt: usize,
    /// The circuit span the call executed under.
    pub span: Option<OpSpan>,
}

/// The extracted dataflow graph of one compiled circuit's HISA execution.
#[derive(Debug, Clone, PartialEq)]
pub struct IrGraph {
    /// Scheme variant the artifact targets.
    pub scheme: SchemeKind,
    /// Ring degree `N`.
    pub degree: usize,
    /// SIMD slots per ciphertext.
    pub slots: usize,
    /// RNS prime chain in the artifact's order (empty for CKKS).
    pub chain: Vec<u64>,
    /// Total modulus bits.
    pub log_q: f64,
    /// Rotation steps the artifact holds keys for.
    pub keyed_steps: BTreeSet<usize>,
    /// Input encryption scale (the plan's `scales.input`).
    pub input_scale: f64,
    /// Physical layout the input tensor is encrypted under.
    pub input_layout: Layout,
    /// Physical layout of the output ciphertext tensor.
    pub output_layout: Layout,
    /// Logical shape of the circuit output (for the executor's 1-D
    /// flattening convention).
    pub output_shape: Vec<usize>,
    /// The instruction stream, in program order (ids are indices).
    pub nodes: Vec<IrNode>,
    /// Node ids of the [`IrOp::Input`] nodes, in ciphertext order.
    pub inputs: Vec<usize>,
    /// Node ids of the output tensor's ciphertexts, in layout order.
    pub outputs: Vec<usize>,
    /// Deduplicated encoded-plaintext pool.
    pub plains: Vec<IrPlain>,
    /// Every server-side encode call, in program order.
    pub encodes: Vec<EncodeEvent>,
}

impl IrGraph {
    /// Rotation steps the instruction stream requests (normalized).
    pub fn requested_rotations(&self) -> BTreeSet<usize> {
        self.nodes
            .iter()
            .filter_map(|n| match n.op {
                IrOp::RotLeft { step, .. } => Some(step),
                _ => None,
            })
            .collect()
    }

    /// Nodes reachable from the outputs (the live computation).
    pub fn live_nodes(&self) -> Vec<bool> {
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = self.outputs.clone();
        while let Some(id) = stack.pop() {
            if live[id] {
                continue;
            }
            live[id] = true;
            stack.extend(self.nodes[id].op.operands());
        }
        live
    }

    /// Human-readable dump (the `chet-lint --ir-dump` format): one line per
    /// node with span, scale and level metadata.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "ir: {:?} N={} slots={} nodes={} plains={} encodes={} inputs={} outputs={}\n",
            self.scheme,
            self.degree,
            self.slots,
            self.nodes.len(),
            self.plains.len(),
            self.encodes.len(),
            self.inputs.len(),
            self.outputs.len(),
        ));
        for (id, n) in self.nodes.iter().enumerate() {
            let span = n
                .span
                .as_ref()
                .map(|s| format!("op#{}:{}", s.op_index, s.kernel))
                .unwrap_or_else(|| "-".into());
            let detail = match &n.op {
                IrOp::Input { ct } => format!("ct[{ct}]"),
                IrOp::Add { a, b } | IrOp::Sub { a, b } | IrOp::Mul { a, b } => {
                    format!("%{a}, %{b}")
                }
                IrOp::AddPlain { a, pt }
                | IrOp::SubPlain { a, pt }
                | IrOp::MulPlain { a, pt } => format!("%{a}, pt[{pt}]"),
                IrOp::AddScalar { a, x } => format!("%{a}, {x}"),
                IrOp::MulScalar { a, x, scale } => {
                    format!("%{a}, {x} @2^{:.1}", scale.log2())
                }
                IrOp::RotLeft { a, step } => format!("%{a}, <<{step}"),
                IrOp::Rescale { a, divisor } => format!("%{a}, /2^{:.1}", divisor.log2()),
            };
            out.push_str(&format!(
                "%{id} = {} {detail}  ; scale=2^{:.1} r={} [{span}]\n",
                n.op.mnemonic(),
                n.scale.log2(),
                n.level.rns_len,
            ));
        }
        out
    }
}

/// Modulus state of a symbolic ciphertext — the reference backend's
/// `Remaining` model, verbatim.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Level {
    Pow2 { log_q: f64 },
    Chain { level: usize },
}

/// Symbolic ciphertext: SSA id plus the decision-surface facts.
#[derive(Debug, Clone)]
pub struct TraceCt {
    id: usize,
    scale: f64,
    level: Level,
}

/// Symbolic plaintext: pool id plus encoding metadata.
#[derive(Debug, Clone)]
pub struct TracePt {
    pid: usize,
    scale: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Client-side input encryption: encodes are not circuit work and
    /// encrypts become [`IrOp::Input`] nodes.
    Input,
    /// Server-side circuit execution: everything is recorded.
    Body,
}

/// The recording [`Hisa`] interpretation. Create via [`TraceInterp::new`],
/// run the standard executor over it, then [`TraceInterp::finish`].
///
/// The interpretation never forks (`fork() → None`), so kernel fan-out runs
/// sequentially on `self` in job order and the recorded stream is the
/// deterministic program-order trace — the same order every thread count
/// produces values in (the PR 4 determinism contract).
pub struct TraceInterp {
    slots: usize,
    chain: Vec<u64>,
    /// Prefix sums of `log2(chain[..i])` for [`LevelInfo`] conversion.
    chain_log2: Vec<f64>,
    pow2_log_q: f64,
    rns: bool,
    keys: BTreeSet<usize>,
    phase: Phase,
    span: Arc<Mutex<Option<OpSpan>>>,
    mode: ExtractMode,
    nodes: Vec<IrNode>,
    inputs: Vec<usize>,
    plains: Vec<IrPlain>,
    plain_buckets: HashMap<u64, Vec<usize>>,
    encodes: Vec<EncodeEvent>,
}

impl TraceInterp {
    /// A recorder for a compiled artifact's parameters and key set.
    pub fn new(compiled: &CompiledCircuit, mode: ExtractMode) -> Self {
        let slots = compiled.params.slots();
        let (chain, pow2_log_q, rns) = match &compiled.params.modulus {
            ModulusSpec::PrimeChain { primes, .. } => (primes.clone(), 0.0, true),
            ModulusSpec::PowerOfTwo { log_q, .. } => (Vec::new(), *log_q as f64, false),
        };
        let mut chain_log2 = Vec::with_capacity(chain.len() + 1);
        let mut acc = 0.0;
        chain_log2.push(acc);
        for &p in &chain {
            acc += (p as f64).log2();
            chain_log2.push(acc);
        }
        TraceInterp {
            slots,
            chain,
            chain_log2,
            pow2_log_q,
            rns,
            keys: compiled.rotation_keys.steps(slots),
            phase: Phase::Input,
            span: Arc::new(Mutex::new(None)),
            mode,
            nodes: Vec::new(),
            inputs: Vec::new(),
            plains: Vec::new(),
            plain_buckets: HashMap::new(),
            encodes: Vec::new(),
        }
    }

    /// Switches from input capture to circuit recording (call after the
    /// input tensor is encrypted).
    pub fn begin_body(&mut self) {
        self.phase = Phase::Body;
    }

    /// The span cell the executor observer writes into.
    fn span_cell(&self) -> Arc<Mutex<Option<OpSpan>>> {
        Arc::clone(&self.span)
    }

    fn fresh_level(&self) -> Level {
        if self.rns {
            Level::Chain { level: self.chain.len() }
        } else {
            Level::Pow2 { log_q: self.pow2_log_q }
        }
    }

    fn level_info(&self, level: Level) -> LevelInfo {
        match level {
            Level::Pow2 { log_q } => LevelInfo { log_q, rns_len: 1 },
            Level::Chain { level } => LevelInfo {
                log_q: self.chain_log2.get(level).copied().unwrap_or(0.0),
                rns_len: level,
            },
        }
    }

    fn meet(a: Level, b: Level) -> Level {
        match (a, b) {
            (Level::Pow2 { log_q: x }, Level::Pow2 { log_q: y }) => {
                Level::Pow2 { log_q: x.min(y) }
            }
            (Level::Chain { level: x }, Level::Chain { level: y }) => {
                Level::Chain { level: x.min(y) }
            }
            // One modulus model per artifact — unreachable by construction.
            _ => a,
        }
    }

    fn current_span(&self) -> Option<OpSpan> {
        self.span.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    fn record(&mut self, op: IrOp, scale: f64, operand_level: Level, result_level: Level) -> TraceCt {
        let id = self.nodes.len();
        self.nodes.push(IrNode {
            op,
            span: self.current_span(),
            scale,
            level: self.level_info(operand_level),
        });
        TraceCt { id, scale, level: result_level }
    }

    fn intern_plain(&mut self, values: &[f64], scale: f64) -> usize {
        let mut bytes = Vec::with_capacity(values.len() * 8 + 8);
        for v in values {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        bytes.extend_from_slice(&scale.to_bits().to_le_bytes());
        let hash = fnv1a64(&bytes);
        if let Some(bucket) = self.plain_buckets.get(&hash) {
            for &pid in bucket {
                let p = &self.plains[pid];
                if p.scale.to_bits() == scale.to_bits() && p.len == values.len() && p.hash == hash
                {
                    return pid;
                }
            }
        }
        let pid = self.plains.len();
        self.plains.push(IrPlain {
            values: match self.mode {
                ExtractMode::Full => Some(values.to_vec()),
                ExtractMode::Metadata => None,
            },
            scale,
            len: values.len(),
            hash,
        });
        self.plain_buckets.entry(hash).or_default().push(pid);
        pid
    }

    fn check_scales(a: f64, b: f64) -> Result<(), HisaError> {
        if (a / b - 1.0).abs() < 1e-6 {
            Ok(())
        } else {
            Err(HisaError::ScaleMismatch { left: a, right: b })
        }
    }

    /// The modulus state left after dividing by `divisor` (> 1) — the
    /// reference backend's chain-pop loop.
    fn rescaled(&self, level: Level, divisor: f64) -> Result<Level, HisaError> {
        Ok(match level {
            Level::Pow2 { log_q } => {
                let consumed = divisor.log2();
                let left = log_q - consumed;
                if left < 1.0 {
                    return Err(HisaError::LevelExhausted {
                        remaining: log_q - 1.0,
                        requested: consumed,
                    });
                }
                Level::Pow2 { log_q: left }
            }
            Level::Chain { level } => {
                let mut lvl = level;
                let mut d = divisor;
                while d > 1.5 {
                    if lvl <= 1 {
                        return Err(HisaError::LevelExhausted {
                            remaining: (level - 1) as f64,
                            requested: (level - lvl + 1) as f64,
                        });
                    }
                    lvl -= 1;
                    d /= self.chain[lvl] as f64;
                }
                Level::Chain { level: lvl }
            }
        })
    }

    /// Consumes the recorder into a graph. `outputs` / `output_layout` come
    /// from the traced output tensor; the circuit metadata from the caller.
    fn finish(
        self,
        compiled: &CompiledCircuit,
        input_layout: Layout,
        output_layout: Layout,
        output_shape: Vec<usize>,
        outputs: Vec<usize>,
    ) -> IrGraph {
        IrGraph {
            scheme: compiled.params.kind(),
            degree: compiled.params.degree,
            slots: self.slots,
            log_q: if self.rns {
                self.chain_log2.last().copied().unwrap_or(0.0)
            } else {
                self.pow2_log_q
            },
            chain: self.chain,
            keyed_steps: self.keys,
            input_scale: compiled.plan.scales.input,
            input_layout,
            output_layout,
            output_shape,
            nodes: self.nodes,
            inputs: self.inputs,
            outputs,
            plains: self.plains,
            encodes: self.encodes,
        }
    }
}

impl Hisa for TraceInterp {
    type Ct = TraceCt;
    type Pt = TracePt;

    fn slots(&self) -> usize {
        self.slots
    }

    fn try_encode(&mut self, values: &[f64], scale: f64) -> Result<TracePt, HisaError> {
        if values.len() > self.slots {
            return Err(HisaError::SlotOverflow { len: values.len(), slots: self.slots });
        }
        let pid = match self.phase {
            Phase::Input => INPUT_PT,
            Phase::Body => {
                let pid = self.intern_plain(values, scale);
                let span = self.current_span();
                self.encodes.push(EncodeEvent { pt: pid, span });
                pid
            }
        };
        Ok(TracePt { pid, scale })
    }

    fn decode(&mut self, _p: &TracePt) -> Vec<f64> {
        vec![0.0; self.slots]
    }

    fn encrypt(&mut self, p: &TracePt) -> TraceCt {
        let ct = self.inputs.len();
        let level = self.fresh_level();
        let node = self.record(IrOp::Input { ct }, p.scale, level, level);
        self.inputs.push(node.id);
        node
    }

    fn decrypt(&mut self, c: &TraceCt) -> TracePt {
        TracePt { pid: INPUT_PT, scale: c.scale }
    }

    fn try_exec(&mut self, instr: Instr<'_, TraceCt, TracePt>) -> Result<TraceCt, HisaError> {
        let a = instr.lhs();
        let same = a.level;
        Ok(match instr {
            Instr::Add(_, b) | Instr::Sub(_, b) => {
                Self::check_scales(a.scale, b.scale)?;
                let level = Self::meet(a.level, b.level);
                let op = if let Instr::Add(..) = instr {
                    IrOp::Add { a: a.id, b: b.id }
                } else {
                    IrOp::Sub { a: a.id, b: b.id }
                };
                self.record(op, a.scale, level, level)
            }
            Instr::AddPlain(_, p) | Instr::SubPlain(_, p) => {
                Self::check_scales(a.scale, p.scale)?;
                let op = if let Instr::AddPlain(..) = instr {
                    IrOp::AddPlain { a: a.id, pt: p.pid }
                } else {
                    IrOp::SubPlain { a: a.id, pt: p.pid }
                };
                self.record(op, a.scale, same, same)
            }
            // The reference backend computes sub_scalar as add_scalar(−x).
            Instr::AddScalar(_, x) => {
                self.record(IrOp::AddScalar { a: a.id, x }, a.scale, same, same)
            }
            Instr::SubScalar(_, x) => {
                self.record(IrOp::AddScalar { a: a.id, x: -x }, a.scale, same, same)
            }
            Instr::Mul(_, b) => {
                let level = Self::meet(a.level, b.level);
                self.record(IrOp::Mul { a: a.id, b: b.id }, a.scale * b.scale, level, level)
            }
            Instr::MulPlain(_, p) => {
                self.record(IrOp::MulPlain { a: a.id, pt: p.pid }, a.scale * p.scale, same, same)
            }
            Instr::MulScalar(_, x, scale) => {
                assert!(scale >= 1.0, "scalar scale must be >= 1");
                self.record(IrOp::MulScalar { a: a.id, x, scale }, a.scale * scale, same, same)
            }
            Instr::Rescale(_, divisor) if divisor <= 1.0 => a.clone(),
            Instr::Rescale(_, divisor) => {
                let result = self.rescaled(a.level, divisor)?;
                self.record(IrOp::Rescale { a: a.id, divisor }, a.scale / divisor, same, result)
            }
        })
    }

    fn try_rotate(
        &mut self,
        c: &TraceCt,
        dir: RotDir,
        steps: &[usize],
    ) -> Result<Vec<TraceCt>, HisaError> {
        let mut out = Vec::with_capacity(steps.len());
        for &x in steps {
            let step = dir.normalize(x, self.slots);
            if step == 0 {
                out.push(c.clone());
                continue;
            }
            if plan_rotation(step, &self.keys, self.slots).is_none() {
                return Err(HisaError::MissingRotationKey {
                    step,
                    available: self.keys.iter().copied().collect(),
                });
            }
            out.push(self.record(IrOp::RotLeft { a: c.id, step }, c.scale, c.level, c.level));
        }
        Ok(out)
    }

    fn max_rescale(&mut self, c: &TraceCt, ub: f64) -> f64 {
        if ub < 2.0 {
            return 1.0;
        }
        match c.level {
            Level::Pow2 { log_q } => {
                let k = ub.log2().floor().min(log_q - 1.0);
                if k < 1.0 {
                    1.0
                } else {
                    2f64.powi(k as i32)
                }
            }
            Level::Chain { level } => {
                let mut prod = 1.0f64;
                let mut lvl = level;
                while lvl > 1 {
                    let p = self.chain[lvl - 1] as f64;
                    if prod * p > ub {
                        break;
                    }
                    prod *= p;
                    lvl -= 1;
                }
                prod
            }
        }
    }

    fn scale_of(&self, c: &TraceCt) -> f64 {
        c.scale
    }
}

/// Why extraction failed: the traced execution itself rejected the
/// artifact (the same failures a real run would surface).
#[derive(Debug, Clone, PartialEq)]
pub enum ExtractError {
    /// The executor failed while walking the circuit under the recorder.
    Exec(ExecError),
}

impl fmt::Display for ExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtractError::Exec(e) => write!(f, "IR extraction failed: {e}"),
        }
    }
}

impl std::error::Error for ExtractError {}

/// Stamps the recorder's span cell with the executing circuit node.
struct SpanTracker(Arc<Mutex<Option<OpSpan>>>);

impl ExecObserver for SpanTracker {
    fn on_op(&mut self, op_index: usize, op: &str) {
        *self.0.lock().unwrap_or_else(|e| e.into_inner()) = Some(OpSpan::new(op_index, op));
    }
}

/// Extracts the HISA dataflow graph of one inference of `circuit` under
/// `compiled`, by running the standard executor over [`TraceInterp`] with a
/// zero input image (the instruction stream is input-independent — kernels
/// branch on metadata and the decision surface, never on slot values).
pub fn extract_ir(
    circuit: &Circuit,
    compiled: &CompiledCircuit,
    mode: ExtractMode,
) -> Result<IrGraph, ExtractError> {
    let Some(input_shape) = circuit.ops().iter().find_map(|op| match op {
        Op::Input { shape } => Some(shape.clone()),
        _ => None,
    }) else {
        return Err(ExtractError::Exec(ExecError::UnsupportedCircuit {
            reason: "circuit has no encrypted input".into(),
        }));
    };
    let mut interp = TraceInterp::new(compiled, mode);
    let image = Tensor::zeros(input_shape);
    let enc = try_encrypt_input(&mut interp, circuit, &compiled.plan, &image)
        .map_err(ExtractError::Exec)?;
    let input_layout = enc.layout.clone();
    interp.begin_body();
    let mut observer = SpanTracker(interp.span_cell());
    let mut ctrl = ExecControl { cancel: None, observer: Some(&mut observer) };
    let (out, _report) =
        try_run_encrypted_with(&mut interp, circuit, &compiled.plan, enc, &mut ctrl)
            .map_err(ExtractError::Exec)?;
    let outputs: Vec<usize> = out.cts.iter().map(|c| c.id).collect();
    let output_layout = out.layout.clone();
    let output_shape = circuit.shapes()[circuit.output()].clone();
    Ok(interp.finish(compiled, input_layout, output_layout, output_shape, outputs))
}

/// Why an IR replay failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// A HISA instruction failed at the given node.
    Hisa {
        /// Failing node id.
        node: usize,
        /// The instruction failure.
        source: HisaError,
    },
    /// The graph is internally inconsistent (or was extracted in
    /// [`ExtractMode::Metadata`], which cannot replay).
    Malformed {
        /// What was wrong.
        detail: String,
    },
    /// The decrypted output contains non-finite slots (mirrors the direct
    /// executor's precision check).
    NonFinite,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Hisa { node, source } => write!(f, "IR node %{node}: {source}"),
            ReplayError::Malformed { detail } => write!(f, "malformed IR: {detail}"),
            ReplayError::NonFinite => {
                write!(f, "replayed output contains non-finite slots")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Replays an extracted graph on a concrete backend: encrypts `image`
/// under the recorded layout/scale, interprets the instruction stream, and
/// decrypts the output. On the reference simulator this reproduces direct
/// [`chet_runtime::exec::try_infer`] bit-for-bit — the property
/// [`crate::equiv`] validates.
///
/// Requires an [`ExtractMode::Full`] graph (plaintext values present).
pub fn try_replay_ir<H: Hisa>(
    h: &mut H,
    ir: &IrGraph,
    image: &Tensor,
) -> Result<Tensor, ReplayError> {
    if h.slots() != ir.slots {
        return Err(ReplayError::Malformed {
            detail: format!("backend has {} slots, graph expects {}", h.slots(), ir.slots),
        });
    }
    let enc = try_encrypt_tensor(h, image, &ir.input_layout, ir.input_scale)
        .map_err(|source| ReplayError::Hisa { node: 0, source })?;
    if enc.cts.len() != ir.inputs.len() {
        return Err(ReplayError::Malformed {
            detail: format!(
                "input encrypts to {} ciphertexts, graph recorded {}",
                enc.cts.len(),
                ir.inputs.len()
            ),
        });
    }

    // Last consumer per node, for freeing (graphs run to hundreds of
    // thousands of nodes; holding every intermediate would be quadratic in
    // memory).
    let n = ir.nodes.len();
    let mut last_use = vec![0usize; n];
    for (id, node) in ir.nodes.iter().enumerate() {
        for dep in node.op.operands() {
            last_use[dep] = last_use[dep].max(id);
        }
    }
    for &out in &ir.outputs {
        last_use[out] = n;
    }

    // Encoded-plaintext cache: each pool entry encodes once (encoding is
    // deterministic, so reuse is value-identical to re-encoding).
    let mut plains: Vec<Option<H::Pt>> = (0..ir.plains.len()).map(|_| None).collect();
    let mut values: Vec<Option<H::Ct>> = (0..n).map(|_| None).collect();

    fn operand<C>(values: &[Option<C>], id: usize, at: usize) -> Result<&C, ReplayError> {
        values.get(id).and_then(Option::as_ref).ok_or_else(|| ReplayError::Malformed {
            detail: format!("node %{at} references undefined value %{id}"),
        })
    }

    fn plain<'p, H2: Hisa>(
        h: &mut H2,
        ir: &IrGraph,
        plains: &'p mut [Option<H2::Pt>],
        pid: usize,
        at: usize,
    ) -> Result<&'p H2::Pt, ReplayError> {
        if pid >= ir.plains.len() {
            return Err(ReplayError::Malformed {
                detail: format!("node %{at} references undefined plaintext pt[{pid}]"),
            });
        }
        if plains[pid].is_none() {
            let p = &ir.plains[pid];
            let Some(vals) = &p.values else {
                return Err(ReplayError::Malformed {
                    detail: "metadata-only graph (no plaintext values) cannot replay".into(),
                });
            };
            let encoded = h
                .try_encode(vals, p.scale)
                .map_err(|source| ReplayError::Hisa { node: at, source })?;
            plains[pid] = Some(encoded);
        }
        #[allow(clippy::unwrap_used)] // just populated above
        Ok(plains[pid].as_ref().unwrap())
    }

    for (id, node) in ir.nodes.iter().enumerate() {
        let ct = |a: usize| operand(&values, a, id);
        let v = match node.op {
            IrOp::Input { ct } => Ok(enc.cts.get(ct).cloned().ok_or_else(|| {
                ReplayError::Malformed {
                    detail: format!("node %{id} references missing input ct[{ct}]"),
                }
            })?),
            IrOp::RotLeft { a, step } => h.try_rot_left(ct(a)?, step),
            IrOp::Add { a, b } => h.try_exec(Instr::Add(ct(a)?, ct(b)?)),
            IrOp::Sub { a, b } => h.try_exec(Instr::Sub(ct(a)?, ct(b)?)),
            IrOp::Mul { a, b } => h.try_exec(Instr::Mul(ct(a)?, ct(b)?)),
            IrOp::AddPlain { a, pt } => {
                let p = plain(h, ir, &mut plains, pt, id)?;
                h.try_exec(Instr::AddPlain(ct(a)?, p))
            }
            IrOp::SubPlain { a, pt } => {
                let p = plain(h, ir, &mut plains, pt, id)?;
                h.try_exec(Instr::SubPlain(ct(a)?, p))
            }
            IrOp::MulPlain { a, pt } => {
                let p = plain(h, ir, &mut plains, pt, id)?;
                h.try_exec(Instr::MulPlain(ct(a)?, p))
            }
            IrOp::AddScalar { a, x } => h.try_exec(Instr::AddScalar(ct(a)?, x)),
            IrOp::MulScalar { a, x, scale } => h.try_exec(Instr::MulScalar(ct(a)?, x, scale)),
            IrOp::Rescale { a, divisor } => h.try_exec(Instr::Rescale(ct(a)?, divisor)),
        }
        .map_err(|source| ReplayError::Hisa { node: id, source })?;
        values[id] = Some(v);
        for dep in ir.nodes[id].op.operands() {
            if last_use[dep] <= id {
                values[dep] = None;
            }
        }
    }

    let mut cts = Vec::with_capacity(ir.outputs.len());
    for &out in &ir.outputs {
        cts.push(values.get(out).and_then(|v| v.clone()).ok_or_else(|| {
            ReplayError::Malformed { detail: format!("output references undefined value %{out}") }
        })?);
    }
    let out = CipherTensor { layout: ir.output_layout.clone(), cts };
    let dec = decrypt_tensor(h, &out);
    if dec.data().iter().any(|v| !v.is_finite()) {
        return Err(ReplayError::NonFinite);
    }
    // The executor's 1-D flattening convention for dense outputs.
    if ir.output_shape.len() == 1 && dec.shape() != &ir.output_shape[..] {
        Ok(dec.reshape(ir.output_shape.clone()))
    } else {
        Ok(dec)
    }
}
