//! The whole-circuit HISA intermediate representation (ROADMAP #5).
//!
//! The paper's compiler deliberately never materializes a data-flow graph
//! (§5.1): every analysis is an on-the-fly interpretation of the circuit.
//! That works for *local* facts (scales, levels, key sets) but cannot see
//! whole-program structure — duplicate rotations across kernels, common
//! subexpressions, dead computation — and cannot *predict* latency. This
//! module adds the missing substrate without giving up the §5.1 mechanism:
//! the IR is extracted *by* an interpretation. [`extract_ir`] walks the
//! verifier's [`VerifyInterp`] (the same interpretation `verify_compiled`
//! and parameter selection walk) with a recorder attached: each
//! ciphertext carries its SSA node id, each domain transfer appends one
//! node, and server-side encodes are interned in a plaintext pool. The
//! result is an [`IrGraph`] — the exact HISA instruction stream of one
//! inference, in program order.
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
//! Fidelity contract: on an artifact the verifier passes, the walker's
//! domains answer the `SimCkks` reference backend's *decision surface*
//! exactly — `scale_of`, `max_rescale`, the rescale chain pop and rotation
//! planning (DESIGN.md §15.1). Kernels branch only on that surface (never
//! on slot values), so the recorded stream is the one any value-level
//! backend executes, and replay is bit-identical to direct inference. An
//! artifact the walk denies is not extracted ([`ExtractError::Deny`]).

pub mod analyze;
pub mod cost;

use crate::compiler::CompiledCircuit;
use crate::verify::domain::LevelFact;
use crate::verify::walker::{walk, VCt, VPt, VerifyInterp};
use crate::verify::{DiagSink, Diagnostic, OpSpan, Severity};
use chet_hisa::params::{ModulusSpec, SchemeKind};
use chet_hisa::{Hisa, HisaError, Instr, LevelInfo};
use chet_runtime::ciphertensor::{decrypt_tensor, try_encrypt_tensor, CipherTensor};
use chet_runtime::exec::ExecError;
use chet_runtime::layout::Layout;
use chet_tensor::circuit::Circuit;
use chet_tensor::Tensor;
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
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

    /// Rewrites every ciphertext operand through `node` and every plaintext
    /// operand through `pt`.
    fn remap(&mut self, node: impl Fn(usize) -> usize, pt: impl Fn(usize) -> usize) {
        match self {
            IrOp::Input { .. } => {}
            IrOp::Add { a, b } | IrOp::Sub { a, b } | IrOp::Mul { a, b } => {
                *a = node(*a);
                *b = node(*b);
            }
            IrOp::AddPlain { a, pt: p }
            | IrOp::SubPlain { a, pt: p }
            | IrOp::MulPlain { a, pt: p } => {
                *a = node(*a);
                *p = pt(*p);
            }
            IrOp::AddScalar { a, .. }
            | IrOp::MulScalar { a, .. }
            | IrOp::RotLeft { a, .. }
            | IrOp::Rescale { a, .. } => *a = node(*a),
        }
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

/// An interned encoded plaintext. The pool is deduplicated by content
/// (value bit patterns, scale bits, length), so repeated weight encodings
/// share one entry; [`IrGraph::encodes`] separately records every *encode
/// call* (each call costs, even when the resulting plaintext is a
/// duplicate).
#[derive(Debug, Clone, PartialEq)]
pub struct IrPlain {
    /// The encoded values ([`ExtractMode::Metadata`] drops them).
    pub values: Option<Vec<f64>>,
    /// Encoding scale.
    pub scale: f64,
    /// Number of values encoded.
    pub len: usize,
    /// Word hash of the content: each value's `f64::to_bits()` word feeds
    /// one of four independent multiply-rotate lanes, and the lanes, the
    /// scale bits and the length fold into one key.
    ///
    /// The key only selects candidates. In [`ExtractMode::Full`] a pid is
    /// shared only when scale, length and every value bit pattern compare
    /// equal, so a key collision costs a second pool entry, never a wrong
    /// plaintext in [`try_replay_ir`]. [`ExtractMode::Metadata`] keeps no
    /// values to compare and assumes that equal (key, scale, length) means
    /// equal content; a 64-bit collision there would merge two plaintexts'
    /// CSE value numbers in the advisory `CHET-P` lints and nothing else.
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

/// Independent hash lanes in [`plain_key`]: enough to hide the multiply
/// latency, so hashing runs at multiply throughput instead of one
/// dependent multiply per word.
const PLAIN_LANES: usize = 4;

/// Odd per-lane multipliers (each step is then a bijection of the lane).
const LANE_MUL: [u64; PLAIN_LANES] =
    [0x9E37_79B9_7F4A_7C15, 0xC2B2_AE3D_27D4_EB4F, 0x1656_67B1_9E37_79F9, 0x27D4_EB2F_1656_67C5];

/// One multiply-rotate step: absorbs `word` into `acc`.
#[inline(always)]
fn mix(acc: u64, word: u64, mul: u64) -> u64 {
    (acc ^ word).wrapping_mul(mul).rotate_left(31)
}

/// The [`IrPlain::hash`] dedup key of one encode call's content.
///
/// Word `i` goes to lane `i % PLAIN_LANES`; the lanes fold in order, then
/// the scale bits and the length. Every step is a bijection of its
/// accumulator, so changing any single word (a value, the scale or the
/// length) always changes the key.
fn plain_key(values: &[f64], scale: f64) -> u64 {
    let mut lanes = LANE_MUL;
    let mut chunks = values.chunks_exact(PLAIN_LANES);
    for chunk in &mut chunks {
        for i in 0..PLAIN_LANES {
            lanes[i] = mix(lanes[i], chunk[i].to_bits(), LANE_MUL[i]);
        }
    }
    for (i, v) in chunks.remainder().iter().enumerate() {
        lanes[i] = mix(lanes[i], v.to_bits(), LANE_MUL[i]);
    }
    let key = lanes.iter().fold(0, |h, &lane| mix(h, lane, LANE_MUL[0]));
    mix(mix(key, scale.to_bits(), LANE_MUL[0]), values.len() as u64, LANE_MUL[0])
}

/// One encode call's content as the pool interns it: the [`IrPlain`]
/// key, hashed here (on the recording thread), and the values when `mode`
/// keeps them.
fn plain(mode: ExtractMode, values: Cow<'_, [f64]>, scale: f64) -> IrPlain {
    let hash = plain_key(&values, scale);
    let len = values.len();
    let values = match mode {
        ExtractMode::Full => Some(values.into_owned()),
        ExtractMode::Metadata => None,
    };
    IrPlain { values, scale, len, hash }
}

/// The deduplicated encoded-plaintext pool behind [`IrGraph::plains`].
#[derive(Default)]
struct PlainPool {
    plains: Vec<IrPlain>,
    buckets: HashMap<u64, Vec<usize>>,
}

impl PlainPool {
    /// The pid of `plain`'s content, adding a pool entry for new content
    /// (the rule in [`IrPlain::hash`]).
    fn intern(&mut self, plain: IrPlain) -> usize {
        if let Some(bucket) = self.buckets.get(&plain.hash) {
            for &pid in bucket {
                let p = &self.plains[pid];
                let same = p.scale.to_bits() == plain.scale.to_bits()
                    && p.len == plain.len
                    && p.values.as_deref().zip(plain.values.as_deref()).is_none_or(|(v, w)| {
                        v.iter().zip(w).all(|(a, b)| a.to_bits() == b.to_bits())
                    });
                if same {
                    return pid;
                }
            }
        }
        let pid = self.plains.len();
        self.buckets.entry(plain.hash).or_default().push(pid);
        self.plains.push(plain);
        pid
    }
}

const _: () = assert!(usize::BITS >= 64, "IR ids pack a frame number into the high 32 bits");

/// A provisional id: the recording frame in the high 32 bits, the index in
/// that frame's node or encode list in the low 32. The root recorder is
/// frame 0, so its ids are plain indices.
fn pack(frame: u32, index: usize) -> usize {
    (frame as usize) << 32 | index
}

fn unpack(id: usize) -> (u32, usize) {
    ((id >> 32) as u32, id & 0xFFFF_FFFF)
}

/// A node as a fan-out child records it: an [`IrNode`] but for its span,
/// which is the child's.
type Bare = (IrOp, f64, LevelInfo);

/// The spans of a recorded list, as runs: each entry is the index of the
/// first item under a span. Spans change only between circuit nodes, so a
/// walk records about one run per circuit node instead of one span (and
/// one string) per item; the items take their spans when the graph is
/// built.
#[derive(Default)]
struct Runs(Vec<(usize, Option<OpSpan>)>);

impl Runs {
    /// Notes that the items from index `at` on carry `span`.
    fn note(&mut self, at: usize, span: Option<&OpSpan>) {
        if self.0.last().map(|(_, s)| s.as_ref()) != Some(span) {
            self.0.push((at, span.cloned()));
        }
    }

    /// The span of each of `len` items, in order.
    fn expand(self, len: usize) -> impl Iterator<Item = Option<OpSpan>> {
        let mut runs = self.0.into_iter().peekable();
        let mut span = None;
        (0..len).map(move |i| {
            while let Some((_, next)) = runs.next_if(|(at, _)| *at <= i) {
                span = next;
            }
            span.clone()
        })
    }
}

/// Nodes a fan-out child's list holds before it first grows. The list is
/// allocated on the forking thread, and the allocator grows a buffer in
/// the arena it came from, so a child's nodes never settle in a worker
/// thread's arena, which would keep the freed bytes after the join.
const FORK_CAPACITY: usize = 16;

/// What every recorder of one extraction shares.
struct RecordConfig {
    mode: ExtractMode,
    /// CKKS: the artifact's total modulus bits; `None` for RNS-CKKS.
    pow2_log_q: Option<f64>,
    /// RNS-CKKS: prefix sums of `log2(chain[..i])` in artifact order.
    chain_log2: Vec<f64>,
    /// The last frame number handed to a forked recorder.
    frames: AtomicU32,
}

/// The IR recorder `extract_ir` attaches to the verifier's walker
/// ([`VerifyInterp`]): every transfer the walk makes appends one node, and
/// every server-side encode is interned in the plaintext pool.
///
/// The walker forks at every kernel fan-out (DESIGN.md §12), and so does
/// its recorder: a child records its job's nodes and encodes under a fresh
/// frame number, hashing its plaintexts on its own thread, and hands them
/// to the parent at the join. Joins run in job order, so appending the
/// child's lists keeps the root's in program order, and the root interns
/// every plaintext in that order too: the graph is the one a sequential
/// walk records, at every thread count. A value a job defines carries a
/// provisional id in its frame; the parent maps each joined frame to an
/// offset into its own lists, and resolves every operand through it when
/// it records — whether the id reached it through a job's result or
/// through a nested fan-out. A fan-out runs inside one circuit node, so a
/// child's nodes and encodes all carry the span it was forked at.
pub(crate) struct Recorder {
    config: Arc<RecordConfig>,
    /// Frame numbers grow with every fork, so a recorder's descendants all
    /// have larger ones than it and its ancestors smaller.
    frame: u32,
    /// Set once the input is encrypted: client-side encodes are not
    /// circuit work and are not interned.
    body: bool,
    /// A child's span: that of every node and encode it records.
    span: Option<OpSpan>,
    /// The root's nodes, which take their spans when the graph is built.
    nodes: Vec<IrNode>,
    /// The root's node spans.
    node_spans: Runs,
    /// A child's nodes.
    bare: Vec<Bare>,
    inputs: Vec<usize>,
    /// The plaintext id of every encode call.
    encodes: Vec<usize>,
    /// The root's encode spans.
    encode_spans: Runs,
    /// The root's plaintext pool; a child interns nothing.
    pool: Option<PlainPool>,
    /// A child's encode contents, one per [`Self::encodes`] entry, left for
    /// the root to intern.
    pending: Vec<IrPlain>,
    /// Every frame joined into this one (a child's own and, through it,
    /// its joined descendants'): the offsets of its node and encode lists
    /// in this recorder's.
    joined: HashMap<u32, (usize, usize)>,
}

impl Recorder {
    /// A recorder for a compiled artifact's modulus.
    pub(crate) fn new(compiled: &CompiledCircuit, mode: ExtractMode) -> Self {
        let (pow2_log_q, chain_log2) = match &compiled.params.modulus {
            ModulusSpec::PowerOfTwo { log_q, .. } => (Some(*log_q as f64), Vec::new()),
            ModulusSpec::PrimeChain { primes, .. } => {
                let mut acc = 0.0;
                let prefix = primes.iter().map(|&p| {
                    acc += (p as f64).log2();
                    acc
                });
                (None, std::iter::once(0.0).chain(prefix).collect())
            }
        };
        let config = RecordConfig { mode, pow2_log_q, chain_log2, frames: AtomicU32::new(0) };
        Recorder::framed(Arc::new(config), 0, false, None, Some(PlainPool::default()))
    }

    fn framed(
        config: Arc<RecordConfig>,
        frame: u32,
        body: bool,
        span: Option<OpSpan>,
        pool: Option<PlainPool>,
    ) -> Self {
        Recorder {
            config,
            frame,
            body,
            span,
            nodes: Vec::new(),
            node_spans: Runs::default(),
            bare: Vec::new(),
            inputs: Vec::new(),
            encodes: Vec::new(),
            encode_spans: Runs::default(),
            pool,
            pending: Vec::new(),
            joined: HashMap::new(),
        }
    }

    /// A child recorder for one fan-out job, under a fresh frame; it runs
    /// at this recorder's span (the root's is `root_span`).
    pub(crate) fn fork(&mut self, root_span: Option<&OpSpan>) -> Self {
        let span = if self.is_root() { root_span.cloned() } else { self.span.clone() };
        let frame = self.config.frames.fetch_add(1, Ordering::Relaxed) + 1;
        let mut child = Recorder::framed(Arc::clone(&self.config), frame, self.body, span, None);
        child.bare.reserve_exact(FORK_CAPACITY);
        child
    }

    fn is_root(&self) -> bool {
        self.frame == 0
    }

    /// Whether the graph keeps plaintext values ([`ExtractMode::Full`]).
    pub(crate) fn keeps_values(&self) -> bool {
        self.config.mode == ExtractMode::Full
    }

    /// Switches from input capture to circuit recording.
    pub(crate) fn begin_body(&mut self) {
        self.body = true;
    }

    /// The modulus state a level fact stands for: RNS keeps the chain's
    /// first `len − chain_idx` primes (rescaling pops from the back).
    fn level_info(&self, at: LevelFact) -> LevelInfo {
        let chain_log2 = &self.config.chain_log2;
        match self.config.pow2_log_q {
            Some(log_q) => LevelInfo { log_q: log_q - at.consumed_log2, rns_len: 1 },
            None => {
                let rns_len = (chain_log2.len() - 1).saturating_sub(at.chain_idx);
                LevelInfo { log_q: chain_log2[rns_len], rns_len }
            }
        }
    }

    /// The id in this recorder of a node id: a joined frame's through its
    /// offset; this frame's, an ancestor's, or one the parent will resolve
    /// at the join, unchanged.
    fn resolve_node(&self, id: usize) -> usize {
        let (frame, index) = unpack(id);
        if frame <= self.frame {
            return id;
        }
        self.joined.get(&frame).map_or(id, |&(nodes, _)| pack(self.frame, nodes + index))
    }

    /// [`Self::resolve_node`] for a plaintext id: a joined frame's encode
    /// resolves to the pid its entry here carries.
    fn resolve_pt(&self, pid: usize) -> usize {
        let (frame, index) = unpack(pid);
        if frame <= self.frame {
            return pid;
        }
        self.joined.get(&frame).map_or(pid, |&(_, encodes)| self.encodes[encodes + index])
    }

    /// Logs one body encode: the root interns it now, a child keeps it for
    /// the root and hands out a provisional pid.
    fn push_encode(&mut self, plain: IrPlain) -> usize {
        let pt = match &mut self.pool {
            Some(pool) => pool.intern(plain),
            None => {
                self.pending.push(plain);
                pack(self.frame, self.encodes.len())
            }
        };
        self.encodes.push(pt);
        pt
    }

    /// The plaintext id of one encode call: interned (and logged as an
    /// [`EncodeEvent`]) in the body, [`INPUT_PT`] for the client's input.
    /// `span` is the root's current span (a child records at its own).
    pub(crate) fn encode(
        &mut self,
        values: Cow<'_, [f64]>,
        scale: f64,
        span: Option<&OpSpan>,
    ) -> usize {
        if !self.body {
            return INPUT_PT;
        }
        if self.is_root() {
            self.encode_spans.note(self.encodes.len(), span);
        }
        self.push_encode(plain(self.config.mode, values, scale))
    }

    /// Appends one node and returns its id. `at` is the operand's level;
    /// `span` is the root's current span (a child records at its own).
    pub(crate) fn node(
        &mut self,
        mut op: IrOp,
        span: Option<&OpSpan>,
        scale: f64,
        at: LevelFact,
    ) -> usize {
        if !self.joined.is_empty() {
            op.remap(|id| self.resolve_node(id), |pid| self.resolve_pt(pid));
        }
        let id = pack(self.frame, self.nodes.len() + self.bare.len());
        if let IrOp::Input { .. } = op {
            self.inputs.push(id);
        }
        let level = self.level_info(at);
        if self.is_root() {
            self.node_spans.note(self.nodes.len(), span);
            self.nodes.push(IrNode { op, span: None, scale, level });
        } else {
            self.bare.push((op, scale, level));
        }
        id
    }

    /// The next [`IrOp::Input`] node (a freshly encrypted ciphertext; the
    /// input is encrypted before the body, outside any fan-out).
    pub(crate) fn next_input(&self) -> IrOp {
        IrOp::Input { ct: self.inputs.len() }
    }

    /// Appends a joined child's stream: its encodes first (interned here
    /// at the root), then its nodes with every operand resolved to this
    /// recorder's ids.
    pub(crate) fn join(&mut self, child: Recorder) {
        let (node_base, encode_base) = (self.nodes.len() + self.bare.len(), self.encodes.len());
        let root = self.is_root();
        if root {
            self.node_spans.note(node_base, child.span.as_ref());
            self.encode_spans.note(encode_base, child.span.as_ref());
        }
        for plain in child.pending {
            self.push_encode(plain);
        }
        self.joined.insert(child.frame, (node_base, encode_base));
        for (frame, (nodes, encodes)) in child.joined {
            self.joined.insert(frame, (node_base + nodes, encode_base + encodes));
        }
        let inputs = child.inputs.into_iter().map(|id| pack(self.frame, node_base + unpack(id).1));
        self.inputs.extend(inputs);
        // The child's own ids map straight onto the offsets; only ids from
        // other frames go through the table.
        let own = child.frame;
        for (mut op, scale, level) in child.bare {
            op.remap(
                |id| match unpack(id) {
                    (frame, i) if frame == own => pack(self.frame, node_base + i),
                    _ => self.resolve_node(id),
                },
                |pid| match unpack(pid) {
                    (frame, i) if frame == own => self.encodes[encode_base + i],
                    _ => self.resolve_pt(pid),
                },
            );
            if root {
                self.nodes.push(IrNode { op, span: None, scale, level });
            } else {
                self.bare.push((op, scale, level));
            }
        }
    }

    /// Consumes the recorder into a graph; `outputs` are the output
    /// ciphertexts' ids as the walk returned them.
    pub(crate) fn finish(
        self,
        compiled: &CompiledCircuit,
        input_layout: Layout,
        output_layout: Layout,
        outputs: Vec<usize>,
        output_shape: Vec<usize>,
    ) -> IrGraph {
        let outputs = outputs.into_iter().map(|id| self.resolve_node(id)).collect();
        let mut nodes = self.nodes;
        let spans = self.node_spans.expand(nodes.len());
        for (node, span) in nodes.iter_mut().zip(spans) {
            node.span = span;
        }
        let spans = self.encode_spans.expand(self.encodes.len());
        let encodes =
            self.encodes.into_iter().zip(spans).map(|(pt, span)| EncodeEvent { pt, span }).collect();
        let slots = compiled.params.slots();
        let (chain, log_q) = match &compiled.params.modulus {
            ModulusSpec::PrimeChain { primes, .. } => {
                (primes.clone(), self.config.chain_log2.last().copied().unwrap_or(0.0))
            }
            ModulusSpec::PowerOfTwo { .. } => {
                (Vec::new(), self.config.pow2_log_q.unwrap_or(0.0))
            }
        };
        IrGraph {
            scheme: compiled.params.kind(),
            degree: compiled.params.degree,
            slots,
            chain,
            log_q,
            keyed_steps: compiled.rotation_keys.steps(slots),
            input_scale: compiled.plan.scales.input,
            input_layout,
            output_layout,
            output_shape,
            nodes,
            inputs: self.inputs,
            outputs,
            plains: self.pool.map(|p| p.plains).unwrap_or_default(),
            encodes,
        }
    }
}

impl IrOp {
    /// The node one walked instruction records (subtraction of a scalar is
    /// recorded as addition of its negation, as the reference backend
    /// computes it).
    pub(crate) fn of_instr<F>(instr: &Instr<'_, VCt<F>, VPt>) -> IrOp {
        match *instr {
            Instr::Add(a, b) => IrOp::Add { a: a.id, b: b.id },
            Instr::Sub(a, b) => IrOp::Sub { a: a.id, b: b.id },
            Instr::Mul(a, b) => IrOp::Mul { a: a.id, b: b.id },
            Instr::AddPlain(a, p) => IrOp::AddPlain { a: a.id, pt: p.pid },
            Instr::SubPlain(a, p) => IrOp::SubPlain { a: a.id, pt: p.pid },
            Instr::MulPlain(a, p) => IrOp::MulPlain { a: a.id, pt: p.pid },
            Instr::AddScalar(a, x) => IrOp::AddScalar { a: a.id, x },
            Instr::SubScalar(a, x) => IrOp::AddScalar { a: a.id, x: -x },
            Instr::MulScalar(a, x, scale) => IrOp::MulScalar { a: a.id, x, scale },
            Instr::Rescale(a, divisor) => IrOp::Rescale { a: a.id, divisor },
        }
    }
}

/// Why extraction failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ExtractError {
    /// The executor failed while walking the circuit (an unsupported shape
    /// or kernel contract).
    Exec(ExecError),
    /// The walk denied the artifact; this is its first deny diagnostic
    /// (code, span and message), the one `verify_compiled` reports first
    /// among the walked findings.
    Deny(Diagnostic),
}

impl fmt::Display for ExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtractError::Exec(e) => write!(f, "IR extraction failed: {e}"),
            ExtractError::Deny(d) => write!(f, "IR extraction failed: {d}"),
        }
    }
}

impl std::error::Error for ExtractError {}

/// Extracts the HISA dataflow graph of one inference of `circuit` under
/// `compiled` by walking the verifier's [`VerifyInterp`] with a recorder
/// attached (the instruction stream is input-independent: kernels branch
/// on metadata and the decision surface, never on slot values).
///
/// # Errors
///
/// [`ExtractError::Deny`] exactly when the walk emits a deny diagnostic,
/// [`ExtractError::Exec`] when the executor rejects the circuit.
pub fn extract_ir(
    circuit: &Circuit,
    compiled: &CompiledCircuit,
    mode: ExtractMode,
) -> Result<IrGraph, ExtractError> {
    let sink = Arc::new(Mutex::new(DiagSink::default()));
    let recorder = Recorder::new(compiled, mode);
    let mut interp = VerifyInterp::recording(compiled, Arc::clone(&sink), recorder);
    let walked = walk(&mut interp, circuit, &compiled.plan).map_err(ExtractError::Exec)?;
    let deny = sink
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .diagnostics()
        .iter()
        .find(|d| d.severity() == Severity::Deny)
        .cloned();
    if let Some(d) = deny {
        return Err(ExtractError::Deny(d));
    }
    let outputs = walked.output.cts.iter().map(|c| c.id).collect();
    let output_shape = circuit.shapes()[circuit.output()].clone();
    #[allow(clippy::expect_used)] // attached by `VerifyInterp::recording` above
    let recorder = interp.into_recorder().expect("recording walker");
    Ok(recorder.finish(compiled, walked.input_layout, walked.output.layout, outputs, output_shape))
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

#[cfg(test)]
mod tests {
    use super::*;

    /// 11 values: two full chunks of `PLAIN_LANES` plus a remainder of 3.
    fn sample() -> Vec<f64> {
        (0..2 * PLAIN_LANES + 3).map(|i| 0.25 * i as f64 - 1.0).collect()
    }

    #[test]
    fn recording_through_the_fill_hook_matches_the_slice_path() {
        use crate::compiler::Compiler;
        use chet_runtime::kernels::ScaleConfig;
        use chet_tensor::circuit::CircuitBuilder;

        let mut b = CircuitBuilder::new();
        let x = b.input(vec![4, 1, 1]);
        let m = b.matmul(x, Tensor::from_fn(vec![2, 4], |i| i[1] as f64 * 0.25), None);
        let circuit = b.build(m);
        let compiled =
            Compiler::new(SchemeKind::RnsCkks).compile(&circuit, &ScaleConfig::default()).unwrap();
        let slots = compiled.params.slots();
        let full: Vec<f64> = (0..slots).map(|i| (i % 5) as f64 - 2.0).collect();
        let short = sample();
        // A repeat of the first encode, and the same content at another
        // scale.
        let calls: [(&[f64], f64); 5] =
            [(&full, 4096.0), (&short, 4096.0), (&full, 4096.0), (&full, 2.0), (&short, 4096.0)];
        for mode in [ExtractMode::Full, ExtractMode::Metadata] {
            let record = |hook: bool| {
                let mut rec = Recorder::new(&compiled, mode);
                rec.begin_body();
                let mut h = VerifyInterp::recording(&compiled, Arc::default(), rec);
                let pids: Vec<usize> = calls
                    .iter()
                    .map(|&(values, scale)| {
                        let pt = if hook {
                            let mut fill = |b: &mut [f64]| b.copy_from_slice(values);
                            h.try_encode_with(values.len(), scale, &mut fill)
                        } else {
                            h.try_encode(values, scale)
                        };
                        pt.unwrap().pid
                    })
                    .collect();
                let layout = Layout::dense_vector(2, slots);
                let recorder = h.into_recorder().unwrap();
                (pids, recorder.finish(&compiled, layout.clone(), layout, vec![], vec![2]))
            };
            let (pids, graph) = record(true);
            assert_eq!(pids, [0, 1, 0, 2, 1], "{mode:?}");
            assert_eq!((pids, graph), record(false), "{mode:?}");
        }
    }

    #[test]
    fn equal_content_shares_a_pid() {
        for mode in [ExtractMode::Full, ExtractMode::Metadata] {
            let mut pool = PlainPool::default();
            let a = pool.intern(plain(mode, sample().into(), 4096.0));
            let b = pool.intern(plain(mode, sample().into(), 4096.0));
            assert_eq!(a, b, "{mode:?}");
            assert_eq!(pool.plains.len(), 1, "{mode:?}");
        }
    }

    #[test]
    fn every_single_bit_flip_changes_the_key() {
        let values = sample();
        let scale = 4096.0;
        let base = plain_key(&values, scale);
        // First lane, a middle lane, the last lane (second chunk) and the
        // `chunks_exact` remainder; every bit of each word.
        let words = [0, PLAIN_LANES / 2, 2 * PLAIN_LANES - 1, 2 * PLAIN_LANES + 1];
        for i in words {
            for bit in 0..64 {
                let mut flipped = values.clone();
                flipped[i] = f64::from_bits(values[i].to_bits() ^ (1 << bit));
                assert_ne!(plain_key(&flipped, scale), base, "word {i} bit {bit}");
            }
        }
        for bit in 0..64 {
            let flipped = f64::from_bits(scale.to_bits() ^ (1 << bit));
            assert_ne!(plain_key(&values, flipped), base, "scale bit {bit}");
        }
    }

    #[test]
    fn signed_zero_and_a_trailing_zero_change_the_key() {
        let values = sample();
        let mut negative = values.clone();
        let mut positive = values.clone();
        negative[1] = -0.0;
        positive[1] = 0.0;
        assert_ne!(plain_key(&negative, 1.0), plain_key(&positive, 1.0));
        let mut longer = values.clone();
        longer.push(0.0);
        assert_ne!(plain_key(&longer, 1.0), plain_key(&values, 1.0));
        assert_ne!(plain_key(&[], 1.0), plain_key(&[0.0], 1.0));
    }

    #[test]
    fn full_mode_never_merges_different_content_under_one_key() {
        let a = sample();
        let mut b = sample();
        b[3] = 7.5;
        // Both contents under one key, as a collision would file them.
        let keyed = |mode, values: &[f64]| IrPlain { hash: 42, ..plain(mode, values.into(), 1.0) };
        let mut full = PlainPool::default();
        let pa = full.intern(keyed(ExtractMode::Full, &a));
        let pb = full.intern(keyed(ExtractMode::Full, &b));
        assert_ne!(pa, pb);
        assert_eq!(full.intern(keyed(ExtractMode::Full, &a)), pa);
        assert_eq!(full.intern(keyed(ExtractMode::Full, &b)), pb);
        assert_eq!(full.plains[pb].values.as_deref(), Some(&b[..]));
        // Metadata mode keeps nothing to compare: the key decides.
        let mut meta = PlainPool::default();
        let pa = meta.intern(keyed(ExtractMode::Metadata, &a));
        assert_eq!(meta.intern(keyed(ExtractMode::Metadata, &b)), pa);
    }
}
