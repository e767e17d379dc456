//! The homomorphic tensor-circuit executor.
//!
//! Given a tensor [`Circuit`] and an [`ExecPlan`] (per-node layout
//! assignment + fixed-point scales — the policy decisions of the paper's
//! HTC), this walks the circuit and invokes the homomorphic kernels.
//! Because kernels are generic over [`Hisa`], the same executor performs
//! real encrypted inference *and* the compiler's data-flow analyses.
//!
//! Errors travel one way: a failing HISA instruction, a kernel contract
//! violation or a cancelled fan-out returns from the kernel as a
//! [`KernelError`], and [`try_run_encrypted_with`] attributes it once, to
//! the node that was running, as an [`ExecError`]. No later node runs. A
//! failing fan-out job's siblings run on their own forked backends and
//! still finish; on a backend that cannot fork, nothing runs after the
//! failing instruction.

use crate::cancel::{CancelReason, CancelToken};
use crate::ciphertensor::{decrypt_batch, try_encrypt_batch, CipherTensor};
use crate::kernels::concat::try_hconcat;
use crate::kernels::conv::{conv_output_layout, try_hconv2d_with_mask};
use crate::kernels::convert::try_convert_layout;
use crate::kernels::elementwise::{try_hactivation, try_hbatch_norm};
use crate::kernels::matmul::try_hmatmul;
use crate::kernels::pool::{try_havg_pool2d_with_mask, try_hglobal_avg_pool};
use crate::kernels::{KernelError, ScaleConfig};
use crate::layout::{Layout, LayoutKind};
use crate::tally::RunTally;
use chet_hisa::{Hisa, HisaError};
use chet_tensor::circuit::{Circuit, Op};
use chet_tensor::Tensor;
use std::fmt;

/// A fatal failure of the fallible execution pipeline, attributed to the
/// circuit node at which it occurred.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The circuit's shape is outside what the executor supports.
    UnsupportedCircuit {
        /// What made the circuit unsupported.
        reason: String,
    },
    /// A HISA instruction failed while executing the given node.
    Hisa {
        /// Index of the circuit node being executed.
        op_index: usize,
        /// Human-readable name of the node's operation.
        op: String,
        /// The underlying instruction failure.
        source: HisaError,
    },
    /// The result decrypted, but its values are numerically unusable.
    PrecisionLoss {
        /// Index of the circuit node the values came from (the output).
        op_index: usize,
        /// Human-readable name of the node's operation.
        op: String,
        /// What was wrong with the values.
        detail: String,
    },
    /// A kernel rejected the node's inputs (malformed shapes or layouts).
    Kernel {
        /// Index of the circuit node being executed.
        op_index: usize,
        /// Human-readable name of the node's operation.
        op: String,
        /// The kernel's contract violation (always
        /// [`KernelError::Contract`]).
        source: KernelError,
    },
    /// The run was cancelled cooperatively, between tensor ops or at a
    /// kernel fan-out job boundary.
    Cancelled {
        /// Index of the circuit node at which the token was found tripped.
        op_index: usize,
        /// Human-readable name of the node's operation.
        op: String,
        /// Why the token tripped (explicit cancel or deadline expiry).
        reason: CancelReason,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnsupportedCircuit { reason } => {
                write!(f, "unsupported circuit: {reason}")
            }
            ExecError::Hisa { op_index, op, source } => {
                write!(f, "op #{op_index} ({op}): {source}")
            }
            ExecError::PrecisionLoss { op_index, op, detail } => {
                write!(f, "op #{op_index} ({op}): precision loss: {detail}")
            }
            ExecError::Kernel { op_index, op, source } => {
                write!(f, "op #{op_index} ({op}): {source}")
            }
            ExecError::Cancelled { op_index, op, reason } => {
                write!(f, "op #{op_index} ({op}): run aborted: {reason}")
            }
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Hisa { source, .. } => Some(source),
            ExecError::Kernel { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl ExecError {
    /// The failing circuit node as `(op index, op name)`, when the failure
    /// is attributable to one. The same span convention the compiler's
    /// static diagnostics use, so dynamic and static findings line up.
    pub fn op_location(&self) -> Option<(usize, &str)> {
        match self {
            ExecError::UnsupportedCircuit { .. } => None,
            ExecError::Hisa { op_index, op, .. }
            | ExecError::PrecisionLoss { op_index, op, .. }
            | ExecError::Kernel { op_index, op, .. }
            | ExecError::Cancelled { op_index, op, .. } => Some((*op_index, op.as_str())),
        }
    }

    /// The stable lint code of the static diagnostic that predicts this
    /// runtime failure, or `None` for failures with no static analogue
    /// (cancellation). Returned as a plain string because the lint catalog
    /// lives upstream in the compiler crate.
    pub fn lint_code(&self) -> Option<&'static str> {
        match self {
            ExecError::UnsupportedCircuit { .. } | ExecError::Kernel { .. } => {
                Some("CHET-E005")
            }
            ExecError::Hisa { source, .. } => Some(match source {
                HisaError::ScaleMismatch { .. } => "CHET-E001",
                HisaError::LevelExhausted { .. } => "CHET-E002",
                HisaError::MissingRotationKey { .. } => "CHET-E003",
                HisaError::SlotOverflow { .. } => "CHET-E004",
                HisaError::InvalidRescale { .. } => "CHET-E005",
            }),
            ExecError::PrecisionLoss { .. } => Some("CHET-W004"),
            ExecError::Cancelled { .. } => None,
        }
    }
}

/// Execution statistics from a fallible run — chiefly the graceful-
/// degradation log: how many rotations had to be composed from several
/// keyed rotations because their exact key was missing, and what that cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecReport {
    /// Rotations served by key composition instead of a dedicated key.
    pub degraded_rotations: usize,
    /// Extra elementary rotations those compositions cost.
    pub extra_rotation_ops: usize,
}

/// Per-node progress hook: the executor calls [`ExecObserver::on_op`] right
/// before each circuit node runs. A serving layer uses it to count executed
/// ops or time nodes without instrumenting kernel code.
pub trait ExecObserver {
    /// Called before node `op_index` (display name `op`) executes.
    fn on_op(&mut self, op_index: usize, op: &str);
}

/// Controls threaded through a fallible run: a cooperative [`CancelToken`]
/// checked between tensor ops (a tripped token aborts the run with
/// [`ExecError::Cancelled`]) and an optional [`ExecObserver`].
///
/// Tensor ops are the preemption granularity: individual HISA instructions
/// are short compared to a conv/matmul node, so checking between nodes
/// bounds the overrun past a deadline to one node's work.
#[derive(Default)]
pub struct ExecControl<'a> {
    /// Checked before every node.
    pub cancel: Option<&'a CancelToken>,
    /// Notified before every node executes.
    pub observer: Option<&'a mut dyn ExecObserver>,
}

impl<'a> ExecControl<'a> {
    /// No cancellation, no observer.
    pub fn none() -> Self {
        ExecControl::default()
    }

    /// Cancellation only.
    pub fn cancelled_by(token: &'a CancelToken) -> Self {
        ExecControl { cancel: Some(token), observer: None }
    }
}

/// Display name of a circuit operation: the kernel name errors, observers
/// and static diagnostics attribute a node to.
pub fn op_name(op: &Op) -> &'static str {
    match op {
        Op::Input { .. } => "input",
        Op::Conv2d { .. } => "conv2d",
        Op::MatMul { .. } => "matmul",
        Op::AvgPool2d { .. } => "avg_pool2d",
        Op::GlobalAvgPool { .. } => "global_avg_pool",
        Op::Activation { .. } => "activation",
        Op::BatchNorm { .. } => "batch_norm",
        Op::Concat { .. } => "concat",
        Op::Flatten { .. } => "flatten",
    }
}

/// All policy decisions needed to execute a circuit homomorphically: this
/// is the reproduction's Homomorphic Tensor Circuit metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecPlan {
    /// Output layout kind per node. Only convolutions can change layout;
    /// other ops inherit their input's kind (the assignment is advisory
    /// for them).
    pub layouts: Vec<LayoutKind>,
    /// The four fixed-point scales (paper §5.5).
    pub scales: ScaleConfig,
    /// Zero margin (rows/columns) reserved in the input layout for
    /// Same-padding reads.
    pub margin: usize,
}

impl ExecPlan {
    /// A plan assigning the same layout kind to every node, with the margin
    /// the circuit's convolutions require.
    pub fn uniform(circuit: &Circuit, kind: LayoutKind, scales: ScaleConfig) -> Self {
        ExecPlan {
            layouts: vec![kind; circuit.ops().len()],
            scales,
            margin: required_margin_for(circuit),
        }
    }
}

/// Margin (physical rows/columns) the input layout must reserve so every
/// `Same`-padded convolution reads zeros: the max kernel overhang times the
/// cumulative stride dilation at that convolution.
pub fn required_margin_for(circuit: &Circuit) -> usize {
    let mut dilation = vec![1usize; circuit.ops().len()];
    let mut margin = 0usize;
    for (i, op) in circuit.ops().iter().enumerate() {
        dilation[i] = match op {
            Op::Input { .. } => 1,
            Op::Conv2d { input, stride, weights, padding, .. } => {
                let d = dilation[*input];
                if *padding == chet_tensor::ops::Padding::Same {
                    let r = weights.shape()[2].max(weights.shape()[3]);
                    margin = margin.max((r - 1) * d);
                }
                d * stride
            }
            Op::AvgPool2d { input, stride, .. } => dilation[*input] * stride,
            Op::Activation { input, .. }
            | Op::BatchNorm { input, .. }
            | Op::Flatten { input } => dilation[*input],
            Op::Concat { inputs } => inputs.iter().map(|&i| dilation[i]).max().unwrap_or(1),
            Op::MatMul { .. } | Op::GlobalAvgPool { .. } => 1,
        };
    }
    margin
}

/// Backward analysis for *lazy masking* (paper §4.2: CHET "avoids or
/// delays" expensive masking): a node must emit zeroed junk slots only if
/// some consumer actually reads beyond the valid positions — a
/// `Same`-padded convolution (margin reads), a concatenation (block
/// moves), or a layout conversion. Activations and flattens pass junk
/// through, so requirements propagate to their producers; batch-norm,
/// dense layers and pools clean or tolerate junk by construction.
pub fn clean_output_required(circuit: &Circuit, plan: &ExecPlan) -> Vec<bool> {
    let ops = circuit.ops();
    let n = ops.len();
    let mut need = vec![false; n];
    // Produced layout kind per node (to find conversion sites).
    let mut produced = plan.layouts.clone();
    for (i, op) in ops.iter().enumerate() {
        produced[i] = match op {
            Op::Input { .. } | Op::Conv2d { .. } => plan.layouts[i],
            Op::MatMul { .. } | Op::GlobalAvgPool { .. } => LayoutKind::CHW,
            Op::Flatten { input } => produced[*input],
            // Converted at fetch time to the plan's kind.
            _ => plan.layouts[i],
        };
    }
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Conv2d { input, padding, .. } => {
                if *padding == chet_tensor::ops::Padding::Same {
                    need[*input] = true;
                }
            }
            Op::Concat { inputs } => {
                for &d in inputs {
                    need[d] = true;
                }
            }
            // Conversion sites (fetch repacks): require clean producers.
            Op::Activation { input, .. }
            | Op::BatchNorm { input, .. }
            | Op::AvgPool2d { input, .. }
            | Op::GlobalAvgPool { input } => {
                if produced[*input] != plan.layouts[i] {
                    need[*input] = true;
                }
            }
            _ => {}
        }
    }
    // Propagate through junk-preserving ops to the nearest maskable node.
    for i in (0..n).rev() {
        if need[i] {
            match &ops[i] {
                Op::Activation { input, .. } | Op::Flatten { input } => {
                    need[*input] = true;
                }
                _ => {}
            }
        }
    }
    need
}

/// The input layout at an explicit member width (`slots / batch` for a
/// batch of inputs, see `crate::ciphertensor::pack_batch`).
fn member_layout(
    circuit: &Circuit,
    plan: &ExecPlan,
    member_slots: usize,
) -> Result<Layout, ExecError> {
    let unsupported = |reason: String| ExecError::UnsupportedCircuit { reason };
    let (idx, shape) = circuit
        .ops()
        .iter()
        .enumerate()
        .find_map(|(i, op)| match op {
            Op::Input { shape } => Some((i, shape)),
            _ => None,
        })
        .ok_or_else(|| unsupported("circuit has no encrypted input".into()))?;
    let [c, ih, iw] = shape[..] else {
        return Err(unsupported(format!("input shape {shape:?} is not CHW")));
    };
    let kind = plan.layouts.get(idx).ok_or_else(|| {
        unsupported(format!("plan has no layout for input node #{idx}"))
    })?;
    Ok(match kind {
        LayoutKind::HW => Layout::hw(c, ih, iw, plan.margin, member_slots),
        LayoutKind::CHW => Layout::chw(c, ih, iw, plan.margin, member_slots),
    })
}

/// How many batch members fit one ciphertext for this circuit under this
/// plan, given the scheme's slot count — the paper's `slots /
/// ciphertext_size` capacity, made precise for this executor.
///
/// Batched execution is bit-identical to a solo run only when every
/// packing decision the kernels make at the member width matches the one
/// they make at the full solo width. The binding decision is each node's
/// `channels_per_ct` (how many channel blocks share a ciphertext), because
/// it fixes the grouping — and therefore the floating-point summation
/// order — of every channel reduction; a member width that shrinks it
/// produces numerically different (if equally accurate) outputs. So this
/// walks the circuit's layout flow at the solo width, mirroring
/// [`run_nodes`] exactly (raw producer layouts into conv/matmul,
/// fetch-time repacks at the conversion-site ops), and requires the member
/// to hold every node's used region `c_stride × next_pow2(channels_per_ct)`
/// — which also covers `try_hmatmul`'s power-of-two reduction span and
/// output vector. The result is the largest power of two `batch` with
/// `slots / batch >= member_width`, at least 1 (capacity 1 when the
/// circuit's layout flow cannot be traced or does not fit `slots`).
pub fn batch_capacity(circuit: &Circuit, plan: &ExecPlan, slots: usize) -> usize {
    match min_member_width(circuit, plan, slots) {
        Some(member) if member <= slots => {
            crate::layout::prev_power_of_two(slots / member).max(1)
        }
        _ => 1,
    }
}

/// The slot region one batch member actually uses under `l`: all
/// `channels_per_ct` blocks, pow2-rounded so rotation trees stay inside
/// it. Every kernel rotation/reduction offset is bounded by this.
fn member_requirement(l: &Layout) -> usize {
    l.c_stride * l.channels_per_ct.next_power_of_two()
}

/// Layout after a fetch-time repack to `want` — the metadata mirror of
/// `try_convert_layout` (same no-op condition as `run_nodes::fetch`).
fn convert_for_fetch(l: &Layout, want: LayoutKind) -> Layout {
    if l.kind == want || l.height * l.width <= 1 {
        return l.clone();
    }
    let mut out = l.clone();
    out.kind = want;
    out.channels_per_ct = match want {
        LayoutKind::CHW => {
            crate::layout::prev_power_of_two(l.slots / l.c_stride).max(1).min(l.channels)
        }
        LayoutKind::HW => 1,
    };
    out
}

/// Applies `convert_for_fetch` in place (fetch replaces the stored value,
/// so later consumers of `dep` see the converted layout), charging the
/// converted layout's requirement.
fn refetch(
    layouts: &mut [Option<Layout>],
    required: &mut usize,
    dep: usize,
    want: LayoutKind,
) -> Option<Layout> {
    let l = layouts.get(dep)?.clone()?;
    let converted = convert_for_fetch(&l, want);
    *required = (*required).max(member_requirement(&converted));
    layouts[dep] = Some(converted.clone());
    Some(converted)
}

/// The smallest power-of-two member width at which every node's packing
/// matches the solo run at `slots` — `None` when the flow cannot be
/// traced (malformed circuit/plan, or the solo layout itself overflows).
fn min_member_width(circuit: &Circuit, plan: &ExecPlan, slots: usize) -> Option<usize> {
    use chet_tensor::ops::{conv_output_dim, Padding};
    let ops = circuit.ops();
    if plan.layouts.len() != ops.len() {
        return None;
    }
    let mut layouts: Vec<Option<Layout>> = vec![None; ops.len()];
    let mut required = 1usize;
    for (i, op) in ops.iter().enumerate() {
        let produced = match op {
            Op::Input { shape } => {
                let [c, ih, iw] = shape[..] else { return None };
                let span = (iw + plan.margin) * (ih + plan.margin);
                if span.next_power_of_two() > slots {
                    return None;
                }
                match plan.layouts[i] {
                    LayoutKind::HW => Layout::hw(c, ih, iw, plan.margin, slots),
                    LayoutKind::CHW => Layout::chw(c, ih, iw, plan.margin, slots),
                }
            }
            Op::Conv2d { input, weights, stride, padding, .. } => {
                let lin = layouts.get(*input)?.clone()?;
                let [k_out, _, r, s] = weights.shape()[..] else { return None };
                if *stride == 0
                    || (*padding == Padding::Valid && (lin.height < r || lin.width < s))
                {
                    return None;
                }
                let (oh, _) = conv_output_dim(lin.height, r, *stride, *padding);
                let (ow, _) = conv_output_dim(lin.width, s, *stride, *padding);
                conv_output_layout(&lin, oh, ow, *stride, k_out, plan.layouts[i])
            }
            Op::MatMul { input, weights, .. } => {
                let _lin = layouts.get(*input)?.clone()?;
                let &out_dim = weights.shape().first()?;
                if out_dim == 0 || out_dim > slots {
                    return None;
                }
                Layout::dense_vector(out_dim, slots)
            }
            Op::AvgPool2d { input, kernel, stride } => {
                let x = refetch(&mut layouts, &mut required, *input, plan.layouts[i])?;
                if *kernel == 0 || *stride == 0 || *kernel > x.height || *kernel > x.width {
                    return None;
                }
                let (oh, _) = conv_output_dim(x.height, *kernel, *stride, Padding::Valid);
                let (ow, _) = conv_output_dim(x.width, *kernel, *stride, Padding::Valid);
                x.strided_view(oh, ow, *stride, x.channels)
            }
            Op::GlobalAvgPool { input } => {
                let mut out = refetch(&mut layouts, &mut required, *input, plan.layouts[i])?;
                out.height = 1;
                out.width = 1;
                out
            }
            Op::Activation { input, .. } | Op::BatchNorm { input, .. } => {
                refetch(&mut layouts, &mut required, *input, plan.layouts[i])?
            }
            Op::Concat { inputs } => {
                let mut total_c = 0usize;
                for &j in inputs {
                    total_c += refetch(&mut layouts, &mut required, j, plan.layouts[i])?.channels;
                }
                let mut out = layouts.get(*inputs.first()?)?.clone()?;
                out.channels = total_c;
                if out.kind == LayoutKind::CHW {
                    out.channels_per_ct = crate::layout::prev_power_of_two(slots / out.c_stride)
                        .max(1)
                        .min(total_c);
                }
                out
            }
            Op::Flatten { input } => layouts.get(*input)?.clone()?,
        };
        required = required.max(member_requirement(&produced));
        layouts[i] = Some(produced);
    }
    Some(required.next_power_of_two())
}

/// Client-side step: encodes and encrypts an image under the plan's
/// layout. Encode failures come back as [`ExecError::Hisa`] attributed to
/// the input node, a plan without an input layout as
/// [`ExecError::UnsupportedCircuit`].
pub fn try_encrypt_input<H: Hisa>(
    h: &mut H,
    circuit: &Circuit,
    plan: &ExecPlan,
    image: &Tensor,
) -> Result<CipherTensor<H::Ct>, ExecError> {
    try_encrypt_members(h, circuit, plan, &[image], 1)
}

/// Encodes and encrypts `images` as the members of one batch of `batch`
/// (see `crate::ciphertensor::pack_batch`); a solo input is a batch of one.
fn try_encrypt_members<H: Hisa>(
    h: &mut H,
    circuit: &Circuit,
    plan: &ExecPlan,
    images: &[&Tensor],
    batch: usize,
) -> Result<CipherTensor<H::Ct>, ExecError> {
    let layout = member_layout(circuit, plan, h.slots() / batch)?.with_batch(batch);
    let op_index = circuit
        .ops()
        .iter()
        .position(|op| matches!(op, Op::Input { .. }))
        .unwrap_or(0);
    try_encrypt_batch(h, images, &layout, plan.scales.input)
        .map_err(|source| ExecError::Hisa { op_index, op: "input".into(), source })
}

/// Server-side step: executes the homomorphic tensor circuit on an
/// encrypted input, returning the encrypted prediction and the
/// [`ExecReport`] with the degraded-rotation log (rotations composed from
/// available keys because the exact key was missing — the
/// graceful-degradation cost penalty).
///
/// The first failure aborts the run with an [`ExecError`] naming the op
/// index and operation. The [`ExecControl`]'s cancel token is checked
/// between tensor ops and at every kernel fan-out job boundary, so a
/// request whose deadline passes mid-circuit aborts with
/// [`ExecError::Cancelled`] instead of burning the remaining ciphertext
/// work.
pub fn try_run_encrypted_with<H: Hisa>(
    h: &mut H,
    circuit: &Circuit,
    plan: &ExecPlan,
    input: CipherTensor<H::Ct>,
    ctrl: &mut ExecControl<'_>,
) -> Result<(CipherTensor<H::Ct>, ExecReport), ExecError> {
    let mut p = RunTally::new(h, ctrl.cancel.cloned());
    let out = run_nodes(&mut p, circuit, plan, input, ctrl)?;
    Ok((out, p.report()))
}

/// The executor core: walks the node list, dispatching to kernels, and
/// attributes a kernel's failure to the node that was running.
// The `expect("dep computed")` calls assert topological order — ops only
// reference earlier nodes, which CircuitBuilder guarantees by construction.
#[allow(clippy::expect_used)]
fn run_nodes<H: Hisa>(
    p: &mut RunTally<'_, H>,
    circuit: &Circuit,
    plan: &ExecPlan,
    input: CipherTensor<H::Ct>,
    ctrl: &mut ExecControl<'_>,
) -> Result<CipherTensor<H::Ct>, ExecError> {
    let n = circuit.ops().len();
    if plan.layouts.len() != n {
        return Err(ExecError::UnsupportedCircuit {
            reason: format!(
                "plan assigns {} layouts to a circuit of {n} nodes",
                plan.layouts.len()
            ),
        });
    }
    // Free intermediate tensors after their last consumer.
    let mut last_use = vec![0usize; n];
    for (i, op) in circuit.ops().iter().enumerate() {
        for dep in op.inputs() {
            last_use[dep] = last_use[dep].max(i);
        }
    }
    last_use[circuit.output()] = n;

    let scales = &plan.scales;
    let need_clean = clean_output_required(circuit, plan);
    let mut values: Vec<Option<CipherTensor<H::Ct>>> = (0..n).map(|_| None).collect();
    let mut input_slot = Some(input);
    // Repacks a dependency when the plan assigns this node a different
    // layout family than its producer emitted (hybrid policies pay this).
    fn fetch<'v, H2: Hisa>(
        h: &mut H2,
        values: &'v mut [Option<CipherTensor<H2::Ct>>],
        dep: usize,
        want: LayoutKind,
        scales: &ScaleConfig,
    ) -> Result<&'v CipherTensor<H2::Ct>, KernelError> {
        let x = values[dep].as_ref().expect("dep computed");
        if x.layout.kind != want && x.layout.height * x.layout.width > 1 {
            values[dep] = Some(try_convert_layout(h, x, want, scales)?);
        }
        Ok(values[dep].as_ref().expect("dep computed"))
    }
    for (i, op) in circuit.ops().iter().enumerate() {
        // Cooperative preemption point: deadline/cancel checks and progress
        // observation happen between nodes; fan-out jobs poll the token too.
        if let Some(token) = ctrl.cancel {
            if let Err(reason) = token.check() {
                return Err(ExecError::Cancelled { op_index: i, op: op_name(op).into(), reason });
            }
        }
        if let Some(obs) = ctrl.observer.as_deref_mut() {
            obs.on_op(i, op_name(op));
        }
        let kind = plan.layouts[i];
        let v = match op {
            Op::Input { .. } => match input_slot.take() {
                Some(x) => Ok(x),
                None => {
                    return Err(ExecError::UnsupportedCircuit {
                        reason: "circuits with multiple encrypted inputs are unsupported".into(),
                    })
                }
            },
            Op::Conv2d { input, weights, bias, stride, padding } => try_hconv2d_with_mask(
                p,
                values[*input].as_ref().expect("dep computed"),
                weights,
                bias.as_deref(),
                *stride,
                *padding,
                kind,
                scales,
                need_clean[i],
            ),
            Op::MatMul { input, weights, bias } => try_hmatmul(
                p,
                values[*input].as_ref().expect("dep computed"),
                weights,
                bias.as_deref(),
                scales,
            ),
            Op::AvgPool2d { input, kernel, stride } => {
                fetch(p, &mut values, *input, kind, scales).and_then(|x| {
                    try_havg_pool2d_with_mask(p, x, *kernel, *stride, scales, need_clean[i])
                })
            }
            Op::GlobalAvgPool { input } => fetch(p, &mut values, *input, kind, scales)
                .and_then(|x| try_hglobal_avg_pool(p, x, scales)),
            Op::Activation { input, a, b } => fetch(p, &mut values, *input, kind, scales)
                .and_then(|x| try_hactivation(p, x, *a, *b, scales)),
            Op::BatchNorm { input, scale, shift } => fetch(p, &mut values, *input, kind, scales)
                .and_then(|x| try_hbatch_norm(p, x, scale, shift, scales)),
            Op::Concat { inputs } => inputs
                .iter()
                .try_for_each(|&j| fetch(p, &mut values, j, kind, scales).map(|_| ()))
                .and_then(|()| {
                    let xs: Vec<&CipherTensor<H::Ct>> = inputs
                        .iter()
                        .map(|&j| values[j].as_ref().expect("dep computed"))
                        .collect();
                    try_hconcat(p, &xs, scales)
                }),
            Op::Flatten { input } => {
                // Metadata-only: the dense kernel enumerates any layout.
                Ok(values[*input].clone().expect("dep computed"))
            }
        };
        let v = v.map_err(|cause| {
            let op = op_name(op).into();
            match cause {
                KernelError::Hisa(source) => ExecError::Hisa { op_index: i, op, source },
                KernelError::Cancelled => {
                    let reason = ctrl.cancel.and_then(|t| t.check().err());
                    ExecError::Cancelled {
                        op_index: i,
                        op,
                        reason: reason.unwrap_or(CancelReason::Cancelled),
                    }
                }
                source => ExecError::Kernel { op_index: i, op, source },
            }
        })?;
        values[i] = Some(v);
        // Drop tensors that will not be used again.
        for dep in op.inputs() {
            if last_use[dep] <= i && dep != circuit.output() {
                values[dep] = None;
            }
        }
    }
    Ok(values[circuit.output()].take().expect("output computed"))
}

/// End-to-end convenience: encrypt, run, decrypt (the full Figure 3 flow on
/// one machine). Returns the decrypted prediction or the precise
/// [`ExecError`]; non-finite output slots (NaN/∞) surface as
/// [`ExecError::PrecisionLoss`]. A solo run is a batch of one: for
/// cancellation, per-op observation or the [`ExecReport`], call
/// [`try_infer_batch_with_control`] with one image at `batch = 1`.
pub fn try_infer<H: Hisa>(
    h: &mut H,
    circuit: &Circuit,
    plan: &ExecPlan,
    image: &Tensor,
) -> Result<Tensor, ExecError> {
    let (mut outputs, _) =
        try_infer_batch_with_control(h, circuit, plan, &[image], 1, &mut ExecControl::none())?;
    outputs.pop().ok_or_else(|| ExecError::UnsupportedCircuit {
        reason: "a batch of one decoded no output".into(),
    })
}

/// Packs up to `batch` images along the slot axis of one ciphertext set
/// (the paper's `slots / ciphertext_size` batch dimension), runs the
/// circuit **once** under an [`ExecControl`] (cooperative cancellation,
/// per-op observation), and returns one prediction per supplied image, in
/// order, plus the [`ExecReport`] (degraded-rotation log) — the full
/// fallible surface the serving layer runs every request through.
/// Non-finite output slots (NaN/∞) surface as [`ExecError::PrecisionLoss`].
///
/// `batch` must be a power of two within [`batch_capacity`]; a partial
/// batch (`images.len() < batch`) leaves the trailing members zero. Because
/// the packing is cyclic with the member width as period, every member sees
/// exactly the slot arithmetic a solo run would, so batched outputs are
/// bit-identical to unbatched ones under an exact backend.
pub fn try_infer_batch_with_control<H: Hisa>(
    h: &mut H,
    circuit: &Circuit,
    plan: &ExecPlan,
    images: &[&Tensor],
    batch: usize,
    ctrl: &mut ExecControl<'_>,
) -> Result<(Vec<Tensor>, ExecReport), ExecError> {
    if images.is_empty() || images.len() > batch {
        return Err(ExecError::UnsupportedCircuit {
            reason: format!("batch of {} images must be 1..={batch}", images.len()),
        });
    }
    let capacity = batch_capacity(circuit, plan, h.slots());
    if !batch.is_power_of_two() || batch > capacity {
        return Err(ExecError::UnsupportedCircuit {
            reason: format!(
                "batch {batch} exceeds this circuit's slot-axis capacity {capacity}"
            ),
        });
    }
    let enc = try_encrypt_members(h, circuit, plan, images, batch)?;
    let (out, report) = try_run_encrypted_with(h, circuit, plan, enc, ctrl)?;
    let members = decrypt_batch(h, &out);
    let out_idx = circuit.output();
    let mut results = Vec::with_capacity(images.len());
    for dec in members.into_iter().take(images.len()) {
        if dec.data().iter().any(|v| !v.is_finite()) {
            return Err(ExecError::PrecisionLoss {
                op_index: out_idx,
                op: op_name(&circuit.ops()[out_idx]).into(),
                detail: "decrypted output contains non-finite slots".into(),
            });
        }
        results.push(reshape_output(circuit, dec));
    }
    Ok((results, report))
}

/// Dense outputs come back as `[len, 1, 1]`; flatten to `[len]` to match
/// the reference evaluator.
fn reshape_output(circuit: &Circuit, dec: Tensor) -> Tensor {
    let shapes = circuit.shapes();
    let want = &shapes[circuit.output()];
    if want.len() == 1 && dec.shape() != &want[..] {
        dec.reshape(want.clone())
    } else {
        dec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chet_ckks::sim::SimCkks;
    use chet_hisa::{EncryptionParams, RotationKeyPolicy};
    use chet_tensor::circuit::CircuitBuilder;
    use chet_tensor::ops::Padding;

    fn sim(chain: usize) -> SimCkks {
        let params = EncryptionParams::rns_ckks(8192, 40, chain);
        SimCkks::new(&params, &RotationKeyPolicy::PowersOfTwo, 5).without_noise()
    }

    fn small_cnn() -> Circuit {
        let mut b = CircuitBuilder::new();
        let x = b.input(vec![1, 8, 8]);
        let w1 = Tensor::from_fn(vec![2, 1, 3, 3], |i| ((i[0] + i[2] + i[3]) % 3) as f64 * 0.2 - 0.2);
        let c1 = b.conv2d(x, w1, Some(vec![0.1, -0.1]), 1, Padding::Valid);
        let a1 = b.activation(c1, 0.1, 1.0);
        let p1 = b.avg_pool2d(a1, 2, 2);
        let f = b.flatten(p1);
        let wfc = Tensor::from_fn(vec![3, 18], |i| ((i[0] * 7 + i[1]) % 5) as f64 * 0.1 - 0.2);
        let fc = b.matmul(f, wfc, Some(vec![0.5, 0.0, -0.5]));
        b.build(fc)
    }

    #[test]
    fn end_to_end_small_cnn_all_layouts() {
        let circuit = small_cnn();
        let image = Tensor::from_fn(vec![1, 8, 8], |i| ((i[1] * 8 + i[2]) % 11) as f64 * 0.1 - 0.5);
        let want = circuit.eval(&[image.clone()]);
        for kind in [LayoutKind::HW, LayoutKind::CHW] {
            let mut h = sim(8);
            let plan = ExecPlan::uniform(&circuit, kind, ScaleConfig::default());
            let got = try_infer(&mut h, &circuit, &plan, &image).unwrap();
            assert_eq!(got.shape(), want.shape());
            assert!(
                got.max_abs_diff(&want) < 1e-4,
                "{kind}: diff {}",
                got.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn mixed_layout_plan() {
        // HW for the conv, CHW after (the paper's HW-conv/CHW-rest policy).
        let circuit = small_cnn();
        let image = Tensor::from_fn(vec![1, 8, 8], |i| (i[1] + i[2]) as f64 * 0.05);
        let want = circuit.eval(&[image.clone()]);
        let mut h = sim(8);
        let mut plan = ExecPlan::uniform(&circuit, LayoutKind::HW, ScaleConfig::default());
        for (i, op) in circuit.ops().iter().enumerate() {
            if matches!(op, Op::Conv2d { .. }) {
                plan.layouts[i] = LayoutKind::CHW; // conv emits CHW
            }
        }
        let got = try_infer(&mut h, &circuit, &plan, &image).unwrap();
        assert!(got.max_abs_diff(&want) < 1e-4, "diff {}", got.max_abs_diff(&want));
    }

    #[test]
    fn tripped_cancel_token_aborts_at_first_op() {
        let circuit = small_cnn();
        let plan = ExecPlan::uniform(&circuit, LayoutKind::CHW, ScaleConfig::default());
        let image = Tensor::zeros(vec![1, 8, 8]);
        let mut h = sim(8);
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        let mut ctrl = ExecControl::cancelled_by(&token);
        match try_infer_batch_with_control(&mut h, &circuit, &plan, &[&image], 1, &mut ctrl) {
            Err(ExecError::Cancelled { op_index, reason, .. }) => {
                assert_eq!(op_index, 0);
                assert_eq!(reason, crate::cancel::CancelReason::Cancelled);
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_aborts_with_deadline_reason() {
        let circuit = small_cnn();
        let plan = ExecPlan::uniform(&circuit, LayoutKind::CHW, ScaleConfig::default());
        let image = Tensor::zeros(vec![1, 8, 8]);
        let mut h = sim(8);
        let token = crate::cancel::CancelToken::with_deadline(std::time::Duration::ZERO);
        let mut ctrl = ExecControl::cancelled_by(&token);
        let err = try_infer_batch_with_control(&mut h, &circuit, &plan, &[&image], 1, &mut ctrl)
            .expect_err("expired deadline must abort");
        assert!(
            matches!(
                err,
                ExecError::Cancelled {
                    reason: crate::cancel::CancelReason::DeadlineExceeded,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn observer_sees_every_node_of_a_healthy_run() {
        struct Counter(Vec<String>);
        impl ExecObserver for Counter {
            fn on_op(&mut self, _op_index: usize, op: &str) {
                self.0.push(op.to_string());
            }
        }
        let circuit = small_cnn();
        let plan = ExecPlan::uniform(&circuit, LayoutKind::CHW, ScaleConfig::default());
        let image = Tensor::zeros(vec![1, 8, 8]);
        let mut h = sim(8);
        let mut counter = Counter(Vec::new());
        let mut ctrl = ExecControl { cancel: None, observer: Some(&mut counter) };
        try_infer_batch_with_control(&mut h, &circuit, &plan, &[&image], 1, &mut ctrl)
            .expect("healthy run");
        assert_eq!(counter.0.len(), circuit.ops().len());
        assert_eq!(counter.0[0], "input");
    }

    #[test]
    fn malformed_matmul_surfaces_as_kernel_error() {
        // A circuit whose dense layer cannot fit one ciphertext: the
        // executor must reject it as a value, not a panic.
        let mut b = CircuitBuilder::new();
        let x = b.input(vec![1, 4, 4]);
        let f = b.flatten(x);
        let w = Tensor::zeros(vec![8192, 16]); // 8192 rows > 4096 slots
        let m = b.matmul(f, w, None);
        let circuit = b.build(m);
        let plan = ExecPlan::uniform(&circuit, LayoutKind::CHW, ScaleConfig::default());
        let mut h = sim(8);
        let err = try_infer(&mut h, &circuit, &plan, &Tensor::zeros(vec![1, 4, 4]))
            .expect_err("oversized dense layer must be rejected");
        match err {
            ExecError::Kernel { op, source, .. } => {
                assert_eq!(op, "matmul");
                assert!(source.to_string().contains("fit one ciphertext"), "{source}");
            }
            other => panic!("expected Kernel error, got {other:?}"),
        }
    }

    #[test]
    fn margin_computed_from_same_convs() {
        let mut b = CircuitBuilder::new();
        let x = b.input(vec![1, 8, 8]);
        let w = Tensor::zeros(vec![1, 1, 3, 3]);
        let c1 = b.conv2d(x, w.clone(), None, 2, Padding::Same);
        let c2 = b.conv2d(c1, w, None, 1, Padding::Same);
        let circuit = b.build(c2);
        // Second conv runs at dilation 2: margin = (3-1)*2 = 4.
        assert_eq!(required_margin_for(&circuit), 4);
    }

    #[test]
    fn batch_capacity_reflects_input_span_and_dense_width() {
        let circuit = small_cnn();
        let plan = ExecPlan::uniform(&circuit, LayoutKind::CHW, ScaleConfig::default());
        // Input 8×8 margin 0 → block 64; the conv output packs its 2
        // channel blocks into one ciphertext (solo does, and identity
        // requires members to match), so the member is 64 × 2 = 128.
        assert_eq!(batch_capacity(&circuit, &plan, 4096), 32);
        assert_eq!(batch_capacity(&circuit, &plan, 128), 1);
        // A narrower scheme than the member width still reports capacity 1.
        assert_eq!(batch_capacity(&circuit, &plan, 16), 1);
        // One ciphertext per channel: only the channel grid binds.
        let hw = ExecPlan::uniform(&circuit, LayoutKind::HW, ScaleConfig::default());
        assert_eq!(batch_capacity(&circuit, &hw, 4096), 64);
    }

    #[test]
    fn batched_inference_is_bit_identical_to_unbatched() {
        // The tentpole invariant: packing B images along the slot axis and
        // running the circuit once must yield, for every member, *exactly*
        // the slots a solo run produces (exact backend ⇒ bitwise equality).
        let circuit = small_cnn();
        let images: Vec<Tensor> = (0..4)
            .map(|s| {
                Tensor::from_fn(vec![1, 8, 8], |i| {
                    ((s * 13 + i[1] * 8 + i[2]) % 17) as f64 * 0.07 - 0.5
                })
            })
            .collect();
        for kind in [LayoutKind::HW, LayoutKind::CHW] {
            let plan = ExecPlan::uniform(&circuit, kind, ScaleConfig::default());
            let solo: Vec<Tensor> = images
                .iter()
                .map(|img| {
                    let mut h = sim(8);
                    try_infer(&mut h, &circuit, &plan, img).expect("solo run")
                })
                .collect();
            for batch in [1usize, 2, 4] {
                for chunk in images.chunks(batch) {
                    let refs: Vec<&Tensor> = chunk.iter().collect();
                    let mut h = sim(8);
                    let (got, _) = try_infer_batch_with_control(
                        &mut h,
                        &circuit,
                        &plan,
                        &refs,
                        batch,
                        &mut ExecControl::none(),
                    )
                    .expect("batched run");
                    assert_eq!(got.len(), chunk.len());
                    for (g, img) in got.iter().zip(chunk) {
                        let want = &solo[images
                            .iter()
                            .position(|x| std::ptr::eq(x, img))
                            .expect("member image")];
                        assert_eq!(
                            g.data(),
                            want.data(),
                            "{kind} batch={batch}: member diverged from solo run"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn oversized_batch_is_rejected_as_unsupported() {
        let circuit = small_cnn();
        let plan = ExecPlan::uniform(&circuit, LayoutKind::CHW, ScaleConfig::default());
        let image = Tensor::zeros(vec![1, 8, 8]);
        let mut h = sim(8);
        let cap = batch_capacity(&circuit, &plan, h.slots());
        let err = try_infer_batch_with_control(
            &mut h,
            &circuit,
            &plan,
            &[&image],
            cap * 2,
            &mut ExecControl::none(),
        )
        .expect_err("over-capacity batch must be rejected");
        assert!(
            matches!(err, ExecError::UnsupportedCircuit { ref reason } if reason.contains("capacity")),
            "got {err:?}"
        );
    }

    #[test]
    fn squeeze_like_concat_circuit() {
        let mut b = CircuitBuilder::new();
        let x = b.input(vec![2, 6, 6]);
        let ws = Tensor::from_fn(vec![2, 2, 1, 1], |i| (i[0] + i[1]) as f64 * 0.3 - 0.3);
        let sq = b.conv2d(x, ws, None, 1, Padding::Valid);
        let a = b.activation(sq, 0.2, 0.8);
        let we1 = Tensor::from_fn(vec![2, 2, 1, 1], |i| i[0] as f64 * 0.5 - 0.2);
        let we3 = Tensor::from_fn(vec![2, 2, 3, 3], |i| ((i[2] + i[3]) % 2) as f64 * 0.2 - 0.1);
        let e1 = b.conv2d(a, we1, None, 1, Padding::Same);
        let e3 = b.conv2d(a, we3, None, 1, Padding::Same);
        let cc = b.concat(vec![e1, e3]);
        let g = b.global_avg_pool(cc);
        let circuit = b.build(g);
        let image = Tensor::from_fn(vec![2, 6, 6], |i| ((i[0] * 3 + i[1] + i[2]) % 4) as f64 * 0.2);
        let want = circuit.eval(&[image.clone()]);
        for kind in [LayoutKind::HW, LayoutKind::CHW] {
            let mut h = sim(8);
            let plan = ExecPlan::uniform(&circuit, kind, ScaleConfig::default());
            let got = try_infer(&mut h, &circuit, &plan, &image).unwrap();
            let diff = got
                .reshape(vec![got.numel()])
                .max_abs_diff(&want.reshape(vec![want.numel()]));
            assert!(diff < 1e-4, "{kind}: diff {diff}");
        }
    }
}
