//! Static circuit verification & lints — the `chet-analyze` pass.
//!
//! CHET's premise (paper §5) is that FHE correctness constraints are
//! *statically decidable* by running the circuit under abstract
//! interpretations of the ciphertext type: rescale-driven modulus
//! consumption, rotation-key availability, slot capacity and fixed-point
//! scale alignment all fall out of the same on-the-fly data-flow mechanism.
//! Parameter selection and layout pricing ([`crate::params`],
//! [`crate::layout`]) run on this module's walker and domains too, and IR
//! extraction ([`crate::ir::extract_ir`]) is the same walk with a recorder
//! attached.
//!
//! This module turns that mechanism into a verifier:
//!
//! * [`domain`] — the [`AbstractDomain`](domain::AbstractDomain) trait, a
//!   product combinator, and concrete domains for scales, modulus levels,
//!   slot occupancy and rotation amounts.
//! * [`walker`] — [`VerifyInterp`](walker::VerifyInterp), a fixpoint-free
//!   forward walker: a [`chet_hisa::Hisa`] interpretation whose ciphertexts
//!   carry domain facts and which *never fails*, so one pass over the HISA
//!   trace collects every diagnostic; and the one walk function that
//!   drives it through the executor for every static pass.
//! * This module — the [`Diagnostic`] model (severity, stable lint codes,
//!   per-op provenance, text + machine rendering) and the
//!   [`verify_compiled`] entry point that `Compiler::compile_checked` and
//!   `chet-serve`'s publish gate run *before* any dynamic probe.
//!
//! Unlike the dynamic SimCkks probe (`crate::validate`), verification never
//! executes ciphertext arithmetic: a bad artifact is rejected from the
//! trace alone, with the failing op's index and kernel attached.

pub mod domain;
pub mod walker;

use crate::compiler::CompiledCircuit;
use crate::params::circuit_fits;
use domain::FirstUse;
use chet_runtime::exec::{op_name, ExecError};
use chet_tensor::circuit::Circuit;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use chet_hisa::json::Json;
use std::fmt;

/// How severe a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The artifact would misbehave at run time; it must not be published.
    Deny,
    /// Wasteful or suspicious, but executable.
    Warn,
    /// Informational (e.g. a rotation served by key composition).
    Note,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Deny => write!(f, "deny"),
            Severity::Warn => write!(f, "warn"),
            Severity::Note => write!(f, "note"),
        }
    }
}

/// Stable lint codes. The `CHET-E…` family is [`Severity::Deny`], `CHET-W…`
/// is [`Severity::Warn`], `CHET-N…` is [`Severity::Note`], and `CHET-P…` is
/// the performance family from the whole-circuit IR analyzer
/// ([`crate::ir::analyze`]) with per-code severities; codes are part of the
/// tool's public interface and never renumbered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// CHET-E001: a binary op joins operands with diverged fixed-point
    /// scales (the dynamic analogue panics with "scales must match").
    ScaleMismatch,
    /// CHET-E002: the circuit's rescaling requirement exceeds the modulus
    /// budget the artifact actually carries.
    LevelExhaustion,
    /// CHET-E003: a rotation step cannot be served by (or composed from)
    /// the artifact's rotation-key set.
    MissingRotationKey,
    /// CHET-E004: a tensor does not fit the ciphertext slot count.
    SlotOverflow,
    /// CHET-E005: the circuit uses a shape or kernel contract the toolchain
    /// cannot execute.
    UnsupportedOp,
    /// CHET-E006: the encryption parameters are structurally invalid or
    /// violate the security table.
    InvalidParams,
    /// CHET-W001: a rescale fired on a ciphertext already at (or below) the
    /// working scale — it burns modulus for no precision benefit.
    RedundantRescale,
    /// CHET-W002: the artifact carries rotation keys for steps the circuit
    /// never uses.
    UnusedRotationKey,
    /// CHET-W003: a circuit node is unreachable from the output.
    DeadOp,
    /// CHET-W004: the output ciphertext's scale is below the precision the
    /// compilation requested.
    PrecisionBudget,
    /// CHET-N001: a rotation is served by composing several keyed
    /// rotations instead of one dedicated key.
    DegradedRotation,
    /// CHET-N002: the compiler's key-pruning pass removed rotation keys the
    /// layout search had provisionally requested.
    PrunedRotationKey,
    /// CHET-P001: the same ciphertext is rotated by the same step more than
    /// once — the rotation result could be computed once and reused.
    DuplicateRotation,
    /// CHET-P002: one ciphertext is rotated by several distinct steps; the
    /// key-switch decomposition (the dominant cost of every rotation) can
    /// be computed once and shared across the steps.
    HoistableRotation,
    /// CHET-P003: two identical HISA instructions compute the same value —
    /// a common subexpression a rewriter could eliminate.
    CommonSubexpression,
    /// CHET-P004: a HISA instruction's result never reaches the output —
    /// dead ciphertext computation.
    DeadCiphertext,
    /// CHET-P005: the artifact holds rotation keys for steps the traced
    /// instruction stream never requests.
    UnusedKeyedStep,
    /// CHET-B001: the circuit's slot-axis batch capacity — how many
    /// inference requests fit one ciphertext (`slots / ciphertext_size`,
    /// paper §7's throughput lever). Capacity 1 means batching cannot help
    /// this circuit at these parameters.
    BatchCapacity,
}

impl LintCode {
    /// Every code, in catalog order.
    pub const ALL: [LintCode; 18] = [
        LintCode::ScaleMismatch,
        LintCode::LevelExhaustion,
        LintCode::MissingRotationKey,
        LintCode::SlotOverflow,
        LintCode::UnsupportedOp,
        LintCode::InvalidParams,
        LintCode::RedundantRescale,
        LintCode::UnusedRotationKey,
        LintCode::DeadOp,
        LintCode::PrecisionBudget,
        LintCode::DegradedRotation,
        LintCode::PrunedRotationKey,
        LintCode::DuplicateRotation,
        LintCode::HoistableRotation,
        LintCode::CommonSubexpression,
        LintCode::DeadCiphertext,
        LintCode::UnusedKeyedStep,
        LintCode::BatchCapacity,
    ];

    /// The stable code string, e.g. `"CHET-E001"`.
    pub fn code(self) -> &'static str {
        match self {
            LintCode::ScaleMismatch => "CHET-E001",
            LintCode::LevelExhaustion => "CHET-E002",
            LintCode::MissingRotationKey => "CHET-E003",
            LintCode::SlotOverflow => "CHET-E004",
            LintCode::UnsupportedOp => "CHET-E005",
            LintCode::InvalidParams => "CHET-E006",
            LintCode::RedundantRescale => "CHET-W001",
            LintCode::UnusedRotationKey => "CHET-W002",
            LintCode::DeadOp => "CHET-W003",
            LintCode::PrecisionBudget => "CHET-W004",
            LintCode::DegradedRotation => "CHET-N001",
            LintCode::PrunedRotationKey => "CHET-N002",
            LintCode::DuplicateRotation => "CHET-P001",
            LintCode::HoistableRotation => "CHET-P002",
            LintCode::CommonSubexpression => "CHET-P003",
            LintCode::DeadCiphertext => "CHET-P004",
            LintCode::UnusedKeyedStep => "CHET-P005",
            LintCode::BatchCapacity => "CHET-B001",
        }
    }

    /// The short kebab-case lint name.
    pub fn name(self) -> &'static str {
        match self {
            LintCode::ScaleMismatch => "scale-mismatch",
            LintCode::LevelExhaustion => "level-exhaustion",
            LintCode::MissingRotationKey => "missing-rotation-key",
            LintCode::SlotOverflow => "slot-overflow",
            LintCode::UnsupportedOp => "unsupported-op",
            LintCode::InvalidParams => "invalid-params",
            LintCode::RedundantRescale => "redundant-rescale",
            LintCode::UnusedRotationKey => "unused-rotation-key",
            LintCode::DeadOp => "dead-output",
            LintCode::PrecisionBudget => "precision-budget",
            LintCode::DegradedRotation => "degraded-rotation",
            LintCode::PrunedRotationKey => "pruned-rotation-key",
            LintCode::DuplicateRotation => "duplicate-rotation",
            LintCode::HoistableRotation => "hoistable-rotation",
            LintCode::CommonSubexpression => "common-subexpression",
            LintCode::DeadCiphertext => "dead-ciphertext",
            LintCode::UnusedKeyedStep => "unused-keyed-step",
            LintCode::BatchCapacity => "batch-capacity",
        }
    }

    /// Severity class of the code family.
    pub fn severity(self) -> Severity {
        match self {
            LintCode::ScaleMismatch
            | LintCode::LevelExhaustion
            | LintCode::MissingRotationKey
            | LintCode::SlotOverflow
            | LintCode::UnsupportedOp
            | LintCode::InvalidParams => Severity::Deny,
            LintCode::RedundantRescale
            | LintCode::UnusedRotationKey
            | LintCode::DeadOp
            | LintCode::PrecisionBudget
            | LintCode::DuplicateRotation
            | LintCode::CommonSubexpression
            | LintCode::DeadCiphertext => Severity::Warn,
            LintCode::DegradedRotation
            | LintCode::PrunedRotationKey
            | LintCode::HoistableRotation
            | LintCode::UnusedKeyedStep
            | LintCode::BatchCapacity => Severity::Note,
        }
    }

    /// What the lint catches, for the catalog.
    pub fn description(self) -> &'static str {
        match self {
            LintCode::ScaleMismatch => {
                "a binary op joins ciphertexts whose fixed-point scales diverged"
            }
            LintCode::LevelExhaustion => {
                "the circuit needs more rescaling modulus than the artifact carries"
            }
            LintCode::MissingRotationKey => {
                "a rotation step cannot be composed from the artifact's key set"
            }
            LintCode::SlotOverflow => "a tensor does not fit the ciphertext slot count",
            LintCode::UnsupportedOp => "a circuit shape or kernel contract is unexecutable",
            LintCode::InvalidParams => "encryption parameters are invalid or insecure",
            LintCode::RedundantRescale => "a rescale burns modulus with no precision benefit",
            LintCode::UnusedRotationKey => "rotation keys are generated but never used",
            LintCode::DeadOp => "a circuit node is unreachable from the output",
            LintCode::PrecisionBudget => {
                "the output scale is below the requested output precision"
            }
            LintCode::DegradedRotation => {
                "a rotation is composed from several keyed rotations"
            }
            LintCode::PrunedRotationKey => {
                "the key-pruning pass dropped provisionally requested rotation keys"
            }
            LintCode::DuplicateRotation => {
                "the same ciphertext is rotated by the same step more than once"
            }
            LintCode::HoistableRotation => {
                "one ciphertext is rotated by several steps; the key-switch \
                 decomposition could be hoisted and shared"
            }
            LintCode::CommonSubexpression => {
                "identical HISA instructions compute the same value twice"
            }
            LintCode::DeadCiphertext => {
                "a HISA instruction's result never reaches the output"
            }
            LintCode::UnusedKeyedStep => {
                "rotation keys exist for steps the instruction stream never uses"
            }
            LintCode::BatchCapacity => {
                "how many inference requests the slot axis can batch into one ciphertext"
            }
        }
    }

    /// Parses a stable code string back into the enum.
    pub fn from_code(code: &str) -> Option<LintCode> {
        LintCode::ALL.iter().copied().find(|c| c.code() == code)
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// Where a diagnostic points: the circuit node (HISA-trace op index) and the
/// kernel/operation executing there. Dynamic [`ExecError`]s report the same
/// spans, so static and probe failures line up.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OpSpan {
    /// Index of the circuit node.
    pub op_index: usize,
    /// Display name of the node's operation ("conv2d", "matmul", …).
    pub kernel: String,
}

impl OpSpan {
    /// Builds a span.
    pub fn new(op_index: usize, kernel: impl Into<String>) -> Self {
        OpSpan { op_index, kernel: kernel.into() }
    }

    /// Extracts the span from a runtime executor error, when it carries one.
    pub fn from_exec_error(e: &ExecError) -> Option<OpSpan> {
        e.op_location().map(|(i, k)| OpSpan::new(i, k))
    }
}

impl fmt::Display for OpSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op #{} ({})", self.op_index, self.kernel)
    }
}

/// One finding of the static verifier.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The stable lint code.
    pub code: LintCode,
    /// The circuit node the finding is attributed to, when one exists
    /// (whole-artifact findings like invalid parameters have none).
    pub span: Option<OpSpan>,
    /// Human-readable detail.
    pub message: String,
}

impl Diagnostic {
    /// Severity of the diagnostic (derived from the code family).
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }

    /// One-line machine-readable rendering: a single JSON object with the
    /// keys `code`, `name`, `severity`, `op_index`, `kernel`, `message`
    /// (`op_index`/`kernel` are `null` for whole-artifact findings).
    /// Message strings are fully escaped, so each line is valid JSON —
    /// the `chet-lint --machine` stream is JSON-lines.
    pub fn render_machine(&self) -> String {
        Json::Obj(self.machine_obj()).render()
    }

    /// [`Self::render_machine`] with a `network` key identifying which
    /// circuit produced the finding — the `chet-lint --machine` line
    /// format (one valid JSON object per line, nothing outside it).
    pub fn render_machine_for(&self, network: &str) -> String {
        let mut obj = self.machine_obj();
        obj.insert("network".to_string(), Json::Str(network.to_string()));
        Json::Obj(obj).render()
    }

    fn machine_obj(&self) -> std::collections::BTreeMap<String, Json> {
        let mut obj = std::collections::BTreeMap::new();
        obj.insert("code".to_string(), Json::Str(self.code.code().to_string()));
        obj.insert("name".to_string(), Json::Str(self.code.name().to_string()));
        obj.insert("severity".to_string(), Json::Str(self.severity().to_string()));
        let (op_index, kernel) = match &self.span {
            Some(s) => (Json::Num(s.op_index as f64), Json::Str(s.kernel.clone())),
            None => (Json::Null, Json::Null),
        };
        obj.insert("op_index".to_string(), op_index);
        obj.insert("kernel".to_string(), kernel);
        obj.insert("message".to_string(), Json::Str(self.message.clone()));
        obj
    }

    /// Parses one [`Diagnostic::render_machine`] line back into a
    /// diagnostic (the round-trip contract machine consumers rely on).
    pub fn parse_machine(line: &str) -> Option<Diagnostic> {
        let v = chet_hisa::json::parse(line).ok()?;
        let code = LintCode::from_code(v.get("code")?.as_str()?)?;
        let message = v.get("message")?.as_str()?.to_string();
        let span = match (v.get("op_index"), v.get("kernel")) {
            (Some(Json::Num(i)), Some(Json::Str(k))) => {
                Some(OpSpan::new(*i as usize, k.clone()))
            }
            _ => None,
        };
        Some(Diagnostic { code, span, message })
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} [{}]", self.code.code(), self.severity(), self.code.name())?;
        if let Some(span) = &self.span {
            write!(f, " at {span}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Everything the verifier found, in emission order (trace order for
/// walked diagnostics, then the post-walk audits).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiagnosticReport {
    /// The findings.
    pub diagnostics: Vec<Diagnostic>,
    /// Circuit nodes the trace walk covered.
    pub checked_ops: usize,
}

impl DiagnosticReport {
    /// Findings of a given severity.
    pub fn by_severity(&self, s: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.severity() == s)
    }

    /// Number of deny findings.
    pub fn deny_count(&self) -> usize {
        self.by_severity(Severity::Deny).count()
    }

    /// Number of warn findings.
    pub fn warn_count(&self) -> usize {
        self.by_severity(Severity::Warn).count()
    }

    /// Whether any finding forbids publishing the artifact.
    pub fn has_deny(&self) -> bool {
        self.deny_count() > 0
    }

    /// The first deny finding, if any.
    pub fn first_deny(&self) -> Option<&Diagnostic> {
        self.by_severity(Severity::Deny).next()
    }

    /// Whether a specific code was emitted.
    pub fn has(&self, code: LintCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Machine-readable rendering: one line per finding.
    pub fn render_machine(&self) -> String {
        self.diagnostics.iter().map(Diagnostic::render_machine).collect::<Vec<_>>().join("\n")
    }

    /// Pretty multi-line rendering with a summary footer.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("  {d}\n"));
        }
        out.push_str(&format!(
            "  {} deny, {} warn, {} note across {} checked op(s)\n",
            self.deny_count(),
            self.warn_count(),
            self.by_severity(Severity::Note).count(),
            self.checked_ops,
        ));
        out
    }
}

/// The diagnostic accumulator shared between the trace walker (which emits
/// findings) and the executor observer (which stamps the current op span on
/// them). Duplicate (code, op) pairs collapse to one finding, so a lint
/// firing inside a kernel loop reports once per circuit node; a first-use
/// finding ([`FirstUse`]) is kept only the first time its key arrives.
#[derive(Debug, Default)]
pub struct DiagSink {
    diags: Vec<Diagnostic>,
    current: Option<OpSpan>,
    seen: BTreeSet<(&'static str, Option<usize>)>,
    first_uses: BTreeSet<FirstUse>,
}

impl DiagSink {
    /// Sets the span subsequent [`DiagSink::emit`] calls are attributed to.
    pub fn set_span(&mut self, op_index: usize, kernel: &str) {
        self.current = Some(OpSpan::new(op_index, kernel));
    }

    /// Clears the current span (post-walk audits attach explicit spans).
    pub fn clear_span(&mut self) {
        self.current = None;
    }

    /// Emits a finding at the current span.
    pub fn emit(&mut self, code: LintCode, message: String) {
        let span = self.current.clone();
        self.emit_at(code, span, message);
    }

    /// [`Self::emit`] for a finding a domain reports once per walk under
    /// `first` (`None` is an ordinary finding). The key counts as used even
    /// when the (code, op) pair collapses the finding, as a domain's own
    /// first-use record would.
    pub(crate) fn emit_first(&mut self, code: LintCode, first: Option<FirstUse>, message: String) {
        if first.is_none_or(|key| self.first_uses.insert(key)) {
            self.emit(code, message);
        }
    }

    /// Emits a finding at an explicit span.
    pub fn emit_at(&mut self, code: LintCode, span: Option<OpSpan>, message: String) {
        let key = (code.code(), span.as_ref().map(|s| s.op_index));
        if self.seen.insert(key) {
            self.diags.push(Diagnostic { code, span, message });
        }
    }

    /// The findings emitted so far (for callers driving a
    /// [`walker::VerifyInterp`] by hand).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    fn into_diagnostics(self) -> Vec<Diagnostic> {
        self.diags
    }
}

/// Circuit nodes unreachable from the output (candidates for `CHET-W003`).
fn dead_ops(circuit: &Circuit) -> Vec<usize> {
    let ops = circuit.ops();
    let mut live = vec![false; ops.len()];
    live[circuit.output()] = true;
    for i in (0..ops.len()).rev() {
        if live[i] {
            for dep in ops[i].inputs() {
                live[dep] = true;
            }
        }
    }
    live.iter().enumerate().filter(|(_, &l)| !l).map(|(i, _)| i).collect()
}

/// Statically verifies a compiled artifact against its circuit: structural
/// passes (parameters, dead code, slot capacity) followed by one abstract
/// trace walk under the full domain product. Never executes ciphertext
/// arithmetic and never fails — everything it finds is a [`Diagnostic`] in
/// the returned report.
pub fn verify_compiled(circuit: &Circuit, compiled: &CompiledCircuit) -> DiagnosticReport {
    let sink = Arc::new(Mutex::new(DiagSink::default()));
    let emit_at = |code: LintCode, span: Option<OpSpan>, message: String| {
        sink.lock().unwrap_or_else(|e| e.into_inner()).emit_at(code, span, message)
    };
    let node_span = |i: usize| Some(OpSpan::new(i, op_name(&circuit.ops()[i])));
    let slots = compiled.params.slots();

    // Structural pass 1: parameters (CHET-E006).
    if let Err(e) = compiled.params.validate() {
        emit_at(LintCode::InvalidParams, None, e.to_string());
    }

    // Structural pass 2: dead nodes (CHET-W003).
    for i in dead_ops(circuit) {
        let message = "node is unreachable from the circuit output".to_string();
        emit_at(LintCode::DeadOp, node_span(i), message);
    }

    // Structural pass 3: slot capacity (CHET-E004). An unfit circuit would
    // break layout construction, so the trace walk is skipped.
    if slots == 0 || !circuit_fits(circuit, compiled.plan.margin, slots) {
        let margin = compiled.plan.margin;
        let message = format!("circuit tensors do not fit {slots} slots under margin {margin}");
        emit_at(LintCode::SlotOverflow, None, message);
        return finish_report(sink, 0);
    }

    // The abstract trace walk: the circuit executes under VerifyInterp
    // (scale × level × slot × rotation product domain) through the standard
    // executor, with an observer stamping op provenance on every finding.
    let mut interp = walker::VerifyInterp::new(compiled, Arc::clone(&sink));
    let checked_ops = match walker::walk(&mut interp, circuit, &compiled.plan) {
        Ok(walked) => {
            // Post-walk audit: output precision (CHET-W004).
            let out_scale = walked
                .output
                .cts
                .first()
                .map(|ct| interp.fact_scale(ct))
                .unwrap_or(compiled.outcome.output_scale);
            if out_scale * (1.0 + 1e-9) < compiled.output_precision {
                let message = format!(
                    "output scale 2^{:.1} is below the requested precision 2^{:.1}",
                    out_scale.log2(),
                    compiled.output_precision.log2()
                );
                emit_at(LintCode::PrecisionBudget, node_span(circuit.output()), message);
            }
            circuit.ops().len()
        }
        Err(e) => {
            // The walker itself is infallible, so a walk error is a kernel
            // contract violation or unsupported shape (CHET-E00{4,5}).
            let code = match &e {
                ExecError::Hisa { source: chet_hisa::HisaError::SlotOverflow { .. }, .. } => {
                    LintCode::SlotOverflow
                }
                _ => LintCode::UnsupportedOp,
            };
            emit_at(code, OpSpan::from_exec_error(&e), e.to_string());
            0
        }
    };

    // Post-walk audit: rotation-key coverage (CHET-W002). E003/N001 were
    // emitted per rotation site during the walk; here the *key set* is
    // checked against the steps the circuit actually requested.
    sink.lock().unwrap_or_else(|e| e.into_inner()).clear_span();
    let used = interp.used_rotations();
    let keyed = compiled.rotation_keys.steps(slots);
    let unused: Vec<usize> = keyed.difference(&used).copied().collect();
    if !unused.is_empty() {
        let message = format!(
            "{} rotation key(s) generated for steps the circuit never uses: {unused:?}",
            unused.len()
        );
        emit_at(LintCode::UnusedRotationKey, None, message);
    }

    // Post-walk audit: pruned keys (CHET-N002). Compiler-produced artifacts
    // never record any (pruning is a no-op for outcome-derived key sets),
    // so this only fires on artifacts whose key request was trimmed.
    let pruned = &compiled.pruned_rotations;
    if !pruned.is_empty() {
        let message = format!(
            "key pruning dropped {} provisionally requested rotation step(s): {pruned:?}",
            pruned.len()
        );
        emit_at(LintCode::PrunedRotationKey, None, message);
    }

    finish_report(sink, checked_ops)
}

fn finish_report(sink: Arc<Mutex<DiagSink>>, checked_ops: usize) -> DiagnosticReport {
    let inner = Arc::try_unwrap(sink)
        .map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
        .unwrap_or_else(|arc| std::mem::take(&mut arc.lock().unwrap_or_else(|e| e.into_inner())));
    DiagnosticReport { diagnostics: inner.into_diagnostics(), checked_ops }
}
