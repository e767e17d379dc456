//! Abstract domains for the static verifier.
//!
//! Each domain tracks one per-ciphertext fact family over the HISA trace;
//! the [`AbstractDomain`] trait makes them pluggable and the tuple impl
//! composes them into products, so the walker runs every registered lint in
//! a single forward pass. Circuits are DAGs executed in topological order,
//! so no fixpoint iteration is needed — one transfer per HISA instruction.
//!
//! A domain forks with the walker: each fan-out job transfers on a child
//! that shares the parent's immutable configuration and starts with empty
//! accumulators, and the parent folds the child back in at the join
//! ([`AbstractDomain::fork`], [`AbstractDomain::join`]).

use super::LintCode;
use chet_hisa::cost::HisaOp;
use chet_hisa::keys::plan_rotation;
use chet_hisa::params::ModulusSpec;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The key of a first-use finding: a domain reports it once per walk, at
/// the key's first use in program order. A fan-out child only knows its
/// own first uses, so it tags what it emits with the key, and the parent's
/// sink keeps the finding only if the key is new there too
/// ([`super::DiagSink`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FirstUse {
    /// `CHET-E002`: the walk's first crossing of the modulus budget.
    Exhaustion,
    /// `CHET-E003` / `CHET-N001`: the first rotation by this normalized
    /// step.
    Rotation(usize),
}

/// Where a transfer reports findings: the lint code, the [`FirstUse`] key
/// for a once-per-walk finding (`None` for the rest) and the message.
pub type Emit<'a> = dyn FnMut(LintCode, Option<FirstUse>, String) + 'a;

/// The HISA instruction alphabet the domains interpret, with only the
/// operands that matter to any fact family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AbstractOp {
    /// Ciphertext + ciphertext (also subtraction — same scale contract).
    Add,
    /// Ciphertext + plaintext encoded at `scale`.
    AddPlain {
        /// The plaintext operand's encoding scale.
        scale: f64,
    },
    /// Ciphertext + scalar broadcast (no scale contract in this scheme).
    AddScalar,
    /// Ciphertext × ciphertext.
    Mul,
    /// Ciphertext × plaintext encoded at `scale`.
    MulPlain {
        /// The plaintext operand's encoding scale.
        scale: f64,
    },
    /// Ciphertext × scalar encoded at `scale`.
    MulScalar {
        /// The scalar's encoding scale.
        scale: f64,
    },
    /// Cyclic left rotation by a normalized nonzero step.
    Rotate {
        /// The normalized left step in `[1, slots)`.
        step: usize,
    },
    /// Scale division consuming modulus.
    Rescale {
        /// The divisor (`> 1`).
        divisor: f64,
    },
}

impl AbstractOp {
    /// The cost-model op this instruction is priced as.
    pub(crate) fn hisa_op(&self) -> HisaOp {
        match self {
            AbstractOp::Add | AbstractOp::AddPlain { .. } | AbstractOp::AddScalar => HisaOp::Add,
            AbstractOp::Mul => HisaOp::MulCipher,
            AbstractOp::MulPlain { .. } => HisaOp::MulPlain,
            AbstractOp::MulScalar { .. } => HisaOp::MulScalar,
            AbstractOp::Rotate { .. } => HisaOp::Rotate,
            AbstractOp::Rescale { .. } => HisaOp::Rescale,
        }
    }
}

/// One pluggable fact family. `transfer` is the forward transfer function:
/// it consumes the operand fact(s), may emit diagnostics through `emit`,
/// and returns the result fact. It must be *total* — a domain reports
/// violations as lints and keeps walking, never fails.
/// (`Send` because the walker is a [`chet_hisa::Hisa`] interpretation and
/// the HISA is `Send` for the parallel runtime; domains are plain data.)
pub trait AbstractDomain: Send + Sized {
    /// The per-ciphertext fact.
    type Fact: Clone + std::fmt::Debug + Send + Sync;

    /// Fact for a freshly encrypted ciphertext (`scale` = encoding scale,
    /// `len` = encoded value count).
    fn fresh(&mut self, scale: f64, len: usize) -> Self::Fact;

    /// Forward transfer for one instruction. `b` is the second ciphertext
    /// operand fact for [`AbstractOp::Add`] / [`AbstractOp::Mul`].
    fn transfer(
        &mut self,
        op: &AbstractOp,
        a: &Self::Fact,
        b: Option<&Self::Fact>,
        emit: &mut Emit<'_>,
    ) -> Self::Fact;

    /// A child for one fan-out job: the same configuration (shared, never
    /// copied) with empty accumulators.
    fn fork(&mut self) -> Self;

    /// Folds a joined child's accumulators into `self`. Children join in
    /// job order, so whatever accumulates in program order stays in it.
    fn join(&mut self, child: Self);

    /// The fixed-point scale this domain tracks for a fact, if it does.
    fn scale_of(&self, _f: &Self::Fact) -> Option<f64> {
        None
    }

    /// The largest rescale divisor `<= ub` this domain can answer for a
    /// fact, if it models the modulus.
    fn max_rescale(&self, _f: &Self::Fact, _ub: f64) -> Option<f64> {
        None
    }

    /// The modulus consumption this domain tracks for a fact, if it does.
    fn level_of(&self, _f: &Self::Fact) -> Option<LevelFact> {
        None
    }
}

/// Product combinator: runs two domains side by side over shared traces.
/// Nest tuples for bigger products.
impl<A: AbstractDomain, B: AbstractDomain> AbstractDomain for (A, B) {
    type Fact = (A::Fact, B::Fact);

    fn fresh(&mut self, scale: f64, len: usize) -> Self::Fact {
        (self.0.fresh(scale, len), self.1.fresh(scale, len))
    }

    fn transfer(
        &mut self,
        op: &AbstractOp,
        a: &Self::Fact,
        b: Option<&Self::Fact>,
        emit: &mut Emit<'_>,
    ) -> Self::Fact {
        (
            self.0.transfer(op, &a.0, b.map(|f| &f.0), emit),
            self.1.transfer(op, &a.1, b.map(|f| &f.1), emit),
        )
    }

    fn fork(&mut self) -> Self {
        (self.0.fork(), self.1.fork())
    }

    fn join(&mut self, child: Self) {
        self.0.join(child.0);
        self.1.join(child.1);
    }

    fn scale_of(&self, f: &Self::Fact) -> Option<f64> {
        self.0.scale_of(&f.0).or_else(|| self.1.scale_of(&f.1))
    }

    fn max_rescale(&self, f: &Self::Fact, ub: f64) -> Option<f64> {
        self.0.max_rescale(&f.0, ub).or_else(|| self.1.max_rescale(&f.1, ub))
    }

    fn level_of(&self, f: &Self::Fact) -> Option<LevelFact> {
        self.0.level_of(&f.0).or_else(|| self.1.level_of(&f.1))
    }
}

/// Tracks the fixed-point scale of every ciphertext and checks the binary-op
/// alignment contract (`CHET-E001`) plus rescale usefulness (`CHET-W001`).
///
/// Mirrors the simulator's semantics exactly: additions require operand
/// scales within relative `1e-6`; multiplications multiply scales; rescales
/// divide. `add_scalar` has no contract (backends re-encode at the
/// ciphertext's own scale).
#[derive(Debug)]
pub struct ScaleDomain {
    /// The working scale kernels settle toward (`P_c`).
    working: f64,
}

impl ScaleDomain {
    /// Domain for a plan whose working scale is `working`.
    pub fn new(working: f64) -> Self {
        ScaleDomain { working }
    }

    fn aligned(a: f64, b: f64) -> bool {
        (a / b - 1.0).abs() < 1e-6
    }
}

impl AbstractDomain for ScaleDomain {
    type Fact = f64;

    fn fresh(&mut self, scale: f64, _len: usize) -> f64 {
        scale
    }

    fn transfer(
        &mut self,
        op: &AbstractOp,
        a: &f64,
        b: Option<&f64>,
        emit: &mut Emit<'_>,
    ) -> f64 {
        match op {
            AbstractOp::Add => {
                let b = b.copied().unwrap_or(*a);
                if !Self::aligned(*a, b) {
                    emit(
                        LintCode::ScaleMismatch,
                        None,
                        format!(
                            "operand scales diverged: 2^{:.2} vs 2^{:.2}",
                            a.log2(),
                            b.log2()
                        ),
                    );
                }
                *a
            }
            AbstractOp::AddPlain { scale } => {
                if !Self::aligned(*a, *scale) {
                    emit(
                        LintCode::ScaleMismatch,
                        None,
                        format!(
                            "ciphertext scale 2^{:.2} vs plaintext scale 2^{:.2}",
                            a.log2(),
                            scale.log2()
                        ),
                    );
                }
                *a
            }
            AbstractOp::AddScalar | AbstractOp::Rotate { .. } => *a,
            AbstractOp::Mul => a * b.copied().unwrap_or(*a),
            AbstractOp::MulPlain { scale } | AbstractOp::MulScalar { scale } => a * scale,
            AbstractOp::Rescale { divisor } => {
                if *divisor > 1.0 && *a <= self.working * 1.5 {
                    emit(
                        LintCode::RedundantRescale,
                        None,
                        format!(
                            "rescale by 2^{:.1} on a ciphertext already at the working \
                             scale (2^{:.2} <= 1.5 × 2^{:.2})",
                            divisor.log2(),
                            a.log2(),
                            self.working.log2()
                        ),
                    );
                }
                a / divisor
            }
        }
    }

    fn scale_of(&self, f: &f64) -> Option<f64> {
        Some(*f)
    }

    fn fork(&mut self) -> Self {
        ScaleDomain { working: self.working }
    }

    fn join(&mut self, _child: Self) {}
}

/// A freshly encrypted ciphertext's level: nothing consumed.
const FRESH: LevelFact = LevelFact { consumed_log2: 0.0, chain_idx: 0 };

/// Modulus budget state of one ciphertext (the default is a fresh one:
/// nothing consumed).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LevelFact {
    /// log2 of the modulus consumed on this value's path.
    pub consumed_log2: f64,
    /// Chain primes consumed (RNS only).
    pub chain_idx: usize,
}

/// Program-order `(op, operand level)` of every transfer. A walk meets few
/// distinct levels, so each is kept once and an entry is an op and the
/// level's index: a third of the bytes of the pairs themselves, in the
/// parent and in every fan-out child, whose entries the join copies.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    levels: Vec<LevelFact>,
    entries: Vec<(HisaOp, u32)>,
}

impl Ledger {
    /// A fan-out child's ledger, allocated here on the forking thread: the
    /// allocator grows a buffer in the arena it came from, so a child's
    /// entries never settle in a worker thread's arena, which would keep
    /// the freed bytes after the join.
    fn for_fork() -> Self {
        Ledger { levels: Vec::new(), entries: Vec::with_capacity(FORK_CAPACITY) }
    }

    fn push(&mut self, op: HisaOp, at: LevelFact) {
        // Consecutive transfers mostly share their operand's level.
        let last = self.entries.last().map(|&(_, i)| i).filter(|&i| self.levels[i as usize] == at);
        let index = last.unwrap_or_else(|| self.index(at));
        self.entries.push((op, index));
    }

    /// The index of `at`, adding it to the level table if new.
    fn index(&mut self, at: LevelFact) -> u32 {
        let i = self.levels.iter().position(|l| *l == at).unwrap_or_else(|| {
            self.levels.push(at);
            self.levels.len() - 1
        });
        i as u32
    }

    /// Appends a joined child's entries after this ledger's.
    fn append(&mut self, child: &Ledger) {
        self.entries.reserve(child.entries.len());
        // (child index, own index) of the last level mapped.
        let mut last = None;
        for &(op, i) in &child.entries {
            let index = match last {
                Some((from, to)) if from == i => to,
                _ => self.index(child.levels[i as usize]),
            };
            last = Some((i, index));
            self.entries.push((op, index));
        }
    }

    /// The entries in program order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (HisaOp, LevelFact)> + '_ {
        self.entries.iter().map(|&(op, i)| (op, self.levels[i as usize]))
    }

    /// The number of entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Entries a fan-out child's ledger holds before it first grows.
const FORK_CAPACITY: usize = 64;

/// Tracks rescale-driven modulus consumption against a modulus budget
/// (`CHET-E002`).
///
/// Divisors are answered *budget-unawarely*: a rescale the circuit requires
/// always fires, and the domain reports the first point where cumulative
/// consumption crosses the budget. A live scheme would refuse the rescale
/// there (`HisaError::LevelExhausted`); the static walk instead records the
/// lint and keeps going with virtual divisors, so one pass still covers the
/// whole circuit.
///
/// The verifier checks an artifact's actual modulus ([`LevelDomain::new`]);
/// parameter selection measures the modulus a circuit needs under the open
/// search model (`LevelDomain::open`) and prices the walk's ledger.
#[derive(Debug)]
pub struct LevelDomain {
    model: LevelModel,
    /// Set once the first budget crossing is reported, so a single
    /// exhaustion yields a single `CHET-E002` instead of one per
    /// downstream rescale.
    reported: bool,
    /// The deepest consumption any produced fact reached (component-wise:
    /// the walk's total modulus and chain-prime requirement).
    pub(crate) deepest: LevelFact,
    /// Program-order `(op, operand level)` of every transfer — what the
    /// cost model prices once parameters are chosen. Kept by the open
    /// search model only.
    pub(crate) ledger: Option<Ledger>,
}

#[derive(Debug, Clone)]
enum LevelModel {
    /// CKKS: `log_q` bits of budget, any power of two divides; the final
    /// bit is not consumable.
    Pow2 {
        log_q: f64,
    },
    /// RNS: primes in consumption order (the artifact stores the chain
    /// back-to-front); the last one anchors the residual value and is not
    /// consumable.
    Chain {
        order: Arc<[u64]>,
        usable: usize,
    },
}

impl LevelDomain {
    /// Domain for an artifact's modulus.
    pub fn new(modulus: &ModulusSpec) -> Self {
        let model = match modulus {
            ModulusSpec::PowerOfTwo { log_q, .. } => LevelModel::Pow2 { log_q: *log_q as f64 },
            ModulusSpec::PrimeChain { primes, .. } => {
                let order: Arc<[u64]> = primes.iter().rev().copied().collect();
                LevelModel::Chain { usable: order.len().saturating_sub(1), order }
            }
        };
        LevelDomain { model, reported: false, deepest: FRESH, ledger: None }
    }

    /// Domain for parameter selection's open search, where the modulus is
    /// what the walk measures: `Some` candidate primes in consumption
    /// order, every one usable (only running out of candidates is
    /// exhaustion), or `None` for an unbounded power-of-two budget.
    pub(crate) fn open(candidates: Option<&[u64]>) -> Self {
        let model = match candidates {
            Some(order) => LevelModel::Chain { order: order.into(), usable: order.len() },
            None => LevelModel::Pow2 { log_q: f64::INFINITY },
        };
        LevelDomain { model, reported: false, deepest: FRESH, ledger: Some(Ledger::default()) }
    }

    /// Whether the walk crossed the budget (the `CHET-E002` it reported).
    pub(crate) fn exhausted(&self) -> bool {
        self.reported
    }

    fn meet(a: &LevelFact, b: &LevelFact) -> LevelFact {
        LevelFact {
            consumed_log2: a.consumed_log2.max(b.consumed_log2),
            chain_idx: a.chain_idx.max(b.chain_idx),
        }
    }
}

impl AbstractDomain for LevelDomain {
    type Fact = LevelFact;

    fn fresh(&mut self, _scale: f64, _len: usize) -> LevelFact {
        FRESH
    }

    fn transfer(
        &mut self,
        op: &AbstractOp,
        a: &LevelFact,
        b: Option<&LevelFact>,
        emit: &mut Emit<'_>,
    ) -> LevelFact {
        if let Some(ledger) = &mut self.ledger {
            ledger.push(op.hisa_op(), *a);
        }
        let out = match op {
            AbstractOp::Add | AbstractOp::Mul => {
                b.map(|b| Self::meet(a, b)).unwrap_or(*a)
            }
            AbstractOp::Rescale { divisor } => {
                let mut out = *a;
                out.consumed_log2 += divisor.log2();
                match &self.model {
                    LevelModel::Pow2 { log_q } => {
                        if out.consumed_log2 > log_q - 1.0 && !self.reported {
                            self.reported = true;
                            emit(
                                LintCode::LevelExhaustion,
                                Some(FirstUse::Exhaustion),
                                format!(
                                    "rescaling consumes {:.1} of the {log_q:.0} modulus \
                                     bits the artifact carries",
                                    out.consumed_log2
                                ),
                            );
                        }
                    }
                    LevelModel::Chain { order, usable } => {
                        let mut d = *divisor;
                        while d > 1.5 {
                            if out.chain_idx >= *usable && !self.reported {
                                self.reported = true;
                                emit(
                                    LintCode::LevelExhaustion,
                                    Some(FirstUse::Exhaustion),
                                    format!(
                                        "rescaling needs chain prime #{} but only {usable} \
                                         of {} primes are consumable",
                                        out.chain_idx + 1,
                                        order.len()
                                    ),
                                );
                            }
                            match order.get(out.chain_idx) {
                                Some(&p) => {
                                    d /= p as f64;
                                    out.chain_idx += 1;
                                }
                                // Virtual (power-of-two) divisor past the
                                // real chain: nothing left to pop.
                                None => break,
                            }
                        }
                    }
                }
                out
            }
            _ => *a,
        };
        self.deepest = Self::meet(&self.deepest, &out);
        out
    }

    fn max_rescale(&self, f: &LevelFact, ub: f64) -> Option<f64> {
        let d = match &self.model {
            LevelModel::Pow2 { .. } => 2f64.powi(ub.log2().floor() as i32),
            LevelModel::Chain { order, .. } => {
                let mut prod = 1.0f64;
                let mut idx = f.chain_idx;
                while let Some(&p) = order.get(idx) {
                    if prod * (p as f64) > ub {
                        break;
                    }
                    prod *= p as f64;
                    idx += 1;
                }
                if prod <= 1.0 && idx >= order.len() {
                    // Past the real chain: keep the walk total with a
                    // virtual power-of-two divisor (exhaustion was already
                    // reported at the crossing).
                    prod = 2f64.powi(ub.log2().floor() as i32);
                }
                prod
            }
        };
        Some(d)
    }

    fn level_of(&self, f: &LevelFact) -> Option<LevelFact> {
        Some(*f)
    }

    fn fork(&mut self) -> Self {
        LevelDomain {
            model: self.model.clone(),
            reported: false,
            deepest: FRESH,
            ledger: self.ledger.as_ref().map(|_| Ledger::for_fork()),
        }
    }

    /// Appends the child's ledger, keeps the deeper consumption, and takes
    /// over a crossing the child reported (the sink decides whether its
    /// `CHET-E002` was the walk's first).
    fn join(&mut self, child: Self) {
        self.reported |= child.reported;
        self.deepest = Self::meet(&self.deepest, &child.deepest);
        if let (Some(ledger), Some(more)) = (&mut self.ledger, child.ledger) {
            ledger.append(&more);
        }
    }
}

/// Tracks slot occupancy per ciphertext (`CHET-E004` defensively — the
/// structural `circuit_fits` pre-check catches layout-level overflow before
/// the walk; this catches kernels encoding oversized vectors).
#[derive(Debug)]
pub struct SlotDomain {
    slots: usize,
}

impl SlotDomain {
    /// Domain for a `slots`-wide scheme.
    pub fn new(slots: usize) -> Self {
        SlotDomain { slots }
    }
}

impl AbstractDomain for SlotDomain {
    type Fact = usize;

    fn fresh(&mut self, _scale: f64, len: usize) -> usize {
        if len > self.slots {
            // `encode` already reported the overflow; track clamped.
            return self.slots;
        }
        len
    }

    fn transfer(
        &mut self,
        op: &AbstractOp,
        a: &usize,
        b: Option<&usize>,
        _emit: &mut Emit<'_>,
    ) -> usize {
        match op {
            AbstractOp::Add | AbstractOp::Mul => (*a).max(b.copied().unwrap_or(0)),
            // Rotations are cyclic: occupancy is preserved.
            _ => *a,
        }
    }

    fn fork(&mut self) -> Self {
        SlotDomain { slots: self.slots }
    }

    fn join(&mut self, _child: Self) {}
}

/// Records every rotation step the trace requests and checks each against
/// the artifact's key set: unreachable steps are `CHET-E003`, steps served
/// by composing several keys are `CHET-N001`. The recorded set also feeds
/// the post-walk `CHET-W002` (unused keys) audit, and is the rotation-key
/// request parameter selection reads (§5.4).
#[derive(Debug)]
pub struct RotationDomain {
    slots: usize,
    /// The key set steps are checked against; `None` only collects.
    keys: Option<Arc<BTreeSet<usize>>>,
    /// Normalized steps the trace requested (each is diagnosed once, on
    /// first use).
    pub used: BTreeSet<usize>,
}

impl RotationDomain {
    /// Domain for an artifact's key set.
    pub fn new(slots: usize, keys: BTreeSet<usize>) -> Self {
        RotationDomain { slots, keys: Some(Arc::new(keys)), used: BTreeSet::new() }
    }

    /// A domain that only collects the requested steps (no key set yet).
    pub fn collector(slots: usize) -> Self {
        RotationDomain { slots, keys: None, used: BTreeSet::new() }
    }
}

impl AbstractDomain for RotationDomain {
    type Fact = ();

    fn fresh(&mut self, _scale: f64, _len: usize) {}

    fn transfer(
        &mut self,
        op: &AbstractOp,
        _a: &(),
        _b: Option<&()>,
        emit: &mut Emit<'_>,
    ) {
        if let AbstractOp::Rotate { step } = op {
            if !self.used.insert(*step) {
                return;
            }
            let Some(keys) = &self.keys else { return };
            let first = Some(FirstUse::Rotation(*step));
            match plan_rotation(*step, keys, self.slots) {
                None => emit(
                    LintCode::MissingRotationKey,
                    first,
                    format!(
                        "rotation by {step} cannot be composed from the {} available \
                         key step(s)",
                        keys.len()
                    ),
                ),
                Some(plan) if plan.len() > 1 => emit(
                    LintCode::DegradedRotation,
                    first,
                    format!(
                        "rotation by {step} is served by composing {} keyed rotations",
                        plan.len()
                    ),
                ),
                Some(_) => {}
            }
        }
    }

    fn fork(&mut self) -> Self {
        RotationDomain { slots: self.slots, keys: self.keys.clone(), used: BTreeSet::new() }
    }

    /// Inserts the child's few steps one by one (`BTreeSet::append` would
    /// rebuild the parent's whole set at every join).
    fn join(&mut self, child: Self) {
        self.used.extend(child.used);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_emit() -> impl FnMut(LintCode, Option<FirstUse>, String) {
        |_, _, _| {}
    }

    #[test]
    fn scale_domain_flags_diverged_addition() {
        let mut d = ScaleDomain::new(2f64.powi(30));
        let mut hits = Vec::new();
        let a = 2f64.powi(30);
        let b = 2f64.powi(31);
        d.transfer(&AbstractOp::Add, &a, Some(&b), &mut |c, _, m| hits.push((c, m)));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, LintCode::ScaleMismatch);
    }

    #[test]
    fn scale_domain_accepts_aligned_addition() {
        let mut d = ScaleDomain::new(2f64.powi(30));
        let mut hits = Vec::new();
        let a = 2f64.powi(30);
        d.transfer(&AbstractOp::Add, &a, Some(&a), &mut |c, _, m| hits.push((c, m)));
        assert!(hits.is_empty());
    }

    #[test]
    fn scale_domain_flags_redundant_rescale() {
        let working = 2f64.powi(30);
        let mut d = ScaleDomain::new(working);
        let mut hits = Vec::new();
        let out = d.transfer(
            &AbstractOp::Rescale { divisor: 2f64.powi(10) },
            &working,
            None,
            &mut |c, _, m| hits.push((c, m)),
        );
        assert_eq!(hits[0].0, LintCode::RedundantRescale);
        assert_eq!(out, working / 2f64.powi(10));
    }

    #[test]
    fn level_domain_reports_chain_exhaustion_once() {
        let params = chet_hisa::EncryptionParams::rns_ckks(8192, 40, 2);
        let mut d = LevelDomain::new(&params.modulus);
        let f = d.fresh(1.0, 0);
        let divisor = d.max_rescale(&f, 2f64.powi(45)).unwrap();
        assert!(divisor > 1.0);
        let mut hits = Vec::new();
        // First rescale uses the only consumable prime; the second crosses.
        let f = d.transfer(&AbstractOp::Rescale { divisor }, &f, None, &mut |c, _, m| {
            hits.push((c, m))
        });
        assert!(hits.is_empty(), "{hits:?}");
        let divisor2 = d.max_rescale(&f, 2f64.powi(45)).unwrap();
        let f = d.transfer(&AbstractOp::Rescale { divisor: divisor2 }, &f, None, &mut |c, _, m| {
            hits.push((c, m))
        });
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, LintCode::LevelExhaustion);
        // Further rescales stay silent (single report per walk).
        let d3 = d.max_rescale(&f, 2f64.powi(45)).unwrap();
        d.transfer(&AbstractOp::Rescale { divisor: d3 }, &f, None, &mut |c, _, m| {
            hits.push((c, m))
        });
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn level_domain_open_chain_consumes_candidates_in_order() {
        let primes = chet_math::prime::ntt_primes(40, 65536, 3);
        let mut d = LevelDomain::open(Some(&primes));
        let f = d.fresh(1.0, 0);
        // ub 2^45 fits exactly one ~40-bit candidate; 2^85 the next two.
        let d1 = d.max_rescale(&f, 2f64.powi(45)).unwrap();
        assert_eq!(d1, primes[0] as f64);
        let mut hits = Vec::new();
        let f = d.transfer(&AbstractOp::Rescale { divisor: d1 }, &f, None, &mut |c, _, m| {
            hits.push((c, m))
        });
        let d2 = d.max_rescale(&f, 2f64.powi(85)).unwrap();
        assert_eq!(d2, primes[1] as f64 * primes[2] as f64);
        let g = d.transfer(&AbstractOp::Rescale { divisor: d2 }, &f, None, &mut no_emit());
        assert_eq!(g.chain_idx, 3);
        // Meet keeps the worst consumption of either operand.
        let m = d.transfer(&AbstractOp::Add, &f, Some(&g), &mut no_emit());
        assert_eq!(m, g);
        assert_eq!(d.deepest, g);
        assert!(hits.is_empty(), "{hits:?}");
        // Every candidate consumed: the next rescale is exhaustion.
        let d3 = d.max_rescale(&g, 2f64.powi(45)).unwrap();
        d.transfer(&AbstractOp::Rescale { divisor: d3 }, &g, None, &mut |c, _, m| hits.push((c, m)));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, LintCode::LevelExhaustion);
        assert!(d.exhausted());
        let ops: Vec<HisaOp> = d.ledger.unwrap().iter().map(|(op, _)| op).collect();
        assert_eq!(ops, [HisaOp::Rescale, HisaOp::Rescale, HisaOp::Add, HisaOp::Rescale]);
    }

    #[test]
    fn level_domain_pow2_budget() {
        let spec = ModulusSpec::PowerOfTwo { log_q: 60, log_special: 60 };
        let mut d = LevelDomain::new(&spec);
        let f = d.fresh(1.0, 0);
        let mut hits = Vec::new();
        let f = d.transfer(
            &AbstractOp::Rescale { divisor: 2f64.powi(40) },
            &f,
            None,
            &mut |c, _, m| hits.push((c, m)),
        );
        assert!(hits.is_empty());
        d.transfer(&AbstractOp::Rescale { divisor: 2f64.powi(40) }, &f, None, &mut |c, _, m| {
            hits.push((c, m))
        });
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, LintCode::LevelExhaustion);
    }

    #[test]
    fn rotation_domain_flags_missing_and_degraded() {
        let keys: BTreeSet<usize> = [4usize].into_iter().collect();
        let mut d = RotationDomain::new(16, keys);
        let mut hits = Vec::new();
        // 8 = 4 + 4: composable but degraded.
        d.transfer(&AbstractOp::Rotate { step: 8 }, &(), None, &mut |c, _, m| hits.push((c, m)));
        // 3 is outside the subgroup <4> generates.
        d.transfer(&AbstractOp::Rotate { step: 3 }, &(), None, &mut |c, _, m| hits.push((c, m)));
        // Repeat: diagnosed once.
        d.transfer(&AbstractOp::Rotate { step: 3 }, &(), None, &mut |c, _, m| hits.push((c, m)));
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert_eq!(hits[0].0, LintCode::DegradedRotation);
        assert_eq!(hits[1].0, LintCode::MissingRotationKey);
        assert_eq!(d.used.len(), 2);
    }

    #[test]
    fn product_domain_runs_both_sides() {
        let params = chet_hisa::EncryptionParams::rns_ckks(8192, 40, 4);
        let mut d = (ScaleDomain::new(2f64.powi(30)), LevelDomain::new(&params.modulus));
        let f = d.fresh(2f64.powi(60), 16);
        assert_eq!(d.scale_of(&f), Some(2f64.powi(60)));
        let ub = 2f64.powi(45);
        let divisor = d.max_rescale(&f, ub).unwrap();
        assert!(divisor > 1.0 && divisor <= ub);
        let f2 = d.transfer(&AbstractOp::Rescale { divisor }, &f, None, &mut no_emit());
        assert!(d.scale_of(&f2).unwrap() < 2f64.powi(60));
        assert_eq!(f2.1.chain_idx, 1);
    }
}
