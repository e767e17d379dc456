//! The translation validator: proves two realizations of a circuit
//! equivalent by replaying both on the deterministic reference simulator
//! over seeded inputs and comparing output digests.
//!
//! CHET's trust story rests on every transformation (layout choice, scale
//! assignment, key pruning — and any future IR rewrite) preserving the
//! computed function. This module checks that property per artifact
//! instead of assuming it: the extracted [`IrGraph`](crate::ir::IrGraph)
//! must reproduce direct execution *bit for bit* on a noiseless
//! [`SimCkks`], and two graphs are declared equivalent only when their
//! replays agree on every seeded input. Bit-identity (not tolerance) is
//! the right bar because the simulator is deterministic: the only
//! legitimate source of divergence is a semantics change.

use crate::compiler::CompiledCircuit;
use crate::ir::{extract_ir, try_replay_ir, ExtractError, ExtractMode, IrGraph, ReplayError};
use chet_ckks::sim::SimCkks;
use chet_hisa::serial::fnv1a64;
use chet_runtime::exec::{try_infer, ExecError};
use chet_tensor::circuit::Circuit;
use chet_tensor::Tensor;
use std::fmt;

/// Default seeds for [`validate_extraction`]'s input sweep.
pub const DEFAULT_SEEDS: [u64; 3] = [0xC4E7, 0x5EED, 0x1D0_F00D];

/// Digest of a tensor: FNV-1a over the shape and the exact bit patterns of
/// every element. Equal digests ⇔ bit-identical tensors (up to hash
/// collision odds of ~2⁻⁶⁴).
pub fn digest_tensor(t: &Tensor) -> u64 {
    let mut bytes = Vec::with_capacity(8 * (t.shape().len() + t.data().len()));
    for &d in t.shape() {
        bytes.extend_from_slice(&(d as u64).to_le_bytes());
    }
    for v in t.data() {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// One seeded comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedCheck {
    /// The input seed.
    pub seed: u64,
    /// Digest of the baseline execution's output.
    pub lhs: u64,
    /// Digest of the candidate execution's output.
    pub rhs: u64,
}

impl SeedCheck {
    /// Did this seed agree?
    pub fn matches(&self) -> bool {
        self.lhs == self.rhs
    }
}

/// The validator's verdict over all seeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivReport {
    /// Per-seed digests, in seed order.
    pub checks: Vec<SeedCheck>,
}

impl EquivReport {
    /// True when every seed produced bit-identical outputs.
    pub fn equivalent(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(SeedCheck::matches)
    }

    /// The first diverging seed, if any.
    pub fn first_divergence(&self) -> Option<&SeedCheck> {
        self.checks.iter().find(|c| !c.matches())
    }
}

impl fmt::Display for EquivReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.equivalent() {
            write!(f, "equivalent over {} seeds", self.checks.len())
        } else if let Some(d) = self.first_divergence() {
            write!(
                f,
                "DIVERGED at seed {:#x}: {:#018x} != {:#018x}",
                d.seed, d.lhs, d.rhs
            )
        } else {
            write!(f, "vacuous (no seeds checked)")
        }
    }
}

/// Why validation could not even run (distinct from a divergence verdict:
/// these mean one side failed to execute at all).
#[derive(Debug, Clone, PartialEq)]
pub enum EquivError {
    /// IR extraction failed.
    Extract(ExtractError),
    /// Direct execution failed on the simulator.
    Direct {
        /// The failing seed.
        seed: u64,
        /// The executor failure.
        source: ExecError,
    },
    /// IR replay failed on the simulator.
    Replay {
        /// The failing seed.
        seed: u64,
        /// The replay failure.
        source: ReplayError,
    },
    /// The circuit has no encrypted input to seed.
    NoInput,
}

impl fmt::Display for EquivError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EquivError::Extract(e) => write!(f, "{e}"),
            EquivError::Direct { seed, source } => {
                write!(f, "direct execution failed at seed {seed:#x}: {source}")
            }
            EquivError::Replay { seed, source } => {
                write!(f, "IR replay failed at seed {seed:#x}: {source}")
            }
            EquivError::NoInput => write!(f, "circuit has no encrypted input"),
        }
    }
}

impl std::error::Error for EquivError {}

fn fresh_sim(compiled: &CompiledCircuit, seed: u64) -> SimCkks {
    // Noise off: the validator asserts *semantic* identity; encryption
    // noise would smear both sides without changing the verdict logic but
    // makes counterexamples impossible to minimize.
    SimCkks::new(&compiled.params, &compiled.rotation_keys, seed).without_noise()
}

/// Validates the identity transformation: extracts the IR of `circuit`
/// under `compiled` and proves the graph replays bit-identically to direct
/// inference, per seed. This is the soundness anchor for every analysis
/// that reads the graph (cost, lints): it certifies the graph *is* the
/// computation.
pub fn validate_extraction(
    circuit: &Circuit,
    compiled: &CompiledCircuit,
    seeds: &[u64],
) -> Result<EquivReport, EquivError> {
    let ir = extract_ir(circuit, compiled, ExtractMode::Full).map_err(EquivError::Extract)?;
    validate_ir(circuit, compiled, &ir, seeds)
}

/// Proves an already-extracted (possibly rewritten) graph equivalent to
/// direct execution of `circuit` under `compiled`.
pub fn validate_ir(
    circuit: &Circuit,
    compiled: &CompiledCircuit,
    ir: &IrGraph,
    seeds: &[u64],
) -> Result<EquivReport, EquivError> {
    let shape = circuit.input_shape().ok_or(EquivError::NoInput)?;
    let mut checks = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        let image = Tensor::random(shape.to_vec(), 1.0, seed);
        // Both sides run on identically-seeded fresh simulators, so even
        // the (disabled) RNG state matches.
        let mut direct_sim = fresh_sim(compiled, seed);
        let direct = try_infer(&mut direct_sim, circuit, &compiled.plan, &image)
            .map_err(|source| EquivError::Direct { seed, source })?;
        let mut replay_sim = fresh_sim(compiled, seed);
        let replay = try_replay_ir(&mut replay_sim, ir, &image)
            .map_err(|source| EquivError::Replay { seed, source })?;
        checks.push(SeedCheck {
            seed,
            lhs: digest_tensor(&direct),
            rhs: digest_tensor(&replay),
        });
    }
    Ok(EquivReport { checks })
}

/// Proves two graphs equivalent to each other (the general translation
/// validator: run the original and the rewritten graph over the same
/// seeded inputs and compare digests). Both graphs must encrypt the input
/// the same way — differing layouts are by definition different programs.
pub fn check_ir_equiv(
    a: &IrGraph,
    b: &IrGraph,
    compiled: &CompiledCircuit,
    seeds: &[u64],
) -> Result<EquivReport, EquivError> {
    let shape = vec![
        a.input_layout.channels,
        a.input_layout.height,
        a.input_layout.width,
    ];
    let mut checks = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        let image = Tensor::random(shape.clone(), 1.0, seed);
        let mut sim_a = fresh_sim(compiled, seed);
        let lhs = try_replay_ir(&mut sim_a, a, &image)
            .map_err(|source| EquivError::Replay { seed, source })?;
        let mut sim_b = fresh_sim(compiled, seed);
        let rhs = try_replay_ir(&mut sim_b, b, &image)
            .map_err(|source| EquivError::Replay { seed, source })?;
        checks.push(SeedCheck { seed, lhs: digest_tensor(&lhs), rhs: digest_tensor(&rhs) });
    }
    Ok(EquivReport { checks })
}
