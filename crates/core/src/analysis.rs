//! The data-flow analysis interpreter (paper §5.1).
//!
//! CHET analyses circuits *without building a data-flow graph*: it executes
//! the homomorphic tensor circuit under a different interpretation of the
//! ciphertext datatype. [`Analyzer`] is that interpretation — an
//! implementation of [`Hisa`] whose "ciphertexts" carry data-flow facts:
//!
//! * the fixed-point **scale** and the **modulus consumed** by rescaling
//!   (→ encryption-parameter selection, §5.2),
//! * the set of **rotation steps** requested (→ rotation-key selection,
//!   §5.4),
//! * accumulated **cost** under the Table 1 cost model (→ data-layout
//!   selection, §5.3), plus per-op counters.
//!
//! Rescaling semantics mirror the target variant exactly: powers of two for
//! CKKS, prefixes of a pre-generated candidate prime list for RNS-CKKS
//! (paper's footnote: "a list of 60-bit primes distributed in SEAL" — here
//! the compiler sizes candidates to the working scale).

use chet_hisa::cost::{CostModel, HisaOp, LevelInfo};
use chet_hisa::{Hisa, HisaError, Instr, RotDir};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// How `max_rescale`/`rescale` behave during analysis.
#[derive(Debug, Clone)]
pub enum RescaleModel {
    /// CKKS: any power of two divides.
    PowerOfTwo,
    /// RNS-CKKS: divisors are products of the next candidate primes.
    Chain(Arc<Vec<u64>>),
}

/// Abstract ciphertext: scale + modulus consumption state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ACt {
    /// Current fixed-point scale.
    pub scale: f64,
    /// log2 of the modulus consumed so far on this value's path.
    pub consumed_log2: f64,
    /// Number of candidate chain primes consumed (RNS only).
    pub chain_idx: usize,
}

/// Abstract plaintext: just a scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct APt {
    /// Fixed-point scale the plaintext was encoded at.
    pub scale: f64,
}

/// The analysis backend. Construct with [`Analyzer::new`], execute the
/// circuit against it (via `chet_runtime::exec::try_run_encrypted_with` —
/// kernels are generic over `Hisa`), then read the accumulated facts.
#[derive(Debug)]
pub struct Analyzer {
    slots: usize,
    model: RescaleModel,
    /// Cost model + ring degree + initial modulus state for the cost pass
    /// (`None` during the parameter-selection pass, when `Q` is unknown).
    cost: Option<(CostModel, usize, LevelInfo)>,
    /// All rotation steps requested by the circuit (normalized left steps).
    pub rotations: BTreeSet<usize>,
    /// Total estimated cost (cost pass only).
    pub total_cost: f64,
    /// Largest modulus consumption seen on any value.
    pub max_consumed_log2: f64,
    /// Largest candidate-prime count consumed (RNS).
    pub max_chain_idx: usize,
    /// Scale of the most recently produced ciphertext (the circuit output
    /// once execution finishes).
    pub last_scale: f64,
    /// Per-op execution counts.
    pub op_counts: HashMap<HisaOp, u64>,
}

impl Analyzer {
    /// Analysis interpreter for the parameter/rotation passes (no cost).
    pub fn new(slots: usize, model: RescaleModel) -> Self {
        Analyzer {
            slots,
            model,
            cost: None,
            rotations: BTreeSet::new(),
            total_cost: 0.0,
            max_consumed_log2: 0.0,
            max_chain_idx: 0,
            last_scale: 1.0,
            op_counts: HashMap::new(),
        }
    }

    /// Enables cost accounting against a model, ring degree and the chosen
    /// initial modulus (remaining `log Q` / chain length).
    pub fn with_cost(mut self, model: CostModel, degree: usize, initial: LevelInfo) -> Self {
        self.cost = Some((model, degree, initial));
        self
    }

    fn track(&mut self, ct: &ACt) -> ACt {
        self.max_consumed_log2 = self.max_consumed_log2.max(ct.consumed_log2);
        self.max_chain_idx = self.max_chain_idx.max(ct.chain_idx);
        self.last_scale = ct.scale;
        *ct
    }

    fn charge(&mut self, op: HisaOp, at: &ACt) {
        *self.op_counts.entry(op).or_insert(0) += 1;
        if let Some((model, degree, initial)) = &self.cost {
            let lvl = LevelInfo {
                log_q: (initial.log_q - at.consumed_log2).max(1.0),
                rns_len: initial.rns_len.saturating_sub(at.chain_idx).max(1),
            };
            self.total_cost += model.op_cost(op, *degree, lvl);
        }
    }

    fn rescaled(&self, c: &ACt, divisor: f64) -> ACt {
        let mut out = *c;
        out.scale /= divisor;
        out.consumed_log2 += divisor.log2();
        if let RescaleModel::Chain(primes) = &self.model {
            let mut d = divisor;
            while d > 1.5 {
                // Invariant: `candidate_primes` sizes the list well beyond
                // any circuit depth parameter selection accepts.
                #[allow(clippy::expect_used)]
                let p = *primes
                    .get(out.chain_idx)
                    .expect("candidate prime list exhausted; enlarge it");
                d /= p as f64;
                out.chain_idx += 1;
            }
        }
        out
    }

    fn meet(a: &ACt, b: &ACt) -> ACt {
        ACt {
            scale: a.scale,
            consumed_log2: a.consumed_log2.max(b.consumed_log2),
            chain_idx: a.chain_idx.max(b.chain_idx),
        }
    }
}

impl Hisa for Analyzer {
    type Ct = ACt;
    type Pt = APt;

    fn slots(&self) -> usize {
        self.slots
    }

    fn try_encode(&mut self, _values: &[f64], scale: f64) -> Result<APt, HisaError> {
        Ok(APt { scale })
    }

    fn decode(&mut self, _p: &APt) -> Vec<f64> {
        vec![0.0; self.slots]
    }

    fn encrypt(&mut self, p: &APt) -> ACt {
        let ct = ACt { scale: p.scale, consumed_log2: 0.0, chain_idx: 0 };
        self.track(&ct)
    }

    fn decrypt(&mut self, c: &ACt) -> APt {
        APt { scale: c.scale }
    }

    fn try_exec(&mut self, instr: Instr<'_, ACt, APt>) -> Result<ACt, HisaError> {
        let a = instr.lhs();
        if let Instr::Rescale(_, divisor) = instr {
            if divisor <= 1.0 {
                return Ok(self.track(a));
            }
        }
        self.charge(instr.op(), a);
        let out = match instr {
            Instr::Add(_, b) | Instr::Sub(_, b) => Self::meet(a, b),
            Instr::Mul(_, b) => ACt { scale: a.scale * b.scale, ..Self::meet(a, b) },
            Instr::MulPlain(_, p) => ACt { scale: a.scale * p.scale, ..*a },
            Instr::MulScalar(_, _, scale) => ACt { scale: a.scale * scale, ..*a },
            Instr::AddPlain(..)
            | Instr::AddScalar(..)
            | Instr::SubPlain(..)
            | Instr::SubScalar(..) => *a,
            Instr::Rescale(_, divisor) => self.rescaled(a, divisor),
        };
        Ok(self.track(&out))
    }

    fn try_rotate(&mut self, c: &ACt, dir: RotDir, steps: &[usize]) -> Result<Vec<ACt>, HisaError> {
        let mut out = Vec::with_capacity(steps.len());
        for &x in steps {
            let step = dir.normalize(x, self.slots);
            if step != 0 {
                self.rotations.insert(step);
                self.charge(HisaOp::Rotate, c);
            }
            out.push(self.track(c));
        }
        Ok(out)
    }

    fn max_rescale(&mut self, c: &ACt, ub: f64) -> f64 {
        if ub < 2.0 {
            return 1.0;
        }
        match &self.model {
            // The analysis computes the required Q, so the remaining-modulus
            // restriction of a live scheme does not apply here.
            RescaleModel::PowerOfTwo => 2f64.powi(ub.log2().floor() as i32),
            RescaleModel::Chain(primes) => {
                let mut prod = 1.0f64;
                let mut idx = c.chain_idx;
                while let Some(&p) = primes.get(idx) {
                    if prod * p as f64 > ub {
                        break;
                    }
                    prod *= p as f64;
                    idx += 1;
                }
                prod
            }
        }
    }

    fn scale_of(&self, c: &ACt) -> f64 {
        c.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chet_hisa::params::SchemeKind;

    fn chain() -> Arc<Vec<u64>> {
        Arc::new(chet_math::prime::ntt_primes(40, 65536, 8))
    }

    #[test]
    fn modulus_consumption_tracks_rescales() {
        let mut a = Analyzer::new(4096, RescaleModel::PowerOfTwo);
        let pt = a.encode(&[], 2f64.powi(30));
        let ct = a.encrypt(&pt);
        let prod = a.mul_scalar(&ct, 2.0, 2f64.powi(15));
        let d = a.max_rescale(&prod, 2f64.powi(15));
        assert_eq!(d, 2f64.powi(15));
        let out = a.rescale(&prod, d);
        assert_eq!(out.consumed_log2, 15.0);
        assert_eq!(a.max_consumed_log2, 15.0);
    }

    #[test]
    fn chain_model_consumes_candidates() {
        let primes = chain();
        let p0 = primes[0] as f64;
        let mut a = Analyzer::new(4096, RescaleModel::Chain(primes));
        let pt = a.encode(&[], 2f64.powi(30));
        let ct = a.encrypt(&pt);
        let prod = a.mul_plain(&ct, &APt { scale: 2f64.powi(30) });
        // ub 2^45 fits exactly one ~40-bit candidate.
        let d = a.max_rescale(&prod, 2f64.powi(45));
        assert_eq!(d, p0);
        let out = a.rescale(&prod, d);
        assert_eq!(out.chain_idx, 1);
        assert_eq!(a.max_chain_idx, 1);
    }

    #[test]
    fn rotations_are_recorded_normalized() {
        let mut a = Analyzer::new(64, RescaleModel::PowerOfTwo);
        let ct = ACt { scale: 1.0, consumed_log2: 0.0, chain_idx: 0 };
        a.rot_left(&ct, 5);
        a.rot_right(&ct, 3);
        a.rot_left(&ct, 64); // full turn: no key needed
        let steps: Vec<usize> = a.rotations.iter().copied().collect();
        assert_eq!(steps, vec![5, 61]);
    }

    #[test]
    fn cost_grows_with_lower_levels_in_rns() {
        let model = CostModel::for_scheme(SchemeKind::RnsCkks);
        let mut a = Analyzer::new(4096, RescaleModel::Chain(chain()))
            .with_cost(model, 8192, LevelInfo { log_q: 240.0, rns_len: 6 });
        let fresh = ACt { scale: 2f64.powi(30), consumed_log2: 0.0, chain_idx: 0 };
        a.mul(&fresh, &fresh);
        let hi = a.total_cost;
        a.total_cost = 0.0;
        let deep = ACt { scale: 2f64.powi(30), consumed_log2: 160.0, chain_idx: 4 };
        a.mul(&deep, &deep);
        assert!(a.total_cost < hi, "ops at lower levels must be cheaper");
    }

    #[test]
    fn meet_takes_worst_consumption() {
        let a = ACt { scale: 1.0, consumed_log2: 30.0, chain_idx: 1 };
        let b = ACt { scale: 1.0, consumed_log2: 45.0, chain_idx: 2 };
        let m = Analyzer::meet(&a, &b);
        assert_eq!(m.consumed_log2, 45.0);
        assert_eq!(m.chain_idx, 2);
    }

    #[test]
    fn op_counts_accumulate() {
        let mut a = Analyzer::new(64, RescaleModel::PowerOfTwo);
        let ct = ACt { scale: 4.0, consumed_log2: 0.0, chain_idx: 0 };
        a.add(&ct, &ct);
        a.add(&ct, &ct);
        a.mul(&ct, &ct);
        assert_eq!(a.op_counts[&HisaOp::Add], 2);
        assert_eq!(a.op_counts[&HisaOp::MulCipher], 1);
    }
}
