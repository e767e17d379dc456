//! Shared precomputations for an RNS-CKKS instance.

use crate::encoding::CkksEncoder;
use chet_hisa::params::{EncryptionParams, ModulusSpec};
use chet_math::modint::{inv_mod, Barrett};
use chet_math::ntt::{bit_reverse, NttTable};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Immutable per-instance data: the modulus chain, NTT tables, pairwise
/// modular inverses and the slot encoder.
///
/// Modulus layout: `moduli[0..num_chain]` is the rescaling chain — index 0
/// is the *base* prime (consumed last, anchors output precision), index
/// `num_chain − 1` is consumed first. `moduli[num_chain]` is the special
/// key-switching prime.
#[derive(Debug)]
pub struct RnsContext {
    degree: usize,
    moduli: Vec<u64>,
    num_chain: usize,
    ntt: Vec<NttTable>,
    /// Barrett reducer per modulus.
    barrett: Vec<Barrett>,
    /// `inv[i][j] = moduli[i]^{-1} mod moduli[j]` (diagonal unused).
    inv: Vec<Vec<u64>>,
    encoder: CkksEncoder,
    /// Lazily built NTT-domain automorphism tables, keyed by Galois
    /// element: `perm[i]` is the evaluation slot that moves to slot `i`
    /// under `X → X^g`.
    auto_perms: Mutex<HashMap<usize, Arc<Vec<u32>>>>,
}

impl RnsContext {
    /// Builds the context from RNS-CKKS encryption parameters.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are not a prime chain, contain non-NTT
    /// moduli, or duplicate primes.
    pub fn new(params: &EncryptionParams) -> Self {
        let (chain, special) = match &params.modulus {
            ModulusSpec::PrimeChain { primes, special } => (primes.clone(), *special),
            ModulusSpec::PowerOfTwo { .. } => {
                panic!("RnsContext requires a prime-chain modulus")
            }
        };
        assert!(!chain.is_empty(), "prime chain must be non-empty");
        let mut moduli = chain;
        let num_chain = moduli.len();
        moduli.push(special);
        let degree = params.degree;
        let ntt: Vec<NttTable> = moduli
            .iter()
            .map(|&q| NttTable::new(q, degree).expect("modulus must be NTT friendly"))
            .collect();
        let barrett = moduli.iter().map(|&q| Barrett::new(q)).collect();
        let k = moduli.len();
        let mut inv = vec![vec![0u64; k]; k];
        for i in 0..k {
            for j in 0..k {
                if i != j {
                    inv[i][j] = inv_mod(moduli[i] % moduli[j], moduli[j])
                        .expect("chain primes must be distinct");
                }
            }
        }
        RnsContext {
            degree,
            moduli,
            num_chain,
            ntt,
            barrett,
            inv,
            encoder: CkksEncoder::new(degree),
            auto_perms: Mutex::new(HashMap::new()),
        }
    }

    /// Ring degree `N`.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Slot count `N/2`.
    pub fn slots(&self) -> usize {
        self.degree / 2
    }

    /// Number of chain primes `r` (maximum ciphertext level).
    pub fn max_level(&self) -> usize {
        self.num_chain
    }

    /// The `i`-th modulus (chain primes first, special prime last).
    pub fn modulus(&self, i: usize) -> u64 {
        self.moduli[i]
    }

    /// Index of the special prime in the modulus list.
    pub fn special_index(&self) -> usize {
        self.num_chain
    }

    /// The special key-switching prime.
    pub fn special(&self) -> u64 {
        self.moduli[self.num_chain]
    }

    /// NTT table for modulus `i`.
    pub fn ntt(&self, i: usize) -> &NttTable {
        &self.ntt[i]
    }

    /// Barrett reducer for modulus `i`.
    pub fn barrett(&self, i: usize) -> &Barrett {
        &self.barrett[i]
    }

    /// `moduli[i]^{-1} mod moduli[j]`.
    pub fn inv_mod_of(&self, i: usize, j: usize) -> u64 {
        debug_assert_ne!(i, j);
        self.inv[i][j]
    }

    /// The slot encoder.
    pub fn encoder(&self) -> &CkksEncoder {
        &self.encoder
    }

    /// The NTT-domain permutation realizing the Galois automorphism
    /// `X → X^g` directly on evaluation slots, built once per Galois
    /// element and cached.
    ///
    /// Derivation: the forward NTT places `a(ψ^{2·brv(i)+1})` at slot `i`
    /// (pinned by `chet-math`'s `forward_output_order_is_bitrev_odd_powers`
    /// test). `σ_g(a)` evaluated there is `a(ψ^{(2·brv(i)+1)·g mod 2n})`,
    /// which the untransformed input holds at the slot whose odd exponent
    /// matches — so `perm[i] = brv(((2·brv(i)+1)·g mod 2n − 1) / 2)`.
    /// No sign corrections: evaluation slots carry values, not monomial
    /// coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `g` is even (even powers are not ring automorphisms of
    /// `Z[X]/(X^N + 1)`).
    pub fn auto_perm(&self, g: usize) -> Arc<Vec<u32>> {
        assert!(g % 2 == 1, "galois element must be odd");
        let mut cache = self
            .auto_perms
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(p) = cache.get(&g) {
            return Arc::clone(p);
        }
        let n = self.degree;
        let m = 2 * n;
        let log_n = n.trailing_zeros();
        let mut perm = Vec::with_capacity(n);
        for i in 0..n {
            let e = (2 * bit_reverse(i, log_n) + 1) * g % m;
            perm.push(bit_reverse((e - 1) / 2, log_n) as u32);
        }
        let perm = Arc::new(perm);
        cache.insert(g, Arc::clone(&perm));
        perm
    }
}
