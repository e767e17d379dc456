//! The RNS-CKKS scheme (SEAL v3.1 style) implementing the HISA.
//!
//! * Coefficient modulus: a chain of word-sized NTT primes; rescaling
//!   divides by chain primes from the back.
//! * Key switching: hybrid with one special prime `p` — evaluation keys are
//!   generated modulo `Q·p` with a per-chain-prime gadget, and switching
//!   ends with a rounding division by `p`, keeping noise growth additive.
//! * Rotations: Galois automorphisms `X → X^{5^r}` plus key switching; the
//!   available rotation keys follow the configured [`RotationKeyPolicy`].

use super::context::RnsContext;
use super::poly::{centered_switch, RnsPoly};
use super::pool;
use chet_hisa::keys::{plan_rotation, RotationKeyPolicy};
use chet_hisa::params::EncryptionParams;
use chet_hisa::{Hisa, HisaError, Instr, RotDir};
use chet_math::crt::CrtBasis;
use chet_math::lanes;
use chet_math::modint::{add_mod, neg_mod, sub_mod, ShoupMul};
use chet_math::par;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex, PoisonError};

/// Coefficients per tile of the key-switch inner product
/// ([`RnsCkks::accumulate`]): the gathered digit and both accumulators of
/// one tile stay in L1.
const KS_TILE: usize = 512;

/// A digit's residues over the coefficient range `span`: a slice of `src`,
/// or — when rotating — gathered through the slot permutation into `buf`.
fn digit_tile<'a>(
    src: &'a [u64],
    perm: Option<&[u32]>,
    buf: &'a mut [u64; KS_TILE],
    span: std::ops::Range<usize>,
) -> &'a [u64] {
    match perm {
        Some(p) => {
            let len = span.len();
            for (g, &j) in buf.iter_mut().zip(&p[span]) {
                *g = src[j as usize];
            }
            &buf[..len]
        }
        None => &src[span],
    }
}

/// An RNS-CKKS ciphertext: two NTT-form ring elements plus scale.
#[derive(Debug, Clone)]
pub struct RnsCiphertext {
    c0: RnsPoly,
    c1: RnsPoly,
    scale: f64,
}

impl RnsCiphertext {
    /// Current level (number of active chain primes).
    pub fn level(&self) -> usize {
        self.c0.level
    }

    /// Decomposes into components for the wire codec.
    pub(crate) fn parts(&self) -> (&RnsPoly, &RnsPoly, f64) {
        (&self.c0, &self.c1, self.scale)
    }

    /// Rebuilds from wire components.
    pub(crate) fn from_parts(c0: RnsPoly, c1: RnsPoly, scale: f64) -> Self {
        RnsCiphertext { c0, c1, scale }
    }

    /// Current fixed-point scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

/// An encoded plaintext at the full chain level.
///
/// Alongside the RNS residues it keeps the exact integer coefficients (as
/// `f64`), so decoding is independent of the modulus size.
#[derive(Debug, Clone)]
pub struct RnsPlaintext {
    poly: RnsPoly,
    scale: f64,
    coeffs: Vec<f64>,
}

/// A key-switching key at level `l`: one row `(b_i, a_i)` per chain prime
/// `i < l`, each polynomial `l + 1` NTT-form limbs (chain primes `0..l`,
/// then the special prime).
///
/// The limbs are plain allocations, never drawn from or returned to
/// [`pool`]: keys are permanent, and a pooled key limb would either take a
/// buffer the evaluator's working set counts on or park key-sized memory
/// in the free-lists when the key is dropped.
#[derive(Debug)]
struct KsKey {
    rows: Vec<(Vec<KeyLimb>, Vec<KeyLimb>)>,
}

/// A polynomial's residue vectors, one per modulus.
type Limbs = Vec<Vec<u64>>;

impl KsKey {
    /// Chain primes served: the number of rows, and the position of the
    /// special limb in each row polynomial.
    fn level(&self) -> usize {
        self.rows.len()
    }
}

/// One limb of a key row polynomial, stored in the words its residues
/// need: `u32` modulo a lane prime ([`lanes::is_lane_modulus`]), `u64`
/// otherwise.
#[derive(Debug)]
enum KeyLimb {
    Wide(Vec<u64>),
    Lane(Vec<u32>),
}

impl KeyLimb {
    /// A copy of canonical residues modulo `q`, narrowed when `q` is a
    /// lane modulus.
    fn new(residues: &[u64], q: u64) -> Self {
        debug_assert!(residues.iter().all(|&x| x < q), "key residues are canonical");
        if lanes::is_lane_modulus(q) {
            KeyLimb::Lane(residues.iter().map(|&x| x as u32).collect())
        } else {
            KeyLimb::Wide(residues.to_vec())
        }
    }
}

/// The secret a key-switching key switches from.
#[derive(Debug, Clone, Copy)]
enum KeySource {
    /// `s²`: relinearization.
    Square,
    /// `s(X^g)`: the rotation with Galois element `g`.
    Galois(usize),
}

/// One key-switching key, built on first use at the level it is used.
///
/// `rng` is the scheme RNG's state at the key's first draw; replaying it
/// regenerates any prefix of the full-basis key residue for residue, so a
/// key is built at first use and rebuilt at a higher level when a later
/// use needs more rows than it holds.
struct KeySlot {
    source: KeySource,
    rng: StdRng,
    /// The key at its highest level used so far. Ops clone the [`Arc`], so
    /// a rebuild never invalidates a key an op is reading.
    key: Mutex<Option<Arc<KsKey>>>,
}

/// The scheme's key-switching keys, shared by [`Hisa::fork`] children: a
/// key any of them builds serves them all.
struct KeySet {
    relin: KeySlot,
    galois: HashMap<usize, KeySlot>,
}

/// The hoistable half of a key switch: the gadget digits of a polynomial,
/// base-converted to the full (chain-prefix + special) basis and
/// NTT-transformed.
///
/// Computing these digits — `level²` base conversions and NTTs (the
/// `level` diagonal limbs are copies) — is the dominant cost of a key
/// switch and depends only on the switched polynomial, never on the key.
/// `RnsCkks`'s [`Hisa::try_rotate`] therefore computes them once per source
/// ciphertext and reuses them for every requested rotation (nGraph-HE2's
/// hoisting).
struct KsDigits {
    level: usize,
    /// `digits[i]`: digit `i` (the residues modulo chain prime `i`) over
    /// the full basis, NTT form.
    digits: Vec<RnsPoly>,
}

/// The RNS-CKKS scheme instance: parameters, secret/public/evaluation keys
/// and the RLWE sampling state.
///
/// For the client/server split of the paper's Figure 3, this object plays
/// both roles; the compiler emits which rotation keys it must generate.
pub struct RnsCkks {
    ctx: Arc<RnsContext>,
    /// Ternary secret key, signed coefficients.
    sk_coeffs: Vec<i64>,
    /// Secret key in NTT form over the full basis (chain + special).
    sk: RnsPoly,
    /// Public encryption key (full chain level, no special prime).
    pk: (RnsPoly, RnsPoly),
    keys: Arc<KeySet>,
    key_steps: BTreeSet<usize>,
    error_stddev: f64,
    rng: StdRng,
    crt_cache: HashMap<usize, CrtBasis>,
}

impl std::fmt::Debug for RnsCkks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RnsCkks")
            .field("degree", &self.ctx.degree())
            .field("max_level", &self.ctx.max_level())
            .field("rotation_keys", &self.key_steps.len())
            .finish()
    }
}

impl RnsCkks {
    /// Generates the secret and public keys for the given parameters and
    /// schedules a key-switching key for relinearization and for each step
    /// of the rotation-key policy, seeded for reproducibility.
    ///
    /// Scheduling stores the RNG state at a key's first draw and advances
    /// past the draws the full-basis key takes; the key itself is built on
    /// first use, at the level of that use (see `key_at`). The RNG ends
    /// where generating every key would leave it, so encryptions and forks
    /// draw the same randomness either way.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are not an RNS prime chain.
    pub fn new(params: &EncryptionParams, policy: &RotationKeyPolicy, seed: u64) -> Self {
        let ctx = Arc::new(RnsContext::new(params));
        let mut rng = StdRng::seed_from_u64(seed);
        let n = ctx.degree();
        let r = ctx.max_level();
        let stddev = params.error_stddev;

        let sk_coeffs = crate::sampling::ternary(&mut rng, n);
        let mut sk = RnsPoly::from_signed(&ctx, &sk_coeffs, r, true);
        sk.ntt_forward(&ctx);

        // Public key: (−(a·s + e), a) over the chain primes.
        let (pk0, pk1) = {
            let a = Self::sample_uniform_ntt(&ctx, &mut rng, r, false);
            let e = Self::sample_error_ntt(&ctx, &mut rng, stddev, r, false);
            let mut b = a.mul(&ctx, &Self::chain_secret(&sk, r));
            b.add_assign(&ctx, &e);
            b.neg_assign(&ctx);
            (b, a)
        };

        // Relinearization (s² to s), then the policy's rotation keys.
        let mut schedule = |source| {
            let slot = KeySlot { source, rng: rng.clone(), key: Mutex::new(None) };
            Self::skip_key(&ctx, &mut rng, stddev);
            slot
        };
        let relin = schedule(KeySource::Square);
        let key_steps = policy.steps(ctx.slots());
        let galois = key_steps
            .iter()
            .map(|&step| (step, schedule(KeySource::Galois(ctx.encoder().galois_element(step)))))
            .collect();

        RnsCkks {
            ctx,
            sk_coeffs,
            sk,
            pk: (pk0, pk1),
            keys: Arc::new(KeySet { relin, galois }),
            key_steps,
            error_stddev: stddev,
            rng,
            crt_cache: HashMap::new(),
        }
    }

    /// Scheme context (degree, moduli, encoder).
    pub fn context(&self) -> &RnsContext {
        &self.ctx
    }

    /// The secret key over chain primes `0..level` (no special prime),
    /// NTT form.
    fn chain_secret(sk: &RnsPoly, level: usize) -> RnsPoly {
        let mut s = sk.clone();
        s.special = false;
        if let Some(limb) = s.pop_component() {
            pool::release(limb);
        }
        s.drop_to_level(level);
        s
    }

    /// Fills `limb` with residues uniform modulo `ctx.modulus(idx)`, one
    /// RNG word per residue (Barrett-reduced).
    fn fill_uniform(ctx: &RnsContext, rng: &mut StdRng, idx: usize, limb: &mut [u64]) {
        let br = ctx.barrett(idx);
        for c in limb {
            *c = br.reduce(rng.next_u64());
        }
    }

    fn sample_uniform_ntt(
        ctx: &RnsContext,
        rng: &mut StdRng,
        level: usize,
        special: bool,
    ) -> RnsPoly {
        // Fill pooled limbs in place, component-major, coefficient-minor.
        let mut p = RnsPoly::uninit(ctx, level, special, true);
        let comps = p.data.len();
        for (k, limb) in p.data.iter_mut().enumerate() {
            let idx = if special && k == comps - 1 { ctx.special_index() } else { k };
            Self::fill_uniform(ctx, rng, idx, limb);
        }
        p
    }

    fn sample_error_ntt(
        ctx: &RnsContext,
        rng: &mut StdRng,
        stddev: f64,
        level: usize,
        special: bool,
    ) -> RnsPoly {
        let e = crate::sampling::gaussian(rng, ctx.degree(), stddev);
        let mut p = RnsPoly::from_signed(ctx, &e, level, special);
        p.ntt_forward(ctx);
        p
    }

    /// Advances `rng` past the draws of one full-basis key: per row (one
    /// per chain prime), `r + 1` uniform limbs of `N` words, then `N`
    /// Gaussian error coefficients — the sequence [`Self::build_key`]
    /// replays. The Gaussians are skipped, not computed.
    fn skip_key(ctx: &RnsContext, rng: &mut StdRng, stddev: f64) {
        let (r, n) = (ctx.max_level(), ctx.degree());
        for _ in 0..r {
            Self::skip_words(rng, (r + 1) * n);
            crate::sampling::skip_gaussian(rng, n, stddev);
        }
    }

    fn skip_words(rng: &mut StdRng, count: usize) {
        for _ in 0..count {
            rng.next_u64();
        }
    }

    /// The key in `slot` with at least `level` rows: built, or rebuilt at
    /// `level` when it holds fewer rows, under the slot's lock. Forks
    /// racing on one key build it once, and which of them builds it does
    /// not change a residue.
    fn key_at(&self, slot: &KeySlot, level: usize) -> Arc<KsKey> {
        // The slot only ever holds a complete key, so a poisoned lock
        // guards consistent data.
        let mut key = slot.key.lock().unwrap_or_else(PoisonError::into_inner);
        match &*key {
            Some(k) if k.level() >= level => Arc::clone(k),
            _ => {
                let k = Arc::new(self.build_key(slot, level));
                *key = Some(Arc::clone(&k));
                k
            }
        }
    }

    /// Builds the first `level` rows of `slot`'s key over chain primes
    /// `0..level` plus the special prime: `b_i = −(a_i·s + e_i) +
    /// (p mod q_i)·s_from` on limb `i`, `a_i` uniform. Replays the slot's
    /// RNG through the full-basis draw sequence ([`Self::skip_key`]),
    /// drawing and discarding the uniform limbs of chain primes `level..r`,
    /// so each residue equals the full-basis key's.
    ///
    /// Each row is computed in pooled `u64` scratch and stored through
    /// [`KeyLimb::new`]. Scratch freed to the allocator between a key's
    /// permanent limbs would leave heap holes that count as resident.
    fn build_key(&self, slot: &KeySlot, level: usize) -> KsKey {
        let ctx = &*self.ctx;
        let (r, n) = (ctx.max_level(), ctx.degree());
        let mut rng = slot.rng.clone();
        let s_from = match slot.source {
            KeySource::Square => {
                let s = Self::chain_secret(&self.sk, level);
                s.mul(ctx, &s)
            }
            KeySource::Galois(g) => {
                let mut s = RnsPoly::from_signed(ctx, &self.sk_coeffs, level, false)
                    .automorphism(ctx, g);
                s.ntt_forward(ctx);
                s
            }
        };
        // Limb `k` of a level-`level` row is modulo `ctx.modulus(k)` for
        // `k < level` and the special prime (index `r`) at `k == level`.
        let modulus_of = |k: usize| if k == level { r } else { k };
        let mut rows = Vec::with_capacity(level);
        for i in 0..level {
            let mut a = Vec::with_capacity(level + 1);
            for k in 0..=r {
                if k < level || k == r {
                    let mut limb = pool::acquire_uninit(n);
                    Self::fill_uniform(ctx, &mut rng, k, &mut limb);
                    a.push(limb);
                } else {
                    Self::skip_words(&mut rng, n);
                }
            }
            let e = Self::sample_error_ntt(ctx, &mut rng, self.error_stddev, level, true);
            let (sk, a_ref, s_from) = (&self.sk, &a, &s_from);
            let mut b: Limbs = (0..=level).map(|_| pool::acquire_uninit(n)).collect();
            par::par_iter_mut(&mut b, |k, b_k| {
                let m = modulus_of(k);
                let (br, q) = (ctx.barrett(m), ctx.modulus(m));
                let terms = a_ref[k].iter().zip(&sk.data[m]).zip(&e.data[k]);
                for (dst, ((&a, &s), &e)) in b_k.iter_mut().zip(terms) {
                    *dst = neg_mod(add_mod(br.mul(a, s), e, q), q);
                }
                if k == i {
                    // Gadget: add (p mod q_i)·s_from on limb i only.
                    let p_mod = ShoupMul::new(ctx.special() % q, q);
                    for (dst, &s) in b_k.iter_mut().zip(&s_from.data[i]) {
                        *dst = add_mod(*dst, p_mod.mul(s, q), q);
                    }
                }
            });
            let narrow = |limbs: Limbs| {
                let q = |k: usize| ctx.modulus(modulus_of(k));
                let key = limbs.iter().enumerate().map(|(k, l)| KeyLimb::new(l, q(k))).collect();
                limbs.into_iter().for_each(pool::release);
                key
            };
            rows.push((narrow(b), narrow(a)));
        }
        KsKey { rows }
    }

    /// Computes the hoistable half of a key switch: the gadget digits of an
    /// NTT-form, chain-only polynomial `src`, base-converted to the full
    /// (chain-prefix + special) basis and NTT-transformed.
    ///
    /// Digit `i` at its own modulus `q_i` is `src`'s limb `i` itself (the
    /// digit's residues are already reduced there), so the diagonal is
    /// copied and only the `level²` off-diagonal limbs take a base
    /// conversion and a forward NTT.
    ///
    /// The `(digit, component)` work items are flattened into one parallel
    /// region ([`par`] regions do not nest), each with a fixed index-ordered
    /// write target — results are bit-identical at any thread count.
    fn decompose(ctx: &RnsContext, src: &RnsPoly) -> KsDigits {
        assert!(src.ntt_form && !src.special);
        let mut t = src.clone();
        t.ntt_inverse(ctx);
        let level = t.level;
        let comps = level + 1; // chain prefix + special
        let mut digits: Vec<RnsPoly> =
            (0..level).map(|_| RnsPoly::uninit(ctx, level, true, true)).collect();
        let mut jobs: Vec<(usize, usize, &mut Vec<u64>)> = Vec::with_capacity(level * comps);
        for (i, digit) in digits.iter_mut().enumerate() {
            for (k, limb) in digit.data.iter_mut().enumerate() {
                jobs.push((i, k, limb));
            }
        }
        par::par_iter_mut(&mut jobs, |_, (i, k, limb)| {
            if *i == *k {
                limb.copy_from_slice(&src.data[*i]);
                return;
            }
            let mod_idx = if *k == comps - 1 { ctx.special_index() } else { *k };
            // Base-convert the unsigned decomposition digit, then NTT.
            let br = ctx.barrett(mod_idx);
            for (dst, &v) in limb.iter_mut().zip(&t.data[*i]) {
                *dst = br.reduce(v);
            }
            ctx.ntt(mod_idx).forward(limb);
        });
        KsDigits { level, digits }
    }

    /// Inner products of precomputed digits with a key's rows, one output
    /// limb per full-basis modulus (NTT form). `perm`, when given, applies a
    /// Galois slot permutation to the digits on the fly — the hoisted
    /// rotation path — at zero extra passes over the data.
    ///
    /// Each limb runs digit-major over tiles of [`KS_TILE`] coefficients:
    /// digit `i`'s (permuted) residues are gathered into a tile buffer and
    /// multiplied into two tile accumulators by the key row's residues, and
    /// the sums are reduced only when their lazy budget runs out:
    ///
    /// * limbs modulo `q < 2^30`, whose key residues are stored as `u32`
    ///   ([`KeyLimb`]), accumulate in `u64` lanes
    ///   ([`lanes::mul_acc_pair`]), reducing after [`lanes::u64_budget`]`(q)`
    ///   terms — the largest count with `(q−1) + m·(q−1)² < 2^64`, at least
    ///   16, so at every level the parameter table admits for 30-bit primes
    ///   this is one reduction per output;
    /// * other limbs (`q < 2^62`) accumulate in `u128`, reduced every 8
    ///   digits: 8·(2^62−1)² plus a carried partial stays below 2^128.
    ///
    /// Reductions are Barrett ([`chet_math::modint::Barrett`]); the output
    /// is the exact canonical inner product.
    fn accumulate(
        ctx: &RnsContext,
        digits: &KsDigits,
        key: &KsKey,
        perm: Option<&[u32]>,
    ) -> (RnsPoly, RnsPoly) {
        let level = digits.level;
        let comps = level + 1;
        debug_assert!(key.level() >= level, "key below its use level");
        let mut acc0 = RnsPoly::uninit(ctx, level, true, true);
        let mut acc1 = RnsPoly::uninit(ctx, level, true, true);
        par::par_zip_mut(&mut acc0.data, &mut acc1.data, |k, acc0_k, acc1_k| {
            let mod_idx = if k == comps - 1 { ctx.special_index() } else { k };
            let br = ctx.barrett(mod_idx);
            // Key rows live at the key's own level: chain j ↔ limb j,
            // special ↔ the last limb.
            let key_k = if k == comps - 1 { key.level() } else { k };
            let digit = |i: usize| digits.digits[i].data[k].as_slice();
            // Every row's limb `key_k` has the width `mod_idx`'s modulus
            // selects, so each branch below reads only its own variant.
            let rows = |i: usize| (&key.rows[i].0[key_k], &key.rows[i].1[key_k]);
            let mut gathered = [0u64; KS_TILE];
            let tiles = acc0_k.chunks_mut(KS_TILE).zip(acc1_k.chunks_mut(KS_TILE));
            if lanes::is_lane_modulus(br.modulus()) {
                let budget = lanes::u64_budget(br.modulus());
                let (mut s0, mut s1) = ([0u64; KS_TILE], [0u64; KS_TILE]);
                for (t, (out0, out1)) in tiles.enumerate() {
                    let span = t * KS_TILE..t * KS_TILE + out0.len();
                    let (s0, s1) = (&mut s0[..span.len()], &mut s1[..span.len()]);
                    s0.fill(0);
                    s1.fill(0);
                    for i in 0..level {
                        if i > 0 && i % budget == 0 {
                            s0.iter_mut().chain(s1.iter_mut()).for_each(|x| *x = br.reduce(*x));
                        }
                        let d = digit_tile(digit(i), perm, &mut gathered, span.clone());
                        let (KeyLimb::Lane(k0), KeyLimb::Lane(k1)) = rows(i) else {
                            unreachable!("key limb wider than its lane modulus")
                        };
                        lanes::mul_acc_pair(s0, s1, d, &k0[span.clone()], &k1[span.clone()]);
                    }
                    let sums = out0.iter_mut().zip(&*s0).chain(out1.iter_mut().zip(&*s1));
                    sums.for_each(|(o, &x)| *o = br.reduce(x));
                }
            } else {
                let (mut s0, mut s1) = ([0u128; KS_TILE], [0u128; KS_TILE]);
                for (t, (out0, out1)) in tiles.enumerate() {
                    let span = t * KS_TILE..t * KS_TILE + out0.len();
                    let (s0, s1) = (&mut s0[..span.len()], &mut s1[..span.len()]);
                    s0.fill(0);
                    s1.fill(0);
                    for i in 0..level {
                        if i > 0 && i % 8 == 0 {
                            s0.iter_mut()
                                .chain(s1.iter_mut())
                                .for_each(|x| *x = u128::from(br.reduce_u128(*x)));
                        }
                        let d = digit_tile(digit(i), perm, &mut gathered, span.clone());
                        let (KeyLimb::Wide(k0), KeyLimb::Wide(k1)) = rows(i) else {
                            unreachable!("key limb narrowed below its modulus")
                        };
                        let accs = s0.iter_mut().zip(s1.iter_mut());
                        let terms = d.iter().zip(&k0[span.clone()]).zip(&k1[span.clone()]);
                        for ((a0, a1), ((&d, &k0), &k1)) in accs.zip(terms) {
                            *a0 += u128::from(d) * u128::from(k0);
                            *a1 += u128::from(d) * u128::from(k1);
                        }
                    }
                    let sums = out0.iter_mut().zip(&*s0).chain(out1.iter_mut().zip(&*s1));
                    sums.for_each(|(o, &x)| *o = br.reduce_u128(x));
                }
            }
        });
        (acc0, acc1)
    }

    /// Key-switches an NTT-form polynomial `t` (valid under some secret
    /// `s_from`) into a pair `(acc0, acc1)` valid under `s`, at `t`'s level,
    /// NTT form.
    fn switch_key(&self, t: &RnsPoly, key: &KsKey) -> (RnsPoly, RnsPoly) {
        let ctx = &self.ctx;
        let digits = Self::decompose(ctx, t);
        let (acc0, acc1) = Self::accumulate(ctx, &digits, key, None);
        (Self::mod_down_special(ctx, acc0), Self::mod_down_special(ctx, acc1))
    }

    /// Divides a (chain + special)-basis polynomial by the special prime
    /// with rounding, returning a chain-only polynomial (NTT form).
    fn mod_down_special(ctx: &RnsContext, mut poly: RnsPoly) -> RnsPoly {
        assert!(poly.special && poly.ntt_form);
        let sp = poly.pop_component().expect("special component present");
        poly.special = false;
        debug_assert_eq!(poly.data.len(), poly.level);
        Self::divide_rounded(ctx, &mut poly, sp, ctx.special_index());
        poly
    }

    /// Divides the chain limbs of `poly` (NTT form) with rounding by the
    /// modulus `ctx.modulus(src)`, whose NTT-form limb `last` was just
    /// detached from it: `c_j ← (c_j − [last]_j)·q_src⁻¹ mod q_j`, where
    /// `[last]_j` is the centered lift of `last` to `q_j`. Limbs modulo
    /// `q_j < 2^30` run the lift and the tail in 32-bit lanes.
    fn divide_rounded(ctx: &RnsContext, poly: &mut RnsPoly, mut last: Vec<u64>, src: usize) {
        ctx.ntt(src).inverse(&mut last);
        let q_src = ctx.modulus(src);
        let last_ref = &last;
        par::par_iter_mut(&mut poly.data, |j, comp| {
            let q = ctx.modulus(j);
            let inv = ShoupMul::new(ctx.inv_mod_of(src, j), q);
            let lane = lanes::is_lane_modulus(q);
            let mut t = pool::acquire_uninit(last_ref.len());
            if lane {
                lanes::centered_switch(&mut t, last_ref, q_src, q);
            } else {
                let br = ctx.barrett(j);
                for (dst, &v) in t.iter_mut().zip(last_ref.iter()) {
                    *dst = centered_switch(v, q_src, br);
                }
            }
            ctx.ntt(j).forward(&mut t);
            if lane {
                lanes::sub_mul(comp, &t, &inv, q);
            } else {
                for (a, &b) in comp.iter_mut().zip(t.iter()) {
                    *a = inv.mul(sub_mod(*a, b, q), q);
                }
            }
            pool::release(t);
        });
        pool::release(last);
    }

    /// Drops both ciphertext components to `level` (modulus switch).
    fn align_level(&self, ct: &RnsCiphertext, level: usize) -> RnsCiphertext {
        if ct.level() == level {
            return ct.clone();
        }
        let mut out = ct.clone();
        out.c0.drop_to_level(level);
        out.c1.drop_to_level(level);
        out
    }

    fn check_scales(a: f64, b: f64) -> Result<(), HisaError> {
        if (a / b - 1.0).abs() < 1e-6 {
            Ok(())
        } else {
            Err(HisaError::ScaleMismatch { left: a, right: b })
        }
    }

    /// Rescales by exactly one chain prime (the last active one).
    fn rescale_one(&self, ct: &mut RnsCiphertext) {
        let ctx = &self.ctx;
        let level = ct.level();
        assert!(level > 1, "cannot rescale below level 1");
        let l = level - 1;
        let q_l = ctx.modulus(l);
        for c in [&mut ct.c0, &mut ct.c1] {
            let last = c.pop_component().expect("component");
            c.level = l;
            Self::divide_rounded(ctx, c, last, l);
        }
        ct.scale /= q_l as f64;
    }

    /// `a + x` in every slot, `x` quantized at the ciphertext's scale.
    fn shifted(ctx: &RnsContext, a: &RnsCiphertext, x: f64) -> RnsCiphertext {
        let mut out = a.clone();
        let k = (x * a.scale).round() as i128;
        out.c0.add_scalar_all_slots_assign(ctx, k);
        out
    }

    fn rescaled(&self, c: &RnsCiphertext, divisor: f64) -> Result<RnsCiphertext, HisaError> {
        if divisor <= 1.0 {
            return Ok(c.clone());
        }
        let mut out = c.clone();
        let mut d = divisor;
        let mut consumed = 0usize;
        while d > 1.5 {
            if out.level() <= 1 {
                return Err(HisaError::LevelExhausted {
                    remaining: (c.level() - 1) as f64,
                    requested: (consumed + 1) as f64,
                });
            }
            let q_last = self.ctx.modulus(out.level() - 1) as f64;
            self.rescale_one(&mut out);
            consumed += 1;
            d /= q_last;
        }
        if (d - 1.0).abs() >= 1e-6 {
            return Err(HisaError::InvalidRescale {
                divisor,
                reason: "not a product of the next chain primes".into(),
            });
        }
        Ok(out)
    }

    /// Finishes one rotation from precomputed digits of `ct.c1`: the Galois
    /// automorphism is a slot permutation in evaluation form, folded into
    /// the key-switch inner product ([`Self::accumulate`]) and applied to
    /// `c0` via [`RnsPoly::permute_ntt`] — no NTT round-trips per rotation.
    fn rotate_hoisted(
        &self,
        ct: &RnsCiphertext,
        digits: &KsDigits,
        step: usize,
    ) -> Result<RnsCiphertext, HisaError> {
        let ctx = &self.ctx;
        let g = ctx.encoder().galois_element(step);
        let slot = self.keys.galois.get(&step).ok_or_else(|| HisaError::MissingRotationKey {
            step,
            available: self.key_steps.iter().copied().collect(),
        })?;
        let key = self.key_at(slot, digits.level);
        let perm = ctx.auto_perm(g);
        let (acc0, acc1) = Self::accumulate(ctx, digits, &key, Some(&perm));
        let ks0 = Self::mod_down_special(ctx, acc0);
        let ks1 = Self::mod_down_special(ctx, acc1);
        let mut out0 = ct.c0.permute_ntt(ctx, &perm);
        out0.add_assign(ctx, &ks0);
        Ok(RnsCiphertext { c0: out0, c1: ks1, scale: ct.scale })
    }

    /// Applies one elementary rotation (a step with a dedicated key) with
    /// its own decomposition: the later hops of a composite plan, which
    /// rotate fresh intermediates.
    fn rotate_step(&self, ct: &RnsCiphertext, step: usize) -> Result<RnsCiphertext, HisaError> {
        let digits = Self::decompose(&self.ctx, &ct.c1);
        self.rotate_hoisted(ct, &digits, step)
    }
}

impl Hisa for RnsCkks {
    type Ct = RnsCiphertext;
    type Pt = RnsPlaintext;

    fn slots(&self) -> usize {
        self.ctx.slots()
    }

    fn try_encode(&mut self, values: &[f64], scale: f64) -> Result<RnsPlaintext, HisaError> {
        if values.len() > self.ctx.slots() {
            return Err(HisaError::SlotOverflow {
                len: values.len(),
                slots: self.ctx.slots(),
            });
        }
        let int_coeffs = self.ctx.encoder().encode(values, scale);
        let mut poly = RnsPoly::from_signed(&self.ctx, &int_coeffs, self.ctx.max_level(), false);
        poly.ntt_forward(&self.ctx);
        let coeffs = int_coeffs.iter().map(|&c| c as f64).collect();
        Ok(RnsPlaintext { poly, scale, coeffs })
    }

    fn decode(&mut self, p: &RnsPlaintext) -> Vec<f64> {
        self.ctx.encoder().decode(&p.coeffs, p.scale)
    }

    fn encrypt(&mut self, p: &RnsPlaintext) -> RnsCiphertext {
        // Disjoint field borrows: keys/context are read, only the RNG
        // mutates.
        let RnsCkks { ctx, rng, pk, error_stddev, .. } = self;
        let r = ctx.max_level();
        let u_coeffs = crate::sampling::ternary(rng, ctx.degree());
        let mut u = RnsPoly::from_signed(ctx, &u_coeffs, r, false);
        u.ntt_forward(ctx);
        let e0 = Self::sample_error_ntt(ctx, rng, *error_stddev, r, false);
        let e1 = Self::sample_error_ntt(ctx, rng, *error_stddev, r, false);
        let mut c0 = pk.0.mul(ctx, &u);
        c0.add_assign(ctx, &e0);
        c0.add_assign(ctx, &p.poly);
        let mut c1 = pk.1.mul(ctx, &u);
        c1.add_assign(ctx, &e1);
        RnsCiphertext { c0, c1, scale: p.scale }
    }

    fn decrypt(&mut self, c: &RnsCiphertext) -> RnsPlaintext {
        let RnsCkks { ctx, sk, crt_cache, .. } = self;
        let level = c.level();
        let mut m = c.c1.mul(ctx, &Self::chain_secret(sk, level));
        m.add_assign(ctx, &c.c0);
        m.ntt_inverse(ctx);
        // CRT-reconstruct centered coefficients to floats.
        let n = ctx.degree();
        let coeffs: Vec<f64> = if level == 1 {
            let q0 = ctx.modulus(0);
            m.data[0]
                .iter()
                .map(|&v| if v > q0 / 2 { -((q0 - v) as f64) } else { v as f64 })
                .collect()
        } else {
            let basis = crt_cache.entry(level).or_insert_with(|| {
                CrtBasis::new((0..level).map(|i| ctx.modulus(i)).collect())
            });
            (0..n)
                .map(|k| {
                    let residues: Vec<u64> = (0..level).map(|i| m.data[i][k]).collect();
                    let (neg, mag) = basis.reconstruct_centered(&residues);
                    let f = mag.to_f64();
                    if neg {
                        -f
                    } else {
                        f
                    }
                })
                .collect()
        };
        // Keep the exact reconstructed coefficients; rebuild residues so the
        // plaintext can also be reused in homomorphic ops.
        let int_coeffs: Vec<i64> = coeffs
            .iter()
            .map(|&c| c.clamp(-9.0e18, 9.0e18) as i64)
            .collect();
        let mut poly = RnsPoly::from_signed(&ctx, &int_coeffs, ctx.max_level(), false);
        poly.ntt_forward(&ctx);
        RnsPlaintext { poly, scale: c.scale, coeffs }
    }

    fn try_exec(
        &mut self,
        instr: Instr<'_, RnsCiphertext, RnsPlaintext>,
    ) -> Result<RnsCiphertext, HisaError> {
        let ctx = &self.ctx;
        Ok(match instr {
            Instr::Add(a, b) | Instr::Sub(a, b) => {
                Self::check_scales(a.scale, b.scale)?;
                let level = a.level().min(b.level());
                let mut x = self.align_level(a, level);
                let y = self.align_level(b, level);
                if let Instr::Add(..) = instr {
                    x.c0.add_assign(ctx, &y.c0);
                    x.c1.add_assign(ctx, &y.c1);
                } else {
                    x.c0.sub_assign(ctx, &y.c0);
                    x.c1.sub_assign(ctx, &y.c1);
                }
                x
            }
            Instr::AddPlain(a, p) | Instr::SubPlain(a, p) => {
                Self::check_scales(a.scale, p.scale)?;
                let mut out = a.clone();
                if let Instr::AddPlain(..) = instr {
                    out.c0.add_assign_prefix(ctx, &p.poly);
                } else {
                    out.c0.sub_assign_prefix(ctx, &p.poly);
                }
                out
            }
            Instr::AddScalar(a, x) => Self::shifted(ctx, a, x),
            Instr::SubScalar(a, x) => Self::shifted(ctx, a, -x),
            Instr::Mul(a, b) => {
                let level = a.level().min(b.level());
                let x = self.align_level(a, level);
                let y = self.align_level(b, level);
                let d0 = x.c0.mul(ctx, &y.c0);
                let mut d1 = x.c0.mul(ctx, &y.c1);
                d1.add_assign(ctx, &x.c1.mul(ctx, &y.c0));
                let d2 = x.c1.mul(ctx, &y.c1);
                // Relinearize d2·s² back to a degree-1 ciphertext.
                let relin = self.key_at(&self.keys.relin, level);
                let (ks0, ks1) = self.switch_key(&d2, &relin);
                let mut c0 = d0;
                c0.add_assign(ctx, &ks0);
                let mut c1 = d1;
                c1.add_assign(ctx, &ks1);
                RnsCiphertext { c0, c1, scale: x.scale * y.scale }
            }
            Instr::MulPlain(a, p) => {
                let mut out = a.clone();
                out.c0.mul_assign_prefix(ctx, &p.poly);
                out.c1.mul_assign_prefix(ctx, &p.poly);
                out.scale *= p.scale;
                out
            }
            Instr::MulScalar(a, x, scale) => {
                assert!(scale >= 1.0, "scalar scale must be >= 1");
                let k = (x * scale).round() as i128;
                let mut out = a.clone();
                out.c0.mul_scalar_assign(ctx, k);
                out.c1.mul_scalar_assign(ctx, k);
                out.scale *= scale;
                out
            }
            Instr::Rescale(c, divisor) => self.rescaled(c, divisor)?,
        })
    }

    /// Hoisted multi-rotation: the gadget decomposition of `c1` — the
    /// dominant cost of a rotation's key switch — is computed once and
    /// shared by the first hop of every requested step. Remaining hops of
    /// composite plans fall back to single [`Self::rotate_step`]s, which
    /// use the same decompose-first path, so a batch is bit-identical to
    /// its steps issued one at a time.
    fn try_rotate(
        &mut self,
        c: &RnsCiphertext,
        dir: RotDir,
        steps: &[usize],
    ) -> Result<Vec<RnsCiphertext>, HisaError> {
        let slots = self.slots();
        // Plan every step up front so a missing key fails the whole batch
        // before any work is done.
        let mut plans = Vec::with_capacity(steps.len());
        let mut any = false;
        for &x in steps {
            let step = dir.normalize(x, slots);
            if step == 0 {
                plans.push(None);
            } else {
                let plan = plan_rotation(step, &self.key_steps, slots).ok_or_else(|| {
                    HisaError::MissingRotationKey {
                        step,
                        available: self.key_steps.iter().copied().collect(),
                    }
                })?;
                any = true;
                plans.push(Some(plan));
            }
        }
        if !any {
            return Ok(plans.iter().map(|_| c.clone()).collect());
        }
        let digits = Self::decompose(&self.ctx, &c.c1);
        let mut out = Vec::with_capacity(steps.len());
        for plan in &plans {
            match plan {
                None => out.push(c.clone()),
                Some(hops) => {
                    let mut cur = self.rotate_hoisted(c, &digits, hops[0])?;
                    for &s in &hops[1..] {
                        cur = self.rotate_step(&cur, s)?;
                    }
                    out.push(cur);
                }
            }
        }
        Ok(out)
    }

    fn max_rescale(&mut self, c: &RnsCiphertext, ub: f64) -> f64 {
        if ub < 2.0 {
            return 1.0;
        }
        let mut prod = 1.0f64;
        let mut lvl = c.level();
        while lvl > 1 {
            let p = self.ctx.modulus(lvl - 1) as f64;
            if prod * p > ub {
                break;
            }
            prod *= p;
            lvl -= 1;
        }
        prod
    }

    fn scale_of(&self, c: &RnsCiphertext) -> f64 {
        c.scale
    }

    fn available_rotations(&self) -> Option<BTreeSet<usize>> {
        Some(self.key_steps.clone())
    }

    /// Forks a child scheme for one fan-out job: the key-switching keys are
    /// shared via [`Arc`] (a key either side builds serves both), and the
    /// child RNG is seeded from the parent's stream so the (parent, child₀,
    /// child₁, …) randomness split is a pure function of program order —
    /// independent of how many threads later run the children.
    fn fork(&mut self) -> Option<Self> {
        let child_seed = self.rng.next_u64();
        Some(RnsCkks {
            ctx: self.ctx.clone(),
            sk_coeffs: self.sk_coeffs.clone(),
            sk: self.sk.clone(),
            pk: self.pk.clone(),
            keys: Arc::clone(&self.keys),
            key_steps: self.key_steps.clone(),
            error_stddev: self.error_stddev,
            rng: StdRng::seed_from_u64(child_seed),
            crt_cache: HashMap::new(),
        })
    }

    fn join(&mut self, child: Self) {
        // Evaluation ops are deterministic and keep no counters here; the
        // child's RNG stream was split off at fork time, so dropping it
        // leaves the parent stream unchanged.
        let _ = child;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    const SCALE: f64 = (1u64 << 30) as f64;

    fn scheme() -> RnsCkks {
        seeded(EncryptionParams::rns_ckks(2048, 40, 3))
    }

    /// A chain of 30-bit (lane) primes plus the 60-bit special prime.
    fn lane_scheme() -> RnsCkks {
        seeded(EncryptionParams::rns_ckks(2048, 30, 4))
    }

    fn seeded(params: EncryptionParams) -> RnsCkks {
        let params = params.with_security(chet_hisa::SecurityLevel::Insecure);
        RnsCkks::new(&params, &RotationKeyPolicy::PowersOfTwo, 12345)
    }

    fn enc(h: &mut RnsCkks, vals: &[f64]) -> RnsCiphertext {
        let pt = h.try_encode(vals, SCALE).unwrap();
        h.encrypt(&pt)
    }

    fn dec(h: &mut RnsCkks, ct: &RnsCiphertext) -> Vec<f64> {
        let pt = h.decrypt(ct);
        h.decode(&pt)
    }

    fn assert_close(got: &[f64], want: &[f64], tol: f64) {
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            assert!((g - w).abs() < tol, "slot {i}: got {g}, want {w}");
        }
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let mut h = scheme();
        let vals = [1.5, -2.25, 3.0, 0.0, 100.0];
        let ct = enc(&mut h, &vals);
        assert_close(&dec(&mut h, &ct)[..5], &vals, 1e-3);
    }

    #[test]
    fn homomorphic_addition() {
        let mut h = scheme();
        let a = enc(&mut h, &[1.0, 2.0, 3.0]);
        let b = enc(&mut h, &[10.0, 20.0, 30.0]);
        let c = h.try_add(&a, &b).unwrap();
        assert_close(&dec(&mut h, &c)[..3], &[11.0, 22.0, 33.0], 1e-3);
    }

    #[test]
    fn homomorphic_multiplication_with_rescale() {
        let mut h = scheme();
        let a = enc(&mut h, &[1.5, -2.0, 4.0]);
        let b = enc(&mut h, &[2.0, 3.0, -1.5]);
        let c = h.try_mul(&a, &b).unwrap();
        assert_eq!(h.scale_of(&c), SCALE * SCALE);
        let d = h.max_rescale(&c, SCALE * SCALE);
        assert!(d > 1.0);
        let c = h.try_rescale(&c, d).unwrap();
        assert_close(&dec(&mut h, &c)[..3], &[3.0, -6.0, -6.0], 1e-2);
    }

    #[test]
    fn plaintext_multiplication() {
        let mut h = scheme();
        let a = enc(&mut h, &[1.0, 2.0, 3.0, 4.0]);
        let w = h.try_encode(&[0.5, -1.0, 2.0, 0.0], SCALE).unwrap();
        let c = h.try_mul_plain(&a, &w).unwrap();
        let d = h.max_rescale(&c, SCALE * SCALE);
        let c = h.try_rescale(&c, d).unwrap();
        assert_close(&dec(&mut h, &c)[..4], &[0.5, -2.0, 6.0, 0.0], 1e-2);
    }

    #[test]
    fn scalar_ops() {
        let mut h = scheme();
        let a = enc(&mut h, &[2.0, -4.0]);
        let b = h.try_mul_scalar(&a, 2.5, SCALE).unwrap();
        let d = h.max_rescale(&b, SCALE * SCALE);
        let b = h.try_rescale(&b, d).unwrap();
        let b = h.try_add_scalar(&b, 1.0).unwrap();
        assert_close(&dec(&mut h, &b)[..2], &[6.0, -9.0], 1e-2);
    }

    #[test]
    fn rotation_left_and_right() {
        let mut h = scheme();
        let vals: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let ct = enc(&mut h, &vals);
        let r1 = h.try_rot_left(&ct, 1).unwrap();
        let out = dec(&mut h, &r1);
        assert_close(&out[..4], &[1.0, 2.0, 3.0, 4.0], 1e-2);
        let r2 = h.try_rot_right(&ct, 2).unwrap();
        let out = dec(&mut h, &r2);
        assert_close(&out[2..6], &[0.0, 1.0, 2.0, 3.0], 1e-2);
    }

    #[test]
    fn composite_rotation() {
        let mut h = scheme();
        let vals: Vec<f64> = (0..32).map(|i| (i as f64) * 0.5).collect();
        let ct = enc(&mut h, &vals);
        let r = h.try_rot_left(&ct, 7).unwrap(); // 4 + 2 + 1 under power-of-two keys
        let out = dec(&mut h, &r);
        assert_close(&out[..4], &[3.5, 4.0, 4.5, 5.0], 1e-2);
    }

    #[test]
    fn depth_two_computation() {
        // ((a*b rescaled) * c rescaled) with 3 chain primes.
        let mut h = scheme();
        let a = enc(&mut h, &[2.0]);
        let b = enc(&mut h, &[3.0]);
        let c = enc(&mut h, &[4.0]);
        let ab = h.try_mul(&a, &b).unwrap();
        let d = h.max_rescale(&ab, SCALE * SCALE);
        let ab = h.try_rescale(&ab, d).unwrap();
        let cc = h.align_level(&c, ab.level());
        // Scales differ slightly (SCALE² / q vs SCALE); rescale made scale
        // SCALE²/q. Multiply anyway: mul does not require equal scales.
        let abc = h.try_mul(&ab, &cc).unwrap();
        // Decode at the large product scale directly; a final rescale would
        // shrink the scale to ~2^10 and surface the rounding noise.
        let out = dec(&mut h, &abc);
        assert!((out[0] - 24.0).abs() < 0.05, "got {}", out[0]);
    }

    #[test]
    fn add_plain_and_sub() {
        let mut h = scheme();
        let a = enc(&mut h, &[5.0, 7.0]);
        let p = h.try_encode(&[1.0, 2.0], SCALE).unwrap();
        let b = h.try_add_plain(&a, &p).unwrap();
        assert_close(&dec(&mut h, &b)[..2], &[6.0, 9.0], 1e-2);
        let c = h.try_sub_plain(&b, &p).unwrap();
        assert_close(&dec(&mut h, &c)[..2], &[5.0, 7.0], 1e-2);
        let d = h.try_sub(&b, &a).unwrap();
        assert_close(&dec(&mut h, &d)[..2], &[1.0, 2.0], 1e-2);
    }

    #[test]
    fn exact_rotation_keys_only() {
        let params = EncryptionParams::rns_ckks(2048, 40, 2)
            .with_security(chet_hisa::SecurityLevel::Insecure);
        let policy = RotationKeyPolicy::Exact([3usize, 5].into_iter().collect());
        let mut h = RnsCkks::new(&params, &policy, 7);
        let vals: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let pt = h.try_encode(&vals, SCALE).unwrap();
        let ct = h.encrypt(&pt);
        let r = h.try_rot_left(&ct, 5).unwrap();
        let ptd = h.decrypt(&r);
        let out = h.decode(&ptd);
        assert!((out[0] - 5.0).abs() < 1e-2);
        // Composite 8 = 3 + 5.
        let r = h.try_rot_left(&ct, 8).unwrap();
        let ptd = h.decrypt(&r);
        let out = h.decode(&ptd);
        assert!((out[0] - 8.0).abs() < 1e-2, "got {}", out[0]);
    }

    /// A full-basis (chain + special) NTT-form poly at `level` filled by
    /// `fill(q)` per residue.
    fn filled(ctx: &RnsContext, level: usize, mut fill: impl FnMut(u64) -> u64) -> RnsPoly {
        let mut p = RnsPoly::uninit(ctx, level, true, true);
        let comps = p.data.len();
        for (k, limb) in p.data.iter_mut().enumerate() {
            let q = ctx.modulus(if k == comps - 1 { ctx.special_index() } else { k });
            limb.iter_mut().for_each(|x| *x = fill(q));
        }
        p
    }

    /// The tiled lazy inner product equals a per-term `u128` reference at
    /// the largest chain the 128-bit security table admits (N = 32768) for
    /// 30-bit primes (past the `u64` lanes' 16-term budget) and 60-bit
    /// primes (past the `u128` every-8 budget), with every residue at
    /// `q − 1` and with random residues through a Galois permutation.
    #[test]
    fn tiled_inner_product_matches_per_term_reference_at_max_level() {
        let budget =
            chet_hisa::security::max_log_q(32768, chet_hisa::SecurityLevel::Bits128) as usize;
        let special_bits = EncryptionParams::DEFAULT_SPECIAL_PRIME_BITS as usize;
        let mut rng = StdRng::seed_from_u64(3);
        for bits in [30u32, 60] {
            let level = (budget - special_bits) / bits as usize;
            assert!(level > if bits == 30 { 16 } else { 8 });
            let params = EncryptionParams::rns_ckks(1024, bits, level)
                .with_security(chet_hisa::SecurityLevel::Insecure);
            let ctx = RnsContext::new(&params);
            let perm = ctx.auto_perm(5);
            for random in [false, true] {
                let mut fill = |q: u64| if random { rng.gen_range(0..q) } else { q - 1 };
                let digits = KsDigits {
                    level,
                    digits: (0..level).map(|_| filled(&ctx, level, &mut fill)).collect(),
                };
                let mut limbs = || {
                    let p = filled(&ctx, level, &mut fill);
                    let q = |k| ctx.modulus(if k == level { ctx.special_index() } else { k });
                    p.data.iter().enumerate().map(|(k, l)| KeyLimb::new(l, q(k))).collect()
                };
                let key = KsKey { rows: (0..level).map(|_| (limbs(), limbs())).collect() };
                let wide = |limbs: &[KeyLimb]| limbs.iter().map(residues).collect::<Limbs>();
                let rows: Vec<_> = key.rows.iter().map(|(b, a)| (wide(b), wide(a))).collect();
                for perm in [None, Some(perm.as_slice())] {
                    let (acc0, acc1) = RnsCkks::accumulate(&ctx, &digits, &key, perm);
                    for k in 0..=level {
                        let mod_idx = if k == level { ctx.special_index() } else { k };
                        let q = u128::from(ctx.modulus(mod_idx));
                        for idx in 0..ctx.degree() {
                            let src = perm.map_or(idx, |p| p[idx] as usize);
                            let (mut w0, mut w1) = (0u128, 0u128);
                            for (i, (r0, r1)) in rows.iter().enumerate() {
                                let d = u128::from(digits.digits[i].data[k][src]);
                                w0 = (w0 + d * u128::from(r0[k][idx])) % q;
                                w1 = (w1 + d * u128::from(r1[k][idx])) % q;
                            }
                            assert_eq!(u128::from(acc0.data[k][idx]), w0, "bits={bits} k={k}");
                            assert_eq!(u128::from(acc1.data[k][idx]), w1, "bits={bits} k={k}");
                        }
                    }
                }
            }
        }
    }

    /// Digit `i` at its own modulus is copied from the source's NTT-form
    /// limb; it must equal the base conversion plus forward NTT it replaces,
    /// as must every other digit limb.
    #[test]
    fn decomposition_diagonal_copy_matches_recomputed_digits() {
        let params = EncryptionParams::rns_ckks(1024, 30, 4)
            .with_security(chet_hisa::SecurityLevel::Insecure);
        let ctx = RnsContext::new(&params);
        let mut rng = StdRng::seed_from_u64(11);
        let src = RnsCkks::sample_uniform_ntt(&ctx, &mut rng, 4, false);
        let digits = RnsCkks::decompose(&ctx, &src);
        let mut t = src.clone();
        t.ntt_inverse(&ctx);
        for (i, digit) in digits.digits.iter().enumerate() {
            for (k, limb) in digit.data.iter().enumerate() {
                let mod_idx = if k == 4 { ctx.special_index() } else { k };
                let q = ctx.modulus(mod_idx);
                let mut want: Vec<u64> = t.data[i].iter().map(|&v| v % q).collect();
                ctx.ntt(mod_idx).forward(&mut want);
                assert_eq!(limb, &want, "digit {i}, limb {k}");
            }
        }
    }

    /// A key limb's residues, whatever width it stores them in.
    fn residues(limb: &KeyLimb) -> Vec<u64> {
        match limb {
            KeyLimb::Wide(v) => v.clone(),
            KeyLimb::Lane(v) => v.iter().map(|&x| u64::from(x)).collect(),
        }
    }

    /// FNV-1a over the little-endian `u64` bytes of every residue, so the
    /// width a key stores a limb in does not enter the digest.
    fn fnv(residues: impl IntoIterator<Item = u64>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in residues.into_iter().flat_map(u64::to_le_bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        h
    }

    /// Every residue of the relinearization key and of each Galois key
    /// (steps ascending), forced to the top level, row by row, `b` then `a`.
    fn top_level_key_digest(h: &RnsCkks) -> u64 {
        let r = h.ctx.max_level();
        let mut keys = vec![h.key_at(&h.keys.relin, r)];
        keys.extend(h.key_steps.iter().map(|s| h.key_at(&h.keys.galois[s], r)));
        let limbs = keys.iter().flat_map(|k| &k.rows).flat_map(|(b, a)| b.iter().chain(a));
        fnv(limbs.flat_map(residues))
    }

    /// The key material `new` derives from its seed, and where it leaves
    /// the RNG for later encryptions and forks, pinned bit for bit.
    #[test]
    fn top_level_keys_are_pinned() {
        let mut h = scheme();
        assert_eq!(top_level_key_digest(&h), 0xb228_bb28_424a_b87b);
        assert_eq!(h.rng.next_u64(), 0x87d9_a171_ec14_0491);
    }

    /// The same pin on a chain of lane primes, whose key limbs (all but
    /// the special one) are residues modulo `q < 2^30`.
    #[test]
    fn top_level_lane_keys_are_pinned() {
        let mut h = lane_scheme();
        assert_eq!(top_level_key_digest(&h), 0x7eab_1b47_f369_b24e);
        assert_eq!(h.rng.next_u64(), 0x30d4_1cbd_434f_60b0);
    }

    /// The shape `(rows, limbs per row polynomial)` of `step`'s key as
    /// built so far, if it is built.
    fn galois_key_shape(h: &RnsCkks, step: usize) -> Option<(usize, usize)> {
        let slot = h.keys.galois[&step].key.lock().expect("slot lock");
        slot.as_ref().map(|k| (k.level(), k.rows[0].0.len()))
    }

    /// A key is built at its first use's level and rebuilt when a later use
    /// sits higher; either way its outputs equal a fresh scheme's, which
    /// builds the key at the top level first.
    #[test]
    fn keys_grow_to_the_level_they_are_used_at() {
        for make in [scheme, lane_scheme] {
            keys_grow_with(make);
        }
    }

    fn keys_grow_with(make: fn() -> RnsCkks) {
        let (mut h, mut fresh) = (make(), make());
        let r = h.ctx.max_level();
        assert!(r > 2);
        let vals: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let top = enc(&mut h, &vals);
        assert_eq!(top.c0.data, enc(&mut fresh, &vals).c0.data, "same RNG stream");
        let low = h.align_level(&top, 2);
        assert_eq!(galois_key_shape(&h, 4), None, "no key before its first use");

        let low_rot = h.try_rot_left(&low, 4).unwrap();
        assert_eq!(galois_key_shape(&h, 4), Some((2, 3)));
        let top_rot = h.try_rot_left(&top, 4).unwrap();
        assert_eq!(galois_key_shape(&h, 4), Some((r, r + 1)));

        let fresh_top = fresh.try_rot_left(&top, 4).unwrap();
        let fresh_low = fresh.try_rot_left(&low, 4).unwrap();
        assert_eq!(galois_key_shape(&fresh, 4), Some((r, r + 1)));
        for (got, want) in [(&low_rot, &fresh_low), (&top_rot, &fresh_top)] {
            assert_eq!(got.c0.data, want.c0.data);
            assert_eq!(got.c1.data, want.c1.data);
        }
        assert_close(&dec(&mut h, &low_rot)[..4], &[4.0, 5.0, 6.0, 7.0], 1e-2);

        // A fork shares the built key rather than building its own.
        let child = h.fork().expect("RnsCkks forks");
        assert!(Arc::ptr_eq(&child.keys, &h.keys));
    }

    /// A built level-`l` key holds `2·l` row polynomials of `N`
    /// coefficients, each 4 bytes per lane limb and 8 per 60-bit limb: on
    /// a lane chain `2·l·N·(4·l + 8)` bytes, and on the compiler's layout
    /// (a 60-bit base prime, then lane primes) `2·l·N·(4·(l − 1) + 8·2)`.
    #[test]
    fn key_limbs_take_the_bytes_their_modulus_needs() {
        let mut mixed = EncryptionParams::rns_ckks(2048, 30, 4);
        if let chet_hisa::params::ModulusSpec::PrimeChain { primes, .. } = &mut mixed.modulus {
            primes[0] = chet_math::prime::ntt_primes(60, 2048, 2)[1];
        }
        for (h, wide_chain_limbs) in [(lane_scheme(), 0), (seeded(mixed), 1)] {
            let n = h.ctx.degree();
            for l in 1..=h.ctx.max_level() {
                let key = h.key_at(&h.keys.galois[&4], l);
                let bytes: usize = (key.rows.iter().flat_map(|(b, a)| b.iter().chain(a)))
                    .map(|limb| match limb {
                        KeyLimb::Wide(v) => 8 * v.len(),
                        KeyLimb::Lane(v) => 4 * v.len(),
                    })
                    .sum();
                let per_coeff = 4 * (l - wide_chain_limbs) + 8 * (1 + wide_chain_limbs);
                assert_eq!(bytes, 2 * l * n * per_coeff, "level {l}");
            }
        }
    }

    #[test]
    fn noise_stays_bounded_after_many_adds() {
        let mut h = scheme();
        let a = enc(&mut h, &[1.0]);
        let mut acc = a.clone();
        for _ in 0..63 {
            acc = h.try_add(&acc, &a).unwrap();
        }
        let out = dec(&mut h, &acc);
        assert!((out[0] - 64.0).abs() < 0.01, "got {}", out[0]);
    }
}
