//! RNS hot-path guarantees: the perf overhaul (lazy-reduction NTT, limb
//! buffer pool, NTT-domain rotations with hoisted key switching, in-place
//! evaluator paths) must never trade correctness for speed.
//!
//! Four properties are pinned here:
//! * **Zero steady-state allocations** — after one warm-up inference the
//!   limb pool serves every acquire from its free-list (miss counter
//!   stays at zero across a full encrypted LeNet-5-small run).
//! * **The ciphertext stream is pinned** — every ciphertext a full
//!   encrypted LeNet-5-small run produces hashes to a committed digest at
//!   one and two kernel threads, so a kernel change that moves one
//!   residue bit fails here.
//! * **Hoisting is exact** — a batched `rot_left_many` (one shared
//!   key-switch decomposition) decrypts bit-identically to the same
//!   rotations issued one at a time.
//! * **The batched kernels compute the same circuit** — the IR extracted
//!   from the rotation-batching kernels replays bit-identically on the
//!   real RNS backend, and independently extracted graphs are proven
//!   input/output-equivalent by `check_ir_equiv`'s seeded replay.

use chet::compiler::equiv::{check_ir_equiv, DEFAULT_SEEDS};
use chet::compiler::ir::{extract_ir, try_replay_ir, ExtractMode, IrOp};
use chet::compiler::{CompiledCircuit, Compiler};
use chet::hisa::params::SchemeKind;
use chet::hisa::{
    EncryptionParams, Hisa, HisaError, Instr, RotDir, RotationKeyPolicy, SecurityLevel,
};
use chet::math::par::test_support::config_lock;
use chet::runtime::exec::{try_encrypt_input, try_run_encrypted_with, ExecControl};
use chet::runtime::kernels::ScaleConfig;
use chet::runtime::par::set_threads;
use chet_ckks::rns::wire::encode_ciphertext;
use chet_ckks::rns::{pool, RnsCiphertext, RnsCkks, RnsPlaintext};
use std::collections::{BTreeMap, BTreeSet};

fn compile_small() -> (chet::networks::Network, CompiledCircuit) {
    let net = chet::networks::try_reduced("LeNet-5-small").expect("known network");
    let compiled = Compiler::new(SchemeKind::RnsCkks)
        .with_output_precision(2f64.powi(25))
        .compile(&net.circuit, &ScaleConfig::from_log2(25, 12, 12, 10))
        .expect("LeNet-5-small compiles");
    (net, compiled)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_fold(digest: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(digest, |d, &b| (d ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Forwards the HISA core to `RnsCkks` and folds the wire bytes of every
/// ciphertext it returns into an FNV-1a digest. Forked children digest
/// their own streams, folded into the parent's in join (job) order, so the
/// digest is independent of the kernel thread count.
struct Digesting {
    inner: RnsCkks,
    digest: u64,
}

impl Digesting {
    fn new(inner: RnsCkks) -> Self {
        Digesting { inner, digest: FNV_OFFSET }
    }

    fn fold(&mut self, ct: &RnsCiphertext) {
        self.digest = fnv_fold(self.digest, &encode_ciphertext(ct));
    }
}

impl Hisa for Digesting {
    type Ct = RnsCiphertext;
    type Pt = RnsPlaintext;

    fn slots(&self) -> usize {
        self.inner.slots()
    }

    fn try_encode(&mut self, values: &[f64], scale: f64) -> Result<RnsPlaintext, HisaError> {
        self.inner.try_encode(values, scale)
    }

    fn decode(&mut self, p: &RnsPlaintext) -> Vec<f64> {
        self.inner.decode(p)
    }

    fn encrypt(&mut self, p: &RnsPlaintext) -> RnsCiphertext {
        let ct = self.inner.encrypt(p);
        self.fold(&ct);
        ct
    }

    fn decrypt(&mut self, c: &RnsCiphertext) -> RnsPlaintext {
        self.inner.decrypt(c)
    }

    fn try_exec(
        &mut self,
        instr: Instr<'_, RnsCiphertext, RnsPlaintext>,
    ) -> Result<RnsCiphertext, HisaError> {
        let ct = self.inner.try_exec(instr)?;
        self.fold(&ct);
        Ok(ct)
    }

    fn try_rotate(
        &mut self,
        c: &RnsCiphertext,
        dir: RotDir,
        steps: &[usize],
    ) -> Result<Vec<RnsCiphertext>, HisaError> {
        let cts = self.inner.try_rotate(c, dir, steps)?;
        cts.iter().for_each(|ct| self.fold(ct));
        Ok(cts)
    }

    fn max_rescale(&mut self, c: &RnsCiphertext, ub: f64) -> f64 {
        self.inner.max_rescale(c, ub)
    }

    fn scale_of(&self, c: &RnsCiphertext) -> f64 {
        self.inner.scale_of(c)
    }

    fn available_rotations(&self) -> Option<BTreeSet<usize>> {
        self.inner.available_rotations()
    }

    fn fork(&mut self) -> Option<Self> {
        self.inner.fork().map(Digesting::new)
    }

    fn join(&mut self, child: Self) {
        self.digest = fnv_fold(self.digest, &child.digest.to_le_bytes());
        self.inner.join(child.inner);
    }
}

/// FNV-1a digest of every ciphertext one encrypted reduced LeNet-5-small
/// run returns (sample image 11, keys seeded 7), recorded before the
/// 32-bit-lane NTT and the tiled key-switch inner product landed: those
/// kernels must not move one residue bit.
const LENET_CIPHERTEXT_DIGEST: u64 = 0xd941_8dc7_4a4b_df2b;

/// After a warm-up inference the pool's free-lists cover the whole working
/// set: a second full encrypted inference performs zero limb allocations.
/// The same runs pin the ciphertext stream: evaluation draws no randomness,
/// so one encrypted input evaluated at one and at two kernel threads must
/// digest to the committed constant both times.
#[test]
fn limb_pool_has_zero_misses_after_warmup() {
    let _guard = config_lock();
    set_threads(1);
    let (net, compiled) = compile_small();
    let image = net.sample_image(11);
    let mut h = Digesting::new(RnsCkks::new(&compiled.params, &compiled.rotation_keys, 7));
    let input =
        try_encrypt_input(&mut h, &net.circuit, &compiled.plan, &image).expect("input encrypts");
    let encrypted = h.digest;

    let run = |h: &mut Digesting, threads: usize| {
        set_threads(threads);
        h.digest = encrypted;
        // Exercise input encryption in the measured window too; its
        // ciphertexts are dropped and left out of the digest.
        try_encrypt_input(&mut h.inner, &net.circuit, &compiled.plan, &image)
            .expect("input encrypts");
        let mut ctrl = ExecControl::none();
        try_run_encrypted_with(h, &net.circuit, &compiled.plan, input.clone(), &mut ctrl)
            .expect("encrypted run succeeds");
        h.digest
    };

    let warm = run(&mut h, 1); // warm-up: populates the free-lists
    pool::reset_stats();
    let steady = run(&mut h, 1);
    let (hits, misses) = pool::stats();
    let two_threads = run(&mut h, 2);
    set_threads(1);
    assert!(hits > 0, "steady-state inference should acquire from the pool");
    assert_eq!(
        misses, 0,
        "steady-state inference allocated {misses} limb buffers (hits: {hits})"
    );
    assert_eq!(warm, steady, "two identical runs digested differently");
    assert_eq!(
        steady, LENET_CIPHERTEXT_DIGEST,
        "ciphertext stream at 1 thread: {steady:#018x}"
    );
    assert_eq!(
        two_threads, LENET_CIPHERTEXT_DIGEST,
        "ciphertext stream at 2 threads: {two_threads:#018x}"
    );
}

/// One hoisted batch — a single key-switch decomposition shared across all
/// steps — decrypts bit-identically to the same rotations issued singly.
#[test]
fn hoisted_batch_matches_single_rotations_bitwise() {
    let _guard = config_lock();
    set_threads(1);
    let n = 4096;
    let params = EncryptionParams::rns_ckks(n, 40, 3).with_security(SecurityLevel::Insecure);
    let policy = RotationKeyPolicy::Exact([1usize, 2, 3, 5, 8].into_iter().collect());
    let mut h = RnsCkks::new(&params, &policy, 7);
    let vals: Vec<f64> = (0..n / 2).map(|i| (i as f64).sin()).collect();
    let pt = h.try_encode(&vals, 2f64.powi(40)).unwrap();
    let ct = h.encrypt(&pt);

    // Mix of keyed steps, composed (multi-hop) steps, repeats, and zero.
    let steps = [1usize, 2, 3, 5, 8, 4, 13, 1, 0];
    let batched = h.try_rot_left_many(&ct, &steps).unwrap();
    assert_eq!(batched.len(), steps.len());
    for (i, &step) in steps.iter().enumerate() {
        let single = h.try_rot_left(&ct, step).unwrap();
        let pt_single = h.decrypt(&single);
        let pt_batched = h.decrypt(&batched[i]);
        let single_bits: Vec<u64> =
            h.decode(&pt_single).iter().map(|v| v.to_bits()).collect();
        let batched_bits: Vec<u64> =
            h.decode(&pt_batched).iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            batched_bits, single_bits,
            "rot_left_many diverged from rot_left at step {step}"
        );
    }
}

/// The rotation-batching kernels compute the circuit the IR says they do:
/// direct executor inference on the real RNS backend (hoisted batched
/// rotations) is bit-identical to replaying the extracted instruction
/// stream (single rotations) on a fresh backend with the same seed.
#[test]
fn executor_hoisted_run_matches_ir_replay_on_rns_backend() {
    let _guard = config_lock();
    set_threads(1);
    let (net, compiled) = compile_small();
    let ir = extract_ir(&net.circuit, &compiled, ExtractMode::Full).expect("IR extracts");

    // The reduced net genuinely exercises hoisting: several rotations of
    // one source ciphertext, which the kernels batch through
    // `rot_left_many`.
    let mut per_source: BTreeMap<usize, usize> = BTreeMap::new();
    for node in &ir.nodes {
        if let IrOp::RotLeft { a, .. } = node.op {
            *per_source.entry(a).or_default() += 1;
        }
    }
    assert!(
        per_source.values().any(|&c| c >= 2),
        "expected at least one multiply-rotated source ciphertext"
    );

    let image = net.sample_image(11);
    let mut direct_h = RnsCkks::new(&compiled.params, &compiled.rotation_keys, 7);
    let direct = chet::runtime::exec::try_infer(&mut direct_h, &net.circuit, &compiled.plan, &image)
        .expect("direct inference succeeds");
    let mut replay_h = RnsCkks::new(&compiled.params, &compiled.rotation_keys, 7);
    let replayed = try_replay_ir(&mut replay_h, &ir, &image).expect("replay succeeds");
    assert_eq!(direct.shape(), replayed.shape());
    let direct_bits: Vec<u64> = direct.data().iter().map(|v| v.to_bits()).collect();
    let replay_bits: Vec<u64> = replayed.data().iter().map(|v| v.to_bits()).collect();
    assert_eq!(direct_bits, replay_bits, "hoisted executor run diverged from IR replay");
}

/// Two independently traced graphs — one extracted under sequential
/// execution, one under 4-thread fan-out — are proven input/output
/// equivalent by `check_ir_equiv`'s seeded replay.
#[test]
fn check_ir_equiv_accepts_independently_extracted_graphs() {
    let _guard = config_lock();
    let (net, compiled) = compile_small();
    set_threads(1);
    let seq = extract_ir(&net.circuit, &compiled, ExtractMode::Full).expect("sequential trace");
    set_threads(4);
    let par = extract_ir(&net.circuit, &compiled, ExtractMode::Full).expect("parallel trace");
    set_threads(1);
    let report = check_ir_equiv(&seq, &par, &compiled, &DEFAULT_SEEDS)
        .expect("equivalence check runs");
    assert!(report.equivalent(), "{report}");
    assert_eq!(report.checks.len(), DEFAULT_SEEDS.len());
}
