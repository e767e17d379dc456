//! Cross-request batch coalescing acceptance tests.
//!
//! The contract under test, end to end through the service:
//!
//! * a coalesced batch returns, member for member, the **bit-identical**
//!   outputs a solo (unbatched) service produces for the same images;
//! * one member cancelling or blowing its deadline mid-window resolves
//!   that member as `Cancelled` without failing its cohort;
//! * idempotency digests are stable across the batched and solo paths,
//!   including after a journal restart (`start_with_compiler` on the same store);
//! * malformed (wrong-shape) requests are refused at admission with the
//!   structured, non-retryable [`ServeError::InvalidRequest`] — they
//!   never occupy the queue or charge the breaker.

use chet_ckks::sim::SimCkks;
use chet_compiler::Compiler;
use chet_hisa::params::SchemeKind;
use chet_runtime::cancel::{CancelReason, CancelToken};
use chet_runtime::fault::{FaultInjector, FaultPlan};
use chet_runtime::kernels::ScaleConfig;
use chet_serve::{
    response_digest, BreakerConfig, InferenceService, JournalConfig, RetryPolicy, ServeConfig,
    ServeError, Submission,
};
use chet_tensor::circuit::{Circuit, CircuitBuilder};
use chet_tensor::ops::Padding;
use chet_tensor::Tensor;
use std::fs;
use std::path::PathBuf;
use std::time::Duration;

fn small_cnn() -> Circuit {
    let mut b = CircuitBuilder::new();
    let x = b.input(vec![1, 6, 6]);
    let w = Tensor::from_fn(vec![2, 1, 3, 3], |i| (i[2] * 3 + i[3]) as f64 * 0.05 - 0.1);
    let c = b.conv2d(x, w, Some(vec![0.1, -0.1]), 1, Padding::Valid);
    let a = b.activation(c, 0.2, 0.9);
    let p = b.avg_pool2d(a, 2, 2);
    b.build(p)
}

fn scales() -> ScaleConfig {
    ScaleConfig::from_log2(25, 12, 12, 10)
}

fn compiler() -> Compiler {
    Compiler::new(SchemeKind::RnsCkks).with_output_precision(2f64.powi(20))
}

fn image(seed: u64) -> Tensor {
    Tensor::random(vec![1, 6, 6], 1.0, seed)
}

/// Deterministic simulator factory shared by every service in this file,
/// so outputs are comparable across service instances.
fn sim_factory(
) -> impl Fn(usize, &chet_compiler::CompiledCircuit) -> SimCkks + Send + Sync + 'static {
    |_, compiled| SimCkks::new(&compiled.params, &compiled.rotation_keys, 42).without_noise()
}

fn batching_config(max_batch: usize, linger: Duration) -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_capacity: 64,
        max_batch,
        max_linger: linger,
        ..ServeConfig::default()
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chet-batch-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn coalesced_batch_is_bit_identical_to_solo() {
    let images: Vec<Tensor> = (0..4).map(|i| image(100 + i)).collect();

    // Solo reference: batching disabled entirely.
    let solo = InferenceService::start_with_compiler(
        compiler(),
        small_cnn(),
        scales(),
        ServeConfig { workers: 1, ..ServeConfig::default() },
        sim_factory(),
    )
    .unwrap();
    let solo_outputs: Vec<Tensor> = images
        .iter()
        .map(|img| solo.submit(img.clone()).unwrap().wait().unwrap().output)
        .collect();
    solo.shutdown();

    // Batched service: the linger window lets all four coalesce.
    let svc = InferenceService::start_with_compiler(
        compiler(),
        small_cnn(),
        scales(),
        batching_config(4, Duration::from_millis(300)),
        sim_factory(),
    )
    .unwrap();
    let tickets: Vec<_> = images.iter().map(|img| svc.submit(img.clone()).unwrap()).collect();
    let responses: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
    for (resp, want) in responses.iter().zip(&solo_outputs) {
        assert!(!resp.degraded);
        assert_eq!(resp.output.shape(), want.shape());
        assert_eq!(resp.output.data(), want.data(), "batched output must be bit-identical");
    }
    let stats = svc.shutdown();
    assert!(stats.batches_formed >= 1, "no batch formed: {stats:?}");
    assert!(stats.batched_requests >= 2);
    assert_eq!(stats.completed_ok, 4);
    assert_eq!(stats.failed, 0);
}

/// Simulator factory whose backend drops rotation keys at `rate`; with
/// `transient` set, the faults clear after that many rotations.
fn faulty_factory(
    rate: f64,
    transient: Option<u64>,
) -> impl Fn(usize, &chet_compiler::CompiledCircuit) -> FaultInjector<SimCkks> + Send + Sync + 'static
{
    move |_, compiled| {
        let plan = FaultPlan::none(rate).with_dropped_rotation_keys();
        let plan = match transient {
            Some(n) => plan.transient(n),
            None => plan,
        };
        FaultInjector::new(
            SimCkks::new(&compiled.params, &compiled.rotation_keys, 42).without_noise(),
            plan,
            7,
        )
    }
}

/// Submits `images` to one 1-worker service and waits for every response.
fn serve_all<H, F>(
    config: ServeConfig,
    factory: F,
    images: &[Tensor],
) -> (Vec<Result<chet_serve::InferResponse, ServeError>>, chet_serve::ServiceStats)
where
    H: chet_hisa::Hisa + 'static,
    F: Fn(usize, &chet_compiler::CompiledCircuit) -> H + Send + Sync + 'static,
{
    let svc =
        InferenceService::start_with_compiler(compiler(), small_cnn(), scales(), config, factory)
            .unwrap();
    let tickets: Vec<_> = images.iter().map(|img| svc.submit(img.clone()).unwrap()).collect();
    let results = tickets.into_iter().map(|t| t.wait()).collect();
    (results, svc.shutdown())
}

#[test]
fn cohort_retries_as_a_unit_after_a_transient_fault() {
    let images: Vec<Tensor> = (0..4).map(|i| image(300 + i)).collect();
    let (solo, _) =
        serve_all(ServeConfig { workers: 1, ..ServeConfig::default() }, sim_factory(), &images);
    // The first rotation of the cohort's first attempt fails; the retry
    // runs the whole cohort again on the healed backend.
    let (results, stats) = serve_all(
        batching_config(4, Duration::from_millis(300)),
        faulty_factory(1.0, Some(1)),
        &images,
    );
    for (r, want) in results.iter().zip(&solo) {
        let resp = r.as_ref().expect("member must succeed on the retry");
        assert!(!resp.degraded);
        assert_eq!(resp.attempts, 2);
        let want = want.as_ref().expect("solo run succeeds");
        assert_eq!(resp.output.data(), want.output.data(), "retried cohort must match solo");
    }
    // One retry for the whole cohort, which stays one cohort throughout.
    assert_eq!(
        (stats.retries, stats.batches_formed, stats.batched_requests),
        (1, 1, 4),
        "{stats:?}"
    );
}

#[test]
fn exhausted_cohort_counts_each_request_once() {
    let images: Vec<Tensor> = (0..4).map(|i| image(400 + i)).collect();
    let config = ServeConfig {
        retry: RetryPolicy { max_attempts: 2, ..RetryPolicy::default() },
        // Two primary failures (two cohort attempts; an exhausted cohort's
        // members go straight to the degraded route) stay below the
        // threshold: the breaker never opens.
        breaker: BreakerConfig { failure_threshold: 100, ..BreakerConfig::default() },
        ..batching_config(4, Duration::from_millis(300))
    };
    let (results, stats) = serve_all(config, faulty_factory(1.0, None), &images);
    for r in &results {
        let resp = r.as_ref().expect("degraded fallback answers every member");
        assert!(resp.degraded);
        assert_eq!(resp.attempts, 2);
    }
    assert_eq!(stats.batches_formed, 1, "{stats:?}");
    assert_eq!(stats.retries_exhausted, 4, "one exhaustion per request: {stats:?}");
    // A cohort attempt counts as one attempt: one cohort retry, and no
    // member runs the primary route again alone.
    assert_eq!(stats.retries, 1, "{stats:?}");
}

#[test]
fn strict_exhausted_cohort_cancels_the_member_whose_deadline_passed() {
    let config = ServeConfig {
        // The backoff outlasts A's deadline, so the pause before the
        // second attempt is cut to A's remaining time and A's deadline
        // passes while its cohort still runs.
        retry: RetryPolicy {
            max_attempts: 2,
            base: Duration::from_secs(5),
            cap: Duration::from_secs(5),
            jitter: 0.0,
            seed: 1,
        },
        breaker: BreakerConfig { failure_threshold: 100, ..BreakerConfig::default() },
        degraded_fallback: false,
        // Target 2: the cohort forms as soon as both requests are queued.
        ..batching_config(2, Duration::from_millis(300))
    };
    let svc = InferenceService::start_with_compiler(
        compiler(),
        small_cnn(),
        scales(),
        config,
        faulty_factory(1.0, None),
    )
    .unwrap();
    let a = svc
        .submit_with(image(500), CancelToken::with_deadline(Duration::from_millis(500)))
        .unwrap();
    let b = svc.submit(image(501)).unwrap();
    let (ra, rb) = (a.wait(), b.wait());
    assert!(
        matches!(ra, Err(ServeError::Cancelled(CancelReason::DeadlineExceeded))),
        "the member whose deadline passed must cancel, got {ra:?}"
    );
    assert!(
        matches!(rb, Err(ServeError::Failed { attempts: 2, .. })),
        "the live member must fail with its cohort's attempts, got {rb:?}"
    );
    let stats = svc.shutdown();
    assert_eq!(stats.batches_formed, 1, "the two requests must have coalesced: {stats:?}");
    assert_eq!((stats.cancelled, stats.failed), (1, 1), "{stats:?}");
    assert_eq!(stats.retries, 1, "{stats:?}");
}

#[test]
fn member_deadline_expiring_in_window_cancels_member_not_cohort() {
    let svc = InferenceService::start_with_compiler(
        compiler(),
        small_cnn(),
        scales(),
        // Target 4 with only 2 submissions: the worker lingers the full
        // window, and A's deadline expires inside it.
        batching_config(4, Duration::from_millis(400)),
        sim_factory(),
    )
    .unwrap();
    let a = svc
        .submit_with(image(1), CancelToken::with_deadline(Duration::from_millis(50)))
        .unwrap();
    let b = svc.submit(image(2)).unwrap();
    let ra = a.wait();
    let rb = b.wait();
    assert!(
        matches!(ra, Err(ServeError::Cancelled(CancelReason::DeadlineExceeded))),
        "expired member must cancel, got {ra:?}"
    );
    let rb = rb.expect("cohort member must complete despite the expired member");
    assert!(!rb.degraded);
    let stats = svc.shutdown();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.completed_ok, 1);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.batches_formed, 1, "the two requests must have coalesced");
}

#[test]
fn explicit_cancel_of_one_member_leaves_cohort_intact() {
    let svc = InferenceService::start_with_compiler(
        compiler(),
        small_cnn(),
        scales(),
        batching_config(4, Duration::from_millis(400)),
        sim_factory(),
    )
    .unwrap();
    let a = svc.submit(image(3)).unwrap();
    let b = svc.submit(image(4)).unwrap();
    a.cancel();
    assert!(
        matches!(a.wait(), Err(ServeError::Cancelled(CancelReason::Cancelled))),
        "cancelled member must resolve Cancelled"
    );
    let rb = b.wait().expect("cohort member must complete despite the cancelled member");
    assert!(!rb.degraded);
    let stats = svc.shutdown();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.completed_ok, 1);
}

#[test]
fn duplicate_key_after_batched_run_replays_identical_digest() {
    let dir = tmp_dir("dedup");
    let circuit = small_cnn();
    let config = ServeConfig {
        store_dir: Some(dir.clone()),
        journal: JournalConfig { enabled: true, ..JournalConfig::default() },
        ..batching_config(2, Duration::from_millis(300))
    };

    // Solo reference digest for the same image (journaling off, batching
    // off): the digest a client would have seen before batching existed.
    let solo = InferenceService::start_with_compiler(
        compiler(),
        circuit.clone(),
        scales(),
        ServeConfig { workers: 1, ..ServeConfig::default() },
        sim_factory(),
    )
    .unwrap();
    let solo_resp = solo.submit(image(7)).unwrap().wait().unwrap();
    let solo_digest = response_digest(&solo_resp.output, solo_resp.degraded);
    solo.shutdown();

    let svc = InferenceService::start_with_compiler(
        compiler(),
        circuit.clone(),
        scales(),
        config.clone(),
        sim_factory(),
    )
    .unwrap();
    let t1 = match svc.submit_keyed(image(7), "k1").unwrap() {
        Submission::Accepted(t) => t,
        Submission::Duplicate(_) => panic!("fresh key must not dedup"),
    };
    let t2 = match svc.submit_keyed(image(8), "k2").unwrap() {
        Submission::Accepted(t) => t,
        Submission::Duplicate(_) => panic!("fresh key must not dedup"),
    };
    let r1 = t1.wait().unwrap();
    let r2 = t2.wait().unwrap();
    let d1 = response_digest(&r1.output, r1.degraded);
    assert_eq!(
        d1, solo_digest,
        "a batched run must produce the digest the solo path produces"
    );
    let stats = svc.stats();
    assert!(stats.batches_formed >= 1, "requests must have coalesced: {stats:?}");

    // Duplicate of a key whose original ran inside a batch: byte-identical.
    match svc.submit_keyed(image(7), "k1").unwrap() {
        Submission::Duplicate(resp) => {
            assert_eq!(resp.digest, d1);
            assert_eq!(resp.output.data(), r1.output.data());
        }
        Submission::Accepted(_) => panic!("completed key must dedup"),
    }
    let d2 = response_digest(&r2.output, r2.degraded);
    svc.shutdown();

    // Journal replay path: a restarted process must serve the same bytes.
    let svc = InferenceService::start_with_compiler(
        compiler(),
        circuit,
        scales(),
        config,
        sim_factory(),
    )
    .unwrap();
    let cached = svc.lookup("k1").expect("restart must recover the completed response");
    assert_eq!(cached.digest, d1);
    assert_eq!(cached.output.data(), r1.output.data());
    match svc.submit_keyed(image(8), "k2").unwrap() {
        Submission::Duplicate(resp) => assert_eq!(resp.digest, d2),
        Submission::Accepted(_) => panic!("journaled key must dedup after restart"),
    }
    svc.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn invalid_shape_is_refused_at_admission_non_retryable() {
    let svc = InferenceService::start_with_compiler(
        compiler(),
        small_cnn(),
        scales(),
        batching_config(4, Duration::from_millis(5)),
        sim_factory(),
    )
    .unwrap();
    let bad = Tensor::random(vec![1, 4, 4], 1.0, 9);
    match svc.submit(bad) {
        Err(ServeError::InvalidRequest { detail }) => {
            assert!(detail.contains("does not match"), "{detail}");
        }
        other => panic!("wrong-shape submit must be InvalidRequest, got {other:?}"),
    }
    let stats = svc.shutdown();
    // Refused before admission: nothing queued, executed or retried.
    assert_eq!(stats.submitted, 0);
    assert_eq!(stats.retries, 0);
    assert_eq!(stats.failed, 0);
}

/// Seeded soak: a mix of batchable requests (some keyed, some cancelled)
/// and wrong-shape requests. Every admitted request must resolve with a
/// typed outcome, identical images must produce identical bytes whether
/// they rode a batch or not, and invalid requests must be shed at
/// admission without disturbing any of it.
#[test]
fn soak_mixed_batchable_and_invalid_requests() {
    let svc = InferenceService::start_with_compiler(
        compiler(),
        small_cnn(),
        scales(),
        ServeConfig {
            workers: 2,
            queue_capacity: 128,
            max_batch: 4,
            max_linger: Duration::from_millis(10),
            ..ServeConfig::default()
        },
        sim_factory(),
    )
    .unwrap();

    let mut state = 0x5EED_CAFE_u64;
    let mut rng = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut tickets: Vec<(u64, chet_serve::Ticket)> = Vec::new();
    let mut invalid = 0u64;
    for i in 0..48u64 {
        let seed = i % 6;
        match rng() % 8 {
            // Wrong-shape request: refused at admission, never queued.
            0 => {
                let bad = Tensor::random(vec![2, 3, 3], 1.0, i);
                assert!(
                    matches!(svc.submit(bad), Err(ServeError::InvalidRequest { .. })),
                    "mismatched shape must be refused"
                );
                invalid += 1;
            }
            // Cancelled shortly after submission; may still complete if
            // the cancel races the worker — both outcomes are legal.
            1 => {
                let t = svc.submit(image(seed)).unwrap();
                t.cancel();
                tickets.push((seed, t));
            }
            // Plain batchable request; only 6 distinct images, so
            // repeats let us check byte-stability across batches.
            _ => tickets.push((seed, svc.submit(image(seed)).unwrap())),
        }
    }

    let mut outputs: std::collections::HashMap<u64, Vec<f64>> = std::collections::HashMap::new();
    let mut ok = 0u64;
    let mut cancelled = 0u64;
    for (seed, t) in tickets {
        match t.wait() {
            Ok(resp) => {
                assert!(!resp.degraded);
                // Identical inputs → identical bytes, batched or not.
                let entry = outputs.entry(seed).or_insert_with(|| resp.output.data().to_vec());
                assert_eq!(entry, resp.output.data(), "same image produced different bytes");
                ok += 1;
            }
            Err(ServeError::Cancelled(_)) => cancelled += 1,
            Err(e) => panic!("soak request must not fail: {e}"),
        }
    }
    let stats = svc.shutdown();
    assert_eq!(stats.submitted, ok + cancelled);
    assert_eq!(stats.completed_ok, ok);
    assert_eq!(stats.cancelled, cancelled);
    assert_eq!(stats.failed, 0);
    assert!(invalid > 0, "seed must produce some invalid requests");
    assert!(ok > 0);
}
