//! Per-ciphertext kernel fan-out over the [`chet_math::par`] thread pool.
//!
//! The vectorized kernels are embarrassingly parallel across ciphertexts:
//! conv output channels, matmul output neurons, pooling/activation/concat
//! per-ciphertext bodies are independent given a read-only view of the
//! inputs. What makes fan-out non-trivial is that every kernel threads a
//! `&mut H` backend through its ops — the backend carries RNG state, op
//! counters and (for the executor's run wrapper) degradation tallies.
//!
//! [`try_fan_out`] solves this with the [`Hisa::fork`]/[`Hisa::join`]
//! protocol:
//!
//! 1. **Fork one child backend per job, in job order.** The fork order — and
//!    therefore any RNG seed split — is a pure function of program order,
//!    never of scheduling. Crucially, forking happens *even at one thread*:
//!    the structure is always the forked one, only the scheduling differs,
//!    which is what makes results bit-identical across thread counts.
//! 2. **Run each job on its own child.** Jobs write disjoint result slots
//!    indexed by job id; no reduction order depends on thread timing.
//! 3. **Join children back in job order.** Op counters and degradation
//!    tallies fold into the parent deterministically. A job returns its
//!    first error with `?`; the fan-out returns the first error *by job
//!    index*, whichever job finished first.
//!
//! Backends that cannot fork (`fork() → None`) run the jobs sequentially on
//! the parent — the same code path, minus the children — and stop at the
//! first failing job.
//!
//! # Cancellation
//!
//! Before each job body runs, the job's backend is polled via
//! [`Hisa::cancel_requested`]. The executor's run wrapper wires this to the
//! request's [`crate::cancel::CancelToken`] (children share the parent's
//! token), so a deadline firing mid-fan-out stops every thread at its next
//! job boundary instead of burning the remaining ciphertext work. A
//! cancelled fan-out returns [`KernelError::Cancelled`], which the executor
//! reports as [`crate::exec::ExecError::Cancelled`] with the token's reason.

use crate::kernels::KernelError;
use chet_hisa::Hisa;

// Re-export the pool's configuration surface so downstream crates (the
// serving layer, benches) can tune thread counts without depending on
// `chet-math` directly.
pub use chet_math::par::{set_threads, threads, MAX_THREADS};
use chet_math::par;

/// Runs `count` independent jobs against forked backends and returns the
/// results in job order. See the module docs for the determinism contract.
///
/// Errors: the first job error *by job index* (not completion order), or
/// [`KernelError::Cancelled`] when the backend's cancel hint trips.
pub fn try_fan_out<H, T, F>(h: &mut H, count: usize, f: F) -> Result<Vec<T>, KernelError>
where
    H: Hisa,
    T: Send,
    F: Fn(&mut H, usize) -> Result<T, KernelError> + Sync,
{
    if count == 0 {
        return Ok(Vec::new());
    }
    if h.cancel_requested() {
        return Err(KernelError::Cancelled);
    }
    // Fork one child per job, in job order. A backend either always forks
    // or never does, so a mid-sequence `None` (drain below) cannot happen
    // in practice; handling it keeps the contract total.
    let mut children: Vec<H> = Vec::with_capacity(count);
    for _ in 0..count {
        match h.fork() {
            Some(c) => children.push(c),
            None => {
                for c in children.drain(..) {
                    h.join(c);
                }
                return (0..count)
                    .map(|i| {
                        if h.cancel_requested() {
                            return Err(KernelError::Cancelled);
                        }
                        f(h, i)
                    })
                    .collect();
            }
        }
    }
    let mut slots: Vec<Option<Result<T, KernelError>>> = (0..count).map(|_| None).collect();
    par::par_zip_mut(&mut children, &mut slots, |i, child, slot| {
        *slot = Some(if child.cancel_requested() {
            Err(KernelError::Cancelled)
        } else {
            f(child, i)
        });
    });
    // Join every child in job order, even on error: counters must fold and
    // the parent's RNG split stays consistent for the next fan-out.
    for c in children {
        h.join(c);
    }
    slots.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tally::RunTally;
    use chet_ckks::sim::SimCkks;
    use chet_hisa::{EncryptionParams, HisaError, RotationKeyPolicy};

    const S: f64 = (1u64 << 30) as f64;

    fn sim(seed: u64) -> SimCkks {
        let params = EncryptionParams::rns_ckks(4096, 40, 3);
        SimCkks::new(&params, &RotationKeyPolicy::PowersOfTwo, seed)
    }

    #[test]
    fn fan_out_matches_forked_sequential_structure() {
        // With noise enabled, results depend on the RNG split. The split is
        // per-fork in job order, so two identically-seeded backends must
        // produce bit-identical results regardless of thread count.
        let run = |threads: usize| -> Vec<Vec<f64>> {
            let _guard = chet_math::par::test_support::config_lock();
            chet_math::par::set_threads(threads);
            let mut h = sim(7);
            let pt = h.try_encode(&[1.0, 2.0, 3.0], S).unwrap();
            let ct = h.encrypt(&pt);
            let outs = try_fan_out(&mut h, 6, |h, i| {
                let r = h.try_rot_left(&ct, i % 3)?;
                Ok(h.try_add(&r, &ct)?)
            })
            .expect("no job fails");
            outs.iter()
                .map(|c| {
                    let p = h.decrypt(c);
                    h.decode(&p)
                })
                .collect()
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one, four);
    }

    #[test]
    fn first_failing_job_by_index_wins() {
        // Jobs 2 and 4 fail with distinguishable slot overflows; job 2's
        // error returns at every thread count, however the jobs finish.
        for threads in [1, 4] {
            let _guard = chet_math::par::test_support::config_lock();
            chet_math::par::set_threads(threads);
            let mut h = sim(3);
            let pt = h.try_encode(&[1.0; 8], S).unwrap();
            let ct = h.encrypt(&pt);
            let slots = h.slots();
            let e = try_fan_out(&mut h, 5, |h, i| {
                if i == 2 || i == 4 {
                    h.try_encode(&vec![0.0; slots + i], S)?;
                }
                Ok(h.try_add(&ct, &ct)?)
            })
            .expect_err("jobs 2 and 4 fail");
            assert_eq!(e, KernelError::Hisa(HisaError::SlotOverflow { len: slots + 2, slots }));
        }
    }

    #[test]
    fn cancelled_token_stops_fan_out() {
        let mut h = sim(3);
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        let pt = h.try_encode(&[1.0; 4], S).unwrap();
        let ct = h.encrypt(&pt);
        let mut p = RunTally::new(&mut h, Some(token));
        let result = try_fan_out(&mut p, 4, |p, _| Ok(p.try_add(&ct, &ct)?));
        let e = result.expect_err("tripped token must cancel the fan-out");
        assert_eq!(e, KernelError::Cancelled);
    }
}
