//! Deterministic retry policy: exponential backoff with seeded jitter.
//!
//! Retrying an FHE inference is expensive — one attempt can cost seconds —
//! so the policy is deliberately small: a handful of attempts with
//! exponentially growing pauses. The jitter is *seeded*, not sampled from
//! a global RNG, and the stream is keyed **per request id**: each request
//! gets its own splitmix64 substream (`splitmix64(seed ^
//! splitmix64(request_id))`) that the attempt index walks. Nothing about
//! which worker runs the request, or how many workers exist, enters the
//! draw — so a chaos soak replays bit-identical backoff schedules across
//! `CHET_THREADS` settings. That determinism is what lets the soak tests
//! assert breaker transitions instead of sleeping and hoping.

use chet_runtime::fault::{splitmix64, unit};
use std::time::Duration;

/// How a worker retries a failed primary attempt.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total primary attempts per request (1 = no retries).
    pub max_attempts: usize,
    /// Backoff before the first retry; doubles each further retry.
    pub base: Duration,
    /// Upper bound on any single backoff pause.
    pub cap: Duration,
    /// Jitter amplitude in `[0, 1]`: each pause is scaled by a factor
    /// drawn deterministically from `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Seed for the jitter schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(50),
            jitter: 0.25,
            seed: 0x00C0_FFEE,
        }
    }
}

impl RetryPolicy {
    /// Pause before retry number `attempt` (1-based: the pause after the
    /// first failure is `backoff(request_id, 1)`). Pure function of the
    /// policy, the request id and the attempt index — deliberately *not*
    /// of the worker identity, so the schedule is identical no matter
    /// which thread of how many picks the request up.
    pub fn backoff(&self, request_id: u64, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32.checked_shl(attempt.saturating_sub(1)).unwrap_or(u32::MAX))
            .min(self.cap);
        // Per-request substream: hash the request id into its own stream
        // origin first, then walk it by attempt. XOR-folding the raw id
        // (the old scheme) let structured ids (sequential counters) land
        // adjacent requests on correlated draws.
        let stream = splitmix64(self.seed ^ splitmix64(request_id));
        let draw = unit(stream.wrapping_add(u64::from(attempt)));
        let factor = 1.0 + self.jitter.clamp(0.0, 1.0) * (2.0 * draw - 1.0);
        exp.mul_f64(factor.max(0.0))
    }

    /// Whether attempt number `attempt` (1-based) may still run.
    pub fn allows(&self, attempt: usize) -> bool {
        attempt <= self.max_attempts.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_grows() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(7, 1), p.backoff(7, 1));
        // Different requests get different jitter, same envelope.
        assert_ne!(p.backoff(7, 1), p.backoff(8, 1));
        // The exponential envelope dominates the jitter band.
        assert!(p.backoff(7, 3) > p.backoff(7, 1));
    }

    #[test]
    fn backoff_respects_the_cap() {
        let p = RetryPolicy { jitter: 0.0, ..RetryPolicy::default() };
        assert!(p.backoff(1, 30) <= p.cap);
    }

    #[test]
    fn jitter_stays_in_band() {
        let p = RetryPolicy { jitter: 0.5, ..RetryPolicy::default() };
        for req in 0..100u64 {
            let d = p.backoff(req, 1);
            assert!(d >= p.base.mul_f64(0.5) && d <= p.base.mul_f64(1.5), "{d:?}");
        }
    }

    #[test]
    fn attempt_budget_counts_the_first_try() {
        let p = RetryPolicy { max_attempts: 2, ..RetryPolicy::default() };
        assert!(p.allows(1));
        assert!(p.allows(2));
        assert!(!p.allows(3));
    }
}
