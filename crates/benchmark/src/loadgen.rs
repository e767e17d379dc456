//! Load generation against a running `InferenceService`: closed-loop
//! clients (each sends its next request when the previous reply arrives)
//! and one open-loop generator (requests are due on a fixed schedule no
//! matter how the service keeps up).

use crate::spans::SpanLog;
use chet_networks::Network;
use chet_serve::{InferenceService, ServeError, Submission};
use chet_tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What came back for one request.
#[derive(Debug, Clone)]
pub enum Reply {
    /// The service ran the request.
    Fresh {
        output: Tensor,
        degraded: bool,
        reported: Duration,
    },
    /// The journal answered a repeated idempotency key.
    Duplicate { output: Tensor, digest: u64 },
    /// Error or refusal.
    Failed(String),
}

/// One request as the load generator saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Benchmark request index: the input is `sample_image(seed + index)`.
    pub index: u64,
    /// Index of the earlier request whose key this one repeats.
    pub repeats: Option<u64>,
    /// When the request should have been sent: the schedule slot (open
    /// loop) or the arrival of the client's previous reply (closed loop).
    pub due: Instant,
    /// When `submit` was called and when it returned.
    pub submit: Instant,
    pub accepted: Instant,
    /// When the reply was in the generator's hands.
    pub done: Instant,
    pub reply: Reply,
    /// What recording this request's spans cost, in ms (0 untraced).
    pub trace_ms: f64,
}

impl Sample {
    /// Latency as the user sees it: from the due time, so a generator or
    /// admission stall counts against the requests it delayed.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent the request.
    pub fn lag_ms(&self) -> f64 {
        (self.submit - self.due).as_secs_f64() * 1e3
    }

    /// Records the request's spans and what recording them cost. In a
    /// closed loop the cost delays the client's next request, so it shows
    /// in that request's latency too.
    fn record_spans(mut self, log: &SpanLog) -> Sample {
        if log.enabled() {
            let start = Instant::now();
            let id = Some(self.index);
            let root = log.record("request", self.due, self.done, None, id);
            log.record("loadgen.lag", self.due, self.submit, root, id);
            log.record("serve.submit", self.submit, self.accepted, root, id);
            log.record("serve.wait", self.accepted, self.done, root, id);
            self.trace_ms = start.elapsed().as_secs_f64() * 1e3;
        }
        self
    }
}

/// Due offsets of an open-loop schedule: `rate` requests per second,
/// evenly spaced, for `window`.
pub fn schedule(rate: f64, window: Duration) -> Vec<Duration> {
    let n = ((rate * window.as_secs_f64()).floor() as usize).max(1);
    (0..n)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect()
}

fn mix(mut x: u64) -> u64 {
    // splitmix64 finaliser: a seeded, platform-independent draw.
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Whether a client's `j`-th request repeats an earlier key, and which:
/// one request in five, chosen by the seed, repeats one of the client's
/// own earlier unique requests (so the original has always completed).
/// `uniques` are the positions of that client's unique requests so far.
pub fn repeat_target(seed: u64, client: u64, j: u64, uniques: &[u64]) -> Option<u64> {
    if uniques.is_empty() {
        return None;
    }
    let draw = mix(seed ^ mix(client.wrapping_mul(0x1_0000_0001) ^ j));
    draw.is_multiple_of(5)
        .then(|| uniques[(draw / 5) as usize % uniques.len()])
}

fn failure(e: &ServeError) -> Reply {
    Reply::Failed(e.to_string())
}

/// Closed loop: `clients` threads, each waiting for its reply before
/// sending the next request, until `window` has passed. With `key_prefix`
/// requests go through `submit_keyed` and one in five repeats a key.
/// Returns the samples and the deepest queue seen.
pub fn closed_loop(
    svc: &InferenceService,
    net: &Network,
    seed: u64,
    clients: u64,
    key_prefix: Option<&str>,
    window: Duration,
    log: &SpanLog,
) -> (Vec<Sample>, u64) {
    let backlog = AtomicU64::new(0);
    let start = Instant::now();
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let backlog = &backlog;
                scope.spawn(move || {
                    let mut samples: Vec<Sample> = Vec::new();
                    let mut uniques: Vec<u64> = Vec::new();
                    let mut due = Instant::now();
                    while start.elapsed() < window {
                        let j = samples.len() as u64;
                        let index = j * clients + client;
                        let repeats_j =
                            key_prefix.and_then(|_| repeat_target(seed, client, j, &uniques));
                        let image_index = repeats_j.map_or(index, |t| t * clients + client);
                        let image = net.sample_image(seed.wrapping_add(image_index));
                        let submit = Instant::now();
                        let submission = match key_prefix {
                            None => svc.submit(image).map(Submission::Accepted),
                            Some(prefix) => {
                                let key = format!("{prefix}-{client}-{}", repeats_j.unwrap_or(j));
                                svc.submit_keyed(image, &key)
                            }
                        };
                        let accepted = Instant::now();
                        let reply = match submission {
                            Ok(Submission::Accepted(ticket)) => {
                                backlog.fetch_max(svc.stats().queue_depth, Ordering::Relaxed);
                                wait(ticket)
                            }
                            Ok(Submission::Duplicate(done)) => Reply::Duplicate {
                                output: done.output,
                                digest: done.digest,
                            },
                            Err(e) => failure(&e),
                        };
                        let done = Instant::now();
                        if repeats_j.is_none() {
                            uniques.push(j);
                        }
                        let sample = Sample {
                            index,
                            repeats: repeats_j.map(|t| t * clients + client),
                            due,
                            submit,
                            accepted,
                            done,
                            reply,
                            trace_ms: 0.0,
                        };
                        samples.push(sample.record_spans(log));
                        due = done;
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread did not panic"))
            .collect()
    });
    let mut samples: Vec<Sample> = per_client.into_iter().flatten().collect();
    samples.sort_by_key(|s| s.index);
    (samples, backlog.into_inner())
}

fn wait(ticket: chet_serve::Ticket) -> Reply {
    match ticket.wait() {
        Ok(r) => Reply::Fresh {
            output: r.output,
            degraded: r.degraded,
            reported: r.latency,
        },
        Err(e) => failure(&e),
    }
}

/// Open loop: one generator thread submits on `schedule(rate, window)`,
/// one collector thread polls the tickets. Latency runs from each
/// request's due time. Returns the samples and the deepest queue seen.
pub fn open_loop(
    svc: &InferenceService,
    net: &Network,
    seed: u64,
    rate: f64,
    window: Duration,
    log: &SpanLog,
) -> (Vec<Sample>, u64) {
    struct InFlight {
        index: u64,
        due: Instant,
        submit: Instant,
        accepted: Instant,
        ticket: Result<chet_serve::Ticket, Reply>,
    }
    let offsets = schedule(rate, window);
    let (tx, rx) = mpsc::channel::<InFlight>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let origin = Instant::now();
            for (i, offset) in offsets.into_iter().enumerate() {
                let due = origin + offset;
                let image = net.sample_image(seed.wrapping_add(i as u64));
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                let submit = Instant::now();
                let ticket = svc.submit(image).map_err(|e| failure(&e));
                let accepted = Instant::now();
                if tx
                    .send(InFlight {
                        index: i as u64,
                        due,
                        submit,
                        accepted,
                        ticket,
                    })
                    .is_err()
                {
                    return;
                }
            }
        });
        let collector = scope.spawn(move || {
            let mut pending: Vec<InFlight> = Vec::new();
            let mut samples: Vec<Sample> = Vec::new();
            let mut backlog = 0u64;
            let mut generating = true;
            while generating || !pending.is_empty() {
                loop {
                    match rx.try_recv() {
                        Ok(f) => pending.push(f),
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            generating = false;
                            break;
                        }
                    }
                }
                backlog = backlog.max(svc.stats().queue_depth);
                let mut still = Vec::with_capacity(pending.len());
                for f in pending {
                    let reply = match &f.ticket {
                        Err(refused) => Some(refused.clone()),
                        Ok(ticket) => ticket.poll().map(|r| match r {
                            Ok(r) => Reply::Fresh {
                                output: r.output,
                                degraded: r.degraded,
                                reported: r.latency,
                            },
                            Err(e) => failure(&e),
                        }),
                    };
                    match reply {
                        None => still.push(f),
                        Some(reply) => {
                            let sample = Sample {
                                index: f.index,
                                repeats: None,
                                due: f.due,
                                submit: f.submit,
                                accepted: f.accepted,
                                done: Instant::now(),
                                reply,
                                trace_ms: 0.0,
                            };
                            samples.push(sample.record_spans(log));
                        }
                    }
                }
                pending = still;
                std::thread::sleep(Duration::from_micros(500));
            }
            samples.sort_by_key(|s| s.index);
            (samples, backlog)
        });
        collector.join().expect("collector thread did not panic")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_evenly_spaced_and_sized_by_the_window() {
        let s = schedule(1.5, Duration::from_secs(32));
        assert_eq!(s.len(), 48);
        assert_eq!(s[0], Duration::ZERO);
        assert!((s[3].as_secs_f64() - 2.0).abs() < 1e-9);
        assert_eq!(schedule(1.5, Duration::from_millis(100)).len(), 1);
    }

    #[test]
    fn latency_runs_from_the_due_time_and_lag_is_reported_apart() {
        let due = Instant::now();
        let ms = Duration::from_millis;
        let s = Sample {
            index: 0,
            repeats: None,
            due,
            submit: due + ms(40),
            accepted: due + ms(41),
            done: due + ms(240),
            reply: Reply::Failed(String::new()),
            trace_ms: 0.0,
        };
        // A generator 40 ms late still owes the user the full 240 ms.
        assert!((s.latency_ms() - 240.0).abs() < 1e-9);
        assert!((s.lag_ms() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn repeats_are_seeded_and_point_at_earlier_unique_requests() {
        let plan = |seed: u64| {
            let mut uniques = Vec::new();
            let mut plan = Vec::new();
            for j in 0..400u64 {
                let t = repeat_target(seed, 1, j, &uniques);
                if let Some(t) = t {
                    assert!(t < j && uniques.contains(&t));
                } else {
                    uniques.push(j);
                }
                plan.push(t);
            }
            plan
        };
        assert_eq!(plan(7), plan(7));
        assert_ne!(plan(7), plan(8));
        assert_eq!(plan(7)[0], None, "the first request has nothing to repeat");
        let share = plan(7).iter().flatten().count() as f64 / 400.0;
        assert!(
            (0.12..0.28).contains(&share),
            "one in five repeats, got {share}"
        );
    }
}
