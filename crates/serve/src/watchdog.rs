//! Worker watchdog: detects requests stuck past their deadline even when
//! the cooperative [`CancelToken`] checks never fire.
//!
//! The executor checks its token *between* tensor ops, so a single op that
//! wedges — a hung FFI call, a pathological allocation, the chaos
//! harness's uncancellable stall — is invisible to cooperative
//! cancellation. The watchdog is the non-cooperative backstop: each worker
//! publishes what it is doing into a shared [`WorkerSlot`] (job id, start
//! time, deadline, a heartbeat bumped per executed op), and a monitor
//! thread walks the slots on a fixed tick, escalating stuck workers up a
//! ladder:
//!
//! 1. **Cancel** — the job ran past its deadline plus [`WatchdogConfig::grace`],
//!    or its heartbeat has not moved for [`WatchdogConfig::stall_timeout`]:
//!    trip the request token (in case the worker *can* still observe it),
//!    count an escalation, and charge the breaker — a wedging backend is a
//!    failing backend.
//! 2. **Quarantine + respawn** — the worker is *still* on the same job
//!    [`WatchdogConfig::quarantine_after`] later: mark its slot
//!    quarantined and spawn a replacement worker so pool capacity
//!    recovers. The stuck thread is never killed (Rust has no safe thread
//!    kill); when its op finally returns it sends its reply — so the
//!    caller still gets a typed resolution, never silence — sees the
//!    quarantine flag, and exits.
//!
//! Escalation state is per-job: a worker that comes back healthy resets
//! its ladder. Respawns are capped ([`WatchdogConfig::max_respawns`]) so a
//! fault that wedges every worker cannot fork-bomb the host.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use chet_runtime::cancel::CancelToken;

/// Watchdog tuning. Defaults are generous — FHE ops are slow, and a false
/// escalation cancels a legitimate request — but bounded.
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// Master switch; `false` runs no monitor thread.
    pub enabled: bool,
    /// Monitor wake-up period.
    pub tick: Duration,
    /// Slack past a request's deadline before step 1 fires. (Cooperative
    /// cancellation normally resolves the request well within this.)
    pub grace: Duration,
    /// A busy worker whose heartbeat (ops executed) has not moved for this
    /// long is considered wedged even without a deadline.
    pub stall_timeout: Duration,
    /// Time after step 1 before the worker is quarantined and replaced.
    pub quarantine_after: Duration,
    /// Lifetime cap on respawned workers.
    pub max_respawns: usize,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            enabled: true,
            tick: Duration::from_millis(10),
            grace: Duration::from_millis(50),
            stall_timeout: Duration::from_secs(10),
            quarantine_after: Duration::from_millis(200),
            max_respawns: 16,
        }
    }
}

/// Escalation ladder position for the current job (resets per job).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Escalation {
    /// Nothing wrong observed.
    None,
    /// Step 1 fired: token cancelled, breaker charged.
    Cancelled,
    /// Step 2 fired: worker quarantined, replacement spawned.
    Quarantined,
    /// Final rung: a worker stayed wedged *after* the respawn budget was
    /// exhausted. The watchdog cannot recover pool capacity any more, so
    /// instead of giving up silently it quarantines the worker and raises
    /// a supervised-restart request — the service flags
    /// [`restart_requested`](crate::health::HealthReport::restart_requested)
    /// and a supervisor recycles the process through
    /// [`InferenceService::start_with_compiler`](crate::InferenceService::start_with_compiler),
    /// which replays every unresolved request from the durable journal.
    RestartRequested,
}

/// What one worker published about its current job.
#[derive(Debug, Clone)]
struct BusyJob {
    job_id: u64,
    since: Instant,
    deadline: Option<Instant>,
    token: CancelToken,
}

/// Shared per-worker state: the worker writes, the watchdog (and health
/// reporting) reads. The busy record sits behind a tiny mutex — it changes
/// twice per request — while the heartbeat is a lone atomic the executor
/// observer bumps per op.
#[derive(Debug)]
pub struct WorkerSlot {
    worker_id: usize,
    busy: Mutex<Option<BusyJob>>,
    heartbeat: AtomicU64,
    quarantined: AtomicBool,
    /// Escalation ladder for the *current* job, encoded 0/1/2/3.
    escalation: AtomicU64,
}

impl WorkerSlot {
    pub(crate) fn new(worker_id: usize) -> Arc<Self> {
        Arc::new(WorkerSlot {
            worker_id,
            busy: Mutex::new(None),
            heartbeat: AtomicU64::new(0),
            quarantined: AtomicBool::new(false),
            escalation: AtomicU64::new(0),
        })
    }

    /// The worker's pool index (respawned workers get fresh indices).
    pub fn worker_id(&self) -> usize {
        self.worker_id
    }

    /// Worker-side: publish the job this worker just picked up.
    pub(crate) fn begin(&self, job_id: u64, token: &CancelToken) {
        let mut g = self.busy.lock().unwrap_or_else(|p| p.into_inner());
        *g = Some(BusyJob {
            job_id,
            since: Instant::now(),
            deadline: token.deadline(),
            token: token.clone(),
        });
        self.escalation.store(0, Ordering::Release);
    }

    /// Worker-side: the job resolved (reply sent); the slot goes idle and
    /// the escalation ladder resets.
    pub(crate) fn finish(&self) {
        let mut g = self.busy.lock().unwrap_or_else(|p| p.into_inner());
        *g = None;
        self.escalation.store(0, Ordering::Release);
    }

    /// Executor-observer side: one op executed.
    pub(crate) fn beat(&self) {
        self.heartbeat.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether the watchdog has quarantined this worker. The worker polls
    /// this between jobs and exits when set.
    pub(crate) fn is_quarantined(&self) -> bool {
        self.quarantined.load(Ordering::Acquire)
    }

    /// Current escalation position.
    pub fn escalation(&self) -> Escalation {
        match self.escalation.load(Ordering::Acquire) {
            0 => Escalation::None,
            1 => Escalation::Cancelled,
            2 => Escalation::Quarantined,
            _ => Escalation::RestartRequested,
        }
    }

    /// Health-reporting view: `(job id, busy-for)` when busy.
    pub(crate) fn busy_view(&self) -> Option<(u64, Duration)> {
        let g = self.busy.lock().unwrap_or_else(|p| p.into_inner());
        g.as_ref().map(|b| (b.job_id, b.since.elapsed()))
    }
}

/// One watchdog intervention, kept for stats/assertions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogEvent {
    /// Which worker.
    pub worker_id: usize,
    /// Which job it was stuck on.
    pub job_id: u64,
    /// What the watchdog did.
    pub action: Escalation,
    /// Why ("deadline exceeded", "heartbeat stalled").
    pub reason: &'static str,
}

/// Callbacks the watchdog drives — wired to the service's breaker,
/// counters and worker-spawner without this module depending on them.
pub(crate) struct WatchdogHooks {
    /// Step-1 side effects (count the escalation, charge the breaker).
    pub on_escalate: Box<dyn Fn(&WatchdogEvent) + Send>,
    /// Spawn a replacement worker with the given fresh id, returning its
    /// handle and slot for registration.
    pub respawn: Box<dyn Fn(usize) -> (JoinHandle<()>, Arc<WorkerSlot>) + Send>,
}

struct Shared {
    stop: Mutex<bool>,
    wake: Condvar,
}

/// The monitor. Owns the slot registry; the service registers initial
/// workers and the watchdog registers its own respawns.
pub(crate) struct Watchdog {
    slots: Arc<Mutex<Vec<Arc<WorkerSlot>>>>,
    shared: Arc<Shared>,
    monitor: Option<JoinHandle<()>>,
    events: Arc<Mutex<Vec<WatchdogEvent>>>,
}

/// Per-slot tracking local to the monitor thread.
#[derive(Clone, Copy)]
struct Track {
    job_id: u64,
    last_beat: u64,
    beat_seen_at: Instant,
    cancelled_at: Option<Instant>,
}

impl Watchdog {
    /// Starts the monitor (a no-op shell when `config.enabled` is false).
    pub(crate) fn start(
        config: WatchdogConfig,
        slots: Arc<Mutex<Vec<Arc<WorkerSlot>>>>,
        workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
        next_worker_id: Arc<AtomicUsize>,
        hooks: WatchdogHooks,
    ) -> Self {
        let shared = Arc::new(Shared { stop: Mutex::new(false), wake: Condvar::new() });
        let events = Arc::new(Mutex::new(Vec::new()));
        let respawned = Arc::new(AtomicUsize::new(0));
        let monitor = if config.enabled {
            let cfg = config.clone();
            let slots2 = Arc::clone(&slots);
            let shared2 = Arc::clone(&shared);
            let events2 = Arc::clone(&events);
            let respawned2 = Arc::clone(&respawned);
            Some(std::thread::spawn(move || {
                monitor_loop(&cfg, &slots2, &workers, &next_worker_id, &hooks, &shared2, &events2, &respawned2);
            }))
        } else {
            None
        };
        Watchdog { slots, shared, monitor, events }
    }

    /// Interventions so far.
    pub(crate) fn events(&self) -> Vec<WatchdogEvent> {
        self.events.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// The slot registry (for health reporting).
    pub(crate) fn slots(&self) -> Vec<Arc<WorkerSlot>> {
        self.slots.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Stops and joins the monitor thread.
    pub(crate) fn stop(&mut self) {
        {
            let mut g = self.shared.stop.lock().unwrap_or_else(|p| p.into_inner());
            *g = true;
        }
        self.shared.wake.notify_all();
        if let Some(h) = self.monitor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop();
    }
}

#[allow(clippy::too_many_arguments)] // internal plumbing, called once
fn monitor_loop(
    cfg: &WatchdogConfig,
    slots: &Mutex<Vec<Arc<WorkerSlot>>>,
    workers: &Mutex<Vec<JoinHandle<()>>>,
    next_worker_id: &AtomicUsize,
    hooks: &WatchdogHooks,
    shared: &Shared,
    events: &Mutex<Vec<WatchdogEvent>>,
    respawned: &AtomicUsize,
) {
    use std::collections::HashMap;
    let mut tracks: HashMap<usize, Track> = HashMap::new();
    loop {
        {
            let g = shared.stop.lock().unwrap_or_else(|p| p.into_inner());
            if *g {
                return;
            }
            let (g, _) = shared
                .wake
                .wait_timeout(g, cfg.tick)
                .unwrap_or_else(|p| p.into_inner());
            if *g {
                return;
            }
        }
        let snapshot = slots.lock().unwrap_or_else(|p| p.into_inner()).clone();
        let now = Instant::now();
        for (idx, slot) in snapshot.iter().enumerate() {
            if slot.is_quarantined() {
                continue;
            }
            let busy = {
                let g = slot.busy.lock().unwrap_or_else(|p| p.into_inner());
                g.clone()
            };
            let Some(job) = busy else {
                tracks.remove(&idx);
                continue;
            };
            let beat = slot.heartbeat.load(Ordering::Relaxed);
            let track = tracks.entry(idx).or_insert(Track {
                job_id: job.job_id,
                last_beat: beat,
                beat_seen_at: now,
                cancelled_at: None,
            });
            if track.job_id != job.job_id {
                // New job since last tick: restart tracking.
                *track = Track { job_id: job.job_id, last_beat: beat, beat_seen_at: now, cancelled_at: None };
            } else if beat != track.last_beat {
                track.last_beat = beat;
                track.beat_seen_at = now;
            }

            let past_deadline = job
                .deadline
                .is_some_and(|d| now >= d + cfg.grace);
            let stalled = now.duration_since(track.beat_seen_at) >= cfg.stall_timeout;

            match slot.escalation() {
                Escalation::None if past_deadline || stalled => {
                    job.token.cancel();
                    slot.escalation.store(1, Ordering::Release);
                    track.cancelled_at = Some(now);
                    let ev = WatchdogEvent {
                        worker_id: slot.worker_id,
                        job_id: job.job_id,
                        action: Escalation::Cancelled,
                        reason: if past_deadline { "deadline exceeded" } else { "heartbeat stalled" },
                    };
                    (hooks.on_escalate)(&ev);
                    events.lock().unwrap_or_else(|p| p.into_inner()).push(ev);
                }
                Escalation::Cancelled => {
                    let overdue = track
                        .cancelled_at
                        .is_some_and(|t| now.duration_since(t) >= cfg.quarantine_after);
                    if overdue && respawned.load(Ordering::Relaxed) < cfg.max_respawns {
                        slot.quarantined.store(true, Ordering::Release);
                        slot.escalation.store(2, Ordering::Release);
                        let new_id = next_worker_id.fetch_add(1, Ordering::Relaxed);
                        let (handle, new_slot) = (hooks.respawn)(new_id);
                        slots.lock().unwrap_or_else(|p| p.into_inner()).push(new_slot);
                        workers.lock().unwrap_or_else(|p| p.into_inner()).push(handle);
                        respawned.fetch_add(1, Ordering::Relaxed);
                        let ev = WatchdogEvent {
                            worker_id: slot.worker_id,
                            job_id: job.job_id,
                            action: Escalation::Quarantined,
                            reason: "still wedged after cancellation",
                        };
                        (hooks.on_escalate)(&ev);
                        events.lock().unwrap_or_else(|p| p.into_inner()).push(ev);
                        tracks.remove(&idx);
                    } else if overdue {
                        // Final rung: the respawn budget is spent, so the
                        // pool cannot be repaired in-process. Quarantine
                        // the worker anyway (its thread exits when the op
                        // returns) and escalate to a supervised restart —
                        // the journal makes that safe: every unresolved
                        // request replays from durable state.
                        slot.quarantined.store(true, Ordering::Release);
                        slot.escalation.store(3, Ordering::Release);
                        let ev = WatchdogEvent {
                            worker_id: slot.worker_id,
                            job_id: job.job_id,
                            action: Escalation::RestartRequested,
                            reason: "respawn budget exhausted",
                        };
                        (hooks.on_escalate)(&ev);
                        events.lock().unwrap_or_else(|p| p.into_inner()).push(ev);
                        tracks.remove(&idx);
                    }
                }
                _ => {}
            }
        }
    }
}
