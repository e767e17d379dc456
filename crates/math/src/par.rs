//! A small fixed thread pool for data-parallel regions.
//!
//! This is the substrate of the runtime's parallel execution layer
//! (`chet-runtime::par`): per-limb RNS arithmetic and per-ciphertext kernel
//! fan-out both dispatch through [`parallel_for`]. The pool is deliberately
//! tiny — a handful of lazily spawned workers parked on a condvar — because
//! the regions it serves are short (one NTT per prime limb, one output
//! ciphertext per kernel job) and cannot amortize per-region thread spawns.
//!
//! # Determinism contract
//!
//! The pool never influences *what* is computed, only *when*: every job
//! index `0..count` runs exactly once, jobs may only write state disjoint
//! per index, and callers merge results in index order after the region
//! completes. Outputs are therefore bit-identical for any thread count,
//! including 1 — the property the determinism test suite pins down.
//!
//! # Configuration
//!
//! Thread count resolution order: [`set_threads`] (programmatic, e.g. from
//! `ServeConfig`), then the `CHET_THREADS` environment variable, then
//! `std::thread::available_parallelism()` capped at 8.
//!
//! # Nesting
//!
//! Regions do not nest: a job that itself opens a region (a kernel fan-out
//! whose per-ciphertext work hits per-limb loops) runs the inner region
//! inline on its worker. A single global region guard enforces this — it
//! also serializes pool use across unrelated caller threads (e.g. two
//! serving workers), which keeps worst-case thread pressure at
//! `threads()` regardless of caller concurrency.

// The pool is part of the runtime failure model: it must not introduce
// unwrap/expect panic paths of its own (ci.sh extends the clippy gate to
// this module).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Hard upper bound on configured threads (sanity clamp, not a target).
pub const MAX_THREADS: usize = 64;

/// Programmatic override; 0 = unset (fall back to env / hardware).
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

fn env_or_hardware_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        if let Ok(v) = std::env::var("CHET_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                return n.clamp(1, MAX_THREADS);
            }
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
    })
}

/// The thread count parallel regions target: the [`set_threads`] override
/// if set, else `CHET_THREADS`, else hardware parallelism (capped at 8).
/// Always ≥ 1.
pub fn threads() -> usize {
    match CONFIGURED.load(Ordering::Acquire) {
        0 => env_or_hardware_threads(),
        n => n,
    }
}

/// Overrides the thread count for subsequent parallel regions (clamped to
/// `1..=MAX_THREADS`). Takes precedence over `CHET_THREADS`.
pub fn set_threads(n: usize) {
    CONFIGURED.store(n.clamp(1, MAX_THREADS), Ordering::Release);
}

/// Helpers for tests (here and in downstream crates) that mutate the
/// process-global thread configuration.
pub mod test_support {
    use std::sync::{Mutex, MutexGuard};

    /// Serializes tests that call [`super::set_threads`]: the override is
    /// process-global, so concurrent tests flipping it race each other.
    /// A poisoned lock is fine — the guard only orders access.
    pub fn config_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// One published region. `f` is a lifetime-erased pointer to the caller's
/// closure; the caller blocks until `completed == count`, so no worker can
/// observe it dangling (workers touch `f` only while holding a claimed
/// index, and every claimed index is counted into `completed`).
struct Region {
    f: *const (dyn Fn(usize) + Sync),
    count: usize,
    /// Next unclaimed job index.
    next: AtomicUsize,
    /// Jobs fully executed (success or caught panic).
    completed: AtomicUsize,
    /// Workers admitted so far; admission beyond `allowed` is refused so a
    /// larger-than-configured pool does not exceed the requested width.
    joined: AtomicUsize,
    /// Extra workers this region may admit (the caller participates too).
    allowed: usize,
    /// Set when any job panicked; the caller re-raises after the region.
    panicked: AtomicBool,
    done: Mutex<bool>,
    done_cv: Condvar,
}

// SAFETY: `f` is only dereferenced while the publishing caller is blocked
// in `run_region`, which outlives every dereference (see `completed`
// accounting above); all other fields are Sync primitives.
unsafe impl Send for Region {}
unsafe impl Sync for Region {}

struct PoolState {
    region: Option<Arc<Region>>,
    epoch: u64,
}

struct Pool {
    state: Mutex<PoolState>,
    wake: Condvar,
    spawned: AtomicUsize,
}

/// Guard making top-level regions mutually exclusive (see module docs).
static REGION_ACTIVE: AtomicBool = AtomicBool::new(false);

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState { region: None, epoch: 0 }),
        wake: Condvar::new(),
        spawned: AtomicUsize::new(0),
    })
}

fn lock_state(p: &Pool) -> std::sync::MutexGuard<'_, PoolState> {
    p.state.lock().unwrap_or_else(|e| e.into_inner())
}

fn worker_loop(p: &'static Pool) {
    let mut seen_epoch = 0u64;
    loop {
        let region = {
            let mut guard = lock_state(p);
            loop {
                match &guard.region {
                    Some(r) if guard.epoch != seen_epoch => {
                        seen_epoch = guard.epoch;
                        break Arc::clone(r);
                    }
                    _ => {
                        guard = p.wake.wait(guard).unwrap_or_else(|e| e.into_inner());
                    }
                }
            }
        };
        if region.joined.fetch_add(1, Ordering::AcqRel) >= region.allowed {
            continue; // region already has its configured width
        }
        run_jobs(&region);
    }
}

/// Claims and runs job indices until the region is exhausted.
fn run_jobs(region: &Region) {
    loop {
        let i = region.next.fetch_add(1, Ordering::Relaxed);
        if i >= region.count {
            return;
        }
        // SAFETY: the publisher blocks until `completed == count`; this
        // dereference happens strictly before our `completed` increment
        // for index `i`.
        let f = unsafe { &*region.f };
        if catch_unwind(AssertUnwindSafe(|| f(i))).is_err() {
            region.panicked.store(true, Ordering::Release);
        }
        if region.completed.fetch_add(1, Ordering::AcqRel) + 1 == region.count {
            let mut done = region.done.lock().unwrap_or_else(|e| e.into_inner());
            *done = true;
            region.done_cv.notify_all();
        }
    }
}

fn ensure_workers(p: &'static Pool, want: usize) {
    loop {
        let have = p.spawned.load(Ordering::Acquire);
        if have >= want {
            return;
        }
        if p
            .spawned
            .compare_exchange(have, have + 1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            let spawned = std::thread::Builder::new()
                .name(format!("chet-par-{have}"))
                .spawn(move || worker_loop(p));
            if spawned.is_err() {
                // Could not get a worker: give the slot back and run with
                // whatever width we have (possibly inline-only).
                p.spawned.fetch_sub(1, Ordering::AcqRel);
                return;
            }
        }
    }
}

fn run_region(count: usize, width: usize, f: &(dyn Fn(usize) + Sync)) {
    // SAFETY: erase the closure lifetime for storage in the shared region;
    // this function does not return until every claimed index has
    // completed, so the pointer never outlives the referent's borrow.
    let f_static: &'static (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(f) };
    let region = Arc::new(Region {
        f: f_static,
        count,
        next: AtomicUsize::new(0),
        completed: AtomicUsize::new(0),
        joined: AtomicUsize::new(0),
        allowed: width - 1,
        panicked: AtomicBool::new(false),
        done: Mutex::new(false),
        done_cv: Condvar::new(),
    });
    let p = pool();
    ensure_workers(p, width - 1);
    {
        let mut guard = lock_state(p);
        guard.epoch = guard.epoch.wrapping_add(1);
        guard.region = Some(Arc::clone(&region));
        p.wake.notify_all();
    }
    // The caller is a full participant, not just a coordinator.
    run_jobs(&region);
    {
        let mut done = region.done.lock().unwrap_or_else(|e| e.into_inner());
        while !*done {
            done = region.done_cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
    }
    {
        let mut guard = lock_state(p);
        guard.region = None;
    }
    if region.panicked.load(Ordering::Acquire) {
        resume_unwind(Box::new("job panicked inside a chet-par region"));
    }
}

/// Runs `f(i)` once for every `i in 0..count`, using up to
/// [`threads`] threads. Falls back to an inline sequential loop
/// when the count or thread budget is 1, or when called from inside
/// another region (no nesting). `f` must confine its writes to per-index
/// state; the caller merges in index order, so results are independent of
/// the thread count.
pub fn parallel_for(count: usize, f: &(dyn Fn(usize) + Sync)) {
    let width = threads().min(count);
    if count == 0 {
        return;
    }
    if width <= 1 || REGION_ACTIVE.swap(true, Ordering::Acquire) {
        for i in 0..count {
            f(i);
        }
        return;
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| run_region(count, width, f)));
    REGION_ACTIVE.store(false, Ordering::Release);
    if let Err(payload) = outcome {
        resume_unwind(payload);
    }
}

/// Disjoint-index write window over a slice, for collecting per-job
/// results from a region.
struct Slots<T>(*mut T);
// SAFETY: each index is written by exactly one job (the pool hands out
// each index once), so concurrent access is disjoint.
unsafe impl<T: Send> Send for Slots<T> {}
unsafe impl<T: Send> Sync for Slots<T> {}

impl<T> Slots<T> {
    /// Raw pointer to slot `i`.
    ///
    /// # Safety
    /// `i` must be in bounds; dereference only while no other job
    /// accesses the same index.
    unsafe fn at(&self, i: usize) -> *mut T {
        self.0.add(i)
    }
}

/// Parallel map over `0..count`: returns `vec![f(0), f(1), ...]` with the
/// same ordering guarantees as a sequential map.
pub fn par_map<T, F>(count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<Option<T>> = (0..count).map(|_| None).collect();
    {
        let slots = Slots(out.as_mut_ptr());
        parallel_for(count, &|i| {
            let v = f(i);
            // SAFETY: index `i` is claimed exactly once (see `Slots`).
            unsafe { *slots.at(i) = Some(v) };
        });
    }
    out.into_iter()
        .map(|o| match o {
            Some(v) => v,
            // A missing slot is impossible unless the job panicked, and a
            // panic already propagated out of `parallel_for`.
            None => unreachable!("parallel_for completed with an unfilled slot"),
        })
        .collect()
}

/// Parallel in-place update of each slice element (one job per element).
pub fn par_iter_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    let slots = Slots(items.as_mut_ptr());
    parallel_for(n, &|i| {
        // SAFETY: index `i` is claimed exactly once (see `Slots`).
        let item = unsafe { &mut *slots.at(i) };
        f(i, item);
    });
}

/// Parallel in-place update over two equal-length slices, pairing
/// `a[i]` with `b[i]` (one job per index). Used for limb/table pairs.
pub fn par_zip_mut<T, U, F>(a: &mut [T], b: &mut [U], f: F)
where
    T: Send,
    U: Send,
    F: Fn(usize, &mut T, &mut U) + Sync,
{
    let n = a.len().min(b.len());
    let sa = Slots(a.as_mut_ptr());
    let sb = Slots(b.as_mut_ptr());
    parallel_for(n, &|i| {
        // SAFETY: index `i` is claimed exactly once (see `Slots`).
        let (x, y) = unsafe { (&mut *sa.at(i), &mut *sb.at(i)) };
        f(i, x, y);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    use super::test_support::config_lock;

    #[test]
    fn thread_count_resolution_clamps() {
        let _g = config_lock();
        set_threads(0);
        assert_eq!(threads(), 1);
        set_threads(MAX_THREADS + 10);
        assert_eq!(threads(), MAX_THREADS);
        set_threads(4);
        assert_eq!(threads(), 4);
    }

    #[test]
    fn parallel_for_runs_every_index_once() {
        let _g = config_lock();
        set_threads(4);
        let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(hits.len(), &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_map_preserves_index_order() {
        let _g = config_lock();
        set_threads(4);
        let out = par_map(64, |i| i * i);
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_mut_touches_each_element() {
        let _g = config_lock();
        set_threads(4);
        let mut v: Vec<u64> = (0..50).collect();
        par_iter_mut(&mut v, |i, x| *x += i as u64);
        assert_eq!(v, (0..50).map(|i| 2 * i).collect::<Vec<u64>>());
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let _g = config_lock();
        let run = |threads: usize| {
            set_threads(threads);
            par_map(123, |i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        };
        let one = run(1);
        for t in [2, 4, 8] {
            assert_eq!(run(t), one, "thread count {t} changed results");
        }
    }

    #[test]
    fn nested_regions_run_inline_without_deadlock() {
        let _g = config_lock();
        set_threads(4);
        let total = AtomicU64::new(0);
        parallel_for(8, &|_| {
            // Inner region must run inline on this worker.
            let inner = par_map(8, |j| j as u64);
            total.fetch_add(inner.iter().sum::<u64>(), Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * 28);
    }

    #[test]
    fn empty_and_single_regions_are_inline() {
        let _g = config_lock();
        set_threads(4);
        parallel_for(0, &|_| panic!("must not run"));
        let out = par_map(1, |i| i + 41);
        assert_eq!(out, vec![41]);
    }

    #[test]
    fn job_panics_propagate_to_the_caller() {
        let _g = config_lock();
        set_threads(2);
        let caught = std::panic::catch_unwind(|| {
            parallel_for(4, &|i| {
                if i == 2 {
                    panic!("boom");
                }
            });
        });
        assert!(caught.is_err());
        // The pool must stay usable after a panicked region.
        assert_eq!(par_map(4, |i| i), vec![0, 1, 2, 3]);
    }
}
