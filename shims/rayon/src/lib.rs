//! Offline stand-in for the `rayon` crate.
//!
//! Two building blocks:
//!
//! * [`WorkerPool`] — a persistent scoped worker pool: threads are spawned
//!   once and parked between jobs, and [`WorkerPool::broadcast`] runs one
//!   closure invocation per worker slot with the caller participating as
//!   slot 0. The call does not return until every slot finished, so the
//!   closure may borrow the caller's stack (the pool erases the lifetime
//!   internally; the completion barrier restores soundness). This is the
//!   engine behind both `par_iter` and the tile-parallel simulation
//!   stepper in `noc-sim`.
//! * `slice.par_iter().map(f).collect()` — the rayon pattern this
//!   workspace uses for campaign fan-out, now executed on one lazily
//!   created process-wide pool instead of spawning fresh threads per call.
//!   Results land in pre-assigned slots, so output order always matches
//!   input order exactly as with real rayon's indexed iterators.
//!
//! # Thread-budget arbitration
//!
//! Two environment knobs control parallelism, and they compose
//! multiplicatively, so the rule is: **`DXBAR_JOBS` caps total fan-out,
//! `DXBAR_TILE_THREADS` requests within-simulation tile workers, and
//! point-level consumers divide one by the other.** [`max_threads`]
//! returns the `DXBAR_JOBS` cap (or the core count); [`tile_threads`]
//! returns the tile-worker request (0 and 1 both mean one tile stepped
//! inline, whatever observers the run carries). The
//! campaign executor resolves its point-level worker count as
//! `max(1, max_threads() / max(tile_threads(), 1))`, so a daemon running
//! campaigns over tiled simulations never oversubscribes: the product of
//! campaign workers and tile workers stays within the `DXBAR_JOBS`
//! budget.

#![warn(clippy::undocumented_unsafe_blocks)]

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Maximum worker threads: `DXBAR_JOBS` if set to a positive integer,
/// otherwise the number of available cores.
pub fn max_threads() -> usize {
    std::env::var("DXBAR_JOBS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(available_cores)
}

/// Tile workers requested per simulation: `DXBAR_TILE_THREADS` if set to
/// an integer, otherwise 0. 0 and 1 both mean one tile stepped inline on
/// the caller's thread; N > 1 means N tile workers — for traced, verified
/// and resilient runs too. Unparsable values read as 0 — binaries validate
/// the flag/variable and exit with a usage error before it gets this far.
pub fn tile_threads() -> usize {
    std::env::var("DXBAR_TILE_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(0)
}

fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

pub mod prelude {
    pub use crate::IntoParallelRefIterator;
}

/// Type-erased broadcast job: a pointer to the caller's closure plus a
/// monomorphic trampoline that invokes it with a worker-slot index.
#[derive(Clone, Copy)]
struct Job {
    data: *const (),
    call: unsafe fn(*const (), usize),
}
// SAFETY: `data` points at the `F: Sync` closure `broadcast` borrows, so
// calling it from another thread is allowed; it is only dereferenced
// while `broadcast` blocks on the completion barrier, so the pointee
// outlives every use.
unsafe impl Send for Job {}

struct PoolState {
    /// Bumped once per broadcast; workers run each epoch exactly once.
    epoch: u64,
    job: Option<Job>,
    /// Spawned workers still running the current epoch.
    remaining: usize,
    /// Spawned workers whose closure panicked this epoch.
    panicked: usize,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled on a new epoch (and on shutdown).
    work_cv: Condvar,
    /// Signalled when the last spawned worker finishes an epoch.
    done_cv: Condvar,
}

/// A persistent scoped worker pool. See the module docs.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Total worker slots, including the calling thread (slot 0).
    workers: usize,
}

impl WorkerPool {
    /// Pool with `workers` total slots. Slot 0 is the calling thread, so
    /// `workers - 1` threads are spawned; a one-slot pool spawns nothing
    /// and [`broadcast`](Self::broadcast) degenerates to a plain call.
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                remaining: 0,
                panicked: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (1..workers)
            .map(|slot| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dxbar-pool-{slot}"))
                    .spawn(move || worker_loop(&shared, slot))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            workers,
        }
    }

    /// Total worker slots (including the caller's).
    #[inline]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run `f(slot)` once per worker slot (`0..workers`), the caller
    /// executing slot 0, and return only after every slot finished.
    /// Panics from any slot are re-raised here after the barrier, so
    /// borrowed data is never touched past its lifetime even on unwind.
    pub fn broadcast<F: Fn(usize) + Sync>(&self, f: &F) {
        if self.workers == 1 {
            return f(0);
        }
        /// # Safety
        ///
        /// `data` must point at a live `F`.
        unsafe fn trampoline<F: Fn(usize) + Sync>(data: *const (), slot: usize) {
            // SAFETY: the caller passes the `&F` that `broadcast` erased.
            unsafe { (*(data as *const F))(slot) }
        }
        {
            let mut st = self.shared.state.lock().unwrap();
            assert_eq!(st.remaining, 0, "overlapping broadcast");
            st.job = Some(Job {
                data: f as *const F as *const (),
                call: trampoline::<F>,
            });
            st.epoch += 1;
            st.remaining = self.workers - 1;
            self.shared.work_cv.notify_all();
        }
        let own = catch_unwind(AssertUnwindSafe(|| f(0)));
        let worker_panicked = {
            let mut st = self.shared.state.lock().unwrap();
            while st.remaining > 0 {
                st = self.shared.done_cv.wait(st).unwrap();
            }
            st.job = None;
            std::mem::take(&mut st.panicked) > 0
        };
        if let Err(payload) = own {
            resume_unwind(payload);
        }
        if worker_panicked {
            panic!("WorkerPool: a worker thread panicked during broadcast");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, slot: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    if let Some(job) = st.job {
                        seen = st.epoch;
                        break job;
                    }
                }
                st = shared.work_cv.wait(st).unwrap();
            }
        };
        // SAFETY: `job` pairs a closure pointer with the trampoline
        // monomorphised for its type, and `broadcast` keeps the closure
        // borrowed until `remaining` reaches zero — which this worker
        // only signals after the call returns.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (job.call)(job.data, slot) }));
        let mut st = shared.state.lock().unwrap();
        if result.is_err() {
            st.panicked += 1;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// The process-wide pool behind `par_iter`, created on first use and sized
/// to the machine. `DXBAR_JOBS` caps how many slots a given collect
/// *uses*, not the pool size, so env changes after first use still take
/// effect.
fn global_pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(available_cores()))
}

/// Serializes `collect` calls on the global pool (a broadcast is
/// exclusive per pool).
fn global_pool_guard() -> &'static Mutex<()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD.get_or_init(|| Mutex::new(()))
}

std::thread_local! {
    /// Set while this thread runs inside a global-pool broadcast; a nested
    /// `par_iter` on a pool worker must run inline rather than wait on the
    /// pool it is part of.
    static IN_GLOBAL_BROADCAST: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Entry point mirroring rayon's `par_iter()` on slices (and, via deref,
/// `Vec`s).
pub trait IntoParallelRefIterator {
    type Item;

    fn par_iter(&self) -> ParIter<'_, Self::Item>;
}

impl<T: Sync> IntoParallelRefIterator for [T] {
    type Item = T;

    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter { items: self }
    }
}

/// Borrowed parallel iterator over a slice.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }
}

/// Mapped parallel iterator; consumed by [`ParMap::collect`].
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

/// Output-slot base pointer shared across workers; each slot writes a
/// disjoint index range.
struct SlotWriter<R>(*mut Option<R>);
// SAFETY: workers only move `R` values into slots no other worker touches
// (the `write` contract), which `R: Send` permits.
unsafe impl<R: Send> Sync for SlotWriter<R> {}

impl<R> SlotWriter<R> {
    /// # Safety
    ///
    /// `i` must be in bounds of the slot array and written by no other
    /// thread.
    unsafe fn write(&self, i: usize, value: R) {
        // SAFETY: in bounds and unaliased by the caller's contract.
        unsafe { *self.0.add(i) = Some(value) }
    }
}

impl<'a, T, R, F> ParMap<'a, T, F>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    pub fn collect<C: FromIterator<R>>(self) -> C {
        let n = self.items.len();
        let threads = max_threads().min(n.max(1));
        let nested = IN_GLOBAL_BROADCAST.with(|b| b.get());
        if threads <= 1 || nested {
            return self.items.iter().map(&self.f).collect();
        }

        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let pool = global_pool();
        // Cap the chunk spread to the DXBAR_JOBS budget even when the pool
        // has more slots; surplus slots see an empty range.
        let chunk = n.div_ceil(threads.min(pool.workers()));
        let _serial = global_pool_guard().lock().unwrap();
        {
            let items = self.items;
            let f = &self.f;
            let out = SlotWriter(slots.as_mut_ptr());
            let body = |slot: usize| {
                IN_GLOBAL_BROADCAST.with(|b| b.set(true));
                let lo = (slot * chunk).min(n);
                let hi = ((slot + 1) * chunk).min(n);
                for (i, item) in items[lo..hi].iter().enumerate() {
                    // SAFETY: each slot owns [lo, hi) of the `n` slots:
                    // in bounds, and disjoint by construction, so the
                    // writes never alias.
                    unsafe { out.write(lo + i, f(item)) };
                }
                IN_GLOBAL_BROADCAST.with(|b| b.set(false));
            };
            pool.broadcast(&body);
        }
        slots.into_iter().map(|r| r.unwrap()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::WorkerPool;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order() {
        let xs: Vec<u64> = (0..1000).collect();
        let doubled: Vec<u64> = xs.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn dxbar_jobs_caps_threads_without_changing_results() {
        // Results are slot-assigned, so any thread cap yields identical
        // output; this checks the cap is parsed and correctness holds.
        std::env::set_var("DXBAR_JOBS", "2");
        assert_eq!(crate::max_threads(), 2);
        let xs: Vec<u64> = (0..97).collect();
        let out: Vec<u64> = xs.par_iter().map(|x| x * 3).collect();
        assert_eq!(out, (0..97).map(|x| x * 3).collect::<Vec<_>>());
        std::env::set_var("DXBAR_JOBS", "not-a-number");
        assert!(crate::max_threads() >= 1);
        std::env::remove_var("DXBAR_JOBS");
        assert!(crate::max_threads() >= 1);
    }

    #[test]
    fn handles_empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        let out: Vec<u32> = empty.par_iter().map(|x| x + 1).collect();
        assert!(out.is_empty());
        let one = [41u32];
        let out: Vec<u32> = one.par_iter().map(|x| x + 1).collect();
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn broadcast_runs_every_slot_exactly_once() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.workers(), 4);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..50 {
            pool.broadcast(&|slot| {
                hits[slot].fetch_add(1, Ordering::Relaxed);
            });
        }
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 50);
        }
    }

    #[test]
    fn broadcast_borrows_caller_stack() {
        // The whole point of the scoped design: workers mutate disjoint
        // parts of a stack-local buffer through raw-pointer partitioning.
        struct Cells(*mut u64);
        // SAFETY: each slot writes only its own cell.
        unsafe impl Sync for Cells {}
        impl Cells {
            /// # Safety
            ///
            /// `i` in bounds, one writer per cell.
            unsafe fn set(&self, i: usize, v: u64) {
                // SAFETY: the caller's contract.
                unsafe { *self.0.add(i) = v }
            }
        }
        let pool = WorkerPool::new(3);
        let mut out = [0u64; 3];
        let cells = Cells(out.as_mut_ptr());
        // SAFETY: three slots, three cells, slot `i` writes cell `i`.
        pool.broadcast(&|slot| unsafe { cells.set(slot, slot as u64 + 7) });
        assert_eq!(out, [7, 8, 9]);
    }

    #[test]
    fn single_slot_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert!(pool.handles.is_empty(), "one slot spawns no thread");
        let count = AtomicUsize::new(0);
        pool.broadcast(&|slot| {
            assert_eq!(slot, 0);
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.broadcast(&|slot| {
                if slot == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(r.is_err());
        // The pool is still usable after a propagated panic.
        let count = AtomicUsize::new(0);
        pool.broadcast(&|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 2);
    }
}
