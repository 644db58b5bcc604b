//! # ucad-pool
//!
//! A small scoped thread pool for data-parallel kernels, vendored because
//! the build environment has no route to crates.io. One global pool sized
//! from `UCAD_THREADS` serves the whole process; kernels split work across
//! *independent* output ranges with [`Pool::parallel_for`], so every f32
//! result is bit-identical to the sequential loop regardless of thread
//! count — parallelism changes only *who* computes each output row, never
//! the per-element summation order.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism**: `parallel_for(len, _, f)` calls `f(start, end)` over
//!    a disjoint cover of `0..len`. `f` must not share mutable state across
//!    ranges; under that contract the result cannot depend on scheduling.
//! 2. **Sequential degeneracy**: with one thread (the default when
//!    `UCAD_THREADS` is unset on a single-core host), when the range is
//!    below the chunk grain, when the pool is already running a job
//!    (nested or concurrent dispatch), or when called from inside a pool
//!    worker or an [`inline`] scope, the closure runs inline as
//!    `f(0, len)` — one branch of overhead, no locks.
//! 3. **Caller participation**: the dispatching thread grabs chunks from
//!    the same atomic cursor as the workers, so a pool is never slower
//!    than sequential by more than the cost of a handful of atomic ops.
//!
//! The pool runs one job at a time (claimed by a CAS on a busy flag);
//! concurrent dispatchers fall back to inline execution rather than queue.
//! Worker panics are caught per-chunk and re-thrown on the dispatching
//! thread once the job completes, so a poisoned chunk cannot deadlock the
//! completion wait.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

/// Fat pointer to the job closure, lifetime-erased so it can sit in the
/// shared slot. Sound because [`Pool::parallel_for`] blocks until every
/// grabbed chunk has finished executing, so the pointee strictly outlives
/// every dereference.
#[derive(Clone, Copy)]
struct FnPtr(*const (dyn Fn(usize, usize) + Sync));
// SAFETY: the pointee is `Sync` (shared `&` calls from many threads are
// fine) and the pointer never outlives the `parallel_for` frame it points
// into (completion is awaited before return).
unsafe impl Send for FnPtr {}
unsafe impl Sync for FnPtr {}

impl FnPtr {
    /// Erases the borrow lifetime of `f`.
    ///
    /// # Safety
    /// The caller must not let the pointer escape the frame that owns `f`
    /// — `parallel_for` upholds this by awaiting job completion before
    /// returning.
    unsafe fn erase<'a>(f: &'a (dyn Fn(usize, usize) + Sync + 'a)) -> FnPtr {
        FnPtr(std::mem::transmute::<
            *const (dyn Fn(usize, usize) + Sync + 'a),
            *const (dyn Fn(usize, usize) + Sync + 'static),
        >(f))
    }
}

/// One dispatched job: a closure over `0..len`, carved into `chunk`-sized
/// ranges handed out by the `next` cursor. `done` counts finished elements;
/// the job is complete when it reaches `len`. Per-job `Arc`s (rather than
/// pool-level atomics) make a stale worker that wakes up late harmless: it
/// bumps cursors nobody reads any more.
#[derive(Clone)]
struct Job {
    func: FnPtr,
    len: usize,
    chunk: usize,
    next: Arc<AtomicUsize>,
    done: Arc<AtomicUsize>,
    panic: Arc<Mutex<Option<Box<dyn std::any::Any + Send>>>>,
}

struct Slot {
    epoch: u64,
    job: Option<Job>,
    shutdown: bool,
}

struct Shared {
    slot: Mutex<Slot>,
    work_cv: Condvar,
    done_cv: Condvar,
}

/// A fixed-size scoped thread pool. See the crate docs for the execution
/// model; most callers want [`current`] rather than constructing one.
pub struct Pool {
    threads: usize,
    busy: AtomicBool,
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
}

thread_local! {
    /// Set while this thread is executing pool chunks (or runs an
    /// [`inline`] scope), so a kernel called from inside a job degrades to
    /// inline execution instead of re-dispatching (the busy flag would
    /// catch it too, but this avoids even the CAS).
    static IN_WORKER: RefCell<bool> = const { RefCell::new(false) };
    /// Per-thread pool override installed by [`with_pool`]; tests use it to
    /// exercise kernels at several thread counts inside one process.
    static OVERRIDE: RefCell<Option<Arc<Pool>>> = const { RefCell::new(None) };
}

impl Pool {
    /// Creates a pool that computes with `threads` threads in total: the
    /// dispatching caller plus `threads - 1` background workers.
    /// `Pool::new(1)` spawns nothing and always runs inline.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                epoch: 0,
                job: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("ucad-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            threads,
            busy: AtomicBool::new(false),
            shared,
            workers,
        }
    }

    /// Total number of computing threads (callers + workers).
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(start, end)` over a disjoint cover of `0..len`, possibly in
    /// parallel. Ranges never overlap and every index is covered exactly
    /// once, so as long as chunks touch disjoint output ranges the result
    /// is independent of scheduling. `min_chunk` bounds the smallest range
    /// a thread will be handed; ranges at or below it run inline.
    ///
    /// Falls back to a single inline `f(0, len)` call when the pool has one
    /// thread, the range is a single chunk, the caller is itself a pool
    /// worker or inside [`inline`], or another job is already running.
    ///
    /// # Panics
    /// Re-throws the first panic raised inside `f` after all chunks finish.
    pub fn parallel_for(&self, len: usize, min_chunk: usize, f: impl Fn(usize, usize) + Sync) {
        if len == 0 {
            return;
        }
        // Aim for a few chunks per thread for load balance, floored by the
        // caller's grain.
        let chunk = min_chunk
            .max(len.div_ceil(self.threads.saturating_mul(4)))
            .max(1);
        let inline = self.threads == 1
            || chunk >= len
            || IN_WORKER.with(|w| *w.borrow())
            || self
                .busy
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_err();
        if inline {
            f(0, len);
            return;
        }
        // Busy flag is held from here; release it on every exit path.
        let job = Job {
            func: unsafe { FnPtr::erase(&f) },
            len,
            chunk,
            next: Arc::new(AtomicUsize::new(0)),
            done: Arc::new(AtomicUsize::new(0)),
            panic: Arc::new(Mutex::new(None)),
        };
        {
            let mut slot = self.shared.slot.lock().expect("pool slot poisoned");
            slot.epoch += 1;
            slot.job = Some(job.clone());
        }
        self.shared.work_cv.notify_all();

        // Participate: grab chunks alongside the workers.
        run_chunks(&self.shared, &job);

        // Await full completion before the closure (and its captures) can
        // drop. Workers notify under the slot lock, so the standard
        // check-then-wait loop cannot miss a wakeup.
        {
            let mut slot = self.shared.slot.lock().expect("pool slot poisoned");
            while job.done.load(Ordering::Acquire) < len {
                slot = self.shared.done_cv.wait(slot).expect("pool slot poisoned");
            }
            slot.job = None;
        }
        self.busy.store(false, Ordering::Release);

        let payload = job.panic.lock().expect("pool panic slot poisoned").take();
        if let Some(p) = payload {
            resume_unwind(p);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock().expect("pool slot poisoned");
            slot.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    IN_WORKER.with(|w| *w.borrow_mut() = true);
    let mut seen = 0u64;
    loop {
        let job = {
            let mut slot = shared.slot.lock().expect("pool slot poisoned");
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.epoch != seen {
                    seen = slot.epoch;
                    if let Some(job) = slot.job.clone() {
                        break job;
                    }
                }
                slot = shared.work_cv.wait(slot).expect("pool slot poisoned");
            }
        };
        run_chunks(shared, &job);
    }
}

/// Grabs chunks off `job.next` until the range is exhausted. Panics inside
/// the closure are caught per-chunk (first payload kept) so `done` always
/// reaches `len` and the dispatcher cannot hang; remaining chunks still run,
/// which is harmless because chunks are independent by contract.
fn run_chunks(shared: &Shared, job: &Job) {
    // SAFETY: see FnPtr — the dispatcher blocks until `done == len`, and we
    // only dereference while chunks remain unfinished.
    let f = unsafe { &*job.func.0 };
    loop {
        let start = job.next.fetch_add(job.chunk, Ordering::Relaxed);
        if start >= job.len {
            return;
        }
        let end = (start + job.chunk).min(job.len);
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(start, end))) {
            let mut panic_slot = job.panic.lock().expect("pool panic slot poisoned");
            if panic_slot.is_none() {
                *panic_slot = Some(p);
            }
        }
        let finished = job.done.fetch_add(end - start, Ordering::AcqRel) + (end - start);
        if finished >= job.len {
            // Notify under the slot lock so the dispatcher's
            // check-then-wait cannot race with this wakeup.
            let _guard = shared.slot.lock().expect("pool slot poisoned");
            shared.done_cv.notify_all();
            return;
        }
    }
}

/// Worker-count policy: `UCAD_THREADS` if set (clamped to `1..=64`),
/// otherwise the host's available parallelism capped at 8.
pub fn default_threads() -> usize {
    match std::env::var("UCAD_THREADS") {
        Ok(v) => v
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or(1)
            .min(64),
        Err(_) => thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(8),
    }
}

/// The process-wide pool, created on first use with [`default_threads`]
/// workers. Publishes its size as the `ucad_pool_threads` gauge in the
/// global metrics registry (a gauge, not a counter, so the golden counter
/// wall stays thread-count independent).
pub fn global() -> &'static Arc<Pool> {
    static GLOBAL: OnceLock<Arc<Pool>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let threads = default_threads();
        let registry = ucad_obs::global();
        registry.describe(
            "ucad_pool_threads",
            ucad_obs::MetricKind::Gauge,
            "Number of compute threads in the global kernel pool",
        );
        registry.gauge("ucad_pool_threads", &[]).set(threads as f64);
        Arc::new(Pool::new(threads))
    })
}

/// The pool the current thread should dispatch kernels on: the innermost
/// [`with_pool`] override if one is installed, otherwise [`global`].
pub fn current() -> Arc<Pool> {
    OVERRIDE
        .with(|o| o.borrow().clone())
        .unwrap_or_else(|| Arc::clone(global()))
}

/// Runs `f` with [`current`] resolving to `pool` on this thread. Nests and
/// unwinds safely (the previous override is restored on panic), so property
/// tests can exercise one kernel at several thread counts in-process.
pub fn with_pool<R>(pool: Arc<Pool>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<Pool>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| *o.borrow_mut() = self.0.take());
        }
    }
    let prev = OVERRIDE.with(|o| o.borrow_mut().replace(pool));
    let _restore = Restore(prev);
    f()
}

/// Runs `f` with every [`Pool::parallel_for`] on this thread executing
/// inline, exactly as if the thread were a pool worker. For callers that
/// parallelise at a coarser grain themselves, or that must not contend
/// for the pool (serving shard workers scoring one window). Nests and
/// unwinds safely (the previous state is restored on panic).
pub fn inline<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_WORKER.with(|w| *w.borrow_mut() = self.0);
        }
    }
    let prev = IN_WORKER.with(|w| std::mem::replace(&mut *w.borrow_mut(), true));
    let _restore = Restore(prev);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_degrades_dispatch_and_restores() {
        let pool = Pool::new(4);
        let calls = Mutex::new(Vec::new());
        inline(|| {
            pool.parallel_for(64, 1, |start, end| calls.lock().unwrap().push((start, end)));
            // Nested scopes keep the thread inline and restore on exit.
            inline(|| {});
            pool.parallel_for(8, 1, |start, end| calls.lock().unwrap().push((start, end)));
        });
        assert_eq!(*calls.lock().unwrap(), vec![(0, 64), (0, 8)]);
        assert!(!IN_WORKER.with(|w| *w.borrow()));
        let unwound = std::panic::catch_unwind(AssertUnwindSafe(|| inline(|| panic!("boom"))));
        assert!(unwound.is_err());
        assert!(!IN_WORKER.with(|w| *w.borrow()));
        assert!(cover(&pool, 64, 1).iter().all(|&h| h == 1));
    }

    fn cover(pool: &Pool, len: usize, min_chunk: usize) -> Vec<usize> {
        let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(len, min_chunk, |start, end| {
            for h in &hits[start..end] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        hits.into_iter().map(AtomicUsize::into_inner).collect()
    }

    #[test]
    fn covers_every_index_exactly_once() {
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            for len in [0, 1, 7, 64, 1000] {
                for min_chunk in [1, 8, 2000] {
                    let hits = cover(&pool, len, min_chunk);
                    assert!(
                        hits.iter().all(|&h| h == 1),
                        "threads={threads} len={len} min_chunk={min_chunk}: {hits:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn nested_dispatch_runs_inline_without_deadlock() {
        let pool = Pool::new(4);
        let total = AtomicUsize::new(0);
        pool.parallel_for(16, 1, |start, end| {
            // Nested call on the same pool: must degrade to inline.
            pool.parallel_for(4, 1, |s, e| {
                total.fetch_add((e - s) * (end - start), Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 16);
    }

    #[test]
    fn panic_in_chunk_propagates_to_dispatcher() {
        let pool = Pool::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(64, 1, |start, _end| {
                if start == 0 {
                    panic!("chunk zero exploded");
                }
            });
        }));
        let err = result.expect_err("panic should propagate");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "chunk zero exploded");
        // Pool must remain usable after a propagated panic.
        assert!(cover(&pool, 32, 1).iter().all(|&h| h == 1));
    }

    #[test]
    fn with_pool_overrides_current_and_restores() {
        let four = Arc::new(Pool::new(4));
        let two = Arc::new(Pool::new(2));
        with_pool(Arc::clone(&four), || {
            assert_eq!(current().threads(), 4);
            with_pool(Arc::clone(&two), || assert_eq!(current().threads(), 2));
            assert_eq!(current().threads(), 4);
        });
        let restored =
            std::panic::catch_unwind(AssertUnwindSafe(|| with_pool(two, || panic!("boom"))));
        assert!(restored.is_err());
        // Override must not leak past an unwound with_pool.
        assert_eq!(current().threads(), global().threads());
    }

    #[test]
    fn single_thread_pool_is_sequential_and_ordered() {
        let pool = Pool::new(1);
        let order = Mutex::new(Vec::new());
        pool.parallel_for(10, 3, |start, end| {
            order.lock().unwrap().push((start, end));
        });
        // One-thread pools run the whole range as a single inline call.
        assert_eq!(*order.lock().unwrap(), vec![(0, 10)]);
    }
}
