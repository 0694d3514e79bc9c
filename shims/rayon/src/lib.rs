//! Offline work-stealing stand-in for [rayon](https://docs.rs/rayon) with
//! the API subset this workspace uses.
//!
//! The build container has no access to a crates registry, so the workspace
//! vendors shims for its external dependencies (see `shims/` in the repo
//! root). Until PR 2 this crate mapped rayon's fork-join API onto
//! *sequential* execution; it is now a real fork-join pool, pure `std`:
//!
//! * **[`join`]** forks its second closure onto the calling worker's deque,
//!   runs the first inline, and steals other tasks while waiting if the
//!   fork was taken by another worker. Both-panic semantics match rayon
//!   (the first closure's panic wins).
//! * **Workers & stealing** — per-worker mutex-protected deques (LIFO local
//!   pop, FIFO steal), an injector queue for external threads, and
//!   spin-then-nap idling. See the `registry` module docs.
//! * **[`iter`]** — indexed parallel iterators (`par_iter`, `into_par_iter`
//!   over ranges, `par_chunks`, `map`/`enumerate`/`zip`/`with_min_len`/
//!   `flat_map_iter`, `for_each`/`collect`/`sum`) whose split tree is a
//!   pure function of input length — *not* of worker count — so reduction
//!   order is deterministic (the property every build in this workspace
//!   relies on; see the module docs).
//! * **[`ThreadPool`]** — genuinely bounded pools: `install` runs its
//!   closure *on* the pool's workers, so work inside really uses `n`
//!   threads, and [`current_num_threads`] inside a worker reports the pool
//!   that owns the thread (nested `install`s included).
//!
//! The global pool spawns lazily on first use with
//! `PARLAY_NUM_THREADS`/`RAYON_NUM_THREADS` (else the machine's available
//! parallelism) workers. Pools of one thread run fork-join work inline —
//! `with_threads(1, …)` is exactly the old sequential shim.
//!
//! Swapping crates.io rayon back in remains a one-line change in the
//! workspace manifest: the API surface is call-compatible. Known deltas vs
//! the real crate: only the subset above is implemented (no `scope` or
//! `spawn`: nothing in the workspace spawns tasks outside a `join`), and
//! iterator splitting is static rather than steal-adaptive (deliberate, for
//! determinism).

mod job;
mod latch;
mod registry;

pub mod iter;

use job::{JobResult, StackJob};
use latch::SpinLatch;
use registry::{current_registry, global_registry, Registry};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Runs both closures, potentially in parallel, and returns both results.
///
/// `b` is made available for stealing while the calling thread runs `a`;
/// if nobody stole it, the caller runs it too (so a 1-thread pool degrades
/// to exactly `(a(), b())`). Called from outside any pool, the whole join
/// is shipped to the global pool and the caller blocks.
///
/// If `a` panics, its panic is rethrown after `b` completes; otherwise a
/// panic from `b` is rethrown.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    match current_registry() {
        Some((registry, index)) => {
            if registry.num_threads() == 1 {
                return (a(), b());
            }
            join_on_worker(registry, index, a, b)
        }
        None => {
            let registry = global_registry();
            if registry.num_threads() == 1 {
                return (a(), b());
            }
            Arc::clone(registry).in_worker(move || join(a, b))
        }
    }
}

fn join_on_worker<A, B, RA, RB>(registry: &Registry, index: usize, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let job_b = StackJob::new(b, SpinLatch::new(registry));
    // SAFETY: `job_b` lives on this frame and we do not return before its
    // latch is set (the wait below), so the erased reference stays valid.
    unsafe { registry.push_local(index, job_b.as_job_ref()) };
    let result_a = panic::catch_unwind(AssertUnwindSafe(a));
    // Execute other tasks (possibly job_b itself, still in our deque) until
    // job_b is done, wherever it ran.
    registry.wait_until(index, || job_b.latch.probe());
    let result_b = unsafe { job_b.take_result() };
    let ra = match result_a {
        Ok(ra) => ra,
        // `a`'s panic wins; `b` has completed (above), its outcome is moot.
        Err(payload) => panic::resume_unwind(payload),
    };
    match result_b {
        JobResult::Ok(rb) => (ra, rb),
        JobResult::Panic(payload) => panic::resume_unwind(payload),
        JobResult::None => unreachable!("join latch set without a result"),
    }
}

/// Number of workers in the pool that owns the current thread, or in the
/// global pool for threads outside any pool.
///
/// Inside [`ThreadPool::install`] the closure runs *on* the pool's workers,
/// so this reports that pool's size — including under nested installs,
/// where the innermost pool wins (its worker is running the closure).
pub fn current_num_threads() -> usize {
    match current_registry() {
        Some((registry, _)) => registry.num_threads(),
        None => global_registry().num_threads(),
    }
}

/// Error type matching `rayon::ThreadPoolBuildError`.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "failed to build thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder matching `rayon::ThreadPoolBuilder`.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests `n` worker threads (0 = the global default:
    /// `PARLAY_NUM_THREADS`/`RAYON_NUM_THREADS`, else the machine).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool, spawning its workers.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            registry::default_global_threads()
        } else {
            self.num_threads
        };
        let (registry, handles) = Registry::spawn(n);
        Ok(ThreadPool { registry, handles })
    }
}

/// A bounded worker pool. Dropping it shuts the workers down (pending work
/// is drained first).
pub struct ThreadPool {
    registry: Arc<Registry>,
    handles: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Runs `op` on this pool's workers, blocking until it completes.
    /// Fork-join work inside `op` uses exactly this pool. Re-entrant
    /// installs from a worker of this same pool run inline.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        match current_registry() {
            Some((registry, _)) if std::ptr::eq(registry, &*self.registry) => op(),
            _ => self.registry.in_worker(op),
        }
    }

    /// The worker count this pool was built with.
    pub fn current_num_threads(&self) -> usize {
        self.registry.num_threads()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.registry.terminate();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

pub mod prelude {
    //! Drop-in replacement for `rayon::prelude`.
    pub use crate::iter::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator, ParallelIterator,
        ParallelSlice,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn join_returns_both() {
        assert_eq!(join(|| 1, || "x"), (1, "x"));
    }

    #[test]
    fn install_sets_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.install(current_num_threads), 3);
        let nested = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        pool.install(|| assert_eq!(nested.install(current_num_threads), 1));
    }

    #[test]
    fn worker_reports_owning_pool_not_ambient() {
        // A worker's thread-local registry decides current_num_threads: a
        // pool-2 worker must say 2 even while a pool-5 install is on the
        // stack of a *different* thread.
        let outer = ThreadPoolBuilder::new().num_threads(5).build().unwrap();
        let inner = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let seen = outer.install(|| {
            assert_eq!(current_num_threads(), 5);
            inner.install(|| (current_num_threads(), join(current_num_threads, || ())))
        });
        assert_eq!(seen.0, 2);
        assert_eq!(seen.1 .0, 2);
    }

    #[test]
    fn iterator_shims_behave_like_std() {
        let v = vec![1u32, 2, 3, 4];
        let doubled: Vec<u32> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8]);
        let sum: u32 = (0u32..5).into_par_iter().sum();
        assert_eq!(sum, 10);
        let chunks: Vec<&[u32]> = v.par_chunks(3).collect();
        assert_eq!(chunks, vec![&v[0..3], &v[3..4]]);
        let flat: Vec<u32> = v.par_iter().flat_map_iter(|&x| [x, x]).collect();
        assert_eq!(flat, vec![1, 1, 2, 2, 3, 3, 4, 4]);
    }

    #[test]
    fn parallel_results_match_sequential() {
        let n = 100_000usize;
        let squares: Vec<u64> = (0..n as u64).into_par_iter().map(|i| i * i).collect();
        for (i, &x) in squares.iter().enumerate() {
            assert_eq!(x, (i * i) as u64);
        }
        let total: u64 = squares.par_iter().sum();
        assert_eq!(total, squares.iter().sum::<u64>());
        let pairs: Vec<(usize, u64)> = squares
            .par_iter()
            .enumerate()
            .map(|(i, &x)| (i, x))
            .collect();
        assert!(pairs.iter().enumerate().all(|(i, &(j, _))| i == j));
    }

    #[test]
    fn zip_and_min_len() {
        let a: Vec<u32> = (0..10_000).collect();
        let b: Vec<u32> = (0..9_000).map(|x| x * 2).collect();
        let zipped: Vec<u32> = a
            .par_iter()
            .zip(b.par_iter())
            .with_min_len(64)
            .map(|(&x, &y)| x + y)
            .collect();
        assert_eq!(zipped.len(), 9_000);
        assert!(zipped.iter().enumerate().all(|(i, &v)| v as usize == 3 * i));
    }
}
