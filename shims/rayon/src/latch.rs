//! Completion signalling between tasks.
//!
//! A *latch* is a one-shot "this job is done" flag. Two variants cover the
//! two waiting situations in the pool:
//!
//! * [`SpinLatch`] — set by whichever worker executes a stolen `join` arm;
//!   probed from a worker's steal-while-wait loop. Setting also pokes the
//!   registry's idle condvar so sleeping workers re-check for work.
//! * [`LockLatch`] — mutex + condvar, for *external* (non-worker) threads
//!   blocking on a job they injected into a pool.

use crate::registry::Registry;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

/// Something a job can set exactly once on completion.
pub(crate) trait Latch {
    /// Marks completion. Must be the job's final action: the memory written
    /// by the job happens-before any probe that observes the set.
    fn set(&self);
}

/// One-shot flag probed from worker steal loops.
pub(crate) struct SpinLatch<'r> {
    set: AtomicBool,
    registry: &'r Registry,
}

impl<'r> SpinLatch<'r> {
    pub(crate) fn new(registry: &'r Registry) -> Self {
        SpinLatch {
            set: AtomicBool::new(false),
            registry,
        }
    }

    /// `true` once [`set`](Latch::set) has been called (acquires the job's
    /// writes).
    #[inline]
    pub(crate) fn probe(&self) -> bool {
        self.set.load(Ordering::Acquire)
    }
}

impl Latch for SpinLatch<'_> {
    fn set(&self) {
        // Copy the registry reference out FIRST: the instant the flag
        // stores, the joiner may observe it, take the result, and pop the
        // stack frame holding this latch — `self` dangles. The registry
        // itself outlives the join (the worker holds its Arc).
        let registry = self.registry;
        self.set.store(true, Ordering::Release);
        // Wake any worker napping in the idle loop so the joiner notices
        // promptly even when it has dozed off.
        registry.notify_all();
    }
}

/// Blocking latch for threads outside any pool.
pub(crate) struct LockLatch {
    done: Mutex<bool>,
    cond: Condvar,
}

impl LockLatch {
    pub(crate) fn new() -> Self {
        LockLatch {
            done: Mutex::new(false),
            cond: Condvar::new(),
        }
    }

    /// Blocks the calling thread until the latch is set.
    pub(crate) fn wait(&self) {
        let mut done = self.done.lock().unwrap();
        while !*done {
            done = self.cond.wait(done).unwrap();
        }
    }
}

impl Latch for LockLatch {
    fn set(&self) {
        let mut done = self.done.lock().unwrap();
        *done = true;
        self.cond.notify_all();
    }
}
