//! Type-erased units of work.
//!
//! A [`JobRef`] is a fat-pointer-by-hand (`*const ()` + an `unsafe fn`) so
//! that jobs of any concrete type can sit in the worker deques. The one
//! concrete job kind, [`StackJob`], lives on the stack of the thread that
//! created it (the second arm of a `join`, or the closure an external
//! thread injects). The creator *must* keep the job alive until its latch
//! is set; that is what makes the borrow-carrying closures of `join` sound.
//!
//! A job catches its closure's panic and stores the payload for the waiter
//! to rethrow.

use crate::latch::Latch;
use std::any::Any;
use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};

/// An erased pointer to a job plus its executor.
///
/// # Safety
/// The pointee must outlive the reference (enforced by the latch
/// protocol), and `execute` must be called at most once.
pub(crate) struct JobRef {
    pointer: *const (),
    execute_fn: unsafe fn(*const ()),
}

// Jobs only wrap `Send` closures (enforced at the construction sites).
unsafe impl Send for JobRef {}

impl JobRef {
    pub(crate) unsafe fn new<T>(data: *const T, execute_fn: unsafe fn(*const ())) -> JobRef {
        JobRef {
            pointer: data as *const (),
            execute_fn,
        }
    }

    #[inline]
    pub(crate) unsafe fn execute(self) {
        (self.execute_fn)(self.pointer)
    }
}

/// Result slot of a [`StackJob`].
pub(crate) enum JobResult<R> {
    /// Not yet executed.
    None,
    /// Completed with a value.
    Ok(R),
    /// The closure panicked; payload for `resume_unwind`.
    Panic(Box<dyn Any + Send>),
}

/// A job allocated on its creator's stack.
pub(crate) struct StackJob<L: Latch, F, R> {
    pub(crate) latch: L,
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<JobResult<R>>,
}

impl<L: Latch, F, R> StackJob<L, F, R>
where
    F: FnOnce() -> R,
{
    pub(crate) fn new(func: F, latch: L) -> Self {
        StackJob {
            latch,
            func: UnsafeCell::new(Some(func)),
            result: UnsafeCell::new(JobResult::None),
        }
    }

    /// Erases this job. Caller must keep `self` alive until the latch sets.
    pub(crate) unsafe fn as_job_ref(&self) -> JobRef {
        JobRef::new(self as *const Self as *const (), Self::execute_erased)
    }

    unsafe fn execute_erased(ptr: *const ()) {
        let this = &*(ptr as *const Self);
        // Exclusive access: a job executes exactly once, and the creator
        // does not touch `func`/`result` until the latch is set.
        let func = (*this.func.get()).take().expect("job executed twice");
        let result = match panic::catch_unwind(AssertUnwindSafe(func)) {
            Ok(value) => JobResult::Ok(value),
            Err(payload) => JobResult::Panic(payload),
        };
        *this.result.get() = result;
        // Final action: publishes `result` to whoever observes the latch.
        this.latch.set();
    }

    /// Takes the result. Only valid after the latch has been observed set.
    pub(crate) unsafe fn take_result(&self) -> JobResult<R> {
        std::mem::replace(&mut *self.result.get(), JobResult::None)
    }
}
