//! The request coalescer: pure batching logic, no threads, no clock.
//!
//! The coalescer owns the FIFO of pending requests and decides, given the
//! current time, whether a batch should be dispatched. Keeping it free of
//! time sources and synchronization is what makes serving testable: the
//! production server drives [`poll`](Coalescer::poll) from a background
//! thread with a wall clock, the deterministic tests drive the very same
//! code single-stepped with a [`crate::clock::ManualClock`], and the
//! property tests drive it with synthetic requests — all three see
//! identical batching decisions for identical inputs.
//!
//! ## The dual trigger
//!
//! A batch forms when either
//!
//! * **full**: at least `max_block` requests are pending (dispatch cost is
//!   amortized as well as it ever will be, no reason to wait), or
//! * **deadline**: the *most urgent* pending request's deadline has
//!   arrived (waiting any longer would break its latency budget), in
//!   which case every pending request rides along — the queue is below
//!   the block bound at that point (or the full trigger would have
//!   fired), so the urgent request is always in the dispatched batch
//!   even when it is not the oldest. Budgets are per request, so the
//!   most urgent request need not be the oldest one.
//!
//! Dispatch order is strictly FIFO, so a dispatched block is always a
//! prefix of the pending queue and no request can starve behind newer
//! ones.

use std::collections::VecDeque;

/// A queued item with a dispatch deadline. Implemented by the server's
/// pending-request type and by the property tests' model requests.
pub trait Deadlined {
    /// Latest time (clock ns) by which this item must be in a dispatched
    /// batch.
    fn deadline_ns(&self) -> u64;
}

/// Why a batch was dispatched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchReason {
    /// `max_block` requests were pending.
    Full,
    /// The most urgent pending request's deadline arrived (not
    /// necessarily the oldest — budgets are per request).
    Deadline,
    /// The server is shutting down and draining its queue.
    Drain,
}

/// One [`Coalescer::poll`] decision.
#[derive(Debug)]
pub enum Poll<R> {
    /// Dispatch this batch now (never empty, never longer than
    /// `max_block`). More batches may be ready — poll again.
    Dispatch(DispatchReason, Vec<R>),
    /// Nothing to do until the given time (the most urgent, i.e. earliest,
    /// pending deadline — not necessarily the oldest request's), unless a
    /// new request arrives first.
    WaitUntil(u64),
    /// The queue is empty.
    Idle,
}

/// FIFO request queue + the dual-trigger batching decision.
pub struct Coalescer<R> {
    pending: VecDeque<R>,
    max_block: usize,
    /// Admission bound on the pending queue (0 = unbounded).
    capacity: usize,
}

impl<R: Deadlined> Coalescer<R> {
    /// A coalescer forming batches of at most `max_block` requests
    /// (clamped to at least 1), with an unbounded queue.
    pub fn new(max_block: usize) -> Self {
        Self::with_capacity(max_block, 0)
    }

    /// [`new`](Self::new) with an admission bound: [`try_push`]
    /// (Self::try_push) refuses requests once `capacity` are pending
    /// (0 = unbounded). Overload is then shed at the queue's edge
    /// instead of being absorbed into unbounded tail latency.
    pub fn with_capacity(max_block: usize, capacity: usize) -> Self {
        Coalescer {
            pending: VecDeque::new(),
            max_block: max_block.max(1),
            capacity,
        }
    }

    /// The configured batch bound.
    pub fn max_block(&self) -> usize {
        self.max_block
    }

    /// The admission bound (0 = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether the queue is at its admission bound.
    pub fn is_full(&self) -> bool {
        self.capacity > 0 && self.pending.len() >= self.capacity
    }

    /// Number of pending requests.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Enqueues a request (FIFO), ignoring the admission bound (shutdown
    /// drains and tests use this; admission-controlled callers use
    /// [`try_push`](Self::try_push)).
    pub fn push(&mut self, req: R) {
        self.pending.push_back(req);
    }

    /// Enqueues a request unless the queue is at capacity, in which case
    /// the request is handed back for the caller to shed.
    pub fn try_push(&mut self, req: R) -> Result<(), R> {
        if self.is_full() {
            Err(req)
        } else {
            self.pending.push_back(req);
            Ok(())
        }
    }

    /// One batching decision at time `now_ns`. Callers loop while this
    /// returns [`Poll::Dispatch`] — each call hands out at most one
    /// batch, so a backlog of `2·max_block` yields two full batches from
    /// two calls (this is what "single-stepped" means in the
    /// deterministic test mode).
    pub fn poll(&mut self, now_ns: u64) -> Poll<R> {
        if self.pending.len() >= self.max_block {
            return Poll::Dispatch(DispatchReason::Full, self.pop_block());
        }
        // Below the block bound: the trigger is the earliest deadline over
        // the (short — less than max_block) queue, and a deadline dispatch
        // takes the whole queue, so the urgent request is always included.
        match self.pending.iter().map(Deadlined::deadline_ns).min() {
            None => Poll::Idle,
            Some(urgent) if urgent <= now_ns => {
                Poll::Dispatch(DispatchReason::Deadline, self.pop_block())
            }
            Some(urgent) => Poll::WaitUntil(urgent),
        }
    }

    /// Shutdown path: empties the queue into FIFO batches of at most
    /// `max_block`, ignoring deadlines. After this the queue is empty, and
    /// every request that was pending appears in exactly one batch.
    pub fn drain_all(&mut self) -> Vec<Vec<R>> {
        let mut batches = Vec::new();
        while !self.pending.is_empty() {
            batches.push(self.pop_block());
        }
        batches
    }

    /// Pops the oldest `min(len, max_block)` requests.
    fn pop_block(&mut self) -> Vec<R> {
        let take = self.pending.len().min(self.max_block);
        self.pending.drain(..take).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Req {
        id: u32,
        deadline: u64,
    }

    impl Deadlined for Req {
        fn deadline_ns(&self) -> u64 {
            self.deadline
        }
    }

    fn req(id: u32, deadline: u64) -> Req {
        Req { id, deadline }
    }

    #[test]
    fn empty_queue_is_idle() {
        let mut c: Coalescer<Req> = Coalescer::new(4);
        assert!(matches!(c.poll(0), Poll::Idle));
        assert!(c.is_empty());
    }

    #[test]
    fn waits_until_most_urgent_deadline() {
        let mut c = Coalescer::new(4);
        c.push(req(0, 100));
        c.push(req(1, 50)); // newer but more urgent — the trigger keys on it
        match c.poll(10) {
            Poll::WaitUntil(t) => assert_eq!(t, 50),
            other => panic!("expected WaitUntil, got {other:?}"),
        }
        // At t=50 the urgent request drags the whole (FIFO) queue out.
        match c.poll(50) {
            Poll::Dispatch(DispatchReason::Deadline, batch) => {
                assert_eq!(batch.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0, 1]);
            }
            other => panic!("expected Dispatch, got {other:?}"),
        }
    }

    #[test]
    fn deadline_trigger_takes_everything_pending() {
        let mut c = Coalescer::new(8);
        c.push(req(0, 100));
        c.push(req(1, 900));
        c.push(req(2, 900));
        match c.poll(100) {
            Poll::Dispatch(DispatchReason::Deadline, batch) => {
                assert_eq!(
                    batch.iter().map(|r| r.id).collect::<Vec<_>>(),
                    vec![0, 1, 2]
                );
            }
            other => panic!("expected Dispatch, got {other:?}"),
        }
        assert!(matches!(c.poll(100), Poll::Idle));
    }

    #[test]
    fn full_trigger_fires_before_any_deadline() {
        let mut c = Coalescer::new(2);
        c.push(req(0, u64::MAX));
        c.push(req(1, u64::MAX));
        c.push(req(2, u64::MAX));
        match c.poll(0) {
            Poll::Dispatch(DispatchReason::Full, batch) => {
                assert_eq!(batch.len(), 2);
                assert_eq!(batch[0].id, 0);
                assert_eq!(batch[1].id, 1);
            }
            other => panic!("expected full Dispatch, got {other:?}"),
        }
        // The remainder is below the block bound and not yet late.
        assert!(matches!(c.poll(0), Poll::WaitUntil(_)));
    }

    #[test]
    fn capacity_bounds_try_push_but_not_drains() {
        let mut c = Coalescer::new(2);
        assert_eq!(c.capacity(), 0);
        for i in 0..100 {
            assert!(c.try_push(req(i, 1)).is_ok(), "unbounded never sheds");
        }

        let mut c = Coalescer::with_capacity(2, 3);
        for i in 0..3 {
            assert!(c.try_push(req(i, 1)).is_ok());
        }
        assert!(c.is_full());
        let shed = c.try_push(req(9, 1)).expect_err("over capacity");
        assert_eq!(shed.id, 9);
        // Dispatch frees space; admission resumes.
        assert!(matches!(c.poll(0), Poll::Dispatch(DispatchReason::Full, _)));
        assert!(c.try_push(req(10, 1)).is_ok());
        // Plain push ignores the bound (drain/compat path).
        c.push(req(11, 1));
        c.push(req(12, 1));
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn drain_chunks_fifo_exactly_once() {
        let mut c = Coalescer::new(3);
        for i in 0..7 {
            c.push(req(i, u64::MAX));
        }
        // poll would dispatch full blocks; drain handles the tail too.
        let batches = c.drain_all();
        assert_eq!(
            batches.iter().map(|b| b.len()).collect::<Vec<_>>(),
            vec![3, 3, 1]
        );
        let ids: Vec<u32> = batches.iter().flatten().map(|r| r.id).collect();
        assert_eq!(ids, (0..7).collect::<Vec<_>>());
        assert!(c.is_empty());
    }
}
