//! The request queue: pure batching logic, no threads, no clock.
//!
//! The coalescer owns the FIFO of pending requests and hands out batches.
//! Keeping it free of time sources and synchronization is what makes
//! serving testable: the production server's workers call
//! [`take`](Coalescer::take) under the state lock, the deterministic tests
//! call the very same code from [`crate::Server::pump`], and the property
//! tests drive it with synthetic requests — all three see identical
//! batches for identical inputs.
//!
//! ## Work-conserving dispatch
//!
//! Whenever a worker is idle and the queue is not empty, the worker takes
//! the oldest `min(len, max_block)` requests. Nothing waits for a batch to
//! grow: search answers do not depend on how queries are grouped, and a
//! batch runs as one pool task per query, so holding a request back buys
//! no throughput. Batches grow only under backlog, while every worker is
//! busy, and `max_block` bounds them there.
//!
//! Dispatch order is strictly FIFO, so a dispatched block is always a
//! prefix of the pending queue and no request can starve behind newer
//! ones.

use std::collections::VecDeque;

/// Why a batch was dispatched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchReason {
    /// At least `max_block` requests were pending: a whole block left.
    Full,
    /// A free worker took everything pending, less than a whole block.
    Idle,
    /// The server is shutting down and draining its queue.
    Drain,
}

/// FIFO request queue handing out blocks of at most `max_block`.
pub struct Coalescer<R> {
    pending: VecDeque<R>,
    max_block: usize,
}

impl<R> Coalescer<R> {
    /// A coalescer forming batches of at most `max_block` requests
    /// (clamped to at least 1).
    pub fn new(max_block: usize) -> Self {
        Coalescer {
            pending: VecDeque::new(),
            max_block: max_block.max(1),
        }
    }

    /// Number of pending requests.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Enqueues a request (FIFO).
    pub fn push(&mut self, req: R) {
        self.pending.push_back(req);
    }

    /// The next batch for an idle worker: the oldest `min(len, max_block)`
    /// requests, [`Full`](DispatchReason::Full) when that is a whole block
    /// and [`Idle`](DispatchReason::Idle) otherwise. `None` only when the
    /// queue is empty. Each call hands out at most one batch, so a backlog
    /// of `2·max_block + 1` yields two full batches and one idle batch from
    /// three calls.
    pub fn take(&mut self) -> Option<(DispatchReason, Vec<R>)> {
        if self.pending.is_empty() {
            return None;
        }
        let block = self.pop_block();
        let reason = if block.len() == self.max_block {
            DispatchReason::Full
        } else {
            DispatchReason::Idle
        };
        Some((reason, block))
    }

    /// Shutdown path: empties the queue into FIFO batches of at most
    /// `max_block`. After this the queue is empty, and every request that
    /// was pending appears in exactly one batch.
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

    #[test]
    fn empty_queue_is_idle() {
        let mut c: Coalescer<u32> = Coalescer::new(4);
        assert!(c.take().is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn take_never_waits_for_a_deadline() {
        // One request, far below the block bound: it leaves on the first
        // take, with nothing to wait for.
        let mut c = Coalescer::new(4);
        c.push(0);
        assert_eq!(c.take(), Some((DispatchReason::Idle, vec![0])));
        assert!(c.take().is_none());
    }

    #[test]
    fn idle_take_takes_everything_pending() {
        let mut c = Coalescer::new(8);
        for i in 0..3 {
            c.push(i);
        }
        assert_eq!(c.take(), Some((DispatchReason::Idle, vec![0, 1, 2])));
        assert!(c.is_empty());
    }

    #[test]
    fn full_trigger_fires_before_any_deadline() {
        let mut c = Coalescer::new(2);
        for i in 0..3 {
            c.push(i);
        }
        assert_eq!(c.take(), Some((DispatchReason::Full, vec![0, 1])));
        // The remainder goes out at once, below the bound.
        assert_eq!(c.take(), Some((DispatchReason::Idle, vec![2])));
        assert!(c.take().is_none());
    }

    #[test]
    fn drain_chunks_fifo_exactly_once() {
        let mut c = Coalescer::new(3);
        for i in 0..7u32 {
            c.push(i);
        }
        let batches = c.drain_all();
        assert_eq!(
            batches.iter().map(|b| b.len()).collect::<Vec<_>>(),
            vec![3, 3, 1]
        );
        let ids: Vec<u32> = batches.into_iter().flatten().collect();
        assert_eq!(ids, (0..7).collect::<Vec<_>>());
        assert!(c.is_empty());
    }
}
