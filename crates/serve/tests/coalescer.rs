//! Property tests for the coalescer's batching contract, replayed on a
//! deterministic manual clock (time is just a number here — no sleeps,
//! no wall clock, fully reproducible):
//!
//! 1. a formed batch never exceeds the block bound;
//! 2. no request sits in the queue past its deadline when the coalescer
//!    is polled (the deadline trigger fires), and a reported `WaitUntil`
//!    is exactly the most urgent (earliest) pending deadline;
//! 3. shutdown's drain hands every pending request out exactly once, in
//!    FIFO order, still respecting the block bound.

use parlayann_serve::{Coalescer, Deadlined, DispatchReason, Poll};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy, PartialEq)]
struct Req {
    id: u64,
    deadline: u64,
}

impl Deadlined for Req {
    fn deadline_ns(&self) -> u64 {
        self.deadline
    }
}

/// Polls until the coalescer stops dispatching, checking every batch
/// against the model queue; returns the dispatched ids.
fn poll_to_quiescence(
    coal: &mut Coalescer<Req>,
    model: &mut std::collections::VecDeque<Req>,
    now: u64,
    max_block: usize,
) -> Vec<u64> {
    let mut dispatched = Vec::new();
    loop {
        match coal.poll(now) {
            Poll::Dispatch(reason, batch) => {
                assert!(!batch.is_empty(), "empty batch dispatched");
                assert!(
                    batch.len() <= max_block,
                    "batch of {} exceeds block bound {}",
                    batch.len(),
                    max_block
                );
                match reason {
                    DispatchReason::Full => {
                        assert_eq!(batch.len(), max_block, "full trigger fired below the bound")
                    }
                    DispatchReason::Deadline => assert!(
                        batch.iter().any(|r| r.deadline <= now),
                        "deadline trigger fired with no due request at {now}"
                    ),
                    DispatchReason::Drain => panic!("poll never drains"),
                }
                for req in batch {
                    let expect = model.pop_front().expect("dispatched more than submitted");
                    assert_eq!(req, expect, "dispatch broke FIFO order");
                    dispatched.push(req.id);
                }
            }
            Poll::WaitUntil(t) => {
                let urgent = model
                    .iter()
                    .map(|r| r.deadline)
                    .min()
                    .expect("WaitUntil with empty queue");
                assert_eq!(t, urgent, "WaitUntil is not the most urgent deadline");
                assert!(t > now, "WaitUntil in the past means a missed dispatch");
                assert!(
                    model.len() < max_block,
                    "full batch left waiting on a deadline"
                );
                return dispatched;
            }
            Poll::Idle => {
                assert!(model.is_empty(), "Idle with requests still queued");
                return dispatched;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn batching_contract_holds_on_random_schedules(
        max_block in 1usize..=8,
        ops in proptest::collection::vec((0u8..3u8, 0u64..500u64), 0..100),
    ) {
        let mut coal: Coalescer<Req> = Coalescer::new(max_block);
        let mut model = std::collections::VecDeque::new();
        let mut now = 0u64;
        let mut next_id = 0u64;
        let mut dispatched: Vec<u64> = Vec::new();

        for (op, arg) in ops {
            match op {
                // Submit with a latency budget of `arg` time units.
                0 => {
                    let req = Req { id: next_id, deadline: now + arg };
                    next_id += 1;
                    coal.push(req);
                    model.push_back(req);
                }
                // Time passes.
                1 => now += arg,
                // The server polls (as its coalescer thread would on any
                // wake-up); everything due must leave the queue now.
                _ => {
                    dispatched.extend(poll_to_quiescence(&mut coal, &mut model, now, max_block));
                    // Post-condition of a quiescent poll: nothing still
                    // pending is past its deadline.
                    for r in &model {
                        prop_assert!(
                            r.deadline > now,
                            "request {} left waiting past its deadline",
                            r.id
                        );
                    }
                }
            }
            prop_assert_eq!(coal.len(), model.len());
        }

        // Shutdown: drain must hand out every remaining request exactly
        // once, FIFO, in ≤ max_block chunks.
        let batches = coal.drain_all();
        prop_assert!(coal.is_empty());
        for batch in &batches {
            prop_assert!(!batch.is_empty());
            prop_assert!(batch.len() <= max_block);
            for req in batch {
                let expect = model.pop_front().expect("drained more than submitted");
                prop_assert_eq!(*req, expect, "drain broke FIFO order");
                dispatched.push(req.id);
            }
        }
        prop_assert!(model.is_empty(), "drain lost requests");

        // Exactly-once, overall FIFO: the dispatched ids are 0..n in order.
        prop_assert_eq!(dispatched.len() as u64, next_id);
        for (i, id) in dispatched.iter().enumerate() {
            prop_assert_eq!(*id, i as u64, "request dispatched out of order or duplicated");
        }
    }
}
