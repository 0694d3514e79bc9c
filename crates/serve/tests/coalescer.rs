//! Property tests for the queue's batching contract under work-conserving
//! dispatch, replayed on random push/take schedules (no threads, no clock,
//! fully reproducible):
//!
//! 1. a batch keeps FIFO order and holds `1 ≤ len ≤ max_block` requests:
//!    a whole block when that many are pending (`Full`), otherwise
//!    everything pending (`Idle`);
//! 2. `take` on a non-empty queue never returns nothing, and on an empty
//!    queue always does;
//! 3. shutdown's drain hands every remaining request out exactly once, in
//!    FIFO order, still respecting the block bound.

use parlayann_serve::{Coalescer, DispatchReason};
use proptest::prelude::*;
use std::collections::VecDeque;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn batching_contract_holds_on_random_schedules(
        max_block in 1usize..=8,
        ops in proptest::collection::vec((any::<bool>(), 1usize..12), 0..100),
    ) {
        let mut coal: Coalescer<u64> = Coalescer::new(max_block);
        let mut model = VecDeque::new();
        let mut next_id = 0u64;
        let mut dispatched: Vec<u64> = Vec::new();

        for (submit, count) in ops {
            if submit {
                // A burst of `count` submits.
                for _ in 0..count {
                    coal.push(next_id);
                    model.push_back(next_id);
                    next_id += 1;
                }
                prop_assert_eq!(coal.len(), model.len());
                continue;
            }
            // An idle worker takes the next batch.
            let pending = model.len();
            let Some((reason, batch)) = coal.take() else {
                prop_assert_eq!(pending, 0, "take returned nothing from a non-empty queue");
                continue;
            };
            prop_assert!(pending > 0, "take dispatched from an empty queue");
            prop_assert!(!batch.is_empty() && batch.len() <= max_block);
            prop_assert_eq!(batch.len(), pending.min(max_block), "batch is not the whole head");
            let expect_reason = if batch.len() == max_block {
                DispatchReason::Full
            } else {
                DispatchReason::Idle
            };
            prop_assert_eq!(reason, expect_reason);
            for id in batch {
                prop_assert_eq!(Some(id), model.pop_front(), "take broke FIFO order");
                dispatched.push(id);
            }
            prop_assert_eq!(coal.len(), model.len());
        }

        // Shutdown: drain must hand out every remaining request exactly
        // once, FIFO, in ≤ max_block chunks.
        let batches = coal.drain_all();
        prop_assert!(coal.is_empty());
        prop_assert!(coal.take().is_none());
        for batch in &batches {
            prop_assert!(!batch.is_empty());
            prop_assert!(batch.len() <= max_block);
            for &id in batch {
                prop_assert_eq!(Some(id), model.pop_front(), "drain broke FIFO order");
                dispatched.push(id);
            }
        }
        prop_assert!(model.is_empty(), "drain lost requests");

        // Exactly-once, overall FIFO: the dispatched ids are 0..n in order.
        prop_assert_eq!(dispatched, (0..next_id).collect::<Vec<_>>());
    }
}
