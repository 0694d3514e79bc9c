//! Per-query trace spans.
//!
//! A [`Trace`] is one fixed-size, `Copy` record covering a query's whole
//! server-side life: queue wait → batch assembly → per-shard search
//! (including replica failovers) → merge → reply. The serve layer owns
//! the record; the store layer contributes its per-shard and merge
//! timings through a thread-local [`BatchSpans`] scratch installed by
//! the serving worker around the index call — this keeps the `AnnIndex`
//! trait signature (and therefore every index implementation) untouched.
//! Off the serve path the thread-local is absent and the store-side
//! hooks are a single borrow + `None` check.

use std::cell::RefCell;

/// Per-shard span slots carried inline in a trace record. Fan-outs
/// wider than this keep their histograms but drop the per-trace detail.
pub const TRACE_SHARD_SLOTS: usize = 8;

/// One query's span record. All durations are nanoseconds; batch-scoped
/// stages (assembly, search, merge, reply) are shared by every query in
/// the batch, per-query stages (queue wait, totals, engine work) are
/// individual.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// Monotonic per-domain trace sequence number.
    pub seq: u64,
    /// Store generation that served the query.
    pub generation: u64,
    /// Number of queries coalesced into the batch.
    pub batch_size: u32,
    /// Dispatch reason: 0 = full block, 1 = idle worker took less, 2 = drain.
    pub reason: u8,
    /// Number of valid entries in `shard_ns`.
    pub shard_spans: u8,
    /// True when at least one probed shard had no live replica.
    pub degraded: bool,
    /// Shards selected by routing.
    pub routed_shards: u16,
    /// Shards that answered.
    pub probed_shards: u16,
    /// Replica failovers while serving this query's batch.
    pub failovers: u16,
    /// Submit → dispatch wait in the coalescer queue.
    pub queue_ns: u64,
    /// Batch assembly (gathering queries into the block `PointSet`).
    pub assemble_ns: u64,
    /// The index call: fan-out + per-shard search + merge.
    pub search_ns: u64,
    /// Merge portion of `search_ns` (k-way merge of shard results).
    pub merge_ns: u64,
    /// Filling responses and waking waiters.
    pub reply_ns: u64,
    /// Submit → reply, the server-side latency the client would see.
    pub total_ns: u64,
    /// Distance computations charged to this query (engine stats).
    pub dist_comps: u32,
    /// Beam-search hops charged to this query (engine stats).
    pub hops: u32,
    /// Per-shard `(storage slot, search ns)` for the first
    /// [`TRACE_SHARD_SLOTS`] probed shards, in probe order.
    pub shard_ns: [(u16, u32); TRACE_SHARD_SLOTS],
}

/// Store-layer span scratch for the batch currently executing on this
/// thread. Installed by the serve worker, filled by `ShardedIndex`.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchSpans {
    pub shard_ns: [(u16, u32); TRACE_SHARD_SLOTS],
    pub len: u8,
    pub merge_ns: u64,
}

impl BatchSpans {
    fn push_shard(&mut self, slot: usize, ns: u64) {
        if (self.len as usize) < TRACE_SHARD_SLOTS {
            self.shard_ns[self.len as usize] = (
                slot.min(u16::MAX as usize) as u16,
                ns.min(u32::MAX as u64) as u32,
            );
            self.len += 1;
        }
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<BatchSpans>> = const { RefCell::new(None) };
}

/// Arm the span scratch on this thread; the store-layer hooks write into
/// it until [`take_batch_spans`] disarms it.
pub fn begin_batch_spans() {
    ACTIVE.with(|a| *a.borrow_mut() = Some(BatchSpans::default()));
}

/// Disarm and return the scratch (None if never armed on this thread).
pub fn take_batch_spans() -> Option<BatchSpans> {
    ACTIVE.with(|a| a.borrow_mut().take())
}

/// Store hook: one shard sub-search took `ns` on storage slot `slot`.
/// No-op unless the calling thread has an armed scratch.
pub fn record_shard_span(slot: usize, ns: u64) {
    ACTIVE.with(|a| {
        if let Some(s) = a.borrow_mut().as_mut() {
            s.push_shard(slot, ns);
        }
    });
}

/// Store hook: the k-way merge for the current batch took `ns`.
pub fn record_merge_span(ns: u64) {
    ACTIVE.with(|a| {
        if let Some(s) = a.borrow_mut().as_mut() {
            s.merge_ns = s.merge_ns.saturating_add(ns);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_require_arming() {
        assert!(take_batch_spans().is_none());
        record_shard_span(3, 100); // silently ignored
        begin_batch_spans();
        record_shard_span(3, 100);
        record_shard_span(7, 250);
        record_merge_span(40);
        record_merge_span(2);
        let s = take_batch_spans().unwrap();
        assert_eq!(s.len, 2);
        assert_eq!(s.shard_ns[0], (3, 100));
        assert_eq!(s.shard_ns[1], (7, 250));
        assert_eq!(s.merge_ns, 42);
        assert!(take_batch_spans().is_none());
    }

    #[test]
    fn shard_slots_are_bounded() {
        begin_batch_spans();
        for i in 0..TRACE_SHARD_SLOTS + 4 {
            record_shard_span(i, 1);
        }
        let s = take_batch_spans().unwrap();
        assert_eq!(s.len as usize, TRACE_SHARD_SLOTS);
    }
}
