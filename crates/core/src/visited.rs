//! Approximate visited-set hash table (paper §4.5).
//!
//! Beam search must test "have I already added this vertex?" for every edge
//! it scans. The paper replaces an exact set with an *approximate hash
//! table with one-sided errors*: open addressing with a single slot per
//! position and overwrite-on-collision. A lookup can say "not seen" for a
//! vertex that was seen (it was evicted — the vertex is simply revisited),
//! but never "seen" for an unseen vertex, so correctness is unaffected.
//! The paper credits this with a 28.6–44.5% search speedup; the `ablations`
//! experiment reproduces the comparison.
//!
//! The table is sized at the square of the beam width, capped at 2¹⁶
//! slots, so collisions are rare. A slot is 8 bytes (an epoch stamp and
//! the id): 32 KB at beam 64 — L1-sized — but **512 KB at beam 256**,
//! which lives in L2, not L1. A search touches only the few thousand
//! slots its scanned edges hash to, and starting the next search costs one
//! increment whatever the table size: slots stamped with an older epoch
//! read as empty (CAGRA's "forgettable" hash table, PAPERS.md). Only when
//! the 32-bit epoch wraps, once per 2³² searches, is the table zeroed.

use parlay::hash64;

/// Approximate membership filter over `u32` ids with one-sided error.
pub struct ApproxFilter {
    /// `(epoch << 32) | id`; epoch 0 is never current, so zeroed slots
    /// are empty. May be longer than `mask + 1` after a wider search.
    slots: Vec<u64>,
    mask: u64,
    epoch: u32,
    /// Upper bound on the slots a reset may select; tests lower it to
    /// force evictions.
    #[cfg(test)]
    slot_cap: usize,
}

impl ApproxFilter {
    /// Table size used for a beam of width `beam` (`beam²`, rounded to a
    /// power of two and clamped to `[64, 2¹⁶]`).
    pub fn size_for_beam(beam: usize) -> usize {
        beam.saturating_mul(beam)
            .clamp(64, 1 << 16)
            .next_power_of_two()
    }

    /// A filter sized for a beam of width `beam` (see
    /// [`Self::size_for_beam`]).
    pub fn for_beam(beam: usize) -> Self {
        let mut filter = Self::without_table();
        filter.reset(beam);
        filter
    }

    /// A filter with no table yet; [`reset`](Self::reset) sizes it.
    fn without_table() -> Self {
        ApproxFilter {
            slots: Vec::new(),
            mask: 0,
            epoch: 0,
            #[cfg(test)]
            slot_cap: 1 << 16,
        }
    }

    /// Empties the filter and sizes it for `beam`. The allocation only
    /// ever grows: a narrower search masks down to a prefix of the table,
    /// whose stale entries the new epoch hides.
    pub fn reset(&mut self, beam: usize) {
        let size = Self::size_for_beam(beam);
        #[cfg(test)]
        let size = size.min(self.slot_cap);
        if self.slots.len() < size {
            self.slots = vec![0; size];
            self.epoch = 0;
        }
        self.mask = (size - 1) as u64;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.slots.fill(0);
            self.epoch = 1;
        }
    }

    #[inline]
    fn key(&self, id: u32) -> u64 {
        (self.epoch as u64) << 32 | id as u64
    }

    /// Inserts `id`; returns `true` if `id` was already present.
    /// On collision the previous occupant is evicted (one-sided error).
    #[inline]
    pub fn test_and_insert(&mut self, id: u32) -> bool {
        let slot = (hash64(id as u64) & self.mask) as usize;
        let key = self.key(id);
        if self.slots[slot] == key {
            true
        } else {
            self.slots[slot] = key;
            false
        }
    }

    /// Membership test without insertion.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        let slot = (hash64(id as u64) & self.mask) as usize;
        self.slots[slot] == self.key(id)
    }

    /// Jumps the epoch counter, so tests can cross its wrap-around.
    #[cfg(test)]
    pub(crate) fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// Caps every later reset at `cap` slots (a power of two).
    #[cfg(test)]
    pub(crate) fn set_slot_cap(&mut self, cap: usize) {
        assert!(cap.is_power_of_two());
        self.slot_cap = cap;
    }
}

/// Exact or approximate visited filter; the exact variant exists for the
/// §4.5 ablation (and as a reference implementation for tests). Both
/// tables are kept across [`reset`](Self::reset)s, so one scratch can
/// alternate modes without reallocating.
pub struct VisitedFilter {
    approx: ApproxFilter,
    exact: std::collections::HashSet<u32>,
    use_exact: bool,
}

impl VisitedFilter {
    /// Builds the filter variant requested by the query parameters.
    pub fn new(approx: bool, beam: usize) -> Self {
        let mut filter = VisitedFilter {
            approx: ApproxFilter::without_table(),
            exact: std::collections::HashSet::new(),
            use_exact: false,
        };
        filter.reset(approx, beam);
        filter
    }

    /// Inserts `id`; returns whether it was already present.
    #[inline]
    pub fn test_and_insert(&mut self, id: u32) -> bool {
        if self.use_exact {
            !self.exact.insert(id)
        } else {
            self.approx.test_and_insert(id)
        }
    }

    /// Re-initializes for a new search with the given configuration,
    /// reusing the existing allocations (the
    /// [`SearchScratch`](crate::beam::SearchScratch) reuse path).
    pub fn reset(&mut self, approx: bool, beam: usize) {
        self.use_exact = !approx;
        if approx {
            self.approx.reset(beam);
        } else {
            self.exact.clear();
        }
    }

    /// The approximate table (tests cap its size and move its epoch).
    #[cfg(test)]
    pub(crate) fn approx_mut(&mut self) -> &mut ApproxFilter {
        &mut self.approx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_reports_unseen_as_seen() {
        let mut f = ApproxFilter::for_beam(16);
        for id in 0..10_000u32 {
            assert!(!f.contains(id), "fresh id must not be present");
            // test_and_insert on a fresh id may only return true if that id
            // is literally stored — impossible before insertion.
            let seen = f.test_and_insert(id);
            assert!(!seen, "one-sided error violated for id {id}");
        }
    }

    #[test]
    fn remembers_until_evicted() {
        let mut f = ApproxFilter::for_beam(64);
        f.test_and_insert(7);
        assert!(f.contains(7));
        assert!(f.test_and_insert(7));
    }

    #[test]
    fn eviction_causes_revisit_not_corruption() {
        // Force collisions with a tiny table.
        let mut f = ApproxFilter::for_beam(8);
        assert_eq!(f.slots.len(), 64);
        // Insert many ids; earlier ones may be evicted. Re-inserting an
        // evicted id returns false (treated as unseen) — a revisit.
        for id in 0..1000u32 {
            f.test_and_insert(id);
        }
        let revisits = (0..1000u32).filter(|&id| !f.contains(id)).count();
        assert!(revisits > 0, "expected evictions in a 64-slot table");
        // But anything it claims to contain really was inserted.
        for slot in &f.slots {
            if *slot != 0 {
                assert!((*slot as u32) < 1000);
            }
        }
    }

    #[test]
    fn table_size_scales_with_beam() {
        let small = ApproxFilter::for_beam(8);
        let big = ApproxFilter::for_beam(128);
        assert!(small.slots.len() >= 64);
        assert_eq!(big.slots.len(), (128usize * 128).next_power_of_two());
        assert_eq!(ApproxFilter::size_for_beam(usize::MAX), 1 << 16);
    }

    #[test]
    fn reset_forgets_everything_including_across_the_epoch_wrap() {
        let mut f = ApproxFilter::for_beam(16);
        for start in [1u32, u32::MAX - 1] {
            f.set_epoch(start);
            for _ in 0..4 {
                f.test_and_insert(3);
                f.test_and_insert(99);
                f.reset(16);
                assert!(!f.contains(3) && !f.contains(99));
                assert!(!f.test_and_insert(3));
            }
        }
    }

    #[test]
    fn narrower_reset_keeps_the_allocation_and_hides_stale_entries() {
        let mut f = ApproxFilter::for_beam(64);
        let len = f.slots.len();
        for id in 0..500u32 {
            f.test_and_insert(id);
        }
        f.reset(8);
        assert_eq!(f.slots.len(), len);
        assert_eq!(f.mask, 63);
        assert!((0..500u32).all(|id| !f.contains(id)));
    }

    #[test]
    fn exact_filter_matches_hashset_semantics() {
        let mut f = VisitedFilter::new(false, 8);
        assert!(!f.test_and_insert(3));
        assert!(f.test_and_insert(3));
        f.reset(true, 8);
        assert!(!f.test_and_insert(3));
        f.reset(false, 8);
        assert!(!f.test_and_insert(3));
    }
}
