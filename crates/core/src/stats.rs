//! Search and build statistics.
//!
//! The paper reports distance comparisons per query alongside QPS
//! (Fig. 3d–f, Fig. 6c): for high-dimensional points, distance evaluations
//! dominate cost, so they are a machine-independent efficiency measure.
//! Every search counts them: they are part of the answer, and two integer
//! adds per hop cost nothing measurable.

/// Number of shard slots [`ShardSet`]'s bitmask covers exactly.
pub const SHARD_SET_BITS: usize = 256;

/// A small fixed bitset of shard slots, used to report which shards
/// failed (or were otherwise singled out) in a fan-out.
///
/// Earlier revisions used a bare `u64` mask whose slots ≥ 64 all aliased
/// onto bit 63, making the failed-shard report ambiguous for large
/// stores. This set keeps [`SearchStats`] `Copy` while removing the
/// ambiguity:
///
/// * slots `0..`[`SHARD_SET_BITS`] are tracked **exactly** in the mask
///   (membership and count);
/// * slots beyond the mask are not representable bit-by-bit, but they
///   still count: [`len`](Self::len) stays exact as long as each slot is
///   inserted at most once per set — which the sharded fan-out guarantees
///   (each slot is attempted once per query). [`contains`](Self::contains)
///   conservatively reports `false` for such slots; callers needing
///   per-slot health beyond 256 shards should consult
///   [`overflow`](Self::overflow) to detect that they are in that regime.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardSet {
    words: [u64; SHARD_SET_BITS / 64],
    /// Count of inserted slots ≥ [`SHARD_SET_BITS`] (not deduplicated —
    /// exact under the insert-once discipline documented above).
    overflow: u32,
}

impl ShardSet {
    /// The empty set.
    #[inline]
    pub const fn new() -> Self {
        ShardSet {
            words: [0; SHARD_SET_BITS / 64],
            overflow: 0,
        }
    }

    /// A set containing exactly `slot`.
    pub fn single(slot: usize) -> Self {
        let mut s = Self::new();
        s.insert(slot);
        s
    }

    /// Adds shard slot `slot` to the set.
    #[inline]
    pub fn insert(&mut self, slot: usize) {
        if slot < SHARD_SET_BITS {
            self.words[slot / 64] |= 1u64 << (slot % 64);
        } else {
            self.overflow += 1;
        }
    }

    /// Whether `slot` is in the set. Exact for slots below
    /// [`SHARD_SET_BITS`]; conservatively `false` beyond (see the type
    /// docs).
    #[inline]
    pub fn contains(&self, slot: usize) -> bool {
        slot < SHARD_SET_BITS && self.words[slot / 64] & (1u64 << (slot % 64)) != 0
    }

    /// Number of slots in the set (exact; see the type docs for the
    /// insert-once caveat on slots beyond the mask).
    #[inline]
    pub fn len(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum::<u32>() + self.overflow
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.overflow == 0 && self.words.iter().all(|&w| w == 0)
    }

    /// Unions `other` into `self` (masks OR; overflow counts add — under
    /// the insert-once discipline two sets being unioned never share an
    /// overflowed slot, so the sum stays exact).
    #[inline]
    pub fn union(&mut self, other: &ShardSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
        self.overflow += other.overflow;
    }

    /// The raw mask words, low slots first (fingerprinting/serialization).
    #[inline]
    pub fn words(&self) -> &[u64; SHARD_SET_BITS / 64] {
        &self.words
    }

    /// Inserted slots beyond the exact mask (0 for stores with at most
    /// [`SHARD_SET_BITS`] shards — i.e. essentially always).
    #[inline]
    pub fn overflow(&self) -> u32 {
        self.overflow
    }

    /// Iterates the mask-tracked slots in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..SHARD_SET_BITS).filter(move |&s| self.contains(s))
    }
}

impl std::fmt::Debug for ShardSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()?;
        if self.overflow > 0 {
            write!(f, "+{} beyond slot {}", self.overflow, SHARD_SET_BITS)?;
        }
        Ok(())
    }
}

impl FromIterator<usize> for ShardSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = ShardSet::new();
        for slot in iter {
            s.insert(slot);
        }
        s
    }
}

/// Per-query statistics from a beam search (or baseline scan).
///
/// Every search fills these in. The shard-health fields
/// (`routed_shards`, `probed_shards`, `failed_shards`, `failovers`) stay
/// zero for non-sharded indexes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Number of distance evaluations performed.
    pub dist_comps: usize,
    /// Number of vertices whose neighborhood was expanded (beam-search hops),
    /// or probes/lists scanned for the non-graph baselines.
    pub hops: usize,
    /// Shards the router **selected** for this query (0 = not a sharded
    /// search). Under full fan-out this is the shard count; under partial
    /// fan-out (`Routing { nprobe: p }`) it is `p` — the selected shards
    /// then either answer (counted in `probed_shards`) or turn out down
    /// (recorded in `failed_shards`).
    pub routed_shards: u32,
    /// Shards that contributed to this result (0 = not a sharded search).
    pub probed_shards: u32,
    /// Selected shard slots whose every replica was unavailable — the
    /// result is **degraded**: correct over the surviving selected
    /// shards, silent on the failed ones. Exact membership for slots
    /// < [`SHARD_SET_BITS`], exact count always (see [`ShardSet`]).
    pub failed_shards: ShardSet,
    /// Replica attempts that failed and were downgraded to the next
    /// replica while answering.
    pub failovers: u32,
}

impl SearchStats {
    /// Accumulates another query's stats (for averaging over a query set).
    /// Counters add; `failed_shards` sets union. A sharded search
    /// overwrites the shard-health fields with its own view after merging
    /// its children, so nested stores report the outermost layer's
    /// topology.
    pub fn merge(&mut self, other: &SearchStats) {
        self.dist_comps += other.dist_comps;
        self.hops += other.hops;
        self.routed_shards += other.routed_shards;
        self.probed_shards += other.probed_shards;
        self.failed_shards.union(&other.failed_shards);
        self.failovers += other.failovers;
    }

    /// Whether any shard was silently missing from this result.
    #[inline]
    pub fn degraded(&self) -> bool {
        !self.failed_shards.is_empty()
    }
}

/// Statistics from an index build.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildStats {
    /// Wall-clock build time in seconds.
    pub seconds: f64,
    /// Total distance evaluations during construction.
    pub dist_comps: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = SearchStats {
            dist_comps: 3,
            hops: 1,
            ..Default::default()
        };
        a.merge(&SearchStats {
            dist_comps: 4,
            hops: 2,
            ..Default::default()
        });
        assert_eq!(a.dist_comps, 7);
        assert_eq!(a.hops, 3);
    }

    #[test]
    fn shard_set_is_exact_past_64_slots() {
        // The old u64 mask aliased every slot ≥ 64 onto bit 63; the set
        // must keep them distinct.
        let mut s = ShardSet::new();
        s.insert(63);
        s.insert(64);
        s.insert(200);
        assert_eq!(s.len(), 3);
        assert!(s.contains(63) && s.contains(64) && s.contains(200));
        assert!(!s.contains(65));
        assert_ne!(ShardSet::single(64), ShardSet::single(63));
        assert_ne!(ShardSet::single(64), ShardSet::single(65));
    }

    #[test]
    fn shard_set_union_and_count_past_the_mask() {
        let mut a: ShardSet = [1usize, 300].into_iter().collect();
        let b: ShardSet = [2usize, 400].into_iter().collect();
        assert_eq!(a.len(), 2);
        assert_eq!(a.overflow(), 1);
        a.union(&b);
        assert_eq!(a.len(), 4, "overflowed slots must still be counted");
        assert!(a.contains(1) && a.contains(2));
        assert!(!a.contains(300), "beyond-mask membership is conservative");
    }

    #[test]
    fn shard_set_iter_and_debug() {
        let s: ShardSet = [0usize, 5, 70].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 5, 70]);
        assert_eq!(format!("{s:?}"), "{0, 5, 70}");
        assert!(ShardSet::new().is_empty());
    }
}
