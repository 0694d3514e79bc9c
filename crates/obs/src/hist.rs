//! Log-linear (HDR-style) histogram over `u64` samples.
//!
//! Values below [`HIST_SUB_BUCKETS`] land in exact unit buckets; above,
//! each power-of-two octave is split into [`HIST_SUB_BUCKETS`] linear
//! sub-buckets, so a bucket covering `[lo, hi]` always satisfies
//! `hi - lo <= lo / HIST_SUB_BUCKETS` — every recorded value and every
//! quantile answer carries a relative error of at most
//! `1 / HIST_SUB_BUCKETS` (3.125%). The whole `u64` range fits in 1920
//! buckets (~15 KiB), so per-shard histograms are cheap.
//!
//! Recording is three relaxed atomic adds (bucket, sum, count) plus a
//! `fetch_max`; histograms are therefore safe to share across workers
//! with no locking, and per-worker shards merge exactly: bucket counts
//! are additive, so `merge_from` over shards is bit-identical to one
//! histogram fed the concatenated stream (proptested).

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per octave as a power of two.
pub const HIST_PRECISION_BITS: u32 = 5;
/// Linear sub-buckets per octave; the relative error bound is
/// `1 / HIST_SUB_BUCKETS`.
pub const HIST_SUB_BUCKETS: u64 = 1 << HIST_PRECISION_BITS;

const P: u64 = HIST_SUB_BUCKETS;
/// Highest index is `(63 - bits) * P + (2P - 1)`, reached at `u64::MAX`.
const NUM_BUCKETS: usize = ((65 - HIST_PRECISION_BITS as u64) * P) as usize;

#[inline]
fn bucket_index(v: u64) -> usize {
    if v < P {
        v as usize
    } else {
        let e = 63 - v.leading_zeros() as u64; // e >= HIST_PRECISION_BITS
        let g = e - HIST_PRECISION_BITS as u64;
        (g * P + (v >> g)) as usize
    }
}

/// Inclusive `[lo, hi]` value range of bucket `i`.
#[inline]
fn bucket_bounds(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < P {
        (i, i)
    } else {
        let g = i / P - 1;
        let m = i - g * P;
        let lo = m << g;
        (lo, lo + ((1u64 << g) - 1))
    }
}

/// Lock-free log-linear histogram. See the module docs for the error
/// bound; `quantile` answers come from a [`HistogramSnapshot`].
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    count: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        let buckets = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            buckets,
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Fold another histogram (e.g. a per-worker shard) into this one.
    /// Bucket counts are additive, so the result is identical to having
    /// recorded both streams into a single histogram.
    pub fn merge_from(&self, other: &Histogram) {
        for (dst, src) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = src.load(Ordering::Relaxed);
            if n != 0 {
                dst.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.sum.fetch_add(other.sum(), Ordering::Relaxed);
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Consistent-enough point-in-time copy for quantile queries and
    /// rendering (bucket loads are relaxed; concurrent records may or
    /// may not be included, which is fine for telemetry).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum(),
            count: self.count(),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Convenience: quantile over a fresh snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }

    /// Convenience: mean over a fresh snapshot.
    pub fn mean(&self) -> f64 {
        self.snapshot().mean()
    }

    /// Inclusive bounds of the bucket that would hold `v` — the
    /// representative returned for `v` is the bucket's upper bound.
    pub fn bounds_for(v: u64) -> (u64, u64) {
        bucket_bounds(bucket_index(v))
    }
}

/// Immutable copy of a histogram's state; also the unit of differencing
/// (`since`) for interval quantiles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    sum: u64,
    count: u64,
    max: u64,
}

impl HistogramSnapshot {
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    #[inline]
    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile: for the sorted stream `v_0..v_{n-1}`,
    /// returns the upper bound of the bucket holding `v_{floor(q(n-1))}`
    /// — i.e. a value `x` with `v <= x <= v + v / HIST_SUB_BUCKETS`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * (self.count - 1) as f64).floor() as u64;
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum > rank {
                let (_, hi) = bucket_bounds(i);
                // Never report past the true maximum: the top bucket's
                // upper bound can overshoot max by the same error bound.
                return hi.min(self.max);
            }
        }
        self.max
    }

    /// Counts recorded since `earlier` (bucket-wise saturating
    /// difference) — used for per-interval quantiles, e.g. one load
    /// phase of a benchmark out of a shared registry.
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .zip(earlier.buckets.iter())
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            sum: self.sum.saturating_sub(earlier.sum),
            count: self.count.saturating_sub(earlier.count),
            max: self.max,
        }
    }

    /// Non-empty buckets as `(inclusive upper bound, cumulative count)`
    /// pairs, in value order — the Prometheus `_bucket{le=...}` series.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n != 0 {
                cum += n;
                out.push((bucket_bounds(i).1, cum));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_monotone_and_in_bounds() {
        let mut values: Vec<u64> = Vec::new();
        for e in 0..64u32 {
            values.extend([1u64 << e, (1u64 << e) + 1, ((1u128 << (e + 1)) - 1) as u64]);
        }
        values.sort_unstable();
        let mut prev = 0usize;
        for v in values {
            let i = bucket_index(v);
            assert!(i < NUM_BUCKETS, "v={v} i={i}");
            assert!(i >= prev, "index must be monotone in value");
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "v={v} not in [{lo},{hi}]");
            assert!(hi == lo || hi - lo <= lo / P, "bucket [{lo},{hi}] too wide");
            prev = i;
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        for q in [0.0f64, 0.5, 1.0] {
            let want = (q * 63.0).floor() as u64;
            assert_eq!(h.quantile(q), want);
        }
        assert_eq!(h.sum(), (0..64).sum::<u64>());
    }

    #[test]
    fn quantile_respects_max() {
        let h = Histogram::new();
        h.record(1_000_003);
        assert_eq!(h.quantile(1.0), 1_000_003);
    }

    #[test]
    fn snapshot_since_isolates_interval() {
        let h = Histogram::new();
        h.record(10);
        let before = h.snapshot();
        h.record(1_000);
        h.record(2_000);
        let interval = h.snapshot().since(&before);
        assert_eq!(interval.count(), 2);
        assert_eq!(interval.sum(), 3_000);
        assert!(interval.quantile(0.0) >= 1_000);
    }
}
