//! Distance functions over the runtime-dispatched SIMD kernels.
//!
//! Distance comparisons dominate ANNS cost (paper §5.5 measures them
//! directly). The public API here is unchanged-safe — plain slices in,
//! `f32` out — while the arithmetic runs on the best instruction set the
//! CPU offers (see [`crate::simd`] for the dispatch tiers, block
//! structure, and determinism contract).
//!
//! **Length contract:** `a` and `b` must have equal lengths. Mismatched
//! lengths are a bug in the caller — typically a dimension mix-up that
//! padded storage would otherwise mask — and are caught by a
//! `debug_assert!` here plus an unconditional assertion in the unsafe
//! kernel layer (where equal lengths are a memory-safety precondition).
//! Earlier revisions silently truncated to the shorter input; that
//! behaviour is gone.
//!
//! For `u8`/`i8` inputs the kernels accumulate exactly in wide integers,
//! so quantized distances are exact at any dimensionality (and bit-equal
//! across all dispatch tiers).

use crate::point::{PointSet, VectorElem};
use crate::simd;

/// The distance functions used across the paper's datasets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Squared L2 (monotone in L2; used by BIGANN and MSSPACEV).
    SquaredEuclidean,
    /// Negative inner product (TEXT2IMAGE minimizes `-<a,b>`).
    InnerProduct,
    /// `1 - cos(a, b)`.
    Cosine,
}

impl Metric {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Metric::SquaredEuclidean => "L2^2",
            Metric::InnerProduct => "neg-IP",
            Metric::Cosine => "cosine",
        }
    }
}

/// Distance between two equal-length vectors under `metric`. Smaller is
/// more similar.
#[inline]
pub fn distance<T: VectorElem>(a: &[T], b: &[T], metric: Metric) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "distance() requires equal-length vectors");
    match metric {
        Metric::SquaredEuclidean => squared_euclidean(a, b),
        Metric::InnerProduct => -dot(a, b),
        Metric::Cosine => {
            let na = norm_squared(a).sqrt();
            let nb = norm_squared(b).sqrt();
            if na == 0.0 || nb == 0.0 {
                1.0
            } else {
                1.0 - dot(a, b) / (na * nb)
            }
        }
    }
}

/// Squared L2 norm of a vector.
#[inline]
pub fn norm_squared<T: VectorElem>(a: &[T]) -> f32 {
    T::kernel_norm_squared(a)
}

/// Squared Euclidean distance between equal-length vectors (dispatched).
#[inline]
pub fn squared_euclidean<T: VectorElem>(a: &[T], b: &[T]) -> f32 {
    debug_assert_eq!(
        a.len(),
        b.len(),
        "squared_euclidean() requires equal-length vectors"
    );
    T::kernel_squared_euclidean(a, b)
}

/// Dot product of equal-length vectors (dispatched).
#[inline]
pub fn dot<T: VectorElem>(a: &[T], b: &[T]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot() requires equal-length vectors");
    T::kernel_dot(a, b)
}

/// How many candidates ahead [`distance_batch`] prefetches. Two rows keeps
/// one row in flight while the current one is scored — enough to cover
/// DRAM latency at the ~100 ns/row cost of a 128-d kernel evaluation.
const PREFETCH_AHEAD: usize = 2;

/// Scores `query` against `points[ids[j]]` for every `j`, writing
/// distances into `out` (cleared first; `out[j]` corresponds to `ids[j]`).
///
/// This is the batched hot path for beam-search frontier expansion and
/// build-time pruning: while candidate `j` is being scored, the rows of
/// candidates `j+1..j+1+PREFETCH_AHEAD` are software-prefetched, hiding
/// the cache misses that dominate graph traversal over large point sets
/// (paper §4.5).
///
/// `query` may be either a logical vector (length `points.dim()`) or a
/// padded one from [`PointSet::pad_query`] (length `points.padded_dim()`).
/// The padded form lets every kernel call take the full-block path; both
/// forms produce bit-identical distances (the kernel block structure
/// guarantees it), so results never depend on which path a caller took.
///
/// Output is a pure function of `(query, ids, points, metric)` — the
/// batch is scored sequentially on the calling thread, so determinism
/// across thread counts is inherited from the caller's batching, exactly
/// like the scalar path it replaces.
pub fn distance_batch<T: VectorElem>(
    query: &[T],
    ids: &[u32],
    points: &PointSet<T>,
    metric: Metric,
    out: &mut Vec<f32>,
) {
    let dim = points.dim();
    let stride = points.padded_dim();
    assert!(
        query.len() == dim || query.len() == stride,
        "distance_batch() query length {} matches neither dim {} nor padded dim {}",
        query.len(),
        dim,
        stride
    );
    let row_len = query.len();
    out.clear();
    out.reserve(ids.len());
    for (j, &id) in ids.iter().enumerate() {
        if j == 0 {
            for &ahead in ids.iter().take(PREFETCH_AHEAD.min(ids.len())) {
                simd::prefetch_read(points.padded_point(ahead as usize));
            }
        }
        if let Some(&ahead) = ids.get(j + PREFETCH_AHEAD) {
            simd::prefetch_read(points.padded_point(ahead as usize));
        }
        let row = &points.padded_point(id as usize)[..row_len];
        out.push(distance(query, row, metric));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_l2(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    #[test]
    fn l2_matches_naive_f32() {
        let a: Vec<f32> = (0..37).map(|i| (i as f32).sin()).collect();
        let b: Vec<f32> = (0..37).map(|i| (i as f32).cos()).collect();
        let got = squared_euclidean(&a, &b);
        let want = naive_l2(&a, &b);
        assert!((got - want).abs() < 1e-4 * want.max(1.0));
    }

    #[test]
    fn l2_exact_for_u8() {
        let a: Vec<u8> = (0..128).map(|i| (i * 7 % 256) as u8).collect();
        let b: Vec<u8> = (0..128).map(|i| (i * 13 % 256) as u8).collect();
        let want: i64 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| {
                let d = x as i64 - y as i64;
                d * d
            })
            .sum();
        assert_eq!(squared_euclidean(&a, &b), want as f32);
    }

    #[test]
    fn l2_exact_for_i8() {
        let a: Vec<i8> = (0..100).map(|i| ((i * 7) % 256 - 128) as i8).collect();
        let b: Vec<i8> = (0..100).map(|i| ((i * 29) % 256 - 128) as i8).collect();
        let want: i64 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| {
                let d = x as i64 - y as i64;
                d * d
            })
            .sum();
        assert_eq!(squared_euclidean(&a, &b), want as f32);
    }

    #[test]
    fn l2_is_symmetric_and_zero_on_self() {
        let a: Vec<f32> = (0..65).map(|i| i as f32 * 0.5).collect();
        let b: Vec<f32> = (0..65).map(|i| (i as f32).sqrt()).collect();
        assert_eq!(squared_euclidean(&a, &b), squared_euclidean(&b, &a));
        assert_eq!(squared_euclidean(&a, &a), 0.0);
    }

    #[test]
    fn inner_product_distance_prefers_aligned() {
        let q = vec![1.0f32, 0.0];
        let aligned = vec![2.0f32, 0.0];
        let orthogonal = vec![0.0f32, 2.0];
        assert!(
            distance(&q, &aligned, Metric::InnerProduct)
                < distance(&q, &orthogonal, Metric::InnerProduct)
        );
    }

    #[test]
    fn cosine_basics() {
        let a = vec![1.0f32, 0.0];
        let b = vec![0.0f32, 1.0];
        let c = vec![3.0f32, 0.0];
        assert!((distance(&a, &b, Metric::Cosine) - 1.0).abs() < 1e-6);
        assert!(distance(&a, &c, Metric::Cosine).abs() < 1e-6);
        let zero = vec![0.0f32, 0.0];
        assert_eq!(distance(&a, &zero, Metric::Cosine), 1.0);
    }

    #[test]
    fn odd_lengths_hit_remainder_path() {
        for d in [1usize, 2, 3, 5, 7, 9] {
            let a: Vec<f32> = (0..d).map(|i| i as f32).collect();
            let b: Vec<f32> = (0..d).map(|i| (i + 1) as f32).collect();
            assert_eq!(squared_euclidean(&a, &b), d as f32);
        }
    }

    #[test]
    fn norm_squared_matches_self_dot() {
        let a: Vec<f32> = (0..33).map(|i| (i as f32) * 0.25).collect();
        assert!((norm_squared(&a) - dot(&a, &a)).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    #[cfg(debug_assertions)]
    fn mismatched_lengths_are_rejected() {
        let a = vec![1.0f32; 8];
        let b = vec![1.0f32; 7];
        squared_euclidean(&a, &b);
    }

    #[test]
    fn batch_matches_single_calls_for_all_metrics() {
        let points = PointSet::new((0u8..=199).collect::<Vec<_>>(), 10);
        let query: Vec<u8> = (100..110).collect();
        let ids: Vec<u32> = vec![3, 0, 19, 7, 7, 12];
        for metric in [
            Metric::SquaredEuclidean,
            Metric::InnerProduct,
            Metric::Cosine,
        ] {
            let mut out = Vec::new();
            distance_batch(&query, &ids, &points, metric, &mut out);
            assert_eq!(out.len(), ids.len());
            for (j, &id) in ids.iter().enumerate() {
                assert_eq!(out[j], distance(&query, points.point(id as usize), metric));
            }
            // Padded query takes the aligned full-block path; results must
            // be bit-identical.
            let padded = points.pad_query(&query);
            let mut out2 = Vec::new();
            distance_batch(&padded, &ids, &points, metric, &mut out2);
            for (a, b) in out.iter().zip(&out2) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn batch_on_f32_padded_equals_logical_bitwise() {
        let rows: Vec<Vec<f32>> = (0..50)
            .map(|i| {
                (0..37)
                    .map(|j| ((i * 37 + j) as f32).sin() * 10.0)
                    .collect()
            })
            .collect();
        let points = PointSet::from_rows(&rows);
        let query = rows[0].clone();
        let ids: Vec<u32> = (0..50).collect();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        distance_batch(&query, &ids, &points, Metric::SquaredEuclidean, &mut a);
        let padded = points.pad_query(&query);
        distance_batch(&padded, &ids, &points, Metric::SquaredEuclidean, &mut b);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a[0], 0.0);
    }
}
