//! Fixed-stride adjacency storage for ANN graphs.
//!
//! The paper's layout optimization (§4.5): "the edge-list for each vertex is
//! kept at a fixed length so we can calculate its offset from the vertex id"
//! — no per-vertex indirection, no pointer chasing. A vertex's slot holds up
//! to `max_degree` out-neighbor ids plus a live count.
//!
//! Every builder writes its rows through one call, [`FlatGraph::set_rows`],
//! the lock-free write path of §3.1: after the semisort each vertex's new
//! row comes from exactly one task, and `set_rows` checks that the rows it
//! is handed are distinct before writing them in parallel.

use parlay::{hash64, hash64_pair, tabulate, UnsafeSliceCell};
use rayon::prelude::*;

/// A directed graph over vertices `0..n` with bounded out-degree, stored as
/// one flat array (`n × max_degree` edge slots + a count per vertex).
#[derive(Clone, Debug)]
pub struct FlatGraph {
    max_degree: usize,
    counts: Vec<u32>,
    edges: Vec<u32>,
}

impl FlatGraph {
    /// An edgeless graph over `n` vertices with out-degree bound `max_degree`.
    pub fn new(n: usize, max_degree: usize) -> Self {
        assert!(max_degree > 0);
        FlatGraph {
            max_degree,
            counts: vec![0; n],
            edges: vec![0; n * max_degree],
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The out-degree bound.
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Out-neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let v = v as usize;
        let start = v * self.max_degree;
        &self.edges[start..start + self.counts[v] as usize]
    }

    /// Prefetches `v`'s edge slots and live count, so a following
    /// [`neighbors`](Self::neighbors)`(v)` hits cache.
    #[inline]
    pub fn prefetch_row(&self, v: u32) {
        let v = v as usize;
        ann_data::simd::prefetch_read(&self.counts[v..v + 1]);
        ann_data::simd::prefetch_read(&self.edges[v * self.max_degree..(v + 1) * self.max_degree]);
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.counts[v as usize] as usize
    }

    /// Overwrites the out-neighborhood of `v` (sequential write path).
    ///
    /// Panics if `list` exceeds the degree bound.
    pub fn set_neighbors(&mut self, v: u32, list: &[u32]) {
        assert!(
            list.len() <= self.max_degree,
            "degree {} exceeds bound {}",
            list.len(),
            self.max_degree
        );
        let v = v as usize;
        let start = v * self.max_degree;
        self.edges[start..start + list.len()].copy_from_slice(list);
        self.counts[v] = list.len() as u32;
    }

    /// Total number of directed edges.
    pub fn num_edges(&self) -> u64 {
        self.counts.iter().map(|&c| c as u64).sum()
    }

    /// Mean out-degree.
    pub fn avg_degree(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.num_edges() as f64 / self.len() as f64
        }
    }

    /// Grows the vertex set to `new_n` (new vertices start edgeless).
    /// Supports dynamic index growth; `new_n` must not shrink the graph.
    pub fn grow(&mut self, new_n: usize) {
        assert!(new_n >= self.len(), "FlatGraph::grow cannot shrink");
        self.counts.resize(new_n, 0);
        self.edges.resize(new_n * self.max_degree, 0);
    }

    /// A deterministic 64-bit digest of the full adjacency structure.
    ///
    /// Two graphs have equal fingerprints iff (with overwhelming
    /// probability) every vertex has the same ordered neighbor list. Used by
    /// the determinism tests: builds under different thread counts must
    /// produce identical fingerprints.
    pub fn fingerprint(&self) -> u64 {
        let row_hashes: Vec<u64> = tabulate(self.len(), |v| {
            let mut h = hash64(v as u64 ^ 0xf1a7);
            for &w in self.neighbors(v as u32) {
                h = hash64_pair(h, w as u64);
            }
            h
        });
        // Order-dependent combine over a fixed order => deterministic.
        row_hashes.iter().fold(0u64, |acc, &h| hash64_pair(acc, h))
    }

    /// Overwrites the out-neighborhoods of many vertices in parallel:
    /// `rows` holds `(v, list)` pairs.
    ///
    /// Panics, before writing anything, if a vertex appears twice, is out
    /// of range, or gets a list longer than the degree bound.
    pub fn set_rows<R: AsRef<[u32]> + Sync>(&mut self, rows: &[(u32, R)]) {
        let n = self.len();
        let mut seen = vec![0u64; n.div_ceil(64)];
        for (v, list) in rows {
            let v = *v as usize;
            assert!(v < n, "row {v} out of range for {n} vertices");
            let len = list.as_ref().len();
            assert!(
                len <= self.max_degree,
                "degree {len} exceeds bound {}",
                self.max_degree
            );
            let bit = 1u64 << (v % 64);
            assert!(seen[v / 64] & bit == 0, "row {v} written twice");
            seen[v / 64] |= bit;
        }
        let max_degree = self.max_degree;
        let counts = UnsafeSliceCell::new(&mut self.counts);
        let edges = UnsafeSliceCell::new(&mut self.edges);
        // Row writes are a handful of `u32` copies each, far below task
        // overhead, so tasks batch many rows.
        rows.par_iter()
            .with_min_len(ROW_WRITE_GRAIN)
            .for_each(|(v, list)| {
                let (v, list) = (*v as usize, list.as_ref());
                // SAFETY: the check above proved every `v` in range and
                // distinct, and every list within `max_degree`, so each task
                // writes only its own rows' slots `[v·max_degree, +len)` and
                // count `v`, all in bounds, and nothing reads them during the
                // loop (`self` is borrowed mutably). The loop's fork-join
                // barrier publishes the writes before `set_rows` returns.
                unsafe {
                    edges.copy_from_slice(v * max_degree, list);
                    counts.write(v, list.len() as u32);
                }
            });
    }
}

/// Minimum rows per task in [`FlatGraph::set_rows`].
const ROW_WRITE_GRAIN: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_read_neighbors() {
        let mut g = FlatGraph::new(4, 3);
        g.set_neighbors(0, &[1, 2]);
        g.set_neighbors(3, &[0]);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[] as &[u32]);
        assert_eq!(g.neighbors(3), &[0]);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.num_edges(), 3);
        assert!((g.avg_degree() - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "exceeds bound")]
    fn rejects_overfull_row() {
        let mut g = FlatGraph::new(2, 1);
        g.set_neighbors(0, &[1, 1]);
    }

    #[test]
    fn overwrite_shrinks_row() {
        let mut g = FlatGraph::new(2, 4);
        g.set_neighbors(0, &[1, 1, 1]);
        g.set_neighbors(0, &[0]);
        assert_eq!(g.neighbors(0), &[0]);
    }

    #[test]
    fn parallel_writer_disjoint_rows() {
        let n = 5000;
        let mut g = FlatGraph::new(n, 4);
        let rows: Vec<(u32, [u32; 1])> = (0..n as u32).map(|v| (v, [(v + 1) % n as u32])).collect();
        g.set_rows(&rows);
        for v in 0..n as u32 {
            assert_eq!(g.neighbors(v), &[(v + 1) % n as u32]);
        }
    }

    #[test]
    #[should_panic(expected = "row 7 written twice")]
    fn set_rows_rejects_a_repeated_row() {
        let mut g = FlatGraph::new(100, 4);
        g.set_rows(&[(3, vec![1]), (7, vec![2]), (50, vec![]), (7, vec![3])]);
    }

    #[test]
    #[should_panic(expected = "exceeds bound")]
    fn set_rows_rejects_an_overfull_row() {
        let mut g = FlatGraph::new(4, 2);
        g.set_rows(&[(0, vec![1, 2, 3])]);
    }

    #[test]
    fn fingerprint_distinguishes_graphs() {
        let mut a = FlatGraph::new(10, 4);
        let mut b = FlatGraph::new(10, 4);
        a.set_neighbors(0, &[1, 2]);
        b.set_neighbors(0, &[1, 2]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.set_neighbors(0, &[2, 1]); // order matters
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = FlatGraph::new(10, 4);
        c.set_neighbors(1, &[1, 2]); // placement matters
        assert_ne!(a.fingerprint(), c.fingerprint());
    }
}
