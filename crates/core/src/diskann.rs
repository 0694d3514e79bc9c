//! ParlayDiskANN — the in-memory DiskANN (Vamana) graph (paper §4.1).
//!
//! DiskANN is an incremental algorithm: each point is inserted by a greedy
//! search from the medoid followed by an α-prune of the visited set
//! (Alg. 2). This implementation parallelizes it with prefix doubling and
//! semisort-based batch insertion (§3.1), making the build lock-free and
//! deterministic. Like the original DiskANN, the build runs two passes:
//! the first with α = 1 and the second with the final α, which densifies
//! long-range edges.

use crate::beam::{QueryParams, SearchScratch};
use crate::builder::{incremental_build, insertion_order, refine_pass, AlphaPrune, BuildParams};
// (refine_pass also powers the dynamic-insert path)
use crate::graph::FlatGraph;
use crate::medoid::medoid;
use crate::query::{IndexKind, IndexStats, ScratchPool};
use crate::range::RangeParams;
use crate::stats::{BuildStats, SearchStats};
use crate::AnnIndex;
use ann_data::io::BinaryElem;
use ann_data::{Metric, PointSet, VectorElem};

/// Build parameters for [`VamanaIndex`] (paper Fig. 7 row "DiskANN").
#[derive(Clone, Copy, Debug)]
pub struct VamanaParams {
    /// Degree bound `R`.
    pub degree: usize,
    /// Insertion beam width `L`.
    pub beam: usize,
    /// Pruning parameter α (`≤ 1.0` for inner-product datasets, Fig. 7).
    pub alpha: f32,
    /// Run the second (refinement) pass with the final α.
    pub two_pass: bool,
    /// Batch-size truncation θ as a fraction of n (paper: 0.02).
    pub batch_cap_frac: f64,
    /// Seed for the deterministic insertion order.
    pub seed: u64,
}

impl Default for VamanaParams {
    fn default() -> Self {
        VamanaParams {
            degree: 32,
            beam: 64,
            alpha: 1.2,
            two_pass: true,
            batch_cap_frac: 0.02,
            seed: 42,
        }
    }
}

/// A built DiskANN/Vamana index.
pub struct VamanaIndex<T> {
    /// The proximity graph.
    pub graph: FlatGraph,
    /// Start vertex for searches (the corpus medoid).
    pub start: u32,
    /// Metric the index was built under.
    pub metric: Metric,
    /// Build statistics.
    pub build_stats: BuildStats,
    points: PointSet<T>,
    pub(crate) scratch: ScratchPool<SearchScratch<T>>,
}

impl<T: VectorElem> VamanaIndex<T> {
    /// Builds the index over `points`. Deterministic for fixed
    /// (`points`, `metric`, `params`) regardless of thread count.
    pub fn build(points: PointSet<T>, metric: Metric, params: &VamanaParams) -> Self {
        let t0 = std::time::Instant::now();
        let start = medoid(&points);
        let order = insertion_order(points.len(), start, params.seed);
        let bp = BuildParams {
            degree: params.degree,
            beam: params.beam,
            batch_cap_frac: params.batch_cap_frac,
            prefix_doubling: true,
            cut: 1.25,
        };
        let first_alpha = if params.two_pass { 1.0 } else { params.alpha };
        let (mut graph, mut dc) = incremental_build(
            &points,
            metric,
            start,
            &order,
            &bp,
            &AlphaPrune(first_alpha),
        );
        if params.two_pass {
            dc += refine_pass(
                &mut graph,
                &points,
                metric,
                start,
                &order,
                &bp,
                &AlphaPrune(params.alpha),
            );
        }
        VamanaIndex {
            graph,
            start,
            metric,
            build_stats: BuildStats {
                seconds: t0.elapsed().as_secs_f64(),
                dist_comps: dc,
            },
            points,
            scratch: ScratchPool::new(),
        }
    }

    /// Inserts a batch of new points into an existing index (deterministic
    /// batch update — the operation the paper's batch machinery enables;
    /// per-vertex-lock implementations cannot do this deterministically).
    ///
    /// New points receive ids `old_len..old_len + new_points.len()`.
    /// Internally runs θ-sized [`refine_pass`] batches over the new ids.
    pub fn insert_batch(&mut self, new_points: &PointSet<T>, params: &VamanaParams) {
        if new_points.is_empty() {
            return;
        }
        let old_n = self.points.len();
        self.points.append(new_points);
        self.graph.grow(self.points.len());
        let order: Vec<u32> = (old_n as u32..self.points.len() as u32).collect();
        let bp = BuildParams {
            degree: params.degree,
            beam: params.beam,
            batch_cap_frac: params.batch_cap_frac,
            prefix_doubling: true,
            cut: 1.25,
        };
        let t0 = std::time::Instant::now();
        let dc = refine_pass(
            &mut self.graph,
            &self.points,
            self.metric,
            self.start,
            &order,
            &bp,
            &AlphaPrune(params.alpha),
        );
        self.build_stats.seconds += t0.elapsed().as_secs_f64();
        self.build_stats.dist_comps += dc;
    }

    /// Reassembles an index from its parts (deserialization, external
    /// construction). The caller is responsible for consistency between
    /// `graph` and `points`.
    pub fn from_parts(
        graph: FlatGraph,
        start: u32,
        metric: Metric,
        build_stats: BuildStats,
        points: PointSet<T>,
    ) -> Self {
        assert_eq!(graph.len(), points.len(), "graph/point count mismatch");
        assert!((start as usize) < points.len(), "start out of range");
        VamanaIndex {
            graph,
            start,
            metric,
            build_stats,
            points,
            scratch: ScratchPool::new(),
        }
    }

    /// Decomposes the index into its parts (inverse of [`Self::from_parts`]).
    pub fn into_parts(self) -> (FlatGraph, u32, Metric, BuildStats, PointSet<T>) {
        (
            self.graph,
            self.start,
            self.metric,
            self.build_stats,
            self.points,
        )
    }

    /// The indexed points.
    pub fn points(&self) -> &PointSet<T> {
        &self.points
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Beam search for `query`; returns up to `params.k` `(id, dist)` pairs.
    pub fn search(&self, query: &[T], params: &QueryParams) -> (Vec<(u32, f32)>, SearchStats) {
        self.scratch.search(
            query,
            &self.points,
            self.metric,
            &self.graph,
            &[self.start],
            params,
        )
    }
}

impl<T: VectorElem + BinaryElem> AnnIndex<T> for VamanaIndex<T> {
    fn search(&self, query: &[T], params: &QueryParams) -> (Vec<(u32, f32)>, SearchStats) {
        VamanaIndex::search(self, query, params)
    }

    fn name(&self) -> String {
        "ParlayDiskANN".into()
    }

    fn kind(&self) -> IndexKind {
        IndexKind::Vamana
    }

    fn stats(&self) -> IndexStats {
        IndexStats::for_graph(&self.graph, self.points.dim(), self.build_stats)
    }

    fn len(&self) -> usize {
        self.points.len()
    }

    fn dim(&self) -> usize {
        self.points.dim()
    }

    fn range_search(&self, query: &[T], params: &RangeParams) -> (Vec<(u32, f32)>, SearchStats) {
        VamanaIndex::range_search(self, query, params)
    }

    fn save_index(&self, path: &std::path::Path) -> std::io::Result<()> {
        self.save(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann_data::{bigann_like, compute_ground_truth, recall_ids, text2image_like, PointSet};

    #[test]
    fn builds_and_reaches_high_recall() {
        let data = bigann_like(2_000, 50, 42);
        let index = VamanaIndex::build(data.points.clone(), data.metric, &VamanaParams::default());
        let gt = compute_ground_truth(&data.points, &data.queries, 10, data.metric);
        let qp = QueryParams {
            beam: 64,
            ..QueryParams::default()
        };
        let results: Vec<Vec<u32>> = (0..data.queries.len())
            .map(|q| {
                index
                    .search(data.queries.point(q), &qp)
                    .0
                    .into_iter()
                    .map(|(id, _)| id)
                    .collect()
            })
            .collect();
        let r = recall_ids(&gt, &results, 10, 10);
        assert!(r > 0.9, "recall {r} too low");
    }

    #[test]
    fn deterministic_fingerprint_across_threads() {
        let data = bigann_like(800, 5, 9);
        let params = VamanaParams::default();
        let fp1 = parlay::with_threads(1, || {
            VamanaIndex::build(data.points.clone(), data.metric, &params)
                .graph
                .fingerprint()
        });
        let fp2 = parlay::with_threads(2, || {
            VamanaIndex::build(data.points.clone(), data.metric, &params)
                .graph
                .fingerprint()
        });
        assert_eq!(fp1, fp2);
    }

    #[test]
    fn works_under_inner_product() {
        let data = text2image_like(1_500, 30, 4);
        // α ≤ 1.0 for IP per the paper (Fig. 7 note).
        let params = VamanaParams {
            alpha: 1.0,
            ..VamanaParams::default()
        };
        let index = VamanaIndex::build(data.points.clone(), data.metric, &params);
        let gt = compute_ground_truth(&data.points, &data.queries, 10, data.metric);
        let qp = QueryParams {
            beam: 100,
            cut: 1.0,
            ..QueryParams::default()
        };
        let results: Vec<Vec<u32>> = (0..data.queries.len())
            .map(|q| index.search(data.queries.point(q), &qp).0.knn_ids())
            .collect();
        let r = recall_ids(&gt, &results, 10, 10);
        assert!(r > 0.6, "OOD recall {r} unexpectedly low");
    }

    #[test]
    fn search_returns_sorted_k_results() {
        let data = bigann_like(500, 5, 2);
        let index = VamanaIndex::build(data.points.clone(), data.metric, &VamanaParams::default());
        let (res, stats) = index.search(
            data.queries.point(0),
            &QueryParams {
                k: 7,
                beam: 32,
                ..QueryParams::default()
            },
        );
        assert_eq!(res.len(), 7);
        for w in res.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert!(stats.dist_comps > 0);
    }

    trait KnnIds {
        fn knn_ids(self) -> Vec<u32>;
    }
    impl KnnIds for Vec<(u32, f32)> {
        fn knn_ids(self) -> Vec<u32> {
            self.into_iter().map(|(id, _)| id).collect()
        }
    }

    #[test]
    fn dynamic_insert_matches_static_build_quality() {
        let data = bigann_like(1_600, 40, 61);
        let params = VamanaParams::default();
        // Static: index all points at once.
        let full = VamanaIndex::build(data.points.clone(), data.metric, &params);
        // Dynamic: index 70%, then insert the remaining 30%.
        let split = 1_120;
        let mut dynamic = VamanaIndex::build(data.points.prefix(split), data.metric, &params);
        let rest_ids: Vec<u32> = (split as u32..1_600).collect();
        let rest = data.points.gather(&rest_ids);
        dynamic.insert_batch(&rest, &params);
        assert_eq!(dynamic.len(), 1_600);

        let gt = compute_ground_truth(&data.points, &data.queries, 10, data.metric);
        let qp = QueryParams {
            beam: 64,
            ..QueryParams::default()
        };
        let recall_of = |idx: &VamanaIndex<u8>| {
            let results: Vec<Vec<u32>> = (0..data.queries.len())
                .map(|q| idx.search(data.queries.point(q), &qp).0.knn_ids())
                .collect();
            recall_ids(&gt, &results, 10, 10)
        };
        let r_full = recall_of(&full);
        let r_dyn = recall_of(&dynamic);
        assert!(
            r_dyn >= r_full - 0.05,
            "dynamic {r_dyn} much worse than static {r_full}"
        );
        assert!(r_dyn > 0.85, "dynamic recall {r_dyn}");
    }

    #[test]
    fn dynamic_insert_is_deterministic() {
        let data = bigann_like(900, 1, 62);
        let params = VamanaParams::default();
        let run = || {
            let mut idx = VamanaIndex::build(data.points.prefix(600), data.metric, &params);
            let rest_ids: Vec<u32> = (600..900u32).collect();
            idx.insert_batch(&data.points.gather(&rest_ids), &params);
            idx.graph.fingerprint()
        };
        let a = parlay::with_threads(1, run);
        let b = parlay::with_threads(2, run);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_insert_is_noop() {
        let data = bigann_like(300, 1, 63);
        let params = VamanaParams::default();
        let mut idx = VamanaIndex::build(data.points.clone(), data.metric, &params);
        let before = idx.graph.fingerprint();
        idx.insert_batch(&PointSet::new(Vec::new(), 128), &params);
        assert_eq!(idx.graph.fingerprint(), before);
        assert_eq!(idx.len(), 300);
    }
}
