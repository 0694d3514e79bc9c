//! One index type for the three flat-graph families.
//!
//! DiskANN/Vamana (§4.1), HCNNG (§4.3) and PyNNDescent (§4.4) differ only
//! in how they build the graph; all three search it with the same beam
//! search from a fixed list of start vertices (§4.5). So there is one
//! [`GraphIndex`] holding the graph, its starts, the metric and the
//! points, with one search path, one [`AnnIndex`] impl and one persistent
//! form ([`crate::io`]). The per-family code is construction only:
//! [`crate::diskann::build`], [`crate::hcnng::build`] and
//! [`crate::pynndescent::build`], picked by the params type through
//! [`GraphBuilder`].
//!
//! HNSW ([`crate::hnsw::HnswIndex`]) stays a type of its own: its layer-0
//! entry comes from a per-query descent through the upper layers, not a
//! fixed `starts` list.

use crate::beam::{QueryParams, SearchScratch};
use crate::graph::FlatGraph;
use crate::query::{AnnIndex, IndexKind, IndexStats, ScratchPool};
use crate::range::RangeParams;
use crate::stats::{BuildStats, SearchStats};
use ann_data::io::BinaryElem;
use ann_data::{Metric, PointSet, VectorElem};

/// A built flat-graph index: a [`FlatGraph`] over `points`, searched by
/// beam search from `starts`. `kind` records which builder made it.
pub struct GraphIndex<T> {
    /// Which family built the graph (the persisted kind tag).
    pub kind: IndexKind,
    /// The proximity graph.
    pub graph: FlatGraph,
    /// Search entry points. Vamana and HCNNG use one, the corpus medoid.
    /// PyNNDescent adds a deterministic hash sample: a k-NN graph holds
    /// only short edges (paper §5.5), so a single entry point cannot
    /// navigate between far-apart regions.
    pub starts: Vec<u32>,
    /// Metric the index was built under.
    pub metric: Metric,
    /// Build statistics (zero for a loaded index).
    pub build_stats: BuildStats,
    pub(crate) points: PointSet<T>,
    scratch: ScratchPool<SearchScratch<T>>,
}

/// Build parameters that know their builder, so
/// [`GraphIndex::build`] takes any family's params.
pub trait GraphBuilder {
    /// Builds the family's graph over `points`. Deterministic for fixed
    /// (`points`, `metric`, params) regardless of thread count.
    fn build<T: VectorElem>(&self, points: PointSet<T>, metric: Metric) -> GraphIndex<T>;
}

impl<T: VectorElem> GraphIndex<T> {
    /// Builds the index the params' family describes.
    pub fn build<P: GraphBuilder>(points: PointSet<T>, metric: Metric, params: &P) -> Self {
        params.build(points, metric)
    }

    /// Assembles an index from its parts (builders, deserialization).
    /// Panics if `graph` and `points` disagree on the vertex count or a
    /// start is missing or out of range.
    pub fn from_parts(
        kind: IndexKind,
        graph: FlatGraph,
        starts: Vec<u32>,
        metric: Metric,
        build_stats: BuildStats,
        points: PointSet<T>,
    ) -> Self {
        assert_eq!(graph.len(), points.len(), "graph/point count mismatch");
        assert!(
            !starts.is_empty() && starts.iter().all(|&s| (s as usize) < points.len()),
            "start out of range"
        );
        GraphIndex {
            kind,
            graph,
            starts,
            metric,
            build_stats,
            points,
            scratch: ScratchPool::new(),
        }
    }

    /// Decomposes the index into its parts (inverse of [`Self::from_parts`]).
    pub fn into_parts(
        self,
    ) -> (
        IndexKind,
        FlatGraph,
        Vec<u32>,
        Metric,
        BuildStats,
        PointSet<T>,
    ) {
        (
            self.kind,
            self.graph,
            self.starts,
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

    /// Beam search for `query` from the starts; returns up to `params.k`
    /// `(id, dist)` pairs.
    pub fn search(&self, query: &[T], params: &QueryParams) -> (Vec<(u32, f32)>, SearchStats) {
        self.scratch.search(
            query,
            &self.points,
            self.metric,
            &self.graph,
            &self.starts,
            params,
        )
    }

    /// Range search from the starts (see [`crate::range::range_search`]).
    pub fn range_search(
        &self,
        query: &[T],
        params: &RangeParams,
    ) -> (Vec<(u32, f32)>, SearchStats) {
        self.scratch.with(|scratch| {
            crate::range::range_search(
                scratch,
                query,
                &self.points,
                self.metric,
                &self.graph,
                &self.starts,
                params,
            )
        })
    }
}

impl<T: VectorElem + BinaryElem> AnnIndex<T> for GraphIndex<T> {
    fn search(&self, query: &[T], params: &QueryParams) -> (Vec<(u32, f32)>, SearchStats) {
        GraphIndex::search(self, query, params)
    }

    fn name(&self) -> String {
        match self.kind {
            IndexKind::Vamana => "ParlayDiskANN",
            IndexKind::Hcnng => "ParlayHCNNG",
            IndexKind::PyNNDescent => "ParlayPyNN",
            other => other.name(),
        }
        .into()
    }

    fn kind(&self) -> IndexKind {
        self.kind
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
        GraphIndex::range_search(self, query, params)
    }

    fn save_index(&self, path: &std::path::Path) -> std::io::Result<()> {
        self.save(path)
    }
}

/// Recall@10 of `index` searching `queries` with `params`, against `gt`
/// (the builders' quality tests).
#[cfg(test)]
pub(crate) fn recall_at_10<T: VectorElem>(
    index: &GraphIndex<T>,
    queries: &PointSet<T>,
    gt: &ann_data::GroundTruth,
    params: &QueryParams,
) -> f64 {
    let results: Vec<Vec<u32>> = (0..queries.len())
        .map(|q| {
            let (res, _) = index.search(queries.point(q), params);
            res.into_iter().map(|(id, _)| id).collect()
        })
        .collect();
    ann_data::recall_ids(gt, &results, 10, 10)
}
