//! The query layer every index shares.
//!
//! The paper's search side (Alg. 1, §4.5) is batch-parallel *across*
//! queries: each query is one sequential beam search, and a batch is a
//! parallel loop over them. This module holds what that needs beyond the
//! walk itself ([`crate::beam`]):
//!
//! * [`AnnIndex`] — the uniform interface every index in the workspace
//!   implements (the four graph algorithms plus the IVF/PQ/LSH
//!   baselines). The query surface is three methods: single-query
//!   [`search`](AnnIndex::search), batched
//!   [`search_batch`](AnnIndex::search_batch) (one task per query over
//!   `search`, so results are bit-identical to it by construction) and
//!   fixed-radius [`range_search`](AnnIndex::range_search); next to them
//!   sit introspection ([`stats`](AnnIndex::stats),
//!   [`kind`](AnnIndex::kind)) and the persistence hook
//!   [`save_index`](AnnIndex::save_index) backing the kind-tagged v2 file
//!   format in [`crate::io`].
//!
//! * [`ScratchPool`] — the reusable working state (frontier, candidate
//!   buffers, visited filter, padded query) behind every index's
//!   `search`, so steady-state query execution performs **no per-query
//!   allocation**. Which scratch a query gets never affects results
//!   (every buffer is reset per search), so determinism is preserved.

use crate::beam::{beam_search_into, GraphView, QueryParams, SearchScratch};
use crate::graph::FlatGraph;
use crate::range::RangeParams;
use crate::stats::{BuildStats, SearchStats};
use ann_data::{Metric, PointSet, VectorElem};
use rayon::prelude::*;
use std::sync::Mutex;

/// Which index family an [`AnnIndex`] implementation belongs to — the tag
/// persisted in the v2 index file header (see [`crate::io`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// DiskANN/Vamana: a [`GraphIndex`](crate::GraphIndex) built by
    /// [`crate::diskann::build`].
    Vamana,
    /// HNSW ([`crate::hnsw::HnswIndex`]); no persistent form.
    Hnsw,
    /// HCNNG: a [`GraphIndex`](crate::GraphIndex) built by
    /// [`crate::hcnng::build`].
    Hcnng,
    /// PyNNDescent: a [`GraphIndex`](crate::GraphIndex) built by
    /// [`crate::pynndescent::build`].
    PyNNDescent,
    /// Inverted-file baseline (`ann_baselines::IvfIndex`).
    Ivf,
    /// Hyperplane LSH baseline (`ann_baselines::LshIndex`).
    Lsh,
    /// PQ-compressed Vamana (`ann_baselines::PqVamanaIndex`).
    PqVamana,
    /// Multi-shard store (`parlayann_store::ShardedIndex`) — persisted as
    /// a manifest *directory*, not a single kind-tagged file.
    Sharded,
    /// Anything else (ad-hoc wrappers, test doubles).
    Custom,
}

impl IndexKind {
    /// The byte tag written into v2 index files.
    pub fn tag(self) -> u8 {
        match self {
            IndexKind::Vamana => 0,
            IndexKind::Hnsw => 1,
            IndexKind::Hcnng => 2,
            IndexKind::PyNNDescent => 3,
            IndexKind::Ivf => 4,
            IndexKind::Lsh => 5,
            IndexKind::PqVamana => 6,
            IndexKind::Sharded => 7,
            IndexKind::Custom => 255,
        }
    }

    /// Inverse of [`tag`](Self::tag).
    pub fn from_tag(t: u8) -> Option<IndexKind> {
        Some(match t {
            0 => IndexKind::Vamana,
            1 => IndexKind::Hnsw,
            2 => IndexKind::Hcnng,
            3 => IndexKind::PyNNDescent,
            4 => IndexKind::Ivf,
            5 => IndexKind::Lsh,
            6 => IndexKind::PqVamana,
            7 => IndexKind::Sharded,
            255 => IndexKind::Custom,
            _ => return None,
        })
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            IndexKind::Vamana => "vamana",
            IndexKind::Hnsw => "hnsw",
            IndexKind::Hcnng => "hcnng",
            IndexKind::PyNNDescent => "pynndescent",
            IndexKind::Ivf => "ivf",
            IndexKind::Lsh => "lsh",
            IndexKind::PqVamana => "pq-vamana",
            IndexKind::Sharded => "sharded",
            IndexKind::Custom => "custom",
        }
    }
}

/// Structural summary of a built index ([`AnnIndex::stats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct IndexStats {
    /// Number of indexed points.
    pub points: usize,
    /// Vector dimensionality.
    pub dim: usize,
    /// Total directed edges (0 for non-graph indexes).
    pub edges: usize,
    /// Largest out-degree (graph) — or the degree/list bound.
    pub max_degree: usize,
    /// Hierarchy depth (HNSW layers) or partition count (IVF lists);
    /// 1 for single-level graphs.
    pub layers: usize,
    /// Construction statistics.
    pub build: BuildStats,
}

impl IndexStats {
    /// Summary of a single-level [`FlatGraph`] index.
    pub fn for_graph(graph: &FlatGraph, dim: usize, build: BuildStats) -> IndexStats {
        let edges = (0..graph.len() as u32).map(|v| graph.degree(v)).sum();
        IndexStats {
            points: graph.len(),
            dim,
            edges,
            max_degree: graph.max_degree(),
            layers: 1,
            build,
        }
    }

    /// Mean out-degree (0 when empty / non-graph).
    pub fn avg_degree(&self) -> f64 {
        if self.points == 0 {
            0.0
        } else {
            self.edges as f64 / self.points as f64
        }
    }
}

/// Common query interface implemented by every index in this workspace
/// (the four graph algorithms here and the IVF/LSH/PQ baselines), so the
/// benchmark harness and serving layers drive them uniformly.
pub trait AnnIndex<T: VectorElem>: Sync {
    /// Returns up to `params.k` `(id, distance)` pairs, closest first, plus
    /// per-query search statistics.
    fn search(&self, query: &[T], params: &QueryParams) -> (Vec<(u32, f32)>, SearchStats);

    /// Short display name for experiment tables.
    fn name(&self) -> String;

    /// Which index family this is (drives the persisted kind tag).
    fn kind(&self) -> IndexKind {
        IndexKind::Custom
    }

    /// Structural summary (size, degree, hierarchy) of the built index.
    fn stats(&self) -> IndexStats {
        IndexStats::default()
    }

    /// Number of indexed points. The default derives it from
    /// [`stats`](Self::stats) (which may walk the graph to count edges);
    /// every concrete index overrides it with an O(1) field read.
    fn len(&self) -> usize {
        self.stats().points
    }

    /// Whether the index holds no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Vector dimensionality. Same default/override convention as
    /// [`len`](Self::len). Routers and manifest writers key on this; 0
    /// means "unknown" (an index type that cannot report it).
    fn dim(&self) -> usize {
        self.stats().dim
    }

    /// Searches every query of `queries`, batch-parallel — one task per
    /// query, so even a two-query batch uses two workers — returning
    /// per-query results in input order.
    ///
    /// **Contract:** results are bit-identical to calling
    /// [`search`](Self::search) per query — batching may only change
    /// execution layout, never outcomes. The default is exactly that loop
    /// (plus the per-query work histograms of the observability layer);
    /// composite indexes override it to fan a whole batch out at once.
    fn search_batch(
        &self,
        queries: &PointSet<T>,
        params: &QueryParams,
    ) -> Vec<(Vec<(u32, f32)>, SearchStats)> {
        let results = parlay::tabulate(queries.len(), |q| self.search(queries.point(q), params));
        engine_obs_record(&results);
        results
    }

    /// Reports (approximately) all points within `params.radius` of
    /// `query`, sorted by distance.
    ///
    /// The graph indexes override this with the beam-navigate-then-flood
    /// algorithm of [`crate::range`]; the default approximates by keeping
    /// the in-radius members of a width-`beam` search (adequate for the
    /// scan-style baselines, which override where they can do better).
    fn range_search(&self, query: &[T], params: &RangeParams) -> (Vec<(u32, f32)>, SearchStats) {
        let beam = params.beam.max(1);
        let qp = QueryParams {
            k: beam,
            beam,
            cut: 1.0,
            ..QueryParams::default()
        };
        let (res, stats) = self.search(query, &qp);
        (
            res.into_iter()
                .filter(|&(_, d)| d <= params.radius)
                .collect(),
            stats,
        )
    }

    /// Persists the index to `path` in the kind-tagged v2 format (see
    /// [`crate::io`]); reload via [`crate::io::load_index`] or
    /// [`GraphIndex::load`](crate::GraphIndex::load). Indexes without a
    /// persistent form return
    /// [`std::io::ErrorKind::Unsupported`].
    fn save_index(&self, _path: &std::path::Path) -> std::io::Result<()> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            format!("{} does not support persistence yet", self.name()),
        ))
    }
}

/// A pool of reusable working state (`S` is a
/// [`SearchScratch`], or a baseline's
/// equivalent). Every index owns one: `search` borrows a scratch for the
/// duration of one query and returns it, so a batch running on `t` workers
/// settles at `t` scratches and allocates nothing further.
pub struct ScratchPool<S>(Mutex<Vec<S>>);

impl<S: Default> ScratchPool<S> {
    /// An empty pool; scratches are created on demand.
    pub fn new() -> Self {
        ScratchPool(Mutex::new(Vec::new()))
    }

    /// Runs `f` with a scratch from the pool (a fresh one when none is
    /// free) and returns the scratch afterwards. The lock is held only to
    /// pop and push, never while `f` runs; if `f` panics its scratch is
    /// simply dropped.
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        let mut scratch = self.lock().pop().unwrap_or_default();
        let out = f(&mut scratch);
        self.lock().push(scratch);
        out
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<S>> {
        // A push or pop cannot leave the vector half-updated, so a poisoned
        // lock still guards a valid pool.
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl<S: Default> Default for ScratchPool<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: VectorElem> ScratchPool<SearchScratch<T>> {
    /// One exact beam search over a pooled scratch: the `params.k`
    /// nearest of the final frontier, and the search's counters.
    pub fn search<G: GraphView>(
        &self,
        query: &[T],
        points: &PointSet<T>,
        metric: Metric,
        view: &G,
        starts: &[u32],
        params: &QueryParams,
    ) -> (Vec<(u32, f32)>, SearchStats) {
        self.with(|scratch| {
            let stats = beam_search_into(scratch, query, points, metric, view, starts, params);
            (scratch.top_k(params.k), stats)
        })
    }
}

/// Folds per-query engine work (distance computations, beam hops) into
/// the global observability histograms. Runs once per batch *after* the
/// results exist, off the search hot loop; skipped entirely when the
/// obs layer is off. Telemetry only reads the stats — results are
/// bit-identical with obs on or off.
fn engine_obs_record(results: &[(Vec<(u32, f32)>, SearchStats)]) {
    use std::sync::OnceLock;
    let obs = parlayann_obs::global();
    if !obs.enabled() || results.is_empty() {
        return;
    }
    type Handles = (
        std::sync::Arc<parlayann_obs::Histogram>,
        std::sync::Arc<parlayann_obs::Histogram>,
        std::sync::Arc<parlayann_obs::Counter>,
    );
    static HANDLES: OnceLock<Handles> = OnceLock::new();
    let (dist, hops, queries) = HANDLES.get_or_init(|| {
        let r = obs.registry();
        (
            r.histogram(
                "parlayann_engine_dist_comps",
                &[],
                "distance computations per query",
            ),
            r.histogram("parlayann_engine_hops", &[], "beam-search hops per query"),
            r.counter(
                "parlayann_engine_queries_total",
                &[],
                "queries answered by the query engine",
            ),
        )
    });
    for (_, s) in results {
        dist.record(s.dist_comps as u64);
        hops.record(s.hops as u64);
    }
    queries.add(results.len() as u64);
}

/// Deterministically merges per-query stats into batch totals via the
/// shim's length-only `fold`/`reduce` tree (the same bits at any thread
/// count; the counters are integers, so this is belt-and-braces — but it
/// keeps the aggregation pattern uniform with future float-valued stats).
pub fn aggregate_stats(results: &[(Vec<(u32, f32)>, SearchStats)]) -> SearchStats {
    results
        .par_iter()
        .fold(SearchStats::default, |mut acc, (_, s)| {
            acc.merge(s);
            acc
        })
        .reduce(SearchStats::default, |mut a, b| {
            a.merge(&b);
            a
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_pool_reuses_what_it_hands_out() {
        let pool: ScratchPool<Vec<u32>> = ScratchPool::new();
        pool.with(|s| s.push(7));
        // The same vector comes back, contents and all.
        assert_eq!(pool.with(|s| s.clone()), vec![7]);
        // A nested borrow gets a second scratch; both return to the pool.
        pool.with(|outer| {
            pool.with(|inner| assert!(inner.is_empty()));
            assert_eq!(*outer, vec![7]);
        });
        assert_eq!(pool.lock().len(), 2);
    }

    #[test]
    fn aggregate_stats_sums() {
        let results = vec![
            (
                Vec::new(),
                SearchStats {
                    dist_comps: 3,
                    hops: 1,
                    ..Default::default()
                },
            ),
            (
                Vec::new(),
                SearchStats {
                    dist_comps: 5,
                    hops: 2,
                    ..Default::default()
                },
            ),
        ];
        let total = aggregate_stats(&results);
        assert_eq!(total.dist_comps, 8);
        assert_eq!(total.hops, 3);
    }

    #[test]
    fn index_kind_tags_roundtrip() {
        for kind in [
            IndexKind::Vamana,
            IndexKind::Hnsw,
            IndexKind::Hcnng,
            IndexKind::PyNNDescent,
            IndexKind::Ivf,
            IndexKind::Lsh,
            IndexKind::PqVamana,
            IndexKind::Sharded,
            IndexKind::Custom,
        ] {
            assert_eq!(IndexKind::from_tag(kind.tag()), Some(kind));
            assert!(!kind.name().is_empty());
        }
        assert_eq!(IndexKind::from_tag(42), None);
    }
}
