//! PQ-compressed graph search — the paper's Open Question 3.
//!
//! *"How can quantization methods be efficiently parallelized and made
//! deterministic, and how do such methods affect the choice of ANNS
//! algorithms?"* (§7). This module provides one concrete answer:
//!
//! * PQ training here **is** deterministic (fixed-chunk f64 accumulation in
//!   [`crate::kmeans`]), so a compressed index inherits the library's
//!   determinism guarantee;
//! * [`PqVamanaIndex`] (8-bit codes) and [`Pq4VamanaIndex`] (4-bit packed
//!   codes, in-register shuffle scans) walk a Vamana graph using **ADC
//!   distances over compressed codes** instead of raw vectors, then
//!   re-rank the final beam exactly — the memory/accuracy trade DiskANN
//!   uses for its SSD variant, applied to the in-memory graph.
//!
//! Both indexes run the core engine's beam loop itself
//! ([`parlayann::beam::walk`]), handing it an [`AdcScorer`] where exact
//! search hands it the stored vectors. The walk scores a whole
//! out-neighborhood per call, which is what lets the 4-bit scorer gather
//! candidates into 32-point groups and scan them with one `vpshufb` per
//! subspace pair. Each index keeps its walk state in a
//! [`ScratchPool`](parlayann::ScratchPool) — zero steady-state allocation
//! — and `search_batch` is the trait's one-task-per-query loop over
//! [`search`](AnnIndex::search), so batched and per-query results are
//! bit-identical by construction.

use crate::kmeans::to_f32_vec;
use crate::pq::{PqParams, ProductQuantizer};
use crate::pq4::{self, gather_group, Lut4, Pq4Params, ProductQuantizer4, GROUP};
use ann_data::{distance_batch, Metric, PointSet, VectorElem};
use parlayann::beam::{cmp_dist, walk, Scorer, WalkScratch};
use parlayann::{
    AnnIndex, BuildStats, FlatGraph, IndexKind, IndexStats, QueryParams, ScratchPool, SearchStats,
    VamanaIndex, VamanaParams,
};
use rayon::prelude::*;

/// Approximate-distance scoring over compressed codes, pluggable into the
/// shared ADC beam loop. A scorer is stateless across queries; per-query
/// state lives in the `Lut` and reusable buffers in the `Scratch`.
pub trait AdcScorer: Sync {
    /// Per-query lookup state (the ADC table in whatever layout the
    /// scorer's scan kernel wants).
    type Lut: Send;
    /// Reusable per-worker scan buffers (cleared/overwritten per call).
    type Scratch: Default + Send;

    /// Number of encoded points.
    fn num_points(&self) -> usize;

    /// Builds the per-query lookup state.
    fn make_lut(&self, query: &[f32], metric: Metric) -> Self::Lut;

    /// Approximate distances for `ids`, written to `out` (resized to
    /// `ids.len()`).
    fn score_into(
        &self,
        lut: &Self::Lut,
        scratch: &mut Self::Scratch,
        ids: &[u32],
        out: &mut Vec<f32>,
    );
}

/// 8-bit ADC: one gathered f32 table entry per subspace per candidate
/// (the classic IVFADC loop). The baseline the 4-bit shuffle scan is
/// benchmarked against in `kernel_bench`.
pub struct Pq8Scorer<'a> {
    pq: &'a ProductQuantizer,
    /// Codes, `n × code_len` row-major.
    codes: &'a [u8],
}

impl AdcScorer for Pq8Scorer<'_> {
    type Lut = Vec<f32>;
    type Scratch = ();

    fn num_points(&self) -> usize {
        self.codes.len() / self.pq.code_len()
    }

    fn make_lut(&self, query: &[f32], metric: Metric) -> Vec<f32> {
        self.pq.adc_table(query, metric)
    }

    fn score_into(&self, lut: &Vec<f32>, _s: &mut (), ids: &[u32], out: &mut Vec<f32>) {
        let cl = self.pq.code_len();
        out.clear();
        out.extend(ids.iter().map(|&id| {
            self.pq
                .adc_distance(lut, &self.codes[id as usize * cl..(id as usize + 1) * cl])
        }));
    }
}

/// Reusable buffers for the 4-bit group scan.
#[derive(Default)]
pub struct Pq4Scratch {
    gbuf: Vec<u8>,
    sums: [u16; GROUP],
}

/// 4-bit ADC: candidates are gathered 32 at a time into the transposed
/// group layout and scanned in-register ([`pq4::scan_group`] — one
/// `vpshufb` covers a subspace pair across the whole group).
pub struct Pq4Scorer<'a> {
    pq: &'a ProductQuantizer4,
    /// Per-point packed codes, `n × pairs` row-major.
    codes: &'a [u8],
}

impl AdcScorer for Pq4Scorer<'_> {
    type Lut = Lut4;
    type Scratch = Pq4Scratch;

    fn num_points(&self) -> usize {
        self.codes.len() / self.pq.pairs()
    }

    fn make_lut(&self, query: &[f32], metric: Metric) -> Lut4 {
        self.pq.lut(query, metric)
    }

    fn score_into(&self, lut: &Lut4, s: &mut Pq4Scratch, ids: &[u32], out: &mut Vec<f32>) {
        let pairs = self.pq.pairs();
        out.clear();
        for chunk in ids.chunks(GROUP) {
            gather_group(self.codes, pairs, chunk, &mut s.gbuf);
            pq4::scan_group(&lut.entries, &s.gbuf, pairs, &mut s.sums);
            out.extend(s.sums[..chunk.len()].iter().map(|&x| lut.distance(x)));
        }
    }
}

/// Reusable working state for one ADC search: the walk's buffers plus the
/// scorer's scan buffers (`X` is an [`AdcScorer::Scratch`]).
#[derive(Default)]
pub struct AdcScratch<X> {
    walk: WalkScratch,
    scan: X,
}

/// One query's view of an [`AdcScorer`]: what the core walk scores with.
struct AdcQuery<'a, S: AdcScorer> {
    scorer: &'a S,
    lut: &'a S::Lut,
    scan: &'a mut S::Scratch,
}

impl<S: AdcScorer> Scorer for AdcQuery<'_, S> {
    fn num_points(&self) -> usize {
        self.scorer.num_points()
    }

    fn score(&mut self, ids: &[u32], out: &mut Vec<f32>) {
        self.scorer.score_into(self.lut, self.scan, ids, out);
    }
}

/// Exact re-rank of the top `rerank_factor × k` ADC candidates through
/// one batched, prefetched `distance_batch` call (rerank 0 disables).
fn rerank_exact<T: VectorElem>(
    query: &[T],
    frontier: &[(u32, f32)],
    points: &PointSet<T>,
    metric: Metric,
    rerank_factor: usize,
    params: &QueryParams,
    stats: &mut SearchStats,
) -> Vec<(u32, f32)> {
    let keep = if rerank_factor > 0 {
        rerank_factor.saturating_mul(params.k)
    } else {
        params.k
    };
    let mut top = frontier[..keep.min(frontier.len())].to_vec();
    if rerank_factor > 0 {
        let ids: Vec<u32> = top.iter().map(|&(id, _)| id).collect();
        let mut exact = Vec::new();
        distance_batch(query, &ids, points, metric, &mut exact);
        stats.dist_comps += ids.len();
        for (cand, d) in top.iter_mut().zip(exact) {
            cand.1 = d;
        }
        top.sort_by(cmp_dist);
    }
    top.truncate(params.k);
    top
}

/// One query through scorer + walk + re-rank over a pooled scratch.
#[allow(clippy::too_many_arguments)]
fn adc_search<T: VectorElem, S: AdcScorer>(
    scorer: &S,
    pool: &ScratchPool<AdcScratch<S::Scratch>>,
    query: &[T],
    graph: &FlatGraph,
    start: u32,
    points: &PointSet<T>,
    metric: Metric,
    rerank_factor: usize,
    params: &QueryParams,
) -> (Vec<(u32, f32)>, SearchStats) {
    let lut = scorer.make_lut(&to_f32_vec(query), metric);
    pool.with(|scratch| {
        let mut adc = AdcQuery {
            scorer,
            lut: &lut,
            scan: &mut scratch.scan,
        };
        let mut stats = walk(&mut scratch.walk, &mut adc, graph, &[start], params);
        let top = rerank_exact(
            query,
            scratch.walk.frontier(),
            points,
            metric,
            rerank_factor,
            params,
            &mut stats,
        );
        (top, stats)
    })
}

/// Build parameters for [`PqVamanaIndex`].
#[derive(Clone, Copy, Debug)]
pub struct PqVamanaParams {
    /// Graph construction parameters (build uses the *uncompressed*
    /// vectors, as DiskANN does).
    pub vamana: VamanaParams,
    /// Compression parameters.
    pub pq: PqParams,
    /// Re-rank the top `rerank_factor × k` beam entries with exact
    /// distances (0 disables re-ranking).
    pub rerank_factor: usize,
}

impl Default for PqVamanaParams {
    fn default() -> Self {
        PqVamanaParams {
            vamana: VamanaParams::default(),
            pq: PqParams::default(),
            rerank_factor: 4,
        }
    }
}

/// A Vamana graph searched through 8-bit PQ codes.
pub struct PqVamanaIndex<T> {
    /// The proximity graph (identical to the uncompressed index's).
    pub graph: FlatGraph,
    /// Search entry point.
    pub start: u32,
    /// Scoring metric.
    pub metric: Metric,
    /// Build statistics.
    pub build_stats: BuildStats,
    pq: ProductQuantizer,
    /// Codes, `n × code_len` row-major.
    codes: Vec<u8>,
    rerank_factor: usize,
    points: PointSet<T>,
    scratch: ScratchPool<AdcScratch<()>>,
}

impl<T: VectorElem> PqVamanaIndex<T> {
    /// Builds the graph on raw vectors, then compresses every vector.
    pub fn build(points: PointSet<T>, metric: Metric, params: &PqVamanaParams) -> Self {
        let inner = VamanaIndex::build(points, metric, &params.vamana);
        Self::from_index(inner, &params.pq, params.rerank_factor)
    }

    /// Compresses an existing uncompressed index.
    pub fn from_index(index: VamanaIndex<T>, pq_params: &PqParams, rerank_factor: usize) -> Self {
        let pq = ProductQuantizer::train(index.points(), pq_params);
        let code_len = pq.code_len();
        let n = index.len();
        let codes: Vec<u8> = (0..n)
            .into_par_iter()
            .flat_map_iter(|i| pq.encode(&to_f32_vec(index.points().point(i))))
            .collect();
        debug_assert_eq!(codes.len(), n * code_len);
        let (graph, start, metric, build_stats, points) = index.into_parts();
        PqVamanaIndex {
            graph,
            start,
            metric,
            build_stats,
            pq,
            codes,
            rerank_factor,
            points,
            scratch: ScratchPool::new(),
        }
    }

    /// Code bytes per vector.
    pub fn code_len(&self) -> usize {
        self.pq.code_len()
    }

    fn scorer(&self) -> Pq8Scorer<'_> {
        Pq8Scorer {
            pq: &self.pq,
            codes: &self.codes,
        }
    }

    /// Beam search over the graph scoring candidates by ADC distance, with
    /// exact re-ranking of the final beam. Single-threaded per query.
    pub fn search(&self, query: &[T], params: &QueryParams) -> (Vec<(u32, f32)>, SearchStats) {
        adc_search(
            &self.scorer(),
            &self.scratch,
            query,
            &self.graph,
            self.start,
            &self.points,
            self.metric,
            self.rerank_factor,
            params,
        )
    }

    /// The indexed points (kept for re-ranking).
    pub fn points(&self) -> &PointSet<T> {
        &self.points
    }
}

impl<T: VectorElem> AnnIndex<T> for PqVamanaIndex<T> {
    fn search(&self, query: &[T], params: &QueryParams) -> (Vec<(u32, f32)>, SearchStats) {
        PqVamanaIndex::search(self, query, params)
    }

    fn name(&self) -> String {
        format!("PQ{}-DiskANN", self.code_len())
    }

    fn kind(&self) -> IndexKind {
        IndexKind::PqVamana
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
}

/// Build parameters for [`Pq4VamanaIndex`].
#[derive(Clone, Copy, Debug)]
pub struct Pq4VamanaParams {
    /// Graph construction parameters.
    pub vamana: VamanaParams,
    /// 4-bit compression parameters.
    pub pq: Pq4Params,
    /// Re-rank the top `rerank_factor × k` beam entries exactly.
    pub rerank_factor: usize,
}

impl Default for Pq4VamanaParams {
    fn default() -> Self {
        Pq4VamanaParams {
            vamana: VamanaParams::default(),
            pq: Pq4Params::default(),
            // 4-bit ADC orders the beam more noisily than 8-bit (16-entry
            // codebooks + u8 LUT quantization), so re-rank twice as deep —
            // one batched exact pass per query either way.
            rerank_factor: 8,
        }
    }
}

/// A Vamana graph searched through 4-bit packed PQ codes with in-register
/// shuffle-LUT scans ([`crate::pq4`]). Same bytes per vector as the 8-bit
/// index at the default parameters (32 subspaces × ½ byte), but candidate
/// scoring runs 32 points per `vpshufb` instead of one table gather per
/// subspace.
pub struct Pq4VamanaIndex<T> {
    /// The proximity graph (identical to the uncompressed index's).
    pub graph: FlatGraph,
    /// Search entry point.
    pub start: u32,
    /// Scoring metric.
    pub metric: Metric,
    /// Build statistics.
    pub build_stats: BuildStats,
    pq: ProductQuantizer4,
    /// Per-point packed codes, `n × pairs` row-major.
    codes: Vec<u8>,
    rerank_factor: usize,
    points: PointSet<T>,
    scratch: ScratchPool<AdcScratch<Pq4Scratch>>,
}

impl<T: VectorElem> Pq4VamanaIndex<T> {
    /// Builds the graph on raw vectors, then compresses every vector.
    pub fn build(points: PointSet<T>, metric: Metric, params: &Pq4VamanaParams) -> Self {
        let inner = VamanaIndex::build(points, metric, &params.vamana);
        Self::from_index(inner, &params.pq, params.rerank_factor)
    }

    /// Compresses an existing uncompressed index.
    pub fn from_index(index: VamanaIndex<T>, pq_params: &Pq4Params, rerank_factor: usize) -> Self {
        let pq = ProductQuantizer4::train(index.points(), pq_params);
        let (_grouped, codes) = pq.encode_all(index.points());
        let (graph, start, metric, build_stats, points) = index.into_parts();
        Pq4VamanaIndex {
            graph,
            start,
            metric,
            build_stats,
            pq,
            codes,
            rerank_factor,
            points,
            scratch: ScratchPool::new(),
        }
    }

    /// Code bytes per vector.
    pub fn code_len(&self) -> usize {
        self.pq.code_len()
    }

    /// The trained quantizer.
    pub fn quantizer(&self) -> &ProductQuantizer4 {
        &self.pq
    }

    fn scorer(&self) -> Pq4Scorer<'_> {
        Pq4Scorer {
            pq: &self.pq,
            codes: &self.codes,
        }
    }

    /// ADC beam search with group-scanned 4-bit codes + exact re-rank.
    pub fn search(&self, query: &[T], params: &QueryParams) -> (Vec<(u32, f32)>, SearchStats) {
        adc_search(
            &self.scorer(),
            &self.scratch,
            query,
            &self.graph,
            self.start,
            &self.points,
            self.metric,
            self.rerank_factor,
            params,
        )
    }

    /// The indexed points (kept for re-ranking).
    pub fn points(&self) -> &PointSet<T> {
        &self.points
    }
}

impl<T: VectorElem> AnnIndex<T> for Pq4VamanaIndex<T> {
    fn search(&self, query: &[T], params: &QueryParams) -> (Vec<(u32, f32)>, SearchStats) {
        Pq4VamanaIndex::search(self, query, params)
    }

    fn name(&self) -> String {
        format!("PQ4x{}-DiskANN", self.pq.m())
    }

    fn kind(&self) -> IndexKind {
        IndexKind::PqVamana
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann_data::{bigann_like, compute_ground_truth, recall_ids};

    #[test]
    fn compressed_search_reaches_good_recall_with_rerank() {
        let data = bigann_like(2_000, 40, 71);
        let index =
            PqVamanaIndex::build(data.points.clone(), data.metric, &PqVamanaParams::default());
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
        assert!(r > 0.8, "PQ-graph recall {r}");
    }

    #[test]
    fn pq4_search_reaches_good_recall_with_rerank() {
        let data = bigann_like(2_000, 40, 71);
        let gt = compute_ground_truth(&data.points, &data.queries, 10, data.metric);
        let qp = QueryParams {
            beam: 64,
            ..QueryParams::default()
        };
        let index = Pq4VamanaIndex::build(
            data.points.clone(),
            data.metric,
            &Pq4VamanaParams::default(),
        );
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
        // Lower than the 8-bit floor by design: same bytes per vector
        // (m=32 nibbles vs m=16 bytes) but coarser per-subspace tables;
        // the deeper re-rank recovers most of the gap.
        assert!(r > 0.75, "PQ4-graph recall {r}");
    }

    #[test]
    fn rerank_improves_over_raw_adc() {
        let data = bigann_like(2_000, 40, 72);
        let gt = compute_ground_truth(&data.points, &data.queries, 10, data.metric);
        let qp = QueryParams {
            beam: 64,
            ..QueryParams::default()
        };
        let recall_of = |rerank: usize| {
            let index = PqVamanaIndex::build(
                data.points.clone(),
                data.metric,
                &PqVamanaParams {
                    rerank_factor: rerank,
                    ..PqVamanaParams::default()
                },
            );
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
            recall_ids(&gt, &results, 10, 10)
        };
        assert!(recall_of(4) > recall_of(0), "re-ranking must help");
    }

    #[test]
    fn batched_matches_single_query_bitwise() {
        // Batching must be unobservable: same ids, same bits, same stats
        // at 1 and 8 threads, for both the 8-bit and 4-bit scorers.
        let data = bigann_like(1_000, 17, 74);
        let qp = QueryParams {
            beam: 32,
            ..QueryParams::default()
        };
        let check = |index: &dyn AnnIndex<u8>| {
            let single: Vec<(Vec<(u32, f32)>, SearchStats)> = (0..data.queries.len())
                .map(|q| index.search(data.queries.point(q), &qp))
                .collect();
            for threads in [1usize, 8] {
                let batched =
                    parlay::with_threads(threads, || index.search_batch(&data.queries, &qp));
                assert_eq!(batched.len(), single.len());
                for (q, ((br, bstats), (sr, sstats))) in batched.iter().zip(&single).enumerate() {
                    assert_eq!(
                        br.len(),
                        sr.len(),
                        "{} threads={threads} q={q}",
                        index.name()
                    );
                    for (a, b) in br.iter().zip(sr) {
                        assert_eq!(a.0, b.0, "{} threads={threads} q={q}", index.name());
                        assert_eq!(
                            a.1.to_bits(),
                            b.1.to_bits(),
                            "{} threads={threads} q={q}",
                            index.name()
                        );
                    }
                    assert_eq!(bstats, sstats, "{} threads={threads} q={q}", index.name());
                }
            }
        };
        check(&PqVamanaIndex::build(
            data.points.clone(),
            data.metric,
            &PqVamanaParams::default(),
        ));
        check(&Pq4VamanaIndex::build(
            data.points.clone(),
            data.metric,
            &Pq4VamanaParams::default(),
        ));
    }

    #[test]
    fn zero_k_or_zero_beam_is_an_empty_result_with_zero_stats() {
        let data = bigann_like(400, 3, 75);
        let check = |index: &dyn AnnIndex<u8>| {
            for (k, beam) in [(0usize, 16usize), (5, 0)] {
                let qp = QueryParams {
                    k,
                    beam,
                    ..QueryParams::default()
                };
                let empty = (Vec::new(), SearchStats::default());
                assert_eq!(index.search(data.queries.point(0), &qp), empty);
                assert_eq!(index.search_batch(&data.queries, &qp), vec![empty; 3]);
            }
        };
        check(&PqVamanaIndex::build(
            data.points.clone(),
            data.metric,
            &PqVamanaParams::default(),
        ));
        check(&Pq4VamanaIndex::build(
            data.points.clone(),
            data.metric,
            &Pq4VamanaParams::default(),
        ));
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let data = bigann_like(800, 5, 73);
        let params = PqVamanaParams::default();
        let run = || {
            let idx = PqVamanaIndex::build(data.points.clone(), data.metric, &params);
            // Digest graph + codes.
            let mut h = idx.graph.fingerprint();
            for &c in &idx.codes {
                h = parlay::hash64_pair(h, c as u64);
            }
            h
        };
        let a = parlay::with_threads(1, run);
        let b = parlay::with_threads(2, run);
        assert_eq!(a, b);
    }

    #[test]
    fn pq4_deterministic_across_thread_counts() {
        let data = bigann_like(800, 5, 73);
        let params = Pq4VamanaParams::default();
        let run = || {
            let idx = Pq4VamanaIndex::build(data.points.clone(), data.metric, &params);
            let mut h = idx.graph.fingerprint();
            for &c in &idx.codes {
                h = parlay::hash64_pair(h, c as u64);
            }
            h
        };
        let a = parlay::with_threads(1, run);
        let b = parlay::with_threads(2, run);
        assert_eq!(a, b);
    }
}
