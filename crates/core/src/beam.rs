//! Greedy beam search (paper Alg. 1 with the §4.5 optimizations).
//!
//! The search keeps the `beam` nearest candidates seen so far in **one**
//! array sorted by `(distance, id)` and repeatedly expands the closest
//! entry it has not expanded yet. Whether an entry was expanded is a mark
//! on the entry itself (the top bit of its id — CAGRA's "parent" flag,
//! PAPERS.md), and a cursor remembers where the first unmarked entry is,
//! so a hop costs what it admits: one binary search and one tail shift per
//! new candidate, nothing proportional to the beam. The two paper
//! optimizations are included:
//!
//! * an [approximate visited table](crate::visited) with one-sided errors
//!   instead of an exact set;
//! * the (1+ε) cut of Iwasaki & Miyazaki: candidates farther than
//!   `cut × d_k` (current k-th nearest distance) are not admitted, trading
//!   a bounded recall loss for fewer distance evaluations.
//!
//! [`walk`] is the only beam-search loop in the workspace. It is generic
//! over a [`Scorer`] ("distances from the query to these ids"), so exact
//! search ([`beam_search_into`]), every builder's insert search and the
//! baselines' PQ walks over compressed codes are the same function.
//!
//! Each query is processed by a single thread (queries are batch-parallel
//! *across* queries), and every step is a pure function of the graph and
//! query, so search results are deterministic.

use crate::graph::FlatGraph;
use crate::stats::SearchStats;
use crate::visited::VisitedFilter;
use ann_data::simd::prefetch_read;
use ann_data::{distance_batch, Metric, PointSet, VectorElem};

/// Which visited-set implementation a search uses (§4.5 ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VisitedMode {
    /// The paper's approximate hash table (default; faster).
    Approx,
    /// An exact hash set (reference; used by the ablation).
    Exact,
}

/// Beam-search knobs. The recall/QPS tradeoff curves in the paper are swept
/// over `beam` and `cut` (§4.5: "we sweep two parameters: the beam size and ε").
#[derive(Clone, Copy, Debug)]
pub struct QueryParams {
    /// Number of neighbors to report (`k`). A search with `k == 0` (or
    /// `beam == 0`) returns nothing and does no work.
    pub k: usize,
    /// Beam width `L ≥ k`.
    pub beam: usize,
    /// The (1+ε) cut multiplier; values ≤ 1.0 disable the cut. The paper
    /// bounds ε at 0.25 (`cut ≤ 1.25`). Only applied for non-negative
    /// distances (it is meaningless for inner-product scores).
    pub cut: f32,
    /// Maximum number of vertex expansions (`usize::MAX` = unlimited).
    pub limit: usize,
    /// Visited-set implementation.
    pub visited: VisitedMode,
}

impl QueryParams {
    /// Whether no search can return anything under these parameters
    /// (`k == 0` or `beam == 0`): such a search is defined as the empty
    /// result with zero stats, and does no work.
    pub fn asks_nothing(&self) -> bool {
        self.k == 0 || self.beam == 0
    }
}

impl Default for QueryParams {
    fn default() -> Self {
        QueryParams {
            k: 10,
            beam: 64,
            cut: 1.25,
            limit: usize::MAX,
            visited: VisitedMode::Approx,
        }
    }
}

/// Result of one beam search.
#[derive(Clone, Debug)]
pub struct BeamResult {
    /// The final frontier: up to `beam` nearest candidates, closest first.
    pub beam: Vec<(u32, f32)>,
    /// All expanded (visited) vertices with their distances, sorted by
    /// `(distance, id)` — the candidate pool used for pruning during builds.
    pub visited: Vec<(u32, f32)>,
    /// Distance-evaluation and hop counts.
    pub stats: SearchStats,
}

impl BeamResult {
    /// The `k` nearest ids from the frontier.
    pub fn knn(&self, k: usize) -> Vec<u32> {
        self.beam.iter().take(k).map(|&(id, _)| id).collect()
    }
}

/// Anything a beam search can walk: `FlatGraph` directly, or an HNSW layer.
pub trait GraphView: Sync {
    /// Out-neighbors of `v`.
    fn out_neighbors(&self, v: u32) -> &[u32];

    /// Hints that [`out_neighbors`](Self::out_neighbors)`(v)` is about to
    /// be read (the walk calls it one hop ahead). Default: nothing.
    #[inline]
    fn prefetch_neighbors(&self, _v: u32) {}
}

impl GraphView for FlatGraph {
    #[inline]
    fn out_neighbors(&self, v: u32) -> &[u32] {
        self.neighbors(v)
    }

    #[inline]
    fn prefetch_neighbors(&self, v: u32) {
        self.prefetch_row(v);
    }
}

/// What the walk needs from a distance source: "score these ids" against
/// the query the scorer was built for. Exact vectors and PQ codes differ
/// only here.
pub trait Scorer {
    /// Number of points; every id the walk meets is below it.
    fn num_points(&self) -> usize;

    /// Distances from the query to `ids`, in order; `out` is overwritten.
    /// Must be a pure function of `(query, id)`.
    fn score(&mut self, ids: &[u32], out: &mut Vec<f32>);

    /// Hints that `id` is about to be scored. Default: nothing.
    #[inline]
    fn prefetch(&self, _id: u32) {}
}

/// Exact distances to the stored vectors, one prefetched
/// [`distance_batch`] call per out-neighborhood.
struct ExactScorer<'a, T> {
    /// Zero-padded to `points.padded_dim()` so every kernel call takes
    /// the aligned full-block path (bit-identical to the logical path;
    /// see `ann_data::simd`).
    padded_query: &'a [T],
    points: &'a PointSet<T>,
    metric: Metric,
}

impl<T: VectorElem> Scorer for ExactScorer<'_, T> {
    fn num_points(&self) -> usize {
        self.points.len()
    }

    #[inline]
    fn score(&mut self, ids: &[u32], out: &mut Vec<f32>) {
        distance_batch(self.padded_query, ids, self.points, self.metric, out);
    }

    #[inline]
    fn prefetch(&self, id: u32) {
        prefetch_read(self.points.padded_point(id as usize));
    }
}

/// Ordering used throughout the query layer: by distance, ties by id.
#[inline]
pub fn cmp_dist(a: &(u32, f32), b: &(u32, f32)) -> std::cmp::Ordering {
    a.1.total_cmp(&b.1).then(a.0.cmp(&b.0))
}

/// The *expanded* mark of a frontier entry: the top bit of its id, so the
/// mark moves with the entry when the array shifts. Ordering and equality
/// always use the unmarked id; [`walk`] checks that ids fit below it.
const EXPANDED: u32 = 1 << 31;

#[inline]
fn unmarked(e: (u32, f32)) -> (u32, f32) {
    (e.0 & !EXPANDED, e.1)
}

/// How many of a hop's first unvisited neighbors have their vector rows
/// prefetched while the rest of the neighborhood is still being filtered
/// (`distance_batch` pipelines the later ones itself).
const PREFETCH_FIRST: usize = 2;

/// The walk's reusable working state, independent of the element type and
/// of the scorer. Every buffer is reset at the start of [`walk`], so a
/// fresh scratch and a reused one give bit-identical results whatever the
/// previous search's beam, visited mode or corpus was.
pub struct WalkScratch {
    /// `(dist, id)`-sorted, at most `beam` entries. During a walk an
    /// entry's id carries [`EXPANDED`]; the marks are stripped at the end.
    frontier: Vec<(u32, f32)>,
    /// Expanded vertices in expansion order.
    expanded: Vec<(u32, f32)>,
    cand_ids: Vec<u32>,
    cand_dists: Vec<f32>,
    filter: VisitedFilter,
}

impl WalkScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        WalkScratch {
            frontier: Vec::new(),
            expanded: Vec::new(),
            cand_ids: Vec::with_capacity(64),
            cand_dists: Vec::with_capacity(64),
            filter: VisitedFilter::new(true, 64),
        }
    }

    /// The final frontier of the last walk (closest first).
    pub fn frontier(&self) -> &[(u32, f32)] {
        &self.frontier
    }

    /// The vertices the last walk expanded, **in expansion order** (the
    /// pruning rules sort their candidates themselves).
    pub fn expanded(&self) -> &[(u32, f32)] {
        &self.expanded
    }
}

impl Default for WalkScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Reusable per-search working state for exact search: the walk's buffers
/// plus the padded query.
///
/// Allocating these per query dominates the fixed cost of small searches,
/// so every index keeps scratches in a
/// [`ScratchPool`](crate::query::ScratchPool) and the builders take one
/// per batch worker.
pub struct SearchScratch<T> {
    padded_query: Vec<T>,
    walk: WalkScratch,
}

impl<T: VectorElem> SearchScratch<T> {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        SearchScratch {
            padded_query: Vec::new(),
            walk: WalkScratch::new(),
        }
    }

    /// The final frontier of the last search (closest first).
    pub fn frontier(&self) -> &[(u32, f32)] {
        self.walk.frontier()
    }

    /// The vertices the last search expanded, **in expansion order**.
    pub fn expanded(&self) -> &[(u32, f32)] {
        self.walk.expanded()
    }

    /// The `k` nearest of the last search, as an owned result row.
    pub fn top_k(&self, k: usize) -> Vec<(u32, f32)> {
        let frontier = self.frontier();
        frontier[..k.min(frontier.len())].to_vec()
    }
}

impl<T: VectorElem> Default for SearchScratch<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Greedy beam search for `query` over `view`, starting from `starts`.
///
/// Allocates its working state per call; loops over many queries use
/// [`beam_search_into`] with a reused [`SearchScratch`].
pub fn beam_search<T: VectorElem, G: GraphView>(
    query: &[T],
    points: &PointSet<T>,
    metric: Metric,
    view: &G,
    starts: &[u32],
    params: &QueryParams,
) -> BeamResult {
    let mut scratch = SearchScratch::new();
    let stats = beam_search_into(&mut scratch, query, points, metric, view, starts, params);
    let mut visited = scratch.walk.expanded;
    visited.sort_by(cmp_dist);
    BeamResult {
        beam: scratch.walk.frontier,
        visited,
        stats,
    }
}

/// [`beam_search`] over caller-owned scratch: results are left in
/// [`SearchScratch::frontier`] / [`SearchScratch::expanded`] and only the
/// stats are returned, so a reused scratch performs no per-query
/// allocation once its buffers have grown to steady state.
pub fn beam_search_into<T: VectorElem, G: GraphView>(
    scratch: &mut SearchScratch<T>,
    query: &[T],
    points: &PointSet<T>,
    metric: Metric,
    view: &G,
    starts: &[u32],
    params: &QueryParams,
) -> SearchStats {
    // Zero-filling a wrong-length query would return silently wrong
    // neighbors, so the dimension is checked before padding.
    assert_eq!(query.len(), points.dim(), "query dimensionality mismatch");
    scratch.padded_query.clear();
    scratch.padded_query.extend_from_slice(query);
    scratch
        .padded_query
        .resize(points.padded_dim(), T::from_f32(0.0));
    let mut scorer = ExactScorer {
        padded_query: &scratch.padded_query,
        points,
        metric,
    };
    walk(&mut scratch.walk, &mut scorer, view, starts, params)
}

/// The beam-search loop (see the module docs). Leaves the final frontier
/// and the expanded vertices in `scratch` and returns the counters.
///
/// `starts` are expected to be distinct; a start id repeated in the list
/// is merged into one frontier entry.
pub fn walk<S: Scorer, G: GraphView>(
    scratch: &mut WalkScratch,
    scorer: &mut S,
    view: &G,
    starts: &[u32],
    params: &QueryParams,
) -> SearchStats {
    let WalkScratch {
        frontier,
        expanded,
        cand_ids,
        cand_dists,
        filter,
    } = scratch;
    let mut stats = SearchStats::default();
    frontier.clear();
    expanded.clear();
    if params.asks_nothing() {
        return stats;
    }
    assert!(
        scorer.num_points() <= EXPANDED as usize,
        "beam search marks expanded entries in bit 31 of the id: at most 2^31 points"
    );
    let beam = params.beam;
    filter.reset(params.visited == VisitedMode::Approx, beam);

    // Seed the frontier with the start points, scored in one batch.
    cand_ids.clear();
    cand_ids.extend(
        starts
            .iter()
            .copied()
            .filter(|&s| !filter.test_and_insert(s)),
    );
    scorer.score(cand_ids, cand_dists);
    stats.dist_comps += cand_ids.len();
    // Everything before `cursor` is expanded.
    let mut cursor = 0;
    for (&s, &d) in cand_ids.iter().zip(cand_dists.iter()) {
        admit(frontier, &mut cursor, beam, (s, d));
    }

    loop {
        while cursor < frontier.len() && frontier[cursor].0 & EXPANDED != 0 {
            cursor += 1;
        }
        if cursor == frontier.len() || expanded.len() >= params.limit {
            break;
        }
        let current = frontier[cursor];
        frontier[cursor].0 |= EXPANDED;
        expanded.push(current);
        stats.hops += 1;
        // Every candidate of this hop is tested against the bounds as
        // they stand now, before any of them is admitted.
        let (worst, cut_bound) = admission_bounds(frontier, params);

        // Score the whole unvisited out-neighborhood in one call: the PQ
        // scorers scan ids in groups, and `distance_batch` prefetches the
        // next rows while it scores the current one (paper §4.5's
        // memory-layout observation, applied to the hot loop).
        cand_ids.clear();
        for &w in view.out_neighbors(current.0) {
            if !filter.test_and_insert(w) {
                if cand_ids.len() < PREFETCH_FIRST {
                    scorer.prefetch(w);
                }
                cand_ids.push(w);
            }
        }
        scorer.score(cand_ids, cand_dists);
        stats.dist_comps += cand_ids.len();

        // The next vertex to expand is the closest of the entry after the
        // cursor and this hop's admitted candidates. It is known before
        // the candidates are shifted into the array, so its adjacency row
        // is fetched while they are.
        let mut next = frontier
            .get(cursor + 1)
            .copied()
            .filter(|e| e.0 & EXPANDED == 0);
        let mut admitted = 0;
        for i in 0..cand_ids.len() {
            let cand = (cand_ids[i], cand_dists[i]);
            if cand.1 >= worst || cand.1 > cut_bound {
                continue;
            }
            if next.is_none_or(|n| cmp_dist(&cand, &n).is_lt()) {
                next = Some(cand);
            }
            cand_ids[admitted] = cand.0;
            cand_dists[admitted] = cand.1;
            admitted += 1;
        }
        if let Some((id, _)) = next {
            view.prefetch_neighbors(id);
        }
        for i in 0..admitted {
            admit(frontier, &mut cursor, beam, (cand_ids[i], cand_dists[i]));
        }
    }

    for e in frontier.iter_mut() {
        e.0 &= !EXPANDED;
    }
    stats
}

/// Inserts `cand` into the sorted frontier unless it is already there (an
/// exact `(dist, id)` hit: a vertex re-scored after the approximate filter
/// evicted it) or lies beyond a full beam's last entry; keeps at most
/// `beam` entries and moves `cursor` back when `cand` lands before it.
#[inline]
fn admit(frontier: &mut Vec<(u32, f32)>, cursor: &mut usize, beam: usize, cand: (u32, f32)) {
    let pos = frontier.partition_point(|&e| cmp_dist(&unmarked(e), &cand).is_lt());
    if pos == beam || frontier.get(pos).is_some_and(|&e| unmarked(e).0 == cand.0) {
        return;
    }
    if frontier.len() == beam {
        frontier.pop();
    }
    frontier.insert(pos, cand);
    *cursor = (*cursor).min(pos);
}

/// Admission thresholds for one expansion: the beam's worst member, and
/// the (1+ε) cut around the current k-th nearest candidate. Reads
/// distances only, so the expanded marks do not matter.
#[inline]
fn admission_bounds(frontier: &[(u32, f32)], params: &QueryParams) -> (f32, f32) {
    let worst = if frontier.len() == params.beam {
        frontier.last().expect("nonempty").1
    } else {
        f32::INFINITY
    };
    let kth = if frontier.len() >= params.k {
        frontier[params.k - 1].1
    } else {
        f32::INFINITY
    };
    let cut_bound = if params.cut > 1.0 && kth.is_finite() && kth > 0.0 {
        params.cut * kth
    } else {
        f32::INFINITY
    };
    (worst, cut_bound)
}

/// The three-list loop [`walk`] replaced, kept verbatim as the reference
/// the differential tests compare against: a sorted frontier, a sorted
/// visited list and their difference, all three rebuilt on every hop.
#[cfg(test)]
mod reference {
    use super::*;

    #[derive(Default)]
    pub struct RefScratch {
        pub cand_ids: Vec<u32>,
        pub cand_dists: Vec<f32>,
        pub frontier: Vec<(u32, f32)>,
        pub visited: Vec<(u32, f32)>,
        pub unvisited: Vec<(u32, f32)>,
        pub candidates: Vec<(u32, f32)>,
        pub merge_buf: Vec<(u32, f32)>,
    }

    /// The old `beam_search_into`, with the visited filter passed in so a
    /// test can give both loops the same (possibly tiny) table.
    #[allow(clippy::too_many_arguments)]
    pub fn beam_search_into<T: VectorElem, G: GraphView>(
        scratch: &mut RefScratch,
        filter: &mut VisitedFilter,
        query: &[T],
        points: &PointSet<T>,
        metric: Metric,
        view: &G,
        starts: &[u32],
        params: &QueryParams,
    ) -> SearchStats {
        let mut stats = SearchStats::default();
        filter.reset(params.visited == VisitedMode::Approx, params.beam);
        let padded_query = points.pad_query(query);

        scratch.cand_ids.clear();
        scratch.cand_ids.extend(
            starts
                .iter()
                .copied()
                .filter(|&s| !filter.test_and_insert(s)),
        );
        distance_batch(
            &padded_query,
            &scratch.cand_ids,
            points,
            metric,
            &mut scratch.cand_dists,
        );
        stats.dist_comps += scratch.cand_ids.len();
        scratch.frontier.clear();
        scratch.frontier.extend(
            scratch
                .cand_ids
                .iter()
                .copied()
                .zip(scratch.cand_dists.iter().copied()),
        );
        scratch.frontier.sort_by(cmp_dist);
        scratch.frontier.truncate(params.beam);

        scratch.visited.clear();
        scratch.unvisited.clear();
        scratch.unvisited.extend_from_slice(&scratch.frontier);

        while let Some(&current) = scratch.unvisited.first() {
            if scratch.visited.len() >= params.limit {
                break;
            }
            // Move `current` from the unvisited frontier into the visited list.
            let pos = scratch
                .visited
                .binary_search_by(|x| cmp_dist(x, &current))
                .unwrap_or_else(|e| e);
            scratch.visited.insert(pos, current);
            stats.hops += 1;

            let (worst, cut_bound) = admission_bounds(&scratch.frontier, params);

            scratch.cand_ids.clear();
            for &w in view.out_neighbors(current.0) {
                if !filter.test_and_insert(w) {
                    scratch.cand_ids.push(w);
                }
            }
            distance_batch(
                &padded_query,
                &scratch.cand_ids,
                points,
                metric,
                &mut scratch.cand_dists,
            );
            stats.dist_comps += scratch.cand_ids.len();
            scratch.candidates.clear();
            for (&w, &d) in scratch.cand_ids.iter().zip(scratch.cand_dists.iter()) {
                if d >= worst || d > cut_bound {
                    continue;
                }
                scratch.candidates.push((w, d));
            }
            scratch.candidates.sort_by(cmp_dist);

            // Merge candidates into the frontier (both sorted), dedup, truncate.
            merge_dedup_into(
                &scratch.frontier,
                &scratch.candidates,
                params.beam,
                &mut scratch.merge_buf,
            );
            std::mem::swap(&mut scratch.frontier, &mut scratch.merge_buf);
            // Unvisited = frontier \ visited (both sorted by (dist, id)).
            sorted_difference_into(&scratch.frontier, &scratch.visited, &mut scratch.merge_buf);
            std::mem::swap(&mut scratch.unvisited, &mut scratch.merge_buf);
        }

        stats
    }

    /// Merges two `(dist, id)`-sorted lists, removing duplicate ids (equal ids
    /// carry equal distances, so duplicates are adjacent), keeping `cap` items.
    /// `out` is cleared first (scratch-reuse path).
    pub fn merge_dedup_into(
        a: &[(u32, f32)],
        b: &[(u32, f32)],
        cap: usize,
        out: &mut Vec<(u32, f32)>,
    ) {
        out.clear();
        out.reserve((a.len() + b.len()).min(cap));
        let (mut i, mut j) = (0, 0);
        while out.len() < cap && (i < a.len() || j < b.len()) {
            let take_a = match (a.get(i), b.get(j)) {
                (Some(x), Some(y)) => cmp_dist(x, y) != std::cmp::Ordering::Greater,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => unreachable!(),
            };
            let item = if take_a {
                i += 1;
                a[i - 1]
            } else {
                j += 1;
                b[j - 1]
            };
            if out.last().map(|&(id, _)| id) != Some(item.0) {
                out.push(item);
            }
        }
    }

    /// `a \ b` for `(dist, id)`-sorted lists; `out` is cleared first.
    pub fn sorted_difference_into(a: &[(u32, f32)], b: &[(u32, f32)], out: &mut Vec<(u32, f32)>) {
        out.clear();
        out.reserve(a.len());
        let mut j = 0;
        for &x in a {
            while j < b.len() && cmp_dist(&b[j], &x) == std::cmp::Ordering::Less {
                j += 1;
            }
            if j >= b.len() || b[j].0 != x.0 {
                out.push(x);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann_data::PointSet;
    use proptest::prelude::*;

    /// The worked example of paper Fig. 2: eight points A..H, a query near
    /// H, beam width 3, starting at A. The search must terminate with H as
    /// the nearest neighbor found.
    #[test]
    fn figure2_trace() {
        // Layout chosen to match the figure's qualitative geometry:
        // A is the start (far left), the query sits next to H.
        let coords = vec![
            vec![0.0f32, 0.0], // A = 0
            vec![4.0, 2.5],    // B = 1
            vec![6.5, -0.5],   // C = 2
            vec![3.0, 0.5],    // D = 3
            vec![9.0, 3.0],    // E = 4
            vec![7.0, 1.5],    // F = 5
            vec![9.5, 0.5],    // G = 6
            vec![7.5, 0.0],    // H = 7
        ];
        let points = PointSet::from_rows(&coords);
        let mut g = FlatGraph::new(8, 4);
        g.set_neighbors(0, &[1, 3, 7]); // A -> B, D, H
        g.set_neighbors(1, &[4, 0]); // B -> E, A
        g.set_neighbors(2, &[6, 5]); // C -> G, F
        g.set_neighbors(3, &[2, 1]); // D -> C, B
        g.set_neighbors(4, &[6]); // E -> G
        g.set_neighbors(5, &[3, 2]); // F -> D, C
        g.set_neighbors(6, &[4]); // G -> E
        g.set_neighbors(7, &[5, 3]); // H -> F, D
        let query = vec![7.8f32, -0.4];
        let params = QueryParams {
            k: 1,
            beam: 3,
            cut: 1.0,
            ..QueryParams::default()
        };
        let res = beam_search(&query, &points, Metric::SquaredEuclidean, &g, &[0], &params);
        assert_eq!(res.beam[0].0, 7, "nearest neighbor found must be H");
        // Everything in the final beam was either visited or a neighbor of a
        // visited vertex.
        assert!(res.stats.dist_comps > 0);
        assert!(!res.visited.is_empty());
    }

    fn line_graph(n: usize) -> (PointSet<f32>, FlatGraph) {
        // Points on a line, each connected to its neighbors at distance 1 & 2.
        let points = PointSet::from_rows(&(0..n).map(|i| vec![i as f32, 0.0]).collect::<Vec<_>>());
        let mut g = FlatGraph::new(n, 4);
        for i in 0..n {
            let mut nbrs = Vec::new();
            if i > 0 {
                nbrs.push((i - 1) as u32);
            }
            if i + 1 < n {
                nbrs.push((i + 1) as u32);
            }
            if i + 2 < n {
                nbrs.push((i + 2) as u32);
            }
            g.set_neighbors(i as u32, &nbrs);
        }
        (points, g)
    }

    #[test]
    fn walks_to_the_target() {
        let (points, g) = line_graph(100);
        let query = vec![87.2f32, 0.0];
        let res = beam_search(
            &query,
            &points,
            Metric::SquaredEuclidean,
            &g,
            &[0],
            &QueryParams::default(),
        );
        assert_eq!(res.beam[0].0, 87);
    }

    #[test]
    fn visited_is_sorted_and_consistent() {
        let (points, g) = line_graph(60);
        let query = vec![30.0f32, 0.0];
        let res = beam_search(
            &query,
            &points,
            Metric::SquaredEuclidean,
            &g,
            &[0],
            &QueryParams::default(),
        );
        for w in res.visited.windows(2) {
            assert!(cmp_dist(&w[0], &w[1]) != std::cmp::Ordering::Greater);
        }
        // Distances recorded match recomputation.
        for &(id, d) in &res.visited {
            let want =
                ann_data::distance(&query, points.point(id as usize), Metric::SquaredEuclidean);
            assert_eq!(d, want);
        }
    }

    #[test]
    fn limit_caps_expansions() {
        let (points, g) = line_graph(200);
        let query = vec![199.0f32, 0.0];
        let res = beam_search(
            &query,
            &points,
            Metric::SquaredEuclidean,
            &g,
            &[0],
            &QueryParams {
                limit: 5,
                ..QueryParams::default()
            },
        );
        assert!(res.visited.len() <= 5);
    }

    #[test]
    fn larger_beam_never_hurts_on_exact_walk() {
        let (points, g) = line_graph(120);
        let query = vec![64.3f32, 0.0];
        for beam in [2usize, 4, 16, 64] {
            let res = beam_search(
                &query,
                &points,
                Metric::SquaredEuclidean,
                &g,
                &[0],
                &QueryParams {
                    beam,
                    k: 1,
                    ..QueryParams::default()
                },
            );
            assert_eq!(res.beam[0].0, 64, "beam {beam} failed");
        }
    }

    #[test]
    fn eps_cut_reduces_distance_comparisons() {
        let (points, g) = line_graph(300);
        let query = vec![250.0f32, 0.0];
        let loose = beam_search(
            &query,
            &points,
            Metric::SquaredEuclidean,
            &g,
            &[0],
            &QueryParams {
                cut: 1.0,
                beam: 32,
                ..QueryParams::default()
            },
        );
        let tight = beam_search(
            &query,
            &points,
            Metric::SquaredEuclidean,
            &g,
            &[0],
            &QueryParams {
                cut: 1.05,
                beam: 32,
                ..QueryParams::default()
            },
        );
        assert!(tight.stats.dist_comps <= loose.stats.dist_comps);
        assert_eq!(tight.beam[0].0, 250);
    }

    #[test]
    fn exact_and_approx_visited_agree_on_results() {
        let (points, g) = line_graph(150);
        let query = vec![99.0f32, 0.0];
        let a = beam_search(
            &query,
            &points,
            Metric::SquaredEuclidean,
            &g,
            &[0],
            &QueryParams {
                visited: VisitedMode::Approx,
                ..QueryParams::default()
            },
        );
        let e = beam_search(
            &query,
            &points,
            Metric::SquaredEuclidean,
            &g,
            &[0],
            &QueryParams {
                visited: VisitedMode::Exact,
                ..QueryParams::default()
            },
        );
        assert_eq!(a.beam[0].0, e.beam[0].0);
    }

    #[test]
    fn empty_starts_yields_empty_result() {
        let (points, g) = line_graph(10);
        let res = beam_search(
            &[0.0f32, 0.0],
            &points,
            Metric::SquaredEuclidean,
            &g,
            &[],
            &QueryParams::default(),
        );
        assert!(res.beam.is_empty());
        assert!(res.visited.is_empty());
    }

    #[test]
    fn zero_k_or_zero_beam_is_an_empty_result_with_zero_stats() {
        let (points, g) = line_graph(50);
        for (k, beam) in [(0usize, 8usize), (3, 0), (0, 0)] {
            let res = beam_search(
                &[20.0f32, 0.0],
                &points,
                Metric::SquaredEuclidean,
                &g,
                &[0],
                &QueryParams {
                    k,
                    beam,
                    ..QueryParams::default()
                },
            );
            assert!(
                res.beam.is_empty() && res.visited.is_empty(),
                "k={k} beam={beam}"
            );
            assert_eq!(res.stats, SearchStats::default(), "k={k} beam={beam}");
        }
    }

    #[test]
    fn reference_merge_and_difference_helpers() {
        let a = vec![(1u32, 1.0f32), (2, 2.0)];
        let b = vec![(2u32, 2.0f32), (3, 3.0)];
        let mut out = Vec::new();
        reference::merge_dedup_into(&a, &b, 10, &mut out);
        assert_eq!(out, vec![(1, 1.0), (2, 2.0), (3, 3.0)]);
        let a = vec![(1u32, 1.0f32), (2, 2.0), (3, 3.0)];
        reference::sorted_difference_into(&a, &[(2u32, 2.0f32)], &mut out);
        assert_eq!(out, vec![(1, 1.0), (3, 3.0)]);
    }

    fn bits(list: &[(u32, f32)]) -> Vec<(u32, u32)> {
        list.iter().map(|&(id, d)| (id, d.to_bits())).collect()
    }

    /// A random small-coordinate corpus (many distance ties) with a random
    /// adjacency that may repeat a neighbor id and point at itself.
    fn random_graph(n: usize, degree: usize, seed: u64) -> (PointSet<f32>, FlatGraph) {
        let rng = parlay::Random::new(seed);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                (0..3)
                    .map(|c| (rng.ith_rand((i * 3 + c) as u64) % 6) as f32)
                    .collect()
            })
            .collect();
        let points = PointSet::from_rows(&rows);
        let mut g = FlatGraph::new(n, degree);
        let edges = rng.fork(1);
        for v in 0..n {
            let d = 1 + (edges.ith_rand((v * 64) as u64) as usize) % degree;
            let row: Vec<u32> = (0..d)
                .map(|j| (edges.ith_rand((v * 64 + j + 1) as u64) % n as u64) as u32)
                .collect();
            g.set_neighbors(v as u32, &row);
        }
        (points, g)
    }

    /// One differential case: the walk and the three-list reference, given
    /// the same filter geometry, must agree on everything observable.
    #[allow(clippy::too_many_arguments)]
    fn check_against_reference(
        scratch: &mut SearchScratch<f32>,
        points: &PointSet<f32>,
        g: &FlatGraph,
        query: &[f32],
        starts: &[u32],
        params: &QueryParams,
        slot_cap: usize,
    ) {
        let mut ref_filter = VisitedFilter::new(true, 64);
        ref_filter.approx_mut().set_slot_cap(slot_cap);
        scratch.walk.filter.approx_mut().set_slot_cap(slot_cap);
        let mut ref_scratch = reference::RefScratch::default();
        let want = reference::beam_search_into(
            &mut ref_scratch,
            &mut ref_filter,
            query,
            points,
            Metric::SquaredEuclidean,
            g,
            starts,
            params,
        );
        let got = beam_search_into(
            scratch,
            query,
            points,
            Metric::SquaredEuclidean,
            g,
            starts,
            params,
        );
        assert_eq!(got, want, "stats {params:?} starts {starts:?}");
        assert_eq!(
            bits(scratch.frontier()),
            bits(&ref_scratch.frontier),
            "frontier {params:?} starts {starts:?}"
        );
        let mut expanded = scratch.expanded().to_vec();
        expanded.sort_by(cmp_dist);
        assert_eq!(
            bits(&expanded),
            bits(&ref_scratch.visited),
            "visited {params:?} starts {starts:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn walk_matches_the_three_list_reference(
            seed in 0u64..1_000_000,
            n in 2usize..160,
            degree in 1usize..9,
            beam in 1usize..=64,
            k in 1usize..=80,
            loose_cut in any::<bool>(),
            limited in any::<bool>(),
            exact in any::<bool>(),
            tiny_filter in any::<bool>(),
            num_starts in 1usize..5,
        ) {
            let (points, g) = random_graph(n, degree, seed);
            let rng = parlay::Random::new(seed ^ 0x5eed);
            let query: Vec<f32> = (0..3).map(|c| (rng.ith_rand(c) % 60) as f32 / 10.0).collect();
            // Distinct start ids, in a seed-dependent order.
            let mut starts: Vec<u32> = (0..num_starts as u64)
                .map(|i| (rng.ith_rand(10 + i) % n as u64) as u32)
                .collect();
            starts.sort_unstable();
            starts.dedup();
            let turn = seed as usize % starts.len();
            starts.rotate_left(turn);
            let params = QueryParams {
                k,
                beam,
                cut: if loose_cut { 1.25 } else { 1.0 },
                limit: if limited { 1 + (seed as usize % 12) } else { usize::MAX },
                visited: if exact { VisitedMode::Exact } else { VisitedMode::Approx },
            };
            let slot_cap = if tiny_filter { 64 } else { 1 << 16 };
            check_against_reference(
                &mut SearchScratch::new(), &points, &g, &query, &starts, &params, slot_cap,
            );
        }
    }

    /// One scratch driven through searches that change beam, visited mode,
    /// corpus (padded dimension) and cross the filter's epoch wrap-around
    /// must answer like a fresh scratch every time.
    #[test]
    fn reused_scratch_equals_fresh_scratch() {
        let (small, g_small) = random_graph(120, 6, 7);
        // A second corpus with a different padded dimension.
        let wide_rows: Vec<Vec<f32>> = (0..90)
            .map(|i| (0..40).map(|c| ((i * 7 + c * 3) % 11) as f32).collect())
            .collect();
        let wide = PointSet::from_rows(&wide_rows);
        assert_ne!(wide.padded_dim(), small.padded_dim());
        let mut g_wide = FlatGraph::new(90, 4);
        for v in 0..90u32 {
            g_wide.set_neighbors(v, &[(v + 1) % 90, (v + 7) % 90, (v * 5 + 3) % 90]);
        }
        let q_small = vec![2.5f32, 1.0, 4.0];
        let q_wide: Vec<f32> = (0..40).map(|c| (c % 5) as f32).collect();

        let mut reused = SearchScratch::new();
        let step = |reused: &mut SearchScratch<f32>,
                    wide_corpus: bool,
                    beam: usize,
                    visited: VisitedMode| {
            let (points, g, q) = if wide_corpus {
                (&wide, &g_wide, &q_wide)
            } else {
                (&small, &g_small, &q_small)
            };
            let params = QueryParams {
                beam,
                visited,
                ..QueryParams::default()
            };
            let mut fresh = SearchScratch::new();
            let want = beam_search_into(
                &mut fresh,
                q,
                points,
                Metric::SquaredEuclidean,
                g,
                &[0, 5],
                &params,
            );
            let got = beam_search_into(
                reused,
                q,
                points,
                Metric::SquaredEuclidean,
                g,
                &[0, 5],
                &params,
            );
            assert_eq!(got, want, "beam {beam} {visited:?} wide {wide_corpus}");
            assert_eq!(bits(reused.frontier()), bits(fresh.frontier()));
            assert_eq!(bits(reused.expanded()), bits(fresh.expanded()));
        };
        use VisitedMode::{Approx, Exact};
        step(&mut reused, false, 256, Approx);
        step(&mut reused, false, 8, Approx);
        step(&mut reused, false, 256, Approx);
        step(&mut reused, true, 8, Exact);
        step(&mut reused, true, 256, Approx);
        step(&mut reused, false, 32, Exact);
        // Across the epoch wrap-around: the table still holds entries
        // stamped by the searches above.
        reused.walk.filter.approx_mut().set_epoch(u32::MAX - 1);
        for beam in [256, 8, 256, 64] {
            step(&mut reused, false, beam, Approx);
        }
    }
}
