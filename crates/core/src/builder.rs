//! Lock-free incremental graph construction (paper §3.1, Alg. 3).
//!
//! The two techniques the paper introduces for incremental algorithms:
//!
//! * **Prefix doubling** — points are inserted in batches of exponentially
//!   increasing size (capped at `θ = batch_cap_frac · n`, the *batch-size
//!   truncation* optimization). Every point in a batch searches an
//!   **immutable snapshot** of the index from the previous batch, so
//!   no synchronization is needed and each point deterministically sees an
//!   index of Θ(i) points.
//! * **Batch insertion via semisort** — the reverse edges created by a
//!   batch are merged into their targets by [`merge_reverse`], which gives
//!   each target row to exactly one task, eliminating per-vertex locks.
//!
//! The build is phase-structured: parallel reads of the snapshot, then
//! parallel writes to disjoint rows through [`FlatGraph::set_rows`] — never
//! both at once. HNSW ([`crate::hnsw`]) inserts with the same merge and
//! writer, per layer.

use crate::beam::{beam_search_into, QueryParams, SearchScratch, VisitedMode};
use crate::edges::merge_reverse;
use crate::graph::FlatGraph;
use crate::prune::{heuristic_prune, robust_prune};
use crate::query::ScratchPool;
use ann_data::{distance_batch, Metric, PointSet, VectorElem};
use parlay::map_slice;

/// Construction parameters shared by the incremental algorithms.
#[derive(Clone, Copy, Debug)]
pub struct BuildParams {
    /// Degree bound `R`.
    pub degree: usize,
    /// Beam width `L` used for insertion searches.
    pub beam: usize,
    /// Batch-size cap as a fraction of `n` (paper: θ = 0.02·n).
    pub batch_cap_frac: f64,
    /// `true` = prefix doubling (Alg. 3); `false` = a single batch over all
    /// points (the degenerate schedule the ablation compares against).
    pub prefix_doubling: bool,
    /// (1+ε) cut used during construction searches.
    pub cut: f32,
}

impl Default for BuildParams {
    fn default() -> Self {
        BuildParams {
            degree: 32,
            beam: 64,
            batch_cap_frac: 0.02,
            prefix_doubling: true,
            cut: 1.25,
        }
    }
}

/// A pruning rule used by the incremental builder (α-prune for DiskANN,
/// the neighbor-selection heuristic for HNSW).
pub trait PruneStrategy<T: VectorElem>: Sync {
    /// Selects at most `bound` neighbors for `p` from `(id, dist)` candidates.
    fn prune(
        &self,
        p: u32,
        candidates: Vec<(u32, f32)>,
        points: &PointSet<T>,
        metric: Metric,
        bound: usize,
        dist_comps: &mut usize,
    ) -> Vec<u32>;
}

/// DiskANN/NSG α-prune strategy.
#[derive(Clone, Copy, Debug)]
pub struct AlphaPrune(pub f32);

impl<T: VectorElem> PruneStrategy<T> for AlphaPrune {
    fn prune(
        &self,
        p: u32,
        candidates: Vec<(u32, f32)>,
        points: &PointSet<T>,
        metric: Metric,
        bound: usize,
        dist_comps: &mut usize,
    ) -> Vec<u32> {
        robust_prune(p, candidates, points, metric, self.0, bound, dist_comps)
    }
}

/// HNSW neighbor-selection heuristic strategy, back-filling pruned
/// candidates up to the bound (hnswlib's `keepPrunedConnections`).
#[derive(Clone, Copy, Debug)]
pub struct HeuristicPrune {
    /// Density knob (paper Fig. 7 tunes this per dataset).
    pub alpha: f32,
}

impl<T: VectorElem> PruneStrategy<T> for HeuristicPrune {
    fn prune(
        &self,
        p: u32,
        candidates: Vec<(u32, f32)>,
        points: &PointSet<T>,
        metric: Metric,
        bound: usize,
        dist_comps: &mut usize,
    ) -> Vec<u32> {
        heuristic_prune(
            p, candidates, points, metric, self.alpha, bound, true, dist_comps,
        )
    }
}

/// Builds an ANN graph by prefix-doubling batch insertion (Alg. 3).
///
/// `start` must already be a valid vertex (it is seeded with an empty
/// neighborhood); `order` lists the remaining points in insertion order.
/// Returns the graph and the total distance comparisons performed.
pub fn incremental_build<T: VectorElem, P: PruneStrategy<T>>(
    points: &PointSet<T>,
    metric: Metric,
    start: u32,
    order: &[u32],
    params: &BuildParams,
    pruner: &P,
) -> (FlatGraph, u64) {
    let n = points.len();
    let mut graph = FlatGraph::new(n, params.degree);
    let batches: Vec<&[u32]> = if params.prefix_doubling {
        prefix_doubling(order, batch_cap(n, params.batch_cap_frac)).collect()
    } else {
        vec![order]
    };
    let mut total_dc = 0u64;
    for batch in batches {
        total_dc += batch_insert(
            &mut graph, points, metric, start, batch, params, pruner, false,
        );
    }
    (graph, total_dc)
}

/// The batch-size cap θ = ⌈`frac` · n⌉ (at least 1).
pub(crate) fn batch_cap(n: usize, frac: f64) -> usize {
    ((frac * n as f64).ceil() as usize).max(1)
}

/// Splits `order` into Alg. 3's batches: one point, then as many as have
/// been inserted so far, capped at `theta`.
pub(crate) fn prefix_doubling(order: &[u32], theta: usize) -> impl Iterator<Item = &[u32]> {
    let mut done = 0;
    std::iter::from_fn(move || {
        let size = done.clamp(1, theta).min(order.len() - done);
        let batch = &order[done..done + size];
        done += size;
        (size > 0).then_some(batch)
    })
}

/// A refinement pass over an existing graph (DiskANN's second pass):
/// re-inserts every point in `order` in fixed-size θ batches, unioning each
/// point's current neighborhood into its candidate set.
pub fn refine_pass<T: VectorElem, P: PruneStrategy<T>>(
    graph: &mut FlatGraph,
    points: &PointSet<T>,
    metric: Metric,
    start: u32,
    order: &[u32],
    params: &BuildParams,
    pruner: &P,
) -> u64 {
    let theta = batch_cap(points.len(), params.batch_cap_frac);
    let mut total_dc = 0u64;
    for batch in order.chunks(theta) {
        total_dc += batch_insert(graph, points, metric, start, batch, params, pruner, true);
    }
    total_dc
}

/// Inserts one batch (paper Alg. 3, `BatchInsert`).
#[allow(clippy::too_many_arguments)]
fn batch_insert<T: VectorElem, P: PruneStrategy<T>>(
    graph: &mut FlatGraph,
    points: &PointSet<T>,
    metric: Metric,
    start: u32,
    batch: &[u32],
    params: &BuildParams,
    pruner: &P,
    include_existing: bool,
) -> u64 {
    let qp = QueryParams {
        k: 1,
        beam: params.beam,
        cut: params.cut,
        limit: usize::MAX,
        visited: VisitedMode::Approx,
    };

    // Step 1 — each batch point independently searches the immutable
    // snapshot and prunes its candidate set (lines 7–9 of Alg. 3). The
    // search state is reused across the batch: one scratch per worker.
    let snapshot: &FlatGraph = graph;
    let scratches: ScratchPool<SearchScratch<T>> = ScratchPool::new();
    let results: Vec<((u32, Vec<u32>), usize)> = map_slice(batch, |&p| {
        let (stats, mut candidates) = scratches.with(|scratch| {
            let stats = beam_search_into(
                scratch,
                points.point(p as usize),
                points,
                metric,
                snapshot,
                &[start],
                &qp,
            );
            (stats, scratch.expanded().to_vec())
        });
        let mut dc = stats.dist_comps;
        if include_existing {
            let existing = snapshot.neighbors(p);
            let mut dists = Vec::new();
            distance_batch(
                points.padded_point(p as usize),
                existing,
                points,
                metric,
                &mut dists,
            );
            dc += existing.len();
            candidates.extend(existing.iter().copied().zip(dists));
        }
        let out = pruner.prune(p, candidates, points, metric, params.degree, &mut dc);
        ((p, out), dc)
    });
    let search_dc: u64 = results.iter().map(|&(_, dc)| dc as u64).sum();
    let rows: Vec<(u32, Vec<u32>)> = results.into_iter().map(|(row, _)| row).collect();

    // Step 2 — write the new rows (batch ids are distinct: a batch is a
    // slice of the insertion permutation).
    graph.set_rows(&rows);

    // Steps 3–4 — reverse edges (v ← p), merged into each target by one
    // task and pruned on overflow (lines 10–14), read against the
    // post-step-2 graph; step 5 writes them. `pairs` is sized exactly: left
    // to grow by doubling it measurably raised the build's peak RSS.
    let mut pairs: Vec<(u32, u32)> =
        Vec::with_capacity(rows.iter().map(|(_, out)| out.len()).sum());
    pairs.extend(
        rows.iter()
            .flat_map(|(p, out)| out.iter().map(move |&v| (v, *p))),
    );
    let snapshot: &FlatGraph = graph;
    let (updates, merge_dc) = merge_reverse(
        &pairs,
        |v| snapshot.neighbors(v),
        snapshot.max_degree(),
        points,
        metric,
        pruner,
    );
    graph.set_rows(&updates);
    search_dc + merge_dc
}

/// A deterministic pseudo-random insertion order over `0..n`, excluding
/// `start` (which is pre-seeded into the graph).
pub fn insertion_order(n: usize, start: u32, seed: u64) -> Vec<u32> {
    let mut ids: Vec<(u64, u32)> = (0..n as u32)
        .filter(|&i| i != start)
        .map(|i| (parlay::hash64(seed ^ (i as u64).wrapping_mul(0x9e37)), i))
        .collect();
    parlay::sort(&mut ids);
    ids.into_iter().map(|(_, i)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medoid::medoid;
    use ann_data::bigann_like;

    fn build_small(n: usize, params: &BuildParams) -> (FlatGraph, u32, ann_data::Dataset<u8>) {
        let data = bigann_like(n, 10, 11);
        let start = medoid(&data.points);
        let order = insertion_order(n, start, 1);
        let (g, _) = incremental_build(
            &data.points,
            data.metric,
            start,
            &order,
            params,
            &AlphaPrune(1.2),
        );
        (g, start, data)
    }

    #[test]
    fn respects_degree_bound() {
        let params = BuildParams {
            degree: 8,
            beam: 16,
            ..BuildParams::default()
        };
        let (g, _, _) = build_small(500, &params);
        for v in 0..g.len() as u32 {
            assert!(g.degree(v) <= 8);
        }
    }

    #[test]
    fn every_point_is_connected() {
        let (g, start, _) = build_small(400, &BuildParams::default());
        // Weak check: no isolated non-start vertices (every inserted point
        // got out-edges pointing somewhere).
        for v in 0..g.len() as u32 {
            if v != start {
                assert!(g.degree(v) > 0, "vertex {v} has no out-edges");
            }
        }
        // BFS from start must reach nearly everything.
        let mut seen = vec![false; g.len()];
        let mut stack = vec![start];
        seen[start as usize] = true;
        let mut count = 0;
        while let Some(v) = stack.pop() {
            count += 1;
            for &w in g.neighbors(v) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    stack.push(w);
                }
            }
        }
        assert!(count * 10 >= g.len() * 9, "only {count} reachable");
    }

    #[test]
    fn build_is_deterministic_across_thread_counts() {
        let params = BuildParams::default();
        let fp1 = parlay::with_threads(1, || build_small(600, &params).0.fingerprint());
        let fp2 = parlay::with_threads(2, || build_small(600, &params).0.fingerprint());
        assert_eq!(fp1, fp2);
    }

    #[test]
    fn refine_pass_preserves_degree_bound_and_determinism() {
        let data = bigann_like(500, 5, 3);
        let start = medoid(&data.points);
        let order = insertion_order(500, start, 1);
        let params = BuildParams {
            degree: 12,
            beam: 24,
            ..BuildParams::default()
        };
        let run = || {
            let (mut g, _) = incremental_build(
                &data.points,
                data.metric,
                start,
                &order,
                &params,
                &AlphaPrune(1.0),
            );
            refine_pass(
                &mut g,
                &data.points,
                data.metric,
                start,
                &order,
                &params,
                &AlphaPrune(1.2),
            );
            g
        };
        let g1 = parlay::with_threads(1, run);
        let g2 = parlay::with_threads(2, run);
        assert_eq!(g1.fingerprint(), g2.fingerprint());
        for v in 0..g1.len() as u32 {
            assert!(g1.degree(v) <= 12);
        }
    }

    #[test]
    fn insertion_order_is_a_permutation_excluding_start() {
        let order = insertion_order(100, 42, 7);
        assert_eq!(order.len(), 99);
        assert!(!order.contains(&42));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        let want: Vec<u32> = (0..100u32).filter(|&i| i != 42).collect();
        assert_eq!(sorted, want);
        // Not the identity (it is shuffled).
        assert_ne!(order, want);
    }

    #[test]
    fn single_batch_mode_builds_a_usable_graph() {
        let params = BuildParams {
            prefix_doubling: false,
            ..BuildParams::default()
        };
        let (g, start, _) = build_small(300, &params);
        // All points connect to the start snapshot only — degree bound holds
        // and the graph is still searchable.
        assert!(g.degree(start) > 0);
    }
}
