//! ParlayPyNN — nearest-neighbor descent (paper §4.4).
//!
//! PyNNDescent seeds a k-NN graph from random cluster trees (exact k-NN in
//! every leaf), then iteratively refines it: each round *undirects* the
//! graph, lets every point examine its two-hop neighborhood, and keeps the
//! `K` closest candidates; it stops when fewer than a `delta` fraction of
//! edges change. A final α-prune turns the k-NN graph into a navigable one.
//!
//! The paper's two scalability fixes are reproduced:
//!
//! * **degree-capped undirecting** — undirecting can blow up degrees (and
//!   the two-hop work is quadratic in degree), so incoming edges are capped
//!   at [`PyNNDescentParams::undirect_cap`] by deterministic hash-ordered
//!   sampling (the paper uses 2000 with random sampling);
//! * **blocked two-hop computation** — rounds process points in fixed-size
//!   blocks to bound the intermediate two-hop memory.

use crate::cluster::random_cluster_leaves;
use crate::graph::{FlatGraph, ROW_WRITE_GRAIN};
use crate::index::{GraphBuilder, GraphIndex};
use crate::medoid::medoid;
use crate::prune::robust_prune;
use crate::query::IndexKind;
use crate::stats::BuildStats;
use ann_data::{distance, Metric, PointSet, VectorElem};
use parlay::{group_by_u32, hash64_pair, Random};
use rayon::prelude::*;

/// Build parameters for [`build`] (paper Fig. 7 row "pyNNDescent").
#[derive(Clone, Copy, Debug)]
pub struct PyNNDescentParams {
    /// Degree bound `K` (paper: 40–60).
    pub k: usize,
    /// Number of seeding cluster trees `T` (paper: 10).
    pub num_trees: usize,
    /// Cluster-tree leaf size `Ls` (paper: 100).
    pub leaf_size: usize,
    /// Final pruning parameter α (paper: 0.9–1.4).
    pub alpha: f32,
    /// Convergence threshold: stop when < `delta` fraction of edges change.
    pub delta: f64,
    /// Hard cap on refinement rounds.
    pub max_iters: usize,
    /// Degree cap applied when undirecting (paper: 2000).
    pub undirect_cap: usize,
    /// Two-hop processing block size (bounds intermediate memory).
    pub block_size: usize,
    /// Seed for tree randomness.
    pub seed: u64,
}

impl Default for PyNNDescentParams {
    fn default() -> Self {
        PyNNDescentParams {
            k: 30,
            num_trees: 8,
            leaf_size: 100,
            alpha: 1.2,
            delta: 0.01,
            max_iters: 8,
            undirect_cap: 2000,
            block_size: 4096,
            seed: 42,
        }
    }
}

/// A PyNNDescent index: a [`GraphIndex`] built by [`build`].
pub type PyNNDescentIndex<T> = GraphIndex<T>;

impl GraphBuilder for PyNNDescentParams {
    fn build<T: VectorElem>(&self, points: PointSet<T>, metric: Metric) -> GraphIndex<T> {
        build(points, metric, self)
    }
}

/// Working graph during descent: per-point sorted `(id, dist)` rows.
type Rows = Vec<Vec<(u32, f32)>>;

/// Keep the `k` smallest `(dist, id)` candidates, dedup'd.
fn keep_k(mut cands: Vec<(u32, f32)>, k: usize) -> Vec<(u32, f32)> {
    cands.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    cands.dedup_by_key(|&mut (id, _)| id);
    cands.truncate(k);
    cands
}

/// Builds a PyNNDescent index: seeding and descent (`descend`), then
/// the final α-prune and capped undirect; searched from the medoid plus a
/// hash sample. Deterministic across thread counts.
pub fn build<T: VectorElem>(
    points: PointSet<T>,
    metric: Metric,
    params: &PyNNDescentParams,
) -> GraphIndex<T> {
    let t0 = std::time::Instant::now();
    let n = points.len();
    assert!(n > 0);
    let (rows, _rounds, mut dc_total) = descend(&points, metric, params);

    // ---- Final α-prune, then undirect (as pynndescent's `prepare`:
    // diversify + add reverse edges under a degree cap of 2K). ----
    let pruned: Vec<(u32, Vec<u32>, u64)> = (0..n as u32)
        .into_par_iter()
        .map(|v| {
            let mut dc = 0usize;
            let out = robust_prune(
                v,
                rows[v as usize].clone(),
                &points,
                metric,
                params.alpha,
                params.k,
                &mut dc,
            );
            (v, out, dc as u64)
        })
        .collect();
    dc_total += pruned.iter().map(|&(_, _, dc)| dc).sum::<u64>();
    let rev_final: Vec<(u32, u32)> = pruned
        .iter()
        .flat_map(|(p, out, _)| out.iter().map(move |&v| (v, *p)))
        .collect();
    let rev_grouped = group_by_u32(&rev_final);
    let mut rev_rows: Vec<Vec<u32>> = vec![Vec::new(); n];
    for g in 0..rev_grouped.num_groups() {
        let grp = rev_grouped.group(g);
        rev_rows[grp[0].0 as usize] = grp.iter().map(|&(_, p)| p).collect();
    }
    let mut graph = FlatGraph::new(n, 2 * params.k);
    {
        let final_rows: Vec<(u32, Vec<u32>)> = pruned
            .par_iter()
            .map(|(v, out, _)| {
                let mut merged = out.clone();
                let mut seen: std::collections::HashSet<u32> = merged.iter().copied().collect();
                for &r in &rev_rows[*v as usize] {
                    if merged.len() >= 2 * params.k {
                        break;
                    }
                    if r != *v && seen.insert(r) {
                        merged.push(r);
                    }
                }
                (*v, merged)
            })
            .collect();
        let writer = graph.writer();
        // Disjoint rows (one task per distinct vertex); chunked so a task
        // amortizes scheduling over many cheap row writes.
        final_rows
            .par_iter()
            .with_min_len(ROW_WRITE_GRAIN)
            .for_each(|(v, out)| unsafe {
                writer.set_neighbors(*v, out);
            });
    }

    let mut starts = vec![medoid(&points)];
    let extra = (n as f64).sqrt() as usize / 2;
    for s in 0..extra.clamp(4, 64) {
        let cand = (parlay::hash64(params.seed ^ (s as u64 + 0x5ee1)) % n as u64) as u32;
        if !starts.contains(&cand) {
            starts.push(cand);
        }
    }
    let build_stats = BuildStats {
        seconds: t0.elapsed().as_secs_f64(),
        dist_comps: dc_total,
    };
    GraphIndex::from_parts(
        IndexKind::PyNNDescent,
        graph,
        starts,
        metric,
        build_stats,
        points,
    )
}

/// Seeds a k-NN graph from `T` cluster trees (exact k-NN in every leaf),
/// then runs descent rounds until fewer than a `delta` fraction of edges
/// change or `max_iters` is reached. Returns the rows, the number of
/// rounds run and the distance comparisons.
fn descend<T: VectorElem>(
    points: &PointSet<T>,
    metric: Metric,
    params: &PyNNDescentParams,
) -> (Rows, usize, u64) {
    let n = points.len();
    let mut dc_total = 0u64;

    // ---- Seeding: T cluster trees, exact k-NN inside each leaf. ----
    let rng = Random::new(params.seed ^ 0x9a11);
    let per_tree: Vec<(Vec<(u32, (u32, f32))>, u64)> = (0..params.num_trees)
        .into_par_iter()
        .map(|t| {
            let ids: Vec<u32> = (0..n as u32).collect();
            let leaves =
                random_cluster_leaves(points, ids, params.leaf_size, metric, rng.fork(t as u64));
            let results: Vec<(Vec<(u32, (u32, f32))>, u64)> = leaves
                .par_iter()
                .map(|leaf| {
                    let mut out = Vec::new();
                    let mut dc = 0u64;
                    let l = params.k.min(leaf.len().saturating_sub(1));
                    for (i, &gi) in leaf.iter().enumerate() {
                        let pi = points.point(gi as usize);
                        let mut cands: Vec<(u32, f32)> = Vec::with_capacity(leaf.len() - 1);
                        for (j, &gj) in leaf.iter().enumerate() {
                            if i != j {
                                let d = distance(pi, points.point(gj as usize), metric);
                                dc += 1;
                                cands.push((gj, d));
                            }
                        }
                        for e in keep_k(cands, l) {
                            out.push((gi, e));
                        }
                    }
                    (out, dc)
                })
                .collect();
            let mut edges = Vec::new();
            let mut dc = 0u64;
            for (e, d) in results {
                edges.extend(e);
                dc += d;
            }
            (edges, dc)
        })
        .collect();
    let mut seed_edges: Vec<(u32, (u32, f32))> = Vec::new();
    for (e, d) in per_tree {
        seed_edges.extend(e);
        dc_total += d;
    }
    let grouped = group_by_u32(&seed_edges);
    let mut rows: Rows = vec![Vec::new(); n];
    let row_updates: Vec<(u32, Vec<(u32, f32)>)> = grouped.par_map_groups(|grp| {
        let v = grp[0].0;
        let cands: Vec<(u32, f32)> = grp.iter().map(|&(_, e)| e).collect();
        (v, keep_k(cands, params.k))
    });
    for (v, row) in row_updates {
        rows[v as usize] = row;
    }

    // ---- Nearest-neighbor descent rounds. ----
    let mut rounds = 0usize;
    for _ in 0..params.max_iters {
        rounds += 1;
        let (new_rows, changed, dc) = descend_round(points, metric, &rows, params);
        dc_total += dc;
        rows = new_rows;
        let frac = changed as f64 / ((n * params.k).max(1)) as f64;
        if frac < params.delta {
            break;
        }
    }

    (rows, rounds, dc_total)
}

/// One descent round: undirect (capped), explore two-hop neighborhoods
/// in blocks, keep the K best; returns (new rows, #changed edges, dc).
fn descend_round<T: VectorElem>(
    points: &PointSet<T>,
    metric: Metric,
    rows: &Rows,
    params: &PyNNDescentParams,
) -> (Rows, usize, u64) {
    let n = rows.len();
    // Undirected adjacency with degree cap: out-edges plus hash-sampled
    // in-edges (deterministic sampling replaces the paper's random one).
    let rev_pairs: Vec<(u32, u32)> = rows
        .iter()
        .enumerate()
        .flat_map(|(u, row)| row.iter().map(move |&(v, _)| (v, u as u32)))
        .collect();
    let grouped = group_by_u32(&rev_pairs);
    let mut incoming: Vec<Vec<u32>> = vec![Vec::new(); n];
    let in_updates: Vec<(u32, Vec<u32>)> = grouped.par_map_groups(|grp| {
        let v = grp[0].0;
        let mut inc: Vec<u32> = grp.iter().map(|&(_, u)| u).collect();
        if inc.len() > params.undirect_cap {
            // Deterministic "random" sample: order by hash of the edge.
            inc.sort_by_key(|&u| hash64_pair(v as u64, u as u64));
            inc.truncate(params.undirect_cap);
        }
        inc.sort_unstable();
        (v, inc)
    });
    for (v, inc) in in_updates {
        incoming[v as usize] = inc;
    }

    // Blocked two-hop exploration.
    let mut new_rows: Rows = vec![Vec::new(); n];
    let mut changed_total = 0usize;
    let mut dc_total = 0u64;
    let block = params.block_size.max(1);
    for block_start in (0..n).step_by(block) {
        let block_end = (block_start + block).min(n);
        let results: Vec<(usize, Vec<(u32, f32)>, usize, u64)> = (block_start..block_end)
            .into_par_iter()
            .map(|p| {
                let pt = points.point(p);
                let mut dc = 0u64;
                // One-hop (undirected) neighborhood of p.
                let mut hop1: Vec<u32> = rows[p].iter().map(|&(id, _)| id).collect();
                hop1.extend_from_slice(&incoming[p]);
                hop1.sort_unstable();
                hop1.dedup();
                // Two-hop candidates.
                let mut cand_ids: Vec<u32> = hop1.clone();
                for &q in &hop1 {
                    cand_ids.extend(rows[q as usize].iter().map(|&(id, _)| id));
                    cand_ids.extend_from_slice(&incoming[q as usize]);
                }
                cand_ids.sort_unstable();
                cand_ids.dedup();
                let mut cands: Vec<(u32, f32)> = Vec::with_capacity(cand_ids.len());
                for &c in &cand_ids {
                    if c as usize != p {
                        let d = distance(pt, points.point(c as usize), metric);
                        dc += 1;
                        cands.push((c, d));
                    }
                }
                let new_row = keep_k(cands, params.k);
                // Count changed edges vs the previous row.
                let old: std::collections::HashSet<u32> =
                    rows[p].iter().map(|&(id, _)| id).collect();
                let changed = new_row
                    .iter()
                    .filter(|&&(id, _)| !old.contains(&id))
                    .count();
                (p, new_row, changed, dc)
            })
            .collect();
        for (p, row, changed, dc) in results {
            new_rows[p] = row;
            changed_total += changed;
            dc_total += dc;
        }
    }
    (new_rows, changed_total, dc_total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beam::QueryParams;
    use crate::index::recall_at_10;
    use ann_data::{bigann_like, compute_ground_truth};

    #[test]
    fn keep_k_sorts_dedups_truncates() {
        let cands = vec![(3u32, 3.0f32), (1, 1.0), (1, 1.0), (2, 2.0), (4, 4.0)];
        let kept = keep_k(cands, 3);
        assert_eq!(kept, vec![(1, 1.0), (2, 2.0), (3, 3.0)]);
    }

    #[test]
    fn builds_and_reaches_high_recall() {
        let data = bigann_like(2_000, 50, 55);
        let index = PyNNDescentIndex::build(
            data.points.clone(),
            data.metric,
            &PyNNDescentParams::default(),
        );
        let gt = compute_ground_truth(&data.points, &data.queries, 10, data.metric);
        let qp = QueryParams {
            beam: 64,
            ..QueryParams::default()
        };
        let r = recall_at_10(&index, &data.queries, &gt, &qp);
        assert!(r > 0.85, "recall {r} too low");
    }

    #[test]
    fn descent_improves_knn_quality() {
        // The 1-NN of each point per the refined graph should be closer (on
        // average) than per the seed graph alone. Proxy: the refined graph's
        // rows must contain more true nearest neighbors than a 1-round run.
        let data = bigann_like(800, 1, 23);
        let one = PyNNDescentIndex::build(
            data.points.clone(),
            data.metric,
            &PyNNDescentParams {
                max_iters: 0,
                num_trees: 2,
                ..PyNNDescentParams::default()
            },
        );
        let refined = PyNNDescentIndex::build(
            data.points.clone(),
            data.metric,
            &PyNNDescentParams {
                max_iters: 6,
                num_trees: 2,
                ..PyNNDescentParams::default()
            },
        );
        // Compare mean distance to the first graph neighbor.
        let mean_first = |idx: &PyNNDescentIndex<u8>| {
            let mut s = 0.0f64;
            let mut c = 0usize;
            for v in 0..800u32 {
                if let Some(&w) = idx.graph.neighbors(v).first() {
                    s += distance(
                        data.points.point(v as usize),
                        data.points.point(w as usize),
                        data.metric,
                    ) as f64;
                    c += 1;
                }
            }
            s / c as f64
        };
        assert!(
            mean_first(&refined) <= mean_first(&one),
            "descent did not improve neighbor quality"
        );
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let data = bigann_like(700, 5, 31);
        let params = PyNNDescentParams {
            num_trees: 3,
            max_iters: 3,
            ..PyNNDescentParams::default()
        };
        let fp1 = parlay::with_threads(1, || {
            PyNNDescentIndex::build(data.points.clone(), data.metric, &params)
                .graph
                .fingerprint()
        });
        let fp2 = parlay::with_threads(2, || {
            PyNNDescentIndex::build(data.points.clone(), data.metric, &params)
                .graph
                .fingerprint()
        });
        assert_eq!(fp1, fp2);
    }

    #[test]
    fn respects_degree_bound() {
        let data = bigann_like(500, 1, 3);
        let params = PyNNDescentParams {
            k: 12,
            num_trees: 3,
            max_iters: 2,
            ..PyNNDescentParams::default()
        };
        let index = PyNNDescentIndex::build(data.points.clone(), data.metric, &params);
        // Out-degree bound after undirecting is 2K.
        for v in 0..500u32 {
            assert!(index.graph.degree(v) <= 24);
        }
    }

    #[test]
    fn converges_before_max_iters_on_easy_data() {
        let data = bigann_like(600, 1, 41);
        let params = PyNNDescentParams {
            max_iters: 20,
            delta: 0.05,
            ..PyNNDescentParams::default()
        };
        let (_, rounds, _) = descend(&data.points, data.metric, &params);
        assert!(rounds < 20, "never converged: {rounds} rounds");
    }
}
