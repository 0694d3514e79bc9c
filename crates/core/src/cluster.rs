//! Random two-pivot cluster trees (paper §3.2).
//!
//! Both clustering-based algorithms (HCNNG §4.3, PyNNDescent §4.4) build
//! their initial edge sets from randomized cluster trees: pick two random
//! points, split the input by which pivot each point is closer to, recurse
//! until leaves fall below a size threshold.
//!
//! Unlike the original implementations — which only parallelize *across*
//! the `T` trees and therefore cannot scale past `T` threads (the Fig. 1
//! bottleneck) — this version parallelizes *inside* each tree with
//! fork-join divide-and-conquer and the stable [`parlay::split_by`]
//! partition primitive, exposing parallelism across all leaves.
//! All pivot choices derive from a splittable hash RNG indexed by the
//! tree-node path, so the tree shape is deterministic.

use ann_data::{distance, Metric, PointSet, VectorElem};
use parlay::{split_by, Random};
use rayon::prelude::*;

/// Minimum size at which a node is split in parallel.
const PAR_CUTOFF: usize = 2048;

/// A candidate edge `(source, (target, distance))`.
pub type LeafEdge = (u32, (u32, f32));

/// Clusters all points into `num_trees` trees (tree `t` seeded by
/// `rng.fork(t)`) and lets `leaf_edges` emit each leaf's candidate edges,
/// returning its distance count. All trees and leaves run in parallel; the
/// edges come back in tree, then leaf order, with the summed count.
pub fn edges_from_leaves<T: VectorElem>(
    points: &PointSet<T>,
    num_trees: usize,
    leaf_size: usize,
    metric: Metric,
    rng: Random,
    leaf_edges: impl Fn(&[u32], &mut Vec<LeafEdge>) -> u64 + Sync,
) -> (Vec<LeafEdge>, u64) {
    let per_tree: Vec<Vec<(Vec<LeafEdge>, u64)>> = (0..num_trees)
        .into_par_iter()
        .map(|t| {
            let ids: Vec<u32> = (0..points.len() as u32).collect();
            random_cluster_leaves(points, ids, leaf_size, metric, rng.fork(t as u64))
                .par_iter()
                .map(|leaf| {
                    let mut out = Vec::new();
                    let dc = leaf_edges(leaf, &mut out);
                    (out, dc)
                })
                .collect()
        })
        .collect();
    let mut edges = Vec::new();
    let mut dc = 0u64;
    for (e, d) in per_tree.into_iter().flatten() {
        edges.extend(e);
        dc += d;
    }
    (edges, dc)
}

/// Recursively clusters `ids`, returning the leaf id-sets (each of size
/// ≤ `leaf_size`, except degenerate duplicate-heavy inputs).
pub fn random_cluster_leaves<T: VectorElem>(
    points: &PointSet<T>,
    ids: Vec<u32>,
    leaf_size: usize,
    metric: Metric,
    rng: Random,
) -> Vec<Vec<u32>> {
    let mut leaves = Vec::new();
    recurse(
        points,
        ids,
        leaf_size.max(2),
        metric,
        rng,
        1,
        &mut leaves,
        0,
    );
    leaves
}

#[allow(clippy::too_many_arguments)]
fn recurse<T: VectorElem>(
    points: &PointSet<T>,
    ids: Vec<u32>,
    leaf_size: usize,
    metric: Metric,
    rng: Random,
    node: u64,
    out: &mut Vec<Vec<u32>>,
    depth: usize,
) {
    // Depth cap guards against pathological duplicate-heavy inputs.
    if ids.len() <= leaf_size || depth > 60 {
        out.push(ids);
        return;
    }
    let (left, right) = split_node(points, &ids, metric, rng, node);
    if ids.len() >= PAR_CUTOFF {
        let mut right_out = Vec::new();
        let (_, ()) = rayon::join(
            || {
                recurse(
                    points,
                    left,
                    leaf_size,
                    metric,
                    rng,
                    2 * node,
                    out,
                    depth + 1,
                )
            },
            || {
                recurse(
                    points,
                    right,
                    leaf_size,
                    metric,
                    rng,
                    2 * node + 1,
                    &mut right_out,
                    depth + 1,
                )
            },
        );
        out.append(&mut right_out);
    } else {
        recurse(
            points,
            left,
            leaf_size,
            metric,
            rng,
            2 * node,
            out,
            depth + 1,
        );
        recurse(
            points,
            right,
            leaf_size,
            metric,
            rng,
            2 * node + 1,
            out,
            depth + 1,
        );
    }
}

/// Two-pivot split: points go to the side of the nearer pivot (ties and the
/// pivots themselves to the left). Falls back to a midpoint split when the
/// pivots fail to separate the data (e.g. all-duplicate input).
fn split_node<T: VectorElem>(
    points: &PointSet<T>,
    ids: &[u32],
    metric: Metric,
    rng: Random,
    node: u64,
) -> (Vec<u32>, Vec<u32>) {
    let n = ids.len() as u64;
    let node_rng = rng.fork(node);
    let p1 = ids[node_rng.ith_range(0, n) as usize];
    // Draw a distinct second pivot (deterministic probe sequence).
    let mut p2 = p1;
    for probe in 1..16 {
        let cand = ids[node_rng.ith_range(probe, n) as usize];
        if cand != p1 {
            p2 = cand;
            break;
        }
    }
    if p2 == p1 {
        // Could not find a distinct pivot — split by position.
        let mid = ids.len() / 2;
        return (ids[..mid].to_vec(), ids[mid..].to_vec());
    }
    let a = points.point(p1 as usize);
    let b = points.point(p2 as usize);
    let (left, right) = split_by(ids, |&i| {
        let p = points.point(i as usize);
        distance(p, a, metric) <= distance(p, b, metric)
    });
    if left.is_empty() || right.is_empty() {
        let mid = ids.len() / 2;
        return (ids[..mid].to_vec(), ids[mid..].to_vec());
    }
    (left, right)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann_data::bigann_like;

    #[test]
    fn leaves_partition_the_input() {
        let data = bigann_like(3_000, 1, 17);
        let ids: Vec<u32> = (0..3_000u32).collect();
        let leaves =
            random_cluster_leaves(&data.points, ids.clone(), 100, data.metric, Random::new(5));
        let mut all: Vec<u32> = leaves.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, ids, "leaves must partition the id set");
        for leaf in &leaves {
            assert!(leaf.len() <= 100, "leaf of size {}", leaf.len());
            assert!(!leaf.is_empty());
        }
    }

    #[test]
    fn different_seeds_give_different_trees() {
        let data = bigann_like(1_000, 1, 3);
        let ids: Vec<u32> = (0..1_000u32).collect();
        let a = random_cluster_leaves(&data.points, ids.clone(), 50, data.metric, Random::new(1));
        let b = random_cluster_leaves(&data.points, ids, 50, data.metric, Random::new(2));
        assert_ne!(a, b);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let data = bigann_like(4_000, 1, 9);
        let run = || {
            let ids: Vec<u32> = (0..4_000u32).collect();
            random_cluster_leaves(&data.points, ids, 128, data.metric, Random::new(7))
        };
        let a = parlay::with_threads(1, run);
        let b = parlay::with_threads(2, run);
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_points_terminate() {
        // 500 identical points: pivot selection cannot separate them; the
        // midpoint fallback must still terminate with small leaves.
        let points = ann_data::PointSet::new(vec![7u8; 500 * 4], 4);
        let ids: Vec<u32> = (0..500u32).collect();
        let leaves =
            random_cluster_leaves(&points, ids, 20, Metric::SquaredEuclidean, Random::new(1));
        assert!(leaves.iter().all(|l| l.len() <= 20));
        assert_eq!(leaves.iter().map(|l| l.len()).sum::<usize>(), 500);
    }

    #[test]
    fn leaves_are_spatially_coherent() {
        // Two well-separated blobs: no leaf should mix them (with high
        // probability given the margin).
        let mut rows = Vec::new();
        for i in 0..200 {
            let base = if i % 2 == 0 { 0.0f32 } else { 1000.0 };
            rows.push(vec![base + (i as f32 % 10.0), base]);
        }
        let points = ann_data::PointSet::from_rows(&rows);
        let ids: Vec<u32> = (0..200u32).collect();
        let leaves =
            random_cluster_leaves(&points, ids, 64, Metric::SquaredEuclidean, Random::new(3));
        // Splits whose pivots land in the same blob can produce mixed
        // subtrees that become leaves, so require only that the *majority*
        // of points end up in pure leaves.
        let pure_points: usize = leaves
            .iter()
            .filter(|leaf| {
                let blob0 = leaf.iter().filter(|&&i| i % 2 == 0).count();
                blob0 == 0 || blob0 == leaf.len()
            })
            .map(|leaf| leaf.len())
            .sum();
        assert!(
            pure_points * 2 >= 200,
            "only {pure_points}/200 points in pure leaves"
        );
    }
}
