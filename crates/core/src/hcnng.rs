//! ParlayHCNNG — hierarchical clustering-based NN graphs (paper §4.3).
//!
//! HCNNG builds `T` random two-pivot cluster trees; within each leaf it
//! connects points by a **degree-bounded minimum spanning tree** (Kruskal,
//! skipping edges whose endpoints are saturated), and the final graph is
//! the union of all leaf MSTs.
//!
//! The paper's key scalability fix is reproduced here: instead of the MST
//! over the *complete* leaf graph (O(leaf²) temporary edges, which
//! overflowed L3 and capped speedup), the MST is **edge-restricted** to
//! each point's `l`-nearest neighbors within the leaf (`l = 10`). The
//! complete-graph variant is kept behind [`HcnngParams::full_mst`] for the
//! ablation. Tree-edge union is lock-free via semisort (§3.2): each
//! vertex's edges become one group, HCNNG's own rule turns it into a row
//! (sorted by distance, α-pruned past the degree cap), and the rows are
//! written with the builders' one row writer, [`FlatGraph::set_rows`].

use crate::cluster::{edges_from_leaves, LeafEdge};
use crate::graph::FlatGraph;
use crate::index::{GraphBuilder, GraphIndex};
use crate::medoid::medoid;
use crate::prune::robust_prune;
use crate::query::IndexKind;
use crate::stats::BuildStats;
use ann_data::{distance, Metric, PointSet, VectorElem};
use parlay::{group_by_u32, Random};

/// Build parameters for [`build`] (paper Fig. 7 row "HCNNG").
#[derive(Clone, Copy, Debug)]
pub struct HcnngParams {
    /// Number of cluster trees `T` (paper: 30–50).
    pub num_trees: usize,
    /// Leaf size `Ls` (paper: 1000).
    pub leaf_size: usize,
    /// Per-vertex degree bound `s` of each leaf MST (paper: 3).
    pub mst_degree: usize,
    /// Edge restriction: MST candidates are each point's `l` nearest
    /// neighbors within the leaf (paper: 10).
    pub knn_restrict: usize,
    /// Ablation switch: use the complete leaf graph instead (paper's
    /// description of the original algorithm's space bottleneck).
    pub full_mst: bool,
    /// Final out-degree cap; overflow is α-pruned (α = 1.0).
    pub max_degree: usize,
    /// Seed for tree randomness.
    pub seed: u64,
}

impl Default for HcnngParams {
    fn default() -> Self {
        HcnngParams {
            num_trees: 10,
            leaf_size: 250,
            mst_degree: 3,
            knn_restrict: 10,
            full_mst: false,
            max_degree: 64,
            seed: 42,
        }
    }
}

/// An HCNNG index: a [`GraphIndex`] built by [`build`].
pub type HcnngIndex<T> = GraphIndex<T>;

impl GraphBuilder for HcnngParams {
    fn build<T: VectorElem>(&self, points: PointSet<T>, metric: Metric) -> GraphIndex<T> {
        build(points, metric, self)
    }
}

/// Union-find with path halving + union by size (per-leaf, sequential).
struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Returns false if already connected.
    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        true
    }
}

/// Builds the degree-bounded MST of one leaf and emits its edges
/// (as directed pairs both ways) into `out`. Returns distance comparisons.
fn leaf_mst<T: VectorElem>(
    points: &PointSet<T>,
    leaf: &[u32],
    metric: Metric,
    params: &HcnngParams,
    out: &mut Vec<LeafEdge>,
) -> u64 {
    let m = leaf.len();
    if m < 2 {
        return 0;
    }
    let mut dc = 0u64;
    // Candidate edges: either every pair (full_mst) or the l-NN restriction.
    let mut edges: Vec<(f32, u32, u32)> = Vec::new();
    if params.full_mst {
        for i in 0..m {
            let pi = points.point(leaf[i] as usize);
            for j in (i + 1)..m {
                let d = distance(pi, points.point(leaf[j] as usize), metric);
                dc += 1;
                edges.push((d, i as u32, j as u32));
            }
        }
    } else {
        let l = params.knn_restrict.min(m - 1);
        // One upper-triangle pass: each pairwise distance is computed once
        // and feeds both endpoints' bounded l-NN heaps. Memory stays at
        // O(m·l) — the point of the edge restriction (§4.3) is avoiding the
        // O(m²) *edge materialization*, and this keeps the distance work at
        // m(m-1)/2 as well.
        use std::collections::BinaryHeap;
        // Max-heaps of (dist_bits, other) keep the l smallest; (bits, id)
        // is a strict total order, so contents are insertion-order
        // independent — deterministic.
        let mut heaps: Vec<BinaryHeap<(u32, u32)>> =
            (0..m).map(|_| BinaryHeap::with_capacity(l + 1)).collect();
        let push = |heaps: &mut Vec<BinaryHeap<(u32, u32)>>, i: usize, d: f32, j: u32| {
            let key = (d.to_bits(), j);
            if heaps[i].len() < l {
                heaps[i].push(key);
            } else if key < *heaps[i].peek().expect("nonempty") {
                heaps[i].pop();
                heaps[i].push(key);
            }
        };
        for i in 0..m {
            let pi = points.point(leaf[i] as usize);
            for j in (i + 1)..m {
                let d = distance(pi, points.point(leaf[j] as usize), metric);
                dc += 1;
                push(&mut heaps, i, d, j as u32);
                push(&mut heaps, j, d, i as u32);
            }
        }
        for (i, heap) in heaps.into_iter().enumerate() {
            for (bits, j) in heap {
                let d = f32::from_bits(bits);
                let (a, b) = if (i as u32) < j {
                    (i as u32, j)
                } else {
                    (j, i as u32)
                };
                edges.push((d, a, b));
            }
        }
        edges.sort_by(|x, y| x.partial_cmp(y).expect("no NaN distances"));
        edges.dedup();
    }
    if params.full_mst {
        edges.sort_by(|x, y| x.partial_cmp(y).expect("no NaN distances"));
    }

    // Kruskal with a per-vertex degree bound (HCNNG's degree-bounded MST).
    let mut uf = UnionFind::new(m);
    let mut degree = vec![0u32; m];
    let bound = params.mst_degree as u32;
    for &(d, a, b) in &edges {
        if degree[a as usize] >= bound || degree[b as usize] >= bound {
            continue;
        }
        if uf.union(a, b) {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
            let (ga, gb) = (leaf[a as usize], leaf[b as usize]);
            out.push((ga, (gb, d)));
            out.push((gb, (ga, d)));
        }
    }
    dc
}

/// Builds an HCNNG index: `T` cluster trees in parallel (and parallel
/// inside each), leaf MSTs, then a semisort union of all edges; searched
/// from the medoid.
pub fn build<T: VectorElem>(
    points: PointSet<T>,
    metric: Metric,
    params: &HcnngParams,
) -> GraphIndex<T> {
    let t0 = std::time::Instant::now();
    let n = points.len();
    assert!(n > 0);
    // All trees and all leaves in parallel; each leaf emits MST edges.
    let (all_edges, mut dc_total) = edges_from_leaves(
        &points,
        params.num_trees,
        params.leaf_size,
        metric,
        Random::new(params.seed ^ 0xc177),
        |leaf, out| leaf_mst(&points, leaf, metric, params, out),
    );

    // Lock-free union: semisort by source, dedup targets, cap degree.
    let grouped = group_by_u32(&all_edges);
    let rows: Vec<((u32, Vec<u32>), u64)> = grouped.par_map_groups(|grp| {
        let v = grp[0].0;
        let mut targets: Vec<(u32, f32)> = grp.iter().map(|&(_, e)| e).collect();
        targets.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        targets.dedup_by_key(|&mut (id, _)| id);
        let mut dc = 0usize;
        let out = if targets.len() > params.max_degree {
            robust_prune(v, targets, &points, metric, 1.0, params.max_degree, &mut dc)
        } else {
            targets.into_iter().map(|(id, _)| id).collect()
        };
        ((v, out), dc as u64)
    });
    dc_total += rows.iter().map(|&(_, dc)| dc).sum::<u64>();
    let rows: Vec<(u32, Vec<u32>)> = rows.into_iter().map(|(row, _)| row).collect();
    let mut graph = FlatGraph::new(n, params.max_degree);
    graph.set_rows(&rows);

    let start = medoid(&points);
    let build_stats = BuildStats {
        seconds: t0.elapsed().as_secs_f64(),
        dist_comps: dc_total,
    };
    GraphIndex::from_parts(
        IndexKind::Hcnng,
        graph,
        vec![start],
        metric,
        build_stats,
        points,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beam::QueryParams;
    use crate::index::recall_at_10;
    use ann_data::{bigann_like, compute_ground_truth};

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(2, 3));
        assert_ne!(uf.find(0), uf.find(2));
        assert!(uf.union(0, 3));
        assert_eq!(uf.find(1), uf.find(2));
    }

    #[test]
    fn leaf_mst_respects_degree_bound_and_spans() {
        let data = bigann_like(120, 1, 6);
        let leaf: Vec<u32> = (0..120u32).collect();
        let params = HcnngParams::default();
        let mut out = Vec::new();
        leaf_mst(&data.points, &leaf, data.metric, &params, &mut out);
        // Degree bound: each endpoint appears at most 2*s times directed.
        let mut degree = std::collections::HashMap::new();
        for &(src, _) in &out {
            *degree.entry(src).or_insert(0usize) += 1;
        }
        for (&v, &d) in &degree {
            assert!(
                d <= params.mst_degree,
                "vertex {v} has MST degree {d} > {}",
                params.mst_degree
            );
        }
        // A tree on m vertices has at most m-1 edges (2(m-1) directed);
        // degree bounding may drop some.
        assert!(out.len() <= 2 * (leaf.len() - 1));
        assert!(out.len() >= leaf.len() / 2, "MST too sparse");
    }

    #[test]
    fn builds_and_reaches_high_recall() {
        let data = bigann_like(2_000, 50, 77);
        let index = HcnngIndex::build(data.points.clone(), data.metric, &HcnngParams::default());
        let gt = compute_ground_truth(&data.points, &data.queries, 10, data.metric);
        let qp = QueryParams {
            beam: 64,
            ..QueryParams::default()
        };
        let r = recall_at_10(&index, &data.queries, &gt, &qp);
        assert!(r > 0.85, "recall {r} too low");
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let data = bigann_like(1_000, 5, 4);
        let params = HcnngParams {
            num_trees: 4,
            ..HcnngParams::default()
        };
        let fp1 = parlay::with_threads(1, || {
            HcnngIndex::build(data.points.clone(), data.metric, &params)
                .graph
                .fingerprint()
        });
        let fp2 = parlay::with_threads(2, || {
            HcnngIndex::build(data.points.clone(), data.metric, &params)
                .graph
                .fingerprint()
        });
        assert_eq!(fp1, fp2);
    }

    #[test]
    fn edge_restricted_matches_full_mst_quality() {
        // §4.3: the l-NN restriction must not hurt quality.
        let data = bigann_like(800, 30, 13);
        let gt = compute_ground_truth(&data.points, &data.queries, 10, data.metric);
        let qp = QueryParams {
            beam: 48,
            ..QueryParams::default()
        };
        let recall_of = |full: bool| {
            let params = HcnngParams {
                num_trees: 6,
                full_mst: full,
                ..HcnngParams::default()
            };
            let index = HcnngIndex::build(data.points.clone(), data.metric, &params);
            recall_at_10(&index, &data.queries, &gt, &qp)
        };
        let restricted = recall_of(false);
        let full = recall_of(true);
        assert!(
            restricted >= full - 0.05,
            "restricted {restricted} much worse than full {full}"
        );
    }

    #[test]
    fn more_trees_improve_connectivity() {
        let data = bigann_like(600, 1, 15);
        let few = HcnngIndex::build(
            data.points.clone(),
            data.metric,
            &HcnngParams {
                num_trees: 2,
                ..HcnngParams::default()
            },
        );
        let many = HcnngIndex::build(
            data.points.clone(),
            data.metric,
            &HcnngParams {
                num_trees: 10,
                ..HcnngParams::default()
            },
        );
        assert!(many.graph.num_edges() > few.graph.num_edges());
    }
}
