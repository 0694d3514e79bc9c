//! Structural analysis of ANN graphs.
//!
//! The paper's discussion repeatedly appeals to structural properties —
//! HCNNG/PyNNDescent "only express close neighbor relationships" (§5.5),
//! good graphs need "a mix of long and short edges" (§3), navigability
//! requires reachability from the start point. This module computes those
//! properties so they can be asserted in tests and reported by the
//! harness.

use crate::graph::FlatGraph;
use ann_data::{distance, Metric, PointSet, VectorElem};
use parlay::tabulate;

/// Summary statistics of a proximity graph over its point set.
#[derive(Clone, Debug)]
pub struct GraphStats {
    /// Number of vertices.
    pub n: usize,
    /// Total directed edges.
    pub edges: u64,
    /// Minimum out-degree.
    pub min_degree: usize,
    /// Mean out-degree.
    pub avg_degree: f64,
    /// Maximum out-degree.
    pub max_degree: usize,
    /// Fraction of vertices reachable from `start` by directed BFS.
    pub reachable_frac: f64,
    /// Median edge length (distance between endpoints).
    pub median_edge_len: f32,
    /// 95th-percentile edge length — long edges are the "express lanes"
    /// greedy search needs (§3).
    pub p95_edge_len: f32,
    /// Fraction of edges that are reciprocated (u→v and v→u).
    pub symmetric_frac: f64,
}

/// Computes [`GraphStats`] for `graph` over `points` starting from `start`.
pub fn graph_stats<T: VectorElem>(
    graph: &FlatGraph,
    points: &PointSet<T>,
    metric: Metric,
    start: u32,
) -> GraphStats {
    let n = graph.len();
    assert!(n > 0);
    let degrees: Vec<usize> = (0..n as u32).map(|v| graph.degree(v)).collect();
    let edges: u64 = degrees.iter().map(|&d| d as u64).sum();

    // Reachability (sequential BFS; analysis is not on the hot path).
    let mut seen = vec![false; n];
    let mut stack = vec![start];
    seen[start as usize] = true;
    let mut reached = 0usize;
    while let Some(v) = stack.pop() {
        reached += 1;
        for &w in graph.neighbors(v) {
            if !seen[w as usize] {
                seen[w as usize] = true;
                stack.push(w);
            }
        }
    }

    // Edge lengths (parallel per vertex).
    let mut lengths: Vec<f32> = tabulate(n, |v| {
        let pv = points.point(v);
        graph
            .neighbors(v as u32)
            .iter()
            .map(|&w| distance(pv, points.point(w as usize), metric))
            .collect::<Vec<f32>>()
    })
    .into_iter()
    .flatten()
    .collect();
    lengths.sort_by(f32::total_cmp);
    let pick = |q: f64| -> f32 {
        if lengths.is_empty() {
            0.0
        } else {
            lengths[((lengths.len() - 1) as f64 * q) as usize]
        }
    };

    // Edge symmetry.
    let symmetric: u64 = (0..n as u32)
        .map(|v| {
            graph
                .neighbors(v)
                .iter()
                .filter(|&&w| graph.neighbors(w).contains(&v))
                .count() as u64
        })
        .sum();

    GraphStats {
        n,
        edges,
        min_degree: degrees.iter().copied().min().unwrap_or(0),
        avg_degree: edges as f64 / n as f64,
        max_degree: degrees.iter().copied().max().unwrap_or(0),
        reachable_frac: reached as f64 / n as f64,
        median_edge_len: pick(0.5),
        p95_edge_len: pick(0.95),
        symmetric_frac: if edges == 0 {
            0.0
        } else {
            symmetric as f64 / edges as f64
        },
    }
}

impl GraphStats {
    /// One-line rendering for experiment logs.
    pub fn summary(&self) -> String {
        format!(
            "n={} edges={} deg[min/avg/max]={}/{:.1}/{} reach={:.3} edge_len[p50/p95]={:.0}/{:.0} sym={:.2}",
            self.n,
            self.edges,
            self.min_degree,
            self.avg_degree,
            self.max_degree,
            self.reachable_frac,
            self.median_edge_len,
            self.p95_edge_len,
            self.symmetric_frac
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diskann::{VamanaIndex, VamanaParams};
    use crate::hcnng::{HcnngIndex, HcnngParams};
    use ann_data::bigann_like;

    #[test]
    fn stats_of_a_known_graph() {
        let points = ann_data::PointSet::from_rows(&[vec![0.0f32], vec![1.0], vec![5.0]]);
        let mut g = FlatGraph::new(3, 2);
        g.set_neighbors(0, &[1, 2]);
        g.set_neighbors(1, &[0]);
        // vertex 2 is a sink.
        let s = graph_stats(&g, &points, Metric::SquaredEuclidean, 0);
        assert_eq!(s.n, 3);
        assert_eq!(s.edges, 3);
        assert_eq!(s.min_degree, 0);
        assert_eq!(s.max_degree, 2);
        assert_eq!(s.reachable_frac, 1.0);
        // Edges: 0->1 (1), 0->2 (25), 1->0 (1). Median = 1.
        assert_eq!(s.median_edge_len, 1.0);
        // Reciprocated: 0->1 & 1->0 => 2 of 3 edges.
        assert!((s.symmetric_frac - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn vamana_graph_is_well_formed() {
        let data = bigann_like(1_500, 1, 5);
        let index = VamanaIndex::build(data.points.clone(), data.metric, &VamanaParams::default());
        let s = graph_stats(&index.graph, index.points(), index.metric, index.starts[0]);
        assert!(s.reachable_frac > 0.95, "reachability {}", s.reachable_frac);
        assert!(s.avg_degree > 4.0);
        assert!(s.max_degree <= 32);
        // The alpha-pruned graph must keep long edges (p95 well above median).
        assert!(
            s.p95_edge_len > s.median_edge_len * 1.2,
            "no long edges: p50 {} p95 {}",
            s.median_edge_len,
            s.p95_edge_len
        );
    }

    #[test]
    fn hcnng_vs_vamana_edge_profile() {
        // §5.5: clustering-based graphs express mostly close-neighbor
        // relationships — their long-edge tail is shorter relative to the
        // graph's own median than DiskANN's alpha-pruned tail.
        let data = bigann_like(1_500, 1, 6);
        let vam = VamanaIndex::build(data.points.clone(), data.metric, &VamanaParams::default());
        let hcn = HcnngIndex::build(data.points.clone(), data.metric, &HcnngParams::default());
        let sv = graph_stats(&vam.graph, vam.points(), vam.metric, vam.starts[0]);
        let sh = graph_stats(&hcn.graph, hcn.points(), hcn.metric, hcn.starts[0]);
        let vam_tail = sv.p95_edge_len / sv.median_edge_len.max(1.0);
        let hcn_tail = sh.p95_edge_len / sh.median_edge_len.max(1.0);
        assert!(
            vam_tail >= hcn_tail * 0.8,
            "unexpected edge profiles: vamana tail {vam_tail}, hcnng tail {hcn_tail}"
        );
    }

    #[test]
    fn empty_graph_stats() {
        let points = ann_data::PointSet::new(vec![0.0f32], 1);
        let g = FlatGraph::new(1, 2);
        let s = graph_stats(&g, &points, Metric::SquaredEuclidean, 0);
        assert_eq!(s.edges, 0);
        assert_eq!(s.symmetric_frac, 0.0);
        assert_eq!(s.reachable_frac, 1.0);
    }
}
