//! Exact flat-scan index.
//!
//! Scores the query against **every** indexed point with the same
//! dispatched SIMD kernels the graph indexes use, then keeps the top-k by
//! `(distance, id)`. Useful in two places:
//!
//! * **Tiny shards** — below a few thousand points a brute-force scan
//!   beats graph navigation, and a [`ShardedIndex`](crate::ShardedIndex)
//!   can mix exact shards with graph shards freely (everything is a
//!   `dyn AnnIndex`).
//! * **Equivalence testing** — because per-point distances are computed
//!   by the exact same kernels, the sharded fan-out/merge over exact
//!   shards must reproduce whole-corpus exact top-k **bitwise**; the
//!   property tests in `tests/sharded.rs` are built on this.

use ann_data::{distance_batch, Metric, PointSet, VectorElem};
use parlayann::{AnnIndex, IndexStats, QueryParams, RangeParams, SearchStats};

/// A brute-force exact index (see the module docs).
pub struct ExactIndex<T> {
    points: PointSet<T>,
    metric: Metric,
    /// `0..n`, precomputed — `distance_batch` takes an id list, and
    /// rebuilding the identity list per query would put an O(n)
    /// allocation on the hot path of every exact shard in a batch.
    all_ids: Vec<u32>,
}

impl<T: VectorElem> ExactIndex<T> {
    /// Wraps `points` for exact scanning under `metric`.
    pub fn new(points: PointSet<T>, metric: Metric) -> Self {
        let all_ids = (0..points.len() as u32).collect();
        ExactIndex {
            points,
            metric,
            all_ids,
        }
    }

    /// The indexed points.
    pub fn points(&self) -> &PointSet<T> {
        &self.points
    }

    /// The scoring metric.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Distances from `query` to every point, in id order.
    fn scan(&self, query: &[T]) -> Vec<f32> {
        let mut dists = Vec::with_capacity(self.all_ids.len());
        distance_batch(query, &self.all_ids, &self.points, self.metric, &mut dists);
        dists
    }
}

impl<T: VectorElem> AnnIndex<T> for ExactIndex<T> {
    fn search(&self, query: &[T], params: &QueryParams) -> (Vec<(u32, f32)>, SearchStats) {
        let dists = self.scan(query);
        let mut all: Vec<(u32, f32)> = dists
            .into_iter()
            .enumerate()
            .map(|(i, d)| (i as u32, d))
            .collect();
        // Total order: distance bits, then id — the same tie-break the
        // sharded merge uses, so exact shards compose bitwise.
        all.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(params.k);
        let stats = SearchStats {
            dist_comps: self.points.len(),
            ..Default::default()
        };
        (all, stats)
    }

    fn name(&self) -> String {
        "exact-scan".into()
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            points: self.points.len(),
            dim: self.points.dim(),
            edges: 0,
            max_degree: 0,
            layers: 1,
            build: Default::default(),
        }
    }

    fn len(&self) -> usize {
        self.points.len()
    }

    fn dim(&self) -> usize {
        self.points.dim()
    }

    fn range_search(&self, query: &[T], params: &RangeParams) -> (Vec<(u32, f32)>, SearchStats) {
        let dists = self.scan(query);
        let mut hits: Vec<(u32, f32)> = dists
            .into_iter()
            .enumerate()
            .filter(|&(_, d)| d <= params.radius)
            .map(|(i, d)| (i as u32, d))
            .collect();
        hits.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        (
            hits,
            SearchStats {
                dist_comps: self.points.len(),
                hops: 0,
                ..Default::default()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann_data::{bigann_like, compute_ground_truth};

    #[test]
    fn exact_search_matches_ground_truth() {
        let d = bigann_like(400, 10, 13);
        let index = ExactIndex::new(d.points.clone(), d.metric);
        let gt = compute_ground_truth(&d.points, &d.queries, 5, d.metric);
        let params = QueryParams {
            k: 5,
            ..QueryParams::default()
        };
        for q in 0..d.queries.len() {
            let (res, stats) = index.search(d.queries.point(q), &params);
            let ids: Vec<u32> = res.iter().map(|&(id, _)| id).collect();
            assert_eq!(ids, gt.neighbors(q)[..5].to_vec(), "query {q}");
            assert_eq!(stats.dist_comps, 400);
        }
    }

    #[test]
    fn range_search_is_an_exact_radius_filter() {
        let d = bigann_like(300, 5, 17);
        let index = ExactIndex::new(d.points.clone(), d.metric);
        let (top, _) = index.search(
            d.queries.point(0),
            &QueryParams {
                k: 10,
                ..QueryParams::default()
            },
        );
        let radius = top[4].1;
        let (hits, _) = index.range_search(
            d.queries.point(0),
            &RangeParams {
                radius,
                ..RangeParams::default()
            },
        );
        assert!(hits.len() >= 5);
        assert!(hits.iter().all(|&(_, d)| d <= radius));
        for w in hits.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }
}
