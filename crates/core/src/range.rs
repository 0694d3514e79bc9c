//! Range search over ANN graphs (the paper's Open Question 4).
//!
//! Fixed-radius reporting: return every indexed point within `radius` of
//! the query. The approach follows the natural graph adaptation the paper
//! asks about: run a beam search to *reach* the radius ball, then flood
//! outward over graph edges, expanding every vertex whose distance is
//! within `slack × radius` (slack > 1 lets the flood cross small gaps in
//! the ball's internal connectivity). Like beam search, the result is
//! approximate: recall rises with `beam` and `slack`.
//!
//! This mirrors how the BigANN'23 range-search track was later approached
//! with DiskANN-style graphs; the SSNPP column of paper Fig. 7 is the
//! range-search dataset the authors had in scope.

use crate::beam::{beam_search_into, cmp_dist, GraphView, QueryParams, SearchScratch};
use crate::stats::SearchStats;
use ann_data::{distance_batch, Metric, PointSet, VectorElem};

/// Parameters for [`range_search`].
#[derive(Clone, Copy, Debug)]
pub struct RangeParams {
    /// Reporting radius (same units as the metric, i.e. *squared* L2).
    pub radius: f32,
    /// Beam width of the initial navigation phase.
    pub beam: usize,
    /// Flood slack: vertices within `slack × radius` are expanded (but only
    /// those within `radius` are reported). Must be ≥ 1.
    pub slack: f32,
    /// Cap on flood expansions (safety valve for huge balls).
    pub limit: usize,
}

impl Default for RangeParams {
    fn default() -> Self {
        RangeParams {
            radius: 0.0,
            beam: 32,
            slack: 2.0,
            limit: usize::MAX,
        }
    }
}

/// Reports (approximately) all points within `params.radius` of `query`,
/// sorted by distance. `scratch` is the navigation phase's working state
/// (any scratch will do; it is reset per search).
pub fn range_search<T: VectorElem, G: GraphView>(
    scratch: &mut SearchScratch<T>,
    query: &[T],
    points: &PointSet<T>,
    metric: Metric,
    view: &G,
    starts: &[u32],
    params: &RangeParams,
) -> (Vec<(u32, f32)>, SearchStats) {
    let expand_bound = params.radius * params.slack.max(1.0);

    // Phase 1: navigate to the ball, doubling the beam until the frontier
    // both *reaches* the ball (closest member within radius) and *extends
    // past* it (farthest member beyond the slackened radius) — the
    // DiskANN-style doubling also rescues searches stuck in a far cluster,
    // which a fixed beam cannot escape on strongly clustered data.
    /// Beam cap when the ball appears empty (bounds the cost of radii
    /// smaller than the 1-NN distance).
    const MAX_EMPTY_BEAM: usize = 512;
    let mut beam_width = params.beam.max(8);
    let mut stats;
    loop {
        let qp = QueryParams {
            k: 1,
            beam: beam_width,
            cut: 1.0,
            limit: usize::MAX,
            visited: crate::beam::VisitedMode::Exact,
        };
        stats = beam_search_into(scratch, query, points, metric, view, starts, &qp);
        let nav = scratch.frontier();
        let reached = nav.first().is_some_and(|&(_, d)| d <= params.radius);
        let exhausted = nav.len() < beam_width;
        let extends = exhausted || nav.last().is_none_or(|&(_, d)| d > expand_bound);
        if (reached && extends)
            || beam_width >= points.len()
            || (!reached && beam_width >= MAX_EMPTY_BEAM)
        {
            break;
        }
        beam_width *= 2;
    }
    // Phase 2: flood from every navigated vertex within the slack bound.
    let mut seen = std::collections::HashSet::new();
    let mut stack: Vec<u32> = Vec::new();
    let mut results: Vec<(u32, f32)> = Vec::new();
    let seed = |id: u32, d: f32, stack: &mut Vec<u32>, results: &mut Vec<(u32, f32)>| {
        if d <= params.radius {
            results.push((id, d));
        }
        if d <= expand_bound {
            stack.push(id);
        }
    };
    // (Seeding order decides the flood's stack order, hence which vertices
    // a `limit` cuts off: frontier first, then the expanded vertices in
    // `(dist, id)` order.)
    let mut navigated = scratch.expanded().to_vec();
    navigated.sort_by(cmp_dist);
    for &(id, d) in scratch.frontier().iter().chain(navigated.iter()) {
        if seen.insert(id) {
            seed(id, d, &mut stack, &mut results);
        }
    }
    let mut expanded = 0usize;
    // Flood expansion scores each vertex's unseen out-neighborhood in one
    // batched, prefetched call (same hot path as beam search).
    let padded_query = points.pad_query(query);
    let mut batch_ids: Vec<u32> = Vec::with_capacity(64);
    let mut batch_dists: Vec<f32> = Vec::with_capacity(64);
    while let Some(v) = stack.pop() {
        if expanded >= params.limit {
            break;
        }
        expanded += 1;
        stats.hops += 1;
        batch_ids.clear();
        for &w in view.out_neighbors(v) {
            if seen.insert(w) {
                batch_ids.push(w);
            }
        }
        distance_batch(&padded_query, &batch_ids, points, metric, &mut batch_dists);
        stats.dist_comps += batch_ids.len();
        for (&w, &d) in batch_ids.iter().zip(batch_dists.iter()) {
            seed(w, d, &mut stack, &mut results);
        }
    }
    results.sort_by(cmp_dist);
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diskann::{VamanaIndex, VamanaParams};
    use ann_data::bigann_like;
    use ann_data::distance;

    fn brute_force_ball(
        points: &PointSet<u8>,
        query: &[u8],
        radius: f32,
        metric: Metric,
    ) -> Vec<u32> {
        (0..points.len() as u32)
            .filter(|&i| distance(query, points.point(i as usize), metric) <= radius)
            .collect()
    }

    #[test]
    fn finds_most_of_the_ball() {
        let data = bigann_like(3_000, 20, 19);
        let index = VamanaIndex::build(data.points.clone(), data.metric, &VamanaParams::default());
        // Pick a radius that captures a few dozen points on average: use
        // the 20th-NN distance of query 0 as the radius.
        let gt = ann_data::compute_ground_truth(&data.points, &data.queries, 20, data.metric);
        let mut total_true = 0usize;
        let mut total_found = 0usize;
        for q in 0..data.queries.len() {
            let radius = gt.distances(q)[19];
            let truth = brute_force_ball(&data.points, data.queries.point(q), radius, data.metric);
            let (found, _) = index.range_search(
                data.queries.point(q),
                &RangeParams {
                    radius,
                    beam: 48,
                    ..RangeParams::default()
                },
            );
            let found_set: std::collections::HashSet<u32> =
                found.iter().map(|&(id, _)| id).collect();
            total_true += truth.len();
            total_found += truth.iter().filter(|id| found_set.contains(id)).count();
            // Precision must be perfect: nothing outside the radius.
            for &(id, d) in &found {
                assert!(d <= radius);
                assert!(truth.contains(&id));
            }
        }
        let recall = total_found as f64 / total_true as f64;
        assert!(recall > 0.9, "range recall {recall}");
    }

    #[test]
    fn empty_ball_returns_nothing() {
        let data = bigann_like(500, 5, 20);
        let index = VamanaIndex::build(data.points.clone(), data.metric, &VamanaParams::default());
        let (found, _) = index.range_search(
            data.queries.point(0),
            &RangeParams {
                radius: 0.0,
                beam: 16,
                ..RangeParams::default()
            },
        );
        // Radius 0: only an exact duplicate would match.
        assert!(found.iter().all(|&(_, d)| d == 0.0));
    }

    #[test]
    fn results_sorted_and_limit_respected() {
        let data = bigann_like(2_000, 5, 21);
        let index = VamanaIndex::build(data.points.clone(), data.metric, &VamanaParams::default());
        let gt = ann_data::compute_ground_truth(&data.points, &data.queries, 10, data.metric);
        let radius = gt.distances(0)[9] * 2.0;
        let (found, _) = index.range_search(
            data.queries.point(0),
            &RangeParams {
                radius,
                beam: 32,
                slack: 1.2,
                limit: 10,
            },
        );
        for w in found.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn bigger_slack_never_finds_less() {
        let data = bigann_like(2_000, 10, 22);
        let index = VamanaIndex::build(data.points.clone(), data.metric, &VamanaParams::default());
        let gt = ann_data::compute_ground_truth(&data.points, &data.queries, 20, data.metric);
        for q in 0..5 {
            let radius = gt.distances(q)[19];
            let count = |slack: f32| {
                index
                    .range_search(
                        data.queries.point(q),
                        &RangeParams {
                            radius,
                            beam: 32,
                            slack,
                            limit: usize::MAX,
                        },
                    )
                    .0
                    .len()
            };
            assert!(count(1.5) >= count(1.0));
        }
    }
}
