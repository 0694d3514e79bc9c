//! Property-based integration tests (proptest): invariants that must hold
//! for arbitrary small point sets, not just the synthetic benchmarks.

use parlayann_suite::core::{
    beam_search, medoid, robust_prune, FlatGraph, QueryParams, VamanaIndex, VamanaParams,
};
use parlayann_suite::data::{compute_ground_truth, distance, Metric, PointSet};
use proptest::prelude::*;

/// Arbitrary small f32 point set: n in [8, 60], d in [2, 6], coords in a
/// bounded range (no NaN/inf).
fn arb_points() -> impl Strategy<Value = PointSet<f32>> {
    (8usize..60, 2usize..6).prop_flat_map(|(n, d)| {
        proptest::collection::vec(-100.0f32..100.0, n * d)
            .prop_map(move |data| PointSet::new(data, d))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ground_truth_is_optimal(points in arb_points()) {
        let queries = points.prefix(3.min(points.len()));
        let k = 3.min(points.len());
        let gt = compute_ground_truth(&points, &queries, k, Metric::SquaredEuclidean);
        for q in 0..queries.len() {
            let kth = gt.distances(q)[k - 1];
            // No point can be closer than the reported k-th unless reported.
            let reported: std::collections::HashSet<u32> =
                gt.neighbors(q).iter().copied().collect();
            for i in 0..points.len() as u32 {
                let d = distance(queries.point(q), points.point(i as usize), Metric::SquaredEuclidean);
                prop_assert!(d >= kth || reported.contains(&i),
                    "point {i} at {d} closer than kth {kth} but unreported");
            }
        }
    }

    #[test]
    fn vamana_index_invariants(points in arb_points()) {
        let params = VamanaParams { degree: 6, beam: 12, ..VamanaParams::default() };
        let index = VamanaIndex::build(points.clone(), Metric::SquaredEuclidean, &params);
        // Degree bound everywhere; all edge targets valid; no self loops.
        for v in 0..points.len() as u32 {
            let nbrs = index.graph.neighbors(v);
            prop_assert!(nbrs.len() <= 6);
            for &w in nbrs {
                prop_assert!((w as usize) < points.len());
                prop_assert!(w != v, "self loop at {v}");
            }
        }
        // Start point is a valid id.
        prop_assert!((index.starts[0] as usize) < points.len());
    }

    #[test]
    fn search_results_sorted_and_valid(points in arb_points()) {
        let index = VamanaIndex::build(
            points.clone(),
            Metric::SquaredEuclidean,
            &VamanaParams { degree: 6, beam: 12, ..VamanaParams::default() },
        );
        let (res, _) = index.search(points.point(0), &QueryParams {
            k: 5, beam: 10, ..QueryParams::default()
        });
        prop_assert!(!res.is_empty());
        for w in res.windows(2) {
            prop_assert!(w[0].1 <= w[1].1, "results not sorted");
        }
        for &(id, d) in &res {
            prop_assert!((id as usize) < points.len());
            let want = distance(points.point(0), points.point(id as usize), Metric::SquaredEuclidean);
            prop_assert!(d == want, "reported distance mismatch");
        }
        // Searching for an indexed point must find it (it is its own 1-NN).
        prop_assert_eq!(res[0].0, 0u32);
        prop_assert_eq!(res[0].1, 0.0f32);
    }

    #[test]
    fn robust_prune_respects_bound_and_alpha_monotonicity(points in arb_points()) {
        let cands: Vec<(u32, f32)> = (1..points.len() as u32)
            .map(|i| (i, distance(points.point(0), points.point(i as usize), Metric::SquaredEuclidean)))
            .collect();
        let mut dc = 0;
        let tight = robust_prune(0, cands.clone(), &points, Metric::SquaredEuclidean, 1.0, 4, &mut dc);
        let loose = robust_prune(0, cands, &points, Metric::SquaredEuclidean, 3.0, points.len(), &mut dc);
        prop_assert!(tight.len() <= 4);
        // Larger alpha and bound never yields fewer neighbors.
        prop_assert!(loose.len() >= tight.len());
        // Output ids are unique.
        let set: std::collections::HashSet<u32> = tight.iter().copied().collect();
        prop_assert_eq!(set.len(), tight.len());
    }

    #[test]
    fn beam_search_on_complete_graph_is_exact(points in arb_points()) {
        // On a complete graph, beam search with beam >= n degenerates to a
        // full scan: the 1-NN it reports must be the true 1-NN.
        let n = points.len();
        let mut g = FlatGraph::new(n, n - 1);
        for v in 0..n as u32 {
            let nbrs: Vec<u32> = (0..n as u32).filter(|&w| w != v).collect();
            g.set_neighbors(v, &nbrs);
        }
        let query: Vec<f32> = points.point(n / 2).to_vec();
        let res = beam_search(&query, &points, Metric::SquaredEuclidean, &g, &[0], &QueryParams {
            k: 1, beam: n, cut: 1.0, ..QueryParams::default()
        });
        let gt = compute_ground_truth(&points, &PointSet::from_rows(&[query]), 1, Metric::SquaredEuclidean);
        prop_assert_eq!(res.beam[0].1, gt.distances(0)[0]);
    }

    #[test]
    fn medoid_is_stable_under_duplication(points in arb_points()) {
        let m1 = medoid(&points);
        let m2 = medoid(&points);
        prop_assert_eq!(m1, m2);
        prop_assert!((m1 as usize) < points.len());
    }
}
