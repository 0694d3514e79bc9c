//! The query layer's headline contract: `search_batch` is
//! **bit-identical** to one-at-a-time `search` for every index family, at
//! every batch shape and every thread count. Batching and scratch reuse
//! may only change execution layout, never results.

use parlayann_suite::baselines::{IvfIndex, IvfParams, PqVamanaIndex, PqVamanaParams};
use parlayann_suite::core::{
    AnnIndex, HcnngIndex, HcnngParams, HnswIndex, HnswParams, PyNNDescentIndex, PyNNDescentParams,
    QueryParams, VamanaIndex, VamanaParams,
};
use parlayann_suite::data::{bigann_like, Dataset, PointSet};
use proptest::prelude::*;
use std::sync::OnceLock;

const N: usize = 900;

struct Fixtures {
    data: Dataset<u8>,
    indexes: Vec<(&'static str, Box<dyn AnnIndex<u8> + Send>)>,
}

/// Build every index family once (they are deterministic, so sharing them
/// across proptest cases loses nothing).
fn fixtures() -> &'static Fixtures {
    static FIXTURES: OnceLock<Fixtures> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let data = bigann_like(N, 40, 1234);
        let points = || data.points.clone();
        let indexes: Vec<(&'static str, Box<dyn AnnIndex<u8> + Send>)> = vec![
            (
                "vamana",
                Box::new(VamanaIndex::build(
                    points(),
                    data.metric,
                    &VamanaParams::default(),
                )),
            ),
            (
                "hnsw",
                Box::new(HnswIndex::build(
                    points(),
                    data.metric,
                    &HnswParams::default(),
                )),
            ),
            (
                "hcnng",
                Box::new(HcnngIndex::build(
                    points(),
                    data.metric,
                    &HcnngParams::default(),
                )),
            ),
            (
                "pynndescent",
                Box::new(PyNNDescentIndex::build(
                    points(),
                    data.metric,
                    &PyNNDescentParams {
                        num_trees: 4,
                        max_iters: 3,
                        ..PyNNDescentParams::default()
                    },
                )),
            ),
            (
                "ivf",
                Box::new(IvfIndex::build(
                    points(),
                    data.metric,
                    &IvfParams {
                        nlist: 32,
                        ..IvfParams::default()
                    },
                )),
            ),
            (
                "pq-vamana",
                Box::new(PqVamanaIndex::build(
                    points(),
                    data.metric,
                    &PqVamanaParams::default(),
                )),
            ),
        ];
        Fixtures { data, indexes }
    })
}

/// `(id, dist-bits)` rows plus stats — the full observable output.
type Observed = Vec<(Vec<(u32, u32)>, (usize, usize))>;

fn observe(results: Vec<(Vec<(u32, f32)>, parlayann_suite::core::SearchStats)>) -> Observed {
    results
        .into_iter()
        .map(|(res, stats)| {
            (
                res.into_iter().map(|(id, d)| (id, d.to_bits())).collect(),
                (stats.dist_comps, stats.hops),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn search_batch_bit_identical_to_single_search_all_families(
        threads in 2usize..=7,
        beam in 8usize..=48,
        k in 1usize..=10,
        nq in 1usize..=20,
        q_off in 0usize..20,
    ) {
        let f = fixtures();
        let params = QueryParams { k, beam: beam.max(k), ..QueryParams::default() };
        // A contiguous query slice (offset makes the subset vary).
        let lo = q_off.min(f.data.queries.len() - nq.min(f.data.queries.len()));
        let hi = (lo + nq).min(f.data.queries.len());
        let ids: Vec<u32> = (lo as u32..hi as u32).collect();
        let queries: PointSet<u8> = f.data.queries.gather(&ids);

        for (name, index) in &f.indexes {
            // Reference: strictly sequential one-at-a-time search.
            let solo: Observed = observe(
                (0..queries.len())
                    .map(|q| index.search(queries.point(q), &params))
                    .collect(),
            );
            // Batched: sequential pool, the sampled thread count, and 8.
            for t in [1, threads, 8] {
                let batched: Observed =
                    parlay::with_threads(t, || observe(index.search_batch(&queries, &params)));
                prop_assert_eq!(
                    &batched, &solo,
                    "{} diverged at threads={} beam={} k={}",
                    name, t, beam, k
                );
            }
        }
    }
}

#[test]
fn every_family_counts_distance_comparisons() {
    // Per-query counters are always on: every answered query reports the
    // distances it computed.
    let f = fixtures();
    let params = QueryParams {
        beam: 32,
        ..QueryParams::default()
    };
    for (name, index) in &f.indexes {
        for (res, stats) in index.search_batch(&f.data.queries, &params) {
            assert!(!res.is_empty(), "{name}: empty answer");
            assert!(stats.dist_comps > 0, "{name}: no distance comparisons");
        }
    }
}

#[test]
fn zero_k_or_zero_beam_is_an_empty_result_with_zero_stats() {
    // `k == 0` used to index `frontier[k - 1]` and panic the search thread.
    let f = fixtures();
    for (name, index) in &f.indexes {
        if *name == "ivf" {
            continue; // a scan, not a beam walk: `beam` means nothing to it
        }
        for (k, beam) in [(0usize, 32usize), (10, 0), (0, 0)] {
            let params = QueryParams {
                k,
                beam,
                ..QueryParams::default()
            };
            let empty = (Vec::new(), parlayann_suite::core::SearchStats::default());
            assert_eq!(
                index.search(f.data.queries.point(0), &params),
                empty,
                "{name} search k={k} beam={beam}"
            );
            let batch = index.search_batch(&f.data.queries, &params);
            assert_eq!(batch.len(), f.data.queries.len(), "{name}");
            assert!(
                batch.iter().all(|row| *row == empty),
                "{name} search_batch k={k} beam={beam}"
            );
        }
    }
}

#[test]
fn range_search_is_available_on_every_family() {
    // Every index answers radius queries through the trait; graph indexes
    // flood, baselines filter — all must respect the radius exactly.
    let f = fixtures();
    let gt = parlayann_suite::data::compute_ground_truth(
        &f.data.points,
        &f.data.queries,
        10,
        f.data.metric,
    );
    for (name, index) in &f.indexes {
        let radius = gt.distances(0)[9];
        let (found, _) = index.range_search(
            f.data.queries.point(0),
            &parlayann_suite::core::RangeParams {
                radius,
                beam: 32,
                ..Default::default()
            },
        );
        for &(id, d) in &found {
            assert!(d <= radius, "{name}: reported {id} outside the radius");
        }
        for w in found.windows(2) {
            assert!(w[0].1 <= w[1].1, "{name}: results not sorted");
        }
        // PQ distances are approximate, so only exact-scoring indexes are
        // required to actually find the ball's members.
        if *name != "pq-vamana" {
            assert!(
                !found.is_empty(),
                "{name}: found nothing within the 10-NN radius"
            );
        }
    }
}

#[test]
fn index_stats_and_kinds_are_populated() {
    use parlayann_suite::core::IndexKind;
    let f = fixtures();
    let want_kinds = [
        ("vamana", IndexKind::Vamana),
        ("hnsw", IndexKind::Hnsw),
        ("hcnng", IndexKind::Hcnng),
        ("pynndescent", IndexKind::PyNNDescent),
        ("ivf", IndexKind::Ivf),
        ("pq-vamana", IndexKind::PqVamana),
    ];
    for (name, index) in &f.indexes {
        let kind = want_kinds
            .iter()
            .find(|(n, _)| n == name)
            .expect("fixture kind")
            .1;
        assert_eq!(index.kind(), kind, "{name}");
        let stats = index.stats();
        assert_eq!(stats.points, N, "{name}");
        assert_eq!(stats.dim, f.data.points.dim(), "{name}");
        if matches!(
            kind,
            IndexKind::Vamana
                | IndexKind::Hnsw
                | IndexKind::Hcnng
                | IndexKind::PyNNDescent
                | IndexKind::PqVamana
        ) {
            assert!(stats.edges > 0, "{name}: graph index reports no edges");
            assert!(stats.avg_degree() > 1.0, "{name}");
        }
    }
}
