//! The paper's headline correctness property: every ParlayANN build is
//! deterministic — bit-identical output for any thread count.

use parlayann_suite::baselines::{IvfIndex, IvfParams, LshIndex, LshParams};
use parlayann_suite::core::{
    AnnIndex, HcnngIndex, HcnngParams, HnswIndex, HnswParams, PyNNDescentIndex, PyNNDescentParams,
    QueryParams, VamanaIndex, VamanaParams,
};
use parlayann_suite::data::bigann_like;

const N: usize = 1_200;

fn across_threads(f: impl Fn() -> u64 + Sync) -> (u64, u64) {
    let a = parlay::with_threads(1, &f);
    let b = parlay::with_threads(2, &f);
    (a, b)
}

#[test]
fn diskann_fingerprint_stable() {
    let d = bigann_like(N, 1, 10);
    let (a, b) = across_threads(|| {
        VamanaIndex::build(d.points.clone(), d.metric, &VamanaParams::default())
            .graph
            .fingerprint()
    });
    assert_eq!(a, b);
}

#[test]
fn hnsw_fingerprint_stable() {
    let d = bigann_like(N, 1, 11);
    let (a, b) = across_threads(|| {
        HnswIndex::build(d.points.clone(), d.metric, &HnswParams::default()).fingerprint()
    });
    assert_eq!(a, b);
}

#[test]
fn hcnng_fingerprint_stable() {
    let d = bigann_like(N, 1, 12);
    let (a, b) = across_threads(|| {
        HcnngIndex::build(d.points.clone(), d.metric, &HcnngParams::default())
            .graph
            .fingerprint()
    });
    assert_eq!(a, b);
}

#[test]
fn pynndescent_fingerprint_stable() {
    let d = bigann_like(N, 1, 13);
    let params = PyNNDescentParams {
        num_trees: 4,
        max_iters: 3,
        ..PyNNDescentParams::default()
    };
    let (a, b) = across_threads(|| {
        PyNNDescentIndex::build(d.points.clone(), d.metric, &params)
            .graph
            .fingerprint()
    });
    assert_eq!(a, b);
}

#[test]
fn twenty_runs_at_8_threads_are_bit_identical() {
    // The headline stress test for the real work-stealing pool: the same
    // build, 20 times, on 8 workers. Every run sees a different real
    // schedule (stealing order, task placement); every fingerprint must be
    // the same bits. Before PR 2 this was vacuous (the shim was
    // sequential); now it gates the scheduler itself.
    let d = bigann_like(600, 1, 18);
    let params = VamanaParams::default();
    let baseline = parlay::with_threads(1, || {
        VamanaIndex::build(d.points.clone(), d.metric, &params)
            .graph
            .fingerprint()
    });
    for run in 0..20 {
        let fp = parlay::with_threads(8, || {
            VamanaIndex::build(d.points.clone(), d.metric, &params)
                .graph
                .fingerprint()
        });
        assert_eq!(fp, baseline, "run {run} diverged from the 1-thread build");
    }
}

#[test]
fn repeated_builds_are_identical() {
    // Same thread count, two runs: also identical (no time/address
    // dependence anywhere).
    let d = bigann_like(N, 1, 14);
    let fp = || {
        VamanaIndex::build(d.points.clone(), d.metric, &VamanaParams::default())
            .graph
            .fingerprint()
    };
    assert_eq!(fp(), fp());
}

#[test]
fn query_results_are_deterministic() {
    let d = bigann_like(N, 20, 15);
    let index = VamanaIndex::build(d.points.clone(), d.metric, &VamanaParams::default());
    let run = || -> Vec<Vec<(u32, u32)>> {
        (0..d.queries.len())
            .map(|q| {
                index
                    .search(d.queries.point(q), &QueryParams::default())
                    .0
                    .into_iter()
                    .map(|(id, dist)| (id, dist.to_bits()))
                    .collect()
            })
            .collect()
    };
    let a = parlay::with_threads(1, run);
    let b = parlay::with_threads(2, run);
    assert_eq!(a, b);
}

#[test]
fn baselines_are_deterministic_too() {
    // Our IVF and LSH builds use semisort bucketing, so they are also
    // deterministic (unlike typical hash-map-based implementations).
    let d = bigann_like(N, 1, 16);
    let (a, b) = across_threads(|| {
        let idx = IvfIndex::build(
            d.points.clone(),
            d.metric,
            &IvfParams {
                nlist: 32,
                ..IvfParams::default()
            },
        );
        // Digest the quantizer.
        idx.quantizer
            .centroids
            .iter()
            .fold(0u64, |acc, &x| parlay::hash64_pair(acc, x.to_bits() as u64))
    });
    assert_eq!(a, b);
    let (a, b) = across_threads(|| {
        let idx = LshIndex::build(d.points.clone(), d.metric, &LshParams::default());
        let (res, _) = idx.search_probes(d.points.point(0), 5, 4);
        res.iter()
            .fold(0u64, |acc, &(id, _)| parlay::hash64_pair(acc, id as u64))
    });
    assert_eq!(a, b);
}

#[test]
fn beam_search_byte_identical_across_1_4_8_threads() {
    // The batched SIMD expansion path must stay a pure function of
    // (graph, query): build once, then require bit-identical `(id,
    // distance)` sequences at 1, 4, and 8 worker threads. Since PR 2 the
    // pool is a real work-stealing scheduler, so the 4- and 8-thread runs
    // execute under genuinely nondeterministic schedules.
    let d = bigann_like(N, 16, 17);
    let index = VamanaIndex::build(d.points.clone(), d.metric, &VamanaParams::default());
    let params = QueryParams {
        beam: 32,
        ..QueryParams::default()
    };
    let run = || -> Vec<(u32, u32)> {
        (0..d.queries.len())
            .flat_map(|q| {
                let (res, _) = index.search(d.queries.point(q), &params);
                res.into_iter().map(|(id, dist)| (id, dist.to_bits()))
            })
            .collect()
    };
    let one = parlay::with_threads(1, run);
    let four = parlay::with_threads(4, run);
    let eight = parlay::with_threads(8, run);
    assert!(!one.is_empty());
    assert_eq!(one, four);
    assert_eq!(one, eight);
}

#[test]
fn batched_search_20_runs_at_8_threads_bit_identical() {
    // `search_batch` under real stealing schedules: the same batch, 20
    // times, on 8 workers. Every run sees different task placement and
    // gets its scratches back from the index's pool in a different order;
    // every (id, dist) sequence must be the same bits, and must equal
    // the strictly sequential per-query reference (also at 1 thread).
    let d = bigann_like(700, 24, 19);
    let index = VamanaIndex::build(d.points.clone(), d.metric, &VamanaParams::default());
    let params = QueryParams {
        beam: 32,
        ..QueryParams::default()
    };
    let digest = |results: &[(Vec<(u32, f32)>, parlayann_suite::core::SearchStats)]| -> u64 {
        results.iter().fold(0u64, |acc, (res, stats)| {
            let acc = parlay::hash64_pair(acc, stats.dist_comps as u64);
            res.iter().fold(acc, |acc, &(id, dist)| {
                parlay::hash64_pair(parlay::hash64_pair(acc, id as u64), dist.to_bits() as u64)
            })
        })
    };
    let solo: Vec<_> = (0..d.queries.len())
        .map(|q| index.search(d.queries.point(q), &params))
        .collect();
    let baseline = digest(&solo);
    for run in 0..20 {
        let threads = if run == 0 { 1 } else { 8 };
        let fp = parlay::with_threads(threads, || digest(&index.search_batch(&d.queries, &params)));
        assert_eq!(
            fp, baseline,
            "run {run} diverged from the sequential reference"
        );
    }
}
