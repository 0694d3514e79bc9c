//! The per-layer ledger: the metric names of a traced run, and the probes
//! that need no index (parlay primitives, distance kernels, row fetch).
//! Probes that need a workload's index live with that workload.
//!
//! The result of a traced run carries every name on every workload; a
//! metric reads [`UNMEASURED`] where the workload never calls that layer.

use crate::stats::median;
use ann_data::{distance, distance_batch, Metric, PointSet, VectorElem};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Every per-layer metric, in report order, with its unit. Layer names are
/// the repository's modules. `BENCHMARK.json` lists the same names.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rayon.build_speedup_t2", "ratio"),
    ("rayon.query_speedup_t2", "ratio"),
    ("parlay.tabulate_ns_per_item", "ns"),
    ("parlay.sort_mkeys_per_s", "Mkeys/s"),
    ("parlay.semisort_mkeys_per_s", "Mkeys/s"),
    ("data.datagen_s", "s"),
    ("data.ground_truth_s", "s"),
    ("data.l2_u8_d128_ns", "ns"),
    ("data.ip_f32_d200_ns", "ns"),
    ("data.row_fetch_ns_u8", "ns"),
    ("data.row_fetch_ns_f32", "ns"),
    ("core.build_s", "s"),
    ("core.build_dist_comps_per_pt", "count"),
    ("core.build_ns_per_dist_comp", "ns"),
    ("core.graph_avg_degree", "count"),
    ("core.hnsw_build_pts_per_s", "points/s"),
    ("core.hcnng_build_pts_per_s", "points/s"),
    ("core.pynndescent_build_pts_per_s", "points/s"),
    ("core.hnsw_recall_at_10", "ratio"),
    ("core.hcnng_recall_at_10", "ratio"),
    ("core.pynndescent_recall_at_10", "ratio"),
    ("core.dist_comps_per_query", "count"),
    ("core.hops_per_query", "count"),
    ("core.ns_per_hop", "ns"),
    ("core.dist_share", "ratio"),
    ("core.single_qps", "1/s"),
    ("core.batch_over_single", "ratio"),
    ("core.io_save_s", "s"),
    ("core.io_load_s", "s"),
    ("core.io_bytes_per_pt", "bytes"),
    ("baselines.ivf_qps", "1/s"),
    ("baselines.ivf_recall_at_10", "ratio"),
    ("store.partition_s", "s"),
    ("store.shard_build_s", "s"),
    ("store.shard_imbalance", "ratio"),
    ("store.fanout_us_per_query", "us"),
    ("store.shard_search_us_per_query", "us"),
    ("store.merge_ns_per_query", "ns"),
    ("store.overhead_share", "ratio"),
    ("store.route_ns_per_query", "ns"),
    ("store.qps_over_mono", "ratio"),
    ("serve.direct_over_served", "ratio"),
    ("serve.lat_p99_all_us", "us"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.deadline_batch_share", "ratio"),
    ("serve.queue_share", "ratio"),
    ("serve.assemble_share", "ratio"),
    ("serve.search_share", "ratio"),
    ("serve.merge_share", "ratio"),
    ("serve.reply_share", "ratio"),
    ("serve.shed_share", "ratio"),
    ("serve.slo_miss_share", "ratio"),
    ("serve.max_rate_meeting_slo", "1/s"),
    ("obs.on_over_off_qps", "ratio"),
    ("bench.gen_lag_p99_us", "us"),
    ("bench.pass_qps_iqr_share", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

/// The values a traced run has measured so far.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(UNMEASURED)
    }
}

/// What a metric reads on a workload that does not measure it. Every
/// measured value is positive or zero, so this cannot be mistaken for one.
pub const UNMEASURED: f64 = -1.0;

/// The metrics holding an element type's kernel and row-fetch cost.
pub const ROW_COST_U8: [&str; 2] = ["data.l2_u8_d128_ns", "data.row_fetch_ns_u8"];
pub const ROW_COST_F32: [&str; 2] = ["data.ip_f32_d200_ns", "data.row_fetch_ns_f32"];

/// Median seconds of `reps` calls of `f`.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let secs: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&secs)
}

/// `parlay::{tabulate, sort, semisort}` on inputs shaped like the
/// builder's: 2 M keys, and pairs with at most 100 k distinct targets
/// (the reverse-edge lists a build round groups).
pub fn probe_parlay(layers: &mut Layers) {
    const ITEMS: usize = 1_000_000;
    const KEYS: usize = 2_000_000;
    let tab = median_secs(5, || {
        black_box(parlay::tabulate(ITEMS, |i| i as u32));
    });
    layers.set("parlay.tabulate_ns_per_item", tab * 1e9 / ITEMS as f64);

    let keys: Vec<u64> = (0..KEYS as u64).map(parlay::hash64).collect();
    let sort = median_secs(3, || {
        let mut v = keys.clone();
        parlay::sort(&mut v);
        black_box(v);
    });
    layers.set("parlay.sort_mkeys_per_s", KEYS as f64 / sort / 1e6);

    let edges: Vec<(u32, u32)> = keys
        .iter()
        .map(|&h| ((h % 100_000) as u32, (h >> 32) as u32))
        .collect();
    let semi = median_secs(3, || {
        black_box(parlay::semisort(&edges, |e| e.0 as u64));
    });
    layers.set("parlay.semisort_mkeys_per_s", KEYS as f64 / semi / 1e6);
}

/// Cost of one `Metric::distance` on L1-hot rows of the workload's corpus,
/// and what a row costs more when `distance_batch` has to fetch it from a
/// pseudo-random place in that corpus. Stored under `names`; returns the
/// sum, the cost of one distance as a search pays it.
pub fn probe_rows<T: VectorElem>(
    points: &PointSet<T>,
    metric: Metric,
    query: &[T],
    names: [&'static str; 2],
    layers: &mut Layers,
) -> f64 {
    const CALLS: usize = 1_000_000;
    const HOT_ROWS: usize = 32;
    let hot = median_secs(3, || {
        let mut acc = 0.0f32;
        for i in 0..CALLS {
            acc += distance(black_box(query), points.point(i % HOT_ROWS), metric);
        }
        black_box(acc);
    });
    let ids: Vec<u32> = (0..CALLS as u64)
        .map(|i| (parlay::hash64(i) % points.len() as u64) as u32)
        .collect();
    let mut out = Vec::with_capacity(CALLS);
    let cold = median_secs(3, || {
        distance_batch(query, black_box(&ids), points, metric, &mut out);
        black_box(&out);
    });
    let per_call = 1e9 / CALLS as f64;
    let (kernel, fetch) = (hot * per_call, (cold - hot).max(0.0) * per_call);
    layers.set(names[0], kernel);
    layers.set(names[1], fetch);
    kernel + fetch
}
