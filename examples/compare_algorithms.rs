//! Side-by-side comparison of the four graph algorithms and the two
//! non-graph baselines on a web-document workload (MSSPACEV-like i8).
//!
//! Prints build time, graph statistics, and recall at a fixed beam — a
//! one-screen summary of the paper's evaluation setup.
//!
//! ```text
//! cargo run --release --example compare_algorithms
//! ```

use parlayann_suite::baselines::{IvfIndex, IvfParams, LshIndex, LshParams, PqParams};
use parlayann_suite::core::{
    AnnIndex, HcnngIndex, HcnngParams, HnswIndex, HnswParams, PyNNDescentIndex, PyNNDescentParams,
    QueryParams, VamanaIndex, VamanaParams,
};
use parlayann_suite::data::{compute_ground_truth, msspacev_like, recall_ids};

fn main() {
    let n = 10_000;
    let data = msspacev_like(n, 100, 21);
    let gt = compute_ground_truth(&data.points, &data.queries, 10, data.metric);
    println!("MSSPACEV-like web-document workload, n={n}, 100-d i8\n");

    struct Entry {
        name: String,
        build_secs: f64,
        index: Box<dyn AnnIndex<i8>>,
    }
    let mut entries: Vec<Entry> = Vec::new();
    let t = std::time::Instant::now();
    let v = VamanaIndex::build(data.points.clone(), data.metric, &VamanaParams::default());
    entries.push(Entry {
        name: format!("ParlayDiskANN (deg {:.1})", v.graph.avg_degree()),
        build_secs: t.elapsed().as_secs_f64(),
        index: Box::new(v),
    });
    let t = std::time::Instant::now();
    let h = HnswIndex::build(data.points.clone(), data.metric, &HnswParams::default());
    entries.push(Entry {
        name: format!("ParlayHNSW ({} layers)", h.num_layers()),
        build_secs: t.elapsed().as_secs_f64(),
        index: Box::new(h),
    });
    let t = std::time::Instant::now();
    let c = HcnngIndex::build(data.points.clone(), data.metric, &HcnngParams::default());
    entries.push(Entry {
        name: format!("ParlayHCNNG (deg {:.1})", c.graph.avg_degree()),
        build_secs: t.elapsed().as_secs_f64(),
        index: Box::new(c),
    });
    let t = std::time::Instant::now();
    let p = PyNNDescentIndex::build(
        data.points.clone(),
        data.metric,
        &PyNNDescentParams::default(),
    );
    entries.push(Entry {
        name: format!("ParlayPyNN (deg {:.1})", p.graph.avg_degree()),
        build_secs: t.elapsed().as_secs_f64(),
        index: Box::new(p),
    });
    let t = std::time::Instant::now();
    let ivf = IvfIndex::build(
        data.points.clone(),
        data.metric,
        &IvfParams {
            nlist: 100,
            pq: Some(PqParams::default()),
            rerank_factor: 4,
            ..IvfParams::default()
        },
    );
    entries.push(Entry {
        name: "FAISS-IVFPQ".into(),
        build_secs: t.elapsed().as_secs_f64(),
        index: Box::new(ivf),
    });
    let t = std::time::Instant::now();
    let lsh = LshIndex::build(data.points.clone(), data.metric, &LshParams::default());
    entries.push(Entry {
        name: "FALCONN-LSH".into(),
        build_secs: t.elapsed().as_secs_f64(),
        index: Box::new(lsh),
    });

    println!(
        "{:>28}  {:>9}  {:>9}  {:>9}",
        "index", "build_s", "recall@32", "recall@128"
    );
    for e in &entries {
        let recall_at = |beam: usize| {
            let params = QueryParams {
                k: 10,
                beam,
                ..QueryParams::default()
            };
            let results: Vec<Vec<u32>> = (0..data.queries.len())
                .map(|q| {
                    e.index
                        .search(data.queries.point(q), &params)
                        .0
                        .into_iter()
                        .map(|(id, _)| id)
                        .collect()
                })
                .collect();
            recall_ids(&gt, &results, 10, 10)
        };
        println!(
            "{:>28}  {:>9.2}  {:>9.4}  {:>9.4}",
            e.name,
            e.build_secs,
            recall_at(32),
            recall_at(128)
        );
    }
}
