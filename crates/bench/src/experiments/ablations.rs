//! Ablations for the paper's in-text claims.
//!
//! * §3.1 — *batch-size truncation*: a prefix-doubling build (θ = 0.02n)
//!   matches the quality of a sequentially built index ("differs within 1%
//!   of the QPS at the same recall"), while a single all-at-once batch
//!   loses quality.
//! * §4.3 — *edge-restricted MSTs*: restricting leaf MST candidates to
//!   each point's 10-NN drastically cuts build work/space with no recall
//!   loss vs the complete-graph MST.
//! * §4.5 — *approximate visited table*: the one-sided-error hash table
//!   speeds search by 28.6–44.5% over an exact set at equal recall; and
//!   the (1+ε) cut trades a small recall loss for fewer distance
//!   comparisons.

use crate::harness::{fmt, print_table, qps_at_recall, sweep, write_csv};
use crate::workloads::{self, GT_K};
use ann_data::recall_ids;
use parlayann::{
    builder, BuildStats, GraphIndex, HcnngIndex, HcnngParams, IndexKind, QueryParams, VamanaIndex,
    VisitedMode,
};

/// §3.1: prefix doubling vs sequential vs one giant batch.
pub fn prefix_doubling(scale: usize) {
    let n = (scale / 4).max(1_500);
    println!("\nAblation §3.1: insertion schedule on BIGANN-like({n})");
    let w = workloads::bigann(n);
    let metric = w.data.metric;
    let base = super::vamana_params(n, metric);

    let build = |label: &str, prefix_doubling: bool, cap_frac: f64| {
        let t0 = std::time::Instant::now();
        let start = parlayann::medoid(&w.data.points);
        let order = builder::insertion_order(n, start, base.seed);
        let bp = builder::BuildParams {
            degree: base.degree,
            beam: base.beam,
            batch_cap_frac: cap_frac,
            prefix_doubling,
            cut: 1.25,
        };
        let (graph, _) = builder::incremental_build(
            &w.data.points,
            metric,
            start,
            &order,
            &bp,
            &builder::AlphaPrune(base.alpha),
        );
        let secs = t0.elapsed().as_secs_f64();
        (label.to_string(), graph, start, secs)
    };

    // Sequential = batches of one point (the lock-free equivalent of the
    // sequential algorithm); prefix doubling with the paper's θ; one batch.
    let variants = vec![
        build("sequential (batch=1)", true, 1e-9),
        build("prefix-doubling (theta=0.02n)", true, 0.02),
        build("single batch (all at once)", false, 1.0),
    ];
    let mut rows = Vec::new();
    for (label, graph, start, secs) in variants {
        let idx = GraphIndex::from_parts(
            IndexKind::Vamana,
            graph,
            vec![start],
            metric,
            BuildStats::default(),
            w.data.points.clone(),
        );
        let pts = sweep(
            &idx,
            &w.data.queries,
            &w.gt,
            GT_K,
            &super::graph_beams(),
            &[1.15],
        );
        let q90 = qps_at_recall(&pts, 0.9);
        let best = pts.last().map_or(0.0, |p| p.recall);
        rows.push(vec![
            label,
            fmt(secs),
            q90.map_or("n/a".into(), fmt),
            format!("{best:.4}"),
        ]);
    }
    let headers = ["schedule", "build_s", "qps@0.9", "best_recall"];
    print_table("§3.1 — insertion schedule ablation", &headers, &rows);
    write_csv("ablation_schedule", &headers, &rows);
    println!("(paper: prefix-doubling within ~1% of sequential QPS at equal recall)");
}

/// §4.5: approximate vs exact visited set, and the (1+ε) cut.
pub fn visited_and_cut(scale: usize) {
    let n = (scale / 2).max(2_000);
    println!("\nAblation §4.5: visited-set & (1+eps) cut on BIGANN-like({n})");
    let w = workloads::bigann(n);
    let index = VamanaIndex::build(
        w.data.points.clone(),
        w.data.metric,
        &super::vamana_params(n, w.data.metric),
    );
    let mut rows = Vec::new();
    for (label, visited, cut) in [
        ("approx table, cut=1.15", VisitedMode::Approx, 1.15f32),
        ("exact set,    cut=1.15", VisitedMode::Exact, 1.15),
        ("approx table, cut=1.0 (off)", VisitedMode::Approx, 1.0),
        ("approx table, cut=1.25", VisitedMode::Approx, 1.25),
    ] {
        for beam in [32usize, 64] {
            let params = QueryParams {
                k: GT_K,
                beam,
                cut,
                visited,
                ..QueryParams::default()
            };
            // Best of 3 timed runs.
            let mut best = f64::INFINITY;
            let mut kept = None;
            for _ in 0..3 {
                let t0 = std::time::Instant::now();
                let (ids, stats) =
                    crate::harness::tabulate_queries(&index, &w.data.queries, &params);
                let secs = t0.elapsed().as_secs_f64();
                if secs < best {
                    best = secs;
                    kept = Some((ids, stats));
                }
            }
            let (ids, stats) = kept.expect("ran");
            let recall = recall_ids(&w.gt, &ids, GT_K, GT_K);
            rows.push(vec![
                label.to_string(),
                beam.to_string(),
                format!("{recall:.4}"),
                fmt(w.data.queries.len() as f64 / best),
                fmt(stats.dist_comps as f64 / w.data.queries.len() as f64),
            ]);
        }
    }
    let headers = ["variant", "beam", "recall", "qps", "dist_cmps"];
    print_table("§4.5 — visited-set and cut ablation", &headers, &rows);
    write_csv("ablation_visited", &headers, &rows);
    println!("(paper: the approximate table improves search by 28.6–44.5%; eps cut trades recall for comparisons)");
}

/// §4.3: edge-restricted vs complete-graph leaf MSTs in HCNNG.
pub fn hcnng_mst(scale: usize) {
    let n = (scale / 4).max(1_500);
    println!("\nAblation §4.3: HCNNG MST edge restriction on BIGANN-like({n})");
    let w = workloads::bigann(n);
    let base = super::hcnng_params(n);
    let mut rows = Vec::new();
    for (label, full) in [
        ("restricted (10-NN edges)", false),
        ("complete graph", true),
    ] {
        let params = HcnngParams {
            full_mst: full,
            ..base
        };
        let index = HcnngIndex::build(w.data.points.clone(), w.data.metric, &params);
        let pts = sweep(
            &index,
            &w.data.queries,
            &w.gt,
            GT_K,
            &super::graph_beams(),
            &[1.15],
        );
        let q90 = qps_at_recall(&pts, 0.9);
        rows.push(vec![
            label.to_string(),
            fmt(index.build_stats.seconds),
            fmt(index.build_stats.dist_comps as f64),
            q90.map_or("n/a".into(), fmt),
        ]);
    }
    let headers = ["variant", "build_s", "build_dist_cmps", "qps@0.9"];
    print_table("§4.3 — HCNNG MST ablation", &headers, &rows);
    write_csv("ablation_hcnng_mst", &headers, &rows);
    println!("(paper: the restriction saves space/time 'with no drop in QPS for a given recall')");
}

/// Open Question 3: PQ-compressed graph search vs the uncompressed graph
/// (same graph, `m` bytes per vector, ADC scoring + exact re-rank).
pub fn quantized_graph(scale: usize) {
    let n = (scale / 2).max(2_000);
    println!("\nExtension (OQ3): PQ-compressed graph search on BIGANN-like({n})");
    let w = workloads::bigann(n);
    let full = VamanaIndex::build(
        w.data.points.clone(),
        w.data.metric,
        &super::vamana_params(n, w.data.metric),
    );
    let mut rows = Vec::new();
    let mut measure = |label: &str, index: &dyn parlayann::AnnIndex<u8>| {
        let pts = sweep(
            index,
            &w.data.queries,
            &w.gt,
            GT_K,
            &super::graph_beams(),
            &[1.0],
        );
        let q90 = qps_at_recall(&pts, 0.9);
        let best = pts.last().map_or(0.0, |p| p.recall);
        rows.push(vec![
            label.to_string(),
            q90.map_or("n/a".into(), fmt),
            format!("{best:.4}"),
        ]);
    };
    measure("uncompressed (full vectors)", &full);
    for (label, rerank) in [("PQ + rerank 10k", 10usize), ("PQ, no rerank", 0)] {
        let pq = ann_baselines::PqVamanaIndex::from_index(
            VamanaIndex::build(
                w.data.points.clone(),
                w.data.metric,
                &super::vamana_params(n, w.data.metric),
            ),
            &ann_baselines::PqParams {
                m: 32,
                ..ann_baselines::PqParams::default()
            },
            rerank,
        );
        measure(label, &pq);
    }
    let headers = ["variant", "qps@0.9", "best_recall"];
    print_table("OQ3 — quantized graph search", &headers, &rows);
    write_csv("ablation_quantized", &headers, &rows);
    println!(
        "(expect: rerank recovers most recall at ~1/8 the vector bytes; no-rerank caps below)"
    );
}

/// Runs all ablations.
pub fn run(scale: usize) {
    prefix_doubling(scale);
    visited_and_cut(scale);
    hcnng_mst(scale);
    quantized_graph(scale);
}
