//! `ann` — a small CLI for building, inspecting, and querying indexes on
//! real dataset files (the workflow a downstream user runs, decoupled from
//! the synthetic experiment harness).
//!
//! ```text
//! ann gen <bigann|msspacev|text2image> <n> <points.bin> [queries.bin nq]
//! ann build <points.bin> <u8|i8|f32> <index.pann> [--degree R] [--beam L] [--alpha A] [--metric l2|ip]
//! ann stats <index.pann> <u8|i8|f32>
//! ann query <index.pann> <u8|i8|f32> <queries.bin> [--k K] [--beam B] [--gt]
//! ```
//!
//! Formats: points/queries use the BigANN-competition `.bin` layout
//! (`u32 n, u32 dim`, row-major elements); indexes use the versioned
//! `core::io` format.

use ann_data::io::{read_bin, write_bin, BinaryElem};
use ann_data::{compute_ground_truth, recall_ids, Metric};
use parlayann::analysis::graph_stats;
use parlayann::{QueryParams, VamanaIndex, VamanaParams};
use std::path::Path;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage:\n  ann gen <bigann|msspacev|text2image> <n> <points.bin> [<queries.bin> <nq>]\n  \
         ann build <points.bin> <u8|i8|f32> <index.pann> [--degree R] [--beam L] [--alpha A] [--metric l2|ip]\n  \
         ann stats <index.pann> <u8|i8|f32>\n  \
         ann query <index.pann> <u8|i8|f32> <queries.bin> [--k K] [--beam B] [--gt]"
    );
    exit(2)
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("build") => dispatch_elem(
            &args[1..],
            1,
            cmd_build::<u8>,
            cmd_build::<i8>,
            cmd_build::<f32>,
        ),
        Some("stats") => dispatch_elem(
            &args[1..],
            1,
            cmd_stats::<u8>,
            cmd_stats::<i8>,
            cmd_stats::<f32>,
        ),
        Some("query") => dispatch_elem(
            &args[1..],
            1,
            cmd_query::<u8>,
            cmd_query::<i8>,
            cmd_query::<f32>,
        ),
        _ => usage(),
    }
}

fn dispatch_elem(
    args: &[String],
    elem_pos: usize,
    f_u8: fn(&[String]),
    f_i8: fn(&[String]),
    f_f32: fn(&[String]),
) {
    match args.get(elem_pos).map(String::as_str) {
        Some("u8") => f_u8(args),
        Some("i8") => f_i8(args),
        Some("f32") => f_f32(args),
        _ => usage(),
    }
}

fn cmd_gen(args: &[String]) {
    let (Some(kind), Some(n), Some(out)) = (args.first(), args.get(1), args.get(2)) else {
        usage()
    };
    let n: usize = n.parse().unwrap_or_else(|_| usage());
    let nq: usize = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(100);
    match kind.as_str() {
        "bigann" => {
            let d = ann_data::bigann_like(n, nq, 42);
            write_bin(Path::new(out), &d.points).expect("write points");
            if let Some(qp) = args.get(3) {
                write_bin(Path::new(qp), &d.queries).expect("write queries");
            }
            println!(
                "wrote {n} x {}d u8 points (metric {})",
                d.points.dim(),
                d.metric.name()
            );
        }
        "msspacev" => {
            let d = ann_data::msspacev_like(n, nq, 42);
            write_bin(Path::new(out), &d.points).expect("write points");
            if let Some(qp) = args.get(3) {
                write_bin(Path::new(qp), &d.queries).expect("write queries");
            }
            println!(
                "wrote {n} x {}d i8 points (metric {})",
                d.points.dim(),
                d.metric.name()
            );
        }
        "text2image" => {
            let d = ann_data::text2image_like(n, nq, 42);
            write_bin(Path::new(out), &d.points).expect("write points");
            if let Some(qp) = args.get(3) {
                write_bin(Path::new(qp), &d.queries).expect("write queries");
            }
            println!(
                "wrote {n} x {}d f32 points (metric {})",
                d.points.dim(),
                d.metric.name()
            );
        }
        _ => usage(),
    }
}

fn parse_metric(args: &[String]) -> Metric {
    match flag(args, "--metric").as_deref() {
        Some("ip") => Metric::InnerProduct,
        Some("cos") => Metric::Cosine,
        _ => Metric::SquaredEuclidean,
    }
}

fn cmd_build<T: BinaryElem>(args: &[String]) {
    let (Some(points_path), Some(out)) = (args.first(), args.get(2)) else {
        usage()
    };
    let points = read_bin::<T>(Path::new(points_path), usize::MAX).expect("read points");
    let metric = parse_metric(args);
    let params = VamanaParams {
        degree: flag(args, "--degree")
            .and_then(|s| s.parse().ok())
            .unwrap_or(32),
        beam: flag(args, "--beam")
            .and_then(|s| s.parse().ok())
            .unwrap_or(64),
        alpha: flag(args, "--alpha")
            .and_then(|s| s.parse().ok())
            .unwrap_or(if metric == Metric::InnerProduct {
                1.0
            } else {
                1.2
            }),
        ..VamanaParams::default()
    };
    println!(
        "building ParlayDiskANN over {} x {}d {} points (R={}, L={}, alpha={})",
        points.len(),
        points.dim(),
        T::NAME,
        params.degree,
        params.beam,
        params.alpha
    );
    let index = VamanaIndex::build(points, metric, &params);
    println!(
        "built in {:.2}s ({} distance comparisons); fingerprint {:x}",
        index.build_stats.seconds,
        index.build_stats.dist_comps,
        index.graph.fingerprint()
    );
    index.save(Path::new(out)).expect("save index");
    println!("saved to {out}");
}

fn cmd_stats<T: BinaryElem>(args: &[String]) {
    let Some(index_path) = args.first() else {
        usage()
    };
    let index = VamanaIndex::<T>::load(Path::new(index_path)).expect("load index");
    let stats = graph_stats(&index.graph, index.points(), index.metric, index.starts[0]);
    println!("{}", stats.summary());
    println!("fingerprint {:x}", index.graph.fingerprint());
}

fn cmd_query<T: BinaryElem>(args: &[String]) {
    let (Some(index_path), Some(queries_path)) = (args.first(), args.get(2)) else {
        usage()
    };
    let index = VamanaIndex::<T>::load(Path::new(index_path)).expect("load index");
    let queries = read_bin::<T>(Path::new(queries_path), usize::MAX).expect("read queries");
    let k = flag(args, "--k").and_then(|s| s.parse().ok()).unwrap_or(10);
    let beam = flag(args, "--beam")
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    let params = QueryParams {
        k,
        beam: beam.max(k),
        ..QueryParams::default()
    };
    let t0 = std::time::Instant::now();
    let results: Vec<Vec<(u32, f32)>> =
        parlay::tabulate(queries.len(), |q| index.search(queries.point(q), &params).0);
    let secs = t0.elapsed().as_secs_f64();
    println!(
        "{} queries in {:.3}s  ({:.0} QPS, beam {beam}, k {k})",
        queries.len(),
        secs,
        queries.len() as f64 / secs
    );
    for (q, res) in results.iter().take(3).enumerate() {
        let ids: Vec<u32> = res.iter().map(|&(id, _)| id).collect();
        println!("  q{q}: {ids:?}");
    }
    if args.iter().any(|a| a == "--gt") {
        let gt = compute_ground_truth(index.points(), &queries, k, index.metric);
        let ids: Vec<Vec<u32>> = results
            .iter()
            .map(|r| r.iter().map(|&(id, _)| id).collect())
            .collect();
        println!("{k}@{k} recall: {:.4}", recall_ids(&gt, &ids, k, k));
    }
}
