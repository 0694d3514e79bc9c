//! `perf` — the repository's one benchmark. Four workloads, seven
//! end-to-end metrics each, and in a traced run the per-layer ledger; see
//! `benchmark/README.md` for the definitions and the noise protocol.
//!
//! ```text
//! perf --workload build|query|query_ood|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object; everything else
//! (header, progress, the span summary) goes to standard error.

mod ledger;
mod offline;
mod serve;
mod stats;
mod trace;

use ann_data::{bigann_like, recall_ids, text2image_like, Dataset, GroundTruth, VectorElem};
use ledger::{Layers, PER_LAYER};
use parlayann::{QueryParams, SearchStats, VamanaParams};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Neighbours asked for and scored everywhere: recall is 10@10.
pub const K: usize = 10;

/// One query's answer as every search entry point returns it.
pub type Answer = (Vec<(u32, f32)>, SearchStats);

/// Bit-for-bit equality of two answers: ids, distance bits and counters.
pub fn same_answer(a: &Answer, b: &Answer) -> bool {
    a.1 == b.1 && same_neighbors(&a.0, &b.0)
}

pub fn same_neighbors(a: &[(u32, f32)], b: &[(u32, f32)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

pub fn recall(truth: &GroundTruth, answers: &[Answer]) -> f64 {
    let ids: Vec<Vec<u32>> = answers
        .iter()
        .map(|(res, _)| res.iter().map(|&(id, _)| id).collect())
        .collect();
    recall_ids(truth, &ids, K, K)
}

/// Generator seed of every corpus. How hard a generated corpus is to search
/// depends on where its cluster centres fall and on the graph built over it
/// (recall at a fixed beam ranges over 0.75–0.98 across generator seeds, and
/// still over 0.78–0.89 across samples of one mixture), so the corpus is a
/// constant of each workload, like a dataset file; `--seed` decides which
/// queries a run times.
const CORPUS_SEED: u64 = 42;

/// The inputs of one run: the workload's corpus with a held-out pool of
/// twice `queries` queries, and the `queries` of them `seed` chose
/// (ascending). Timed passes ask the chosen ones; recall is scored on the
/// whole pool, so it is a constant of the code under test.
pub fn sample<T: VectorElem>(
    generate: fn(usize, usize, u64) -> Dataset<T>,
    points: usize,
    queries: usize,
    seed: u64,
) -> (Dataset<T>, Vec<u32>) {
    let pool = generate(points, queries * 2, CORPUS_SEED);
    let mut chosen: Vec<u32> = (0..pool.queries.len() as u32).collect();
    chosen.sort_by_key(|&q| parlay::hash64_pair(seed, q as u64));
    chosen.truncate(queries);
    chosen.sort_unstable();
    (pool, chosen)
}

/// The pool's answers that belong to the chosen queries.
pub fn pick(pool_answers: &[Answer], chosen: &[u32]) -> Vec<Answer> {
    chosen
        .iter()
        .map(|&q| pool_answers[q as usize].clone())
        .collect()
}

pub fn query_params(beam: usize) -> QueryParams {
    QueryParams {
        k: K,
        beam,
        ..QueryParams::default()
    }
}

/// What the command line asked for, plus the state a run accumulates.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Taken first thing in `main`: stands for process start.
    pub started: Instant,
    pub tracer: Tracer,
    pub layers: Layers,
    /// Where a run may write: the build directory, inside the checkout.
    scratch: PathBuf,
}

impl Run {
    /// A path for a temporary file of this process.
    pub fn scratch_file(&self, name: &str) -> PathBuf {
        let dir = self.scratch.join("perf-scratch");
        std::fs::create_dir_all(&dir).expect("creating the scratch directory");
        dir.join(format!("{}-{name}", std::process::id()))
    }
}

/// The end-to-end result of one workload (`peak_rss_mb` is read last).
pub struct Outcome {
    pub attempted: u64,
    /// Operations refused, or answered differently from the reference.
    pub failed: u64,
    /// Broken run-wide conditions (a rebuilt graph that differs, a recall
    /// below the floor): any of them fails every operation.
    pub violations: Vec<&'static str>,
    pub setup_s: f64,
    pub build_pts_per_s: f64,
    pub qps: f64,
    pub lat_p50_us: f64,
    pub lat_p99_us: f64,
    pub recall_at_10: f64,
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmHWM line in /proc/self/status");
    kb / 1024.0
}

const WORKLOADS: [&str; 4] = ["build", "query", "query_ood", "serve"];

fn usage() -> ExitCode {
    eprintln!(
        "usage: perf --workload {} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let (mut workload, mut seed, mut seconds, mut traced) = (None, 42u64, 20.0f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = WORKLOADS.iter().find(|w| **w == value);
                workload.is_some()
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value.parse().map(|v| seconds = v).is_ok() && seconds > 0.0,
            "--trace" => match value.as_str() {
                "0" => true,
                "1" => {
                    traced = true;
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let Some(&workload) = workload else {
        return usage();
    };

    let scratch = PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or(".bench_build".into()));
    let mut run = Run {
        seed,
        seconds,
        traced,
        started,
        tracer: Tracer::new(traced, started),
        layers: Layers::default(),
        scratch,
    };
    eprintln!(
        "perf: workload={workload} seed={seed} seconds={seconds} trace={} host={} cores={} threads={} simd={:?} rev={}",
        u8::from(traced),
        std::fs::read_to_string("/proc/sys/kernel/hostname").map_or("unknown".into(), |h| h.trim().to_string()),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        parlay::num_threads(),
        ann_data::simd_level(),
        std::env::var("PERF_GIT_REV").unwrap_or("unknown".into()),
    );

    let root = run.tracer.begin("run");
    if traced {
        let span = run.tracer.begin("probe_parlay");
        ledger::probe_parlay(&mut run.layers);
        run.tracer.end(span, 0);
    }
    let outcome = match workload {
        // Construction is the work: the largest corpus, built twice.
        "build" => offline::run(
            &offline::Spec {
                generate: bigann_like,
                points: 80_000,
                queries: 1_000,
                vamana: VamanaParams::default(),
                beam: 256,
                recall_floor: 0.905,
                rebuild: true,
                row_cost: ledger::ROW_COST_U8,
                probe_families: true,
                probe_ivf: false,
            },
            &mut run,
        ),
        // In-distribution u8 queries at a high-recall operating point.
        "query" => offline::run(
            &offline::Spec {
                generate: bigann_like,
                points: 60_000,
                queries: 2_000,
                vamana: VamanaParams::default(),
                beam: 256,
                recall_floor: 0.925,
                rebuild: false,
                row_cost: ledger::ROW_COST_U8,
                probe_families: false,
                probe_ivf: true,
            },
            &mut run,
        ),
        // Out-of-distribution f32 queries under inner product: six times
        // the bytes and arithmetic per distance, longer paths.
        "query_ood" => offline::run(
            &offline::Spec {
                generate: text2image_like,
                points: 64_000,
                queries: 1_000,
                vamana: VamanaParams {
                    alpha: 1.0,
                    ..VamanaParams::default()
                },
                beam: 256,
                recall_floor: 0.773,
                rebuild: false,
                row_cost: ledger::ROW_COST_F32,
                probe_families: false,
                probe_ivf: false,
            },
            &mut run,
        ),
        _ => serve::run(&mut run),
    };
    run.tracer.end(root, outcome.attempted);
    for violation in &outcome.violations {
        eprintln!("VIOLATION: {violation}");
    }
    let failed = if outcome.violations.is_empty() {
        outcome.failed
    } else {
        outcome.attempted
    };

    let metrics: Vec<(&str, f64, &str)> = if traced {
        let path = run.scratch_file(&format!("{workload}-spans.jsonl"));
        run.tracer
            .write_jsonl(&path)
            .expect("writing the span file");
        eprintln!("spans: {}", path.display());
        eprintln!(
            "{:<24} {:>8} {:>10} {:>10}",
            "span", "calls", "total_s", "self_s"
        );
        for (name, (calls, total, own)) in run.tracer.summary() {
            eprintln!("{name:<24} {calls:>8} {total:>10.4} {own:>10.4}");
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, run.layers.get(name), unit))
            .collect()
    } else {
        vec![
            ("setup_s", outcome.setup_s, "s"),
            ("build_pts_per_s", outcome.build_pts_per_s, "points/s"),
            ("qps", outcome.qps, "1/s"),
            ("lat_p50_us", outcome.lat_p50_us, "us"),
            ("lat_p99_us", outcome.lat_p99_us, "us"),
            ("recall_at_10", outcome.recall_at_10, "ratio"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    };
    if let Some((name, value, _)) = metrics.iter().find(|m| !m.1.is_finite()) {
        eprintln!("perf: {name} is {value}: the harness measured nothing");
        return ExitCode::FAILURE;
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        outcome.attempted,
        failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
