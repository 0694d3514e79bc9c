//! The offline workloads (`build`, `query`, `query_ood`): one Vamana index
//! over a generated corpus, driven through `search_batch` (throughput) and
//! single `search` calls (latency) in alternating passes.

use crate::ledger::{median_secs, probe_rows};
use crate::stats::{iqr_share, median, median_and};
use crate::trace::Tracer;
use crate::{pick, query_params, recall, same_answer, sample, Answer, Outcome, Run, K};
use ann_baselines::{IvfIndex, IvfParams};
use ann_data::io::BinaryElem;
use ann_data::{compute_ground_truth, Dataset, GroundTruth, PointSet};
use parlayann::{
    load_index, AnnIndex, HcnngIndex, HcnngParams, HnswIndex, HnswParams, PyNNDescentIndex,
    PyNNDescentParams, QueryParams, VamanaIndex, VamanaParams,
};
use std::time::{Duration, Instant};

/// The frozen constants of one offline workload (calibration: README).
pub struct Spec<T> {
    pub generate: fn(usize, usize, u64) -> Dataset<T>,
    pub points: usize,
    pub queries: usize,
    pub vamana: VamanaParams,
    pub beam: usize,
    /// A run whose recall is below this counts every query as failed.
    pub recall_floor: f64,
    /// Whether the measured phase begins by constructing the index again:
    /// the two graphs must be equal and the faster build gives the rate.
    pub rebuild: bool,
    /// Per-layer metrics holding this element type's kernel and row-fetch
    /// cost, for `core.dist_share`.
    pub row_cost: [&'static str; 2],
    /// Whether the traced run also builds the other index families and
    /// the 1-thread Vamana (the `build` workload's part of the ledger).
    pub probe_families: bool,
    /// Whether the traced run also measures the IVF baseline.
    pub probe_ivf: bool,
}

/// Corpus prefix for the traced run's extra builds (1 thread, families).
const PREFIX: usize = 20_000;

/// An index that can answer, and the queries the timed passes ask it.
pub struct Ready<T> {
    pub queries: PointSet<T>,
    pub index: VamanaIndex<T>,
    /// Wall seconds inside `VamanaIndex::build`.
    pub build_s: f64,
}

/// What the setup leaves besides the index: the whole query pool, its
/// ground truth, and which of its queries the seed chose.
struct Pool<T> {
    queries: PointSet<T>,
    truth: GroundTruth,
    chosen: Vec<u32>,
}

/// Data generation, ground truth and construction: everything between
/// process start and an index that can answer.
fn setup<T: BinaryElem>(spec: &Spec<T>, run: &mut Run) -> (Ready<T>, Pool<T>) {
    let tr = &mut run.tracer;
    let span = tr.begin("setup");
    let n = spec.points as u64;
    let ((data, chosen), datagen_s) = tr.time("datagen", n, || {
        sample(spec.generate, spec.points, spec.queries, run.seed)
    });
    let (truth, truth_s) = tr.time("ground_truth", data.queries.len() as u64, || {
        compute_ground_truth(&data.points, &data.queries, K, data.metric)
    });
    let Dataset {
        points,
        queries,
        metric,
        ..
    } = data;
    let (index, build_s) = tr.time("build", n, || {
        VamanaIndex::build(points, metric, &spec.vamana)
    });
    tr.end(span, n);
    if run.traced {
        run.layers.set("data.datagen_s", datagen_s);
        run.layers.set("data.ground_truth_s", truth_s);
    }
    let ready = Ready {
        queries: queries.gather(&chosen),
        index,
        build_s,
    };
    let pool = Pool {
        queries,
        truth,
        chosen,
    };
    (ready, pool)
}

/// What the alternating passes of the measured phase collected.
#[derive(Default)]
pub struct Passes {
    pub batch_qps: Vec<f64>,
    /// Single-call rate of each latency pass, loop overhead included.
    single_qps: Vec<f64>,
    /// `latency_ns[pass][query]`
    latency_ns: Vec<Vec<f64>>,
    attempted: u64,
    failed: u64,
}

impl Passes {
    /// One timed `search_batch` over the whole query set.
    pub fn batch<T: BinaryElem>(
        &mut self,
        ready: &Ready<T>,
        params: &QueryParams,
        reference: &[Answer],
        tr: &mut Tracer,
    ) {
        let nq = ready.queries.len() as u64;
        let (answers, secs) = tr.time("search_batch", nq, || {
            ready.index.search_batch(&ready.queries, params)
        });
        self.batch_qps.push(nq as f64 / secs);
        self.attempted += nq;
        self.failed += mismatches(&answers, reference);
    }

    /// One pass of single `search` calls on this thread, each timed.
    pub fn latency<T: BinaryElem>(
        &mut self,
        ready: &Ready<T>,
        params: &QueryParams,
        reference: &[Answer],
        tr: &mut Tracer,
    ) {
        let nq = ready.queries.len();
        let span = tr.begin("latency_pass");
        let pass_start = Instant::now();
        let mut ns = Vec::with_capacity(nq);
        for (q, want) in reference.iter().enumerate() {
            let t0 = Instant::now();
            let got = ready.index.search(ready.queries.point(q), params);
            let t1 = Instant::now();
            tr.record("search", t0, t1, 1);
            ns.push((t1 - t0).as_nanos() as f64);
            self.failed += u64::from(!same_answer(&got, want));
        }
        self.single_qps
            .push(nq as f64 / pass_start.elapsed().as_secs_f64());
        tr.end(span, nq as u64);
        self.attempted += nq as u64;
        self.latency_ns.push(ns);
    }

    /// Each query's median over the passes, in microseconds.
    fn per_query_us(&self) -> Vec<f64> {
        let nq = self.latency_ns[0].len();
        (0..nq)
            .map(|q| {
                let samples: Vec<f64> = self.latency_ns.iter().map(|pass| pass[q]).collect();
                median(&samples) / 1e3
            })
            .collect()
    }
}

fn mismatches(answers: &[Answer], reference: &[Answer]) -> u64 {
    assert_eq!(answers.len(), reference.len());
    let differing = answers
        .iter()
        .zip(reference)
        .filter(|(a, b)| !same_answer(a, b));
    differing.count() as u64
}

pub fn run<T: BinaryElem>(spec: &Spec<T>, run: &mut Run) -> Outcome {
    let mut violations = Vec::new();
    let (ready, pool) = setup(spec, run);
    let setup_s = run.started.elapsed().as_secs_f64();

    let params = query_params(spec.beam);
    // Untimed warm-up pass over the whole pool: recall is scored on it,
    // and its answers to the chosen queries are the reference every timed
    // answer must equal bit for bit, counters included.
    let pool_answers = ready.index.search_batch(&pool.queries, &params);
    let recall_at_10 = recall(&pool.truth, &pool_answers);
    if recall_at_10 < spec.recall_floor {
        violations.push("recall is below the workload's floor");
    }
    let reference = pick(&pool_answers, &pool.chosen);
    drop(pool_answers);

    // A traced run spends half its time here and the rest on the ledger.
    let seconds = run.seconds / if run.traced { 2.0 } else { 1.0 };
    let phase = run.tracer.begin("measure");
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut build_s = ready.build_s;
    if spec.rebuild {
        let points = ready.index.points().clone();
        let (again, secs) = run.tracer.time("build", spec.points as u64, || {
            VamanaIndex::build(points, ready.index.metric, &spec.vamana)
        });
        build_s = build_s.min(secs);
        if again.graph.fingerprint() != ready.index.graph.fingerprint() {
            violations.push("the rebuilt graph differs from the first");
        }
    }
    // Rounds of batch, latency, batch: the passes alternate so that each
    // estimator samples the whole period. A traced run leaves every other
    // round unrecorded, to price the recording itself, and makes at least
    // two rounds of each kind.
    let mut passes = [Passes::default(), Passes::default()];
    let least = if run.traced { 12 } else { 3 };
    let mut step = 0;
    while step < least || Instant::now() < deadline {
        let unrecorded = run.traced && (step / 3) % 2 == 1;
        run.tracer.set_enabled(run.traced && !unrecorded);
        let p = &mut passes[usize::from(unrecorded)];
        if step % 3 == 1 {
            p.latency(&ready, &params, &reference, &mut run.tracer);
        } else {
            p.batch(&ready, &params, &reference, &mut run.tracer);
        }
        step += 1;
    }
    run.tracer.set_enabled(run.traced);
    run.tracer.end(phase, 0);
    let [recorded, unrecorded] = passes;

    let (lat_p50_us, lat_p99_us) = median_and(&recorded.per_query_us(), 0.99);
    eprintln!(
        "passes: {} builds, {} batch, {} latency ({} per-query medians behind lat_p99_us)",
        1 + usize::from(spec.rebuild),
        recorded.batch_qps.len(),
        recorded.latency_ns.len(),
        spec.queries
    );
    if run.traced {
        let passes = [&recorded, &unrecorded];
        ledger(spec, run, &ready, &params, &reference, passes);
        let loaded_differs = probe_io(run, &ready, &params, &reference);
        if loaded_differs {
            violations.push("a saved and reloaded index answers differently");
        }
    }

    Outcome {
        attempted: recorded.attempted + unrecorded.attempted,
        failed: recorded.failed + unrecorded.failed,
        violations,
        setup_s,
        build_pts_per_s: spec.points as f64 / build_s,
        qps: median(&recorded.batch_qps),
        lat_p50_us,
        lat_p99_us,
        recall_at_10,
    }
}

/// Per-query counts and costs of the engine behind `ready`, from the
/// passes already made and a few more through the other entry points.
pub fn engine_ledger<T: BinaryElem>(
    run: &mut Run,
    ready: &Ready<T>,
    params: &QueryParams,
    reference: &[Answer],
    passes: &Passes,
    row_cost: [&'static str; 2],
) {
    let (layers, tr) = (&mut run.layers, &mut run.tracer);
    let (index, queries) = (&ready.index, &ready.queries);
    let nq = queries.len();
    let stats = index.stats();
    layers.set("core.build_s", ready.build_s);
    layers.set(
        "core.build_dist_comps_per_pt",
        stats.build.dist_comps as f64 / stats.points as f64,
    );
    layers.set(
        "core.build_ns_per_dist_comp",
        ready.build_s * 1e9 / stats.build.dist_comps as f64,
    );
    layers.set("core.graph_avg_degree", stats.avg_degree());
    let dist_comps: usize = reference.iter().map(|(_, s)| s.dist_comps).sum();
    let hops: usize = reference.iter().map(|(_, s)| s.hops).sum();
    layers.set("core.dist_comps_per_query", dist_comps as f64 / nq as f64);
    layers.set("core.hops_per_query", hops as f64 / nq as f64);
    let search_ns: f64 = passes.per_query_us().iter().sum::<f64>() * 1e3;
    layers.set("core.ns_per_hop", search_ns / hops as f64);
    let row_ns = probe_rows(
        index.points(),
        index.metric,
        queries.point(0),
        row_cost,
        layers,
    );
    layers.set("core.dist_share", dist_comps as f64 * row_ns / search_ns);

    // The same engine through its entry points and at 1 and 2 threads,
    // interleaved so that a slow moment hits every variant alike.
    let mut secs: [Vec<f64>; 4] = Default::default();
    for _ in 0..3 {
        let timed = [
            tr.time("search_batch", nq as u64, || {
                std::hint::black_box(index.search_batch(queries, params));
            }),
            tr.time("tabulate_search", nq as u64, || {
                std::hint::black_box(parlay::tabulate(nq, |q| {
                    index.search(queries.point(q), params)
                }));
            }),
            tr.time("search_batch_t1", nq as u64, || {
                parlay::with_threads(1, || {
                    std::hint::black_box(index.search_batch(queries, params));
                })
            }),
            tr.time("search_batch_t2", nq as u64, || {
                parlay::with_threads(2, || {
                    std::hint::black_box(index.search_batch(queries, params));
                })
            }),
        ];
        for (variant, ((), s)) in secs.iter_mut().zip(timed) {
            variant.push(s);
        }
    }
    let [batch, single, t1, t2] = secs.map(|s| median(&s));
    layers.set("core.single_qps", nq as f64 / single);
    layers.set("core.batch_over_single", single / batch);
    layers.set("rayon.query_speedup_t2", t1 / t2);
}

fn ledger<T: BinaryElem>(
    spec: &Spec<T>,
    run: &mut Run,
    ready: &Ready<T>,
    params: &QueryParams,
    reference: &[Answer],
    [recorded, unrecorded]: [&Passes; 2],
) {
    let span = run.tracer.begin("ledger");
    let all_qps = [&recorded.batch_qps[..], &unrecorded.batch_qps[..]].concat();
    run.layers
        .set("bench.pass_qps_iqr_share", iqr_share(&all_qps));
    run.layers.set(
        "bench.trace_overhead",
        median(&unrecorded.single_qps) / median(&recorded.single_qps),
    );
    engine_ledger(run, ready, params, reference, recorded, spec.row_cost);
    let (layers, tr) = (&mut run.layers, &mut run.tracer);
    let index = &ready.index;

    if spec.probe_ivf {
        let truth = compute_ground_truth(index.points(), &ready.queries, K, index.metric);
        let ivf = IvfIndex::build(index.points().clone(), index.metric, &IvfParams::default());
        let probes = query_params(IVF_NPROBE);
        let answers = AnnIndex::search_batch(&ivf, &ready.queries, &probes);
        let secs = median_secs(3, || {
            std::hint::black_box(AnnIndex::search_batch(&ivf, &ready.queries, &probes));
        });
        layers.set("baselines.ivf_qps", ready.queries.len() as f64 / secs);
        layers.set("baselines.ivf_recall_at_10", recall(&truth, &answers));
    }

    if spec.probe_families {
        let metric = index.metric;
        let prefix = index.points().prefix(PREFIX.min(spec.points));
        let prefix_truth = compute_ground_truth(&prefix, &ready.queries, K, metric);
        let mut secs = [0.0; 2];
        for threads in [1, 2] {
            let name = ["build_t1", "build_t2"][threads - 1];
            secs[threads - 1] = tr
                .time(name, prefix.len() as u64, || {
                    parlay::with_threads(threads, || {
                        VamanaIndex::build(prefix.clone(), metric, &spec.vamana)
                    })
                })
                .1;
        }
        layers.set("rayon.build_speedup_t2", secs[0] / secs[1]);

        let mut family = |names: [&'static str; 3], build: &dyn Fn() -> Box<dyn AnnIndex<T>>| {
            let (built, secs) = tr.time(names[0], prefix.len() as u64, build);
            layers.set(names[1], prefix.len() as f64 / secs);
            let answers = built.search_batch(&ready.queries, &query_params(FAMILY_BEAM));
            layers.set(names[2], recall(&prefix_truth, &answers));
        };
        family(
            [
                "build_hnsw",
                "core.hnsw_build_pts_per_s",
                "core.hnsw_recall_at_10",
            ],
            &|| {
                Box::new(HnswIndex::build(
                    prefix.clone(),
                    metric,
                    &HnswParams::default(),
                ))
            },
        );
        family(
            [
                "build_hcnng",
                "core.hcnng_build_pts_per_s",
                "core.hcnng_recall_at_10",
            ],
            &|| {
                Box::new(HcnngIndex::build(
                    prefix.clone(),
                    metric,
                    &HcnngParams::default(),
                ))
            },
        );
        family(
            [
                "build_pynndescent",
                "core.pynndescent_build_pts_per_s",
                "core.pynndescent_recall_at_10",
            ],
            &|| {
                Box::new(PyNNDescentIndex::build(
                    prefix.clone(),
                    metric,
                    &PyNNDescentParams::default(),
                ))
            },
        );
    }
    run.tracer.end(span, 0);
}

/// Posting lists the IVF baseline probes: its one operating point.
const IVF_NPROBE: usize = 4;
/// Beam at which the sibling families' recall is read.
const FAMILY_BEAM: usize = 64;

/// Saves the index, loads it back, and says whether the loaded index
/// answers differently.
fn probe_io<T: BinaryElem>(
    run: &mut Run,
    ready: &Ready<T>,
    params: &QueryParams,
    reference: &[Answer],
) -> bool {
    let path = run.scratch_file("index.pann");
    let index = &ready.index;
    let (saved, save_s) = run
        .tracer
        .time("save_index", index.len() as u64, || index.save_index(&path));
    saved.expect("saving the index into the build directory");
    let bytes = std::fs::metadata(&path).expect("the saved index").len();
    let (loaded, load_s) = run
        .tracer
        .time("load_index", index.len() as u64, || load_index::<T>(&path));
    let loaded = loaded.expect("loading the index just saved");
    std::fs::remove_file(&path).expect("removing the saved index");
    run.layers.set("core.io_save_s", save_s);
    run.layers.set("core.io_load_s", load_s);
    run.layers
        .set("core.io_bytes_per_pt", bytes as f64 / index.len() as f64);
    mismatches(&loaded.search_batch(&ready.queries, params), reference) > 0
}
