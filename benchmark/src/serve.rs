//! The `serve` workload: a 4-shard k-means store behind the deadline-
//! batching server. A closed loop (one client, 32 outstanding) gives the
//! capacity; an open loop at a frozen rate gives the latencies, each
//! timed from the tick at which the request was due.

use crate::ledger::{median_secs, ROW_COST_U8};
use crate::offline::{engine_ledger, Passes, Ready};
use crate::stats::{iqr_share, median, median_and, quantile};
use crate::trace::Tracer;
use crate::{pick, query_params, recall, same_neighbors, sample, Answer, Outcome, Run, K};
use ann_data::{bigann_like, compute_ground_truth, GroundTruth, Metric, PointSet};
use parlayann::{AnnIndex, VamanaIndex, VamanaParams};
use parlayann_obs::{Obs, ObsMode};
use parlayann_serve::{Rejected, ResponseHandle, Server, ServerConfig};
use parlayann_store::{merge_topk, Partitioner, ShardedIndex};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

// The frozen constants (calibration: README).
const POINTS: usize = 60_000;
const QUERIES: usize = 2_000;
const SHARDS: usize = 4;
const PARTITION_SEED: u64 = 42;
const BEAM: usize = 64;
const RECALL_FLOOR: f64 = 0.768;
/// Latency budget of every request: the coalescer dispatches a batch when
/// it is full or when its most urgent request has waited this long.
const BUDGET: Duration = Duration::from_millis(1);
/// Requests the closed-loop client keeps in flight.
const OUTSTANDING: usize = 32;
/// Share of the measured phase given to the closed loop; the open loop
/// gets the rest, 15 s of a 20 s phase, for 15 000 latency samples.
const CLOSED_SHARE: f64 = 0.25;
/// Open-loop arrival rate, requests per second: one request per tick,
/// about a fifth of the closed-loop capacity of the reference box, never
/// recomputed per run. Queueing multiplies every stall of a shared host;
/// at two fifths of capacity a noisy spell moved the median latency by 40 %.
const RATE: f64 = 1_000.0;
/// Window lengths of the open loop's latency estimators: the reported
/// `lat_p50_us` / `lat_p99_us` are medians over windows of each window's
/// median / 99th percentile. A p99 window holds 100 consecutive requests,
/// so its p99 is the second slowest of them and the metric is the typical
/// one-in-a-hundred latency over 150 windows. A stall of the host spoils
/// the few windows it falls in, not the result: with 3 s windows two sets
/// of ten runs of one commit spread by 35 % and 58 % of their median.
const P50_WINDOW_S: f64 = 0.5;
const P99_WINDOW_S: f64 = 0.1;
/// Latency limit of the traced run's rate ladder.
const SLO_US: f64 = 5_000.0;
/// Rates of the ladder, as multiples of [`RATE`], and seconds at each.
const LADDER: [f64; 5] = [0.5, 1.0, 1.5, 2.0, 3.0];
const LADDER_STEP_S: f64 = 4.0;
/// In-flight bound of the ladder's server, so that overload is shed
/// rather than queued without limit.
const LADDER_MAX_QUEUE: usize = 256;

type Store = ShardedIndex<u8>;

fn config() -> ServerConfig {
    ServerConfig {
        params: query_params(BEAM),
        ..ServerConfig::default()
    }
}

/// A started server with what checking its answers needs.
struct Stack {
    points: PointSet<u8>,
    /// The queries the seed chose: the ones the loops send.
    queries: PointSet<u8>,
    /// The whole query pool, on which recall is scored, and its truth.
    pool: PointSet<u8>,
    chosen: Vec<u32>,
    truth: GroundTruth,
    store: Arc<Store>,
    server: Server<u8>,
    /// Wall seconds inside `ShardedIndex::build_with`, partitioning included.
    build_s: f64,
    shard_build_s: f64,
}

/// Data generation, ground truth, partitioning, shard construction and
/// server start: everything between process start and a server that
/// accepts requests.
fn setup(run: &mut Run) -> Stack {
    let tr = &mut run.tracer;
    let span = tr.begin("setup");
    let n = POINTS as u64;
    let ((data, chosen), datagen_s) = tr.time("datagen", n, || {
        sample(bigann_like, POINTS, QUERIES, run.seed)
    });
    let (truth, truth_s) = tr.time("ground_truth", data.queries.len() as u64, || {
        compute_ground_truth(&data.points, &data.queries, K, data.metric)
    });
    let shard_times = RefCell::new(Vec::new());
    let build = tr.begin("build");
    let build_start = Instant::now();
    let store = build_store(&data.points, data.metric, &shard_times);
    let build_s = build_start.elapsed().as_secs_f64();
    let shard_times = shard_times.into_inner();
    for &(start, end) in &shard_times {
        tr.record("shard_build", start, end, 0);
    }
    tr.end(build, n);
    let store = Arc::new(store);
    let (server, _) = tr.time("server_start", 0, || {
        Server::start(Arc::clone(&store) as _, config())
    });
    tr.end(span, n);
    if run.traced {
        run.layers.set("data.datagen_s", datagen_s);
        run.layers.set("data.ground_truth_s", truth_s);
    }
    Stack {
        points: data.points,
        queries: data.queries.gather(&chosen),
        pool: data.queries,
        chosen,
        truth,
        store,
        server,
        build_s,
        shard_build_s: shard_times
            .iter()
            .map(|&(s, e)| (e - s).as_secs_f64())
            .sum(),
    }
}

fn build_store(
    points: &PointSet<u8>,
    metric: Metric,
    shard_times: &RefCell<Vec<(Instant, Instant)>>,
) -> Store {
    let partitioner = Partitioner::kmeans(SHARDS, PARTITION_SEED);
    ShardedIndex::build_with(points, partitioner, |_, shard_points| {
        let start = Instant::now();
        let index = VamanaIndex::build(shard_points, metric, &VamanaParams::default());
        shard_times.borrow_mut().push((start, Instant::now()));
        Arc::new(index) as Arc<dyn AnnIndex<u8> + Send + Sync>
    })
}

/// What one load phase counted.
#[derive(Default)]
struct Tally {
    attempted: u64,
    /// Refused at submit, or answered differently from the direct search.
    failed: u64,
    shed: u64,
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.shed += other.shed;
    }
}

/// A served answer must be the direct `search_batch` answer, complete.
fn wrong(response: &parlayann_serve::Response, want: &Answer) -> bool {
    response.degraded || !same_neighbors(&response.neighbors, &want.0)
}

/// One client keeping [`OUTSTANDING`] requests in flight for `seconds`.
/// Returns the completions per second of each full window.
fn closed_loop(
    server: &Server<u8>,
    queries: &PointSet<u8>,
    reference: &[Answer],
    seconds: f64,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Vec<f64> {
    const WINDOW_S: f64 = 0.5;
    let span = tr.begin("closed_loop");
    let mut windows = vec![0u64; ((seconds / WINDOW_S) as usize).max(1)];
    let window_s = seconds / windows.len() as f64;
    let mut inflight: VecDeque<(usize, Instant, ResponseHandle)> = VecDeque::new();
    let start = Instant::now();
    let mut next = 0;
    loop {
        while inflight.len() < OUTSTANDING && start.elapsed().as_secs_f64() < seconds {
            let q = next % queries.len();
            next += 1;
            tally.attempted += 1;
            let sent = Instant::now();
            match server.submit(queries.point(q), K, BUDGET) {
                Ok(handle) => inflight.push_back((q, sent, handle)),
                // Wait for a reply before offering more to a server
                // that refuses.
                Err(_) => {
                    tally.failed += 1;
                    break;
                }
            }
        }
        let Some((q, sent, handle)) = inflight.pop_front() else {
            break;
        };
        let response = handle.wait();
        let done = Instant::now();
        tr.record("request", sent, done, 1);
        if let Some(w) = windows.get_mut(((done - start).as_secs_f64() / window_s) as usize) {
            *w += 1;
        }
        tally.failed += u64::from(wrong(&response, &reference[q]));
    }
    tr.end(span, next as u64);
    windows.iter().map(|&c| c as f64 / window_s).collect()
}

/// One answered open-loop request.
struct Served {
    /// Seconds from the phase start at which it was due.
    due_s: f64,
    /// From the tick it was due to the reply being observed.
    latency_us: f64,
    queue_us: f64,
}

#[derive(Default)]
struct OpenLoop {
    served: Vec<Served>,
    /// How late the generator woke for each tick.
    gen_lag_us: Vec<f64>,
    tally: Tally,
}

impl OpenLoop {
    /// Median over windows `width_s` long of each window's `q` quantile of
    /// the latency: a stall of the box moves the windows it falls in, not
    /// the result.
    fn windowed_us(&self, seconds: f64, width_s: f64, q: f64) -> f64 {
        let windows = ((seconds / width_s) as usize).max(1);
        let mut by_window = vec![Vec::new(); windows];
        for s in &self.served {
            if let Some(w) = by_window.get_mut((s.due_s * windows as f64 / seconds) as usize) {
                w.push(s.latency_us);
            }
        }
        let per_window: Vec<f64> = by_window
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| median_and(w, q).1)
            .collect();
        median(&per_window)
    }

    /// 99th-percentile latency over all requests, a shed one missing any
    /// limit, and the share that missed `limit_us`.
    fn tail(&self, limit_us: f64) -> (f64, f64) {
        let mut all: Vec<f64> = self.served.iter().map(|s| s.latency_us).collect();
        all.resize(self.tally.attempted as usize, f64::INFINITY);
        all.sort_by(f64::total_cmp);
        let missed = all.iter().filter(|&&l| l > limit_us).count();
        (quantile(&all, 0.99), missed as f64 / all.len() as f64)
    }
}

/// `rate` requests per second for `seconds`, submitted by a generator
/// thread on 1 ms ticks whatever the server does; this thread collects
/// the replies in order.
fn open_loop(
    server: &Server<u8>,
    queries: &PointSet<u8>,
    reference: &[Answer],
    rate: f64,
    seconds: f64,
    tr: &mut Tracer,
) -> OpenLoop {
    const TICK: Duration = Duration::from_millis(1);
    let span = tr.begin("open_loop");
    let mut out = OpenLoop::default();
    let (tx, rx) = mpsc::channel::<(usize, Instant, Instant, Result<ResponseHandle, Rejected>)>();
    let start = Instant::now();
    out.gen_lag_us = std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let ticks = (seconds * 1e3) as u32;
            let mut lag_us = Vec::with_capacity(ticks as usize);
            let (mut owed, mut next) = (0.0, 0);
            for tick in 0..ticks {
                let due = start + TICK * tick;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                lag_us.push(due.elapsed().as_secs_f64() * 1e6);
                owed += rate * TICK.as_secs_f64();
                while owed >= 1.0 {
                    owed -= 1.0;
                    let q = next % queries.len();
                    next += 1;
                    let sent = Instant::now();
                    let handle = server.submit(queries.point(q), K, BUDGET);
                    if tx.send((q, due, sent, handle)).is_err() {
                        return lag_us;
                    }
                }
            }
            lag_us
        });
        for (q, due, sent, handle) in rx {
            out.tally.attempted += 1;
            let response = match handle {
                Ok(handle) => handle.wait(),
                Err(rejected) => {
                    out.tally.failed += 1;
                    out.tally.shed += u64::from(matches!(rejected, Rejected::Shed { .. }));
                    continue;
                }
            };
            let done = Instant::now();
            let dispatched = sent + Duration::from_nanos(response.queue_ns);
            let request = tr.begin_at("request", due);
            tr.record("queue", sent, dispatched, 1);
            tr.record("service", dispatched, done, response.batch_size as u64);
            tr.end_at(request, done, 1);
            out.tally.failed += u64::from(wrong(&response, &reference[q]));
            out.served.push(Served {
                due_s: (due - start).as_secs_f64(),
                latency_us: (done - due).as_secs_f64() * 1e6,
                queue_us: response.queue_ns as f64 / 1e3,
            });
        }
        generator.join().expect("the load generator panicked")
    });
    tr.end(span, out.tally.attempted);
    out
}

pub fn run(run: &mut Run) -> Outcome {
    let mut violations = Vec::new();
    let cfg = config();
    eprintln!(
        "server: beam={} k={} max_block={} workers={} max_queue={} budget_us={} rate={RATE}/s outstanding={OUTSTANDING}",
        cfg.params.beam,
        cfg.params.k,
        cfg.max_block,
        cfg.workers,
        cfg.max_queue,
        BUDGET.as_micros()
    );

    let mut stack = setup(run);
    let setup_s = run.started.elapsed().as_secs_f64();

    // Direct search of the whole pool: recall is scored on it, and its
    // answers to the chosen queries are what every served answer must
    // equal bit for bit.
    let params = query_params(BEAM);
    let pool_answers = stack.store.search_batch(&stack.pool, &params);
    let recall_at_10 = recall(&stack.truth, &pool_answers);
    if recall_at_10 < RECALL_FLOOR {
        violations.push("recall is below the workload's floor");
    }
    let reference = pick(&pool_answers, &stack.chosen);
    drop(pool_answers);

    // A traced run spends half its time here and the rest on the ledger;
    // it runs the closed loop twice, once unrecorded, to price recording.
    let seconds = run.seconds / if run.traced { 2.0 } else { 1.0 };
    let closed_s = seconds * CLOSED_SHARE;
    let open_s = seconds - closed_s;
    let mut tally = Tally::default();
    let (server, queries) = (&stack.server, &stack.queries);
    let phase = run.tracer.begin("measure");
    let tr = &mut run.tracer;
    let closed = if run.traced {
        tr.set_enabled(false);
        let plain = closed_loop(server, queries, &reference, closed_s / 2.0, tr, &mut tally);
        tr.set_enabled(true);
        let recorded = closed_loop(server, queries, &reference, closed_s / 2.0, tr, &mut tally);
        run.layers
            .set("bench.trace_overhead", median(&plain) / median(&recorded));
        [plain, recorded].concat()
    } else {
        closed_loop(server, queries, &reference, closed_s, tr, &mut tally)
    };
    let before = server.stats();
    let open = open_loop(server, queries, &reference, RATE, open_s, tr);
    let after = server.stats();
    let traces = server.recent_traces();
    tr.end(phase, 0);
    tally.add(&open.tally);

    let qps = median(&closed);
    let lat_p50_us = open.windowed_us(open_s, P50_WINDOW_S, 0.5);
    let lat_p99_us = open.windowed_us(open_s, P99_WINDOW_S, 0.99);
    let lat_p99_all_us = open.windowed_us(open_s, open_s, 0.99);
    eprintln!(
        "samples: {} closed-loop windows, {} open-loop requests ({} per lat_p99_us window), p99 over all of them {lat_p99_all_us:.0} us",
        closed.len(),
        open.served.len(),
        (RATE * P99_WINDOW_S) as usize
    );

    if run.traced {
        let layers = &mut run.layers;
        layers.set("bench.pass_qps_iqr_share", iqr_share(&closed));
        let mut lag = open.gen_lag_us.clone();
        lag.sort_by(f64::total_cmp);
        layers.set("bench.gen_lag_p99_us", quantile(&lag, 0.99));
        let queue: Vec<f64> = open.served.iter().map(|s| s.queue_us).collect();
        let (queue_p50, queue_p99) = median_and(&queue, 0.99);
        layers.set("serve.lat_p99_all_us", lat_p99_all_us);
        layers.set("serve.queue_wait_p50_us", queue_p50);
        layers.set("serve.queue_wait_p99_us", queue_p99);
        let batches = (after.batches - before.batches) as f64;
        layers.set(
            "serve.batch_size_mean",
            (after.completed - before.completed) as f64 / batches,
        );
        layers.set(
            "serve.deadline_batch_share",
            (after.deadline_batches - before.deadline_batches) as f64 / batches,
        );
        // Where a served request's time went, from the server's own spans
        // of the open loop's last requests.
        let total: u64 = traces.iter().map(|t| t.total_ns).sum();
        let share = |span: fn(&parlayann_obs::Trace) -> u64| {
            traces.iter().map(span).sum::<u64>() as f64 / total as f64
        };
        layers.set("serve.queue_share", share(|t| t.queue_ns));
        layers.set("serve.assemble_share", share(|t| t.assemble_ns));
        layers.set(
            "serve.search_share",
            share(|t| t.search_ns.saturating_sub(t.merge_ns)),
        );
        layers.set("serve.merge_share", share(|t| t.merge_ns));
        layers.set("serve.reply_share", share(|t| t.reply_ns));
    }
    stack.server.shutdown();
    if run.traced {
        ledger(run, &stack, &reference, qps, &mut tally);
    }

    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        violations,
        setup_s,
        build_pts_per_s: POINTS as f64 / stack.build_s,
        qps,
        lat_p50_us,
        lat_p99_us,
        recall_at_10,
    }
}

/// The store's and the server's parts of the ledger, measured by calling
/// their pieces one at a time on the index the workload served.
fn ledger(run: &mut Run, stack: &Stack, reference: &[Answer], served_qps: f64, tally: &mut Tally) {
    let span = run.tracer.begin("ledger");
    let (layers, tr) = (&mut run.layers, &mut run.tracer);
    let (store, queries) = (&stack.store, &stack.queries);
    let (nq, params) = (queries.len(), query_params(BEAM));

    let partitioner = Partitioner::kmeans(SHARDS, PARTITION_SEED);
    let (_, partition_s) = tr.time("partition", POINTS as u64, || {
        std::hint::black_box(partitioner.assign_with_model(&stack.points));
    });
    layers.set("store.partition_s", partition_s);
    layers.set("store.shard_build_s", stack.shard_build_s);
    let sizes: Vec<usize> = store.shards().iter().map(|s| s.globals.len()).collect();
    let largest = *sizes.iter().max().expect("a store has shards") as f64;
    layers.set(
        "store.shard_imbalance",
        largest * sizes.len() as f64 / POINTS as f64,
    );

    // Fan-out = the shards' own searches + merge + the store's glue.
    let fanout_s = median_secs(3, || {
        std::hint::black_box(store.search_batch(queries, &params));
    });
    let mut shard_s = 0.0;
    let mut lists = Vec::new();
    for shard in store.shards() {
        let mut answers = Vec::new();
        shard_s += median_secs(3, || answers = shard.index.search_batch(queries, &params));
        lists.push(answers);
    }
    let merge_s = median_secs(3, || {
        for q in 0..nq {
            let heads: Vec<&[(u32, f32)]> = lists.iter().map(|l| &l[q].0[..]).collect();
            std::hint::black_box(merge_topk(&heads, K));
        }
    });
    let codebook = store.codebook().expect("a k-means store has a codebook");
    let route_s = median_secs(3, || {
        for q in 0..nq {
            std::hint::black_box(codebook.route(queries.point(q), 2));
        }
    });
    layers.set("store.fanout_us_per_query", fanout_s * 1e6 / nq as f64);
    layers.set("store.shard_search_us_per_query", shard_s * 1e6 / nq as f64);
    layers.set("store.merge_ns_per_query", merge_s * 1e9 / nq as f64);
    layers.set("store.overhead_share", (fanout_s - shard_s) / fanout_s);
    layers.set("store.route_ns_per_query", route_s * 1e9 / nq as f64);
    layers.set(
        "serve.direct_over_served",
        nq as f64 / fanout_s / served_qps,
    );

    // One Vamana graph over the whole corpus: what sharding is compared
    // with, and the index behind this workload's `core.*` rows.
    let metric = Metric::SquaredEuclidean;
    let (index, build_s) = tr.time("build_mono", POINTS as u64, || {
        VamanaIndex::build(stack.points.clone(), metric, &VamanaParams::default())
    });
    let mono = Ready {
        queries: queries.clone(),
        index,
        build_s,
    };
    let mono_reference = mono.index.search_batch(queries, &params);
    let mut passes = Passes::default();
    passes.batch(&mono, &params, &mono_reference, tr);
    passes.latency(&mono, &params, &mono_reference, tr);
    passes.batch(&mono, &params, &mono_reference, tr);
    layers.set(
        "store.qps_over_mono",
        nq as f64 / fanout_s / median(&passes.batch_qps),
    );
    engine_ledger(run, &mono, &params, &mono_reference, &passes, ROW_COST_U8);
    let (layers, tr) = (&mut run.layers, &mut run.tracer);

    // Capacity with the server's telemetry on and off, interleaved.
    let index = || Arc::clone(store) as Arc<dyn AnnIndex<u8> + Send + Sync>;
    let mut qps = [Vec::new(), Vec::new()];
    for _ in 0..2 {
        for (mode, windows) in [ObsMode::On, ObsMode::Off].into_iter().zip(&mut qps) {
            let mut server = Server::start(
                index(),
                ServerConfig {
                    obs: Some(Arc::new(Obs::new(mode))),
                    ..config()
                },
            );
            windows.extend(closed_loop(&server, queries, reference, 0.75, tr, tally));
            server.shutdown();
        }
    }
    layers.set("obs.on_over_off_qps", median(&qps[0]) / median(&qps[1]));

    // Capacity view of the tail: an open loop at each of five fixed rates,
    // lowest first, against a warmed server that sheds past its in-flight
    // bound. A backlog that grows pushes latency past the limit within
    // the step, so the tail condition covers it. The ladder stops at the
    // first rate that breaks the limit; the shed and missed shares are
    // those of the highest rate that met it (of the lowest, if none did).
    let mut server = Server::start(
        index(),
        ServerConfig {
            max_queue: LADDER_MAX_QUEUE,
            ..config()
        },
    );
    // One unscored second at the frozen rate warms the server.
    open_loop(&server, queries, reference, RATE, 1.0, tr);
    let mut meets = 0.0;
    for step in LADDER {
        let rate = RATE * step;
        let load = open_loop(&server, queries, reference, rate, LADDER_STEP_S, tr);
        let (p99, missed) = load.tail(SLO_US);
        let shed = load.tally.shed as f64 / load.tally.attempted as f64;
        eprintln!("ladder: {rate:>6.0}/s p99 {p99:>8.0} us, missed {missed:.4}, shed {shed:.4}");
        // Sheds past capacity are the ladder's point, not failures.
        tally.attempted += load.tally.attempted;
        tally.failed += load.tally.failed - load.tally.shed;
        let met = p99 <= SLO_US;
        if met || meets == 0.0 {
            layers.set("serve.shed_share", shed);
            layers.set("serve.slo_miss_share", missed);
        }
        if !met {
            break;
        }
        meets = rate;
    }
    server.shutdown();
    layers.set("serve.max_rate_meeting_slo", meets);
    run.tracer.end(span, 0);
}
