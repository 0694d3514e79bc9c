//! `serve_qps` — latency/throughput of the deadline-batched serving
//! front-end vs offered load.
//!
//! Builds a Vamana index, wraps it in a [`parlayann_serve::Server`], and
//! drives it with open-loop client threads at several offered loads
//! (fractions of the measured closed-loop capacity). Reports latency
//! percentiles, achieved throughput, and mean batch size per load level,
//! verifies every response is **bit-identical** to direct
//! `search_batch`, and appends a machine-readable record to
//! `BENCH_serve.json` (appending, like the other `BENCH_*.json` — the perf
//! trajectory accumulates across PRs).
//!
//! Two extra load points probe the fault-tolerant tier:
//!
//! * an **overload** point at 1.5× measured capacity with admission
//!   control enabled (`max_queue` bound): the record captures the shed
//!   rate and the p99 of *accepted* requests, which should stay pinned
//!   instead of growing with the backlog;
//! * `--chaos` switches the whole run to a sharded store whose primary
//!   replicas panic on a seeded schedule (healthy replicas absorb the
//!   failovers), measuring the failover throughput overhead and printing
//!   a `CHAOS_FINGERPRINT` that digests ids, distance bits, failover
//!   counts, and shard-health masks of a sequential direct-drive pass —
//!   a pure function of `(store, queries, params, fault seeds)` that CI
//!   diffs across `PARLAY_NUM_THREADS` settings.
//!
//! ```text
//! cargo run --release -p parlayann_bench --bin serve_qps [--chaos] [--metrics-dump] [n] [out.json]
//! ```
//!
//! Defaults: `n` = 10 000 points (or `PARLAYANN_SCALE`), output
//! `BENCH_serve.json`. `PARLAYANN_SERVE_BUDGET_US` tunes the per-request
//! latency budget (default 1000µs): smaller budgets dispatch smaller,
//! lower-latency, lower-throughput batches. The printed result
//! fingerprint depends only on `(index, queries, params)` — CI diffs it
//! across `PARLAY_NUM_THREADS` settings.
//!
//! When the observability layer is on (`PARLAYANN_OBS` unset or `on`),
//! each load point also reports **server-side** p50/p90/p99 (from the
//! serve layer's submit→reply histogram — no client-side timing noise)
//! and the mean coalescer depth; both land in the JSON record.
//! `--metrics-dump` prints the full Prometheus-style exposition after
//! the run.

use ann_data::bigann_like;
use parlayann::{AnnIndex, QueryParams, SearchStats, VamanaIndex, VamanaParams};
use parlayann_obs::{Histogram, HistogramSnapshot};
use parlayann_serve::{metric_names, Rejected, Server, ServerConfig};
use parlayann_store::{BreakerConfig, FaultPlan, FaultyIndex, Partitioner, Shard, ShardedIndex};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Order-sensitive digest over every query's `(id, dist-bits)` sequence.
fn fingerprint(results: &[(Vec<(u32, f32)>, SearchStats)]) -> u64 {
    results.iter().fold(0x9e3779b97f4a7c15, |acc, (res, _)| {
        res.iter().fold(acc, |acc, &(id, d)| {
            parlay::hash64_pair(parlay::hash64_pair(acc, id as u64), d.to_bits() as u64)
        })
    })
}

/// `p`-th percentile (0..=100) of a sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct LoadResult {
    offered_qps: f64,
    achieved_qps: f64,
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    mean_batch: f64,
    deadline_share: f64,
    /// Share of submit attempts refused by admission control.
    shed_share: f64,
    /// Replica failover attempts paid by the server across the run.
    failovers: u64,
    /// Server-side submit→reply percentiles from the obs layer's
    /// `parlayann_serve_request_ns` histogram (0 when obs is off).
    srv_p50_us: f64,
    srv_p90_us: f64,
    srv_p99_us: f64,
    /// Mean coalescer depth sampled at each admit (0 when obs is off).
    mean_queue_depth: f64,
}

/// Handles into the serve layer's global-registry histograms, for
/// per-load-point interval snapshots. `None` when obs is off — the serve
/// layer registers nothing then, and neither do we.
fn obs_hists() -> Option<(Arc<Histogram>, Arc<Histogram>)> {
    let obs = parlayann_obs::global();
    if !obs.enabled() {
        return None;
    }
    let r = obs.registry();
    Some((
        r.histogram(metric_names::REQUEST_NS, &[], ""),
        r.histogram(metric_names::QUEUE_DEPTH, &[], ""),
    ))
}

/// Quantiles/mean over the interval between two snapshots of the shared
/// (process-lifetime) histograms: `now - before` isolates this load
/// point's samples even though every load point shares the registry.
fn interval_stats(
    hists: &Option<(Arc<Histogram>, Arc<Histogram>)>,
    before: &Option<(HistogramSnapshot, HistogramSnapshot)>,
) -> (f64, f64, f64, f64) {
    let (Some((req, depth)), Some((req0, depth0))) = (hists, before) else {
        return (0.0, 0.0, 0.0, 0.0);
    };
    let req = req.snapshot().since(req0);
    let depth = depth.snapshot().since(depth0);
    (
        req.quantile(0.50) as f64 / 1e3,
        req.quantile(0.90) as f64 / 1e3,
        req.quantile(0.99) as f64 / 1e3,
        depth.mean(),
    )
}

/// How many requests each client keeps in flight. 4 clients × 16 =
/// up to 64 outstanding requests, enough for the server's full-batch
/// trigger to fire at the default `max_block = 16` — a strictly
/// per-request closed loop would cap in-flight at the client count and
/// never exercise full batches.
const PIPELINE_DEPTH: usize = 16;

/// Admission bound for the overload point: two full batches of backlog.
/// Small enough that 4 clients × 16 pipelined requests can overrun it,
/// so the 1.5×-capacity point actually sheds instead of queueing.
const OVERLOAD_QUEUE: usize = 32;

/// Drives `clients` pipelined client threads at `offered_qps` total
/// (`f64::INFINITY` = no pacing, submit whenever the pipeline has room)
/// and collects submit→response latencies. Each client harvests finished
/// responses before every submit and only blocks when its pipeline is
/// full, so paced submits stay close to their schedule (latency
/// observation lags by at most one inter-arrival gap; a full pipeline
/// still back-pressures the offered load, which the achieved-QPS column
/// makes visible). With `max_queue > 0` the server sheds over capacity;
/// shed submits count toward the shed share, not the latency sample.
/// Returns aggregate numbers plus whether every *answered* response
/// matched the reference bits.
#[allow(clippy::too_many_arguments)]
fn run_load(
    index: &Arc<dyn AnnIndex<u8> + Send + Sync>,
    reference: &[(Vec<(u32, f32)>, SearchStats)],
    queries: &ann_data::PointSet<u8>,
    params: QueryParams,
    clients: usize,
    per_client: usize,
    offered_qps: f64,
    budget: Duration,
    max_queue: usize,
) -> (LoadResult, bool) {
    let server = Arc::new(Server::start(
        Arc::clone(index),
        ServerConfig {
            params,
            max_queue,
            ..ServerConfig::default()
        },
    ));
    let nq = queries.len();
    let interarrival = if offered_qps.is_finite() {
        Duration::from_secs_f64(clients as f64 / offered_qps)
    } else {
        Duration::ZERO
    };
    // Obs-layer interval bookends: load points share the process-wide
    // registry, so this point's server-side quantiles are diffed out of
    // before/after snapshots.
    let hists = obs_hists();
    let before = hists
        .as_ref()
        .map(|(rq, qd)| (rq.snapshot(), qd.snapshot()));
    let t0 = Instant::now();
    let (latencies, identical): (Vec<Vec<f64>>, Vec<bool>) = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..clients)
            .map(|client| {
                let server = Arc::clone(&server);
                scope.spawn(move || {
                    let mut lats = Vec::with_capacity(per_client);
                    let mut ok = true;
                    let mut inflight: std::collections::VecDeque<(
                        usize,
                        Instant,
                        parlayann_serve::ResponseHandle,
                    )> = std::collections::VecDeque::new();
                    let mut check = |q: usize, sent: Instant, resp: parlayann_serve::Response| {
                        lats.push(sent.elapsed().as_secs_f64() * 1e6);
                        let want = &reference[q].0;
                        ok &= resp.neighbors.len() == want.len()
                            && resp
                                .neighbors
                                .iter()
                                .zip(want)
                                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
                    };
                    let mut next = Instant::now();
                    for i in 0..per_client {
                        // Harvest everything already answered, then make
                        // room by blocking on the oldest if still full.
                        while let Some((q, sent, h)) = inflight.pop_front() {
                            match h.try_take() {
                                Some(resp) => check(q, sent, resp),
                                None => {
                                    inflight.push_front((q, sent, h));
                                    break;
                                }
                            }
                        }
                        if inflight.len() == PIPELINE_DEPTH {
                            let (q, sent, h) = inflight.pop_front().unwrap();
                            check(q, sent, h.wait());
                        }
                        if !interarrival.is_zero() {
                            next += interarrival;
                            if let Some(wait) = next.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                        }
                        let q = (client * 131 + i * 17) % nq;
                        let sent = Instant::now();
                        match server.submit(queries.point(q), params.k, budget) {
                            Ok(handle) => inflight.push_back((q, sent, handle)),
                            // A shed is an answered request too — answered
                            // by fast refusal. The server's shed counter
                            // is the authoritative tally.
                            Err(Rejected::Shed { .. }) => {}
                            Err(e) => panic!("submit failed: {e}"),
                        }
                    }
                    for (q, sent, h) in inflight {
                        check(q, sent, h.wait());
                    }
                    (lats, ok)
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).unzip()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let mut server = Arc::into_inner(server).expect("clients done");
    server.shutdown();
    let stats = server.stats();

    let mut lats: Vec<f64> = latencies.into_iter().flatten().collect();
    lats.sort_by(|a, b| a.total_cmp(b));
    let attempts = (clients * per_client) as f64;
    let (srv_p50_us, srv_p90_us, srv_p99_us, mean_queue_depth) = interval_stats(&hists, &before);
    (
        LoadResult {
            offered_qps,
            achieved_qps: stats.completed as f64 / elapsed,
            p50_us: percentile(&lats, 50.0),
            p90_us: percentile(&lats, 90.0),
            p99_us: percentile(&lats, 99.0),
            mean_batch: stats.mean_batch(),
            deadline_share: if stats.batches == 0 {
                0.0
            } else {
                stats.deadline_batches as f64 / stats.batches as f64
            },
            shed_share: stats.shed as f64 / attempts,
            failovers: stats.failovers,
            srv_p50_us,
            srv_p90_us,
            srv_p99_us,
            mean_queue_depth,
        },
        identical.into_iter().all(|b| b),
    )
}

fn print_table(results: &[LoadResult]) {
    println!("\n  offered      achieved     p50       p90       p99      batch  deadline%   shed%");
    for r in results {
        let offered = if r.offered_qps.is_finite() {
            format!("{:>8.0}", r.offered_qps)
        } else {
            "  closed".to_string()
        };
        println!(
            "  {offered}     {:>8.0}  {:>7.0}us {:>7.0}us {:>7.0}us   {:>5.1}   {:>5.1}%   {:>5.1}%",
            r.achieved_qps,
            r.p50_us,
            r.p90_us,
            r.p99_us,
            r.mean_batch,
            r.deadline_share * 100.0,
            r.shed_share * 100.0
        );
    }
    // Server-side view (obs layer): submit→reply latency without the
    // clients' pipelining/scheduling noise, plus mean coalescer depth.
    if results.iter().any(|r| r.srv_p99_us > 0.0) {
        println!("\n  server-side  srv_p50   srv_p90   srv_p99   qdepth");
        for r in results {
            let offered = if r.offered_qps.is_finite() {
                format!("{:>8.0}", r.offered_qps)
            } else {
                "  closed".to_string()
            };
            println!(
                "  {offered}    {:>7.0}us {:>7.0}us {:>7.0}us   {:>5.1}",
                r.srv_p50_us, r.srv_p90_us, r.srv_p99_us, r.mean_queue_depth
            );
        }
    }
}

/// Builds the chaos pair over one set of shard indexes: a clean sharded
/// store (the bit-identity reference and the healthy replicas) and a
/// chaos store whose primaries panic on a seeded per-mille schedule.
/// Both stores share the underlying per-shard index `Arc`s, so a
/// failover can never change result bits.
fn chaos_stores(
    data: &ann_data::Dataset<u8>,
    shards: usize,
) -> (ShardedIndex<u8>, ShardedIndex<u8>) {
    let metric = data.metric;
    let vparams = VamanaParams::default();
    let built = ShardedIndex::build_with(&data.points, Partitioner::hash(shards, 7), |_, ps| {
        Arc::new(VamanaIndex::build(ps, metric, &vparams)) as Arc<dyn AnnIndex<u8> + Send + Sync>
    });
    let partitioner = built.partitioner();
    let dim = AnnIndex::dim(&built);
    let parts = built.into_shards();
    let clean_arcs: Vec<_> = parts.iter().map(|s| Arc::clone(&s.index)).collect();
    let chaos_shards: Vec<Shard<u8>> = parts
        .iter()
        .enumerate()
        .map(|(s, shard)| {
            // ~15% of primary calls panic; shard 1's primary also stalls
            // 10% of calls by 200µs so failover pays a latency (not just
            // a retry) cost. Seeds are fixed: the schedule is part of the
            // fingerprinted configuration.
            let plan = FaultPlan::flaky(0xC4A0 + s as u64, 150).with_delay(
                0,
                if s == 1 { 100 } else { 0 },
                Duration::from_micros(200),
            );
            Shard {
                index: Arc::new(FaultyIndex::new(Arc::clone(&shard.index), plan))
                    as Arc<dyn AnnIndex<u8> + Send + Sync>,
                globals: shard.globals.clone(),
            }
        })
        .collect();
    let clean = ShardedIndex::from_shards(parts, partitioner, dim);
    let mut chaos = ShardedIndex::from_shards(chaos_shards, partitioner, dim).with_breaker_config(
        BreakerConfig {
            trip_after: 2,
            probe_after: 8,
        },
    );
    for (s, arc) in clean_arcs.into_iter().enumerate() {
        chaos.add_replica(s, arc);
    }
    (clean, chaos)
}

/// Sequential direct-drive digest over the chaos store: ids, distance
/// bits, per-query failover counts, and shard-health masks. Each
/// top-level search advances every replica set's call counter by exactly
/// one, and the fault schedules key off those counters — so on a fresh
/// store this is a pure function of `(store, queries, params, seeds)`,
/// independent of `PARLAY_NUM_THREADS`.
fn chaos_fingerprint(
    store: &ShardedIndex<u8>,
    queries: &ann_data::PointSet<u8>,
    params: &QueryParams,
) -> u64 {
    let mut acc: u64 = 0xc4a0_5f1d_0000_0001;
    for q in 0..queries.len() {
        let (res, stats) = AnnIndex::search(store, queries.point(q), params);
        acc = parlay::hash64_pair(acc, stats.failovers as u64);
        for &w in stats.failed_shards.words() {
            acc = parlay::hash64_pair(acc, w);
        }
        for (id, d) in res {
            acc = parlay::hash64_pair(parlay::hash64_pair(acc, id as u64), d.to_bits() as u64);
        }
    }
    acc
}

fn run_chaos(
    n: usize,
    out_path: &str,
    budget: Duration,
    budget_us: u64,
    threads: usize,
    clients: usize,
    per_client: usize,
) {
    parlayann_store::silence_injected_panics();
    println!(
        "serve_qps --chaos: sharded Vamana, flaky primaries + healthy replicas, n = {n}, \
         {clients} clients x {per_client} requests, budget {budget_us}us, {threads} worker threads"
    );
    let data = bigann_like(n, 200.min(n / 2).max(10), 42);
    let (clean, chaos) = chaos_stores(&data, 4);
    let params = QueryParams {
        beam: 64,
        ..QueryParams::default()
    };
    let reference = clean.search_batch(&data.queries, &params);
    let fp = fingerprint(&reference);
    // Digest first, on the fresh store: the fault schedule keys off call
    // counts, so the server run below must not advance them beforehand.
    let chaos_fp = chaos_fingerprint(&chaos, &data.queries, &params);

    let clean_index: Arc<dyn AnnIndex<u8> + Send + Sync> = Arc::new(clean);
    let chaos_index: Arc<dyn AnnIndex<u8> + Send + Sync> = Arc::new(chaos);
    let (base, base_ok) = run_load(
        &clean_index,
        &reference,
        &data.queries,
        params,
        clients,
        per_client,
        f64::INFINITY,
        budget,
        0,
    );
    let (faulted, faulted_ok) = run_load(
        &chaos_index,
        &reference,
        &data.queries,
        params,
        clients,
        per_client,
        f64::INFINITY,
        budget,
        0,
    );
    let identical = base_ok && faulted_ok;
    let overhead = if faulted.achieved_qps > 0.0 {
        base.achieved_qps / faulted.achieved_qps
    } else {
        f64::INFINITY
    };

    let failovers = faulted.failovers;
    let (clean_qps, chaos_qps, chaos_p99_us) =
        (base.achieved_qps, faulted.achieved_qps, faulted.p99_us);
    print_table(&[base, faulted]);
    println!(
        "\n  chaos: {failovers} failovers absorbed, {overhead:.2}x closed-loop capacity overhead"
    );
    println!(
        "  results: {} (reference fingerprint 0x{fp:016x})",
        if identical {
            "bit-identical to the clean store for every response — failover never changed bits"
        } else {
            "MISMATCH — chaos-served responses diverged from the clean store"
        }
    );

    let record = parlayann_bench::JsonRecord::new("serve_qps_chaos")
        .str("algo", "sharded-vamana")
        .uint("n", n as u64)
        .uint("queries", data.queries.len() as u64)
        .uint("threads", threads as u64)
        .uint("clients", clients as u64)
        .uint("requests_per_client", per_client as u64)
        .uint("beam", params.beam as u64)
        .uint("budget_us", budget_us)
        .float("clean_qps", clean_qps, 1)
        .float("chaos_qps", chaos_qps, 1)
        .float("failover_overhead", overhead, 3)
        .uint("failovers", failovers)
        .float("chaos_p99_us", chaos_p99_us, 1)
        .str("fingerprint", &format!("0x{fp:016x}"))
        .str("chaos_fingerprint", &format!("0x{chaos_fp:016x}"))
        .bool("identical", identical)
        .finish();
    parlayann_bench::append_record(out_path, &record).expect("failed to write bench record");
    println!("  appended record to {out_path}");
    println!("FINGERPRINT 0x{fp:016x}");
    println!("CHAOS_FINGERPRINT 0x{chaos_fp:016x}");

    if !identical {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let chaos = args.iter().any(|a| a == "--chaos");
    let metrics_dump = args.iter().any(|a| a == "--metrics-dump");
    let positional: Vec<&String> = args[1..]
        .iter()
        .filter(|a| a.as_str() != "--chaos" && a.as_str() != "--metrics-dump")
        .collect();
    let n: usize = positional
        .first()
        .and_then(|s| s.parse().ok())
        .or_else(|| {
            std::env::var("PARLAYANN_SCALE")
                .ok()
                .and_then(|s| s.parse().ok())
        })
        .unwrap_or(10_000);
    let out_path = positional
        .get(1)
        .map(|s| s.to_string())
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    let budget_us: u64 = std::env::var("PARLAYANN_SERVE_BUDGET_US")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000);
    let budget = Duration::from_micros(budget_us);
    let threads = parlay::num_threads();
    let clients = 4;
    let per_client = 500;

    if chaos {
        run_chaos(
            n, &out_path, budget, budget_us, threads, clients, per_client,
        );
        if metrics_dump {
            println!("\n=== metrics ===");
            print!("{}", parlayann_obs::global().render());
        }
        return;
    }

    println!(
        "serve_qps: Vamana serving, n = {n}, {clients} clients x {per_client} requests, \
         budget {budget_us}us, {threads} worker threads"
    );
    let data = bigann_like(n, 200.min(n / 2).max(10), 42);
    let index = Arc::new(VamanaIndex::build(
        data.points.clone(),
        data.metric,
        &VamanaParams::default(),
    ));
    let params = QueryParams {
        beam: 64,
        ..QueryParams::default()
    };
    // Reference results + fingerprint (pure function of index & queries).
    let reference = index.search_batch(&data.queries, &params);
    let fp = fingerprint(&reference);
    let serving: Arc<dyn AnnIndex<u8> + Send + Sync> = index;

    // Closed loop first to find capacity, then fractions of it.
    let (capacity, cap_ok) = run_load(
        &serving,
        &reference,
        &data.queries,
        params,
        clients,
        per_client,
        f64::INFINITY,
        budget,
        0,
    );
    let capacity_qps = capacity.achieved_qps;
    // Parsed by CI's obs-overhead gate: obs-on closed-loop capacity must
    // stay within a few percent of obs-off.
    println!("CLOSED_LOOP_QPS {capacity_qps:.1}");
    let mut results = vec![capacity];
    let mut identical = cap_ok;
    for frac in [0.8, 0.4] {
        let (r, ok) = run_load(
            &serving,
            &reference,
            &data.queries,
            params,
            clients,
            per_client,
            capacity_qps * frac,
            budget,
            0,
        );
        results.push(r);
        identical &= ok;
    }
    // Overload point: 1.5× capacity with admission control. The shed
    // column absorbs the excess; p99 here is over *accepted* requests
    // and should sit near `max_queue / throughput` instead of growing
    // with the backlog.
    let (overload, over_ok) = run_load(
        &serving,
        &reference,
        &data.queries,
        params,
        clients,
        per_client,
        capacity_qps * 1.5,
        budget,
        OVERLOAD_QUEUE,
    );
    results.push(overload);
    identical &= over_ok;

    print_table(&results);
    println!(
        "\n  results: {} (fingerprint 0x{fp:016x})",
        if identical {
            "bit-identical to direct search_batch for every response"
        } else {
            "MISMATCH — served responses diverged from direct search"
        }
    );

    let record = parlayann_bench::JsonRecord::new("serve_qps")
        .str("algo", "vamana")
        .uint("n", n as u64)
        .uint("queries", data.queries.len() as u64)
        .uint("threads", threads as u64)
        .uint("clients", clients as u64)
        .uint("requests_per_client", per_client as u64)
        .uint("beam", params.beam as u64)
        .uint("budget_us", budget_us)
        .uint("overload_max_queue", OVERLOAD_QUEUE as u64)
        .float_list(
            "offered_qps",
            results.iter().map(|r| {
                if r.offered_qps.is_finite() {
                    r.offered_qps
                } else {
                    -1.0 // closed loop
                }
            }),
            1,
        )
        .float_list("achieved_qps", results.iter().map(|r| r.achieved_qps), 1)
        .float_list("p50_us", results.iter().map(|r| r.p50_us), 1)
        .float_list("p90_us", results.iter().map(|r| r.p90_us), 1)
        .float_list("p99_us", results.iter().map(|r| r.p99_us), 1)
        .float_list("mean_batch", results.iter().map(|r| r.mean_batch), 2)
        .float_list(
            "deadline_share",
            results.iter().map(|r| r.deadline_share),
            3,
        )
        .float_list("shed_share", results.iter().map(|r| r.shed_share), 3)
        .bool("obs", parlayann_obs::global().enabled())
        .float_list("srv_p50_us", results.iter().map(|r| r.srv_p50_us), 1)
        .float_list("srv_p90_us", results.iter().map(|r| r.srv_p90_us), 1)
        .float_list("srv_p99_us", results.iter().map(|r| r.srv_p99_us), 1)
        .float_list(
            "mean_queue_depth",
            results.iter().map(|r| r.mean_queue_depth),
            2,
        )
        .str("fingerprint", &format!("0x{fp:016x}"))
        .bool("identical", identical)
        .finish();
    parlayann_bench::append_record(&out_path, &record).expect("failed to write bench record");
    println!("  appended record to {out_path}");
    println!("FINGERPRINT 0x{fp:016x}");
    if metrics_dump {
        println!("\n=== metrics ===");
        print!("{}", parlayann_obs::global().render());
    }

    if !identical {
        std::process::exit(1);
    }
}
