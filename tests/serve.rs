//! Serving concurrency stress: many client threads hammering one
//! [`Server`] must each get back exactly the bits a direct
//! `search_batch` produces — no lost, duplicated, or misrouted
//! responses, regardless of how requests interleave and coalesce.
//!
//! ParlayANN's determinism guarantee is what makes this assertable: the
//! engine's batched search is bit-identical to per-query search at any
//! block size and thread count, so whatever batches the server happens
//! to form under racing clients, response `i` must equal reference row
//! `i` bit for bit. CI's `thread-matrix` job runs this file at
//! `PARLAY_NUM_THREADS=1` and `=8`.

use parlayann_suite::core::{AnnIndex, QueryParams, VamanaIndex, VamanaParams};
use parlayann_suite::data::bigann_like;
use parlayann_suite::serve::{Response, ResponseHandle, Server, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 8;
const QUERIES_PER_CLIENT: usize = 1_000;

#[test]
fn eight_clients_get_bit_identical_responses() {
    let data = bigann_like(900, 250, 4242);
    let params = QueryParams {
        k: 10,
        beam: 32,
        ..QueryParams::default()
    };
    let index = Arc::new(VamanaIndex::build(
        data.points.clone(),
        data.metric,
        &VamanaParams::default(),
    ));

    // Reference: the whole query set through the engine's batch path
    // (itself proven bit-identical to per-query search).
    let reference = index.search_batch(&data.queries, &params);

    let server = Arc::new(Server::start(
        index,
        ServerConfig {
            params,
            max_block: 16,
            workers: 2,
            max_queue: 0,
            obs: None,
        },
    ));

    // 8 clients × 1k requests each, every client walking the query set
    // from a different offset so in-flight mixes differ constantly.
    let nq = data.queries.len();
    let errors: Vec<String> = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for client in 0..CLIENTS {
            let server = Arc::clone(&server);
            let queries = &data.queries;
            let reference = &reference;
            joins.push(scope.spawn(move || {
                let mut errors = Vec::new();
                // Submit in waves so many requests are in flight at once.
                const WAVE: usize = 50;
                let mut sent = 0;
                while sent < QUERIES_PER_CLIENT {
                    let wave: Vec<(usize, _)> = (sent..(sent + WAVE).min(QUERIES_PER_CLIENT))
                        .map(|i| {
                            let q = (client * 31 + i * 7) % nq;
                            let handle = server
                                .submit(queries.point(q), 10, Duration::from_micros(200))
                                .expect("submit while running");
                            (q, handle)
                        })
                        .collect();
                    sent += wave.len();
                    for (q, handle) in wave {
                        let resp = handle.wait();
                        let (want, want_stats) = &reference[q];
                        if resp.neighbors.len() != want.len()
                            || resp
                                .neighbors
                                .iter()
                                .zip(want)
                                .any(|(a, b)| a.0 != b.0 || a.1.to_bits() != b.1.to_bits())
                        {
                            errors.push(format!(
                                "client {client}: query {q} diverged: {:?} != {:?}",
                                resp.neighbors, want
                            ));
                        }
                        if resp.stats != *want_stats {
                            errors.push(format!(
                                "client {client}: query {q} stats diverged: {:?} != {:?}",
                                resp.stats, want_stats
                            ));
                        }
                        if resp.batch_size == 0 || resp.batch_size > 16 {
                            errors.push(format!(
                                "client {client}: batch size {} out of bounds",
                                resp.batch_size
                            ));
                        }
                    }
                }
                errors
            }));
        }
        joins.into_iter().flat_map(|j| j.join().unwrap()).collect()
    });
    assert!(
        errors.is_empty(),
        "{} divergences, first: {}",
        errors.len(),
        errors[0]
    );

    // Accounting: every request was answered exactly once (each handle
    // yielded exactly one response above), none lost or fabricated.
    let total = (CLIENTS * QUERIES_PER_CLIENT) as u64;
    let mut server = Arc::into_inner(server).expect("all clients done");
    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.submitted, total);
    assert_eq!(stats.completed, total);
    assert!(stats.batches > 0);
    assert!(stats.max_batch <= 16);
    assert_eq!(
        stats.full_batches + stats.idle_batches + stats.drain_batches,
        stats.batches
    );
}

#[test]
fn reload_under_load_answers_every_request_against_its_generation() {
    // 8 clients × 1k requests with a snapshot reload landing mid-stream:
    // generation 0 is a monolithic Vamana index, generation 1 a 4-shard
    // sharded store over the same corpus (the serve router mode). Every
    // response must (a) arrive exactly once and (b) be bit-identical to
    // the reference results of the generation stamped on it — a batch
    // executes wholly against one snapshot, whichever side of the swap
    // it lands on.
    use parlayann_suite::store::build_sharded_vamana;
    use std::sync::atomic::{AtomicU64, Ordering};

    let data = bigann_like(900, 250, 2121);
    let params = QueryParams {
        k: 10,
        beam: 32,
        ..QueryParams::default()
    };
    let gen0 = Arc::new(VamanaIndex::build(
        data.points.clone(),
        data.metric,
        &VamanaParams::default(),
    ));
    let gen1 = Arc::new(build_sharded_vamana(&data.points, data.metric, 4, 7));
    let references = [
        gen0.search_batch(&data.queries, &params),
        gen1.search_batch(&data.queries, &params),
    ];

    let server = Arc::new(Server::start(
        gen0,
        ServerConfig {
            params,
            max_block: 16,
            workers: 2,
            max_queue: 0,
            obs: None,
        },
    ));
    let completed = Arc::new(AtomicU64::new(0));

    let nq = data.queries.len();
    let (errors, gen_counts): (Vec<String>, [u64; 2]) = std::thread::scope(|scope| {
        // Reloader: waits for the stream to be well underway, then swaps.
        {
            let server = Arc::clone(&server);
            let completed = Arc::clone(&completed);
            let gen1 = Arc::clone(&gen1);
            scope.spawn(move || {
                while completed.load(Ordering::Relaxed) < 1_000 {
                    std::thread::yield_now();
                }
                assert_eq!(server.reload(gen1).expect("dims match"), 1);
            });
        }
        let mut joins = Vec::new();
        for client in 0..CLIENTS {
            let server = Arc::clone(&server);
            let completed = Arc::clone(&completed);
            let queries = &data.queries;
            let references = &references;
            joins.push(scope.spawn(move || {
                let mut errors = Vec::new();
                let mut seen = [0u64; 2];
                const WAVE: usize = 50;
                let mut sent = 0;
                while sent < QUERIES_PER_CLIENT {
                    let wave: Vec<(usize, _)> = (sent..(sent + WAVE).min(QUERIES_PER_CLIENT))
                        .map(|i| {
                            let q = (client * 37 + i * 11) % nq;
                            let handle = server
                                .submit(queries.point(q), 10, Duration::from_micros(200))
                                .expect("submit while running");
                            (q, handle)
                        })
                        .collect();
                    sent += wave.len();
                    for (q, handle) in wave {
                        let resp = handle.wait();
                        completed.fetch_add(1, Ordering::Relaxed);
                        let Some(reference) = references.get(resp.generation as usize) else {
                            errors.push(format!(
                                "client {client}: impossible generation {}",
                                resp.generation
                            ));
                            continue;
                        };
                        seen[resp.generation as usize] += 1;
                        let (want, _) = &reference[q];
                        if resp.neighbors.len() != want.len()
                            || resp
                                .neighbors
                                .iter()
                                .zip(want)
                                .any(|(a, b)| a.0 != b.0 || a.1.to_bits() != b.1.to_bits())
                        {
                            errors.push(format!(
                                "client {client}: query {q} diverged from generation {} \
                                 reference: {:?} != {:?}",
                                resp.generation, resp.neighbors, want
                            ));
                        }
                    }
                }
                (errors, seen)
            }));
        }
        let mut errors = Vec::new();
        let mut totals = [0u64; 2];
        for j in joins {
            let (e, seen) = j.join().unwrap();
            errors.extend(e);
            totals[0] += seen[0];
            totals[1] += seen[1];
        }
        (errors, totals)
    });
    assert!(
        errors.is_empty(),
        "{} divergences, first: {}",
        errors.len(),
        errors[0]
    );
    // The swap really landed mid-stream: both generations served traffic,
    // and nothing was lost or double-answered across it.
    let total = (CLIENTS * QUERIES_PER_CLIENT) as u64;
    assert_eq!(gen_counts[0] + gen_counts[1], total);
    assert!(gen_counts[0] >= 1_000, "reload fired too early");
    assert!(gen_counts[1] > 0, "reload never took effect");
    let mut server = Arc::into_inner(server).expect("all clients done");
    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.submitted, total);
    assert_eq!(stats.completed, total);
}

#[test]
fn chaos_stress_answers_or_sheds_every_request_with_degraded_bit_identity() {
    // The fault-tolerant serving tier under seeded chaos: a 4-shard store
    // where every primary panics on a seeded schedule (some calls also
    // sleep), shards 0–2 fail over to healthy replicas, and shard 3 has
    // no replica — so it really goes down and comes back through its
    // breaker's probation cycle. 8 clients × 1k requests, admission
    // control on. The contract under all of that:
    //
    //   * every submitted request is answered or explicitly shed, exactly
    //     once — no client ever hangs;
    //   * every response is **bitwise equal** to a direct merge over
    //     exactly the shards its own failed-shard mask says survived
    //     (degraded answers are partial, never wrong);
    //   * the failover/degraded/shed counters account for what happened.
    use parlayann_suite::serve::Rejected;
    use parlayann_suite::store::{
        merge_topk, BreakerConfig, FaultPlan, FaultyIndex, Partitioner, Shard, ShardedIndex,
    };

    parlayann_suite::store::silence_injected_panics();
    let data = bigann_like(900, 250, 7777);
    let metric = data.metric;
    let params = QueryParams {
        k: 10,
        beam: 32,
        ..QueryParams::default()
    };
    let vparams = VamanaParams::default();
    let healthy_store =
        ShardedIndex::build_with(&data.points, Partitioner::hash(4, 11), |_, ps| {
            Arc::new(VamanaIndex::build(ps, metric, &vparams))
                as Arc<dyn AnnIndex<u8> + Send + Sync>
        });

    // Per-shard reference rows, globalized: the building blocks for
    // reconstructing the expected bits of ANY surviving-shard subset.
    let shard_refs: Vec<Vec<Vec<(u32, f32)>>> = healthy_store
        .shards()
        .iter()
        .map(|shard| {
            shard
                .index
                .search_batch(&data.queries, &params)
                .into_iter()
                .map(|(mut res, _)| {
                    for r in res.iter_mut() {
                        r.0 = shard.globals[r.0 as usize];
                    }
                    res
                })
                .collect()
        })
        .collect();

    // Chaos topology: flaky primaries everywhere (shard 1's also sleeps
    // sometimes), healthy replicas behind shards 0–2 only.
    let healthy: Vec<Arc<dyn AnnIndex<u8> + Send + Sync>> = healthy_store
        .shards()
        .iter()
        .map(|s| Arc::clone(&s.index))
        .collect();
    let partitioner = healthy_store.partitioner();
    let dim = AnnIndex::dim(&healthy_store);
    let shards: Vec<Shard<u8>> = healthy_store
        .into_shards()
        .into_iter()
        .enumerate()
        .map(|(s, shard)| {
            let mut plan = FaultPlan::flaky(31 + s as u64, 200);
            if s == 1 {
                plan = plan.with_delay(77, 100, Duration::from_micros(300));
            }
            Shard {
                index: Arc::new(FaultyIndex::new(shard.index, plan)),
                globals: shard.globals,
            }
        })
        .collect();
    let mut store =
        ShardedIndex::from_shards(shards, partitioner, dim).with_breaker_config(BreakerConfig {
            trip_after: 2,
            probe_after: 16,
        });
    for (s, index) in healthy.into_iter().enumerate().take(3) {
        store.add_replica(s, index);
    }

    let server = Arc::new(Server::start(
        Arc::new(store),
        ServerConfig {
            params,
            max_block: 16,
            workers: 2,
            max_queue: 256,
            obs: None,
        },
    ));

    let nq = data.queries.len();
    let (errors, shed_total, degraded_total): (Vec<String>, u64, u64) =
        std::thread::scope(|scope| {
            let mut joins = Vec::new();
            for client in 0..CLIENTS {
                let server = Arc::clone(&server);
                let queries = &data.queries;
                let shard_refs = &shard_refs;
                joins.push(scope.spawn(move || {
                    let mut errors = Vec::new();
                    let mut shed = 0u64;
                    let mut degraded = 0u64;
                    const WAVE: usize = 50;
                    let mut sent = 0;
                    while sent < QUERIES_PER_CLIENT {
                        let wave: Vec<(usize, _)> = (sent..(sent + WAVE).min(QUERIES_PER_CLIENT))
                            .filter_map(|i| {
                                let q = (client * 13 + i * 17) % nq;
                                match server.submit(
                                    queries.point(q),
                                    10,
                                    Duration::from_micros(200),
                                ) {
                                    Ok(handle) => Some((q, handle)),
                                    Err(Rejected::Shed { .. }) => {
                                        // Explicitly refused at admission:
                                        // that IS this request's answer.
                                        shed += 1;
                                        None
                                    }
                                    Err(e) => panic!("unexpected rejection: {e}"),
                                }
                            })
                            .collect();
                        sent += WAVE.min(QUERIES_PER_CLIENT - sent);
                        for (q, handle) in wave {
                            let resp = handle.wait();
                            // Reconstruct the expected bits for exactly the
                            // surviving set this response reports.
                            let lists: Vec<&[(u32, f32)]> = shard_refs
                                .iter()
                                .enumerate()
                                .filter(|(s, _)| !resp.stats.failed_shards.contains(*s))
                                .map(|(_, rows)| rows[q].as_slice())
                                .collect();
                            let want = merge_topk(&lists, 10);
                            if resp.degraded == resp.stats.failed_shards.is_empty()
                                || resp.stats.probed_shards != 4 - resp.stats.failed_shards.len()
                            {
                                errors.push(format!(
                                    "client {client}: query {q}: inconsistent degradation \
                                     reporting: {resp:?}"
                                ));
                            }
                            degraded += resp.degraded as u64;
                            if resp.neighbors.len() != want.len()
                                || resp
                                    .neighbors
                                    .iter()
                                    .zip(&want)
                                    .any(|(a, b)| a.0 != b.0 || a.1.to_bits() != b.1.to_bits())
                            {
                                errors.push(format!(
                                    "client {client}: query {q} (failed {:?}) diverged from \
                                     surviving-shard ground truth: {:?} != {want:?}",
                                    resp.stats.failed_shards, resp.neighbors
                                ));
                            }
                        }
                    }
                    (errors, shed, degraded)
                }));
            }
            let mut errors = Vec::new();
            let (mut shed, mut degraded) = (0, 0);
            for j in joins {
                let (e, s, d) = j.join().unwrap();
                errors.extend(e);
                shed += s;
                degraded += d;
            }
            (errors, shed, degraded)
        });
    assert!(
        errors.is_empty(),
        "{} divergences, first: {}",
        errors.len(),
        errors[0]
    );

    // Exactly-once accounting: answered + shed = everything submitted.
    let total = (CLIENTS * QUERIES_PER_CLIENT) as u64;
    let mut server = Arc::into_inner(server).expect("all clients done");
    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.submitted + shed_total, total);
    assert_eq!(
        stats.completed, stats.submitted,
        "an accepted request was lost"
    );
    assert_eq!(stats.shed, shed_total);
    assert_eq!(stats.degraded, degraded_total);
    assert!(
        stats.failovers > 0,
        "flaky primaries with healthy replicas must have failed over"
    );
    assert!(
        degraded_total > 0,
        "shard 3 has no replica and must have gone down at least once"
    );
    assert_eq!(stats.isolated_failures, 0, "no panic may escape the store");
}

#[test]
fn shutdown_under_load_answers_every_request() {
    // Submit a burst, shut down immediately: the drain must answer every
    // accepted request (bit-identically), and late submits are refused.
    let data = bigann_like(600, 64, 99);
    let params = QueryParams {
        k: 5,
        beam: 16,
        ..QueryParams::default()
    };
    let index = Arc::new(VamanaIndex::build(
        data.points.clone(),
        data.metric,
        &VamanaParams::default(),
    ));
    let reference = index.search_batch(&data.queries, &params);
    let mut server = Server::start(
        index,
        ServerConfig {
            params,
            max_block: 8,
            workers: 2,
            max_queue: 0,
            obs: None,
        },
    );
    let handles: Vec<_> = (0..data.queries.len())
        .map(|q| {
            // A long budget: these would sit waiting if shutdown didn't drain.
            let h = server
                .submit(data.queries.point(q), 5, Duration::from_secs(60))
                .unwrap();
            (q, h)
        })
        .collect();
    server.shutdown();
    assert!(server
        .submit(data.queries.point(0), 5, Duration::ZERO)
        .is_err());
    for (q, h) in handles {
        let resp = h.wait();
        assert_eq!(resp.neighbors, reference[q].0, "query {q} diverged");
    }
    let stats = server.stats();
    assert_eq!(stats.completed, data.queries.len() as u64);
}

/// Polls `h` until its response arrives or the wall clock passes `limit`,
/// so a request nobody executes fails its test instead of hanging it.
fn take_by(h: &ResponseHandle, limit: Instant) -> Option<Response> {
    loop {
        if let Some(r) = h.try_take() {
            return Some(r);
        }
        if Instant::now() > limit {
            return None;
        }
        std::thread::sleep(Duration::from_micros(20));
    }
}

/// `budget` is an admission bound, not a delay: a lone request on an idle
/// threaded server is answered at once, not after its 10 s budget.
#[test]
fn idle_server_answers_without_waiting_out_the_budget() {
    let data = bigann_like(300, 1, 5);
    let params = QueryParams {
        k: 5,
        beam: 16,
        ..QueryParams::default()
    };
    let index = Arc::new(VamanaIndex::build(
        data.points.clone(),
        data.metric,
        &VamanaParams::default(),
    ));
    let direct = index.search(data.queries.point(0), &params);
    let mut server = Server::start(
        index,
        ServerConfig {
            params,
            max_block: 16,
            workers: 2,
            max_queue: 0,
            obs: None,
        },
    );
    let h = server
        .submit(data.queries.point(0), 5, Duration::from_secs(10))
        .unwrap();
    let resp = take_by(&h, Instant::now() + Duration::from_secs(1))
        .expect("answered within 1 s, not after waiting out the 10 s budget");
    assert_eq!(resp.neighbors, direct.0);
    assert_eq!(resp.batch_size, 1);
    server.shutdown();
    assert_eq!(server.stats().deadline_batches, 0);
}

/// No lost wake-ups: 8 closed-loop submitters against one worker with a
/// block bound of 3, so the worker empties the queue, waits, and is woken
/// again thousands of times. Every answer is polled against a wall limit,
/// so a missed notify fails the test instead of hanging it. Each request
/// is answered exactly once, bit-identical to the direct search.
#[test]
fn one_worker_never_misses_a_wakeup() {
    const SUBMITTERS: usize = 8;
    const ROUNDS: usize = 200;
    let data = bigann_like(300, 40, 17);
    let params = QueryParams {
        k: 5,
        beam: 16,
        ..QueryParams::default()
    };
    let index = Arc::new(VamanaIndex::build(
        data.points.clone(),
        data.metric,
        &VamanaParams::default(),
    ));
    let reference = index.search_batch(&data.queries, &params);
    let mut server = Server::start(
        index,
        ServerConfig {
            params,
            max_block: 3,
            workers: 1,
            max_queue: 0,
            obs: None,
        },
    );
    let limit = Instant::now() + Duration::from_secs(30);
    std::thread::scope(|scope| {
        for t in 0..SUBMITTERS {
            let (server, queries, reference) = (&server, &data.queries, &reference);
            scope.spawn(move || {
                for i in 0..ROUNDS {
                    let q = (t * 5 + i) % queries.len();
                    let h = server
                        .submit(queries.point(q), 5, Duration::ZERO)
                        .expect("submit while running");
                    let resp = take_by(&h, limit).unwrap_or_else(|| {
                        panic!("submitter {t}: request {i} never answered (lost wake-up)")
                    });
                    let bits = |r: &[(u32, f32)]| -> Vec<(u32, u32)> {
                        r.iter().map(|&(id, d)| (id, d.to_bits())).collect()
                    };
                    assert_eq!(bits(&resp.neighbors), bits(&reference[q].0), "query {q}");
                    assert!(h.try_take().is_none(), "request answered twice");
                }
            });
        }
    });
    server.shutdown();
    let stats = server.stats();
    let total = (SUBMITTERS * ROUNDS) as u64;
    assert_eq!((stats.submitted, stats.completed), (total, total));
    assert!(stats.max_batch <= 3);
}

/// A server wired to a **private** obs sink isolates its telemetry from
/// the process-wide one: counters and traces reflect exactly the traffic
/// this server saw, deterministically under the manual clock.
#[test]
fn private_obs_sink_collects_metrics_and_traces_deterministically() {
    use parlayann_suite::obs::{Obs, ObsMode};
    use parlayann_suite::serve::ManualClock;

    let data = bigann_like(400, 10, 77);
    let params = QueryParams {
        k: 5,
        beam: 16,
        ..QueryParams::default()
    };
    let index = Arc::new(VamanaIndex::build(
        data.points.clone(),
        data.metric,
        &VamanaParams::default(),
    ));
    let obs = Arc::new(Obs::new(ObsMode::On));
    let clock = Arc::new(ManualClock::new());
    let server = Server::manual(
        index,
        ServerConfig {
            params,
            max_block: 8,
            workers: 1,
            max_queue: 0,
            obs: Some(Arc::clone(&obs)),
        },
        Arc::clone(&clock),
    );
    let handles: Vec<_> = (0..3)
        .map(|q| {
            server
                .submit(data.queries.point(q), 5, Duration::from_micros(100))
                .unwrap()
        })
        .collect();
    // The pumping caller is the idle worker, arriving 100µs after the
    // submits — exactly at their deadline, which is not an overrun.
    clock.advance(Duration::from_micros(100));
    assert_eq!(server.pump(), 1);
    for h in handles {
        assert!(h.try_take().is_some());
    }
    assert_eq!(server.stats().deadline_batches, 0);

    let text = server.metrics_text();
    assert!(text.contains("parlayann_serve_requests_total 3"), "{text}");
    assert!(text.contains("parlayann_serve_completed_total 3"), "{text}");
    assert!(
        text.contains("parlayann_serve_batches_total{trigger=\"idle\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("parlayann_serve_request_ns_count 3"),
        "{text}"
    );
    assert!(
        text.contains("parlayann_serve_queue_wait_ns_count 3"),
        "{text}"
    );
    assert!(text.contains("parlayann_serve_batch_size_sum 3"), "{text}");
    assert!(text.contains("parlayann_serve_inflight 0"), "{text}");

    // Traces: one per request, batch-scoped fields shared, and the queue
    // wait is an exact function of the manual clock (100µs for all three
    // — submitted at t=0, dispatched at t=100µs).
    let traces = server.recent_traces();
    assert_eq!(traces.len(), 3);
    for t in &traces {
        assert_eq!(t.batch_size, 3);
        assert_eq!(t.reason, 1, "an idle worker took the batch");
        assert_eq!(t.queue_ns, 100_000);
        assert_eq!(t.generation, 0);
        assert!(t.dist_comps > 0, "engine stats flow into traces");
    }
    // Sequence numbers are unique and dense on a private sink.
    let mut seqs: Vec<u64> = traces.iter().map(|t| t.seq).collect();
    seqs.sort_unstable();
    assert_eq!(seqs, vec![0, 1, 2]);
}

/// Telemetry reads, never steers: two deterministic servers over one
/// sharded index — one with a private obs sink on, one with it off —
/// driven by the same submits, clock advances and pumps answer and count
/// identically through full, idle, shed and drain dispatches and budget
/// overruns, and the Off sink records nothing at all.
#[test]
fn obs_on_and_off_servers_answer_identically() {
    use parlayann_suite::obs::{Obs, ObsMode};
    use parlayann_suite::serve::{DispatchReason, ManualClock, Response};
    use parlayann_suite::store::build_sharded_vamana;

    let data = bigann_like(600, 60, 31);
    let params = QueryParams {
        k: 8,
        beam: 24,
        ..QueryParams::default()
    };
    let index = Arc::new(build_sharded_vamana(&data.points, data.metric, 2, 3));
    let clock = Arc::new(ManualClock::new());
    let server = |mode| {
        Server::manual(
            index.clone(),
            ServerConfig {
                params,
                max_block: 4,
                workers: 1,
                max_queue: 6,
                obs: Some(Arc::new(Obs::new(mode))),
            },
            Arc::clone(&clock),
        )
    };
    let mut servers = [server(ObsMode::On), server(ObsMode::Off)];
    let mut handles: [Vec<_>; 2] = Default::default();
    for q in 0..data.queries.len() {
        // Per-request k and budget vary; pumping every 7th submit with a
        // 6-request admission bound makes every dispatch path fire.
        let budget = Duration::from_micros(40 + 30 * (q % 5) as u64);
        for (server, handles) in servers.iter().zip(&mut handles) {
            handles.push(server.submit(data.queries.point(q), 1 + q % 8, budget));
            if q % 7 == 6 {
                server.pump();
            }
        }
        clock.advance(Duration::from_micros(10));
    }
    for server in &mut servers {
        server.shutdown();
    }

    let answers = handles.map(|hs| {
        hs.into_iter()
            .map(|h| h.map(|h| h.try_take().expect("answered by pump or drain")))
            .collect::<Vec<_>>()
    });
    let bits = |r: &Response| -> Vec<(u32, u32)> {
        r.neighbors
            .iter()
            .map(|&(id, d)| (id, d.to_bits()))
            .collect()
    };
    let mut reasons = Vec::new();
    for (q, (on, off)) in answers[0].iter().zip(&answers[1]).enumerate() {
        match (on, off) {
            (Ok(a), Ok(b)) => {
                assert_eq!(bits(a), bits(b), "query {q}: neighbours");
                assert_eq!(
                    (a.stats, a.batch_size, a.reason, a.queue_ns),
                    (b.stats, b.batch_size, b.reason, b.queue_ns),
                    "query {q}"
                );
                reasons.push(a.reason);
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "query {q}: rejection"),
            _ => panic!("query {q}: admitted by one server only: {on:?} vs {off:?}"),
        }
    }
    for reason in [
        DispatchReason::Full,
        DispatchReason::Idle,
        DispatchReason::Drain,
    ] {
        assert!(reasons.contains(&reason), "no {reason:?} dispatch");
    }

    let stats = servers[0].stats();
    assert_eq!(stats, servers[1].stats());
    assert!(stats.shed > 0, "the admission bound never shed");
    assert!(stats.deadline_batches > 0, "no batch overran a budget");
    assert!(!servers[0].recent_traces().is_empty());
    assert!(servers[1].metrics_text().is_empty());
    assert!(servers[1].recent_traces().is_empty());
}

/// With the process-wide sink enabled, one server's exposition spans all
/// three instrumented layers: serve histograms, store per-shard
/// latencies, and engine work counters.
#[test]
fn global_exposition_spans_serve_store_and_engine() {
    use parlayann_suite::store::{Partitioner, ShardedIndex};

    if !parlayann_suite::obs::global().enabled() {
        return; // PARLAYANN_OBS=off: nothing registers, by design
    }
    let data = bigann_like(600, 20, 99);
    let params = QueryParams {
        k: 5,
        beam: 16,
        ..QueryParams::default()
    };
    let metric = data.metric;
    let vparams = VamanaParams::default();
    let store = ShardedIndex::build_with(&data.points, Partitioner::hash(2, 5), |_, ps| {
        Arc::new(VamanaIndex::build(ps, metric, &vparams)) as Arc<dyn AnnIndex<u8> + Send + Sync>
    });
    let mut server = Server::start(
        Arc::new(store),
        ServerConfig {
            params,
            max_block: 8,
            workers: 1,
            max_queue: 0,
            obs: None, // the global sink
        },
    );
    let handles: Vec<_> = (0..data.queries.len())
        .map(|q| {
            server
                .submit(data.queries.point(q), 5, Duration::from_micros(200))
                .unwrap()
        })
        .collect();
    for h in handles {
        h.wait();
    }
    server.shutdown();

    let text = server.metrics_text();
    for family in [
        "parlayann_serve_request_ns",      // serve: submit→reply latency
        "parlayann_serve_queue_wait_ns",   // serve: coalescer wait
        "parlayann_serve_batch_size",      // serve: coalescing shape
        "parlayann_store_shard_search_ns", // store: per-shard latency
        "parlayann_store_merge_ns",        // store: k-way merge
        "parlayann_engine_dist_comps",     // engine: work per query
        "parlayann_engine_hops",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family} histogram")),
            "missing histogram family {family}"
        );
    }
    assert!(text.contains("parlayann_store_probes_total"));
    assert!(!server.recent_traces().is_empty());
}
