//! # parlayann-serve — work-conserving online serving
//!
//! Turns the batch-parallel [`parlayann::AnnIndex::search_batch`] into an
//! online serving system, LANNS-style: many client threads submit
//! *single* queries into one FIFO queue; whenever a worker is idle and the
//! queue is not empty, that worker takes the oldest `min(len, max_block)`
//! requests and executes them as one `search_batch` call: one task per
//! query on the work-stealing pool, each over a scratch from the index's
//! pool. No request waits for a batch to grow; batches form only from a
//! backlog, while every worker is busy.
//!
//! The ParlayANN determinism guarantee is what makes this layer strictly
//! testable: batched search is bit-identical to per-query search at any
//! batch composition and thread count, so a served response is
//! **bit-identical to a direct `search_batch`** of the same query no
//! matter how requests happen to be coalesced under load. The stress
//! tests assert exactly that.
//!
//! Everything is pure std (threads + mutexes + condvars): no async
//! runtime is required, matching the workspace's offline-shim policy.
//!
//! ## Pieces
//!
//! * [`Coalescer`] — the FIFO queue and its block bound, free of clocks
//!   and threads (single-steppable, property-testable).
//! * [`Clock`] / [`WallClock`] / [`ManualClock`] — time sources; manual
//!   time makes queue waits and budget accounting reproducible.
//! * [`Server`] — the front-end: `submit(query, k, budget)` →
//!   [`ResponseHandle`], background workers (or the deterministic
//!   [`Server::pump`] mode), graceful draining shutdown, always-on
//!   aggregate stats ([`ServerStatsSnapshot`]).

pub mod clock;
pub mod coalescer;
pub mod server;

pub use clock::{Clock, ManualClock, WallClock};
pub use coalescer::{Coalescer, DispatchReason};
pub use server::{
    Rejected, ReloadError, Response, ResponseHandle, Server, ServerConfig, ServerStatsSnapshot,
};

#[cfg(test)]
mod tests {
    use super::*;
    use ann_data::PointSet;
    use parlayann::{QueryParams, VamanaIndex, VamanaParams};
    use std::sync::Arc;
    use std::time::Duration;

    fn tiny_index() -> Arc<VamanaIndex<f32>> {
        // A 2-D grid: exact neighbors are obvious and the build is fast.
        let rows: Vec<Vec<f32>> = (0..64)
            .map(|i| vec![(i % 8) as f32, (i / 8) as f32])
            .collect();
        let points = PointSet::from_rows(&rows);
        Arc::new(VamanaIndex::build(
            points,
            ann_data::Metric::SquaredEuclidean,
            &VamanaParams::default(),
        ))
    }

    fn config(max_block: usize) -> ServerConfig {
        ServerConfig {
            params: QueryParams {
                k: 4,
                beam: 8,
                ..QueryParams::default()
            },
            max_block,
            workers: 2,
            max_queue: 0,
            obs: None,
        }
    }

    #[test]
    fn admission_bound_sheds_over_capacity() {
        let index = tiny_index();
        let clock = Arc::new(ManualClock::new());
        let mut cfg = config(4);
        cfg.max_queue = 3;
        let server = Server::manual(index, cfg, clock.clone());
        let handles: Vec<_> = (0..3)
            .map(|i| {
                server
                    .submit(&[i as f32, 0.0], 2, Duration::from_secs(1))
                    .expect("under the bound")
            })
            .collect();
        assert_eq!(server.inflight(), 3);
        // The 4th request is shed, firmly and immediately.
        assert_eq!(
            server
                .submit(&[9.0, 9.0], 2, Duration::from_secs(1))
                .unwrap_err(),
            Rejected::Shed { inflight: 3 }
        );
        assert_eq!(server.stats().shed, 1);
        // Answering frees capacity; admission resumes.
        assert_eq!(server.pump(), 1);
        for h in &handles {
            assert!(h.try_take().is_some());
        }
        assert_eq!(server.inflight(), 0);
        let h = server
            .submit(&[1.0, 1.0], 2, Duration::ZERO)
            .expect("capacity freed");
        server.pump();
        assert!(h.try_take().is_some());
        let stats = server.stats();
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.shed, 1);
    }

    #[test]
    fn index_panic_propagates_to_waiters_instead_of_hanging() {
        struct PanickingIndex;
        impl parlayann::AnnIndex<f32> for PanickingIndex {
            fn search(
                &self,
                _query: &[f32],
                _params: &QueryParams,
            ) -> (Vec<(u32, f32)>, parlayann::SearchStats) {
                panic!("injected index failure");
            }
            fn name(&self) -> String {
                "panicking".into()
            }
        }
        let clock = Arc::new(ManualClock::new());
        let server = Server::manual(Arc::new(PanickingIndex), config(4), clock);
        let h = server.submit(&[0.0, 0.0], 1, Duration::ZERO).unwrap();
        // The batch panics inside pump's execute; the slot must be failed
        // (not left pending), so the waiter panics instead of hanging.
        server.pump();
        let taken = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.try_take()));
        assert!(taken.is_err(), "failed batch must propagate to the waiter");
        // The server itself survives and keeps refusing/accepting work.
        assert_eq!(server.pending(), 0);
    }

    #[test]
    fn batch_panic_fails_only_the_unrecoverable_request() {
        // An index where exactly one query is poisoned: the batch path
        // panics (the parallel loop propagates the row's panic batch-wide), but
        // the per-request isolation retry must answer every clean row and
        // fail only the poisoned one.
        struct PoisonIndex;
        impl parlayann::AnnIndex<f32> for PoisonIndex {
            fn search(
                &self,
                query: &[f32],
                _params: &QueryParams,
            ) -> (Vec<(u32, f32)>, parlayann::SearchStats) {
                assert!(query[0] >= 0.0, "poisoned query");
                (
                    vec![(query[0] as u32, query[1])],
                    parlayann::SearchStats::default(),
                )
            }
            fn name(&self) -> String {
                "poison".into()
            }
        }
        let clock = Arc::new(ManualClock::new());
        let server = Server::manual(Arc::new(PoisonIndex), config(4), clock);
        let good: Vec<_> = (0..3)
            .map(|i| server.submit(&[i as f32, 0.5], 1, Duration::ZERO).unwrap())
            .collect();
        let bad = server.submit(&[-1.0, 0.5], 1, Duration::ZERO).unwrap();
        assert_eq!(server.pump(), 1);
        for (i, h) in good.iter().enumerate() {
            let resp = h.try_take().expect("clean row answered");
            assert_eq!(resp.neighbors, vec![(i as u32, 0.5)]);
            assert_eq!(resp.batch_size, 4);
        }
        let taken = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| bad.try_take()));
        assert!(taken.is_err(), "poisoned row fails its own waiter");
        let stats = server.stats();
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.isolated_failures, 1);
        assert_eq!(server.inflight(), 0);
    }

    #[test]
    fn manual_pump_answers_before_the_deadline() {
        let index = tiny_index();
        let clock = Arc::new(ManualClock::new());
        let server = Server::manual(index.clone(), config(8), clock.clone());
        let h = server
            .submit(&[3.2, 4.1], 4, Duration::from_micros(100))
            .unwrap();
        // The idle worker takes the request at once, 100µs before its
        // deadline: no waiting for a batch to grow.
        assert_eq!(server.pump(), 1);
        let resp = h.try_take().expect("response after pump");
        let direct = index.search(
            &[3.2, 4.1],
            &QueryParams {
                k: 4,
                beam: 8,
                ..QueryParams::default()
            },
        );
        assert_eq!(resp.neighbors, direct.0);
        assert_eq!(resp.batch_size, 1);
        assert_eq!(resp.reason, DispatchReason::Idle);
        assert_eq!(resp.queue_ns, 0);
        assert_eq!(server.stats().deadline_batches, 0);
        // A request that waits past its budget is still answered, and its
        // batch is counted as an overrun; the clock stamps the wait exactly.
        let late = server
            .submit(&[3.2, 4.1], 4, Duration::from_micros(100))
            .unwrap();
        clock.advance(Duration::from_micros(101));
        assert_eq!(server.pump(), 1);
        assert_eq!(late.try_take().expect("answered").queue_ns, 101_000);
        let stats = server.stats();
        assert_eq!((stats.idle_batches, stats.deadline_batches), (2, 1));
    }

    #[test]
    fn manual_full_trigger_fires_without_time_passing() {
        let index = tiny_index();
        let clock = Arc::new(ManualClock::new());
        let server = Server::manual(index, config(3), clock);
        let handles: Vec<_> = (0..7)
            .map(|i| {
                server
                    .submit(&[i as f32, 0.0], 2, Duration::from_secs(1))
                    .unwrap()
            })
            .collect();
        // 7 pending, block bound 3: two full batches, then the idle
        // worker takes the remaining one without waiting on its (distant)
        // deadline.
        assert_eq!(server.pump(), 3);
        assert_eq!(server.pending(), 0);
        let ready: Vec<_> = handles.iter().map(|h| h.try_take().unwrap()).collect();
        for r in &ready[..6] {
            assert_eq!(r.batch_size, 3);
            assert_eq!(r.reason, DispatchReason::Full);
        }
        assert_eq!(ready[6].batch_size, 1);
        assert_eq!(ready[6].reason, DispatchReason::Idle);
    }

    #[test]
    fn manual_shutdown_drains_pending_exactly_once() {
        let index = tiny_index();
        let clock = Arc::new(ManualClock::new());
        let mut server = Server::manual(index, config(4), clock);
        let handles: Vec<_> = (0..5)
            .map(|i| {
                server
                    .submit(&[0.0, i as f32], 3, Duration::from_secs(10))
                    .unwrap()
            })
            .collect();
        server.shutdown();
        for h in handles {
            let r = h.try_take().expect("shutdown answers every request");
            assert_eq!(r.reason, DispatchReason::Drain);
            assert_eq!(r.neighbors.len(), 3);
        }
        assert_eq!(server.pending(), 0);
        assert_eq!(
            server.submit(&[0.0, 0.0], 1, Duration::ZERO).unwrap_err(),
            Rejected::ShuttingDown
        );
        let stats = server.stats();
        assert_eq!(stats.submitted, 5);
        assert_eq!(stats.completed, 5);
        assert_eq!(stats.drain_batches, 2); // 4 + 1
        assert_eq!(stats.max_batch, 4);
    }

    #[test]
    fn per_request_k_truncates_but_never_reorders() {
        let index = tiny_index();
        let clock = Arc::new(ManualClock::new());
        let server = Server::manual(index.clone(), config(8), clock.clone());
        let full = server.submit(&[2.0, 2.0], 4, Duration::ZERO).unwrap();
        let short = server.submit(&[2.0, 2.0], 2, Duration::ZERO).unwrap();
        let over = server.submit(&[2.0, 2.0], 100, Duration::ZERO).unwrap();
        server.pump();
        let full = full.try_take().unwrap().neighbors;
        let short = short.try_take().unwrap().neighbors;
        let over = over.try_take().unwrap().neighbors;
        assert_eq!(full.len(), 4);
        assert_eq!(short, full[..2].to_vec());
        assert_eq!(over, full); // clamped to params.k
    }

    #[test]
    fn dim_mismatch_is_rejected() {
        let index = tiny_index();
        let clock = Arc::new(ManualClock::new());
        let server = Server::manual(index, config(4), clock);
        assert_eq!(
            server
                .submit(&[1.0, 2.0, 3.0], 1, Duration::ZERO)
                .unwrap_err(),
            Rejected::DimMismatch {
                expected: 2,
                got: 3
            }
        );
    }

    #[test]
    fn reload_swaps_generation_and_results_deterministically() {
        // Two grids with different spacing: the same query gets different
        // (but individually deterministic) answers per generation.
        let index_a = tiny_index();
        let rows: Vec<Vec<f32>> = (0..64)
            .map(|i| vec![(i % 8) as f32 * 2.0, (i / 8) as f32 * 2.0])
            .collect();
        let index_b = Arc::new(VamanaIndex::build(
            PointSet::from_rows(&rows),
            ann_data::Metric::SquaredEuclidean,
            &VamanaParams::default(),
        ));
        let params = QueryParams {
            k: 4,
            beam: 8,
            ..QueryParams::default()
        };
        let clock = Arc::new(ManualClock::new());
        let server = Server::manual(index_a.clone(), config(8), clock);
        assert_eq!(server.generation(), 0);

        let h = server.submit(&[3.0, 3.0], 4, Duration::ZERO).unwrap();
        server.pump();
        let r = h.try_take().unwrap();
        assert_eq!(r.generation, 0);
        assert_eq!(r.neighbors, index_a.search(&[3.0, 3.0], &params).0);

        assert_eq!(server.reload(index_b.clone()).unwrap(), 1);
        assert_eq!(server.generation(), 1);
        let h = server.submit(&[3.0, 3.0], 4, Duration::ZERO).unwrap();
        server.pump();
        let r = h.try_take().unwrap();
        assert_eq!(r.generation, 1);
        assert_eq!(r.neighbors, index_b.search(&[3.0, 3.0], &params).0);

        // A snapshot with the wrong dimensionality is refused and the
        // served generation is untouched.
        let rows3: Vec<Vec<f32>> = (0..32).map(|i| vec![i as f32, 0.0, 1.0]).collect();
        let index_c = Arc::new(VamanaIndex::build(
            PointSet::from_rows(&rows3),
            ann_data::Metric::SquaredEuclidean,
            &VamanaParams::default(),
        ));
        assert_eq!(
            server.reload(index_c).unwrap_err(),
            ReloadError::DimMismatch {
                expected: 2,
                got: 3
            }
        );
        assert_eq!(server.generation(), 1);
    }

    #[test]
    fn threaded_server_answers_and_drains() {
        let index = tiny_index();
        let server = Server::start(index.clone(), config(4));
        let params = QueryParams {
            k: 4,
            beam: 8,
            ..QueryParams::default()
        };
        let handles: Vec<_> = (0..10)
            .map(|i| {
                let q = [i as f32 * 0.7, (i % 3) as f32];
                let h = server.submit(&q, 4, Duration::from_micros(200)).unwrap();
                (q, h)
            })
            .collect();
        for (q, h) in handles {
            let resp = h.wait();
            let direct = index.search(&q, &params);
            assert_eq!(resp.neighbors, direct.0);
            assert_eq!(resp.stats, direct.1);
        }
        let mut server = server;
        server.shutdown();
        let stats = server.stats();
        assert_eq!(stats.submitted, 10);
        assert_eq!(stats.completed, 10);
    }
}
