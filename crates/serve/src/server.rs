//! The serving front-end: worker threads around the request queue.
//!
//! ```text
//!  clients                server                         index
//!  ───────                ──────                         ─────
//!  submit(q,k,budget) ──► Coalescer (FIFO) ──► idle worker takes the oldest
//!        │                  notify_one          min(len, max_block): assemble
//!        ▼                                      PointSet, run search_batch
//!  ResponseHandle ◄──────── row i of batch → request i   (one task per query)
//!        .wait()
//! ```
//!
//! Pure std: the queue is a mutex-protected [`Coalescer`]; workers wait on
//! one condvar, and whenever a worker is idle and the queue is not empty,
//! that worker takes the next batch. Each response travels back through
//! the one-shot slot inside its [`ResponseHandle`]. Determinism inherits
//! from the index: whatever batches the workers happen to take, every
//! response is bit-identical to a direct [`AnnIndex::search_batch`] of the
//! same query — batching changes latency, never results.

use crate::clock::{Clock, ManualClock, WallClock};
use crate::coalescer::{Coalescer, DispatchReason};
use ann_data::{PointSet, VectorElem};
use parlayann::{AnnIndex, QueryParams, SearchStats};
use parlayann_obs::{Counter, Gauge, Histogram, Obs, Trace};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serve-layer histogram names.
mod metric_names {
    /// Histogram: submit → reply server-side latency per request, ns.
    pub const REQUEST_NS: &str = "parlayann_serve_request_ns";
    /// Histogram: submit → dispatch queue wait per request, ns.
    pub const QUEUE_WAIT_NS: &str = "parlayann_serve_queue_wait_ns";
    /// Histogram: batch execution wall time, ns.
    pub const BATCH_SERVICE_NS: &str = "parlayann_serve_batch_service_ns";
    /// Histogram: requests per executed batch.
    pub const BATCH_SIZE: &str = "parlayann_serve_batch_size";
    /// Histogram: queue depth sampled at each admit.
    pub const QUEUE_DEPTH: &str = "parlayann_serve_queue_depth";
    /// Histogram: budget remaining at dispatch per request, ns.
    pub const DEADLINE_SLACK_NS: &str = "parlayann_serve_deadline_slack_ns";
}

/// Serving knobs.
#[derive(Clone)]
pub struct ServerConfig {
    /// Search parameters shared by every request. A request's own `k` is
    /// clamped to `params.k` (the block runs at the server's beam/k; the
    /// response is truncated per request).
    pub params: QueryParams,
    /// The most requests one worker takes off the queue at once; 16 by
    /// default. Batches reach it only under backlog.
    pub max_block: usize,
    /// Dispatch worker threads. Each worker runs whole batches through
    /// the index's `search_batch` (which is itself parallel over the
    /// batch's queries), so a handful suffices; more workers overlap
    /// batches when one stalls on a cold cache.
    pub workers: usize,
    /// Admission bound: the most requests allowed in flight inside the
    /// server (queued **or** dispatched-but-unanswered) before
    /// [`Server::submit`] sheds with [`Rejected::Shed`]. 0 = unbounded
    /// (the default — overload is absorbed into queue depth, as before).
    ///
    /// With a bound set, overload past saturation turns into fast-fail
    /// rejections instead of unbounded tail latency: p99 of *accepted*
    /// requests stays pinned near `max_queue / throughput` while the
    /// shed rate absorbs the excess.
    pub max_queue: usize,
    /// Observability sink. `None` (the default) uses the process-wide
    /// [`parlayann_obs::global`] instance, whose mode comes from
    /// `PARLAYANN_OBS`; tests pass a private [`Obs`] for isolation.
    pub obs: Option<Arc<Obs>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            params: QueryParams::default(),
            max_block: 16,
            workers: 2,
            max_queue: 0,
            obs: None,
        }
    }
}

/// Why [`Server::submit`] refused a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rejected {
    /// [`Server::shutdown`] has begun; the queue is draining.
    ShuttingDown,
    /// The query's length does not match the index dimensionality.
    DimMismatch {
        /// Index dimensionality.
        expected: usize,
        /// Submitted query length.
        got: usize,
    },
    /// Admission control refused the request: the server is over its
    /// [`ServerConfig::max_queue`] bound, or the projected queue wait
    /// already exceeds the request's latency budget. Shedding at submit
    /// is what keeps accepted-request p99 flat past saturation; the
    /// caller may retry later or against another node.
    Shed {
        /// Requests in flight inside the server at rejection time.
        inflight: usize,
    },
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::ShuttingDown => write!(f, "server is shutting down"),
            Rejected::DimMismatch { expected, got } => {
                write!(f, "query has {got} dimensions, index has {expected}")
            }
            Rejected::Shed { inflight } => {
                write!(
                    f,
                    "request shed by admission control ({inflight} in flight)"
                )
            }
        }
    }
}

impl std::error::Error for Rejected {}

/// Why [`Server::reload`] refused a snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReloadError {
    /// The new index's dimensionality differs from the one being served
    /// — queued and future queries would be unanswerable against it.
    DimMismatch {
        /// Dimensionality currently served.
        expected: usize,
        /// Dimensionality of the rejected snapshot.
        got: usize,
    },
}

impl std::fmt::Display for ReloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReloadError::DimMismatch { expected, got } => {
                write!(f, "snapshot has {got} dimensions, server serves {expected}")
            }
        }
    }
}

impl std::error::Error for ReloadError {}

/// One answered request.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// Up to `k` `(id, distance)` pairs, closest first — bit-identical to
    /// a direct `search_batch` of the same query.
    pub neighbors: Vec<(u32, f32)>,
    /// Per-request search counters, including the shard-health fields
    /// (`routed_shards`, `probed_shards`, `failed_shards`; all zero for an
    /// unsharded index) — see [`SearchStats`].
    pub stats: SearchStats,
    /// Whether this answer is **degraded**: some shard had every replica
    /// down, so the result covers only the surviving shards (and is
    /// bit-identical to a direct search over exactly those shards —
    /// `stats.failed_shards` says which slots are missing).
    pub degraded: bool,
    /// How many requests shared this request's batch.
    pub batch_size: usize,
    /// What triggered the batch.
    pub reason: DispatchReason,
    /// Nanoseconds this request waited in the queue before dispatch.
    pub queue_ns: u64,
    /// Which index snapshot answered (0 until the first
    /// [`Server::reload`]; each reload increments it). A batch executes
    /// entirely against one generation — the one current when execution
    /// began — so all responses of a batch share this value.
    pub generation: u64,
}

/// Delivery state of one request's slot.
enum SlotState {
    Pending,
    Ready(Response),
    /// Batch execution panicked before this slot was filled; waiters
    /// propagate the failure instead of hanging.
    Failed,
}

/// The one-shot slot a response is delivered through.
struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl Slot {
    fn new() -> Self {
        Slot {
            state: Mutex::new(SlotState::Pending),
            cv: Condvar::new(),
        }
    }

    fn fill(&self, response: Response) {
        let mut g = self.state.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert!(
            matches!(*g, SlotState::Pending),
            "response slot filled twice"
        );
        *g = SlotState::Ready(response);
        self.cv.notify_all();
    }

    /// Marks the slot failed (keeping an already-delivered response).
    fn fail(&self) {
        let mut g = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if matches!(*g, SlotState::Pending) {
            *g = SlotState::Failed;
            self.cv.notify_all();
        }
    }
}

/// The client's side of one submitted request.
pub struct ResponseHandle {
    slot: Arc<Slot>,
}

impl std::fmt::Debug for ResponseHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ready = self
            .slot
            .state
            .lock()
            .map(|g| matches!(*g, SlotState::Ready(_)))
            .unwrap_or(false);
        f.debug_struct("ResponseHandle")
            .field("ready", &ready)
            .finish()
    }
}

impl ResponseHandle {
    /// Blocks until the response arrives. Every submitted request is
    /// answered — an idle worker takes the queue while the server runs,
    /// and shutdown drains it.
    ///
    /// # Panics
    ///
    /// If the executing batch panicked (an index bug): the failure is
    /// propagated to the waiter rather than hanging it forever.
    pub fn wait(self) -> Response {
        let mut g = self.slot.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match std::mem::replace(&mut *g, SlotState::Pending) {
                SlotState::Ready(r) => return r,
                SlotState::Failed => panic!("serving batch panicked; response lost"),
                SlotState::Pending => {
                    g = self.slot.cv.wait(g).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }

    /// Takes the response if it has already arrived (used with the
    /// deterministic manual mode, where [`Server::pump`] completes
    /// requests synchronously). Panics like [`wait`](Self::wait) if the
    /// executing batch failed.
    pub fn try_take(&self) -> Option<Response> {
        let mut g = self.slot.state.lock().unwrap_or_else(|e| e.into_inner());
        match std::mem::replace(&mut *g, SlotState::Pending) {
            SlotState::Ready(r) => Some(r),
            SlotState::Failed => panic!("serving batch panicked; response lost"),
            SlotState::Pending => None,
        }
    }
}

/// A queued request: the owned query plus routing/bookkeeping.
struct Pending<T> {
    query: Box<[T]>,
    k: usize,
    submit_ns: u64,
    /// `submit_ns` + budget: the batch counts as a budget overrun if it
    /// leaves later than this.
    deadline_ns: u64,
    slot: Arc<Slot>,
}

/// A dispatched batch on its way to a worker.
struct Batch<T> {
    reqs: Vec<Pending<T>>,
    reason: DispatchReason,
    dispatch_ns: u64,
}

/// Aggregate serving counters of one server (monotonic; see
/// [`ServerStatsSnapshot`]). Always on: a handful of relaxed atomic adds
/// per batch. Kept beside [`ServeMetrics`] because the registry dedups
/// series per sink, so on the shared global sink those counters are
/// process-wide, while these count this server alone.
#[derive(Default)]
struct ServerStats {
    submitted: AtomicU64,
    completed: AtomicU64,
    batches: AtomicU64,
    full_batches: AtomicU64,
    idle_batches: AtomicU64,
    drain_batches: AtomicU64,
    deadline_batches: AtomicU64,
    queue_ns_total: AtomicU64,
    max_batch: AtomicU64,
    shed: AtomicU64,
    degraded: AtomicU64,
    failovers: AtomicU64,
    isolated_failures: AtomicU64,
}

impl ServerStats {
    /// Counts one executed batch of `size` requests; `overrun` when it left
    /// with a request already past its deadline.
    fn count_batch(&self, reason: DispatchReason, size: usize, overrun: bool) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        match reason {
            DispatchReason::Full => &self.full_batches,
            DispatchReason::Idle => &self.idle_batches,
            DispatchReason::Drain => &self.drain_batches,
        }
        .fetch_add(1, Ordering::Relaxed);
        self.deadline_batches
            .fetch_add(overrun as u64, Ordering::Relaxed);
        self.max_batch.fetch_max(size as u64, Ordering::Relaxed);
    }
}

/// Point-in-time copy of the server's aggregate counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStatsSnapshot {
    /// Requests accepted by [`Server::submit`].
    pub submitted: u64,
    /// Requests answered.
    pub completed: u64,
    /// Batches executed: `full_batches + idle_batches + drain_batches`.
    pub batches: u64,
    /// Batches of a whole `max_block`, taken from a backlog.
    pub full_batches: u64,
    /// Batches a free worker took below `max_block`.
    pub idle_batches: u64,
    /// Batches dispatched while draining at shutdown.
    pub drain_batches: u64,
    /// Budget overruns: batches, of any reason, that left with a request
    /// already past its deadline (submit time + budget).
    pub deadline_batches: u64,
    /// Total nanoseconds requests spent queued before dispatch.
    pub queue_ns_total: u64,
    /// Largest batch executed.
    pub max_batch: u64,
    /// Requests refused by admission control ([`Rejected::Shed`]).
    pub shed: u64,
    /// Responses delivered degraded (some shard's every replica down).
    pub degraded: u64,
    /// Replica failover attempts paid across all batches.
    pub failovers: u64,
    /// Requests that individually failed after their batch panicked and
    /// was retried per request (each propagated its failure to exactly
    /// its own waiter).
    pub isolated_failures: u64,
}

impl ServerStatsSnapshot {
    /// Mean requests per batch (0 when no batches ran).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.completed as f64 / self.batches as f64
        }
    }

    /// Mean queue wait per completed request, in nanoseconds.
    pub fn mean_queue_ns(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.queue_ns_total as f64 / self.completed as f64
        }
    }
}

/// State under the submit-side mutex.
struct SubmitState<T> {
    coal: Coalescer<Pending<T>>,
    accepting: bool,
}

/// The served snapshot: the index plus its generation number.
/// [`Server::reload`] swaps the whole struct; a worker clones it (two
/// words under a briefly-held lock) at the start of each batch, so every
/// batch runs against exactly one generation and old generations drain
/// out via `Arc` refcounts as their last in-flight batches finish.
struct CurrentIndex<T: VectorElem> {
    index: Arc<dyn AnnIndex<T> + Send + Sync>,
    generation: u64,
}

impl<T: VectorElem> Clone for CurrentIndex<T> {
    fn clone(&self) -> Self {
        CurrentIndex {
            index: Arc::clone(&self.index),
            generation: self.generation,
        }
    }
}

/// Where this server's telemetry goes: the process-wide instance (the
/// default) or a private one injected through [`ServerConfig::obs`].
enum ObsSrc {
    Global,
    Local(Arc<Obs>),
}

impl ObsSrc {
    fn obs(&self) -> &Obs {
        match self {
            ObsSrc::Global => parlayann_obs::global(),
            ObsSrc::Local(o) => o,
        }
    }
}

/// Pre-resolved handles into the obs registry for the serve layer's
/// metric families. Resolved once at server construction so the hot path
/// pays atomic increments only — never a registry lookup. Absent
/// entirely (`None` in [`Shared::om`]) when the sink is `ObsMode::Off`,
/// so the disabled cost is one `Option` branch per site.
struct ServeMetrics {
    requests: Arc<Counter>,
    completed: Arc<Counter>,
    shed: Arc<Counter>,
    degraded: Arc<Counter>,
    failovers: Arc<Counter>,
    isolated: Arc<Counter>,
    batches_full: Arc<Counter>,
    batches_idle: Arc<Counter>,
    batches_drain: Arc<Counter>,
    inflight: Arc<Gauge>,
    queue_wait_ns: Arc<Histogram>,
    service_ns: Arc<Histogram>,
    request_ns: Arc<Histogram>,
    batch_size: Arc<Histogram>,
    queue_depth: Arc<Histogram>,
    deadline_slack_ns: Arc<Histogram>,
}

impl ServeMetrics {
    fn register(obs: &Obs) -> ServeMetrics {
        let r = obs.registry();
        let trigger = |t| {
            r.counter(
                "parlayann_serve_batches_total",
                &[("trigger", t)],
                "Batches executed, by dispatch trigger",
            )
        };
        ServeMetrics {
            requests: r.counter(
                "parlayann_serve_requests_total",
                &[],
                "Requests accepted by submit",
            ),
            completed: r.counter("parlayann_serve_completed_total", &[], "Requests answered"),
            shed: r.counter(
                "parlayann_serve_shed_total",
                &[],
                "Requests refused by admission control",
            ),
            degraded: r.counter(
                "parlayann_serve_degraded_total",
                &[],
                "Responses delivered degraded (a shard's every replica down)",
            ),
            failovers: r.counter(
                "parlayann_serve_failovers_total",
                &[],
                "Replica failover attempts paid across batches",
            ),
            isolated: r.counter(
                "parlayann_serve_isolated_failures_total",
                &[],
                "Requests that failed individually after a batch panic",
            ),
            batches_full: trigger("full"),
            batches_idle: trigger("idle"),
            batches_drain: trigger("drain"),
            inflight: r.gauge(
                "parlayann_serve_inflight",
                &[],
                "Requests inside the server (admitted, not yet answered)",
            ),
            queue_wait_ns: r.histogram(
                metric_names::QUEUE_WAIT_NS,
                &[],
                "Submit-to-dispatch queue wait per request (ns)",
            ),
            service_ns: r.histogram(
                metric_names::BATCH_SERVICE_NS,
                &[],
                "Batch execution wall time (ns)",
            ),
            request_ns: r.histogram(
                metric_names::REQUEST_NS,
                &[],
                "Server-side submit-to-reply latency per request (ns)",
            ),
            batch_size: r.histogram(metric_names::BATCH_SIZE, &[], "Requests per executed batch"),
            queue_depth: r.histogram(
                metric_names::QUEUE_DEPTH,
                &[],
                "Queue depth sampled at each admit",
            ),
            deadline_slack_ns: r.histogram(
                metric_names::DEADLINE_SLACK_NS,
                &[],
                "Latency budget remaining at dispatch per request (ns)",
            ),
        }
    }

    fn batch_trigger(&self, reason: DispatchReason) -> &Counter {
        match reason {
            DispatchReason::Full => &self.batches_full,
            DispatchReason::Idle => &self.batches_idle,
            DispatchReason::Drain => &self.batches_drain,
        }
    }
}

/// Everything the submit path and the workers share.
struct Shared<T: VectorElem> {
    index: Mutex<CurrentIndex<T>>,
    params: QueryParams,
    /// Index dimensionality; 0 until learned from the first submit (for
    /// index types whose `stats()` does not report it).
    dim: AtomicUsize,
    clock: Arc<dyn Clock>,
    stats: ServerStats,
    state: Mutex<SubmitState<T>>,
    /// Idle workers wait here: `submit` wakes one, `shutdown` all.
    cv: Condvar,
    /// Admission bound ([`ServerConfig::max_queue`]; 0 = unbounded).
    max_queue: usize,
    /// Batch bound (for the projected-wait estimate).
    max_block: usize,
    /// Requests inside the server: admitted but not yet answered/failed.
    /// This — not the queue alone — is what `max_queue` bounds: requests
    /// a worker has taken still occupy the server until answered.
    inflight: AtomicUsize,
    /// EWMA batch service time in ns (0 until measured; stays 0 under a
    /// manual clock, which disables the projected-wait shed and keeps
    /// single-stepped tests deterministic).
    est_batch_ns: AtomicU64,
    /// Telemetry sink (global or per-server).
    obs_src: ObsSrc,
    /// Pre-resolved serve-layer metric handles; `None` when the sink is
    /// `ObsMode::Off` (the hot path then pays one branch per site).
    om: Option<ServeMetrics>,
}

impl<T: VectorElem> Shared<T> {
    fn lock_state(&self) -> std::sync::MutexGuard<'_, SubmitState<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The work-conserving serving front-end over one [`AnnIndex`].
///
/// Two modes:
///
/// * [`Server::start`] — production: a pool of worker threads; whenever a
///   worker is idle and the queue is not empty, it takes the oldest
///   `min(len, max_block)` requests and executes them as one batch.
///   [`ResponseHandle::wait`] blocks until the answer arrives.
/// * [`Server::manual`] — deterministic test mode: no background threads;
///   the caller plays the one idle worker, executing everything queued
///   with [`Server::pump`], synchronously on the calling thread, and owns
///   the [`ManualClock`] that stamps queue waits. Identical queue,
///   identical search path — batches become a pure function of (submits,
///   clock advances, pumps).
pub struct Server<T: VectorElem> {
    shared: Arc<Shared<T>>,
    workers: Vec<JoinHandle<()>>,
    manual: bool,
}

impl<T: VectorElem> Server<T> {
    /// Starts a production server (wall clock, background workers).
    pub fn start(index: Arc<dyn AnnIndex<T> + Send + Sync>, config: ServerConfig) -> Self {
        let shared = Self::make_shared(index, &config, Arc::new(WallClock::new()));
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("parlayann-serve-worker-{i}"))
                    .spawn(move || run_worker(&shared))
                    .expect("failed to spawn serve worker")
            })
            .collect();
        Server {
            shared,
            workers,
            manual: false,
        }
    }

    /// Starts a deterministic server: no background threads, requests are
    /// executed only by [`pump`](Self::pump), and the given manual clock
    /// stamps their queue waits.
    pub fn manual(
        index: Arc<dyn AnnIndex<T> + Send + Sync>,
        config: ServerConfig,
        clock: Arc<ManualClock>,
    ) -> Self {
        let shared = Self::make_shared(index, &config, clock);
        Server {
            shared,
            workers: Vec::new(),
            manual: true,
        }
    }

    fn make_shared(
        index: Arc<dyn AnnIndex<T> + Send + Sync>,
        config: &ServerConfig,
        clock: Arc<dyn Clock>,
    ) -> Arc<Shared<T>> {
        let dim = index.dim();
        let obs_src = match &config.obs {
            Some(o) => ObsSrc::Local(Arc::clone(o)),
            None => ObsSrc::Global,
        };
        let om = obs_src
            .obs()
            .enabled()
            .then(|| ServeMetrics::register(obs_src.obs()));
        Arc::new(Shared {
            index: Mutex::new(CurrentIndex {
                index,
                generation: 0,
            }),
            params: config.params,
            dim: AtomicUsize::new(dim),
            clock,
            stats: ServerStats::default(),
            state: Mutex::new(SubmitState {
                coal: Coalescer::new(config.max_block),
                accepting: true,
            }),
            cv: Condvar::new(),
            max_queue: config.max_queue,
            max_block: config.max_block.max(1),
            inflight: AtomicUsize::new(0),
            est_batch_ns: AtomicU64::new(0),
            obs_src,
            om,
        })
    }

    /// Submits one query with a per-request result count (clamped to the
    /// server's `params.k`) and a latency budget.
    ///
    /// The request is dispatched as soon as a worker is free; nothing waits
    /// for a batch to grow. `budget` is never a delay. It is an admission
    /// bound and an account:
    ///
    /// * with [`ServerConfig::max_queue`] set, admission control refuses
    ///   the request with [`Rejected::Shed`] when the in-flight bound is
    ///   reached, or when the measured batch service time projects a queue
    ///   wait already past `budget` (fast-fail: better to tell the caller
    ///   now than to answer hopelessly late);
    /// * a batch that leaves with a request past its deadline (its submit
    ///   time plus `budget`) counts as an overrun in
    ///   [`ServerStatsSnapshot::deadline_batches`];
    /// * the budget left at dispatch is recorded per request in the
    ///   `parlayann_serve_deadline_slack_ns` histogram.
    pub fn submit(
        &self,
        query: &[T],
        k: usize,
        budget: Duration,
    ) -> Result<ResponseHandle, Rejected> {
        let dim = self.shared.dim.load(Ordering::Relaxed);
        if dim == 0 {
            // Index didn't report a dimensionality; the first submit fixes it.
            self.shared
                .dim
                .compare_exchange(0, query.len(), Ordering::Relaxed, Ordering::Relaxed)
                .ok();
        }
        let dim = self.shared.dim.load(Ordering::Relaxed);
        if query.len() != dim {
            return Err(Rejected::DimMismatch {
                expected: dim,
                got: query.len(),
            });
        }
        // Admission: reserve an in-flight slot (firm bound — reserve then
        // undo, so racing submits can't both squeeze past the limit), and
        // fast-fail when the projected queue wait already blows `budget`.
        let inflight = self.shared.inflight.fetch_add(1, Ordering::Relaxed);
        if self.shared.max_queue > 0 {
            let over = inflight >= self.shared.max_queue || {
                let est = self.shared.est_batch_ns.load(Ordering::Relaxed);
                let batches_ahead = (inflight / self.shared.max_block) as u64;
                est > 0
                    && batches_ahead.saturating_mul(est)
                        > budget.as_nanos().min(u64::MAX as u128) as u64
            };
            if over {
                self.shared.inflight.fetch_sub(1, Ordering::Relaxed);
                self.shared.stats.shed.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = &self.shared.om {
                    m.shed.inc();
                }
                return Err(Rejected::Shed { inflight });
            }
        }
        let now = self.shared.clock.now_ns();
        let slot = Arc::new(Slot::new());
        let pending = Pending {
            query: query.into(),
            k: k.min(self.shared.params.k),
            submit_ns: now,
            deadline_ns: now.saturating_add(budget.as_nanos().min(u64::MAX as u128) as u64),
            slot: Arc::clone(&slot),
        };
        let depth = {
            let mut st = self.shared.lock_state();
            if !st.accepting {
                drop(st);
                self.shared.inflight.fetch_sub(1, Ordering::Relaxed);
                return Err(Rejected::ShuttingDown);
            }
            st.coal.push(pending);
            st.coal.len()
        };
        self.shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.shared.om {
            m.requests.inc();
            m.queue_depth.record(depth as u64);
            m.inflight
                .set(self.shared.inflight.load(Ordering::Relaxed) as i64);
        }
        // The push happened under the state lock, so a worker either saw
        // it before waiting or is waiting now and gets this wake-up.
        self.shared.cv.notify_one();
        Ok(ResponseHandle { slot })
    }

    /// Manual mode: plays the one idle worker, executing everything queued
    /// in FIFO batches of at most `max_block`, synchronously, and returns
    /// how many batches executed. (Also works on a threaded server — it
    /// simply races the workers — but its purpose is single-stepping.)
    pub fn pump(&self) -> usize {
        let mut executed = 0;
        let mut assembly = None;
        loop {
            // A statement of its own, so the state lock is released
            // before the batch executes.
            let taken = self.shared.lock_state().coal.take();
            let Some((reason, reqs)) = taken else {
                return executed;
            };
            let dispatch_ns = self.shared.clock.now_ns();
            execute_batch(
                &self.shared,
                &mut assembly,
                Batch {
                    reqs,
                    reason,
                    dispatch_ns,
                },
            );
            executed += 1;
        }
    }

    /// Number of requests currently waiting in the queue.
    pub fn pending(&self) -> usize {
        self.shared.lock_state().coal.len()
    }

    /// Swaps the served index snapshot under live traffic, returning the
    /// new generation number. The router-mode admin call: build (or
    /// load) the new snapshot off the serving path — e.g.
    /// `parlayann_store::load_manifest` — then hand it here; the swap
    /// itself is two pointer writes under a briefly-held lock.
    ///
    /// Delivery is unaffected: every accepted request is still answered
    /// exactly once. Batches already executing finish against the old
    /// generation (their responses carry its number); batches dispatched
    /// after the swap run against the new one. The old snapshot is freed
    /// when its last in-flight batch drops its `Arc`.
    ///
    /// A snapshot whose dimensionality differs from the served one is
    /// rejected (queued queries could not run against it). Indexes that
    /// report dimension 0 ("unknown") are accepted and leave the
    /// server's submit-side dim check as-is.
    pub fn reload(
        &self,
        new_index: Arc<dyn AnnIndex<T> + Send + Sync>,
    ) -> Result<u64, ReloadError> {
        let new_dim = new_index.dim();
        if new_dim != 0 {
            // Check-and-adopt must be one atomic step: a concurrent
            // submit can fix an unknown dim between a plain load and the
            // swap, which would let a mismatched snapshot through. The
            // CAS either adopts `new_dim` (dim was unknown) or returns
            // the settled value to compare against.
            match self
                .shared
                .dim
                .compare_exchange(0, new_dim, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {}
                Err(expected) if expected == new_dim => {}
                Err(expected) => {
                    return Err(ReloadError::DimMismatch {
                        expected,
                        got: new_dim,
                    });
                }
            }
        }
        let mut cur = self.shared.index.lock().unwrap_or_else(|e| e.into_inner());
        cur.index = new_index;
        cur.generation += 1;
        Ok(cur.generation)
    }

    /// The generation currently being served (0 before any reload).
    pub fn generation(&self) -> u64 {
        self.shared
            .index
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .generation
    }

    /// Snapshot of this server's aggregate serving counters.
    pub fn stats(&self) -> ServerStatsSnapshot {
        let s = &self.shared.stats;
        ServerStatsSnapshot {
            submitted: s.submitted.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            full_batches: s.full_batches.load(Ordering::Relaxed),
            idle_batches: s.idle_batches.load(Ordering::Relaxed),
            drain_batches: s.drain_batches.load(Ordering::Relaxed),
            deadline_batches: s.deadline_batches.load(Ordering::Relaxed),
            queue_ns_total: s.queue_ns_total.load(Ordering::Relaxed),
            max_batch: s.max_batch.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
            degraded: s.degraded.load(Ordering::Relaxed),
            failovers: s.failovers.load(Ordering::Relaxed),
            isolated_failures: s.isolated_failures.load(Ordering::Relaxed),
        }
    }

    /// Requests currently inside the server (admitted, not yet answered).
    pub fn inflight(&self) -> usize {
        self.shared.inflight.load(Ordering::Relaxed)
    }

    /// Prometheus-style text exposition of every metric registered with
    /// this server's observability sink — serve-layer histograms and
    /// counters plus whatever the store and engine layers registered on
    /// the same sink. Empty when the sink is `ObsMode::Off`.
    pub fn metrics_text(&self) -> String {
        self.shared.obs_src.obs().render()
    }

    /// The most recent completed request traces, newest first (capped at
    /// the trace ring's capacity; empty under `ObsMode::Off`).
    pub fn recent_traces(&self) -> Vec<Trace> {
        self.shared.obs_src.obs().recent_traces()
    }

    /// Traces whose server-side latency crossed the slow-query threshold
    /// (`PARLAYANN_SLOW_US`, default 10ms), newest first.
    pub fn slow_traces(&self) -> Vec<Trace> {
        self.shared.obs_src.obs().slow_traces()
    }

    /// Graceful shutdown: refuses new submits, drains every pending
    /// request (each is answered exactly once), and joins the background
    /// threads. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        {
            let mut st = self.shared.lock_state();
            if !st.accepting && self.workers.is_empty() && !self.manual {
                return;
            }
            st.accepting = false;
        }
        self.shared.cv.notify_all();
        if self.manual {
            let batches = self.shared.lock_state().coal.drain_all();
            let now = self.shared.clock.now_ns();
            let mut assembly = None;
            for reqs in batches {
                execute_batch(
                    &self.shared,
                    &mut assembly,
                    Batch {
                        reqs,
                        reason: DispatchReason::Drain,
                        dispatch_ns: now,
                    },
                );
            }
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl<T: VectorElem> Drop for Server<T> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A dispatch worker: whenever the queue is not empty, take the next
/// batch and execute it; otherwise wait on the condvar. Once shutdown has
/// begun, batches leave as [`DispatchReason::Drain`] and the worker exits
/// when the queue is empty. One assembly buffer is kept across batches.
fn run_worker<T: VectorElem>(shared: &Shared<T>) {
    let mut assembly = None;
    let mut st = shared.lock_state();
    loop {
        if let Some((reason, reqs)) = st.coal.take() {
            let reason = if st.accepting {
                reason
            } else {
                DispatchReason::Drain
            };
            drop(st);
            let dispatch_ns = shared.clock.now_ns();
            execute_batch(
                shared,
                &mut assembly,
                Batch {
                    reqs,
                    reason,
                    dispatch_ns,
                },
            );
            st = shared.lock_state();
        } else if !st.accepting {
            return;
        } else {
            st = shared.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Runs one batch: assemble the padded query block from the requests'
/// heterogeneous (individually-owned) vectors, execute it on the pinned
/// index, route row `i` back to request `i`, and account.
fn execute_batch<T: VectorElem>(
    shared: &Shared<T>,
    assembly: &mut Option<PointSet<T>>,
    batch: Batch<T>,
) {
    let Batch {
        reqs,
        reason,
        dispatch_ns,
    } = batch;
    if reqs.is_empty() {
        return;
    }
    let overrun = reqs.iter().any(|r| r.deadline_ns < dispatch_ns);
    let dim = reqs[0].query.len();
    match &mut *assembly {
        Some(ps) if ps.dim() == dim => ps.clear(),
        slot => *slot = Some(PointSet::with_dim(dim)),
    }
    let om = shared.om.as_ref();
    let t_assemble = om.map(|_| Instant::now());
    let queries = assembly.as_mut().expect("assembly buffer just set");
    for r in &reqs {
        queries.push_row(&r.query);
    }
    let assemble_ns = t_assemble.map_or(0, |t| t.elapsed().as_nanos() as u64);
    // Pin this batch's snapshot: one clone under a briefly-held lock.
    // The whole batch executes against it even if a reload lands
    // mid-flight, and its responses are stamped with its generation.
    let current = shared
        .index
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    let started_ns = shared.clock.now_ns();
    // Arm the thread-local span collector so a sharded index below can
    // report per-shard search and merge times for this batch (the
    // serve-path fan-out runs on this worker thread).
    if om.is_some() {
        parlayann_obs::begin_batch_spans();
    }
    let t_service = om.map(|_| Instant::now());
    // A panicking index (or one returning the wrong row count) must not
    // leave clients blocked in `wait` forever — and with shard/replica
    // isolation below the index (see parlayann_store), a panic that does
    // escape is batch-wide only by accident of batching. So on a batch
    // panic, retry each request individually (bit-identical to the batch
    // path by the `search_batch` contract) and fail only the requests that are
    // actually unrecoverable; the worker survives either way.
    let results = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        current.index.search_batch(queries, &shared.params)
    }));
    let service_ns = t_service.map_or(0, |t| t.elapsed().as_nanos() as u64);
    let spans = if om.is_some() {
        parlayann_obs::take_batch_spans()
    } else {
        None
    };
    let batch_size = reqs.len();
    let results = match results {
        Ok(r) => r,
        Err(_) => {
            *assembly = None; // the buffer may be mid-update; drop it
            isolate_batch_failure(shared, reqs, reason, dispatch_ns, overrun, &current);
            return;
        }
    };
    debug_assert_eq!(results.len(), reqs.len());
    // Service-time EWMA (α = 1/8) for the projected-wait shed. A manual
    // clock never advances during execution, so this stays 0 there.
    let elapsed = shared.clock.now_ns().saturating_sub(started_ns);
    if elapsed > 0 {
        let prev = shared.est_batch_ns.load(Ordering::Relaxed);
        let next = if prev == 0 {
            elapsed
        } else {
            prev - prev / 8 + elapsed / 8
        };
        shared.est_batch_ns.store(next, Ordering::Relaxed);
    }
    let mut queue_ns_sum = 0u64;
    let mut degraded_count = 0u64;
    let batch_failovers = results.first().map(|r| r.1.failovers).unwrap_or(0);
    let reply_clock_ns = shared.clock.now_ns();
    let t_reply = om.map(|_| Instant::now());
    let mut traces: Vec<Trace> = Vec::new();
    let obs = shared.obs_src.obs();
    let mut results = results.into_iter();
    for req in reqs {
        let Some((mut neighbors, stats)) = results.next() else {
            req.slot.fail();
            continue;
        };
        neighbors.truncate(req.k);
        let queue_ns = dispatch_ns.saturating_sub(req.submit_ns);
        queue_ns_sum += queue_ns;
        degraded_count += stats.degraded() as u64;
        if let Some(m) = om {
            m.queue_wait_ns.record(queue_ns);
            m.deadline_slack_ns
                .record(req.deadline_ns.saturating_sub(dispatch_ns));
            let total_ns = reply_clock_ns.saturating_sub(req.submit_ns);
            m.request_ns.record(total_ns);
            let sp = spans.unwrap_or_default();
            traces.push(Trace {
                seq: obs.next_trace_seq(),
                generation: current.generation,
                batch_size: batch_size.min(u32::MAX as usize) as u32,
                reason: match reason {
                    DispatchReason::Full => 0,
                    DispatchReason::Idle => 1,
                    DispatchReason::Drain => 2,
                },
                shard_spans: sp.len,
                degraded: stats.degraded(),
                routed_shards: stats.routed_shards.min(u16::MAX as u32) as u16,
                probed_shards: stats.probed_shards.min(u16::MAX as u32) as u16,
                failovers: batch_failovers.min(u16::MAX as u32) as u16,
                queue_ns,
                assemble_ns,
                search_ns: service_ns,
                merge_ns: sp.merge_ns,
                reply_ns: 0, // stamped below, once the replies are out
                total_ns,
                dist_comps: stats.dist_comps.min(u32::MAX as usize) as u32,
                hops: stats.hops.min(u32::MAX as usize) as u32,
                shard_ns: sp.shard_ns,
            });
        }
        req.slot.fill(Response {
            neighbors,
            degraded: stats.degraded(),
            stats,
            batch_size,
            reason,
            queue_ns,
            generation: current.generation,
        });
    }
    shared.inflight.fetch_sub(batch_size, Ordering::Relaxed);
    let s = &shared.stats;
    s.completed.fetch_add(batch_size as u64, Ordering::Relaxed);
    s.count_batch(reason, batch_size, overrun);
    s.queue_ns_total.fetch_add(queue_ns_sum, Ordering::Relaxed);
    s.degraded.fetch_add(degraded_count, Ordering::Relaxed);
    // Failover work is paid once per batch (every row reports the batch's
    // count), so account it once, not per row.
    s.failovers
        .fetch_add(batch_failovers as u64, Ordering::Relaxed);
    if let Some(m) = om {
        m.completed.add(batch_size as u64);
        m.batch_trigger(reason).inc();
        m.batch_size.record(batch_size as u64);
        m.service_ns.record(service_ns);
        m.degraded.add(degraded_count);
        m.failovers.add(batch_failovers as u64);
        m.inflight
            .set(shared.inflight.load(Ordering::Relaxed) as i64);
        // Replies are delivered; stamp the reply span and publish traces.
        let reply_ns = t_reply.map_or(0, |t| t.elapsed().as_nanos() as u64);
        for mut t in traces {
            t.reply_ns = reply_ns;
            obs.record_trace(&t);
        }
    }
}

/// The blast-radius containment path: the batch call panicked, so rerun
/// every request on its own. Requests that succeed are answered normally
/// (bit-identical to the batch path by the `search_batch` contract);
/// only requests that fail again — truly unrecoverable against this
/// snapshot — propagate the failure, each to exactly its own waiter.
fn isolate_batch_failure<T: VectorElem>(
    shared: &Shared<T>,
    reqs: Vec<Pending<T>>,
    reason: DispatchReason,
    dispatch_ns: u64,
    overrun: bool,
    current: &CurrentIndex<T>,
) {
    let batch_size = reqs.len();
    let mut queue_ns_sum = 0u64;
    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut degraded_count = 0u64;
    let mut failovers = 0u64;
    for req in reqs {
        let one = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            current.index.search(&req.query, &shared.params)
        }));
        match one {
            Ok((mut neighbors, stats)) => {
                neighbors.truncate(req.k);
                let queue_ns = dispatch_ns.saturating_sub(req.submit_ns);
                queue_ns_sum += queue_ns;
                completed += 1;
                degraded_count += stats.degraded() as u64;
                failovers += stats.failovers as u64;
                req.slot.fill(Response {
                    neighbors,
                    degraded: stats.degraded(),
                    stats,
                    batch_size,
                    reason,
                    queue_ns,
                    generation: current.generation,
                });
            }
            Err(_) => {
                failed += 1;
                req.slot.fail();
            }
        }
    }
    shared.inflight.fetch_sub(batch_size, Ordering::Relaxed);
    let s = &shared.stats;
    s.completed.fetch_add(completed, Ordering::Relaxed);
    s.count_batch(reason, batch_size, overrun);
    s.queue_ns_total.fetch_add(queue_ns_sum, Ordering::Relaxed);
    s.degraded.fetch_add(degraded_count, Ordering::Relaxed);
    s.failovers.fetch_add(failovers, Ordering::Relaxed);
    s.isolated_failures.fetch_add(failed, Ordering::Relaxed);
    if let Some(m) = &shared.om {
        m.completed.add(completed);
        m.isolated.add(failed);
        m.batch_trigger(reason).inc();
        m.batch_size.record(batch_size as u64);
        m.degraded.add(degraded_count);
        m.failovers.add(failovers);
        m.inflight
            .set(shared.inflight.load(Ordering::Relaxed) as i64);
    }
}
