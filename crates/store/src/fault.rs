//! Deterministic fault injection: the test substrate the resilience
//! layer is proven against.
//!
//! [`FaultyIndex`] wraps any [`AnnIndex`] and injects **panics**,
//! **artificial latency**, and (on the persistence path, which has a
//! `Result` channel) **I/O errors**, on a schedule that is a pure
//! function of `(seed, call number)` — never of the wall clock. Each
//! query-path invocation of the wrapper increments a private call
//! counter, and [`FaultPlan::decide`] maps that call number to a fault
//! via the workspace's deterministic `hash64_pair`. Two consequences:
//!
//! * **Bit-reproducible chaos runs.** A fixed request sequence drives a
//!   fixed sequence of call numbers into each wrapper (one call per
//!   top-level invocation, however parallel the search underneath), so
//!   the same faults hit the same calls at any `PARLAY_NUM_THREADS` —
//!   the chaos-smoke CI job diffs response fingerprints across thread
//!   counts exactly like the ordinary serving smoke.
//! * **Honest latency.** An injected delay really sleeps (it must, to
//!   exercise timeout/batching behavior), but sleeping never changes
//!   *which* calls fault, so results stay reproducible even when timing
//!   is not.
//!
//! Injected panics carry an [`InjectedFault`] payload so tests can tell
//! scheduled chaos from a genuine index bug that the resilience layer
//! happened to swallow.

use ann_data::{PointSet, VectorElem};
use parlay::hash64_pair;
use parlayann::{AnnIndex, IndexKind, IndexStats, QueryParams, RangeParams, SearchStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The panic payload of a scheduled fault (via `std::panic::panic_any`).
#[derive(Clone, Copy, Debug)]
pub struct InjectedFault {
    /// The wrapper-local call number that faulted.
    pub call: u64,
}

/// Whether a caught panic payload is a scheduled [`InjectedFault`]
/// rather than a genuine bug.
pub fn is_injected(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.is::<InjectedFault>()
}

/// Installs a process-wide panic hook that silences scheduled
/// [`InjectedFault`] panics — a chaos run injects thousands of them, all
/// caught by the failover layer, and the default hook would print a
/// "thread panicked" line (plus backtrace) for each. Genuine panics
/// still reach the previously-installed hook. Idempotent; call it at the
/// top of chaos tests/benches.
pub fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<InjectedFault>() {
                prev(info);
            }
        }));
    });
}

/// What [`FaultPlan::decide`] ordered for one call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fault {
    /// Sleep [`FaultPlan::delay`] before proceeding.
    pub delay: bool,
    /// Panic (with an [`InjectedFault`] payload) instead of answering.
    pub panic: bool,
}

/// A seeded, call-count-keyed fault schedule (see the module docs for
/// the determinism argument). All fields are plain data; the plan never
/// reads a clock.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// Seed for the per-call fault draw.
    pub seed: u64,
    /// Per-call panic probability in permille (0..=1000).
    pub panic_permille: u16,
    /// Per-call delay probability in permille (0..=1000).
    pub delay_permille: u16,
    /// How long an injected delay sleeps.
    pub delay: Duration,
    /// Unconditional outage: calls in `down_from..down_to` always panic
    /// (models a replica dying and later being replaced).
    pub down_from: u64,
    /// End (exclusive) of the outage window.
    pub down_to: u64,
    /// Calls before `warmup` never fault (lets builds, ground-truth
    /// passes, and manifest writes run clean).
    pub warmup: u64,
}

impl FaultPlan {
    /// A plan that never faults (wrapping overhead only).
    pub fn healthy() -> FaultPlan {
        FaultPlan {
            seed: 0,
            panic_permille: 0,
            delay_permille: 0,
            delay: Duration::ZERO,
            down_from: 0,
            down_to: 0,
            warmup: 0,
        }
    }

    /// A replica that panics on a seeded `panic_permille`/1000 of calls.
    pub fn flaky(seed: u64, panic_permille: u16) -> FaultPlan {
        FaultPlan {
            seed,
            panic_permille,
            ..FaultPlan::healthy()
        }
    }

    /// A replica that is down (always panics) from its first call.
    pub fn down() -> FaultPlan {
        FaultPlan {
            down_from: 0,
            down_to: u64::MAX,
            ..FaultPlan::healthy()
        }
    }

    /// A replica that is down exactly for calls `from..to`.
    pub fn window(from: u64, to: u64) -> FaultPlan {
        FaultPlan {
            down_from: from,
            down_to: to,
            ..FaultPlan::healthy()
        }
    }

    /// Adds seeded latency injection to this plan.
    pub fn with_delay(mut self, seed: u64, delay_permille: u16, delay: Duration) -> FaultPlan {
        self.seed = if self.seed == 0 { seed } else { self.seed };
        self.delay_permille = delay_permille;
        self.delay = delay;
        self
    }

    /// The fault (if any) scheduled for call number `call`. Pure: no
    /// clocks, no RNG state — `decide(c)` is the same on every run and
    /// every thread count.
    pub fn decide(&self, call: u64) -> Fault {
        if call < self.warmup {
            return Fault::default();
        }
        if self.down_from <= call && call < self.down_to {
            return Fault {
                delay: false,
                panic: true,
            };
        }
        // Independent draws for panic and delay from disjoint streams.
        let panic = self.panic_permille > 0
            && hash64_pair(self.seed ^ 0x70a1_c0de, call) % 1000 < self.panic_permille as u64;
        let delay = self.delay_permille > 0
            && hash64_pair(self.seed ^ 0xde1a_7e57, call) % 1000 < self.delay_permille as u64;
        Fault { delay, panic }
    }
}

/// An [`AnnIndex`] wrapper that injects the faults its [`FaultPlan`]
/// schedules. Query-path methods (`search`, the batch variants,
/// `range_search`) each count as one call; introspection (`len`, `dim`,
/// `stats`, `kind`, `name`) passes through unfaulted so routers and
/// validators can always inspect a replica. `save_index` injects an
/// [`std::io::Error`] where the plan says panic — the persistence path
/// has a proper error channel, so errors surface as errors there.
pub struct FaultyIndex<T> {
    inner: Arc<dyn AnnIndex<T> + Send + Sync>,
    plan: FaultPlan,
    calls: AtomicU64,
}

impl<T: VectorElem> FaultyIndex<T> {
    /// Wraps `inner` under `plan`. The call counter starts at 0.
    pub fn new(inner: Arc<dyn AnnIndex<T> + Send + Sync>, plan: FaultPlan) -> Self {
        FaultyIndex {
            inner,
            plan,
            calls: AtomicU64::new(0),
        }
    }

    /// The wrapped index.
    pub fn inner(&self) -> &Arc<dyn AnnIndex<T> + Send + Sync> {
        &self.inner
    }

    /// Query-path calls made so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Takes the next call number and executes its scheduled fault:
    /// sleeps on a delay, panics (with [`InjectedFault`]) on a panic.
    fn fault(&self) -> u64 {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        let fault = self.plan.decide(call);
        if fault.delay {
            std::thread::sleep(self.plan.delay);
        }
        if fault.panic {
            std::panic::panic_any(InjectedFault { call });
        }
        call
    }
}

impl<T: VectorElem> AnnIndex<T> for FaultyIndex<T> {
    fn search(&self, query: &[T], params: &QueryParams) -> (Vec<(u32, f32)>, SearchStats) {
        self.fault();
        self.inner.search(query, params)
    }

    fn search_batch(
        &self,
        queries: &PointSet<T>,
        params: &QueryParams,
    ) -> Vec<(Vec<(u32, f32)>, SearchStats)> {
        self.fault();
        self.inner.search_batch(queries, params)
    }

    fn range_search(&self, query: &[T], params: &RangeParams) -> (Vec<(u32, f32)>, SearchStats) {
        self.fault();
        self.inner.range_search(query, params)
    }

    fn name(&self) -> String {
        format!("faulty({})", self.inner.name())
    }

    fn kind(&self) -> IndexKind {
        IndexKind::Custom
    }

    fn stats(&self) -> IndexStats {
        self.inner.stats()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn save_index(&self, path: &std::path::Path) -> std::io::Result<()> {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        let fault = self.plan.decide(call);
        if fault.delay {
            std::thread::sleep(self.plan.delay);
        }
        if fault.panic {
            return Err(std::io::Error::other(format!(
                "injected fault on call {call}"
            )));
        }
        self.inner.save_index(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExactIndex;
    use ann_data::bigann_like;

    fn exact(n: usize) -> Arc<dyn AnnIndex<u8> + Send + Sync> {
        let d = bigann_like(n, 1, 5);
        Arc::new(ExactIndex::new(d.points, d.metric))
    }

    #[test]
    fn schedule_is_a_pure_function_of_call_number() {
        let plan = FaultPlan::flaky(42, 200).with_delay(0, 100, Duration::from_micros(1));
        let a: Vec<Fault> = (0..500).map(|c| plan.decide(c)).collect();
        let b: Vec<Fault> = (0..500).map(|c| plan.decide(c)).collect();
        assert_eq!(a, b);
        let panics = a.iter().filter(|f| f.panic).count();
        // 20% nominal rate: the seeded draw should land in a wide band.
        assert!((50..350).contains(&panics), "panics = {panics}");
    }

    #[test]
    fn warmup_and_window_override_the_draw() {
        let plan = FaultPlan {
            warmup: 10,
            ..FaultPlan::window(10, 20)
        };
        assert!((0..10).all(|c| !plan.decide(c).panic));
        assert!((10..20).all(|c| plan.decide(c).panic));
        assert!((20..40).all(|c| !plan.decide(c).panic));
    }

    #[test]
    fn injected_panic_is_recognizable_and_counts_calls() {
        silence_injected_panics();
        let faulty = FaultyIndex::new(exact(50), FaultPlan::window(1, 2));
        let params = QueryParams {
            k: 3,
            ..QueryParams::default()
        };
        let q = vec![0u8; 128];
        let (res, _) = faulty.search(&q, &params); // call 0: clean
        assert_eq!(res.len(), 3);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            faulty.search(&q, &params) // call 1: down window
        }))
        .expect_err("call 1 must panic");
        assert!(is_injected(&*err), "payload must be InjectedFault");
        let (res, _) = faulty.search(&q, &params); // call 2: clean again
        assert_eq!(res.len(), 3);
        assert_eq!(faulty.calls(), 3);
    }

    #[test]
    fn healthy_plan_is_transparent() {
        let inner = exact(80);
        let faulty = FaultyIndex::new(Arc::clone(&inner), FaultPlan::healthy());
        let params = QueryParams {
            k: 5,
            ..QueryParams::default()
        };
        let q = vec![7u8; 128];
        let (a, sa) = faulty.search(&q, &params);
        let (b, sb) = inner.search(&q, &params);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert_eq!(AnnIndex::len(&faulty), 80);
    }

    #[test]
    fn save_path_faults_surface_as_io_errors() {
        let faulty = FaultyIndex::new(exact(10), FaultPlan::down());
        let err = faulty
            .save_index(std::path::Path::new("/nonexistent/x"))
            .expect_err("down plan must error");
        assert!(err.to_string().contains("injected fault"), "{err}");
    }
}
