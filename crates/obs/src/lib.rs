//! # parlayann_obs — observability for the ParlayANN serving stack
//!
//! Pure-std telemetry wired through every layer of the stack: a metrics
//! [`Registry`] of lock-free atomic [`Counter`]s, [`Gauge`]s and
//! log-linear [`Histogram`]s; a per-query [`Trace`] span record collected
//! into a fixed-size lock-free [`TraceRing`]; and a Prometheus-style text
//! exposition surface ([`Registry::render`]).
//!
//! ## Determinism contract
//!
//! Telemetry **reads** the computation, it never **steers** it. Nothing
//! in this crate feeds back into search, routing, batching or shedding
//! decisions: recording a sample is a handful of relaxed atomic adds,
//! quantile queries run over snapshots, and the trace ring drops records
//! rather than ever blocking a writer. Search results (and therefore the
//! serve/chaos/route fingerprints) are bit-identical with observability
//! on or off, at any thread count — `tests/serve.rs`
//! (`obs_on_and_off_servers_answer_identically`) pins that.
//!
//! ## The `ObsMode` knob
//!
//! [`ObsMode::Off`] reduces every instrumentation site to one
//! register-resident branch: layers check
//! [`Obs::enabled`] (or cache the answer at construction) and skip both
//! the clock reads and the atomic traffic. The process-wide default is
//! read once from `PARLAYANN_OBS` (`off`/`0`/`false` disable; anything
//! else — including unset — enables) by [`global`].

mod hist;
mod metric;
mod registry;
mod ring;
mod trace;

pub use hist::{Histogram, HistogramSnapshot, HIST_PRECISION_BITS, HIST_SUB_BUCKETS};
pub use metric::{Counter, Gauge};
pub use registry::Registry;
pub use ring::TraceRing;
pub use trace::{
    begin_batch_spans, record_merge_span, record_shard_span, take_batch_spans, BatchSpans, Trace,
    TRACE_SHARD_SLOTS,
};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Master switch for the observability layer: `Off` costs one
/// predictable branch per instrumentation site. (The engine's per-query
/// counters are not behind it; every search counts them.)
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ObsMode {
    /// Record metrics and traces.
    #[default]
    On,
    /// Skip all recording; exposition renders an empty registry.
    Off,
}

impl ObsMode {
    #[inline]
    pub fn enabled(self) -> bool {
        matches!(self, ObsMode::On)
    }
}

/// Default capacity of the recent-trace ring (power of two).
pub const TRACE_RING_CAPACITY: usize = 1024;
/// Default capacity of the slow-query ring (power of two).
pub const SLOW_RING_CAPACITY: usize = 256;
/// Default slow-query threshold when `PARLAYANN_SLOW_US` is unset.
pub const DEFAULT_SLOW_US: u64 = 10_000;

/// One observability domain: a registry plus the trace rings. Layers
/// normally share the process-wide [`global`] instance so that
/// `Server::metrics_text()` exposes serve + store + engine metrics in
/// one scrape; tests build private instances for isolation.
pub struct Obs {
    mode: ObsMode,
    registry: Registry,
    traces: TraceRing,
    slow: TraceRing,
    slow_threshold_ns: u64,
    trace_seq: AtomicU64,
    traces_total: Arc<Counter>,
    slow_total: Arc<Counter>,
}

impl Obs {
    /// Build an instance with default ring sizes and slow threshold.
    pub fn new(mode: ObsMode) -> Obs {
        Obs::with_config(mode, TRACE_RING_CAPACITY, DEFAULT_SLOW_US * 1_000)
    }

    /// Build an instance with explicit trace-ring capacity (rounded up
    /// to a power of two) and slow-query threshold in nanoseconds.
    pub fn with_config(mode: ObsMode, trace_capacity: usize, slow_threshold_ns: u64) -> Obs {
        let registry = Registry::new();
        let traces_total = registry.counter(
            "parlayann_traces_total",
            &[],
            "query trace records offered to the recent-trace ring",
        );
        let slow_total = registry.counter(
            "parlayann_slow_queries_total",
            &[],
            "queries whose end-to-end server time crossed the slow threshold",
        );
        Obs {
            mode,
            registry,
            traces: TraceRing::new(trace_capacity),
            slow: TraceRing::new(SLOW_RING_CAPACITY.min(trace_capacity.max(2))),
            slow_threshold_ns,
            trace_seq: AtomicU64::new(0),
            traces_total,
            slow_total,
        }
    }

    #[inline]
    pub fn mode(&self) -> ObsMode {
        self.mode
    }

    /// True when recording should happen. Instrumentation sites gate on
    /// this (or cache it) so `Off` stays off the hot path.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.mode.enabled()
    }

    pub fn registry(&self) -> &Registry {
        self.registry_ref()
    }

    #[inline]
    fn registry_ref(&self) -> &Registry {
        &self.registry
    }

    /// Render the registry in Prometheus text exposition format.
    pub fn render(&self) -> String {
        if !self.enabled() {
            return String::new();
        }
        self.registry.render()
    }

    /// Next per-query trace sequence number.
    pub fn next_trace_seq(&self) -> u64 {
        self.trace_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a completed query trace: always into the recent ring, and
    /// into the slow-query ring when `total_ns` crosses the threshold.
    pub fn record_trace(&self, t: &Trace) {
        if !self.enabled() {
            return;
        }
        self.traces_total.inc();
        self.traces.push(t);
        if t.total_ns >= self.slow_threshold_ns {
            self.slow_total.inc();
            self.slow.push(t);
        }
    }

    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns
    }

    /// Most recent query traces, newest first (up to ring capacity).
    pub fn recent_traces(&self) -> Vec<Trace> {
        self.traces.recent(self.traces.capacity())
    }

    /// Most recent slow-query traces, newest first.
    pub fn slow_traces(&self) -> Vec<Trace> {
        self.slow.recent(self.slow.capacity())
    }
}

/// The process-wide observability domain. Mode comes from the
/// `PARLAYANN_OBS` environment variable, read once (like
/// `PARLAYANN_SIMD`): `off`, `0` or `false` disable; default is on.
/// The slow-query threshold comes from `PARLAYANN_SLOW_US`
/// (microseconds, default 10_000).
pub fn global() -> &'static Obs {
    static GLOBAL: OnceLock<Obs> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let mode = match std::env::var("PARLAYANN_OBS") {
            Ok(v) if matches!(v.to_ascii_lowercase().as_str(), "off" | "0" | "false") => {
                ObsMode::Off
            }
            _ => ObsMode::On,
        };
        let slow_us = std::env::var("PARLAYANN_SLOW_US")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(DEFAULT_SLOW_US);
        Obs::with_config(mode, TRACE_RING_CAPACITY, slow_us.saturating_mul(1_000))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_mode_records_nothing() {
        let obs = Obs::new(ObsMode::Off);
        let t = Trace {
            total_ns: u64::MAX,
            ..Trace::default()
        };
        obs.record_trace(&t);
        assert!(obs.recent_traces().is_empty());
        assert!(obs.slow_traces().is_empty());
        assert_eq!(obs.render(), "");
    }

    #[test]
    fn slow_threshold_splits_rings() {
        let obs = Obs::with_config(ObsMode::On, 16, 1_000);
        let fast = Trace {
            total_ns: 999,
            ..Trace::default()
        };
        let slow = Trace {
            total_ns: 1_000,
            ..Trace::default()
        };
        obs.record_trace(&fast);
        obs.record_trace(&slow);
        assert_eq!(obs.recent_traces().len(), 2);
        let slow_seen = obs.slow_traces();
        assert_eq!(slow_seen.len(), 1);
        assert_eq!(slow_seen[0].total_ns, 1_000);
        let text = obs.render();
        assert!(text.contains("parlayann_traces_total 2"));
        assert!(text.contains("parlayann_slow_queries_total 1"));
    }
}
