//! # parlayann-suite — workspace facade
//!
//! Re-exports the crates of the ParlayANN reproduction so examples and
//! integration tests can `use parlayann_suite::*`. See the individual
//! crates for the real APIs:
//!
//! * [`parlay`] — fork-join parallel primitives (ParlayLib port).
//! * [`ann_data`] — vectors, distances, datasets, ground truth.
//! * [`parlayann`] — the four graph-based ANNS algorithms.
//! * [`ann_baselines`] — IVF/PQ/LSH and lock-based comparators.
//! * [`parlayann_serve`] — the work-conserving online serving front-end.
//! * [`parlayann_store`] — the sharded vector store: multi-shard
//!   routing, manifest persistence, live snapshot reload.
//! * [`parlayann_obs`] — observability: metrics registry, latency
//!   histograms, per-query traces, Prometheus-style exposition.

pub use ann_baselines as baselines;
pub use ann_data as data;
pub use parlay;
pub use parlayann as core;
pub use parlayann_obs as obs;
pub use parlayann_serve as serve;
pub use parlayann_store as store;
