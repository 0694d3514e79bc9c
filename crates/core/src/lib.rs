//! # parlayann — deterministic parallel graph-based ANNS
//!
//! A from-scratch Rust implementation of the four graph-based approximate
//! nearest-neighbor algorithms of *ParlayANN: Scalable and Deterministic
//! Parallel Graph-Based Approximate Nearest Neighbor Search Algorithms*
//! (PPoPP 2024): DiskANN/Vamana, HNSW, HCNNG, and PyNNDescent, all built
//! lock-free on the prefix-doubling + semisort machinery of §3.
//!
//! Every index build is **deterministic**: the same input and seed produce
//! a bit-identical graph ([`graph::FlatGraph::fingerprint`]) for any number
//! of worker threads. No locks are used anywhere in this crate.
//!
//! DiskANN/Vamana, HCNNG and PyNNDescent differ only in how they build the
//! graph, so all three are one [`GraphIndex`]: one search path, one
//! [`AnnIndex`] impl, one persistent form ([`io`]). The per-family code is
//! a builder function ([`diskann::build`], [`hcnng::build`],
//! [`pynndescent::build`]) that [`GraphIndex::build`] picks from the params
//! type; [`VamanaIndex`], [`HcnngIndex`] and [`PyNNDescentIndex`] are names
//! for the same type. HNSW ([`HnswIndex`]) is separate: its entry point
//! comes from a per-query descent through its upper layers.
//!
//! ```
//! use ann_data::{bigann_like, compute_ground_truth, recall_ids};
//! use parlayann::{AnnIndex, VamanaIndex, VamanaParams, QueryParams};
//!
//! let data = bigann_like(2_000, 20, 42);
//! let index = VamanaIndex::build(data.points.clone(), data.metric, &VamanaParams::default());
//! let params = QueryParams { beam: 32, ..QueryParams::default() };
//! // Batched search: one task per query, bit-identical to calling
//! // `index.search` per query.
//! let results: Vec<Vec<u32>> = index.search_batch(&data.queries, &params)
//!     .into_iter()
//!     .map(|(res, _stats)| res.into_iter().map(|(id, _)| id).collect())
//!     .collect();
//! let gt = compute_ground_truth(&data.points, &data.queries, 10, data.metric);
//! assert!(recall_ids(&gt, &results, 10, 10) > 0.8);
//! ```

// Index-heavy numeric code: ranges-with-indexing and large tuple types
// are idiomatic throughout; these pedantic lints cost more churn than
// they catch here.
#![allow(clippy::needless_range_loop, clippy::type_complexity)]

pub mod analysis;
pub mod beam;
pub mod builder;
pub mod cluster;
pub mod diskann;
pub mod graph;
pub mod hcnng;
pub mod hnsw;
pub mod index;
pub mod io;
pub mod medoid;
pub mod params;
pub mod prune;
pub mod pynndescent;
pub mod query;
pub mod range;
pub mod stats;
pub mod visited;

pub use beam::{beam_search, beam_search_into, QueryParams, SearchScratch, VisitedMode};
pub use builder::{incremental_build, BuildParams};
pub use diskann::{VamanaIndex, VamanaParams};
pub use graph::FlatGraph;
pub use hcnng::{HcnngIndex, HcnngParams};
pub use hnsw::{HnswIndex, HnswParams};
pub use index::{GraphBuilder, GraphIndex};
pub use io::load_index;
pub use medoid::medoid;
pub use prune::{heuristic_prune, robust_prune};
pub use pynndescent::{PyNNDescentIndex, PyNNDescentParams};
pub use query::{aggregate_stats, AnnIndex, IndexKind, IndexStats, ScratchPool};
pub use range::{range_search, RangeParams};
pub use stats::{BuildStats, SearchStats, ShardSet, SHARD_SET_BITS};
