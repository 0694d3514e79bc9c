//! # parlay — fork-join parallel primitives in the style of ParlayLib
//!
//! ParlayANN (PPoPP 2024) is built on ParlayLib's fork-join model: a
//! work-stealing scheduler plus a small set of *deterministic* parallel
//! primitives (sort, semisort, partition, scan, random). This crate ports
//! those primitives to Rust on top of [`rayon`]'s fork-join pool.
//!
//! Every primitive in this crate is **deterministic**: its output depends
//! only on its input (and an explicit seed where applicable), never on the
//! number of worker threads or the runtime schedule. This is the property
//! the paper relies on for deterministic index construction.
//!
//! The primitives:
//!
//! * [`tabulate`], [`map`], [`for_each_index`] — flat data parallelism.
//! * [`scan`](fn@scan), [`scan_inclusive`] — blocked two-pass prefix sums with a
//!   *fixed* block structure, so floating-point results are schedule-independent.
//! * [`pack`](fn@pack), [`filter`], [`split_by`] — stable parallel packing.
//! * [`sort`](fn@sort) — parallel *stable* merge sort (unique output ⇒ deterministic).
//! * [`counting_sort`] — stable blocked counting sort for small integer keys.
//! * [`semisort`](fn@semisort) — groups equal keys consecutively (paper §2), the
//!   workhorse behind lock-free reverse-edge merging (paper §3.1).
//! * [`group_by_u32`] — grouped view built on the semisort.
//! * [`random`] — splittable hash-based RNG (`parlay::random` equivalent);
//!   randomness is "supplied as part of the input" per the paper's
//!   determinism definition.
//! * [`reduce_det`], [`min_index_by`] — deterministic reductions.
//! * [`UnsafeSliceCell`] — the disjoint-write escape hatch used to scatter
//!   into shared output buffers from parallel loops.
//! * [`with_threads`] — scoped thread-pool control for scalability studies.

pub mod counting;
pub mod flatten;
pub mod group_by;
pub mod hash;
pub mod ops;
pub mod pack;
pub mod pool;
pub mod random;
pub mod reduce;
pub mod scan;
pub mod semisort;
pub mod sort;
pub mod unsafe_slice;

pub use counting::counting_sort;
pub use flatten::{flatten, flatten_map};
pub use group_by::{group_by_u32, Grouped};
pub use hash::{hash32, hash64, hash64_pair};
pub use ops::{for_each_index, map, map_slice, tabulate, GRAIN};
pub use pack::{filter, pack, pack_index, split_by};
pub use pool::{num_threads, with_threads};
pub use random::Random;
pub use reduce::{max_index_by, min_index_by, reduce_det, sum_f64_det, sum_u64};
pub use scan::{scan, scan_inclusive};
pub use semisort::semisort;
pub use sort::{merge_by, sort, sort_by, sort_by_key};
pub use unsafe_slice::{uninit_vec, UnsafeSliceCell};
