//! # ann-data — vectors, distances, datasets, and ground truth
//!
//! The data substrate of the ParlayANN reproduction. The paper evaluates on
//! three billion-point datasets (BIGANN: 128-d `u8`; MSSPACEV: 100-d `i8`;
//! TEXT2IMAGE: 200-d `f32` with out-of-distribution queries). Those datasets
//! are multi-hundred-GB downloads, so this crate provides:
//!
//! * [`PointSet`] — flat, cache-friendly storage of `n × d` vectors with the
//!   element types the paper uses (`u8`, `i8`, `f32`);
//! * [`distance`](mod@distance) — the paper's metrics (squared Euclidean for
//!   BIGANN/MSSPACEV, negative inner product for TEXT2IMAGE, plus cosine),
//!   including the batched, prefetching [`distance_batch`] hot path;
//! * [`simd`] — the runtime-dispatched AVX2/SSE2/scalar kernels behind
//!   every distance evaluation, with their determinism contract;
//! * [`datasets`] — deterministic synthetic generators that mimic each
//!   dataset's element type, dimensionality, cluster structure, and (for
//!   TEXT2IMAGE) the out-of-distribution query property;
//! * [`io`] — readers/writers for the standard `fvecs`/`bvecs`/`ivecs` and
//!   BigANN-competition `.bin` formats, so real datasets drop in;
//! * [`ground_truth`] — parallel exact k-NN and `k@k'` recall (paper Def. 2.2).

pub mod datasets;
pub mod distance;
pub mod ground_truth;
pub mod io;
pub mod point;
pub mod simd;

pub use datasets::{bigann_like, msspacev_like, text2image_like, Dataset};
pub use distance::{distance, distance_batch, dot, norm_squared, squared_euclidean, Metric};
pub use ground_truth::{compute_ground_truth, recall_ids, recall_with_dists, GroundTruth};
pub use point::{PointSet, VectorElem};
pub use simd::{simd_level, SimdLevel};
