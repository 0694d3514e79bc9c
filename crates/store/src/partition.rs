//! Deterministic corpus → shard assignment, and the centroid codebook
//! that routed search ranks shards with.
//!
//! A sharded store is only as reproducible as its partitioner: the same
//! corpus and configuration must put every point in the same shard on
//! every machine and at every thread count, or saved manifests stop being
//! interchangeable. Both partitioners here are pure functions of
//! `(points, config)`:
//!
//! * [`Partitioner::Hash`] — shard of global id `i` is
//!   `hash64(seed ^ i) % shards`. Content-oblivious, O(n), balanced to
//!   within the usual multinomial deviation. The right default when
//!   shards exist for capacity rather than locality (LANNS calls this
//!   "random segmentation" and finds it competitive at scale).
//! * [`Partitioner::KMeans`] — train a `shards`-centroid codebook with
//!   [`ann_baselines::kmeans`] (itself deterministic at any thread
//!   count), then assign points **balanced**: ids in increasing order,
//!   each to its nearest centroid that still has capacity
//!   `ceil(n / shards)`, falling through to the next-nearest otherwise.
//!   Content-aware shards make per-shard graphs denser in-cluster, and
//!   the capacity bound keeps the fan-out work even — an unbalanced
//!   shard would dominate every batch's critical path.
//!
//! Both arms clamp `shards` to the corpus size, so a tiny corpus never
//! produces structurally empty shards at build time.
//!
//! Training and assignment are split ([`Partitioner::assign_with_model`]
//! hands back the trained [`kmeans::KMeans`] model next to the
//! assignment) so the centroids can outlive the build: the manifest
//! persists them as a [`ShardCodebook`] and routed search
//! ([`Routing`](crate::Routing)) ranks shards against them per query
//! instead of fanning out to all of them.

use ann_baselines::kmeans;
use ann_data::{Metric, PointSet, VectorElem};
use parlay::hash64;

/// How a corpus is split across shards. See the module docs for the
/// determinism and balance arguments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Partitioner {
    /// `shard(i) = hash64(seed ^ i) % shards` — content-oblivious.
    Hash {
        /// Number of shards (≥ 1, clamped to the corpus size at assign
        /// time).
        shards: usize,
        /// Hash seed (varying it re-deals the corpus).
        seed: u64,
    },
    /// Balanced nearest-centroid assignment over a k-means codebook.
    KMeans {
        /// Number of shards (≥ 1, clamped to the corpus size at assign
        /// time) — the codebook size.
        shards: usize,
        /// Lloyd iterations for codebook training.
        iters: usize,
        /// Training sample bound (points, chosen by hash order).
        sample: usize,
        /// Seed for sampling and initialization.
        seed: u64,
    },
}

impl Partitioner {
    /// A hash partitioner over `shards` shards.
    pub fn hash(shards: usize, seed: u64) -> Partitioner {
        Partitioner::Hash {
            shards: shards.max(1),
            seed,
        }
    }

    /// A balanced k-means partitioner with the default training budget
    /// (8 Lloyd iterations over up to 10k sampled points).
    pub fn kmeans(shards: usize, seed: u64) -> Partitioner {
        Partitioner::KMeans {
            shards: shards.max(1),
            iters: 8,
            sample: 10_000,
            seed,
        }
    }

    /// The configured shard count.
    pub fn shards(&self) -> usize {
        match *self {
            Partitioner::Hash { shards, .. } | Partitioner::KMeans { shards, .. } => shards,
        }
    }

    /// Short display name ("hash" / "kmeans").
    pub fn name(&self) -> &'static str {
        match self {
            Partitioner::Hash { .. } => "hash",
            Partitioner::KMeans { .. } => "kmeans",
        }
    }

    /// Assigns every point to a shard: `out[i] ∈ 0..shards` is the shard
    /// of global id `i`. Deterministic for fixed `(points, self)` at any
    /// thread count.
    pub fn assign<T: VectorElem>(&self, points: &PointSet<T>) -> Vec<u32> {
        self.assign_with_model(points).0
    }

    /// [`assign`](Self::assign), also returning the trained centroid
    /// model when there is one (`KMeans` arm; `Hash` is content-oblivious
    /// and has no centroids to route with). Both arms clamp `shards` to
    /// the corpus size so no structurally empty shard is produced.
    pub fn assign_with_model<T: VectorElem>(
        &self,
        points: &PointSet<T>,
    ) -> (Vec<u32>, Option<kmeans::KMeans>) {
        match *self {
            Partitioner::Hash { shards, seed } => {
                let shards = shards.min(points.len().max(1));
                let a = parlay::tabulate(points.len(), |i| {
                    (hash64(seed ^ (i as u64)) % shards as u64) as u32
                });
                (a, None)
            }
            Partitioner::KMeans {
                shards,
                iters,
                sample,
                seed,
            } => {
                let (a, model) = balanced_kmeans_assign(points, shards, iters, sample, seed);
                (a, Some(model))
            }
        }
    }
}

/// Points ranked per fixed-size chunk during balanced assignment — bounds
/// peak memory at `CHUNK × shards` ranking entries instead of
/// `n × shards`.
const ASSIGN_CHUNK: usize = 4096;

/// Balanced nearest-centroid assignment (see [`Partitioner::KMeans`]),
/// returning the trained model alongside the assignment so callers can
/// keep the codebook for routing. Training is parallel (and
/// deterministic); the capacity-constrained assignment pass is sequential
/// in id order, which is exactly what makes it a pure function of the
/// input. Ranking happens per `ASSIGN_CHUNK`-point chunk (parallel
/// within the chunk, chunks in order), so memory stays O(chunk · shards)
/// however large the corpus.
pub fn balanced_kmeans_assign<T: VectorElem>(
    points: &PointSet<T>,
    shards: usize,
    iters: usize,
    sample: usize,
    seed: u64,
) -> (Vec<u32>, kmeans::KMeans) {
    let n = points.len();
    let shards = shards.min(n.max(1));
    let model = kmeans::train(points, shards, iters, sample, seed);
    let capacity = n.div_ceil(model.k());
    let mut remaining = vec![capacity; model.k()];
    let mut assignment = Vec::with_capacity(n);
    for chunk_start in (0..n).step_by(ASSIGN_CHUNK) {
        let chunk_len = ASSIGN_CHUNK.min(n - chunk_start);
        // Rank all centroids per point in parallel within the chunk…
        let ranked: Vec<Vec<(u32, f32)>> = parlay::tabulate(chunk_len, |j| {
            model.rank_all(&kmeans::to_f32_vec(points.point(chunk_start + j)))
        });
        // …then fill sequentially in id order (chunks are visited in
        // order, so the fill order — hence the assignment — is identical
        // to ranking the whole corpus up front).
        for prefs in &ranked {
            let (c, _) = prefs
                .iter()
                .find(|&&(c, _)| remaining[c as usize] > 0)
                .expect("total capacity covers every point");
            remaining[*c as usize] -= 1;
            assignment.push(*c);
        }
    }
    (assignment, model)
}

/// Groups an assignment into per-shard global-id lists: `out[s]` holds
/// the global ids of shard `s`, in increasing order (the shard's local id
/// order — local id `j` of shard `s` is point `out[s][j]`).
pub fn shard_members(assignment: &[u32], shards: usize) -> Vec<Vec<u32>> {
    let mut members = vec![Vec::new(); shards];
    for (i, &s) in assignment.iter().enumerate() {
        members[s as usize].push(i as u32);
    }
    members
}

/// The centroid codebook a routed [`ShardedIndex`](crate::ShardedIndex)
/// ranks shards with: one `f32` centroid per **retained** shard slot
/// (row `s` ↔ `shards()[s]`), in the slot order the store fans out in.
///
/// Ranking is always squared-L2 against the widened query — the space the
/// k-means codebook was trained in — regardless of the metric the shard
/// indexes search with. Distances go through [`ann_data::distance`](fn@ann_data::distance), so
/// they take the same SIMD dispatch as every other kernel in the tree and
/// are bit-identical at any thread count.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardCodebook {
    centroids: Vec<f32>,
    dim: usize,
}

impl ShardCodebook {
    /// Wraps a row-major `slots × dim` centroid matrix.
    ///
    /// # Panics
    /// If `dim == 0` or `centroids.len()` is not a multiple of `dim`.
    pub fn new(centroids: Vec<f32>, dim: usize) -> ShardCodebook {
        assert!(dim > 0, "codebook dim must be positive");
        assert!(
            centroids.len().is_multiple_of(dim),
            "centroid matrix {} not a multiple of dim {dim}",
            centroids.len()
        );
        ShardCodebook { centroids, dim }
    }

    /// Builds a codebook from a trained model, keeping only the centroids
    /// of `retained` (the shard slots that survived empty-shard
    /// filtering), in order.
    pub fn from_model(model: &kmeans::KMeans, retained: &[usize]) -> ShardCodebook {
        let mut centroids = Vec::with_capacity(retained.len() * model.dim);
        for &c in retained {
            centroids.extend_from_slice(model.centroid(c));
        }
        ShardCodebook::new(centroids, model.dim)
    }

    /// Number of shard slots (codebook rows).
    pub fn len(&self) -> usize {
        self.centroids.len() / self.dim
    }

    /// Whether the codebook has no rows.
    pub fn is_empty(&self) -> bool {
        self.centroids.is_empty()
    }

    /// Dimensionality of each centroid.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The centroid of shard slot `s`.
    pub fn centroid(&self, s: usize) -> &[f32] {
        &self.centroids[s * self.dim..(s + 1) * self.dim]
    }

    /// The raw row-major centroid matrix (persistence).
    pub fn centroids(&self) -> &[f32] {
        &self.centroids
    }

    /// Shard slots ranked by squared-L2 distance of their centroid to the
    /// query, ascending; ties break toward the smaller slot. The query
    /// may carry padding — only the first `dim()` components are ranked.
    pub fn rank<T: VectorElem>(&self, query: &[T]) -> Vec<(u32, f32)> {
        let q: Vec<f32> = query.iter().take(self.dim).map(|x| x.to_f32()).collect();
        let mut out: Vec<(u32, f32)> = (0..self.len() as u32)
            .map(|s| {
                let d = ann_data::distance(&q, self.centroid(s as usize), Metric::SquaredEuclidean);
                (s, d)
            })
            .collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out
    }

    /// The `nprobe` closest shard slots for `query`, returned in
    /// **increasing slot order** — so a routed fan-out enumerates the
    /// selected shards in exactly the order the full fan-out would, which
    /// is what makes `nprobe = len()` bitwise-identical to no routing.
    pub fn route<T: VectorElem>(&self, query: &[T], nprobe: usize) -> Vec<usize> {
        let nprobe = nprobe.clamp(1, self.len().max(1));
        let mut slots: Vec<usize> = self
            .rank(query)
            .into_iter()
            .take(nprobe)
            .map(|(s, _)| s as usize)
            .collect();
        slots.sort_unstable();
        slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann_data::bigann_like;

    #[test]
    fn hash_assignment_covers_and_roughly_balances() {
        let d = bigann_like(2_000, 1, 7);
        let p = Partitioner::hash(4, 99);
        let a = p.assign(&d.points);
        assert_eq!(a.len(), 2_000);
        let members = shard_members(&a, 4);
        for (s, m) in members.iter().enumerate() {
            // Multinomial balance: each shard within 2x of the mean.
            assert!(
                m.len() > 250 && m.len() < 1_000,
                "shard {s} has {} members",
                m.len()
            );
        }
        assert_eq!(members.iter().map(Vec::len).sum::<usize>(), 2_000);
    }

    #[test]
    fn kmeans_assignment_is_balanced_to_capacity() {
        let d = bigann_like(1_000, 1, 11);
        let p = Partitioner::kmeans(4, 5);
        let a = p.assign(&d.points);
        let members = shard_members(&a, 4);
        let cap = 1_000usize.div_ceil(4);
        for m in &members {
            assert!(m.len() <= cap, "shard over capacity: {}", m.len());
        }
        assert_eq!(members.iter().map(Vec::len).sum::<usize>(), 1_000);
    }

    #[test]
    fn assignments_are_deterministic_across_thread_counts() {
        let d = bigann_like(1_200, 1, 3);
        for p in [Partitioner::hash(3, 1), Partitioner::kmeans(3, 1)] {
            let a = parlay::with_threads(1, || p.assign(&d.points));
            let b = parlay::with_threads(4, || p.assign(&d.points));
            assert_eq!(a, b, "{p:?} not thread-deterministic");
        }
    }

    #[test]
    fn chunked_assignment_matches_whole_corpus_ranking() {
        // More points than one ranking chunk: the chunked fill must agree
        // with ranking every point up front (the pre-chunking behavior).
        let d = bigann_like(ASSIGN_CHUNK + 500, 1, 13);
        let (a, model) = balanced_kmeans_assign(&d.points, 4, 4, 2_000, 5);
        let capacity = (ASSIGN_CHUNK + 500).div_ceil(model.k());
        let mut remaining = vec![capacity; model.k()];
        let reference: Vec<u32> = (0..d.points.len())
            .map(|i| {
                let prefs = model.rank_all(&kmeans::to_f32_vec(d.points.point(i)));
                let (c, _) = prefs
                    .iter()
                    .find(|&&(c, _)| remaining[c as usize] > 0)
                    .unwrap();
                remaining[*c as usize] -= 1;
                *c
            })
            .collect();
        assert_eq!(a, reference);
    }

    #[test]
    fn both_arms_clamp_shards_to_corpus_size() {
        // 3 points, 8 requested shards: no assignment may exceed slot 2,
        // on either arm (Hash used to skip this clamp and could emit
        // slots 3..8, producing structurally empty shards).
        let d = bigann_like(3, 1, 17);
        for p in [Partitioner::hash(8, 21), Partitioner::kmeans(8, 21)] {
            let a = p.assign(&d.points);
            assert_eq!(a.len(), 3);
            assert!(
                a.iter().all(|&s| s < 3),
                "{p:?} assigned beyond clamped range: {a:?}"
            );
        }
    }

    #[test]
    fn kmeans_arm_returns_its_model() {
        let d = bigann_like(600, 1, 19);
        let (a, model) = Partitioner::kmeans(4, 9).assign_with_model(&d.points);
        let model = model.expect("kmeans arm trains a model");
        assert_eq!(model.k(), 4);
        assert_eq!(a.len(), 600);
        assert!(Partitioner::hash(4, 9)
            .assign_with_model(&d.points)
            .1
            .is_none());
    }

    #[test]
    fn codebook_routes_in_slot_order_and_full_probe_covers_all() {
        let d = bigann_like(400, 8, 23);
        let (_, model) = balanced_kmeans_assign(&d.points, 6, 4, 400, 3);
        let cb = ShardCodebook::from_model(&model, &[0, 1, 2, 3, 4, 5]);
        assert_eq!(cb.len(), 6);
        let q = d.queries.point(0);
        // nprobe = len ⇒ every slot, in increasing order.
        assert_eq!(cb.route(q, 6), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(cb.route(q, 100), vec![0, 1, 2, 3, 4, 5]);
        // Partial probes are sorted subsets matching the ranking prefix.
        let ranked = cb.rank(q);
        let mut expect: Vec<usize> = ranked[..2].iter().map(|&(s, _)| s as usize).collect();
        expect.sort_unstable();
        assert_eq!(cb.route(q, 2), expect);
        assert_eq!(cb.route(q, 0).len(), 1, "nprobe clamps up to 1");
    }

    #[test]
    fn codebook_retention_reorders_rows() {
        let model = kmeans::KMeans {
            centroids: vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0],
            dim: 2,
        };
        let cb = ShardCodebook::from_model(&model, &[2, 0]);
        assert_eq!(cb.len(), 2);
        assert_eq!(cb.centroid(0), &[2.0, 2.0]);
        assert_eq!(cb.centroid(1), &[0.0, 0.0]);
    }

    #[test]
    fn shard_counts_clamp_to_at_least_one() {
        assert_eq!(Partitioner::hash(0, 1).shards(), 1);
        assert_eq!(Partitioner::kmeans(0, 1).shards(), 1);
    }
}
