//! The sharded index: fan-out search over N sub-indexes with a
//! deterministic merge, optionally **routed** to only the `p` closest
//! shards.
//!
//! A [`ShardedIndex`] owns `N` shards, each an `Arc<dyn AnnIndex>` over a
//! disjoint slice of the corpus plus the local→global id map produced by
//! the [`Partitioner`](crate::Partitioner). It implements [`AnnIndex`]
//! itself, so everything that serves, benches, or persists a single index
//! works unchanged on a sharded one — including in-memory nesting (a
//! shard may itself be sharded; persistence requires one level — see
//! [`crate::manifest`]).
//!
//! ## Merge determinism
//!
//! Every query fans out to its target shards; each shard reports its
//! local top-k (global ids substituted); the per-shard lists are combined
//! by a k-way merge ordered by **(distance, global id)**. This is a total
//! order: a given global id lives in exactly one shard and its distance
//! to the query is a pure function of `(query, vector)` — the same
//! kernel bits no matter which shard holds it — so no two merge keys are
//! ever equal and the merged sequence is unique. Consequently results
//! are bit-identical at any thread count **and any shard enumeration
//! order**, which the property tests assert by permuting shards.
//!
//! Shards that are exact ([`ExactIndex`](crate::ExactIndex)) compose
//! losslessly: the union of per-shard exact top-k contains the global
//! exact top-k, so sharded-exact ≡ whole-corpus-exact, bitwise. Graph
//! shards keep their approximate semantics per shard; recall of the
//! merged result is in practice ≥ the unsharded index (each shard scans
//! its beam over a smaller corpus — the recall-floor suite pins this).
//!
//! ## Routed (partial) fan-out
//!
//! With a [`ShardCodebook`] attached (k-means builds produce one;
//! manifests persist it) and [`Routing`]`{ nprobe: p } with p ≥ 1`, each
//! query is first ranked against the shard centroids and only the `p`
//! closest shards are searched — the LANNS/IVF-`nprobe` dial at the shard
//! level, so fan-out cost scales with `p` instead of with the shard
//! count. The selected slots are enumerated in increasing slot order and
//! merged by the same k-way merge, which makes `p = N` **bitwise
//! identical** to full fan-out (proptested, including the batch paths at
//! 1 vs 8 threads). Batched searches route every query first, group the
//! queries by target shard, and run one sub-batch per shard, so each
//! shard still parallelizes over its queries. `nprobe = 0` (the
//! default), or a store without a codebook (hash-partitioned, or loaded
//! from a pre-codebook manifest), fans out to every shard as before.
//! [`range_search`](AnnIndex::range_search) always fans out fully:
//! "everything within the radius" is a promise about the whole corpus,
//! not about the routed subset.
//!
//! ## Replication, failover, and degraded results
//!
//! Each shard slot is fronted by a [`ReplicaSet`]: replica 0 is the
//! [`Shard::index`] itself (the persistence/introspection view), and
//! [`ShardedIndex::add_replica`] registers further bit-identical copies.
//! Every search path routes each shard's work through
//! [`ReplicaSet::run`] — deterministic per-request replica selection,
//! per-replica circuit breakers, and panic isolation, so a dying replica
//! downgrades to the next instead of unwinding into the fan-out (see
//! [`crate::replica`]). Failover happens at call granularity: a panic
//! mid-batch reruns the whole shard batch on the next replica, keeping
//! the bit-identity contract (replicas are identical, so *who* answers
//! never changes the bits).
//!
//! When **every** replica of a shard is down, the merge proceeds over
//! the surviving shards and the result is **degraded**: bit-identical to
//! a search over only the surviving *selected* shards (same merge,
//! shorter list of inputs — the chaos suite asserts this), with the
//! missing slots reported in [`SearchStats::failed_shards`] — an exact
//! [`ShardSet`], so slots ≥ 64 no longer alias — and the surviving count
//! in [`SearchStats::probed_shards`]. Under routing the accounting is
//! per query and relative to the *selected* shards:
//! `routed_shards = p`, and a down shard only degrades the queries that
//! were routed to it (`routed = probed + failed`). These shard-health
//! fields overwrite whatever the children reported, so a nested sharded
//! store describes the outermost topology.
//!
//! ## Observability
//!
//! When the global obs layer is on, every shard sub-search records its
//! wall time into a per-slot histogram
//! (`parlayann_store_shard_search_ns{shard=...}`), the k-way merge into
//! `parlayann_store_merge_ns`, and probe/down counts into counters;
//! breaker transitions surface via [`ReplicaSet::enable_obs`]. On the
//! serve path the per-shard timings also feed the active trace's span
//! scratch ([`parlayann_obs::record_shard_span`]). All of it reads
//! completed results and timestamps — nothing feeds back into routing,
//! failover, or the merge, so results are bit-identical with obs on or
//! off.

use crate::partition::{shard_members, Partitioner, ShardCodebook};
use crate::replica::{BreakerConfig, BreakerState, ReplicaSet};
use ann_data::{PointSet, VectorElem};
use parlayann::{AnnIndex, IndexKind, IndexStats, QueryParams, RangeParams, SearchStats, ShardSet};
use std::cmp::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// One shard: a sub-index plus its local→global id map.
pub struct Shard<T> {
    /// The sub-index over this shard's points (local ids `0..len`).
    pub index: Arc<dyn AnnIndex<T> + Send + Sync>,
    /// `globals[local] = global` — increasing when produced by
    /// [`ShardedIndex::build_with`] (members are gathered in id order).
    pub globals: Vec<u32>,
}

/// Partial fan-out configuration (see the module docs).
///
/// `nprobe = 0` — the default — disables routing: every query fans out to
/// every shard. `nprobe = p ≥ 1` searches only the `p` shards whose
/// centroids are closest to the query (clamped to the shard count;
/// requires a [`ShardCodebook`] — without one the store keeps full
/// fan-out). A serving knob, not part of the persisted index: manifests
/// persist the codebook, and the loader/server picks `nprobe`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Routing {
    /// How many closest shards to probe per query (0 = all).
    pub nprobe: usize,
}

impl Routing {
    /// Probe the `p` closest shards per query.
    pub fn nprobe(p: usize) -> Routing {
        Routing { nprobe: p }
    }
}

/// A sharded vector store presenting N sub-indexes as one [`AnnIndex`].
/// See the module docs for the merge-determinism argument, routing, and
/// the replication/degraded-result semantics.
pub struct ShardedIndex<T> {
    shards: Vec<Shard<T>>,
    /// One replica set per shard slot; `sets[s]` fronts `shards[s]`
    /// (replica 0 is `shards[s].index`).
    sets: Vec<ReplicaSet<T>>,
    partitioner: Partitioner,
    /// Centroid per retained shard slot (k-means builds / manifest v2);
    /// `None` routes with full fan-out regardless of [`Routing`].
    codebook: Option<ShardCodebook>,
    routing: Routing,
    dim: usize,
    len: usize,
    /// Cached global-registry handles; `None` when obs is off (the
    /// per-search gate is then a single `Option` check).
    obs: Option<StoreObs>,
}

/// Store-layer metric handles, registered once per store in the global
/// registry (get-or-create, so stores share series).
struct StoreObs {
    /// Per-slot shard sub-search wall time.
    shard_search_ns: Vec<Arc<parlayann_obs::Histogram>>,
    /// K-way merge wall time (batch paths; per batch).
    merge_ns: Arc<parlayann_obs::Histogram>,
    /// Shard sub-searches that answered.
    probes: Arc<parlayann_obs::Counter>,
    /// Selected shards with every replica down.
    shard_down: Arc<parlayann_obs::Counter>,
    /// Queries answered by the store (any search path).
    queries: Arc<parlayann_obs::Counter>,
}

impl StoreObs {
    fn register(n_shards: usize) -> Option<StoreObs> {
        let obs = parlayann_obs::global();
        if !obs.enabled() {
            return None;
        }
        let r = obs.registry();
        Some(StoreObs {
            shard_search_ns: (0..n_shards)
                .map(|s| {
                    r.histogram(
                        "parlayann_store_shard_search_ns",
                        &[("shard", &s.to_string())],
                        "wall time of one shard sub-search (incl. failovers)",
                    )
                })
                .collect(),
            merge_ns: r.histogram(
                "parlayann_store_merge_ns",
                &[],
                "wall time of the per-batch k-way merge",
            ),
            probes: r.counter(
                "parlayann_store_probes_total",
                &[],
                "shard sub-searches that answered",
            ),
            shard_down: r.counter(
                "parlayann_store_shard_down_total",
                &[],
                "selected shards whose every replica was down",
            ),
            queries: r.counter(
                "parlayann_store_queries_total",
                &[],
                "queries answered by the sharded store",
            ),
        })
    }

    /// One shard sub-search finished: histogram + trace span + counter.
    #[inline]
    fn shard_done(&self, slot: usize, ns: u64, answered: bool) {
        self.shard_search_ns[slot].record(ns);
        parlayann_obs::record_shard_span(slot, ns);
        if answered {
            self.probes.inc();
        } else {
            self.shard_down.inc();
        }
    }

    /// A batch merge finished: histogram + trace span.
    #[inline]
    fn merge_done(&self, ns: u64) {
        self.merge_ns.record(ns);
        parlayann_obs::record_merge_span(ns);
    }
}

/// The `(distance, global id)` merge order (matches the query layer's
/// internal ordering; ids are unique across shards, so this is total).
#[inline]
fn cmp_dist(a: &(u32, f32), b: &(u32, f32)) -> Ordering {
    a.1.total_cmp(&b.1).then(a.0.cmp(&b.0))
}

/// Deterministic k-way merge of per-shard result lists (each sorted by
/// `(distance, id)`), yielding the first `k` of the combined order.
/// Cursor-based: each step takes the least head among the lists — with
/// unique keys the outcome is independent of list order. Accepts any
/// borrowed list shape (`&[Vec<_>]`, `&[&[_]]`) so per-query merges
/// never need to clone shard results.
pub fn merge_topk<L: AsRef<[(u32, f32)]>>(lists: &[L], k: usize) -> Vec<(u32, f32)> {
    let mut cursors = vec![0usize; lists.len()];
    let total: usize = lists.iter().map(|l| l.as_ref().len()).sum();
    let mut out = Vec::with_capacity(k.min(total));
    while out.len() < k {
        let mut best: Option<(usize, (u32, f32))> = None;
        for (s, list) in lists.iter().enumerate() {
            if let Some(&head) = list.as_ref().get(cursors[s]) {
                if best.is_none_or(|(_, b)| cmp_dist(&head, &b) == Ordering::Less) {
                    best = Some((s, head));
                }
            }
        }
        let Some((s, head)) = best else { break };
        cursors[s] += 1;
        out.push(head);
    }
    out
}

/// Substitutes global ids into a shard-local result list in place.
fn globalize(res: &mut [(u32, f32)], globals: &[u32]) {
    for r in res.iter_mut() {
        r.0 = globals[r.0 as usize];
    }
}

/// Sums per-shard stats (integer counters — order-independent).
fn merge_stats(per_shard: impl IntoIterator<Item = SearchStats>) -> SearchStats {
    let mut total = SearchStats::default();
    for s in per_shard {
        total.merge(&s);
    }
    total
}

impl<T: VectorElem> ShardedIndex<T> {
    /// Partitions `points` with `partitioner` and builds one sub-index
    /// per shard via `build_shard(shard_idx, shard_points)`. Shards the
    /// partitioner left empty are skipped (k-means can starve a
    /// centroid), and for k-means partitioners the trained centroids of
    /// the retained slots are kept as the store's [`ShardCodebook`] (so
    /// routing can be enabled with [`with_routing`](Self::with_routing)).
    /// Shard builds run sequentially — each build is itself parallel on
    /// the pool — so the result is deterministic whenever `build_shard`
    /// is.
    pub fn build_with<F>(points: &PointSet<T>, partitioner: Partitioner, build_shard: F) -> Self
    where
        F: Fn(usize, PointSet<T>) -> Arc<dyn AnnIndex<T> + Send + Sync>,
    {
        let (assignment, model) = partitioner.assign_with_model(points);
        let members = shard_members(&assignment, partitioner.shards());
        let mut retained = Vec::new();
        let shards: Vec<Shard<T>> = members
            .into_iter()
            .enumerate()
            .filter(|(_, globals)| !globals.is_empty())
            .map(|(s, globals)| {
                retained.push(s);
                let index = build_shard(s, points.gather(&globals));
                assert_eq!(
                    index.len(),
                    globals.len(),
                    "shard {s}: built index size diverges from its member count"
                );
                Shard { index, globals }
            })
            .collect();
        let mut built = Self::from_shards(shards, partitioner, points.dim());
        if let Some(model) = model {
            built.set_codebook(Some(ShardCodebook::from_model(&model, &retained)));
        }
        built
    }

    /// Assembles a sharded index from prebuilt shards (manifest load,
    /// tests, external construction), with no codebook (attach one with
    /// [`set_codebook`](Self::set_codebook)). Validates that the shards'
    /// global ids exactly cover `0..total` — a wrong id map would
    /// silently corrupt every merge. Each shard's index becomes replica 0
    /// of its [`ReplicaSet`] (default [`BreakerConfig`]; see
    /// [`with_breaker_config`](Self::with_breaker_config)).
    pub fn from_shards(shards: Vec<Shard<T>>, partitioner: Partitioner, dim: usize) -> Self {
        let len: usize = shards.iter().map(|s| s.globals.len()).sum();
        let mut seen = vec![false; len];
        for (s, shard) in shards.iter().enumerate() {
            assert_eq!(
                shard.index.len(),
                shard.globals.len(),
                "shard {s}: index/id-map size mismatch"
            );
            for &g in &shard.globals {
                assert!(
                    (g as usize) < len && !std::mem::replace(&mut seen[g as usize], true),
                    "shard {s}: global id {g} out of range or duplicated"
                );
            }
        }
        let cfg = BreakerConfig::default();
        let sets = Self::make_sets(&shards, cfg);
        let obs = StoreObs::register(shards.len());
        ShardedIndex {
            shards,
            sets,
            partitioner,
            codebook: None,
            routing: Routing::default(),
            dim,
            len,
            obs,
        }
    }

    fn make_sets(shards: &[Shard<T>], cfg: BreakerConfig) -> Vec<ReplicaSet<T>> {
        shards
            .iter()
            .enumerate()
            .map(|(s, shard)| {
                // Distinct routing seed per slot so replica choices
                // decorrelate across shards within one request.
                let seed = parlay::hash64_pair(0x0005_ea1e_d5e7, s as u64);
                let mut set = ReplicaSet::new(Arc::clone(&shard.index), seed, cfg);
                set.enable_obs(s);
                set
            })
            .collect()
    }

    /// Replaces every replica set's breaker thresholds. Resets the sets
    /// to primaries only (call before [`add_replica`](Self::add_replica))
    /// and restarts their call counters and breaker state.
    pub fn with_breaker_config(mut self, cfg: BreakerConfig) -> Self {
        self.sets = Self::make_sets(&self.shards, cfg);
        self
    }

    /// Registers a bit-identical replica for shard slot `shard`. The
    /// replica must present the same corpus as the shard's primary
    /// (usually an `Arc` clone of the same build, possibly wrapped in
    /// [`crate::FaultyIndex`] under test); length is checked against the
    /// shard's id map. Replicas serve queries but are **not** persisted —
    /// a manifest records primaries only.
    pub fn add_replica(&mut self, shard: usize, replica: Arc<dyn AnnIndex<T> + Send + Sync>) {
        assert_eq!(
            replica.len(),
            self.shards[shard].globals.len(),
            "shard {shard}: replica size diverges from the shard's id map"
        );
        self.sets[shard].push(replica);
    }

    /// The replica sets, in shard order (health introspection).
    pub fn replica_sets(&self) -> &[ReplicaSet<T>] {
        &self.sets
    }

    /// Per-shard breaker states, in shard and replica order.
    pub fn breaker_states(&self) -> Vec<Vec<BreakerState>> {
        self.sets.iter().map(|s| s.breaker_states()).collect()
    }

    /// The shards, in storage order.
    pub fn shards(&self) -> &[Shard<T>] {
        &self.shards
    }

    /// Decomposes into the shard vector (re-assemble any permutation via
    /// [`from_shards`](Self::from_shards) — results are order-invariant).
    /// Added replicas, breaker state, codebook, and routing are dropped —
    /// only primaries survive decomposition, mirroring what a manifest's
    /// shard section persists.
    pub fn into_shards(self) -> Vec<Shard<T>> {
        self.shards
    }

    /// The partitioner this index was built (or loaded) with.
    pub fn partitioner(&self) -> Partitioner {
        self.partitioner
    }

    /// Attaches (or clears) the shard-centroid codebook routed search
    /// ranks against. Row `s` must be the centroid of `shards()[s]`.
    ///
    /// # Panics
    /// If the codebook's row count or dimensionality disagrees with the
    /// store.
    pub fn set_codebook(&mut self, codebook: Option<ShardCodebook>) {
        if let Some(cb) = &codebook {
            assert_eq!(
                cb.len(),
                self.shards.len(),
                "codebook rows must match the shard count"
            );
            assert_eq!(cb.dim(), self.dim, "codebook dim must match the store");
        }
        self.codebook = codebook;
    }

    /// The shard-centroid codebook, if any (k-means builds and manifest
    /// v2 loads have one; hash builds and pre-codebook manifests don't).
    pub fn codebook(&self) -> Option<&ShardCodebook> {
        self.codebook.as_ref()
    }

    /// Sets the partial fan-out dial (see [`Routing`]); builder form.
    pub fn with_routing(mut self, routing: Routing) -> Self {
        self.set_routing(routing);
        self
    }

    /// Sets the partial fan-out dial (see [`Routing`]). Takes effect on
    /// the next search; no rebuild. Without a codebook the dial is
    /// inert (full fan-out).
    pub fn set_routing(&mut self, routing: Routing) {
        self.routing = routing;
    }

    /// The current partial fan-out configuration.
    pub fn routing(&self) -> Routing {
        self.routing
    }

    /// The shard slots to search for `query`: `None` = all (routing
    /// disabled or no codebook), `Some(slots)` in increasing slot order.
    fn route(&self, query: &[T]) -> Option<Vec<usize>> {
        let cb = self.codebook.as_ref()?;
        if self.routing.nprobe == 0 {
            return None;
        }
        Some(cb.route(query, self.routing.nprobe))
    }

    /// Fan-out + merge over full-batch per-shard results (`None` = that
    /// shard was down). Every query's stats are stamped with the
    /// fan-out's shard-health view: selected count (= all shards here),
    /// surviving count, failed set, and the batch's failover total (the
    /// failovers this response's batch paid for).
    fn merge_batches(
        &self,
        per_shard: Vec<Option<Vec<(Vec<(u32, f32)>, SearchStats)>>>,
        failovers: u32,
        nq: usize,
        k: usize,
    ) -> Vec<(Vec<(u32, f32)>, SearchStats)> {
        let (probed, failed) = health(&per_shard);
        let routed = self.shards.len() as u32;
        let merge_start = self.obs.as_ref().map(|_| Instant::now());
        let merged = parlay::tabulate(nq, |q| {
            let lists: Vec<&[(u32, f32)]> = per_shard
                .iter()
                .flatten()
                .map(|shard_res| shard_res[q].0.as_slice())
                .collect();
            let mut stats = merge_stats(per_shard.iter().flatten().map(|shard_res| shard_res[q].1));
            stats.routed_shards = routed;
            stats.probed_shards = probed;
            stats.failed_shards = failed;
            stats.failovers = failovers;
            (merge_topk(&lists, k), stats)
        });
        if let (Some(o), Some(t0)) = (&self.obs, merge_start) {
            o.merge_done(t0.elapsed().as_nanos() as u64);
            o.queries.add(nq as u64);
        }
        merged
    }

    /// Runs `run_shard` on one replica of every shard (sequentially — the
    /// per-shard batch path is already parallel), failing over within
    /// each [`ReplicaSet`] and globalizing the ids. Returns the
    /// per-shard results (`None` = every replica down) and the total
    /// failover count.
    fn fan_out_batch<F>(
        &self,
        run_shard: F,
    ) -> (Vec<Option<Vec<(Vec<(u32, f32)>, SearchStats)>>>, u32)
    where
        F: Fn(&dyn AnnIndex<T>) -> Vec<(Vec<(u32, f32)>, SearchStats)>,
    {
        let mut failovers = 0u32;
        let per_shard = self
            .shards
            .iter()
            .zip(&self.sets)
            .enumerate()
            .map(|(s, (shard, set))| {
                let t0 = self.obs.as_ref().map(|_| Instant::now());
                let outcome = set.run(&run_shard);
                if let (Some(o), Some(t0)) = (&self.obs, t0) {
                    o.shard_done(s, t0.elapsed().as_nanos() as u64, outcome.is_some());
                }
                let outcome = outcome?;
                failovers += outcome.failovers;
                let mut res = outcome.value;
                for (r, _) in &mut res {
                    globalize(r, &shard.globals);
                }
                Some(res)
            })
            .collect();
        (per_shard, failovers)
    }

    /// Routed batch fan-out: every query is ranked against the codebook
    /// first, the queries targeting each shard are grouped into one
    /// sub-batch per shard (so the shard's batch path still sees a
    /// batch), and each query merges the rows it contributed to its
    /// target shards. A shard every query targets receives the original
    /// query set — which is how `nprobe = N` runs byte-for-byte the same
    /// shard calls as full fan-out. Shards no query targets are not
    /// probed at all (and their replica-set call counters don't advance).
    fn routed_batch<F>(
        &self,
        queries: &PointSet<T>,
        nprobe: usize,
        k: usize,
        run_shard: F,
    ) -> Vec<(Vec<(u32, f32)>, SearchStats)>
    where
        F: Fn(&dyn AnnIndex<T>, &PointSet<T>) -> Vec<(Vec<(u32, f32)>, SearchStats)>,
    {
        let cb = self
            .codebook
            .as_ref()
            .expect("routed_batch requires a codebook");
        let nq = queries.len();
        let targets: Vec<Vec<usize>> = parlay::tabulate(nq, |q| cb.route(queries.point(q), nprobe));
        // Group queries by target shard; remember where each query's row
        // lands in each shard's sub-batch.
        let mut shard_qids: Vec<Vec<u32>> = vec![Vec::new(); self.shards.len()];
        let mut rows: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nq];
        for (q, tgt) in targets.iter().enumerate() {
            for &s in tgt {
                rows[q].push((s, shard_qids[s].len()));
                shard_qids[s].push(q as u32);
            }
        }
        // One sub-batch per targeted shard, sequentially (each shard's
        // batch path is already parallel), through the replica sets.
        let mut failovers = 0u32;
        let per_shard: Vec<Option<Vec<(Vec<(u32, f32)>, SearchStats)>>> = self
            .shards
            .iter()
            .zip(&self.sets)
            .zip(&shard_qids)
            .enumerate()
            .map(|(s, ((shard, set), qids))| {
                if qids.is_empty() {
                    return Some(Vec::new());
                }
                // Full coverage reuses the caller's query set: no copy,
                // and bit-for-bit the full fan-out call.
                let gathered: Option<PointSet<T>> =
                    (qids.len() != nq).then(|| queries.gather(qids));
                let sub = gathered.as_ref().unwrap_or(queries);
                let t0 = self.obs.as_ref().map(|_| Instant::now());
                let outcome = set.run(|idx| run_shard(idx, sub));
                if let (Some(o), Some(t0)) = (&self.obs, t0) {
                    o.shard_done(s, t0.elapsed().as_nanos() as u64, outcome.is_some());
                }
                let outcome = outcome?;
                failovers += outcome.failovers;
                let mut res = outcome.value;
                for (r, _) in &mut res {
                    globalize(r, &shard.globals);
                }
                Some(res)
            })
            .collect();
        // Per-query merge over the shards this query targeted (slot
        // order), with per-query health relative to its selection.
        let merge_start = self.obs.as_ref().map(|_| Instant::now());
        let merged = parlay::tabulate(nq, |q| {
            let mut lists: Vec<&[(u32, f32)]> = Vec::with_capacity(rows[q].len());
            let mut stats = SearchStats::default();
            let mut failed = ShardSet::new();
            let mut probed = 0u32;
            for &(s, row) in &rows[q] {
                match &per_shard[s] {
                    Some(res) => {
                        let (r, st) = &res[row];
                        lists.push(r.as_slice());
                        stats.merge(st);
                        probed += 1;
                    }
                    None => failed.insert(s),
                }
            }
            stats.routed_shards = rows[q].len() as u32;
            stats.probed_shards = probed;
            stats.failed_shards = failed;
            stats.failovers = failovers;
            (merge_topk(&lists, k), stats)
        });
        if let (Some(o), Some(t0)) = (&self.obs, merge_start) {
            o.merge_done(t0.elapsed().as_nanos() as u64);
            o.queries.add(nq as u64);
        }
        merged
    }
}

/// Surviving-shard count and failed-slot set of a full fan-out.
fn health<R>(per_shard: &[Option<R>]) -> (u32, ShardSet) {
    let mut probed = 0u32;
    let mut failed = ShardSet::new();
    for (s, res) in per_shard.iter().enumerate() {
        match res {
            Some(_) => probed += 1,
            None => failed.insert(s),
        }
    }
    (probed, failed)
}

impl<T: VectorElem> AnnIndex<T> for ShardedIndex<T> {
    /// Single-query fan-out: target shards searched in parallel on the
    /// pool (each through its replica set), merged by
    /// `(distance, global id)` over whichever of them survive. Targets
    /// are all shards, or the routed subset (see [`Routing`]) — the
    /// routed path enumerates slots in increasing order, so
    /// `nprobe = N` is bitwise-identical to full fan-out.
    fn search(&self, query: &[T], params: &QueryParams) -> (Vec<(u32, f32)>, SearchStats) {
        let routed = self.route(query);
        let targets: Vec<usize> = match routed {
            Some(t) => t,
            None => (0..self.shards.len()).collect(),
        };
        let per_target: Vec<Option<(Vec<(u32, f32)>, SearchStats, u32)>> =
            parlay::tabulate(targets.len(), |t| {
                let s = targets[t];
                let shard = &self.shards[s];
                let t0 = self.obs.as_ref().map(|_| Instant::now());
                let outcome = self.sets[s].run(|idx| idx.search(query, params));
                if let (Some(o), Some(t0)) = (&self.obs, t0) {
                    o.shard_done(s, t0.elapsed().as_nanos() as u64, outcome.is_some());
                }
                let outcome = outcome?;
                let (mut res, stats) = outcome.value;
                globalize(&mut res, &shard.globals);
                Some((res, stats, outcome.failovers))
            });
        if let Some(o) = &self.obs {
            o.queries.inc();
        }
        let mut failed = ShardSet::new();
        let mut probed = 0u32;
        for (t, res) in per_target.iter().enumerate() {
            match res {
                Some(_) => probed += 1,
                None => failed.insert(targets[t]),
            }
        }
        let mut lists = Vec::with_capacity(probed as usize);
        let mut stats = SearchStats::default();
        let mut failovers = 0u32;
        for (res, st, f) in per_target.into_iter().flatten() {
            lists.push(res);
            stats.merge(&st);
            failovers += f;
        }
        stats.routed_shards = targets.len() as u32;
        stats.probed_shards = probed;
        stats.failed_shards = failed;
        stats.failovers = failovers;
        (merge_topk(&lists, params.k), stats)
    }

    fn name(&self) -> String {
        format!("sharded[{}×{}]", self.shards.len(), self.partitioner.name())
    }

    fn kind(&self) -> IndexKind {
        IndexKind::Sharded
    }

    fn stats(&self) -> IndexStats {
        let mut out = IndexStats {
            points: self.len,
            dim: self.dim,
            edges: 0,
            max_degree: 0,
            layers: self.shards.len(),
            build: Default::default(),
        };
        for shard in &self.shards {
            let s = shard.index.stats();
            out.edges += s.edges;
            out.max_degree = out.max_degree.max(s.max_degree);
            out.build.seconds += s.build.seconds;
            out.build.dist_comps += s.build.dist_comps;
        }
        out
    }

    fn len(&self) -> usize {
        self.len
    }

    fn dim(&self) -> usize {
        self.dim
    }

    /// Batched fan-out: without routing, each shard runs the whole query
    /// set through its own batch-parallel `search_batch`; with routing,
    /// queries are routed first and grouped into per-shard sub-batches
    /// ([`routed_batch`](Self::routed_batch)). Per-query merges run in
    /// parallel either way. This is also the serving path: the server's
    /// workers call it, so the fan-out happens **inside** a dispatched
    /// batch.
    fn search_batch(
        &self,
        queries: &PointSet<T>,
        params: &QueryParams,
    ) -> Vec<(Vec<(u32, f32)>, SearchStats)> {
        if self.codebook.is_some() && self.routing.nprobe > 0 {
            return self.routed_batch(queries, self.routing.nprobe, params.k, |idx, qs| {
                idx.search_batch(qs, params)
            });
        }
        let (per_shard, failovers) = self.fan_out_batch(|idx| idx.search_batch(queries, params));
        self.merge_batches(per_shard, failovers, queries.len(), params.k)
    }

    /// Range fan-out: shards report independently (parallel), and the
    /// disjoint hit lists merge under the same total order (no `k`
    /// truncation — everything within the radius is reported). Always a
    /// **full** fan-out, routing notwithstanding: the radius contract is
    /// about the whole corpus.
    fn range_search(&self, query: &[T], params: &RangeParams) -> (Vec<(u32, f32)>, SearchStats) {
        let per_shard: Vec<Option<(Vec<(u32, f32)>, SearchStats, u32)>> =
            parlay::tabulate(self.shards.len(), |s| {
                let shard = &self.shards[s];
                let outcome = self.sets[s].run(|idx| idx.range_search(query, params))?;
                let (mut res, stats) = outcome.value;
                globalize(&mut res, &shard.globals);
                Some((res, stats, outcome.failovers))
            });
        let (probed, failed) = health(&per_shard);
        let mut lists = Vec::with_capacity(probed as usize);
        let mut stats = SearchStats::default();
        let mut failovers = 0u32;
        for (res, st, f) in per_shard.into_iter().flatten() {
            lists.push(res);
            stats.merge(&st);
            failovers += f;
        }
        stats.routed_shards = self.shards.len() as u32;
        stats.probed_shards = probed;
        stats.failed_shards = failed;
        stats.failovers = failovers;
        (merge_topk(&lists, usize::MAX), stats)
    }

    /// Persists as a manifest **directory** at `path` (see
    /// [`crate::manifest`]); reload via [`crate::load_manifest`].
    fn save_index(&self, path: &std::path::Path) -> std::io::Result<()> {
        crate::manifest::save_manifest_dyn(path, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExactIndex;
    use ann_data::bigann_like;

    fn exact_sharded(n: usize, shards: usize, seed: u64) -> (ShardedIndex<u8>, ExactIndex<u8>) {
        let d = bigann_like(n, 1, seed);
        let metric = d.metric;
        let sharded = ShardedIndex::build_with(&d.points, Partitioner::hash(shards, 7), |_, ps| {
            Arc::new(ExactIndex::new(ps, metric))
        });
        (sharded, ExactIndex::new(d.points, metric))
    }

    fn exact_kmeans_sharded(n: usize, shards: usize, seed: u64) -> ShardedIndex<u8> {
        let d = bigann_like(n, 1, seed);
        let metric = d.metric;
        ShardedIndex::build_with(&d.points, Partitioner::kmeans(shards, 7), |_, ps| {
            Arc::new(ExactIndex::new(ps, metric))
        })
    }

    #[test]
    fn merge_topk_takes_global_order() {
        let lists = vec![
            vec![(3, 0.5), (1, 2.0)],
            vec![(0, 1.0), (2, 2.0)], // (1,2.0) vs (2,2.0): id breaks the tie
            vec![],
        ];
        assert_eq!(merge_topk(&lists, 3), vec![(3, 0.5), (0, 1.0), (1, 2.0)]);
        assert_eq!(merge_topk(&lists, 10).len(), 4);
        assert_eq!(merge_topk(&lists, 0), vec![]);
    }

    #[test]
    fn sharded_exact_equals_whole_corpus_exact() {
        let (sharded, whole) = exact_sharded(600, 4, 21);
        let d = bigann_like(600, 12, 21);
        let params = QueryParams {
            k: 10,
            ..QueryParams::default()
        };
        for q in 0..d.queries.len() {
            let (got, _) = sharded.search(d.queries.point(q), &params);
            let (want, _) = whole.search(d.queries.point(q), &params);
            assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.0, b.0, "query {q}");
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "query {q}");
            }
        }
    }

    #[test]
    fn shard_order_does_not_change_results() {
        let (sharded, _) = exact_sharded(400, 4, 33);
        let d = bigann_like(400, 6, 33);
        let params = QueryParams {
            k: 8,
            ..QueryParams::default()
        };
        let baseline: Vec<_> = (0..d.queries.len())
            .map(|q| sharded.search(d.queries.point(q), &params).0)
            .collect();
        // Rebuild with the shard vector reversed: same shards, different
        // enumeration order.
        let partitioner = sharded.partitioner();
        let dim = AnnIndex::dim(&sharded);
        let mut shards: Vec<Shard<u8>> = sharded
            .shards
            .into_iter()
            .map(|s| Shard {
                index: s.index,
                globals: s.globals,
            })
            .collect();
        shards.reverse();
        let permuted = ShardedIndex::from_shards(shards, partitioner, dim);
        for (q, want) in baseline.iter().enumerate() {
            let (got, _) = permuted.search(d.queries.point(q), &params);
            assert_eq!(&got, want, "query {q} changed under shard permutation");
        }
    }

    #[test]
    fn batch_paths_match_single_query_bitwise() {
        let (sharded, _) = exact_sharded(500, 3, 44);
        let d = bigann_like(500, 20, 44);
        let params = QueryParams {
            k: 6,
            ..QueryParams::default()
        };
        let batched = parlay::with_threads(1, || sharded.search_batch(&d.queries, &params));
        let at_8 = parlay::with_threads(8, || sharded.search_batch(&d.queries, &params));
        for q in 0..d.queries.len() {
            let (single, single_stats) = sharded.search(d.queries.point(q), &params);
            assert_eq!(batched[q].0, single, "batch vs single, query {q}");
            assert_eq!(batched[q].1, single_stats);
            assert_eq!(at_8[q].0, single, "8 threads vs single, query {q}");
            assert_eq!(at_8[q].1, single_stats);
        }
    }

    #[test]
    fn routed_batch_paths_match_routed_single_query() {
        let mut sharded = exact_kmeans_sharded(700, 4, 61);
        sharded.set_routing(Routing::nprobe(2));
        let d = bigann_like(700, 16, 61);
        let params = QueryParams {
            k: 6,
            ..QueryParams::default()
        };
        let batched = parlay::with_threads(1, || sharded.search_batch(&d.queries, &params));
        let at_8 = parlay::with_threads(8, || sharded.search_batch(&d.queries, &params));
        for q in 0..d.queries.len() {
            let (single, single_stats) = sharded.search(d.queries.point(q), &params);
            assert_eq!(single_stats.routed_shards, 2);
            assert_eq!(single_stats.probed_shards, 2);
            assert_eq!(batched[q].0, single, "routed batch vs single, query {q}");
            assert_eq!(batched[q].1, single_stats);
            assert_eq!(at_8[q].0, single, "routed 8 threads vs single, query {q}");
            assert_eq!(at_8[q].1, single_stats);
        }
    }

    #[test]
    fn routing_nprobe_one_searches_exactly_the_closest_shard() {
        let mut sharded = exact_kmeans_sharded(400, 4, 71);
        sharded.set_routing(Routing::nprobe(1));
        let d = bigann_like(400, 8, 71);
        let params = QueryParams {
            k: 5,
            ..QueryParams::default()
        };
        let cb = sharded
            .codebook()
            .expect("kmeans build has a codebook")
            .clone();
        for q in 0..d.queries.len() {
            let (res, stats) = sharded.search(d.queries.point(q), &params);
            assert_eq!(stats.routed_shards, 1);
            assert_eq!(stats.probed_shards, 1);
            // Every result id must live in the routed shard.
            let slot = cb.route(d.queries.point(q), 1)[0];
            let members: std::collections::HashSet<u32> =
                sharded.shards()[slot].globals.iter().copied().collect();
            for &(id, _) in &res {
                assert!(
                    members.contains(&id),
                    "query {q}: id {id} not in shard {slot}"
                );
            }
        }
    }

    #[test]
    fn routing_without_codebook_is_inert() {
        let (mut sharded, whole) = exact_sharded(300, 3, 81);
        assert!(sharded.codebook().is_none(), "hash build has no codebook");
        sharded.set_routing(Routing::nprobe(1));
        let d = bigann_like(300, 5, 81);
        let params = QueryParams {
            k: 7,
            ..QueryParams::default()
        };
        for q in 0..d.queries.len() {
            let (got, stats) = sharded.search(d.queries.point(q), &params);
            let (want, _) = whole.search(d.queries.point(q), &params);
            assert_eq!(got, want, "query {q}");
            assert_eq!(stats.routed_shards, 3, "full fan-out targets all shards");
        }
    }

    #[test]
    fn range_search_unions_shards() {
        let (sharded, whole) = exact_sharded(300, 4, 55);
        let d = bigann_like(300, 4, 55);
        let (top, _) = whole.search(
            d.queries.point(0),
            &QueryParams {
                k: 12,
                ..QueryParams::default()
            },
        );
        let rp = RangeParams {
            radius: top[11].1,
            ..RangeParams::default()
        };
        let (got, _) = sharded.range_search(d.queries.point(0), &rp);
        let (want, _) = whole.range_search(d.queries.point(0), &rp);
        assert_eq!(got, want);
    }

    #[test]
    fn range_search_ignores_routing() {
        let mut sharded = exact_kmeans_sharded(300, 4, 91);
        let d = bigann_like(300, 3, 91);
        let rp = RangeParams {
            radius: 1e9,
            ..RangeParams::default()
        };
        let (want, _) = sharded.range_search(d.queries.point(0), &rp);
        sharded.set_routing(Routing::nprobe(1));
        let (got, stats) = sharded.range_search(d.queries.point(0), &rp);
        assert_eq!(got, want, "range must stay exhaustive under routing");
        assert_eq!(stats.probed_shards, 4);
    }

    #[test]
    #[should_panic(expected = "out of range or duplicated")]
    fn from_shards_rejects_bad_id_maps() {
        let d = bigann_like(10, 1, 1);
        let metric = d.metric;
        let shard = Shard {
            index: Arc::new(ExactIndex::new(d.points.clone(), metric))
                as Arc<dyn AnnIndex<u8> + Send + Sync>,
            globals: vec![0; 10], // duplicate ids
        };
        ShardedIndex::from_shards(vec![shard], Partitioner::hash(1, 0), d.points.dim());
    }
}
