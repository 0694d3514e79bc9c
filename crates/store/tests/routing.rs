//! Property tests for partial fan-out routing.
//!
//! The routing contract has three load-bearing clauses:
//!
//! 1. **`p = N` is full fan-out, bitwise** — routing through the whole
//!    codebook selects every slot in increasing order, so results *and*
//!    stats must equal the unrouted store's, across index families,
//!    search paths, and thread counts.
//! 2. **Partial probes are deterministic** — `p < N` results are a pure
//!    function of `(store, query, p)`, identical at 1 and 8 threads, on
//!    the single-query and batch paths alike, and every reported id
//!    really lives in one of the `p` selected shards.
//! 3. **The persisted codebook routes like the fresh one** — a store
//!    round-tripped through the manifest makes identical routing
//!    decisions and returns identical bits.

use ann_data::{bigann_like, PointSet};
use parlayann::{AnnIndex, QueryParams, VamanaIndex, VamanaParams};
use parlayann_store::{
    load_manifest, save_manifest, ExactIndex, Partitioner, Routing, ShardedIndex,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

fn kmeans_store(
    points: &PointSet<u8>,
    metric: ann_data::Metric,
    shards: usize,
    seed: u64,
    vamana: bool,
) -> ShardedIndex<u8> {
    ShardedIndex::build_with(points, Partitioner::kmeans(shards, seed), |_, ps| {
        if vamana {
            Arc::new(VamanaIndex::build(ps, metric, &VamanaParams::default()))
                as Arc<dyn AnnIndex<u8> + Send + Sync>
        } else {
            Arc::new(ExactIndex::new(ps, metric)) as Arc<dyn AnnIndex<u8> + Send + Sync>
        }
    })
}

/// Bitwise comparison of two per-query result lists, stats included.
/// Panics on divergence (the offline proptest shim's `prop_assert*` are
/// panic-based too, so this composes with the proptest blocks below).
fn assert_rows_bitwise(
    a: &[(Vec<(u32, f32)>, parlayann::SearchStats)],
    b: &[(Vec<(u32, f32)>, parlayann::SearchStats)],
    label: &str,
) {
    assert_eq!(a.len(), b.len(), "{label}: row count");
    for (q, ((ra, sa), (rb, sb))) in a.iter().zip(b).enumerate() {
        assert_eq!(ra.len(), rb.len(), "{label}: query {q} length");
        for (x, y) in ra.iter().zip(rb) {
            assert_eq!(x.0, y.0, "{label}: query {q} id");
            assert_eq!(x.1.to_bits(), y.1.to_bits(), "{label}: query {q} dist");
        }
        assert_eq!(sa, sb, "{label}: query {q} stats");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Clause 1: `nprobe = N` runs the routed machinery (codebook
    /// ranking, slot selection, grouped batches) yet must be
    /// bit-identical — results and stats — to the unrouted store, for
    /// exact and Vamana shards, on all three search paths, at 1 and 8
    /// threads.
    #[test]
    fn routed_full_probe_is_bitwise_equal_to_full_fanout(
        n in 60usize..220,
        shards in 2usize..6,
        k in 1usize..10,
        seed in 0u64..500,
        vamana in any::<bool>(),
    ) {
        let d = bigann_like(n, 6, seed);
        let metric = d.metric;
        let full = kmeans_store(&d.points, metric, shards, seed ^ 3, vamana);
        prop_assert!(full.codebook().is_some());
        let nshards = full.shards().len();
        let mut routed = kmeans_store(&d.points, metric, shards, seed ^ 3, vamana);
        routed.set_routing(Routing::nprobe(nshards));
        let params = QueryParams { k, ..QueryParams::default() };

        for threads in [1usize, 8] {
            let (a, b) = parlay::with_threads(threads, || {
                (
                    full.search_batch(&d.queries, &params),
                    routed.search_batch(&d.queries, &params),
                )
            });
            assert_rows_bitwise(&a, &b, "batch");

            let (a, b): (Vec<_>, Vec<_>) = parlay::with_threads(threads, || {
                (
                    (0..d.queries.len())
                        .map(|q| full.search(d.queries.point(q), &params))
                        .collect(),
                    (0..d.queries.len())
                        .map(|q| routed.search(d.queries.point(q), &params))
                        .collect(),
                )
            });
            assert_rows_bitwise(&a, &b, "single query");
        }
    }

    /// Clause 2: partial probes (`1 ≤ p < N`) are thread-invariant,
    /// agree between `search` and `search_batch`, stamp `routed = p` /
    /// `probed = p` into the stats, and only ever return ids from the
    /// selected shards.
    #[test]
    fn partial_probe_is_deterministic_and_stays_in_selected_shards(
        n in 80usize..220,
        shards in 3usize..7,
        k in 1usize..8,
        seed in 0u64..500,
        probe_seed in 0usize..8,
    ) {
        let d = bigann_like(n, 5, seed);
        let metric = d.metric;
        let mut store = kmeans_store(&d.points, metric, shards, seed ^ 7, false);
        let nshards = store.shards().len();
        let p = 1 + probe_seed % nshards.max(1);
        store.set_routing(Routing::nprobe(p));
        let cb = store.codebook().expect("kmeans store has a codebook").clone();
        let params = QueryParams { k, ..QueryParams::default() };

        let t1 = parlay::with_threads(1, || store.search_batch(&d.queries, &params));
        let t8 = parlay::with_threads(8, || store.search_batch(&d.queries, &params));
        assert_rows_bitwise(&t1, &t8, "1 vs 8 threads");

        for (q, t1_row) in t1.iter().enumerate() {
            let (res, stats) = store.search(d.queries.point(q), &params);
            prop_assert_eq!(&res, &t1_row.0, "single vs batch, query {}", q);
            prop_assert_eq!(stats.routed_shards, p.min(nshards) as u32);
            prop_assert_eq!(stats.probed_shards, p.min(nshards) as u32);
            prop_assert!(!stats.degraded());
            let selected = cb.route(d.queries.point(q), p);
            let allowed: std::collections::HashSet<u32> = selected
                .iter()
                .flat_map(|&s| store.shards()[s].globals.iter().copied())
                .collect();
            for &(id, _) in &res {
                prop_assert!(
                    allowed.contains(&id),
                    "query {}: id {} outside the {} selected shards",
                    q, id, p
                );
            }
        }
    }
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("parlayann-routing-{}-{name}", std::process::id()));
    p
}

/// Clause 3: the codebook that comes back from a manifest routes exactly
/// like the freshly trained one — same slot selections, same bits, same
/// probed counts — at a partial `p`.
#[test]
fn manifest_codebook_routes_identically_to_fresh() {
    let d = bigann_like(800, 20, 303);
    let metric = d.metric;
    let mut fresh = ShardedIndex::build_with(&d.points, Partitioner::kmeans(8, 11), |_, ps| {
        Arc::new(VamanaIndex::build(ps, metric, &VamanaParams::default()))
            as Arc<dyn AnnIndex<u8> + Send + Sync>
    });
    let dir = tmp("cb-route");
    let _ = std::fs::remove_dir_all(&dir);
    save_manifest(&dir, &fresh).unwrap();
    let mut loaded = load_manifest::<u8>(&dir).unwrap();

    let fresh_cb = fresh
        .codebook()
        .expect("fresh store has a codebook")
        .clone();
    let loaded_cb = loaded
        .codebook()
        .expect("loaded store has a codebook")
        .clone();
    for q in 0..d.queries.len() {
        assert_eq!(
            fresh_cb.route(d.queries.point(q), 2),
            loaded_cb.route(d.queries.point(q), 2),
            "query {q}: routing decisions diverged after the round trip"
        );
    }

    fresh.set_routing(Routing::nprobe(2));
    loaded.set_routing(Routing::nprobe(2));
    let params = QueryParams {
        k: 10,
        beam: 32,
        ..QueryParams::default()
    };
    let want = fresh.search_batch(&d.queries, &params);
    let got = loaded.search_batch(&d.queries, &params);
    for (q, ((w, ws), (g, gs))) in want.iter().zip(&got).enumerate() {
        assert_eq!(w.len(), g.len(), "query {q}");
        for (a, b) in w.iter().zip(g) {
            assert_eq!(a.0, b.0, "query {q}");
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "query {q}");
        }
        assert_eq!(ws, gs, "query {q} stats");
        assert_eq!(ws.routed_shards, 2);
        assert_eq!(ws.probed_shards, 2);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Routed + degraded interaction: a down shard only degrades the queries
/// that were routed to it — a query whose selection avoids the dead slot
/// reports a clean (non-degraded) answer, and `routed = probed + failed`
/// holds per query.
#[test]
fn routed_search_degrades_only_queries_that_selected_the_dead_shard() {
    use parlayann_store::{BreakerConfig, FaultPlan, FaultyIndex, Shard};
    parlayann_store::silence_injected_panics();
    let d = bigann_like(600, 40, 515);
    let metric = d.metric;
    let base = ShardedIndex::build_with(&d.points, Partitioner::kmeans(4, 9), |_, ps| {
        Arc::new(ExactIndex::new(ps, metric)) as Arc<dyn AnnIndex<u8> + Send + Sync>
    });
    let partitioner = base.partitioner();
    let dim = AnnIndex::dim(&base);
    let codebook = base.codebook().expect("kmeans build").clone();
    // Kill the slot that best splits the query set — selected by some
    // queries but not others — so both sides of the contract are
    // guaranteed to be exercised regardless of how routing lands.
    let nq = d.queries.len();
    let mut selected_by = vec![0usize; codebook.len()];
    for q in 0..nq {
        for s in codebook.route(d.queries.point(q), 2) {
            selected_by[s] += 1;
        }
    }
    let down = (0..codebook.len())
        .max_by_key(|&s| selected_by[s].min(nq - selected_by[s]))
        .expect("store has shards");
    assert!(
        selected_by[down] > 0 && selected_by[down] < nq,
        "degenerate routing: slot {down} selected by {}/{nq} queries",
        selected_by[down]
    );
    let shards: Vec<Shard<u8>> = base
        .into_shards()
        .into_iter()
        .enumerate()
        .map(|(s, shard)| Shard {
            index: if s == down {
                Arc::new(FaultyIndex::new(shard.index, FaultPlan::down()))
                    as Arc<dyn AnnIndex<u8> + Send + Sync>
            } else {
                shard.index
            },
            globals: shard.globals,
        })
        .collect();
    let mut store =
        ShardedIndex::from_shards(shards, partitioner, dim).with_breaker_config(BreakerConfig {
            trip_after: 1,
            probe_after: 1_000_000,
        });
    store.set_codebook(Some(codebook.clone()));
    store.set_routing(Routing::nprobe(2));
    let params = QueryParams {
        k: 8,
        ..QueryParams::default()
    };
    let mut saw_degraded = false;
    let mut saw_clean = false;
    let batched = store.search_batch(&d.queries, &params);
    for (q, (_, stats)) in batched.iter().enumerate() {
        let selected = codebook.route(d.queries.point(q), 2);
        let hit_dead = selected.contains(&down);
        assert_eq!(stats.routed_shards, 2, "query {q}");
        assert_eq!(
            stats.degraded(),
            hit_dead,
            "query {q}: degradation must track whether the selection hit the dead shard"
        );
        assert_eq!(
            stats.routed_shards,
            stats.probed_shards + stats.failed_shards.len(),
            "query {q}: routed = probed + failed"
        );
        if hit_dead {
            assert!(stats.failed_shards.contains(down), "query {q}");
            saw_degraded = true;
        } else {
            saw_clean = true;
        }
    }
    assert!(
        saw_degraded && saw_clean,
        "the query set must exercise both sides (degraded: {saw_degraded}, clean: {saw_clean})"
    );
}
