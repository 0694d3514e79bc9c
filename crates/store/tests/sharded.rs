//! Property tests for the sharded store's core guarantee: fan-out +
//! deterministic merge is **exactly equivalent** to searching the
//! unsharded corpus.
//!
//! With exact (flat-scan) shards this is assertable bitwise: every
//! point's distance is computed by the same kernel regardless of which
//! shard holds it, each shard reports its local top-k, and the union of
//! local top-k's contains the global top-k; the merge's (distance,
//! global id) total order then reproduces whole-corpus exact search bit
//! for bit. The properties drive random corpora, shard counts, both
//! partitioners, permuted shard orders, and two thread counts through
//! that equivalence.

use ann_data::{bigann_like, PointSet};
use parlayann::{AnnIndex, QueryParams};
use parlayann_store::{ExactIndex, Partitioner, Shard, ShardedIndex};
use proptest::prelude::*;
use std::sync::Arc;

/// Brute-force top-k over the whole corpus, ordered by (distance, id) —
/// the reference the sharded result must match bitwise.
fn brute_force_topk(
    points: &PointSet<u8>,
    query: &[u8],
    metric: ann_data::Metric,
    k: usize,
) -> Vec<(u32, f32)> {
    let mut all: Vec<(u32, f32)> = (0..points.len())
        .map(|i| (i as u32, ann_data::distance(query, points.point(i), metric)))
        .collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

fn exact_sharded(
    points: &PointSet<u8>,
    metric: ann_data::Metric,
    partitioner: Partitioner,
) -> ShardedIndex<u8> {
    ShardedIndex::build_with(points, partitioner, |_, ps| {
        Arc::new(ExactIndex::new(ps, metric)) as Arc<dyn AnnIndex<u8> + Send + Sync>
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sharded top-k over N exact shards == brute-force top-k over the
    /// union, bitwise, for both partitioners.
    #[test]
    fn sharded_topk_equals_brute_force_over_union(
        n in 20usize..300,
        shards in 1usize..7,
        k in 1usize..15,
        seed in 0u64..1000,
        use_kmeans in any::<bool>(),
    ) {
        let d = bigann_like(n, 6, seed);
        let partitioner = if use_kmeans {
            Partitioner::kmeans(shards, seed ^ 1)
        } else {
            Partitioner::hash(shards, seed ^ 2)
        };
        let sharded = exact_sharded(&d.points, d.metric, partitioner);
        prop_assert_eq!(AnnIndex::len(&sharded), n);
        let params = QueryParams { k, ..QueryParams::default() };
        for q in 0..d.queries.len() {
            let (got, _) = sharded.search(d.queries.point(q), &params);
            let want = brute_force_topk(&d.points, d.queries.point(q), d.metric, k);
            prop_assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(&want) {
                prop_assert_eq!(a.0, b.0);
                prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
        }
    }

    /// The batched path agrees with single-query fan-out bitwise at every
    /// thread count — and results are invariant under shard permutation.
    #[test]
    fn sharded_batch_is_thread_and_shard_order_invariant(
        n in 30usize..250,
        shards in 2usize..6,
        k in 1usize..12,
        seed in 0u64..1000,
    ) {
        let d = bigann_like(n, 8, seed);
        let metric = d.metric;
        let sharded = exact_sharded(&d.points, metric, Partitioner::hash(shards, seed));
        let params = QueryParams { k, ..QueryParams::default() };

        let t1 = parlay::with_threads(1, || sharded.search_batch(&d.queries, &params));
        let t4 = parlay::with_threads(4, || sharded.search_batch(&d.queries, &params));
        prop_assert_eq!(t1.len(), t4.len());
        for ((a, sa), (b, sb)) in t1.iter().zip(&t4) {
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                prop_assert_eq!(x.0, y.0);
                prop_assert_eq!(x.1.to_bits(), y.1.to_bits());
            }
            prop_assert_eq!(sa, sb);
        }

        // Reverse the shard enumeration order: same shards, same results.
        let partitioner = sharded.partitioner();
        let dim = AnnIndex::dim(&sharded);
        let mut entries: Vec<Shard<u8>> = sharded.into_shards();
        entries.reverse();
        let permuted = ShardedIndex::from_shards(entries, partitioner, dim);
        let p = permuted.search_batch(&d.queries, &params);
        for ((a, _), (b, _)) in t1.iter().zip(&p) {
            prop_assert_eq!(a, b);
        }
    }
}

/// A one-shard hash store over a Vamana shard is the unsharded index:
/// hash partitioning into one shard keeps every point in id order, so the
/// shard's build is the same build, and fan-out + merge over one list
/// changes nothing — ids, distance bits and the work counters all match,
/// on the single-query and batch paths, at 1 and 8 threads.
#[test]
fn one_shard_store_equals_the_unsharded_index() {
    use parlayann::{VamanaIndex, VamanaParams};
    let d = bigann_like(1_200, 60, 515);
    let metric = d.metric;
    let vparams = VamanaParams::default();
    let direct = VamanaIndex::build(d.points.clone(), metric, &vparams);
    let store = ShardedIndex::build_with(&d.points, Partitioner::hash(1, 7), |_, ps| {
        Arc::new(VamanaIndex::build(ps, metric, &vparams)) as Arc<dyn AnnIndex<u8> + Send + Sync>
    });
    let params = QueryParams {
        k: 10,
        beam: 48,
        ..QueryParams::default()
    };
    let observe = |(res, stats): (Vec<(u32, f32)>, parlayann::SearchStats)| {
        let bits: Vec<(u32, u32)> = res.iter().map(|&(id, d)| (id, d.to_bits())).collect();
        (bits, stats.dist_comps, stats.hops)
    };
    for threads in [1, 8] {
        parlay::with_threads(threads, || {
            let want: Vec<_> = direct
                .search_batch(&d.queries, &params)
                .into_iter()
                .map(observe)
                .collect();
            let batch: Vec<_> = store
                .search_batch(&d.queries, &params)
                .into_iter()
                .map(observe)
                .collect();
            assert_eq!(batch, want, "search_batch at {threads} threads");
            for (q, want) in want.iter().enumerate() {
                let got = observe(store.search(d.queries.point(q), &params));
                assert_eq!(&got, want, "search, query {q}, {threads} threads");
            }
        });
    }
}

/// A mixed-kind store (Vamana + HCNNG + PyNNDescent shards) round-trips
/// through the manifest with bitwise-identical search results — the
/// "manifest round-trips all shardable index kinds" acceptance check.
#[test]
fn manifest_roundtrips_every_shardable_kind_mixed() {
    use parlayann::{
        HcnngIndex, HcnngParams, PyNNDescentIndex, PyNNDescentParams, VamanaIndex, VamanaParams,
    };
    let d = bigann_like(900, 25, 4096);
    let metric = d.metric;
    let index = ShardedIndex::build_with(&d.points, Partitioner::hash(3, 5), |s, ps| match s {
        0 => Arc::new(VamanaIndex::build(ps, metric, &VamanaParams::default()))
            as Arc<dyn AnnIndex<u8> + Send + Sync>,
        1 => Arc::new(HcnngIndex::build(ps, metric, &HcnngParams::default())),
        _ => Arc::new(PyNNDescentIndex::build(
            ps,
            metric,
            &PyNNDescentParams {
                num_trees: 4,
                max_iters: 3,
                ..PyNNDescentParams::default()
            },
        )),
    });
    let mut dir = std::env::temp_dir();
    dir.push(format!("parlayann-mixed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    parlayann_store::save_manifest(&dir, &index).unwrap();
    let loaded = parlayann_store::load_manifest::<u8>(&dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    assert_eq!(loaded.shards().len(), 3);
    let kinds: Vec<_> = loaded.shards().iter().map(|s| s.index.kind()).collect();
    assert_eq!(
        kinds,
        vec![
            parlayann::IndexKind::Vamana,
            parlayann::IndexKind::Hcnng,
            parlayann::IndexKind::PyNNDescent,
        ]
    );
    let params = QueryParams {
        k: 10,
        beam: 32,
        ..QueryParams::default()
    };
    let want = index.search_batch(&d.queries, &params);
    let got = loaded.search_batch(&d.queries, &params);
    for (q, ((w, ws), (g, gs))) in want.iter().zip(&got).enumerate() {
        assert_eq!(w.len(), g.len(), "query {q}");
        for (a, b) in w.iter().zip(g) {
            assert_eq!(a.0, b.0, "query {q}");
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "query {q}");
        }
        assert_eq!(ws, gs, "query {q}");
    }
}

// ---------------------------------------------------------------------
// Fault tolerance: replica failover and degraded partial results.
// ---------------------------------------------------------------------

/// The healthy per-shard `(index, globals)` pairs kept aside by
/// [`with_shard_down`] for reconstructing surviving-shard ground truth.
type HealthyShards = Vec<(Arc<dyn AnnIndex<u8> + Send + Sync>, Vec<u32>)>;

/// Rebuilds a store with shard `down`'s only replica wrapped in an
/// always-panicking [`FaultyIndex`], keeping the healthy original around.
fn with_shard_down(store: ShardedIndex<u8>, down: usize) -> (ShardedIndex<u8>, HealthyShards) {
    use parlayann_store::{FaultPlan, FaultyIndex};
    let partitioner = store.partitioner();
    let dim = AnnIndex::dim(&store);
    let healthy: HealthyShards = store
        .shards()
        .iter()
        .map(|s| (Arc::clone(&s.index), s.globals.clone()))
        .collect();
    let shards: Vec<Shard<u8>> = store
        .into_shards()
        .into_iter()
        .enumerate()
        .map(|(s, shard)| Shard {
            index: if s == down {
                Arc::new(FaultyIndex::new(shard.index, FaultPlan::down()))
            } else {
                shard.index
            },
            globals: shard.globals,
        })
        .collect();
    (ShardedIndex::from_shards(shards, partitioner, dim), healthy)
}

/// With one shard's every replica down, results must be **bit-identical**
/// to a direct search over exactly the surviving shards (same merge,
/// fewer inputs), and the stats must say which slot is missing.
#[test]
fn degraded_result_is_bitwise_equal_to_surviving_shard_search() {
    parlayann_store::silence_injected_panics();
    let d = bigann_like(500, 30, 77);
    let metric = d.metric;
    let store = exact_sharded(&d.points, metric, Partitioner::hash(4, 3));
    let nshards = store.shards().len();
    const DOWN: usize = 2;
    let (store, healthy) = with_shard_down(store, DOWN);
    let params = QueryParams {
        k: 10,
        ..QueryParams::default()
    };

    let batched = store.search_batch(&d.queries, &params);
    for (q, batch_row) in batched.iter().enumerate() {
        // Ground truth: fan out over the surviving shards only, globalize
        // by hand, and run the very same k-way merge.
        let lists: Vec<Vec<(u32, f32)>> = healthy
            .iter()
            .enumerate()
            .filter(|(s, _)| *s != DOWN)
            .map(|(_, (index, globals))| {
                let (mut res, _) = index.search(d.queries.point(q), &params);
                for r in res.iter_mut() {
                    r.0 = globals[r.0 as usize];
                }
                res
            })
            .collect();
        let want = parlayann_store::merge_topk(&lists, params.k);

        let (got, stats) = store.search(d.queries.point(q), &params);
        assert_eq!(got.len(), want.len(), "query {q}");
        for (a, b) in got.iter().zip(&want) {
            assert_eq!(a.0, b.0, "query {q}");
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "query {q}");
        }
        assert!(stats.degraded(), "query {q} must report degradation");
        assert_eq!(stats.failed_shards.len(), 1, "query {q}");
        assert!(stats.failed_shards.contains(DOWN), "query {q}");
        assert_eq!(stats.probed_shards, (nshards - 1) as u32, "query {q}");

        // The batch path degrades identically.
        assert_eq!(batch_row.0, got, "query {q}: batch vs single");
        assert_eq!(batch_row.1.failed_shards, stats.failed_shards);
    }
}

/// Flaky primaries + healthy replicas: every injected panic fails over
/// and the merged results never change a bit relative to the all-healthy
/// store. Nothing is ever degraded — that is the whole point of replicas.
#[test]
fn failover_to_replicas_is_invisible_in_the_bits() {
    use parlayann_store::{BreakerConfig, FaultPlan, FaultyIndex};
    parlayann_store::silence_injected_panics();
    let d = bigann_like(400, 40, 2024);
    let metric = d.metric;
    let reference = exact_sharded(&d.points, metric, Partitioner::hash(3, 3));
    let params = QueryParams {
        k: 8,
        ..QueryParams::default()
    };
    let want: Vec<_> = (0..d.queries.len())
        .map(|q| reference.search(d.queries.point(q), &params).0)
        .collect();

    // Same shards, but every primary panics on ~30% of its calls; a
    // healthy Arc-clone of each backs it as replica 1.
    let partitioner = reference.partitioner();
    let dim = AnnIndex::dim(&reference);
    let healthy: Vec<Arc<dyn AnnIndex<u8> + Send + Sync>> = reference
        .shards()
        .iter()
        .map(|s| Arc::clone(&s.index))
        .collect();
    let shards: Vec<Shard<u8>> = reference
        .into_shards()
        .into_iter()
        .enumerate()
        .map(|(s, shard)| Shard {
            index: Arc::new(FaultyIndex::new(
                shard.index,
                FaultPlan::flaky(s as u64 + 1, 300),
            )),
            globals: shard.globals,
        })
        .collect();
    let mut store =
        ShardedIndex::from_shards(shards, partitioner, dim).with_breaker_config(BreakerConfig {
            trip_after: 2,
            probe_after: 8,
        });
    for (s, index) in healthy.into_iter().enumerate() {
        store.add_replica(s, index);
    }

    let mut failovers = 0u64;
    for (q, want) in want.iter().enumerate() {
        let (got, stats) = store.search(d.queries.point(q), &params);
        assert_eq!(&got, want, "query {q}: failover changed the bits");
        assert!(!stats.degraded(), "query {q}: replicas cover every shard");
        assert_eq!(stats.probed_shards, 3);
        failovers += stats.failovers as u64;
    }
    assert!(
        failovers > 0,
        "a 30% panic rate must have exercised failover"
    );
}

/// The determinism argument, end to end: an identical chaos run —
/// same seeds, same request sequence — produces identical response
/// fingerprints (neighbor bits, failed-shard masks, failover counts)
/// at 1 and 8 threads, because fault schedules key on per-replica call
/// counts, which sequential issue makes thread-invariant.
#[test]
fn chaos_run_is_bit_reproducible_across_thread_counts() {
    fn chaos_fingerprint(threads: usize) -> Vec<u64> {
        use parlayann_store::{BreakerConfig, FaultPlan, FaultyIndex};
        parlayann_store::silence_injected_panics();
        let d = bigann_like(300, 60, 909);
        let metric = d.metric;
        let base = exact_sharded(&d.points, metric, Partitioner::hash(4, 5));
        let partitioner = base.partitioner();
        let dim = AnnIndex::dim(&base);
        let healthy: Vec<Arc<dyn AnnIndex<u8> + Send + Sync>> =
            base.shards().iter().map(|s| Arc::clone(&s.index)).collect();
        let shards: Vec<Shard<u8>> = base
            .into_shards()
            .into_iter()
            .enumerate()
            .map(|(s, shard)| Shard {
                index: Arc::new(FaultyIndex::new(
                    shard.index,
                    FaultPlan::flaky(100 + s as u64, 250),
                )),
                globals: shard.globals,
            })
            .collect();
        let mut store = ShardedIndex::from_shards(shards, partitioner, dim).with_breaker_config(
            BreakerConfig {
                trip_after: 2,
                probe_after: 4,
            },
        );
        // Shard 0 gets no healthy replica (it can actually go down);
        // the rest fail over to clean copies.
        for (s, index) in healthy.into_iter().enumerate().skip(1) {
            store.add_replica(s, index);
        }
        let params = QueryParams {
            k: 6,
            ..QueryParams::default()
        };
        parlay::with_threads(threads, || {
            let mut fp = Vec::new();
            for q in 0..d.queries.len() {
                let (res, stats) = store.search(d.queries.point(q), &params);
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for (id, dist) in &res {
                    h = (h ^ *id as u64).wrapping_mul(0x100_0000_01b3);
                    h = (h ^ dist.to_bits() as u64).wrapping_mul(0x100_0000_01b3);
                }
                for &w in stats.failed_shards.words() {
                    h = (h ^ w).wrapping_mul(0x100_0000_01b3);
                }
                h = (h ^ stats.failovers as u64).wrapping_mul(0x100_0000_01b3);
                fp.push(h);
            }
            fp
        })
    }
    let fp1 = chaos_fingerprint(1);
    let fp8 = chaos_fingerprint(8);
    assert_eq!(fp1, fp8, "chaos fingerprints diverge across thread counts");
}

/// Nesting: a shard may itself be sharded; the merge order composes.
#[test]
fn nested_sharded_store_stays_exact() {
    let d = bigann_like(240, 8, 11);
    let metric = d.metric;
    let nested = ShardedIndex::build_with(&d.points, Partitioner::hash(2, 9), |_, ps| {
        Arc::new(exact_sharded(&ps, metric, Partitioner::hash(3, 13)))
            as Arc<dyn AnnIndex<u8> + Send + Sync>
    });
    let params = QueryParams {
        k: 7,
        ..QueryParams::default()
    };
    for q in 0..d.queries.len() {
        let (got, _) = nested.search(d.queries.point(q), &params);
        let want = brute_force_topk(&d.points, d.queries.point(q), d.metric, 7);
        assert_eq!(got, want, "query {q}");
    }
}

/// An explicitly empty shard (adopted external shards can have one, even
/// though `build_with` filters them out) contributes nothing to the merge
/// and breaks nothing — on the single-query, batch, and range paths.
#[test]
fn store_with_an_empty_shard_merges_correctly() {
    let d = bigann_like(150, 6, 404);
    let metric = d.metric;
    let shards = vec![
        Shard {
            index: Arc::new(ExactIndex::new(d.points.clone(), metric))
                as Arc<dyn AnnIndex<u8> + Send + Sync>,
            globals: (0..150).collect(),
        },
        Shard {
            index: Arc::new(ExactIndex::new(d.points.gather(&[]), metric))
                as Arc<dyn AnnIndex<u8> + Send + Sync>,
            globals: Vec::new(),
        },
    ];
    let store = ShardedIndex::from_shards(shards, Partitioner::hash(2, 1), d.points.dim());
    assert_eq!(AnnIndex::len(&store), 150);
    let params = QueryParams {
        k: 9,
        ..QueryParams::default()
    };
    let batched = store.search_batch(&d.queries, &params);
    for (q, batch_row) in batched.iter().enumerate() {
        let want = brute_force_topk(&d.points, d.queries.point(q), metric, 9);
        let (got, stats) = store.search(d.queries.point(q), &params);
        assert_eq!(got, want, "query {q}");
        assert_eq!(batch_row.0, want, "query {q}: batch path");
        assert_eq!(stats.probed_shards, 2, "empty shard still answers");
        assert!(!stats.degraded());
    }
}
