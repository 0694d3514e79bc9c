//! ParlayHNSW — hierarchical navigable small world graphs (paper §4.2).
//!
//! HNSW stacks NSW graphs: every point appears in layers `0..=level(p)`
//! where `level(p)` is geometrically distributed, so upper layers are
//! sparse "express lanes". Searches descend from the top layer with a
//! width-1 beam, then run a full beam search at the bottom.
//!
//! Parallelization follows the paper: levels are assigned *deterministically
//! up front* (a hash of the id replaces the usual RNG-behind-a-lock), the
//! member list of every layer is therefore known before insertion, and
//! prefix-doubling batch insertion (§3.1) is applied **per layer** with the
//! builders' one reverse-edge merge ([`crate::edges::merge_reverse`], with
//! the selection heuristic as its prune) and one row writer
//! ([`FlatGraph::set_rows`], after mapping global ids to layer-local rows).
//! All internal locks of the original HNSW are gone. As in hnswlib, the
//! bottom layer has degree bound `2m` and upper layers `m`, and pruned
//! candidates back-fill a row up to its bound (`keepPrunedConnections`).

use crate::beam::{beam_search_into, GraphView, QueryParams, SearchScratch, VisitedMode};
use crate::builder::{batch_cap, insertion_order, prefix_doubling, HeuristicPrune, PruneStrategy};
use crate::edges::merge_reverse;
use crate::graph::FlatGraph;
use crate::query::{IndexKind, IndexStats, ScratchPool};
use crate::range::RangeParams;
use crate::stats::{BuildStats, SearchStats};
use crate::AnnIndex;
use ann_data::{Metric, PointSet, VectorElem};
use parlay::hash::to_unit_f64;
use parlay::{hash64, map_slice, min_index_by, pack};

/// Build parameters for [`HnswIndex`] (paper Fig. 7 row "HNSW").
#[derive(Clone, Copy, Debug)]
pub struct HnswParams {
    /// Upper-layer degree bound `m`; the bottom layer gets `2m`
    /// (the hnswlib convention the paper adopts: `2m = R`).
    pub m: usize,
    /// Construction beam width (`efConstruction`).
    pub ef_construction: usize,
    /// Density knob for the selection heuristic (Fig. 7: 0.82–1.1).
    pub alpha: f32,
    /// Batch-size truncation θ as a fraction of n.
    pub batch_cap_frac: f64,
    /// Seed for level assignment and insertion order.
    pub seed: u64,
}

impl Default for HnswParams {
    fn default() -> Self {
        HnswParams {
            m: 16,
            ef_construction: 64,
            alpha: 1.0,
            batch_cap_frac: 0.02,
            seed: 42,
        }
    }
}

/// One layer: a compact graph over the subset of points reaching this level.
struct Layer {
    /// Sorted global ids of members. For layer 0 this is all of `0..n`.
    members: Vec<u32>,
    /// Adjacency indexed by *local* position in `members`; edge targets are
    /// *global* ids.
    graph: FlatGraph,
    /// Fast path: layer 0 contains everything, so local == global.
    full: bool,
}

impl Layer {
    #[inline]
    fn local(&self, global: u32) -> u32 {
        if self.full {
            global
        } else {
            self.members
                .binary_search(&global)
                .expect("vertex not a member of this layer") as u32
        }
    }

    /// Writes rows keyed by global id.
    fn set_rows<R: AsRef<[u32]> + Sync>(&mut self, rows: Vec<(u32, R)>) {
        let local: Vec<(u32, R)> = rows
            .into_iter()
            .map(|(v, row)| (self.local(v), row))
            .collect();
        self.graph.set_rows(&local);
    }
}

/// Read-only beam-search view of a layer (global-id interface).
struct LayerView<'a>(&'a Layer);

impl GraphView for LayerView<'_> {
    #[inline]
    fn out_neighbors(&self, v: u32) -> &[u32] {
        self.0.graph.neighbors(self.0.local(v))
    }

    #[inline]
    fn prefetch_neighbors(&self, v: u32) {
        // Upper layers are small and would need a member lookup first.
        if self.0.full {
            self.0.graph.prefetch_row(v);
        }
    }
}

/// A built HNSW index.
pub struct HnswIndex<T> {
    layers: Vec<Layer>,
    levels: Vec<u8>,
    /// Entry point: the (smallest-id) vertex of maximum level.
    pub entry: u32,
    /// Metric the index was built under.
    pub metric: Metric,
    /// Build statistics.
    pub build_stats: BuildStats,
    points: PointSet<T>,
    scratch: ScratchPool<SearchScratch<T>>,
}

/// Deterministic geometric level: `floor(-ln(U) / ln(m))` from a hashed id.
fn level_of(id: u32, m: usize, seed: u64) -> u8 {
    let u = to_unit_f64(hash64(seed ^ ((id as u64).wrapping_mul(0x9e37_79b9)))).max(1e-12);
    let lvl = (-u.ln() / (m as f64).ln()).floor();
    lvl.min(30.0) as u8
}

impl<T: VectorElem> HnswIndex<T> {
    /// Builds the index. Deterministic across thread counts.
    pub fn build(points: PointSet<T>, metric: Metric, params: &HnswParams) -> Self {
        let t0 = std::time::Instant::now();
        let n = points.len();
        assert!(n > 0);
        let m = params.m.max(2);

        // Deterministic level assignment (replaces the locked RNG of the
        // original implementation).
        let levels: Vec<u8> = parlay::tabulate(n, |i| level_of(i as u32, m, params.seed));
        // Entry = smallest id among the maximum level.
        let entry = {
            let idx: Vec<u32> = (0..n as u32).collect();
            let best = min_index_by(&idx, |&i| (255u8 - levels[i as usize], i)).expect("nonempty");
            idx[best]
        };
        let top = levels[entry as usize];

        // Allocate every layer up front — membership is known.
        let layers: Vec<Layer> = (0..=top)
            .map(|l| {
                let flags: Vec<bool> = levels.iter().map(|&lv| lv >= l).collect();
                let ids: Vec<u32> = (0..n as u32).collect();
                let members = pack(&ids, &flags);
                let bound = if l == 0 { 2 * m } else { m };
                let full = members.len() == n;
                Layer {
                    graph: FlatGraph::new(members.len(), bound),
                    members,
                    full,
                }
            })
            .collect();

        let mut index = HnswIndex {
            layers,
            levels,
            entry,
            metric,
            build_stats: BuildStats::default(),
            points,
            scratch: ScratchPool::new(),
        };

        // Prefix-doubling batch insertion over the shuffled order.
        let order = insertion_order(n, entry, params.seed);
        let mut dc_total = 0u64;
        for batch in prefix_doubling(&order, batch_cap(n, params.batch_cap_frac)) {
            dc_total += index.batch_insert(batch, params);
        }
        index.build_stats = BuildStats {
            seconds: t0.elapsed().as_secs_f64(),
            dist_comps: dc_total,
        };
        index
    }

    /// Width-1 greedy descent within one layer (the inter-layer hops of the
    /// classic HNSW search).
    fn greedy1(
        &self,
        scratch: &mut SearchScratch<T>,
        query: &[T],
        layer: usize,
        from: u32,
        dc: &mut usize,
    ) -> u32 {
        let qp = QueryParams {
            k: 1,
            beam: 1,
            cut: 1.0,
            limit: usize::MAX,
            visited: VisitedMode::Approx,
        };
        let stats = beam_search_into(
            scratch,
            query,
            &self.points,
            self.metric,
            &LayerView(&self.layers[layer]),
            &[from],
            &qp,
        );
        *dc += stats.dist_comps;
        scratch.frontier().first().map_or(from, |&(id, _)| id)
    }

    /// Inserts one batch: each point searches the pre-batch snapshot of all
    /// its layers, then per-layer reverse edges are merged via semisort.
    fn batch_insert(&mut self, batch: &[u32], params: &HnswParams) -> u64 {
        let top = self.levels[self.entry as usize] as usize;
        let pruner = HeuristicPrune {
            alpha: params.alpha,
        };

        // Step 1 — independent multi-layer searches on the snapshot.
        type PerPoint = (u32, Vec<(usize, Vec<u32>)>, usize);
        let results: Vec<PerPoint> = map_slice(batch, |&p| {
            self.scratch.with(|scratch| {
                let q = self.points.point(p as usize);
                let lp = self.levels[p as usize] as usize;
                let mut dc = 0usize;
                let mut cur = self.entry;
                // Descend through layers above p's level with beam 1.
                for l in ((lp + 1)..=top).rev() {
                    cur = self.greedy1(scratch, q, l, cur, &mut dc);
                }
                // Insert into layers lp..0 with the construction beam.
                let mut outs: Vec<(usize, Vec<u32>)> = Vec::with_capacity(lp + 1);
                for l in (0..=lp.min(top)).rev() {
                    let qp = QueryParams {
                        k: 1,
                        beam: params.ef_construction,
                        cut: 1.25,
                        limit: usize::MAX,
                        visited: VisitedMode::Approx,
                    };
                    let stats = beam_search_into(
                        scratch,
                        q,
                        &self.points,
                        self.metric,
                        &LayerView(&self.layers[l]),
                        &[cur],
                        &qp,
                    );
                    dc += stats.dist_comps;
                    let out = pruner.prune(
                        p,
                        scratch.expanded().to_vec(),
                        &self.points,
                        self.metric,
                        self.layers[l].graph.max_degree(),
                        &mut dc,
                    );
                    cur = scratch.frontier().first().map_or(cur, |&(id, _)| id);
                    outs.push((l, out));
                }
                (p, outs, dc)
            })
        });
        let mut dc_total: u64 = results.iter().map(|&(_, _, dc)| dc as u64).sum();

        // Steps 2–5, per layer (few layers; the heavy work is inside each):
        // write the new rows, then merge their reverse edges.
        for (l, layer) in self.layers.iter_mut().enumerate() {
            let new_rows: Vec<(u32, &[u32])> = results
                .iter()
                .filter_map(|(p, outs, _)| {
                    outs.iter()
                        .find(|&&(ll, _)| ll == l)
                        .map(|(_, out)| (*p, out.as_slice()))
                })
                .collect();
            let mut pairs = Vec::with_capacity(new_rows.iter().map(|(_, out)| out.len()).sum());
            pairs.extend(
                new_rows
                    .iter()
                    .flat_map(|&(p, out)| out.iter().map(move |&v| (v, p))),
            );
            layer.set_rows(new_rows);
            let (updates, dc) = merge_reverse(
                &pairs,
                |v| layer.graph.neighbors(layer.local(v)),
                layer.graph.max_degree(),
                &self.points,
                self.metric,
                &pruner,
            );
            dc_total += dc;
            layer.set_rows(updates);
        }
        dc_total
    }

    /// Searches: beam-1 descent from the top layer, then a beam search at
    /// the bottom layer.
    pub fn search(&self, query: &[T], params: &QueryParams) -> (Vec<(u32, f32)>, SearchStats) {
        if params.asks_nothing() {
            return (Vec::new(), SearchStats::default());
        }
        self.scratch.with(|scratch| {
            let (cur, dc) = self.descend(scratch, query);
            let mut stats = beam_search_into(
                scratch,
                query,
                &self.points,
                self.metric,
                &LayerView(&self.layers[0]),
                &[cur],
                params,
            );
            stats.dist_comps += dc;
            (scratch.top_k(params.k), stats)
        })
    }

    /// Number of layers (≥ 1).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Number of members of layer `l`.
    pub fn layer_size(&self, l: usize) -> usize {
        self.layers[l].members.len()
    }

    /// The indexed points.
    pub fn points(&self) -> &PointSet<T> {
        &self.points
    }

    /// Deterministic digest of the whole hierarchy: each layer's member
    /// ids and [`FlatGraph::fingerprint`], folded in layer order.
    pub fn fingerprint(&self) -> u64 {
        self.layers.iter().fold(0u64, |acc, l| {
            let acc = l
                .members
                .iter()
                .fold(acc, |acc, &g| parlay::hash64_pair(acc, g as u64));
            parlay::hash64_pair(acc, l.graph.fingerprint())
        })
    }
}

impl<T: VectorElem> HnswIndex<T> {
    /// Width-1 descent from the top layer down to (but excluding) layer 0,
    /// returning the bottom-layer entry vertex and descent distance comps.
    fn descend(&self, scratch: &mut SearchScratch<T>, query: &[T]) -> (u32, usize) {
        let top = self.levels[self.entry as usize] as usize;
        let mut dc = 0usize;
        let mut cur = self.entry;
        for l in (1..=top).rev() {
            cur = self.greedy1(scratch, query, l, cur, &mut dc);
        }
        (cur, dc)
    }
}

impl<T: VectorElem> AnnIndex<T> for HnswIndex<T> {
    fn search(&self, query: &[T], params: &QueryParams) -> (Vec<(u32, f32)>, SearchStats) {
        HnswIndex::search(self, query, params)
    }

    fn name(&self) -> String {
        "ParlayHNSW".into()
    }

    fn kind(&self) -> IndexKind {
        IndexKind::Hnsw
    }

    fn stats(&self) -> IndexStats {
        let mut stats =
            IndexStats::for_graph(&self.layers[0].graph, self.points.dim(), self.build_stats);
        stats.layers = self.layers.len();
        for layer in &self.layers[1..] {
            stats.edges += (0..layer.members.len() as u32)
                .map(|v| layer.graph.degree(v))
                .sum::<usize>();
        }
        stats
    }

    fn len(&self) -> usize {
        self.points.len()
    }

    fn dim(&self) -> usize {
        self.points.dim()
    }

    /// Range search: descend to the bottom layer, then flood it (see
    /// [`crate::range`]).
    fn range_search(&self, query: &[T], params: &RangeParams) -> (Vec<(u32, f32)>, SearchStats) {
        self.scratch.with(|scratch| {
            let (cur, dc) = self.descend(scratch, query);
            let (res, mut stats) = crate::range::range_search(
                scratch,
                query,
                &self.points,
                self.metric,
                &LayerView(&self.layers[0]),
                &[cur],
                params,
            );
            stats.dist_comps += dc;
            (res, stats)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann_data::{bigann_like, compute_ground_truth, recall_ids};

    #[test]
    fn level_distribution_is_geometric() {
        let m = 16;
        let levels: Vec<u8> = (0..100_000u32).map(|i| level_of(i, m, 1)).collect();
        let l0 = levels.iter().filter(|&&l| l == 0).count() as f64;
        let l1 = levels.iter().filter(|&&l| l >= 1).count() as f64;
        // P(level >= 1) = 1/m.
        let frac = l1 / (l0 + l1);
        assert!(
            (frac - 1.0 / m as f64).abs() < 0.005,
            "layer-1 fraction {frac}"
        );
    }

    #[test]
    fn layers_are_nested_supersets() {
        let data = bigann_like(3_000, 5, 21);
        let index = HnswIndex::build(data.points.clone(), data.metric, &HnswParams::default());
        assert!(index.num_layers() >= 2, "expected a hierarchy at n=3000");
        for l in 1..index.num_layers() {
            assert!(index.layer_size(l) <= index.layer_size(l - 1));
            // Every member of layer l is a member of layer l-1.
            for &g in &index.layers[l].members {
                assert!(index.layers[l - 1].members.binary_search(&g).is_ok());
            }
        }
        assert_eq!(index.layer_size(0), 3_000);
    }

    #[test]
    fn reaches_high_recall() {
        let data = bigann_like(2_000, 50, 33);
        let index = HnswIndex::build(data.points.clone(), data.metric, &HnswParams::default());
        let gt = compute_ground_truth(&data.points, &data.queries, 10, data.metric);
        let qp = QueryParams {
            beam: 64,
            ..QueryParams::default()
        };
        let results: Vec<Vec<u32>> = (0..data.queries.len())
            .map(|q| {
                index
                    .search(data.queries.point(q), &qp)
                    .0
                    .into_iter()
                    .map(|(id, _)| id)
                    .collect()
            })
            .collect();
        let r = recall_ids(&gt, &results, 10, 10);
        assert!(r > 0.9, "recall {r} too low");
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let data = bigann_like(800, 5, 5);
        let params = HnswParams::default();
        let fp1 = parlay::with_threads(1, || {
            HnswIndex::build(data.points.clone(), data.metric, &params).fingerprint()
        });
        let fp2 = parlay::with_threads(2, || {
            HnswIndex::build(data.points.clone(), data.metric, &params).fingerprint()
        });
        assert_eq!(fp1, fp2);
    }

    #[test]
    fn degree_bounds_bottom_2m_upper_m() {
        let data = bigann_like(2_000, 5, 8);
        let params = HnswParams::default();
        let index = HnswIndex::build(data.points.clone(), data.metric, &params);
        for (l, layer) in index.layers.iter().enumerate() {
            let bound = if l == 0 { 2 * params.m } else { params.m };
            for v in 0..layer.members.len() as u32 {
                assert!(layer.graph.degree(v) <= bound, "layer {l} vertex {v}");
            }
        }
    }
}
