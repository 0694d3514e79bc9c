//! The reverse-edge merge of the incremental builders (paper §3.1, Alg. 3
//! lines 10–14). Every new edge `p → v` of a batch owes `v` a reverse edge;
//! [`merge_reverse`] semisorts them by target so exactly one task owns each
//! target row, and only reads the graph: the caller writes the rows it
//! returns with [`FlatGraph::set_rows`](crate::graph::FlatGraph::set_rows),
//! so no row is read and written in the same parallel phase. Vamana passes
//! the α-prune, HNSW its selection heuristic; HCNNG and PyNNDescent keep
//! their own group rules.

use crate::builder::PruneStrategy;
use ann_data::{distance_batch, Metric, PointSet, VectorElem};
use parlay::group_by_u32;

/// Merges reverse edges, given as `(target, source)` pairs, into the
/// targets' current rows.
///
/// `row_of(v)` is target `v`'s current row, of distinct ids and at most
/// `bound` long. The merged row is that row followed by the group's
/// sources in pair order, the first occurrence of an id kept and
/// self-edges dropped. If it holds more than `bound` ids, every distinct
/// candidate is scored against `v` and `pruner` picks at most `bound`.
///
/// Returns one `(target, row)` per distinct target, and the distance
/// comparisons: the candidates scored plus the prunes' own.
pub fn merge_reverse<'g, T: VectorElem, P: PruneStrategy<T>>(
    pairs: &[(u32, u32)],
    row_of: impl Fn(u32) -> &'g [u32] + Sync,
    bound: usize,
    points: &PointSet<T>,
    metric: Metric,
    pruner: &P,
) -> (Vec<(u32, Vec<u32>)>, u64) {
    let grouped = group_by_u32(pairs);
    let merged: Vec<((u32, Vec<u32>), usize)> = grouped.par_map_groups(|grp| {
        let v = grp[0].0;
        let current = row_of(v);
        let mut row: Vec<u32> = Vec::with_capacity((current.len() + grp.len()).min(bound + 1));
        row.extend_from_slice(current);
        let mut sources = grp.iter().map(|&(_, p)| p).filter(|&p| p != v);
        // A linear scan dedups: the row holds at most `bound + 1` ids.
        for p in sources.by_ref() {
            if !row.contains(&p) {
                row.push(p);
                if row.len() > bound {
                    break;
                }
            }
        }
        if row.len() <= bound {
            return ((v, row), 0);
        }
        // Overflow: the prune orders candidates by (distance, id), so the
        // order they arrive in does not matter, only that they are distinct.
        row.extend(sources);
        row.sort_unstable();
        row.dedup();
        let mut dists = Vec::new();
        distance_batch(
            points.padded_point(v as usize),
            &row,
            points,
            metric,
            &mut dists,
        );
        let mut dc = row.len();
        let candidates = row.into_iter().zip(dists).collect();
        let out = pruner.prune(v, candidates, points, metric, bound, &mut dc);
        ((v, out), dc)
    });
    let dc = merged.iter().map(|&(_, dc)| dc as u64).sum();
    (merged.into_iter().map(|(row, _)| row).collect(), dc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{AlphaPrune, HeuristicPrune};
    use crate::graph::FlatGraph;
    use ann_data::distance;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The merge written straight: a `BTreeMap` of groups, plain loops, a
    /// scalar distance per candidate, every row computed from the graph as
    /// it was before the merge and then written with the sequential
    /// `set_neighbors`. Returns the distance count.
    fn reference_merge<T: VectorElem, P: PruneStrategy<T>>(
        graph: &mut FlatGraph,
        pairs: &[(u32, u32)],
        bound: usize,
        points: &PointSet<T>,
        metric: Metric,
        pruner: &P,
    ) -> u64 {
        let mut groups: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for &(v, p) in pairs {
            groups.entry(v).or_default().push(p);
        }
        let mut dc = 0usize;
        let mut rows = Vec::new();
        for (v, sources) in groups {
            let mut merged: Vec<u32> = Vec::new();
            for &w in graph.neighbors(v) {
                if !merged.contains(&w) {
                    merged.push(w);
                }
            }
            for p in sources {
                if p != v && !merged.contains(&p) {
                    merged.push(p);
                }
            }
            if merged.len() > bound {
                let mut candidates = Vec::new();
                for &w in &merged {
                    let d = distance(points.point(v as usize), points.point(w as usize), metric);
                    candidates.push((w, d));
                    dc += 1;
                }
                merged = pruner.prune(v, candidates, points, metric, bound, &mut dc);
            }
            rows.push((v, merged));
        }
        for (v, row) in rows {
            graph.set_neighbors(v, &row);
        }
        dc as u64
    }

    /// `(bound, coordinates, rows, pairs)`.
    type Case = (usize, Vec<u8>, Vec<Vec<u32>>, Vec<(u32, u32)>);

    /// A corpus of few distinct u8 values (many distance ties, and exact
    /// distances in every SIMD tier), a graph of valid rows, and reverse
    /// edges with repeats and self-pairs.
    fn case() -> impl Strategy<Value = Case> {
        (1usize..=8, 2usize..24).prop_flat_map(|(bound, n)| {
            (
                collection::vec(0u8..3, n * 3),
                collection::vec(collection::vec(0u32..n as u32, 0..=bound), n),
                collection::vec((0u32..n as u32, 0u32..n as u32), 0..6 * n),
            )
                .prop_map(move |(coords, rows, pairs)| (bound, coords, rows, pairs))
        })
    }

    fn merge_matches_reference<P: PruneStrategy<u8>>(
        (bound, coords, rows, mut pairs): Case,
        pruner: &P,
    ) {
        let n = rows.len();
        let points = PointSet::new(coords, 3);
        let metric = Metric::SquaredEuclidean;
        let mut start = FlatGraph::new(n, bound);
        for (v, row) in rows.into_iter().enumerate() {
            // Rows as the builders leave them: distinct ids, no self-edge.
            let mut kept: Vec<u32> = Vec::new();
            for w in row {
                if w != v as u32 && !kept.contains(&w) {
                    kept.push(w);
                }
            }
            start.set_neighbors(v as u32, &kept);
        }
        // Duplicate a slice of the pairs so repeats are common.
        let extra = pairs[..pairs.len() / 3].to_vec();
        pairs.extend(extra);

        let mut want = start.clone();
        let want_dc = reference_merge(&mut want, &pairs, bound, &points, metric, pruner);
        let mut got = start.clone();
        let (rows, got_dc) = merge_reverse(
            &pairs,
            |v| start.neighbors(v),
            bound,
            &points,
            metric,
            pruner,
        );
        got.set_rows(&rows);
        for v in 0..n as u32 {
            assert_eq!(
                got.neighbors(v),
                want.neighbors(v),
                "row {v}, bound {bound}"
            );
        }
        assert_eq!(got_dc, want_dc, "distance count, bound {bound}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn alpha_merge_matches_the_reference(c in case(), alpha in 0.8f32..1.4) {
            merge_matches_reference(c, &AlphaPrune(alpha));
        }

        #[test]
        fn heuristic_merge_matches_the_reference(c in case(), alpha in 0.8f32..1.2) {
            merge_matches_reference(c, &HeuristicPrune { alpha });
        }
    }
}
