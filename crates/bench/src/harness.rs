//! Recall/QPS sweep driver (the measurement methodology of §5.1).
//!
//! The paper evaluates every algorithm by sweeping the two query-time
//! parameters — beam width and ε — over a fixed index, measuring QPS with
//! all threads (batch-parallel across queries) and 10@10 recall per point.
//! [`sweep`] implements exactly that for anything implementing
//! [`AnnIndex`]; the IVF/LSH baselines interpret `beam` as
//! `nprobe`/probes, which is how FAISS curves are produced in practice.

use ann_data::{GroundTruth, PointSet, VectorElem};
use parlayann::{AnnIndex, QueryParams, SearchStats, VisitedMode};
use std::time::Instant;

/// One measured point on a recall/QPS tradeoff curve.
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint {
    /// Beam width (or `nprobe` for IVF, probe budget for LSH).
    pub beam: usize,
    /// (1+ε) cut used.
    pub cut: f32,
    /// 10@10 recall over the query set.
    pub recall: f64,
    /// Queries per second (batch-parallel, wall clock).
    pub qps: f64,
    /// Mean distance comparisons per query.
    pub dist_comps: f64,
}

/// Runs all queries through the index's batched path ([`AnnIndex::search_batch`]
/// — one task per query over pooled scratch), returning per-query
/// result ids and deterministically aggregated stats. Every figure
/// experiment measures through here, so the whole evaluation exercises the
/// unified query layer.
pub fn tabulate_queries<T: VectorElem, I: AnnIndex<T> + ?Sized>(
    index: &I,
    queries: &PointSet<T>,
    params: &QueryParams,
) -> (Vec<Vec<u32>>, SearchStats) {
    let per_query = index.search_batch(queries, params);
    let total = parlayann::aggregate_stats(&per_query);
    let ids = per_query
        .into_iter()
        .map(|(r, _)| r.into_iter().map(|(id, _)| id).collect())
        .collect();
    (ids, total)
}

/// Sweeps `(beam, cut)` combinations, producing the recall/QPS curve.
///
/// Each configuration is run twice and the faster run is kept (standard
/// warm-cache practice for QPS curves).
pub fn sweep<T: VectorElem, I: AnnIndex<T> + ?Sized>(
    index: &I,
    queries: &PointSet<T>,
    gt: &GroundTruth,
    k: usize,
    beams: &[usize],
    cuts: &[f32],
) -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for &beam in beams {
        for &cut in cuts {
            let params = QueryParams {
                k,
                beam: beam.max(k),
                cut,
                visited: VisitedMode::Approx,
                ..QueryParams::default()
            };
            let mut best_secs = f64::INFINITY;
            let mut kept: Option<(Vec<Vec<u32>>, SearchStats)> = None;
            for _ in 0..2 {
                let t0 = Instant::now();
                let (ids, stats) = tabulate_queries(index, queries, &params);
                let secs = t0.elapsed().as_secs_f64();
                if secs < best_secs {
                    best_secs = secs;
                    kept = Some((ids, stats));
                }
            }
            let (ids, stats) = kept.expect("at least one run");
            let recall = ann_data::recall_ids(gt, &ids, k, k);
            out.push(SweepPoint {
                beam,
                cut,
                recall,
                qps: queries.len() as f64 / best_secs,
                dist_comps: stats.dist_comps as f64 / queries.len() as f64,
            });
        }
    }
    // Sort by recall for readable curves.
    out.sort_by(|a, b| a.recall.total_cmp(&b.recall));
    out
}

/// Highest QPS achieved at or above `target` recall, if any sweep point
/// reaches it (the fixed-recall slices of Fig. 6).
pub fn qps_at_recall(points: &[SweepPoint], target: f64) -> Option<f64> {
    points
        .iter()
        .filter(|p| p.recall >= target)
        .map(|p| p.qps)
        .fold(None, |acc, q| Some(acc.map_or(q, |a: f64| a.max(q))))
}

/// Fewest distance comparisons at or above `target` recall.
pub fn dist_comps_at_recall(points: &[SweepPoint], target: f64) -> Option<f64> {
    points
        .iter()
        .filter(|p| p.recall >= target)
        .map(|p| p.dist_comps)
        .fold(None, |acc, d| Some(acc.map_or(d, |a: f64| a.min(d))))
}

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Appends rows as CSV under `results/<name>.csv` (best-effort).
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.csv"));
    let mut body = String::new();
    body.push_str(&headers.join(","));
    body.push('\n');
    for row in rows {
        body.push_str(&row.join(","));
        body.push('\n');
    }
    let _ = std::fs::write(path, body);
}

/// Formats a float compactly for tables.
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qps_at_recall_picks_best() {
        let pts = vec![
            SweepPoint {
                beam: 8,
                cut: 1.0,
                recall: 0.5,
                qps: 100.0,
                dist_comps: 10.0,
            },
            SweepPoint {
                beam: 16,
                cut: 1.0,
                recall: 0.9,
                qps: 50.0,
                dist_comps: 20.0,
            },
            SweepPoint {
                beam: 32,
                cut: 1.0,
                recall: 0.95,
                qps: 25.0,
                dist_comps: 40.0,
            },
        ];
        assert_eq!(qps_at_recall(&pts, 0.8), Some(50.0));
        assert_eq!(qps_at_recall(&pts, 0.99), None);
        assert_eq!(dist_comps_at_recall(&pts, 0.8), Some(20.0));
    }

    #[test]
    fn fmt_is_compact() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(12345.6), "12346");
        assert_eq!(fmt(12.34), "12.3");
        assert_eq!(fmt(0.987), "0.987");
    }
}
