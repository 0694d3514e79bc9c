//! One search fingerprint, whatever serves it.
//!
//! Integer kernels are exact in every SIMD tier and `search_batch` is
//! bit-identical at every thread count, so a Vamana build over the u8
//! corpus, searched as one batch, must produce ONE digest of every
//! `(id, distance-bits)` row — under `PARLAYANN_SIMD` = scalar / sse2 /
//! avx2 / avx512 and at 1 vs 8 threads. This catches a kernel change that
//! is fast but wrong in a way the per-pair proptests happen to miss (a
//! broken remainder path that only fires at this corpus's dimension), and
//! any schedule dependence in build or search.
//!
//! The SIMD tier is fixed once per process, so the tier axis re-runs this
//! test binary as a child process per tier and compares what the children
//! print.
//!
//! Each flat-graph family's *graph* is pinned too: the three builders
//! differ only in construction, so a constant per family is what proves a
//! refactor of them still builds the same graph, bit for bit.

use parlayann_suite::core::{
    AnnIndex, HcnngIndex, HcnngParams, PyNNDescentIndex, PyNNDescentParams, QueryParams,
    SearchStats, VamanaIndex, VamanaParams,
};
use parlayann_suite::data::bigann_like;
use std::process::Command;

/// Order-sensitive digest over every query's `(id, dist-bits)` sequence.
fn digest(results: &[(Vec<(u32, f32)>, SearchStats)]) -> u64 {
    results.iter().fold(0x9e3779b97f4a7c15, |acc, (res, _)| {
        res.iter().fold(acc, |acc, &(id, d)| {
            parlay::hash64_pair(parlay::hash64_pair(acc, id as u64), d.to_bits() as u64)
        })
    })
}

/// Build + batch search on `threads` workers, under this process's tier.
fn fingerprint(threads: usize) -> u64 {
    parlay::with_threads(threads, || {
        let data = bigann_like(3_000, 200, 42);
        let index = VamanaIndex::build(data.points.clone(), data.metric, &VamanaParams::default());
        let params = QueryParams {
            beam: 64,
            ..QueryParams::default()
        };
        digest(&index.search_batch(&data.queries, &params))
    })
}

/// The thread axis, and the line the tier axis reads from its children.
#[test]
fn fingerprint_is_equal_at_1_and_8_threads() {
    let one = fingerprint(1);
    assert_eq!(one, fingerprint(8), "1 vs 8 threads");
    println!("FINGERPRINT 0x{one:016x}");
}

/// `FlatGraph::fingerprint` of each family's default-parameter build over
/// the same corpus; equal at 1 and 8 threads and under every SIMD tier.
#[test]
fn each_family_builds_its_pinned_graph() {
    let data = bigann_like(3_000, 200, 42);
    let vamana = VamanaIndex::build(data.points.clone(), data.metric, &VamanaParams::default());
    assert_eq!(vamana.graph.fingerprint(), 0xcf775104d2e6d027, "Vamana");
    let hcnng = HcnngIndex::build(data.points.clone(), data.metric, &HcnngParams::default());
    assert_eq!(hcnng.graph.fingerprint(), 0xb32f8aaf23bf6922, "HCNNG");
    let pynn = PyNNDescentIndex::build(
        data.points.clone(),
        data.metric,
        &PyNNDescentParams::default(),
    );
    assert_eq!(pynn.graph.fingerprint(), 0x25933aadcb42a785, "PyNNDescent");
}

#[test]
fn fingerprint_is_equal_under_every_simd_tier() {
    let exe = std::env::current_exe().expect("test binary path");
    let fingerprints: Vec<(&str, String)> = ["scalar", "sse2", "avx2", "avx512"]
        .into_iter()
        .map(|tier| {
            // A cap above what the CPU has degrades to the best tier it
            // does have, so every leg runs everywhere.
            let out = Command::new(&exe)
                .args([
                    "fingerprint_is_equal_at_1_and_8_threads",
                    "--exact",
                    "--nocapture",
                ])
                .env("PARLAYANN_SIMD", tier)
                .output()
                .expect("spawn the test binary");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "child under PARLAYANN_SIMD={tier} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            // (libtest may print "test <name> ... " in front of it.)
            let fp = stdout
                .lines()
                .find_map(|l| l.split_once("FINGERPRINT ").map(|(_, fp)| fp.trim()))
                .unwrap_or_else(|| panic!("no FINGERPRINT line under {tier}:\n{stdout}"));
            (tier, fp.to_string())
        })
        .collect();
    println!("{fingerprints:?}");
    for (tier, fp) in &fingerprints {
        assert_eq!(fp, &fingerprints[0].1, "{tier} vs scalar");
    }
}
