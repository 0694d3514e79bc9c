//! Index persistence: one type, one loader.
//!
//! Determinism makes persistence trivial to validate: a saved-and-reloaded
//! index is bit-identical to the original (same fingerprint), and two
//! machines building from the same seed produce interchangeable files —
//! one of the paper's motivations ("persistence, crash recovery, or
//! replication ... for vector databases", §1).
//!
//! Every persisted index is a [`GraphIndex`] (Vamana, HCNNG or
//! PyNNDescent — they differ only in their builder), so
//! [`GraphIndex::save`] writes every file and [`GraphIndex::load`] reads
//! every file; [`load_index`] boxes it behind [`AnnIndex`].
//!
//! ## Format
//!
//! Version 2 (current) is kind-tagged:
//!
//! ```text
//! magic "PANN" | version=2 u32 | kind u8 | metric u8 | dim u64 | n u64 |
//! nstarts u32 | starts[nstarts] u32 | counts[n] u32 | edges u32… |
//! elem-tag u8 | points
//! ```
//!
//! Version 1 files (no kind tag, exactly one start vertex) predate the
//! unified query layer; they still load, as Vamana. An unknown version or
//! kind tag is an [`io::ErrorKind::InvalidData`] error, never a
//! misinterpretation.
//!
//! ## Hostile files
//!
//! The loader trusts nothing it reads. Every header-driven size (starts,
//! vertex counts, adjacency slots, point bytes) is checked against the
//! file's length with checked arithmetic before anything is allocated;
//! `dim` and `max_degree` must be positive, every neighbour id and start
//! must be `< n`, and the file must end where the points do. A corrupt
//! file is `InvalidData` or `UnexpectedEof`, never a panic, an allocator
//! abort, or an index whose first search reads out of bounds.

use crate::graph::FlatGraph;
use crate::index::GraphIndex;
use crate::query::{AnnIndex, IndexKind};
use crate::stats::BuildStats;
use ann_data::io::BinaryElem;
use ann_data::{Metric, PointSet};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"PANN";
/// Current file-format version.
pub const VERSION: u32 = 2;

fn metric_tag(m: Metric) -> u8 {
    match m {
        Metric::SquaredEuclidean => 0,
        Metric::InnerProduct => 1,
        Metric::Cosine => 2,
    }
}

fn metric_from_tag(t: u8) -> io::Result<Metric> {
    Ok(match t {
        0 => Metric::SquaredEuclidean,
        1 => Metric::InnerProduct,
        2 => Metric::Cosine,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown metric tag {other}"),
            ))
        }
    })
}

fn write_u32s(w: &mut impl Write, xs: &[u32]) -> io::Result<()> {
    // Row-by-row encode keeps the writer allocation-free.
    let mut buf = [0u8; 4];
    for &x in xs {
        buf.copy_from_slice(&x.to_le_bytes());
        w.write_all(&buf)?;
    }
    Ok(())
}

fn read_u32s(r: &mut impl Read, n: usize) -> io::Result<Vec<u32>> {
    let mut raw = vec![0u8; n * 4];
    r.read_exact(&mut raw)?;
    Ok(raw
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_u8(r: &mut impl Read) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// `count` as a `usize`, if the product of `count` and `factors` fits in
/// `len` (the source's byte length) — the guard every header-driven
/// allocation passes first.
fn within(len: u64, what: &str, count: u64, factors: &[u64]) -> io::Result<usize> {
    factors
        .iter()
        .try_fold(count, |acc, &f| acc.checked_mul(f))
        .filter(|&total| total <= len)
        .and_then(|_| usize::try_from(count).ok())
        .ok_or_else(|| invalid(format!("{what} ({count}) too large for a {len}-byte file")))
}

/// Prefixes an error with the file it came from, preserving its kind. A
/// corrupt shard inside a manifest directory is diagnosable only if the
/// error names which of the N sibling files failed and what was found
/// there, so every per-file decode error passes through here (public:
/// the store crate's manifest loader applies the same convention).
pub fn with_path(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// Writes a graph's adjacency (used standalone and by index save).
pub fn write_graph(w: &mut impl Write, graph: &FlatGraph) -> io::Result<()> {
    w.write_all(&(graph.len() as u64).to_le_bytes())?;
    w.write_all(&(graph.max_degree() as u64).to_le_bytes())?;
    let counts: Vec<u32> = (0..graph.len() as u32)
        .map(|v| graph.degree(v) as u32)
        .collect();
    write_u32s(w, &counts)?;
    for v in 0..graph.len() as u32 {
        write_u32s(w, graph.neighbors(v))?;
    }
    Ok(())
}

/// Reads a graph written by [`write_graph`] from a source of `len` bytes.
/// The header's sizes are checked against `len` before allocating (`n`
/// counts of 4 bytes, `n × max_degree` adjacency slots), and every row
/// against `max_degree` and `n`.
pub fn read_graph(r: &mut impl Read, len: u64) -> io::Result<FlatGraph> {
    let n = read_u64(r)?;
    let max_degree = read_u64(r)?;
    if max_degree == 0 {
        return Err(invalid("graph declares max_degree 0"));
    }
    let n = within(len, "graph vertex count", n, &[4])?;
    let max_degree = within(len, "graph degree bound", max_degree, &[n as u64])?;
    let counts = read_u32s(r, n)?;
    let mut graph = FlatGraph::new(n, max_degree);
    for (v, &c) in counts.iter().enumerate() {
        if c as usize > max_degree {
            return Err(invalid(format!(
                "vertex {v} degree {c} exceeds bound {max_degree}"
            )));
        }
        let row = read_u32s(r, c as usize)?;
        if let Some(&bad) = row.iter().find(|&&w| w as usize >= n) {
            return Err(invalid(format!(
                "vertex {v} has neighbour {bad} out of range ({n})"
            )));
        }
        graph.set_neighbors(v as u32, &row);
    }
    Ok(graph)
}

fn write_points<T: BinaryElem>(w: &mut impl Write, points: &PointSet<T>) -> io::Result<()> {
    w.write_all(&[T::WIDTH as u8])?;
    let mut buf = vec![0u8; T::WIDTH];
    for i in 0..points.len() {
        for &x in points.point(i) {
            x.encode(&mut buf);
            w.write_all(&buf)?;
        }
    }
    Ok(())
}

/// Reads `n × dim` elements from a source of `len` bytes.
fn read_points<T: BinaryElem>(
    r: &mut impl Read,
    n: usize,
    dim: u64,
    len: u64,
) -> io::Result<PointSet<T>> {
    let width = read_u8(r)?;
    if width as usize != T::WIDTH {
        return Err(invalid(format!(
            "element width mismatch: file {} vs requested {}",
            width,
            T::WIDTH
        )));
    }
    if dim == 0 {
        return Err(invalid("index file declares dimension 0"));
    }
    let dim = within(len, "dimension", dim, &[n as u64, T::WIDTH as u64])?;
    let mut raw = vec![0u8; n * dim * T::WIDTH];
    r.read_exact(&mut raw)?;
    let data: Vec<T> = raw.chunks_exact(T::WIDTH).map(T::decode).collect();
    Ok(PointSet::new(data, dim))
}

impl<T: BinaryElem> GraphIndex<T> {
    /// Saves the index (kind, graph, starts, vectors, metric) to `path`
    /// in the v2 format.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let points = self.points();
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&[self.kind.tag()])?;
        w.write_all(&[metric_tag(self.metric)])?;
        w.write_all(&(points.dim() as u64).to_le_bytes())?;
        w.write_all(&(points.len() as u64).to_le_bytes())?;
        w.write_all(&(self.starts.len() as u32).to_le_bytes())?;
        write_u32s(&mut w, &self.starts)?;
        write_graph(&mut w, &self.graph)?;
        write_points(&mut w, points)?;
        w.flush()
    }

    /// Loads an index written by [`Self::save`] (v2, any flat family) or
    /// by the pre-kind-tag writer (v1 → Vamana). Errors name `path`.
    pub fn load(path: &Path) -> io::Result<Self> {
        let file = File::open(path).map_err(|e| with_path(path, e))?;
        let len = file.metadata().map_err(|e| with_path(path, e))?.len();
        Self::decode(BufReader::new(file), len).map_err(|e| with_path(path, e))
    }

    /// [`Self::load`] against an already-open reader over `len` bytes (no
    /// path context — `load` adds it).
    fn decode(mut r: impl Read, len: u64) -> io::Result<Self> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(invalid(format!(
                "bad magic {:02x?} (expected {MAGIC:02x?} — not a ParlayANN index file)",
                magic
            )));
        }
        let version = read_u32(&mut r)?;
        let kind = match version {
            1 => IndexKind::Vamana,
            2 => {
                let tag = read_u8(&mut r)?;
                IndexKind::from_tag(tag)
                    .ok_or_else(|| invalid(format!("unknown index kind tag {tag}")))?
            }
            other => {
                return Err(invalid(format!(
                    "unsupported index file version {other} (this build reads 1..={VERSION})"
                )))
            }
        };
        if !matches!(
            kind,
            IndexKind::Vamana | IndexKind::Hcnng | IndexKind::PyNNDescent
        ) {
            return Err(invalid(format!(
                "index kind {} has no persistent form",
                kind.name()
            )));
        }
        let metric = metric_from_tag(read_u8(&mut r)?)?;
        let dim = read_u64(&mut r)?;
        let n = read_u64(&mut r)?;
        let starts = if version == 1 {
            vec![read_u32(&mut r)?]
        } else {
            let nstarts = read_u32(&mut r)?;
            read_u32s(&mut r, within(len, "start count", nstarts.into(), &[4])?)?
        };
        if starts.is_empty() {
            return Err(invalid("index file declares no start vertices"));
        }
        if let Some(&bad) = starts.iter().find(|&&s| s as u64 >= n) {
            return Err(invalid(format!("start vertex {bad} out of range ({n})")));
        }
        let graph = read_graph(&mut r, len)?;
        if graph.len() as u64 != n {
            return Err(invalid("graph/point count mismatch"));
        }
        let points = read_points(&mut r, graph.len(), dim, len)?;
        if r.read(&mut [0u8])? != 0 {
            return Err(invalid("trailing bytes after the points"));
        }
        Ok(GraphIndex::from_parts(
            kind,
            graph,
            starts,
            metric,
            BuildStats::default(),
            points,
        ))
    }
}

/// Loads any persisted index behind the uniform [`AnnIndex`] interface
/// (every persisted index is a [`GraphIndex`]; the file's kind tag says
/// which builder made it). Kinds without a persistent form (HNSW, the
/// baselines) cannot appear in well-formed files and are rejected.
/// Returned boxes are `Send + Sync` so loaders can hand them straight to
/// serving layers and sharded stores.
pub fn load_index<T: BinaryElem>(path: &Path) -> io::Result<Box<dyn AnnIndex<T> + Send + Sync>> {
    Ok(Box::new(GraphIndex::load(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beam::QueryParams;
    use crate::diskann::{VamanaIndex, VamanaParams};
    use crate::hcnng::{HcnngIndex, HcnngParams};
    use crate::pynndescent::{PyNNDescentIndex, PyNNDescentParams};
    use ann_data::bigann_like;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("parlayann-io-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn graph_roundtrip() {
        let mut g = FlatGraph::new(5, 3);
        g.set_neighbors(0, &[1, 2]);
        g.set_neighbors(4, &[0]);
        let mut buf = Vec::new();
        write_graph(&mut buf, &g).unwrap();
        let back = read_graph(&mut buf.as_slice(), buf.len() as u64).unwrap();
        assert_eq!(back.fingerprint(), g.fingerprint());
        assert_eq!(back.max_degree(), 3);
    }

    /// One small index of every flat family (Vamana, HCNNG, PyNNDescent)
    /// over the same data, and its queries.
    fn every_flat_family() -> ([GraphIndex<u8>; 3], PointSet<u8>) {
        let data = bigann_like(500, 5, 79);
        let pynn = PyNNDescentParams {
            num_trees: 4,
            max_iters: 3,
            ..PyNNDescentParams::default()
        };
        let built = [
            VamanaIndex::build(data.points.clone(), data.metric, &VamanaParams::default()),
            HcnngIndex::build(data.points.clone(), data.metric, &HcnngParams::default()),
            PyNNDescentIndex::build(data.points.clone(), data.metric, &pynn),
        ];
        (built, data.queries)
    }

    fn roundtrip_qp() -> QueryParams {
        QueryParams {
            beam: 32,
            ..QueryParams::default()
        }
    }

    #[test]
    fn index_roundtrip_preserves_everything() {
        // Every flat family through GraphIndex::load: kind, starts,
        // metric, points, graph and search answers (with their counters)
        // survive.
        let (built, queries) = every_flat_family();
        let qp = roundtrip_qp();
        for index in &built {
            let path = tmp(&format!("{}.pann", index.kind.name()));
            index.save(&path).unwrap();
            let loaded = GraphIndex::<u8>::load(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            assert_eq!(loaded.kind, index.kind);
            assert_eq!(loaded.starts, index.starts);
            assert_eq!(loaded.metric, index.metric);
            assert_eq!(loaded.points(), index.points());
            assert_eq!(loaded.graph.fingerprint(), index.graph.fingerprint());
            for q in 0..queries.len() {
                let query = queries.point(q);
                let want = index.search(query, &qp);
                assert_eq!(loaded.search(query, &qp), want, "{:?}", index.kind);
            }
        }
    }

    #[test]
    fn kind_tagged_roundtrip_through_dyn_loader() {
        // Saved through the trait's persistence hook and loaded through
        // load_index, every flat family reports its own kind and answers
        // like the index it was saved from.
        let (built, queries) = every_flat_family();
        let qp = roundtrip_qp();
        for index in &built {
            let path = tmp(&format!("dyn-{}.pann", index.kind.name()));
            AnnIndex::save_index(index, &path).unwrap();
            let loaded = load_index::<u8>(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            assert_eq!(loaded.kind(), index.kind);
            for q in 0..queries.len() {
                let query = queries.point(q);
                assert_eq!(
                    loaded.search(query, &qp),
                    index.search(query, &qp),
                    "{:?}",
                    index.kind
                );
            }
        }
    }

    #[test]
    fn v1_files_still_load_as_vamana() {
        // Hand-write a v1 record (the pre-kind-tag layout) and check both
        // the concrete loader and the dyn dispatcher decode it as Vamana.
        let data = bigann_like(80, 1, 78);
        let index = VamanaIndex::build(data.points.clone(), data.metric, &VamanaParams::default());
        let path = tmp("v1.pann");
        {
            let mut w = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
            w.write_all(MAGIC).unwrap();
            w.write_all(&1u32.to_le_bytes()).unwrap();
            w.write_all(&[metric_tag(index.metric)]).unwrap();
            w.write_all(&(index.points().dim() as u64).to_le_bytes())
                .unwrap();
            w.write_all(&(index.points().len() as u64).to_le_bytes())
                .unwrap();
            w.write_all(&index.starts[0].to_le_bytes()).unwrap();
            write_graph(&mut w, &index.graph).unwrap();
            write_points(&mut w, index.points()).unwrap();
            w.flush().unwrap();
        }
        let loaded = VamanaIndex::<u8>::load(&path).unwrap();
        assert_eq!(loaded.graph.fingerprint(), index.graph.fingerprint());
        assert_eq!(loaded.kind, IndexKind::Vamana);
        let dyn_loaded = load_index::<u8>(&path).unwrap();
        assert_eq!(dyn_loaded.kind(), IndexKind::Vamana);
        std::fs::remove_file(&path).unwrap();
    }

    /// A saved 500-point Vamana file, its bytes, and the queries.
    fn saved_small_index(name: &str) -> (std::path::PathBuf, Vec<u8>, PointSet<u8>) {
        let data = bigann_like(500, 5, 81);
        let index = VamanaIndex::build(data.points, data.metric, &VamanaParams::default());
        let path = tmp(name);
        index.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        (path, bytes, data.queries)
    }

    fn load_patched(path: &Path, bytes: &[u8]) -> io::Result<Box<dyn AnnIndex<u8> + Send + Sync>> {
        std::fs::write(path, bytes).unwrap();
        load_index::<u8>(path)
    }

    #[test]
    fn hostile_headers_are_invalid_data() {
        let (path, bytes, _) = saved_small_index("hostile.pann");
        // The v2 header is 30 bytes + 4 per start (Vamana has one); the
        // graph header (n, max_degree) follows, then n counts, then edges.
        let (graph_at, first_edge) = (34, 34 + 16 + 4 * 500);
        let patched = |at: usize, with: &[u8]| {
            let mut b = bytes.clone();
            b[at..at + with.len()].copy_from_slice(with);
            b
        };
        for (what, patched) in [
            (
                "neighbour id = n",
                patched(first_edge, &500u32.to_le_bytes()),
            ),
            ("max_degree 0", patched(graph_at + 8, &0u64.to_le_bytes())),
            (
                "graph n = 2^40",
                patched(graph_at, &(1u64 << 40).to_le_bytes()),
            ),
            ("dim = 2^62", patched(10, &(1u64 << 62).to_le_bytes())),
            ("trailing byte", [bytes.as_slice(), &[0]].concat()),
        ] {
            let err = load_patched(&path, &patched)
                .err()
                .unwrap_or_else(|| panic!("{what}: loaded"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mutated_bytes_never_panic_the_loader() {
        // Every header byte (file + graph header) and a hash-spread sample
        // of the rest, each set to 0x00, 0xFF and one pseudo-random value:
        // the loader answers Ok, InvalidData or UnexpectedEof, and an index
        // it accepts answers every query without panicking.
        let (path, bytes, queries) = saved_small_index("mutated.pann");
        let header = 34 + 16;
        let sample = (0..256u64).map(|i| {
            header + (parlay::hash64(i ^ 0x6d75) % (bytes.len() - header) as u64) as usize
        });
        let qp = QueryParams::default();
        let mut accepted = 0usize;
        for at in (0..header).chain(sample) {
            let random = parlay::hash64(at as u64) as u8;
            for value in [0x00, 0xFF, random] {
                let mut patched = bytes.clone();
                patched[at] = value;
                match load_patched(&path, &patched) {
                    Ok(index) => {
                        accepted += 1;
                        for q in 0..queries.len() {
                            index.search(queries.point(q), &qp);
                        }
                    }
                    Err(e) => assert!(
                        matches!(
                            e.kind(),
                            io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                        ),
                        "byte {at} = {value:#04x}: {e}"
                    ),
                }
            }
        }
        // Point bytes and most edge ids are free to change.
        assert!(accepted > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unknown_version_is_a_clear_invalid_data_error() {
        // A corrupted header claiming version 9 must fail loudly, not be
        // misread as either known layout.
        let path = tmp("badversion.pann");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&9u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]); // junk payload
        std::fs::write(&path, &bytes).unwrap();
        let err = match VamanaIndex::<u8>::load(&path) {
            Err(e) => e,
            Ok(_) => panic!("version 9 must fail"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version 9"), "{err}");
        let err = match load_index::<u8>(&path) {
            Err(e) => e,
            Ok(_) => panic!("dyn loader must fail too"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unknown_kind_tag_is_rejected() {
        let path = tmp("badkind.pann");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.push(42); // no such kind
        bytes.extend_from_slice(&[0u8; 64]);
        std::fs::write(&path, &bytes).unwrap();
        let err = match load_index::<u8>(&path) {
            Err(e) => e,
            Ok(_) => panic!("kind 42 must fail"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("kind tag 42"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_element_type_is_rejected() {
        let data = bigann_like(100, 1, 7);
        let index = VamanaIndex::build(data.points.clone(), data.metric, &VamanaParams::default());
        let path = tmp("idx2.pann");
        index.save(&path).unwrap();
        let err = match VamanaIndex::<f32>::load(&path) {
            Err(e) => e,
            Ok(_) => panic!("loading with the wrong element type must fail"),
        };
        std::fs::remove_file(&path).unwrap();
        assert!(err.to_string().contains("width mismatch"));
    }

    #[test]
    fn corrupt_magic_is_rejected() {
        let path = tmp("bad.pann");
        std::fs::write(&path, b"NOPE....").unwrap();
        assert!(VamanaIndex::<u8>::load(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn decode_errors_name_the_offending_file() {
        // In a directory of shards, a corrupt member must be identifiable
        // from the error alone: path + what was found there.
        let path = tmp("which-shard.pann");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&9u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = load_index::<u8>(&path).err().expect("version 9 must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains(path.to_str().unwrap()) && msg.contains("version 9"),
            "error must name path and found version: {msg}"
        );
        // Truncation (UnexpectedEof) keeps its kind but gains the path.
        std::fs::write(&path, &MAGIC[..2]).unwrap();
        let err = load_index::<u8>(&path).err().expect("truncation must fail");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains(path.to_str().unwrap()), "{err}");
        // A missing file names itself too.
        std::fs::remove_file(&path).unwrap();
        let err = load_index::<u8>(&path)
            .err()
            .expect("missing file must fail");
        assert!(err.to_string().contains(path.to_str().unwrap()), "{err}");
    }
}
