//! The on-disk form of a sharded store: a directory of per-shard index
//! files plus a `MANIFEST` header.
//!
//! ```text
//! <dir>/
//!   MANIFEST          header: partitioner, dim, per-shard kind/len/checksum, id maps
//!   shard-0000.pann   ordinary kind-tagged index files (crate::io v2 format)
//!   shard-0001.pann
//!   ...
//! ```
//!
//! The shard files are exactly what [`AnnIndex::save_index`] writes for a
//! single index — a shard can be built, saved, and inspected on its own,
//! then adopted into a manifest; conversely `parlayann::io::load_index`
//! opens any individual shard file. The `MANIFEST` carries what the
//! directory structure cannot:
//!
//! * the **partitioner** that produced the assignment (so a rebuild can
//!   reproduce it),
//! * per-shard **kind / length / checksum** — the checksum (FNV-1a over
//!   the shard file's bytes) is verified before a shard is decoded, so a
//!   truncated or bit-rotted member fails fast *by name* instead of
//!   surfacing as a confusing decode error three fields later,
//! * the per-shard **local→global id maps** that make merged results
//!   corpus-addressed.
//!
//! ```text
//! MANIFEST layout (little-endian):
//! magic "PSHD" | version=2 u32 | elem-width u8 | dim u64 | total u64 |
//! partitioner: tag u8 | shards u32 | seed u64 | iters u32 | sample u64 |
//! shard_count u32 |
//! per shard: kind u8 | len u64 | checksum u64 |
//! per shard: globals[len] u32 |
//! codebook flag u8 | if 1: checksum u64 | centroids[shard_count × dim] f32
//! ```
//!
//! Version 2 appended the **codebook section**: the shard-centroid
//! matrix a k-means store routes with (see
//! [`ShardCodebook`]), one `f32` row per retained
//! shard slot, guarded by its own FNV-1a checksum. Version-1 manifests
//! (no section) still load — they come back without a codebook and
//! simply route with full fan-out. [`Routing`](crate::Routing) itself is
//! *not* persisted: `nprobe` is a serving knob, chosen per deployment.
//!
//! An unknown version or partitioner tag is an
//! [`io::ErrorKind::InvalidData`] error naming the manifest path, never a
//! misinterpretation — the same contract as the single-index format.

use crate::partition::{Partitioner, ShardCodebook};
use crate::sharded::{Shard, ShardedIndex};
use ann_data::io::BinaryElem;
use ann_data::VectorElem;
use parlayann::io::with_path;
use parlayann::{AnnIndex, IndexKind};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"PSHD";
/// Current manifest-format version (2 added the codebook section).
pub const MANIFEST_VERSION: u32 = 2;
/// Oldest manifest version this build still reads.
pub const MANIFEST_MIN_VERSION: u32 = 1;
/// Name of the header file inside a manifest directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// The file holding shard `s` of a manifest directory.
pub fn shard_path(dir: &Path, s: usize) -> PathBuf {
    dir.join(format!("shard-{s:04}.pann"))
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// FNV-1a 64 over a byte slice (the codebook section's checksum).
pub fn bytes_checksum(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a 64 over a file's bytes (streamed; no dependency on file size).
pub fn file_checksum(path: &Path) -> io::Result<u64> {
    let mut r = BufReader::new(File::open(path).map_err(|e| with_path(path, e))?);
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut buf = [0u8; 8192];
    loop {
        let n = r.read(&mut buf).map_err(|e| with_path(path, e))?;
        if n == 0 {
            return Ok(hash);
        }
        for &b in &buf[..n] {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn write_u32(w: &mut impl Write, x: u32) -> io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

fn write_u64(w: &mut impl Write, x: u64) -> io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

fn read_u8(r: &mut impl Read) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
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

fn partitioner_fields(p: Partitioner) -> (u8, u32, u64, u32, u64) {
    match p {
        Partitioner::Hash { shards, seed } => (0, shards as u32, seed, 0, 0),
        Partitioner::KMeans {
            shards,
            iters,
            sample,
            seed,
        } => (1, shards as u32, seed, iters as u32, sample as u64),
    }
}

fn partitioner_from_fields(
    tag: u8,
    shards: u32,
    seed: u64,
    iters: u32,
    sample: u64,
) -> io::Result<Partitioner> {
    Ok(match tag {
        0 => Partitioner::Hash {
            shards: shards as usize,
            seed,
        },
        1 => Partitioner::KMeans {
            shards: shards as usize,
            iters: iters as usize,
            sample: sample as usize,
            seed,
        },
        other => return Err(invalid(format!("unknown partitioner tag {other}"))),
    })
}

/// Per-shard metadata decoded from a `MANIFEST` header.
struct ShardMeta {
    kind: IndexKind,
    len: usize,
    checksum: u64,
    globals: Vec<u32>,
}

/// Saves `index` as a manifest directory at `dir` (created if missing;
/// existing shard files are overwritten). Each shard is written through
/// its own [`AnnIndex::save_index`], then checksummed; the `MANIFEST`
/// header is written **last**, so a crash mid-save leaves no valid
/// manifest behind.
pub fn save_manifest<T: VectorElem>(dir: &Path, index: &ShardedIndex<T>) -> io::Result<()> {
    save_manifest_dyn(dir, index)
}

/// [`save_manifest`] behind the object-safe [`AnnIndex::save_index`] hook.
pub(crate) fn save_manifest_dyn<T: VectorElem>(
    dir: &Path,
    index: &ShardedIndex<T>,
) -> io::Result<()> {
    let shards = index.shards();
    // Nested stores work in memory (a shard may itself be sharded) but
    // have no persistent form yet: a sharded shard would save as a
    // *directory* where the manifest expects a checksummable file.
    // Refuse up front, before touching the filesystem.
    if let Some((s, _)) = shards
        .iter()
        .enumerate()
        .find(|(_, sh)| sh.index.kind() == IndexKind::Sharded)
    {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            format!(
                "{}: shard {s} is itself a sharded store; nested stores have no \
                 persistent form yet — flatten to one level before saving",
                dir.display()
            ),
        ));
    }
    std::fs::create_dir_all(dir).map_err(|e| with_path(dir, e))?;
    let mut checksums = Vec::with_capacity(shards.len());
    for (s, shard) in shards.iter().enumerate() {
        let path = shard_path(dir, s);
        shard.index.save_index(&path).map_err(|e| {
            // A shard kind without a persistent form surfaces here.
            with_path(&path, e)
        })?;
        checksums.push(file_checksum(&path)?);
    }
    let manifest_path = dir.join(MANIFEST_FILE);
    let mut w =
        BufWriter::new(File::create(&manifest_path).map_err(|e| with_path(&manifest_path, e))?);
    w.write_all(MAGIC)?;
    write_u32(&mut w, MANIFEST_VERSION)?;
    w.write_all(&[std::mem::size_of::<T>() as u8])?;
    write_u64(&mut w, AnnIndex::dim(index) as u64)?;
    write_u64(&mut w, AnnIndex::len(index) as u64)?;
    let (tag, pshards, seed, iters, sample) = partitioner_fields(index.partitioner());
    w.write_all(&[tag])?;
    write_u32(&mut w, pshards)?;
    write_u64(&mut w, seed)?;
    write_u32(&mut w, iters)?;
    write_u64(&mut w, sample)?;
    write_u32(&mut w, shards.len() as u32)?;
    for (shard, &checksum) in shards.iter().zip(&checksums) {
        w.write_all(&[shard.index.kind().tag()])?;
        write_u64(&mut w, shard.globals.len() as u64)?;
        write_u64(&mut w, checksum)?;
    }
    for shard in shards {
        for &g in &shard.globals {
            write_u32(&mut w, g)?;
        }
    }
    // Codebook section (v2): the shard-centroid matrix routed search
    // ranks against, with its own checksum so a corrupt centroid can't
    // silently misroute every query.
    match index.codebook() {
        Some(cb) => {
            debug_assert_eq!(cb.len(), shards.len());
            let mut bytes = Vec::with_capacity(cb.centroids().len() * 4);
            for &x in cb.centroids() {
                bytes.extend_from_slice(&x.to_le_bytes());
            }
            w.write_all(&[1])?;
            write_u64(&mut w, bytes_checksum(&bytes))?;
            w.write_all(&bytes)?;
        }
        None => w.write_all(&[0])?,
    }
    w.flush().map_err(|e| with_path(&manifest_path, e))
}

/// Everything a `MANIFEST` header decodes to.
struct ManifestHeader {
    partitioner: Partitioner,
    dim: usize,
    metas: Vec<ShardMeta>,
    codebook: Option<ShardCodebook>,
}

/// Decodes a `MANIFEST` header. Errors name the manifest path.
fn read_manifest_header<T>(manifest_path: &Path) -> io::Result<ManifestHeader> {
    fn inner<T>(r: &mut impl Read) -> io::Result<ManifestHeader> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(invalid(format!(
                "bad magic {magic:02x?} (expected {MAGIC:02x?} — not a manifest)"
            )));
        }
        let version = read_u32(r)?;
        if !(MANIFEST_MIN_VERSION..=MANIFEST_VERSION).contains(&version) {
            return Err(invalid(format!(
                "unsupported manifest version {version} (this build reads \
                 {MANIFEST_MIN_VERSION}..={MANIFEST_VERSION})"
            )));
        }
        let width = read_u8(r)?;
        if width as usize != std::mem::size_of::<T>() {
            return Err(invalid(format!(
                "element width mismatch: manifest {} vs requested {}",
                width,
                std::mem::size_of::<T>()
            )));
        }
        let dim = read_u64(r)? as usize;
        let total = read_u64(r)? as usize;
        let tag = read_u8(r)?;
        let pshards = read_u32(r)?;
        let seed = read_u64(r)?;
        let iters = read_u32(r)?;
        let sample = read_u64(r)?;
        let partitioner = partitioner_from_fields(tag, pshards, seed, iters, sample)?;
        // The MANIFEST is not itself checksummed, so every header-derived
        // size is validated against `total` (and coverage of 0..total)
        // before it drives an allocation or an index-structure invariant:
        // a flipped bit must surface as InvalidData here, never as an
        // allocator abort or a downstream assertion.
        if total > u32::MAX as usize {
            return Err(invalid(format!("implausible total point count {total}")));
        }
        let shard_count = read_u32(r)? as usize;
        if shard_count > total.max(1) {
            return Err(invalid(format!(
                "shard count {shard_count} exceeds total point count {total}"
            )));
        }
        let mut metas = Vec::with_capacity(shard_count);
        let mut sum = 0usize;
        for s in 0..shard_count {
            let kind_tag = read_u8(r)?;
            let kind = IndexKind::from_tag(kind_tag)
                .ok_or_else(|| invalid(format!("unknown shard kind tag {kind_tag}")))?;
            let len = read_u64(r)? as usize;
            sum += len;
            if len > total || sum > total {
                return Err(invalid(format!(
                    "shard {s} length {len} overflows the declared total {total}"
                )));
            }
            let checksum = read_u64(r)?;
            metas.push(ShardMeta {
                kind,
                len,
                checksum,
                globals: Vec::new(),
            });
        }
        if sum != total {
            return Err(invalid(format!(
                "shard lengths sum to {sum} but the manifest declares {total}"
            )));
        }
        let mut seen = vec![false; total];
        for (s, meta) in metas.iter_mut().enumerate() {
            let mut raw = vec![0u8; meta.len * 4];
            r.read_exact(&mut raw)?;
            meta.globals = raw
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            for &g in &meta.globals {
                if (g as usize) >= total || std::mem::replace(&mut seen[g as usize], true) {
                    return Err(invalid(format!(
                        "shard {s}: global id {g} out of range or duplicated \
                         (id maps must cover 0..{total} exactly once)"
                    )));
                }
            }
        }
        // Codebook section — absent before v2 (those stores route with
        // full fan-out; the dial only needs centroids).
        let codebook = if version >= 2 {
            match read_u8(r)? {
                0 => None,
                1 => {
                    let checksum = read_u64(r)?;
                    let floats = metas
                        .len()
                        .checked_mul(dim)
                        .filter(|&n| n <= (1 << 28))
                        .ok_or_else(|| {
                            invalid(format!(
                                "implausible codebook size: {} shards × dim {dim}",
                                metas.len()
                            ))
                        })?;
                    let mut bytes = vec![0u8; floats * 4];
                    r.read_exact(&mut bytes)?;
                    let found = bytes_checksum(&bytes);
                    if found != checksum {
                        return Err(invalid(format!(
                            "codebook checksum mismatch: manifest 0x{checksum:016x}, \
                             section 0x{found:016x} (centroids corrupt)"
                        )));
                    }
                    let centroids: Vec<f32> = bytes
                        .chunks_exact(4)
                        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                        .collect();
                    if dim == 0 {
                        return Err(invalid("codebook present but dim is 0"));
                    }
                    Some(ShardCodebook::new(centroids, dim))
                }
                other => {
                    return Err(invalid(format!("unknown codebook flag {other}")));
                }
            }
        } else {
            None
        };
        Ok(ManifestHeader {
            partitioner,
            dim,
            metas,
            codebook,
        })
    }
    let mut r = BufReader::new(File::open(manifest_path).map_err(|e| with_path(manifest_path, e))?);
    inner::<T>(&mut r).map_err(|e| with_path(manifest_path, e))
}

/// Loads a manifest directory saved by [`save_manifest`] back into a
/// [`ShardedIndex`]. Every shard file's checksum is verified before it
/// is decoded, and every mismatch (checksum, kind, length, element type)
/// is an error naming the offending file. A v2 manifest's codebook comes
/// back attached (ready for [`Routing`](crate::Routing)); older
/// manifests load without one and route with full fan-out.
pub fn load_manifest<T: VectorElem + BinaryElem>(dir: &Path) -> io::Result<ShardedIndex<T>> {
    let ManifestHeader {
        partitioner,
        dim,
        metas,
        codebook,
    } = read_manifest_header::<T>(&dir.join(MANIFEST_FILE))?;
    let mut shards = Vec::with_capacity(metas.len());
    for (s, meta) in metas.into_iter().enumerate() {
        let path = shard_path(dir, s);
        let found = file_checksum(&path)?;
        if found != meta.checksum {
            return Err(invalid(format!(
                "{}: checksum mismatch: manifest 0x{:016x}, file 0x{found:016x} (shard corrupt or replaced)",
                path.display(),
                meta.checksum
            )));
        }
        let index = parlayann::io::load_index::<T>(&path)?;
        if index.kind() != meta.kind {
            return Err(invalid(format!(
                "{}: manifest says {} but the file holds {}",
                path.display(),
                meta.kind.name(),
                index.kind().name()
            )));
        }
        if index.len() != meta.len {
            return Err(invalid(format!(
                "{}: manifest says {} points but the file holds {}",
                path.display(),
                meta.len,
                index.len()
            )));
        }
        shards.push(Shard {
            index: Arc::from(index),
            globals: meta.globals,
        });
    }
    // The header already proved the id maps cover 0..total exactly once
    // and per-shard lengths match, so `from_shards`' (panicking)
    // invariants cannot fire on decoded input.
    let mut index = ShardedIndex::from_shards(shards, partitioner, dim);
    index.set_codebook(codebook);
    Ok(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Partitioner;
    use ann_data::bigann_like;
    use parlayann::{QueryParams, VamanaIndex, VamanaParams};

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("parlayann-store-{}-{name}", std::process::id()));
        p
    }

    fn build_sharded(n: usize, shards: usize) -> (ShardedIndex<u8>, ann_data::Dataset<u8>) {
        let d = bigann_like(n, 10, 77);
        let metric = d.metric;
        let index = ShardedIndex::build_with(&d.points, Partitioner::hash(shards, 3), |_, ps| {
            Arc::new(VamanaIndex::build(ps, metric, &VamanaParams::default()))
        });
        (index, d)
    }

    #[test]
    fn manifest_roundtrip_preserves_results_bitwise() {
        let (index, d) = build_sharded(600, 3);
        let dir = tmp("roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        AnnIndex::save_index(&index, &dir).unwrap();
        let loaded = load_manifest::<u8>(&dir).unwrap();
        assert_eq!(AnnIndex::len(&loaded), 600);
        assert_eq!(AnnIndex::dim(&loaded), AnnIndex::dim(&index));
        assert_eq!(loaded.partitioner(), index.partitioner());
        let params = QueryParams {
            k: 10,
            beam: 32,
            ..QueryParams::default()
        };
        let want = index.search_batch(&d.queries, &params);
        let got = loaded.search_batch(&d.queries, &params);
        for (q, ((w, _), (g, _))) in want.iter().zip(&got).enumerate() {
            assert_eq!(w.len(), g.len(), "query {q}");
            for (a, b) in w.iter().zip(g) {
                assert_eq!(a.0, b.0, "query {q}");
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "query {q}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_shard_fails_by_name_with_checksum_detail() {
        let (index, _) = build_sharded(300, 2);
        let dir = tmp("corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        save_manifest(&dir, &index).unwrap();
        // Flip one byte in shard 1.
        let victim = shard_path(&dir, 1);
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&victim, &bytes).unwrap();
        let err = load_manifest::<u8>(&dir)
            .err()
            .expect("corruption must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains("shard-0001") && msg.contains("checksum mismatch"),
            "error must name the corrupt shard: {msg}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_shard_and_bad_header_fail_clearly() {
        let (index, _) = build_sharded(200, 2);
        let dir = tmp("missing");
        let _ = std::fs::remove_dir_all(&dir);
        save_manifest(&dir, &index).unwrap();
        std::fs::remove_file(shard_path(&dir, 0)).unwrap();
        let err = load_manifest::<u8>(&dir)
            .err()
            .expect("missing shard must fail");
        assert!(err.to_string().contains("shard-0000"), "{err}");

        // Unsupported version in the header.
        let manifest = dir.join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&manifest).unwrap();
        bytes[4..8].copy_from_slice(&9u32.to_le_bytes());
        std::fs::write(&manifest, &bytes).unwrap();
        let err = load_manifest::<u8>(&dir)
            .err()
            .expect("version 9 must fail");
        let msg = err.to_string();
        assert!(
            msg.contains("MANIFEST") && msg.contains("version 9"),
            "{msg}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_element_type_is_rejected_at_the_header() {
        let (index, _) = build_sharded(150, 2);
        let dir = tmp("elem");
        let _ = std::fs::remove_dir_all(&dir);
        save_manifest(&dir, &index).unwrap();
        let err = load_manifest::<f32>(&dir)
            .err()
            .expect("f32 load of u8 store");
        assert!(err.to_string().contains("width mismatch"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_header_sizes_fail_as_invalid_data_not_aborts() {
        // The MANIFEST itself is unchecksummed, so size fields must be
        // validated before they drive allocations: a flipped bit in a
        // shard length yields InvalidData, never an allocator abort.
        let (index, _) = build_sharded(120, 2);
        let dir = tmp("badlen");
        let _ = std::fs::remove_dir_all(&dir);
        save_manifest(&dir, &index).unwrap();
        let manifest = dir.join(MANIFEST_FILE);
        let pristine = std::fs::read(&manifest).unwrap();
        // Offset of shard 0's len: magic 4 + version 4 + width 1 + dim 8
        // + total 8 + partitioner 25 + shard_count 4 + kind 1 = 55.
        let mut bytes = pristine.clone();
        bytes[55..63].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&manifest, &bytes).unwrap();
        let err = load_manifest::<u8>(&dir).err().expect("huge len must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("overflows"), "{err}");
        // A flipped id-map byte is caught as coverage violation, not a
        // panic inside from_shards.
        let mut bytes = pristine.clone();
        // Id maps sit just before the codebook section (a hash store has
        // no codebook: one trailing flag byte).
        let glob0 = bytes.len() - 1 - 120 * 4;
        bytes[glob0..glob0 + 4].copy_from_slice(&900u32.to_le_bytes());
        std::fs::write(&manifest, &bytes).unwrap();
        let err = load_manifest::<u8>(&dir)
            .err()
            .expect("bad id map must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("out of range or duplicated"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn build_kmeans_sharded(n: usize, shards: usize) -> (ShardedIndex<u8>, ann_data::Dataset<u8>) {
        let d = bigann_like(n, 10, 88);
        let metric = d.metric;
        let index = ShardedIndex::build_with(&d.points, Partitioner::kmeans(shards, 5), |_, ps| {
            Arc::new(VamanaIndex::build(ps, metric, &VamanaParams::default()))
        });
        (index, d)
    }

    #[test]
    fn codebook_roundtrips_bitwise() {
        let (index, _) = build_kmeans_sharded(400, 4);
        let fresh = index.codebook().expect("kmeans build has a codebook");
        let dir = tmp("codebook");
        let _ = std::fs::remove_dir_all(&dir);
        save_manifest(&dir, &index).unwrap();
        let loaded = load_manifest::<u8>(&dir).unwrap();
        let got = loaded.codebook().expect("v2 load restores the codebook");
        assert_eq!(got.len(), fresh.len());
        assert_eq!(got.dim(), fresh.dim());
        for (a, b) in got.centroids().iter().zip(fresh.centroids()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_1_manifest_loads_without_codebook() {
        // A pre-codebook manifest is a v2 file minus the codebook
        // section, with version=1 in the header: synthesize one by
        // truncating a fresh save, and it must still load (routing then
        // simply has nothing to rank against ⇒ full fan-out).
        let (index, d) = build_kmeans_sharded(300, 3);
        assert!(index.codebook().is_some());
        let dir = tmp("v1compat");
        let _ = std::fs::remove_dir_all(&dir);
        save_manifest(&dir, &index).unwrap();
        let manifest = dir.join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&manifest).unwrap();
        let section = 1 + 8 + index.shards().len() * AnnIndex::dim(&index) * 4;
        bytes.truncate(bytes.len() - section);
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&manifest, &bytes).unwrap();
        let loaded = load_manifest::<u8>(&dir).unwrap();
        assert!(loaded.codebook().is_none(), "v1 has no codebook");
        assert_eq!(AnnIndex::len(&loaded), 300);
        // Still answers (full fan-out), bit-identical to the original.
        let params = QueryParams {
            k: 5,
            beam: 32,
            ..QueryParams::default()
        };
        let (want, _) = index.search(d.queries.point(0), &params);
        let (got, _) = loaded.search(d.queries.point(0), &params);
        assert_eq!(got, want);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_codebook_fails_with_checksum_detail() {
        let (index, _) = build_kmeans_sharded(200, 2);
        let dir = tmp("badcb");
        let _ = std::fs::remove_dir_all(&dir);
        save_manifest(&dir, &index).unwrap();
        let manifest = dir.join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&manifest).unwrap();
        let last = bytes.len() - 1; // final centroid byte
        bytes[last] ^= 0xff;
        std::fs::write(&manifest, &bytes).unwrap();
        let err = load_manifest::<u8>(&dir)
            .err()
            .expect("corrupt codebook must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains("MANIFEST") && msg.contains("codebook checksum mismatch"),
            "{msg}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn nested_store_save_is_refused_up_front() {
        let d = bigann_like(80, 1, 31);
        let metric = d.metric;
        let inner = ShardedIndex::build_with(&d.points, Partitioner::hash(2, 1), |_, ps| {
            Arc::new(crate::ExactIndex::new(ps, metric)) as Arc<dyn AnnIndex<u8> + Send + Sync>
        });
        let nested = ShardedIndex::from_shards(
            vec![Shard {
                globals: (0..80).collect(),
                index: Arc::new(inner),
            }],
            Partitioner::hash(1, 0),
            d.points.dim(),
        );
        let dir = tmp("nested");
        let _ = std::fs::remove_dir_all(&dir);
        let err = save_manifest(&dir, &nested).expect_err("nested save must be refused");
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
        assert!(err.to_string().contains("flatten"), "{err}");
        // Refused before touching the filesystem: no half-written dir.
        assert!(!dir.exists());
    }

    #[test]
    fn checksum_is_stable_and_content_sensitive() {
        let dir = tmp("fnv");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let f = dir.join("x");
        std::fs::write(&f, b"hello world").unwrap();
        let a = file_checksum(&f).unwrap();
        let b = file_checksum(&f).unwrap();
        assert_eq!(a, b);
        std::fs::write(&f, b"hello worle").unwrap();
        assert_ne!(a, file_checksum(&f).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
