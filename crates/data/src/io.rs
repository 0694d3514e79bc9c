//! Readers/writers for standard ANNS dataset formats.
//!
//! * `fvecs`/`bvecs`/`ivecs` — the TEXMEX formats used by BIGANN-1M/1B:
//!   each row is a little-endian `i32` dimension followed by `dim` elements
//!   (`f32`, `u8`, `i32` respectively).
//! * BigANN-competition `.bin` — a `u32` point count and `u32` dimension
//!   header followed by row-major elements (`u8`/`i8`/`f32`).
//!
//! These make the synthetic-data experiments swappable for the real
//! datasets without touching any other code.
//!
//! The readers treat every header as hostile: sizes are checked against
//! the file's length with checked arithmetic before anything is allocated,
//! so a corrupt file is an [`io::ErrorKind::InvalidData`] or
//! [`io::ErrorKind::UnexpectedEof`] error, never a panic or an abort.

use crate::point::{PointSet, VectorElem};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Element-level binary codec for dataset files.
pub trait BinaryElem: VectorElem {
    /// Size of one encoded element in bytes.
    const WIDTH: usize;
    /// Encodes into exactly `WIDTH` bytes.
    fn encode(self, out: &mut [u8]);
    /// Decodes from exactly `WIDTH` bytes.
    fn decode(inp: &[u8]) -> Self;
}

impl BinaryElem for u8 {
    const WIDTH: usize = 1;
    fn encode(self, out: &mut [u8]) {
        out[0] = self;
    }
    fn decode(inp: &[u8]) -> Self {
        inp[0]
    }
}

impl BinaryElem for i8 {
    const WIDTH: usize = 1;
    fn encode(self, out: &mut [u8]) {
        out[0] = self as u8;
    }
    fn decode(inp: &[u8]) -> Self {
        inp[0] as i8
    }
}

impl BinaryElem for f32 {
    const WIDTH: usize = 4;
    fn encode(self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_le_bytes());
    }
    fn decode(inp: &[u8]) -> Self {
        f32::from_le_bytes([inp[0], inp[1], inp[2], inp[3]])
    }
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// `count` as a `usize`, if the product of `count` and `factors` fits in
/// `len` (the source's byte length) — the guard every header-driven
/// allocation passes first.
pub fn within(len: u64, what: &str, count: u64, factors: &[u64]) -> io::Result<usize> {
    factors
        .iter()
        .try_fold(count, |acc, &f| acc.checked_mul(f))
        .filter(|&total| total <= len)
        .and_then(|_| usize::try_from(count).ok())
        .ok_or_else(|| invalid(format!("{what} ({count}) too large for a {len}-byte file")))
}

/// Writes a point set in xvecs format (per-row `i32` dim prefix).
pub fn write_xvecs<T: BinaryElem>(path: &Path, points: &PointSet<T>) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    let dim = points.dim() as i32;
    let mut buf = vec![0u8; T::WIDTH];
    for i in 0..points.len() {
        w.write_all(&dim.to_le_bytes())?;
        for &x in points.point(i) {
            x.encode(&mut buf);
            w.write_all(&buf)?;
        }
    }
    w.flush()
}

/// Reads a point set in xvecs format; `max_points` bounds how many rows to
/// load (`usize::MAX` for all). A row dimension ≤ 0, one that differs from
/// the first row's, or one whose row cannot fit in the file is
/// `InvalidData`.
pub fn read_xvecs<T: BinaryElem>(path: &Path, max_points: usize) -> io::Result<PointSet<T>> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    let mut r = BufReader::new(file);
    let mut data: Vec<T> = Vec::new();
    let mut dim: Option<usize> = None;
    let mut header = [0u8; 4];
    let mut row = Vec::new();
    let mut count = 0usize;
    while count < max_points {
        match r.read_exact(&mut header) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e),
        }
        let d = i32::from_le_bytes(header);
        if d <= 0 {
            return Err(invalid(format!("xvecs row {count} declares dimension {d}")));
        }
        let d = within(len, "xvecs dimension", d as u64, &[T::WIDTH as u64])?;
        match dim {
            None => dim = Some(d),
            Some(prev) if prev == d => {}
            Some(prev) => return Err(invalid(format!("inconsistent dims {prev} vs {d}"))),
        }
        row.resize(d * T::WIDTH, 0);
        r.read_exact(&mut row)?;
        data.extend(row.chunks_exact(T::WIDTH).map(T::decode));
        count += 1;
    }
    let dim = dim.ok_or_else(|| invalid("empty xvecs file"))?;
    Ok(PointSet::new(data, dim))
}

/// Writes the BigANN-competition `.bin` format (`u32 n`, `u32 dim`, rows).
pub fn write_bin<T: BinaryElem>(path: &Path, points: &PointSet<T>) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(&(points.len() as u32).to_le_bytes())?;
    w.write_all(&(points.dim() as u32).to_le_bytes())?;
    let mut buf = vec![0u8; T::WIDTH];
    for i in 0..points.len() {
        for &x in points.point(i) {
            x.encode(&mut buf);
            w.write_all(&buf)?;
        }
    }
    w.flush()
}

/// Reads the BigANN-competition `.bin` format, loading at most `max_points`.
/// A zero dimension, or rows that cannot fit in the file, is `InvalidData`.
pub fn read_bin<T: BinaryElem>(path: &Path, max_points: usize) -> io::Result<PointSet<T>> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    let mut r = BufReader::new(file);
    let mut header = [0u8; 8];
    r.read_exact(&mut header)?;
    let n = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let dim = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if dim == 0 {
        return Err(invalid("bin header declares dimension 0"));
    }
    let take = u64::from(n).min(u64::try_from(max_points).unwrap_or(u64::MAX));
    let take = within(len, "bin point count", take, &[dim.into(), T::WIDTH as u64])?;
    let dim = dim as usize;
    let mut raw = vec![0u8; take * dim * T::WIDTH];
    r.read_exact(&mut raw)?;
    let data: Vec<T> = raw.chunks_exact(T::WIDTH).map(T::decode).collect();
    Ok(PointSet::new(data, dim))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{bigann_like, text2image_like};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("parlayann-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn xvecs_roundtrip_u8() {
        let d = bigann_like(50, 1, 1);
        let path = tmp("u8.bvecs");
        write_xvecs(&path, &d.points).unwrap();
        let back = read_xvecs::<u8>(&path, usize::MAX).unwrap();
        assert_eq!(back, d.points);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn xvecs_roundtrip_f32_partial_read() {
        let d = text2image_like(40, 1, 1);
        let path = tmp("f32.fvecs");
        write_xvecs(&path, &d.points).unwrap();
        let back = read_xvecs::<f32>(&path, 10).unwrap();
        assert_eq!(back.len(), 10);
        assert_eq!(back.point(9), d.points.point(9));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bin_roundtrip_i8() {
        let ps = PointSet::new((0..60).map(|i| (i - 30) as i8).collect(), 6);
        let path = tmp("i8.bin");
        write_bin(&path, &ps).unwrap();
        let back = read_bin::<i8>(&path, usize::MAX).unwrap();
        assert_eq!(back, ps);
        let part = read_bin::<i8>(&path, 3).unwrap();
        assert_eq!(part.len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_missing_file_errors() {
        assert!(read_bin::<u8>(Path::new("/nonexistent/x.bin"), 1).is_err());
    }

    /// Writes `bytes` to a temporary file and reads it back with `read`.
    fn load_bytes<R>(
        name: &str,
        bytes: &[u8],
        read: impl Fn(&Path) -> io::Result<R>,
    ) -> io::Result<R> {
        let path = tmp(name);
        std::fs::write(&path, bytes).unwrap();
        let out = read(&path);
        std::fs::remove_file(&path).unwrap();
        out
    }

    fn invalid_data<R>(out: io::Result<R>, what: &str) {
        match out {
            Ok(_) => panic!("{what}: accepted"),
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}: {e}"),
        }
    }

    /// One xvecs row: an `i32` dimension header, then `body`.
    fn xvecs_row(d: i32, body: &[u8]) -> Vec<u8> {
        let mut row = d.to_le_bytes().to_vec();
        row.extend_from_slice(body);
        row
    }

    /// A `.bin` header, then `body`.
    fn bin_file(n: u32, dim: u32, body: &[u8]) -> Vec<u8> {
        let mut bytes = n.to_le_bytes().to_vec();
        bytes.extend_from_slice(&dim.to_le_bytes());
        bytes.extend_from_slice(body);
        bytes
    }

    #[test]
    fn xvecs_negative_dimension_is_invalid_data() {
        let bytes = xvecs_row(-1, &[0; 16]);
        invalid_data(
            load_bytes("neg.fvecs", &bytes, |p| read_xvecs::<f32>(p, usize::MAX)),
            "dimension -1",
        );
    }

    #[test]
    fn xvecs_zero_dimension_is_invalid_data() {
        let bytes = xvecs_row(0, &[]);
        invalid_data(
            load_bytes("zero.bvecs", &bytes, |p| read_xvecs::<u8>(p, usize::MAX)),
            "dimension 0",
        );
    }

    #[test]
    fn xvecs_dimension_past_file_length_is_invalid_data() {
        let bytes = xvecs_row(i32::MAX, &[0; 8]);
        invalid_data(
            load_bytes("huge.bvecs", &bytes, |p| read_xvecs::<u8>(p, usize::MAX)),
            "dimension i32::MAX",
        );
    }

    #[test]
    fn bin_zero_dimension_is_invalid_data() {
        let bytes = bin_file(3, 0, &[]);
        invalid_data(
            load_bytes("zero.bin", &bytes, |p| read_bin::<u8>(p, usize::MAX)),
            "dimension 0",
        );
    }

    #[test]
    fn bin_header_past_file_length_is_invalid_data() {
        // u32::MAX² × 4 overflows u64; the smaller claims only outgrow the file.
        for (n, dim) in [(u32::MAX, u32::MAX), (u32::MAX, 4), (2, u32::MAX)] {
            let bytes = bin_file(n, dim, &[0; 32]);
            invalid_data(
                load_bytes("huge.bin", &bytes, |p| read_bin::<f32>(p, usize::MAX)),
                &format!("n {n}, dim {dim}"),
            );
        }
        // A partial read takes only what it asks for.
        let bytes = bin_file(u32::MAX, 4, &[7; 8]);
        let part = load_bytes("part.bin", &bytes, |p| read_bin::<u8>(p, 2)).unwrap();
        assert_eq!(part, PointSet::new(vec![7u8; 8], 4));
    }

    #[test]
    fn mutated_bytes_never_panic_the_readers() {
        // Every byte of a small xvecs file and a small .bin file, each set
        // to 0x00, 0xFF and one pseudo-random value: the readers answer
        // Ok, InvalidData or UnexpectedEof, and never panic or abort.
        let ps = PointSet::new((0..24u8).collect(), 4);
        let xvecs_path = tmp("mutate.bvecs");
        let bin_path = tmp("mutate.bin");
        write_xvecs(&xvecs_path, &ps).unwrap();
        write_bin(&bin_path, &ps).unwrap();
        let files = [
            std::fs::read(&xvecs_path).unwrap(),
            std::fs::read(&bin_path).unwrap(),
        ];
        std::fs::remove_file(&xvecs_path).unwrap();
        std::fs::remove_file(&bin_path).unwrap();
        let mut accepted = 0usize;
        for (format, bytes) in files.iter().enumerate() {
            for at in 0..bytes.len() {
                let random = parlay::hash64(at as u64 ^ 0x6d75) as u8;
                for value in [0x00, 0xFF, random] {
                    let mut patched = bytes.clone();
                    patched[at] = value;
                    let out = load_bytes("mutated", &patched, |p| {
                        if format == 0 {
                            read_xvecs::<u8>(p, usize::MAX)
                        } else {
                            read_bin::<u8>(p, usize::MAX)
                        }
                    });
                    match out {
                        Ok(_) => accepted += 1,
                        Err(e) => assert!(
                            matches!(
                                e.kind(),
                                io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                            ),
                            "format {format}, byte {at} = {value:#04x}: {e}"
                        ),
                    }
                }
            }
        }
        // Element bytes are free to change.
        assert!(accepted > 0);
    }
}
