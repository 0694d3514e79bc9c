//! Flat vector storage, padded and aligned for the SIMD kernels.
//!
//! Points are stored contiguously (`n × stride` elements, row-major) with
//! no per-point indirection — mirroring the paper's layout optimization
//! ("we avoid levels of indirection in the graph layout", §4.5) applied to
//! the vectors themselves. Two layout guarantees back the kernels in
//! [`crate::simd`]:
//!
//! * **Row padding** — the row stride is [`crate::simd::padded_dim`] (the
//!   dimension rounded up to a whole number of 64-byte kernel blocks),
//!   with the tail zero-filled. Kernels consume whole rows with no
//!   remainder loop, and zero padding leaves every metric unchanged.
//! * **Alignment** — the backing buffer is 64-byte aligned and the stride
//!   is a whole number of cache lines, so every row starts on a cache-line
//!   boundary and a row of `d` elements touches the minimum possible
//!   number of lines.
//!
//! [`PointSet::point`] still returns the *logical* row (length `dim`), so
//! code that is not distance-critical never sees the padding.

use crate::simd;

/// Element types a dataset can use. The paper's datasets cover all three:
/// BIGANN (`u8`), MSSPACEV (`i8`), TEXT2IMAGE (`f32`).
///
/// The `kernel_*` methods are the hook the runtime-dispatched SIMD layer
/// plugs into: the provided defaults are portable scalar kernels, and the
/// `u8`/`i8`/`f32` impls below override them with [`crate::simd`]'s
/// dispatched versions. Implementors of new element types get correct
/// (scalar) behaviour for free.
pub trait VectorElem: Copy + Send + Sync + PartialEq + std::fmt::Debug + 'static {
    /// Widens to `f32` for distance arithmetic.
    fn to_f32(self) -> f32;
    /// Quantizes from `f32`, saturating at the type's bounds.
    fn from_f32(x: f32) -> Self;
    /// Short name used in dataset descriptions ("u8", "i8", "f32").
    const NAME: &'static str;

    /// Squared Euclidean distance kernel (dispatched for `u8`/`i8`/`f32`).
    /// Inputs must have equal lengths.
    #[inline]
    fn kernel_squared_euclidean(a: &[Self], b: &[Self]) -> f32 {
        simd::scalar::squared_euclidean(a, b)
    }

    /// Dot-product kernel (dispatched for `u8`/`i8`/`f32`).
    /// Inputs must have equal lengths.
    #[inline]
    fn kernel_dot(a: &[Self], b: &[Self]) -> f32 {
        simd::scalar::dot(a, b)
    }

    /// Squared-norm kernel; `dot(a, a)` by definition, kept overridable
    /// only for symmetry.
    #[inline]
    fn kernel_norm_squared(a: &[Self]) -> f32 {
        Self::kernel_dot(a, a)
    }
}

impl VectorElem for u8 {
    #[inline]
    fn to_f32(self) -> f32 {
        self as f32
    }
    #[inline]
    fn from_f32(x: f32) -> Self {
        x.round().clamp(0.0, 255.0) as u8
    }
    const NAME: &'static str = "u8";

    #[inline]
    fn kernel_squared_euclidean(a: &[Self], b: &[Self]) -> f32 {
        simd::squared_euclidean_u8(a, b)
    }
    #[inline]
    fn kernel_dot(a: &[Self], b: &[Self]) -> f32 {
        simd::dot_u8(a, b)
    }
}

impl VectorElem for i8 {
    #[inline]
    fn to_f32(self) -> f32 {
        self as f32
    }
    #[inline]
    fn from_f32(x: f32) -> Self {
        x.round().clamp(-128.0, 127.0) as i8
    }
    const NAME: &'static str = "i8";

    #[inline]
    fn kernel_squared_euclidean(a: &[Self], b: &[Self]) -> f32 {
        simd::squared_euclidean_i8(a, b)
    }
    #[inline]
    fn kernel_dot(a: &[Self], b: &[Self]) -> f32 {
        simd::dot_i8(a, b)
    }
}

impl VectorElem for f32 {
    #[inline]
    fn to_f32(self) -> f32 {
        self
    }
    #[inline]
    fn from_f32(x: f32) -> Self {
        x
    }
    const NAME: &'static str = "f32";

    #[inline]
    fn kernel_squared_euclidean(a: &[Self], b: &[Self]) -> f32 {
        simd::squared_euclidean_f32(a, b)
    }
    #[inline]
    fn kernel_dot(a: &[Self], b: &[Self]) -> f32 {
        simd::dot_f32(a, b)
    }
}

/// A 64-byte-aligned, zero-padded element buffer.
///
/// Backed by a `Vec` of cache-line units so the allocation is 64-byte
/// aligned without manual `alloc` plumbing. Bytes beyond `len` elements
/// are always zero (lines are zero-initialized on growth and only the
/// first `len` elements are ever written), which is what lets
/// [`PointSet`] expose zero-padded rows without writing the padding.
struct AlignedBuf<T> {
    lines: Vec<CacheLine>,
    len: usize,
    _elem: std::marker::PhantomData<T>,
}

#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct CacheLine([u8; simd::BLOCK_BYTES]);

const ZERO_LINE: CacheLine = CacheLine([0u8; simd::BLOCK_BYTES]);

impl<T> AlignedBuf<T> {
    fn with_capacity(elems: usize) -> Self {
        const {
            assert!(
                simd::BLOCK_BYTES.is_multiple_of(std::mem::size_of::<T>())
                    && std::mem::align_of::<T>() <= simd::BLOCK_BYTES
            );
        }
        AlignedBuf {
            lines: Vec::with_capacity(
                (elems * std::mem::size_of::<T>()).div_ceil(simd::BLOCK_BYTES),
            ),
            len: 0,
            _elem: std::marker::PhantomData,
        }
    }

    fn as_slice(&self) -> &[T] {
        // SAFETY: `lines` is 64-byte aligned plain bytes; `len` elements of
        // `T` (a plain numeric type) fit within it by construction.
        unsafe { std::slice::from_raw_parts(self.lines.as_ptr() as *const T, self.len) }
    }

    fn grow_lines_for(&mut self, new_len: usize) {
        let lines = (new_len * std::mem::size_of::<T>()).div_ceil(simd::BLOCK_BYTES);
        if lines > self.lines.len() {
            self.lines.resize(lines, ZERO_LINE);
        }
    }

    fn extend_from_slice(&mut self, src: &[T]) {
        let new_len = self.len + src.len();
        self.grow_lines_for(new_len);
        // SAFETY: the destination range [len, new_len) lies within the
        // zero-initialized line storage grown above and does not overlap
        // `src` (which borrows a different allocation).
        unsafe {
            std::ptr::copy_nonoverlapping(
                src.as_ptr(),
                (self.lines.as_mut_ptr() as *mut T).add(self.len),
                src.len(),
            );
        }
        self.len = new_len;
    }

    /// Appends `n` zero elements. The underlying bytes are already zero,
    /// so this only extends the logical length.
    fn extend_zeroed(&mut self, n: usize) {
        let new_len = self.len + n;
        self.grow_lines_for(new_len);
        self.len = new_len;
    }

    /// Resets to length 0, re-zeroing every previously used line so the
    /// zero-beyond-`len` invariant holds for the next fill (reuse path).
    fn clear(&mut self) {
        let used = (self.len * std::mem::size_of::<T>()).div_ceil(simd::BLOCK_BYTES);
        self.lines[..used].fill(ZERO_LINE);
        self.len = 0;
    }
}

impl<T> Clone for AlignedBuf<T> {
    fn clone(&self) -> Self {
        AlignedBuf {
            lines: self.lines.clone(),
            len: self.len,
            _elem: std::marker::PhantomData,
        }
    }
}

/// A set of `n` points in `dim` dimensions, stored row-major with padded,
/// 64-byte-aligned rows (see the module docs for the layout contract).
pub struct PointSet<T> {
    data: AlignedBuf<T>,
    dim: usize,
    stride: usize,
    len: usize,
}

impl<T: VectorElem> PointSet<T> {
    fn empty(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        PointSet {
            data: AlignedBuf::with_capacity(0),
            dim,
            stride: simd::padded_dim::<T>(dim),
            len: 0,
        }
    }

    /// An empty set of `dim`-dimensional points, ready for
    /// [`push_row`](Self::push_row). This is how a serving layer assembles
    /// a batch from heterogeneous (individually-owned) request vectors
    /// into the padded, aligned layout the query engine consumes.
    pub fn with_dim(dim: usize) -> Self {
        PointSet::empty(dim)
    }

    /// Appends one point (length [`Self::dim`]), padding it to the row
    /// stride.
    pub fn push_row(&mut self, row: &[T]) {
        assert_eq!(row.len(), self.dim, "row dimensionality mismatch");
        self.data.extend_from_slice(row);
        self.data.extend_zeroed(self.stride - self.dim);
        self.len += 1;
    }

    /// Empties the set, keeping its allocation for reuse (the batch
    /// assembly buffer of a serving worker is cleared per batch).
    pub fn clear(&mut self) {
        self.data.clear();
        self.len = 0;
    }

    /// Wraps a flat row-major buffer. `data.len()` must be a multiple of `dim`.
    pub fn new(data: Vec<T>, dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(
            data.len() % dim,
            0,
            "data length {} is not a multiple of dim {}",
            data.len(),
            dim
        );
        let n = data.len() / dim;
        let mut set = PointSet::empty(dim);
        set.data = AlignedBuf::with_capacity(n * set.stride);
        for row in data.chunks_exact(dim) {
            set.push_row(row);
        }
        set
    }

    /// Builds from per-point rows (all rows must share a length).
    pub fn from_rows(rows: &[Vec<T>]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let dim = rows[0].len();
        let mut set = PointSet::empty(dim);
        set.data = AlignedBuf::with_capacity(rows.len() * set.stride);
        for r in rows {
            assert_eq!(r.len(), dim, "ragged rows");
            set.push_row(r);
        }
        set
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The row stride in elements: [`crate::simd::padded_dim`] of `dim`.
    pub fn padded_dim(&self) -> usize {
        self.stride
    }

    /// The `i`-th point (logical row, length [`Self::dim`]).
    #[inline]
    pub fn point(&self, i: usize) -> &[T] {
        &self.data.as_slice()[i * self.stride..i * self.stride + self.dim]
    }

    /// The `i`-th stored row including its zero padding (length
    /// [`Self::padded_dim`], 64-byte aligned) — the form the batched
    /// kernels consume.
    #[inline]
    pub fn padded_point(&self, i: usize) -> &[T] {
        &self.data.as_slice()[i * self.stride..(i + 1) * self.stride]
    }

    /// Copies `query` (length [`Self::dim`]) into a zero-padded buffer of
    /// length [`Self::padded_dim`], the layout [`crate::distance::distance_batch`]
    /// consumes on its fast path. Kernels produce bit-identical results
    /// for padded and unpadded inputs; padding the query once per search
    /// simply lets every row evaluation take the no-remainder path.
    pub fn pad_query(&self, query: &[T]) -> Vec<T> {
        assert_eq!(query.len(), self.dim, "query dimensionality mismatch");
        let mut out = Vec::with_capacity(self.stride);
        out.extend_from_slice(query);
        out.resize(self.stride, T::from_f32(0.0));
        out
    }

    /// The logical row-major contents (padding stripped), materialized.
    pub fn to_flat(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len * self.dim);
        for i in 0..self.len {
            out.extend_from_slice(self.point(i));
        }
        out
    }

    /// A new set containing `ids` in order (used to take dataset prefixes
    /// and to gather leaf clusters).
    pub fn gather(&self, ids: &[u32]) -> PointSet<T> {
        let mut set = PointSet::empty(self.dim);
        set.data = AlignedBuf::with_capacity(ids.len() * self.stride);
        for &i in ids {
            set.push_row(self.point(i as usize));
        }
        set
    }

    /// The first `n` points as a new set (dataset-size-scaling experiments).
    pub fn prefix(&self, n: usize) -> PointSet<T> {
        assert!(n <= self.len());
        let mut set = PointSet::empty(self.dim);
        set.data = AlignedBuf::with_capacity(n * self.stride);
        for i in 0..n {
            set.push_row(self.point(i));
        }
        set
    }

    /// Appends all points of `other` (same dimensionality required).
    /// Supports dynamic index growth.
    pub fn append(&mut self, other: &PointSet<T>) {
        assert_eq!(self.dim, other.dim, "dimension mismatch on append");
        for i in 0..other.len() {
            self.push_row(other.point(i));
        }
    }

    /// The per-coordinate mean of all points, in `f64` (used for medoids).
    pub fn centroid_f64(&self) -> Vec<f64> {
        let n = self.len();
        assert!(n > 0);
        // Deterministic: fixed chunking, sequential combine (parlay::reduce_det
        // over point indices).
        let chunk = 4096;
        let partials: Vec<Vec<f64>> = (0..n.div_ceil(chunk))
            .map(|b| {
                let mut acc = vec![0.0f64; self.dim];
                for i in b * chunk..((b + 1) * chunk).min(n) {
                    for (a, &x) in acc.iter_mut().zip(self.point(i)) {
                        *a += x.to_f32() as f64;
                    }
                }
                acc
            })
            .collect();
        let mut total = vec![0.0f64; self.dim];
        for p in partials {
            for (t, x) in total.iter_mut().zip(p) {
                *t += x;
            }
        }
        for t in &mut total {
            *t /= n as f64;
        }
        total
    }
}

impl<T> Clone for PointSet<T> {
    fn clone(&self) -> Self {
        PointSet {
            data: self.data.clone(),
            dim: self.dim,
            stride: self.stride,
            len: self.len,
        }
    }
}

impl<T: PartialEq> PartialEq for PointSet<T> {
    fn eq(&self, other: &Self) -> bool {
        // Equal dims imply equal strides, and padding is always zero, so
        // comparing the padded storage compares the logical contents.
        self.dim == other.dim
            && self.len == other.len
            && self.data.as_slice() == other.data.as_slice()
    }
}

impl<T> std::fmt::Debug for PointSet<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PointSet")
            .field("len", &self.len)
            .field("dim", &self.dim)
            .field("stride", &self.stride)
            .field("elem", &std::any::type_name::<T>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let ps = PointSet::new(vec![1u8, 2, 3, 4, 5, 6], 3);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.dim(), 3);
        assert_eq!(ps.point(0), &[1, 2, 3]);
        assert_eq!(ps.point(1), &[4, 5, 6]);
    }

    #[test]
    fn rows_are_padded_aligned_and_zero_filled() {
        let ps = PointSet::new(vec![1u8, 2, 3, 4, 5, 6], 3);
        assert_eq!(ps.padded_dim(), 64);
        for i in 0..ps.len() {
            let row = ps.padded_point(i);
            assert_eq!(row.len(), 64);
            assert_eq!(row.as_ptr() as usize % 64, 0, "row {i} misaligned");
            assert!(row[3..].iter().all(|&x| x == 0), "padding not zero");
        }
        let psf = PointSet::new(vec![1.5f32; 20 * 2], 20);
        assert_eq!(psf.padded_dim(), 32);
        assert_eq!(psf.padded_point(1).as_ptr() as usize % 64, 0);
    }

    #[test]
    fn pad_query_matches_row_layout() {
        let ps = PointSet::new(vec![7i8, -3, 2, 1, 0, -1], 3);
        let q = ps.pad_query(&[7, -3, 2]);
        assert_eq!(q.len(), ps.padded_dim());
        assert_eq!(&q[..], ps.padded_point(0));
    }

    #[test]
    fn from_rows_roundtrip() {
        let rows = vec![vec![1.0f32, 2.0], vec![3.0, 4.0]];
        let ps = PointSet::from_rows(&rows);
        assert_eq!(ps.point(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn rejects_ragged_flat() {
        PointSet::new(vec![1u8, 2, 3], 2);
    }

    #[test]
    fn gather_prefix_append_and_flat() {
        let ps = PointSet::new((0u8..12).collect(), 3);
        let g = ps.gather(&[3, 1]);
        assert_eq!(g.point(0), ps.point(3));
        assert_eq!(g.point(1), ps.point(1));
        let p = ps.prefix(2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.point(1), ps.point(1));
        assert_eq!(ps.to_flat(), (0u8..12).collect::<Vec<_>>());
        let mut grown = ps.prefix(1);
        grown.append(&g);
        assert_eq!(grown.len(), 3);
        assert_eq!(grown.point(2), ps.point(1));
        assert_eq!(grown.padded_point(2).len(), ps.padded_dim());
    }

    #[test]
    fn equality_ignores_nothing_logical() {
        let a = PointSet::new(vec![1u8, 2, 3, 4], 2);
        let b = PointSet::new(vec![1u8, 2, 3, 4], 2);
        let c = PointSet::new(vec![1u8, 2, 3, 5], 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn centroid_simple() {
        let ps = PointSet::new(vec![0.0f32, 10.0, 2.0, 20.0], 2);
        let c = ps.centroid_f64();
        assert_eq!(c, vec![1.0, 15.0]);
    }

    #[test]
    fn elem_quantization_saturates() {
        assert_eq!(u8::from_f32(300.0), 255);
        assert_eq!(u8::from_f32(-5.0), 0);
        assert_eq!(i8::from_f32(-200.0), -128);
        assert_eq!(i8::from_f32(127.4), 127);
        assert_eq!(f32::from_f32(1.5), 1.5);
    }
}
