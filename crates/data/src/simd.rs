//! Explicit SIMD distance kernels with runtime dispatch.
//!
//! Distance comparisons dominate ANNS cost (paper §5.5), so this module
//! replaces compiler autovectorization with explicit kernels:
//!
//! * **Dispatch tiers** — AVX-512 (F/BW, with a VNNI `vpdpbusd`
//!   sub-dispatch for the integer kernels when the CPU has it), AVX2,
//!   SSE2 (the x86-64 baseline), and a portable scalar fallback. The tier
//!   is detected once per process with
//!   [`std::arch::is_x86_feature_detected!`] and cached; the environment
//!   variable `PARLAYANN_SIMD` (`scalar` / `sse2` / `avx2` / `avx512` /
//!   `auto`) can cap the tier for A/B testing — an unrecognized value is
//!   rejected with a warning, not silently treated as `auto`. All callers
//!   go through the safe [`crate::distance`] API — no caller ever touches
//!   an intrinsic. The per-tier kernels themselves are exported under
//!   [`x86`] so benchmarks and equivalence tests can pin a tier
//!   explicitly (guarded by their own feature detection).
//!
//! * **Block structure** — every kernel consumes its input in fixed
//!   64-byte blocks ([`BLOCK_BYTES`]): 16 `f32` lanes or 64 `u8`/`i8`
//!   lanes per block. A trailing partial block is copied into a zeroed
//!   stack buffer and run through the *same* block step, so a vector of
//!   length `d` produces **bit-identical** results to the same vector
//!   zero-padded to [`padded_dim`] — which is exactly how
//!   [`crate::PointSet`] stores rows. Batched (padded-row) and one-off
//!   (logical-row) evaluations therefore never disagree.
//!
//! * **Determinism** — integer kernels accumulate exactly (i32/i64 lanes;
//!   every intermediate fits), so SIMD and scalar results are bit-equal.
//!   `f32` kernels use a fixed lane count and a documented horizontal
//!   reduction order (`((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`, accumulator
//!   0 before accumulator 1), so results depend only on the input — never
//!   on threads or schedule. Different *tiers* may round `f32` results
//!   differently (within ~1e-4 relative), but a process uses one tier for
//!   its whole lifetime, so every index build and search is internally
//!   consistent and reproducible on the same hardware. **Exception:** the
//!   AVX-512 `f32` kernels are bit-identical to AVX2 by construction —
//!   the single 512-bit accumulator's lanes 0–7 mirror AVX2's accumulator
//!   0 and lanes 8–15 mirror accumulator 1 (same per-lane add sequence,
//!   no FMA), and the reduction applies the exact AVX2 order — so moving
//!   between the two top tiers never moves an `f32` result.
//!
//! One (documented) sharp edge: in the scalar tier, a zero-padded `dot`
//! evaluation can turn a `-0.0` partial sum into `+0.0` (IEEE addition of
//! `+0.0`). The two compare equal; only bit-level inspection can tell.

use std::sync::atomic::{AtomicU8, Ordering};

/// Kernel rows and blocks are sized in 64-byte units (one cache line).
pub const BLOCK_BYTES: usize = 64;

/// Number of `T` elements in one kernel block.
#[inline]
pub const fn block_elems<T>() -> usize {
    BLOCK_BYTES / std::mem::size_of::<T>()
}

/// Rounds `dim` up to a whole number of kernel blocks — the row stride
/// [`crate::PointSet`] allocates so kernels never need a remainder loop
/// and every row starts on a 64-byte boundary.
#[inline]
pub const fn padded_dim<T>(dim: usize) -> usize {
    let b = block_elems::<T>();
    dim.div_ceil(b) * b
}

/// The instruction tier the dispatcher selected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable Rust (the only tier off x86-64).
    Scalar,
    /// 128-bit SSE2 (always available on x86-64).
    Sse2,
    /// 256-bit AVX2.
    Avx2,
    /// 512-bit AVX-512 (requires F+BW+DQ+VL; integer kernels additionally
    /// sub-dispatch to VNNI `vpdpbusd` when [`vnni_available`]).
    Avx512,
}

impl SimdLevel {
    /// Short display name (`"scalar"` / `"sse2"` / `"avx2"` / `"avx512"`).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

/// 0 = undetected, otherwise `SimdLevel as u8 + 1`.
static LEVEL: AtomicU8 = AtomicU8::new(0);

/// The dispatch tier in use: the best instruction set the CPU supports,
/// optionally capped by `PARLAYANN_SIMD=scalar|sse2|avx2|avx512|auto`.
/// Detected once and cached for the process lifetime.
#[inline]
pub fn simd_level() -> SimdLevel {
    match LEVEL.load(Ordering::Relaxed) {
        1 => SimdLevel::Scalar,
        2 => SimdLevel::Sse2,
        3 => SimdLevel::Avx2,
        4 => SimdLevel::Avx512,
        _ => detect_and_cache(),
    }
}

/// Parses a `PARLAYANN_SIMD` value: `Some(Some(cap))` caps the hardware
/// tier, `Some(None)` means `auto` (no cap), `None` rejects the value.
fn parse_simd_cap(v: &str) -> Option<Option<SimdLevel>> {
    Some(match v {
        "scalar" => Some(SimdLevel::Scalar),
        "sse2" => Some(SimdLevel::Sse2),
        "avx2" => Some(SimdLevel::Avx2),
        "avx512" => Some(SimdLevel::Avx512),
        "auto" => None,
        _ => return None,
    })
}

#[cold]
fn detect_and_cache() -> SimdLevel {
    let hw = hardware_level();
    let level = match std::env::var("PARLAYANN_SIMD").ok() {
        None => hw,
        Some(v) => match parse_simd_cap(&v) {
            Some(Some(cap)) => hw.min(cap),
            Some(None) => hw,
            None => {
                eprintln!(
                    "PARLAYANN_SIMD={v:?} not recognized \
                     (valid: scalar|sse2|avx2|avx512|auto); using {}",
                    hw.name()
                );
                hw
            }
        },
    };
    LEVEL.store(level as u8 + 1, Ordering::Relaxed);
    level
}

#[cfg(target_arch = "x86_64")]
fn hardware_level() -> SimdLevel {
    if std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512bw")
        && std::arch::is_x86_feature_detected!("avx512dq")
        && std::arch::is_x86_feature_detected!("avx512vl")
    {
        SimdLevel::Avx512
    } else if std::arch::is_x86_feature_detected!("avx2") {
        SimdLevel::Avx2
    } else {
        // SSE2 is part of the x86-64 baseline.
        SimdLevel::Sse2
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn hardware_level() -> SimdLevel {
    SimdLevel::Scalar
}

/// 0 = undetected, 1 = absent, 2 = present.
static VNNI: AtomicU8 = AtomicU8::new(0);

/// Whether the CPU supports AVX-512 VNNI (`vpdpbusd`). Sub-dispatch
/// *inside* the AVX-512 tier: the integer kernels pick the VNNI step when
/// present. Both steps are exact integer computations, so the choice
/// never changes a result — only throughput. The VNNI drivers use VL
/// (256-bit) encodings for short vectors, so this also requires
/// `avx512vl` (present on every VNNI-bearing CPU in practice).
#[inline]
pub fn vnni_available() -> bool {
    match VNNI.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            #[cfg(target_arch = "x86_64")]
            let v = std::arch::is_x86_feature_detected!("avx512vnni")
                && std::arch::is_x86_feature_detected!("avx512vl");
            #[cfg(not(target_arch = "x86_64"))]
            let v = false;
            VNNI.store(if v { 2 } else { 1 }, Ordering::Relaxed);
            v
        }
    }
}

/// Issues a T0 prefetch for every cache line of `row` (no-op off x86-64).
/// Used by [`crate::distance::distance_batch`] to hide the DRAM latency of
/// the next candidates' rows behind the current distance computation.
#[inline(always)]
pub fn prefetch_read<T>(row: &[T]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let bytes = std::mem::size_of_val(row);
        let p = row.as_ptr() as *const i8;
        let mut off = 0usize;
        while off < bytes {
            // SAFETY: prefetch is a hint; `p + off` stays within (or at the
            // end of) the referenced slice's allocation.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(p.add(off)) };
            off += BLOCK_BYTES;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = row;
    }
}

pub mod scalar {
    //! Portable reference kernels.
    //!
    //! These are the fallback tier *and* the reference the property tests
    //! compare the vector tiers against. Integer kernels accumulate in
    //! 64-bit integers (exact for any realistic dimension), `f32` kernels
    //! use four fixed accumulator lanes with the trailing elements assigned
    //! to the lane they would occupy after zero-padding.

    use crate::point::VectorElem;

    /// Squared Euclidean distance, generic 4-lane accumulation.
    pub fn squared_euclidean<T: VectorElem>(a: &[T], b: &[T]) -> f32 {
        assert_eq!(a.len(), b.len(), "kernel inputs must have equal lengths");
        let n = a.len();
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        let blocks = n / 4;
        for c in 0..blocks {
            let i = c * 4;
            let d0 = a[i].to_f32() - b[i].to_f32();
            let d1 = a[i + 1].to_f32() - b[i + 1].to_f32();
            let d2 = a[i + 2].to_f32() - b[i + 2].to_f32();
            let d3 = a[i + 3].to_f32() - b[i + 3].to_f32();
            s0 += d0 * d0;
            s1 += d1 * d1;
            s2 += d2 * d2;
            s3 += d3 * d3;
        }
        // The tail lands in the same lanes a zero-padded buffer would use,
        // so padded and unpadded evaluations agree bit-for-bit.
        for i in blocks * 4..n {
            let d = a[i].to_f32() - b[i].to_f32();
            match i % 4 {
                0 => s0 += d * d,
                1 => s1 += d * d,
                2 => s2 += d * d,
                _ => s3 += d * d,
            }
        }
        (s0 + s1) + (s2 + s3)
    }

    /// Dot product, generic 4-lane accumulation.
    pub fn dot<T: VectorElem>(a: &[T], b: &[T]) -> f32 {
        assert_eq!(a.len(), b.len(), "kernel inputs must have equal lengths");
        let n = a.len();
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        let blocks = n / 4;
        for c in 0..blocks {
            let i = c * 4;
            s0 += a[i].to_f32() * b[i].to_f32();
            s1 += a[i + 1].to_f32() * b[i + 1].to_f32();
            s2 += a[i + 2].to_f32() * b[i + 2].to_f32();
            s3 += a[i + 3].to_f32() * b[i + 3].to_f32();
        }
        for i in blocks * 4..n {
            let p = a[i].to_f32() * b[i].to_f32();
            match i % 4 {
                0 => s0 += p,
                1 => s1 += p,
                2 => s2 += p,
                _ => s3 += p,
            }
        }
        (s0 + s1) + (s2 + s3)
    }

    /// Exact integer squared Euclidean for `u8` (i64 accumulation).
    pub fn squared_euclidean_u8(a: &[u8], b: &[u8]) -> f32 {
        assert_eq!(a.len(), b.len(), "kernel inputs must have equal lengths");
        let mut s = 0i64;
        for (&x, &y) in a.iter().zip(b) {
            let d = x as i64 - y as i64;
            s += d * d;
        }
        s as f32
    }

    /// Exact integer dot product for `u8`.
    pub fn dot_u8(a: &[u8], b: &[u8]) -> f32 {
        assert_eq!(a.len(), b.len(), "kernel inputs must have equal lengths");
        let mut s = 0i64;
        for (&x, &y) in a.iter().zip(b) {
            s += x as i64 * y as i64;
        }
        s as f32
    }

    /// Exact integer squared Euclidean for `i8`.
    pub fn squared_euclidean_i8(a: &[i8], b: &[i8]) -> f32 {
        assert_eq!(a.len(), b.len(), "kernel inputs must have equal lengths");
        let mut s = 0i64;
        for (&x, &y) in a.iter().zip(b) {
            let d = x as i64 - y as i64;
            s += d * d;
        }
        s as f32
    }

    /// Exact integer dot product for `i8`.
    pub fn dot_i8(a: &[i8], b: &[i8]) -> f32 {
        assert_eq!(a.len(), b.len(), "kernel inputs must have equal lengths");
        let mut s = 0i64;
        for (&x, &y) in a.iter().zip(b) {
            s += x as i64 * y as i64;
        }
        s as f32
    }
}

#[cfg(target_arch = "x86_64")]
pub mod x86 {
    //! AVX-512, AVX2, and SSE2 kernels.
    //!
    //! Shared invariants (see the module docs): 64-byte blocks, masked
    //! (zero-padded) tail through the identical block step, fixed
    //! reduction order, exact integer accumulation.
    //!
    //! Public so tier-pinned callers (the `kernel_bench` bin, the
    //! cross-tier equivalence proptests) can invoke a specific tier
    //! in-process. Every function is `unsafe`: the caller must have
    //! verified the matching `is_x86_feature_detected!` features.
    //! That one safety contract covers every kernel here, so it is
    //! stated once above instead of per-function.
    #![allow(clippy::missing_safety_doc)]

    pub mod avx2 {
        use std::arch::x86_64::*;

        /// Fixed-order horizontal sum of two 8-lane accumulators.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn reduce2_f32(acc0: __m256, acc1: __m256) -> f32 {
            let mut l0 = [0.0f32; 8];
            let mut l1 = [0.0f32; 8];
            _mm256_storeu_ps(l0.as_mut_ptr(), acc0);
            _mm256_storeu_ps(l1.as_mut_ptr(), acc1);
            let s0 = ((l0[0] + l0[1]) + (l0[2] + l0[3])) + ((l0[4] + l0[5]) + (l0[6] + l0[7]));
            let s1 = ((l1[0] + l1[1]) + (l1[2] + l1[3])) + ((l1[4] + l1[5]) + (l1[6] + l1[7]));
            s0 + s1
        }

        /// Exact horizontal sum of an 8-lane i32 accumulator into i64.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn reduce_i32(acc: __m256i) -> i64 {
            let mut l = [0i32; 8];
            _mm256_storeu_si256(l.as_mut_ptr() as *mut __m256i, acc);
            l.iter().map(|&x| x as i64).sum()
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        pub unsafe fn squared_euclidean_f32(a: &[f32], b: &[f32]) -> f32 {
            assert_eq!(a.len(), b.len(), "kernel inputs must have equal lengths");
            let n = a.len();
            let blocks = n / 16;
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            for i in 0..blocks {
                let o = i * 16;
                let d0 = _mm256_sub_ps(_mm256_loadu_ps(pa.add(o)), _mm256_loadu_ps(pb.add(o)));
                acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(d0, d0));
                let d1 = _mm256_sub_ps(
                    _mm256_loadu_ps(pa.add(o + 8)),
                    _mm256_loadu_ps(pb.add(o + 8)),
                );
                acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(d1, d1));
            }
            let rem = n - blocks * 16;
            if rem > 0 {
                let mut ta = [0.0f32; 16];
                let mut tb = [0.0f32; 16];
                ta[..rem].copy_from_slice(&a[blocks * 16..]);
                tb[..rem].copy_from_slice(&b[blocks * 16..]);
                let d0 = _mm256_sub_ps(_mm256_loadu_ps(ta.as_ptr()), _mm256_loadu_ps(tb.as_ptr()));
                acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(d0, d0));
                let d1 = _mm256_sub_ps(
                    _mm256_loadu_ps(ta.as_ptr().add(8)),
                    _mm256_loadu_ps(tb.as_ptr().add(8)),
                );
                acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(d1, d1));
            }
            reduce2_f32(acc0, acc1)
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        pub unsafe fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
            assert_eq!(a.len(), b.len(), "kernel inputs must have equal lengths");
            let n = a.len();
            let blocks = n / 16;
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            for i in 0..blocks {
                let o = i * 16;
                acc0 = _mm256_add_ps(
                    acc0,
                    _mm256_mul_ps(_mm256_loadu_ps(pa.add(o)), _mm256_loadu_ps(pb.add(o))),
                );
                acc1 = _mm256_add_ps(
                    acc1,
                    _mm256_mul_ps(
                        _mm256_loadu_ps(pa.add(o + 8)),
                        _mm256_loadu_ps(pb.add(o + 8)),
                    ),
                );
            }
            let rem = n - blocks * 16;
            if rem > 0 {
                let mut ta = [0.0f32; 16];
                let mut tb = [0.0f32; 16];
                ta[..rem].copy_from_slice(&a[blocks * 16..]);
                tb[..rem].copy_from_slice(&b[blocks * 16..]);
                acc0 = _mm256_add_ps(
                    acc0,
                    _mm256_mul_ps(_mm256_loadu_ps(ta.as_ptr()), _mm256_loadu_ps(tb.as_ptr())),
                );
                acc1 = _mm256_add_ps(
                    acc1,
                    _mm256_mul_ps(
                        _mm256_loadu_ps(ta.as_ptr().add(8)),
                        _mm256_loadu_ps(tb.as_ptr().add(8)),
                    ),
                );
            }
            reduce2_f32(acc0, acc1)
        }

        /// One 32-byte step of u8 squared Euclidean: widen to i16, diff,
        /// square-and-pair-sum into 8 i32 lanes.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn sq_u8_step(acc: __m256i, pa: *const u8, pb: *const u8) -> __m256i {
            let va = _mm256_loadu_si256(pa as *const __m256i);
            let vb = _mm256_loadu_si256(pb as *const __m256i);
            let zero = _mm256_setzero_si256();
            // unpack interleaves within 128-bit halves; the resulting lane
            // order is fixed, and integer sums are order-independent.
            let alo = _mm256_unpacklo_epi8(va, zero);
            let ahi = _mm256_unpackhi_epi8(va, zero);
            let blo = _mm256_unpacklo_epi8(vb, zero);
            let bhi = _mm256_unpackhi_epi8(vb, zero);
            let dlo = _mm256_sub_epi16(alo, blo);
            let dhi = _mm256_sub_epi16(ahi, bhi);
            let acc = _mm256_add_epi32(acc, _mm256_madd_epi16(dlo, dlo));
            _mm256_add_epi32(acc, _mm256_madd_epi16(dhi, dhi))
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        pub unsafe fn squared_euclidean_u8(a: &[u8], b: &[u8]) -> f32 {
            assert_eq!(a.len(), b.len(), "kernel inputs must have equal lengths");
            let n = a.len();
            let blocks = n / 64;
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut acc = _mm256_setzero_si256();
            for i in 0..blocks {
                let o = i * 64;
                acc = sq_u8_step(acc, pa.add(o), pb.add(o));
                acc = sq_u8_step(acc, pa.add(o + 32), pb.add(o + 32));
            }
            let rem = n - blocks * 64;
            if rem > 0 {
                let mut ta = [0u8; 64];
                let mut tb = [0u8; 64];
                ta[..rem].copy_from_slice(&a[blocks * 64..]);
                tb[..rem].copy_from_slice(&b[blocks * 64..]);
                acc = sq_u8_step(acc, ta.as_ptr(), tb.as_ptr());
                acc = sq_u8_step(acc, ta.as_ptr().add(32), tb.as_ptr().add(32));
            }
            reduce_i32(acc) as f32
        }

        /// One 32-byte step of u8 dot product.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn dot_u8_step(acc: __m256i, pa: *const u8, pb: *const u8) -> __m256i {
            let va = _mm256_loadu_si256(pa as *const __m256i);
            let vb = _mm256_loadu_si256(pb as *const __m256i);
            let zero = _mm256_setzero_si256();
            let alo = _mm256_unpacklo_epi8(va, zero);
            let ahi = _mm256_unpackhi_epi8(va, zero);
            let blo = _mm256_unpacklo_epi8(vb, zero);
            let bhi = _mm256_unpackhi_epi8(vb, zero);
            let acc = _mm256_add_epi32(acc, _mm256_madd_epi16(alo, blo));
            _mm256_add_epi32(acc, _mm256_madd_epi16(ahi, bhi))
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        pub unsafe fn dot_u8(a: &[u8], b: &[u8]) -> f32 {
            assert_eq!(a.len(), b.len(), "kernel inputs must have equal lengths");
            let n = a.len();
            let blocks = n / 64;
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut acc = _mm256_setzero_si256();
            for i in 0..blocks {
                let o = i * 64;
                acc = dot_u8_step(acc, pa.add(o), pb.add(o));
                acc = dot_u8_step(acc, pa.add(o + 32), pb.add(o + 32));
            }
            let rem = n - blocks * 64;
            if rem > 0 {
                let mut ta = [0u8; 64];
                let mut tb = [0u8; 64];
                ta[..rem].copy_from_slice(&a[blocks * 64..]);
                tb[..rem].copy_from_slice(&b[blocks * 64..]);
                acc = dot_u8_step(acc, ta.as_ptr(), tb.as_ptr());
                acc = dot_u8_step(acc, ta.as_ptr().add(32), tb.as_ptr().add(32));
            }
            reduce_i32(acc) as f32
        }

        /// One 32-byte step of i8 squared Euclidean (sign-extending widen).
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn sq_i8_step(acc: __m256i, pa: *const i8, pb: *const i8) -> __m256i {
            let va = _mm256_loadu_si256(pa as *const __m256i);
            let vb = _mm256_loadu_si256(pb as *const __m256i);
            let alo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(va));
            let ahi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(va));
            let blo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(vb));
            let bhi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(vb));
            let dlo = _mm256_sub_epi16(alo, blo);
            let dhi = _mm256_sub_epi16(ahi, bhi);
            let acc = _mm256_add_epi32(acc, _mm256_madd_epi16(dlo, dlo));
            _mm256_add_epi32(acc, _mm256_madd_epi16(dhi, dhi))
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        pub unsafe fn squared_euclidean_i8(a: &[i8], b: &[i8]) -> f32 {
            assert_eq!(a.len(), b.len(), "kernel inputs must have equal lengths");
            let n = a.len();
            let blocks = n / 64;
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut acc = _mm256_setzero_si256();
            for i in 0..blocks {
                let o = i * 64;
                acc = sq_i8_step(acc, pa.add(o), pb.add(o));
                acc = sq_i8_step(acc, pa.add(o + 32), pb.add(o + 32));
            }
            let rem = n - blocks * 64;
            if rem > 0 {
                let mut ta = [0i8; 64];
                let mut tb = [0i8; 64];
                ta[..rem].copy_from_slice(&a[blocks * 64..]);
                tb[..rem].copy_from_slice(&b[blocks * 64..]);
                acc = sq_i8_step(acc, ta.as_ptr(), tb.as_ptr());
                acc = sq_i8_step(acc, ta.as_ptr().add(32), tb.as_ptr().add(32));
            }
            reduce_i32(acc) as f32
        }

        /// One 32-byte step of i8 dot product.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn dot_i8_step(acc: __m256i, pa: *const i8, pb: *const i8) -> __m256i {
            let va = _mm256_loadu_si256(pa as *const __m256i);
            let vb = _mm256_loadu_si256(pb as *const __m256i);
            let alo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(va));
            let ahi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(va));
            let blo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(vb));
            let bhi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(vb));
            let acc = _mm256_add_epi32(acc, _mm256_madd_epi16(alo, blo));
            _mm256_add_epi32(acc, _mm256_madd_epi16(ahi, bhi))
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        pub unsafe fn dot_i8(a: &[i8], b: &[i8]) -> f32 {
            assert_eq!(a.len(), b.len(), "kernel inputs must have equal lengths");
            let n = a.len();
            let blocks = n / 64;
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut acc = _mm256_setzero_si256();
            for i in 0..blocks {
                let o = i * 64;
                acc = dot_i8_step(acc, pa.add(o), pb.add(o));
                acc = dot_i8_step(acc, pa.add(o + 32), pb.add(o + 32));
            }
            let rem = n - blocks * 64;
            if rem > 0 {
                let mut ta = [0i8; 64];
                let mut tb = [0i8; 64];
                ta[..rem].copy_from_slice(&a[blocks * 64..]);
                tb[..rem].copy_from_slice(&b[blocks * 64..]);
                acc = dot_i8_step(acc, ta.as_ptr(), tb.as_ptr());
                acc = dot_i8_step(acc, ta.as_ptr().add(32), tb.as_ptr().add(32));
            }
            reduce_i32(acc) as f32
        }
    }

    pub mod avx512 {
        //! 512-bit kernels (AVX-512 F+BW), with VNNI `vpdpbusd` variants
        //! for the integer kernels.
        //!
        //! * The `f32` kernels are **bit-identical to the AVX2 tier**: one
        //!   512-bit accumulator whose lanes 0–7 receive exactly the adds
        //!   AVX2's accumulator 0 performs (block elements 0..8) and lanes
        //!   8–15 exactly accumulator 1's (elements 8..16), multiply+add
        //!   with no FMA contraction, reduced by [`reduce_f32_avx2_order`]
        //!   — the AVX2 reduction verbatim.
        //! * The integer kernels are exact (as everywhere): the `_bw`
        //!   steps widen to i16 and `vpmaddwd` into i32 lanes like AVX2;
        //!   the `_vnni` steps use `vpdpbusd` — which treats its second
        //!   operand as *signed* bytes — biasing that operand by −128
        //!   (`⊕ 0x80`) so every byte is representable, then restoring
        //!   the exact sum with `±128·Σ` of the unsigned operand,
        //!   accumulated by a second `vpdpbusd` against all-ones. Both
        //!   variants produce the same integer, so dispatch between
        //!   them is unobservable.
        //!
        //! The public `squared_euclidean_*`/`dot_*` entry points pick the
        //! VNNI step via [`crate::simd::vnni_available`]; the `_bw`/`_vnni`
        //! variants are exported for benches and equivalence tests.

        use std::arch::x86_64::*;

        /// Stores the 16 lanes and reduces them in the AVX2 order: lanes
        /// 0..8 as accumulator 0, lanes 8..16 as accumulator 1, `s0 + s1`.
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn reduce_f32_avx2_order(acc: __m512) -> f32 {
            let mut l = [0.0f32; 16];
            _mm512_storeu_ps(l.as_mut_ptr(), acc);
            let s0 = ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
            let s1 = ((l[8] + l[9]) + (l[10] + l[11])) + ((l[12] + l[13]) + (l[14] + l[15]));
            s0 + s1
        }

        /// Exact horizontal sum of an 8-lane i64 accumulator. In-register
        /// shuffle tree: a stack round-trip here costs more than a whole
        /// 64-byte block, which flattens the tier's edge at small dims.
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn reduce_i64(acc: __m512i) -> i64 {
            let s256 = _mm256_add_epi64(
                _mm512_castsi512_si256(acc),
                _mm512_extracti64x4_epi64::<1>(acc),
            );
            let s128 = _mm_add_epi64(
                _mm256_castsi256_si128(s256),
                _mm256_extracti128_si256::<1>(s256),
            );
            let s64 = _mm_add_epi64(s128, _mm_unpackhi_epi64(s128, s128));
            _mm_cvtsi128_si64(s64)
        }

        /// Exact horizontal sum of a 16-lane i32 accumulator into i64
        /// (sign-extend the halves to i64 lanes, then tree-reduce).
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn reduce_i32(acc: __m512i) -> i64 {
            let lo = _mm512_cvtepi32_epi64(_mm512_castsi512_si256(acc));
            let hi = _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64::<1>(acc));
            reduce_i64(_mm512_add_epi64(lo, hi))
        }

        /// Exact horizontal sum of 16 i32 lanes, as an in-register
        /// narrowing tree. The VNNI kernels combine their two i32
        /// accumulators (`dp ± corr·128`) in lane arithmetic before this
        /// tree; the whole path is exact whenever the true result fits
        /// i32 — worst-case inputs need ≥ 2^15 dims to overflow — orders
        /// of magnitude above any ANN dimension. An i64 widening tree
        /// here costs more shuffle-port cycles than a whole 64-byte
        /// block, which caps the tier's edge at small dims.
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn reduce_i32_lanes(v: __m512i) -> i32 {
            let s256 =
                _mm256_add_epi32(_mm512_castsi512_si256(v), _mm512_extracti64x4_epi64::<1>(v));
            let s128 = _mm_add_epi32(
                _mm256_castsi256_si128(s256),
                _mm256_extracti128_si256::<1>(s256),
            );
            let s64 = _mm_add_epi32(s128, _mm_shuffle_epi32::<0b0000_1110>(s128));
            let s32 = _mm_add_epi32(s64, _mm_shuffle_epi32::<0b0000_0001>(s64));
            _mm_cvtsi128_si32(s32)
        }

        /// `Σ dp + 128·Σ corr` over i32 lanes — the final step shared by
        /// the biased-operand VNNI kernels (see the block helpers).
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn reduce_dp_corr(dp: __m512i, corr: __m512i) -> i64 {
            reduce_i32_lanes(_mm512_add_epi32(dp, _mm512_slli_epi32::<7>(corr))) as i64
        }

        /// 256-bit (AVX-512VL) counterpart of [`reduce_dp_corr`].
        ///
        /// The last horizontal add happens in a general-purpose register:
        /// the short-vector kernels are throughput-bound on the three
        /// vector ALU ports, so finishing the reduction with scalar uops
        /// (which issue on the otherwise-idle scalar ports) is free.
        /// Integer adds in any order are exact, so the result is
        /// unchanged.
        #[inline]
        #[target_feature(enable = "avx512vl")]
        unsafe fn reduce_dp_corr_256(dp: __m256i, corr: __m256i) -> i64 {
            let v = _mm256_add_epi32(dp, _mm256_slli_epi32::<7>(corr));
            let s128 = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
            let s64 = _mm_add_epi32(s128, _mm_shuffle_epi32::<0b0000_1110>(s128));
            let packed = _mm_cvtsi128_si64(s64) as u64;
            (packed as u32 as i32 as i64) + ((packed >> 32) as u32 as i32 as i64)
        }

        /// One 32-byte block of the biased u8 squared-Euclidean step at
        /// 256-bit width (AVX-512VL VNNI). Same arithmetic as
        /// [`sq_u8_block_vnni`], narrower vectors.
        #[inline]
        #[target_feature(enable = "avx512bw,avx512vl,avx512vnni")]
        unsafe fn sq_u8_block_vnni_256(
            dp: __m256i,
            corr: __m256i,
            pa: *const u8,
            pb: *const u8,
        ) -> (__m256i, __m256i) {
            let va = _mm256_loadu_si256(pa as *const __m256i);
            let vb = _mm256_loadu_si256(pb as *const __m256i);
            let d = _mm256_or_si256(_mm256_subs_epu8(va, vb), _mm256_subs_epu8(vb, va));
            let biased = _mm256_xor_si256(d, _mm256_set1_epi8(-128));
            let dp = _mm256_dpbusd_epi32(dp, d, biased);
            let corr = _mm256_dpbusd_epi32(corr, d, _mm256_set1_epi8(1));
            (dp, corr)
        }

        /// u8 squared Euclidean specialized for d=128 (two cache lines —
        /// the canonical ANN embedding width): four 32-byte blocks fully
        /// unrolled over two accumulator chains, no loop or tail
        /// branches, vector-tree reduce. Same arithmetic as the general
        /// paths, so the result is bit-identical.
        #[inline]
        #[target_feature(enable = "avx512bw,avx512vl,avx512vnni")]
        unsafe fn sq_u8_vnni_d128(a: &[u8], b: &[u8]) -> f32 {
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut dp0 = _mm256_setzero_si256();
            let mut corr0 = _mm256_setzero_si256();
            let mut dp1 = _mm256_setzero_si256();
            let mut corr1 = _mm256_setzero_si256();
            (dp0, corr0) = sq_u8_block_vnni_256(dp0, corr0, pa, pb);
            (dp1, corr1) = sq_u8_block_vnni_256(dp1, corr1, pa.add(32), pb.add(32));
            (dp0, corr0) = sq_u8_block_vnni_256(dp0, corr0, pa.add(64), pb.add(64));
            (dp1, corr1) = sq_u8_block_vnni_256(dp1, corr1, pa.add(96), pb.add(96));
            let v = _mm256_add_epi32(
                _mm256_add_epi32(dp0, dp1),
                _mm256_slli_epi32::<7>(_mm256_add_epi32(corr0, corr1)),
            );
            let s128 = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
            let s64 = _mm_add_epi32(s128, _mm_shuffle_epi32::<0b0000_1110>(s128));
            let s32 = _mm_add_epi32(s64, _mm_shuffle_epi32::<0b0000_0001>(s64));
            _mm_cvtsi128_si32(s32) as f32
        }

        /// u8 dot product specialized for d=128 (see [`sq_u8_vnni_d128`]).
        #[inline]
        #[target_feature(enable = "avx512bw,avx512vl,avx512vnni")]
        unsafe fn dot_u8_vnni_d128(a: &[u8], b: &[u8]) -> f32 {
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut dp0 = _mm256_setzero_si256();
            let mut corr0 = _mm256_setzero_si256();
            let mut dp1 = _mm256_setzero_si256();
            let mut corr1 = _mm256_setzero_si256();
            (dp0, corr0) = dot_u8_block_vnni_256(dp0, corr0, pa, pb);
            (dp1, corr1) = dot_u8_block_vnni_256(dp1, corr1, pa.add(32), pb.add(32));
            (dp0, corr0) = dot_u8_block_vnni_256(dp0, corr0, pa.add(64), pb.add(64));
            (dp1, corr1) = dot_u8_block_vnni_256(dp1, corr1, pa.add(96), pb.add(96));
            let v = _mm256_add_epi32(
                _mm256_add_epi32(dp0, dp1),
                _mm256_slli_epi32::<7>(_mm256_add_epi32(corr0, corr1)),
            );
            let s128 = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
            let s64 = _mm_add_epi32(s128, _mm_shuffle_epi32::<0b0000_1110>(s128));
            let s32 = _mm_add_epi32(s64, _mm_shuffle_epi32::<0b0000_0001>(s64));
            _mm_cvtsi128_si32(s32) as f32
        }

        /// Short-vector u8 squared Euclidean at 256-bit width. Below
        /// four 64-byte blocks, 512-bit execution only has two ports to
        /// issue on and the per-call reduce is a larger fraction of the
        /// work; the VL encoding runs the identical biased-`vpdpbusd`
        /// arithmetic on the same three ports AVX2 uses, with far fewer
        /// uops than AVX2's widen + `vpmaddwd` — so the tier's edge at
        /// small dims survives port contention from an SMT neighbor.
        #[inline]
        #[target_feature(enable = "avx512bw,avx512vl,avx512vnni")]
        unsafe fn sq_u8_vnni_short(a: &[u8], b: &[u8]) -> f32 {
            if a.len() == 128 {
                return sq_u8_vnni_d128(a, b);
            }
            let n = a.len();
            let blocks = n / 32;
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut dp0 = _mm256_setzero_si256();
            let mut corr0 = _mm256_setzero_si256();
            let mut dp1 = _mm256_setzero_si256();
            let mut corr1 = _mm256_setzero_si256();
            let mut i = 0;
            while i + 1 < blocks {
                (dp0, corr0) = sq_u8_block_vnni_256(dp0, corr0, pa.add(i * 32), pb.add(i * 32));
                (dp1, corr1) =
                    sq_u8_block_vnni_256(dp1, corr1, pa.add((i + 1) * 32), pb.add((i + 1) * 32));
                i += 2;
            }
            if i < blocks {
                (dp0, corr0) = sq_u8_block_vnni_256(dp0, corr0, pa.add(i * 32), pb.add(i * 32));
            }
            let rem = n - blocks * 32;
            if rem > 0 {
                let mut ta = [0u8; 32];
                let mut tb = [0u8; 32];
                ta[..rem].copy_from_slice(&a[blocks * 32..]);
                tb[..rem].copy_from_slice(&b[blocks * 32..]);
                (dp1, corr1) = sq_u8_block_vnni_256(dp1, corr1, ta.as_ptr(), tb.as_ptr());
            }
            reduce_dp_corr_256(_mm256_add_epi32(dp0, dp1), _mm256_add_epi32(corr0, corr1)) as f32
        }

        /// One 32-byte block of the biased u8 dot step at 256-bit width.
        #[inline]
        #[target_feature(enable = "avx512bw,avx512vl,avx512vnni")]
        unsafe fn dot_u8_block_vnni_256(
            dp: __m256i,
            corr: __m256i,
            pa: *const u8,
            pb: *const u8,
        ) -> (__m256i, __m256i) {
            let va = _mm256_loadu_si256(pa as *const __m256i);
            let vb = _mm256_loadu_si256(pb as *const __m256i);
            let biased = _mm256_xor_si256(vb, _mm256_set1_epi8(-128));
            let dp = _mm256_dpbusd_epi32(dp, va, biased);
            let corr = _mm256_dpbusd_epi32(corr, va, _mm256_set1_epi8(1));
            (dp, corr)
        }

        /// Short-vector u8 dot product at 256-bit width (see
        /// [`sq_u8_vnni_short`] for why).
        #[inline]
        #[target_feature(enable = "avx512bw,avx512vl,avx512vnni")]
        unsafe fn dot_u8_vnni_short(a: &[u8], b: &[u8]) -> f32 {
            if a.len() == 128 {
                return dot_u8_vnni_d128(a, b);
            }
            let n = a.len();
            let blocks = n / 32;
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut dp0 = _mm256_setzero_si256();
            let mut corr0 = _mm256_setzero_si256();
            let mut dp1 = _mm256_setzero_si256();
            let mut corr1 = _mm256_setzero_si256();
            let mut i = 0;
            while i + 1 < blocks {
                (dp0, corr0) = dot_u8_block_vnni_256(dp0, corr0, pa.add(i * 32), pb.add(i * 32));
                (dp1, corr1) =
                    dot_u8_block_vnni_256(dp1, corr1, pa.add((i + 1) * 32), pb.add((i + 1) * 32));
                i += 2;
            }
            if i < blocks {
                (dp0, corr0) = dot_u8_block_vnni_256(dp0, corr0, pa.add(i * 32), pb.add(i * 32));
            }
            let rem = n - blocks * 32;
            if rem > 0 {
                let mut ta = [0u8; 32];
                let mut tb = [0u8; 32];
                ta[..rem].copy_from_slice(&a[blocks * 32..]);
                tb[..rem].copy_from_slice(&b[blocks * 32..]);
                (dp1, corr1) = dot_u8_block_vnni_256(dp1, corr1, ta.as_ptr(), tb.as_ptr());
            }
            reduce_dp_corr_256(_mm256_add_epi32(dp0, dp1), _mm256_add_epi32(corr0, corr1)) as f32
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        pub unsafe fn squared_euclidean_f32(a: &[f32], b: &[f32]) -> f32 {
            assert_eq!(a.len(), b.len(), "kernel inputs must have equal lengths");
            let n = a.len();
            let blocks = n / 16;
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut acc = _mm512_setzero_ps();
            for i in 0..blocks {
                let o = i * 16;
                let d = _mm512_sub_ps(_mm512_loadu_ps(pa.add(o)), _mm512_loadu_ps(pb.add(o)));
                acc = _mm512_add_ps(acc, _mm512_mul_ps(d, d));
            }
            let rem = n - blocks * 16;
            if rem > 0 {
                let mut ta = [0.0f32; 16];
                let mut tb = [0.0f32; 16];
                ta[..rem].copy_from_slice(&a[blocks * 16..]);
                tb[..rem].copy_from_slice(&b[blocks * 16..]);
                let d = _mm512_sub_ps(_mm512_loadu_ps(ta.as_ptr()), _mm512_loadu_ps(tb.as_ptr()));
                acc = _mm512_add_ps(acc, _mm512_mul_ps(d, d));
            }
            reduce_f32_avx2_order(acc)
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        pub unsafe fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
            assert_eq!(a.len(), b.len(), "kernel inputs must have equal lengths");
            let n = a.len();
            let blocks = n / 16;
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut acc = _mm512_setzero_ps();
            for i in 0..blocks {
                let o = i * 16;
                acc = _mm512_add_ps(
                    acc,
                    _mm512_mul_ps(_mm512_loadu_ps(pa.add(o)), _mm512_loadu_ps(pb.add(o))),
                );
            }
            let rem = n - blocks * 16;
            if rem > 0 {
                let mut ta = [0.0f32; 16];
                let mut tb = [0.0f32; 16];
                ta[..rem].copy_from_slice(&a[blocks * 16..]);
                tb[..rem].copy_from_slice(&b[blocks * 16..]);
                acc = _mm512_add_ps(
                    acc,
                    _mm512_mul_ps(_mm512_loadu_ps(ta.as_ptr()), _mm512_loadu_ps(tb.as_ptr())),
                );
            }
            reduce_f32_avx2_order(acc)
        }

        /// One 64-byte block of u8 squared Euclidean, widening path:
        /// unpack to i16, diff, `vpmaddwd` into 16 i32 lanes.
        #[inline]
        #[target_feature(enable = "avx512bw")]
        unsafe fn sq_u8_block_bw(acc: __m512i, pa: *const u8, pb: *const u8) -> __m512i {
            let va = _mm512_loadu_si512(pa as *const __m512i);
            let vb = _mm512_loadu_si512(pb as *const __m512i);
            let zero = _mm512_setzero_si512();
            let alo = _mm512_unpacklo_epi8(va, zero);
            let ahi = _mm512_unpackhi_epi8(va, zero);
            let blo = _mm512_unpacklo_epi8(vb, zero);
            let bhi = _mm512_unpackhi_epi8(vb, zero);
            let dlo = _mm512_sub_epi16(alo, blo);
            let dhi = _mm512_sub_epi16(ahi, bhi);
            let acc = _mm512_add_epi32(acc, _mm512_madd_epi16(dlo, dlo));
            _mm512_add_epi32(acc, _mm512_madd_epi16(dhi, dhi))
        }

        #[inline]
        #[target_feature(enable = "avx512bw")]
        pub unsafe fn squared_euclidean_u8_bw(a: &[u8], b: &[u8]) -> f32 {
            assert_eq!(a.len(), b.len(), "kernel inputs must have equal lengths");
            let n = a.len();
            let blocks = n / 64;
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut acc = _mm512_setzero_si512();
            for i in 0..blocks {
                acc = sq_u8_block_bw(acc, pa.add(i * 64), pb.add(i * 64));
            }
            let rem = n - blocks * 64;
            if rem > 0 {
                let mut ta = [0u8; 64];
                let mut tb = [0u8; 64];
                ta[..rem].copy_from_slice(&a[blocks * 64..]);
                tb[..rem].copy_from_slice(&b[blocks * 64..]);
                acc = sq_u8_block_bw(acc, ta.as_ptr(), tb.as_ptr());
            }
            reduce_i32(acc) as f32
        }

        /// One 64-byte block of u8 squared Euclidean, VNNI path.
        ///
        /// `d = |a − b|` per byte (saturating-subtract both ways, OR).
        /// `vpdpbusd` needs a *signed* second operand, so rather than
        /// correcting for `d ≥ 128` after the fact, bias it up front:
        /// `d ⊕ 0x80` reinterprets as `d − 128`, which every byte value
        /// represents. `vpdpbusd(d, d ⊕ 0x80)` = `Σ d² − 128·Σ d`, and a
        /// second `vpdpbusd` against all-ones accumulates `Σ d` exactly.
        /// Two dpbusd issues beat the mask-register + `vpsadbw`
        /// alternative: no cross-domain moves, no shuffle-port traffic.
        #[inline]
        #[target_feature(enable = "avx512bw,avx512vnni")]
        unsafe fn sq_u8_block_vnni(
            dp: __m512i,
            corr: __m512i,
            pa: *const u8,
            pb: *const u8,
        ) -> (__m512i, __m512i) {
            let va = _mm512_loadu_si512(pa as *const __m512i);
            let vb = _mm512_loadu_si512(pb as *const __m512i);
            let d = _mm512_or_si512(_mm512_subs_epu8(va, vb), _mm512_subs_epu8(vb, va));
            let biased = _mm512_xor_si512(d, _mm512_set1_epi8(-128));
            let dp = _mm512_dpbusd_epi32(dp, d, biased);
            let corr = _mm512_dpbusd_epi32(corr, d, _mm512_set1_epi8(1));
            (dp, corr)
        }

        #[inline]
        #[target_feature(enable = "avx512bw,avx512vl,avx512vnni")]
        pub unsafe fn squared_euclidean_u8_vnni(a: &[u8], b: &[u8]) -> f32 {
            assert_eq!(a.len(), b.len(), "kernel inputs must have equal lengths");
            let n = a.len();
            if n < 256 {
                return sq_u8_vnni_short(a, b);
            }
            let blocks = n / 64;
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            // Two independent accumulator pairs: `vpdpbusd` has multi-cycle
            // latency, and at small dims (d=128 is two blocks) a single
            // serial chain leaves the second FMA port idle. Integer adds
            // commute, so splitting even/odd blocks is exact.
            let mut dp0 = _mm512_setzero_si512();
            let mut corr0 = _mm512_setzero_si512();
            let mut dp1 = _mm512_setzero_si512();
            let mut corr1 = _mm512_setzero_si512();
            let mut i = 0;
            while i + 1 < blocks {
                (dp0, corr0) = sq_u8_block_vnni(dp0, corr0, pa.add(i * 64), pb.add(i * 64));
                (dp1, corr1) =
                    sq_u8_block_vnni(dp1, corr1, pa.add((i + 1) * 64), pb.add((i + 1) * 64));
                i += 2;
            }
            if i < blocks {
                (dp0, corr0) = sq_u8_block_vnni(dp0, corr0, pa.add(i * 64), pb.add(i * 64));
            }
            let rem = n - blocks * 64;
            if rem > 0 {
                let mut ta = [0u8; 64];
                let mut tb = [0u8; 64];
                ta[..rem].copy_from_slice(&a[blocks * 64..]);
                tb[..rem].copy_from_slice(&b[blocks * 64..]);
                (dp1, corr1) = sq_u8_block_vnni(dp1, corr1, ta.as_ptr(), tb.as_ptr());
            }
            reduce_dp_corr(_mm512_add_epi32(dp0, dp1), _mm512_add_epi32(corr0, corr1)) as f32
        }

        /// Auto-selecting u8 squared Euclidean (VNNI when available).
        #[inline]
        #[target_feature(enable = "avx512bw")]
        pub unsafe fn squared_euclidean_u8(a: &[u8], b: &[u8]) -> f32 {
            if crate::simd::vnni_available() {
                squared_euclidean_u8_vnni(a, b)
            } else {
                squared_euclidean_u8_bw(a, b)
            }
        }

        /// One 64-byte block of u8 dot product, widening path.
        #[inline]
        #[target_feature(enable = "avx512bw")]
        unsafe fn dot_u8_block_bw(acc: __m512i, pa: *const u8, pb: *const u8) -> __m512i {
            let va = _mm512_loadu_si512(pa as *const __m512i);
            let vb = _mm512_loadu_si512(pb as *const __m512i);
            let zero = _mm512_setzero_si512();
            let alo = _mm512_unpacklo_epi8(va, zero);
            let ahi = _mm512_unpackhi_epi8(va, zero);
            let blo = _mm512_unpacklo_epi8(vb, zero);
            let bhi = _mm512_unpackhi_epi8(vb, zero);
            let acc = _mm512_add_epi32(acc, _mm512_madd_epi16(alo, blo));
            _mm512_add_epi32(acc, _mm512_madd_epi16(ahi, bhi))
        }

        #[inline]
        #[target_feature(enable = "avx512bw")]
        pub unsafe fn dot_u8_bw(a: &[u8], b: &[u8]) -> f32 {
            assert_eq!(a.len(), b.len(), "kernel inputs must have equal lengths");
            let n = a.len();
            let blocks = n / 64;
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut acc = _mm512_setzero_si512();
            for i in 0..blocks {
                acc = dot_u8_block_bw(acc, pa.add(i * 64), pb.add(i * 64));
            }
            let rem = n - blocks * 64;
            if rem > 0 {
                let mut ta = [0u8; 64];
                let mut tb = [0u8; 64];
                ta[..rem].copy_from_slice(&a[blocks * 64..]);
                tb[..rem].copy_from_slice(&b[blocks * 64..]);
                acc = dot_u8_block_bw(acc, ta.as_ptr(), tb.as_ptr());
            }
            reduce_i32(acc) as f32
        }

        /// One 64-byte block of u8 dot product, VNNI path.
        ///
        /// Same biasing as [`sq_u8_block_vnni`]: `vpdpbusd(a, b ⊕ 0x80)`
        /// = `Σ a·b − 128·Σ a`, and a second `vpdpbusd` against all-ones
        /// accumulates `Σ a` exactly.
        #[inline]
        #[target_feature(enable = "avx512bw,avx512vnni")]
        unsafe fn dot_u8_block_vnni(
            dp: __m512i,
            corr: __m512i,
            pa: *const u8,
            pb: *const u8,
        ) -> (__m512i, __m512i) {
            let va = _mm512_loadu_si512(pa as *const __m512i);
            let vb = _mm512_loadu_si512(pb as *const __m512i);
            let biased = _mm512_xor_si512(vb, _mm512_set1_epi8(-128));
            let dp = _mm512_dpbusd_epi32(dp, va, biased);
            let corr = _mm512_dpbusd_epi32(corr, va, _mm512_set1_epi8(1));
            (dp, corr)
        }

        #[inline]
        #[target_feature(enable = "avx512bw,avx512vl,avx512vnni")]
        pub unsafe fn dot_u8_vnni(a: &[u8], b: &[u8]) -> f32 {
            assert_eq!(a.len(), b.len(), "kernel inputs must have equal lengths");
            let n = a.len();
            if n < 256 {
                return dot_u8_vnni_short(a, b);
            }
            let blocks = n / 64;
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            // Even/odd block split, as in `squared_euclidean_u8_vnni`.
            let mut dp0 = _mm512_setzero_si512();
            let mut corr0 = _mm512_setzero_si512();
            let mut dp1 = _mm512_setzero_si512();
            let mut corr1 = _mm512_setzero_si512();
            let mut i = 0;
            while i + 1 < blocks {
                (dp0, corr0) = dot_u8_block_vnni(dp0, corr0, pa.add(i * 64), pb.add(i * 64));
                (dp1, corr1) =
                    dot_u8_block_vnni(dp1, corr1, pa.add((i + 1) * 64), pb.add((i + 1) * 64));
                i += 2;
            }
            if i < blocks {
                (dp0, corr0) = dot_u8_block_vnni(dp0, corr0, pa.add(i * 64), pb.add(i * 64));
            }
            let rem = n - blocks * 64;
            if rem > 0 {
                let mut ta = [0u8; 64];
                let mut tb = [0u8; 64];
                ta[..rem].copy_from_slice(&a[blocks * 64..]);
                tb[..rem].copy_from_slice(&b[blocks * 64..]);
                (dp1, corr1) = dot_u8_block_vnni(dp1, corr1, ta.as_ptr(), tb.as_ptr());
            }
            reduce_dp_corr(_mm512_add_epi32(dp0, dp1), _mm512_add_epi32(corr0, corr1)) as f32
        }

        /// Auto-selecting u8 dot product (VNNI when available).
        #[inline]
        #[target_feature(enable = "avx512bw")]
        pub unsafe fn dot_u8(a: &[u8], b: &[u8]) -> f32 {
            if crate::simd::vnni_available() {
                dot_u8_vnni(a, b)
            } else {
                dot_u8_bw(a, b)
            }
        }

        /// Sign-extending i16 widen of a 512-bit byte vector (per-128-lane
        /// interleave + arithmetic shift; lane order is irrelevant to the
        /// integer sums).
        #[inline]
        #[target_feature(enable = "avx512bw")]
        unsafe fn widen_i8(v: __m512i) -> (__m512i, __m512i) {
            let lo = _mm512_srai_epi16::<8>(_mm512_unpacklo_epi8(v, v));
            let hi = _mm512_srai_epi16::<8>(_mm512_unpackhi_epi8(v, v));
            (lo, hi)
        }

        /// One 64-byte block of i8 squared Euclidean, widening path.
        #[inline]
        #[target_feature(enable = "avx512bw")]
        unsafe fn sq_i8_block_bw(acc: __m512i, pa: *const i8, pb: *const i8) -> __m512i {
            let va = _mm512_loadu_si512(pa as *const __m512i);
            let vb = _mm512_loadu_si512(pb as *const __m512i);
            let (alo, ahi) = widen_i8(va);
            let (blo, bhi) = widen_i8(vb);
            let dlo = _mm512_sub_epi16(alo, blo);
            let dhi = _mm512_sub_epi16(ahi, bhi);
            let acc = _mm512_add_epi32(acc, _mm512_madd_epi16(dlo, dlo));
            _mm512_add_epi32(acc, _mm512_madd_epi16(dhi, dhi))
        }

        #[inline]
        #[target_feature(enable = "avx512bw")]
        pub unsafe fn squared_euclidean_i8_bw(a: &[i8], b: &[i8]) -> f32 {
            assert_eq!(a.len(), b.len(), "kernel inputs must have equal lengths");
            let n = a.len();
            let blocks = n / 64;
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut acc = _mm512_setzero_si512();
            for i in 0..blocks {
                acc = sq_i8_block_bw(acc, pa.add(i * 64), pb.add(i * 64));
            }
            let rem = n - blocks * 64;
            if rem > 0 {
                let mut ta = [0i8; 64];
                let mut tb = [0i8; 64];
                ta[..rem].copy_from_slice(&a[blocks * 64..]);
                tb[..rem].copy_from_slice(&b[blocks * 64..]);
                acc = sq_i8_block_bw(acc, ta.as_ptr(), tb.as_ptr());
            }
            reduce_i32(acc) as f32
        }

        /// One 64-byte block of i8 squared Euclidean, VNNI path: XOR 0x80
        /// maps i8 to u8 order-preservingly (`x ↦ x + 128`), differences
        /// are unchanged, then the u8 VNNI step applies.
        #[inline]
        #[target_feature(enable = "avx512bw,avx512vnni")]
        unsafe fn sq_i8_block_vnni(
            dp: __m512i,
            corr: __m512i,
            pa: *const i8,
            pb: *const i8,
        ) -> (__m512i, __m512i) {
            let bias = _mm512_set1_epi8(-128);
            let va = _mm512_xor_si512(_mm512_loadu_si512(pa as *const __m512i), bias);
            let vb = _mm512_xor_si512(_mm512_loadu_si512(pb as *const __m512i), bias);
            let d = _mm512_or_si512(_mm512_subs_epu8(va, vb), _mm512_subs_epu8(vb, va));
            let dp = _mm512_dpbusd_epi32(dp, d, _mm512_xor_si512(d, bias));
            let corr = _mm512_dpbusd_epi32(corr, d, _mm512_set1_epi8(1));
            (dp, corr)
        }

        #[inline]
        #[target_feature(enable = "avx512bw,avx512vnni")]
        pub unsafe fn squared_euclidean_i8_vnni(a: &[i8], b: &[i8]) -> f32 {
            assert_eq!(a.len(), b.len(), "kernel inputs must have equal lengths");
            let n = a.len();
            let blocks = n / 64;
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut dp = _mm512_setzero_si512();
            let mut corr = _mm512_setzero_si512();
            for i in 0..blocks {
                (dp, corr) = sq_i8_block_vnni(dp, corr, pa.add(i * 64), pb.add(i * 64));
            }
            let rem = n - blocks * 64;
            if rem > 0 {
                let mut ta = [0i8; 64];
                let mut tb = [0i8; 64];
                ta[..rem].copy_from_slice(&a[blocks * 64..]);
                tb[..rem].copy_from_slice(&b[blocks * 64..]);
                (dp, corr) = sq_i8_block_vnni(dp, corr, ta.as_ptr(), tb.as_ptr());
            }
            reduce_dp_corr(dp, corr) as f32
        }

        /// Auto-selecting i8 squared Euclidean (VNNI when available).
        #[inline]
        #[target_feature(enable = "avx512bw")]
        pub unsafe fn squared_euclidean_i8(a: &[i8], b: &[i8]) -> f32 {
            if crate::simd::vnni_available() {
                squared_euclidean_i8_vnni(a, b)
            } else {
                squared_euclidean_i8_bw(a, b)
            }
        }

        /// One 64-byte block of i8 dot product, widening path.
        #[inline]
        #[target_feature(enable = "avx512bw")]
        unsafe fn dot_i8_block_bw(acc: __m512i, pa: *const i8, pb: *const i8) -> __m512i {
            let va = _mm512_loadu_si512(pa as *const __m512i);
            let vb = _mm512_loadu_si512(pb as *const __m512i);
            let (alo, ahi) = widen_i8(va);
            let (blo, bhi) = widen_i8(vb);
            let acc = _mm512_add_epi32(acc, _mm512_madd_epi16(alo, blo));
            _mm512_add_epi32(acc, _mm512_madd_epi16(ahi, bhi))
        }

        #[inline]
        #[target_feature(enable = "avx512bw")]
        pub unsafe fn dot_i8_bw(a: &[i8], b: &[i8]) -> f32 {
            assert_eq!(a.len(), b.len(), "kernel inputs must have equal lengths");
            let n = a.len();
            let blocks = n / 64;
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut acc = _mm512_setzero_si512();
            for i in 0..blocks {
                acc = dot_i8_block_bw(acc, pa.add(i * 64), pb.add(i * 64));
            }
            let rem = n - blocks * 64;
            if rem > 0 {
                let mut ta = [0i8; 64];
                let mut tb = [0i8; 64];
                ta[..rem].copy_from_slice(&a[blocks * 64..]);
                tb[..rem].copy_from_slice(&b[blocks * 64..]);
                acc = dot_i8_block_bw(acc, ta.as_ptr(), tb.as_ptr());
            }
            reduce_i32(acc) as f32
        }

        /// One 64-byte block of i8 dot product, VNNI path.
        ///
        /// `a ↦ a ⊕ 0x80` makes the first operand the unsigned `a + 128`,
        /// so `vpdpbusd` computes `Σ (a+128)·b = Σ a·b + 128·Σ b`. `Σ b`
        /// is accumulated exactly by a second `vpdpbusd` with all-ones
        /// as the unsigned operand (zero-padded tails contribute zero to
        /// both terms).
        #[inline]
        #[target_feature(enable = "avx512bw,avx512vnni")]
        unsafe fn dot_i8_block_vnni(
            dp: __m512i,
            sumb: __m512i,
            pa: *const i8,
            pb: *const i8,
        ) -> (__m512i, __m512i) {
            let bias = _mm512_set1_epi8(-128);
            let va = _mm512_loadu_si512(pa as *const __m512i);
            let vb = _mm512_loadu_si512(pb as *const __m512i);
            let dp = _mm512_dpbusd_epi32(dp, _mm512_xor_si512(va, bias), vb);
            let sumb = _mm512_dpbusd_epi32(sumb, _mm512_set1_epi8(1), vb);
            (dp, sumb)
        }

        #[inline]
        #[target_feature(enable = "avx512bw,avx512vnni")]
        pub unsafe fn dot_i8_vnni(a: &[i8], b: &[i8]) -> f32 {
            assert_eq!(a.len(), b.len(), "kernel inputs must have equal lengths");
            let n = a.len();
            let blocks = n / 64;
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut dp = _mm512_setzero_si512();
            let mut sumb = _mm512_setzero_si512();
            for i in 0..blocks {
                (dp, sumb) = dot_i8_block_vnni(dp, sumb, pa.add(i * 64), pb.add(i * 64));
            }
            let rem = n - blocks * 64;
            if rem > 0 {
                let mut ta = [0i8; 64];
                let mut tb = [0i8; 64];
                ta[..rem].copy_from_slice(&a[blocks * 64..]);
                tb[..rem].copy_from_slice(&b[blocks * 64..]);
                (dp, sumb) = dot_i8_block_vnni(dp, sumb, ta.as_ptr(), tb.as_ptr());
            }
            // Σ a·b = dp − 128·Σ b, in i32 lane arithmetic (see
            // `reduce_i32_lanes` for the exactness bound).
            reduce_i32_lanes(_mm512_sub_epi32(dp, _mm512_slli_epi32::<7>(sumb))) as f32
        }

        /// Auto-selecting i8 dot product (VNNI when available).
        #[inline]
        #[target_feature(enable = "avx512bw")]
        pub unsafe fn dot_i8(a: &[i8], b: &[i8]) -> f32 {
            if crate::simd::vnni_available() {
                dot_i8_vnni(a, b)
            } else {
                dot_i8_bw(a, b)
            }
        }
    }

    pub mod sse2 {
        use std::arch::x86_64::*;

        /// Fixed-order horizontal sum of four 4-lane accumulators.
        #[inline]
        unsafe fn reduce4_f32(a0: __m128, a1: __m128, a2: __m128, a3: __m128) -> f32 {
            let mut l = [[0.0f32; 4]; 4];
            _mm_storeu_ps(l[0].as_mut_ptr(), a0);
            _mm_storeu_ps(l[1].as_mut_ptr(), a1);
            _mm_storeu_ps(l[2].as_mut_ptr(), a2);
            _mm_storeu_ps(l[3].as_mut_ptr(), a3);
            let s: [f32; 4] = std::array::from_fn(|k| (l[k][0] + l[k][1]) + (l[k][2] + l[k][3]));
            (s[0] + s[1]) + (s[2] + s[3])
        }

        /// Exact horizontal sum of a 4-lane i32 accumulator into i64.
        #[inline]
        unsafe fn reduce_i32(acc: __m128i) -> i64 {
            let mut l = [0i32; 4];
            _mm_storeu_si128(l.as_mut_ptr() as *mut __m128i, acc);
            l.iter().map(|&x| x as i64).sum()
        }

        pub unsafe fn squared_euclidean_f32(a: &[f32], b: &[f32]) -> f32 {
            assert_eq!(a.len(), b.len(), "kernel inputs must have equal lengths");
            let n = a.len();
            let blocks = n / 16;
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut acc = [_mm_setzero_ps(); 4];
            for i in 0..blocks {
                let o = i * 16;
                for (k, slot) in acc.iter_mut().enumerate() {
                    let d = _mm_sub_ps(
                        _mm_loadu_ps(pa.add(o + k * 4)),
                        _mm_loadu_ps(pb.add(o + k * 4)),
                    );
                    *slot = _mm_add_ps(*slot, _mm_mul_ps(d, d));
                }
            }
            let rem = n - blocks * 16;
            if rem > 0 {
                let mut ta = [0.0f32; 16];
                let mut tb = [0.0f32; 16];
                ta[..rem].copy_from_slice(&a[blocks * 16..]);
                tb[..rem].copy_from_slice(&b[blocks * 16..]);
                for (k, slot) in acc.iter_mut().enumerate() {
                    let d = _mm_sub_ps(
                        _mm_loadu_ps(ta.as_ptr().add(k * 4)),
                        _mm_loadu_ps(tb.as_ptr().add(k * 4)),
                    );
                    *slot = _mm_add_ps(*slot, _mm_mul_ps(d, d));
                }
            }
            reduce4_f32(acc[0], acc[1], acc[2], acc[3])
        }

        pub unsafe fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
            assert_eq!(a.len(), b.len(), "kernel inputs must have equal lengths");
            let n = a.len();
            let blocks = n / 16;
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut acc = [_mm_setzero_ps(); 4];
            for i in 0..blocks {
                let o = i * 16;
                for (k, slot) in acc.iter_mut().enumerate() {
                    *slot = _mm_add_ps(
                        *slot,
                        _mm_mul_ps(
                            _mm_loadu_ps(pa.add(o + k * 4)),
                            _mm_loadu_ps(pb.add(o + k * 4)),
                        ),
                    );
                }
            }
            let rem = n - blocks * 16;
            if rem > 0 {
                let mut ta = [0.0f32; 16];
                let mut tb = [0.0f32; 16];
                ta[..rem].copy_from_slice(&a[blocks * 16..]);
                tb[..rem].copy_from_slice(&b[blocks * 16..]);
                for (k, slot) in acc.iter_mut().enumerate() {
                    *slot = _mm_add_ps(
                        *slot,
                        _mm_mul_ps(
                            _mm_loadu_ps(ta.as_ptr().add(k * 4)),
                            _mm_loadu_ps(tb.as_ptr().add(k * 4)),
                        ),
                    );
                }
            }
            reduce4_f32(acc[0], acc[1], acc[2], acc[3])
        }

        /// One 16-byte step of u8 squared Euclidean.
        #[inline]
        unsafe fn sq_u8_step(acc: __m128i, pa: *const u8, pb: *const u8) -> __m128i {
            let va = _mm_loadu_si128(pa as *const __m128i);
            let vb = _mm_loadu_si128(pb as *const __m128i);
            let zero = _mm_setzero_si128();
            let alo = _mm_unpacklo_epi8(va, zero);
            let ahi = _mm_unpackhi_epi8(va, zero);
            let blo = _mm_unpacklo_epi8(vb, zero);
            let bhi = _mm_unpackhi_epi8(vb, zero);
            let dlo = _mm_sub_epi16(alo, blo);
            let dhi = _mm_sub_epi16(ahi, bhi);
            let acc = _mm_add_epi32(acc, _mm_madd_epi16(dlo, dlo));
            _mm_add_epi32(acc, _mm_madd_epi16(dhi, dhi))
        }

        pub unsafe fn squared_euclidean_u8(a: &[u8], b: &[u8]) -> f32 {
            assert_eq!(a.len(), b.len(), "kernel inputs must have equal lengths");
            let n = a.len();
            let blocks = n / 64;
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut acc = _mm_setzero_si128();
            for i in 0..blocks {
                let o = i * 64;
                for k in 0..4 {
                    acc = sq_u8_step(acc, pa.add(o + k * 16), pb.add(o + k * 16));
                }
            }
            let rem = n - blocks * 64;
            if rem > 0 {
                let mut ta = [0u8; 64];
                let mut tb = [0u8; 64];
                ta[..rem].copy_from_slice(&a[blocks * 64..]);
                tb[..rem].copy_from_slice(&b[blocks * 64..]);
                for k in 0..4 {
                    acc = sq_u8_step(acc, ta.as_ptr().add(k * 16), tb.as_ptr().add(k * 16));
                }
            }
            reduce_i32(acc) as f32
        }

        /// One 16-byte step of u8 dot product.
        #[inline]
        unsafe fn dot_u8_step(acc: __m128i, pa: *const u8, pb: *const u8) -> __m128i {
            let va = _mm_loadu_si128(pa as *const __m128i);
            let vb = _mm_loadu_si128(pb as *const __m128i);
            let zero = _mm_setzero_si128();
            let alo = _mm_unpacklo_epi8(va, zero);
            let ahi = _mm_unpackhi_epi8(va, zero);
            let blo = _mm_unpacklo_epi8(vb, zero);
            let bhi = _mm_unpackhi_epi8(vb, zero);
            let acc = _mm_add_epi32(acc, _mm_madd_epi16(alo, blo));
            _mm_add_epi32(acc, _mm_madd_epi16(ahi, bhi))
        }

        pub unsafe fn dot_u8(a: &[u8], b: &[u8]) -> f32 {
            assert_eq!(a.len(), b.len(), "kernel inputs must have equal lengths");
            let n = a.len();
            let blocks = n / 64;
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut acc = _mm_setzero_si128();
            for i in 0..blocks {
                let o = i * 64;
                for k in 0..4 {
                    acc = dot_u8_step(acc, pa.add(o + k * 16), pb.add(o + k * 16));
                }
            }
            let rem = n - blocks * 64;
            if rem > 0 {
                let mut ta = [0u8; 64];
                let mut tb = [0u8; 64];
                ta[..rem].copy_from_slice(&a[blocks * 64..]);
                tb[..rem].copy_from_slice(&b[blocks * 64..]);
                for k in 0..4 {
                    acc = dot_u8_step(acc, ta.as_ptr().add(k * 16), tb.as_ptr().add(k * 16));
                }
            }
            reduce_i32(acc) as f32
        }

        /// Sign-extending widen of the low/high 8 bytes of a 16-byte vector.
        #[inline]
        unsafe fn widen_i8(v: __m128i) -> (__m128i, __m128i) {
            // Interleave with itself then arithmetic-shift the high copy in,
            // the classic SSE2 sign-extension idiom.
            let lo = _mm_srai_epi16::<8>(_mm_unpacklo_epi8(v, v));
            let hi = _mm_srai_epi16::<8>(_mm_unpackhi_epi8(v, v));
            (lo, hi)
        }

        /// One 16-byte step of i8 squared Euclidean.
        #[inline]
        unsafe fn sq_i8_step(acc: __m128i, pa: *const i8, pb: *const i8) -> __m128i {
            let va = _mm_loadu_si128(pa as *const __m128i);
            let vb = _mm_loadu_si128(pb as *const __m128i);
            let (alo, ahi) = widen_i8(va);
            let (blo, bhi) = widen_i8(vb);
            let dlo = _mm_sub_epi16(alo, blo);
            let dhi = _mm_sub_epi16(ahi, bhi);
            let acc = _mm_add_epi32(acc, _mm_madd_epi16(dlo, dlo));
            _mm_add_epi32(acc, _mm_madd_epi16(dhi, dhi))
        }

        pub unsafe fn squared_euclidean_i8(a: &[i8], b: &[i8]) -> f32 {
            assert_eq!(a.len(), b.len(), "kernel inputs must have equal lengths");
            let n = a.len();
            let blocks = n / 64;
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut acc = _mm_setzero_si128();
            for i in 0..blocks {
                let o = i * 64;
                for k in 0..4 {
                    acc = sq_i8_step(acc, pa.add(o + k * 16), pb.add(o + k * 16));
                }
            }
            let rem = n - blocks * 64;
            if rem > 0 {
                let mut ta = [0i8; 64];
                let mut tb = [0i8; 64];
                ta[..rem].copy_from_slice(&a[blocks * 64..]);
                tb[..rem].copy_from_slice(&b[blocks * 64..]);
                for k in 0..4 {
                    acc = sq_i8_step(acc, ta.as_ptr().add(k * 16), tb.as_ptr().add(k * 16));
                }
            }
            reduce_i32(acc) as f32
        }

        /// One 16-byte step of i8 dot product.
        #[inline]
        unsafe fn dot_i8_step(acc: __m128i, pa: *const i8, pb: *const i8) -> __m128i {
            let va = _mm_loadu_si128(pa as *const __m128i);
            let vb = _mm_loadu_si128(pb as *const __m128i);
            let (alo, ahi) = widen_i8(va);
            let (blo, bhi) = widen_i8(vb);
            let acc = _mm_add_epi32(acc, _mm_madd_epi16(alo, blo));
            _mm_add_epi32(acc, _mm_madd_epi16(ahi, bhi))
        }

        pub unsafe fn dot_i8(a: &[i8], b: &[i8]) -> f32 {
            assert_eq!(a.len(), b.len(), "kernel inputs must have equal lengths");
            let n = a.len();
            let blocks = n / 64;
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let mut acc = _mm_setzero_si128();
            for i in 0..blocks {
                let o = i * 64;
                for k in 0..4 {
                    acc = dot_i8_step(acc, pa.add(o + k * 16), pb.add(o + k * 16));
                }
            }
            let rem = n - blocks * 64;
            if rem > 0 {
                let mut ta = [0i8; 64];
                let mut tb = [0i8; 64];
                ta[..rem].copy_from_slice(&a[blocks * 64..]);
                tb[..rem].copy_from_slice(&b[blocks * 64..]);
                for k in 0..4 {
                    acc = dot_i8_step(acc, ta.as_ptr().add(k * 16), tb.as_ptr().add(k * 16));
                }
            }
            reduce_i32(acc) as f32
        }
    }
}

macro_rules! dispatch {
    ($name:ident, $t:ty, $scalar:path, $sse2:path, $avx2:path, $avx512:path) => {
        /// Runtime-dispatched kernel; see the module docs for the
        /// determinism and block-structure contract.
        #[inline]
        pub fn $name(a: &[$t], b: &[$t]) -> f32 {
            match simd_level() {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: the dispatcher only returns a tier when the
                // CPU reports the feature; kernels assert equal lengths.
                SimdLevel::Avx512 => unsafe { $avx512(a, b) },
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Avx2 => unsafe { $avx2(a, b) },
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Sse2 => unsafe { $sse2(a, b) },
                _ => $scalar(a, b),
            }
        }
    };
}

dispatch!(
    squared_euclidean_u8,
    u8,
    scalar::squared_euclidean_u8,
    x86::sse2::squared_euclidean_u8,
    x86::avx2::squared_euclidean_u8,
    x86::avx512::squared_euclidean_u8
);
dispatch!(
    dot_u8,
    u8,
    scalar::dot_u8,
    x86::sse2::dot_u8,
    x86::avx2::dot_u8,
    x86::avx512::dot_u8
);
dispatch!(
    squared_euclidean_i8,
    i8,
    scalar::squared_euclidean_i8,
    x86::sse2::squared_euclidean_i8,
    x86::avx2::squared_euclidean_i8,
    x86::avx512::squared_euclidean_i8
);
dispatch!(
    dot_i8,
    i8,
    scalar::dot_i8,
    x86::sse2::dot_i8,
    x86::avx2::dot_i8,
    x86::avx512::dot_i8
);
dispatch!(
    squared_euclidean_f32,
    f32,
    scalar::squared_euclidean,
    x86::sse2::squared_euclidean_f32,
    x86::avx2::squared_euclidean_f32,
    x86::avx512::squared_euclidean_f32
);
dispatch!(
    dot_f32,
    f32,
    scalar::dot,
    x86::sse2::dot_f32,
    x86::avx2::dot_f32,
    x86::avx512::dot_f32
);

#[cfg(test)]
mod tests {
    use super::*;

    fn u8_vec(n: usize, seed: u64) -> Vec<u8> {
        (0..n)
            .map(|i| (seed.wrapping_mul(i as u64 + 7) >> 13) as u8)
            .collect()
    }

    fn i8_vec(n: usize, seed: u64) -> Vec<i8> {
        u8_vec(n, seed).into_iter().map(|x| x as i8).collect()
    }

    fn f32_vec(n: usize, seed: u64) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let h = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(i as u64);
                ((h >> 11) as f64 / (1u64 << 53) as f64 * 100.0 - 50.0) as f32
            })
            .collect()
    }

    #[test]
    fn padded_dim_rounds_to_blocks() {
        assert_eq!(padded_dim::<f32>(1), 16);
        assert_eq!(padded_dim::<f32>(16), 16);
        assert_eq!(padded_dim::<f32>(200), 208);
        assert_eq!(padded_dim::<u8>(128), 128);
        assert_eq!(padded_dim::<i8>(100), 128);
    }

    #[test]
    fn integer_kernels_match_scalar_bit_exact() {
        for n in [1usize, 7, 63, 64, 65, 100, 128, 200, 511, 512] {
            let (a, b) = (u8_vec(n, 3), u8_vec(n, 5));
            assert_eq!(
                squared_euclidean_u8(&a, &b),
                scalar::squared_euclidean_u8(&a, &b)
            );
            assert_eq!(dot_u8(&a, &b), scalar::dot_u8(&a, &b));
            let (c, d) = (i8_vec(n, 11), i8_vec(n, 13));
            assert_eq!(
                squared_euclidean_i8(&c, &d),
                scalar::squared_euclidean_i8(&c, &d)
            );
            assert_eq!(dot_i8(&c, &d), scalar::dot_i8(&c, &d));
        }
    }

    #[test]
    fn f32_kernels_close_to_scalar() {
        for n in [1usize, 5, 15, 16, 17, 100, 128, 200, 512] {
            let (a, b) = (f32_vec(n, 17), f32_vec(n, 19));
            let (got, want) = (
                squared_euclidean_f32(&a, &b),
                scalar::squared_euclidean(&a, &b),
            );
            assert!((got - want).abs() <= 1e-4 * want.abs().max(1.0), "sq n={n}");
            let (got, want) = (dot_f32(&a, &b), scalar::dot(&a, &b));
            assert!(
                (got - want).abs() <= 1e-4 * want.abs().max(1.0),
                "dot n={n}"
            );
        }
    }

    #[test]
    fn padded_and_unpadded_evaluations_agree() {
        // The PointSet storage contract: kernels on (query, logical row)
        // must equal kernels on the zero-padded pair.
        for dim in [1usize, 3, 17, 100, 130, 200] {
            let (a, b) = (f32_vec(dim, 23), f32_vec(dim, 29));
            let stride = padded_dim::<f32>(dim);
            let mut ap = a.clone();
            let mut bp = b.clone();
            ap.resize(stride, 0.0);
            bp.resize(stride, 0.0);
            assert_eq!(
                squared_euclidean_f32(&a, &b).to_bits(),
                squared_euclidean_f32(&ap, &bp).to_bits(),
                "f32 sq dim={dim}"
            );
            assert_eq!(
                dot_f32(&a, &b).to_bits(),
                dot_f32(&ap, &bp).to_bits(),
                "f32 dot dim={dim}"
            );

            let (u, v) = (u8_vec(dim, 31), u8_vec(dim, 37));
            let ustride = padded_dim::<u8>(dim);
            let mut up = u.clone();
            let mut vp = v.clone();
            up.resize(ustride, 0);
            vp.resize(ustride, 0);
            assert_eq!(squared_euclidean_u8(&u, &v), squared_euclidean_u8(&up, &vp));
            assert_eq!(dot_u8(&u, &v), dot_u8(&up, &vp));
        }
    }

    #[test]
    fn level_is_detected_and_stable() {
        let l1 = simd_level();
        let l2 = simd_level();
        assert_eq!(l1, l2);
        #[cfg(target_arch = "x86_64")]
        assert!(l1 >= SimdLevel::Sse2 || std::env::var("PARLAYANN_SIMD").is_ok());
        assert!(!l1.name().is_empty());
    }

    #[test]
    fn simd_cap_parser_accepts_exactly_the_documented_values() {
        assert_eq!(parse_simd_cap("scalar"), Some(Some(SimdLevel::Scalar)));
        assert_eq!(parse_simd_cap("sse2"), Some(Some(SimdLevel::Sse2)));
        assert_eq!(parse_simd_cap("avx2"), Some(Some(SimdLevel::Avx2)));
        assert_eq!(parse_simd_cap("avx512"), Some(Some(SimdLevel::Avx512)));
        assert_eq!(parse_simd_cap("auto"), Some(None));
        // Unrecognized values are rejected (the dispatcher warns and
        // falls back to hardware detection) — not silently "auto".
        assert_eq!(parse_simd_cap("avx"), None);
        assert_eq!(parse_simd_cap("AVX2"), None);
        assert_eq!(parse_simd_cap(""), None);
        assert_eq!(parse_simd_cap("neon"), None);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_integer_kernels_bit_exact_vs_scalar_and_avx2() {
        if !(std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw"))
        {
            eprintln!("skipping: no AVX-512 on this host");
            return;
        }
        for n in [1usize, 7, 63, 64, 65, 100, 128, 200, 511, 512] {
            let (a, b) = (u8_vec(n, 3), u8_vec(n, 5));
            // SAFETY: features checked above; AVX-512 implies AVX2.
            unsafe {
                assert_eq!(
                    x86::avx512::squared_euclidean_u8_bw(&a, &b),
                    scalar::squared_euclidean_u8(&a, &b),
                    "u8 sq bw n={n}"
                );
                assert_eq!(
                    x86::avx512::dot_u8_bw(&a, &b),
                    x86::avx2::dot_u8(&a, &b),
                    "u8 dot bw n={n}"
                );
                let (c, d) = (i8_vec(n, 11), i8_vec(n, 13));
                assert_eq!(
                    x86::avx512::squared_euclidean_i8_bw(&c, &d),
                    scalar::squared_euclidean_i8(&c, &d),
                    "i8 sq bw n={n}"
                );
                assert_eq!(
                    x86::avx512::dot_i8_bw(&c, &d),
                    scalar::dot_i8(&c, &d),
                    "i8 dot bw n={n}"
                );
                if std::arch::is_x86_feature_detected!("avx512vnni") {
                    assert_eq!(
                        x86::avx512::squared_euclidean_u8_vnni(&a, &b),
                        scalar::squared_euclidean_u8(&a, &b),
                        "u8 sq vnni n={n}"
                    );
                    assert_eq!(
                        x86::avx512::dot_u8_vnni(&a, &b),
                        scalar::dot_u8(&a, &b),
                        "u8 dot vnni n={n}"
                    );
                    assert_eq!(
                        x86::avx512::squared_euclidean_i8_vnni(&c, &d),
                        scalar::squared_euclidean_i8(&c, &d),
                        "i8 sq vnni n={n}"
                    );
                    assert_eq!(
                        x86::avx512::dot_i8_vnni(&c, &d),
                        scalar::dot_i8(&c, &d),
                        "i8 dot vnni n={n}"
                    );
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_f32_kernels_bit_identical_to_avx2() {
        if !(std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx2"))
        {
            eprintln!("skipping: no AVX-512 on this host");
            return;
        }
        for n in [1usize, 5, 15, 16, 17, 100, 128, 200, 512, 1000] {
            let (a, b) = (f32_vec(n, 17), f32_vec(n, 19));
            // SAFETY: features checked above.
            unsafe {
                assert_eq!(
                    x86::avx512::squared_euclidean_f32(&a, &b).to_bits(),
                    x86::avx2::squared_euclidean_f32(&a, &b).to_bits(),
                    "f32 sq n={n}"
                );
                assert_eq!(
                    x86::avx512::dot_f32(&a, &b).to_bits(),
                    x86::avx2::dot_f32(&a, &b).to_bits(),
                    "f32 dot n={n}"
                );
            }
        }
    }

    #[test]
    fn prefetch_is_a_safe_noop_semantically() {
        let v = f32_vec(64, 41);
        prefetch_read(&v);
        prefetch_read(&v[..1]);
        prefetch_read::<f32>(&[]);
    }
}
