//! Runtime-dispatched SIMD kernels for the simulator's hot loops, with
//! a scalar reference implementation that every vector lane must match
//! **bit for bit**.
//!
//! Three loop families dominate the per-access cost after the PR 3
//! fast-path work, and all three are data-parallel over fixed-size
//! data:
//!
//! 1. **Map generation** (paper §3.7): decode a 64-byte block as typed
//!    elements, clamp each into the annotated `[lo, hi]` range, and
//!    reduce min/max/sum. [`decode_clamp_on`] vectorizes the decode +
//!    clamp into an `[f64; 64]` buffer and [`min_max_on`] the min/max
//!    reduction. The **sum is never vectorized**: f64 addition is not
//!    associative, so lane-parallel partial sums could land an average
//!    in a different quantization bin. [`sum_seq`] folds the buffer in
//!    element order on every lane.
//! 2. **Key-lane scans**: the dense `u64` scan keys of
//!    `TagArray::find_keyed` and the way scans of the conventional
//!    caches. [`match_mask_on`] compares a whole set's keys at once and
//!    returns a bitmask; callers walk it in ascending way order, so hit
//!    order (and therefore every downstream decision) is unchanged.
//! 3. **64-byte block compare/copy** on the fill and writeback paths:
//!    [`eq64_on`] / [`copy64_on`].
//!
//! # Bit-identity contract
//!
//! The scalar lane *is* the semantics; SSE2/AVX2 are implementations of
//! it. Equality compares and copies are trivially exact. For the
//! floating-point kernels:
//!
//! * clamp uses `max_pd(lo, min_pd(hi, v))`. Both instructions return
//!   the **second** operand on a NaN or a `±0.0` tie, so the result is
//!   bitwise `v.clamp(lo, hi)` in every case, including NaN
//!   passthrough and signed zeros.
//! * min/max accumulation uses `min_pd(v, acc)` / `max_pd(v, acc)`:
//!   a NaN element leaves the accumulator untouched, exactly like the
//!   scalar `f64::min`/`f64::max` fold seeded with `±∞`. The only
//!   representational freedom left is *which* zero (`+0.0` vs `-0.0`)
//!   wins a tie between equal zeros; the quantizer downstream cannot
//!   distinguish them (`-0.0 == 0.0`, and `x - (-0.0)` and `x - 0.0`
//!   are bitwise equal for every `x`), and the property tests pin that
//!   all lanes produce bit-identical *maps*.
//!
//! # Dispatch
//!
//! [`lane()`] picks the widest lane the CPU supports, once, honouring
//! the `DG_SIMD` environment variable (`off`/`scalar`, `sse2`, `avx2`,
//! or `on`/`auto`). Every kernel also has a lane-explicit `*_on`
//! variant so differential tests can compare lanes in-process without
//! touching global state. Requesting an unavailable lane (or any lane
//! on a non-x86_64 host) falls back to scalar — results are identical
//! by contract, so the fallback is silent.

use std::sync::OnceLock;

/// How a 64-byte block's bytes decode into elements. Mirrors
/// `dg_mem::ElemType` without depending on it (this crate sits below
/// `dg-mem` in the dependency graph).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ElemKind {
    /// 64 unsigned bytes.
    U8,
    /// 16 little-endian `i32`s.
    I32,
    /// 16 little-endian `f32`s.
    F32,
    /// 8 little-endian `f64`s.
    F64,
}

impl ElemKind {
    /// Elements per 64-byte block.
    #[inline]
    pub const fn count(self) -> usize {
        match self {
            ElemKind::U8 => 64,
            ElemKind::I32 | ElemKind::F32 => 16,
            ElemKind::F64 => 8,
        }
    }
}

/// An implementation lane. `Scalar` is the reference; the vector lanes
/// must produce bit-identical results (see the crate docs for the
/// contract).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    /// Plain Rust loops — the reference implementation.
    Scalar,
    /// 128-bit `core::arch::x86_64` kernels (baseline on x86_64).
    Sse2,
    /// 256-bit AVX2 kernels.
    Avx2,
}

impl Lane {
    /// All lanes, narrowest first.
    pub const ALL: [Lane; 3] = [Lane::Scalar, Lane::Sse2, Lane::Avx2];

    /// Stable lower-case name (used in exported artifact metadata).
    #[inline]
    pub fn name(self) -> &'static str {
        match self {
            Lane::Scalar => "scalar",
            Lane::Sse2 => "sse2",
            Lane::Avx2 => "avx2",
        }
    }

    /// Whether this host can execute the lane.
    #[inline]
    pub fn available(self) -> bool {
        match self {
            Lane::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Lane::Sse2 => is_x86_feature_detected!("sse2"),
            #[cfg(target_arch = "x86_64")]
            Lane::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// The process-wide lane: the widest available one, overridable via
/// `DG_SIMD` (`off`/`scalar`/`0`, `sse2`, `avx2`, `on`/`auto`/`1`).
/// Resolved once and cached; an unrecognised value warns on stderr and
/// behaves like `auto` (all lanes are bit-identical, so any choice is
/// safe).
pub fn lane() -> Lane {
    static LANE: OnceLock<Lane> = OnceLock::new();
    *LANE.get_or_init(|| select_lane(std::env::var("DG_SIMD").ok().as_deref()))
}

/// Pure lane-selection policy behind [`lane()`], separated for tests.
fn select_lane(var: Option<&str>) -> Lane {
    let best = if Lane::Avx2.available() {
        Lane::Avx2
    } else if Lane::Sse2.available() {
        Lane::Sse2
    } else {
        Lane::Scalar
    };
    let Some(raw) = var else { return best };
    match raw.trim().to_ascii_lowercase().as_str() {
        "" | "on" | "auto" | "1" => best,
        "off" | "scalar" | "0" => Lane::Scalar,
        "sse2" => {
            if Lane::Sse2.available() {
                Lane::Sse2
            } else {
                Lane::Scalar
            }
        }
        "avx2" => {
            if Lane::Avx2.available() {
                Lane::Avx2
            } else {
                eprintln!("dg-simd: DG_SIMD=avx2 requested but AVX2 is unavailable; using {}", best.name());
                best
            }
        }
        other => {
            eprintln!("dg-simd: unrecognised DG_SIMD={other:?}; using {}", best.name());
            best
        }
    }
}

// ----------------------------------------------------------------------
// Kernel 1: decode + clamp a block into an f64 element buffer.
// ----------------------------------------------------------------------

/// Decode `bytes` as `kind` elements, clamp each into `[lo, hi]`, and
/// write them in element order into `out`. Returns the element count.
///
/// Every lane produces bitwise-identical buffers (see the crate docs).
///
/// # Panics
///
/// Panics if `lo > hi` or either bound is NaN (the same condition under
/// which the scalar `f64::clamp` panics).
#[inline]
pub fn decode_clamp_on(
    lane: Lane,
    kind: ElemKind,
    bytes: &[u8; 64],
    lo: f64,
    hi: f64,
    out: &mut [f64; 64],
) -> usize {
    assert!(lo <= hi, "decode_clamp bounds must satisfy lo <= hi and be non-NaN");
    #[cfg(target_arch = "x86_64")]
    match lane {
        Lane::Avx2 if Lane::Avx2.available() => {
            // SAFETY: AVX2 support was just verified on this CPU.
            return unsafe { x86::decode_clamp_avx2(kind, bytes, lo, hi, out) };
        }
        Lane::Sse2 if Lane::Sse2.available() => {
            // SAFETY: SSE2 support was just verified on this CPU.
            return unsafe { x86::decode_clamp_sse2(kind, bytes, lo, hi, out) };
        }
        _ => {}
    }
    let _ = lane;
    decode_clamp_scalar(kind, bytes, lo, hi, out)
}

/// [`decode_clamp_on`] with the process-wide [`lane()`].
#[inline]
pub fn decode_clamp(kind: ElemKind, bytes: &[u8; 64], lo: f64, hi: f64, out: &mut [f64; 64]) -> usize {
    decode_clamp_on(lane(), kind, bytes, lo, hi, out)
}

/// The reference decode + clamp: exactly `elem.clamp(lo, hi)` per
/// element in element order.
fn decode_clamp_scalar(kind: ElemKind, bytes: &[u8; 64], lo: f64, hi: f64, out: &mut [f64; 64]) -> usize {
    match kind {
        ElemKind::U8 => {
            for (o, &b) in out.iter_mut().zip(bytes.iter()) {
                *o = (b as f64).clamp(lo, hi);
            }
        }
        ElemKind::I32 => {
            for (o, c) in out.iter_mut().zip(bytes.chunks_exact(4)) {
                *o = (i32::from_le_bytes(c.try_into().unwrap()) as f64).clamp(lo, hi);
            }
        }
        ElemKind::F32 => {
            for (o, c) in out.iter_mut().zip(bytes.chunks_exact(4)) {
                *o = (f32::from_le_bytes(c.try_into().unwrap()) as f64).clamp(lo, hi);
            }
        }
        ElemKind::F64 => {
            for (o, c) in out.iter_mut().zip(bytes.chunks_exact(8)) {
                *o = f64::from_le_bytes(c.try_into().unwrap()).clamp(lo, hi);
            }
        }
    }
    kind.count()
}

// ----------------------------------------------------------------------
// Kernel 2: NaN-skipping min/max reduction over an f64 slice.
// ----------------------------------------------------------------------

/// `(min, max)` over `vals`, skipping NaNs, seeded `(+∞, -∞)` — the
/// same fold as `acc.min(v)` / `acc.max(v)` in element order. An
/// all-NaN (or empty) slice returns the seeds.
#[inline]
pub fn min_max_on(lane: Lane, vals: &[f64]) -> (f64, f64) {
    #[cfg(target_arch = "x86_64")]
    match lane {
        Lane::Avx2 if Lane::Avx2.available() => {
            // SAFETY: AVX2 support was just verified on this CPU.
            return unsafe { x86::min_max_avx2(vals) };
        }
        Lane::Sse2 if Lane::Sse2.available() => {
            // SAFETY: SSE2 support was just verified on this CPU.
            return unsafe { x86::min_max_sse2(vals) };
        }
        _ => {}
    }
    let _ = lane;
    min_max_scalar(vals)
}

/// [`min_max_on`] with the process-wide [`lane()`].
#[inline]
pub fn min_max(vals: &[f64]) -> (f64, f64) {
    min_max_on(lane(), vals)
}

fn min_max_scalar(vals: &[f64]) -> (f64, f64) {
    let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in vals {
        min = min.min(v);
        max = max.max(v);
    }
    (min, max)
}

/// Sum `vals` strictly in element order. Deliberately **not**
/// vectorized on any lane: f64 addition is non-associative and the sum
/// feeds a quantizer, so reassociation could change observable output.
#[inline]
pub fn sum_seq(vals: &[f64]) -> f64 {
    let mut sum = 0.0;
    for &v in vals {
        sum += v;
    }
    sum
}

// ----------------------------------------------------------------------
// Kernel 3: dense u64 key scan.
// ----------------------------------------------------------------------

/// Bitmask of positions in `keys` equal to `key` (bit `i` set ⇔
/// `keys[i] == key`). Callers consume bits in ascending order, which
/// reproduces the first-match order of a linear scan exactly.
///
/// # Panics
///
/// Debug-asserts `keys.len() <= 64` (a cache set's way count).
#[inline]
pub fn match_mask_on(lane: Lane, keys: &[u64], key: u64) -> u64 {
    debug_assert!(keys.len() <= 64, "match_mask scans one set (≤ 64 ways)");
    // Short scans (the L1/L2 way counts) stay inline: the compare loop
    // is branch-free and auto-vectorizes under the baseline target
    // features, while reaching a `#[target_feature]` kernel costs a
    // non-inlinable call plus the lane test — more than the scan
    // itself at 8 ways. The mask is identical either way.
    if keys.len() <= 8 {
        return match_mask_scalar(keys, key);
    }
    #[cfg(target_arch = "x86_64")]
    match lane {
        Lane::Avx2 if Lane::Avx2.available() => {
            // SAFETY: AVX2 support was just verified on this CPU.
            return unsafe { x86::match_mask_avx2(keys, key) };
        }
        Lane::Sse2 if Lane::Sse2.available() => {
            // SAFETY: SSE2 support was just verified on this CPU.
            return unsafe { x86::match_mask_sse2(keys, key) };
        }
        _ => {}
    }
    let _ = lane;
    match_mask_scalar(keys, key)
}

/// [`match_mask_on`] with the process-wide [`lane()`].
#[inline]
pub fn match_mask(keys: &[u64], key: u64) -> u64 {
    match_mask_on(lane(), keys, key)
}

#[inline]
fn match_mask_scalar(keys: &[u64], key: u64) -> u64 {
    let mut mask = 0u64;
    for (i, &k) in keys.iter().enumerate() {
        // Branch-free accumulation: `(k == key) as u64` compiles to a
        // flag set, so the loop vectorizes cleanly.
        mask |= ((k == key) as u64) << i;
    }
    mask
}

// ----------------------------------------------------------------------
// Kernel 4: 64-byte block compare / copy.
// ----------------------------------------------------------------------

/// Whether two 64-byte blocks are byte-identical.
#[inline]
pub fn eq64_on(lane: Lane, a: &[u8; 64], b: &[u8; 64]) -> bool {
    #[cfg(target_arch = "x86_64")]
    match lane {
        Lane::Avx2 if Lane::Avx2.available() => {
            // SAFETY: AVX2 support was just verified on this CPU.
            return unsafe { x86::eq64_avx2(a, b) };
        }
        Lane::Sse2 if Lane::Sse2.available() => {
            // SAFETY: SSE2 support was just verified on this CPU.
            return unsafe { x86::eq64_sse2(a, b) };
        }
        _ => {}
    }
    let _ = lane;
    eq64_inline(a, b)
}

/// [`eq64_on`], inlined at the call site. A 64-byte compare is too
/// small to amortize a lane test plus a non-inlinable
/// `#[target_feature]` call (and `a == b` on byte arrays lowers to a
/// libc `bcmp` call): eight branch-free u64 word compares vectorize
/// under the baseline target features and stay in the caller.
#[inline]
pub fn eq64(a: &[u8; 64], b: &[u8; 64]) -> bool {
    eq64_inline(a, b)
}

#[inline]
fn eq64_inline(a: &[u8; 64], b: &[u8; 64]) -> bool {
    let mut diff = 0u64;
    for i in 0..8 {
        let x = u64::from_le_bytes(a[i * 8..i * 8 + 8].try_into().unwrap());
        let y = u64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().unwrap());
        diff |= x ^ y;
    }
    diff == 0
}

/// Copy one 64-byte block.
#[inline]
pub fn copy64_on(lane: Lane, dst: &mut [u8; 64], src: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if matches!(lane, Lane::Avx2) && Lane::Avx2.available() {
        // SAFETY: AVX2 support was just verified on this CPU.
        unsafe { x86::copy64_avx2(dst, src) };
        return;
    }
    let _ = lane;
    *dst = *src;
}

/// [`copy64_on`], inlined at the call site: a fixed 64-byte move
/// lowers to four 128-bit (or two 256-bit, under wider target
/// features) register moves inline — already the vector ideal, with
/// no lane test or call to amortize.
#[inline]
pub fn copy64(dst: &mut [u8; 64], src: &[u8; 64]) {
    *dst = *src;
}

// ----------------------------------------------------------------------
// Software prefetch.
// ----------------------------------------------------------------------

/// Ask the CPU to start loading the cache line holding `ptr` into every
/// cache level (`prefetcht0`). A hint only: it never faults, even on a
/// dangling or null pointer, and has no effect on program state, so it
/// is safe to issue for an address that will not be read after all.
/// A no-op off x86_64.
#[inline(always)]
pub fn prefetch<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `prefetcht0` is an SSE instruction (baseline on x86_64)
    // that never dereferences architecturally and cannot fault.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(ptr.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

// ----------------------------------------------------------------------
// x86_64 kernels.
// ----------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::ElemKind;
    use core::arch::x86_64::*;

    // `min_pd(a, b)` / `max_pd(a, b)` return `b` when the comparison is
    // false — including NaN operands and `±0.0` ties. The clamp below
    // therefore returns `v` itself (bitwise) whenever `v` is in range
    // or NaN, `hi` when `v > hi`, and `lo` when `v < lo`: exactly
    // `f64::clamp`. The accumulating min/max pass `v` first so a NaN
    // element leaves the accumulator (second operand) untouched.

    // ---------------- AVX2 ----------------

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn clamp4(v: __m256d, lo: __m256d, hi: __m256d) -> __m256d {
        _mm256_max_pd(lo, _mm256_min_pd(hi, v))
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn decode_clamp_avx2(
        kind: ElemKind,
        bytes: &[u8; 64],
        lo: f64,
        hi: f64,
        out: &mut [f64; 64],
    ) -> usize {
        let lo_v = _mm256_set1_pd(lo);
        let hi_v = _mm256_set1_pd(hi);
        let src = bytes.as_ptr();
        let dst = out.as_mut_ptr();
        match kind {
            ElemKind::F64 => {
                for i in 0..2 {
                    let v = _mm256_loadu_pd(src.add(i * 32) as *const f64);
                    _mm256_storeu_pd(dst.add(i * 4), clamp4(v, lo_v, hi_v));
                }
            }
            ElemKind::F32 => {
                for i in 0..4 {
                    let v4 = _mm_loadu_ps(src.add(i * 16) as *const f32);
                    let d = _mm256_cvtps_pd(v4); // f32→f64 widening is exact
                    _mm256_storeu_pd(dst.add(i * 4), clamp4(d, lo_v, hi_v));
                }
            }
            ElemKind::I32 => {
                for i in 0..4 {
                    let v = _mm_loadu_si128(src.add(i * 16) as *const __m128i);
                    let d = _mm256_cvtepi32_pd(v); // i32→f64 is exact
                    _mm256_storeu_pd(dst.add(i * 4), clamp4(d, lo_v, hi_v));
                }
            }
            ElemKind::U8 => {
                for i in 0..8 {
                    let v8 = _mm_loadl_epi64(src.add(i * 8) as *const __m128i);
                    let w = _mm256_cvtepu8_epi32(v8); // 8 bytes → 8 i32
                    let d0 = _mm256_cvtepi32_pd(_mm256_castsi256_si128(w));
                    let d1 = _mm256_cvtepi32_pd(_mm256_extracti128_si256::<1>(w));
                    _mm256_storeu_pd(dst.add(i * 8), clamp4(d0, lo_v, hi_v));
                    _mm256_storeu_pd(dst.add(i * 8 + 4), clamp4(d1, lo_v, hi_v));
                }
            }
        }
        kind.count()
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn min_max_avx2(vals: &[f64]) -> (f64, f64) {
        let mut vmin = _mm256_set1_pd(f64::INFINITY);
        let mut vmax = _mm256_set1_pd(f64::NEG_INFINITY);
        let chunks = vals.len() / 4;
        for i in 0..chunks {
            let v = _mm256_loadu_pd(vals.as_ptr().add(i * 4));
            vmin = _mm256_min_pd(v, vmin); // NaN v keeps the accumulator
            vmax = _mm256_max_pd(v, vmax);
        }
        let mut mn = [0f64; 4];
        let mut mx = [0f64; 4];
        _mm256_storeu_pd(mn.as_mut_ptr(), vmin);
        _mm256_storeu_pd(mx.as_mut_ptr(), vmax);
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for j in 0..4 {
            // Lane accumulators are never NaN (seeded ±∞, NaNs skipped).
            if mn[j] < min {
                min = mn[j];
            }
            if mx[j] > max {
                max = mx[j];
            }
        }
        for &v in &vals[chunks * 4..] {
            if v < min {
                min = v;
            }
            if v > max {
                max = v;
            }
        }
        (min, max)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn match_mask_avx2(keys: &[u64], key: u64) -> u64 {
        let needle = _mm256_set1_epi64x(key as i64);
        let mut mask = 0u64;
        let chunks = keys.len() / 4;
        for i in 0..chunks {
            let v = _mm256_loadu_si256(keys.as_ptr().add(i * 4) as *const __m256i);
            let eq = _mm256_cmpeq_epi64(v, needle);
            let m = _mm256_movemask_pd(_mm256_castsi256_pd(eq)) as u32 as u64;
            mask |= m << (i * 4);
        }
        for (j, &k) in keys[chunks * 4..].iter().enumerate() {
            if k == key {
                mask |= 1 << (chunks * 4 + j);
            }
        }
        mask
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn eq64_avx2(a: &[u8; 64], b: &[u8; 64]) -> bool {
        let a0 = _mm256_loadu_si256(a.as_ptr() as *const __m256i);
        let a1 = _mm256_loadu_si256(a.as_ptr().add(32) as *const __m256i);
        let b0 = _mm256_loadu_si256(b.as_ptr() as *const __m256i);
        let b1 = _mm256_loadu_si256(b.as_ptr().add(32) as *const __m256i);
        let eq = _mm256_and_si256(_mm256_cmpeq_epi8(a0, b0), _mm256_cmpeq_epi8(a1, b1));
        _mm256_movemask_epi8(eq) == -1
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn copy64_avx2(dst: &mut [u8; 64], src: &[u8; 64]) {
        let v0 = _mm256_loadu_si256(src.as_ptr() as *const __m256i);
        let v1 = _mm256_loadu_si256(src.as_ptr().add(32) as *const __m256i);
        _mm256_storeu_si256(dst.as_mut_ptr() as *mut __m256i, v0);
        _mm256_storeu_si256(dst.as_mut_ptr().add(32) as *mut __m256i, v1);
    }

    // ---------------- SSE2 ----------------

    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn clamp2(v: __m128d, lo: __m128d, hi: __m128d) -> __m128d {
        _mm_max_pd(lo, _mm_min_pd(hi, v))
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn decode_clamp_sse2(
        kind: ElemKind,
        bytes: &[u8; 64],
        lo: f64,
        hi: f64,
        out: &mut [f64; 64],
    ) -> usize {
        let lo_v = _mm_set1_pd(lo);
        let hi_v = _mm_set1_pd(hi);
        let src = bytes.as_ptr();
        let dst = out.as_mut_ptr();
        match kind {
            ElemKind::F64 => {
                for i in 0..4 {
                    let v = _mm_loadu_pd(src.add(i * 16) as *const f64);
                    _mm_storeu_pd(dst.add(i * 2), clamp2(v, lo_v, hi_v));
                }
            }
            ElemKind::F32 => {
                for i in 0..4 {
                    let v4 = _mm_loadu_ps(src.add(i * 16) as *const f32);
                    let d0 = _mm_cvtps_pd(v4); // low two f32s, exact
                    let d1 = _mm_cvtps_pd(_mm_movehl_ps(v4, v4)); // high two
                    _mm_storeu_pd(dst.add(i * 4), clamp2(d0, lo_v, hi_v));
                    _mm_storeu_pd(dst.add(i * 4 + 2), clamp2(d1, lo_v, hi_v));
                }
            }
            ElemKind::I32 => {
                for i in 0..4 {
                    let v = _mm_loadu_si128(src.add(i * 16) as *const __m128i);
                    let d0 = _mm_cvtepi32_pd(v); // low two i32s, exact
                    let d1 = _mm_cvtepi32_pd(_mm_shuffle_epi32::<0x0E>(v)); // high two
                    _mm_storeu_pd(dst.add(i * 4), clamp2(d0, lo_v, hi_v));
                    _mm_storeu_pd(dst.add(i * 4 + 2), clamp2(d1, lo_v, hi_v));
                }
            }
            ElemKind::U8 => {
                let zero = _mm_setzero_si128();
                for i in 0..8 {
                    let v = _mm_loadl_epi64(src.add(i * 8) as *const __m128i);
                    let w16 = _mm_unpacklo_epi8(v, zero); // 8 × u16
                    let a = _mm_unpacklo_epi16(w16, zero); // bytes 0..4 as u32
                    let b = _mm_unpackhi_epi16(w16, zero); // bytes 4..8 as u32
                    for (half, w) in [a, b].into_iter().enumerate() {
                        let d0 = _mm_cvtepi32_pd(w);
                        let d1 = _mm_cvtepi32_pd(_mm_shuffle_epi32::<0x0E>(w));
                        let base = i * 8 + half * 4;
                        _mm_storeu_pd(dst.add(base), clamp2(d0, lo_v, hi_v));
                        _mm_storeu_pd(dst.add(base + 2), clamp2(d1, lo_v, hi_v));
                    }
                }
            }
        }
        kind.count()
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn min_max_sse2(vals: &[f64]) -> (f64, f64) {
        let mut vmin = _mm_set1_pd(f64::INFINITY);
        let mut vmax = _mm_set1_pd(f64::NEG_INFINITY);
        let chunks = vals.len() / 2;
        for i in 0..chunks {
            let v = _mm_loadu_pd(vals.as_ptr().add(i * 2));
            vmin = _mm_min_pd(v, vmin);
            vmax = _mm_max_pd(v, vmax);
        }
        let mut mn = [0f64; 2];
        let mut mx = [0f64; 2];
        _mm_storeu_pd(mn.as_mut_ptr(), vmin);
        _mm_storeu_pd(mx.as_mut_ptr(), vmax);
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for j in 0..2 {
            if mn[j] < min {
                min = mn[j];
            }
            if mx[j] > max {
                max = mx[j];
            }
        }
        for &v in &vals[chunks * 2..] {
            if v < min {
                min = v;
            }
            if v > max {
                max = v;
            }
        }
        (min, max)
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn match_mask_sse2(keys: &[u64], key: u64) -> u64 {
        let needle = _mm_set1_epi64x(key as i64);
        let mut mask = 0u64;
        let chunks = keys.len() / 2;
        for i in 0..chunks {
            let v = _mm_loadu_si128(keys.as_ptr().add(i * 2) as *const __m128i);
            let eq32 = _mm_cmpeq_epi32(v, needle);
            // A 64-bit lane matches iff both of its 32-bit halves do.
            let eq = _mm_and_si128(eq32, _mm_shuffle_epi32::<0xB1>(eq32));
            let m = _mm_movemask_pd(_mm_castsi128_pd(eq)) as u32 as u64;
            mask |= m << (i * 2);
        }
        for (j, &k) in keys[chunks * 2..].iter().enumerate() {
            if k == key {
                mask |= 1 << (chunks * 2 + j);
            }
        }
        mask
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn eq64_sse2(a: &[u8; 64], b: &[u8; 64]) -> bool {
        let mut eq = _mm_set1_epi8(-1);
        for i in 0..4 {
            let av = _mm_loadu_si128(a.as_ptr().add(i * 16) as *const __m128i);
            let bv = _mm_loadu_si128(b.as_ptr().add(i * 16) as *const __m128i);
            eq = _mm_and_si128(eq, _mm_cmpeq_epi8(av, bv));
        }
        _mm_movemask_epi8(eq) == 0xFFFF
    }
}

// ----------------------------------------------------------------------
// Tests.
// ----------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny deterministic generator (SplitMix64 step) so the crate
    /// stays dependency-free.
    struct Gen(u64);
    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
        fn bytes(&mut self) -> [u8; 64] {
            let mut b = [0u8; 64];
            for c in b.chunks_exact_mut(8) {
                c.copy_from_slice(&self.next().to_le_bytes());
            }
            b
        }
    }

    fn vector_lanes() -> Vec<Lane> {
        [Lane::Sse2, Lane::Avx2].into_iter().filter(|l| l.available()).collect()
    }

    #[test]
    fn lane_selection_policy() {
        assert_eq!(select_lane(Some("off")), Lane::Scalar);
        assert_eq!(select_lane(Some("scalar")), Lane::Scalar);
        assert_eq!(select_lane(Some("0")), Lane::Scalar);
        assert_eq!(select_lane(Some("OFF")), Lane::Scalar);
        let best = select_lane(None);
        assert_eq!(select_lane(Some("on")), best);
        assert_eq!(select_lane(Some("auto")), best);
        assert_eq!(select_lane(Some(" on ")), best);
        assert_eq!(select_lane(Some("definitely-not-a-lane")), best);
        if Lane::Sse2.available() {
            assert_eq!(select_lane(Some("sse2")), Lane::Sse2);
        }
        if Lane::Avx2.available() {
            assert_eq!(select_lane(Some("avx2")), Lane::Avx2);
        }
        assert!(Lane::Scalar.available());
        assert_eq!(Lane::Scalar.name(), "scalar");
        assert_eq!(Lane::Avx2.name(), "avx2");
    }

    /// The documented tie rule the vector min/max kernels rely on:
    /// `minpd`/`maxpd` return the second operand on equal-zero ties,
    /// while the scalar fold uses `f64::min`/`f64::max`. Both must
    /// agree *numerically*; bitwise agreement on the sign of a zero is
    /// not required (and the quantizer cannot observe it). This test
    /// pins the numeric agreement on mixed-zero inputs.
    #[test]
    fn mixed_zero_min_max_is_numerically_stable() {
        let vals = [0.0, -0.0, 0.0, -0.0, 0.0];
        for lane in Lane::ALL.into_iter().filter(|l| l.available()) {
            let (mn, mx) = min_max_on(lane, &vals);
            assert_eq!(mn, 0.0, "{lane:?}");
            assert_eq!(mx, 0.0, "{lane:?}");
        }
    }

    #[test]
    fn decode_clamp_lanes_match_scalar_bitwise() {
        let mut g = Gen(1);
        let kinds = [ElemKind::U8, ElemKind::I32, ElemKind::F32, ElemKind::F64];
        let bounds = [(0.0, 255.0), (-1000.0, 1000.0), (-0.5, 0.5), (0.0, 0.0), (-0.0, 100.0)];
        for _ in 0..200 {
            let bytes = g.bytes();
            for kind in kinds {
                for (lo, hi) in bounds {
                    let mut want = [0f64; 64];
                    let n = decode_clamp_on(Lane::Scalar, kind, &bytes, lo, hi, &mut want);
                    assert_eq!(n, kind.count());
                    for lane in vector_lanes() {
                        let mut got = [0f64; 64];
                        let m = decode_clamp_on(lane, kind, &bytes, lo, hi, &mut got);
                        assert_eq!(m, n);
                        for i in 0..n {
                            assert_eq!(
                                want[i].to_bits(),
                                got[i].to_bits(),
                                "lane {lane:?} kind {kind:?} elem {i}: {} vs {}",
                                want[i],
                                got[i]
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn decode_clamp_handles_nan_inf_denormal_bit_patterns() {
        // Hand-built f64 blocks: NaN, ±∞, denormals, ±0.
        let specials: [f64; 8] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 2.0, // denormal
            -f64::MIN_POSITIVE / 4.0,
            -0.0,
            0.0,
            1.5e308,
        ];
        let mut bytes = [0u8; 64];
        for (i, v) in specials.iter().enumerate() {
            bytes[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
        }
        for (lo, hi) in [(-1.0, 1.0), (0.0, 10.0), (f64::MIN, f64::MAX)] {
            let mut want = [0f64; 64];
            let n = decode_clamp_on(Lane::Scalar, ElemKind::F64, &bytes, lo, hi, &mut want);
            for lane in vector_lanes() {
                let mut got = [0f64; 64];
                decode_clamp_on(lane, ElemKind::F64, &bytes, lo, hi, &mut got);
                for i in 0..n {
                    assert_eq!(want[i].to_bits(), got[i].to_bits(), "lane {lane:?} elem {i}");
                }
            }
            // NaN passes through clamp; infinities clamp to the bounds.
            assert!(want[0].is_nan());
            assert_eq!(want[1], hi);
            assert_eq!(want[2], lo);
        }
        // f32 NaN/∞/denormal bit patterns too.
        let f32s: [f32; 4] = [f32::NAN, f32::INFINITY, f32::MIN_POSITIVE / 2.0, -0.0];
        let mut fb = [0u8; 64];
        for (i, v) in f32s.iter().enumerate() {
            fb[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
        let mut want = [0f64; 64];
        let n = decode_clamp_on(Lane::Scalar, ElemKind::F32, &fb, -2.0, 2.0, &mut want);
        for lane in vector_lanes() {
            let mut got = [0f64; 64];
            decode_clamp_on(lane, ElemKind::F32, &fb, -2.0, 2.0, &mut got);
            for i in 0..n {
                assert_eq!(want[i].to_bits(), got[i].to_bits(), "lane {lane:?} elem {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn decode_clamp_rejects_inverted_bounds() {
        let mut out = [0f64; 64];
        decode_clamp_on(Lane::Scalar, ElemKind::F64, &[0u8; 64], 1.0, -1.0, &mut out);
    }

    #[test]
    fn min_max_lanes_match_scalar() {
        let mut g = Gen(2);
        for round in 0..200 {
            // Arbitrary lengths exercise the vector tails.
            let len = (g.next() % 65) as usize;
            let mut vals = vec![0f64; len];
            for v in vals.iter_mut() {
                let bits = g.next();
                *v = match round % 4 {
                    // Mix plain magnitudes with raw bit patterns
                    // (NaNs, infinities, denormals all occur).
                    0 => (bits as i64 % 1000) as f64 / 7.0,
                    _ => f64::from_bits(bits),
                };
            }
            let (smin, smax) = min_max_on(Lane::Scalar, &vals);
            for lane in vector_lanes() {
                let (vmin, vmax) = min_max_on(lane, &vals);
                // NaN accumulators are impossible; compare numerically
                // (±0 ties may differ in sign, which nothing observes)
                // and bitwise for everything except zeros.
                assert_eq!(smin == vmin || (smin.is_nan() && vmin.is_nan()), true, "{lane:?} min {smin} vs {vmin}");
                assert_eq!(smax == vmax || (smax.is_nan() && vmax.is_nan()), true, "{lane:?} max {smax} vs {vmax}");
                if smin != 0.0 {
                    assert_eq!(smin.to_bits(), vmin.to_bits(), "{lane:?}");
                }
                if smax != 0.0 {
                    assert_eq!(smax.to_bits(), vmax.to_bits(), "{lane:?}");
                }
            }
        }
    }

    #[test]
    fn min_max_skips_nan_and_handles_all_nan() {
        let vals = [f64::NAN, 3.0, f64::NAN, -7.0, f64::NAN];
        for lane in Lane::ALL.into_iter().filter(|l| l.available()) {
            assert_eq!(min_max_on(lane, &vals), (-7.0, 3.0), "{lane:?}");
            let (mn, mx) = min_max_on(lane, &[f64::NAN; 5]);
            assert_eq!(mn, f64::INFINITY, "{lane:?}");
            assert_eq!(mx, f64::NEG_INFINITY, "{lane:?}");
            assert_eq!(min_max_on(lane, &[]), (f64::INFINITY, f64::NEG_INFINITY));
        }
    }

    #[test]
    fn sum_seq_is_order_exact() {
        // A sequence where reassociation visibly changes the result.
        let vals = [1e16, 1.0, -1e16, 1.0];
        // (1e16 + 1) rounds back to 1e16, so the in-order sum is 1.0 —
        // any reassociation (e.g. (1+1) + (1e16−1e16)) would give 2.0.
        assert_eq!(sum_seq(&vals), 1.0);
        let mut manual = 0.0;
        for v in vals {
            manual += v;
        }
        assert_eq!(sum_seq(&vals).to_bits(), manual.to_bits());
    }

    #[test]
    fn match_mask_lanes_match_scalar() {
        let mut g = Gen(3);
        for _ in 0..500 {
            let len = (g.next() % 20) as usize;
            let mut keys = vec![0u64; len];
            for k in keys.iter_mut() {
                // Small key space forces collisions; occasionally use
                // keys whose 32-bit halves match other keys' halves to
                // stress the SSE2 half-compare trick.
                *k = match g.next() % 4 {
                    0 => g.next() % 4,
                    1 => (g.next() % 4) << 32,
                    2 => ((g.next() % 4) << 32) | (g.next() % 4),
                    _ => g.next(),
                };
            }
            let needle = if len > 0 && g.next() % 2 == 0 { keys[(g.next() as usize) % len] } else { g.next() };
            let want = match_mask_on(Lane::Scalar, &keys, needle);
            for lane in vector_lanes() {
                assert_eq!(want, match_mask_on(lane, &keys, needle), "{lane:?} keys {keys:?} needle {needle}");
            }
        }
    }

    #[test]
    fn match_mask_half_collisions_do_not_false_positive() {
        // Keys sharing exactly one 32-bit half with the needle.
        let needle = 0x1111_2222_3333_4444u64;
        let keys = [
            0x1111_2222_0000_0000u64, // high half matches
            0x0000_0000_3333_4444u64, // low half matches
            needle,                   // full match
            0x3333_4444_1111_2222u64, // swapped halves
        ];
        for lane in Lane::ALL.into_iter().filter(|l| l.available()) {
            assert_eq!(match_mask_on(lane, &keys, needle), 0b0100, "{lane:?}");
        }
    }

    #[test]
    fn eq64_and_copy64_lanes_agree() {
        let mut g = Gen(4);
        for _ in 0..200 {
            let a = g.bytes();
            let mut b = a;
            if g.next() % 2 == 0 {
                let i = (g.next() % 64) as usize;
                b[i] ^= (1 + (g.next() % 255)) as u8;
            }
            let want = a == b;
            for lane in Lane::ALL.into_iter().filter(|l| l.available()) {
                assert_eq!(eq64_on(lane, &a, &b), want, "{lane:?}");
                let mut dst = [0u8; 64];
                copy64_on(lane, &mut dst, &a);
                assert_eq!(dst, a, "{lane:?}");
            }
        }
    }

    #[test]
    fn global_lane_is_cached_and_available() {
        let l = lane();
        assert!(l.available());
        assert_eq!(l, lane());
    }
}
