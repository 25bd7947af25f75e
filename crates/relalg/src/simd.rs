//! Explicit SIMD kernels for the columnar hot paths, with scalar
//! fallbacks.
//!
//! Every kernel here exists in two forms: a portable scalar loop (the
//! baseline the autovectorizer already does well on) and an explicit AVX2
//! implementation written with stable `core::arch::x86_64` intrinsics (no
//! nightly features). The public entry points dispatch at runtime: the
//! first call evaluates `is_x86_feature_detected!("avx2")` once and caches
//! the answer, so non-AVX2 hosts (and non-x86_64 builds, where the AVX2
//! module is compiled out entirely) transparently run the scalar loops.
//!
//! The scalar twins are public: they are the fallback, and the reference
//! every AVX2 body is checked against — this module's unit tests run each
//! dispatched kernel beside its scalar twin over ragged lengths, every
//! comparison operator and wrapping sums, and require identical output.
//! Kernel dispatches into an AVX2 body are counted process-wide
//! ([`kernel_dispatches`]) so engine statistics can show the SIMD paths
//! actually ran.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::predicate::CmpOp;

/// Process-wide count of kernel calls that took an explicit-SIMD body.
static DISPATCHES: AtomicU64 = AtomicU64::new(0);

/// Number of kernel calls dispatched to an explicit AVX2 body since
/// process start (scalar-fallback calls are not counted).
pub fn kernel_dispatches() -> u64 {
    DISPATCHES.load(Ordering::Relaxed)
}

#[inline]
fn count_dispatch() {
    DISPATCHES.fetch_add(1, Ordering::Relaxed);
}

/// True when the explicit AVX2 kernels can run on this host. Evaluated
/// once (runtime feature detection) and cached.
pub fn simd_enabled() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static ENABLED: OnceLock<bool> = OnceLock::new();
        *ENABLED.get_or_init(|| std::is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

// ---------------------------------------------------------------------------
// select_cmp: compare a dense i64 column against a literal, appending the
// indices of qualifying rows.
// ---------------------------------------------------------------------------

/// Scalar compare-into-selection: appends to `out` every index `i` where
/// `keys[i] op lit`, written branch-free (unconditional store, advance by
/// the comparison result).
pub fn select_cmp_scalar(keys: &[i64], op: CmpOp, lit: i64, out: &mut Vec<u32>) {
    #[inline]
    fn run(keys: &[i64], out: &mut Vec<u32>, f: impl Fn(i64) -> bool) {
        let base = out.len();
        out.resize(base + keys.len(), 0);
        let mut k = base;
        for (i, &v) in keys.iter().enumerate() {
            out[k] = i as u32;
            k += f(v) as usize;
        }
        out.truncate(k);
    }
    match op {
        CmpOp::Eq => run(keys, out, |v| v == lit),
        CmpOp::Ne => run(keys, out, |v| v != lit),
        CmpOp::Lt => run(keys, out, |v| v < lit),
        CmpOp::Le => run(keys, out, |v| v <= lit),
        CmpOp::Gt => run(keys, out, |v| v > lit),
        CmpOp::Ge => run(keys, out, |v| v >= lit),
    }
}

/// Compare-into-selection with runtime dispatch: the AVX2 body compares
/// four keys per step and compress-stores the qualifying indices through a
/// 16-entry lane table.
pub fn select_cmp(keys: &[i64], op: CmpOp, lit: i64, out: &mut Vec<u32>) {
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        count_dispatch();
        // SAFETY: AVX2 availability was verified at runtime.
        unsafe { avx2::select_cmp(keys, op, lit, out) };
        return;
    }
    select_cmp_scalar(keys, op, lit, out);
}

// ---------------------------------------------------------------------------
// gather: materialize src rows picked by a selection vector or by join
// match pairs.
// ---------------------------------------------------------------------------

/// Scalar selection-vector gather: appends `src[sel[..]]` to `dst`.
pub fn gather_i64_scalar(src: &[i64], sel: &[u32], dst: &mut Vec<i64>) {
    dst.reserve(sel.len());
    for &i in sel {
        dst.push(src[i as usize]);
    }
}

/// Selection-vector gather with runtime dispatch (AVX2
/// `vpgatherqq`-per-four-rows). Panics if any index is out of bounds,
/// matching the scalar loop.
pub fn gather_i64(src: &[i64], sel: &[u32], dst: &mut Vec<i64>) {
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        assert!(
            sel.iter().all(|&i| (i as usize) < src.len()),
            "gather index out of bounds"
        );
        count_dispatch();
        // SAFETY: AVX2 verified at runtime; indices bounds-checked above.
        unsafe { avx2::gather_i64(src, sel, dst) };
        return;
    }
    gather_i64_scalar(src, sel, dst);
}

/// Selection-vector gather over a `u64` (row-reference) column. Same
/// kernel as [`gather_i64`] — refs are bit-identical 8-byte lanes.
pub fn gather_u64(src: &[u64], sel: &[u32], dst: &mut Vec<u64>) {
    dst.reserve(sel.len());
    let start = dst.len();
    // SAFETY: u64 and i64 are layout-identical; the transmuted slices and
    // spare capacity cover exactly the same memory.
    unsafe {
        let src_i = std::slice::from_raw_parts(src.as_ptr() as *const i64, src.len());
        let dst_i = &mut *(dst as *mut Vec<u64> as *mut Vec<i64>);
        gather_i64(src_i, sel, dst_i);
        debug_assert_eq!(dst_i.len(), start + sel.len());
    }
    let _ = start;
}

/// Scalar join-pair gather: appends `src[pick(pair)]` for every pair,
/// where `left` picks the build-row (`.0`) or probe-row (`.1`) index.
pub fn gather_pairs_i64_scalar(src: &[i64], pairs: &[(u32, u32)], left: bool, dst: &mut Vec<i64>) {
    dst.reserve(pairs.len());
    if left {
        for &(l, _) in pairs {
            dst.push(src[l as usize]);
        }
    } else {
        for &(_, r) in pairs {
            dst.push(src[r as usize]);
        }
    }
}

/// Join-pair gather with runtime dispatch: loads four `(u32, u32)` pairs,
/// permutes out the chosen lane, and gathers four rows per step.
pub fn gather_pairs_i64(src: &[i64], pairs: &[(u32, u32)], left: bool, dst: &mut Vec<i64>) {
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        let ok = if left {
            pairs.iter().all(|&(l, _)| (l as usize) < src.len())
        } else {
            pairs.iter().all(|&(_, r)| (r as usize) < src.len())
        };
        assert!(ok, "pair-gather index out of bounds");
        count_dispatch();
        // SAFETY: AVX2 verified at runtime; indices bounds-checked above.
        unsafe { avx2::gather_pairs_i64(src, pairs, left, dst) };
        return;
    }
    gather_pairs_i64_scalar(src, pairs, left, dst);
}

/// Join-pair gather over a `u64` (row-reference) column.
pub fn gather_pairs_u64(src: &[u64], pairs: &[(u32, u32)], left: bool, dst: &mut Vec<u64>) {
    // SAFETY: u64 and i64 are layout-identical (see `gather_u64`).
    unsafe {
        let src_i = std::slice::from_raw_parts(src.as_ptr() as *const i64, src.len());
        let dst_i = &mut *(dst as *mut Vec<u64> as *mut Vec<i64>);
        gather_pairs_i64(src_i, pairs, left, dst_i);
    }
}

// ---------------------------------------------------------------------------
// aggregates: whole-slice SUM / MIN / MAX for the global-aggregate fast
// path.
// ---------------------------------------------------------------------------

/// Scalar wrapping sum of a slice.
pub fn sum_i64_scalar(xs: &[i64]) -> i64 {
    xs.iter().fold(0i64, |a, &b| a.wrapping_add(b))
}

/// Wrapping slice sum with runtime dispatch (four accumulator lanes).
pub fn sum_i64(xs: &[i64]) -> i64 {
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        count_dispatch();
        // SAFETY: AVX2 verified at runtime.
        return unsafe { avx2::sum_i64(xs) };
    }
    sum_i64_scalar(xs)
}

/// Scalar slice minimum (`None` when empty).
pub fn min_i64_scalar(xs: &[i64]) -> Option<i64> {
    xs.iter().copied().min()
}

/// Slice minimum with runtime dispatch (compare + blend lanes).
pub fn min_i64(xs: &[i64]) -> Option<i64> {
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() && !xs.is_empty() {
        count_dispatch();
        // SAFETY: AVX2 verified at runtime; slice is non-empty.
        return Some(unsafe { avx2::min_i64(xs) });
    }
    min_i64_scalar(xs)
}

/// Scalar slice maximum (`None` when empty).
pub fn max_i64_scalar(xs: &[i64]) -> Option<i64> {
    xs.iter().copied().max()
}

/// Slice maximum with runtime dispatch (compare + blend lanes).
pub fn max_i64(xs: &[i64]) -> Option<i64> {
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() && !xs.is_empty() {
        count_dispatch();
        // SAFETY: AVX2 verified at runtime; slice is non-empty.
        return Some(unsafe { avx2::max_i64(xs) });
    }
    max_i64_scalar(xs)
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The explicit AVX2 kernel bodies. Every function is
    //! `#[target_feature(enable = "avx2")]` and must only be called after
    //! [`super::simd_enabled`] returned true.

    use std::arch::x86_64::*;

    use crate::predicate::CmpOp;

    /// `LANES[m]` packs the indices of the set bits of the 4-bit mask `m`
    /// to the front — the compress step of the selection kernel.
    const LANES: [[u32; 4]; 16] = [
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [2, 0, 0, 0],
        [0, 2, 0, 0],
        [1, 2, 0, 0],
        [0, 1, 2, 0],
        [3, 0, 0, 0],
        [0, 3, 0, 0],
        [1, 3, 0, 0],
        [0, 1, 3, 0],
        [2, 3, 0, 0],
        [0, 2, 3, 0],
        [1, 2, 3, 0],
        [0, 1, 2, 3],
    ];

    #[target_feature(enable = "avx2")]
    pub unsafe fn select_cmp(keys: &[i64], op: CmpOp, lit: i64, out: &mut Vec<u32>) {
        let base = out.len();
        let n = keys.len();
        // Room for every index plus one overhanging 4-lane store.
        out.resize(base + n + 4, 0);
        let lit_v = _mm256_set1_epi64x(lit);
        let mut k = base;
        let mut i = 0usize;
        let ptr = out.as_mut_ptr();
        while i + 4 <= n {
            let v = _mm256_loadu_si256(keys.as_ptr().add(i) as *const __m256i);
            // Build the 4-bit qualifying mask from cmpgt/cmpeq lanes.
            let mask = match op {
                CmpOp::Eq => _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(v, lit_v))),
                CmpOp::Ne => {
                    _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(v, lit_v))) ^ 0xF
                }
                CmpOp::Gt => _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(v, lit_v))),
                CmpOp::Le => {
                    _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(v, lit_v))) ^ 0xF
                }
                CmpOp::Lt => _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(lit_v, v))),
                CmpOp::Ge => {
                    _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(lit_v, v))) ^ 0xF
                }
            } as usize;
            // Compress-store the qualifying lane indices (+ row base).
            let lanes = _mm_loadu_si128(LANES[mask].as_ptr() as *const __m128i);
            let idx = _mm_add_epi32(lanes, _mm_set1_epi32(i as i32));
            _mm_storeu_si128(ptr.add(k) as *mut __m128i, idx);
            k += mask.count_ones() as usize;
            i += 4;
        }
        out.truncate(k);
        // Scalar tail.
        let tail = &keys[i..];
        let mut scalar_tail = Vec::new();
        super::select_cmp_scalar(tail, op, lit, &mut scalar_tail);
        out.extend(scalar_tail.into_iter().map(|t| t + i as u32));
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn gather_i64(src: &[i64], sel: &[u32], dst: &mut Vec<i64>) {
        let n = sel.len();
        dst.reserve(n);
        let start = dst.len();
        let out = dst.as_mut_ptr().add(start);
        let mut i = 0usize;
        while i + 4 <= n {
            let idx = _mm_loadu_si128(sel.as_ptr().add(i) as *const __m128i);
            let v = _mm256_i32gather_epi64::<8>(src.as_ptr(), idx);
            _mm256_storeu_si256(out.add(i) as *mut __m256i, v);
            i += 4;
        }
        while i < n {
            *out.add(i) = src[*sel.get_unchecked(i) as usize];
            i += 1;
        }
        dst.set_len(start + n);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn gather_pairs_i64(
        src: &[i64],
        pairs: &[(u32, u32)],
        left: bool,
        dst: &mut Vec<i64>,
    ) {
        let n = pairs.len();
        dst.reserve(n);
        let start = dst.len();
        let out = dst.as_mut_ptr().add(start);
        // Four (u32, u32) pairs are eight u32 lanes; permute the wanted
        // half ([0,2,4,6] for build rows, [1,3,5,7] for probe rows) into
        // the low 128 bits and gather.
        let pick = if left {
            _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0)
        } else {
            _mm256_setr_epi32(1, 3, 5, 7, 0, 0, 0, 0)
        };
        let base = pairs.as_ptr() as *const __m256i;
        let mut i = 0usize;
        while i + 4 <= n {
            let packed = _mm256_loadu_si256(base.add(i / 4));
            let idx = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(packed, pick));
            let v = _mm256_i32gather_epi64::<8>(src.as_ptr(), idx);
            _mm256_storeu_si256(out.add(i) as *mut __m256i, v);
            i += 4;
        }
        while i < n {
            let &(l, r) = pairs.get_unchecked(i);
            *out.add(i) = src[if left { l } else { r } as usize];
            i += 1;
        }
        dst.set_len(start + n);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn sum_i64(xs: &[i64]) -> i64 {
        let mut acc = _mm256_setzero_si256();
        let n = xs.len();
        let mut i = 0usize;
        while i + 4 <= n {
            let v = _mm256_loadu_si256(xs.as_ptr().add(i) as *const __m256i);
            acc = _mm256_add_epi64(acc, v);
            i += 4;
        }
        let mut lanes = [0i64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
        let mut total = lanes[0]
            .wrapping_add(lanes[1])
            .wrapping_add(lanes[2])
            .wrapping_add(lanes[3]);
        while i < n {
            total = total.wrapping_add(*xs.get_unchecked(i));
            i += 1;
        }
        total
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn min_i64(xs: &[i64]) -> i64 {
        debug_assert!(!xs.is_empty());
        let n = xs.len();
        let mut best = xs[0];
        let mut i = 0usize;
        if n >= 4 {
            let mut acc = _mm256_loadu_si256(xs.as_ptr() as *const __m256i);
            i = 4;
            while i + 4 <= n {
                let v = _mm256_loadu_si256(xs.as_ptr().add(i) as *const __m256i);
                // AVX2 has no min_epi64: keep `v` lanes where acc > v.
                let gt = _mm256_cmpgt_epi64(acc, v);
                acc = _mm256_blendv_epi8(acc, v, gt);
                i += 4;
            }
            let mut lanes = [0i64; 4];
            _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
            best = lanes[0].min(lanes[1]).min(lanes[2]).min(lanes[3]);
        }
        while i < n {
            best = best.min(*xs.get_unchecked(i));
            i += 1;
        }
        best
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn max_i64(xs: &[i64]) -> i64 {
        debug_assert!(!xs.is_empty());
        let n = xs.len();
        let mut best = xs[0];
        let mut i = 0usize;
        if n >= 4 {
            let mut acc = _mm256_loadu_si256(xs.as_ptr() as *const __m256i);
            i = 4;
            while i + 4 <= n {
                let v = _mm256_loadu_si256(xs.as_ptr().add(i) as *const __m256i);
                let gt = _mm256_cmpgt_epi64(v, acc);
                acc = _mm256_blendv_epi8(acc, v, gt);
                i += 4;
            }
            let mut lanes = [0i64; 4];
            _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
            best = lanes[0].max(lanes[1]).max(lanes[2]).max(lanes[3]);
        }
        while i < n {
            best = best.max(*xs.get_unchecked(i));
            i += 1;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<i64> {
        (0..n as i64).map(|i| (i * 37 + 11) % 97 - 48).collect()
    }

    #[test]
    fn select_cmp_matches_scalar_on_all_ops_and_lengths() {
        for n in [0, 1, 3, 4, 5, 8, 63, 64, 65, 1000] {
            let ks = keys(n);
            for op in [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ] {
                for lit in [-49, 0, 7, 48] {
                    let mut want = vec![99u32];
                    select_cmp_scalar(&ks, op, lit, &mut want);
                    let mut got = vec![99u32];
                    select_cmp(&ks, op, lit, &mut got);
                    assert_eq!(got, want, "n={n} op={op:?} lit={lit}");
                }
            }
        }
    }

    #[test]
    fn gathers_match_scalar() {
        let src = keys(257);
        let sel: Vec<u32> = (0..src.len() as u32).rev().step_by(3).collect();
        let mut want = vec![5i64];
        gather_i64_scalar(&src, &sel, &mut want);
        let mut got = vec![5i64];
        gather_i64(&src, &sel, &mut got);
        assert_eq!(got, want);

        let pairs: Vec<(u32, u32)> = (0..101u32).map(|i| (i % 257, (i * 2) % 257)).collect();
        for left in [true, false] {
            let mut want = Vec::new();
            gather_pairs_i64_scalar(&src, &pairs, left, &mut want);
            let mut got = Vec::new();
            gather_pairs_i64(&src, &pairs, left, &mut got);
            assert_eq!(got, want, "left={left}");
        }
    }

    #[test]
    fn u64_gathers_are_bit_exact() {
        let src: Vec<u64> = (0..64u64).map(|i| (i << 32) | (i * 3)).collect();
        let sel: Vec<u32> = vec![63, 0, 7, 7, 31];
        let mut got = Vec::new();
        gather_u64(&src, &sel, &mut got);
        assert_eq!(got, vec![src[63], src[0], src[7], src[7], src[31]]);
        let pairs = [(1u32, 2u32), (5, 9)];
        let mut l = Vec::new();
        gather_pairs_u64(&src, &pairs, true, &mut l);
        assert_eq!(l, vec![src[1], src[5]]);
    }

    #[test]
    fn aggregates_match_scalar() {
        for n in [0, 1, 4, 5, 100] {
            let ks = keys(n);
            assert_eq!(sum_i64(&ks), sum_i64_scalar(&ks), "sum n={n}");
            assert_eq!(min_i64(&ks), min_i64_scalar(&ks), "min n={n}");
            assert_eq!(max_i64(&ks), max_i64_scalar(&ks), "max n={n}");
        }
        // Wrapping behaviour is identical.
        let big = [i64::MAX, 1, i64::MAX, 1];
        assert_eq!(sum_i64(&big), sum_i64_scalar(&big));
    }

    #[test]
    fn dispatch_counter_moves_when_simd_is_on() {
        let before = kernel_dispatches();
        let ks = keys(64);
        let mut out = Vec::new();
        select_cmp(&ks, CmpOp::Gt, 0, &mut out);
        if simd_enabled() {
            assert!(kernel_dispatches() > before);
        } else {
            assert_eq!(kernel_dispatches(), before);
        }
    }
}
