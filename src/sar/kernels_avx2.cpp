// AVX2 backend of the unified kernel API (8 float lanes). This TU is the
// only one compiled with -mavx2, and deliberately WITHOUT -mfma and with
// -ffp-contract=off: fused multiply-adds would change rounding versus the
// scalar reference, breaking the bit-exactness contract
// (kernels_simd_body.hpp). VAvx2 is one 8-lane group; the table runs
// merge_geometry_row on four of them in lock-step (Twice<Twice<VAvx2>>),
// merge_sample_row on two (Twice<VAvx2>) and every other kernel on one.
// On a non-x86-64 target the TU is built without -mavx2, the table is
// null and the dispatcher falls back to scalar; runtime cpu support is
// checked separately in kernels.cpp.
#include "sar/kernels_impl.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include "sar/kernels_simd_body.hpp"

namespace esarp::sar::kernels::detail {

namespace {

/// Four double lanes for the carrier phase (CarrierLanes).
struct DAvx2 {
  using T = __m256d;
  using M = __m256d;

  static T set1(double x) { return _mm256_set1_pd(x); }
  static T add(T a, T b) { return _mm256_add_pd(a, b); }
  static T sub(T a, T b) { return _mm256_sub_pd(a, b); }
  static T mul(T a, T b) { return _mm256_mul_pd(a, b); }
  static T abs(T a) { return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a); }
  static T neg(T a) { return _mm256_xor_pd(a, _mm256_set1_pd(-0.0)); }
  static T trunc(T a) {
    return _mm256_round_pd(a, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  }
  static M cmp_lt(T a, T b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static M cmp_gt(T a, T b) { return _mm256_cmp_pd(a, b, _CMP_GT_OQ); }
  static M cmp_eq(T a, T b) { return _mm256_cmp_pd(a, b, _CMP_EQ_OQ); }
  static M and_(M a, M b) { return _mm256_and_pd(a, b); }
  static M or_(M a, M b) { return _mm256_or_pd(a, b); }
  static T blend(M m, T a, T b) { return _mm256_blendv_pd(b, a, m); }
  /// Float bit equality, sign-extended from 32-bit to 64-bit lane masks.
  static M same_float(T a, T b) {
    const __m128i fa = _mm_castps_si128(_mm256_cvtpd_ps(a));
    const __m128i fb = _mm_castps_si128(_mm256_cvtpd_ps(b));
    const __m128i eq = _mm_cmpeq_epi32(fa, fb);
    return _mm256_castsi256_pd(_mm256_cvtepi32_epi64(eq));
  }
  static unsigned movemask(M m) {
    return static_cast<unsigned>(_mm256_movemask_pd(m));
  }
};

struct VAvx2 {
  static constexpr std::size_t kLanes = 8;
  using F = __m256;
  using I = __m256i;
  using D = DAvx2;

  static F load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, F v) { _mm256_storeu_ps(p, v); }
  static F set1(float x) { return _mm256_set1_ps(x); }
  static F zero() { return _mm256_setzero_ps(); }
  static F add(F a, F b) { return _mm256_add_ps(a, b); }
  static F sub(F a, F b) { return _mm256_sub_ps(a, b); }
  static F mul(F a, F b) { return _mm256_mul_ps(a, b); }
  static F sqrt(F a) { return _mm256_sqrt_ps(a); }
  static F cmp_lt(F a, F b) { return _mm256_cmp_ps(a, b, _CMP_LT_OQ); }
  static F cmp_le(F a, F b) { return _mm256_cmp_ps(a, b, _CMP_LE_OQ); }
  static F cmp_gt(F a, F b) { return _mm256_cmp_ps(a, b, _CMP_GT_OQ); }
  static F cmp_ge(F a, F b) { return _mm256_cmp_ps(a, b, _CMP_GE_OQ); }
  /// Lanes where a is NaN.
  static F is_nan(F a) { return _mm256_cmp_ps(a, a, _CMP_UNORD_Q); }
  static F and_(F a, F b) { return _mm256_and_ps(a, b); }
  static F or_(F a, F b) { return _mm256_or_ps(a, b); }
  /// ~a & b.
  static F andnot(F a, F b) { return _mm256_andnot_ps(a, b); }
  static F all_ones() { return to_f(_mm256_set1_epi32(-1)); }
  static unsigned movemask(F m) {
    return static_cast<unsigned>(_mm256_movemask_ps(m));
  }
  static F blend(F m, F a, F b) { return _mm256_blendv_ps(b, a, m); }
  static F xor_(F a, F b) { return _mm256_xor_ps(a, b); }
  static I to_i(F a) { return _mm256_castps_si256(a); }
  static F to_f(I a) { return _mm256_castsi256_ps(a); }
  static I shr(I a, int count) { return _mm256_srli_epi32(a, count); }
  static I add_i(I a, I b) { return _mm256_add_epi32(a, b); }
  static I sub_i(I a, I b) { return _mm256_sub_epi32(a, b); }
  static I set1_i(std::int32_t x) { return _mm256_set1_epi32(x); }
  static I mul_i(I a, I b) { return _mm256_mullo_epi32(a, b); }
  /// Signed 32-bit compares, as float-typed lane masks.
  static F cmp_gt_i(I a, I b) { return to_f(_mm256_cmpgt_epi32(a, b)); }
  static F cmp_eq_i(I a, I b) { return to_f(_mm256_cmpeq_epi32(a, b)); }
  static F cvt_f(I a) { return _mm256_cvtepi32_ps(a); }
  static I cvt_i(F a) { return _mm256_cvttps_epi32(a); }
  static void store_i(std::int32_t* p, I v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static I iota() { return _mm256_set_epi32(7, 6, 5, 4, 3, 2, 1, 0); }
  /// Float lanes 0-3 / 4-7 widened to double (exact).
  static D::T to_d_lo(F a) {
    return _mm256_cvtps_pd(_mm256_castps256_ps128(a));
  }
  static D::T to_d_hi(F a) {
    return _mm256_cvtps_pd(_mm256_extractf128_ps(a, 1));
  }
  /// Two double vectors rounded to float: lo fills lanes 0-3, hi 4-7.
  static F from_d(D::T lo, D::T hi) {
    return _mm256_set_m128(_mm256_cvtpd_ps(hi), _mm256_cvtpd_ps(lo));
  }

  static void load_cf(const cf32* p, F& re, F& im) {
    const float* f = reinterpret_cast<const float*>(p);
    const F a = _mm256_loadu_ps(f);     // r0 i0 r1 i1 | r2 i2 r3 i3
    const F b = _mm256_loadu_ps(f + 8); // r4 i4 r5 i5 | r6 i6 r7 i7
    // shuffle gathers within 128-bit halves; the cross-lane permute puts
    // the lanes back in element order.
    const I fix = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
    re = _mm256_permutevar8x32_ps(
        _mm256_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0)), fix);
    im = _mm256_permutevar8x32_ps(
        _mm256_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1)), fix);
  }
  static void store_cf(cf32* p, F re, F im) {
    float* f = reinterpret_cast<float*>(p);
    const F lo = _mm256_unpacklo_ps(re, im); // c0 c1 | c4 c5
    const F hi = _mm256_unpackhi_ps(re, im); // c2 c3 | c6 c7
    _mm256_storeu_ps(f, _mm256_permute2f128_ps(lo, hi, 0x20));
    _mm256_storeu_ps(f + 8, _mm256_permute2f128_ps(lo, hi, 0x31));
  }

  /// Eight MergeGeoms split into their four fields (an 8x4 transpose).
  static void load_geom(const MergeGeom* g, F& r1, F& th1, F& r2, F& th2) {
    const float* f = reinterpret_cast<const float*>(g);
    const F a = _mm256_loadu_ps(f);      // g0 | g1
    const F b = _mm256_loadu_ps(f + 8);  // g2 | g3
    const F c = _mm256_loadu_ps(f + 16); // g4 | g5
    const F d = _mm256_loadu_ps(f + 24); // g6 | g7
    const F p0 = _mm256_permute2f128_ps(a, c, 0x20); // g0 | g4
    const F p1 = _mm256_permute2f128_ps(a, c, 0x31); // g1 | g5
    const F p2 = _mm256_permute2f128_ps(b, d, 0x20); // g2 | g6
    const F p3 = _mm256_permute2f128_ps(b, d, 0x31); // g3 | g7
    const F t0 = _mm256_unpacklo_ps(p0, p1); // r1 r1 t1 t1 (g0 g1 | g4 g5)
    const F t1 = _mm256_unpacklo_ps(p2, p3); // (g2 g3 | g6 g7)
    const F t2 = _mm256_unpackhi_ps(p0, p1); // r2 r2 t2 t2 (g0 g1 | g4 g5)
    const F t3 = _mm256_unpackhi_ps(p2, p3);
    r1 = _mm256_shuffle_ps(t0, t1, _MM_SHUFFLE(1, 0, 1, 0));
    th1 = _mm256_shuffle_ps(t0, t1, _MM_SHUFFLE(3, 2, 3, 2));
    r2 = _mm256_shuffle_ps(t2, t3, _MM_SHUFFLE(1, 0, 1, 0));
    th2 = _mm256_shuffle_ps(t2, t3, _MM_SHUFFLE(3, 2, 3, 2));
  }

  /// The inverse of load_geom: four field vectors written as eight
  /// MergeGeoms (unpack, shuffle and permute2f128, then four stores).
  static void store_geom(MergeGeom* g, F r1, F th1, F r2, F th2) {
    float* f = reinterpret_cast<float*>(g);
    const F u0 = _mm256_unpacklo_ps(r1, th1); // r1 t1 r1 t1 (g0 g1 | g4 g5)
    const F u1 = _mm256_unpackhi_ps(r1, th1); // (g2 g3 | g6 g7)
    const F u2 = _mm256_unpacklo_ps(r2, th2); // r2 t2 r2 t2 (g0 g1 | g4 g5)
    const F u3 = _mm256_unpackhi_ps(r2, th2); // (g2 g3 | g6 g7)
    const F q0 = _mm256_shuffle_ps(u0, u2, _MM_SHUFFLE(1, 0, 1, 0)); // g0|g4
    const F q1 = _mm256_shuffle_ps(u0, u2, _MM_SHUFFLE(3, 2, 3, 2)); // g1|g5
    const F q2 = _mm256_shuffle_ps(u1, u3, _MM_SHUFFLE(1, 0, 1, 0)); // g2|g6
    const F q3 = _mm256_shuffle_ps(u1, u3, _MM_SHUFFLE(3, 2, 3, 2)); // g3|g7
    _mm256_storeu_ps(f, _mm256_permute2f128_ps(q0, q1, 0x20));      // g0|g1
    _mm256_storeu_ps(f + 8, _mm256_permute2f128_ps(q2, q3, 0x20));  // g2|g3
    _mm256_storeu_ps(f + 16, _mm256_permute2f128_ps(q0, q1, 0x31)); // g4|g5
    _mm256_storeu_ps(f + 24, _mm256_permute2f128_ps(q2, q3, 0x31)); // g6|g7
  }

  /// p[idx] split into real and imaginary lanes by two masked float
  /// gathers; lanes outside `mask` are zero and read nothing.
  static void gather_cf(const cf32* p, I idx, F mask, F& re, F& im) {
    const float* f = reinterpret_cast<const float*>(p);
    re = _mm256_mask_i32gather_ps(zero(), f, idx, mask, 8);
    im = _mm256_mask_i32gather_ps(zero(), f + 1, idx, mask, 8);
  }

  /// Complex lanes in mask `ma` take a[ia], lanes in `mb` take b[ib] (bit
  /// copies; the masks are disjoint), and the other lanes are zero and
  /// read nothing. lo holds lanes 0-3 as interleaved (re, im) pairs, hi
  /// lanes 4-7.
  static void gather2_cf(const cf32* a, I ia, F ma, const cf32* b, I ib,
                         F mb, F& lo, F& hi) {
    const I z = _mm256_setzero_si256();
    I vlo = z;
    I vhi = z;
    gather_into(vlo, vhi, a, ia, ma);
    gather_into(vlo, vhi, b, ib, mb);
    lo = to_f(vlo);
    hi = to_f(vhi);
  }
  /// The masked 64-bit gathers behind gather2_cf; an empty mask skips
  /// them.
  static void gather_into(I& lo, I& hi, const cf32* base, I idx, F mask) {
    if (movemask(mask) == 0) return;
    const auto* p = reinterpret_cast<const long long*>(base);
    const I m = to_i(mask);
    const I m_lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(m));
    const I m_hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256(m, 1));
    lo = _mm256_mask_i32gather_epi64(lo, p, _mm256_castsi256_si128(idx),
                                     m_lo, 8);
    hi = _mm256_mask_i32gather_epi64(hi, p, _mm256_extracti128_si256(idx, 1),
                                     m_hi, 8);
  }
};

} // namespace

/// Each kernel at its measured lock-step width (docs/performance.md
/// "Kernel backends"). merge_geometry_row's ~130-op chain runs four
/// groups at a time; merge_sample_row's gathers two; gbp_contrib_row
/// stays at one, where two groups ran slower.
const KernelTable* avx2_table() {
  using One = SimdKernels<VAvx2>;
  using Two = SimdKernels<Twice<VAvx2>>;
  using Four = SimdKernels<Twice<Twice<VAvx2>>>;
  static const KernelTable t{Four::merge_geometry_row, Two::merge_sample_row,
                             One::neville4_many,       One::neville4_rows,
                             One::criterion_terms,     One::gbp_contrib_row};
  return &t;
}

} // namespace esarp::sar::kernels::detail

#else // !__AVX2__

namespace esarp::sar::kernels::detail {

const KernelTable* avx2_table() { return nullptr; }

} // namespace esarp::sar::kernels::detail

#endif
