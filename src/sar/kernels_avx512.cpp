// AVX-512 backend of the unified kernel API (16 float lanes, 8 double
// lanes). This TU is the only one compiled with -mavx512f, -mavx512dq,
// -mavx512vl and -mavx512bw, and with -ffp-contract=off: AVX-512F carries
// 512-bit FMA, so the contraction flag is what keeps fused multiply-adds,
// which would change rounding versus the scalar reference, out of the
// object (kernels_simd_body.hpp). V512 is one 16-lane group. Its float
// masks stay vectors, so the kernel bodies serve it unchanged: a compare
// writes a k-mask that vpmovm2d widens, blend is a vpternlogd bit select
// and movemask is vpmovd2m. Its double lanes D512 cover half a float
// group in one vector, with native __mmask8 masks. The table runs
// merge_geometry_row on four groups in lock-step (Twice<Twice<V512>>),
// merge_sample_row on two, and gbp_contrib_row, neville4_many,
// neville4_rows and criterion_terms on one. On a non-x86-64 target the TU
// is built without AVX-512, the table is null and the dispatcher falls
// back; runtime cpu and OS support is checked separately in kernels.cpp.
#include "sar/kernels_impl.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__) && defined(__AVX512BW__)

// GCC 12 warns inside avx512fintrin.h's own inline functions, whose
// _mm512_undefined_* placeholders read as uninitialized once inlined:
// -Wmaybe-uninitialized at -O2 and above, -Wuninitialized at -O1 (GCC
// bug 105593). No value of this trait depends on those placeholders.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

#include <immintrin.h>

#include "sar/kernels_simd_body.hpp"

namespace esarp::sar::kernels::detail {

namespace {

/// Eight double lanes for the carrier phase (CarrierLanes), with k-masks.
struct D512 {
  using T = __m512d;
  using M = __mmask8;

  static T set1(double x) { return _mm512_set1_pd(x); }
  static T add(T a, T b) { return _mm512_add_pd(a, b); }
  static T sub(T a, T b) { return _mm512_sub_pd(a, b); }
  static T mul(T a, T b) { return _mm512_mul_pd(a, b); }
  static T abs(T a) { return _mm512_andnot_pd(_mm512_set1_pd(-0.0), a); }
  static T neg(T a) { return _mm512_xor_pd(a, _mm512_set1_pd(-0.0)); }
  static T trunc(T a) {
    return _mm512_roundscale_pd(a, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  }
  static M cmp_lt(T a, T b) { return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ); }
  static M cmp_gt(T a, T b) { return _mm512_cmp_pd_mask(a, b, _CMP_GT_OQ); }
  static M cmp_eq(T a, T b) { return _mm512_cmp_pd_mask(a, b, _CMP_EQ_OQ); }
  static M and_(M a, M b) { return static_cast<M>(a & b); }
  static M or_(M a, M b) { return static_cast<M>(a | b); }
  static T blend(M m, T a, T b) { return _mm512_mask_blend_pd(m, b, a); }
  /// Float bit equality of the rounded lanes.
  static M same_float(T a, T b) {
    return _mm256_cmpeq_epi32_mask(_mm256_castps_si256(_mm512_cvtpd_ps(a)),
                                   _mm256_castps_si256(_mm512_cvtpd_ps(b)));
  }
  static unsigned movemask(M m) { return m; }
};

struct V512 {
  static constexpr std::size_t kLanes = 16;
  using F = __m512;
  using I = __m512i;
  using D = D512;

  static F load(const float* p) { return _mm512_loadu_ps(p); }
  static void store(float* p, F v) { _mm512_storeu_ps(p, v); }
  static F set1(float x) { return _mm512_set1_ps(x); }
  static F zero() { return _mm512_setzero_ps(); }
  static F add(F a, F b) { return _mm512_add_ps(a, b); }
  static F sub(F a, F b) { return _mm512_sub_ps(a, b); }
  static F mul(F a, F b) { return _mm512_mul_ps(a, b); }
  static F sqrt(F a) { return _mm512_sqrt_ps(a); }
  /// A k-mask widened to a lane mask (vpmovm2d).
  static F widen(__mmask16 k) { return to_f(_mm512_movm_epi32(k)); }
  /// A lane mask narrowed to a k-mask (vpmovd2m).
  static __mmask16 narrow(F m) { return _mm512_movepi32_mask(to_i(m)); }
  static F cmp_lt(F a, F b) {
    return widen(_mm512_cmp_ps_mask(a, b, _CMP_LT_OQ));
  }
  static F cmp_le(F a, F b) {
    return widen(_mm512_cmp_ps_mask(a, b, _CMP_LE_OQ));
  }
  static F cmp_gt(F a, F b) {
    return widen(_mm512_cmp_ps_mask(a, b, _CMP_GT_OQ));
  }
  static F cmp_ge(F a, F b) {
    return widen(_mm512_cmp_ps_mask(a, b, _CMP_GE_OQ));
  }
  /// Lanes where a is NaN.
  static F is_nan(F a) {
    return widen(_mm512_cmp_ps_mask(a, a, _CMP_UNORD_Q));
  }
  static F and_(F a, F b) { return _mm512_and_ps(a, b); }
  static F or_(F a, F b) { return _mm512_or_ps(a, b); }
  /// ~a & b.
  static F andnot(F a, F b) { return _mm512_andnot_ps(a, b); }
  static F all_ones() { return to_f(_mm512_set1_epi32(-1)); }
  static unsigned movemask(F m) { return narrow(m); }
  /// m ? a : b bit by bit (vpternlogd 0xCA); lane masks are all ones or
  /// all zeros, so this selects lanes as AVX2's blendv does.
  static F blend(F m, F a, F b) {
    return to_f(_mm512_ternarylogic_epi32(to_i(m), to_i(a), to_i(b), 0xCA));
  }
  static F xor_(F a, F b) { return _mm512_xor_ps(a, b); }
  static I to_i(F a) { return _mm512_castps_si512(a); }
  static F to_f(I a) { return _mm512_castsi512_ps(a); }
  static I shr(I a, int count) {
    return _mm512_srli_epi32(a, static_cast<unsigned>(count));
  }
  static I add_i(I a, I b) { return _mm512_add_epi32(a, b); }
  static I sub_i(I a, I b) { return _mm512_sub_epi32(a, b); }
  static I set1_i(std::int32_t x) { return _mm512_set1_epi32(x); }
  static I mul_i(I a, I b) { return _mm512_mullo_epi32(a, b); }
  /// Signed 32-bit compares, as float-typed lane masks.
  static F cmp_gt_i(I a, I b) { return widen(_mm512_cmpgt_epi32_mask(a, b)); }
  static F cmp_eq_i(I a, I b) { return widen(_mm512_cmpeq_epi32_mask(a, b)); }
  static F cvt_f(I a) { return _mm512_cvtepi32_ps(a); }
  static I cvt_i(F a) { return _mm512_cvttps_epi32(a); }
  static void store_i(std::int32_t* p, I v) { _mm512_storeu_si512(p, v); }
  static I iota() {
    return _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2,
                            1, 0);
  }
  /// Float lanes 0-7 / 8-15 widened to double (exact).
  static D::T to_d_lo(F a) {
    return _mm512_cvtps_pd(_mm512_castps512_ps256(a));
  }
  static D::T to_d_hi(F a) {
    return _mm512_cvtps_pd(_mm512_extractf32x8_ps(a, 1));
  }
  /// Two double vectors rounded to float: lo fills lanes 0-7, hi 8-15.
  static F from_d(D::T lo, D::T hi) {
    return _mm512_insertf32x8(_mm512_castps256_ps512(_mm512_cvtpd_ps(lo)),
                              _mm512_cvtpd_ps(hi), 1);
  }

  // Two-source permute indices (vpermt2ps): lane l takes element
  // idx[l] of the 32 floats a | b, b's at 16 and up.
  /// Interleave lanes 0-7 of a and b: a0 b0 a1 b1 ... a7 b7.
  static I zip_lo() {
    return _mm512_setr_epi32(0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22,
                             7, 23);
  }
  /// Interleave lanes 8-15 of a and b.
  static I zip_hi() {
    return _mm512_setr_epi32(8, 24, 9, 25, 10, 26, 11, 27, 12, 28, 13, 29, 14,
                             30, 15, 31);
  }

  static void load_cf(const cf32* p, F& re, F& im) {
    const float* f = reinterpret_cast<const float*>(p);
    const F a = _mm512_loadu_ps(f);      // c0 .. c7 as (re, im) pairs
    const F b = _mm512_loadu_ps(f + 16); // c8 .. c15
    const I even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20,
                                     22, 24, 26, 28, 30);
    const I odd = _mm512_setr_epi32(1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23,
                                    25, 27, 29, 31);
    re = _mm512_permutex2var_ps(a, even, b);
    im = _mm512_permutex2var_ps(a, odd, b);
  }
  static void store_cf(cf32* p, F re, F im) {
    float* f = reinterpret_cast<float*>(p);
    _mm512_storeu_ps(f, _mm512_permutex2var_ps(re, zip_lo(), im));
    _mm512_storeu_ps(f + 16, _mm512_permutex2var_ps(re, zip_hi(), im));
  }

  /// Sixteen MergeGeoms split into their four fields (a 16x4 transpose of
  /// eight two-source permutes). Over two loads g_k's field f sits at
  /// 4k + f, so the first stage gathers one field pair of eight geoms per
  /// vector and the second joins the two halves.
  static void load_geom(const MergeGeom* g, F& r1, F& th1, F& r2, F& th2) {
    const float* f = reinterpret_cast<const float*>(g);
    const F a = _mm512_loadu_ps(f);      // g0 .. g3
    const F b = _mm512_loadu_ps(f + 16); // g4 .. g7
    const F c = _mm512_loadu_ps(f + 32); // g8 .. g11
    const F d = _mm512_loadu_ps(f + 48); // g12 .. g15
    // r1 | th1 and r2 | th2 of eight geoms.
    const I lo = _mm512_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28, 1, 5, 9, 13,
                                   17, 21, 25, 29);
    const I hi = _mm512_setr_epi32(2, 6, 10, 14, 18, 22, 26, 30, 3, 7, 11, 15,
                                   19, 23, 27, 31);
    const F ab0 = _mm512_permutex2var_ps(a, lo, b);
    const F ab1 = _mm512_permutex2var_ps(a, hi, b);
    const F cd0 = _mm512_permutex2var_ps(c, lo, d);
    const F cd1 = _mm512_permutex2var_ps(c, hi, d);
    // Lanes 0-7 of both, then lanes 8-15 of both.
    const I first = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 18, 19,
                                      20, 21, 22, 23);
    const I second = _mm512_setr_epi32(8, 9, 10, 11, 12, 13, 14, 15, 24, 25,
                                       26, 27, 28, 29, 30, 31);
    r1 = _mm512_permutex2var_ps(ab0, first, cd0);
    th1 = _mm512_permutex2var_ps(ab0, second, cd0);
    r2 = _mm512_permutex2var_ps(ab1, first, cd1);
    th2 = _mm512_permutex2var_ps(ab1, second, cd1);
  }

  /// The inverse of load_geom: four field vectors written as sixteen
  /// MergeGeoms (eight permutes, then four stores).
  static void store_geom(MergeGeom* g, F r1, F th1, F r2, F th2) {
    float* f = reinterpret_cast<float*>(g);
    const F x0 = _mm512_permutex2var_ps(r1, zip_lo(), th1); // g0 .. g7
    const F x1 = _mm512_permutex2var_ps(r1, zip_hi(), th1); // g8 .. g15
    const F y0 = _mm512_permutex2var_ps(r2, zip_lo(), th2); // g0 .. g7
    const F y1 = _mm512_permutex2var_ps(r2, zip_hi(), th2); // g8 .. g15
    // Geom k of four takes x's pair k, then y's.
    const I jl = _mm512_setr_epi32(0, 1, 16, 17, 2, 3, 18, 19, 4, 5, 20, 21,
                                   6, 7, 22, 23);
    const I jh = _mm512_setr_epi32(8, 9, 24, 25, 10, 11, 26, 27, 12, 13, 28,
                                   29, 14, 15, 30, 31);
    _mm512_storeu_ps(f, _mm512_permutex2var_ps(x0, jl, y0));      // g0-3
    _mm512_storeu_ps(f + 16, _mm512_permutex2var_ps(x0, jh, y0)); // g4-7
    _mm512_storeu_ps(f + 32, _mm512_permutex2var_ps(x1, jl, y1)); // g8-11
    _mm512_storeu_ps(f + 48, _mm512_permutex2var_ps(x1, jh, y1)); // g12-15
  }

  /// p[idx] split into real and imaginary lanes by two masked float
  /// gathers; lanes outside `mask` are zero and read nothing.
  static void gather_cf(const cf32* p, I idx, F mask, F& re, F& im) {
    const float* f = reinterpret_cast<const float*>(p);
    const __mmask16 k = narrow(mask);
    re = _mm512_mask_i32gather_ps(zero(), k, idx, f, 8);
    im = _mm512_mask_i32gather_ps(zero(), k, idx, f + 1, 8);
  }

  /// Complex lanes in mask `ma` take a[ia], lanes in `mb` take b[ib] (bit
  /// copies; the masks are disjoint), and the other lanes are zero and
  /// read nothing. lo holds lanes 0-7 as interleaved (re, im) pairs, hi
  /// lanes 8-15.
  static void gather2_cf(const cf32* a, I ia, F ma, const cf32* b, I ib,
                         F mb, F& lo, F& hi) {
    const I z = _mm512_setzero_si512();
    I vlo = z;
    I vhi = z;
    gather_into(vlo, vhi, a, ia, ma);
    gather_into(vlo, vhi, b, ib, mb);
    lo = to_f(vlo);
    hi = to_f(vhi);
  }
  /// The masked 64-bit gathers behind gather2_cf, one per 8-lane half;
  /// an empty mask skips them.
  static void gather_into(I& lo, I& hi, const cf32* base, I idx, F mask) {
    const __mmask16 k = narrow(mask);
    if (k == 0) return;
    const auto* p = reinterpret_cast<const long long*>(base);
    lo = _mm512_mask_i32gather_epi64(lo, static_cast<__mmask8>(k),
                                     _mm512_castsi512_si256(idx), p, 8);
    hi = _mm512_mask_i32gather_epi64(hi, static_cast<__mmask8>(k >> 8),
                                     _mm512_extracti64x4_epi64(idx, 1), p, 8);
  }
};

} // namespace

/// Each kernel at its measured width (docs/performance.md "Kernel
/// backends"): merge_geometry_row four 16-lane groups, merge_sample_row
/// two, the rest one. The Neville and criterion kernels read faster at 16
/// lanes than at AVX2's widths on micro_kernels, and autofocus_mpmd, the
/// workload that runs them, was no slower with them in interleaved pairs
/// (docs/performance.md "In-place SDRAM rows: before / after").
const KernelTable* avx512_table() {
  using One = SimdKernels<V512>;
  using Two = SimdKernels<Twice<V512>>;
  using Four = SimdKernels<Twice<Twice<V512>>>;
  static const KernelTable t{Four::merge_geometry_row, Two::merge_sample_row,
                             One::neville4_many,       One::neville4_rows,
                             One::criterion_terms,     One::gbp_contrib_row};
  return &t;
}

} // namespace esarp::sar::kernels::detail

#pragma GCC diagnostic pop

#else // no AVX-512

namespace esarp::sar::kernels::detail {

const KernelTable* avx512_table() { return nullptr; }

} // namespace esarp::sar::kernels::detail

#endif
