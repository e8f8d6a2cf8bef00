// SSE2 backend of the unified kernel API (4 float lanes). SSE2 is the
// x86-64 baseline, so this TU needs no extra arch flags; on non-x86
// targets the trait is absent and the table is null (scalar fallback).
// Built with -ffp-contract=off — see kernels_simd_body.hpp for the
// bit-exactness contract.
#include "sar/kernels_impl.hpp"

#if defined(__SSE2__)

#include <emmintrin.h>

#include "sar/kernels_simd_body.hpp"

namespace esarp::sar::kernels::detail {

namespace {

/// Two double lanes for the carrier phase (CarrierLanes). SSE2 has no
/// blendv and no round-to-integer, so blends are and/andnot/or and trunc
/// goes through cvttpd_epi32 (exact for the |x| < 2^27 it is used on).
struct DSse2 {
  using T = __m128d;
  using M = __m128d;

  static T set1(double x) { return _mm_set1_pd(x); }
  static T add(T a, T b) { return _mm_add_pd(a, b); }
  static T sub(T a, T b) { return _mm_sub_pd(a, b); }
  static T mul(T a, T b) { return _mm_mul_pd(a, b); }
  static T abs(T a) { return _mm_andnot_pd(_mm_set1_pd(-0.0), a); }
  static T neg(T a) { return _mm_xor_pd(a, _mm_set1_pd(-0.0)); }
  static T trunc(T a) { return _mm_cvtepi32_pd(_mm_cvttpd_epi32(a)); }
  static M cmp_lt(T a, T b) { return _mm_cmplt_pd(a, b); }
  static M cmp_gt(T a, T b) { return _mm_cmpgt_pd(a, b); }
  static M cmp_eq(T a, T b) { return _mm_cmpeq_pd(a, b); }
  static M and_(M a, M b) { return _mm_and_pd(a, b); }
  static M or_(M a, M b) { return _mm_or_pd(a, b); }
  static T blend(M m, T a, T b) {
    return _mm_or_pd(_mm_and_pd(m, a), _mm_andnot_pd(m, b));
  }
  /// Float bit equality, widened from 32-bit to 64-bit lane masks.
  static M same_float(T a, T b) {
    const __m128i fa = _mm_castps_si128(_mm_cvtpd_ps(a));
    const __m128i fb = _mm_castps_si128(_mm_cvtpd_ps(b));
    const __m128i eq = _mm_cmpeq_epi32(fa, fb);
    return _mm_castsi128_pd(_mm_unpacklo_epi32(eq, eq));
  }
  static unsigned movemask(M m) {
    return static_cast<unsigned>(_mm_movemask_pd(m));
  }
  /// Round both lanes to float and store them to p[0..1].
  static void store_f(float* p, T a) {
    _mm_storel_pi(reinterpret_cast<__m64*>(p), _mm_cvtpd_ps(a));
  }
};

struct VSse2 {
  static constexpr std::size_t kLanes = 4;
  using F = __m128;
  using I = __m128i;
  using D = DSse2;

  static F load(const float* p) { return _mm_loadu_ps(p); }
  static void store(float* p, F v) { _mm_storeu_ps(p, v); }
  static F set1(float x) { return _mm_set1_ps(x); }
  static F zero() { return _mm_setzero_ps(); }
  static F add(F a, F b) { return _mm_add_ps(a, b); }
  static F sub(F a, F b) { return _mm_sub_ps(a, b); }
  static F mul(F a, F b) { return _mm_mul_ps(a, b); }
  static F sqrt(F a) { return _mm_sqrt_ps(a); }
  static F cmp_lt(F a, F b) { return _mm_cmplt_ps(a, b); }
  static F cmp_le(F a, F b) { return _mm_cmple_ps(a, b); }
  static F cmp_gt(F a, F b) { return _mm_cmpgt_ps(a, b); }
  static F cmp_ge(F a, F b) { return _mm_cmpge_ps(a, b); }
  static F and_(F a, F b) { return _mm_and_ps(a, b); }
  static F or_(F a, F b) { return _mm_or_ps(a, b); }
  /// ~a & b.
  static F andnot(F a, F b) { return _mm_andnot_ps(a, b); }
  static F all_ones() { return to_f(_mm_set1_epi32(-1)); }
  static unsigned movemask(F m) {
    return static_cast<unsigned>(_mm_movemask_ps(m));
  }
  static F blend(F m, F a, F b) {
    return _mm_or_ps(_mm_and_ps(m, a), _mm_andnot_ps(m, b));
  }
  static F xor_(F a, F b) { return _mm_xor_ps(a, b); }
  static I to_i(F a) { return _mm_castps_si128(a); }
  static F to_f(I a) { return _mm_castsi128_ps(a); }
  static I shr(I a, int count) { return _mm_srli_epi32(a, count); }
  static I add_i(I a, I b) { return _mm_add_epi32(a, b); }
  static I sub_i(I a, I b) { return _mm_sub_epi32(a, b); }
  static I set1_i(std::int32_t x) { return _mm_set1_epi32(x); }
  /// Low 32 bits of the lane products (SSE2 has no pmulld: multiply the
  /// even and odd lanes as 64-bit products and interleave their low
  /// halves).
  static I mul_i(I a, I b) {
    const I even = _mm_mul_epu32(a, b);
    const I odd = _mm_mul_epu32(_mm_srli_epi64(a, 32), _mm_srli_epi64(b, 32));
    return _mm_unpacklo_epi32(_mm_shuffle_epi32(even, _MM_SHUFFLE(0, 0, 2, 0)),
                              _mm_shuffle_epi32(odd, _MM_SHUFFLE(0, 0, 2, 0)));
  }
  /// Signed 32-bit compares, as float-typed lane masks.
  static F cmp_gt_i(I a, I b) { return to_f(_mm_cmpgt_epi32(a, b)); }
  static F cmp_eq_i(I a, I b) { return to_f(_mm_cmpeq_epi32(a, b)); }
  static F cvt_f(I a) { return _mm_cvtepi32_ps(a); }
  static I cvt_i(F a) { return _mm_cvttps_epi32(a); }
  static void store_i(std::int32_t* p, I v) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
  static I iota() { return _mm_set_epi32(3, 2, 1, 0); }
  /// Float lanes 0-1 / 2-3 widened to double (exact).
  static D::T to_d_lo(F a) { return _mm_cvtps_pd(a); }
  static D::T to_d_hi(F a) { return _mm_cvtps_pd(_mm_movehl_ps(a, a)); }

  static void load_cf(const cf32* p, F& re, F& im) {
    const float* f = reinterpret_cast<const float*>(p);
    const F a = _mm_loadu_ps(f);     // r0 i0 r1 i1
    const F b = _mm_loadu_ps(f + 4); // r2 i2 r3 i3
    re = _mm_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0));
    im = _mm_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1));
  }
  static void store_cf(cf32* p, F re, F im) {
    float* f = reinterpret_cast<float*>(p);
    _mm_storeu_ps(f, _mm_unpacklo_ps(re, im));
    _mm_storeu_ps(f + 4, _mm_unpackhi_ps(re, im));
  }

  /// Four MergeGeoms split into their four fields (a 4x4 transpose).
  static void load_geom(const MergeGeom* g, F& r1, F& th1, F& r2, F& th2) {
    const float* f = reinterpret_cast<const float*>(g);
    r1 = _mm_loadu_ps(f);
    th1 = _mm_loadu_ps(f + 4);
    r2 = _mm_loadu_ps(f + 8);
    th2 = _mm_loadu_ps(f + 12);
    _MM_TRANSPOSE4_PS(r1, th1, r2, th2);
  }

  /// Complex lanes in mask `ma` take a[ia], lanes in `mb` take b[ib] (bit
  /// copies; the masks are disjoint), and the other lanes are zero and
  /// read nothing. lo holds lanes 0-1 as interleaved (re, im) pairs, hi
  /// lanes 2-3. SSE2 has no gather: each lane picks its address without
  /// a branch and loads its 64 bits.
  static void gather2_cf(const cf32* a, I ia, F ma, const cf32* b, I ib,
                         F mb, F& lo, F& hi) {
    static const cf32 kZero{};
    std::int32_t ja[kLanes];
    std::int32_t jb[kLanes];
    store_i(ja, ia);
    store_i(jb, ib);
    const unsigned sa = movemask(ma);
    const unsigned sb = movemask(mb);
    const auto lane = [&](unsigned l) {
      const cf32* p = (sb >> l & 1u) != 0 ? b + jb[l] : &kZero;
      return reinterpret_cast<const __m64*>((sa >> l & 1u) != 0 ? a + ja[l]
                                                                : p);
    };
    lo = _mm_loadh_pi(_mm_loadl_pi(zero(), lane(0)), lane(1));
    hi = _mm_loadh_pi(_mm_loadl_pi(zero(), lane(2)), lane(3));
  }
};

} // namespace

const KernelTable* sse2_table() { return SimdKernels<VSse2>::table(); }

} // namespace esarp::sar::kernels::detail

#else // !__SSE2__

namespace esarp::sar::kernels::detail {

const KernelTable* sse2_table() { return nullptr; }

} // namespace esarp::sar::kernels::detail

#endif
