// Width-generic SIMD implementation of the unified kernel API, written
// against a vector-trait struct V. Each SIMD backend translation unit
// defines V with its intrinsics — kernels_avx2.cpp 8 float lanes,
// kernels_avx512.cpp 16 — instantiates SimdKernels<V> and builds its
// KernelTable; the trait lives in an anonymous namespace, so the
// instantiation stays TU-local (no ODR interaction with the object files
// built for other instruction sets).
//
// LOCK-STEP WIDTHS: Twice<V> is a trait whose value is two V registers,
// every operation applied to both, so SimdKernels<Twice<V>> advances two
// independent lane groups per step and SimdKernels<Twice<Twice<V>>> four,
// with the kernel bodies unchanged. A long dependency chain then runs at
// the ports' throughput instead of its own latency: the groups' chains
// overlap in the out-of-order window. Each backend's table fixes each
// kernel's width by measurement (docs/performance.md "Kernel backends").
// The remainder of a wide loop runs through the next narrower loop and
// then the scalar reference, so a row leaves fewer than one group's
// lanes (at most 7 samples for AVX2, 15 for AVX-512) to scalar code.
//
// BIT-EXACTNESS CONTRACT: every function here replicates its scalar
// reference (sar/interp.hpp, sar/merge_kernel.hpp, common/fastmath.hpp,
// sar/gbp.hpp) operation for operation — the same association (a*b*c is
// (a*b)*c exactly where the scalar source writes it that way), ternaries
// as mask blends evaluating both arms, the rsqrt bit trick on integer
// lanes, truncating float->int conversion, and no FMA contraction (all
// kernel TUs build with -ffp-contract=off, the only guard in the AVX-512
// TU, whose instruction set includes FMA). IEEE sqrtps matches
// std::sqrt(float) exactly, so the GBP range vectorizes; the
// double-precision carrier phase runs sar/carrier.hpp's CarrierLanes
// template on the trait's double lanes (V::D, two vectors per float
// vector, each holding half its lanes), the same template
// the scalar reference instantiates on plain doubles, and only lanes that
// fail its rounding certificate call libm. The GBP complex multiply and
// accumulate run in lanes as GCC expands the scalar cf32 product; a lane
// whose product is NaN in both parts is redone by that scalar product,
// which then calls __mulsc3. Changing any expression here requires
// re-running the cross-backend tests in tests/test_kernels.cpp and
// tests/test_carrier.cpp.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "common/assert.hpp"
#include "sar/carrier.hpp"
#include "sar/kernels_impl.hpp"

// The scalar kernels handle the last samples after the narrowest loop.
#include "sar/interp.hpp"

namespace esarp::sar::kernels::detail {

/// Two independent V lane groups in lock-step. A value holds the first
/// group in `a` and the second in `b`; masks and movemask concatenate,
/// the second group's lanes above the first's, and memory operations
/// cover the second group at +V::kLanes. It carries exactly the
/// operations the lock-step kernels (merge_geometry_row,
/// merge_sample_row) use. movemask fits the unsigned it returns up to 32
/// lanes, so a 64-lane trait serves merge_geometry_row only, which takes
/// no mask.
template <class V>
struct Twice {
  /// One group: the width that finishes a lock-step loop's remainder.
  using Half = V;
  static constexpr std::size_t kLanes = 2 * V::kLanes;
  struct F {
    typename V::F a, b;
  };
  struct I {
    typename V::I a, b;
  };

  static void store(float* p, F v) {
    V::store(p, v.a);
    V::store(p + V::kLanes, v.b);
  }
  static F set1(float x) { return {V::set1(x), V::set1(x)}; }
  static F zero() { return {V::zero(), V::zero()}; }
  static F add(F x, F y) { return {V::add(x.a, y.a), V::add(x.b, y.b)}; }
  static F sub(F x, F y) { return {V::sub(x.a, y.a), V::sub(x.b, y.b)}; }
  static F mul(F x, F y) { return {V::mul(x.a, y.a), V::mul(x.b, y.b)}; }
  static F cmp_lt(F x, F y) {
    return {V::cmp_lt(x.a, y.a), V::cmp_lt(x.b, y.b)};
  }
  static F cmp_le(F x, F y) {
    return {V::cmp_le(x.a, y.a), V::cmp_le(x.b, y.b)};
  }
  static F cmp_gt(F x, F y) {
    return {V::cmp_gt(x.a, y.a), V::cmp_gt(x.b, y.b)};
  }
  static F and_(F x, F y) { return {V::and_(x.a, y.a), V::and_(x.b, y.b)}; }
  static F or_(F x, F y) { return {V::or_(x.a, y.a), V::or_(x.b, y.b)}; }
  static F andnot(F x, F y) {
    return {V::andnot(x.a, y.a), V::andnot(x.b, y.b)};
  }
  static F all_ones() { return {V::all_ones(), V::all_ones()}; }
  static unsigned movemask(F m) {
    static_assert(kLanes <= 32, "a lane mask wider than unsigned");
    return V::movemask(m.a) | V::movemask(m.b) << V::kLanes;
  }
  static F blend(F m, F x, F y) {
    return {V::blend(m.a, x.a, y.a), V::blend(m.b, x.b, y.b)};
  }
  static F xor_(F x, F y) { return {V::xor_(x.a, y.a), V::xor_(x.b, y.b)}; }
  static I to_i(F x) { return {V::to_i(x.a), V::to_i(x.b)}; }
  static F to_f(I x) { return {V::to_f(x.a), V::to_f(x.b)}; }
  static I shr(I x, int count) {
    return {V::shr(x.a, count), V::shr(x.b, count)};
  }
  static I add_i(I x, I y) {
    return {V::add_i(x.a, y.a), V::add_i(x.b, y.b)};
  }
  static I sub_i(I x, I y) {
    return {V::sub_i(x.a, y.a), V::sub_i(x.b, y.b)};
  }
  static I set1_i(std::int32_t x) { return {V::set1_i(x), V::set1_i(x)}; }
  static I mul_i(I x, I y) {
    return {V::mul_i(x.a, y.a), V::mul_i(x.b, y.b)};
  }
  static F cmp_gt_i(I x, I y) {
    return {V::cmp_gt_i(x.a, y.a), V::cmp_gt_i(x.b, y.b)};
  }
  static F cmp_eq_i(I x, I y) {
    return {V::cmp_eq_i(x.a, y.a), V::cmp_eq_i(x.b, y.b)};
  }
  static F cvt_f(I x) { return {V::cvt_f(x.a), V::cvt_f(x.b)}; }
  static I cvt_i(F x) { return {V::cvt_i(x.a), V::cvt_i(x.b)}; }
  static I iota() {
    const auto i = V::iota();
    return {i, V::add_i(i, V::set1_i(static_cast<std::int32_t>(V::kLanes)))};
  }
  static void load_geom(const MergeGeom* g, F& r1, F& th1, F& r2, F& th2) {
    V::load_geom(g, r1.a, th1.a, r2.a, th2.a);
    V::load_geom(g + V::kLanes, r1.b, th1.b, r2.b, th2.b);
  }
  static void store_geom(MergeGeom* g, F r1, F th1, F r2, F th2) {
    V::store_geom(g, r1.a, th1.a, r2.a, th2.a);
    V::store_geom(g + V::kLanes, r1.b, th1.b, r2.b, th2.b);
  }
  /// lo holds the first group's complex lanes as interleaved pairs (V's
  /// lo then hi), hi the second group's.
  static void gather2_cf(const cf32* x, I ix, F mx, const cf32* y, I iy,
                         F my, F& lo, F& hi) {
    V::gather2_cf(x, ix.a, mx.a, y, iy.a, my.a, lo.a, lo.b);
    V::gather2_cf(x, ix.b, mx.b, y, iy.b, my.b, hi.a, hi.b);
  }
};

template <class V>
struct SimdKernels {
  using F = typename V::F;
  using I = typename V::I;
  static constexpr std::size_t kLanes = V::kLanes;

  /// True for a lock-step trait Twice<H>: its loop remainders run on
  /// SimdKernels<H>. A one-group trait finishes in the scalar reference.
  static constexpr bool kLockStep = requires { typename V::Half; };
  /// The kernels one lock-step width down; named only where kLockStep.
  template <class W = V>
  using Narrower = SimdKernels<typename W::Half>;

  /// -x as the sign-bit flip (exactly what scalar unary minus does).
  static F neg(F x) { return V::xor_(x, V::set1(-0.0f)); }

  /// fastmath::fast_rsqrt, lane-exact: y = y * (1.5f - ((xhalf*y)*y)).
  static F fast_rsqrt(F x) {
    const F xhalf = V::mul(V::set1(0.5f), x);
    I bits = V::to_i(x);
    bits = V::sub_i(V::set1_i(0x5f375a86), V::shr(bits, 1));
    F y = V::to_f(bits);
    y = V::mul(y, V::sub(V::set1(1.5f), V::mul(V::mul(xhalf, y), y)));
    y = V::mul(y, V::sub(V::set1(1.5f), V::mul(V::mul(xhalf, y), y)));
    return y;
  }

  /// fastmath::fast_sqrt: the x <= 0 early-out becomes a blend; the
  /// discarded arm's garbage lanes are masked away exactly like the
  /// scalar branch never computes them.
  static F fast_sqrt(F x) {
    const F le0 = V::cmp_le(x, V::zero());
    const F r = V::mul(x, fast_rsqrt(x));
    return V::blend(le0, V::zero(), r);
  }

  /// fastmath::fast_recip_pos.
  static F fast_recip_pos(F x) {
    const F r = fast_rsqrt(x);
    return V::mul(r, r);
  }

  /// fastmath::poly_cos with the two ternaries and the flip as blends.
  static F poly_cos(F x) {
    const F half_pi = V::set1(1.57079632679490f);
    const F pi = V::set1(3.14159265358979f);
    const F a0 = V::blend(V::cmp_lt(x, V::zero()), neg(x), x);
    const F flip = V::cmp_gt(a0, half_pi);
    const F a = V::blend(flip, V::sub(pi, a0), a0);
    const F u = V::mul(a, a);
    F c = V::set1(-1.0f / 3628800.0f);
    c = V::add(V::set1(1.0f / 40320.0f), V::mul(u, c));
    c = V::add(V::set1(-1.0f / 720.0f), V::mul(u, c));
    c = V::add(V::set1(1.0f / 24.0f), V::mul(u, c));
    c = V::add(V::set1(-1.0f / 2.0f), V::mul(u, c));
    c = V::add(V::set1(1.0f), V::mul(u, c));
    return V::blend(flip, neg(c), c);
  }

  /// fastmath::poly_acos (A&S 4.4.45 form, mirrored for x < 0).
  static F poly_acos(F x) {
    const F is_neg = V::cmp_lt(x, V::zero());
    const F ax = V::blend(is_neg, neg(x), x);
    F poly = V::set1(-0.0187293f);
    poly = V::add(V::set1(0.0742610f), V::mul(ax, poly));
    poly = V::add(V::set1(-0.2121144f), V::mul(ax, poly));
    poly = V::add(V::set1(1.5707288f), V::mul(ax, poly));
    const F r = V::mul(fast_sqrt(V::sub(V::set1(1.0f), ax)), poly);
    const F pi = V::set1(3.14159265358979f);
    return V::blend(is_neg, V::sub(pi, r), r);
  }

  /// sar::merge_geometry (paper eqs. 1-4) for a lane of ranges. The
  /// nested clamp ternary c = a > 1 ? 1 : (a < -1 ? -1 : a) becomes
  /// inner-then-outer blends with identical selection semantics.
  static void merge_geometry_lanes(F r, F cr, F d2, F inv_2d, F& r1, F& th1,
                                   F& r2, F& th2) {
    const F r2v = V::mul(r, r);
    const F base = V::add(r2v, d2);
    const F rcr = V::mul(r, cr);
    const F r1sq = V::add(base, rcr);
    const F r2sq = V::sub(base, rcr);
    r1 = fast_sqrt(r1sq);
    r2 = fast_sqrt(r2sq);
    const F n1 = V::sub(V::add(r1sq, d2), r2v);
    const F n2 = V::sub(V::add(r2sq, d2), r2v);
    const F one = V::set1(1.0f);
    const F i1 = fast_recip_pos(V::blend(V::cmp_gt(r1, V::zero()), r1, one));
    const F i2 = fast_recip_pos(V::blend(V::cmp_gt(r2, V::zero()), r2, one));
    const F a1 = V::mul(V::mul(n1, i1), inv_2d);
    const F a2 = V::mul(V::mul(n2, i2), inv_2d);
    const F neg_one = V::set1(-1.0f);
    const F c1 = V::blend(V::cmp_gt(a1, one), one,
                          V::blend(V::cmp_lt(a1, neg_one), neg_one, a1));
    const F c2 = V::blend(V::cmp_gt(a2, one), one,
                          V::blend(V::cmp_lt(a2, neg_one), neg_one, a2));
    const F pi = V::set1(3.14159265358979f);
    th1 = poly_acos(c1);
    th2 = V::sub(pi, poly_acos(c2));
  }

  static void merge_geometry_row(float r0, float dr, std::size_t j0,
                                 std::size_t n, float cr, float d2,
                                 float inv_2d, MergeGeom* out) {
    const F vr0 = V::set1(r0);
    const F vdr = V::set1(dr);
    const F vcr = V::set1(cr);
    const F vd2 = V::set1(d2);
    const F vinv = V::set1(inv_2d);
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
      const I j =
          V::add_i(V::set1_i(static_cast<std::int32_t>(j0 + i)), V::iota());
      const F r = V::add(vr0, V::mul(V::cvt_f(j), vdr));
      F r1, th1, r2, th2;
      merge_geometry_lanes(r, vcr, vd2, vinv, r1, th1, r2, th2);
      V::store_geom(out + i, r1, th1, r2, th2);
    }
    if constexpr (kLockStep) {
      Narrower<>::merge_geometry_row(r0, dr, j0 + i, n - i, cr, d2, inv_2d,
                                     out + i);
    } else {
      for (; i < n; ++i) {
        const float r = r0 + static_cast<float>(j0 + i) * dr;
        out[i] = merge_geometry(r, cr, d2, inv_2d);
      }
    }
  }

  /// sample_child's kNearest arm without phase compensation, for one
  /// child over a lane group, with fetch_child's staged-row hit test: the
  /// containing angular bin and the nearest range bin, their bounds, and
  /// the gather from the staged row or the child image. lo/hi receive the
  /// samples as interleaved complex pairs (lanes [0, kLanes/2) and the
  /// rest), zero where the lane is out of range; the lane misses are
  /// added to `misses`.
  static void nearest_child(const ChildGrid& g, F rc, F thc,
                            const ChildSource& s, F& lo, F& hi,
                            std::uint64_t& misses) {
    const F tf =
        V::mul(V::sub(thc, V::set1(g.theta_start)), V::set1(g.inv_dtheta));
    const I it = V::cvt_i(tf);
    const F rf = V::mul(V::sub(rc, V::set1(g.r0)), V::set1(g.inv_dr));
    const I ir = V::cvt_i(V::add(rf, V::set1(0.5f)));
    const I zero_i = V::set1_i(0);
    const I last_t = V::set1_i(g.n_theta - 1);
    const I last_r = V::set1_i(g.n_range - 1);
    // tf < 0 || it >= n_theta || rf < -0.5 || ir < 0 || ir >= n_range,
    // with each integer >= written as > (bound - 1).
    const F off = V::or_(
        V::or_(V::cmp_lt(tf, V::zero()), V::cmp_gt_i(it, last_t)),
        V::or_(V::or_(V::cmp_lt(rf, V::set1(-0.5f)), V::cmp_gt_i(zero_i, ir)),
               V::cmp_gt_i(ir, last_r)));
    const F valid = V::andnot(off, V::all_ones());
    const F staged = V::cmp_eq_i(it, V::set1_i(s.staged_row));
    const F hit = V::and_(valid, staged);
    const F miss = V::andnot(staged, valid);
    // fetch_child's bounds check on every miss lane: a NaN angle passes
    // the sector test with bin INT_MIN and must not reach the gather.
    const F outside =
        V::or_(V::or_(V::cmp_gt_i(zero_i, it), V::cmp_gt_i(it, last_t)),
               V::or_(V::cmp_gt_i(zero_i, ir), V::cmp_gt_i(ir, last_r)));
    ESARP_EXPECTS(V::movemask(V::and_(miss, outside)) == 0);
    const I at = V::add_i(V::mul_i(it, V::set1_i(g.n_range)), ir);
    V::gather2_cf(s.staged, ir, hit, s.image, at, miss, lo, hi);
    misses += static_cast<std::uint64_t>(std::popcount(V::movemask(miss)));
  }

  static std::uint64_t merge_sample_row(const ChildGrid& g, Interp interp,
                                        bool phase_compensate,
                                        const MergeGeom* geom, float shift1,
                                        float shift2, ChildSource c1,
                                        ChildSource c2, cf32* out,
                                        std::size_t n) {
    std::uint64_t misses = 0;
    std::size_t i = 0;
    if (interp == Interp::kNearest && !phase_compensate) {
      const F vshift1 = V::set1(shift1);
      const F vshift2 = V::set1(shift2);
      for (; i + kLanes <= n; i += kLanes) {
        F r1, th1, r2, th2;
        V::load_geom(geom + i, r1, th1, r2, th2);
        F lo1, hi1, lo2, hi2;
        nearest_child(g, V::add(r1, vshift1), th1, c1, lo1, hi1, misses);
        nearest_child(g, V::add(r2, vshift2), th2, c2, lo2, hi2, misses);
        // Eq. 5 on interleaved (re, im) pairs: componentwise, like the
        // complex sum.
        float* o = reinterpret_cast<float*>(out + i);
        V::store(o, V::add(lo1, lo2));
        V::store(o + kLanes, V::add(hi1, hi2));
      }
    }
    if constexpr (kLockStep) {
      misses += Narrower<>::merge_sample_row(g, interp, phase_compensate,
                                             geom + i, shift1, shift2, c1,
                                             c2, out + i, n - i);
    } else {
      for (; i < n; ++i)
        out[i] = merge_sample(g, interp, phase_compensate, geom[i], shift1,
                              shift2, c1, c2, misses);
    }
    return misses;
  }

  /// One component pair of a Neville recurrence step:
  /// out = (a * tx - b * ty) * scale, matching the scalar complex
  /// arithmetic componentwise (complex * float scales both components).
  static void neville_step(F are, F aim, F bre, F bim, F tx, F ty, F scale,
                           F& ore, F& oim) {
    ore = V::mul(V::sub(V::mul(are, tx), V::mul(bre, ty)), scale);
    oim = V::mul(V::sub(V::mul(aim, tx), V::mul(bim, ty)), scale);
  }

  /// sar::neville4 on component lanes (nodes y0..y3, positions t).
  static void neville4_lanes(F y0re, F y0im, F y1re, F y1im, F y2re, F y2im,
                             F y3re, F y3im, F t, F& ore, F& oim) {
    const F t0 = t;
    const F t1 = V::sub(t, V::set1(1.0f));
    const F t2 = V::sub(t, V::set1(2.0f));
    const F t3 = V::sub(t, V::set1(3.0f));
    const F m1 = V::set1(-1.0f);
    const F mh = V::set1(-0.5f);
    const F mthird = V::set1(-1.0f / 3.0f);
    F p0re, p0im, p1re, p1im, p2re, p2im;
    neville_step(y0re, y0im, y1re, y1im, t1, t0, m1, p0re, p0im);
    neville_step(y1re, y1im, y2re, y2im, t2, t1, m1, p1re, p1im);
    neville_step(y2re, y2im, y3re, y3im, t3, t2, m1, p2re, p2im);
    neville_step(p0re, p0im, p1re, p1im, t2, t0, mh, p0re, p0im);
    neville_step(p1re, p1im, p2re, p2im, t3, t1, mh, p1re, p1im);
    neville_step(p0re, p0im, p1re, p1im, t3, t0, mthird, ore, oim);
  }

  static void neville4_many(const cf32* y, const float* t, cf32* out,
                            std::size_t n) {
    const F y0re = V::set1(y[0].real());
    const F y0im = V::set1(y[0].imag());
    const F y1re = V::set1(y[1].real());
    const F y1im = V::set1(y[1].imag());
    const F y2re = V::set1(y[2].real());
    const F y2im = V::set1(y[2].imag());
    const F y3re = V::set1(y[3].real());
    const F y3im = V::set1(y[3].imag());
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
      F ore, oim;
      neville4_lanes(y0re, y0im, y1re, y1im, y2re, y2im, y3re, y3im,
                     V::load(t + i), ore, oim);
      V::store_cf(out + i, ore, oim);
    }
    for (; i < n; ++i) out[i] = neville4(y, t[i]);
  }

  static void neville4_rows(const cf32* row0, const cf32* row1,
                            const cf32* row2, const cf32* row3,
                            const float* t, cf32* out, std::size_t n) {
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
      F y0re, y0im, y1re, y1im, y2re, y2im, y3re, y3im;
      V::load_cf(row0 + i, y0re, y0im);
      V::load_cf(row1 + i, y1re, y1im);
      V::load_cf(row2 + i, y2re, y2im);
      V::load_cf(row3 + i, y3re, y3im);
      F ore, oim;
      neville4_lanes(y0re, y0im, y1re, y1im, y2re, y2im, y3re, y3im,
                     V::load(t + i), ore, oim);
      V::store_cf(out + i, ore, oim);
    }
    for (; i < n; ++i) {
      const cf32 y[4] = {row0[i], row1[i], row2[i], row3[i]};
      out[i] = neville4(y, t[i]);
    }
  }

  static void criterion_terms(const cf32* minus, const cf32* plus,
                              float* out, std::size_t n) {
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
      F mre, mim, pre, pim;
      V::load_cf(minus + i, mre, mim);
      V::load_cf(plus + i, pre, pim);
      const F mm = V::add(V::mul(mre, mre), V::mul(mim, mim));
      const F mp = V::add(V::mul(pre, pre), V::mul(pim, pim));
      V::store(out + i, V::mul(mm, mp));
    }
    for (; i < n; ++i) out[i] = criterion_term(minus[i], plus[i]);
  }

  /// One pulse's GBP contributions to a group of pixels: the range and
  /// bin in float lanes, the carrier phase in double lanes, then the
  /// complex multiply and the accumulate in float lanes again.
  static void gbp_contrib_row(const float* px, const float* py,
                              float pulse_x, const cf32* pulse_row,
                              const GbpGrid& g, cf32* acc, std::size_t n) {
    using D = typename V::D;
    using Carrier = CarrierLanes<D>;
    constexpr std::size_t kHalf = kLanes / 2;
    const F vpx = V::set1(pulse_x);
    const F vr0 = V::set1(g.r0);
    const F vinv = V::set1(g.inv_dr);
    const F vhalf = V::set1(0.5f);
    const F vminus_half = V::set1(-0.5f);
    const F vnr = V::set1(static_cast<float>(g.n_range));
    const F vzero = V::set1(0.0f);
    const auto vk = D::set1(g.k_phase);
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
      const F dx = V::sub(V::load(px + i), vpx);
      const F pyv = V::load(py + i);
      const F range = V::sqrt(V::add(V::mul(dx, dx), V::mul(pyv, pyv)));
      const F bf = V::mul(V::sub(range, vr0), vinv);
      const F u = V::add(bf, vhalf);
      // valid = bf >= -0.5f && bf + 0.5f < float(n_range), decided in
      // float before the conversion, exactly like gbp_contribution.
      const F valid = V::and_(V::cmp_ge(bf, vminus_half), V::cmp_lt(u, vnr));
      const unsigned valid_bits = V::movemask(valid);
      if (valid_bits == 0) {
        // No carrier math, but still the scalar acc[i] += {}, which turns
        // a -0 accumulator into +0.
        F are, aim;
        V::load_cf(acc + i, are, aim);
        V::store_cf(acc + i, V::add(are, vzero), V::add(aim, vzero));
        continue;
      }
      const I bin = V::cvt_i(u);
      // Carrier phase k*range in two double vectors of kHalf lanes each.
      const auto lo = Carrier::rotate_phase(D::mul(vk, V::to_d_lo(range)));
      const auto hi = Carrier::rotate_phase(D::mul(vk, V::to_d_hi(range)));
      const unsigned ok = D::movemask(lo.ok) | (D::movemask(hi.ok) << kHalf);
      F c = V::from_d(lo.c, hi.c);
      F s = V::from_d(lo.s, hi.s);
      if ((valid_bits & ~ok) != 0) {
        // Uncertified lanes take libm's rotation (carrier_rot's fallback).
        float rng[kLanes], cl[kLanes], sl[kLanes];
        V::store(rng, range);
        V::store(cl, c);
        V::store(sl, s);
        for (unsigned m = valid_bits & ~ok; m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          const cf32 rot =
              carrier_rot_libm(g.k_phase * static_cast<double>(rng[l]));
          cl[l] = rot.real();
          sl[l] = rot.imag();
        }
        c = V::load(cl);
        s = V::load(sl);
      }
      // pulse_row[bin] * {c, s} as GCC expands the cf32 product; lanes
      // outside `valid` gather zero and read nothing.
      F ar, ai;
      V::gather_cf(pulse_row, bin, valid, ar, ai);
      F pr = V::sub(V::mul(ar, c), V::mul(ai, s));
      F pi = V::add(V::mul(ar, s), V::mul(ai, c));
      const unsigned nan_both =
          valid_bits & V::movemask(V::and_(V::is_nan(pr), V::is_nan(pi)));
      if (nan_both != 0) {
        // Both parts NaN: the scalar product calls __mulsc3 here, which
        // can recover an infinity.
        std::int32_t bl[kLanes];
        float cl[kLanes], sl[kLanes], prl[kLanes], pil[kLanes];
        V::store_i(bl, bin);
        V::store(cl, c);
        V::store(sl, s);
        V::store(prl, pr);
        V::store(pil, pi);
        for (unsigned m = nan_both; m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          const cf32 p = pulse_row[bl[l]] * cf32{cl[l], sl[l]};
          prl[l] = p.real();
          pil[l] = p.imag();
        }
        pr = V::load(prl);
        pi = V::load(pil);
      }
      // acc += product, and += 0 on invalid lanes, like the scalar
      // acc[i] += {} there.
      F are, aim;
      V::load_cf(acc + i, are, aim);
      V::store_cf(acc + i, V::add(are, V::and_(pr, valid)),
                  V::add(aim, V::and_(pi, valid)));
    }
    for (; i < n; ++i)
      acc[i] += gbp_contribution(px[i], py[i], pulse_x, pulse_row, g);
  }
};

} // namespace esarp::sar::kernels::detail
