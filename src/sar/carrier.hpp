// Carrier phase of the back-projection kernels: the rotation
// {cos(phase), sin(phase)} as floats, for a double phase k*r of ~1e3 to
// ~1e6 radians.
//
// The definition the rest of the code is pinned to is libm on the
// fmod-reduced phase:
//
//   float(std::cos(std::fmod(x, 2*pi))), float(std::sin(std::fmod(x, 2*pi)))
//
// (carrier_rot_libm). carrier_rot returns exactly those float bits, but
// calls libm only for inputs that fail a rounding certificate (1e-7 of
// random phases; 5e-5 on the lambda = 2 m test geometry, whose float
// ranges often sit on multiples of lambda/8, phase pi/2), and its
// algorithm is written once, as a template over a double-lane trait, so
// the scalar reference and the AVX2 and AVX-512 kernels
// (kernels_simd_body.hpp) run the same operations in the same order:
//
// - reduce_2pi: exact 2*pi reduction. fmod's result x - n*2pi is always
//   representable, and with a Cody-Waite split 2pi = H + L (H the top 25
//   bits, L the rest, 24 bits) both n*H and n*L are exact for n < 2^26,
//   x - n*H is exact, and so is the final subtraction once n is right.
//   n = trunc(x / 2pi) computed in double is off by at most one, which
//   the single correction step repairs, again exactly. Result: the same
//   bits as std::fmod on 0 < x < 2^26 * 2pi; any other input (negative,
//   -0, NaN, inf, huge) calls std::fmod.
// - rotate: quadrant j = trunc(r * 2/pi + 0.5) in {0..4}, y = r - j*pi/2
//   with fdlibm's three-part pi/2, then fdlibm's __kernel_sin and
//   __kernel_cos polynomials (no FMA), swapped and negated by quadrant.
// - Certificate: with E = |c| * 2^-49 + 2^-70 (c the double cosine or
//   sine), if c - E and c + E round to the same float, then so does any
//   value within E of c. E covers this evaluation's own error (a few ulp,
//   plus ~1e-31 absolute from the truncated pi/2) and libm's error, so
//   float(c) equals libm's float. ASSUMPTION: glibc's cos/sin are within
//   1 ulp of the exact result (glibc documents at most 1 ulp for both on
//   x86-64). Lanes that fail the certificate — within a float rounding
//   boundary of E, or near a zero crossing where |c| < ~2^-45 — take
//   carrier_rot_libm. tests/test_carrier.cpp checks all of this bit for
//   bit against libm.
//
// Because every output is either certified equal to libm's or computed by
// libm, FP contraction in an including TU cannot change a result; the
// kernel TUs still build with -ffp-contract=off so scalar and SIMD lanes
// take the fallback on exactly the same inputs.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/types.hpp"

namespace esarp::sar {

namespace carrier_detail {

inline constexpr double kTwoPi = 2.0 * kPi;
inline constexpr double kInvTwoPi = 1.0 / kTwoPi;
/// 2*pi = kTwoPiHi + kTwoPiLo exactly; kTwoPiHi holds the top 25 bits.
inline constexpr double kTwoPiHi = 0x1.921fb5p+2;
inline constexpr double kTwoPiLo = kTwoPi - kTwoPiHi;
/// reduce_2pi's exact domain is 0 < x < kReduceLimit (n < 2^26).
inline constexpr double kReduceLimit = 0x1p26 * kTwoPi;

// fdlibm e_rem_pio2.c: 2/pi and pi/2 as three 33-bit parts.
inline constexpr double kInvPio2 = 0x1.45f306dc9c883p-1;
inline constexpr double kPio2_1 = 0x1.921fb544p+0;
inline constexpr double kPio2_2 = 0x1.0b4611a6p-34;
inline constexpr double kPio2_3 = 0x1.3198a2ep-69;

// fdlibm k_sin.c / k_cos.c minimax coefficients on [-pi/4, pi/4].
inline constexpr double kS1 = -0x1.5555555555549p-3;
inline constexpr double kS2 = 0x1.111111110f8a6p-7;
inline constexpr double kS3 = -0x1.a01a019c161d5p-13;
inline constexpr double kS4 = 0x1.71de357b1fe7dp-19;
inline constexpr double kS5 = -0x1.ae5e68a2b9cebp-26;
inline constexpr double kS6 = 0x1.5d93a5acfd57cp-33;
inline constexpr double kC1 = 0x1.555555555554cp-5;
inline constexpr double kC2 = -0x1.6c16c16c15177p-10;
inline constexpr double kC3 = 0x1.a01a019cb159p-16;
inline constexpr double kC4 = -0x1.27e4f809c52adp-22;
inline constexpr double kC5 = 0x1.1ee9ebdb4b1c4p-29;
inline constexpr double kC6 = -0x1.8fae9be8838d4p-37;

/// Certificate half-width: relative 2^-49 (>= 8 ulp) plus absolute 2^-70.
inline constexpr double kCertRel = 0x1p-49;
inline constexpr double kCertAbs = 0x1p-70;

} // namespace carrier_detail

/// The carrier-phase algorithm over a double-lane trait D. D provides the
/// lane type T, the mask type M, and set1/add/sub/mul/abs/neg, trunc (in
/// reduce_2pi's domain only), cmp_lt/cmp_gt/cmp_eq, and_/or_, blend(m, a,
/// b) = m ? a : b, and same_float(a, b) = float(a) and float(b) have equal
/// bits. ScalarLane below is the one-lane trait; the AVX2 kernel TU
/// defines a four-lane one and the AVX-512 TU an eight-lane one whose M
/// is a k-mask: this template only combines masks with and_/or_ and
/// consumes them in blend, and the SIMD kernels read them with
/// D::movemask.
template <class D>
struct CarrierLanes {
  using T = typename D::T;
  using M = typename D::M;

  struct Rot {
    T c;  ///< cos(r) in double
    T s;  ///< sin(r) in double
    M ok; ///< both components pass the float-rounding certificate
  };

  /// Lanes inside reduce_2pi's exact domain, 0 < x < 2^26 * 2pi.
  static M in_domain(T x) {
    return D::and_(D::cmp_gt(x, D::set1(0.0)),
                   D::cmp_lt(x, D::set1(carrier_detail::kReduceLimit)));
  }

  /// std::fmod(x, 2pi) bit for bit on in_domain lanes.
  static T reduce(T x) {
    using namespace carrier_detail;
    const T two_pi = D::set1(kTwoPi);
    const T n = D::trunc(D::mul(x, D::set1(kInvTwoPi)));
    const T t = D::sub(x, D::mul(n, D::set1(kTwoPiHi)));
    const T r = D::sub(t, D::mul(n, D::set1(kTwoPiLo)));
    const T up = D::blend(D::cmp_lt(r, D::set1(0.0)), D::add(r, two_pi), r);
    return D::blend(D::cmp_lt(up, two_pi), up, D::sub(up, two_pi));
  }

  /// fdlibm __kernel_sin(y, 0, 0).
  static T kernel_sin(T y) {
    using namespace carrier_detail;
    const T z = D::mul(y, y);
    const T v = D::mul(z, y);
    T r = D::add(D::set1(kS5), D::mul(z, D::set1(kS6)));
    r = D::add(D::set1(kS4), D::mul(z, r));
    r = D::add(D::set1(kS3), D::mul(z, r));
    r = D::add(D::set1(kS2), D::mul(z, r));
    return D::add(y, D::mul(v, D::add(D::set1(kS1), D::mul(z, r))));
  }

  /// fdlibm __kernel_cos(y, 0), the compensated 1 - z/2 form.
  static T kernel_cos(T y) {
    using namespace carrier_detail;
    const T one = D::set1(1.0);
    const T z = D::mul(y, y);
    T r = D::add(D::set1(kC5), D::mul(z, D::set1(kC6)));
    r = D::add(D::set1(kC4), D::mul(z, r));
    r = D::add(D::set1(kC3), D::mul(z, r));
    r = D::add(D::set1(kC2), D::mul(z, r));
    r = D::mul(z, D::add(D::set1(kC1), D::mul(z, r)));
    const T hz = D::mul(D::set1(0.5), z);
    const T w = D::sub(one, hz);
    return D::add(w, D::add(D::sub(D::sub(one, w), hz), D::mul(z, r)));
  }

  /// float(v) is certain to equal the float of any value within E of v.
  static M certified(T v) {
    using namespace carrier_detail;
    const T rel = D::mul(D::abs(v), D::set1(kCertRel));
    const T e = D::add(rel, D::set1(kCertAbs));
    return D::same_float(D::sub(v, e), D::add(v, e));
  }

  /// cos and sin of a reduced phase r in [0, 2pi), with the certificate.
  static Rot rotate(T r) {
    using namespace carrier_detail;
    const T j = D::trunc(D::add(D::mul(r, D::set1(kInvPio2)), D::set1(0.5)));
    T y = D::sub(r, D::mul(j, D::set1(kPio2_1)));
    y = D::sub(y, D::mul(j, D::set1(kPio2_2)));
    y = D::sub(y, D::mul(j, D::set1(kPio2_3)));
    const T sn = kernel_sin(y);
    const T cs = kernel_cos(y);
    // r = j*pi/2 + y: j = 1 and 3 swap the pair, j = 1, 2 negate the
    // cosine, j = 2, 3 the sine (j = 4 is j = 0 one turn on).
    const M q1 = D::cmp_eq(j, D::set1(1.0));
    const M q2 = D::cmp_eq(j, D::set1(2.0));
    const M q3 = D::cmp_eq(j, D::set1(3.0));
    const M swap = D::or_(q1, q3);
    const T c0 = D::blend(swap, sn, cs);
    const T s0 = D::blend(swap, cs, sn);
    const T c = D::blend(D::or_(q1, q2), D::neg(c0), c0);
    const T s = D::blend(D::or_(q2, q3), D::neg(s0), s0);
    return {c, s, D::and_(certified(c), certified(s))};
  }

  /// reduce + rotate for SIMD lanes, whose ok also requires in_domain:
  /// lanes outside it compute garbage that is then discarded. (The scalar
  /// path tests in_domain first instead: ScalarLane::trunc needs it.)
  static Rot rotate_phase(T x) {
    Rot q = rotate(reduce(x));
    q.ok = D::and_(in_domain(x), q.ok);
    return q;
  }
};

/// The one-lane trait: plain doubles and bools.
struct ScalarLane {
  using T = double;
  using M = bool;
  static T set1(double x) { return x; }
  static T add(T a, T b) { return a + b; }
  static T sub(T a, T b) { return a - b; }
  static T mul(T a, T b) { return a * b; }
  static T abs(T a) { return std::fabs(a); }
  static T neg(T a) { return -a; }
  /// Only reached for |a| < 2^27 (in_domain is checked first).
  static T trunc(T a) {
    return static_cast<double>(static_cast<std::int32_t>(a));
  }
  static M cmp_lt(T a, T b) { return a < b; }
  static M cmp_gt(T a, T b) { return a > b; }
  static M cmp_eq(T a, T b) { return a == b; }
  static M and_(M a, M b) { return a && b; }
  static M or_(M a, M b) { return a || b; }
  static T blend(M m, T a, T b) { return m ? a : b; }
  static M same_float(T a, T b) {
    return std::bit_cast<std::uint32_t>(static_cast<float>(a)) ==
           std::bit_cast<std::uint32_t>(static_cast<float>(b));
  }
};

/// std::fmod(x, 2pi), bit for bit, without fmod on 0 < x < 2^26 * 2pi.
inline double reduce_2pi(double x) {
  using L = CarrierLanes<ScalarLane>;
  if (!L::in_domain(x)) return std::fmod(x, carrier_detail::kTwoPi);
  return L::reduce(x);
}

/// The definition carrier_rot reproduces: libm cos/sin of the reduced
/// phase, rounded to float. Also the fallback for uncertified lanes.
inline cf32 carrier_rot_libm(double x) {
  const double r = reduce_2pi(x);
  return {static_cast<float>(std::cos(r)), static_cast<float>(std::sin(r))};
}

/// The certified path alone: sets `rot` and returns true when x is in
/// reduce_2pi's domain and both components pass the certificate; returns
/// false (rot untouched) where carrier_rot would call libm.
inline bool carrier_rot_certified(double x, cf32& rot) {
  using L = CarrierLanes<ScalarLane>;
  if (!L::in_domain(x)) return false;
  const L::Rot q = L::rotate(L::reduce(x));
  if (!q.ok) return false;
  rot = {static_cast<float>(q.c), static_cast<float>(q.s)};
  return true;
}

/// {cos(phase), sin(phase)} as floats: the same bits as carrier_rot_libm.
inline cf32 carrier_rot(double x) {
  cf32 rot;
  return carrier_rot_certified(x, rot) ? rot : carrier_rot_libm(x);
}

} // namespace esarp::sar
