// Exactness tests of the carrier phase (sar/carrier.hpp): reduce_2pi must
// return std::fmod's bits, carrier_rot must return libm's float cos/sin
// of the fmod-reduced phase, and every kernel backend's gbp_contrib_row
// must equal the libm expression the kernels used before carrier_rot
// existed. Comparison is on bit patterns, never on a tolerance.
//
// Built with -ffp-contract=off (tests/CMakeLists.txt), like the kernel
// translation units, so the local libm reference below rounds the float
// geometry exactly as the kernels do.
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/types.hpp"
#include "kernel_test_inputs.hpp"
#include "sar/carrier.hpp"
#include "sar/kernels.hpp"
#include "sar/params.hpp"

namespace esarp::sar {
namespace {

constexpr double kTwoPi = 2.0 * kPi;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }
std::uint32_t bits(float x) { return std::bit_cast<std::uint32_t>(x); }

/// The pre-carrier_rot definition: libm on the fmod-reduced phase.
cf32 libm_rot(double x) {
  const double r = std::fmod(x, kTwoPi);
  return {static_cast<float>(std::cos(r)), static_cast<float>(std::sin(r))};
}

bool same_bits(cf32 a, cf32 b) {
  return bits(a.real()) == bits(b.real()) && bits(a.imag()) == bits(b.imag());
}

/// Counts reduce_2pi mismatches, reporting the first few.
struct ReduceCheck {
  std::size_t checked = 0;
  std::size_t bad = 0;
  void operator()(double x) {
    ++checked;
    const double want = std::fmod(x, kTwoPi);
    const double got = reduce_2pi(x);
    if (bits(want) != bits(got) && ++bad <= 5)
      ADD_FAILURE() << std::hexfloat << "reduce_2pi(" << x << ") = " << got
                    << ", fmod = " << want;
  }
};

/// Counts carrier_rot mismatches and certificate fallbacks.
struct RotCheck {
  std::size_t checked = 0;
  std::size_t bad = 0;
  std::size_t fallbacks = 0;
  void operator()(double x) {
    ++checked;
    cf32 fast;
    if (!carrier_rot_certified(x, fast)) ++fallbacks;
    const cf32 want = libm_rot(x);
    const cf32 got = carrier_rot(x);
    if (!same_bits(want, got) && ++bad <= 5)
      ADD_FAILURE() << std::hexfloat << "carrier_rot(" << x << ") = " << got
                    << ", libm = " << want;
  }
};

/// Log-uniform doubles in [lo, hi): every binade of the domain is hit.
std::vector<double> log_uniform(std::mt19937_64& gen, std::size_t n,
                                double lo, double hi) {
  std::uniform_real_distribution<double> e(std::log2(lo), std::log2(hi));
  std::vector<double> xs(n);
  for (double& x : xs) x = std::exp2(e(gen));
  return xs;
}

TEST(Carrier, ReduceMatchesFmodOnRandomDoubles) {
  std::mt19937_64 gen(0x2f1d);
  ReduceCheck check;
  for (double x : log_uniform(gen, 400000, 0x1p-30,
                              carrier_detail::kReduceLimit))
    check(x);
  // Uniform over the top of the domain, where n is largest.
  std::uniform_real_distribution<double> top(
      0.5 * carrier_detail::kReduceLimit, carrier_detail::kReduceLimit);
  for (int i = 0; i < 100000; ++i) check(top(gen));
  EXPECT_EQ(check.bad, 0u) << "of " << check.checked;
}

TEST(Carrier, ReduceMatchesFmodNearMultiplesOfTwoPi) {
  // x = n * 2pi +- 3 ulp, where trunc(x / 2pi) may be off by one and the
  // correction step must restore fmod's result exactly: every n up to
  // 2^12, then a stride up to 10^6.
  ReduceCheck check;
  const auto around = [&check](double n) {
    double lo = n * kTwoPi;
    double hi = lo;
    check(lo);
    for (int k = 0; k < 3; ++k) {
      lo = std::nextafter(lo, 0.0);
      hi = std::nextafter(hi, 1e300);
      check(lo);
      check(hi);
    }
  };
  for (int n = 1; n <= 4096; ++n) around(n);
  for (int n = 4097; n <= 1000000; n += 61) around(n);
  EXPECT_EQ(check.bad, 0u) << "of " << check.checked;
}

TEST(Carrier, ReduceMatchesFmodOnKernelPhases) {
  // The kernels' phases: k * double(range) for float ranges across the
  // swath, at the test and paper wavelengths. Runs of consecutive floats
  // plus a seeded spread over the whole range interval.
  std::mt19937_64 gen(0x5eed);
  ReduceCheck check;
  for (const RadarParams& p : {test_params(256, 1001), paper_params()}) {
    const double k = 4.0 * kPi / p.wavelength_m();
    const float lo = static_cast<float>(0.8 * p.near_range_m);
    const float hi = static_cast<float>(1.2 * p.far_range_m());
    for (float f0 : {lo, 0.5f * (lo + hi), hi}) {
      float f = f0;
      for (int i = 0; i < 20000; ++i) {
        check(k * static_cast<double>(f));
        f = std::nextafter(f, 2.0f * hi);
      }
    }
    std::uniform_real_distribution<float> spread(lo, hi);
    for (int i = 0; i < 100000; ++i)
      check(k * static_cast<double>(spread(gen)));
  }
  EXPECT_EQ(check.bad, 0u) << "of " << check.checked;
}

TEST(Carrier, ReduceFallsBackOutsideItsDomain) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double lim = carrier_detail::kReduceLimit;
  ReduceCheck check;
  for (double x : {0.0, -0.0, -1.0, -1e-300, -7.5, -1e6, -lim, nan, -nan,
                   inf, -inf, lim, std::nextafter(lim, 0.0),
                   std::nextafter(lim, inf), 2.0 * lim, 1e15, 1e300,
                   std::numeric_limits<double>::denorm_min()})
    check(x);
  EXPECT_EQ(check.bad, 0u) << "of " << check.checked;
  // -0 and NaN keep their sign bits: these are fmod's own results.
  EXPECT_EQ(bits(reduce_2pi(-0.0)), bits(-0.0));
  EXPECT_TRUE(std::isnan(reduce_2pi(nan)));
}

TEST(Carrier, RotationMatchesLibmOnRandomPhases) {
  std::mt19937_64 gen(0xca771e7);
  RotCheck check;
  for (double x : log_uniform(gen, 1000000, 1.0,
                              carrier_detail::kReduceLimit))
    check(x);
  EXPECT_EQ(check.bad, 0u) << "of " << check.checked;
  // The certificate fails only within ~2^-48 relative of a float rounding
  // boundary (or at a zero crossing): about 1e-7 of random phases.
  EXPECT_LT(static_cast<double>(check.fallbacks),
            1e-6 * static_cast<double>(check.checked))
      << check.fallbacks << " fallbacks";
}

TEST(Carrier, RotationMatchesLibmAroundMultiplesOfHalfPi) {
  // Within +-2^20 ulp of m * pi/2 one component is tiny, its float
  // spacing falls below the certificate's 2^-70 absolute slack, and the
  // fallback must take over: dense within +-2^10 ulp, strided beyond.
  RotCheck check;
  for (const double m : {1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 4097.0, 1048579.0}) {
    const double x0 = m * (0.5 * kPi);
    const double ulp = std::ldexp(1.0, std::ilogb(x0) - 52);
    for (int k = -1024; k <= 1024; ++k) check(x0 + k * ulp);
    for (int k = 1025; k <= (1 << 20); k += 331) {
      check(x0 + k * ulp);
      check(x0 - k * ulp);
    }
  }
  EXPECT_EQ(check.bad, 0u) << "of " << check.checked;
  EXPECT_GT(check.fallbacks, 0u) << "the band never reached the fallback";
}

/// gbp_contribution as written before carrier_rot: integer validity test
/// and libm's fmod/cos/sin. Only called on the finite test rows.
cf32 libm_contribution(float px, float py, float pulse_x,
                       const cf32* pulse_row, const GbpGrid& g) {
  const float dx = px - pulse_x;
  const float range = std::sqrt(dx * dx + py * py);
  const float bf = (range - g.r0) * g.inv_dr;
  const int bin = static_cast<int>(bf + 0.5f);
  if (bf < -0.5f || bin >= g.n_range) return {};
  return pulse_row[bin] * libm_rot(g.k_phase * static_cast<double>(range));
}

TEST(Carrier, GbpContribRowMatchesLibmOnEveryBackend) {
  namespace k = kernels;
  const k::Backend before = k::active();
  for (const k::Backend b :
       {k::Backend::kScalar, k::Backend::kAvx2, k::Backend::kAvx512}) {
    if (!k::backend_available(b)) continue;
    SCOPED_TRACE(k::backend_name(b));
    k::force_backend(b);
    test_inputs::Rng rng;
    for (const std::size_t n : test_inputs::kSizes) {
      const test_inputs::GbpRow row = test_inputs::gbp_row(rng, n);
      std::vector<cf32> want(n, cf32{0.5f, -0.25f});
      std::vector<cf32> got = want;
      for (std::size_t i = 0; i < n; ++i)
        want[i] += libm_contribution(row.px[i], row.py[i], row.pulse_x,
                                     row.pulse.data(), row.g);
      k::gbp_contrib_row(row.px.data(), row.py.data(), row.pulse_x,
                         row.pulse.data(), row.g, got.data(), n);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_TRUE(same_bits(want[i], got[i]))
            << "n " << n << " lane " << i << ": " << got[i] << " vs "
            << want[i];
    }
  }
  k::force_backend(before);
}

TEST(Carrier, GbpContribRowFallbackLanesMatchLibm) {
  // Phases that fail the certificate and where, with glibc 2.36, the
  // polynomial's float differs from libm's, so a lane that skipped the
  // libm fallback would fail here. Every third lane sits at range 1024 m,
  // where k_phase = phase / 1024 plants the phase exactly; the lanes
  // between them take other phases, so uncertified and certified lanes
  // share vector quanta and the tail.
  namespace k = kernels;
  const std::size_t n = 19;
  std::vector<float> px(n, 0.0f), py(n); // px = pulse_x: range = py
  for (std::size_t i = 0; i < n; ++i)
    py[i] = i % 3 == 0 ? 1024.0f : 1021.0f + 0.25f * static_cast<float>(i);
  const std::vector<cf32> pulse(8, cf32{0.75f, -0.5f});
  const k::Backend before = k::active();
  for (const double phase : {0x1.3b56d2765bdc9p+4, 0x1.06e61dd68d3dcp+0,
                             0x1.3bd24927f1f17p+4}) {
    cf32 rot;
    ASSERT_FALSE(carrier_rot_certified(phase, rot)) << phase;
    GbpGrid g{};
    g.r0 = 1020.0f;
    g.inv_dr = 1.0f;
    g.n_range = 8;
    g.k_phase = phase / 1024.0;
    std::vector<cf32> want(n, cf32{0.5f, -0.25f});
    for (std::size_t i = 0; i < n; ++i)
      want[i] += libm_contribution(px[i], py[i], 0.0f, pulse.data(), g);
    for (const k::Backend b :
         {k::Backend::kScalar, k::Backend::kAvx2, k::Backend::kAvx512}) {
      if (!k::backend_available(b)) continue;
      SCOPED_TRACE(k::backend_name(b));
      k::force_backend(b);
      std::vector<cf32> got(n, cf32{0.5f, -0.25f});
      k::gbp_contrib_row(px.data(), py.data(), 0.0f, pulse.data(), g,
                         got.data(), n);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_TRUE(same_bits(want[i], got[i]))
            << "lane " << i << ": " << got[i] << " vs " << want[i];
    }
  }
  k::force_backend(before);
}

} // namespace
} // namespace esarp::sar
