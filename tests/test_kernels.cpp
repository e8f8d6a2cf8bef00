// Bit-exactness tests of the unified kernel API (sar/kernels.hpp): the
// AVX2 backend, when available, must reproduce the scalar reference bit
// for bit on every kernel, including the non-multiple-of-width tails,
// clamp and validity edge cases. Comparison is on the float bit patterns,
// not on a tolerance — the SIMD backend is only allowed to exist because
// it changes nothing.
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "kernel_test_inputs.hpp"
#include "sar/carrier.hpp"
#include "sar/kernels.hpp"

namespace esarp::sar {
namespace {

namespace k = kernels;
using test_inputs::kSizes;
using test_inputs::Rng;

std::uint32_t bits(float x) { return std::bit_cast<std::uint32_t>(x); }

void expect_bits_eq(float a, float b, const char* what, std::size_t i) {
  EXPECT_EQ(bits(a), bits(b)) << what << " lane " << i << ": " << a
                              << " vs " << b;
}

void expect_bits_eq(cf32 a, cf32 b, const char* what, std::size_t i) {
  expect_bits_eq(a.real(), b.real(), what, i);
  expect_bits_eq(a.imag(), b.imag(), what, i);
}

std::vector<k::Backend> simd_backends() {
  std::vector<k::Backend> b;
  if (k::backend_available(k::Backend::kAvx2)) b.push_back(k::Backend::kAvx2);
  return b;
}

/// Run `fn` once per available SIMD backend, restoring the scalar backend
/// between runs so the reference outputs inside `fn` are scalar-computed.
template <typename Fn>
void for_each_simd_backend(Fn&& fn) {
  const k::Backend before = k::active();
  for (const k::Backend b : simd_backends()) {
    SCOPED_TRACE(k::backend_name(b));
    fn(b);
  }
  k::force_backend(before);
}

TEST(Kernels, ScalarBackendAlwaysAvailable) {
  EXPECT_TRUE(k::backend_available(k::Backend::kScalar));
  EXPECT_STREQ(k::backend_name(k::Backend::kScalar), "scalar");
}

TEST(Kernels, MergeGeometryRowMatchesScalarBitForBit) {
  for_each_simd_backend([&](k::Backend b) {
    Rng rng;
    for (const std::size_t n : kSizes) {
      const float r0 = rng.uniform(1000.0f, 5000.0f);
      const float dr = rng.uniform(0.5f, 2.0f);
      const float d = rng.uniform(1.0f, 50.0f);
      // cos(theta) spans [-1, 1] across rows; include both signs.
      const float cr = 2.0f * d * rng.uniform(-1.0f, 1.0f);
      const float d2 = d * d;
      const float inv_2d = 1.0f / (2.0f * d);
      const std::size_t j0 = n % 3 == 0 ? 17 : 0;

      std::vector<MergeGeom> ref(n), simd(n);
      k::force_backend(k::Backend::kScalar);
      k::merge_geometry_row(r0, dr, j0, n, cr, d2, inv_2d, ref.data());
      k::force_backend(b);
      k::merge_geometry_row(r0, dr, j0, n, cr, d2, inv_2d, simd.data());
      for (std::size_t i = 0; i < n; ++i) {
        expect_bits_eq(ref[i].r1, simd[i].r1, "r1", i);
        expect_bits_eq(ref[i].theta1, simd[i].theta1, "theta1", i);
        expect_bits_eq(ref[i].r2, simd[i].r2, "r2", i);
        expect_bits_eq(ref[i].theta2, simd[i].theta2, "theta2", i);
      }
    }
  });
}

TEST(Kernels, MergeGeometryRowClampEdges) {
  // Degenerate geometry drives the acos argument outside [-1, 1]; the
  // clamp ternaries must blend identically.
  for_each_simd_backend([&](k::Backend b) {
    const std::size_t n = 11;
    const float d = 1e-3f;
    std::vector<MergeGeom> ref(n), simd(n);
    k::force_backend(k::Backend::kScalar);
    k::merge_geometry_row(0.0f, 0.25f, 0, n, 2.0f * d, d * d,
                          1.0f / (2.0f * d), ref.data());
    k::force_backend(b);
    k::merge_geometry_row(0.0f, 0.25f, 0, n, 2.0f * d, d * d,
                          1.0f / (2.0f * d), simd.data());
    for (std::size_t i = 0; i < n; ++i) {
      expect_bits_eq(ref[i].theta1, simd[i].theta1, "theta1", i);
      expect_bits_eq(ref[i].theta2, simd[i].theta2, "theta2", i);
    }
  });
}

TEST(Kernels, Neville4ManyMatchesScalarBitForBit) {
  for_each_simd_backend([&](k::Backend b) {
    Rng rng;
    for (const std::size_t n : kSizes) {
      cf32 y[4];
      for (cf32& v : y) v = rng.complex(-2.0f, 2.0f);
      std::vector<float> t(n);
      for (float& v : t) v = rng.uniform(0.4f, 2.6f);
      std::vector<cf32> ref(n), simd(n);
      k::force_backend(k::Backend::kScalar);
      k::neville4_many(y, t.data(), ref.data(), n);
      k::force_backend(b);
      k::neville4_many(y, t.data(), simd.data(), n);
      for (std::size_t i = 0; i < n; ++i)
        expect_bits_eq(ref[i], simd[i], "neville4_many", i);
    }
  });
}

TEST(Kernels, Neville4RowsMatchesScalarBitForBit) {
  for_each_simd_backend([&](k::Backend b) {
    Rng rng;
    for (const std::size_t n : kSizes) {
      std::vector<cf32> rows[4];
      for (auto& r : rows) {
        r.resize(n);
        for (cf32& v : r) v = rng.complex(-3.0f, 3.0f);
      }
      std::vector<float> t(n);
      for (float& v : t) v = rng.uniform(0.9f, 2.1f);
      std::vector<cf32> ref(n), simd(n);
      k::force_backend(k::Backend::kScalar);
      k::neville4_rows(rows[0].data(), rows[1].data(), rows[2].data(),
                       rows[3].data(), t.data(), ref.data(), n);
      k::force_backend(b);
      k::neville4_rows(rows[0].data(), rows[1].data(), rows[2].data(),
                       rows[3].data(), t.data(), simd.data(), n);
      for (std::size_t i = 0; i < n; ++i)
        expect_bits_eq(ref[i], simd[i], "neville4_rows", i);
    }
  });
}

TEST(Kernels, CriterionTermsMatchesScalarBitForBit) {
  for_each_simd_backend([&](k::Backend b) {
    Rng rng;
    for (const std::size_t n : kSizes) {
      std::vector<cf32> minus(n), plus(n);
      for (cf32& v : minus) v = rng.complex(-4.0f, 4.0f);
      for (cf32& v : plus) v = rng.complex(-4.0f, 4.0f);
      std::vector<float> ref(n), simd(n);
      k::force_backend(k::Backend::kScalar);
      k::criterion_terms(minus.data(), plus.data(), ref.data(), n);
      k::force_backend(b);
      k::criterion_terms(minus.data(), plus.data(), simd.data(), n);
      for (std::size_t i = 0; i < n; ++i)
        expect_bits_eq(ref[i], simd[i], "criterion_terms", i);
    }
  });
}

TEST(Kernels, GbpContribRowMatchesScalarBitForBit) {
  for_each_simd_backend([&](k::Backend b) {
    Rng rng;
    for (const std::size_t n : kSizes) {
      const test_inputs::GbpRow row = test_inputs::gbp_row(rng, n);
      std::vector<cf32> ref(n, cf32{0.5f, -0.25f});
      std::vector<cf32> simd = ref; // same nonzero accumulator start
      k::force_backend(k::Backend::kScalar);
      k::gbp_contrib_row(row.px.data(), row.py.data(), row.pulse_x,
                         row.pulse.data(), row.g, ref.data(), n);
      k::force_backend(b);
      k::gbp_contrib_row(row.px.data(), row.py.data(), row.pulse_x,
                         row.pulse.data(), row.g, simd.data(), n);
      for (std::size_t i = 0; i < n; ++i)
        expect_bits_eq(ref[i], simd[i], "gbp_contrib_row", i);
    }
  });
}

TEST(Kernels, GbpContribRowSkipsNonFiniteAndFarPixels) {
  // A NaN position, or a range more than 2^31 bins out, converts to bin
  // INT_MIN, which an integer bound test lets through to
  // pulse_row[INT_MIN]. Such lanes must contribute nothing on every
  // backend, in the vector quanta and in the tails.
  const float inf = std::numeric_limits<float>::infinity();
  const float bad[] = {std::numeric_limits<float>::quiet_NaN(), inf, -inf,
                       1e30f, -1e30f, 3e9f};
  GbpGrid g{};
  g.r0 = 1000.0f;
  g.inv_dr = 1.0f;
  g.n_range = 4;
  g.k_phase = 25.0;
  const std::vector<cf32> pulse(4, cf32{1.0f, 1.0f});
  const k::Backend before = k::active();
  for (const k::Backend b : {k::Backend::kScalar, k::Backend::kAvx2}) {
    if (!k::backend_available(b)) continue;
    SCOPED_TRACE(k::backend_name(b));
    k::force_backend(b);
    for (const std::size_t n : kSizes) {
      for (std::size_t v = 0; v < std::size(bad); ++v) {
        std::vector<float> px(n), py(n, 1000.0f);
        for (std::size_t i = 0; i < n; ++i) px[i] = bad[(i + v) % 6];
        if (v % 2 == 1) std::swap(px, py); // the bad value in py instead
        const std::vector<cf32> start(n, cf32{0.5f, -0.25f});
        std::vector<cf32> acc = start;
        k::gbp_contrib_row(px.data(), py.data(), 3.5f, pulse.data(), g,
                           acc.data(), n);
        for (std::size_t i = 0; i < n; ++i)
          expect_bits_eq(start[i], acc[i], "non-finite pixel", i);
      }
    }
  }
  k::force_backend(before);
}

TEST(Kernels, GbpContribRowMatchesScalarOnNonFinitePulses) {
  // Pulse samples with infinite or NaN parts next to finite ones. Where
  // both parts of the expanded product are NaN the scalar cf32 multiply
  // calls __mulsc3, which can recover an infinity ((inf, NaN) times a
  // rotation); the vector accumulate must redo those lanes. Half the
  // valid ranges sit on multiples of lambda/8 at lambda = 2 m (phase a
  // multiple of pi/2), where lanes fail the carrier certificate and take
  // libm. Lanes 6 and 7 of every 8 are off the swath or NaN, so valid,
  // invalid, NaN-product and uncertified lanes share each 8-lane group.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  GbpGrid g{};
  g.r0 = 1000.0f;
  g.inv_dr = 4.0f; // quarter-metre bins
  g.n_range = 48;
  g.k_phase = 4.0 * kPi / 2.0;
  const cf32 kinds[] = {{0.75f, -0.5f}, {inf, nan}, {nan, 0.5f},
                        {-inf, 0.25f}, {inf, inf}, {0.25f, nan}};
  std::vector<cf32> pulse(static_cast<std::size_t>(g.n_range));
  for (std::size_t b = 0; b < pulse.size(); ++b)
    pulse[b] = kinds[b % std::size(kinds)];
  // Lanes the classes reach, over the whole sweep.
  std::size_t uncertified = 0, recovered_inf = 0;
  for_each_simd_backend([&](k::Backend b) {
    for (const std::size_t n : kSizes) {
      std::vector<float> px(n, 0.0f), py(n); // pulse_x = 0: range = py
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t bin = 7 * i % pulse.size();
        const float on_grid = g.r0 + 0.25f * static_cast<float>(bin);
        py[i] = i % 8 == 6   ? 990.0f
                : i % 8 == 7 ? nan
                : i % 2 == 0 ? on_grid
                             : on_grid + 0.1f;
        if (i % 8 >= 6) continue;
        cf32 rot;
        if (!carrier_rot_certified(g.k_phase * static_cast<double>(py[i]),
                                   rot))
          ++uncertified;
        const cf32 c = gbp_contribution(0.0f, py[i], 0.0f, pulse.data(), g);
        if (std::isinf(c.real()) && std::isnan(pulse[bin].imag()))
          ++recovered_inf;
      }
      std::vector<cf32> ref(n, cf32{0.5f, -0.25f});
      std::vector<cf32> simd = ref;
      k::force_backend(k::Backend::kScalar);
      k::gbp_contrib_row(px.data(), py.data(), 0.0f, pulse.data(), g,
                         ref.data(), n);
      k::force_backend(b);
      k::gbp_contrib_row(px.data(), py.data(), 0.0f, pulse.data(), g,
                         simd.data(), n);
      for (std::size_t i = 0; i < n; ++i)
        expect_bits_eq(ref[i], simd[i], "non-finite pulse", i);
    }
  });
  if (!simd_backends().empty()) {
    EXPECT_GT(uncertified, 0u);
    EXPECT_GT(recovered_inf, 0u);
  }
}

/// One merge_sample_row call: an 8 x 24 child grid, both child images,
/// a staged row for each whose values differ from the image row it
/// stands for (so a wrong hit/miss decision shows), and geometry that
/// mixes staged hits, misses, out-of-sector and out-of-swath lanes.
struct MergeRow {
  ChildGrid g{};
  std::vector<MergeGeom> geom;
  std::vector<cf32> image1, image2, staged1, staged2;
};

MergeRow make_merge_row(Rng& rng, std::size_t n, int staged_row1,
                   int staged_row2) {
  MergeRow row;
  ChildGrid& g = row.g;
  g.theta_start = 1.47f;
  g.inv_dtheta = 40.0f; // 8 bins over 0.2 rad
  g.n_theta = 8;
  g.r0 = 1000.0f;
  g.dr = 0.5f;
  g.inv_dr = 2.0f;
  g.n_range = 24;
  g.k_phase = 41.9f;
  g.carrier_rad = g.k_phase * g.dr;
  g.rot_m1 = {0.6f, -0.8f};
  g.rot_p1 = std::conj(g.rot_m1);
  g.rot_m2 = g.rot_m1 * g.rot_m1;
  for (auto* img : {&row.image1, &row.image2}) {
    img->resize(8 * 24);
    for (cf32& v : *img) v = rng.complex(-1.0f, 1.0f);
  }
  for (auto* st : {&row.staged1, &row.staged2}) {
    st->resize(24);
    for (cf32& v : *st) v = rng.complex(-1.0f, 1.0f);
  }
  // Half the angles inside the staged bin (when there is one), the rest
  // from 1.5 bins before the sector to 1.5 bins past it; ranges from 3
  // bins before the swath to 3 bins past it.
  const auto theta = [&](int staged) {
    const float bin = staged >= 0 && rng.uniform(0.0f, 1.0f) < 0.5f
                          ? static_cast<float>(staged) +
                                rng.uniform(0.05f, 0.95f)
                          : rng.uniform(-1.5f, 9.5f);
    return g.theta_start + bin / g.inv_dtheta;
  };
  const auto range = [&] { return g.r0 + rng.uniform(-3.0f, 27.0f) * g.dr; };
  row.geom.resize(n);
  for (MergeGeom& m : row.geom) {
    m.r1 = range();
    m.theta1 = theta(staged_row1);
    m.r2 = range();
    m.theta2 = theta(staged_row2);
  }
  return row;
}

TEST(Kernels, MergeSampleRowMatchesScalarBitForBit) {
  struct Mode {
    Interp interp;
    bool phase_compensate;
  };
  const Mode modes[] = {{Interp::kNearest, false},
                        {Interp::kNearest, true},
                        {Interp::kLinear, false},
                        {Interp::kCubic, false}};
  const std::pair<float, float> shifts[] = {
      {-0.0f, 0.0f}, {0.37f, -0.37f}, {-1.25f, 1.25f}};
  const std::pair<int, int> staged_rows[] = {{-1, -1}, {3, 4}, {0, 7}};
  // Lane classes seen across the whole sweep, to show the inputs cover
  // every branch of the nearest-neighbour lanes.
  std::size_t off_sector = 0, off_swath = 0, hits = 0, misses = 0;
  for_each_simd_backend([&](k::Backend b) {
    Rng rng;
    for (const std::size_t n : kSizes) {
      for (const auto& [s1, s2] : staged_rows) {
        const MergeRow row = make_merge_row(rng, n, s1, s2);
        const ChildSource c1{s1, row.staged1.data(), row.image1.data()};
        const ChildSource c2{s2, row.staged2.data(), row.image2.data()};
        for (const MergeGeom& m : row.geom) {
          const float tf = (m.theta1 - row.g.theta_start) * row.g.inv_dtheta;
          const float rf = (m.r1 - row.g.r0) * row.g.inv_dr;
          const bool in_sector = tf >= 0.0f && tf < 8.0f;
          const bool in_swath = rf >= -0.5f && rf + 0.5f < 24.0f;
          off_sector += in_sector ? 0 : 1;
          off_swath += in_swath ? 0 : 1;
          if (in_sector && in_swath)
            ++(static_cast<int>(tf) == s1 ? hits : misses);
        }
        for (const Mode& mode : modes) {
          for (const auto& [sh1, sh2] : shifts) {
            std::vector<cf32> ref(n), simd(n);
            k::force_backend(k::Backend::kScalar);
            const std::uint64_t ref_misses = k::merge_sample_row(
                row.g, mode.interp, mode.phase_compensate, row.geom.data(),
                sh1, sh2, c1, c2, ref.data(), n);
            k::force_backend(b);
            const std::uint64_t simd_misses = k::merge_sample_row(
                row.g, mode.interp, mode.phase_compensate, row.geom.data(),
                sh1, sh2, c1, c2, simd.data(), n);
            EXPECT_EQ(ref_misses, simd_misses) << "n " << n;
            for (std::size_t i = 0; i < n; ++i)
              expect_bits_eq(ref[i], simd[i], "merge_sample_row", i);
          }
        }
      }
    }
  });
  if (!simd_backends().empty()) {
    EXPECT_GT(off_sector, 0u);
    EXPECT_GT(off_swath, 0u);
    EXPECT_GT(hits, 0u);
    EXPECT_GT(misses, 0u);
  }
}

TEST(Kernels, MergeSampleRowNanAngleMissThrowsOnEveryBackend) {
  // A NaN angle truncates to bin INT_MIN, which passes the sector test;
  // the miss it makes must hit the bounds check, never the image. A NaN
  // range is merely out of swath and contributes nothing.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const k::Backend before = k::active();
  for (const k::Backend b : {k::Backend::kScalar, k::Backend::kAvx2}) {
    if (!k::backend_available(b)) continue;
    SCOPED_TRACE(k::backend_name(b));
    k::force_backend(b);
    Rng rng;
    for (const std::size_t n : kSizes) {
      MergeRow row = make_merge_row(rng, n, 2, 5);
      for (MergeGeom& m : row.geom) { // every lane a staged hit
        m.r1 = m.r2 = row.g.r0 + 10.0f * row.g.dr;
        m.theta1 = row.g.theta_start + 2.5f / row.g.inv_dtheta;
        m.theta2 = row.g.theta_start + 5.5f / row.g.inv_dtheta;
      }
      const ChildSource c1{2, row.staged1.data(), row.image1.data()};
      const ChildSource c2{5, row.staged2.data(), row.image2.data()};
      std::vector<cf32> out(n);
      for (const std::size_t at : {std::size_t{0}, n / 2, n - 1}) {
        MergeRow bad = row;
        bad.geom[at].theta2 = nan;
        EXPECT_THROW((void)k::merge_sample_row(
                         bad.g, Interp::kNearest, false, bad.geom.data(),
                         0.0f, 0.0f, c1, c2, out.data(), n),
                     ContractViolation)
            << "n " << n << " lane " << at;
        bad = row;
        bad.geom[at].r1 = nan;
        EXPECT_EQ(k::merge_sample_row(bad.g, Interp::kNearest, false,
                                      bad.geom.data(), 0.0f, 0.0f, c1, c2,
                                      out.data(), n),
                  0u);
        expect_bits_eq(out[at], row.staged2[10], "NaN range", at);
      }
    }
  }
  k::force_backend(before);
}

TEST(Kernels, ForceBackendRoundTrip) {
  const k::Backend before = k::active();
  k::force_backend(k::Backend::kScalar);
  EXPECT_EQ(k::active(), k::Backend::kScalar);
  EXPECT_STREQ(k::active_name(), "scalar");
  k::force_backend(before);
  EXPECT_EQ(k::active(), before);
}

} // namespace
} // namespace esarp::sar
