// Seeded inputs shared by the kernel-backend tests (test_kernels.cpp) and
// the carrier-phase exactness tests (test_carrier.cpp), so both check
// gbp_contrib_row on exactly the same rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "sar/gbp.hpp"

namespace esarp::sar::test_inputs {

/// Deterministic xorshift float in [lo, hi) — no libc rand, identical
/// sequences on every platform.
struct Rng {
  std::uint32_t s = 0x9e3779b9u;
  std::uint32_t next_u32() {
    s ^= s << 13;
    s ^= s >> 17;
    s ^= s << 5;
    return s;
  }
  float uniform(float lo, float hi) {
    const float u =
        static_cast<float>(next_u32() >> 8) * (1.0f / 16777216.0f);
    return lo + (hi - lo) * u;
  }
  cf32 complex(float lo, float hi) {
    const float re = uniform(lo, hi);
    return {re, uniform(lo, hi)};
  }
};

// Row lengths that reach every lock-step width of the AVX2 kernels (one,
// two and four 8-lane groups) and every step of a wide loop's remainder:
// 47 = 32 + 8 + 7 scalar, 63 = 32 + 16 + 8 + 7, 1001 = 31 * 32 + 8 + 1.
inline constexpr std::size_t kSizes[] = {1,  3,  4,  7,  8,  15, 16,
                                         17, 31, 32, 33, 40, 47, 63,
                                         64, 65, 101, 1001};

/// One gbp_contrib_row call: an n-bin swath at 1000 m and pixels that mix
/// in-swath and out-of-swath ranges (the validity mask).
struct GbpRow {
  GbpGrid g{};
  std::vector<cf32> pulse;
  std::vector<float> px, py;
  float pulse_x = 3.5f;
};

inline GbpRow gbp_row(Rng& rng, std::size_t n) {
  GbpRow row;
  row.g.r0 = 1000.0f;
  row.g.inv_dr = 1.0f;
  row.g.n_range = static_cast<int>(n);
  row.g.k_phase = 25.0;
  row.pulse.resize(n);
  for (cf32& v : row.pulse) v = rng.complex(-1.0f, 1.0f);
  row.px.resize(n);
  row.py.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const float r = rng.uniform(990.0f, 1010.0f + 2.0f * float(n));
    row.px[i] = r * 0.6f;
    row.py[i] = r * 0.8f;
  }
  return row;
}

} // namespace esarp::sar::test_inputs
