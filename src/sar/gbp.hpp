// Global Back-Projection (GBP) — the exact time-domain reference.
//
// Every output pixel coherently sums all pulses with exact range and
// carrier-phase compensation. O(n_pulses) work per pixel versus FFBP's
// O(log n_pulses); the paper uses GBP as the image-quality reference that
// FFBP's simplified interpolation degrades (Fig. 7(b) vs 7(c,d)).
#pragma once

#include <cmath>

#include "common/array2d.hpp"
#include "common/opcounts.hpp"
#include "common/types.hpp"
#include "hostmodel/host_model.hpp"
#include "sar/carrier.hpp"
#include "sar/params.hpp"
#include "sar/polar.hpp"

namespace esarp::sar {

/// Per-(pixel, pulse) work of the GBP inner loop: range via sqrt, phase via
/// sin+cos, complex rotate-accumulate, nearest-bin indexing.
inline constexpr OpCounts kGbpContribOps{
    .fadd = 6, .fmul = 6, .fma = 4, .fcmp = 2, .ialu = 8,
    .branch = 1, .load = 2, .store = 0,
};

/// Grid constants of the GBP inner loop, shared by the host reference and
/// the simulated SPMD kernel so both compute identical contributions.
struct GbpGrid {
  float r0;
  float inv_dr;
  int n_range;
  double k_phase; ///< 4*pi/lambda
};

/// One pulse's contribution to the pixel at slant-plane position (px, py):
/// exact range, nearest-bin sample, exact carrier-phase compensation
/// (carrier_rot: libm's cos/sin of the 2pi-reduced phase, bit for bit).
/// Returns zero when the range falls outside the swath, or is NaN or too
/// far out to convert: validity is decided in float, before the bin
/// conversion could overflow.
inline cf32 gbp_contribution(float px, float py, float pulse_x,
                             const cf32* pulse_row, const GbpGrid& g) {
  const float dx = px - pulse_x;
  const float range = std::sqrt(dx * dx + py * py);
  const float bf = (range - g.r0) * g.inv_dr;
  if (!(bf >= -0.5f && bf + 0.5f < static_cast<float>(g.n_range))) return {};
  const int bin = static_cast<int>(bf + 0.5f);
  return pulse_row[bin] *
         carrier_rot(g.k_phase * static_cast<double>(range));
}

struct GbpResult {
  SubapertureImage image; ///< on the same final polar grid as FFBP
  OpCounts ops;
  host::HostWork host_work;
};

/// Back-project `data` ([n_pulses x n_range] pulse-compressed samples) onto
/// the full-resolution polar grid. `azimuth_decimation` > 1 computes every
/// k-th angular bin only (others zero) to bound runtime for quick looks.
[[nodiscard]] GbpResult gbp(const Array2D<cf32>& data, const RadarParams& p,
                            std::size_t azimuth_decimation = 1);

} // namespace esarp::sar
