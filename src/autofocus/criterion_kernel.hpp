// The autofocus inner kernels, shared verbatim by the sequential reference
// and the simulated 13-core MPMD pipeline so both produce identical
// criterion values (up to the documented accumulation order).
//
// Stage structure (paper Fig. 8/9):
//   range interpolation:  per sample position, Neville-cubic along a 4-column
//                         range window of each of the 6 rows (shift candidate
//                         applied as +-delta/2 per contributing image);
//   beam interpolation:   Neville-cubic across 4 of the interpolated rows at
//                         the tilted-path beam position;
//   correlation/summation: eq. 6 accumulation of |f-|^2 |f+|^2.
#pragma once

#include "common/opcounts.hpp"
#include "common/types.hpp"
#include "autofocus/af_params.hpp"
#include "sar/interp.hpp"

namespace esarp::af {

/// Interpolation positions of one sample index s for shift candidate delta.
struct SampleGeom {
  float t_minus; ///< range node position in the f- block window
  float t_plus;  ///< range node position in the f+ block window
  float u;       ///< beam node position (shared)
  bool valid;    ///< false when a position leaves the safe node interval
};

/// Compute the tilted-path positions. Range positions live on Neville node
/// interval [0.5, 2.5]; the shift moves the two images apart by delta
/// (+-delta/2 each). The beam position drifts with the tilt.
inline SampleGeom af_sample_geom(const AfParams& p, std::size_t s,
                                 float delta) {
  const float frac =
      (static_cast<float>(s) + 0.5f) / static_cast<float>(p.samples_per_row);
  const float t_base = 1.0f + frac; // sweep the central node interval
  const float half = 0.5f * delta;
  SampleGeom g;
  g.t_minus = t_base - half;
  g.t_plus = t_base + half;
  g.u = 1.0f + p.tilt * frac; // tilted path in the beam direction
  g.valid = g.t_minus >= 0.5f && g.t_minus <= 2.5f && g.t_plus >= 0.5f &&
            g.t_plus <= 2.5f;
  return g;
}
/// Work of af_sample_geom: a handful of scalar ops per sample.
inline constexpr OpCounts kSampleGeomOps{
    .fadd = 4, .fmul = 3, .fcmp = 4, .ialu = 4, .branch = 1};

/// Beam-interpolate 4 consecutive range-interpolated rows starting at
/// `first_row`, at beam node position u.
inline cf32 beam_interp(const cf32* column, std::size_t first_row, float u) {
  return sar::neville4(column + first_row, u);
}

/// Work per range-interpolated column of R rows.
[[nodiscard]] inline OpCounts range_stage_ops(std::size_t rows) {
  return rows * sar::kNeville4Ops;
}
/// Work per beam output (one Neville + squared magnitude).
inline constexpr OpCounts kBeamOutputOps =
    sar::kNeville4Ops + OpCounts{.fmul = 1, .fma = 1, .store = 1};
/// Work per correlation term (eq. 6 product + accumulate).
inline constexpr OpCounts kCorrTermOps{.fadd = 1, .fmul = 1, .load = 2};

} // namespace esarp::af
