// Fast Factorized Back-Projection (FFBP) — sequential reference.
//
// Merge base 2: level 0 holds one subaperture per pulse (a range profile
// with a single angular bin); each iteration pairwise-merges subapertures,
// doubling aperture length and angular resolution, until one subaperture
// spans the full synthetic aperture — for the paper's 1024-pulse data set,
// ten iterations ending in a 1024 x 1001 polar image.
//
// Phase handling: at level 0 each range bin is referenced to the bin-grid
// range (multiplied by e^{+i 4 pi r_j / lambda}), after which the paper's
// plain complex addition (eq. 5) integrates coherently for UWB
// low-frequency parameters; the nearest-neighbour rounding of eqs. 1-4
// leaves a residual phase error that is exactly the FFBP quality loss the
// paper reports against GBP (Fig. 7). FfbpOptions lets benchmarks trade
// that quality against work (interpolation kernel, residual-phase
// compensation).
#pragma once

#include <span>
#include <vector>

#include "common/array2d.hpp"
#include "common/opcounts.hpp"
#include "common/types.hpp"
#include "hostmodel/host_model.hpp"
#include "sar/merge_kernel.hpp"
#include "sar/params.hpp"
#include "sar/polar.hpp"
#include "sar/scene.hpp"

namespace esarp::sar {

struct FfbpOptions {
  Interp interp = Interp::kNearest;
  /// Multiply each nearest-neighbour contribution by the residual range
  /// phase (quality-improving variant; only meaningful with kNearest).
  bool phase_compensate = false;
};

struct LevelStats {
  std::size_t level = 0;      ///< level being produced (1..n)
  std::size_t merges = 0;     ///< subaperture pairs merged
  std::uint64_t pixels = 0;   ///< parent pixels computed
  OpCounts ops;               ///< arithmetic charged for this level
};

struct FfbpResult {
  SubapertureImage image;        ///< full-aperture polar image
  OpCounts ops;                  ///< total counted work
  host::HostWork host_work;      ///< work + memory traffic for the i7 model
  std::vector<LevelStats> levels;
};

/// e^{+i 4 pi r_j / lambda} for every range bin (level-0 referencing).
[[nodiscard]] std::vector<cf32> range_phase_table(const RadarParams& p);

/// One level-0 row: out[j] = pulse[j] * phase[j], the pulse referenced to
/// the range-bin carrier phase (phase from range_phase_table). The one
/// definition initial_subapertures and the chip mapping's SDRAM load share.
void reference_pulse(std::span<const cf32> pulse, std::span<const cf32> phase,
                     std::span<cf32> out);

/// Decompose pulse-compressed data into level-0 subapertures (one pulse
/// each, single angular bin, range-phase referenced). When `track` is
/// given, each subaperture's phase centre uses the RECORDED along-track
/// position (nominal + dx) instead of the nominal uniform grid — the
/// motion compensation a time-domain processor gets for free from GPS data
/// (paper Section I: back-projection "can compensate for non-linear flight
/// tracks"), and which the merge geometry then honours pair by pair.
[[nodiscard]] std::vector<SubapertureImage>
initial_subapertures(const Array2D<cf32>& data, const RadarParams& p,
                     const FlightPathError* track = nullptr);

/// Per-pixel op counts of the merge inner loop for the given options.
[[nodiscard]] OpCounts merge_pixel_ops(const FfbpOptions& opt);

/// Single-precision child-grid constants for a merge whose children have
/// `n_theta_child` angular bins. Shared by the host reference and the
/// simulated kernels so their arithmetic is bit-identical.
[[nodiscard]] ChildGrid make_child_grid(const RadarParams& p,
                                        std::size_t n_theta_child);

/// Geometry constants of one merge level (all children of a level share
/// them): child phase-centre half-offset d and derived values, plus the
/// parent angular grid.
struct MergeLevelGeom {
  float d;      ///< half the child-centre spacing (paper's l/2)
  float d2;     ///< d*d
  float inv_2d; ///< 1/(2d)
  std::size_t n_theta_parent;
  ChildGrid child;

  /// Parent-row constants: theta and cr = 2*d*cos(theta) for row i,
  /// computed exactly as the reference merge loop does.
  [[nodiscard]] float theta_of_row(const RadarParams& p,
                                   std::size_t i) const {
    const double theta_start = p.theta_center_rad - 0.5 * p.theta_span_rad;
    const double dtheta =
        p.theta_span_rad / static_cast<double>(n_theta_parent);
    return static_cast<float>(theta_start +
                              (static_cast<double>(i) + 0.5) * dtheta);
  }
};

/// Geometry for producing `level` (children are at level-1). Level is
/// 1-based: level 1 merges single-pulse subapertures.
[[nodiscard]] MergeLevelGeom merge_level_geom(const RadarParams& p,
                                              std::size_t level);

/// Merge two adjacent subapertures into their parent (paper eqs. 1-5).
/// `tally`, if non-null, accumulates the counted work.
[[nodiscard]] SubapertureImage merge_pair(const SubapertureImage& a,
                                          const SubapertureImage& b,
                                          const RadarParams& p,
                                          const FfbpOptions& opt,
                                          OpCounts* tally = nullptr);

/// Merge with a flight-path compensation: the autofocus criterion models a
/// path error as a relative range shift of `shift_bins` between the two
/// child images (paper Section II-A); the compensated merge samples the
/// trailing child at -shift/2 and the leading child at +shift/2 range
/// bins, realigning the contributions before the addition of eq. 5.
/// shift_bins == 0 reduces exactly to merge_pair.
[[nodiscard]] SubapertureImage merge_pair_compensated(
    const SubapertureImage& a, const SubapertureImage& b,
    const RadarParams& p, const FfbpOptions& opt, float shift_bins,
    OpCounts* tally = nullptr);

/// Run the full factorisation. `track` (optional) supplies the recorded
/// pulse positions for along-track motion compensation; the nominal
/// uniform track is assumed otherwise.
[[nodiscard]] FfbpResult ffbp(const Array2D<cf32>& data, const RadarParams& p,
                              const FfbpOptions& opt = {},
                              const FlightPathError* track = nullptr);

} // namespace esarp::sar
