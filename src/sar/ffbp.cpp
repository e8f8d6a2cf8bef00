#include "sar/ffbp.hpp"

#include <cmath>
#include <vector>

#include "common/assert.hpp"
#include "sar/carrier.hpp"
#include "sar/kernels.hpp"

namespace esarp::sar {

std::vector<cf32> range_phase_table(const RadarParams& p) {
  std::vector<cf32> table(p.n_range);
  const double k = 4.0 * kPi / p.wavelength_m();
  // Computed in double precision: k*r is ~1e4 radians at VHF ranges.
  for (std::size_t j = 0; j < p.n_range; ++j)
    table[j] = carrier_rot(
        k * (p.near_range_m + static_cast<double>(j) * p.range_bin_m));
  return table;
}

void reference_pulse(std::span<const cf32> pulse, std::span<const cf32> phase,
                     std::span<cf32> out) {
  ESARP_EXPECTS(pulse.size() == phase.size() && out.size() == phase.size());
  for (std::size_t j = 0; j < out.size(); ++j) out[j] = pulse[j] * phase[j];
}

std::vector<SubapertureImage> initial_subapertures(const Array2D<cf32>& data,
                                                   const RadarParams& p,
                                                   const FlightPathError* track) {
  p.validate();
  ESARP_EXPECTS(data.rows() == p.n_pulses && data.cols() == p.n_range);
  const auto phase = range_phase_table(p);
  std::vector<SubapertureImage> subs(p.n_pulses);
  for (std::size_t pu = 0; pu < p.n_pulses; ++pu) {
    SubapertureImage& s = subs[pu];
    s.level = 0;
    s.first_pulse = pu;
    s.n_pulses = 1;
    s.x_center = p.pulse_x(pu) + (track != nullptr ? track->at_x(pu) : 0.0);
    s.data = Array2D<cf32>(1, p.n_range);
    reference_pulse(data.row(pu), phase, s.data.row(0));
  }
  return subs;
}

OpCounts merge_pixel_ops(const FfbpOptions& opt) {
  OpCounts ops = kMergePixelOps;
  switch (opt.interp) {
    case Interp::kNearest:
      if (opt.phase_compensate) ops += 2 * kPhaseCompensateOps;
      break;
    case Interp::kLinear:
      // Two extra carrier-aware complex lerps on top of the NN pattern.
      ops += 2 * (kLerpOps + kCarrierLinearOps);
      break;
    case Interp::kCubic:
      // Two carrier-aware Neville evaluations replace the plain fetches.
      ops += 2 * (kNeville4Ops + kCarrierCubicOps);
      break;
  }
  return ops;
}

ChildGrid make_child_grid(const RadarParams& p, std::size_t n_theta_child) {
  const PolarGrid cg(p, n_theta_child);
  ChildGrid grid{};
  grid.theta_start = static_cast<float>(cg.theta_start);
  grid.inv_dtheta = static_cast<float>(1.0 / cg.dtheta);
  grid.n_theta = static_cast<int>(cg.n_theta);
  grid.r0 = static_cast<float>(cg.r0);
  grid.dr = static_cast<float>(cg.dr);
  grid.inv_dr = static_cast<float>(1.0 / cg.dr);
  grid.n_range = static_cast<int>(cg.n_range);
  grid.k_phase = static_cast<float>(4.0 * kPi / p.wavelength_m());
  // Carrier rotation per range bin and its phasor powers (double-precision
  // trigonometry; these are per-merge constants).
  const double c = static_cast<double>(grid.k_phase) * p.range_bin_m;
  grid.carrier_rad = static_cast<float>(c);
  grid.rot_m1 = {static_cast<float>(std::cos(c)),
                 static_cast<float>(-std::sin(c))};
  grid.rot_p1 = std::conj(grid.rot_m1);
  grid.rot_m2 = {static_cast<float>(std::cos(2.0 * c)),
                 static_cast<float>(-std::sin(2.0 * c))};
  return grid;
}

MergeLevelGeom merge_level_geom(const RadarParams& p, std::size_t level) {
  ESARP_EXPECTS(level >= 1 && level <= p.merge_levels());
  MergeLevelGeom g{};
  // Child-centre spacing equals the child aperture extent: 2^(level-1)
  // pulse spacings; d is half of it (computed exactly like merge_pair does
  // from the x_centers so the float value matches bit-for-bit).
  const double spacing =
      static_cast<double>(std::size_t{1} << (level - 1)) * p.pulse_spacing_m;
  g.d = static_cast<float>(0.5 * spacing);
  g.d2 = g.d * g.d;
  g.inv_2d = 1.0f / (2.0f * g.d);
  g.n_theta_parent = std::size_t{1} << level;
  g.child = make_child_grid(p, g.n_theta_parent / 2);
  return g;
}

SubapertureImage merge_pair(const SubapertureImage& a,
                            const SubapertureImage& b, const RadarParams& p,
                            const FfbpOptions& opt, OpCounts* tally) {
  return merge_pair_compensated(a, b, p, opt, 0.0f, tally);
}

SubapertureImage merge_pair_compensated(const SubapertureImage& a,
                                        const SubapertureImage& b,
                                        const RadarParams& p,
                                        const FfbpOptions& opt,
                                        float shift_bins, OpCounts* tally) {
  ESARP_EXPECTS(a.level == b.level);
  ESARP_EXPECTS(a.n_pulses == b.n_pulses);
  ESARP_EXPECTS(a.first_pulse + a.n_pulses == b.first_pulse); // adjacent
  ESARP_EXPECTS(a.n_range() == p.n_range && b.n_range() == p.n_range);
  ESARP_EXPECTS(!opt.phase_compensate || opt.interp == Interp::kNearest);

  SubapertureImage parent;
  parent.level = a.level + 1;
  parent.first_pulse = a.first_pulse;
  parent.n_pulses = 2 * a.n_pulses;
  parent.x_center = 0.5 * (a.x_center + b.x_center);
  const std::size_t n_theta_p = 2 * a.n_theta();
  parent.data = Array2D<cf32>(n_theta_p, p.n_range);

  const PolarGrid pg(p, n_theta_p);
  const PolarGrid cg(p, a.n_theta());

  // Child phase centres sit at -d and +d from the parent centre, where
  // 2d = child spacing = child aperture length (paper's l/2 with l the
  // child subaperture length).
  const float d = static_cast<float>(0.5 * (b.x_center - a.x_center));
  const float d2 = d * d;
  const float inv_2d = 1.0f / (2.0f * d);

  const ChildGrid grid = make_child_grid(p, cg.n_theta);
  const ChildSource src_a{-1, nullptr, a.data.data()};
  const ChildSource src_b{-1, nullptr, b.data.data()};

  const float r0f = static_cast<float>(p.near_range_m);
  const float drf = static_cast<float>(p.range_bin_m);
  // Flight-path compensation: realign the children by -/+ half the tested
  // shift along range (0 for the plain merge; adding a zero offset keeps
  // the arithmetic bit-identical to the uncompensated path).
  const float shift_a = -0.5f * shift_bins * drf;
  const float shift_b = 0.5f * shift_bins * drf;
  // Each row is two kernel calls, vectorized when available and
  // bit-identical either way: the cosine-theorem geometry, then both
  // children sampled and summed.
  std::vector<MergeGeom> geom_row(p.n_range);
  for (std::size_t i = 0; i < n_theta_p; ++i) {
    const float theta = static_cast<float>(pg.theta_of(i));
    const float cr = 2.0f * d * fastmath::poly_cos(theta);
    kernels::merge_geometry_row(r0f, drf, 0, p.n_range, cr, d2, inv_2d,
                                geom_row.data());
    (void)kernels::merge_sample_row(grid, opt.interp, opt.phase_compensate,
                                    geom_row.data(), shift_a, shift_b, src_a,
                                    src_b, parent.data.row(i).data(),
                                    p.n_range);
  }

  if (tally) {
    const std::uint64_t pixels =
        static_cast<std::uint64_t>(n_theta_p) * p.n_range;
    *tally += pixels * merge_pixel_ops(opt) +
              static_cast<std::uint64_t>(n_theta_p) * kMergeRowOps;
  }
  return parent;
}

FfbpResult ffbp(const Array2D<cf32>& data, const RadarParams& p,
                const FfbpOptions& opt, const FlightPathError* track) {
  FfbpResult res;
  std::vector<SubapertureImage> current =
      initial_subapertures(data, p, track);
  const std::size_t n_levels = p.merge_levels();

  for (std::size_t level = 1; level <= n_levels; ++level) {
    LevelStats ls;
    ls.level = level;
    std::vector<SubapertureImage> next;
    next.reserve(current.size() / 2);
    for (std::size_t i = 0; i + 1 < current.size(); i += 2) {
      next.push_back(
          merge_pair(current[i], current[i + 1], p, opt, &ls.ops));
      ++ls.merges;
      ls.pixels += next.back().data.size();
    }
    res.ops += ls.ops;
    res.levels.push_back(ls);
    current = std::move(next);
  }

  ESARP_ENSURES(current.size() == 1);
  res.image = std::move(current.front());

  // Host-model memory traffic: every parent pixel gathers two child pixels
  // from a working set (the full level image, 8 MB at paper size) that does
  // not fit in cache, and streams one pixel out.
  const std::uint64_t total_pixels =
      static_cast<std::uint64_t>(n_levels) * p.n_pulses * p.n_range;
  res.host_work.ops = res.ops;
  res.host_work.scattered_reads = 2 * total_pixels;
  res.host_work.stream_write_bytes = total_pixels * sizeof(cf32);
  return res;
}

} // namespace esarp::sar
