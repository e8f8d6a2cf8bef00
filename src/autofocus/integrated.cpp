#include "autofocus/integrated.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "common/assert.hpp"
#include "autofocus/criterion.hpp"
#include "autofocus/workload.hpp"
#include "sar/carrier.hpp"
#include "sar/kernels.hpp"

namespace esarp::af {

std::vector<std::pair<std::size_t, std::size_t>>
select_aoi_blocks(const sar::SubapertureImage& img, const AfParams& p,
                  std::size_t count) {
  std::vector<std::pair<std::size_t, std::size_t>> blocks;
  if (img.n_theta() < p.block_rows || img.n_range() < p.block_cols)
    return blocks;

  // Greedy brightest-first selection with exclusion of already-covered
  // regions (a block needs structure for the criterion to have a peak,
  // and overlapping blocks would double-count the same scatterer).
  struct Candidate {
    double energy;
    std::size_t ti, tj;
  };
  std::vector<Candidate> cands;
  const std::size_t step_t = std::max<std::size_t>(1, p.block_rows / 2);
  const std::size_t step_r = std::max<std::size_t>(1, p.block_cols / 2);
  for (std::size_t i = 0; i + p.block_rows <= img.n_theta(); i += step_t) {
    for (std::size_t j = 0; j + p.block_cols <= img.n_range(); j += step_r) {
      double e = 0.0;
      for (std::size_t r = 0; r < p.block_rows; ++r)
        for (std::size_t c = 0; c < p.block_cols; ++c)
          e += std::norm(img.data(i + r, j + c));
      if (e > 0.0) cands.push_back({e, i, j});
    }
  }
  std::sort(cands.begin(), cands.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.energy > b.energy;
            });

  for (const auto& c : cands) {
    if (blocks.size() >= count) break;
    bool overlaps = false;
    for (const auto& [bi, bj] : blocks) {
      const bool sep_t = c.ti + p.block_rows <= bi || bi + p.block_rows <= c.ti;
      const bool sep_r = c.tj + p.block_cols <= bj || bj + p.block_cols <= c.tj;
      if (!(sep_t || sep_r)) {
        overlaps = true;
        break;
      }
    }
    if (!overlaps) blocks.emplace_back(c.ti, c.tj);
  }
  return blocks;
}

BlockPair project_contribution_blocks(const sar::SubapertureImage& a,
                                      const sar::SubapertureImage& b,
                                      const sar::RadarParams& p,
                                      const AfParams& p_af,
                                      std::size_t parent_theta_bin,
                                      std::size_t parent_range_bin,
                                      OpCounts* tally) {
  ESARP_EXPECTS(a.level == b.level);
  const sar::MergeLevelGeom geom = sar::merge_level_geom(p, a.level + 1);
  ESARP_EXPECTS(parent_theta_bin + p_af.block_rows <= geom.n_theta_parent);
  ESARP_EXPECTS(parent_range_bin + p_af.block_cols <= p.n_range);
  const sar::ChildGrid& grid = geom.child;

  BlockPair bp;
  bp.minus = Array2D<cf32>(p_af.block_rows, p_af.block_cols);
  bp.plus = Array2D<cf32>(p_af.block_rows, p_af.block_cols);

  // The sampled contributions come back referenced to the carrier at the
  // sampled range (the carrier-aware cubic kernel re-references there);
  // across the block that is still a fast fringe per column. Remove it per
  // block column so the criterion's own Neville interpolation sees a
  // smooth signal (a point target's phase becomes locally constant).
  const auto dechirp = [&] {
    const double k_phase = 4.0 * kPi / p.wavelength_m();
    std::vector<cf32> t(p_af.block_cols);
    for (std::size_t j = 0; j < p_af.block_cols; ++j) {
      const double r = p.near_range_m +
                       static_cast<double>(parent_range_bin + j) *
                           p.range_bin_m;
      const double ph = -sar::reduce_2pi(k_phase * r);
      t[j] = {static_cast<float>(std::cos(ph)),
              static_cast<float>(std::sin(ph))};
    }
    return t;
  }();

  const auto va = a.data.view();
  const auto vb = b.data.view();
  const auto fetch_a = [&](int it, int ir) -> cf32 {
    return va(static_cast<std::size_t>(it), static_cast<std::size_t>(ir));
  };
  const auto fetch_b = [&](int it, int ir) -> cf32 {
    return vb(static_cast<std::size_t>(it), static_cast<std::size_t>(ir));
  };

  const float r0f = static_cast<float>(p.near_range_m);
  const float drf = static_cast<float>(p.range_bin_m);
  std::vector<sar::MergeGeom> geom_row(p_af.block_cols);
  for (std::size_t i = 0; i < p_af.block_rows; ++i) {
    const float theta = geom.theta_of_row(p, parent_theta_bin + i);
    const float cr = 2.0f * geom.d * fastmath::poly_cos(theta);
    sar::kernels::merge_geometry_row(r0f, drf, parent_range_bin,
                                     p_af.block_cols, cr, geom.d2,
                                     geom.inv_2d, geom_row.data());
    for (std::size_t j = 0; j < p_af.block_cols; ++j) {
      const sar::MergeGeom& g = geom_row[j];
      // Cubic sampling: the measurement must resolve sub-bin shifts, so
      // it uses the high-quality kernel even when the merges themselves
      // run the cheap nearest-neighbour one.
      bp.minus(i, j) = dechirp[j] *
                       sar::sample_child(grid, g.r1, g.theta1,
                                         sar::Interp::kCubic, false,
                                         fetch_a);
      bp.plus(i, j) = dechirp[j] *
                      sar::sample_child(grid, g.r2, g.theta2,
                                        sar::Interp::kCubic, false,
                                        fetch_b);
    }
  }
  if (tally) *tally += project_block_ops(p_af);
  return bp;
}

OpCounts project_block_ops(const AfParams& criterion) {
  return static_cast<std::uint64_t>(criterion.block_rows) *
             criterion.block_cols *
             (sar::kMergePixelOps + 2 * sar::kNeville4Ops +
              OpCounts{.fadd = 16, .fmul = 32, .load = 16}) +
         static_cast<std::uint64_t>(criterion.block_rows) * sar::kMergeRowOps;
}

OpCounts estimate_pair_ops(const AfParams& criterion, std::size_t n_blocks) {
  const std::uint64_t steps =
      static_cast<std::uint64_t>(criterion.shift_candidates.size()) *
      criterion.windows * criterion.samples_per_row;
  return static_cast<std::uint64_t>(n_blocks) *
         (project_block_ops(criterion) + steps * per_sample_ops(criterion));
}

PairEstimate estimate_pair_shift(const sar::SubapertureImage& a,
                                 const sar::SubapertureImage& b,
                                 const sar::RadarParams& p,
                                 const IntegratedOptions& opt,
                                 OpCounts* ops_out, std::size_t* sweeps_out) {
  OpCounts local_ops;
  std::size_t local_sweeps = 0;
  OpCounts* ops = ops_out != nullptr ? ops_out : &local_ops;
  std::size_t* sweeps = sweeps_out != nullptr ? sweeps_out : &local_sweeps;
  const AfParams& cp = opt.criterion;
  // Select bright regions on the trailing child's own grid, then map each
  // region's brightest pixel THROUGH WORLD COORDINATES to the parent grid
  // (the polar angle of a fixed scene point differs between the child and
  // parent phase centres), and centre the parent block on it. Centring
  // matters: the criterion's window sweep is symmetric in the tested
  // shift only when the dominant scatterer sits mid-block.
  const auto child_blocks = select_aoi_blocks(a, cp, opt.blocks_per_merge);
  const sar::MergeLevelGeom geom = sar::merge_level_geom(p, a.level + 1);
  const double x_parent = 0.5 * (a.x_center + b.x_center);
  const sar::PolarGrid child_grid(p, a.n_theta());
  const sar::PolarGrid parent_grid(p, geom.n_theta_parent);
  std::vector<std::pair<std::size_t, std::size_t>> blocks;
  for (const auto& [ti, tj] : child_blocks) {
    // Brightest pixel within the selected child block.
    std::size_t bi = ti, bj = tj;
    double best = -1.0;
    for (std::size_t r = 0; r < cp.block_rows; ++r)
      for (std::size_t c = 0; c < cp.block_cols; ++c) {
        const double m = std::norm(a.data(ti + r, tj + c));
        if (m > best) {
          best = m;
          bi = ti + r;
          bj = tj + c;
        }
      }
    // World position of the bright pixel as seen from the child centre...
    const double th_a = child_grid.theta_of(bi);
    const double r_a = child_grid.r_of(bj);
    const double px = a.x_center + r_a * std::cos(th_a);
    const double py = r_a * std::sin(th_a);
    // ...re-expressed about the parent centre.
    const double r_p = std::hypot(px - x_parent, py);
    const double th_p = std::atan2(py, px - x_parent);
    const long pti = parent_grid.theta_bin(th_p);
    const long prj = parent_grid.range_bin_nearest(r_p);
    if (pti < 0 || prj < 0) continue; // outside the parent sector/swath
    const std::size_t pt = std::min<std::size_t>(
        pti > static_cast<long>(cp.block_rows / 2)
            ? static_cast<std::size_t>(pti) - cp.block_rows / 2
            : 0,
        geom.n_theta_parent - cp.block_rows);
    const std::size_t pr = std::min<std::size_t>(
        prj > static_cast<long>(cp.block_cols / 2 - 1)
            ? static_cast<std::size_t>(prj) - (cp.block_cols / 2 - 1)
            : 0,
        p.n_range - cp.block_cols);
    blocks.emplace_back(pt, pr);
  }
  if (blocks.empty()) return {0.0f, 1.0};

  // Index of the zero (or closest-to-zero) candidate for the gain metric.
  std::size_t zero_idx = 0;
  for (std::size_t i = 1; i < cp.shift_candidates.size(); ++i)
    if (std::abs(cp.shift_candidates[i]) <
        std::abs(cp.shift_candidates[zero_idx]))
      zero_idx = i;

  double weight_sum = 0.0;
  double shift_sum = 0.0;
  double gain_sum = 0.0;
  for (const auto& [ti, tj] : blocks) {
    const BlockPair pair =
        project_contribution_blocks(a, b, p, cp, ti, tj, ops);
    const CriterionResult res = criterion_sweep(pair.minus, pair.plus, cp);
    *ops += res.ops;
    ++*sweeps;
    const double peak = res.criteria[res.best_index];
    const double zero = res.criteria[zero_idx];
    if (peak <= 0.0) continue;
    // Robustness gates: reject blocks where one child barely contributes
    // (sector-edge effects) or where the sweep saturates at a candidate
    // extreme (the true shift is outside the tested range).
    double e_minus = 0.0, e_plus = 0.0;
    for (std::size_t r = 0; r < cp.block_rows; ++r)
      for (std::size_t c = 0; c < cp.block_cols; ++c) {
        e_minus += std::norm(pair.minus(r, c));
        e_plus += std::norm(pair.plus(r, c));
      }
    const double e_lo = std::min(e_minus, e_plus);
    const double e_hi = std::max(e_minus, e_plus);
    if (e_hi <= 0.0 || e_lo / e_hi < 0.4) continue;
    if (res.best_index <= 1 || res.best_index + 2 >= res.criteria.size())
      continue;

    // Parabolic refinement of the peak over the candidate grid.
    double shift = res.best_shift(cp);
    const std::size_t bi2 = res.best_index;
    if (bi2 > 0 && bi2 + 1 < res.criteria.size()) {
      const double cm = res.criteria[bi2 - 1];
      const double c0 = res.criteria[bi2];
      const double cp1 = res.criteria[bi2 + 1];
      const double denom = cm - 2.0 * c0 + cp1;
      if (denom < 0.0) {
        const double step = cp.shift_candidates[bi2 + 1] -
                            cp.shift_candidates[bi2];
        shift += 0.5 * step * (cm - cp1) / denom;
      }
    }

    shift_sum += peak * shift;
    weight_sum += peak;
    gain_sum += zero > 0.0 ? peak / zero : 1.0;
  }
  if (weight_sum <= 0.0) return {0.0f, 1.0};
  return {static_cast<float>(shift_sum / weight_sum),
          gain_sum / static_cast<double>(blocks.size())};
}

IntegratedResult ffbp_with_autofocus(const Array2D<cf32>& data,
                                     const sar::RadarParams& p,
                                     const IntegratedOptions& opt) {
  opt.criterion.validate();
  ESARP_EXPECTS(opt.blocks_per_merge >= 1);

  IntegratedResult res;
  std::vector<sar::SubapertureImage> current =
      sar::initial_subapertures(data, p);
  const std::size_t n_levels = p.merge_levels();

  for (std::size_t level = 1; level <= n_levels; ++level) {
    std::vector<sar::SubapertureImage> next;
    next.reserve(current.size() / 2);
    for (std::size_t i = 0; i + 1 < current.size(); i += 2) {
      float shift = 0.0f;
      double gain = 1.0;
      if (level >= opt.first_level) {
        const PairEstimate est = estimate_pair_shift(
            current[i], current[i + 1], p, opt, &res.ops, &res.sweeps_run);
        // Confidence gate: a decisive criterion peak is required before
        // touching the data (paper: the *best possible match* is chosen —
        // if zero shift already matches, nothing is compensated).
        shift = est.applied(opt.min_gain);
        gain = est.gain;
        res.corrections.push_back({level, i / 2, shift, gain});
      }
      next.push_back(sar::merge_pair_compensated(
          current[i], current[i + 1], p, opt.ffbp, shift, &res.ops));
    }
    current = std::move(next);
  }

  ESARP_ENSURES(current.size() == 1);
  res.image = std::move(current.front());

  const std::uint64_t total_pixels =
      static_cast<std::uint64_t>(n_levels) * p.n_pulses * p.n_range;
  res.host_work.ops = res.ops;
  res.host_work.scattered_reads = 2 * total_pixels;
  res.host_work.stream_write_bytes = total_pixels * sizeof(cf32);
  return res;
}

} // namespace esarp::af
