#include "core/gbp_epiphany.hpp"

#include <cmath>
#include <vector>

#include "common/assert.hpp"
#include "epiphany/machine_metrics.hpp"
#include "host/sweep_runner.hpp"
#include "sar/kernels.hpp"
#include "sar/polar.hpp"

namespace esarp::core {

namespace {

struct GbpShared {
  explicit GbpShared(const sar::RadarParams& p) : grid(p, p.n_pulses) {
    g.r0 = static_cast<float>(p.near_range_m);
    g.inv_dr = static_cast<float>(1.0 / p.range_bin_m);
    g.n_range = static_cast<int>(p.n_range);
    g.k_phase = 4.0 * kPi / p.wavelength_m();
  }

  std::span<const cf32> data_ext; ///< raw pulses [n_pulses x n_range]
  std::span<cf32> image_ext;      ///< output [n_theta x n_range]
  sar::PolarGrid grid;            ///< the image's polar pixel grid
  sar::GbpGrid g{};               ///< the kernel's range-bin constants
  std::vector<float> pulse_x;
};

/// The positions of image row `i`'s pixels (constant along the row, so
/// computed once per row instead of once per pulse — same values).
void pixel_positions(const sar::PolarGrid& grid, std::size_t i,
                     std::span<float> px, std::span<float> py) {
  const double theta = grid.theta_of(i);
  const float cos_t = static_cast<float>(std::cos(theta));
  const float sin_t = static_cast<float>(std::sin(theta));
  for (std::size_t j = 0; j < px.size(); ++j) {
    const float r = static_cast<float>(grid.r_of(j));
    px[j] = r * cos_t;
    py[j] = r * sin_t;
  }
}

/// Start a clean run's whole image as one host pass over its rows on all
/// host cores (host::start_pass): each row accumulates its pulses in the
/// order gbp_core_program charges them, reading them where they lie in
/// SDRAM, straight into the result `image`. No simulated event reads the
/// image, so the cores cannot tell when it was computed: the pass runs
/// while they charge its work. `st` must outlive the pass.
[[nodiscard]] host::Pass start_image_pass(const sar::RadarParams& p,
                                          const GbpShared& st,
                                          std::span<cf32> image) {
  const auto image_rows = [&p, &st, out = image.data()](std::size_t begin,
                                                        std::size_t end) {
    const std::size_t n_range = p.n_range;
    std::vector<float> px(n_range), py(n_range);
    for (std::size_t i = begin; i < end; ++i) {
      pixel_positions(st.grid, i, px, py);
      cf32* const row = out + i * n_range;
      std::fill(row, row + n_range, cf32{});
      for (std::size_t pu = 0; pu < p.n_pulses; ++pu)
        sar::kernels::gbp_contrib_row(px.data(), py.data(), st.pulse_x[pu],
                                      st.data_ext.data() + pu * n_range, st.g,
                                      row, n_range);
    }
  };
  return host::start_pass(st.grid.n_theta, p.n_range * p.n_pulses,
                          image_rows);
}

ep::Task gbp_core_program(ep::CoreCtx& ctx, const sar::RadarParams& p,
                          const GbpShared& st, int core_index, int n_cores) {
  const std::size_t n_range = p.n_range;
  const std::size_t row_bytes = n_range * sizeof(cf32);
  // With no fault campaign attached each bank copy would equal its SDRAM
  // row, so start_image_pass computes the image from the pulse rows where
  // they lie, and the cores only charge the work and the transfers
  // (core_ctx.hpp). A campaign keeps the per-row arithmetic and
  // the copies: its injector corrupts delivered bytes.
  const bool in_place = ctx.fault_injector() == nullptr;

  // Bank 1: output-row accumulator; banks 2-3: two streamed pulse rows
  // (in place, the windows the transfers are charged to).
  auto acc = ctx.local().alloc_in_bank<cf32>(n_range, 1);
  auto pulse_a = ctx.local().alloc_in_bank<cf32>(n_range, 2);
  auto pulse_b = ctx.local().alloc_in_bank<cf32>(n_range, 3);

  const std::size_t rows_total = st.grid.n_theta;
  const std::size_t begin =
      static_cast<std::size_t>(core_index) * rows_total / n_cores;
  const std::size_t end =
      (static_cast<std::size_t>(core_index) + 1) * rows_total / n_cores;

  // A campaign's host-side pixel-position scratch.
  std::vector<float> px(in_place ? 0 : n_range), py(in_place ? 0 : n_range);

  for (std::size_t i = begin; i < end; ++i) {
    cf32* const image_row = st.image_ext.data() + i * n_range;
    if (!in_place) {
      pixel_positions(st.grid, i, px, py);
      std::fill(acc.begin(), acc.end(), cf32{});
    }

    for (std::size_t pu = 0; pu < p.n_pulses; pu += 2) {
      // Stream the next two pulses through the data banks as one burst.
      const cf32* const row_a = st.data_ext.data() + pu * n_range;
      const cf32* const row_b = row_a + n_range;
      const ep::DmaSeg segs[2] = {{pulse_a.data(), row_a, row_bytes},
                                  {pulse_b.data(), row_b, row_bytes}};
      if (in_place) {
        co_await ctx.wait(ctx.charge_dma_read_ext_burst(segs));
      } else {
        co_await ctx.wait(ctx.dma_read_ext_burst(segs));
        // Two row-kernel calls keep the per-pixel accumulation order
        // (pulse pu, then pu + 1) of the original scalar loop and of the
        // image pass — bit-identical image.
        sar::kernels::gbp_contrib_row(px.data(), py.data(), st.pulse_x[pu],
                                      pulse_a.data(), st.g, acc.data(),
                                      n_range);
        sar::kernels::gbp_contrib_row(px.data(), py.data(), st.pulse_x[pu + 1],
                                      pulse_b.data(), st.g, acc.data(),
                                      n_range);
      }
      co_await ctx.compute(2 * static_cast<std::uint64_t>(n_range) *
                           sar::kGbpContribOps);
    }
    if (in_place)
      co_await ctx.charge_write_ext(image_row, acc.data(), row_bytes);
    else
      co_await ctx.write_ext(image_row, acc.data(), row_bytes);
  }
}

} // namespace

GbpSimResult run_gbp_epiphany(const Array2D<cf32>& data,
                              const sar::RadarParams& p, int n_cores,
                              ep::ChipConfig cfg, ep::Cycles max_cycles) {
  p.validate();
  ESARP_EXPECTS(n_cores >= 1 && n_cores <= cfg.core_count());
  ESARP_EXPECTS(p.n_pulses % 2 == 0);
  ESARP_EXPECTS(data.rows() == p.n_pulses && data.cols() == p.n_range);

  const std::size_t total = p.n_pulses * p.n_range;
  // The result image comes before the SDRAM store, as in
  // run_ffbp_epiphany. SDRAM holds exactly the echo data and the image.
  Array2D<cf32> image(p.n_pulses, p.n_range);
  ep::Machine m(cfg, 2 * ep::ExternalMemory::footprint<cf32>(total));
  GbpShared st(p);
  auto data_ext = m.ext().alloc<cf32>(total);
  std::copy(data.flat().begin(), data.flat().end(), data_ext.begin());
  st.data_ext = data_ext;
  st.image_ext = m.ext().alloc<cf32>(total);
  st.pulse_x.resize(p.n_pulses);
  for (std::size_t pu = 0; pu < p.n_pulses; ++pu)
    st.pulse_x[pu] = static_cast<float>(p.pulse_x(pu));
  // A clean run's image pass runs while the cores charge its work. It is
  // declared after everything it reads and writes, so an unwinding run
  // waits for it (host::Pass).
  const bool clean = m.fault_injector() == nullptr;
  host::Pass pass;
  if (clean) pass = start_image_pass(p, st, image.flat());

  for (int c = 0; c < n_cores; ++c) {
    m.launch(c, [&p, &st, c, n_cores](ep::CoreCtx& ctx) {
      return gbp_core_program(ctx, p, st, c, n_cores);
    });
  }

  ep::ChipRun run = ep::collect_run(m, m.run(max_cycles));
  pass.join();
  if (!clean)
    std::copy(st.image_ext.begin(), st.image_ext.end(), image.data());
  return {std::move(run), std::move(image)};
}

} // namespace esarp::core
