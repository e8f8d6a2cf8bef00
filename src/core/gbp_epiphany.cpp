#include "core/gbp_epiphany.hpp"

#include <cmath>
#include <vector>

#include "common/assert.hpp"
#include "epiphany/machine_metrics.hpp"
#include "sar/kernels.hpp"
#include "sar/polar.hpp"

namespace esarp::core {

namespace {

struct GbpShared {
  std::span<const cf32> data_ext; ///< raw pulses [n_pulses x n_range]
  std::span<cf32> image_ext;      ///< output [n_theta x n_range]
  std::vector<float> pulse_x;
};

ep::Task gbp_core_program(ep::CoreCtx& ctx, const sar::RadarParams& p,
                          GbpShared& st, int core_index, int n_cores) {
  const std::size_t n_range = p.n_range;
  const std::size_t row_bytes = n_range * sizeof(cf32);
  // With no fault campaign attached each bank copy would equal its SDRAM
  // row, so the kernel reads the pulse rows and accumulates its image row
  // where they lie, and the transfers are only charged (core_ctx.hpp). A
  // campaign keeps the copies: its injector corrupts delivered bytes.
  const bool in_place = ctx.fault_injector() == nullptr;

  // Bank 1: output-row accumulator; banks 2-3: two streamed pulse rows
  // (in place, the windows the transfers are charged to).
  auto acc = ctx.local().alloc_in_bank<cf32>(n_range, 1);
  auto pulse_a = ctx.local().alloc_in_bank<cf32>(n_range, 2);
  auto pulse_b = ctx.local().alloc_in_bank<cf32>(n_range, 3);

  const sar::PolarGrid grid(p, p.n_pulses);
  sar::GbpGrid g{};
  g.r0 = static_cast<float>(p.near_range_m);
  g.inv_dr = static_cast<float>(1.0 / p.range_bin_m);
  g.n_range = static_cast<int>(n_range);
  g.k_phase = 4.0 * kPi / p.wavelength_m();

  const std::size_t rows_total = grid.n_theta;
  const std::size_t begin =
      static_cast<std::size_t>(core_index) * rows_total / n_cores;
  const std::size_t end =
      (static_cast<std::size_t>(core_index) + 1) * rows_total / n_cores;

  // Host-side pixel-position scratch (constant along a row, so it is
  // computed once per row instead of once per pulse pair — same values).
  std::vector<float> px(n_range), py(n_range);

  for (std::size_t i = begin; i < end; ++i) {
    const double theta = grid.theta_of(i);
    const float cos_t = static_cast<float>(std::cos(theta));
    const float sin_t = static_cast<float>(std::sin(theta));
    for (std::size_t j = 0; j < n_range; ++j) {
      const float r = static_cast<float>(grid.r_of(j));
      px[j] = r * cos_t;
      py[j] = r * sin_t;
    }
    cf32* const image_row = st.image_ext.data() + i * n_range;
    cf32* const out = in_place ? image_row : acc.data();
    std::fill(out, out + n_range, cf32{});

    for (std::size_t pu = 0; pu < p.n_pulses; pu += 2) {
      // Stream the next two pulses through the data banks as one burst.
      const cf32* const row_a = st.data_ext.data() + pu * n_range;
      const cf32* const row_b = row_a + n_range;
      const ep::DmaSeg segs[2] = {{pulse_a.data(), row_a, row_bytes},
                                  {pulse_b.data(), row_b, row_bytes}};
      if (in_place)
        co_await ctx.wait(ctx.charge_dma_read_ext_burst(segs));
      else
        co_await ctx.wait(ctx.dma_read_ext_burst(segs));

      // Two row-kernel calls keep the per-pixel accumulation order (pulse
      // pu, then pu + 1) of the original scalar loop — bit-identical image.
      sar::kernels::gbp_contrib_row(px.data(), py.data(), st.pulse_x[pu],
                                    in_place ? row_a : pulse_a.data(), g, out,
                                    n_range);
      sar::kernels::gbp_contrib_row(px.data(), py.data(), st.pulse_x[pu + 1],
                                    in_place ? row_b : pulse_b.data(), g, out,
                                    n_range);
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
  // SDRAM holds exactly the echo data and the image.
  ep::Machine m(cfg, 2 * ep::ExternalMemory::footprint<cf32>(total));
  GbpShared st;
  auto data_ext = m.ext().alloc<cf32>(total);
  std::copy(data.flat().begin(), data.flat().end(), data_ext.begin());
  st.data_ext = data_ext;
  st.image_ext = m.ext().alloc<cf32>(total);
  st.pulse_x.resize(p.n_pulses);
  for (std::size_t pu = 0; pu < p.n_pulses; ++pu)
    st.pulse_x[pu] = static_cast<float>(p.pulse_x(pu));

  for (int c = 0; c < n_cores; ++c) {
    m.launch(c, [&p, &st, c, n_cores](ep::CoreCtx& ctx) {
      return gbp_core_program(ctx, p, st, c, n_cores);
    });
  }

  ep::ChipRun run = ep::collect_run(m, m.run(max_cycles));
  Array2D<cf32> image(p.n_pulses, p.n_range);
  std::copy(st.image_ext.begin(), st.image_ext.end(), image.data());
  return {std::move(run), std::move(image)};
}

} // namespace esarp::core
