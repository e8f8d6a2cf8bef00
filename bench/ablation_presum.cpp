// Azimuth presummation ablation: the front-end data-rate reduction of the
// paper's Fig. 1 chain. Each factor-k presum cuts the back-projection
// work (and the chip time) by ~k while gaining SNR against thermal noise,
// valid up to the processed sector's Nyquist bound.
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/ffbp_epiphany.hpp"
#include "sar/ffbp.hpp"
#include "sar/metrics.hpp"
#include "sar/presum.hpp"
#include "sar/scene.hpp"

static int bench_body() {
  using namespace esarp;
  const auto p = sar::test_params(64, 201);
  sar::Scene s;
  s.targets = {{0.0, p.near_range_m + 100.0 * p.range_bin_m, 1.0f}};
  auto data = sar::simulate_compressed(p, s);
  Rng rng(7);
  sar::add_noise(data, rng, 0.05f);

  std::cerr << "nyquist-limited presum factor for this geometry: "
            << sar::max_presum_factor(p) << "\n";

  bench::Report rep("ablation_presum");
  auto& t = rep.sheet(
      "Azimuth presummation: data rate vs image quality (FFBP, 16 cores)",
      {{"Presum", "factor", bench::kCount},
       {"Pulses", "pulses", bench::kCount},
       {"Chip time (ms)", "chip_seconds", bench::kMs},
       {"Image SNR (peak/median)", "snr", bench::kCount}});

  // The presum factors are independent simulations over the same (read
  // only) noisy data set: fan out across host threads (ESARP_JOBS); each
  // returns its row, gathered by index.
  const std::vector<std::size_t> factors = {1, 2, 4, 8};
  host::SweepRunner pool(bench::sweep_jobs());
  std::cerr << "simulating " << factors.size() << " presum factors ("
            << pool.jobs() << " host thread(s))...\n";
  const auto rows = pool.run(factors.size(), [&](std::size_t i) {
    const std::size_t factor = factors[i];
    const auto ps = factor == 1
                        ? sar::PresumResult{data, p, {}}
                        : sar::presum(data, p, factor);
    core::FfbpMapOptions opt;
    opt.n_cores = 16;
    const auto sim = core::run_ffbp_epiphany(ps.data, ps.params, opt);
    return std::vector<bench::Cell>{factor, ps.params.n_pulses, sim.seconds,
                                    sar::peak_to_median(sim.image)};
  });
  for (const auto& r : rows) t.row(r);
  t.note("image SNR is roughly presum-invariant (coherent target gain "
         "balances the reduced integration) while the sampling satisfies "
         "the sector Nyquist rate (factor <= " +
         std::to_string(sar::max_presum_factor(p)) +
         " here); chip time falls ~linearly with the data rate — the "
         "purpose of the Fig. 1 preprocessing stage");
  return rep.finish();
}

int main() { return esarp::bench::guarded_main("ablation_presum", bench_body); }
