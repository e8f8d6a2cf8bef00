// Quantifies the paper's motivating claim (Section I): FFBP "reduces the
// performance requirements significantly relative to those for the
// conventional Global Back-projection (GBP) technique". Runs both SPMD
// mappings on the simulated 16-core chip across aperture sizes: GBP's
// O(N^2 M) back-projection work grows a factor N/log2(N) faster than
// FFBP's O(N M log N), and GBP additionally re-streams the whole raw data
// set once per output row.
//
// Each aperture size is an independent (GBP, FFBP) simulation pair, fanned
// out across host threads via host::SweepRunner (ESARP_JOBS); results are
// gathered by sweep index and are byte-identical for any thread count.
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/ffbp_epiphany.hpp"
#include "core/gbp_epiphany.hpp"
#include "epiphany/machine_metrics.hpp"
#include "fault/injector.hpp"
#include "sar/scene.hpp"

static int bench_body() {
  using namespace esarp;

  std::vector<std::size_t> sizes;
  const std::size_t max_n = bench::fast_mode() ? 128 : 256;
  for (std::size_t n = 32; n <= max_n; n *= 2) sizes.push_back(n);

  struct Pair {
    core::GbpSimResult g;
    core::FfbpSimResult f;
  };
  host::SweepRunner pool(bench::sweep_jobs());
  std::cerr << "simulating " << sizes.size() << " aperture sizes x "
            << "{GBP, FFBP} (" << pool.jobs() << " host thread(s))...\n";
  WallTimer sweep_timer;
  auto results = pool.run(sizes.size(), [&](std::size_t i) {
    const auto p = sar::test_params(sizes[i], 161);
    const auto data = sar::simulate_compressed(p, sar::six_target_scene(p));
    Pair pr{core::run_gbp_epiphany(data, p, 16, bench::power_chip()), {}};
    core::FfbpMapOptions fopt;
    fopt.n_cores = 16;
    pr.f = core::run_ffbp_epiphany(data, p, fopt, bench::power_chip());
    return pr;
  });
  const double sweep_s = sweep_timer.elapsed_s();

  // The largest aperture is the headline: its row's declared cells are the
  // manifest's results under their bare column keys.
  telemetry::RunManifest man("crossover_gbp_ffbp");
  bench::Report rep(man);
  const bench::Show ratio{1, 1.0, "x"};
  auto& t = rep.sheet(
      "GBP vs FFBP on the simulated 16-core Epiphany",
      {{"Pulses", "pulses", bench::kCount},
       {"GBP time (ms)", "gbp_seconds", bench::kMs, bench::kResult},
       {"FFBP time (ms)", "ffbp_seconds", bench::kMs, bench::kResult},
       {"FFBP advantage", "ffbp_advantage", ratio, bench::kResult},
       {"GBP ext reads", "gbp_ext_read_bytes", bench::kBytes},
       {"FFBP ext reads", "ffbp_ext_read_bytes", bench::kBytes},
       {"flops ratio", "flops_ratio", ratio},
       {"GBP energy (mJ)", "gbp_energy_j", {3, 1e3}, bench::kResult},
       {"Energy advantage", "energy_advantage", ratio, bench::kResult}});
  std::uint64_t events = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const auto& g = results[i].g;
    const auto& f = results[i].f;
    events += g.perf.engine_events + f.perf.engine_events;
    t.row(i + 1 == sizes.size() ? std::optional<std::string>("")
                                : std::nullopt,
          {sizes[i], g.seconds, f.seconds, g.seconds / f.seconds,
           g.perf.ext.read_bytes, f.perf.ext.read_bytes,
           static_cast<double>(g.perf.total_ops().flops()) /
               static_cast<double>(f.perf.total_ops().flops()),
           g.energy.total_j(), g.energy.total_j() / f.energy.total_j()});
    // Per-point event counts for both legs (each exactly representable in
    // a double, unlike a giant uint64 total converted once) plus the sweep
    // total, fault_sweep's "p<i>." key convention.
    const std::string pfx = "engine_events.p" + std::to_string(i);
    man.add_result(pfx + ".gbp", static_cast<double>(g.perf.engine_events));
    man.add_result(pfx + ".ffbp", static_cast<double>(f.perf.engine_events));
  }
  t.note("FFBP's advantage grows ~N/log2(N): the reason time-domain SAR "
         "needs factorisation to be real-time capable (paper Section I)");

  // Headline energy evidence is the FFBP leg; the GBP totals ride along
  // in the table row above so the energy advantage is visible in the diff.
  const auto& head = results.back();
  ep::fill_manifest(man, head.f);
  // One leg's registry would not describe the pair, so the manifest's
  // holds only the sweep's engine gauges (add_engine_stats below).
  telemetry::MetricsRegistry engine;
  man.set_metrics(&engine);
  bench::add_energy_per_pixel(man, head.f,
                              static_cast<double>(sizes.back()) * 161.0);
  // FNV-1a of the headline GBP image: pins every byte GBP produces,
  // carrier phase included.
  bench::add_hash(man, "gbp_image_checksum",
                  fault::FaultInjector::checksum(
                      head.g.image.data(), head.g.image.size() * sizeof(cf32)));
  man.add_workload("n_pulses", static_cast<double>(sizes.back()));
  man.add_workload("n_range", 161.0);
  man.add_workload("fast_mode", bench::fast_mode() ? 1.0 : 0.0);
  bench::add_engine_stats(man, &engine, events, sweep_s, pool.jobs());
  return rep.finish();
}

int main() { return esarp::bench::guarded_main("crossover_gbp_ffbp", bench_body); }
