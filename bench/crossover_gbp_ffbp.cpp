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
#include <vector>

#include "bench_util.hpp"
#include "common/csv.hpp"
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

  Table t("GBP vs FFBP on the simulated 16-core Epiphany");
  t.header({"Pulses", "GBP time (ms)", "FFBP time (ms)", "FFBP advantage",
            "GBP ext reads", "FFBP ext reads", "flops ratio"});
  CsvWriter csv(bench::out_dir() / "crossover_gbp_ffbp.csv",
                {"pulses", "gbp_ms", "ffbp_ms", "advantage", "gbp_ext_mb",
                 "ffbp_ext_mb"});

  std::uint64_t events = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::size_t n = sizes[i];
    const auto& g = results[i].g;
    const auto& f = results[i].f;
    events += g.perf.engine_events + f.perf.engine_events;
    const double gbp_flops =
        static_cast<double>(g.perf.total_ops().flops());
    const double ffbp_flops =
        static_cast<double>(f.perf.total_ops().flops());
    t.row({std::to_string(n), bench::ms(g.seconds), bench::ms(f.seconds),
           Table::num(g.seconds / f.seconds, 1) + "x",
           format_bytes(g.perf.ext.read_bytes),
           format_bytes(f.perf.ext.read_bytes),
           Table::num(gbp_flops / ffbp_flops, 1) + "x"});
    csv.row_numeric({static_cast<double>(n), g.seconds * 1e3,
                     f.seconds * 1e3, g.seconds / f.seconds,
                     static_cast<double>(g.perf.ext.read_bytes) / 1e6,
                     static_cast<double>(f.perf.ext.read_bytes) / 1e6});
  }

  // Manifest for the largest aperture plus sweep-level engine throughput.
  const auto& head = results.back();
  telemetry::RunManifest man("crossover_gbp_ffbp");
  // Headline energy evidence is the FFBP leg; the GBP totals ride along
  // as plain results so the energy advantage is visible in the diff.
  ep::fill_manifest(man, head.f);
  // One leg's registry would not describe the pair, so the manifest's
  // holds only the sweep's engine gauges (add_engine_stats below).
  telemetry::MetricsRegistry engine;
  man.set_metrics(&engine);
  bench::add_energy_per_pixel(man, head.f,
                              static_cast<double>(sizes.back()) * 161.0);
  man.add_result("gbp_seconds", head.g.seconds);
  man.add_result("ffbp_seconds", head.f.seconds);
  man.add_result("ffbp_advantage", head.g.seconds / head.f.seconds);
  man.add_result("gbp_energy_j", head.g.energy.total_j());
  man.add_result("energy_advantage",
                 head.g.energy.total_j() / head.f.energy.total_j());
  // FNV-1a of the headline GBP image, split into two exactly
  // representable doubles like fault_sweep's schedule_hash_hi/lo: pins
  // every byte GBP produces, carrier phase included.
  const std::uint64_t gbp_hash = fault::FaultInjector::checksum(
      head.g.image.data(), head.g.image.size() * sizeof(cf32));
  man.add_result("gbp_image_checksum_hi",
                 static_cast<double>(gbp_hash >> 32));
  man.add_result("gbp_image_checksum_lo",
                 static_cast<double>(gbp_hash & 0xffffffffULL));
  man.add_workload("n_pulses", static_cast<double>(sizes.back()));
  man.add_workload("n_range", 161.0);
  man.add_workload("fast_mode", bench::fast_mode() ? 1.0 : 0.0);
  // Per-point event counts for both legs (each exactly representable in a
  // double, unlike a giant uint64 total converted once) plus the sweep
  // total, fault_sweep's "p<i>." key convention.
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::string pfx = "engine_events.p" + std::to_string(i);
    man.add_result(pfx + ".gbp",
                   static_cast<double>(results[i].g.perf.engine_events));
    man.add_result(pfx + ".ffbp",
                   static_cast<double>(results[i].f.perf.engine_events));
  }
  bench::add_engine_stats(man, &engine, events, sweep_s, pool.jobs());
  bench::write_manifest(man);

  t.note("FFBP's advantage grows ~N/log2(N): the reason time-domain SAR "
         "needs factorisation to be real-time capable (paper Section I)");
  t.print(std::cout);
  return 0;
}

int main() { return esarp::bench::guarded_main("crossover_gbp_ffbp", bench_body); }
