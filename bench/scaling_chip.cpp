// The paper's closing remark: "a 64-core Epiphany chip is now available"
// — and its programming-effort warning about scaling MPMD. This bench
// takes the SPMD FFBP (which the paper argues scales naturally) from the
// 16-core E16G3 to an E64G4-class 8x8 chip (64 cores, 800 MHz, 65 nm)
// and reports where the shared 8 GB/s eLink starts to cap the speedup.
//
// The per-chip simulations are independent, so they fan out across host
// threads via host::SweepRunner (ESARP_JOBS); results are gathered by
// sweep index and are byte-identical for any thread count.
#include <iostream>

#include "bench_util.hpp"
#include "core/ffbp_epiphany.hpp"
#include "epiphany/machine_metrics.hpp"

static int bench_body() {
  using namespace esarp;
  const auto w = bench::make_paper_workload();

  struct Chip {
    const char* name;
    ep::ChipConfig cfg;
    int cores;
  };
  ep::ChipConfig e16;
  ep::ChipConfig e64;
  e64.rows = 8;
  e64.cols = 8;
  e64.clock_hz = 800e6; // E64G4 spec clock
  const std::vector<Chip> chips = {
      {"E16G3 4x4 @ 1 GHz", bench::power_chip(e16), 16},
      {"E64G4 8x8 @ 800 MHz", bench::power_chip(e64), 64},
  };

  host::SweepRunner pool(bench::sweep_jobs());
  std::cerr << "simulating " << chips.size() << " chip configurations ("
            << pool.jobs() << " host thread(s))...\n";
  WallTimer sweep_timer;
  auto results = pool.run(chips.size(), [&](std::size_t i) {
    core::FfbpMapOptions opt;
    opt.n_cores = chips[i].cores;
    return core::run_ffbp_epiphany(w.data, w.params, opt, chips[i].cfg);
  });
  const double sweep_s = sweep_timer.elapsed_s();

  // Manifest for the headline (E64) configuration plus sweep-level engine
  // throughput (docs/performance.md).
  auto& e64_res = results.back();
  telemetry::RunManifest man("scaling_chip");
  bench::Report rep(man);
  auto& t = rep.sheet("FFBP SPMD across Epiphany generations",
                      {{"Chip", "chip"},
                       {"Cores", "cores", bench::kCount},
                       {"Time (ms)", "seconds", bench::kMs},
                       {"Speedup vs E16", "speedup"},
                       {"Core util.", "util", bench::kPercent},
                       {"eLink read util.", "elink_util", bench::kPercent},
                       {"Avg power (W)", "power_w"}});
  const double t16 = results.front().seconds;
  std::uint64_t events = 0;
  for (std::size_t i = 0; i < chips.size(); ++i) {
    const Chip& chip = chips[i];
    const auto& res = results[i];
    events += res.perf.engine_events;
    // eLink read-channel utilisation: serialised read cycles / makespan.
    const double elink_util =
        static_cast<double>(res.perf.ext.read_bytes) /
        static_cast<double>(chip.cfg.elink_bytes_per_cycle) /
        static_cast<double>(res.cycles);
    t.row({chip.name, chip.cores, res.seconds, t16 / res.seconds,
           res.perf.utilization(), elink_util, res.energy.avg_watts});
    // Per-point event counts (exactly representable in a double point by
    // point, unlike a giant uint64 total converted once) plus the sweep
    // total, fault_sweep's "p<i>." key convention.
    man.add_result("engine_events.p" + std::to_string(i),
                   static_cast<double>(res.perf.engine_events));
  }
  t.note("same SPMD source scales to the larger chip unchanged (the SPMD "
         "productivity argument of Section VI-B); the eLink becomes the "
         "limiter as core count quadruples while off-chip bandwidth stays "
         "at 8 GB/s");

  ep::fill_manifest(man, e64_res);
  bench::add_workload(man, w.params);
  man.add_workload("n_cores", 64.0);
  bench::add_engine_stats(man, &e64_res.metrics, events, sweep_s,
                          pool.jobs());
  bench::add_energy_per_pixel(
      man, e64_res, static_cast<double>(w.params.n_pulses * w.params.n_range));
  return rep.finish();
}

int main() { return esarp::bench::guarded_main("scaling_chip", bench_body); }
