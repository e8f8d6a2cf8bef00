// Reproduces the paper's Section V-A scalability claim: coarse-grained
// data partitioning of the FFBP output "gives us natural scalability by
// increasing the number of compute nodes". Sweeps the SPMD mapping over
// 1..16 cores on the paper-size workload.
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "core/ffbp_epiphany.hpp"
#include "epiphany/machine_metrics.hpp"

static int bench_body() {
  using namespace esarp;
  const auto w = bench::make_paper_workload();

  // The core counts are independent simulations of the same workload:
  // fan out across host threads (ESARP_JOBS); gathered by sweep index.
  const std::vector<int> core_counts = {1, 2, 4, 8, 16};
  host::SweepRunner pool(bench::sweep_jobs());
  std::cerr << "simulating " << core_counts.size()
            << " core counts (" << pool.jobs() << " host thread(s))...\n";
  WallTimer sweep_timer;
  auto results = pool.run(core_counts.size(), [&](std::size_t i) {
    core::FfbpMapOptions opt;
    opt.n_cores = core_counts[i];
    return core::run_ffbp_epiphany(w.data, w.params, opt,
                                   bench::power_chip());
  });
  const double sweep_s = sweep_timer.elapsed_s();

  // Manifest for the 16-core configuration plus sweep-level engine
  // throughput (docs/performance.md).
  auto& head = results.back();
  telemetry::RunManifest man("scaling_cores");
  bench::Report rep(man);
  auto& t = rep.sheet("FFBP SPMD scaling over Epiphany cores",
                      {{"Cores", "cores", bench::kCount},
                       {"Time (ms)", "seconds", bench::kMs},
                       {"Speedup vs 1 core", "speedup"},
                       {"Efficiency", "efficiency", bench::kPercent},
                       {"Avg power (W)", "power_w"},
                       {"Energy (mJ)", "energy_j", {1, 1e3}}});
  const double t1 = results.front().seconds;
  std::uint64_t events = 0;
  for (std::size_t i = 0; i < core_counts.size(); ++i) {
    const auto& res = results[i];
    events += res.perf.engine_events;
    const double sp = t1 / res.seconds;
    t.row({core_counts[i], res.seconds, sp, sp / core_counts[i],
           res.energy.avg_watts, res.energy.total_j()});
  }
  t.note("all configurations DMA-prefetch child rows; the 1-core row is "
         "the prefetching mapping, not the naive sequential version of "
         "Table I");
  t.note("sub-linear scaling at high core counts reflects the shared "
         "8 GB/s eLink and prefetch misses at late merge levels");

  ep::fill_manifest(man, head);
  bench::add_workload(man, w.params);
  man.add_workload("n_cores", 16.0);
  bench::add_engine_stats(man, &head.metrics, events, sweep_s,
                          pool.jobs());
  bench::add_energy_per_pixel(
      man, head, static_cast<double>(w.params.n_pulses * w.params.n_range));
  return rep.finish();
}

int main() { return esarp::bench::guarded_main("scaling_cores", bench_body); }
