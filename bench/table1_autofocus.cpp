// Reproduces Table I (autofocus rows): throughput in criterion-pixels per
// second, speedup, and estimated power for (1) the sequential Intel
// reference (model), (2) sequential on one Epiphany core, (3) the 13-core
// MPMD streaming pipeline.
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/autofocus_epiphany.hpp"
#include "epiphany/machine_metrics.hpp"
#include "hostmodel/host_model.hpp"
#include "autofocus/criterion.hpp"
#include "autofocus/workload.hpp"

static int bench_body() {
  using namespace esarp;
  af::AfParams p;
  const std::size_t n_pairs = bench::fast_mode() ? 16 : 64;

  Rng rng(20130801); // ICPP'13
  std::vector<af::BlockPair> pairs;
  for (std::size_t i = 0; i < n_pairs; ++i)
    pairs.push_back(
        af::synthetic_block_pair(rng, p, rng.uniform_f(-0.6f, 0.6f)));

  // --- Sequential reference on the Intel model. ---
  std::cerr << "running host-reference criterion sweeps...\n";
  WallTimer timer;
  host::HostWork total_work;
  for (const auto& bp : pairs)
    total_work += af::criterion_sweep(bp.minus, bp.plus, p).host_work;
  const double native_s = timer.elapsed_s();
  const host::HostModel intel;
  const double intel_s = intel.seconds(total_work);
  const double pixels = static_cast<double>(n_pairs * p.pixels());
  const double intel_tp = pixels / intel_s;

  // --- Sequential on one simulated Epiphany core. ---
  std::cerr << "simulating sequential Epiphany autofocus...\n";
  const auto seq = core::run_autofocus_sequential_epiphany(pairs, p);

  // --- 13-core MPMD pipeline. ---
  std::cerr << "simulating 13-core MPMD autofocus pipeline...\n";
  const auto par =
      core::run_autofocus_mpmd(pairs, p, {}, bench::power_chip());
  const double speedup = par.pixels_per_second / intel_tp;

  std::cout << "\n-- simulated pipeline details --\n"
            << par.perf.summary() << par.energy.summary() << "\n";
  std::cout << par.power.profile.table();

  telemetry::RunManifest man("table1_autofocus");
  bench::Report rep(man);
  auto& t = rep.sheet(
      "Table I (Autofocus): throughput, speedup, estimated power",
      {{"Implementation", "impl"},
       {"Cores", "cores", bench::kCount},
       {"Throughput (px/s)", "px_per_s", bench::kPxRate, bench::kResult},
       {"Speedup", "speedup"},
       {"Power (W)", "power_w"},
       {"Paper px/s", "paper_px_per_s", bench::kCount},
       {"Paper speedup", "paper_speedup"}});
  t.row({"Sequential on Intel i7 @ 2.67 GHz", 1, intel_tp, 1.0,
         intel.params().watts, 21600, 1.0});
  t.row("seq_", {"Sequential on Epiphany @ 1 GHz", 1, seq.pixels_per_second,
                 seq.pixels_per_second / intel_tp, seq.energy.avg_watts,
                 17668, 0.8});
  t.row({"Parallel on Epiphany @ 1 GHz", 13, par.pixels_per_second, speedup,
         par.energy.avg_watts, 192857, 8.93});
  t.note(std::to_string(n_pairs) + " block pairs of 6x6 px, " +
         std::to_string(p.shift_candidates.size()) +
         " candidate shifts, cubic Neville interpolation, 3 windows");
  t.note("parallel vs sequential-Epiphany: " +
         Table::num(par.pixels_per_second / seq.pixels_per_second, 1) +
         "x (paper: 10.9x)");
  t.note("native host wall time of the reference sweeps: " +
         format_seconds(native_s) + " (informational)");

  // Machine-readable evidence for the headline (13-core MPMD) run.
  ep::fill_manifest(man, par);
  man.add_workload("n_pairs", static_cast<double>(n_pairs));
  man.add_workload("block_rows", static_cast<double>(p.block_rows));
  man.add_workload("block_cols", static_cast<double>(p.block_cols));
  man.add_workload("fast_mode", bench::fast_mode() ? 1.0 : 0.0);
  man.add_result("pixels_per_second", par.pixels_per_second);
  man.add_result("speedup_vs_intel", speedup);
  // Pins every criterion bit of the 13-core pipeline at this size, so a
  // rounding drift in the range or beam stage fails the baseline compare.
  bench::add_hash(man, "criteria_checksum",
                  bench::criteria_checksum(par.criteria));
  bench::add_energy_per_pixel(man, par, pixels);
  return rep.finish();
}

int main() { return esarp::bench::guarded_main("table1_autofocus", bench_body); }
