// Reproduces Table I (FFBP rows): execution time, speedup and estimated
// power for (1) the sequential Intel i7-M620 reference, (2) sequential
// FFBP on one Epiphany core, (3) 16-core SPMD FFBP on Epiphany.
//
// The Intel time comes from the analytic Westmere model driven by the
// counted work of the reference implementation; the Epiphany times come
// from the discrete-event chip simulation. The native wall-clock time of
// the reference run on this machine is shown for context only.
#include <cstdint>
#include <iostream>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "core/ffbp_epiphany.hpp"
#include "epiphany/energy.hpp"
#include "epiphany/machine_metrics.hpp"
#include "fault/injector.hpp"
#include "hostmodel/host_model.hpp"
#include "sar/ffbp.hpp"

static int bench_body() {
  using namespace esarp;
  const auto w = bench::make_paper_workload();

  // --- Sequential reference (Intel i7-M620 @ 2.67 GHz model). ---
  std::cerr << "running host-reference FFBP...\n";
  WallTimer timer;
  const auto host_res = sar::ffbp(w.data, w.params);
  const double native_s = timer.elapsed_s();
  const host::HostModel intel;
  const double intel_s = intel.seconds(host_res.host_work);

  // --- Sequential on one simulated Epiphany core @ 1 GHz. ---
  std::cerr << "simulating sequential Epiphany FFBP...\n";
  const auto seq = core::run_ffbp_sequential_epiphany(w.data, w.params);

  // --- Parallel SPMD on 16 simulated cores. ---
  std::cerr << "simulating 16-core SPMD FFBP...\n";
  core::FfbpMapOptions opt;
  opt.n_cores = 16;
  const auto par =
      core::run_ffbp_epiphany(w.data, w.params, opt, bench::power_chip());

  Table t("Table I (FFBP): resources, performance, estimated power");
  t.header({"Implementation", "Cores", "Time (ms)", "Speedup",
            "Power (W)", "Paper time", "Paper speedup"});
  t.row({"Sequential on Intel i7 @ 2.67 GHz", "1", bench::ms(intel_s),
         "1.00", "17.5", "1295 ms", "1"});
  t.row({"Sequential on Epiphany @ 1 GHz", "1", bench::ms(seq.seconds),
         bench::speedup(intel_s, seq.seconds),
         Table::num(seq.energy.avg_watts, 2), "3582 ms", "0.36"});
  t.row({"Parallel on Epiphany @ 1 GHz", "16", bench::ms(par.seconds),
         bench::speedup(intel_s, par.seconds),
         Table::num(par.energy.avg_watts, 2), "305 ms", "4.25"});
  t.note("image " + std::to_string(w.params.n_pulses) + "x" +
         std::to_string(w.params.n_range) + ", merge base 2, " +
         std::to_string(w.params.merge_levels()) +
         " iterations, nearest-neighbour interpolation");
  t.note("parallel vs sequential-Epiphany: " +
         Table::num(seq.seconds / par.seconds, 1) + "x (paper: 11.7x)");
  t.note("native host wall time of the reference run: " +
         format_seconds(native_s) + " (informational)");
  t.print(std::cout);

  std::cout << "\n-- simulated parallel run details --\n"
            << par.perf.summary() << par.energy.summary() << "\n";
  std::cout << par.power.profile.table();

  CsvWriter csv(bench::out_dir() / "table1_ffbp.csv",
                {"impl", "cores", "time_ms", "speedup", "power_w"});
  csv.row({"intel_seq", "1", Table::num(intel_s * 1e3, 3), "1.0", "17.5"});
  csv.row({"epiphany_seq", "1", Table::num(seq.seconds * 1e3, 3),
           Table::num(intel_s / seq.seconds, 4),
           Table::num(seq.energy.avg_watts, 3)});
  csv.row({"epiphany_par", "16", Table::num(par.seconds * 1e3, 3),
           Table::num(intel_s / par.seconds, 4),
           Table::num(par.energy.avg_watts, 3)});

  // Machine-readable evidence for the headline (16-core SPMD) run.
  telemetry::RunManifest man("table1_ffbp");
  ep::fill_manifest(man, par.perf, par.energy);
  bench::add_workload(man, w.params);
  man.add_workload("n_cores", 16.0);
  man.add_result("intel_seconds", intel_s);
  man.add_result("seq_epiphany_seconds", seq.seconds);
  man.add_result("speedup_vs_intel", intel_s / par.seconds);
  // FNV-1a of the 16-core image, split into two exactly representable
  // doubles like crossover_gbp_ffbp's gbp_image_checksum_hi/lo: pins every
  // byte the merge kernels produce at this size, on every kernel backend.
  const std::uint64_t image_hash = fault::FaultInjector::checksum(
      par.image.data(), par.image.size() * sizeof(cf32));
  man.add_result("ffbp_image_checksum_hi",
                 static_cast<double>(image_hash >> 32));
  man.add_result("ffbp_image_checksum_lo",
                 static_cast<double>(image_hash & 0xffffffffULL));
  bench::add_power_results(
      man, par.power,
      static_cast<double>(w.params.n_pulses * w.params.n_range));
  man.set_metrics(&par.metrics);
  bench::write_manifest(man);
  return 0;
}

int main() { return esarp::bench::guarded_main("table1_ffbp", bench_body); }
