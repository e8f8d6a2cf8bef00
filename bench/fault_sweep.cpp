// Degradation curve under seeded fault injection (docs/fault-injection.md):
// the FFBP SPMD mapping swept across DMA fault rates, plus one fail-stop
// point. At every rate the resilient runtime must finish with the fault-free
// image bit-identical (all transfer faults recover exactly) while the
// makespan grows with the retry traffic — the curve this bench reports. The
// final point fail-stops a core mid-merge to show graceful degradation:
// survivors repartition the remaining rows instead of deadlocking.
//
// Everything here is cycle-deterministic: same seed, same schedule, same
// manifest — CI runs the sweep twice and diffs the manifests at zero
// tolerance.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "core/ffbp_epiphany.hpp"
#include "epiphany/machine_metrics.hpp"
#include "fault/injector.hpp"

namespace {

double image_rmse(const esarp::Array2D<esarp::cf32>& a,
                  const esarp::Array2D<esarp::cf32>& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = std::abs(a.flat()[i] - b.flat()[i]);
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(std::max<std::size_t>(
                             a.size(), 1)));
}

} // namespace

static int bench_body() {
  using namespace esarp;
  const auto w = bench::make_paper_workload();
  constexpr int kCores = 16;
  constexpr std::uint64_t kSeed = 2026;

  struct Point {
    const char* label;
    double dma_rate = 0.0; ///< split 2:1 between corrupt and drop
    bool fail_stop = false;
  };
  const std::vector<Point> points = {
      {"clean", 0.0},        {"1e-4", 1e-4}, {"3e-4", 3e-4},
      {"1e-3", 1e-3},        {"3e-3", 3e-3}, {"1e-2", 1e-2},
      {"fail-stop", 1e-4, true},
  };

  host::SweepRunner pool(bench::sweep_jobs());
  std::cerr << "fault sweep: " << points.size() << " campaign(s) ("
            << pool.jobs() << " host thread(s))...\n";
  WallTimer sweep_timer;
  auto results = pool.run(points.size(), [&](std::size_t i) {
    core::FfbpMapOptions opt;
    opt.n_cores = kCores;
    ep::ChipConfig cfg;
    cfg.power.enabled = true; // observes only; schedule hashes unchanged
    cfg.faults.seed = kSeed;
    cfg.faults.dma_corrupt_rate = points[i].dma_rate * 2.0 / 3.0;
    cfg.faults.dma_drop_rate = points[i].dma_rate / 3.0;
    if (points[i].fail_stop) {
      // Kill the last core a third of the way into the clean makespan —
      // deep enough that it owns finished rows, early enough that plenty
      // of its partition remains for the survivors to repartition.
      cfg.faults.fail_stops = {{kCores - 1, 100'000}};
    }
    return core::run_ffbp_epiphany(w.data, w.params, opt, cfg);
  });
  const double sweep_s = sweep_timer.elapsed_s();

  const auto& clean = results.front();
  Table t("FFBP under fault injection (seed " + std::to_string(kSeed) +
          ", " + std::to_string(kCores) + " cores)");
  t.header({"Campaign", "Time (ms)", "Slowdown", "Injected", "Retries",
            "Repart.", "Image RMSE"});
  CsvWriter csv(bench::out_dir() / "fault_sweep.csv",
                {"dma_rate", "fail_stops", "cycles", "slowdown", "injected",
                 "recovered", "retries", "repartitions", "rmse"});

  telemetry::RunManifest man("fault_sweep");
  std::uint64_t events = 0;
  bool all_recovered = true;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& res = results[i];
    const auto& f = res.faults;
    events += res.perf.engine_events;
    const double slowdown =
        static_cast<double>(res.cycles) / static_cast<double>(clean.cycles);
    const double rmse = image_rmse(res.image, clean.image);
    // Exact recovery == bit-identical image. Every faulted transfer must
    // also end in one recovery, with every faulty attempt retried (a
    // retry that faults again is a second detection, not a second
    // recovery); a fail-stop "recovers" by repartition (its detection has
    // no retry-style recovered counterpart).
    all_recovered =
        all_recovered && rmse == 0.0 &&
        (points[i].fail_stop
             ? f.repartitions > 0 && f.failed_cores == 1
             : fault::transfers_recovered(f) && f.failed_cores == 0);
    t.row({points[i].label, bench::ms(res.seconds), Table::num(slowdown, 3),
           Table::num(static_cast<double>(f.injected), 0),
           Table::num(static_cast<double>(f.retries), 0),
           Table::num(static_cast<double>(f.repartitions), 0),
           Table::num(rmse, 9)});
    csv.row_numeric({points[i].dma_rate,
                     static_cast<double>(points[i].fail_stop ? 1 : 0),
                     static_cast<double>(res.cycles), slowdown,
                     static_cast<double>(f.injected),
                     static_cast<double>(f.recovered),
                     static_cast<double>(f.retries),
                     static_cast<double>(f.repartitions), rmse});
    // Per-point results: every value deterministic, diffed by CI at zero
    // tolerance. Keys are prefixed by sweep index so the curve is ordered.
    const std::string p =
        std::string("p").append(std::to_string(i)).append(".");
    man.add_result(p + "cycles", static_cast<double>(res.cycles));
    man.add_result(p + "injected", static_cast<double>(f.injected));
    man.add_result(p + "recovered", static_cast<double>(f.recovered));
    man.add_result(p + "faulted_transfers",
                   static_cast<double>(f.faulted_transfers));
    man.add_result(p + "retries", static_cast<double>(f.retries));
    man.add_result(p + "repartitions", static_cast<double>(f.repartitions));
    man.add_result(p + "failed_cores", static_cast<double>(f.failed_cores));
    man.add_result(p + "rmse", rmse);
    man.add_result(p + "schedule_hash_hi",
                   static_cast<double>(f.schedule_hash >> 32));
    man.add_result(p + "schedule_hash_lo",
                   static_cast<double>(f.schedule_hash & 0xffffffffULL));
  }

  // Headline manifest entry: the last rate point before the fail-stop run.
  auto& head = results[points.size() - 2];
  ep::fill_manifest(man, head.perf, head.energy);
  bench::add_workload(man, w.params);
  man.add_workload("n_cores", static_cast<double>(kCores));
  man.add_workload("seed", static_cast<double>(kSeed));
  bench::add_engine_stats(man, &head.metrics, events, sweep_s, pool.jobs());
  bench::add_power_results(
      man, head.power,
      static_cast<double>(w.params.n_pulses * w.params.n_range));
  man.set_metrics(&head.metrics);
  bench::write_manifest(man);

  t.note(all_recovered
             ? "every campaign recovered exactly: all images bit-identical "
               "to the clean run, including the repartitioned fail-stop "
               "campaign"
             : "WARNING: some campaigns left faults unrecovered");
  t.note("fault campaigns assign output rows to cores interleaved (so "
         "survivors can repartition), which balances the merge levels "
         "slightly better than the clean run's contiguous partition — a "
         "sub-1.0 slowdown at low rates is that scheduling difference, "
         "not free recovery");
  t.print(std::cout);
  return all_recovered ? 0 : 1;
}

int main() { return esarp::bench::guarded_main("fault_sweep", bench_body); }
