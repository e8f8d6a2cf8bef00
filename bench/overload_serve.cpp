// Overload-control policy sweep (docs/serving.md "Overload control"):
// offered load x dispatch/shedding policy -> SLO attainment, shed
// and late counts, tail latency — on a 4-chip fleet replaying seeded
// bursty traces with heterogeneous deadlines and a low/normal/high
// priority mix. The interesting structure: below saturation every policy
// looks the same, but past it FIFO burns chip time on jobs that are
// already doomed while EDF + admission control spends the same capacity
// on jobs that can still meet their deadlines — so the SLO curves cross
// hard at overload, which this bench asserts (and CI gates).
//
// Offered rates are multiples of calibrated fleet capacity (same scheme
// as fleet_serve.cpp), so the bench stays meaningful when the simulated
// chip gets faster. Everything is seeded and deterministic: same build,
// same manifest, zero-tolerance CI diffs.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "serve/fleet.hpp"
#include "serve/trace.hpp"

static int bench_body() {
  using namespace esarp;
  const bool fast = bench::fast_mode();
  constexpr int kChips = 4;
  constexpr std::uint64_t kSeed = 2027;

  serve::TraceParams base;
  base.n_jobs = fast ? 32 : 64;
  base.bursty = true;
  base.burst_mean = 4.0;
  base.seed = kSeed;
  base.n_pulses = fast ? 32 : 64;
  base.n_range = fast ? 65 : 101;
  base.n_cores = 16;
  base.frac_low = 0.3;
  base.frac_high = 0.2;
  base.deadline_jitter = 0.7;

  // Calibrate fleet capacity from one clean job. The deadline (3x the
  // mean service time, spread by the jitter) tolerates a short queue but
  // not a deep one — the regime where dispatch order and admission
  // control actually matter.
  serve::FleetConfig calib_cfg;
  calib_cfg.n_chips = 1;
  serve::TraceParams one = base;
  one.n_jobs = 1;
  one.bursty = false;
  one.rate_hz = 1.0;
  const double service_s =
      serve::Fleet(calib_cfg).run(serve::make_trace(one)).latency_p50_s;
  const double capacity_hz = static_cast<double>(kChips) / service_s;
  base.deadline_s = 3.0 * service_s;

  struct Policy {
    const char* name;
    serve::DispatchOrder dispatch;
    bool shed;
  };
  const std::vector<Policy> policies = {
      {"fifo", serve::DispatchOrder::kFifo, false},
      {"edf", serve::DispatchOrder::kEdf, false},
      {"edf+shed", serve::DispatchOrder::kEdf, true},
  };
  const std::vector<double> loads = {0.8, 1.4, 2.0};

  struct Point {
    double load;
    std::size_t policy;
  };
  std::vector<Point> points;
  for (const double load : loads)
    for (std::size_t p = 0; p < policies.size(); ++p)
      points.push_back({load, p});

  host::SweepRunner pool(bench::sweep_jobs());
  std::cerr << "overload serve: " << points.size() << " campaign(s) of "
            << base.n_jobs << " job(s) on " << kChips << " chip(s) ("
            << pool.jobs() << " host thread(s))...\n";
  WallTimer sweep_timer;
  auto reports = pool.run(points.size(), [&](std::size_t i) {
    serve::TraceParams tp = base;
    tp.rate_hz = points[i].load * capacity_hz;
    const Policy& pol = policies[points[i].policy];
    serve::FleetConfig cfg;
    cfg.n_chips = kChips;
    cfg.chaos.seed = kSeed;
    cfg.policy.dispatch = pol.dispatch;
    cfg.policy.shed.enabled = pol.shed;
    cfg.host_jobs = 1; // outer sweep owns the parallelism
    return serve::Fleet(cfg).run(serve::make_trace(tp));
  });
  const double sweep_s = sweep_timer.elapsed_s();

  telemetry::RunManifest man("overload_serve");
  bench::Report rep(man);
  auto& t = rep.sheet("Overload-control policy sweep (" +
                          std::to_string(kChips) + " chips, seed " +
                          std::to_string(kSeed) + ")",
                      {{"Load", "load"},
                       {"Policy", "policy"},
                       {"SLO", "slo_attainment", {3}, bench::kResult},
                       {"Met", "jobs_met", bench::kCount, bench::kResult},
                       {"Late", "jobs_late", bench::kCount, bench::kResult},
                       {"Shed", "jobs_shed", bench::kCount, bench::kResult},
                       {"p99 (us)", "latency_p99_s", {1, 1e6},
                        bench::kResult}});
  bool accounted = true;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& res = reports[i];
    const auto& c = res.counters;
    // The zero-lost invariant, extended: a shed is an explicit terminal
    // state, so the four terminal counters must still tile the trace.
    accounted = accounted && c.jobs_lost == 0 &&
                c.jobs_met + c.jobs_late + c.jobs_degraded + c.jobs_shed ==
                    c.jobs_total;
    const Policy& pol = policies[points[i].policy];
    const std::string p = std::string("l")
                              .append(Table::num(points[i].load, 1))
                              .append(".")
                              .append(pol.name)
                              .append(".");
    t.row(p, {points[i].load, pol.name, res.slo_attainment, c.jobs_met,
              c.jobs_late, c.jobs_shed, res.latency_p99_s});
    bench::add_hash(man, p + "schedule_hash", res.schedule_hash);
  }

  // The headline claim: at the saturated point (load 1.4 — overloaded but
  // recoverable), EDF + admission control strictly beats FIFO/no-shed on
  // SLO attainment. The deepest point stays in the table ungated: past ~2x
  // capacity almost every job is doomed on arrival and no dispatch order
  // can buy the SLO back — shedding then only trades late for shed.
  const std::size_t sat_row = 1 * policies.size();
  const double fifo_slo = reports[sat_row].slo_attainment;
  const double shed_slo = reports[sat_row + 2].slo_attainment;
  man.add_result("overload_fifo_slo", fifo_slo);
  man.add_result("overload_edf_shed_slo", shed_slo);
  man.add_result("shed_model_max_rel_err",
                 reports[sat_row + 2].shed_model_max_rel_err);
  man.add_workload("n_jobs", static_cast<double>(base.n_jobs));
  man.add_workload("n_chips", static_cast<double>(kChips));
  man.add_workload("n_pulses", static_cast<double>(base.n_pulses));
  man.add_workload("n_range", static_cast<double>(base.n_range));
  man.add_workload("seed", static_cast<double>(kSeed));
  man.add_workload("service_s", service_s);
  man.add_workload("deadline_s", base.deadline_s);
  man.add_workload("deadline_jitter", base.deadline_jitter);

  t.note("rates are multiples of calibrated fleet capacity (" +
         Table::num(capacity_hz, 1) + " jobs/s); deadline 3x service time, "
         "jitter 0.7, priority mix 0.3/0.5/0.2");
  t.note("host sweep wall time " + Table::num(sweep_s, 2) + " s");
  rep.require("met + late + degraded + shed == total and zero lost jobs at "
              "every grid point",
              accounted);
  rep.require("overload crossover: edf+shed beats fifo on SLO at load " +
                  Table::num(loads[1], 1),
              shed_slo > fifo_slo);
  return rep.finish();
}

int main() { return esarp::bench::guarded_main("overload_serve", bench_body); }
