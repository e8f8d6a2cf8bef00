// Fleet degradation curve (docs/serving.md): offered load x chip-failure
// rate -> tail latency, SLO attainment and energy per image, on a 4-chip
// serve fleet replaying seeded Poisson traces. The interesting structure:
// at low load a chip kill only costs the killed job its retry, while past
// saturation the retry + migration traffic compounds queueing delay, so
// the p99 curve bends much harder under chaos than the mean does.
//
// The offered rates are expressed as multiples of fleet capacity, which
// is calibrated from a clean single-job campaign — the bench stays
// meaningful when the simulated chip gets faster. Everything is seeded:
// same build, same manifest, and CI diffs two back-to-back runs at zero
// tolerance (with the latency band pinned to 0).
//
// A second cell keeps the degradation ladder honest: under DMA corruption
// heavy enough that a full-size attempt rarely verifies, it replays one
// trace over eight chaos seeds with the ladder (3 attempts x 3 quality
// levels) and with a flat budget of the same 9 full-size attempts. The
// bench exits 1 unless the ladder completes every seed and the flat
// budget aborts at least once — the outcome the ladder exists to change.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "fault/plan.hpp"
#include "serve/fleet.hpp"
#include "serve/trace.hpp"

static int bench_body() {
  using namespace esarp;
  const bool fast = bench::fast_mode();
  constexpr int kChips = 4;
  constexpr std::uint64_t kSeed = 2026;

  serve::TraceParams base;
  base.n_jobs = fast ? 12 : 24;
  base.seed = kSeed;
  base.n_pulses = fast ? 32 : 64;
  base.n_range = fast ? 65 : 101;
  base.n_cores = 16;

  // Calibrate fleet capacity from one clean job, then express load points
  // as multiples of it. The deadline gives headroom for one retry at low
  // load but not for deep queueing.
  const auto clean_service_s = [](serve::TraceParams one) {
    serve::FleetConfig calib_cfg;
    calib_cfg.n_chips = 1;
    one.n_jobs = 1;
    one.rate_hz = 1.0;
    return serve::Fleet(calib_cfg).run(serve::make_trace(one)).latency_p50_s;
  };
  const double service_s = clean_service_s(base);
  const double capacity_hz = static_cast<double>(kChips) / service_s;
  base.deadline_s = 4.0 * service_s;

  struct Point {
    double load;      ///< offered rate / fleet capacity
    double kill_rate; ///< per-dispatch whole-chip fail-stop probability
  };
  std::vector<Point> points;
  for (const double load : {0.5, 1.0, 2.0})
    for (const double kill : {0.0, 0.05, 0.15}) points.push_back({load, kill});

  host::SweepRunner pool(bench::sweep_jobs());
  std::cerr << "fleet serve: " << points.size() << " campaign(s) of "
            << base.n_jobs << " job(s) on " << kChips << " chip(s) ("
            << pool.jobs() << " host thread(s))...\n";
  WallTimer sweep_timer;
  auto reports = pool.run(points.size(), [&](std::size_t i) {
    serve::TraceParams tp = base;
    tp.rate_hz = points[i].load * capacity_hz;
    serve::FleetConfig cfg;
    cfg.n_chips = kChips;
    cfg.chaos.seed = kSeed + i;
    cfg.chaos.chip_kill_rate = points[i].kill_rate;
    cfg.chaos.dma_corrupt_rate = points[i].kill_rate > 0.0 ? 1e-6 : 0.0;
    cfg.host_jobs = 1; // outer sweep owns the parallelism
    return serve::Fleet(cfg).run(serve::make_trace(tp));
  });
  const double sweep_s = sweep_timer.elapsed_s();

  Table t("SAR-as-a-service degradation curve (" + std::to_string(kChips) +
          " chips, seed " + std::to_string(kSeed) + ")");
  t.header({"Load", "Kill rate", "p99 (ms)", "SLO", "Retry", "Migr.",
            "Degr.", "Kills", "mJ/image"});
  CsvWriter csv(bench::out_dir() / "fleet_serve.csv",
                {"load", "kill_rate", "latency_p99_s", "slo_attainment",
                 "retries", "migrations", "degradations", "chip_kills",
                 "energy_per_image_j"});

  telemetry::RunManifest man("fleet_serve");
  bool all_served = true;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& rep = reports[i];
    const auto& c = rep.counters;
    all_served = all_served && c.jobs_lost == 0 &&
                 c.jobs_met + c.jobs_late + c.jobs_degraded == c.jobs_total;
    t.row({Table::num(points[i].load, 2), Table::num(points[i].kill_rate, 2),
           Table::num(rep.latency_p99_s * 1e3, 3),
           Table::num(rep.slo_attainment, 3),
           Table::num(static_cast<double>(c.retries), 0),
           Table::num(static_cast<double>(c.migrations), 0),
           Table::num(static_cast<double>(c.degradations), 0),
           Table::num(static_cast<double>(c.chip_kills), 0),
           Table::num(rep.energy_per_image_j * 1e3, 4)});
    csv.row_numeric({points[i].load, points[i].kill_rate, rep.latency_p99_s,
                     rep.slo_attainment, static_cast<double>(c.retries),
                     static_cast<double>(c.migrations),
                     static_cast<double>(c.degradations),
                     static_cast<double>(c.chip_kills),
                     rep.energy_per_image_j});
    const std::string p =
        std::string("p").append(std::to_string(i)).append(".");
    man.add_result(p + "latency_p99_s", rep.latency_p99_s);
    man.add_result(p + "slo_attainment", rep.slo_attainment);
    man.add_result(p + "energy_per_image_j", rep.energy_per_image_j);
    man.add_result(p + "retries", static_cast<double>(c.retries));
    man.add_result(p + "migrations", static_cast<double>(c.migrations));
    man.add_result(p + "degradations", static_cast<double>(c.degradations));
    man.add_result(p + "chip_kills", static_cast<double>(c.chip_kills));
    man.add_result(p + "schedule_hash_hi",
                   static_cast<double>(rep.schedule_hash >> 32));
    man.add_result(p + "schedule_hash_lo",
                   static_cast<double>(rep.schedule_hash & 0xffffffffULL));
  }

  // Headline: the saturated-but-surviving point (load 1.0, kill 0.05).
  const auto& head = reports[4];
  man.add_result("latency_p50_s", head.latency_p50_s);
  man.add_result("latency_p99_s", head.latency_p99_s);
  man.add_result("slo_attainment", head.slo_attainment);
  man.add_result("throughput_jobs_per_s", head.throughput_jobs_per_s);
  man.add_result("energy_per_image_j", head.energy_per_image_j);
  man.add_workload("n_jobs", static_cast<double>(base.n_jobs));
  man.add_workload("n_chips", static_cast<double>(kChips));
  man.add_workload("n_pulses", static_cast<double>(base.n_pulses));
  man.add_workload("n_range", static_cast<double>(base.n_range));
  man.add_workload("seed", static_cast<double>(kSeed));
  man.add_workload("service_s", service_s);
  man.add_workload("deadline_s", base.deadline_s);

  t.note("rates are multiples of calibrated fleet capacity (" +
         Table::num(capacity_hz, 1) + " jobs/s); deadline 4x service time");
  t.note(all_served ? "every campaign terminated every job: zero lost jobs "
                      "across " +
                          std::to_string(points.size()) + " grid points"
                    : "WARNING: a campaign lost jobs");
  t.note("host sweep wall time " + Table::num(sweep_s, 2) + " s");
  t.print(std::cout);

  // Ladder cell, the same in fast and full mode: 64 pulses is the smallest
  // size on 16 cores whose first halving shrinks the aperture.
  constexpr double kCorrupt = 0.17;
  constexpr std::uint64_t kLadderSeeds = 8;
  serve::TraceParams lt;
  lt.n_jobs = 12;
  lt.seed = kSeed;
  lt.n_pulses = 64;
  lt.n_range = 65;
  lt.n_cores = 16;
  const double ladder_service_s = clean_service_s(lt);
  lt.rate_hz = 0.5 * static_cast<double>(kChips) / ladder_service_s;
  lt.deadline_s = 4.0 * ladder_service_s;
  const serve::ArrivalTrace ladder_trace = serve::make_trace(lt);
  struct LadderRun {
    bool aborted = false;
    double slo = 0.0; ///< an aborted campaign delivers nothing: SLO 0
  };
  // Even index: the ladder (3 attempts, 2 halvings); odd: the flat budget.
  const auto runs = pool.run(2 * kLadderSeeds, [&](std::size_t i) {
    serve::FleetConfig cfg;
    cfg.n_chips = kChips;
    cfg.host_jobs = 1;
    const bool ladder = i % 2 == 0;
    cfg.policy.max_attempts = ladder ? 3 : 9;
    cfg.policy.max_degrade = ladder ? 2 : 0;
    cfg.chaos.seed = kSeed + i / 2;
    cfg.chaos.dma_corrupt_rate = kCorrupt;
    LadderRun r;
    try {
      r.slo = serve::Fleet(cfg).run(ladder_trace).slo_attainment;
    } catch (const fault::FaultUnrecovered&) {
      r.aborted = true;
    }
    return r;
  });

  Table lt_table("Degradation ladder vs flat retry budget (" +
                 std::to_string(lt.n_jobs) + " jobs of 64x65, DMA "
                 "corruption " + Table::num(kCorrupt, 2) + ")");
  lt_table.header({"Chaos seed", "Ladder SLO", "Flat SLO"});
  const auto record = [&](const std::string& policy, const std::string& seed,
                          const LadderRun& r) {
    const std::string p = policy + ".s" + seed + ".";
    man.add_result(p + "aborted", r.aborted ? 1.0 : 0.0);
    man.add_result(p + "slo_attainment", r.slo);
    return r.aborted ? std::string("abort") : Table::num(r.slo, 3);
  };
  std::uint64_t ladder_aborts = 0;
  std::uint64_t flat_aborts = 0;
  for (std::uint64_t k = 0; k < kLadderSeeds; ++k) {
    const std::string seed = std::to_string(kSeed + k);
    const LadderRun& ladder = runs[2 * k];
    const LadderRun& flat = runs[2 * k + 1];
    ladder_aborts += ladder.aborted ? 1 : 0;
    flat_aborts += flat.aborted ? 1 : 0;
    lt_table.row({seed, record("ladder", seed, ladder),
                  record("flat", seed, flat)});
  }
  man.add_result("ladder.aborts", static_cast<double>(ladder_aborts));
  man.add_result("flat.aborts", static_cast<double>(flat_aborts));
  bench::write_manifest(man);
  const bool ladder_earns_its_place = ladder_aborts == 0 && flat_aborts > 0;
  lt_table.note("ladder: 3 attempts x 3 quality levels; flat: 9 full-size "
                "attempts; an abort is a FaultUnrecovered campaign");
  lt_table.note(ladder_earns_its_place
                    ? "the ladder completes all " +
                          std::to_string(kLadderSeeds) +
                          " seeds; the flat budget aborts " +
                          std::to_string(flat_aborts)
                    : "WARNING: the ladder no longer changes an outcome");
  lt_table.print(std::cout);
  return all_served && ladder_earns_its_place ? 0 : 1;
}

int main() { return esarp::bench::guarded_main("fleet_serve", bench_body); }
