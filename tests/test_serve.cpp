// Fleet runtime contract (docs/serving.md): seeded arrival traces
// round-trip through JSON and regenerate bit-identically; a clean
// campaign meets every deadline; chaos campaigns (whole-chip fail-stop +
// DMA corruption) finish with zero lost jobs and byte-identical same-seed
// manifests; an unservable fleet aborts with FaultUnrecovered instead of
// silently dropping work.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/json.hpp"
#include "fault/plan.hpp"
#include "serve/fleet.hpp"
#include "serve/trace.hpp"
#include "telemetry/compare.hpp"
#include "telemetry/manifest.hpp"
#include "temp_file.hpp"

namespace esarp {
namespace {

using serve::Algo;
using serve::ArrivalTrace;
using serve::Fleet;
using serve::FleetConfig;
using serve::JobState;
using serve::ServeReport;
using serve::TraceParams;

TraceParams small_trace_params(std::uint64_t seed = 5) {
  TraceParams p;
  p.n_jobs = 6;
  p.rate_hz = 2000.0;
  p.seed = seed;
  p.n_pulses = 32;
  p.n_range = 65;
  p.deadline_s = 0.01;
  return p;
}

FleetConfig small_fleet(int chips) {
  FleetConfig cfg;
  cfg.n_chips = chips;
  return cfg;
}

using tests::temp_file;

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// --- Trace generation -----------------------------------------------------

TEST(ArrivalTraceGen, SameParamsSameTrace) {
  const ArrivalTrace a = serve::make_trace(small_trace_params());
  const ArrivalTrace b = serve::make_trace(small_trace_params());
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].id, b.jobs[i].id);
    EXPECT_EQ(a.jobs[i].arrival_s, b.jobs[i].arrival_s);
  }
  const ArrivalTrace c = serve::make_trace(small_trace_params(6));
  bool differs = false;
  for (std::size_t i = 0; i < a.jobs.size(); ++i)
    differs = differs || a.jobs[i].arrival_s != c.jobs[i].arrival_s;
  EXPECT_TRUE(differs);
}

TEST(ArrivalTraceGen, PoissonTraceIsSortedWithDenseIds) {
  const ArrivalTrace t = serve::make_trace(small_trace_params());
  ASSERT_EQ(t.jobs.size(), 6u);
  for (std::size_t i = 0; i < t.jobs.size(); ++i) {
    EXPECT_EQ(t.jobs[i].id, i);
    EXPECT_GE(t.jobs[i].arrival_s, 0.0);
    if (i > 0) {
      EXPECT_GE(t.jobs[i].arrival_s, t.jobs[i - 1].arrival_s);
    }
  }
}

TEST(ArrivalTraceGen, BurstyTraceHasSameInstantArrivals) {
  TraceParams p = small_trace_params();
  p.n_jobs = 32;
  p.bursty = true;
  p.burst_mean = 4.0;
  const ArrivalTrace t = serve::make_trace(p);
  ASSERT_EQ(t.jobs.size(), 32u);
  std::size_t coincident = 0;
  for (std::size_t i = 1; i < t.jobs.size(); ++i)
    if (t.jobs[i].arrival_s == t.jobs[i - 1].arrival_s) ++coincident;
  EXPECT_GT(coincident, 0u); // bursts land at one instant so queues build
}

TEST(ArrivalTraceGen, RoundTripsThroughJson) {
  const ArrivalTrace t = serve::make_trace(small_trace_params());
  const auto path = temp_file("esarp_test_trace.json");
  serve::save_trace(path, t);
  const ArrivalTrace back = serve::load_trace(path);
  EXPECT_EQ(back.seed, t.seed);
  ASSERT_EQ(back.jobs.size(), t.jobs.size());
  for (std::size_t i = 0; i < t.jobs.size(); ++i) {
    EXPECT_EQ(back.jobs[i].id, t.jobs[i].id);
    EXPECT_EQ(back.jobs[i].arrival_s, t.jobs[i].arrival_s);
    EXPECT_EQ(back.jobs[i].n_pulses, t.jobs[i].n_pulses);
    EXPECT_EQ(back.jobs[i].n_range, t.jobs[i].n_range);
    EXPECT_EQ(back.jobs[i].algo, t.jobs[i].algo);
    EXPECT_EQ(back.jobs[i].n_cores, t.jobs[i].n_cores);
    EXPECT_EQ(back.jobs[i].deadline_s, t.jobs[i].deadline_s);
  }
  std::filesystem::remove(path);
}

TEST(ArrivalTraceGen, LoadRejectsWrongSchema) {
  const auto path = temp_file("esarp_test_bad_trace.json");
  std::ofstream(path) << R"({"schema":"esarp-run-manifest/1","jobs":[]})";
  EXPECT_THROW((void)serve::load_trace(path), ContractViolation);
  std::filesystem::remove(path);
}

TEST(ArrivalTraceGen, UnknownSchemaErrorNamesPathAndSupportedVersions) {
  // The rejection must tell the user what file broke and what the loader
  // actually speaks — both supported schema strings, verbatim.
  const auto path = temp_file("esarp_test_future_trace.json");
  std::ofstream(path)
      << R"({"schema":"esarp-arrival-trace/9","seed":1,"jobs":[]})";
  try {
    (void)serve::load_trace(path);
    FAIL() << "future schema must not load";
  } catch (const ContractViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path.string()), std::string::npos) << msg;
    EXPECT_NE(msg.find("esarp-arrival-trace/9"), std::string::npos) << msg;
    EXPECT_NE(msg.find("esarp-arrival-trace/1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("esarp-arrival-trace/2"), std::string::npos) << msg;
  }
  std::filesystem::remove(path);
}

TEST(ArrivalTraceGen, PriorityMixAndJitterLeaveArrivalsUntouched) {
  // The per-job priority and deadline draws come from streams independent
  // of the arrival Rng, so turning them on reshapes classes and deadlines
  // without moving a single arrival — v2 stays replay-compatible with v1.
  TraceParams plain = small_trace_params();
  plain.n_jobs = 32;
  TraceParams mixed = plain;
  mixed.frac_low = 0.3;
  mixed.frac_high = 0.2;
  mixed.deadline_jitter = 0.5;
  const ArrivalTrace a = serve::make_trace(plain);
  const ArrivalTrace b = serve::make_trace(mixed);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  bool class_spread = false;
  bool deadline_spread = false;
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].arrival_s, b.jobs[i].arrival_s);
    EXPECT_EQ(a.jobs[i].priority, serve::Priority::kNormal);
    class_spread =
        class_spread || b.jobs[i].priority != serve::Priority::kNormal;
    deadline_spread =
        deadline_spread || b.jobs[i].deadline_s != a.jobs[i].deadline_s;
    EXPECT_GE(b.jobs[i].deadline_s, plain.deadline_s * 0.5);
    EXPECT_LE(b.jobs[i].deadline_s, plain.deadline_s * 1.5);
  }
  EXPECT_TRUE(class_spread);
  EXPECT_TRUE(deadline_spread);
}

TEST(ArrivalTraceGen, V2RoundTripKeepsPrioritiesAndDeadlines) {
  TraceParams p = small_trace_params();
  p.n_jobs = 16;
  p.frac_low = 0.4;
  p.frac_high = 0.3;
  p.deadline_jitter = 0.6;
  const ArrivalTrace t = serve::make_trace(p);
  const auto path = temp_file("esarp_test_trace_v2.json");
  serve::save_trace(path, t);
  const ArrivalTrace back = serve::load_trace(path);
  ASSERT_EQ(back.jobs.size(), t.jobs.size());
  for (std::size_t i = 0; i < t.jobs.size(); ++i) {
    EXPECT_EQ(back.jobs[i].priority, t.jobs[i].priority);
    EXPECT_EQ(back.jobs[i].deadline_s, t.jobs[i].deadline_s);
  }
  std::filesystem::remove(path);
}

TEST(ArrivalTraceGen, V1TracesLoadWithEveryJobNormal) {
  // A v1 file has no "priority" field; the loader defaults every job to
  // the normal class so pre-overload traces replay under the new fleet.
  const auto path = temp_file("esarp_test_trace_v1.json");
  std::ofstream(path) << R"({
    "schema": "esarp-arrival-trace/1",
    "seed": 3,
    "jobs": [
      {"id": 0, "arrival_s": 0.0, "n_pulses": 32, "n_range": 65,
       "algo": "ffbp", "n_cores": 16, "deadline_s": 0.01},
      {"id": 1, "arrival_s": 0.001, "n_pulses": 32, "n_range": 65,
       "algo": "gbp", "n_cores": 16, "deadline_s": 0.02,
       "priority": "high"}
    ]
  })";
  const ArrivalTrace t = serve::load_trace(path);
  ASSERT_EQ(t.jobs.size(), 2u);
  EXPECT_EQ(t.jobs[0].priority, serve::Priority::kNormal);
  // A v1 file that happens to carry the field is accepted leniently.
  EXPECT_EQ(t.jobs[1].priority, serve::Priority::kHigh);
  std::filesystem::remove(path);
}

/// Load a two-job v2 trace whose second job takes `overrides` (raw JSON
/// values by key; "seed" sets the document's) and return what loading it
/// throws, or "" when it loads.
std::string load_error(
    const std::vector<std::pair<std::string, std::string>>& overrides) {
  std::map<std::string, std::string> job = {
      {"id", "1"},         {"arrival_s", "0.001"}, {"n_pulses", "32"},
      {"n_range", "65"},   {"algo", "\"ffbp\""},   {"n_cores", "16"},
      {"deadline_s", "0.01"}, {"priority", "\"normal\""}};
  std::string seed = "1";
  for (const auto& [key, value] : overrides)
    (key == "seed" ? seed : job[key]) = value;
  std::ostringstream os;
  os << R"({"schema": "esarp-arrival-trace/2", "seed": )" << seed
     << R"(, "jobs": [{"id": 0, "arrival_s": 0.0, "n_pulses": 32,
        "n_range": 65, "algo": "ffbp", "n_cores": 16, "deadline_s": 0.01,
        "priority": "normal"}, {)";
  const char* sep = "";
  for (const auto& [key, value] : job) {
    os << sep << '"' << key << "\": " << value;
    sep = ", ";
  }
  os << "}]}";
  const auto path = temp_file("esarp_test_trace_bad_job.json");
  std::ofstream(path) << os.str();
  std::string err;
  try {
    (void)serve::load_trace(path);
  } catch (const ContractViolation& e) {
    err = e.what();
  }
  std::filesystem::remove(path);
  return err;
}

/// Expect loading with `overrides` to fail naming the file, the job (the
/// document for "seed") and the offending key.
void expect_load_error(
    const std::vector<std::pair<std::string, std::string>>& overrides,
    const std::string& key) {
  const std::string err = load_error(overrides);
  const std::string what = overrides.back().first + "=" +
                           overrides.back().second + ": " + err;
  EXPECT_NE(err.find("esarp_test_trace_bad_job.json"), std::string::npos)
      << what;
  EXPECT_NE(err.find('"' + key + '"'), std::string::npos) << what;
  if (key != "seed") {
    EXPECT_NE(err.find("job 1"), std::string::npos) << what;
  }
}

TEST(ArrivalTraceGen, LoadChecksEveryNumberFitsItsField) {
  // A number that is not whole where the field is an integer, or outside
  // the field's type, is a named load error, never an undefined
  // conversion.
  EXPECT_EQ(load_error({}), "");
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"n_pulses", "-5"},
           {"n_pulses", "32.5"},
           {"n_range", "1e30"},
           {"n_cores", "4294967312"},
           {"id", "0.5"},
           {"seed", "-1"},
           {"seed", "18446744073709551616"}}) {
    expect_load_error({{key, value}}, key);
  }
}

TEST(ArrivalTraceGen, LoadRejectsJobsNoRunnerAccepts) {
  // Shapes the FFBP and GBP runners refuse fail when the trace loads, not
  // when their job is dispatched mid-campaign.
  expect_load_error({{"n_pulses", "48"}}, "n_pulses");
  expect_load_error({{"n_pulses", "1"}}, "n_pulses");
  expect_load_error({{"algo", "\"gbp\""}, {"n_pulses", "33"}}, "n_pulses");
  EXPECT_EQ(load_error({{"algo", "\"gbp\""}, {"n_pulses", "34"}}), "");
  expect_load_error({{"n_range", "1"}}, "n_range");
  expect_load_error({{"n_cores", "0"}}, "n_cores");
  expect_load_error({{"deadline_s", "0"}}, "deadline_s");
  expect_load_error({{"deadline_s", "-0.01"}}, "deadline_s");
  expect_load_error({{"id", "0"}}, "id");
}

TEST(ArrivalTraceGen, LoadRejectsASectorTheGeometryCannotForm) {
  // sar::test_params spans n_pulses x 1 m / mid-range radians (416 m at 65
  // range bins), which RadarParams::validate bounds below 3.1: a wider job
  // fails when the trace loads, not at its first dispatch.
  expect_load_error({{"n_pulses", "2048"}}, "n_pulses");
  EXPECT_EQ(load_error({{"n_pulses", "1024"}}), "");
  expect_load_error({{"algo", "\"gbp\""}, {"n_pulses", "1290"}}, "n_pulses");
  EXPECT_EQ(load_error({{"algo", "\"gbp\""}, {"n_pulses", "1288"}}), "");
  // More range bins push the mid-range out and narrow the sector.
  EXPECT_EQ(load_error({{"n_pulses", "2048"}, {"n_range", "2001"}}), "");
}

TEST(ServeMath, NearestRankPercentile) {
  std::vector<double> xs = {5.0, 1.0, 4.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(serve::percentile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(serve::percentile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(serve::percentile(xs, 0.01), 1.0);
}

// --- Clean campaigns ------------------------------------------------------

TEST(FleetServe, CleanCampaignMeetsEveryDeadline) {
  Fleet fleet(small_fleet(2));
  const ArrivalTrace trace = serve::make_trace(small_trace_params());
  const ServeReport rep = fleet.run(trace);
  EXPECT_EQ(rep.counters.jobs_total, 6u);
  EXPECT_EQ(rep.counters.jobs_met, 6u);
  EXPECT_EQ(rep.counters.jobs_lost, 0u);
  EXPECT_EQ(rep.counters.attempts, 6u);
  EXPECT_EQ(rep.counters.retries, 0u);
  EXPECT_EQ(rep.counters.migrations, 0u);
  EXPECT_DOUBLE_EQ(rep.slo_attainment, 1.0);
  EXPECT_GT(rep.throughput_jobs_per_s, 0.0);
  EXPECT_GT(rep.energy_per_image_j, 0.0);
  EXPECT_GE(rep.latency_p99_s, rep.latency_p50_s);
  for (const auto& job : rep.jobs) {
    EXPECT_EQ(job.state, JobState::kMet);
    EXPECT_LE(job.latency_s, 0.01);
    EXPECT_EQ(job.attempts, 1);
  }
  for (const auto& chip : rep.chips) EXPECT_LT(chip.failed_at_s, 0.0);
}

TEST(FleetServe, SameSeedCampaignsAreBitIdentical) {
  const ArrivalTrace trace = serve::make_trace(small_trace_params());
  FleetConfig cfg = small_fleet(4);
  cfg.chaos.seed = 7;
  cfg.chaos.chip_kill_rate = 0.5;
  cfg.chaos.dma_corrupt_rate = 2e-6;
  const ServeReport a = Fleet(cfg).run(trace);
  const ServeReport b = Fleet(cfg).run(trace);
  EXPECT_EQ(a.schedule_hash, b.schedule_hash);

  const auto pa = temp_file("esarp_serve_a.json");
  const auto pb = temp_file("esarp_serve_b.json");
  telemetry::RunManifest ma("serve"), mb("serve");
  serve::fill_serve_manifest(ma, cfg, trace, a);
  serve::fill_serve_manifest(mb, cfg, trace, b);
  ma.write(pa);
  mb.write(pb);
  EXPECT_EQ(slurp(pa), slurp(pb)); // the CI serve-smoke `cmp` property
  std::filesystem::remove(pa);
  std::filesystem::remove(pb);
}

TEST(FleetServe, HostThreadCountDoesNotChangeTheCampaign) {
  const ArrivalTrace trace = serve::make_trace(small_trace_params());
  FleetConfig cfg = small_fleet(4);
  cfg.chaos.seed = 7;
  cfg.chaos.chip_kill_rate = 0.5;
  const std::uint64_t seq = Fleet(cfg).run(trace).schedule_hash;
  cfg.host_jobs = 4;
  EXPECT_EQ(Fleet(cfg).run(trace).schedule_hash, seq);
}

// --- Chaos campaigns ------------------------------------------------------

TEST(FleetServe, ChaosCampaignLosesNoJobs) {
  // Seeded so the campaign actually exercises the fail-stop path: chips
  // die mid-job, their jobs migrate, and every job still reaches a
  // terminal state (met, late, or degraded — never lost).
  const ArrivalTrace trace = serve::make_trace(small_trace_params());
  FleetConfig cfg = small_fleet(4);
  cfg.chaos.seed = 7;
  cfg.chaos.chip_kill_rate = 0.5;
  cfg.chaos.dma_corrupt_rate = 2e-6;
  const ServeReport rep = Fleet(cfg).run(trace);
  EXPECT_GE(rep.counters.chip_kills, 1u);
  EXPECT_GE(rep.counters.migrations, 1u);
  EXPECT_GE(rep.counters.retries, rep.counters.chip_kills);
  EXPECT_EQ(rep.counters.jobs_lost, 0u);
  EXPECT_EQ(rep.counters.jobs_met + rep.counters.jobs_late +
                rep.counters.jobs_degraded,
            rep.counters.jobs_total);
  std::size_t failed = 0;
  for (const auto& chip : rep.chips)
    if (chip.failed_at_s >= 0.0) ++failed;
  EXPECT_EQ(failed, rep.counters.chip_kills);
}

/// The first campaign over chaos seeds 1..10 (4 chips, one attempt per
/// quality level, chip kill 0.45) that pushes a job down the degradation
/// ladder and still completes; nullopt if none does. The scan itself is
/// deterministic.
std::optional<ServeReport> degrading_campaign(const ArrivalTrace& trace) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    FleetConfig cfg = small_fleet(4);
    cfg.policy.max_attempts = 1;
    cfg.chaos.seed = seed;
    cfg.chaos.chip_kill_rate = 0.45;
    try {
      ServeReport rep = Fleet(cfg).run(trace);
      if (rep.counters.degradations > 0) return rep;
    } catch (const fault::FaultUnrecovered&) {
      // This seed killed the whole fleet — a legal outcome, keep scanning.
    }
  }
  return std::nullopt;
}

TEST(FleetServe, KilledAttemptsEventuallyDegrade) {
  // With a one-attempt retry budget, a single fail-stop pushes the job
  // down the degradation ladder instead of burning more full-quality
  // retries. 64 pulses on 16 cores is the smallest job whose first
  // halving shrinks the aperture (32 pulses is the core floor).
  TraceParams p = small_trace_params();
  p.n_pulses = 64;
  const std::optional<ServeReport> rep =
      degrading_campaign(serve::make_trace(p));
  ASSERT_TRUE(rep.has_value());
  EXPECT_GE(rep->counters.jobs_degraded, 1u);
  EXPECT_EQ(rep->counters.jobs_lost, 0u);
  EXPECT_LT(rep->slo_attainment, 1.0);
  for (const auto& job : rep->jobs)
    EXPECT_EQ(job.state == JobState::kDegraded, job.degrade_level >= 1);
}

TEST(FleetServe, HalvingAtTheApertureFloorDeliversTheFullImage) {
  // 32 pulses on 16 cores sits at the aperture floor (two pulses per
  // core), so a degrade level only re-rolls the attempt seed: the job
  // still delivers the full, verified image and is judged on its deadline
  // like any other, never marked degraded.
  const ArrivalTrace trace = serve::make_trace(small_trace_params());
  const std::optional<ServeReport> rep = degrading_campaign(trace);
  ASSERT_TRUE(rep.has_value());
  const ServeReport clean = Fleet(small_fleet(4)).run(trace);
  EXPECT_EQ(rep->counters.jobs_degraded, 0u);
  for (const auto& job : rep->jobs) {
    const auto id = static_cast<std::size_t>(job.spec.id);
    EXPECT_NE(job.state, JobState::kDegraded) << id;
    EXPECT_EQ(job.image_checksum, clean.jobs[id].image_checksum) << id;
  }
}

TEST(FleetServe, DegradedAperturesKeepEachAlgorithmsPulseShape) {
  // A halved aperture stays one its runner accepts. On 12 cores the FFBP
  // floor of two pulses per core (24) rounds up to a power of two (32),
  // and GBP's 34 pulses halve to 16, not an odd 17. Both campaigns walk
  // down the ladder, where a shape the runner rejects would abort them.
  struct Case {
    Algo algo;
    std::size_t pulses;
    int cores;
    double dma_corrupt;
  };
  for (const Case c : {Case{Algo::kFfbp, 64, 12, 0.2},
                       Case{Algo::kGbp, 34, 4, 0.003}}) {
    TraceParams p = small_trace_params(/*seed=*/2);
    p.n_jobs = 4;
    p.algo = c.algo;
    p.n_pulses = c.pulses;
    p.n_cores = c.cores;
    FleetConfig cfg = small_fleet(2);
    cfg.chaos.seed = 2;
    cfg.chaos.dma_corrupt_rate = c.dma_corrupt;
    const ServeReport rep = Fleet(cfg).run(serve::make_trace(p));
    EXPECT_GE(rep.counters.degradations, 1u) << serve::to_string(c.algo);
    EXPECT_EQ(rep.counters.jobs_lost, 0u) << serve::to_string(c.algo);
  }
}

TEST(FleetServe, ExhaustedFleetAbortsLoudly) {
  // Every dispatch kills its chip: after both chips die the fleet cannot
  // make progress and must abort with FaultUnrecovered (CLI exit 5), not
  // drop the outstanding jobs.
  const ArrivalTrace trace = serve::make_trace(small_trace_params());
  FleetConfig cfg = small_fleet(2);
  cfg.chaos.chip_kill_rate = 1.0;
  Fleet fleet(cfg);
  EXPECT_THROW((void)fleet.run(trace), fault::FaultUnrecovered);
}

TEST(FleetServe, JobWiderThanTheChipFailsBeforeAnyDispatch) {
  // A trace loads without knowing the chip, so the fleet checks every
  // job's core count against it before the first dispatch.
  ArrivalTrace t = serve::make_trace(small_trace_params());
  t.jobs.back().n_cores = 99;
  try {
    (void)Fleet(small_fleet(2)).run(t);
    FAIL() << "a 99-core job must not run on a 16-core chip";
  } catch (const ContractViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("job " + std::to_string(t.jobs.size() - 1)),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("99"), std::string::npos) << msg;
  }
}

TEST(FleetServe, PersistentCorruptionExhaustsTheDegradationLadder) {
  // Corrupting every transfer defeats the checksum verify at every
  // degradation level, so the job runs out of ladder and the campaign
  // aborts instead of returning a corrupt image.
  TraceParams p = small_trace_params();
  p.n_jobs = 1;
  const ArrivalTrace trace = serve::make_trace(p);
  FleetConfig cfg = small_fleet(2);
  cfg.policy.max_attempts = 1;
  cfg.policy.max_degrade = 1;
  cfg.chaos.dma_corrupt_rate = 1.0;
  Fleet fleet(cfg);
  EXPECT_THROW((void)fleet.run(trace), fault::FaultUnrecovered);
}

// --- Overload control -------------------------------------------------

using serve::Priority;

/// One hand-built job of the memoized 32x65/16-core shape (clean service
/// ~98 us on the default chip) — the unit tests pin scheduling decisions
/// with deadlines expressed in multiples of that service time.
serve::JobSpec job_at(int id, double arrival_s, double deadline_s,
                      Priority prio = Priority::kNormal) {
  serve::JobSpec j;
  j.id = id;
  j.arrival_s = arrival_s;
  j.n_pulses = 32;
  j.n_range = 65;
  j.n_cores = 16;
  j.deadline_s = deadline_s;
  j.priority = prio;
  return j;
}

TEST(FleetServe, BackoffShiftClampsPastTwentyDoublings) {
  const double base = 100e-6;
  EXPECT_DOUBLE_EQ(serve::backoff_delay_s(base, 1), base);
  EXPECT_DOUBLE_EQ(serve::backoff_delay_s(base, 2), base * 2.0);
  EXPECT_DOUBLE_EQ(serve::backoff_delay_s(base, 5), base * 16.0);
  const double ceiling = base * static_cast<double>(1u << 20);
  EXPECT_DOUBLE_EQ(serve::backoff_delay_s(base, 21), ceiling);
  // Pathological retry streaks saturate instead of overflowing.
  EXPECT_DOUBLE_EQ(serve::backoff_delay_s(base, 22), ceiling);
  EXPECT_DOUBLE_EQ(serve::backoff_delay_s(base, 1000), ceiling);
}

TEST(FleetServe, EdfServesUrgentDeadlinesFirst) {
  // Four same-instant jobs on one chip, two tight deadlines (1.5x / 2.5x
  // the ~98 us service time) interleaved with two loose ones. EDF runs
  // the tight pair first and meets everything; FIFO runs in id order and
  // blows both tight deadlines.
  ArrivalTrace t;
  t.seed = 1;
  t.jobs = {job_at(0, 0.0, 0.01), job_at(1, 0.0, 0.00015),
            job_at(2, 0.0, 0.01), job_at(3, 0.0, 0.00025)};
  FleetConfig cfg = small_fleet(1);
  cfg.policy.dispatch = serve::DispatchOrder::kEdf;
  const ServeReport edf = Fleet(cfg).run(t);
  EXPECT_EQ(edf.counters.jobs_met, 4u);
  cfg.policy.dispatch = serve::DispatchOrder::kFifo;
  const ServeReport fifo = Fleet(cfg).run(t);
  EXPECT_EQ(fifo.counters.jobs_met, 2u);
  EXPECT_EQ(fifo.counters.jobs_late, 2u);
  EXPECT_EQ(fifo.jobs[1].state, JobState::kLate);
  EXPECT_EQ(fifo.jobs[3].state, JobState::kLate);
}

TEST(FleetServe, HighPriorityClassJumpsTheEdfQueue) {
  // Same deadline everywhere: the high-priority job is served first even
  // though its id sorts last.
  ArrivalTrace t;
  t.seed = 1;
  t.jobs = {job_at(0, 0.0, 0.01), job_at(1, 0.0, 0.01),
            job_at(2, 0.0, 0.01), job_at(3, 0.0, 0.01, Priority::kHigh)};
  FleetConfig cfg = small_fleet(1);
  const ServeReport rep = Fleet(cfg).run(t);
  for (int id = 0; id < 3; ++id)
    EXPECT_LT(rep.jobs[3].latency_s, rep.jobs[id].latency_s) << id;
}

TEST(FleetServe, EdfEqualsFifoOnUniformCleanTraces) {
  // With one deadline and one priority class EDF degenerates to FIFO, so
  // the default dispatch reproduces the legacy clean schedule bit for bit
  // (the PR 8 back-compat property the CI serve-smoke job pins).
  const ArrivalTrace trace = serve::make_trace(small_trace_params());
  FleetConfig cfg = small_fleet(2);
  cfg.policy.dispatch = serve::DispatchOrder::kEdf;
  const std::uint64_t edf = Fleet(cfg).run(trace).schedule_hash;
  cfg.policy.dispatch = serve::DispatchOrder::kFifo;
  EXPECT_EQ(Fleet(cfg).run(trace).schedule_hash, edf);
}

TEST(FleetServe, ShedRetiresDoomedJobsExplicitly) {
  // Six same-instant low-priority jobs, one chip, deadline ~2.5 service
  // times: two can make it, the other four are doomed the moment they
  // queue. Admission control retires exactly those four with explicit
  // kShed tombstones — never a silent drop.
  ArrivalTrace t;
  t.seed = 1;
  for (int i = 0; i < 6; ++i)
    t.jobs.push_back(job_at(i, 0.0, 0.00025, Priority::kLow));
  FleetConfig cfg = small_fleet(1);
  cfg.policy.shed.enabled = true;
  const ServeReport rep = Fleet(cfg).run(t);
  EXPECT_EQ(rep.counters.jobs_met, 2u);
  EXPECT_EQ(rep.counters.jobs_late, 0u);
  EXPECT_EQ(rep.counters.jobs_shed, 4u);
  EXPECT_EQ(rep.counters.jobs_lost, 0u);
  EXPECT_EQ(rep.counters.jobs_met + rep.counters.jobs_late +
                rep.counters.jobs_degraded + rep.counters.jobs_shed,
            rep.counters.jobs_total);
  std::size_t shed_records = 0;
  for (const auto& rec : rep.jobs) {
    if (rec.state != JobState::kShed) continue;
    ++shed_records;
    EXPECT_EQ(rec.chip, -1);
    EXPECT_EQ(rec.attempts, 0); // retired before any dispatch
    EXPECT_EQ(rec.sim_cycles, 0u);
    EXPECT_EQ(rec.image_checksum, 0u);
    EXPECT_GE(rec.finish_s, rec.spec.arrival_s);
  }
  EXPECT_EQ(shed_records, rep.counters.jobs_shed);
  // The analytic cost model cross-checks the wait estimator; the memoized
  // makespans and the model must roughly agree for shedding to be sane.
  EXPECT_GT(rep.shed_model_max_rel_err, 0.0);
  EXPECT_LT(rep.shed_model_max_rel_err, 0.25);

  // Same trace without shedding: the doomed jobs run anyway and go late.
  cfg.policy.shed.enabled = false;
  const ServeReport noshed = Fleet(cfg).run(t);
  EXPECT_EQ(noshed.counters.jobs_met, 2u);
  EXPECT_EQ(noshed.counters.jobs_late, 4u);
  EXPECT_EQ(noshed.counters.jobs_shed, 0u);
  EXPECT_DOUBLE_EQ(noshed.shed_model_max_rel_err, 0.0);
}

TEST(FleetServe, ShedRespectsThePriorityFence) {
  // Only low-priority jobs shed, so the same doomed queue of normal jobs
  // runs to completion (late) instead of shedding.
  ArrivalTrace t;
  t.seed = 1;
  for (int i = 0; i < 6; ++i)
    t.jobs.push_back(job_at(i, 0.0, 0.00025, Priority::kNormal));
  FleetConfig cfg = small_fleet(1);
  cfg.policy.shed.enabled = true;
  const ServeReport rep = Fleet(cfg).run(t);
  EXPECT_EQ(rep.counters.jobs_shed, 0u);
  EXPECT_EQ(rep.counters.jobs_late, 4u);
}

TEST(FleetServe, RecoveredTransferFaultsLeaveEveryImageVerified) {
  // DMA corruption is detected and retried on chip, so every attempt
  // still delivers the verified image and every job meets its deadline.
  TraceParams p = small_trace_params();
  p.n_jobs = 12;
  const ArrivalTrace trace = serve::make_trace(p);
  FleetConfig cfg = small_fleet(2);
  cfg.chaos.seed = 5;
  cfg.chaos.dma_corrupt_rate = 3e-3;
  const ServeReport rep = Fleet(cfg).run(trace);
  EXPECT_GE(rep.counters.faults_detected, 1u);
  EXPECT_EQ(rep.counters.jobs_met, rep.counters.jobs_total);
}

TEST(FleetServe, OverloadPoliciesKeepHostThreadInvariance) {
  // Everything on at once — EDF, shedding, chaos — and the schedule hash
  // still must not depend on host parallelism. The DMA corruption rate
  // makes most attempts silent and some faulted, so worker threads both
  // take the silent-run memo and simulate around it.
  TraceParams p = small_trace_params();
  p.n_jobs = 16;
  p.bursty = true;
  p.burst_mean = 4.0;
  p.rate_hz = 40000.0;
  p.deadline_s = 0.0005;
  p.frac_low = 0.3;
  p.frac_high = 0.2;
  p.deadline_jitter = 0.5;
  const ArrivalTrace trace = serve::make_trace(p);
  FleetConfig cfg = small_fleet(4);
  cfg.chaos.seed = 7;
  cfg.chaos.chip_kill_rate = 0.1;
  cfg.chaos.dma_corrupt_rate = 1e-3;
  cfg.policy.shed.enabled = true;
  const ServeReport seq = Fleet(cfg).run(trace);
  cfg.host_jobs = 4;
  const ServeReport par = Fleet(cfg).run(trace);
  EXPECT_EQ(par.schedule_hash, seq.schedule_hash);
  EXPECT_GT(seq.counters.faults_injected, 0u);
  EXPECT_EQ(seq.counters.jobs_met + seq.counters.jobs_late +
                seq.counters.jobs_degraded + seq.counters.jobs_shed,
            seq.counters.jobs_total);
  EXPECT_EQ(seq.counters.jobs_lost, 0u);
}

// --- Manifest -------------------------------------------------------------

TEST(ServeManifest, CarriesTheServeSchemaAndComparesClean) {
  const ArrivalTrace trace = serve::make_trace(small_trace_params());
  FleetConfig cfg = small_fleet(2);
  const ServeReport rep = Fleet(cfg).run(trace);
  telemetry::RunManifest m("serve");
  serve::fill_serve_manifest(m, cfg, trace, rep);
  std::ostringstream os;
  m.write(os);
  const JsonValue doc = parse_json(os.str());
  ASSERT_NE(doc.find("schema"), nullptr);
  EXPECT_EQ(doc.find("schema")->as_string(), "esarp-serve-manifest/4");
  const JsonValue* results = doc.find("results");
  ASSERT_NE(results, nullptr);
  for (const char* key :
       {"jobs_total", "jobs_lost", "latency_p99_s", "slo_attainment",
        "throughput_jobs_per_s", "energy_per_image_j", "retries",
        "migrations", "degradations", "chip_kills", "schedule_hash_lo",
        "jobs_shed", "shed_model_max_rel_err", "chips_failed"}) {
    EXPECT_NE(results->find(key), nullptr) << key;
  }
  // compare_manifests accepts the serve schema and a self-compare is
  // clean at zero tolerance (the CI regression gate).
  telemetry::CompareOptions opt;
  opt.default_threshold = 0.0;
  const auto cmp = telemetry::compare_manifests(doc, doc, opt);
  EXPECT_TRUE(cmp.ok());
}

TEST(ServeManifest, MetricsRegistryMirrorsTheCounters) {
  const ArrivalTrace trace = serve::make_trace(small_trace_params());
  FleetConfig cfg = small_fleet(2);
  const ServeReport rep = Fleet(cfg).run(trace);
  telemetry::MetricsRegistry reg;
  serve::fill_serve_metrics(reg, rep);
  telemetry::RunManifest m("serve");
  m.set_metrics(&reg);
  std::ostringstream os;
  m.write(os);
  const JsonValue doc = parse_json(os.str());
  const JsonValue* counters = doc.find_path("metrics.counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* jobs = counters->find("serve.jobs_total");
  ASSERT_NE(jobs, nullptr);
  EXPECT_DOUBLE_EQ(jobs->as_number(), 6.0);
  const JsonValue* gauges = doc.find_path("metrics.gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_NE(gauges->find("serve.slo_attainment"), nullptr);
}

} // namespace
} // namespace esarp
