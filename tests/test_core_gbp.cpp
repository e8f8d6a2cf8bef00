// Tests for the SPMD GBP baseline on the simulated chip.
#include <gtest/gtest.h>

#include <string>

#include "common/stats.hpp"
#include "core/ffbp_epiphany.hpp"
#include "core/gbp_epiphany.hpp"
#include "host/sweep_runner.hpp"
#include "sar/gbp.hpp"
#include "sar/scene.hpp"

namespace esarp::core {
namespace {

sar::RadarParams small_params() { return sar::test_params(32, 101); }

TEST(GbpEpiphany, MatchesHostReferenceWithinTolerance) {
  const auto p = small_params();
  const auto data = sar::simulate_compressed(p, sar::six_target_scene(p));
  const auto host = sar::gbp(data, p);
  const auto sim = run_gbp_epiphany(data, p, 16);
  ASSERT_EQ(sim.image.rows(), host.image.data.rows());
  // Same per-contribution arithmetic, different accumulation order.
  EXPECT_LT(relative_rmse(sim.image, host.image.data), 1e-5);
}

TEST(GbpEpiphany, WorksOnOneCore) {
  const auto p = sar::test_params(16, 51);
  const auto data = sar::simulate_compressed(p, sar::six_target_scene(p));
  const auto host = sar::gbp(data, p);
  const auto sim = run_gbp_epiphany(data, p, 1);
  EXPECT_LT(relative_rmse(sim.image, host.image.data), 1e-5);
}

TEST(GbpEpiphany, ScalesWithCores) {
  const auto p = sar::test_params(16, 51);
  const auto data = sar::simulate_compressed(p, sar::six_target_scene(p));
  const auto one = run_gbp_epiphany(data, p, 1);
  const auto sixteen = run_gbp_epiphany(data, p, 16);
  EXPECT_GT(static_cast<double>(one.cycles) /
                static_cast<double>(sixteen.cycles),
            6.0);
}

TEST(GbpEpiphany, StreamsWholeDataSetPerOutputRow) {
  // The memory-intensity signature: ext read volume ~= rows * data size.
  const auto p = sar::test_params(16, 51);
  const auto data = sar::simulate_compressed(p, sar::six_target_scene(p));
  const auto sim = run_gbp_epiphany(data, p, 4);
  const std::uint64_t data_bytes = p.n_pulses * p.n_range * sizeof(cf32);
  EXPECT_GE(sim.perf.ext.read_bytes, p.n_pulses * data_bytes);
}

TEST(GbpEpiphany, FfbpOvertakesGbpAsApertureGrows) {
  // The paper's core motivation: FFBP's O(N M log N) work overtakes GBP's
  // O(N^2 M) as the aperture grows (at 32 pulses they are still on par;
  // by 128 pulses FFBP wins clearly — see bench/crossover_gbp_ffbp).
  FfbpMapOptions fopt;
  fopt.n_cores = 16;
  auto advantage = [&](std::size_t pulses) {
    const auto p = sar::test_params(pulses, 101);
    const auto data = sar::simulate_compressed(p, sar::six_target_scene(p));
    const auto g = run_gbp_epiphany(data, p, 16);
    const auto f = run_ffbp_epiphany(data, p, fopt);
    return g.seconds / f.seconds;
  };
  const double at32 = advantage(32);
  const double at128 = advantage(128);
  EXPECT_GT(at128, 1.8);
  EXPECT_GT(at128, at32); // the advantage grows with aperture size
}

TEST(GbpEpiphany, InPlaceRunMatchesTheCopyingPath) {
  // With no fault campaign attached the program reads its pulse rows and
  // accumulates its image rows where they lie in SDRAM (core_ctx.hpp's
  // in-place rule). A campaign copies them through the banks; one whose
  // transfers all roll and none fires must reproduce the clean run. The
  // clean image comes from one host pass, split into chunks over several
  // threads once its contributions exceed the pass grain.
  const auto p = small_params();
  ASSERT_GT(p.n_pulses * p.n_pulses * p.n_range, host::kPassGrain);
  const auto data = sar::simulate_compressed(p, sar::six_target_scene(p));
  ep::ChipConfig campaign;
  campaign.faults.dma_corrupt_rate = 1e-12;
  campaign.faults.resilient = false;
  for (const int cores : {1, 16}) {
    SCOPED_TRACE(std::to_string(cores) + " cores");
    const auto clean = run_gbp_epiphany(data, p, cores);
    const auto copied = run_gbp_epiphany(data, p, cores, campaign);
    ASSERT_EQ(copied.faults.injected, 0u);
    EXPECT_EQ(copied.image, clean.image);
    EXPECT_EQ(copied.cycles, clean.cycles);
    EXPECT_EQ(copied.perf.engine_events, clean.perf.engine_events);
    EXPECT_EQ(copied.energy.total_j(), clean.energy.total_j());
  }
}

TEST(GbpEpiphany, RejectsBadConfig) {
  const auto p = sar::test_params(16, 51);
  const Array2D<cf32> data(16, 51);
  EXPECT_THROW((void)run_gbp_epiphany(data, p, 0), ContractViolation);
  EXPECT_THROW((void)run_gbp_epiphany(data, p, 17), ContractViolation);
}

} // namespace
} // namespace esarp::core
