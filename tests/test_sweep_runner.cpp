// SweepRunner determinism contract (docs/performance.md): fanning
// independent Machine runs across host threads must produce byte-identical
// results for ANY thread count. Also the burst transfer model: one burst
// DMA costs exactly the simulated cycles of the per-segment transfers it
// replaces.
#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/ffbp_epiphany.hpp"
#include "epiphany/machine.hpp"
#include "epiphany/machine_metrics.hpp"
#include "host/sweep_runner.hpp"
#include "sar/scene.hpp"
#include "telemetry/manifest.hpp"

namespace esarp {
namespace {

TEST(SweepRunner, GathersResultsInIndexOrder) {
  host::SweepRunner pool(4);
  EXPECT_EQ(pool.jobs(), 4);
  const auto out =
      pool.run(100, [](std::size_t i) { return 3 * i + 1; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 3 * i + 1);
}

TEST(SweepRunner, SingleJobRunsInline) {
  host::SweepRunner pool(1);
  const auto caller = std::this_thread::get_id();
  const auto ids = pool.run(
      3, [&](std::size_t) { return std::this_thread::get_id(); });
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

TEST(SweepRunner, PropagatesWorkerExceptions) {
  host::SweepRunner pool(4);
  EXPECT_THROW(pool.run(8,
                        [](std::size_t i) -> int {
                          if (i == 5) throw std::runtime_error("boom");
                          return 0;
                        }),
               std::runtime_error);
}

TEST(SweepRunner, ThrowAtEitherEndFailsTheRunWithoutHanging) {
  // The serve fleet leans on this: a job that dies on the very first or
  // very last index must fail the whole run() promptly — workers past the
  // throw still join, nothing deadlocks, and the exception surfaces.
  host::SweepRunner pool(8);
  for (const std::size_t bad : {std::size_t{0}, std::size_t{63}}) {
    EXPECT_THROW(pool.run(64,
                          [&](std::size_t i) -> int {
                            if (i == bad) throw std::runtime_error("edge");
                            return static_cast<int>(i);
                          }),
                 std::runtime_error);
  }
  // The pool stays usable after a failed run.
  const auto out = pool.run(16, [](std::size_t i) { return i * 2; });
  ASSERT_EQ(out.size(), 16u);
  EXPECT_EQ(out[15], 30u);
}

TEST(SweepRunner, OneOfSeveralThrownExceptionsSurfaces) {
  // Multiple throwing jobs: exactly one exception is rethrown (the first
  // recorded — chronological, not index order) and it is one of ours, not
  // a terminate() or a silent success.
  host::SweepRunner pool(4);
  try {
    (void)pool.run(32, [](std::size_t i) -> int {
      if (i == 3 || i == 20) throw std::runtime_error("worker-failure");
      return 0;
    });
    FAIL() << "expected a worker exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "worker-failure");
  }
}

TEST(SweepRunner, JobsFromEnvironment) {
  ::setenv("ESARP_JOBS", "3", 1);
  EXPECT_EQ(host::sweep_jobs_from_env(1), 3);
  ::unsetenv("ESARP_JOBS");
  EXPECT_EQ(host::sweep_jobs_from_env(7), 7);
  EXPECT_GE(host::sweep_jobs_from_env(0), 1); // hardware fallback
}

/// Runs the same FFBP core-count sweep with `jobs` host threads and
/// returns the serialized per-run manifests (no wall-clock fields, so the
/// bytes must not depend on the thread count).
std::string sweep_manifests(int jobs) {
  const auto p = sar::test_params(32, 101);
  const auto data = sar::simulate_compressed(p, sar::six_target_scene(p));
  const std::vector<int> cores = {1, 2, 4, 8};

  host::SweepRunner pool(jobs);
  const auto results = pool.run(cores.size(), [&](std::size_t i) {
    core::FfbpMapOptions opt;
    opt.n_cores = cores[i];
    return core::run_ffbp_epiphany(data, p, opt);
  });

  std::ostringstream os;
  for (std::size_t i = 0; i < results.size(); ++i) {
    telemetry::RunManifest man("sweep_determinism");
    ep::fill_manifest(man, results[i].perf, results[i].energy);
    man.add_workload("n_cores", static_cast<double>(cores[i]));
    man.write(os);
  }
  return os.str();
}

TEST(SweepRunner, ManifestsAreThreadCountInvariant) {
  const std::string serial = sweep_manifests(1);
  EXPECT_EQ(serial, sweep_manifests(4));
  const int hw =
      static_cast<int>(std::thread::hardware_concurrency());
  EXPECT_EQ(serial, sweep_manifests(std::max(hw, 2)));
}

// ---------------------------------------------------------------------
// Burst transfer model: one CoreCtx::dma_read_ext_burst over k segments is
// cycle-for-cycle the k dma_read_ext calls it replaces, each followed by
// its wait. Only the engine's work differs: the burst suspends once where
// the per-segment path suspends k times. Each path runs on a fresh machine
// with per-event stepping, so every suspension is one engine event.

TEST(BurstTransfers, OneBurstCostsWhatPerSegmentReadsCost) {
  constexpr std::size_t kSegs = 3;
  constexpr std::size_t kElems = 200;
  constexpr std::size_t kSegBytes = kElems * sizeof(cf32);
  struct Run {
    ep::Cycles done = 0;
    ep::PerfReport rep;
    std::vector<cf32> local;
  };
  const auto run = [&](bool burst) {
    ep::ChipConfig cfg;
    cfg.batch_quanta = false;
    ep::Machine m(cfg, 1u << 20);
    auto src = m.ext().alloc<cf32>(kSegs * kElems);
    for (std::size_t i = 0; i < src.size(); ++i)
      src[i] = cf32(static_cast<float>(i), -static_cast<float>(i));
    Run r;
    m.launch(0, [&](ep::CoreCtx& ctx) -> ep::Task {
      auto dst = ctx.local().alloc<cf32>(kSegs * kElems);
      if (burst) {
        std::vector<ep::DmaSeg> segs;
        for (std::size_t k = 0; k < kSegs; ++k)
          segs.push_back({dst.data() + k * kElems, src.data() + k * kElems,
                          kSegBytes});
        co_await ctx.wait(ctx.dma_read_ext_burst(segs));
      } else {
        std::vector<ep::DmaJob> jobs;
        for (std::size_t k = 0; k < kSegs; ++k)
          jobs.push_back(ctx.dma_read_ext(dst.data() + k * kElems,
                                          src.data() + k * kElems, kSegBytes));
        for (const ep::DmaJob& job : jobs) co_await ctx.wait(job);
      }
      r.done = ctx.now();
      r.local.assign(dst.begin(), dst.end());
    });
    m.run();
    r.rep = m.report();
    return r;
  };

  const Run burst = run(true);
  const Run chunked = run(false);
  EXPECT_GT(burst.done, 0u);
  EXPECT_EQ(burst.done, chunked.done);
  EXPECT_EQ(burst.local, chunked.local);
  const ep::CoreCounters& b = burst.rep.per_core[0];
  const ep::CoreCounters& c = chunked.rep.per_core[0];
  EXPECT_GT(b.dma_wait, 0u);
  EXPECT_EQ(b.dma_wait, c.dma_wait);
  EXPECT_EQ(b.dma_transfers, kSegs);
  EXPECT_EQ(b.dma_transfers, c.dma_transfers);
  EXPECT_EQ(b.dma_bytes, c.dma_bytes);
  EXPECT_EQ(burst.rep.ext.read_bytes, kSegs * kSegBytes);
  EXPECT_EQ(burst.rep.ext.read_bytes, chunked.rep.ext.read_bytes);
  EXPECT_EQ(burst.rep.ext.read_transactions,
            chunked.rep.ext.read_transactions);
  EXPECT_EQ(chunked.rep.engine_events, burst.rep.engine_events + kSegs - 1);
}

} // namespace
} // namespace esarp
