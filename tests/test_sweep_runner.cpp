// SweepRunner determinism contract (docs/performance.md): fanning
// independent Machine runs across host threads must produce byte-identical
// results for ANY thread count. Also the burst transfer model: one burst
// DMA costs exactly the simulated cycles of the per-segment transfers it
// replaces.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
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

// --- The shared workers: every SweepRunner and every host::run_pass draws
// on one process-wide set of them.

TEST(SweepRunner, EveryIndexRunsOnceInIndexOrderRunAfterRun) {
  host::SweepRunner pool; // hardware width
  const std::size_t width = static_cast<std::size_t>(pool.jobs());
  const std::size_t sizes[] = {0, 1, 2, width, 1000};
  for (int round = 0; round < 50; ++round) {
    for (const std::size_t n : sizes) {
      SCOPED_TRACE("round " + std::to_string(round) + ", n " +
                   std::to_string(n));
      std::vector<std::atomic<int>> hits(n);
      const auto out = pool.run(n, [&](std::size_t i) {
        hits[i].fetch_add(1);
        return 7 * i;
      });
      ASSERT_EQ(out.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], 7 * i);
        ASSERT_EQ(hits[i].load(), 1);
      }
      // The void form, which run_pass uses, runs each index once too.
      pool.run(n, [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 2);
    }
  }
}

TEST(SweepRunner, ThrowWaitsForEveryClaimedIndexThenTheWorkersGoOn) {
  host::SweepRunner pool(4);
  constexpr std::size_t kN = 64;
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  try {
    pool.run(kN, [&](std::size_t i) {
      started.fetch_add(1);
      if (i == 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        finished.fetch_add(1);
        throw std::runtime_error("first");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      finished.fetch_add(1);
    });
    FAIL() << "expected the task's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  // Every index a participant claimed had finished when run() threw, and
  // no participant claimed another once the task had thrown.
  EXPECT_EQ(finished.load(), started.load());
  EXPECT_LT(started.load(), static_cast<int>(kN));
  const auto out = pool.run(kN, [](std::size_t i) { return i + 1; });
  ASSERT_EQ(out.size(), kN);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(out[i], i + 1);
}

TEST(SweepRunner, NestedAndConcurrentRunsComplete) {
  host::SweepRunner pool(4);
  // A run started inside a task executes inline on that task's thread.
  const auto nested = pool.run(8, [&](std::size_t i) {
    const auto me = std::this_thread::get_id();
    const auto inner = pool.run(16, [&](std::size_t j) {
      return std::this_thread::get_id() == me ? i * 16 + j : std::size_t{0};
    });
    return std::accumulate(inner.begin(), inner.end(), std::size_t{0});
  });
  for (std::size_t i = 0; i < nested.size(); ++i)
    EXPECT_EQ(nested[i], 16 * (16 * i) + 120);

  // Runs started from several threads at once share the workers.
  constexpr int kCallers = 4;
  std::vector<int> ok(kCallers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      int good = 0;
      for (int round = 0; round < 20; ++round) {
        const auto out = host::SweepRunner(4).run(200, [c](std::size_t i) {
          return i * static_cast<std::size_t>(c);
        });
        bool same = out.size() == 200;
        for (std::size_t i = 0; same && i < out.size(); ++i)
          same = out[i] == i * static_cast<std::size_t>(c);
        good += same ? 1 : 0;
      }
      ok[static_cast<std::size_t>(c)] = good;
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c)
    EXPECT_EQ(ok[static_cast<std::size_t>(c)], 20) << "caller " << c;
}

TEST(SweepRunner, WorkersNeverExceedTheHardwareLessTheCaller) {
  const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  host::SweepRunner pool(64); // beyond the hardware, never thousands
  const auto out = pool.run(256, [](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    return i;
  });
  ASSERT_EQ(out.size(), 256u);
  EXPECT_LE(host::SweepRunner::workers_started(), hw - 1);
}

TEST(SweepRunner, RunPassTilesTheItemsAndKeepsSmallPassesInline) {
  // At or under the grain: one chunk, on the calling thread.
  const auto caller = std::this_thread::get_id();
  int calls = 0;
  const auto whole = [&](std::size_t begin, std::size_t end) {
    ++calls;
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 100u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  };
  host::run_pass(100, host::kPassGrain / 100, whole);
  EXPECT_EQ(calls, 1);
  // Over it: chunks that cover every item exactly once.
  constexpr std::size_t kItems = 1000;
  std::vector<std::atomic<int>> hits(kItems);
  std::atomic<int> chunks{0};
  const auto tile = [&](std::size_t begin, std::size_t end) {
    chunks.fetch_add(1);
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  };
  host::run_pass(kItems, host::kPassGrain / 64, tile);
  EXPECT_EQ(chunks.load(), 16); // ceil(1000 / 64)
  for (std::size_t i = 0; i < kItems; ++i) ASSERT_EQ(hits[i].load(), 1);
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
    ep::fill_manifest(man, results[i]);
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
