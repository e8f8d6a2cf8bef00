// Fault injection and the fault-tolerant SAR runtime
// (docs/fault-injection.md): deterministic schedules, transfer
// verify/retry recovery, barrier failure detection, FFBP repartitioning,
// autofocus window dropping — and the pre-recovery deadlock the resilient
// protocol exists to avoid.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/autofocus_epiphany.hpp"
#include "core/ffbp_epiphany.hpp"
#include "core/gbp_epiphany.hpp"
#include "epiphany/machine.hpp"
#include "epiphany/resilient.hpp"
#include "fault/injector.hpp"
#include "sar/scene.hpp"

namespace esarp {
namespace {

using fault::FaultInjector;
using fault::FaultPlan;
using fault::Site;
using fault::TransferFault;

// --- Injector unit behaviour ----------------------------------------------

FaultPlan corrupt_plan(double rate, std::uint64_t seed = 7) {
  FaultPlan plan;
  plan.seed = seed;
  plan.dma_corrupt_rate = rate;
  return plan;
}

TEST(FaultInjector, IdenticalPlansGiveIdenticalSchedules) {
  FaultInjector a(corrupt_plan(0.25), nullptr);
  FaultInjector b(corrupt_plan(0.25), nullptr);
  unsigned char buf_a[64];
  unsigned char buf_b[64];
  std::memset(buf_a, 0x11, sizeof(buf_a));
  std::memset(buf_b, 0x11, sizeof(buf_b));
  for (int core = 0; core < 4; ++core) {
    for (std::uint64_t op = 0; op < 200; ++op) {
      const auto fa = a.on_transfer(core, buf_a, sizeof(buf_a), op);
      const auto fb = b.on_transfer(core, buf_b, sizeof(buf_b), op);
      EXPECT_EQ(static_cast<int>(fa), static_cast<int>(fb));
    }
  }
  EXPECT_GT(a.log().size(), 0u);
  EXPECT_EQ(a.log().size(), b.log().size());
  EXPECT_EQ(a.schedule_hash(), b.schedule_hash());
  EXPECT_EQ(0, std::memcmp(buf_a, buf_b, sizeof(buf_a)));
}

TEST(FaultInjector, DifferentSeedsGiveDifferentSchedules) {
  FaultInjector a(corrupt_plan(0.25, 1), nullptr);
  FaultInjector b(corrupt_plan(0.25, 2), nullptr);
  unsigned char buf[64] = {};
  for (std::uint64_t op = 0; op < 200; ++op) {
    (void)a.on_transfer(0, buf, sizeof(buf), op);
    (void)b.on_transfer(0, buf, sizeof(buf), op);
  }
  EXPECT_NE(a.schedule_hash(), b.schedule_hash());
}

TEST(FaultInjector, CorruptionAlwaysChangesTheChecksum) {
  FaultInjector inj(corrupt_plan(1.0), nullptr);
  unsigned char buf[32];
  std::memset(buf, 0x5c, sizeof(buf));
  const auto clean = FaultInjector::checksum(buf, sizeof(buf));
  ASSERT_EQ(static_cast<int>(inj.on_transfer(0, buf, sizeof(buf), 5)),
            static_cast<int>(TransferFault::kCorrupt));
  EXPECT_NE(clean, FaultInjector::checksum(buf, sizeof(buf)));
}

TEST(FaultInjector, DropScrubsEvenSingleWordPayloads) {
  FaultPlan plan;
  plan.seed = 3;
  plan.dma_drop_rate = 1.0;
  FaultInjector inj(plan, nullptr);
  std::uint32_t flag = 1;
  const auto clean = FaultInjector::checksum(&flag, sizeof(flag));
  ASSERT_EQ(static_cast<int>(inj.on_transfer(0, &flag, sizeof(flag), 0)),
            static_cast<int>(TransferFault::kDropped));
  EXPECT_NE(clean, FaultInjector::checksum(&flag, sizeof(flag)));
}

TEST(FaultInjector, EveryInjectedTransferFaultFailsVerification) {
  // Each transfer site at rate 1, over payload sizes around the 4-byte
  // flag and the 8-byte drop scrub, and one and two 101-pixel rows.
  struct SiteCase {
    const char* name;
    double FaultPlan::*rate;
    TransferFault kind;
  };
  const SiteCase sites[] = {
      {"drop", &FaultPlan::dma_drop_rate, TransferFault::kDropped},
      {"corrupt", &FaultPlan::dma_corrupt_rate, TransferFault::kCorrupt},
      {"mem-bits", &FaultPlan::membits_rate, TransferFault::kCorrupt},
  };
  const std::size_t sizes[] = {1, 2, 3, 4, 7, 8, 9, 808, 1616};
  for (const SiteCase& site : sites) {
    FaultPlan plan;
    plan.seed = 3;
    plan.*site.rate = 1.0;
    FaultInjector inj(plan, nullptr);
    for (const std::size_t bytes : sizes) {
      std::vector<unsigned char> src(bytes);
      for (std::size_t i = 0; i < bytes; ++i)
        src[i] = static_cast<unsigned char>(0x5c + 37 * i);
      const std::vector<unsigned char> copy = src;
      ASSERT_TRUE(ep::detail::payload_ok(copy.data(), src.data(), bytes));
      // Several operations per size, so the faulted offsets vary.
      for (std::uint64_t op = 0; op < 8; ++op) {
        std::vector<unsigned char> dst = src;
        ASSERT_EQ(static_cast<int>(inj.on_transfer(0, dst.data(), bytes, op)),
                  static_cast<int>(site.kind))
            << site.name << ", " << bytes << " bytes";
        EXPECT_FALSE(ep::detail::payload_ok(dst.data(), src.data(), bytes))
            << site.name << ", " << bytes << " bytes, op " << op;
        // Fleet images are still told apart by the FNV checksum.
        EXPECT_NE(FaultInjector::checksum(dst.data(), bytes),
                  FaultInjector::checksum(src.data(), bytes))
            << site.name << ", " << bytes << " bytes, op " << op;
      }
    }
  }
}

TEST(FaultInjector, FailStopOracleIsAThresholdInTime) {
  FaultPlan plan;
  plan.fail_stops = {{2, 1000}};
  FaultInjector inj(plan, nullptr);
  EXPECT_TRUE(plan.enabled());
  EXPECT_FALSE(inj.fail_stop_due(2, 999));
  EXPECT_TRUE(inj.fail_stop_due(2, 1000));
  EXPECT_FALSE(inj.fail_stop_due(1, 5000));
}

// --- Reliable transfers on a live machine ---------------------------------

TEST(Resilience, ReliableReadRetriesUntilThePayloadVerifies) {
  ep::ChipConfig cfg;
  cfg.faults.seed = 11;
  cfg.faults.dma_corrupt_rate = 0.5; // every other transfer, roughly
  ep::Machine m(cfg);
  auto src = m.ext().alloc<float>(256);
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = static_cast<float>(i) * 0.5f;

  bool all_ok = true;
  m.launch(0, [&](ep::CoreCtx& ctx) -> ep::Task {
    auto local = ctx.local().alloc_in_bank<float>(256, 2);
    for (int rep = 0; rep < 20; ++rep) {
      co_await ep::reliable_read_ext(ctx, local.data(), src.data(),
                                     src.size() * sizeof(float));
      for (std::size_t i = 0; i < src.size(); ++i)
        all_ok = all_ok && local[i] == src[i];
    }
  });
  m.run();

  EXPECT_TRUE(all_ok);
  const auto s = m.fault_injector()->summary();
  EXPECT_GT(s.injected, 0u);
  EXPECT_GT(s.detected, 0u);
  EXPECT_GT(s.retries, 0u);
  // Recovery is counted once per episode, while a faulted *retry* counts
  // as another detection — so at a 50% rate detected >= recovered > 0.
  EXPECT_GT(s.recovered, 0u);
  EXPECT_GE(s.detected, s.recovered);
  EXPECT_GT(s.recovery_cycles, 0u);
}

TEST(Resilience, ExhaustedRetriesThrowFaultUnrecovered) {
  ep::ChipConfig cfg;
  cfg.faults.seed = 1;
  cfg.faults.dma_corrupt_rate = 1.0; // every attempt fails
  cfg.faults.retry.max_attempts = 3;
  ep::Machine m(cfg);
  auto src = m.ext().alloc<float>(16);
  m.launch(0, [&](ep::CoreCtx& ctx) -> ep::Task {
    auto local = ctx.local().alloc_in_bank<float>(16, 2);
    co_await ep::reliable_read_ext(ctx, local.data(), src.data(),
                                   src.size() * sizeof(float));
  });
  EXPECT_THROW(m.run(), fault::FaultUnrecovered);
}

TEST(Resilience, BarrierDetectsAFailStoppedMemberAndCompletes) {
  ep::ChipConfig cfg;
  cfg.faults.fail_stops = {{1, 50}};
  ep::Machine m(cfg);
  auto barrier = m.make_barrier(2);
  bool survivor_crossed = false;
  m.launch(0, [&](ep::CoreCtx& ctx) -> ep::Task {
    co_await barrier->arrive_and_wait(ctx);
    survivor_crossed = true;
  });
  m.launch(1, [&](ep::CoreCtx& ctx) -> ep::Task {
    co_await ctx.idle(100); // past the trigger by the time it checks
    if (ctx.fail_stop_due()) {
      ctx.mark_failed();
      co_return;
    }
    co_await barrier->arrive_and_wait(ctx);
  });
  m.run();

  EXPECT_TRUE(survivor_crossed);
  EXPECT_EQ(barrier->parties(), 1);
  const auto s = m.fault_injector()->summary();
  EXPECT_EQ(s.failed_cores, 1u);
  EXPECT_GT(s.detected, 0u);
  EXPECT_EQ(m.core(1).state, ep::CoreState::kFailed);
}

TEST(Resilience, BarrierWithoutResilienceDeadlocksOnAFailedMember) {
  ep::ChipConfig cfg;
  cfg.faults.fail_stops = {{1, 50}};
  cfg.faults.resilient = false;
  ep::Machine m(cfg);
  auto barrier = m.make_barrier(2);
  m.launch(0, [&](ep::CoreCtx& ctx) -> ep::Task {
    co_await barrier->arrive_and_wait(ctx);
  });
  m.launch(1, [&](ep::CoreCtx& ctx) -> ep::Task {
    co_await ctx.idle(100);
    if (ctx.fail_stop_due()) {
      ctx.mark_failed();
      co_return;
    }
    co_await barrier->arrive_and_wait(ctx);
  });
  EXPECT_THROW(m.run(), ep::SimDeadlock);
}

// --- FFBP campaigns -------------------------------------------------------

sar::RadarParams ffbp_params() { return sar::test_params(32, 101); }

Array2D<cf32> ffbp_data(const sar::RadarParams& p) {
  return sar::simulate_compressed(p, sar::six_target_scene(p));
}

TEST(FfbpFaults, TransferFaultCampaignRecoversToTheExactImage) {
  const auto p = ffbp_params();
  const auto data = ffbp_data(p);
  core::FfbpMapOptions opt;
  opt.n_cores = 8;
  const auto clean = core::run_ffbp_epiphany(data, p, opt);

  ep::ChipConfig cfg;
  cfg.faults.seed = 42;
  cfg.faults.dma_corrupt_rate = 2e-3;
  cfg.faults.dma_drop_rate = 5e-4;
  cfg.faults.membits_rate = 2e-4;
  const auto faulted = core::run_ffbp_epiphany(data, p, opt, cfg);

  // Verified retries repair every corrupted / dropped / flipped payload:
  // the final image is bit-identical, only the makespan grows.
  EXPECT_EQ(faulted.image, clean.image);
  EXPECT_GT(faulted.cycles, clean.cycles);
  EXPECT_GT(faulted.faults.injected, 0u);
  EXPECT_GT(faulted.faults.detected, 0u);
  EXPECT_GT(faulted.faults.retries, 0u);
  EXPECT_EQ(faulted.faults.recovered, faulted.faults.detected);
  EXPECT_FALSE(faulted.degraded);
  EXPECT_EQ(faulted.faults.failed_cores, 0u);
}

TEST(FfbpFaults, SameSeedGivesBitIdenticalCampaigns) {
  const auto p = ffbp_params();
  const auto data = ffbp_data(p);
  core::FfbpMapOptions opt;
  opt.n_cores = 8;
  ep::ChipConfig cfg;
  cfg.faults.seed = 1234;
  cfg.faults.dma_corrupt_rate = 2e-3;
  cfg.faults.fail_stops = {{5, 40'000}};
  const auto a = core::run_ffbp_epiphany(data, p, opt, cfg);
  const auto b = core::run_ffbp_epiphany(data, p, opt, cfg);
  EXPECT_EQ(a.faults.schedule_hash, b.faults.schedule_hash);
  EXPECT_EQ(a.faults.injected, b.faults.injected);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.image, b.image);

  ep::ChipConfig other = cfg;
  other.faults.seed = 1235;
  const auto c = core::run_ffbp_epiphany(data, p, opt, other);
  EXPECT_NE(a.faults.schedule_hash, c.faults.schedule_hash);
}

TEST(FfbpFaults, FailStopIsRepartitionedAndTheImageStaysExact) {
  const auto p = ffbp_params();
  const auto data = ffbp_data(p);
  core::FfbpMapOptions opt;
  opt.n_cores = 4;
  const auto clean = core::run_ffbp_epiphany(data, p, opt);

  ep::ChipConfig cfg;
  cfg.faults.fail_stops = {{3, 30'000}}; // dies mid-merge
  const auto faulted = core::run_ffbp_epiphany(data, p, opt, cfg);

  EXPECT_EQ(faulted.faults.failed_cores, 1u);
  EXPECT_GT(faulted.faults.repartitions, 0u);
  EXPECT_TRUE(faulted.degraded);
  // Graceful degradation re-executes the lost rows with the same
  // arithmetic, so even this image is bit-identical — just later.
  EXPECT_EQ(faulted.image, clean.image);
  EXPECT_GT(faulted.cycles, clean.cycles);
}

TEST(FfbpFaults, FailStopWithoutResilienceDeadlocksTheChip) {
  const auto p = ffbp_params();
  const auto data = ffbp_data(p);
  core::FfbpMapOptions opt;
  opt.n_cores = 4;
  ep::ChipConfig cfg;
  cfg.faults.fail_stops = {{3, 30'000}};
  cfg.faults.resilient = false; // the pre-recovery runtime
  EXPECT_THROW(core::run_ffbp_epiphany(data, p, opt, cfg),
               ep::SimDeadlock);
}

TEST(FfbpFaults, DisabledPlanKeepsTheBaselinePathBitIdentical) {
  const auto p = sar::test_params(16, 51);
  const auto data = ffbp_data(p);
  core::FfbpMapOptions opt;
  opt.n_cores = 8;
  const auto a = core::run_ffbp_epiphany(data, p, opt);
  ep::ChipConfig cfg; // faults default-disabled
  const auto b = core::run_ffbp_epiphany(data, p, opt, cfg);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.image, b.image);
  EXPECT_EQ(b.faults.injected, 0u);
  EXPECT_EQ(b.faults.schedule_hash, 0u);
}

// --- Autofocus MPMD campaigns ---------------------------------------------

std::vector<af::BlockPair> make_pairs(const af::AfParams& p, std::size_t n,
                                      std::uint64_t seed = 1) {
  Rng rng(seed);
  std::vector<af::BlockPair> pairs;
  pairs.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    pairs.push_back(
        af::synthetic_block_pair(rng, p, rng.uniform_f(-0.5f, 0.5f)));
  return pairs;
}

TEST(AfFaults, DeadRangeCoreDropsItsWindowAndRescores) {
  af::AfParams p;
  const auto pairs = make_pairs(p, 4);
  const auto clean = core::run_autofocus_mpmd(pairs, p);

  ep::ChipConfig cfg;
  // Compact placement: core 4 is range[block 0][window 1].
  cfg.faults.fail_stops = {{4, 20'000}};
  const auto faulted = core::run_autofocus_mpmd(pairs, p, {}, cfg);

  EXPECT_GE(faulted.faults.af_windows_dropped, 1u);
  EXPECT_EQ(faulted.faults.failed_cores, 1u);
  EXPECT_TRUE(faulted.degraded);
  ASSERT_EQ(faulted.criteria.size(), clean.criteria.size());
  // Rescored criteria stay in the ballpark of the clean sweep: the best
  // shift per pair is judged on relative magnitudes, which the surviving
  // windows preserve within a factor bound.
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    for (std::size_t s = 0; s < clean.criteria[i].size(); ++s) {
      const double c = clean.criteria[i][s];
      const double f = faulted.criteria[i][s];
      if (c > 0.0) {
        EXPECT_GT(f, 0.1 * c) << "pair " << i << " shift " << s;
        EXPECT_LT(f, 10.0 * c) << "pair " << i << " shift " << s;
      }
    }
  }
}

TEST(AfFaults, DeadRangeCoreWithoutResilienceDeadlocksThePipeline) {
  af::AfParams p;
  const auto pairs = make_pairs(p, 4);
  ep::ChipConfig cfg;
  cfg.faults.fail_stops = {{4, 20'000}};
  cfg.faults.resilient = false;
  EXPECT_THROW(core::run_autofocus_mpmd(pairs, p, {}, cfg),
               ep::SimDeadlock);
}

// --- Whole-chip fail-stop (the serve-fleet fault kind) --------------------

TEST(ChipFailStop, PlanFieldEnablesInjectionAndNamesTheSite) {
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  plan.chip_fail_cycle = 1;
  EXPECT_TRUE(plan.enabled());
  EXPECT_STREQ(fault::to_string(Site::kChipFailStop), "chip-fail-stop");
}

TEST(ChipFailStop, MidRunKillThrowsChipFailed) {
  const auto p = ffbp_params();
  const auto data = ffbp_data(p);
  core::FfbpMapOptions opt;
  opt.n_cores = 8;
  ep::ChipConfig cfg;
  cfg.faults.chip_fail_cycle = 50'000; // well before the clean makespan
  try {
    (void)core::run_ffbp_epiphany(data, p, opt, cfg);
    FAIL() << "expected fault::ChipFailed";
  } catch (const fault::ChipFailed& e) {
    EXPECT_GE(e.cycle(), 50'000u);
    EXPECT_NE(std::string(e.what()).find("fail-stop"), std::string::npos);
  }
  // ChipFailed derives from FaultUnrecovered, so callers that only handle
  // the unrecoverable category (CLI exit 5) still catch it.
  EXPECT_THROW((void)core::run_ffbp_epiphany(data, p, opt, cfg),
               fault::FaultUnrecovered);
}

TEST(ChipFailStop, KillCycleBeyondTheMakespanIsHarmless) {
  const auto p = ffbp_params();
  const auto data = ffbp_data(p);
  core::FfbpMapOptions opt;
  opt.n_cores = 8;
  const auto clean = core::run_ffbp_epiphany(data, p, opt);
  ep::ChipConfig cfg;
  cfg.faults.chip_fail_cycle = 1'000'000'000'000ULL;
  const auto armed = core::run_ffbp_epiphany(data, p, opt, cfg);
  EXPECT_EQ(armed.faults.failed_chips, 0u);
  EXPECT_EQ(armed.image, clean.image);
  // Arming the plan installs the injector, so the resilient verify cost
  // appears — but the campaign completes and nothing is recorded as failed.
  EXPECT_GE(armed.cycles, clean.cycles);
  EXPECT_EQ(armed.faults.injected, 0u);
}

TEST(ChipFailStop, MarkChipFailedIsIdempotentAndLogged) {
  FaultPlan plan;
  plan.chip_fail_cycle = 123;
  FaultInjector inj(plan, nullptr);
  EXPECT_FALSE(inj.chip_failed());
  inj.mark_chip_failed(123);
  inj.mark_chip_failed(456); // second kill of a dead chip is a no-op
  EXPECT_TRUE(inj.chip_failed());
  EXPECT_EQ(inj.summary().failed_chips, 1u);
  ASSERT_EQ(inj.log().size(), 1u);
  EXPECT_EQ(inj.log()[0].site, Site::kChipFailStop);
  EXPECT_EQ(inj.log()[0].cycle, 123u);
}

TEST(ChipFailStop, GbpRunnerSurfacesFaultSummaryAndWatchdog) {
  const auto p = sar::test_params(16, 65);
  const auto data = sar::simulate_compressed(p, sar::six_target_scene(p));
  ep::ChipConfig cfg;
  cfg.faults.seed = 9;
  cfg.faults.dma_corrupt_rate = 5e-2;
  const auto res = core::run_gbp_epiphany(data, p, 4, cfg);
  // GBP streams through raw DMA (no per-transfer verify), so injections
  // are recorded but undetected — catching them end-to-end is exactly why
  // the serve fleet checksums whole images against the fault-free run.
  EXPECT_GT(res.faults.injected, 0u);
  EXPECT_EQ(res.faults.detected, 0u);
  // The new max_cycles bound turns a too-slow run into a watchdog trip —
  // the serve fleet's per-attempt timeout.
  EXPECT_THROW((void)core::run_gbp_epiphany(data, p, 4, cfg, 1'000),
               ep::WatchdogExpired);
}

// --- Retry-policy edges ---------------------------------------------------

TEST(RetryPolicy, BackoffSequenceIsExponentialInTheRetryIndex) {
  fault::RetryPolicy pol;
  pol.backoff_base = 64;
  for (int retry = 0; retry < 8; ++retry)
    EXPECT_EQ(ep::detail::backoff_for(pol, retry),
              static_cast<ep::Cycles>(64) << retry);
}

TEST(RetryPolicy, ExhaustedRetriesThrowFaultUnrecovered) {
  // Corrupting every transfer defeats verification on every one of the
  // max_attempts retries: the resilient path must give up loudly instead
  // of looping forever or returning a corrupt image.
  const auto p = ffbp_params();
  const auto data = ffbp_data(p);
  core::FfbpMapOptions opt;
  opt.n_cores = 4;
  ep::ChipConfig cfg;
  cfg.faults.seed = 3;
  cfg.faults.dma_corrupt_rate = 1.0;
  cfg.faults.retry.max_attempts = 3;
  EXPECT_THROW((void)core::run_ffbp_epiphany(data, p, opt, cfg),
               fault::FaultUnrecovered);
}

TEST(AfFaults, TransferCampaignRecoversCriteriaWithinTolerance) {
  af::AfParams p;
  const auto pairs = make_pairs(p, 4, 5);
  const auto clean = core::run_autofocus_mpmd(pairs, p);
  ep::ChipConfig cfg;
  cfg.faults.seed = 77;
  cfg.faults.dma_corrupt_rate = 5e-3;
  const auto faulted = core::run_autofocus_mpmd(pairs, p, {}, cfg);
  EXPECT_GT(faulted.faults.injected, 0u);
  EXPECT_EQ(faulted.faults.recovered, faulted.faults.detected);
  EXPECT_FALSE(faulted.degraded);
  // DMA payloads are repaired exactly; only packet-level float summation
  // order differs from the plain pipeline, so compare within float noise.
  for (std::size_t i = 0; i < pairs.size(); ++i)
    for (std::size_t s = 0; s < clean.criteria[i].size(); ++s)
      EXPECT_NEAR(faulted.criteria[i][s], clean.criteria[i][s],
                  1e-3 * (1.0 + std::abs(clean.criteria[i][s])));
}

} // namespace
} // namespace esarp
