// Fault injection and the fault-tolerant SAR runtime
// (docs/fault-injection.md): deterministic schedules, transfer
// verify/retry recovery, barrier failure detection, FFBP repartitioning,
// autofocus window dropping — and the pre-recovery deadlock the resilient
// protocol exists to avoid.
#include <gtest/gtest.h>

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
  EXPECT_TRUE(fault::transfers_recovered(s));
  EXPECT_GT(s.recovery_cycles, 0u);
}

TEST(Resilience, ExhaustedRetriesThrowFaultUnrecovered) {
  ep::ChipConfig cfg;
  cfg.faults.seed = 1;
  cfg.faults.dma_corrupt_rate = 1.0; // every attempt fails
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
  EXPECT_TRUE(fault::transfers_recovered(faulted.faults));
  EXPECT_FALSE(faulted.degraded);
  EXPECT_EQ(faulted.faults.failed_cores, 0u);
}

TEST(FfbpFaults, RetryThatFaultsAgainStillRecoversExactly) {
  // At this seed and rate one transfer faults on its first retry too: two
  // detections, one recovery episode. Counting what recovery means —
  // one recovery per faulted transfer, one retry per faulty attempt —
  // accepts it; equating recovered with detected would call this exact
  // recovery a failure.
  const auto p = ffbp_params();
  const auto data = ffbp_data(p);
  core::FfbpMapOptions opt;
  opt.n_cores = 8;
  const auto clean = core::run_ffbp_epiphany(data, p, opt);

  ep::ChipConfig cfg;
  cfg.faults.seed = 1;
  cfg.faults.dma_corrupt_rate = 2e-2;
  const auto faulted = core::run_ffbp_epiphany(data, p, opt, cfg);
  const fault::FaultSummary& f = faulted.faults;

  EXPECT_EQ(faulted.image, clean.image);
  EXPECT_EQ(f.detected, f.faulted_transfers + 1); // one transfer, twice
  EXPECT_NE(f.recovered, f.detected);
  EXPECT_EQ(f.recovered, f.faulted_transfers);
  EXPECT_EQ(f.retries, f.detected);
  EXPECT_TRUE(fault::transfers_recovered(f));
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

TEST(FfbpFaults, CampaignThatInjectsNothingReproducesTheCleanRun) {
  // A fail-stop armed past the makespan installs the injector but never
  // fires. Without resilience the campaign must then be the clean run
  // exactly; with it, only the verification cost may differ.
  const auto p = ffbp_params();
  const auto data = ffbp_data(p);
  const core::FfbpMapOptions opt;
  const auto clean = core::run_ffbp_epiphany(data, p, opt);
  for (const bool resilient : {false, true}) {
    ep::ChipConfig cfg;
    cfg.faults.fail_stops = {{3, 1'000'000'000'000ULL}};
    cfg.faults.resilient = resilient;
    const auto armed = core::run_ffbp_epiphany(data, p, opt, cfg);
    EXPECT_EQ(armed.faults.injected, 0u);
    EXPECT_EQ(armed.image, clean.image) << "resilient " << resilient;
    if (!resilient) {
      EXPECT_EQ(armed.cycles, clean.cycles);
      EXPECT_EQ(armed.perf.engine_events, clean.perf.engine_events);
    }
  }
}

// --- Silent-run replay (FaultInjector::rolls_fire) -------------------------

/// What the serve fleet keeps of one run of a job shape under a plan.
struct ShapeRun {
  ep::Cycles cycles = 0;
  double energy_j = 0.0;
  std::uint64_t checksum = 0;
  fault::FaultSummary faults;

  bool operator==(const ShapeRun&) const = default;
};

struct Shape {
  bool ffbp = true;
  sar::RadarParams p;
  int cores = 16;
  FaultPlan rates; ///< every plan of the shape, up to its seed
};

ShapeRun run_shape(const Shape& s, const Array2D<cf32>& data,
                   std::uint64_t seed) {
  ep::ChipConfig cfg;
  cfg.faults = s.rates;
  cfg.faults.seed = seed;
  const auto take = [](const auto& sim) {
    return ShapeRun{sim.cycles, sim.energy.total_j(),
                    FaultInjector::checksum(sim.image.data(),
                                            sim.image.rows() *
                                                sim.image.cols() *
                                                sizeof(cf32)),
                    sim.faults};
  };
  if (s.ffbp) {
    core::FfbpMapOptions opt;
    opt.n_cores = s.cores;
    return take(core::run_ffbp_epiphany(data, s.p, opt, cfg));
  }
  return take(core::run_gbp_epiphany(data, s.p, s.cores, cfg));
}

/// A summary holding only core `c`'s transfer stream, `len` rolls long.
fault::FaultSummary one_stream(std::size_t c, std::uint64_t len) {
  fault::FaultSummary s;
  s.transfer_rolls.assign(c + 1, 0);
  s.transfer_rolls[c] = len;
  return s;
}

/// The first seed `draw` yields whose only firing roll, among the rolls
/// `silent` drew plus one more on core `c`'s transfer stream, is that one
/// more: the roll a stream recorded one short would hide. The one-stream
/// checks come first because they are cheap.
std::uint64_t seed_firing_past_stream(const Shape& s,
                                      const fault::FaultSummary& silent,
                                      std::size_t c, SplitMix64& draw) {
  const std::uint64_t len = silent.transfer_rolls[c];
  FaultPlan plan = s.rates;
  for (;;) {
    plan.seed = draw.next();
    if (FaultInjector::rolls_fire(plan, one_stream(c, len + 1)) &&
        !FaultInjector::rolls_fire(plan, one_stream(c, len)) &&
        !FaultInjector::rolls_fire(plan, silent)) {
      return plan.seed;
    }
  }
}

TEST(SilentReplay, RollsThatMissReplayTheSilentRunExactly) {
  // The serve fleet answers an attempt from a memoized silent run when
  // none of the rolls that run drew fires under the attempt's plan. Both
  // directions hold on every plan: a miss is the silent run field for
  // field, a hit injects. The rates give about one firing roll per run,
  // so both outcomes are common, and cover all four rolled sites. Seeds
  // are drawn from SplitMix64, as the fleet's attempt seeds are.
  Shape ffbp;
  ffbp.p = sar::test_params(64, 101);
  ffbp.rates.dma_drop_rate = 1.5e-4;
  ffbp.rates.dma_corrupt_rate = 1.5e-4;
  ffbp.rates.membits_rate = 1.5e-4;
  ffbp.rates.noc_stall_rate = 2e-4;
  Shape gbp;
  gbp.ffbp = false;
  gbp.p = sar::test_params(34, 65);
  gbp.cores = 4;
  gbp.rates.dma_drop_rate = 2e-4;
  gbp.rates.dma_corrupt_rate = 2e-4;
  gbp.rates.membits_rate = 2e-4;
  gbp.rates.noc_stall_rate = 3e-4;
  SplitMix64 draw(2024);
  for (const Shape& s : {ffbp, gbp}) {
    const auto data = sar::simulate_compressed(s.p, sar::six_target_scene(s.p));
    ShapeRun silent;
    do {
      silent = run_shape(s, data, draw.next());
    } while (silent.faults.injected != 0);
    ASSERT_FALSE(silent.faults.transfer_rolls.empty());
    ASSERT_FALSE(silent.faults.noc_rolls.empty());

    std::vector<std::uint64_t> seeds;
    for (int i = 0; i < 75; ++i) seeds.push_back(draw.next());
    // Per core, a plan whose only roll within reach fires just past that
    // core's transfer stream: a miss, run to show it is the silent run.
    for (std::size_t c = 0; c < silent.faults.transfer_rolls.size(); ++c) {
      if (silent.faults.transfer_rolls[c] == 0) continue;
      seeds.push_back(seed_firing_past_stream(s, silent.faults, c, draw));
    }
    int misses = 0;
    int hits = 0;
    for (const std::uint64_t seed : seeds) {
      FaultPlan plan = s.rates;
      plan.seed = seed;
      const ShapeRun run = run_shape(s, data, seed);
      if (FaultInjector::rolls_fire(plan, silent.faults)) {
        ++hits;
        EXPECT_GT(run.faults.injected, 0u) << "seed " << seed;
      } else {
        ++misses;
        EXPECT_EQ(run, silent) << "seed " << seed << ": " << run.cycles
                               << " cycles, " << run.faults.injected
                               << " injected";
      }
    }
    EXPECT_GE(misses, 20);
    EXPECT_GE(hits, 20);
  }
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

TEST(AfFaults, DeadCorrelatorIsUnrecovered) {
  // No core can take over the correlator (core 13 in the compact
  // placement): the run gives up loudly instead of returning pairs with
  // no criterion.
  af::AfParams p;
  const auto pairs = make_pairs(p, 4);
  ep::ChipConfig cfg;
  cfg.faults.fail_stops = {{13, 1'000}};
  EXPECT_THROW((void)core::run_autofocus_mpmd(pairs, p, {}, cfg),
               fault::FaultUnrecovered);
}

TEST(AfFaults, CampaignThatInjectsNothingReproducesTheCleanRun) {
  // As for FFBP: the correlator accumulates in the clean order under a
  // campaign too, so the criteria match bit for bit either way; without
  // resilience the timing matches as well.
  af::AfParams p;
  const auto pairs = make_pairs(p, 4);
  const auto clean = core::run_autofocus_mpmd(pairs, p);
  for (const bool resilient : {false, true}) {
    ep::ChipConfig cfg;
    cfg.faults.fail_stops = {{4, 1'000'000'000'000ULL}};
    cfg.faults.resilient = resilient;
    const auto armed = core::run_autofocus_mpmd(pairs, p, {}, cfg);
    EXPECT_EQ(armed.faults.injected, 0u);
    EXPECT_FALSE(armed.degraded);
    EXPECT_EQ(armed.criteria, clean.criteria) << "resilient " << resilient;
    if (!resilient) {
      EXPECT_EQ(armed.cycles, clean.cycles);
      EXPECT_EQ(armed.perf.engine_events, clean.perf.engine_events);
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
  for (int retry = 0; retry < 8; ++retry)
    EXPECT_EQ(ep::detail::backoff_for(retry),
              static_cast<ep::Cycles>(64) << retry);
}

TEST(RetryPolicy, ExhaustedRetriesThrowFaultUnrecovered) {
  // Corrupting every transfer defeats verification on every one of the
  // kRetry.max_attempts attempts: the resilient path must give up loudly instead
  // of looping forever or returning a corrupt image.
  const auto p = ffbp_params();
  const auto data = ffbp_data(p);
  core::FfbpMapOptions opt;
  opt.n_cores = 4;
  ep::ChipConfig cfg;
  cfg.faults.seed = 3;
  cfg.faults.dma_corrupt_rate = 1.0;
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
  EXPECT_TRUE(fault::transfers_recovered(faulted.faults));
  EXPECT_FALSE(faulted.degraded);
  // DMA payloads are repaired exactly and the correlator accumulates in
  // the clean order, so the recovered criteria are the clean ones.
  for (std::size_t i = 0; i < pairs.size(); ++i)
    for (std::size_t s = 0; s < clean.criteria[i].size(); ++s)
      EXPECT_EQ(faulted.criteria[i][s], clean.criteria[i][s])
          << "pair " << i << " shift " << s;
}

} // namespace
} // namespace esarp
