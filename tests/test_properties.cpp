// Property-based tests: randomised sweeps over simulator and algorithm
// invariants that must hold for any input.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <optional>
#include <vector>

#include "autofocus/workload.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/autofocus_epiphany.hpp"
#include "core/ffbp_epiphany.hpp"
#include "core/mapping_profiles.hpp"
#include "epiphany/energy.hpp"
#include "epiphany/machine.hpp"
#include "fault/injector.hpp"
#include "sar/ffbp.hpp"
#include "sar/merge_kernel.hpp"
#include "sar/scene.hpp"

namespace esarp {
namespace {

// ---------------------------------------------------------------- channels

class ChannelFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChannelFuzz, FifoOrderAndCompleteDeliveryUnderRandomTiming) {
  // One producer, one consumer, random capacity and random compute delays
  // on both sides. Each side moves each message with the blocking op or
  // with the timed op (random timeout and poll quantum, retried until it
  // goes through): every message arrives, in order, exactly once.
  Rng rng(GetParam());
  const std::size_t capacity = 1 + rng.below(6);
  const int n_messages = 20 + static_cast<int>(rng.below(60));
  struct Step {
    std::uint64_t delay;
    bool timed;
    ep::Cycles timeout; // >= 1, so every timed attempt advances time
    ep::Cycles poll;
  };
  const auto draw = [&rng] {
    return Step{rng.below(200), rng.below(2) == 1, 1 + rng.below(300),
                1 + rng.below(64)};
  };
  std::vector<Step> producer, consumer;
  for (int i = 0; i < n_messages; ++i) {
    producer.push_back(draw());
    consumer.push_back(draw());
  }

  ep::Machine m;
  auto chan = m.make_channel<int>(/*consumer=*/5, capacity);
  std::vector<int> received;

  m.launch(0, [&](ep::CoreCtx& ctx) -> ep::Task {
    for (int i = 0; i < n_messages; ++i) {
      const Step& s = producer[i];
      if (s.delay > 0) co_await ctx.compute({.ialu = s.delay});
      if (!s.timed) {
        co_await chan->send(ctx, i);
        continue;
      }
      for (;;) {
        const bool sent = co_await chan->send_for(ctx, i, s.timeout, s.poll);
        if (sent) break;
      }
    }
  });
  m.launch(5, [&](ep::CoreCtx& ctx) -> ep::Task {
    for (int i = 0; i < n_messages; ++i) {
      const Step& s = consumer[i];
      if (!s.timed) {
        received.push_back(co_await chan->recv(ctx));
      } else {
        for (;;) {
          const std::optional<int> got =
              co_await chan->recv_for(ctx, s.timeout, s.poll);
          if (!got.has_value()) continue;
          received.push_back(*got);
          break;
        }
      }
      if (s.delay > 0) co_await ctx.compute({.ialu = s.delay});
    }
  });
  // A timed op that never gets through trips the watchdog, not a hang.
  m.run(/*max_cycles=*/10'000'000);

  ASSERT_EQ(received.size(), static_cast<std::size_t>(n_messages));
  for (int i = 0; i < n_messages; ++i) EXPECT_EQ(received[i], i);
  EXPECT_EQ(chan->stats().messages, static_cast<std::uint64_t>(n_messages));
  EXPECT_EQ(chan->pending(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------- barriers

class BarrierFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BarrierFuzz, NoOvertakingAcrossGenerations) {
  // Random per-core work between barrier crossings: after each crossing,
  // every core must have completed the same number of iterations.
  Rng rng(GetParam() * 7919);
  const int parties = 2 + static_cast<int>(rng.below(14));
  const int iters = 4;

  ep::Machine m;
  auto bar = m.make_barrier(parties);
  std::vector<int> progress(parties, 0);
  std::vector<bool> ok(parties, true);

  for (int c = 0; c < parties; ++c) {
    const std::uint64_t work = 10 + rng.below(500);
    m.launch(c, [&, c, work](ep::CoreCtx& ctx) -> ep::Task {
      for (int it = 0; it < iters; ++it) {
        co_await ctx.compute({.fadd = work * static_cast<std::uint64_t>(
                                                 1 + (c + it) % 3)});
        progress[c] = it + 1;
        co_await bar->arrive_and_wait(ctx);
        // Immediately after release, nobody may be a full iteration ahead
        // or behind.
        for (int other = 0; other < parties; ++other)
          if (progress[other] < it + 1) ok[c] = false;
      }
    });
  }
  m.run();
  for (int c = 0; c < parties; ++c) EXPECT_TRUE(ok[c]) << "core " << c;
  EXPECT_EQ(bar->generation(), static_cast<std::uint64_t>(iters));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BarrierFuzz, ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------- NoC

TEST(NocProperties, TransferTimeMonotonicInBytesAndDistance) {
  ep::ChipConfig cfg;
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    ep::Noc noc(cfg);
    const ep::Coord src{static_cast<int>(rng.below(4)),
                        static_cast<int>(rng.below(4))};
    const ep::Coord dst{static_cast<int>(rng.below(4)),
                        static_cast<int>(rng.below(4))};
    if (src == dst) continue;
    const std::size_t small = 8 + rng.below(64) * 8;
    const std::size_t big = small + 8 + rng.below(512) * 8;
    EXPECT_LE(noc.probe(src, dst, small, 0, ep::Mesh::kOnChipWrite),
              noc.probe(src, dst, big, 0, ep::Mesh::kOnChipWrite));
  }
}

TEST(NocProperties, ProbeNeverReservesCapacity) {
  ep::Noc noc(ep::ChipConfig{});
  const auto t0 = noc.probe({0, 0}, {3, 3}, 8000, 0, ep::Mesh::kRead);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(noc.probe({0, 0}, {3, 3}, 8000, 0, ep::Mesh::kRead), t0);
  EXPECT_EQ(noc.stats_total().transfers, 0u);
}

TEST(NocProperties, ContentionNeverSpeedsThingsUp) {
  // A transfer issued after background traffic can only be slower.
  ep::ChipConfig cfg;
  ep::Noc quiet(cfg), busy(cfg);
  for (int i = 0; i < 20; ++i)
    busy.transfer({0, 0}, {0, 3}, 4096, 0, ep::Mesh::kOnChipWrite);
  EXPECT_GE(busy.probe({0, 1}, {0, 2}, 256, 0, ep::Mesh::kOnChipWrite),
            quiet.probe({0, 1}, {0, 2}, 256, 0, ep::Mesh::kOnChipWrite));
}

// ------------------------------------------------------------ merge kernel

class MergeGeometryFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MergeGeometryFuzz, AlwaysMatchesExactTrigonometry) {
  Rng rng(GetParam() * 104729);
  for (int trial = 0; trial < 500; ++trial) {
    const double d = rng.uniform(0.5, 300.0);
    const double r = rng.uniform(10.0 * d, 9000.0);
    const double theta = rng.uniform(1.2, 1.94); // around broadside
    const double px = r * std::cos(theta);
    const double py = r * std::sin(theta);

    const float cr = 2.0f * static_cast<float>(d) *
                     fastmath::poly_cos(static_cast<float>(theta));
    const sar::MergeGeom g = sar::merge_geometry(
        static_cast<float>(r), cr, static_cast<float>(d * d),
        static_cast<float>(1.0 / (2.0 * d)));

    const double r1_ref = std::hypot(px + d, py);
    const double r2_ref = std::hypot(px - d, py);
    EXPECT_NEAR(g.r1 / r1_ref, 1.0, 2e-4) << "d=" << d << " r=" << r;
    EXPECT_NEAR(g.r2 / r2_ref, 1.0, 2e-4);
    EXPECT_NEAR(g.theta1, std::atan2(py, px + d), 5e-3);
    EXPECT_NEAR(g.theta2, std::atan2(py, px - d), 5e-3);
    // Triangle inequality sanity.
    EXPECT_LE(std::abs(g.r1 - g.r2), 2.0f * static_cast<float>(d) + 1e-2f);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeGeometryFuzz,
                         ::testing::Values(1, 2, 3));

// ------------------------------------------------------------------- FFBP

TEST(FfbpProperties, LinearInTheInputData) {
  // Back-projection is a linear operator: ffbp(a + b) ~= ffbp(a) + ffbp(b)
  // (up to float summation order).
  const auto p = sar::test_params(16, 51);
  Rng rng(5);
  Array2D<cf32> a(16, 51), b(16, 51), sum(16, 51);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = {rng.uniform_f(-1, 1), rng.uniform_f(-1, 1)};
    b.data()[i] = {rng.uniform_f(-1, 1), rng.uniform_f(-1, 1)};
    sum.data()[i] = a.data()[i] + b.data()[i];
  }
  const auto ia = sar::ffbp(a, p);
  const auto ib = sar::ffbp(b, p);
  const auto isum = sar::ffbp(sum, p);
  Array2D<cf32> recombined(16, 51);
  for (std::size_t i = 0; i < recombined.size(); ++i)
    recombined.data()[i] = ia.image.data.data()[i] + ib.image.data.data()[i];
  EXPECT_LT(relative_rmse(isum.image.data, recombined), 1e-5);
}

TEST(FfbpProperties, AmplitudeScalingScalesImage) {
  const auto p = sar::test_params(16, 51);
  const auto data = sar::simulate_compressed(p, sar::six_target_scene(p));
  Array2D<cf32> scaled(16, 51);
  for (std::size_t i = 0; i < data.size(); ++i)
    scaled.data()[i] = 3.0f * data.data()[i];
  const auto i1 = sar::ffbp(data, p);
  const auto i3 = sar::ffbp(scaled, p);
  EXPECT_NEAR(peak_magnitude(i3.image.data) / peak_magnitude(i1.image.data),
              3.0, 1e-3);
}

TEST(FfbpProperties, AzimuthMirrorSymmetry) {
  // Mirroring the scene in azimuth mirrors the image (up to grid parity).
  const auto p = sar::test_params(32, 101);
  sar::Scene s1, s2;
  s1.targets = {{10.0, p.near_range_m + 50.0 * p.range_bin_m, 1.0f}};
  s2.targets = {{-10.0, p.near_range_m + 50.0 * p.range_bin_m, 1.0f}};
  const auto i1 = sar::ffbp(sar::simulate_compressed(p, s1), p);
  const auto i2 = sar::ffbp(sar::simulate_compressed(p, s2), p);

  auto peak_row = [](const Array2D<cf32>& img) {
    std::size_t best_i = 0, best_j = 0;
    double best = -1;
    for (std::size_t i = 0; i < img.rows(); ++i)
      for (std::size_t j = 0; j < img.cols(); ++j)
        if (std::abs(img(i, j)) > best) {
          best = std::abs(img(i, j));
          best_i = i;
          best_j = j;
        }
    return std::pair(best_i, best_j);
  };
  const auto [r1, c1] = peak_row(i1.image.data);
  const auto [r2, c2] = peak_row(i2.image.data);
  EXPECT_EQ(c1, c2); // same range
  // Mirrored azimuth position, up to the floor-quantised angular binning
  // (the containing-bin convention is not mirror-symmetric).
  EXPECT_NEAR(static_cast<double>(r1 + r2),
              static_cast<double>(p.n_pulses - 1), 4.0);
}

// --------------------------------------------------------- fault campaigns
//
// Seeded campaigns through the shared recovery loops (ep::reliable_* in
// epiphany/resilient.hpp): every transfer recovers exactly, a campaign that
// is not degraded reproduces the clean output bit for bit, and a rerun
// repeats the fault schedule. FFBP's repartition also finishes the exact
// image after a fail-stop, so its image is checked on every campaign.

/// Every transfer and NoC rate in [0, 2e-2), and in half the draws one
/// fail-stop on a core from `victims` at a cycle inside the clean run.
fault::FaultPlan draw_campaign(Rng& rng, const std::vector<int>& victims,
                               ep::Cycles clean_cycles) {
  fault::FaultPlan plan;
  plan.seed = rng.next_u64();
  plan.dma_corrupt_rate = rng.uniform(0.0, 2e-2);
  plan.dma_drop_rate = rng.uniform(0.0, 2e-2);
  plan.membits_rate = rng.uniform(0.0, 2e-2);
  plan.noc_stall_rate = rng.uniform(0.0, 2e-2);
  if (rng.below(2) == 1)
    plan.fail_stops = {{victims[rng.below(victims.size())],
                        rng.below(clean_cycles)}};
  return plan;
}

class FfbpCampaignFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FfbpCampaignFuzz, RecoversExactlyAndRepeatsItsSchedule) {
  Rng rng(GetParam());
  const auto p = sar::test_params(32, 65);
  const auto data = sar::simulate_compressed(p, sar::six_target_scene(p));
  core::FfbpMapOptions opt;
  opt.n_cores = 4 + static_cast<int>(rng.below(13));
  const auto clean = core::run_ffbp_epiphany(data, p, opt);
  std::vector<int> cores(static_cast<std::size_t>(opt.n_cores));
  std::iota(cores.begin(), cores.end(), 0);
  ep::ChipConfig cfg;
  cfg.faults = draw_campaign(rng, cores, clean.cycles);

  const auto run = core::run_ffbp_epiphany(data, p, opt, cfg);
  const auto rerun = core::run_ffbp_epiphany(data, p, opt, cfg);
  EXPECT_GT(run.faults.injected, 0u);
  EXPECT_TRUE(fault::transfers_recovered(run.faults));
  EXPECT_EQ(std::memcmp(run.image.data(), clean.image.data(),
                        clean.image.size() * sizeof(cf32)),
            0);
  EXPECT_EQ(run.faults.schedule_hash, rerun.faults.schedule_hash);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FfbpCampaignFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

class AfCampaignFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AfCampaignFuzz, RecoversExactlyAndRepeatsItsSchedule) {
  Rng rng(GetParam());
  const af::AfParams p;
  std::vector<af::BlockPair> pairs;
  for (int i = 0; i < 4; ++i)
    pairs.push_back(
        af::synthetic_block_pair(rng, p, rng.uniform_f(-0.5f, 0.5f)));
  // Seed mod 3 picks compact, scattered or automatic placement.
  core::AfMapOptions opt;
  opt.placement = static_cast<core::AfPlacement>(GetParam() % 3);
  const auto clean = core::run_autofocus_mpmd(pairs, p, opt);
  // The pipeline degrades around a lost range or beam core; nothing can
  // stand in for the correlator, so it is never a victim here.
  const core::Placement pl = core::make_placement(opt.placement);
  std::vector<int> victims;
  for (int f = 0; f < 2; ++f)
    for (int w = 0; w < 3; ++w) {
      victims.push_back(pl.range[f][w]);
      victims.push_back(pl.beam[f][w]);
    }
  ep::ChipConfig cfg;
  cfg.faults = draw_campaign(rng, victims, clean.cycles);

  const auto run = core::run_autofocus_mpmd(pairs, p, opt, cfg);
  const auto rerun = core::run_autofocus_mpmd(pairs, p, opt, cfg);
  EXPECT_GT(run.faults.injected, 0u);
  EXPECT_TRUE(fault::transfers_recovered(run.faults));
  if (!run.degraded) {
    EXPECT_EQ(run.criteria, clean.criteria);
  }
  EXPECT_EQ(run.faults.schedule_hash, rerun.faults.schedule_hash);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AfCampaignFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9));

// ------------------------------------------------------------------ energy

TEST(EnergyProperties, MonotonicInWork) {
  double prev = 0.0;
  for (std::uint64_t n : {1000u, 10000u, 100000u, 1000000u}) {
    ep::Machine m;
    m.launch(0, [n](ep::CoreCtx& ctx) -> ep::Task {
      co_await ctx.compute({.fma = n});
    });
    m.run();
    const double j = ep::compute_energy(m.report()).total_j();
    EXPECT_GT(j, prev);
    prev = j;
  }
}

TEST(EnergyProperties, ParallelSameWorkCostsNoMoreEnergyThanSequential) {
  // Energy ~ work: spreading identical total work over 16 cores must not
  // increase dynamic energy much (it shortens static/idle time).
  auto joules = [](int cores) {
    ep::Machine m;
    const std::uint64_t per = 1600000 / static_cast<std::uint64_t>(cores);
    for (int c = 0; c < cores; ++c)
      m.launch(c, [per](ep::CoreCtx& ctx) -> ep::Task {
        co_await ctx.compute({.fma = per});
      });
    m.run();
    return ep::compute_energy(m.report()).total_j();
  };
  const double seq = joules(1);
  const double par = joules(16);
  EXPECT_LT(par, seq * 1.05);
}

} // namespace
} // namespace esarp
