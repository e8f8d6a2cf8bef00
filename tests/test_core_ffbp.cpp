// Integration tests for FFBP on the simulated Epiphany: correctness against
// the host reference (bit-identical images), timing behaviour of the
// sequential vs SPMD mappings, prefetch effectiveness, and scaling.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "common/stats.hpp"
#include "core/ffbp_epiphany.hpp"
#include "core/ffbp_layout.hpp"
#include "host/sweep_runner.hpp"
#include "sar/ffbp.hpp"
#include "sar/kernels.hpp"
#include "sar/scene.hpp"

namespace esarp::core {
namespace {

sar::RadarParams small_params() { return sar::test_params(32, 101); }

Array2D<cf32> small_data(const sar::RadarParams& p) {
  return sar::simulate_compressed(p, sar::six_target_scene(p));
}

TEST(LevelLayout, ShapesAndOffsets) {
  const auto p = sar::test_params(16, 51);
  const LevelLayout l0 = LevelLayout::at(p, 0);
  EXPECT_EQ(l0.n_subaps, 16u);
  EXPECT_EQ(l0.n_theta, 1u);
  const LevelLayout l2 = LevelLayout::at(p, 2);
  EXPECT_EQ(l2.n_subaps, 4u);
  EXPECT_EQ(l2.n_theta, 4u);
  EXPECT_EQ(l2.rows_total(), 16u);
  EXPECT_EQ(l2.total_pixels(), 16u * 51u);
  EXPECT_EQ(l2.offset(1, 2, 3), (4u + 2u) * 51u + 3u);
  EXPECT_EQ(l2.row_bytes(), 51u * sizeof(cf32));
}

TEST(FfbpEpiphany, SequentialImageMatchesHostReferenceExactly) {
  const auto p = small_params();
  const auto data = small_data(p);
  const auto host = sar::ffbp(data, p);
  const auto sim = run_ffbp_sequential_epiphany(data, p);
  ASSERT_EQ(sim.image.rows(), host.image.data.rows());
  // Bit-identical: the simulated kernel executes the same merge arithmetic.
  EXPECT_EQ(sim.image, host.image.data);
}

/// Run `fn` once per available kernel backend (scalar first), restoring
/// the backend that was active before.
template <typename Fn>
void for_each_backend(Fn&& fn) {
  namespace k = sar::kernels;
  const k::Backend before = k::active();
  for (const k::Backend b :
       {k::Backend::kScalar, k::Backend::kAvx2, k::Backend::kAvx512}) {
    if (!k::backend_available(b)) continue;
    SCOPED_TRACE(k::backend_name(b));
    k::force_backend(b);
    fn();
  }
  k::force_backend(before);
}

// 64 pulses: levels 1-3 have at least 8 subapertures, so the chip shares
// their merge geometry across subapertures, while levels 4-6 compute it
// per row. The host reference always computes it per pair.
TEST(FfbpEpiphany, SpmdImageMatchesHostReferenceExactly) {
  const auto p = sar::test_params(64, 101);
  const auto data = small_data(p);
  const auto reference = sar::ffbp(data, p);
  for_each_backend([&] {
    const auto host = sar::ffbp(data, p);
    FfbpMapOptions opt;
    opt.n_cores = 16;
    const auto sim = run_ffbp_epiphany(data, p, opt);
    EXPECT_EQ(sim.image, host.image.data);
    EXPECT_EQ(sim.image, reference.image.data);
  });
}

TEST(FfbpEpiphany, SpmdMatchesForOtherCoreCounts) {
  const auto p = sar::test_params(16, 51);
  const auto data = small_data(p);
  const auto host = sar::ffbp(data, p);
  for (int cores : {2, 5, 8}) {
    FfbpMapOptions opt;
    opt.n_cores = cores;
    const auto sim = run_ffbp_epiphany(data, p, opt);
    EXPECT_EQ(sim.image, host.image.data) << cores << " cores";
  }
}

TEST(FfbpEpiphany, CubicVariantAlsoMatchesHost) {
  const auto p = sar::test_params(64, 51);
  const auto data = small_data(p);
  sar::FfbpOptions algo;
  algo.interp = sar::Interp::kCubic;
  const auto reference = sar::ffbp(data, p, algo);
  for_each_backend([&] {
    const auto host = sar::ffbp(data, p, algo);
    FfbpMapOptions opt;
    opt.algo = algo;
    const auto sim = run_ffbp_epiphany(data, p, opt);
    EXPECT_EQ(sim.image, host.image.data);
    EXPECT_EQ(sim.image, reference.image.data);
  });
}

TEST(FfbpEpiphany, ParallelIsMuchFasterThanSequential) {
  const auto p = small_params();
  const auto data = small_data(p);
  const auto seq = run_ffbp_sequential_epiphany(data, p);
  FfbpMapOptions opt;
  opt.n_cores = 16;
  const auto par = run_ffbp_epiphany(data, p, opt);
  // The paper reports 11.7x on 16 cores; demand at least 6x here.
  EXPECT_GT(static_cast<double>(seq.cycles) /
                static_cast<double>(par.cycles),
            6.0);
}

TEST(FfbpEpiphany, MoreCoresNeverSlower) {
  const auto p = sar::test_params(16, 51);
  const auto data = small_data(p);
  ep::Cycles prev = ~ep::Cycles{0};
  for (int cores : {1, 2, 4, 8, 16}) {
    FfbpMapOptions opt;
    opt.n_cores = cores;
    const auto sim = run_ffbp_epiphany(data, p, opt);
    EXPECT_LT(sim.cycles, prev) << cores;
    prev = sim.cycles;
  }
}

TEST(FfbpEpiphany, PrefetchReducesExternalStalls) {
  const auto p = small_params();
  const auto data = small_data(p);
  FfbpMapOptions with;
  with.n_cores = 16;
  FfbpMapOptions without = with;
  without.prefetch = false;
  const auto a = run_ffbp_epiphany(data, p, with);
  const auto b = run_ffbp_epiphany(data, p, without);
  EXPECT_LT(a.cycles, b.cycles);
  EXPECT_LT(a.perf.total_ext_stall(), b.perf.total_ext_stall());
  // Images identical either way.
  EXPECT_EQ(a.image, b.image);
}

TEST(FfbpEpiphany, FirstLevelPrefetchIsSufficient) {
  // Paper: "During the first merge iteration the prefetched data is
  // sufficient"; misses appear only at later levels.
  const auto p = small_params();
  const auto data = small_data(p);
  FfbpMapOptions opt;
  opt.n_cores = 16;
  const auto sim = run_ffbp_epiphany(data, p, opt);
  ASSERT_FALSE(sim.prefetch_stats.empty());
  EXPECT_EQ(sim.prefetch_stats.front().ext_misses, 0u);
  EXPECT_GT(sim.prefetch_stats.front().local_hits, 0u);
}

TEST(FfbpEpiphany, HitRateDegradesAtHigherLevels) {
  const auto p = sar::test_params(64, 101);
  const auto data = sar::simulate_compressed(p, sar::six_target_scene(p));
  FfbpMapOptions opt;
  opt.n_cores = 16;
  const auto sim = run_ffbp_epiphany(data, p, opt);
  const auto& st = sim.prefetch_stats;
  // Hit rate at the last level must not exceed the first level's.
  EXPECT_LE(st.back().hit_rate(), st.front().hit_rate());
}

TEST(FfbpEpiphany, SequentialStallsDominatedByExternalReads) {
  // The paper's explanation for the 0.36x sequential slowdown.
  const auto p = sar::test_params(16, 51);
  const auto data = small_data(p);
  const auto sim = run_ffbp_sequential_epiphany(data, p);
  const auto& c = sim.perf.per_core[0];
  EXPECT_GT(c.ext_stall, c.busy / 4); // stalls are a major component
}

TEST(FfbpEpiphany, EnergyScalesWithCores) {
  const auto p = sar::test_params(16, 51);
  const auto data = small_data(p);
  const auto seq = run_ffbp_sequential_epiphany(data, p);
  FfbpMapOptions opt;
  opt.n_cores = 16;
  const auto par = run_ffbp_epiphany(data, p, opt);
  // Parallel run: higher average power (more cores busy)...
  EXPECT_GT(par.energy.avg_watts, seq.energy.avg_watts);
  // ...but bounded by the chip's all-busy figure.
  EXPECT_LT(par.energy.avg_watts, ep::peak_chip_watts(ep::ChipConfig{}));
}

TEST(FfbpEpiphany, RejectsInvalidOptions) {
  const auto p = sar::test_params(16, 51);
  const auto data = small_data(p);
  FfbpMapOptions opt;
  opt.n_cores = 17;
  EXPECT_THROW((void)run_ffbp_epiphany(data, p, opt), ContractViolation);
  opt.n_cores = 4;
  opt.algo.interp = sar::Interp::kLinear;
  opt.algo.phase_compensate = true;
  EXPECT_THROW((void)run_ffbp_epiphany(data, p, opt), ContractViolation);
}

TEST(FfbpEpiphany, LocalMemoryRespectsPaperBudget) {
  // 1024-range-bin rows (paper: 1001) must fit the bank layout; much
  // larger rows must be rejected by the local-memory allocator.
  auto p = sar::test_params(16, 1025);
  p.validate();
  const Array2D<cf32> data(16, 1025);
  EXPECT_THROW((void)run_ffbp_sequential_epiphany(data, p),
               ContractViolation);
}


TEST(FfbpEpiphany, OnChipAutofocusMatchesHostIntegratedLoop) {
  // The complete Fig.-4 system on the simulated chip: estimation + gated
  // compensation + merges must reproduce the host af::ffbp_with_autofocus
  // bit-for-bit (same estimator, same data, same merge arithmetic).
  const auto p = sar::test_params(64, 161);
  sar::Scene s;
  s.targets = {{0.0, p.near_range_m + 80.0 * p.range_bin_m, 1.0f}};
  sar::FlightPathError err;
  err.dy.resize(p.n_pulses);
  for (std::size_t i = 0; i < p.n_pulses; ++i)
    err.dy[i] = 0.5 * std::sin(2.0 * kPi * static_cast<double>(i) /
                               static_cast<double>(p.n_pulses));
  const auto data = sar::simulate_compressed(p, s, err);

  const af::IntegratedOptions aopt;
  const auto reference = af::ffbp_with_autofocus(data, p, aopt);

  for_each_backend([&] {
    const auto host = af::ffbp_with_autofocus(data, p, aopt);
    FfbpMapOptions opt;
    opt.n_cores = 16;
    opt.autofocus = &aopt;
    const auto sim = run_ffbp_epiphany(data, p, opt);

    EXPECT_EQ(sim.image, host.image.data); // bit-identical
    EXPECT_EQ(sim.image, reference.image.data);

    // Same corrections, pair by pair (orders differ between the host's
    // sequential sweep and the cores' round-robin).
    std::map<std::pair<std::size_t, std::size_t>, float> host_shift;
    for (const auto& c : host.corrections)
      host_shift[{c.level, c.pair_index}] = c.shift_bins;
    ASSERT_EQ(sim.corrections.size(), host.corrections.size());
    for (const auto& c : sim.corrections) {
      auto it = host_shift.find({c.level, c.pair_index});
      ASSERT_NE(it, host_shift.end())
          << "level " << c.level << " pair " << c.pair_index;
      EXPECT_EQ(c.shift_bins, it->second);
    }
  });
}

TEST(FfbpEpiphany, OnChipAutofocusCostsTime) {
  const auto p = sar::test_params(32, 101);
  const auto data = small_data(p);
  const af::IntegratedOptions aopt;
  FfbpMapOptions plain;
  plain.n_cores = 16;
  plain.algo = aopt.ffbp; // same merge kernel, no autofocus
  FfbpMapOptions with = plain;
  with.autofocus = &aopt;
  const auto a = run_ffbp_epiphany(data, p, plain);
  const auto b = run_ffbp_epiphany(data, p, with);
  EXPECT_GT(b.cycles, a.cycles); // estimation work + extra barrier
  EXPECT_TRUE(a.corrections.empty());
  EXPECT_FALSE(b.corrections.empty());
}


TEST(FfbpEpiphany, DoubleBufferingHidesDmaLatency) {
  // Pipelined prefetch: the next row's DMA streams during the current
  // row's compute. Image identical; DMA wait time drops.
  const auto p = sar::test_params(32, 101); // rows fit two-per-bank
  const auto data = small_data(p);
  FfbpMapOptions single;
  single.n_cores = 4; // 8 rows per core per level: deep enough pipelines
  FfbpMapOptions dbl = single;
  dbl.double_buffer = true;
  const auto a = run_ffbp_epiphany(data, p, single);
  const auto b = run_ffbp_epiphany(data, p, dbl);
  EXPECT_EQ(a.image, b.image);
  ep::Cycles wait_a = 0, wait_b = 0;
  for (const auto& c : a.perf.per_core) wait_a += c.dma_wait;
  for (const auto& c : b.perf.per_core) wait_b += c.dma_wait;
  EXPECT_LT(wait_b, wait_a / 2);
  EXPECT_LE(b.cycles, a.cycles);
}

TEST(FfbpEpiphany, DoubleBufferingImpossibleAtPaperRowSize) {
  // The honest hardware finding: 1001-bin rows (8,008 B) cannot be
  // double-buffered inside an 8 KB bank — the local-store allocator
  // rejects the layout, as the real chip's bank budget would.
  auto p = sar::test_params(16, 1001);
  const Array2D<cf32> data(16, 1001);
  FfbpMapOptions opt;
  opt.n_cores = 4;
  opt.double_buffer = true;
  EXPECT_THROW((void)run_ffbp_epiphany(data, p, opt), ContractViolation);
  // Without double buffering the same configuration is fine.
  opt.double_buffer = false;
  EXPECT_NO_THROW((void)run_ffbp_epiphany(data, p, opt));
}

TEST(FfbpEpiphany, DoubleBufferRequiresPrefetch) {
  const auto p = sar::test_params(16, 51);
  const auto data = small_data(p);
  FfbpMapOptions opt;
  opt.prefetch = false;
  opt.double_buffer = true;
  EXPECT_THROW((void)run_ffbp_epiphany(data, p, opt), ContractViolation);
}

// --- The in-place rule (core_ctx.hpp): with no fault campaign attached the
// program reads its staged child rows and writes its output rows where they
// lie in SDRAM; a campaign copies them through the banks. A campaign whose
// transfers all roll and none fires runs that copying path and injects
// nothing, so it must reproduce the clean run.

/// Every transfer rolls against a corruption rate no roll here falls under.
ep::ChipConfig silent_campaign(bool resilient) {
  ep::ChipConfig cfg;
  cfg.faults.dma_corrupt_rate = 1e-12;
  cfg.faults.resilient = resilient;
  return cfg;
}

/// A clean run of `opt` must reproduce the copying path of both silent
/// campaigns: the image always, and the schedule where the two share it.
/// A campaign never double-buffers, and a resilient one pays for
/// verification, so only a plain campaign without double buffering does.
void expect_clean_matches_copying(const Array2D<cf32>& data,
                                  const sar::RadarParams& p,
                                  const FfbpMapOptions& opt) {
  const auto clean = run_ffbp_epiphany(data, p, opt);
  for (const bool resilient : {false, true}) {
    SCOPED_TRACE(resilient ? "resilient" : "not resilient");
    const auto copied =
        run_ffbp_epiphany(data, p, opt, silent_campaign(resilient));
    ASSERT_EQ(copied.faults.injected, 0u);
    EXPECT_EQ(copied.image, clean.image);
    if (resilient || opt.double_buffer) continue;
    EXPECT_EQ(copied.cycles, clean.cycles);
    EXPECT_EQ(copied.perf.engine_events, clean.perf.engine_events);
    EXPECT_EQ(copied.energy.total_j(), clean.energy.total_j());
    EXPECT_EQ(copied.prefetch_stats.size(), clean.prefetch_stats.size());
    for (std::size_t l = 0; l < clean.prefetch_stats.size(); ++l) {
      EXPECT_EQ(copied.prefetch_stats[l].local_hits,
                clean.prefetch_stats[l].local_hits);
      EXPECT_EQ(copied.prefetch_stats[l].ext_misses,
                clean.prefetch_stats[l].ext_misses);
    }
  }
}

TEST(FfbpInPlace, CleanRunMatchesTheCopyingPath) {
  struct Mode {
    const char* name;
    bool prefetch;
    bool double_buffer;
  };
  constexpr Mode kModes[] = {
      {"prefetch off", false, false},
      {"prefetch on", true, false},
      {"double-buffered", true, true},
  };
  // Under the pass grain: every level's pass runs as one chunk.
  const auto p = sar::test_params(32, 101); // rows fit two-per-bank
  const auto data = small_data(p);
  for (const Mode mode : kModes) {
    for (const int cores : {1, 4, 16}) {
      SCOPED_TRACE(std::to_string(cores) + " cores, " + mode.name);
      FfbpMapOptions opt;
      opt.n_cores = cores;
      opt.prefetch = mode.prefetch;
      opt.double_buffer = mode.double_buffer;
      expect_clean_matches_copying(data, p, opt);
    }
  }

  // Over it: every level's pass, and the level-0 load, split into chunks
  // that run on several host threads.
  const auto big = sar::test_params(256, 257);
  ASSERT_GT(big.n_pulses * big.n_range, host::kPassGrain);
  const auto big_data = small_data(big);
  for (const Mode mode : kModes) {
    SCOPED_TRACE(std::string("256x257, 16 cores, ") + mode.name);
    FfbpMapOptions opt;
    opt.n_cores = 16;
    opt.prefetch = mode.prefetch;
    opt.double_buffer = mode.double_buffer;
    expect_clean_matches_copying(big_data, big, opt);
  }
  struct Kernel {
    const char* name;
    sar::FfbpOptions algo;
  };
  const Kernel kernels[] = {
      {"linear", {.interp = sar::Interp::kLinear}},
      {"cubic", {.interp = sar::Interp::kCubic}},
      {"phase-compensated nearest",
       {.interp = sar::Interp::kNearest, .phase_compensate = true}},
  };
  for (const Kernel& k : kernels) {
    SCOPED_TRACE(std::string("256x257, 16 cores, ") + k.name);
    FfbpMapOptions opt;
    opt.n_cores = 16;
    opt.algo = k.algo;
    expect_clean_matches_copying(big_data, big, opt);
  }

  // Integrated autofocus: the pass reads each pair's published shift.
  sar::Scene s;
  s.targets = {{0.0, big.near_range_m + 120.0 * big.range_bin_m, 1.0f}};
  sar::FlightPathError err;
  err.dy.resize(big.n_pulses);
  for (std::size_t i = 0; i < big.n_pulses; ++i)
    err.dy[i] = 0.5 * std::sin(2.0 * kPi * static_cast<double>(i) /
                               static_cast<double>(big.n_pulses));
  const auto af_data = sar::simulate_compressed(big, s, err);
  const af::IntegratedOptions aopt;
  FfbpMapOptions opt;
  opt.n_cores = 16;
  opt.autofocus = &aopt;
  const auto clean = run_ffbp_epiphany(af_data, big, opt);
  std::size_t shifted = 0;
  for (const af::MergeCorrection& c : clean.corrections)
    shifted += c.shift_bins != 0.0f ? 1 : 0;
  ASSERT_GT(shifted, 0u) << "the scene must drive nonzero autofocus shifts";
  SCOPED_TRACE("256x257, 16 cores, integrated autofocus");
  expect_clean_matches_copying(af_data, big, opt);
}

} // namespace
} // namespace esarp::core
