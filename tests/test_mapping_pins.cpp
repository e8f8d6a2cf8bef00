// Exact pins of the clean FFBP and autofocus mappings in the configurations
// no committed bench baseline covers: simulated cycles, engine events and a
// digest of the produced image or criteria. A change to a core program that
// is meant to leave fault-free runs untouched must leave every value here
// as it is.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/autofocus_epiphany.hpp"
#include "core/ffbp_epiphany.hpp"
#include "fault/injector.hpp"
#include "sar/scene.hpp"

namespace esarp {
namespace {

struct Pin {
  ep::Cycles cycles;
  std::uint64_t events;
  std::uint64_t digest;
};

std::uint64_t digest(const Array2D<cf32>& image) {
  return fault::FaultInjector::checksum(image.data(),
                                        image.size() * sizeof(cf32));
}

std::uint64_t digest(const std::vector<std::vector<double>>& criteria) {
  std::vector<double> flat;
  for (const auto& row : criteria)
    flat.insert(flat.end(), row.begin(), row.end());
  return fault::FaultInjector::checksum(flat.data(),
                                        flat.size() * sizeof(double));
}

void expect_pin(const char* what, ep::Cycles cycles, std::uint64_t events,
                std::uint64_t dig, const Pin& pin) {
  EXPECT_EQ(cycles, pin.cycles) << what;
  EXPECT_EQ(events, pin.events) << what;
  EXPECT_EQ(dig, pin.digest) << what;
}

void expect_pin(const char* what, const core::FfbpSimResult& r,
                const Pin& pin) {
  expect_pin(what, r.cycles, r.perf.engine_events, digest(r.image), pin);
}

void expect_pin(const char* what, const core::AfSimResult& r, const Pin& pin) {
  expect_pin(what, r.cycles, r.perf.engine_events, digest(r.criteria), pin);
}

class FfbpPins : public ::testing::Test {
protected:
  const sar::RadarParams p = sar::test_params(32, 101);
  const Array2D<cf32> data =
      sar::simulate_compressed(p, sar::six_target_scene(p));
};

TEST_F(FfbpPins, SixteenCoresDoubleBuffered) {
  core::FfbpMapOptions opt;
  opt.double_buffer = true;
  expect_pin("16-core double-buffered", core::run_ffbp_epiphany(data, p, opt),
             {144884, 523, 5684939414609338557ULL});
}

TEST_F(FfbpPins, SixteenCoresPrefetchOff) {
  core::FfbpMapOptions opt;
  opt.prefetch = false;
  expect_pin("16-core prefetch off", core::run_ffbp_epiphany(data, p, opt),
             {540954, 491, 5684939414609338557ULL});
}

TEST_F(FfbpPins, OneCore) {
  core::FfbpMapOptions opt;
  opt.n_cores = 1;
  expect_pin("1-core prefetch", core::run_ffbp_epiphany(data, p, opt),
             {2006590, 1, 5684939414609338557ULL});
  expect_pin("1-core sequential",
             core::run_ffbp_sequential_epiphany(data, p),
             {2829936, 1, 5684939414609338557ULL});
}

TEST_F(FfbpPins, IntegratedAutofocus) {
  const af::IntegratedOptions aopt;
  core::FfbpMapOptions opt;
  opt.autofocus = &aopt;
  expect_pin("16-core integrated autofocus",
             core::run_ffbp_epiphany(data, p, opt),
             {2706459, 878, 12488836872292917710ULL});
}

class AfPins : public ::testing::Test {
protected:
  AfPins() {
    Rng rng(1);
    for (int i = 0; i < 4; ++i)
      pairs.push_back(
          af::synthetic_block_pair(rng, p, rng.uniform_f(-0.5f, 0.5f)));
  }
  const af::AfParams p;
  std::vector<af::BlockPair> pairs;
};

TEST_F(AfPins, MpmdCompact) {
  expect_pin("mpmd compact", core::run_autofocus_mpmd(pairs, p),
             {109853, 13089, 322845926929280226ULL});
}

TEST_F(AfPins, MpmdScattered) {
  core::AfMapOptions opt;
  opt.placement = core::AfPlacement::kScattered;
  expect_pin("mpmd scattered", core::run_autofocus_mpmd(pairs, p, opt),
             {109855, 13008, 322845926929280226ULL});
}

TEST_F(AfPins, MpmdAuto) {
  core::AfMapOptions opt;
  opt.placement = core::AfPlacement::kAuto;
  expect_pin("mpmd auto", core::run_autofocus_mpmd(pairs, p, opt),
             {109838, 12947, 322845926929280226ULL});
}

} // namespace
} // namespace esarp
