// Tests for window functions (sidelobe control) and the binary dataset
// container (save/load with CRC).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/rng.hpp"
#include "fft/chirp.hpp"
#include "fft/matched_filter.hpp"
#include "fft/window.hpp"
#include "sar/io.hpp"
#include "sar/scene.hpp"
#include "temp_file.hpp"

namespace esarp {
namespace {

using fft::WindowKind;

class WindowShapes : public ::testing::TestWithParam<WindowKind> {};

TEST_P(WindowShapes, SymmetricPositivePeakOne) {
  const auto w = fft::make_window(GetParam(), 65);
  ASSERT_EQ(w.size(), 65u);
  float peak = 0.0f;
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_GE(w[i], -1e-4f);
    EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-5f) << "i=" << i;
    peak = std::max(peak, w[i]);
  }
  EXPECT_NEAR(peak, 1.0f, 1e-5f);
}

TEST_P(WindowShapes, TaperReducesNoiseBandwidthBelowTwo) {
  const auto w = fft::make_window(GetParam(), 128);
  const double nb = fft::noise_bandwidth_bins(w);
  EXPECT_GE(nb, 1.0 - 1e-9);
  EXPECT_LT(nb, 2.1); // all standard windows stay below ~2 bins
}

INSTANTIATE_TEST_SUITE_P(AllKinds, WindowShapes,
                         ::testing::Values(WindowKind::kRectangular,
                                           WindowKind::kHann,
                                           WindowKind::kHamming,
                                           WindowKind::kBlackman,
                                           WindowKind::kTaylor));

TEST(Window, RectangularIsAllOnes) {
  const auto w = fft::make_window(WindowKind::kRectangular, 16);
  for (float v : w) EXPECT_EQ(v, 1.0f);
  EXPECT_DOUBLE_EQ(fft::coherent_gain(w), 1.0);
  EXPECT_DOUBLE_EQ(fft::noise_bandwidth_bins(w), 1.0);
}

TEST(Window, HammingKnownValues) {
  const auto w = fft::make_window(WindowKind::kHamming, 11);
  EXPECT_NEAR(w[0], 0.08f, 1e-5f);
  EXPECT_NEAR(w[5], 1.0f, 1e-5f);
  EXPECT_NEAR(fft::coherent_gain(w), 0.54, 0.05);
}

TEST(Window, ApplyScalesSignal) {
  std::vector<cf32> sig(8, cf32{2.0f, -2.0f});
  const auto w = fft::make_window(WindowKind::kHann, 8);
  fft::apply_window(sig, w);
  EXPECT_NEAR(std::abs(sig[0]), 0.0f, 1e-5f); // Hann endpoints are zero
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_NEAR(sig[i].real(), 2.0f * w[i], 1e-5f);
}

TEST(Window, MatchedFilterTaperSuppressesSidelobes) {
  // Windowed pulse compression: first range sidelobe drops well below the
  // rectangular filter's -13 dB, at the cost of a slightly wider and lower
  // mainlobe.
  fft::ChirpParams cp;
  cp.sample_rate_hz = 50e6;
  cp.bandwidth_hz = 25e6;
  cp.duration_s = 4e-6; // 200 samples, TB = 100
  const auto replica = fft::make_chirp(cp);
  std::vector<cf32> echo(512);
  for (std::size_t i = 0; i < replica.size(); ++i) echo[100 + i] = replica[i];

  auto sidelobe_db = [&](WindowKind k) {
    fft::MatchedFilter mf(replica, echo.size(), k);
    const auto out = mf.compress(echo);
    const double peak = std::abs(out[100]);
    // Largest response outside the +-4-sample mainlobe region.
    double side = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i)
      if (i + 4 < 100 || i > 104) side = std::max(side, (double)std::abs(out[i]));
    return 20.0 * std::log10(side / peak);
  };

  const double rect = sidelobe_db(WindowKind::kRectangular);
  const double hamming = sidelobe_db(WindowKind::kHamming);
  EXPECT_GT(rect, -21.0);        // rectangular: ~-13..-18 dB sidelobes
  EXPECT_LT(hamming, rect - 8);  // taper buys >= 8 dB
}

TEST(Crc32, KnownVectorAndSensitivity) {
  // "123456789" -> 0xCBF43926 (standard check value).
  const char msg[] = "123456789";
  EXPECT_EQ(sar::crc32(msg, 9), 0xCBF43926u);
  char msg2[] = "123456788";
  EXPECT_NE(sar::crc32(msg2, 9), 0xCBF43926u);
}

TEST(DatasetIo, RoundTripPreservesEverything) {
  const auto p = sar::test_params(16, 33);
  sar::Dataset ds;
  ds.params = p;
  ds.data = sar::simulate_compressed(p, sar::six_target_scene(p));

  const auto path = tests::temp_file("esarp_ds_test.esrp");
  sar::save_dataset(path, ds);
  const sar::Dataset back = sar::load_dataset(path);
  std::filesystem::remove(path);

  EXPECT_EQ(back.data, ds.data);
  EXPECT_DOUBLE_EQ(back.params.center_freq_hz, p.center_freq_hz);
  EXPECT_DOUBLE_EQ(back.params.near_range_m, p.near_range_m);
  EXPECT_EQ(back.params.n_pulses, p.n_pulses);
  EXPECT_DOUBLE_EQ(back.params.theta_span_rad, p.theta_span_rad);
}

TEST(DatasetIo, DetectsCorruption) {
  const auto p = sar::test_params(8, 17);
  sar::Dataset ds;
  ds.params = p;
  ds.data = Array2D<cf32>(8, 17, cf32{1.0f, 2.0f});
  const auto path = tests::temp_file("esarp_ds_corrupt.esrp");
  sar::save_dataset(path, ds);

  // Flip one payload byte.
  {
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(96 + 40);
    char b = 0x7F;
    f.write(&b, 1);
  }
  EXPECT_THROW((void)sar::load_dataset(path), ContractViolation);
  std::filesystem::remove(path);
}

TEST(DatasetIo, RejectsBadMagic) {
  const auto path = tests::temp_file("esarp_ds_magic.esrp");
  {
    std::ofstream f(path, std::ios::binary);
    const char junk[200] = "not a dataset";
    f.write(junk, sizeof(junk));
  }
  EXPECT_THROW((void)sar::load_dataset(path), ContractViolation);
  std::filesystem::remove(path);
}

TEST(DatasetIo, RejectsShapeWhoseProductWraps) {
  // rows = cols = 2^32 (n_pulses and n_range agreeing), no payload, CRC 0:
  // rows * cols wraps to 0 in 64 bits, which used to pass the size bound
  // and load an empty array claiming 2^32 rows.
  const auto path = tests::temp_file("esarp_ds_wrap.esrp");
  {
    unsigned char h[96] = {};
    const std::uint32_t magic_version[2] = {0x45535250u, 1u};
    const std::uint64_t k = std::uint64_t{1} << 32;
    std::memcpy(h, magic_version, sizeof(magic_version));
    std::memcpy(h + 8, &k, 8);  // rows
    std::memcpy(h + 16, &k, 8); // cols
    std::memcpy(h + 40, &k, 8); // n_pulses
    std::memcpy(h + 48, &k, 8); // n_range
    std::ofstream f(path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(h), sizeof(h));
  }
  EXPECT_THROW((void)sar::load_dataset(path), ContractViolation);
  std::filesystem::remove(path);
}

TEST(DatasetIo, RejectsShapeDisagreeingWithParams) {
  // A valid 8x17 file whose n_pulses (offset 40) or n_range (offset 48)
  // no longer matches the stored rows x cols.
  const auto p = sar::test_params(8, 17);
  sar::Dataset ds;
  ds.params = p;
  ds.data = Array2D<cf32>(8, 17, cf32{1.0f, 2.0f});
  const auto path = tests::temp_file("esarp_ds_shape.esrp");
  for (const std::streamoff field : {40, 48}) {
    sar::save_dataset(path, ds);
    {
      std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
      f.seekp(field);
      const std::uint64_t wrong = 9;
      f.write(reinterpret_cast<const char*>(&wrong), sizeof(wrong));
    }
    EXPECT_THROW((void)sar::load_dataset(path), ContractViolation)
        << "header field at offset " << field;
  }
  std::filesystem::remove(path);
}

TEST(DatasetIo, MissingFileThrows) {
  EXPECT_THROW((void)sar::load_dataset("/nonexistent/nowhere.esrp"),
               ContractViolation);
}

} // namespace
} // namespace esarp
