// Unit tests for the common utilities: contracts, 2-D arrays/views, RNG,
// statistics, image output, tables, formatting, CSV.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/array2d.hpp"
#include "common/assert.hpp"
#include "common/csv.hpp"
#include "common/format.hpp"
#include "common/pgm.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/types.hpp"
#include "temp_file.hpp"

namespace esarp {
namespace {

TEST(Assert, ExpectsThrowsOnViolation) {
  EXPECT_NO_THROW(ESARP_EXPECTS(1 + 1 == 2));
  EXPECT_THROW(ESARP_EXPECTS(1 + 1 == 3), ContractViolation);
  EXPECT_THROW(ESARP_ENSURES(false), ContractViolation);
}

TEST(Assert, MessageNamesExpressionAndLocation) {
  try {
    ESARP_EXPECTS(2 < 1);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("2 < 1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_common.cpp"),
              std::string::npos);
  }
}

TEST(Array2D, StoresAndRetrievesRowMajor) {
  Array2D<int> a(3, 4);
  int v = 0;
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 4; ++c) a(r, c) = v++;
  EXPECT_EQ(a(0, 0), 0);
  EXPECT_EQ(a(2, 3), 11);
  EXPECT_EQ(a.data()[5], a(1, 1));
  EXPECT_EQ(a.row(1)[2], a(1, 2));
}

TEST(Array2D, OutOfBoundsThrows) {
  Array2D<int> a(2, 2);
  EXPECT_THROW(a(2, 0), ContractViolation);
  EXPECT_THROW(a(0, 2), ContractViolation);
  EXPECT_THROW((void)a.row(2), ContractViolation);
}

TEST(Array2D, FillAndEquality) {
  Array2D<int> a(2, 3, 7);
  Array2D<int> b(2, 3);
  b.fill(7);
  EXPECT_EQ(a, b);
  b(1, 2) = 8;
  EXPECT_FALSE(a == b);
}

TEST(View2D, SubviewSeesParentMemory) {
  Array2D<int> a(4, 4, 0);
  auto sub = a.subview(1, 1, 2, 2);
  sub(0, 0) = 42;
  EXPECT_EQ(a(1, 1), 42);
  EXPECT_EQ(sub.rows(), 2u);
  EXPECT_EQ(sub.row_stride(), 4u);
}

TEST(View2D, ConstConversion) {
  Array2D<int> a(2, 2, 1);
  View2D<int> v = a.view();
  View2D<const int> cv = v;
  EXPECT_EQ(cv(1, 1), 1);
}

TEST(View2D, NestedSubview) {
  Array2D<int> a(6, 6);
  for (std::size_t r = 0; r < 6; ++r)
    for (std::size_t c = 0; c < 6; ++c) a(r, c) = static_cast<int>(r * 6 + c);
  auto outer = a.subview(1, 1, 4, 4);
  auto inner = outer.subview(1, 1, 2, 2);
  EXPECT_EQ(inner(0, 0), a(2, 2));
  EXPECT_EQ(inner(1, 1), a(3, 3));
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, BelowIsBoundedAndCoversRange) {
  Rng rng(99);
  bool seen[5] = {};
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.below(5);
    ASSERT_LT(v, 5u);
    seen[v] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Rng, NormalHasRoughlyUnitMoments) {
  Rng rng(42);
  RunningStats st;
  for (int i = 0; i < 20000; ++i) st.add(rng.normal());
  EXPECT_NEAR(st.mean(), 0.0, 0.03);
  EXPECT_NEAR(st.stddev(), 1.0, 0.03);
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats st;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) st.add(v);
  EXPECT_DOUBLE_EQ(st.mean(), 5.0);
  EXPECT_DOUBLE_EQ(st.variance(), 4.0);
  EXPECT_DOUBLE_EQ(st.min(), 2.0);
  EXPECT_DOUBLE_EQ(st.max(), 9.0);
  EXPECT_EQ(st.count(), 8u);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats a, b, all;
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const double v = rng.uniform(-3, 11);
    (i < 37 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Stats, RmseZeroForIdentical) {
  std::vector<float> v{1.f, 2.f, 3.f};
  EXPECT_DOUBLE_EQ(rmse(std::span<const float>(v), v), 0.0);
}

TEST(Stats, RmseKnownValue) {
  std::vector<float> a{0.f, 0.f};
  std::vector<float> b{3.f, 4.f};
  EXPECT_NEAR(rmse(std::span<const float>(a), b), std::sqrt(12.5), 1e-6);
}

TEST(Stats, EntropyOfUniformIsLogN) {
  Array2D<cf32> img(4, 4, cf32{1.0f, 0.0f});
  EXPECT_NEAR(image_entropy(img), 4.0, 1e-6); // log2(16)
}

TEST(Stats, EntropyOfPointIsZero) {
  Array2D<cf32> img(4, 4);
  img(2, 2) = {3.0f, 0.0f};
  EXPECT_NEAR(image_entropy(img), 0.0, 1e-9);
}

TEST(Stats, ContrastHigherForSparseImage) {
  Array2D<cf32> flat(8, 8, cf32{1.0f, 0.0f});
  Array2D<cf32> sparse(8, 8);
  sparse(1, 1) = {8.0f, 0.0f};
  EXPECT_GT(image_contrast(sparse), image_contrast(flat));
}

TEST(Pgm, WritesValidHeaderAndSize) {
  const auto path = tests::temp_file("esarp_test.pgm");
  Array2D<cf32> img(5, 7);
  img(2, 3) = {1.0f, 0.0f};
  write_pgm(path, img);
  std::ifstream f(path, std::ios::binary);
  std::string magic;
  f >> magic;
  int w = 0, h = 0, maxv = 0;
  f >> w >> h >> maxv;
  EXPECT_EQ(magic, "P5");
  EXPECT_EQ(w, 7);
  EXPECT_EQ(h, 5);
  EXPECT_EQ(maxv, 255);
  f.get(); // single whitespace after header
  std::vector<char> pixels(35);
  f.read(pixels.data(), 35);
  EXPECT_EQ(f.gcount(), 35);
  std::filesystem::remove(path);
}

TEST(Pgm, AsciiRenderMarksPeak) {
  Array2D<cf32> img(16, 32);
  img(8, 16) = {1.0f, 0.0f};
  const std::string art = ascii_render(img, 32);
  EXPECT_NE(art.find('@'), std::string::npos);
}

TEST(Table, AlignsColumnsAndPrintsNotes) {
  Table t("demo");
  t.header({"name", "value"});
  t.row({"a", "1"});
  t.row({"bb", "22"});
  t.note("a note");
  const std::string s = t.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("a note"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t("x");
  t.header({"a", "b"});
  EXPECT_THROW(t.row({"only-one"}), ContractViolation);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::eng(1500.0, "B", 1), "1.5 kB");
}

TEST(Format, Seconds) {
  EXPECT_EQ(format_seconds(1.5), "1.50 s");
  EXPECT_EQ(format_seconds(0.0015), "1.50 ms");
  EXPECT_EQ(format_seconds(1.5e-6), "1.50 us");
  EXPECT_EQ(format_seconds(5e-9), "5.00 ns");
}

TEST(Format, Cycles) {
  EXPECT_EQ(format_cycles(1234567), "1,234,567");
  EXPECT_EQ(format_cycles(12), "12");
}

TEST(Format, Bytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(16016), "15.6 KB");
}

TEST(Csv, WritesHeaderAndRows) {
  const auto path = tests::temp_file("esarp_test.csv");
  {
    CsvWriter w(path, {"a", "b"});
    w.row({"1", "hello, world"});
    w.row_numeric({2.5, 3.5});
    EXPECT_EQ(w.rows_written(), 2u);
  }
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "a,b");
  std::getline(f, line);
  EXPECT_EQ(line, "1,\"hello, world\"");
  std::filesystem::remove(path);
}

TEST(Csv, RowWidthMismatchThrows) {
  const auto path = tests::temp_file("esarp_test2.csv");
  CsvWriter w(path, {"a"});
  EXPECT_THROW(w.row({"1", "2"}), ContractViolation);
  std::filesystem::remove(path);
}

} // namespace
} // namespace esarp
