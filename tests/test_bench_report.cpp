// bench::Report (bench/bench_util.hpp): a bench states each number once,
// and its console table, its CSV and its manifest results all come from
// that one copy; a claim is checked in the run and fails the bench.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/json.hpp"
#include "temp_file.hpp"

namespace {

using namespace esarp;

/// Each test writes into its own output directory (ESARP_BENCH_OUT).
class BenchReport : public ::testing::Test {
protected:
  void SetUp() override {
    ::setenv("ESARP_BENCH_OUT", dir_.c_str(), 1);
    ::testing::internal::CaptureStdout();
  }
  void TearDown() override {
    ::testing::internal::GetCapturedStdout();
    ::unsetenv("ESARP_BENCH_OUT");
    std::filesystem::remove_all(dir_);
  }

  [[nodiscard]] std::vector<std::string> lines(const std::string& file) const {
    std::ifstream in(dir_ / file);
    std::vector<std::string> out;
    for (std::string line; std::getline(in, line);) out.push_back(line);
    return out;
  }

  static std::vector<std::string> split(const std::string& line) {
    std::vector<std::string> cells;
    std::istringstream in(line);
    for (std::string cell; std::getline(in, cell, ',');) cells.push_back(cell);
    return cells;
  }

  const std::filesystem::path dir_ = tests::temp_file("bench_report");
};

TEST_F(BenchReport, CsvHeaderIsTheColumnKeysAndATextCellWithACommaIsQuoted) {
  bench::Report rep("report_csv");
  auto& t = rep.sheet("csv", {{"Campaign", "campaign"},
                              {"Cycles", "cycles", bench::kGrouped}});
  t.row({"fail-stop, core 15", 5877825});
  ASSERT_EQ(rep.finish(), 0);
  const auto csv = lines("report_csv.csv");
  ASSERT_EQ(csv.size(), 2u);
  EXPECT_EQ(csv[0], "campaign,cycles");
  EXPECT_EQ(csv[1], "\"fail-stop, core 15\",5877825");
}

TEST_F(BenchReport, NumbersRoundTripThroughTheCsvAndShowPerTheirColumn) {
  const double cycles = 5877825;
  const double latency_s = 9.763300000000002e-05;
  bench::Report rep("report_exact");
  auto& t = rep.sheet("exact", {{"Cycles", "cycles", bench::kGrouped},
                                {"p99 (ms)", "latency_s", {3, 1e3}}});
  t.row({cycles, latency_s});
  ASSERT_EQ(rep.finish(), 0);
  const auto csv = lines("report_exact.csv");
  ASSERT_EQ(csv.size(), 2u);
  const auto cells = split(csv[1]);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0], "5877825");
  EXPECT_EQ(std::stod(cells[0]), cycles);
  EXPECT_EQ(std::stod(cells[1]), latency_s);
  // The console shows the same cells per their columns.
  const std::string shown = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(shown.find("5,877,825"), std::string::npos) << shown;
  EXPECT_NE(shown.find("0.098"), std::string::npos) << shown;
  ::testing::internal::CaptureStdout();
}

TEST_F(BenchReport, ADeclaredCellLandsAtItsResultsKeyAndNothingElseDoes) {
  telemetry::RunManifest man("report_results");
  bench::Report rep(man);
  auto& t = rep.sheet("results", {{"Campaign", "campaign"},
                                  {"Cycles", "cycles", bench::kGrouped,
                                   bench::kResult},
                                  {"Slowdown", "slowdown", {3}}});
  t.row("p3.", {"1e-3", 5877825, 0.97});
  t.row({"unkeyed", 6143453, 1.05});
  ASSERT_EQ(rep.finish(), 0);
  std::ifstream in(dir_ / "report_results.manifest.json");
  std::stringstream text;
  text << in.rdbuf();
  const JsonValue doc = parse_json(text.str());
  const JsonValue* results = doc.find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->as_object().size(), 1u);
  const JsonValue* cycles = results->find("p3.cycles");
  ASSERT_NE(cycles, nullptr);
  EXPECT_EQ(cycles->as_number(), 5877825.0);
  EXPECT_EQ(results->find("p3.slowdown"), nullptr);
}

TEST_F(BenchReport, AFailedClaimExitsOneAndIsNamed) {
  bench::Report rep("report_claims");
  rep.require("a claim that holds", true);
  rep.require("scattered costs at least 2.5x the compact byte-hops", false);
  ::testing::internal::CaptureStderr();
  const int status = rep.finish();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(status, 1);
  EXPECT_NE(err.find("report_claims: claim failed: scattered costs at least "
                     "2.5x the compact byte-hops"),
            std::string::npos)
      << err;
  EXPECT_EQ(err.find("a claim that holds"), std::string::npos) << err;
}

TEST_F(BenchReport, PassingClaimsExitZero) {
  bench::Report rep("report_pass");
  rep.require("one", true);
  rep.require("two", true);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(rep.finish(), 0);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

} // namespace
