// Static mapping analyzer (esarp lint): every checker must fire on a
// seeded violation, every shipped mapping must lint clean, and the
// analytic cost model must track full simulation on the tier-1 scenes
// within the pinned error band (docs/static-analysis.md).
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analyzer.hpp"
#include "analysis/cost_model.hpp"
#include "analysis/lint_report.hpp"
#include "autofocus/workload.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/autofocus_epiphany.hpp"
#include "core/ffbp_epiphany.hpp"
#include "core/gbp_epiphany.hpp"
#include "core/mapping_desc.hpp"
#include "sar/scene.hpp"

namespace esarp {
namespace {

using analysis::LintFinding;
using analysis::MappingSpec;

/// Maximum |predicted - simulated| / simulated pinned by the issue: the
/// analytic model must stay within 15% of full simulation on the tier-1
/// scenes. Measured errors are recorded in docs/static-analysis.md.
constexpr double kCycleBand = 0.15;
constexpr double kEnergyBand = 0.15;

constexpr core::AfPlacement kAfPlacements[] = {core::AfPlacement::kCompact,
                                               core::AfPlacement::kScattered,
                                               core::AfPlacement::kAuto};

std::size_t count_check(const std::vector<LintFinding>& fs,
                        const std::string& check) {
  std::size_t n = 0;
  for (const auto& f : fs)
    if (f.check == check) ++n;
  return n;
}

bool has_message(const std::vector<LintFinding>& fs,
                 const std::string& check, const std::string& substr) {
  for (const auto& f : fs)
    if (f.check == check && f.message.find(substr) != std::string::npos)
      return true;
  return false;
}

std::string dump(const std::vector<LintFinding>& fs) {
  std::string out;
  for (const auto& f : fs) out += analysis::format(f) + "\n";
  return out;
}

double rel_error(double predicted, double simulated) {
  return std::abs(predicted - simulated) / simulated;
}

/// All shipped mapping descriptors at tier-1 sizes.
std::vector<MappingSpec> shipped_specs() {
  const sar::RadarParams p = sar::test_params(32, 101);
  std::vector<MappingSpec> specs;
  core::FfbpMapOptions ffbp;
  specs.push_back(core::describe_ffbp_mapping(p, ffbp));
  core::FfbpMapOptions seq;
  seq.n_cores = 1;
  seq.prefetch = false;
  specs.push_back(core::describe_ffbp_mapping(p, seq));
  core::FfbpMapOptions db;
  db.double_buffer = true;
  specs.push_back(core::describe_ffbp_mapping(p, db));
  const af::IntegratedOptions aopt;
  core::FfbpMapOptions withaf;
  withaf.autofocus = &aopt;
  specs.push_back(core::describe_ffbp_mapping(sar::test_params(64, 161),
                                              withaf));
  specs.push_back(core::describe_gbp_mapping(p, 16));
  const af::AfParams afp;
  for (const core::AfPlacement placement : kAfPlacements) {
    core::AfMapOptions opt;
    opt.placement = placement;
    specs.push_back(core::describe_autofocus_mpmd(4, afp, opt));
  }
  specs.push_back(core::describe_autofocus_sequential(4, afp));
  return specs;
}

// --- legality: shipped mappings ------------------------------------------

TEST(AnalyzerShipped, AllShippedMappingsLintClean) {
  for (const MappingSpec& spec : shipped_specs()) {
    const auto findings = analysis::analyze(spec);
    EXPECT_TRUE(findings.empty())
        << "mapping '" << spec.name << "':\n" << dump(findings);
  }
}

TEST(AnalyzerShipped, AnalyzeIsDeterministicAndSorted) {
  for (const MappingSpec& spec : shipped_specs()) {
    const auto a = analysis::analyze(spec);
    const auto b = analysis::analyze(spec);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
      EXPECT_EQ(analysis::format(a[i]), analysis::format(b[i]));
  }
}

// --- seeded violations, one per checker ----------------------------------

/// Two-core skeleton with one shared barrier, legal by construction.
MappingSpec two_core_spec() {
  MappingSpec spec;
  spec.name = "synthetic";
  spec.family = "spmd";
  spec.barriers.push_back(analysis::BarrierDecl{"sync", 2, {0, 1}});
  for (int id : {0, 1}) {
    analysis::CoreSpec c;
    c.id = id;
    c.role = "worker";
    c.sync.push_back(
        analysis::SyncOp{analysis::SyncOp::Kind::kBarrier, 0, 1, "phase"});
    spec.cores.push_back(std::move(c));
  }
  return spec;
}

TEST(AnalyzerCheckers, CoreIdFlagsOffChipAndDuplicateIds) {
  MappingSpec spec = two_core_spec();
  spec.cores[1].id = 16; // off the 4x4 mesh
  analysis::CoreSpec dup;
  dup.id = 0;
  spec.cores.push_back(dup);
  spec.barriers.clear();
  for (auto& c : spec.cores) c.sync.clear();
  const auto findings = analysis::analyze(spec);
  EXPECT_TRUE(has_message(findings, "core-id", "off-chip"))
      << dump(findings);
  EXPECT_TRUE(has_message(findings, "core-id", "mapped 2 times"))
      << dump(findings);
}

TEST(AnalyzerCheckers, LocalFitFlagsOverflowCollisionAndBadBank) {
  MappingSpec spec = two_core_spec();
  // Bank 2 filled past bank 3's base (collision), then a buffer that
  // cannot fit anywhere (overflow), then a bank the chip does not have.
  spec.cores[0].allocs = {
      {"big", 2, 12000, "setup"},
      {"late", 3, 9000, "setup"},
      {"ghost", 7, 8, "setup"},
  };
  const auto findings = analysis::analyze(spec);
  EXPECT_TRUE(has_message(findings, "local-fit", "collision"))
      << dump(findings);
  EXPECT_TRUE(has_message(findings, "local-fit", "overflow"))
      << dump(findings);
  EXPECT_TRUE(has_message(findings, "local-fit", "does not exist"))
      << dump(findings);
}

TEST(AnalyzerCheckers, LocalFitRejectsPaperSizeDoubleBuffer) {
  // The FfbpMapOptions doc promises the 1001-bin double-buffered prefetch
  // cannot fit the four-bank budget; the static checker must prove it
  // without running the allocator.
  core::FfbpMapOptions opt;
  opt.double_buffer = true;
  const auto findings = analysis::analyze(
      core::describe_ffbp_mapping(sar::test_params(32, 1001), opt));
  EXPECT_GT(count_check(findings, "local-fit"), 0u) << dump(findings);
  EXPECT_TRUE(has_message(findings, "local-fit", "overflow"))
      << dump(findings);
}

TEST(AnalyzerCheckers, BarrierFlagsArityMismatchAndMissingMember) {
  MappingSpec spec = two_core_spec();
  spec.barriers[0].parties = 3;       // constructed for 3, 2 mapped
  spec.barriers[0].members = {0, 5};  // core 5 does not exist
  const auto findings = analysis::analyze(spec);
  EXPECT_TRUE(has_message(findings, "barrier", "arity mismatch"))
      << dump(findings);
  EXPECT_TRUE(has_message(findings, "barrier", "not part of the mapping"))
      << dump(findings);
}

TEST(AnalyzerCheckers, BarrierFlagsUnbalancedCrossings) {
  MappingSpec spec = two_core_spec();
  spec.cores[0].sync[0].count = 2; // core 0 crosses twice, core 1 once
  const auto findings = analysis::analyze(spec);
  EXPECT_TRUE(has_message(findings, "barrier", "unbalanced crossings"))
      << dump(findings);
  // The extra waiter also deadlocks the abstract execution.
  EXPECT_TRUE(has_message(findings, "deadlock", "blocked waiting on barrier"))
      << dump(findings);
}

TEST(AnalyzerCheckers, ChannelFlagsCountMismatchAndWrongEndpoint) {
  MappingSpec spec = two_core_spec();
  spec.barriers.clear();
  for (auto& c : spec.cores) c.sync.clear();
  spec.channels.push_back(analysis::ChannelDecl{"a->b", 0, 1, 8, 16});
  spec.cores[0].sync.push_back(
      analysis::SyncOp{analysis::SyncOp::Kind::kSend, 0, 3, "stream"});
  spec.cores[1].sync.push_back(
      analysis::SyncOp{analysis::SyncOp::Kind::kRecv, 0, 2, "stream"});
  // Core 1 also (bogusly) sends on a channel it only consumes.
  spec.cores[1].sync.push_back(
      analysis::SyncOp{analysis::SyncOp::Kind::kSend, 0, 1, "stream"});
  const auto findings = analysis::analyze(spec);
  EXPECT_TRUE(has_message(findings, "channel", "sends on a channel produced"))
      << dump(findings);
  EXPECT_TRUE(has_message(findings, "channel", "send(s) vs"))
      << dump(findings);
}

TEST(AnalyzerCheckers, ChannelFlagsZeroCapacity) {
  MappingSpec spec = two_core_spec();
  spec.channels.push_back(analysis::ChannelDecl{"a->b", 0, 1, 0, 16});
  const auto findings = analysis::analyze(spec);
  EXPECT_TRUE(has_message(findings, "channel", "capacity 0")) << dump(findings);
}

TEST(AnalyzerCheckers, DeadlockFlagsCrossedReceiveOrder) {
  MappingSpec spec = two_core_spec();
  spec.barriers.clear();
  for (auto& c : spec.cores) c.sync.clear();
  spec.channels.push_back(analysis::ChannelDecl{"a->b", 0, 1, 1, 16});
  spec.channels.push_back(analysis::ChannelDecl{"b->a", 1, 0, 1, 16});
  // Both sides receive before sending: classic wait-for cycle.
  spec.cores[0].sync = {
      {analysis::SyncOp::Kind::kRecv, 1, 1, "exchange"},
      {analysis::SyncOp::Kind::kSend, 0, 1, "exchange"},
  };
  spec.cores[1].sync = {
      {analysis::SyncOp::Kind::kRecv, 0, 1, "exchange"},
      {analysis::SyncOp::Kind::kSend, 1, 1, "exchange"},
  };
  const auto findings = analysis::analyze(spec);
  EXPECT_EQ(count_check(findings, "deadlock"), 2u) << dump(findings);
  EXPECT_TRUE(has_message(findings, "deadlock", "blocked receiving"))
      << dump(findings);
  // No other checker fires: the topology itself is legal.
  EXPECT_EQ(findings.size(), 2u) << dump(findings);
}

TEST(AnalyzerCheckers, DeadlockFlagsCapacityBackpressureCycle) {
  MappingSpec spec = two_core_spec();
  spec.channels.push_back(analysis::ChannelDecl{"a->b", 0, 1, 2, 16});
  // Core 0 pushes 5 messages before the barrier; core 1 drains only after
  // it — backpressure parks core 0 at queue 2/2 and the barrier never fires.
  spec.cores[0].sync = {
      {analysis::SyncOp::Kind::kSend, 0, 5, "stream"},
      {analysis::SyncOp::Kind::kBarrier, 0, 1, "stream"},
  };
  spec.cores[1].sync = {
      {analysis::SyncOp::Kind::kBarrier, 0, 1, "stream"},
      {analysis::SyncOp::Kind::kRecv, 0, 5, "stream"},
  };
  const auto findings = analysis::analyze(spec);
  EXPECT_TRUE(has_message(findings, "deadlock", "queue 2/2 full"))
      << dump(findings);
  EXPECT_TRUE(has_message(findings, "deadlock", "blocked waiting on barrier"))
      << dump(findings);
}

TEST(AnalyzerCheckers, FindingFormatMirrorsCheckDiagnostics) {
  const LintFinding f{"local-fit", 3, "child_row1", "ffbp-setup", "boom"};
  EXPECT_EQ(analysis::format(f),
            "[local-fit] core 3 (child_row1, span ffbp-setup): boom");
  const LintFinding mapping_level{"barrier", -1, "sync", "", "arity"};
  EXPECT_EQ(analysis::format(mapping_level), "[barrier] (sync): arity");
}

// --- cost model vs simulation (tier-1 scenes) ----------------------------

TEST(CostModelValidation, FfbpSpmdWithinBand) {
  const sar::RadarParams p = sar::test_params(32, 101);
  const auto data = sar::simulate_compressed(p, sar::six_target_scene(p));
  core::FfbpMapOptions opt;
  const auto pred = analysis::predict_cost(core::describe_ffbp_mapping(p, opt));
  const auto sim = core::run_ffbp_epiphany(data, p, opt);
  EXPECT_LT(rel_error(static_cast<double>(pred.makespan),
                      static_cast<double>(sim.cycles)),
            kCycleBand)
      << "predicted " << pred.makespan << " vs simulated " << sim.cycles;
  EXPECT_LT(rel_error(pred.energy.total_j(), sim.energy.total_j()),
            kEnergyBand)
      << "predicted " << pred.energy.total_j() << " J vs simulated "
      << sim.energy.total_j() << " J";
}

TEST(CostModelValidation, FfbpSequentialWithinBand) {
  const sar::RadarParams p = sar::test_params(32, 101);
  const auto data = sar::simulate_compressed(p, sar::six_target_scene(p));
  core::FfbpMapOptions opt;
  opt.n_cores = 1;
  opt.prefetch = false;
  const auto pred = analysis::predict_cost(core::describe_ffbp_mapping(p, opt));
  const auto sim = core::run_ffbp_epiphany(data, p, opt);
  EXPECT_LT(rel_error(static_cast<double>(pred.makespan),
                      static_cast<double>(sim.cycles)),
            kCycleBand)
      << "predicted " << pred.makespan << " vs simulated " << sim.cycles;
}

TEST(CostModelValidation, GbpWithinBand) {
  const sar::RadarParams p = sar::test_params(32, 101);
  const auto data = sar::simulate_compressed(p, sar::six_target_scene(p));
  const auto pred = analysis::predict_cost(core::describe_gbp_mapping(p, 16));
  const auto sim = core::run_gbp_epiphany(data, p, 16);
  EXPECT_LT(rel_error(static_cast<double>(pred.makespan),
                      static_cast<double>(sim.cycles)),
            kCycleBand)
      << "predicted " << pred.makespan << " vs simulated " << sim.cycles;
  EXPECT_LT(rel_error(pred.energy.total_j(), sim.energy.total_j()),
            kEnergyBand);
}

TEST(CostModelValidation, IntegratedAutofocusWithinBand) {
  const sar::RadarParams p = sar::test_params(64, 161);
  const auto data = sar::simulate_compressed(p, sar::six_target_scene(p));
  const af::IntegratedOptions aopt;
  core::FfbpMapOptions opt;
  opt.autofocus = &aopt;
  const auto pred = analysis::predict_cost(core::describe_ffbp_mapping(p, opt));
  const auto sim = core::run_ffbp_epiphany(data, p, opt);
  EXPECT_LT(rel_error(static_cast<double>(pred.makespan),
                      static_cast<double>(sim.cycles)),
            kCycleBand)
      << "predicted " << pred.makespan << " vs simulated " << sim.cycles;
  EXPECT_LT(rel_error(pred.energy.total_j(), sim.energy.total_j()),
            kEnergyBand);
}

TEST(CostModelValidation, AutofocusMpmdWithinBand) {
  const af::AfParams p;
  Rng rng(1);
  std::vector<af::BlockPair> pairs;
  for (int i = 0; i < 4; ++i)
    pairs.push_back(
        af::synthetic_block_pair(rng, p, rng.uniform_f(-0.5f, 0.5f)));
  for (const core::AfPlacement placement : kAfPlacements) {
    core::AfMapOptions opt;
    opt.placement = placement;
    const auto pred = analysis::predict_cost(
        core::describe_autofocus_mpmd(pairs.size(), p, opt));
    const auto sim = core::run_autofocus_mpmd(pairs, p, opt);
    EXPECT_LT(rel_error(static_cast<double>(pred.makespan),
                        static_cast<double>(sim.cycles)),
              kCycleBand)
        << "placement " << static_cast<int>(placement) << ": predicted "
        << pred.makespan << " vs simulated " << sim.cycles;
  }
}

TEST(CostModelValidation, AutofocusSequentialIsNearExact) {
  // One core, no contention: the model's closed forms should reproduce
  // the scheduler almost cycle for cycle.
  const af::AfParams p;
  Rng rng(1);
  std::vector<af::BlockPair> pairs;
  for (int i = 0; i < 4; ++i)
    pairs.push_back(
        af::synthetic_block_pair(rng, p, rng.uniform_f(-0.5f, 0.5f)));
  const auto pred = analysis::predict_cost(
      core::describe_autofocus_sequential(pairs.size(), p));
  const auto sim = core::run_autofocus_sequential_epiphany(pairs, p);
  EXPECT_LT(rel_error(static_cast<double>(pred.makespan),
                      static_cast<double>(sim.cycles)),
            0.01)
      << "predicted " << pred.makespan << " vs simulated " << sim.cycles;
}

// --- lint manifest -------------------------------------------------------

TEST(LintManifest, RoundTripsThroughJsonParser) {
  const sar::RadarParams p = sar::test_params(32, 101);
  core::FfbpMapOptions opt;
  const auto spec = core::describe_ffbp_mapping(p, opt);

  analysis::MappingReport clean;
  clean.name = spec.name;
  clean.family = spec.family;
  clean.cores = static_cast<int>(spec.cores.size());
  clean.findings = analysis::analyze(spec);
  clean.prediction = analysis::predict_cost(spec);
  clean.validated = true;
  clean.simulated_cycles = 151322;
  clean.cycle_error = 0.085;
  clean.simulated_joules = 1.7e-4;
  clean.energy_error = 0.011;

  analysis::MappingReport dirty;
  dirty.name = "broken";
  dirty.family = "mpmd";
  dirty.cores = 2;
  dirty.findings.push_back(
      LintFinding{"deadlock", 1, "a->b", "exchange", "blocked receiving"});

  std::ostringstream os;
  analysis::write_manifest(os, {clean, dirty});
  const JsonValue doc = parse_json(os.str());

  ASSERT_NE(doc.find("schema"), nullptr);
  EXPECT_EQ(doc.find("schema")->as_string(), "esarp-lint-manifest/1");
  EXPECT_EQ(doc.find("total_findings")->as_number(), 1.0);
  const auto& mappings = doc.find("mappings")->as_array();
  ASSERT_EQ(mappings.size(), 2u);
  EXPECT_EQ(mappings[0].find("name")->as_string(), spec.name);
  EXPECT_EQ(mappings[0].find_path("prediction.makespan_cycles")->as_number(),
            static_cast<double>(clean.prediction.makespan));
  EXPECT_EQ(mappings[0].find_path("validation.simulated_cycles")->as_number(),
            151322.0);
  const auto& findings = mappings[1].find("findings")->as_array();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].find("check")->as_string(), "deadlock");
  EXPECT_EQ(findings[0].find("core")->as_number(), 1.0);
  EXPECT_EQ(mappings[1].find("validation"), nullptr);
  EXPECT_EQ(analysis::total_findings({clean, dirty}), 1u);
}

TEST(LintManifest, ConsoleReportIsStable) {
  analysis::MappingReport rep;
  rep.name = "synthetic";
  rep.family = "spmd";
  rep.cores = 2;
  rep.prediction.makespan = 100;
  rep.prediction.energy.avg_watts = 0.5;
  std::ostringstream a, b;
  analysis::write_console_report(a, {rep});
  analysis::write_console_report(b, {rep});
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("==esarp-lint== mapping 'synthetic'"),
            std::string::npos);
}

} // namespace
} // namespace esarp
