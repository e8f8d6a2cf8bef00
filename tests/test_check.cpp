// esarp::check hazard sanitizer: negative tests (each injected hazard must
// produce exactly the expected diagnostic with core id + simulated cycle),
// suppression/report plumbing, and the bit-identity guarantee (a checked
// run matches an unchecked run cycle for cycle).
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/check.hpp"
#include "check/report.hpp"
#include "common/glob.hpp"
#include "common/json.hpp"
#include "core/ffbp_epiphany.hpp"
#include "epiphany/machine.hpp"
#include "sar/scene.hpp"
#include "temp_file.hpp"

namespace esarp {
namespace {

using check::CheckFailure;
using check::Hazard;

ep::ChipConfig checked_config(bool abort_on_hazard = false) {
  ep::ChipConfig cfg;
  cfg.check.enabled = true;
  cfg.check.abort_on_hazard = abort_on_hazard;
  return cfg;
}

/// First diagnostic of `kind`, failing the test if absent.
const check::Diagnostic& first_of(const ep::Machine& m, Hazard kind) {
  const auto& diags = m.checker()->diagnostics();
  for (const auto& d : diags)
    if (d.kind == kind) return d;
  ADD_FAILURE() << "no diagnostic of kind " << check::to_string(kind)
                << " among " << diags.size();
  static const check::Diagnostic none{};
  return none;
}

/// Removes an environment variable for the enclosing scope, restoring any
/// previous value on destruction. Lets the suite itself run under
/// `ESARP_CHECK=1` without the override leaking into tests that pin the
/// un-overridden default.
class ScopedUnsetEnv {
 public:
  explicit ScopedUnsetEnv(const char* name) : name_(name) {
    if (const char* v = std::getenv(name)) {
      saved_ = v;
      ::unsetenv(name);
    }
  }
  ~ScopedUnsetEnv() {
    if (saved_) ::setenv(name_, saved_->c_str(), /*overwrite=*/1);
  }
  ScopedUnsetEnv(const ScopedUnsetEnv&) = delete;
  ScopedUnsetEnv& operator=(const ScopedUnsetEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

TEST(Check, DisabledByDefault) {
  const ScopedUnsetEnv guard("ESARP_CHECK");
  ep::Machine m;
  EXPECT_EQ(m.checker(), nullptr);
}

TEST(Check, CleanRunHasNoDiagnostics) {
  ep::Machine m(checked_config(/*abort_on_hazard=*/true));
  ASSERT_NE(m.checker(), nullptr);
  auto src = m.ext().alloc<float>(256);
  m.launch(0, [&](ep::CoreCtx& ctx) -> ep::Task {
    auto buf = ctx.local().alloc<float>(256);
    auto job = ctx.dma_read_ext(buf.data(), src.data(), 256 * sizeof(float));
    co_await ctx.compute({.fadd = 64});
    co_await ctx.wait(job);
    co_await ctx.write_ext(src.data(), buf.data(), 256 * sizeof(float));
  });
  EXPECT_NO_THROW(m.run());
  EXPECT_TRUE(m.checker()->diagnostics().empty());
}

// --- dma-race -------------------------------------------------------------

TEST(Check, DmaRaceReadingDestinationBeforeWait) {
  ep::Machine m(checked_config());
  auto src = m.ext().alloc<float>(512);
  m.launch(2, [&](ep::CoreCtx& ctx) -> ep::Task {
    auto buf = ctx.local().alloc<float>(512);
    auto job = ctx.dma_read_ext(buf.data(), src.data(), 512 * sizeof(float));
    // BUG under test: consume the buffer before awaiting the DMA.
    co_await ctx.write_ext(src.data(), buf.data(), 512 * sizeof(float));
    co_await ctx.wait(job);
  });
  m.run();
  ASSERT_TRUE(m.checker()->has(Hazard::kDmaRace));
  const auto& d = first_of(m, Hazard::kDmaRace);
  EXPECT_EQ(d.core, 2);
  EXPECT_EQ(d.cycle, 0u); // the racing access happens before any await
  EXPECT_NE(d.message.find("dma_read_ext"), std::string::npos);
}

TEST(Check, DmaRaceCarriesSpanName) {
  ep::Machine m(checked_config());
  auto src = m.ext().alloc<float>(512);
  m.launch(0, [&](ep::CoreCtx& ctx) -> ep::Task {
    ctx.begin_span("prefetch/0");
    auto buf = ctx.local().alloc<float>(512);
    auto job = ctx.dma_read_ext(buf.data(), src.data(), 512 * sizeof(float));
    co_await ctx.write_ext(src.data(), buf.data(), 512 * sizeof(float));
    co_await ctx.wait(job);
    ctx.end_span();
  });
  m.run();
  EXPECT_EQ(first_of(m, Hazard::kDmaRace).span, "prefetch/0");
}

TEST(Check, NoDmaRaceAfterWait) {
  ep::Machine m(checked_config(/*abort_on_hazard=*/true));
  auto src = m.ext().alloc<float>(512);
  m.launch(0, [&](ep::CoreCtx& ctx) -> ep::Task {
    auto buf = ctx.local().alloc<float>(512);
    auto job = ctx.dma_read_ext(buf.data(), src.data(), 512 * sizeof(float));
    co_await ctx.wait(job);
    co_await ctx.write_ext(src.data(), buf.data(), 512 * sizeof(float));
  });
  EXPECT_NO_THROW(m.run());
  EXPECT_TRUE(m.checker()->diagnostics().empty());
}

// --- double-wait ----------------------------------------------------------

TEST(Check, DoubleWaitOnSameJob) {
  ep::Machine m(checked_config());
  auto src = m.ext().alloc<float>(64);
  m.launch(1, [&](ep::CoreCtx& ctx) -> ep::Task {
    auto buf = ctx.local().alloc<float>(64);
    auto job = ctx.dma_read_ext(buf.data(), src.data(), 64 * sizeof(float));
    co_await ctx.wait(job);
    co_await ctx.wait(job); // BUG under test
  });
  m.run();
  EXPECT_EQ(first_of(m, Hazard::kDoubleWait).core, 1);
}

TEST(Check, NullJobWaitIsBenign) {
  // The FFBP double-buffer epilogue waits a default-constructed DmaJob.
  ep::Machine m(checked_config(/*abort_on_hazard=*/true));
  m.launch(0, [&](ep::CoreCtx& ctx) -> ep::Task {
    co_await ctx.wait(ep::DmaJob{});
    co_await ctx.wait(ep::DmaJob{});
  });
  EXPECT_NO_THROW(m.run());
  EXPECT_TRUE(m.checker()->diagnostics().empty());
}

// --- bank-budget ----------------------------------------------------------

TEST(Check, BankBudgetOverflowDiagnosed) {
  ep::Machine m(checked_config());
  m.launch(3, [&](ep::CoreCtx& ctx) -> ep::Task {
    // BUG under test: 40 KB request against the 32 KB local store. The
    // allocator still throws; the diagnostic is recorded first.
    auto buf = ctx.local().alloc<float>(10 * 1024);
    (void)buf;
    co_return;
  });
  EXPECT_THROW(m.run(), ContractViolation);
  const auto& d = first_of(m, Hazard::kBankBudget);
  EXPECT_EQ(d.core, 3);
  EXPECT_NE(d.message.find("overflow"), std::string::npos);
}

TEST(Check, BankCollisionDiagnosed) {
  ep::Machine m(checked_config());
  m.launch(0, [&](ep::CoreCtx& ctx) -> ep::Task {
    auto a = ctx.local().alloc_in_bank<float>(16, 2);
    (void)a;
    // BUG under test: bank 1 starts below the cursor left by bank 2.
    auto b = ctx.local().alloc_in_bank<float>(16, 1);
    (void)b;
    co_return;
  });
  EXPECT_THROW(m.run(), ContractViolation);
  EXPECT_NE(first_of(m, Hazard::kBankBudget).message.find("collision"),
            std::string::npos);
}

// --- local-span -----------------------------------------------------------

TEST(Check, StaleSpanAfterResetDiagnosed) {
  ep::Machine m(checked_config());
  auto dst = m.ext().alloc<float>(64);
  m.launch(0, [&](ep::CoreCtx& ctx) -> ep::Task {
    auto buf = ctx.local().alloc<float>(64);
    ctx.local().reset();
    // BUG under test: the span predates the reset — nothing is live.
    co_await ctx.write_ext(dst.data(), buf.data(), 64 * sizeof(float));
  });
  m.run();
  const auto& d = first_of(m, Hazard::kLocalSpan);
  EXPECT_EQ(d.core, 0);
  EXPECT_NE(d.message.find("stale"), std::string::npos);
}

TEST(Check, ReallocatedSpanAfterResetIsClean) {
  ep::Machine m(checked_config(/*abort_on_hazard=*/true));
  auto dst = m.ext().alloc<float>(64);
  m.launch(0, [&](ep::CoreCtx& ctx) -> ep::Task {
    auto stale = ctx.local().alloc<float>(64);
    (void)stale;
    ctx.local().reset();
    auto fresh = ctx.local().alloc<float>(64);
    co_await ctx.write_ext(dst.data(), fresh.data(), 64 * sizeof(float));
  });
  EXPECT_NO_THROW(m.run());
  EXPECT_TRUE(m.checker()->diagnostics().empty());
}

// --- barrier --------------------------------------------------------------

TEST(Check, BarrierArityMismatchDiagnosed) {
  ep::Machine m(checked_config());
  // BUG under test: barrier sized for 2 parties, crossed by 3 cores. The
  // 3-core generation "releases" after any 2 arrivals, so the run still
  // terminates — only the sanitizer notices the impossible arity.
  auto bar = m.make_barrier(2);
  for (int c = 0; c < 3; ++c) {
    m.launch(c, [&](ep::CoreCtx& ctx) -> ep::Task {
      co_await bar->arrive_and_wait(ctx);
    });
  }
  try {
    m.run();
  } catch (const ep::SimDeadlock&) {
    // One core may be left waiting, depending on arrival order.
  }
  const auto& d = first_of(m, Hazard::kBarrier);
  EXPECT_NE(d.message.find("arity"), std::string::npos);
  EXPECT_NE(d.message.find("3"), std::string::npos);
}

TEST(Check, BarrierStuckCoresDiagnosed) {
  ep::Machine m(checked_config());
  // BUG under test: 3-party barrier, only 2 cores arrive -> deadlock.
  auto bar = m.make_barrier(3);
  for (int c = 0; c < 2; ++c) {
    m.launch(c, [&](ep::CoreCtx& ctx) -> ep::Task {
      co_await bar->arrive_and_wait(ctx);
    });
  }
  EXPECT_THROW(m.run(), ep::SimDeadlock);
  const auto& d = first_of(m, Hazard::kBarrier);
  EXPECT_NE(d.message.find("waiting"), std::string::npos);
}

// --- channel --------------------------------------------------------------

TEST(Check, UnreceivedChannelMessageDiagnosed) {
  ep::Machine m(checked_config());
  auto chan = m.make_channel<int>(1, 4, "pipe");
  m.launch(0, [&](ep::CoreCtx& ctx) -> ep::Task {
    co_await chan->send(ctx, 7);
    co_await chan->send(ctx, 8);
  });
  m.launch(1, [&](ep::CoreCtx& ctx) -> ep::Task {
    (void)co_await chan->recv(ctx); // BUG under test: second send dropped
  });
  m.run();
  const auto& d = first_of(m, Hazard::kChannel);
  EXPECT_EQ(d.core, 0); // reported against the last sender
  EXPECT_NE(d.message.find("pipe"), std::string::npos);
  EXPECT_NE(d.message.find("1 message(s)"), std::string::npos);
}

TEST(Check, BalancedChannelIsClean) {
  ep::Machine m(checked_config(/*abort_on_hazard=*/true));
  auto chan = m.make_channel<int>(1, 4, "pipe");
  m.launch(0, [&](ep::CoreCtx& ctx) -> ep::Task {
    for (int i = 0; i < 8; ++i) co_await chan->send(ctx, i);
  });
  m.launch(1, [&](ep::CoreCtx& ctx) -> ep::Task {
    for (int i = 0; i < 8; ++i) (void)co_await chan->recv(ctx);
  });
  EXPECT_NO_THROW(m.run());
  EXPECT_TRUE(m.checker()->diagnostics().empty());
}

// --- ext-memory -----------------------------------------------------------

TEST(Check, ReadOfUnallocatedSdramDiagnosed) {
  ep::Machine m(checked_config());
  auto small = m.ext().alloc<float>(16);
  m.launch(0, [&](ep::CoreCtx& ctx) -> ep::Task {
    auto buf = ctx.local().alloc<float>(64);
    // BUG under test: reads 64 floats from a 16-float allocation.
    co_await ctx.read_ext(buf.data(), small.data(), 64 * sizeof(float));
  });
  m.run();
  const auto& d = first_of(m, Hazard::kExtMemory);
  EXPECT_EQ(d.core, 0);
  EXPECT_NE(d.message.find("read_ext"), std::string::npos);
}

// --- remote-aliasing ------------------------------------------------------

TEST(Check, OverlappingRemoteWindowsDiagnosed) {
  ep::Machine m(checked_config());
  const int target = m.id_of({1, 1});
  auto dst = m.core(target).mem().alloc<int>(256);
  // BUG under test: two writers push into the same window with no
  // coordination; their in-flight transfers overlap in simulated time.
  for (int writer : {0, 3}) {
    m.launch(writer, [&, writer](ep::CoreCtx& ctx) -> ep::Task {
      const int v = writer;
      for (int i = 0; i < 16; ++i)
        co_await ctx.write_remote({1, 1}, dst.data(), &v, sizeof(int));
    });
  }
  m.run();
  const auto& d = first_of(m, Hazard::kRemoteAliasing);
  EXPECT_NE(d.message.find("overlapping"), std::string::npos);
}

TEST(Check, DisjointRemoteWindowsAreClean) {
  ep::Machine m(checked_config(/*abort_on_hazard=*/true));
  const int target = m.id_of({1, 1});
  auto dst = m.core(target).mem().alloc<int>(256);
  for (int writer : {0, 3}) {
    m.launch(writer, [&, writer](ep::CoreCtx& ctx) -> ep::Task {
      const int v = writer;
      // Each writer owns half of the buffer: no aliasing.
      int* base = dst.data() + (writer == 0 ? 0 : 128);
      for (int i = 0; i < 16; ++i)
        co_await ctx.write_remote({1, 1}, base + i, &v, sizeof(int));
    });
  }
  EXPECT_NO_THROW(m.run());
  EXPECT_TRUE(m.checker()->diagnostics().empty());
}

TEST(Check, RemoteWindowIntoHostMemoryDiagnosed) {
  ep::Machine m(checked_config());
  int host = 0;
  const int v = 1;
  m.launch(0, [&](ep::CoreCtx& ctx) -> ep::Task {
    co_await ctx.write_remote({0, 1}, &host, &v, sizeof(int));
  });
  m.run();
  EXPECT_NE(
      first_of(m, Hazard::kRemoteAliasing).message.find("host memory"),
      std::string::npos);
}

TEST(Check, RemoteWindowIntoWrongCoreDiagnosed) {
  ep::Machine m(checked_config());
  // BUG under test: window addressed to (0,1) but the bytes belong to
  // core (2,2)'s store — the classic address-map aliasing mistake.
  auto dst = m.core(m.id_of({2, 2})).mem().alloc<int>(1);
  const int v = 1;
  m.launch(0, [&](ep::CoreCtx& ctx) -> ep::Task {
    co_await ctx.write_remote({0, 1}, dst.data(), &v, sizeof(int));
  });
  m.run();
  EXPECT_NE(first_of(m, Hazard::kRemoteAliasing).message.find("belong"),
            std::string::npos);
}

// --- abort / suppression / report plumbing --------------------------------

TEST(Check, AbortOnHazardThrowsCheckFailure) {
  ep::Machine m(checked_config(/*abort_on_hazard=*/true));
  auto chan = m.make_channel<int>(1, 4);
  m.launch(0, [&](ep::CoreCtx& ctx) -> ep::Task {
    co_await chan->send(ctx, 7);
  });
  m.launch(1, [&](ep::CoreCtx& ctx) -> ep::Task {
    (void)co_await chan->recv(ctx);
    co_await chan->send(ctx, 9); // never received
  });
  EXPECT_THROW(m.run(), CheckFailure);
}

TEST(Check, SuppressionSilencesMatchingDiagnostics) {
  const auto path = tests::temp_file("esarp_check_supp.txt");
  {
    std::ofstream f(path);
    f << "# test suppressions\n";
    f << "channel:*never received*\n";
  }
  ep::ChipConfig cfg = checked_config(/*abort_on_hazard=*/true);
  cfg.check.suppressions = path.string();
  ep::Machine m(cfg);
  auto chan = m.make_channel<int>(1, 4);
  m.launch(0, [&](ep::CoreCtx& ctx) -> ep::Task {
    co_await chan->send(ctx, 7);
  });
  m.launch(1, [&](ep::CoreCtx&) -> ep::Task { co_return; });
  EXPECT_NO_THROW(m.run()); // diagnostic recorded but suppressed
  ASSERT_EQ(m.checker()->diagnostics().size(), 1u);
  EXPECT_TRUE(m.checker()->diagnostics()[0].suppressed);
  EXPECT_EQ(m.checker()->unsuppressed_count(), 0u);
  std::filesystem::remove(path);
}

TEST(Check, JsonReportWritten) {
  const auto path = tests::temp_file("esarp_check_report.json");
  ep::ChipConfig cfg = checked_config();
  cfg.check.json_out = path.string();
  ep::Machine m(cfg);
  auto chan = m.make_channel<int>(1, 4, "leaky");
  m.launch(0, [&](ep::CoreCtx& ctx) -> ep::Task {
    co_await chan->send(ctx, 7);
  });
  m.launch(1, [&](ep::CoreCtx&) -> ep::Task { co_return; });
  m.run();
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("esarp-check-report/1"), std::string::npos);
  EXPECT_NE(text.find("leaky"), std::string::npos);
  std::filesystem::remove(path);
}

// Suppression rules match diagnostics through the shared glob matcher.
TEST(Check, GlobMatcher) {
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("a*c", "abc"));
  EXPECT_TRUE(glob_match("a*c", "ac"));
  EXPECT_TRUE(glob_match("*race*", "a dma race here"));
  EXPECT_TRUE(glob_match("a?c", "abc"));
  EXPECT_FALSE(glob_match("a?c", "ac"));
  EXPECT_FALSE(glob_match("a*d", "abc"));
  EXPECT_FALSE(glob_match("", "x"));
  EXPECT_TRUE(glob_match("", ""));
}

TEST(Check, MalformedSuppressionFileRejected) {
  const auto path = tests::temp_file("esarp_check_bad_supp.txt");
  {
    std::ofstream f(path);
    f << "no-colon-here\n";
  }
  EXPECT_THROW((void)check::load_suppressions(path), ContractViolation);
  std::filesystem::remove(path);
  EXPECT_THROW((void)check::load_suppressions(path), ContractViolation);
}

TEST(Check, SuppressionFileVariants) {
  const auto path = tests::temp_file("esarp_check_supp_var.txt");
  // Leading-colon rules have an empty kind and are malformed.
  {
    std::ofstream f(path);
    f << ":leading-colon\n";
  }
  EXPECT_THROW((void)check::load_suppressions(path), ContractViolation);
  // Comments, blank lines and surrounding whitespace are tolerated; only
  // real rules load.
  {
    std::ofstream f(path);
    f << "# comment\n\n   \t \n  channel:*leak*  \n*:anything?\n";
  }
  const auto rules = check::load_suppressions(path);
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0], "channel:*leak*");
  EXPECT_EQ(rules[1], "*:anything?");
  std::filesystem::remove(path);
}

TEST(Check, ZeroMatchGlobSuppressionLeavesHazardsFatal) {
  const auto path = tests::temp_file("esarp_check_nomatch.txt");
  {
    std::ofstream f(path);
    f << "channel:*no such message ever*\n";
    f << "dma-race:completely-unrelated-?\n";
  }
  ep::ChipConfig cfg = checked_config(/*abort_on_hazard=*/true);
  cfg.check.suppressions = path.string();
  ep::Machine m(cfg);
  auto chan = m.make_channel<int>(1, 4);
  m.launch(0, [&](ep::CoreCtx& ctx) -> ep::Task {
    co_await chan->send(ctx, 7); // never received
  });
  m.launch(1, [&](ep::CoreCtx&) -> ep::Task { co_return; });
  EXPECT_THROW(m.run(), CheckFailure);
  ASSERT_EQ(m.checker()->diagnostics().size(), 1u);
  EXPECT_FALSE(m.checker()->diagnostics()[0].suppressed);
  EXPECT_EQ(m.checker()->unsuppressed_count(), 1u);
  std::filesystem::remove(path);
}

TEST(Check, JsonReportRoundTripsThroughParser) {
  const auto path = tests::temp_file("esarp_check_roundtrip.json");
  ep::ChipConfig cfg = checked_config();
  cfg.check.json_out = path.string();
  ep::Machine m(cfg);
  auto chan = m.make_channel<int>(1, 4, "leaky");
  m.launch(0, [&](ep::CoreCtx& ctx) -> ep::Task {
    co_await chan->send(ctx, 7);
  });
  m.launch(1, [&](ep::CoreCtx&) -> ep::Task { co_return; });
  m.run();

  const JsonValue doc = load_json_file(path);
  ASSERT_NE(doc.find("schema"), nullptr);
  EXPECT_EQ(doc.find("schema")->as_string(), "esarp-check-report/1");
  EXPECT_EQ(doc.find("dropped")->as_number(), 0.0);
  const auto& diags = doc.find("diagnostics")->as_array();
  ASSERT_EQ(diags.size(), 1u);
  const auto& recorded = m.checker()->diagnostics()[0];
  EXPECT_EQ(diags[0].find("kind")->as_string(),
            check::to_string(recorded.kind));
  EXPECT_EQ(diags[0].find("core")->as_number(),
            static_cast<double>(recorded.core));
  EXPECT_EQ(diags[0].find("cycle")->as_number(),
            static_cast<double>(recorded.cycle));
  EXPECT_EQ(diags[0].find("message")->as_string(), recorded.message);
  EXPECT_FALSE(diags[0].find("suppressed")->as_bool());
  std::filesystem::remove(path);
}

TEST(Check, DiagnosticsAreSortedAndDedupedAtFinalize) {
  ep::ChipConfig cfg = checked_config();
  ep::Machine m(cfg);
  check::CheckContext* ck = m.checker();
  ASSERT_NE(ck, nullptr);
  // Seed teardown hazards out of order (core 2 before core 0) plus an
  // exact duplicate (two distinct channels, same name, same leak count
  // produce byte-identical diagnostics at the same cycle).
  int a = 0;
  int b = 0;
  int c = 0;
  ck->on_chan_send(&a, "dup", 2);
  ck->on_chan_send(&b, "dup", 0);
  ck->on_chan_send(&c, "dup", 0);
  ck->finalize(/*allow_throw=*/false);
  const auto& diags = ck->diagnostics();
  ASSERT_EQ(diags.size(), 2u); // core-0 duplicate collapsed
  EXPECT_EQ(diags[0].core, 0);
  EXPECT_EQ(diags[1].core, 2);
  for (const auto& d : diags)
    EXPECT_NE(d.message.find("never received"), std::string::npos);
}

TEST(Check, ConsoleReportIsByteStable) {
  std::vector<check::Diagnostic> diags;
  check::Diagnostic d;
  d.kind = Hazard::kChannel;
  d.core = 1;
  d.cycle = 42;
  d.message = "channel 'x': 1 message(s) sent but never received";
  diags.push_back(d);
  d.suppressed = true;
  diags.push_back(d);
  std::ostringstream first;
  std::ostringstream second;
  check::write_console_report(first, diags, /*dropped=*/1);
  check::write_console_report(second, diags, 1);
  EXPECT_EQ(first.str(), second.str());
  EXPECT_NE(first.str().find("2 hazard diagnostic(s) (1 suppressed), "
                             "1 dropped past the cap"),
            std::string::npos);
}

TEST(Check, DiagnosticCapDropsExcess) {
  ep::ChipConfig cfg = checked_config();
  cfg.check.max_diagnostics = 3;
  ep::Machine m(cfg);
  int host = 0;
  const int v = 1;
  m.launch(0, [&](ep::CoreCtx& ctx) -> ep::Task {
    for (int i = 0; i < 10; ++i)
      co_await ctx.write_remote({0, 1}, &host, &v, sizeof(int));
  });
  m.run();
  EXPECT_EQ(m.checker()->diagnostics().size(), 3u);
  EXPECT_EQ(m.checker()->dropped(), 7u);
}

// --- bit identity ---------------------------------------------------------

TEST(Check, CheckedFfbpRunIsCycleIdentical) {
  const sar::RadarParams p = sar::test_params(32, 101);
  const auto data = sar::simulate_compressed(p, sar::six_target_scene(p));
  core::FfbpMapOptions opt;
  opt.n_cores = 4;
  const auto plain = core::run_ffbp_epiphany(data, p, opt);
  ep::ChipConfig cfg;
  cfg.check.enabled = true;
  const auto checked = core::run_ffbp_epiphany(data, p, opt, cfg);
  EXPECT_EQ(plain.cycles, checked.cycles);
  EXPECT_EQ(plain.image, checked.image); // bit-identical pixels
}

} // namespace
} // namespace esarp
