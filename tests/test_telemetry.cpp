// Telemetry subsystem tests: metrics registry (counters, gauges, histogram
// bucket edges), named spans + counter tracks on the Tracer (incl. segment
// accounting and cross-run reuse), JSON writer/parser round trips, run
// manifests, the manifest regression comparator, and the run collection
// every chip runner shares (ep::collect_run).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/glob.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/autofocus_epiphany.hpp"
#include "core/ffbp_epiphany.hpp"
#include "core/gbp_epiphany.hpp"
#include "epiphany/machine.hpp"
#include "epiphany/machine_metrics.hpp"
#include "sar/scene.hpp"
#include "telemetry/compare.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/metrics.hpp"
#include "temp_file.hpp"

namespace esarp {
namespace {

using ep::Cycles;
using ep::Machine;
using ep::SegmentKind;
using ep::Task;
using ep::Tracer;

using tests::temp_file;

std::string slurp(const std::filesystem::path& p) {
  std::ifstream f(p);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------- metrics

TEST(Metrics, CounterAndGaugeBasics) {
  telemetry::MetricsRegistry reg;
  reg.counter("a").add(3);
  reg.counter("a").add(4);
  reg.gauge("g").set(2.5);
  EXPECT_EQ(reg.counter("a").value(), 7u);
  EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 2.5);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_NE(reg.find_counter("a"), nullptr);
  EXPECT_EQ(reg.find_counter("missing"), nullptr);
}

TEST(Metrics, CounterReferencesAreStable) {
  telemetry::MetricsRegistry reg;
  telemetry::Counter& a = reg.counter("stable");
  for (int i = 0; i < 100; ++i)
    reg.counter("filler" + std::to_string(i)).add(1);
  reg.counter("stable").add(5);
  EXPECT_EQ(a.value(), 5u); // same node despite 100 inserts
}

TEST(Metrics, HistogramBucketEdges) {
  // bucket i counts x <= edges[i]; one overflow bucket past the last edge.
  telemetry::Histogram h({10.0, 20.0, 40.0});
  h.observe(0.0);   // <= 10
  h.observe(10.0);  // <= 10 (edge is inclusive)
  h.observe(10.5);  // <= 20
  h.observe(40.0);  // <= 40
  h.observe(41.0);  // overflow
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 41.0);
  EXPECT_DOUBLE_EQ(h.sum(), 101.5);

  // On the cycle edges, every value lands in std::lower_bound's bucket:
  // each edge, its neighbours either way, zeros, a negative, infinities
  // and NaN (bucket 0: no edge compares below it).
  const std::vector<double>& edges = telemetry::cycle_histogram_edges();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> xs = {0.0, -0.0, -3.5, inf, -inf,
                            std::numeric_limits<double>::quiet_NaN()};
  for (const double e : edges)
    xs.insert(xs.end(), {e, std::nextafter(e, -inf), std::nextafter(e, inf)});
  telemetry::Histogram cycles(edges);
  std::vector<std::uint64_t> want(edges.size() + 1, 0);
  for (const double x : xs) {
    const std::size_t before = cycles.bucket_counts().size();
    cycles.observe(x);
    ASSERT_EQ(cycles.bucket_counts().size(), before);
    ++want[static_cast<std::size_t>(
        std::lower_bound(edges.begin(), edges.end(), x) - edges.begin())];
    EXPECT_EQ(cycles.bucket_counts(), want) << "x = " << x;
  }
  // The running statistics see NaN as std::min/std::max and + do.
  EXPECT_EQ(cycles.count(), xs.size());
  EXPECT_TRUE(std::isnan(cycles.sum()));
  EXPECT_EQ(cycles.min(), -inf);
  EXPECT_EQ(cycles.max(), inf);
}

TEST(Metrics, HistogramRejectsUnsortedEdges) {
  EXPECT_THROW(telemetry::Histogram({2.0, 1.0}), ContractViolation);
  EXPECT_THROW(telemetry::Histogram({1.0, 1.0}), ContractViolation);
  EXPECT_THROW(telemetry::Histogram({}), ContractViolation);
}

TEST(Metrics, LabeledNamesAreSortedAndStable) {
  const std::string a =
      telemetry::labeled("noc.link.bytes", {{"node", "1_2"}, {"dir", "E"}});
  const std::string b =
      telemetry::labeled("noc.link.bytes", {{"dir", "E"}, {"node", "1_2"}});
  EXPECT_EQ(a, b); // label order must not matter
  EXPECT_EQ(a, "noc.link.bytes{dir=E,node=1_2}");
}

TEST(Metrics, CycleHistogramSharesEdgesAcrossRuns) {
  telemetry::MetricsRegistry r1, r2;
  EXPECT_EQ(r1.cycle_histogram("h").edges(), r2.cycle_histogram("h").edges());
}

// ----------------------------------------------------------------- tracer

TEST(Tracer, SegmentAccountingPerKind) {
  Machine m;
  m.enable_tracing();
  auto src = m.ext().alloc<float>(256);
  float dst[256];
  m.launch(0, [&](ep::CoreCtx& ctx) -> Task {
    co_await ctx.compute({.fadd = 100});
    co_await ctx.read_ext(dst, src.data(), sizeof(dst));
    co_await ctx.compute({.fadd = 50});
  });
  m.run();
  const Tracer& tr = m.tracer();
  EXPECT_EQ(tr.total_cycles(SegmentKind::kCompute), m.core(0).counters.busy);
  EXPECT_EQ(tr.total_cycles(SegmentKind::kExtRead),
            m.core(0).counters.ext_stall);
  EXPECT_EQ(tr.total_cycles(SegmentKind::kBarrier), 0u);
}

TEST(Tracer, SpansNestPerCore) {
  Tracer tr;
  tr.enable();
  tr.push_span(0, "outer", 0);
  tr.push_span(0, "inner", 10);
  tr.push_span(1, "other-core", 5);
  EXPECT_EQ(tr.open_spans(0), 2u);
  tr.pop_span(0, 20); // closes "inner"
  tr.pop_span(0, 30); // closes "outer"
  tr.pop_span(1, 15);
  EXPECT_EQ(tr.open_spans(0), 0u);
  ASSERT_EQ(tr.spans().size(), 3u);
  // Innermost closes first, with its opening depth preserved.
  EXPECT_EQ(tr.spans()[0].name, "inner");
  EXPECT_EQ(tr.spans()[0].depth, 1);
  EXPECT_EQ(tr.spans()[1].name, "outer");
  EXPECT_EQ(tr.spans()[1].depth, 0);
  EXPECT_EQ(tr.total_span_cycles("outer"), 30u);
  EXPECT_EQ(tr.total_span_cycles("inner"), 10u);
}

TEST(Tracer, DisabledSpansAndUnderflowAreNoOps) {
  Tracer tr; // disabled
  tr.push_span(0, "ignored", 0);
  EXPECT_EQ(tr.open_spans(0), 0u);
  tr.enable();
  tr.pop_span(0, 10); // pop with no open span: no-op, no crash
  EXPECT_TRUE(tr.spans().empty());
}

TEST(Tracer, ClearKeepsEnabledFlagAndTrackNames) {
  Tracer tr;
  tr.enable();
  const int track = tr.counter_track("queue-depth");
  tr.counter(track, 5, 1.0);
  tr.add(0, SegmentKind::kCompute, 0, 10);
  tr.push_span(0, "left-open", 0);
  tr.clear();
  EXPECT_TRUE(tr.enabled());
  EXPECT_TRUE(tr.segments().empty());
  EXPECT_TRUE(tr.counter_samples().empty());
  EXPECT_EQ(tr.open_spans(0), 0u);
  // Same name resolves to the same id after clear().
  EXPECT_EQ(tr.counter_track("queue-depth"), track);
}

TEST(Tracer, SharedAcrossConsecutiveMachineRuns) {
  // Satellite (a): one externally owned tracer, two Machine runs.
  Tracer tr;
  tr.enable();
  auto run_once = [&tr] {
    Machine m({}, 1u << 20, {}, &tr);
    m.launch(0, [](ep::CoreCtx& ctx) -> Task {
      ctx.begin_span("work");
      co_await ctx.compute({.fadd = 100});
      ctx.end_span();
    });
    m.run();
  };
  run_once();
  const std::size_t after_first = tr.segments().size();
  EXPECT_GT(after_first, 0u);
  run_once(); // accumulates without clear()
  EXPECT_EQ(tr.segments().size(), 2 * after_first);
  EXPECT_EQ(tr.spans().size(), 2u);
  tr.clear(); // one-trace-per-run usage
  run_once();
  EXPECT_EQ(tr.segments().size(), after_first);
}

TEST(Tracer, ChromeJsonRoundTripsWithSpansAndCounters) {
  Tracer tr;
  tr.enable();
  tr.add(0, SegmentKind::kCompute, 0, 100);
  tr.push_span(0, "merge-iter/1", 0);
  tr.pop_span(0, 100);
  const int track = tr.counter_track("ext-port/read-backlog");
  tr.counter(track, 50, 3.0);
  const auto path = temp_file("esarp_trace_test.json");
  tr.write_chrome_json(path);

  const JsonValue doc = parse_json(slurp(path));
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  bool saw_span = false, saw_counter = false, saw_segment = false;
  for (const JsonValue& e : events->as_array()) {
    const std::string ph = e.find("ph")->as_string();
    const std::string name = e.find("name")->as_string();
    if (ph == "X" && name == "merge-iter/1") saw_span = true;
    if (ph == "X" && name == "compute") saw_segment = true;
    if (ph == "C" && name == "ext-port/read-backlog") {
      saw_counter = true;
      EXPECT_DOUBLE_EQ(
          e.find_path("args.value")->as_number(), 3.0);
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_segment);
  EXPECT_TRUE(saw_counter);
  std::filesystem::remove(path);
}

// ------------------------------------------------------------------- json

TEST(Json, WriterEscapesAndNestsCompact) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_object();
  w.kv("s", "a\"b\\c\n");
  w.key("arr");
  w.begin_array();
  w.value(1.5);
  w.value(std::uint64_t{18446744073709551615ull});
  w.null();
  w.end_array();
  w.end_object();
  EXPECT_TRUE(w.done());
  EXPECT_EQ(os.str(),
            "{\"s\":\"a\\\"b\\\\c\\n\",\"arr\":[1.5,18446744073709551615,"
            "null]}");
}

TEST(Json, ParserRoundTripsWriterOutput) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("pi", 3.25);
  w.kv("neg", std::int64_t{-7});
  w.kv("flag", true);
  w.kv("text", "unié");
  w.end_object();
  const JsonValue v = parse_json(os.str());
  EXPECT_DOUBLE_EQ(v.find("pi")->as_number(), 3.25);
  EXPECT_DOUBLE_EQ(v.find("neg")->as_number(), -7.0);
  EXPECT_TRUE(v.find("flag")->as_bool());
  EXPECT_EQ(v.find("text")->as_string(), "unié");
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_THROW(parse_json("{"), ContractViolation);
  EXPECT_THROW(parse_json("[1,]"), ContractViolation);
  EXPECT_THROW(parse_json("{} trailing"), ContractViolation);
  EXPECT_THROW(parse_json("'single'"), ContractViolation);
}

TEST(Json, FindPathWalksNestedObjects) {
  const JsonValue v = parse_json(R"({"a":{"b":{"c":42}}})");
  ASSERT_NE(v.find_path("a.b.c"), nullptr);
  EXPECT_DOUBLE_EQ(v.find_path("a.b.c")->as_number(), 42.0);
  EXPECT_EQ(v.find_path("a.b.missing"), nullptr);
}

TEST(Json, ParserRejectsPathologicalNesting) {
  // 200 nested arrays: deeper than the 128-level guard, shallow enough
  // that without the guard the recursive parser would still survive —
  // proving the error comes from the limit, not a stack overflow.
  const std::string deep(200, '[');
  try {
    (void)parse_json(deep);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than 128 levels"),
              std::string::npos)
        << e.what();
  }
  // At and below the limit, depth alone is fine.
  std::string ok(128, '[');
  ok += std::string(128, ']');
  EXPECT_NO_THROW((void)parse_json(ok));
}

TEST(Json, TruncatedInputNamesTheLikelyCause) {
  // A manifest cut off mid-write should say so, not just "unexpected end".
  const char* cases[] = {
      R"({"a": [1, {"b": "tru)", // inside a string
      R"({"results": {"x": )",   // after a key
      R"(["tail\)",              // mid-escape
  };
  for (const char* c : cases) {
    try {
      (void)parse_json(c);
      FAIL() << "expected ContractViolation for: " << c;
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
          << e.what();
    }
  }
}

// --------------------------------------------------------------- manifest

TEST(Manifest, RoundTripsThroughParser) {
  telemetry::MetricsRegistry reg;
  reg.counter("ext.read.bytes").add(1024);
  reg.gauge("noc.max_link_busy_cycles{mesh=rmesh}").set(77.0);
  reg.cycle_histogram("ext.read.stall_cycles").observe(100.0);

  telemetry::RunManifest man("unit_test");
  man.add_chip("rows", 4.0);
  man.add_workload("n_pulses", 256.0);
  man.add_result("makespan_cycles", 123456.0);
  man.set_metrics(&reg);

  std::ostringstream os;
  man.write(os);
  const JsonValue doc = parse_json(os.str());
  EXPECT_EQ(doc.find("schema")->as_string(), "esarp-run-manifest/1");
  EXPECT_EQ(doc.find("tool")->as_string(), "unit_test");
  EXPECT_EQ(doc.find("version")->as_string(), telemetry::esarp_version());
  EXPECT_DOUBLE_EQ(doc.find_path("results.makespan_cycles")->as_number(),
                   123456.0);
  EXPECT_DOUBLE_EQ(
      doc.find_path("metrics.counters")->find("ext.read.bytes")->as_number(),
      1024.0);
  const JsonValue* hist =
      doc.find_path("metrics.histograms")->find("ext.read.stall_cycles");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->find("count")->as_number(), 1.0);
  EXPECT_EQ(hist->find("edges")->as_array().size(),
            telemetry::cycle_histogram_edges().size());
}

TEST(Manifest, WriteCreatesParentDirectories) {
  const auto dir = temp_file("esarp_manifest_dir");
  std::filesystem::remove_all(dir);
  const auto path = dir / "nested" / "m.json";
  telemetry::RunManifest man("t");
  man.write(path);
  EXPECT_TRUE(std::filesystem::exists(path));
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------- compare

JsonValue make_manifest(double makespan, double util) {
  std::ostringstream os;
  telemetry::RunManifest man("cmp");
  man.add_result("makespan_cycles", makespan);
  man.add_result("utilization", util);
  man.write(os);
  return parse_json(os.str());
}

TEST(Compare, SelfCompareIsClean) {
  const JsonValue a = make_manifest(1000.0, 0.5);
  const auto rep = telemetry::compare_manifests(a, a);
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.regressions, 0);
}

TEST(Compare, MakespanGrowthPastThresholdRegresses) {
  const JsonValue base = make_manifest(1000.0, 0.5);
  const JsonValue worse = make_manifest(1100.0, 0.5); // +10% > 5% default
  const auto rep = telemetry::compare_manifests(base, worse);
  EXPECT_FALSE(rep.ok());
  // Within threshold passes.
  const JsonValue close = make_manifest(1030.0, 0.5);
  EXPECT_TRUE(telemetry::compare_manifests(base, close).ok());
}

TEST(Compare, ChecksumAndHashKeysRegressInBothDirections) {
  EXPECT_TRUE(telemetry::two_sided("results.ffbp_image_checksum_lo"));
  EXPECT_TRUE(telemetry::two_sided("results.p3.schedule_hash_hi"));
  EXPECT_FALSE(telemetry::two_sided("results.makespan_cycles"));
  const auto checksum_manifest = [](double v) {
    std::ostringstream os;
    telemetry::RunManifest man("cmp");
    man.add_result("image_checksum_lo", v);
    man.write(os);
    return parse_json(os.str());
  };
  const JsonValue base = checksum_manifest(216340134.0);
  telemetry::CompareOptions opt;
  opt.default_threshold = 0.0;
  for (const double v : {216340133.0, 216340135.0})
    EXPECT_FALSE(
        telemetry::compare_manifests(base, checksum_manifest(v), opt).ok())
        << v;
  EXPECT_TRUE(telemetry::compare_manifests(base, base, opt).ok());
}

TEST(Compare, DirectionInferredFromKeyName) {
  EXPECT_TRUE(telemetry::higher_is_better("results.utilization"));
  EXPECT_TRUE(telemetry::higher_is_better("results.flops_per_second"));
  EXPECT_TRUE(telemetry::higher_is_better(
      "metrics.gauges.engine.events_per_second"));
  EXPECT_FALSE(telemetry::higher_is_better("results.makespan_cycles"));
  EXPECT_FALSE(telemetry::higher_is_better("results.energy_j"));
  // utilization dropping 20% is a regression; rising 20% is not.
  const JsonValue base = make_manifest(1000.0, 0.5);
  EXPECT_FALSE(
      telemetry::compare_manifests(base, make_manifest(1000.0, 0.4)).ok());
  EXPECT_TRUE(
      telemetry::compare_manifests(base, make_manifest(1000.0, 0.6)).ok());
}

TEST(Compare, PerKeyThresholdOverridesDefault) {
  const JsonValue base = make_manifest(1000.0, 0.5);
  const JsonValue slight = make_manifest(1020.0, 0.5); // +2%
  telemetry::CompareOptions opt;
  opt.per_key["results.makespan_cycles"] = 0.01; // 1%: now regresses
  EXPECT_FALSE(telemetry::compare_manifests(base, slight, opt).ok());
}

// esarp_compare matches a manifest's schema with the shared glob matcher.
TEST(Compare, GlobMatcher) {
  EXPECT_TRUE(glob_match("wall_*", "wall_seconds"));
  EXPECT_TRUE(glob_match("*wall*", "results.wall_seconds"));
  EXPECT_TRUE(glob_match("wall_second?", "wall_seconds"));
  EXPECT_TRUE(glob_match("*", ""));
  EXPECT_TRUE(glob_match("a*b*c", "a.x.b.y.c"));
  EXPECT_FALSE(glob_match("wall_*", "makespan_cycles"));
  EXPECT_FALSE(glob_match("wall_?", "wall_seconds"));
  EXPECT_FALSE(glob_match("", "x"));
}

TEST(Compare, EventsPerSecondBandGatesOnDropsOnly) {
  // The CI perf-smoke leg opts engine.events_per_second in with an exact
  // --metric band; the key is higher-is-better, so only a drop beyond the
  // band may regress — a faster engine must never fail the gate.
  const auto make = [](double eps) {
    telemetry::MetricsRegistry reg;
    reg.gauge("engine.events_per_second").set(eps);
    telemetry::RunManifest m("cmp");
    m.set_metrics(&reg);
    std::ostringstream os;
    m.write(os);
    return parse_json(os.str());
  };
  const JsonValue base = make(1.0e6);
  telemetry::CompareOptions opt;
  opt.default_threshold = 0.0;
  opt.per_key["metrics.gauges.engine.events_per_second"] = 0.15;
  EXPECT_FALSE(telemetry::compare_manifests(base, make(0.8e6), opt).ok());
  EXPECT_TRUE(telemetry::compare_manifests(base, make(0.9e6), opt).ok());
  EXPECT_TRUE(telemetry::compare_manifests(base, make(1.3e6), opt).ok());
}

TEST(Compare, LatencyAndSloKeysTakeTheDefaultThreshold) {
  // Serving latency and SLO keys are results like any other: judged at
  // the default threshold, each in its own direction (latency_* regresses
  // upward, slo_* downward).
  const auto make = [](double p99, double slo) {
    telemetry::RunManifest m("cmp");
    m.add_result("latency_p99_s", p99);
    m.add_result("slo_attainment", slo);
    std::ostringstream os;
    m.write(os);
    return parse_json(os.str());
  };
  const JsonValue base = make(1.0e-3, 0.90);
  telemetry::CompareOptions exact;
  exact.default_threshold = 0.0;
  EXPECT_TRUE(telemetry::compare_manifests(base, base, exact).ok());
  EXPECT_FALSE(
      telemetry::compare_manifests(base, make(1.01e-3, 0.90), exact).ok());
  EXPECT_FALSE(
      telemetry::compare_manifests(base, make(1.0e-3, 0.89), exact).ok());
  EXPECT_TRUE(
      telemetry::compare_manifests(base, make(0.9e-3, 0.95), exact).ok());
  telemetry::CompareOptions wide;
  wide.default_threshold = 0.10;
  EXPECT_TRUE(
      telemetry::compare_manifests(base, make(1.08e-3, 0.90), wide).ok());
  EXPECT_FALSE(
      telemetry::compare_manifests(base, make(1.12e-3, 0.90), wide).ok());
}

TEST(Compare, SloAttainmentIsHigherIsBetter) {
  EXPECT_TRUE(telemetry::higher_is_better("results.slo_attainment"));
  EXPECT_TRUE(telemetry::higher_is_better("results.throughput_jobs_per_s"));
  EXPECT_FALSE(telemetry::higher_is_better("results.latency_p99_s"));
  // Attainment RISING past the threshold is an improvement, never a
  // regression.
  const auto make = [](double slo) {
    telemetry::RunManifest m("cmp");
    m.add_result("slo_attainment", slo);
    std::ostringstream os;
    m.write(os);
    return parse_json(os.str());
  };
  const JsonValue base = make(0.80);
  EXPECT_TRUE(telemetry::compare_manifests(base, make(0.99)).ok());
  EXPECT_FALSE(telemetry::compare_manifests(base, make(0.60)).ok());
}

TEST(Compare, AcceptsAnyEsarpManifestSchema) {
  // The schema gate is a glob: run manifests, serve manifests and future
  // esarp-*-manifest variants all compare; foreign documents still throw.
  telemetry::RunManifest m("serve");
  m.set_schema("esarp-serve-manifest/1");
  m.add_result("jobs_total", 6.0);
  std::ostringstream os;
  m.write(os);
  const JsonValue doc = parse_json(os.str());
  EXPECT_TRUE(telemetry::compare_manifests(doc, doc).ok());
  const JsonValue foreign =
      parse_json(R"({"schema":"someone-elses-manifest/1","results":{}})");
  EXPECT_THROW(telemetry::compare_manifests(foreign, foreign),
               ContractViolation);
}

TEST(Compare, RejectsNonManifestDocuments) {
  const JsonValue junk = parse_json(R"({"hello":"world"})");
  EXPECT_THROW(telemetry::compare_manifests(junk, junk), ContractViolation);
}

TEST(Compare, MissingCheckedMetricIsANamedRegression) {
  // An explicitly requested --metric key that exists in neither manifest
  // must fail the comparison with a line naming the problem — a typo'd or
  // silently vanished metric can't pass as "nothing to compare".
  const JsonValue a = make_manifest(1000.0, 0.5);
  telemetry::CompareOptions opt;
  opt.per_key["results.makespan_cyclse"] = 0.05; // typo'd key
  const auto rep = telemetry::compare_manifests(a, a, opt);
  EXPECT_FALSE(rep.ok());
  EXPECT_EQ(rep.regressions, 1);
  bool found = false;
  for (const auto& l : rep.lines) {
    if (l.key != "results.makespan_cyclse") continue;
    found = true;
    EXPECT_TRUE(l.unusable);
    EXPECT_TRUE(l.regressed);
    EXPECT_NE(l.problem.find("missing"), std::string::npos) << l.problem;
  }
  EXPECT_TRUE(found);
  EXPECT_NE(rep.summary().find("FAILED"), std::string::npos);
}

TEST(Compare, VanishedResultKeyIsANamedRegression) {
  // Every results key is checked, so one the current manifest lost fails
  // the comparison by name without any --metric; a vanished metrics key
  // that nothing opted in stays a note.
  const auto make = [](bool with_extras) {
    telemetry::MetricsRegistry reg;
    telemetry::RunManifest man("cmp");
    man.add_result("makespan_cycles", 1000.0);
    if (with_extras) {
      man.add_result("avg_watts", 0.5);
      reg.counter("noc.bytes").add(64);
    }
    man.set_metrics(&reg);
    std::ostringstream os;
    man.write(os);
    return parse_json(os.str());
  };
  const JsonValue base = make(true);
  const JsonValue cur = make(false);
  const auto rep = telemetry::compare_manifests(base, cur);
  EXPECT_FALSE(rep.ok());
  EXPECT_EQ(rep.regressions, 1);
  bool found = false;
  for (const auto& l : rep.lines) {
    if (l.key != "results.avg_watts") continue;
    found = true;
    EXPECT_TRUE(l.unusable);
    EXPECT_TRUE(l.regressed);
    EXPECT_NE(l.problem.find("missing"), std::string::npos) << l.problem;
  }
  EXPECT_TRUE(found);
  EXPECT_NE(std::find(rep.notes.begin(), rep.notes.end(),
                      "missing in current: metrics.counters.noc.bytes"),
            rep.notes.end());
  EXPECT_NE(rep.summary().find("FAILED"), std::string::npos);
  // A results key only the current manifest has is new, not lost.
  EXPECT_TRUE(telemetry::compare_manifests(cur, base).ok());
}

TEST(Compare, DirectionTableClassifiesOverloadCounters) {
  // The overload counters are directional: shed and late jobs are
  // overhead and regress upward; SLO attainment regresses downward.
  EXPECT_FALSE(telemetry::higher_is_better("results.jobs_shed"));
  EXPECT_FALSE(telemetry::higher_is_better("results.jobs_late"));
  EXPECT_TRUE(telemetry::higher_is_better("results.slo_attainment"));

  const auto make = [](double shed) {
    telemetry::RunManifest m("cmp");
    m.set_schema("esarp-serve-manifest/4");
    m.add_result("jobs_shed", shed);
    std::ostringstream os;
    m.write(os);
    return parse_json(os.str());
  };
  const JsonValue base = make(10.0);
  EXPECT_FALSE(telemetry::compare_manifests(base, make(12.0)).ok());
  EXPECT_TRUE(telemetry::compare_manifests(base, make(8.0)).ok());
}

TEST(Compare, MetricPresentOnOneSideOnlyIsUnusable) {
  // Present in base, absent in current: the side-specific diagnosis shows
  // up in the problem text so the user knows which run lost the metric.
  std::ostringstream os;
  telemetry::RunManifest man("cmp");
  man.add_result("makespan_cycles", 1000.0);
  man.add_result("utilization", 0.5);
  man.add_result("extra_metric", 7.0);
  man.write(os);
  const JsonValue base = parse_json(os.str());
  const JsonValue cur = make_manifest(1000.0, 0.5); // no extra_metric
  telemetry::CompareOptions opt;
  opt.per_key["results.extra_metric"] = 0.05;
  const auto rep = telemetry::compare_manifests(base, cur, opt);
  EXPECT_FALSE(rep.ok());
  bool found = false;
  for (const auto& l : rep.lines) {
    if (l.key != "results.extra_metric" || !l.unusable) continue;
    found = true;
    EXPECT_NE(l.problem.find("base ok"), std::string::npos) << l.problem;
    EXPECT_NE(l.problem.find("current missing"), std::string::npos)
        << l.problem;
  }
  EXPECT_TRUE(found);
}

// --------------------------------------------- machine-level integration

TEST(MachineMetrics, PopulatedByInstrumentedRun) {
  Machine m;
  auto src = m.ext().alloc<float>(1024);
  auto barrier = m.make_barrier(2);
  for (int c = 0; c < 2; ++c) {
    m.launch(c, [&, c](ep::CoreCtx& ctx) -> Task {
      float buf[256];
      co_await ctx.read_ext(buf, src.data() + 256 * c, sizeof(buf));
      co_await ctx.compute({.fadd = 100u * (1u + static_cast<unsigned>(c))});
      co_await barrier->arrive_and_wait(ctx);
    });
  }
  m.run();
  ep::collect_machine_metrics(m);
  const telemetry::MetricsRegistry& reg = m.metrics();

  // Live instrumentation: ext-port stall histogram and barrier metrics.
  const telemetry::Histogram* stalls =
      reg.find_histogram("ext.read.stall_cycles");
  ASSERT_NE(stalls, nullptr);
  EXPECT_EQ(stalls->count(), 2u);
  ASSERT_NE(reg.find_counter("barrier.crossings"), nullptr);
  EXPECT_EQ(reg.find_counter("barrier.crossings")->value(), 2u);
  const telemetry::Histogram* imb =
      reg.find_histogram("barrier.imbalance_cycles");
  ASSERT_NE(imb, nullptr);
  EXPECT_EQ(imb->count(), 1u); // one crossing -> one imbalance sample

  // Post-run collection: ext totals, per-core counters, per-link traffic.
  EXPECT_EQ(reg.find_counter("ext.read.bytes")->value(), 2048u);
  EXPECT_EQ(
      reg.find_counter(telemetry::labeled("core.busy_cycles", {{"core", "0"}}))
          ->value(),
      m.core(0).counters.busy);
  bool any_link = false;
  for (const auto& [name, c] : reg.counters())
    if (name.rfind("noc.link.bytes{", 0) == 0 && c.value() > 0)
      any_link = true;
  EXPECT_TRUE(any_link);
}

TEST(MachineMetrics, ChannelCountersLabeledByName) {
  Machine m;
  auto chan = m.make_channel<int>(1, 2, "pipe");
  m.launch(0, [&](ep::CoreCtx& ctx) -> Task {
    for (int i = 0; i < 5; ++i) co_await chan->send(ctx, i);
  });
  m.launch(1, [&](ep::CoreCtx& ctx) -> Task {
    for (int i = 0; i < 5; ++i) (void)co_await chan->recv(ctx);
  });
  m.run();
  const auto* msgs = m.metrics().find_counter(
      telemetry::labeled("chan.messages", {{"chan", "pipe"}}));
  ASSERT_NE(msgs, nullptr);
  EXPECT_EQ(msgs->value(), 5u);
}

// ------------------------------------------- shared run collection

/// Every chip runner at a tier-1 size under `cfg`, sliced to the ChipRun
/// ep::collect_run filled.
std::vector<std::pair<const char*, ep::ChipRun>>
run_every_mapping(const ep::ChipConfig& cfg) {
  const auto p = sar::test_params(32, 101);
  const auto data = sar::simulate_compressed(p, sar::six_target_scene(p));
  const af::AfParams afp;
  Rng rng(42);
  std::vector<af::BlockPair> pairs;
  for (int i = 0; i < 4; ++i)
    pairs.push_back(
        af::synthetic_block_pair(rng, afp, rng.uniform_f(-0.5f, 0.5f)));
  std::vector<std::pair<const char*, ep::ChipRun>> runs;
  runs.emplace_back("ffbp", core::run_ffbp_epiphany(data, p, {}, cfg));
  runs.emplace_back("gbp", core::run_gbp_epiphany(data, p, 16, cfg));
  runs.emplace_back("af-seq",
                    core::run_autofocus_sequential_epiphany(pairs, afp, cfg));
  runs.emplace_back("af-mpmd", core::run_autofocus_mpmd(pairs, afp, {}, cfg));
  return runs;
}

TEST(CollectRun, EveryRunnerReportsThroughTheSharedStep) {
  for (const auto& [name, run] : run_every_mapping({})) {
    SCOPED_TRACE(name);
    Cycles busy = 0;
    for (const ep::CoreCounters& c : run.perf.per_core) busy += c.busy;
    EXPECT_GT(busy, 0u);
    const telemetry::Counter* total =
        run.metrics.find_counter("core.total.busy_cycles");
    ASSERT_NE(total, nullptr);
    EXPECT_EQ(total->value(), busy);
    EXPECT_EQ(run.energy.total_j(), ep::compute_energy(run.perf).total_j());
    EXPECT_FALSE(run.degraded);
    EXPECT_FALSE(run.power.enabled);
  }
}

TEST(CollectRun, SampledRunsConserveTheirEnergy) {
  ep::ChipConfig cfg;
  cfg.power.enabled = true;
  for (const auto& [name, run] : run_every_mapping(cfg)) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(run.power.enabled);
    const double total = run.energy.total_j();
    EXPECT_NEAR(run.power.trace.total_j, total, 1e-9 * total);
    EXPECT_NEAR(run.power.profile.total_j, total, 1e-9 * total);
  }
}

TEST(CollectRun, FfbpPrefetchCountersReachTheRegistry) {
  const auto p = sar::test_params(32, 101);
  const auto sim = core::run_ffbp_epiphany(
      sar::simulate_compressed(p, sar::six_target_scene(p)), p);
  ASSERT_EQ(sim.prefetch_stats.size(), p.merge_levels());
  for (const core::LevelPrefetchStats& ls : sim.prefetch_stats) {
    const std::string lvl = std::to_string(ls.level);
    const telemetry::Counter* hits = sim.metrics.find_counter(
        telemetry::labeled("ffbp.prefetch.local_hits", {{"level", lvl}}));
    const telemetry::Counter* misses = sim.metrics.find_counter(
        telemetry::labeled("ffbp.prefetch.ext_misses", {{"level", lvl}}));
    ASSERT_NE(hits, nullptr);
    ASSERT_NE(misses, nullptr);
    EXPECT_EQ(hits->value(), ls.local_hits);
    EXPECT_EQ(misses->value(), ls.ext_misses);
  }
}

} // namespace
} // namespace esarp
