// esarp — command-line driver for the SAR processing library.
//
// Run `esarp` without arguments for each command's flags. Each command
// declares its flags once, in a table below that both prints the usage and
// checks a command line before the command does any work: an undeclared
// flag, a missing or malformed value, or a value outside its declared
// range or choices is a usage error (exit 2) naming the flag.
//
// Datasets are the library's .esrp container (see sar/io.hpp), so the
// expensive products can be generated once and reused. --trace writes a
// Chrome/Perfetto trace of the chip run; --metrics writes a run manifest
// (docs/observability.md) that tools/esarp_compare can diff. `chaos`
// runs a seeded fault-injection campaign (docs/fault-injection.md).
// `lint` statically analyzes the shipped mappings without running the
// scheduler (docs/static-analysis.md). `serve` replays an arrival trace
// through the multi-chip fleet runtime and writes an
// esarp-serve-manifest/4 (docs/serving.md); the retry budget, degradation
// ladder, dispatch order and shedding are configured per campaign. A fleet
// that cannot finish every job (all chips dead, or a job out of retries
// at max degradation) exits 5 like any other unrecovered fault.
//
// Exit codes (stable, scripted against by CI):
//   0  success
//   1  generic error (I/O, bad dataset, ...)
//   2  usage error, including a flag value that is malformed, has
//      trailing characters or is out of its declared range
//   3  simulation deadlock (ep::SimDeadlock)
//   4  contract violation, including the max_cycles watchdog
//   5  fault campaign exhausted its recovery budget (FaultUnrecovered)
//   6  `esarp lint` found mapping violations
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "parse_whole.hpp"
#include "common/format.hpp"
#include "common/glob.hpp"
#include "common/json.hpp"
#include "common/pgm.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "analysis/lint_report.hpp"
#include "core/autofocus_epiphany.hpp"
#include "core/ffbp_epiphany.hpp"
#include "core/gbp_epiphany.hpp"
#include "core/mapping_desc.hpp"
#include "core/mapping_profiles.hpp"
#include "epiphany/machine_metrics.hpp"
#include "host/sweep_runner.hpp"
#include "serve/fleet.hpp"
#include "serve/trace.hpp"
#include "telemetry/compare.hpp"
#include "telemetry/manifest.hpp"
#include "autofocus/integrated.hpp"
#include "sar/ffbp.hpp"
#include "sar/gbp.hpp"
#include "sar/io.hpp"
#include "sar/metrics.hpp"
#include "sar/multilook.hpp"
#include "sar/rda.hpp"
#include "sar/scene.hpp"

namespace {

using namespace esarp;

// Stable exit codes — documented in the header comment, docs/simulator.md
// and docs/fault-injection.md; CI scripts and tests match on them.
constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitDeadlock = 3;
constexpr int kExitContract = 4;
constexpr int kExitFaultUnrecovered = 5;
constexpr int kExitLintFindings = 6;

/// A command line the flag tables or a command's cross-flag rules reject.
/// main() turns it into a usage error (exit 2); the message names the flag.
class FlagError : public std::invalid_argument {
public:
  using std::invalid_argument::invalid_argument;
};

/// What a flag's value must be: a switch takes none; every other kind takes
/// one, the integer list a comma-separated one (`--cores 2,4`).
enum Kind : std::uint8_t { kSwitch, kText, kInt, kReal, kChoice, kIntList };

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Inclusive bounds that stand for the open bounds "> 0" and "< 1": the
/// least positive double and the greatest one below 1.
constexpr double kAboveZero = std::numeric_limits<double>::denorm_min();
constexpr double kBelowOne = 0x1.fffffffffffffp-1;
constexpr double kIntMax = std::numeric_limits<int>::max();
/// Cores of the default chip, the upper bound of a runner's --cores.
const double kChipCores = ep::ChipConfig{}.core_count();

/// One declared flag. A number, and each entry of an integer list, lies in
/// the inclusive range [lo, hi], which also keeps it inside the type the
/// command reads it as. `meta` is the value's usage placeholder; for a
/// choice it lists the accepted values, separated by '|'.
struct Flag {
  std::string_view name;
  Kind kind = kSwitch;
  std::string_view meta = {};
  double lo = -kInf;
  double hi = kInf;
  bool required = false;
};

constexpr Flag required(Flag f) {
  f.required = true;
  return f;
}

/// Whether `x` was parsed and lies in f's range (NaN never does).
template <typename T>
bool within(const Flag& f, std::optional<T> x) {
  return x && static_cast<double>(*x) >= f.lo &&
         static_cast<double>(*x) <= f.hi;
}

/// The entries of an integer list, each in f's range; empty for an empty
/// list or a bad entry.
std::vector<int> parse_list(const Flag& f, const std::string& s) {
  std::vector<int> xs;
  std::istringstream ss(s);
  for (std::string tok; std::getline(ss, tok, ',');) {
    const std::optional<int> x = parse_whole<int>(tok);
    if (!within(f, x)) return {};
    xs.push_back(*x);
  }
  return xs;
}

/// What f's value must be, for its usage error.
std::string wants(const Flag& f) {
  if (f.kind == kText) return "a value";
  if (f.kind == kChoice) return std::string("one of ").append(f.meta);
  std::ostringstream s;
  s << std::setprecision(17)
    << (f.kind == kReal  ? "a number in "
        : f.kind == kInt ? "an integer in "
                         : "comma-separated integers in ");
  if (f.lo == kAboveZero) s << "(0";
  else s << '[' << f.lo;
  if (f.hi == kBelowOne) s << ", 1)";
  else s << ", " << f.hi << ']';
  return s.str();
}

/// One command's flags, each checked against the command's declarations
/// when the command line is read, so the command only ever sees values its
/// table accepts. Lookups name declared flags only.
class Args {
public:
  Args(std::span<const Flag> decl, int argc, char** argv) : decl_(decl) {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0)
        throw FlagError("unexpected argument " + arg);
      const Flag* f = declared(arg.substr(2));
      if (f == nullptr) throw FlagError("unknown flag " + arg);
      std::string value;
      if (f->kind != kSwitch) {
        // A value never starts with "--": that is the next flag.
        if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
          value = argv[++i];
        if (!accepts(*f, value))
          throw FlagError(arg + " wants " + wants(*f) + ", got '" + value +
                          "'");
      }
      kv_[std::string(f->name)] = value;
    }
    for (const Flag& f : decl_)
      if (f.required && !has(f.name))
        throw FlagError(std::string("--").append(f.name) + " is required");
  }

  [[nodiscard]] bool has(std::string_view k) const {
    return find(k) != nullptr;
  }
  [[nodiscard]] std::string str(std::string_view k,
                                const std::string& dflt = "") const {
    const std::string* v = find(k);
    return v != nullptr ? *v : dflt;
  }
  /// An integer flag as T, or `dflt` when it is not given.
  template <typename T>
  [[nodiscard]] T num(std::string_view k, T dflt) const {
    const std::string* v = find(k);
    if (v == nullptr) return dflt;
    // The declared range keeps the value inside T; a range wider than T is
    // a bug in the table, not in the command line.
    const long x = *parse_whole<long>(*v);
    ESARP_EXPECTS(std::in_range<T>(x));
    return static_cast<T>(x);
  }
  [[nodiscard]] double real(std::string_view k, double dflt) const {
    const std::string* v = find(k);
    return v != nullptr ? *parse_whole<double>(*v) : dflt;
  }
  /// An integer list flag's entries, or {dflt} when it is not given.
  [[nodiscard]] std::vector<int> ints(std::string_view k, int dflt) const {
    const std::string* v = find(k);
    return v != nullptr ? parse_list(*declared(k), *v) : std::vector{dflt};
  }

private:
  static bool accepts(const Flag& f, const std::string& v) {
    switch (f.kind) {
    case kInt: return within(f, parse_whole<long>(v));
    case kReal: return within(f, parse_whole<double>(v));
    case kIntList: return !parse_list(f, v).empty();
    case kChoice: {
      const std::string values = std::string("|").append(f.meta) + '|';
      return v.find('|') == std::string::npos &&
             values.find('|' + v + '|') != std::string::npos;
    }
    default: return !v.empty();
    }
  }

  const Flag* declared(std::string_view name) const {
    for (const Flag& f : decl_)
      if (f.name == name) return &f;
    return nullptr;
  }

  const std::string* find(std::string_view k) const {
    ESARP_EXPECTS(declared(k) != nullptr);
    const auto it = kv_.find(k);
    return it != kv_.end() ? &it->second : nullptr;
  }

  std::span<const Flag> decl_;
  std::map<std::string, std::string, std::less<>> kv_;
};

/// Throws FlagError unless the runners accept `pulses` x `range`: FFBP
/// merges pairs of subapertures down to one, so it needs a power of two;
/// GBP streams pulses two at a time, so it needs an even count; and the
/// sector sar::test_params forms widens with the pulses and narrows with
/// the range, so it must stay inside the bound RadarParams::validate sets.
void check_pulse_shape(bool ffbp, bool gbp, std::size_t pulses,
                       std::size_t range) {
  if (ffbp && !std::has_single_bit(pulses))
    throw FlagError("--pulses must be a power of two for FFBP");
  if (gbp && pulses % 2 != 0) throw FlagError("--pulses must be even for GBP");
  if (!sar::test_params(pulses, range).sector_fits())
    throw FlagError(std::string("--pulses ")
                        .append(std::to_string(pulses))
                        .append(" spans a wider sector than the imaging "
                                "geometry allows at --range ")
                        .append(std::to_string(range)));
}

const Flag kSimulateFlags[] = {
    required({"out", kText, "f.esrp"}), {"pulses", kInt, "N", 2},
    {"range", kInt, "M", 2}, {"paper"}, {"targets", kInt, "K", 0},
    {"noise", kReal, "SIGMA", 0, std::numeric_limits<float>::max()},
    {"seed", kInt, "S", 0}};

int cmd_simulate(const Args& args) {
  const bool paper = args.has("paper");
  // --paper fixes the aperture: a shape flag beside it would be ignored.
  for (const std::string k : {"pulses", "range"})
    if (paper && args.has(k))
      throw FlagError("--" + k + " sets the shape --paper fixes: not with "
                                 "--paper");
  const auto pulses = args.num<std::size_t>("pulses", 256);
  const auto range = args.num<std::size_t>("range", 251);
  if (!paper) check_pulse_shape(false, false, pulses, range);
  sar::Dataset ds;
  ds.params = paper ? sar::paper_params() : sar::test_params(pulses, range);
  Rng rng(args.num<std::uint64_t>("seed", 1));
  const double noise = args.real("noise", 0.0);
  const std::string out = args.str("out");

  sar::Scene scene;
  const auto n_targets = args.num<std::size_t>("targets", 6);
  if (n_targets == 6) {
    scene = sar::six_target_scene(ds.params);
  } else {
    const double x_span = static_cast<double>(ds.params.n_pulses - 1) *
                          ds.params.pulse_spacing_m;
    for (std::size_t i = 0; i < n_targets; ++i)
      scene.targets.push_back(
          {rng.uniform(-0.35 * x_span, 0.35 * x_span),
           rng.uniform(ds.params.near_range_m + 10.0 * ds.params.range_bin_m,
                       ds.params.far_range_m() -
                           10.0 * ds.params.range_bin_m),
           rng.uniform_f(0.5f, 1.0f)});
  }

  std::cerr << "simulating " << ds.params.n_pulses << "x" << ds.params.n_range
            << " raw data, " << scene.targets.size() << " targets...\n";
  ds.data = sar::simulate_compressed(ds.params, scene);
  if (noise > 0.0) sar::add_noise(ds.data, rng, static_cast<float>(noise));

  sar::save_dataset(out, ds);
  std::cout << "wrote " << out << "\n";
  return 0;
}

const Flag kImageFlags[] = {
    required({"in", kText, "f.esrp"}), required({"out", kText, "img.pgm"}),
    {"algo", kChoice, "ffbp|gbp|rda"}, {"interp", kChoice, "nn|linear|cubic"},
    {"autofocus"}, {"looks", kInt, "K", 1}};

int cmd_image(const Args& args) {
  const std::string out = args.str("out");
  sar::FfbpOptions interp;
  if (args.str("interp") == "linear") interp.interp = sar::Interp::kLinear;
  if (args.str("interp") == "cubic") interp.interp = sar::Interp::kCubic;
  const sar::Dataset ds = sar::load_dataset(args.str("in"));
  const std::string algo = args.str("algo", "ffbp");
  WallTimer timer;

  Array2D<cf32> image;
  if (algo == "gbp") {
    image = sar::gbp(ds.data, ds.params).image.data;
  } else if (algo == "rda") {
    image = sar::range_doppler(ds.data, ds.params).image;
  } else {
    const auto looks = args.num<std::size_t>("looks", 1);
    if (looks > 1) {
      const std::size_t pulses = ds.params.n_pulses;
      if (pulses % looks != 0 || pulses / looks < 2)
        throw FlagError("--looks " + std::to_string(looks) +
                        " must split the " + std::to_string(pulses) +
                        " pulses into equal looks of at least 2 pulses");
      const auto ml = sar::multilook_ffbp(ds.data, ds.params, looks, interp);
      write_pgm(out, ml.intensity);
      std::cout << "multilook(" << looks << ") image written to " << out
                << " in " << format_seconds(timer.elapsed_s())
                << "; speckle contrast "
                << Table::num(sar::speckle_contrast(ml.intensity), 3)
                << "\n";
      return 0;
    }
    if (args.has("autofocus")) {
      af::IntegratedOptions aopt;
      aopt.ffbp = interp;
      const auto res = af::ffbp_with_autofocus(ds.data, ds.params, aopt);
      image = res.image.data;
      std::size_t applied = 0;
      for (const auto& c : res.corrections)
        if (std::abs(c.shift_bins) > 0.01f) ++applied;
      std::cerr << "autofocus: " << applied << "/"
                << res.corrections.size() << " corrections applied\n";
    } else {
      image = sar::ffbp(ds.data, ds.params, interp).image.data;
    }
  }

  write_pgm(out, image, {.dynamic_range_db = 45.0});
  std::cout << algo << " image (" << image.rows() << "x" << image.cols()
            << ") written to " << out << " in "
            << format_seconds(timer.elapsed_s()) << "\n";
  return 0;
}

const Flag kChipFlags[] = {
    required({"in", kText, "f.esrp"}),
    {"cores", kIntList, "N[,N...]", 1, kChipCores},
    {"jobs", kInt, "N", 0, kIntMax}, {"no-prefetch"}, {"autofocus"},
    {"out", kText, "img.pgm"}, {"trace", kText, "t.json"},
    {"metrics", kText, "m.json"}, {"check"}};

int cmd_chip(const Args& args) {
  // --cores may name a sweep; --jobs N fans the independent simulations
  // over N host threads (default 1). Results are deterministic and
  // identical for any --jobs value (docs/performance.md).
  const std::vector<int> core_counts = args.ints("cores", 16);
  const sar::Dataset ds = sar::load_dataset(args.str("in"));

  core::FfbpMapOptions opt;
  opt.n_cores = core_counts.back();
  opt.prefetch = !args.has("no-prefetch");
  af::IntegratedOptions aopt;
  if (args.has("autofocus")) opt.autofocus = &aopt;

  // --check turns on the hazard sanitizer (docs/static-analysis.md); the
  // ESARP_CHECK_* env vars refine it (suppressions, JSON report, abort).
  ep::ChipConfig chip_cfg;
  chip_cfg.check.enabled = args.has("check");

  const std::string trace_path = args.str("trace");
  ep::Tracer tracer;
  if (!trace_path.empty()) {
    tracer.enable();
    opt.tracer = &tracer;
  }

  host::SweepRunner pool(args.num("jobs", 1));
  std::cerr << "simulating " << core_counts.size()
            << " Epiphany FFBP configuration(s) (" << pool.jobs()
            << " host thread(s))...\n";
  WallTimer sweep_timer;
  // The trace, metrics manifest, image, and summary all describe the last
  // configuration in the list; earlier entries print one summary line.
  auto results = pool.run(core_counts.size(), [&](std::size_t i) {
    core::FfbpMapOptions o = opt;
    o.n_cores = core_counts[i];
    if (i + 1 != core_counts.size()) o.tracer = nullptr;
    return core::run_ffbp_epiphany(ds.data, ds.params, o, chip_cfg);
  });
  const double sweep_s = sweep_timer.elapsed_s();
  const auto& sim = results.back();

  std::uint64_t events = 0;
  for (std::size_t i = 0; i < core_counts.size(); ++i) {
    events += results[i].perf.engine_events;
    if (i + 1 != core_counts.size())
      std::cout << core_counts[i]
                << "-core chip time: " << format_seconds(results[i].seconds)
                << " (" << format_cycles(results[i].cycles) << " cycles)\n";
  }
  std::cerr << "engine: " << events << " events in "
            << format_seconds(sweep_s) << " ("
            << format_rate(static_cast<double>(events) /
                               std::max(sweep_s, 1e-12),
                           "events")
            << ")\n";

  std::cout << "chip time: " << format_seconds(sim.seconds) << " ("
            << format_cycles(sim.cycles) << " cycles)\n"
            << sim.perf.summary() << sim.energy.summary() << "\n";
  if (opt.autofocus != nullptr)
    std::cout << "autofocus corrections evaluated: "
              << sim.corrections.size() << "\n";

  if (!trace_path.empty()) {
    tracer.write_chrome_json(trace_path, sim.perf.cfg.clock_hz);
    std::cout << "trace written to " << trace_path << " ("
              << tracer.size() << " segments, " << tracer.spans().size()
              << " spans)\n";
  }

  const std::string metrics_path = args.str("metrics");
  if (!metrics_path.empty()) {
    telemetry::RunManifest man("esarp_chip");
    ep::fill_manifest(man, sim.perf, sim.energy);
    man.add_workload("n_pulses", static_cast<double>(ds.params.n_pulses));
    man.add_workload("n_range", static_cast<double>(ds.params.n_range));
    man.add_workload("n_cores", static_cast<double>(opt.n_cores));
    man.add_workload("prefetch", opt.prefetch ? 1.0 : 0.0);
    man.set_metrics(&sim.metrics);
    man.write(std::filesystem::path(metrics_path));
    std::cout << "metrics manifest written to " << metrics_path << "\n";
  }

  const std::string out = args.str("out");
  if (!out.empty()) {
    write_pgm(out, sim.image, {.dynamic_range_db = 45.0});
    std::cout << "image written to " << out << "\n";
  }
  return 0;
}

const Flag kPowerFlags[] = {
    required({"in", kText, "f.esrp"}), {"cores", kInt, "N", 1, kChipCores},
    {"epoch", kInt, "CYCLES", 1}, {"no-prefetch"}, {"autofocus"},
    {"csv", kText, "p.csv"}, {"heatmap", kText, "p.pgm"},
    {"trace", kText, "t.json"}, {"metrics", kText, "m.json"}};

/// Power observability report (docs/observability.md): runs the FFBP
/// mapping with the power sampler attached and prints the aggregate energy
/// breakdown, the span-attribution profile and the per-epoch peak power.
/// Energy conservation (trace and attribution vs the aggregate model, 1e-9
/// relative) is asserted inside collect_power — a violation exits 4.
int cmd_power(const Args& args) {
  core::FfbpMapOptions opt;
  opt.n_cores = args.num("cores", 16);
  const sar::Dataset ds = sar::load_dataset(args.str("in"));
  opt.prefetch = !args.has("no-prefetch");
  af::IntegratedOptions aopt;
  if (args.has("autofocus")) opt.autofocus = &aopt;

  ep::ChipConfig chip_cfg;
  chip_cfg.power.enabled = true;
  chip_cfg.power.epoch_cycles = args.num("epoch", chip_cfg.power.epoch_cycles);

  const std::string trace_path = args.str("trace");
  ep::Tracer tracer;
  if (!trace_path.empty()) {
    tracer.enable();
    opt.tracer = &tracer;
  }

  const auto sim = core::run_ffbp_epiphany(ds.data, ds.params, opt, chip_cfg);
  const ep::PowerTrace& trace = sim.power.trace;

  std::cout << "chip time: " << format_seconds(sim.seconds) << " ("
            << format_cycles(sim.cycles) << " cycles)\n"
            << sim.energy.summary() << "\n"
            << "power trace: " << trace.n_epochs << " epoch(s) of "
            << trace.epoch_cycles << " cycles; peak chip power "
            << Table::num(trace.peak_chip_watts(), 3) << " W, average "
            << Table::num(sim.energy.avg_watts, 3) << " W\n"
            << "energy per pixel: "
            << Table::num(sim.energy.total_j() /
                              static_cast<double>(ds.params.n_pulses * ds.params.n_range) * 1e9,
                          3)
            << " nJ\n"
            << sim.power.profile.table();

  const std::string csv_path = args.str("csv");
  if (!csv_path.empty()) {
    ep::write_power_csv(csv_path, trace);
    std::cout << "power trace CSV written to " << csv_path << "\n";
  }

  const std::string heatmap_path = args.str("heatmap");
  if (!heatmap_path.empty()) {
    ep::write_power_heatmap(heatmap_path, trace);
    std::cout << "core x epoch power heatmap written to " << heatmap_path
              << " (" << trace.n_cores << " x " << trace.n_epochs << ")\n";
  }

  if (!trace_path.empty()) {
    // collect_power already exported the power counter tracks into the
    // tracer, so the written trace carries chip/core power under the core
    // tracks.
    tracer.write_chrome_json(trace_path, sim.perf.cfg.clock_hz);
    std::cout << "trace written to " << trace_path << " ("
              << tracer.size() << " segments, power counter tracks: "
              << (1 + trace.n_cores) << ")\n";
  }

  const std::string metrics_path = args.str("metrics");
  if (!metrics_path.empty()) {
    telemetry::RunManifest man("esarp_power");
    ep::fill_manifest(man, sim.perf, sim.energy);
    ep::fill_power_manifest(man, sim.power);
    man.add_result("energy_per_pixel",
                   sim.energy.total_j() /
                       static_cast<double>(ds.params.n_pulses * ds.params.n_range));
    man.add_workload("n_pulses", static_cast<double>(ds.params.n_pulses));
    man.add_workload("n_range", static_cast<double>(ds.params.n_range));
    man.add_workload("n_cores", static_cast<double>(opt.n_cores));
    man.add_workload("epoch_cycles",
                     static_cast<double>(chip_cfg.power.epoch_cycles));
    man.set_metrics(&sim.metrics);
    man.write(std::filesystem::path(metrics_path));
    std::cout << "metrics manifest written to " << metrics_path << "\n";
  }
  return 0;
}

const Flag kReportFlags[] = {required({"in", kText, "m.manifest.json"})};

/// Human-readable view of a run manifest written by --metrics or a bench.
int cmd_report(const Args& args) {
  const std::string in = args.str("in");
  const JsonValue doc = load_json_file(in);
  const JsonValue* schema = doc.find("schema");
  // Run and serve manifests share the chip/workload/results layout, so
  // the report renders any esarp manifest family.
  if (schema == nullptr || !schema->is_string() ||
      !glob_match("esarp-*-manifest/*", schema->as_string()))
    throw ContractViolation(in + " is not an esarp manifest");

  const auto* tool = doc.find("tool");
  const auto* version = doc.find("version");
  Table t("run manifest: " +
          (tool != nullptr && tool->is_string() ? tool->as_string() : "?") +
          " (esarp " +
          (version != nullptr && version->is_string() ? version->as_string()
                                                      : "?") +
          ")");
  t.header({"Section", "Key", "Value"});
  for (const char* section : {"chip", "workload", "results"}) {
    const JsonValue* sec = doc.find(section);
    if (sec == nullptr || !sec->is_object()) continue;
    for (const auto& [key, v] : sec->as_object())
      t.row({section, key, v.is_number() ? Table::num(v.as_number(), 6)
                                         : std::string("?")});
  }
  const JsonValue* counters = doc.find_path("metrics.counters");
  const JsonValue* hists = doc.find_path("metrics.histograms");
  t.note("metrics: " +
         std::to_string(counters != nullptr && counters->is_object()
                            ? counters->as_object().size()
                            : 0) +
         " counters, " +
         std::to_string(hists != nullptr && hists->is_object()
                            ? hists->as_object().size()
                            : 0) +
         " histograms (use tools/esarp_compare to diff runs)");
  t.print(std::cout);
  return 0;
}

/// Parse `--fail core@cycle[,core@cycle...]` into fail-stop triggers;
/// nullopt on an entry that is not two non-negative integers.
std::optional<std::vector<fault::FailStop>>
parse_fail_stops(const std::string& spec) {
  std::vector<fault::FailStop> stops;
  std::istringstream ss(spec);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    const std::size_t at = tok.find('@');
    if (at == std::string::npos) return std::nullopt;
    const std::optional<int> core = parse_whole<int>(tok.substr(0, at));
    const std::optional<std::uint64_t> cycle =
        parse_whole<std::uint64_t>(tok.substr(at + 1));
    if (!core || !cycle || *core < 0) return std::nullopt;
    stops.push_back({*core, *cycle});
  }
  return stops;
}

/// True when `core` runs a program in the chaos workload: one of FFBP's
/// first `cores` cores, or one of the 13 cores of the autofocus pipeline's
/// default placement.
bool runs_program(int core, bool autofocus, int cores) {
  if (!autofocus) return core < cores;
  const core::Placement pl =
      core::make_placement(core::AfMapOptions{}.placement);
  if (core == pl.corr) return true;
  for (int f = 0; f < 2; ++f)
    for (int w = 0; w < 3; ++w)
      if (core == pl.range[f][w] || core == pl.beam[f][w]) return true;
  return false;
}

/// Root-mean-square magnitude error between two equal-shape images.
double image_rmse(const Array2D<cf32>& a, const Array2D<cf32>& b) {
  ESARP_EXPECTS(a.rows() == b.rows() && a.cols() == b.cols());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = std::abs(a.flat()[i] - b.flat()[i]);
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(std::max<std::size_t>(
                             a.size(), 1)));
}

const Flag kChaosFlags[] = {
    required({"in", kText, "f.esrp"}), {"cores", kInt, "N", 1, kChipCores},
    {"seed", kInt, "S", 0}, {"dma-corrupt", kReal, "R", 0, 1},
    {"dma-drop", kReal, "R", 0, 1}, {"noc-stall", kReal, "R", 0, 1},
    {"membits", kReal, "R", 0, 1},
    {"fail", kText, "CORE@CYCLE[,CORE@CYCLE...]"}, {"no-resilience"},
    {"autofocus"}, {"pairs", kInt, "N", 1}, {"metrics", kText, "m.json"},
    {"max-cycles", kInt, "N", 0}, {"check"}};

/// Seeded fault-injection campaign (docs/fault-injection.md): run the
/// workload clean, run it again under the fault plan, and report the
/// recovery counters plus the numeric damage. Identical seeds produce
/// bit-identical fault schedules, so a chaos invocation is a reproducible
/// artifact — `fault.schedule_hash` in the metrics manifest witnesses it.
int cmd_chaos(const Args& args) {
  ep::ChipConfig cfg;
  cfg.check.enabled = args.has("check");
  fault::FaultPlan& plan = cfg.faults;
  plan.seed = args.num<std::uint64_t>("seed", 1);
  plan.dma_corrupt_rate = args.real("dma-corrupt", 0.0);
  plan.dma_drop_rate = args.real("dma-drop", 0.0);
  plan.noc_stall_rate = args.real("noc-stall", 0.0);
  plan.membits_rate = args.real("membits", 0.0);
  plan.resilient = !args.has("no-resilience");
  const std::optional<std::vector<fault::FailStop>> fail_stops =
      parse_fail_stops(args.str("fail"));
  if (!fail_stops)
    throw FlagError("bad --fail '" + args.str("fail") +
                    "' (want core@cycle[,core@cycle...])");
  plan.fail_stops = *fail_stops;
  if (!plan.enabled())
    throw FlagError("no faults requested (set --dma-corrupt, --dma-drop, "
                    "--noc-stall, --membits, or --fail)");
  const auto max_cycles = args.num<ep::Cycles>("max-cycles", 0);
  const bool autofocus = args.has("autofocus");
  const int cores = args.num("cores", 16);
  // A fail-stop on an idle core would inject nothing.
  for (const fault::FailStop& fs : plan.fail_stops)
    if (!runs_program(fs.core, autofocus, cores))
      throw FlagError("--fail names core " + std::to_string(fs.core) +
                      ", which runs no program in this " +
                      (autofocus ? "autofocus pipeline"
                                 : std::to_string(cores) + "-core FFBP run"));
  const sar::Dataset ds = sar::load_dataset(args.str("in"));

  fault::FaultSummary sum;
  bool degraded = false;
  ep::Cycles clean_cycles = 0;
  ep::Cycles fault_cycles = 0;
  double damage = 0.0;
  std::string damage_label;
  const telemetry::MetricsRegistry* metrics = nullptr;
  std::optional<core::FfbpSimResult> ffbp_faulted;
  std::optional<core::AfSimResult> af_faulted;

  if (autofocus) {
    // Autofocus chaos: the 13-core MPMD pipeline over synthetic block
    // pairs (the dataset seeds the pair generator so campaigns are tied
    // to an input artifact like every other mode).
    af::AfParams p;
    Rng rng(plan.seed ^ ds.params.n_pulses);
    std::vector<af::BlockPair> pairs;
    const auto n_pairs = args.num<std::size_t>("pairs", 8);
    for (std::size_t i = 0; i < n_pairs; ++i)
      pairs.push_back(
          af::synthetic_block_pair(rng, p, rng.uniform_f(-0.5f, 0.5f)));
    core::AfMapOptions opt;
    opt.max_cycles = max_cycles;
    std::cerr << "chaos: clean autofocus MPMD reference run...\n";
    const auto clean = core::run_autofocus_mpmd(pairs, p, opt);
    std::cerr << "chaos: faulted run (seed " << plan.seed << ")...\n";
    af_faulted = core::run_autofocus_mpmd(pairs, p, opt, cfg);
    const auto& f = *af_faulted;
    sum = f.faults;
    degraded = f.degraded;
    clean_cycles = clean.cycles;
    fault_cycles = f.cycles;
    metrics = &f.metrics;
    double acc = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < pairs.size(); ++i)
      for (std::size_t s = 0; s < clean.criteria[i].size(); ++s, ++n) {
        const double d = f.criteria[i][s] - clean.criteria[i][s];
        acc += d * d;
      }
    damage = std::sqrt(acc / static_cast<double>(std::max<std::size_t>(n, 1)));
    damage_label = "criterion RMSE vs clean";
  } else {
    core::FfbpMapOptions opt;
    opt.n_cores = cores;
    opt.max_cycles = max_cycles;
    std::cerr << "chaos: clean FFBP reference run...\n";
    const auto clean = core::run_ffbp_epiphany(ds.data, ds.params, opt);
    std::cerr << "chaos: faulted run (seed " << plan.seed << ")...\n";
    ffbp_faulted = core::run_ffbp_epiphany(ds.data, ds.params, opt, cfg);
    const auto& f = *ffbp_faulted;
    sum = f.faults;
    degraded = f.degraded;
    clean_cycles = clean.cycles;
    fault_cycles = f.cycles;
    metrics = &f.metrics;
    damage = image_rmse(f.image, clean.image);
    damage_label = "image RMSE vs clean";
  }

  Table t("chaos campaign (seed " + std::to_string(plan.seed) +
          (plan.resilient ? "" : ", resilience OFF") + ")");
  t.header({"Counter", "Value"});
  t.row({"faults injected", Table::num(static_cast<double>(sum.injected), 0)});
  t.row({"faults detected", Table::num(static_cast<double>(sum.detected), 0)});
  t.row({"faults recovered", Table::num(static_cast<double>(sum.recovered), 0)});
  t.row({"transfer retries", Table::num(static_cast<double>(sum.retries), 0)});
  t.row({"repartitions", Table::num(static_cast<double>(sum.repartitions), 0)});
  t.row({"failed cores", Table::num(static_cast<double>(sum.failed_cores), 0)});
  t.row({"af windows dropped", Table::num(static_cast<double>(sum.af_windows_dropped), 0)});
  t.row({"af pairs dropped", Table::num(static_cast<double>(sum.af_pairs_dropped), 0)});
  t.row({"recovery cycles", Table::num(static_cast<double>(sum.recovery_cycles), 0)});
  t.row({"clean cycles", Table::num(static_cast<double>(clean_cycles), 0)});
  t.row({"faulted cycles", Table::num(static_cast<double>(fault_cycles), 0)});
  t.row({damage_label, Table::num(damage, 9)});
  {
    std::ostringstream hash;
    hash << std::hex << sum.schedule_hash;
    t.note("schedule hash " + hash.str() + (degraded ? "; DEGRADED" : "") +
           " (same seed + plan => same schedule)");
  }
  t.print(std::cout);

  const std::string metrics_path = args.str("metrics");
  if (!metrics_path.empty() && metrics != nullptr) {
    telemetry::RunManifest man("esarp_chaos");
    if (ffbp_faulted)
      ep::fill_manifest(man, ffbp_faulted->perf, ffbp_faulted->energy);
    else
      ep::fill_manifest(man, af_faulted->perf, af_faulted->energy);
    man.add_workload("seed", static_cast<double>(plan.seed));
    man.add_workload("dma_corrupt_rate", plan.dma_corrupt_rate);
    man.add_workload("dma_drop_rate", plan.dma_drop_rate);
    man.add_workload("noc_stall_rate", plan.noc_stall_rate);
    man.add_workload("membits_rate", plan.membits_rate);
    man.add_workload("resilient", plan.resilient ? 1.0 : 0.0);
    man.add_workload("fail_stops", static_cast<double>(plan.fail_stops.size()));
    man.set_metrics(metrics);
    man.write(std::filesystem::path(metrics_path));
    std::cout << "metrics manifest written to " << metrics_path << "\n";
  }

  if (!plan.resilient && sum.failed_cores > 0) return kExitError;
  return kExitOk;
}

const Flag kAnalyzeFlags[] = {required({"in", kText, "f.esrp"})};

int cmd_analyze(const Args& args) {
  const std::string in = args.str("in");
  const sar::Dataset ds = sar::load_dataset(in);
  const auto img = sar::ffbp(ds.data, ds.params);
  const auto rep = sar::analyze_point_target(img.image.data);

  Table t("point-target analysis (FFBP image of " + in + ")");
  t.header({"Metric", "Range axis", "Azimuth axis"});
  t.row({"peak bin", Table::num(rep.range.peak_index, 2),
         Table::num(rep.azimuth.peak_index, 2)});
  t.row({"-3 dB width (bins)", Table::num(rep.range.width_3db, 2),
         Table::num(rep.azimuth.width_3db, 2)});
  t.row({"PSLR (dB)", Table::num(rep.range.pslr_db, 1),
         Table::num(rep.azimuth.pslr_db, 1)});
  t.row({"ISLR (dB)", Table::num(rep.range.islr_db, 1),
         Table::num(rep.azimuth.islr_db, 1)});
  t.note("image entropy " + Table::num(image_entropy(img.image.data), 2) +
         " bits, contrast " + Table::num(image_contrast(img.image.data), 2));
  t.print(std::cout);
  return 0;
}

const Flag kLintFlags[] = {
    {"mapping", kChoice,
     "all|ffbp|ffbp-db|ffbp-seq|ffbp-af|gbp|af-mpmd|af-mpmd-scattered|af-seq"},
    {"pulses", kInt, "N", 2}, {"range", kInt, "M", 2},
    // More cores than the chip has stays legal here: the core-id checker
    // reports the cores that do not exist.
    {"cores", kInt, "N", 1, kIntMax}, {"pairs", kInt, "N", 1},
    {"no-prefetch"}, {"json", kText, "m.json"}, {"validate"}};

/// Static mapping analysis (docs/static-analysis.md): build the declarative
/// descriptor of each requested mapping, run the legality checkers and the
/// analytic cost model, and report findings + predictions. No simulation
/// unless --validate, which also runs each mapping on the simulated chip
/// and records the prediction error in the manifest.
int cmd_lint(const Args& args) {
  const std::string which = args.str("mapping", "all");
  const auto pulses = args.num<std::size_t>("pulses", 32);
  const auto range = args.num<std::size_t>("range", 101);
  check_pulse_shape(which == "all" || which.starts_with("ffbp"),
                    which == "all" || which == "gbp", pulses, range);
  const int cores = args.num("cores", 16);
  const auto n_pairs = args.num<std::size_t>("pairs", 4);
  const bool validate = args.has("validate");

  const sar::RadarParams p = sar::test_params(pulses, range);
  const af::AfParams afp;
  const af::IntegratedOptions aopt;

  // Simulation inputs, generated lazily: specs need none, --validate does.
  Array2D<cf32> data;
  std::vector<af::BlockPair> pairs;
  const auto raw_data = [&]() -> const Array2D<cf32>& {
    if (data.size() == 0)
      data = sar::simulate_compressed(p, sar::six_target_scene(p));
    return data;
  };
  const auto block_pairs = [&]() -> std::span<const af::BlockPair> {
    if (pairs.empty()) {
      Rng rng(1);
      for (std::size_t i = 0; i < n_pairs; ++i)
        pairs.push_back(
            af::synthetic_block_pair(rng, afp, rng.uniform_f(-0.5f, 0.5f)));
    }
    return pairs;
  };

  struct Entry {
    const char* key;
    analysis::MappingSpec spec;
    std::function<std::pair<ep::Cycles, double>()> simulate;
  };
  std::vector<Entry> entries;
  const auto want = [&](const char* key) {
    return which == "all" || which == key;
  };

  if (want("ffbp") || want("ffbp-db")) {
    core::FfbpMapOptions opt;
    opt.n_cores = cores;
    opt.prefetch = !args.has("no-prefetch");
    opt.double_buffer = which == "ffbp-db";
    entries.push_back({opt.double_buffer ? "ffbp-db" : "ffbp",
                       core::describe_ffbp_mapping(p, opt), [&, opt] {
                         const auto sim =
                             core::run_ffbp_epiphany(raw_data(), p, opt);
                         return std::pair{sim.cycles, sim.energy.total_j()};
                       }});
  }
  if (want("ffbp-seq")) {
    core::FfbpMapOptions opt;
    opt.n_cores = 1;
    opt.prefetch = false;
    entries.push_back({"ffbp-seq", core::describe_ffbp_mapping(p, opt),
                       [&, opt] {
                         const auto sim =
                             core::run_ffbp_epiphany(raw_data(), p, opt);
                         return std::pair{sim.cycles, sim.energy.total_j()};
                       }});
  }
  if (want("ffbp-af")) {
    core::FfbpMapOptions opt;
    opt.n_cores = cores;
    opt.autofocus = &aopt;
    entries.push_back({"ffbp-af", core::describe_ffbp_mapping(p, opt),
                       [&, opt] {
                         const auto sim =
                             core::run_ffbp_epiphany(raw_data(), p, opt);
                         return std::pair{sim.cycles, sim.energy.total_j()};
                       }});
  }
  if (want("gbp")) {
    entries.push_back({"gbp", core::describe_gbp_mapping(p, cores), [&] {
                         const auto sim =
                             core::run_gbp_epiphany(raw_data(), p, cores);
                         return std::pair{sim.cycles, sim.energy.total_j()};
                       }});
  }
  for (const bool compact : {true, false}) {
    const char* key = compact ? "af-mpmd" : "af-mpmd-scattered";
    if (!want(key)) continue;
    core::AfMapOptions opt;
    opt.placement =
        compact ? core::AfPlacement::kCompact : core::AfPlacement::kScattered;
    entries.push_back({key, core::describe_autofocus_mpmd(n_pairs, afp, opt),
                       [&, opt] {
                         const auto sim =
                             core::run_autofocus_mpmd(block_pairs(), afp, opt);
                         return std::pair{sim.cycles, sim.energy.total_j()};
                       }});
  }
  if (want("af-seq")) {
    entries.push_back({"af-seq",
                       core::describe_autofocus_sequential(n_pairs, afp),
                       [&] {
                         const auto sim =
                             core::run_autofocus_sequential_epiphany(
                                 block_pairs(), afp);
                         return std::pair{sim.cycles, sim.energy.total_j()};
                       }});
  }
  std::vector<analysis::MappingReport> reports;
  for (auto& e : entries) {
    analysis::MappingReport rep;
    rep.name = e.spec.name;
    rep.family = e.spec.family;
    rep.cores = static_cast<int>(e.spec.cores.size());
    rep.findings = analysis::analyze(e.spec);
    rep.prediction = analysis::predict_cost(e.spec);
    if (validate && rep.findings.empty()) {
      const auto [sim_cycles, sim_joules] = e.simulate();
      rep.validated = true;
      rep.simulated_cycles = sim_cycles;
      rep.simulated_joules = sim_joules;
      const auto pred = static_cast<double>(rep.prediction.makespan);
      rep.cycle_error = std::abs(pred - static_cast<double>(sim_cycles)) /
                        static_cast<double>(std::max<ep::Cycles>(sim_cycles, 1));
      rep.energy_error =
          std::abs(rep.prediction.energy.total_j() - sim_joules) /
          std::max(sim_joules, 1e-12);
    }
    reports.push_back(std::move(rep));
  }

  analysis::write_console_report(std::cout, reports);
  const std::string json_path = args.str("json");
  if (!json_path.empty()) {
    analysis::write_manifest(std::filesystem::path(json_path), reports);
    std::cout << "lint manifest written to " << json_path << "\n";
  }
  return analysis::total_findings(reports) == 0 ? kExitOk : kExitLintFindings;
}

const Flag kServeFlags[] = {
    {"trace", kText, "t.json"}, {"gen", kChoice, "poisson|bursty"},
    {"jobs-count", kInt, "N", 1, kIntMax}, {"rate", kReal, "HZ", kAboveZero},
    {"burst-mean", kReal, "K"}, {"pulses", kInt, "N", 2},
    {"range", kInt, "M", 2}, {"cores", kInt, "N", 1, kChipCores},
    {"algo", kChoice, "ffbp|gbp"}, {"deadline", kReal, "S", kAboveZero},
    {"priority-mix", kText, "L,N,H"},
    {"deadline-jitter", kReal, "J", 0, kBelowOne},
    {"trace-out", kText, "f.json"}, {"chips", kInt, "N", 1, kIntMax},
    {"seed", kInt, "S", 0}, {"chip-kill", kReal, "R", 0, 1},
    {"dma-corrupt", kReal, "R", 0, 1}, {"dma-drop", kReal, "R", 0, 1},
    {"noc-stall", kReal, "R", 0, 1}, {"membits", kReal, "R", 0, 1},
    {"retry-max", kInt, "N", 1, kIntMax},
    {"degrade-max", kInt, "N", 0, kIntMax}, {"jobs", kInt, "N", 0, kIntMax},
    {"dispatch", kChoice, "edf|fifo"}, {"shed"}, {"metrics", kText, "m.json"}};

/// SAR-as-a-service fleet runtime (docs/serving.md): replay an arrival
/// trace (pinned file or generated Poisson/bursty) through N simulated
/// chips with retry, migration and graceful degradation, optionally under
/// a fleet chaos campaign, and report latency percentiles / SLO
/// attainment / energy-per-image. Deterministic: same trace + seed =>
/// byte-identical --metrics manifest.
int cmd_serve(const Args& args) {
  const std::string trace_path = args.str("trace");
  if (trace_path.empty() && !args.has("gen"))
    throw FlagError("need an input trace (--trace f.json) or a generator "
                    "(--gen poisson|bursty)");

  serve::ArrivalTrace trace;
  if (!trace_path.empty()) {
    // A generator flag given with a replayed trace would serve a different
    // campaign than the one asked for.
    for (const std::string k :
         {"gen", "jobs-count", "rate", "burst-mean", "pulses", "range",
          "cores", "algo", "deadline", "priority-mix", "deadline-jitter"})
      if (args.has(k))
        throw FlagError("--" + k + " is a generator flag: not with --trace");
    trace = serve::load_trace(trace_path);
  } else {
    serve::TraceParams tp;
    tp.bursty = args.str("gen") == "bursty";
    tp.n_jobs = args.num<std::size_t>("jobs-count", 16);
    tp.rate_hz = args.real("rate", 400.0);
    tp.burst_mean = args.real("burst-mean", 4.0);
    if (tp.bursty && tp.burst_mean < 1.0)
      throw FlagError("--burst-mean must be >= 1 with --gen bursty");
    tp.seed = args.num<std::uint64_t>("seed", 1);
    tp.n_pulses = args.num<std::size_t>("pulses", 64);
    tp.n_range = args.num<std::size_t>("range", 101);
    tp.n_cores = args.num("cores", 16);
    tp.algo = serve::algo_from_string(args.str("algo", "ffbp"));
    check_pulse_shape(tp.algo == serve::Algo::kFfbp,
                      tp.algo == serve::Algo::kGbp, tp.n_pulses, tp.n_range);
    tp.deadline_s = args.real("deadline", 0.01);
    if (args.has("priority-mix")) {
      // "L,N,H" weights (normalized); e.g. --priority-mix 0.3,0.5,0.2
      std::vector<double> w;
      std::istringstream ss(args.str("priority-mix"));
      std::string part;
      // A malformed weight reads as -1 and fails the check below.
      while (std::getline(ss, part, ','))
        w.push_back(parse_whole<double>(part).value_or(-1.0));
      // A NaN or infinite weight makes the total non-finite.
      const double total = w.size() == 3 ? w[0] + w[1] + w[2] : 0.0;
      if (w.size() != 3 || w[0] < 0.0 || w[1] < 0.0 || w[2] < 0.0 ||
          !(total > 0.0 && std::isfinite(total)))
        throw FlagError("--priority-mix wants three non-negative "
                        "comma-separated weights low,normal,high (e.g. "
                        "0.3,0.5,0.2)");
      tp.frac_low = w[0] / total;
      tp.frac_high = w[2] / total;
    }
    tp.deadline_jitter = args.real("deadline-jitter", 0.0);
    trace = serve::make_trace(tp);
  }

  serve::FleetConfig fc;
  fc.n_chips = args.num("chips", 4);
  fc.host_jobs = args.num("jobs", 1);
  fc.chaos.seed = args.num<std::uint64_t>("seed", 1);
  fc.chaos.chip_kill_rate = args.real("chip-kill", 0.0);
  fc.chaos.dma_corrupt_rate = args.real("dma-corrupt", 0.0);
  fc.chaos.dma_drop_rate = args.real("dma-drop", 0.0);
  fc.chaos.membits_rate = args.real("membits", 0.0);
  fc.chaos.noc_stall_rate = args.real("noc-stall", 0.0);
  fc.policy.max_attempts = args.num("retry-max", 3);
  fc.policy.max_degrade = args.num("degrade-max", 2);
  if (args.str("dispatch") == "fifo")
    fc.policy.dispatch = serve::DispatchOrder::kFifo;
  fc.policy.shed.enabled = args.has("shed");
  const std::string trace_out = args.str("trace-out");
  const std::string metrics_path = args.str("metrics");

  if (!trace_out.empty()) {
    serve::save_trace(trace_out, trace);
    std::cout << "arrival trace written to " << trace_out << " ("
              << trace.jobs.size() << " jobs)\n";
  }

  std::cerr << "serving " << trace.jobs.size() << " job(s) on "
            << fc.n_chips << " chip(s)"
            << (fc.chaos.enabled() ? " under chaos" : "") << "...\n";
  WallTimer timer;
  serve::Fleet fleet(fc);
  const serve::ServeReport rep = fleet.run(trace);
  const serve::ServeCounters& c = rep.counters;

  Table t("serve campaign (" + std::to_string(fc.n_chips) +
          " chips, seed " + std::to_string(fc.chaos.seed) + ")");
  t.header({"Metric", "Value"});
  t.row({"jobs met / late / degraded / shed",
         std::to_string(c.jobs_met) + " / " + std::to_string(c.jobs_late) +
             " / " + std::to_string(c.jobs_degraded) + " / " +
             std::to_string(c.jobs_shed)});
  t.row({"jobs lost", std::to_string(c.jobs_lost)});
  t.row({"SLO attainment", Table::num(rep.slo_attainment * 100.0, 1) + " %"});
  t.row({"latency p50 / p95 / p99",
         format_seconds(rep.latency_p50_s) + " / " +
             format_seconds(rep.latency_p95_s) + " / " +
             format_seconds(rep.latency_p99_s)});
  t.row({"throughput", format_rate(rep.throughput_jobs_per_s, "jobs")});
  t.row({"energy per image", Table::num(rep.energy_per_image_j * 1e3, 3) +
                                 " mJ"});
  t.row({"attempts / retries", std::to_string(c.attempts) + " / " +
                                   std::to_string(c.retries)});
  t.row({"migrations / degradations",
         std::to_string(c.migrations) + " / " +
             std::to_string(c.degradations)});
  t.row({"chip kills / timeouts / checksum fails",
         std::to_string(c.chip_kills) + " / " + std::to_string(c.timeouts) +
             " / " + std::to_string(c.checksum_failures)});
  t.row({"fleet makespan", format_seconds(rep.makespan_s)});
  std::size_t alive = 0;
  for (const serve::ChipStatus& cs : rep.chips)
    if (cs.failed_at_s < 0.0) ++alive;
  t.row({"chips alive", std::to_string(alive) + " / " +
                            std::to_string(rep.chips.size())});
  {
    std::ostringstream hash;
    hash << std::hex << rep.schedule_hash;
    t.note("schedule hash " + hash.str() +
           " (same trace + seed => same campaign); host wall time " +
           format_seconds(timer.elapsed_s()));
  }
  t.print(std::cout);

  if (!metrics_path.empty()) {
    telemetry::RunManifest man("esarp_serve");
    serve::fill_serve_manifest(man, fc, trace, rep);
    telemetry::MetricsRegistry reg;
    serve::fill_serve_metrics(reg, rep);
    man.set_metrics(&reg);
    man.write(std::filesystem::path(metrics_path));
    std::cout << "serve manifest written to " << metrics_path << "\n";
  }
  return kExitOk;
}

/// A command and the flags it declares.
struct Command {
  std::string_view name;
  int (*run)(const Args&);
  std::span<const Flag> flags;
};

const Command kCommands[] = {
    {"simulate", cmd_simulate, kSimulateFlags},
    {"image", cmd_image, kImageFlags},
    {"chip", cmd_chip, kChipFlags},
    {"chaos", cmd_chaos, kChaosFlags},
    {"power", cmd_power, kPowerFlags},
    {"analyze", cmd_analyze, kAnalyzeFlags},
    {"report", cmd_report, kReportFlags},
    {"lint", cmd_lint, kLintFlags},
    {"serve", cmd_serve, kServeFlags}};

/// Prints every command's flags from their declarations.
int usage() {
  std::cerr << "usage:\n";
  const std::size_t indent = 16;
  for (const Command& c : kCommands) {
    std::string line = "  esarp ";
    line.append(c.name).resize(indent, ' ');
    for (const Flag& f : c.flags) {
      std::string tok = f.required ? " --" : " [--";
      tok += f.name;
      if (f.kind != kSwitch) tok.append(" ").append(f.meta);
      if (!f.required) tok += ']';
      if (line.size() > indent && line.size() + tok.size() > 78) {
        std::cerr << line << "\n";
        line.assign(indent, ' ');
      }
      line += tok;
    }
    std::cerr << line << "\n";
  }
  return kExitUsage;
}

} // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const Command* c = std::ranges::find(kCommands, cmd, &Command::name);
  if (c == std::end(kCommands)) {
    std::cerr << "esarp: unknown command '" << cmd << "'\n";
    return usage();
  }
  // Catch order matters: the most specific (most actionable) types first.
  // FaultUnrecovered and SimDeadlock are runtime_errors; ContractViolation
  // (which WatchdogExpired derives from) is a logic_error.
  try {
    return c->run(Args(c->flags, argc, argv));
  } catch (const FlagError& e) {
    std::cerr << cmd << ": " << e.what() << "\n";
    return usage();
  } catch (const fault::FaultUnrecovered& e) {
    std::cerr << "fault unrecovered: " << e.what() << "\n";
    return kExitFaultUnrecovered;
  } catch (const ep::SimDeadlock& e) {
    std::cerr << "deadlock: " << e.what() << "\n";
    return kExitDeadlock;
  } catch (const ContractViolation& e) {
    std::cerr << "contract violation: " << e.what() << "\n";
    return kExitContract;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitError;
  }
}
