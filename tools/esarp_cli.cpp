// esarp — command-line driver for the SAR processing library.
//
//   esarp simulate --pulses 256 --range 251 --out raw.esrp [--noise 0.05]
//   esarp image    --in raw.esrp --algo ffbp|gbp|rda --out img.pgm
//                  [--interp nn|linear|cubic] [--autofocus] [--looks k]
//   esarp chip     --in raw.esrp --cores 16 [--jobs N] [--no-prefetch]
//                  [--autofocus] [--trace t.json] [--metrics m.json]
//   esarp chaos    --in raw.esrp --dma-corrupt 1e-3 [--seed S] [...]
//   esarp power    --in raw.esrp [--cores N] [--epoch C] [--csv p.csv]
//                  [--heatmap p.pgm] [--trace t.json] [--metrics m.json]
//   esarp analyze  --in raw.esrp
//   esarp report   --in m.manifest.json
//   esarp lint     [--mapping all|ffbp|...] [--pulses N] [--range M]
//                  [--cores N] [--pairs N] [--json m.json] [--validate]
//   esarp serve    --trace t.json | --gen poisson|bursty [--chips N]
//                  [--chip-kill R] [--dma-corrupt R] [--seed S]
//                  [--metrics m.json] [...]
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
// ladder, dispatch order and shedding are configured per campaign, and a
// flag serve does not use is a usage error. A fault rate given to chaos
// or serve is a probability: outside [0, 1] it is a usage error. A fleet
// that cannot finish every job (all chips dead, or a job out of retries
// at max degradation) exits 5 like any other unrecovered fault.
//
// Exit codes (stable, scripted against by CI):
//   0  success
//   1  generic error (I/O, bad dataset, ...)
//   2  usage error, including a numeric flag value that is malformed,
//      has trailing characters or is out of range
//   3  simulation deadlock (ep::SimDeadlock)
//   4  contract violation, including the max_cycles watchdog
//   5  fault campaign exhausted its recovery budget (FaultUnrecovered)
//   6  `esarp lint` found mapping violations
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/format.hpp"
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

/// The whole of `s` as a T (long or double); nullopt for anything else,
/// trailing characters and values out of T's range included.
template <typename T>
std::optional<T> parse_whole(const std::string& s) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

/// A numeric flag whose value parse_whole rejects. main() turns it into a
/// usage error (exit 2) naming the flag.
class FlagError : public std::invalid_argument {
public:
  using std::invalid_argument::invalid_argument;
};

/// Minimal --key value / --flag argument map.
class Args {
public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        std::cerr << "unexpected argument: " << key << "\n";
        ok_ = false;
        return;
      }
      key = key.substr(2);
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        kv_[key] = argv[++i];
      } else {
        kv_[key] = "";
      }
    }
  }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] bool has(const std::string& k) const {
    return find(k) != nullptr;
  }
  [[nodiscard]] std::string str(const std::string& k,
                                const std::string& dflt = "") const {
    const std::string* v = find(k);
    return v != nullptr ? *v : dflt;
  }
  [[nodiscard]] long num(const std::string& k, long dflt) const {
    return number(k, dflt);
  }
  [[nodiscard]] double real(const std::string& k, double dflt) const {
    return number(k, dflt);
  }
  /// First given key that no lookup above has asked for ("" if none): a
  /// command that has read all its flags rejects the leftovers.
  [[nodiscard]] std::string unused_key() const {
    for (const auto& [k, v] : kv_)
      if (looked_up_.count(k) == 0) return k;
    return "";
  }

private:
  template <typename T>
  T number(const std::string& k, T dflt) const {
    const std::string* v = find(k);
    if (v == nullptr) return dflt;
    const std::optional<T> x = parse_whole<T>(*v);
    if (!x)
      throw FlagError("--" + k + " wants a number in range, got '" + *v + "'");
    return *x;
  }

  const std::string* find(const std::string& k) const {
    looked_up_.insert(k);
    auto it = kv_.find(k);
    return it != kv_.end() ? &it->second : nullptr;
  }

  std::map<std::string, std::string> kv_;
  mutable std::set<std::string> looked_up_;
  bool ok_ = true;
};

int usage() {
  std::cerr <<
      "usage:\n"
      "  esarp simulate --out f.esrp [--pulses N] [--range M] [--paper]\n"
      "                 [--targets k] [--noise sigma] [--seed s]\n"
      "  esarp image    --in f.esrp --out img.pgm [--algo ffbp|gbp|rda]\n"
      "                 [--interp nn|linear|cubic] [--autofocus]"
      " [--looks k]\n"
      "  esarp chip     --in f.esrp [--cores N[,N...]] [--jobs N]\n"
      "                 [--no-prefetch] [--autofocus] [--out img.pgm]\n"
      "                 [--trace t.json] [--metrics m.json] [--check]\n"
      "  esarp chaos    --in f.esrp [--cores N] [--seed S]\n"
      "                 [--dma-corrupt R] [--dma-drop R] [--noc-stall R]\n"
      "                 [--membits R] [--fail core@cycle[,core@cycle...]]\n"
      "                 [--no-resilience] [--autofocus] [--pairs N]\n"
      "                 [--metrics m.json] [--max-cycles N] [--check]\n"
      "  esarp power    --in f.esrp [--cores N] [--epoch CYCLES]\n"
      "                 [--no-prefetch] [--autofocus] [--csv p.csv]\n"
      "                 [--heatmap p.pgm] [--trace t.json]"
      " [--metrics m.json]\n"
      "  esarp analyze  --in f.esrp\n"
      "  esarp report   --in m.manifest.json\n"
      "  esarp lint     [--mapping all|ffbp|ffbp-db|ffbp-seq|ffbp-af|gbp|\n"
      "                            af-mpmd|af-mpmd-scattered|af-seq]\n"
      "                 [--pulses N] [--range M] [--cores N] [--pairs N]\n"
      "                 [--no-prefetch] [--json m.json] [--validate]\n"
      "  esarp serve    --trace t.json | --gen poisson|bursty\n"
      "                 [--jobs-count N] [--rate HZ] [--burst-mean K]\n"
      "                 [--pulses N] [--range M] [--cores N]\n"
      "                 [--algo ffbp|gbp] [--deadline S]\n"
      "                 [--priority-mix L,N,H] [--deadline-jitter J]\n"
      "                 [--trace-out f]\n"
      "                 [--chips N] [--seed S] [--chip-kill R]\n"
      "                 [--dma-corrupt R] [--dma-drop R] [--noc-stall R]\n"
      "                 [--membits R] [--retry-max N] [--degrade-max N]\n"
      "                 [--jobs N] [--dispatch edf|fifo] [--shed]\n"
      "                 [--metrics m.json]\n";
  return kExitUsage;
}

/// Usage error naming the command and the bad flag. Every command checks
/// the flag values its runner would reject here, with exit 2: a bad value
/// must never reach an ESARP_EXPECTS contract abort (exit 4), a std::sto*
/// parse error (exit 1), or a lint verdict about a mapping that cannot
/// exist.
int usage_error(const std::string& cmd, const std::string& msg) {
  std::cerr << cmd << ": " << msg << "\n";
  return usage();
}

/// Reads each fault-rate flag into its target (default 0). A rate is a
/// probability, so the first flag whose value lies outside [0, 1] (NaN
/// included) is returned for the caller's usage error; "" when all fit.
std::string read_rates(
    const Args& args,
    std::initializer_list<std::pair<const char*, double*>> rates) {
  for (const auto& [flag, rate] : rates) {
    *rate = args.real(flag, 0.0);
    if (!(*rate >= 0.0 && *rate <= 1.0)) return flag;
  }
  return "";
}

/// Cores of the default chip: every --cores value lies in [1, chip_cores()].
[[nodiscard]] int chip_cores() { return ep::ChipConfig{}.core_count(); }

[[nodiscard]] bool valid_core_count(long n) {
  return n >= 1 && n <= chip_cores();
}

/// `--interp nn|linear|cubic`; nullopt for any other value.
std::optional<sar::FfbpOptions> interp_options(const Args& args) {
  sar::FfbpOptions opt;
  const std::string interp = args.str("interp", "nn");
  if (interp == "linear") opt.interp = sar::Interp::kLinear;
  else if (interp == "cubic") opt.interp = sar::Interp::kCubic;
  else if (interp != "nn") return std::nullopt;
  return opt;
}

int cmd_simulate(const Args& args) {
  sar::Dataset ds;
  if (args.has("paper")) {
    ds.params = sar::paper_params();
  } else {
    const long pulses = args.num("pulses", 256);
    const long range = args.num("range", 251);
    if (pulses < 2 || range < 2)
      return usage_error("simulate", "--pulses/--range must be >= 2");
    ds.params = sar::test_params(static_cast<std::size_t>(pulses),
                                 static_cast<std::size_t>(range));
  }
  Rng rng(static_cast<std::uint64_t>(args.num("seed", 1)));
  const double noise = args.real("noise", 0.0);
  const std::string out = args.str("out");
  if (out.empty()) return usage();

  sar::Scene scene;
  const long n_targets = args.num("targets", 6);
  if (n_targets == 6) {
    scene = sar::six_target_scene(ds.params);
  } else {
    const double x_span = static_cast<double>(ds.params.n_pulses - 1) *
                          ds.params.pulse_spacing_m;
    for (long i = 0; i < n_targets; ++i)
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

int cmd_image(const Args& args) {
  const std::string in = args.str("in");
  const std::string out = args.str("out");
  if (in.empty() || out.empty()) return usage();
  const std::optional<sar::FfbpOptions> interp = interp_options(args);
  if (!interp)
    return usage_error("image", "unknown --interp: " + args.str("interp") +
                                    " (want nn|linear|cubic)");
  const sar::Dataset ds = sar::load_dataset(in);
  const std::string algo = args.str("algo", "ffbp");
  WallTimer timer;

  Array2D<cf32> image;
  if (algo == "gbp") {
    image = sar::gbp(ds.data, ds.params).image.data;
  } else if (algo == "rda") {
    image = sar::range_doppler(ds.data, ds.params).image;
  } else if (algo == "ffbp") {
    const long looks = args.num("looks", 1);
    if (looks > 1) {
      const auto ml = sar::multilook_ffbp(
          ds.data, ds.params, static_cast<std::size_t>(looks), *interp);
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
      aopt.ffbp = *interp;
      const auto res = af::ffbp_with_autofocus(ds.data, ds.params, aopt);
      image = res.image.data;
      std::size_t applied = 0;
      for (const auto& c : res.corrections)
        if (std::abs(c.shift_bins) > 0.01f) ++applied;
      std::cerr << "autofocus: " << applied << "/"
                << res.corrections.size() << " corrections applied\n";
    } else {
      image = sar::ffbp(ds.data, ds.params, *interp).image.data;
    }
  } else {
    std::cerr << "unknown --algo: " << algo << "\n";
    return 2;
  }

  write_pgm(out, image, {.dynamic_range_db = 45.0});
  std::cout << algo << " image (" << image.rows() << "x" << image.cols()
            << ") written to " << out << " in "
            << format_seconds(timer.elapsed_s()) << "\n";
  return 0;
}

/// Parse a `--cores` value: either one count ("16") or a comma-separated
/// sweep ("4,8,16"), each a core count the chip has; nullopt otherwise.
std::optional<std::vector<int>> parse_cores(const std::string& spec) {
  std::vector<int> cores;
  std::istringstream ss(spec);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (tok.empty()) continue;
    const std::optional<long> n = parse_whole<long>(tok);
    if (!n || !valid_core_count(*n)) return std::nullopt;
    cores.push_back(static_cast<int>(*n));
  }
  if (cores.empty()) return std::nullopt;
  return cores;
}

int cmd_chip(const Args& args) {
  const std::string in = args.str("in");
  if (in.empty()) return usage();
  // --cores may name a sweep; --jobs N fans the independent simulations
  // over N host threads (default 1). Results are deterministic and
  // identical for any --jobs value (docs/performance.md).
  const std::optional<std::vector<int>> cores =
      parse_cores(args.str("cores", "16"));
  if (!cores)
    return usage_error("chip", "--cores wants counts in [1, " +
                                   std::to_string(chip_cores()) +
                                   "], comma-separated");
  const std::vector<int>& core_counts = *cores;
  const int jobs = static_cast<int>(args.num("jobs", 1));
  const sar::Dataset ds = sar::load_dataset(in);

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
  if (args.has("trace") && trace_path.empty()) return usage();
  ep::Tracer tracer;
  if (!trace_path.empty()) {
    tracer.enable();
    opt.tracer = &tracer;
  }

  host::SweepRunner pool(jobs);
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
  if (args.has("metrics") && metrics_path.empty()) return usage();
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

/// Power observability report (docs/observability.md): runs the FFBP
/// mapping with the power sampler attached and prints the aggregate energy
/// breakdown, the span-attribution profile and the per-epoch peak power.
/// Energy conservation (trace and attribution vs the aggregate model, 1e-9
/// relative) is asserted inside collect_power — a violation exits 4.
int cmd_power(const Args& args) {
  const std::string in = args.str("in");
  if (in.empty()) return usage();
  core::FfbpMapOptions opt;
  const long n_cores = args.num("cores", 16);
  if (!valid_core_count(n_cores))
    return usage_error("power", "--cores must be in [1, " +
                                    std::to_string(chip_cores()) + "]");
  opt.n_cores = static_cast<int>(n_cores);
  const sar::Dataset ds = sar::load_dataset(in);
  opt.prefetch = !args.has("no-prefetch");
  af::IntegratedOptions aopt;
  if (args.has("autofocus")) opt.autofocus = &aopt;

  ep::ChipConfig chip_cfg;
  chip_cfg.power.enabled = true;
  if (args.has("epoch")) {
    const long epoch = args.num("epoch", 0);
    if (epoch <= 0)
      return usage_error("power", "--epoch must be a positive cycle count");
    chip_cfg.power.epoch_cycles = static_cast<ep::Cycles>(epoch);
  }

  const std::string trace_path = args.str("trace");
  if (args.has("trace") && trace_path.empty()) return usage();
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
  if (args.has("csv") && csv_path.empty()) return usage();
  if (!csv_path.empty()) {
    ep::write_power_csv(csv_path, trace);
    std::cout << "power trace CSV written to " << csv_path << "\n";
  }

  const std::string heatmap_path = args.str("heatmap");
  if (args.has("heatmap") && heatmap_path.empty()) return usage();
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
  if (args.has("metrics") && metrics_path.empty()) return usage();
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

/// Human-readable view of a run manifest written by --metrics or a bench.
int cmd_report(const Args& args) {
  const std::string in = args.str("in");
  if (in.empty()) return usage();
  const JsonValue doc = load_json_file(in);
  const JsonValue* schema = doc.find("schema");
  // Run and serve manifests share the chip/workload/results layout, so
  // the report renders any esarp manifest family.
  if (schema == nullptr || !schema->is_string() ||
      !telemetry::glob_match("esarp-*-manifest/*", schema->as_string()))
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
    const std::optional<long> core = parse_whole<long>(tok.substr(0, at));
    const std::optional<long> cycle = parse_whole<long>(tok.substr(at + 1));
    if (!core || !cycle || *core < 0 || *cycle < 0) return std::nullopt;
    stops.push_back(
        {static_cast<int>(*core), static_cast<std::uint64_t>(*cycle)});
  }
  return stops;
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

/// Seeded fault-injection campaign (docs/fault-injection.md): run the
/// workload clean, run it again under the fault plan, and report the
/// recovery counters plus the numeric damage. Identical seeds produce
/// bit-identical fault schedules, so a chaos invocation is a reproducible
/// artifact — `fault.schedule_hash` in the metrics manifest witnesses it.
int cmd_chaos(const Args& args) {
  const std::string in = args.str("in");
  if (in.empty()) return usage();
  ep::ChipConfig cfg;
  cfg.check.enabled = args.has("check");
  fault::FaultPlan& plan = cfg.faults;
  plan.seed = static_cast<std::uint64_t>(args.num("seed", 1));
  if (const std::string bad =
          read_rates(args, {{"dma-corrupt", &plan.dma_corrupt_rate},
                            {"dma-drop", &plan.dma_drop_rate},
                            {"noc-stall", &plan.noc_stall_rate},
                            {"membits", &plan.membits_rate}});
      !bad.empty())
    return usage_error("chaos", "--" + bad + " must be in [0, 1]");
  plan.resilient = !args.has("no-resilience");
  const std::optional<std::vector<fault::FailStop>> fail_stops =
      parse_fail_stops(args.str("fail"));
  if (!fail_stops)
    return usage_error("chaos", "bad --fail '" + args.str("fail") +
                                    "' (want core@cycle[,core@cycle...])");
  plan.fail_stops = *fail_stops;
  if (!plan.enabled())
    return usage_error("chaos", "no faults requested (set --dma-corrupt, "
                                "--dma-drop, --noc-stall, --membits, or "
                                "--fail)");
  const auto max_cycles = static_cast<ep::Cycles>(args.num("max-cycles", 0));
  const bool autofocus = args.has("autofocus");
  const long n_pairs = args.num("pairs", 8);
  const long n_cores = args.num("cores", 16);
  if (autofocus && n_pairs < 1)
    return usage_error("chaos", "--pairs must be >= 1");
  if (!autofocus && !valid_core_count(n_cores))
    return usage_error("chaos", "--cores must be in [1, " +
                                    std::to_string(chip_cores()) + "]");
  const sar::Dataset ds = sar::load_dataset(in);

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
    for (long i = 0; i < n_pairs; ++i)
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
    opt.n_cores = static_cast<int>(n_cores);
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
  if (args.has("metrics") && metrics_path.empty()) return usage();
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

int cmd_analyze(const Args& args) {
  const std::string in = args.str("in");
  if (in.empty()) return usage();
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

/// Static mapping analysis (docs/static-analysis.md): build the declarative
/// descriptor of each requested mapping, run the legality checkers and the
/// analytic cost model, and report findings + predictions. No simulation
/// unless --validate, which also runs each mapping on the simulated chip
/// and records the prediction error in the manifest.
int cmd_lint(const Args& args) {
  const std::string which = args.str("mapping", "all");
  const long pulses_flag = args.num("pulses", 32);
  const long range_flag = args.num("range", 101);
  const long cores_flag = args.num("cores", 16);
  const long pairs_flag = args.num("pairs", 4);
  // A core count past the chip stays legal here: the core-id checker
  // reports the cores that do not exist.
  const bool ffbp = which == "all" || which.rfind("ffbp", 0) == 0;
  if (pulses_flag < 2 || (ffbp && (pulses_flag & (pulses_flag - 1)) != 0))
    return usage_error("lint", ffbp ? "--pulses must be a power of two >= 2"
                                    : "--pulses must be >= 2");
  if (range_flag < 2) return usage_error("lint", "--range must be >= 2");
  if (cores_flag < 1) return usage_error("lint", "--cores must be >= 1");
  if (pairs_flag < 1) return usage_error("lint", "--pairs must be >= 1");
  const auto pulses = static_cast<std::size_t>(pulses_flag);
  const auto range = static_cast<std::size_t>(range_flag);
  const int cores = static_cast<int>(cores_flag);
  const auto n_pairs = static_cast<std::size_t>(pairs_flag);
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
    opt.double_buffer = which == "ffbp-db" || args.has("double-buffer");
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
  if (entries.empty()) {
    std::cerr << "unknown --mapping: " << which << "\n";
    return usage();
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
  if (args.has("json") && json_path.empty()) return usage();
  if (!json_path.empty()) {
    analysis::write_manifest(std::filesystem::path(json_path), reports);
    std::cout << "lint manifest written to " << json_path << "\n";
  }
  return analysis::total_findings(reports) == 0 ? kExitOk : kExitLintFindings;
}

/// SAR-as-a-service fleet runtime (docs/serving.md): replay an arrival
/// trace (pinned file or generated Poisson/bursty) through N simulated
/// chips with retry, migration and graceful degradation, optionally under
/// a fleet chaos campaign, and report latency percentiles / SLO
/// attainment / energy-per-image. Deterministic: same trace + seed =>
/// byte-identical --metrics manifest.
int cmd_serve(const Args& args) {
  const std::string trace_path = args.str("trace");
  const std::string gen = args.str("gen");
  if (args.has("trace") && trace_path.empty()) return usage();
  if (trace_path.empty() && gen.empty()) {
    return usage_error("serve", "need an input trace (--trace f.json) or a "
                                "generator (--gen poisson|bursty)");
  }

  serve::ArrivalTrace trace;
  serve::FleetConfig fc;
  try {
    if (trace_path.empty()) {
      serve::TraceParams tp;
      if (gen == "bursty") {
        tp.bursty = true;
      } else if (gen != "poisson") {
        return usage_error("serve", "unknown --gen: " + gen +
                                    " (want poisson|bursty)");
      }
      const long n_jobs = args.num("jobs-count", 16);
      if (n_jobs < 1)
        return usage_error("serve", "--jobs-count must be >= 1");
      tp.rate_hz = args.real("rate", 400.0);
      if (tp.rate_hz <= 0.0)
        return usage_error("serve", "--rate must be > 0");
      tp.burst_mean = args.real("burst-mean", 4.0);
      if (tp.bursty && tp.burst_mean < 1.0)
        return usage_error("serve", "--burst-mean must be >= 1");
      const long pulses = args.num("pulses", 64);
      const long range = args.num("range", 101);
      const long cores = args.num("cores", 16);
      if (pulses < 1 || range < 1 || cores < 1)
        return usage_error("serve", "--pulses/--range/--cores must be >= 1");
      tp.n_jobs = static_cast<std::size_t>(n_jobs);
      tp.seed = static_cast<std::uint64_t>(args.num("seed", 1));
      tp.n_pulses = static_cast<std::size_t>(pulses);
      tp.n_range = static_cast<std::size_t>(range);
      tp.n_cores = static_cast<int>(cores);
      tp.algo = serve::algo_from_string(args.str("algo", "ffbp"));
      tp.deadline_s = args.real("deadline", 0.01);
      if (tp.deadline_s <= 0.0)
        return usage_error("serve", "--deadline must be > 0");
      if (args.has("priority-mix")) {
        // "L,N,H" weights (normalized); e.g. --priority-mix 0.3,0.5,0.2
        const std::string mix = args.str("priority-mix");
        double w[3] = {0.0, 0.0, 0.0};
        std::istringstream ss(mix);
        std::string part;
        int n = 0;
        // A malformed weight reads as -1 and fails the check below.
        while (std::getline(ss, part, ',') && n < 3)
          w[n++] = parse_whole<double>(part).value_or(-1.0);
        const double total = w[0] + w[1] + w[2];
        if (n != 3 || w[0] < 0.0 || w[1] < 0.0 || w[2] < 0.0 || total <= 0.0)
          return usage_error(
              "serve",
              "--priority-mix wants three non-negative comma-separated "
              "weights low,normal,high (e.g. 0.3,0.5,0.2)");
        tp.frac_low = w[0] / total;
        tp.frac_high = w[2] / total;
      }
      tp.deadline_jitter = args.real("deadline-jitter", 0.0);
      if (tp.deadline_jitter < 0.0 || tp.deadline_jitter >= 1.0)
        return usage_error("serve", "--deadline-jitter must be in [0, 1)");
      trace = serve::make_trace(tp);
    }

    fc.n_chips = static_cast<int>(args.num("chips", 4));
    if (fc.n_chips < 1)
      return usage_error("serve", "--chips must be >= 1");
    fc.host_jobs = static_cast<int>(args.num("jobs", 1));
    fc.chaos.seed = static_cast<std::uint64_t>(args.num("seed", 1));
    if (const std::string bad =
            read_rates(args, {{"chip-kill", &fc.chaos.chip_kill_rate},
                              {"dma-corrupt", &fc.chaos.dma_corrupt_rate},
                              {"dma-drop", &fc.chaos.dma_drop_rate},
                              {"membits", &fc.chaos.membits_rate},
                              {"noc-stall", &fc.chaos.noc_stall_rate}});
        !bad.empty())
      return usage_error("serve", "--" + bad + " must be in [0, 1]");
    fc.policy.max_attempts = static_cast<int>(args.num("retry-max", 3));
    if (fc.policy.max_attempts < 1)
      return usage_error("serve", "--retry-max must be >= 1");
    fc.policy.max_degrade = static_cast<int>(args.num("degrade-max", 2));
    if (fc.policy.max_degrade < 0)
      return usage_error("serve", "--degrade-max must be >= 0");

    const std::string dispatch = args.str("dispatch", "edf");
    if (dispatch == "fifo") {
      fc.policy.dispatch = serve::DispatchOrder::kFifo;
    } else if (dispatch != "edf") {
      return usage_error("serve", "unknown --dispatch: " + dispatch +
                                  " (want edf|fifo)");
    }
    fc.policy.shed.enabled = args.has("shed");
  } catch (const std::invalid_argument& e) {
    return usage_error("serve", std::string("bad flag value: ") + e.what());
  } catch (const std::out_of_range& e) {
    return usage_error("serve", std::string("flag value out of range: ") +
                                e.what());
  }
  const std::string trace_out = args.str("trace-out");
  if (args.has("trace-out") && trace_out.empty()) return usage();
  const std::string metrics_path = args.str("metrics");
  if (args.has("metrics") && metrics_path.empty()) return usage();
  // Every flag serve reads has been looked up by now. A leftover is a
  // typo, a removed knob or a generator flag given with --trace; running
  // without it would serve a different campaign than the one asked for.
  if (const std::string k = args.unused_key(); !k.empty())
    return usage_error("serve", "unknown or unused flag --" + k);
  if (!trace_path.empty()) trace = serve::load_trace(trace_path);

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

} // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const Args args(argc, argv);
  if (!args.ok()) return usage();
  // Catch order matters: the most specific (most actionable) types first.
  // FaultUnrecovered and SimDeadlock are runtime_errors; ContractViolation
  // (which WatchdogExpired derives from) is a logic_error.
  try {
    if (cmd == "simulate") return cmd_simulate(args);
    if (cmd == "image") return cmd_image(args);
    if (cmd == "chip") return cmd_chip(args);
    if (cmd == "power") return cmd_power(args);
    if (cmd == "chaos") return cmd_chaos(args);
    if (cmd == "analyze") return cmd_analyze(args);
    if (cmd == "report") return cmd_report(args);
    if (cmd == "lint") return cmd_lint(args);
    if (cmd == "serve") return cmd_serve(args);
  } catch (const FlagError& e) {
    return usage_error(cmd, e.what());
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
  return usage();
}
