// esarp_benchmark: the repository's benchmark (benchmark/README.md). One
// workload per run, a closed loop of calls into one public entry point,
// timed from outside the library on the host clock and scaled to a
// reference host, with the simulated clock read from the result structs
// the calls return.
//
//   esarp_benchmark --workload W --seed S [--seconds T | --calls N]
//                   [--out r.json] [--trace t.json]
//   esarp_benchmark compare A/ B/ [--spec BENCHMARK.json]
//
// The last line of standard output is one JSON object: the end-to-end
// metrics of an untraced run, or the per-layer metrics of a traced one.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "compare.hpp"
#include "sar/kernels.hpp"
#include "serve/fleet.hpp"
#include "workloads.hpp"

namespace esarp::benchmark {
namespace {

using clock = std::chrono::steady_clock;

/// Timed set-ups per run; setup_s reports their median. The first set-up
/// of a process runs slower than the rest (fresh heap pages, cold
/// caches), and the median of five stays clear of it.
constexpr int kSetupReps = 5;
/// Calls every run makes at least, so that ten lie beyond call_ms_p90.
/// The simulated metrics cover exactly these leading calls (the window),
/// so they depend on the seed only, never on how fast the host was.
constexpr std::size_t kMinCalls = 100;
/// Times of the two Calibrator passes on the reference host: the 4-vCPU
/// VM the reference numbers come from, when quiet (the 5th percentile of
/// 9,300 passes). They fix the unit of the host metrics, seconds on the
/// reference host, as a reference machine's times fix that of a SPEC
/// ratio.
constexpr double kQuietMixedSeconds = 1.3e-3;
constexpr double kQuietChainSeconds = 0.78e-3;

double seconds_since(clock::time_point t0) {
  return std::chrono::duration<double>(clock::now() - t0).count();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double sum(const std::vector<double>& xs) {
  return std::accumulate(xs.begin(), xs.end(), 0.0);
}

/// Nearest-rank percentile; 0 for an empty sample (a layer that does not
/// occur in the workload).
double pct(const std::vector<double>& xs, double q) {
  return xs.empty() ? 0.0 : serve::percentile(xs, q);
}

/// Two fixed passes timed before every set-up and call, so that host
/// times can be scaled to the reference host:
///
/// - the mixed pass: eight independent multiply-add chains over streaming
///   and scattered reads of a 1 MiB buffer (~1.3 ms quiet);
/// - the chain pass: one chain of dependent multiply-adds (~0.8 ms quiet).
///
/// The host's speed drifts on a shared VM: unscaled, ten 20 s runs of one
/// workload spread by up to 0.6 (quartile distance over median). Under
/// the same contention the mixed pass slowed by up to 2x and the chain
/// pass by only 1.3x, and the workloads slowed in between: see
/// Workload::contention_exponent.
class Calibrator {
public:
  Calibrator() : buf_(std::size_t{1} << 18) {
    for (std::size_t i = 0; i < buf_.size(); ++i)
      buf_[i] = static_cast<float>(i % 97) * 0.01f;
  }

  /// How much slower than the quiet reference host this host runs now,
  /// for a workload with contention exponent e:
  /// (mixed ÷ quiet mixed)^e × (chain ÷ quiet chain)^(1 - e).
  double slowdown(double e) {
    const double mixed = mixed_pass() / kQuietMixedSeconds;
    const double chain = chain_pass() / kQuietChainSeconds;
    return std::pow(mixed, e) * std::pow(chain, 1.0 - e);
  }

private:
  double mixed_pass() {
    const std::size_t mask = buf_.size() - 1;
    float acc[8] = {};
    const auto t0 = clock::now();
    for (int rep = 0; rep < 8; ++rep)
      for (std::size_t i = 0; i < buf_.size(); i += 8)
        for (std::size_t j = 0; j < 8; ++j)
          acc[j] =
              acc[j] * 0.5f + buf_[i + j] * buf_[(i * 7 + j * 4099) & mask];
    const double s = seconds_since(t0);
    sink_ = std::accumulate(std::begin(acc), std::end(acc), 0.0f);
    return s;
  }

  double chain_pass() {
    double x = sink_;
    const auto t0 = clock::now();
    for (int k = 0; k < 300000; ++k) x = x * 0.999999 + 1e-6;
    const double s = seconds_since(t0);
    sink_ = static_cast<float>(x);
    return s;
  }

  std::vector<float> buf_;
  volatile float sink_ = 0.0f; // keeps the passes from being optimized out
};

/// Host times scaled to the reference host: each time divided by the
/// slowdown measured just before it.
std::vector<double> scaled(const std::vector<double>& raw_s,
                           const std::vector<double>& slowdown) {
  std::vector<double> out;
  for (std::size_t k = 0; k < raw_s.size(); ++k)
    out.push_back(raw_s[k] / slowdown[k]);
  return out;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::size_t calls = 0; ///< nonzero: exactly this many calls
  std::string out;
  std::string trace;
};

enum class Clock { kHost, kSim };

struct Metric {
  std::string name;
  double value;
  const char* unit;
  Clock clock;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/// Everything one run measured.
struct Measurement {
  std::vector<double> setup_s, setup_slowdown;
  std::vector<double> call_s, call_slowdown; ///< every call, in order
  std::size_t window = 0;     ///< leading calls the tally covers
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::uint64_t input_digest = 0xcbf29ce484222325ULL;
  double loop_s = 0.0;
  std::size_t loop_spans = 0; ///< spans recorded during the loop
  double peak_rss_mb = 0.0;   ///< read right after the set-ups
  SimTally tally;

  [[nodiscard]] std::vector<double> scaled_setup_s() const {
    return scaled(setup_s, setup_slowdown);
  }
  [[nodiscard]] std::vector<double> scaled_call_s() const {
    return scaled(call_s, call_slowdown);
  }
  /// The run's median slowdown, which its span times are divided by.
  [[nodiscard]] double host_slowdown() const {
    return pct(call_slowdown, 0.50);
  }
  /// Host seconds of the calls inside the window, scaled.
  [[nodiscard]] double window_call_s() const {
    const std::vector<double> calls = scaled_call_s();
    return std::accumulate(
        calls.begin(), calls.begin() + static_cast<std::ptrdiff_t>(window),
        0.0);
  }
};

Measurement measure(Workload& w, const Options& o, Spans& spans) {
  Measurement m;
  Calibrator calibrate;
  const double e = w.contention_exponent();
  // A set-up builds the shared state and makes the warm-up calls, so lazy
  // initialization never lands in a timed call.
  const auto set_up = [&] {
    w.setup(spans);
    for (std::size_t k = 0; k < w.warmup_calls(); ++k) {
      auto c = spans.scope("warmup", std::to_string(k));
      w.make_input(k, spans);
      w.call();
    }
  };
  for (int r = 0; r < kSetupReps; ++r) {
    const std::string id = std::to_string(r);
    {
      auto s = spans.scope("calibrate", "setup" + id);
      m.setup_slowdown.push_back(calibrate.slowdown(e));
    }
    auto s = spans.scope("setup", id);
    const auto t0 = clock::now();
    set_up();
    m.setup_s.push_back(seconds_since(t0));
  }
  // The set-ups made a call of every input shape, so the footprint is
  // complete here. Later, the checks' reference images would count too,
  // and glibc's heap history would make the peak depend on how many calls
  // the host managed (14 or 21 MB on gbp_scenes at one seed).
  m.peak_rss_mb = peak_rss_mb();
  {
    auto s = spans.scope("prepare_checks", "once");
    w.prepare_checks(spans);
  }

  // The closed loop: run for the requested time, and at least kMinCalls.
  // Inputs, checks and the calibration passes sit outside the timed
  // window.
  m.window = kMinCalls;
  const std::size_t spans_before = spans.tracer().spans().size();
  const auto loop_t0 = clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool more = o.calls > 0
                          ? i < o.calls
                          : i < kMinCalls || seconds_since(loop_t0) < o.seconds;
    if (!more) break;
    const std::string id = std::to_string(i);
    auto item = spans.scope("item", id);
    {
      auto s = spans.scope("input", id);
      w.make_input(i, spans);
    }
    const bool in_window = i < m.window;
    if (in_window) {
      m.input_digest ^= w.input_digest();
      m.input_digest *= 0x100000001b3ULL;
    }
    {
      auto s = spans.scope("calibrate", id);
      m.call_slowdown.push_back(calibrate.slowdown(e));
    }
    {
      auto s = spans.scope(w.layer(), id);
      const auto t0 = clock::now();
      w.call();
      m.call_s.push_back(seconds_since(t0));
    }
    {
      auto s = spans.scope("check", id);
      m.failed += w.check(i, in_window ? &m.tally : nullptr, spans);
    }
    m.attempted += w.items_per_call();
  }
  m.loop_s = seconds_since(loop_t0);
  m.loop_spans = spans.tracer().spans().size() - spans_before;
  m.window = std::min(m.window, m.call_s.size());
  return m;
}

/// The end-to-end host times, from scaled or from unscaled seconds.
std::vector<Metric> host_time_metrics(const std::vector<double>& setup_s,
                                      const std::vector<double>& call_s,
                                      std::size_t attempted) {
  const auto host = Clock::kHost;
  return {
      {"setup_s", pct(setup_s, 0.50), "s", host},
      {"items_per_s", ratio(static_cast<double>(attempted), sum(call_s)),
       "items/s", host},
      {"call_ms_p50", pct(call_s, 0.50) * 1e3, "ms", host},
      {"call_ms_p90", pct(call_s, 0.90) * 1e3, "ms", host},
  };
}

std::vector<Metric> end_to_end_metrics(const Measurement& m) {
  std::vector<Metric> out =
      host_time_metrics(m.scaled_setup_s(), m.scaled_call_s(), m.attempted);
  const SimTally& t = m.tally;
  const auto sim = Clock::kSim;
  out.insert(out.end(), {
      {"peak_rss_mb", m.peak_rss_mb, "MB", Clock::kHost},
      {"sim_mcycles_p50", pct(t.latency_mcycles, 0.50), "Mcycles", sim},
      {"sim_mcycles_p99", pct(t.latency_mcycles, 0.99), "Mcycles", sim},
      {"energy_mj_per_item",
       ratio(t.energy_j * 1e3, static_cast<double>(t.delivered)), "mJ", sim},
      {"slo_attainment",
       ratio(static_cast<double>(t.slo_met), static_cast<double>(t.items)),
       "fraction", sim},
  });
  return out;
}

/// Host time of every span name ("<layer>/<id>" grouped by layer), in
/// unscaled milliseconds. A span's self time is its duration minus that of
/// its direct children.
struct LayerTime {
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

using Layers = std::map<std::string, LayerTime>;

Layers layer_times(const ep::Tracer& tracer) {
  std::vector<ep::TraceSpan> spans = tracer.spans();
  std::stable_sort(spans.begin(), spans.end(),
                   [](const ep::TraceSpan& a, const ep::TraceSpan& b) {
                     return a.start != b.start ? a.start < b.start
                                               : a.depth < b.depth;
                   });
  const auto dur_ms = [](const ep::TraceSpan& s) {
    return static_cast<double>(s.end - s.start) * 1e-6;
  };
  // In start order, the parent of a span at depth d is the latest span
  // seen at depth d - 1.
  std::vector<double> self(spans.size());
  std::vector<std::size_t> latest;
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const auto d = static_cast<std::size_t>(spans[k].depth);
    self[k] += dur_ms(spans[k]);
    if (latest.size() <= d) latest.resize(d + 1);
    latest[d] = k;
    if (d > 0) self[latest[d - 1]] -= dur_ms(spans[k]);
  }
  Layers layers;
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const std::string& name = spans[k].name;
    LayerTime& lt = layers[name.substr(0, name.rfind('/'))];
    lt.count += 1;
    lt.total_ms += dur_ms(spans[k]);
    lt.self_ms += self[k];
  }
  return layers;
}

/// Host cost of recording one span, measured on a scratch recorder.
double span_cost_ns() {
  Spans scratch(true, 0);
  constexpr int kSpans = 20000;
  const auto t0 = clock::now();
  for (int k = 0; k < kSpans; ++k) {
    auto s = scratch.scope("item", std::to_string(k));
  }
  return seconds_since(t0) * 1e9 / kSpans;
}

/// Host-time layers: only a traced run reports them. Times are divided by
/// the run's median slowdown (host.slowdown).
std::vector<Metric> host_layer_metrics(const Measurement& m,
                                       const Layers& layers, Workload& w,
                                       std::uint64_t seed) {
  const auto host = Clock::kHost;
  const double scale = 1.0 / m.host_slowdown();
  // Mean span of a layer; the timed calls' layers only occur in the loop.
  const auto mean_ms = [&](const char* layer) {
    const auto it = layers.find(layer);
    return it == layers.end()
               ? 0.0
               : scale * it->second.total_ms /
                     static_cast<double>(it->second.count);
  };
  const SimTally& t = m.tally;
  std::vector<Metric> out = {
      {"host.slowdown", m.host_slowdown(), "ratio", host},
      {"host.input_ms", mean_ms("input"), "ms", host},
      {"host.check_ms", mean_ms("check"), "ms", host},
      {"sar.simulate_compressed_ms", mean_ms("sar.simulate_compressed"), "ms",
       host},
      {"core.run_ffbp_epiphany_ms", mean_ms("core.run_ffbp_epiphany"), "ms",
       host},
      {"core.run_gbp_epiphany_ms", mean_ms("core.run_gbp_epiphany"), "ms",
       host},
      {"core.run_autofocus_mpmd_ms", mean_ms("core.run_autofocus_mpmd"), "ms",
       host},
      {"serve.fleet_run_ms", mean_ms("serve.Fleet.run"), "ms", host},
      {"serve.host_ms_per_attempt", ratio(m.window_call_s() * 1e3, t.attempts),
       "ms", host},
      {"epiphany.host_ns_per_event", ratio(m.window_call_s() * 1e9, t.events),
       "ns", host},
  };
  for (const auto& k : time_kernels(w.kernel_shape(), seed))
    out.push_back({"sar.kernels." + k.name + "_ns_per_sample",
                   k.ns_per_sample * scale, "ns/sample", host});
  out.push_back({"trace.overhead_frac",
                 ratio(static_cast<double>(m.loop_spans) * span_cost_ns() *
                           1e-9,
                       m.loop_s),
                 "fraction", host});
  return out;
}

/// Simulated layers, read from the result structs: every run has them.
/// Chip metrics are means per chip run, serve metrics per job; a layer
/// the workload does not use reads 0.
std::vector<Metric> sim_layer_metrics(const SimTally& t) {
  const auto sim = Clock::kSim;
  const auto runs = static_cast<double>(t.chip_runs);
  const auto jobs = static_cast<double>(t.jobs);
  return {
      {"epiphany.events_per_item", ratio(t.events, runs), "count", sim},
      {"epiphany.quanta_batched_per_item", ratio(t.quanta, runs), "count",
       sim},
      {"chip.compute_cycles", ratio(t.compute, runs), "cycles", sim},
      {"chip.ext_stall_cycles", ratio(t.ext_stall, runs), "cycles", sim},
      {"chip.dma_wait_cycles", ratio(t.dma_wait, runs), "cycles", sim},
      {"chip.chan_wait_cycles", ratio(t.chan_wait, runs), "cycles", sim},
      {"chip.barrier_wait_cycles", ratio(t.barrier_wait, runs), "cycles",
       sim},
      {"chip.utilization", ratio(t.utilization, runs), "fraction", sim},
      {"ext.read_bytes", ratio(t.ext_read_bytes, runs), "bytes", sim},
      {"ext.write_bytes", ratio(t.ext_write_bytes, runs), "bytes", sim},
      {"noc.byte_hops", ratio(t.byte_hops, runs), "byte-hops", sim},
      {"ffbp.prefetch_hit_rate", ratio(t.prefetch_hits, t.prefetch_lookups),
       "fraction", sim},
      {"energy.core_active_mj", ratio(t.e_core_active * 1e3, runs), "mJ",
       sim},
      {"energy.core_idle_mj", ratio(t.e_core_idle * 1e3, runs), "mJ", sim},
      {"energy.alu_mj", ratio(t.e_alu * 1e3, runs), "mJ", sim},
      {"energy.noc_mj", ratio(t.e_noc * 1e3, runs), "mJ", sim},
      {"energy.elink_mj", ratio(t.e_elink * 1e3, runs), "mJ", sim},
      {"energy.static_mj", ratio(t.e_static * 1e3, runs), "mJ", sim},
      {"serve.queue_wait_mcycles_p50", pct(t.queue_wait_mcycles, 0.50),
       "Mcycles", sim},
      {"serve.queue_wait_mcycles_p99", pct(t.queue_wait_mcycles, 0.99),
       "Mcycles", sim},
      {"serve.service_mcycles_p50", pct(t.service_mcycles, 0.50), "Mcycles",
       sim},
      {"serve.retry_mcycles_mean",
       ratio(sum(t.retry_mcycles), static_cast<double>(t.retry_mcycles.size())),
       "Mcycles", sim},
      {"serve.attempt_success_frac",
       ratio(static_cast<double>(t.delivered), t.attempts), "fraction", sim},
      {"serve.attempts_per_job", ratio(t.attempts, jobs), "count", sim},
      {"serve.migrations_per_job", ratio(t.migrations, jobs), "count", sim},
      {"serve.shed_frac", ratio(t.shed, jobs), "fraction", sim},
      {"serve.chip_util", ratio(t.chip_busy_s, t.chip_capacity_s), "fraction",
       sim},
      {"fault.injected_per_job", ratio(t.faults_injected, jobs), "count",
       sim},
      {"fault.detected_per_job", ratio(t.faults_detected, jobs), "count",
       sim},
      {"analysis.model_rel_err", t.model_rel_err, "fraction", sim},
  };
}

void write_metrics(JsonWriter& j, const std::vector<Metric>& ms,
                   bool with_clock) {
  j.begin_object();
  for (const auto& m : ms) {
    j.key(m.name);
    j.begin_object();
    j.kv("value", m.value);
    j.kv("unit", m.unit);
    if (with_clock) j.kv("clock", m.clock == Clock::kHost ? "host" : "sim");
    j.end_object();
  }
  j.end_object();
}

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

void write_result(const std::string& path, const Options& o,
                  const Workload& w, const Measurement& m,
                  const std::vector<Metric>& metrics, const Layers* layers) {
  std::ofstream f(path);
  JsonWriter j(f);
  j.begin_object();
  j.kv("schema", "esarp-benchmark-result/1");
  j.kv("workload", o.workload);
  j.kv("seed", o.seed);
  j.kv("traced", layers != nullptr);
  j.kv("call_layer", w.layer());
  j.kv("calls", static_cast<std::uint64_t>(m.call_s.size()));
  j.kv("window_calls", static_cast<std::uint64_t>(m.window));
  j.kv("seconds_measured", m.loop_s);
  j.kv("kernel_backend", sar::kernels::active_name());
  j.kv("host_slowdown", m.host_slowdown());
  j.key("unscaled");
  write_metrics(j, host_time_metrics(m.setup_s, m.call_s, m.attempted), false);
  j.kv("input_digest", hex64(m.input_digest));
  j.kv("worst_check_error", w.worst_check_error());
  j.kv("correct", m.failed == 0);
  j.kv("attempted", static_cast<std::uint64_t>(m.attempted));
  j.kv("failed", static_cast<std::uint64_t>(m.failed));
  j.key("metrics");
  write_metrics(j, metrics, true);
  if (layers != nullptr) {
    j.key("layers");
    j.begin_object();
    for (const auto& [name, lt] : *layers) {
      j.key(name);
      j.begin_object();
      j.kv("count", static_cast<std::uint64_t>(lt.count));
      j.kv("total_ms", lt.total_ms);
      j.kv("self_ms", lt.self_ms);
      j.end_object();
    }
    j.end_object();
  }
  j.end_object();
  f << "\n";
  if (!f.good()) throw std::runtime_error("cannot write " + path);
}

void print_report(const Options& o, const Measurement& m,
                  const std::vector<Metric>& metrics, const Layers* layers) {
  std::cout << "esarp_benchmark " << o.workload << " seed " << o.seed << ": "
            << m.call_s.size() << " calls, " << m.attempted << " items, "
            << m.failed << " failed, " << std::fixed << std::setprecision(2)
            << m.loop_s << " s measured (" << sar::kernels::active_name()
            << " kernels" << (layers != nullptr ? ", traced" : "") << ")\n";
  std::cout.unsetf(std::ios::floatfield);
  std::cout << std::setprecision(6) << std::left
            << "  host times scaled to the reference host (median slowdown "
            << m.host_slowdown() << "); unscaled:";
  for (const auto& x : host_time_metrics(m.setup_s, m.call_s, m.attempted))
    std::cout << " " << x.name << " " << x.value;
  std::cout << "\n";
  for (const auto& x : metrics)
    std::cout << "  " << std::setw(48) << x.name << std::setw(14) << x.value
              << " " << x.unit << (x.clock == Clock::kSim ? "  [sim]" : "")
              << "\n";
  if (layers != nullptr) {
    std::cout << "  host time by layer (unscaled ms total, ms self, spans):\n";
    for (const auto& [name, lt] : *layers)
      std::cout << "    " << std::setw(46) << name << std::setw(14)
                << lt.total_ms << std::setw(14) << lt.self_ms << lt.count
                << "\n";
  }
  std::cout << std::right;
}

int run(const Options& o) {
  auto w = make_workload(o.workload, o.seed);
  const auto& names = workload_names();
  const auto track = static_cast<int>(
      std::find(names.begin(), names.end(), o.workload) - names.begin());
  const bool traced = !o.trace.empty();
  Spans spans(traced, track);

  const Measurement m = measure(*w, o, spans);
  const std::vector<Metric> end_to_end = end_to_end_metrics(m);
  std::vector<Metric> per_layer;
  Layers layers;
  if (traced) {
    layers = layer_times(spans.tracer());
    per_layer = host_layer_metrics(m, layers, *w, o.seed);
  }
  for (auto& x : sim_layer_metrics(m.tally)) per_layer.push_back(std::move(x));

  std::vector<Metric> all = end_to_end;
  all.insert(all.end(), per_layer.begin(), per_layer.end());
  const Layers* layers_if_traced = traced ? &layers : nullptr;
  print_report(o, m, all, layers_if_traced);
  if (!o.out.empty()) write_result(o.out, o, *w, m, all, layers_if_traced);
  if (traced) spans.tracer().write_chrome_json(o.trace, 1e9);

  // The result line: end-to-end metrics untraced, per-layer traced.
  JsonWriter j(std::cout, 0);
  j.begin_object();
  j.kv("correct", m.failed == 0);
  j.kv("attempted", static_cast<std::uint64_t>(m.attempted));
  j.kv("failed", static_cast<std::uint64_t>(m.failed));
  j.key("metrics");
  write_metrics(j, traced ? per_layer : end_to_end, false);
  j.end_object();
  std::cout << std::endl;
  return m.failed == 0 ? 0 : 1;
}

int usage(const std::string& msg) {
  std::cerr << "esarp_benchmark: " << msg << "\n"
            << "usage: esarp_benchmark --workload W --seed S "
               "[--seconds T | --calls N] [--out r.json] [--trace t.json]\n"
            << "       esarp_benchmark compare A/ B/ [--spec BENCHMARK.json]\n"
            << "workloads:";
  for (const auto& n : workload_names()) std::cerr << " " << n;
  std::cerr << "\n";
  return 2;
}

template <typename T>
bool parse_number(const std::string& s, T& out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, out);
  return ec == std::errc() && ptr == end;
}

int run_main(const std::vector<std::string>& args) {
  Options o;
  bool have_seed = false;
  for (std::size_t k = 0; k < args.size(); k += 2) {
    const std::string& flag = args[k];
    if (k + 1 >= args.size()) return usage("missing value for " + flag);
    const std::string& v = args[k + 1];
    bool ok = true;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      ok = have_seed = parse_number(v, o.seed);
    } else if (flag == "--seconds") {
      ok = parse_number(v, o.seconds) && o.seconds >= 0.0;
    } else if (flag == "--calls") {
      ok = parse_number(v, o.calls);
    } else if (flag == "--out") {
      o.out = v;
    } else if (flag == "--trace") {
      o.trace = v;
    } else {
      return usage("unknown flag " + flag);
    }
    if (!ok) return usage("bad value for " + flag + ": " + v);
  }
  if (!make_workload(o.workload, 0))
    return usage("unknown or missing --workload");
  if (!have_seed) return usage("missing --seed");
  return run(o);
}

} // namespace
} // namespace esarp::benchmark

int main(int argc, char** argv) {
  using namespace esarp::benchmark;
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (!args.empty() && args[0] == "compare") return compare_main(args);
    return run_main(args);
  } catch (const std::exception& e) {
    std::cerr << "esarp_benchmark: FAILED: " << e.what() << "\n";
    return 1;
  }
}
