#include "compare.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "common/json.hpp"

namespace esarp::benchmark {
namespace {

struct SpecMetric {
  std::string name;
  bool lower_better = true;
  double bound = -1.0; ///< negative: per-layer, no bound
};

std::vector<SpecMetric> load_spec(const std::filesystem::path& path) {
  const JsonValue spec = load_json_file(path);
  std::vector<SpecMetric> out;
  for (const char* section : {"end_to_end", "per_layer"}) {
    const JsonValue* list = spec.find(section);
    if (list == nullptr) continue;
    for (const JsonValue& m : list->as_array()) {
      SpecMetric s;
      s.name = m.find("name")->as_string();
      s.lower_better = m.find("better")->as_string() == "lower";
      if (const JsonValue* b = m.find("bound")) s.bound = b->as_number();
      out.push_back(s);
    }
  }
  return out;
}

using Run = std::map<std::string, double>; // metric -> value

/// Result files of one directory, grouped by workload, each group in
/// file-name order (the order the runs were made in when named so). Adds
/// the names of simulated-clock metrics to `sim`.
std::map<std::string, std::vector<Run>>
load_runs(const std::filesystem::path& dir, std::set<std::string>& sim) {
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.is_regular_file() && e.path().extension() == ".json")
      files.push_back(e.path());
  std::sort(files.begin(), files.end());
  std::map<std::string, std::vector<Run>> out;
  for (const auto& f : files) {
    const JsonValue v = load_json_file(f);
    const JsonValue* workload = v.find("workload");
    const JsonValue* metrics = v.find("metrics");
    if (workload == nullptr || metrics == nullptr) continue;
    Run run;
    for (const auto& [name, m] : metrics->as_object()) {
      run[name] = m.find("value")->as_number();
      const JsonValue* clock = m.find("clock");
      if (clock != nullptr && clock->as_string() == "sim") sim.insert(name);
    }
    out[workload->as_string()].push_back(std::move(run));
  }
  return out;
}

/// First quartile, median and third quartile as Python's
/// statistics.quantiles(xs, n=4) gives them (the "exclusive" method).
std::array<double, 3> quartiles(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const auto n = static_cast<long>(xs.size());
  if (n == 1) return {xs[0], xs[0], xs[0]};
  std::array<double, 3> q{};
  const long m = n + 1;
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const auto delta = static_cast<double>(i * m - j * 4);
    q[static_cast<std::size_t>(i - 1)] =
        (xs[static_cast<std::size_t>(j - 1)] * (4.0 - delta) +
         xs[static_cast<std::size_t>(j)] * delta) /
        4.0;
  }
  return q;
}

std::string fmt(double v) {
  std::ostringstream os;
  os << std::setprecision(5) << v;
  return os.str();
}

std::string summary(const std::array<double, 3>& q) {
  return fmt(q[1]) + " [" + fmt(q[0]) + ", " + fmt(q[2]) + "]";
}

/// Relative spread (IQR / |median|) of one side; 0 for a constant metric.
double spread(const std::array<double, 3>& q) {
  if (q[2] == q[0]) return 0.0;
  return q[1] != 0.0 ? (q[2] - q[0]) / std::abs(q[1])
                     : std::numeric_limits<double>::infinity();
}

} // namespace

int compare_main(const std::vector<std::string>& args) {
  std::vector<std::string> dirs;
  std::filesystem::path spec_path = "BENCHMARK.json";
  for (std::size_t k = 1; k < args.size(); ++k) {
    if (args[k] == "--spec" && k + 1 < args.size()) spec_path = args[++k];
    else dirs.push_back(args[k]);
  }
  if (dirs.size() != 2) {
    std::cerr << "usage: esarp_benchmark compare A/ B/ "
                 "[--spec BENCHMARK.json]\n";
    return 2;
  }
  const auto spec = load_spec(spec_path);
  std::set<std::string> sim;
  const auto a_runs = load_runs(dirs[0], sim);
  const auto b_runs = load_runs(dirs[1], sim);

  bool regressed = false;
  for (const auto& [workload, a_set] : a_runs) {
    const auto it = b_runs.find(workload);
    if (it == b_runs.end()) continue;
    const auto& b_set = it->second;
    const std::size_t pairs = std::min(a_set.size(), b_set.size());
    std::cout << workload << ": A " << a_set.size() << " runs, B "
              << b_set.size() << " runs, " << pairs << " pairs\n"
              << "  " << std::left << std::setw(40) << "metric"
              << std::setw(32) << "A median [q1, q3]" << std::setw(32)
              << "B median [q1, q3]" << std::setw(9) << "wins A/B"
              << "verdict\n";
    for (const SpecMetric& m : spec) {
      std::vector<double> a, b;
      for (const Run& r : a_set)
        if (const auto v = r.find(m.name); v != r.end()) a.push_back(v->second);
      for (const Run& r : b_set)
        if (const auto v = r.find(m.name); v != r.end()) b.push_back(v->second);
      if (a.empty() || b.empty()) continue;
      const auto qa = quartiles(a);
      const auto qb = quartiles(b);

      // A pair is won by the side whose value is better; ties count for
      // neither side.
      std::size_t a_wins = 0, b_wins = 0;
      bool exact = a.size() == b.size();
      for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
        exact = exact && a[i] == b[i];
        if (a[i] == b[i]) continue;
        const bool b_better = m.lower_better ? b[i] < a[i] : b[i] > a[i];
        ++(b_better ? b_wins : a_wins);
      }

      std::string verdict = "-";
      if (exact) {
        verdict = "exact";
      } else if (sim.count(m.name) != 0) {
        // A simulated metric is deterministic at a seed, so at equal seeds
        // every difference is real: it is judged exactly, not by its bound.
        verdict = a_wins > 0 ? "regressed" : "improved";
        regressed = regressed || a_wins > 0;
      } else if (m.bound >= 0.0) {
        const double base = std::abs(qa[1]);
        const double diff = m.lower_better ? qb[1] - qa[1] : qa[1] - qb[1];
        const double worse =
            base > 0.0 ? diff / base : (diff > 0.0 ? 1.0 : 0.0);
        if (std::max(spread(qa), spread(qb)) > m.bound) {
          verdict = "unresolved";
        } else if (worse > m.bound) {
          verdict = "regressed";
          regressed = true;
        } else {
          verdict = "unchanged";
        }
      }
      std::cout << "  " << std::setw(40) << m.name << std::setw(32)
                << summary(qa) << std::setw(32) << summary(qb)
                << std::setw(9)
                << (std::to_string(a_wins) + "/" + std::to_string(b_wins))
                << verdict << "\n";
    }
    std::cout << std::right;
  }
  return regressed ? 1 : 0;
}

} // namespace esarp::benchmark
