// esarp_compare — regression check between two run manifests.
//
//   esarp_compare base.manifest.json current.manifest.json
//                 [--threshold 0.05] [--metric key=thr ...] [--verbose]
//
// Diffs the "results" sections with a relative threshold (regression
// direction inferred from the key name: throughput-like keys regress
// downward, time/energy/stall-like keys upward, checksum and hash keys
// both ways). Metrics entries are informational unless opted in with
// --metric, which also widens or tightens one key next to the default,
// e.g.
//
//   esarp_compare a.json b.json --metric results.makespan_cycles=0.01
//       --metric "metrics.counters.ext.read.bytes=0.0"
//   esarp_compare a.json b.json --threshold 0.0
//       --metric metrics.gauges.engine.events_per_second=0.15
//
// Resolution order per key: --metric exact match, then the default
// threshold (results.* only). Serving latency and SLO keys (latency_*,
// slo_*) take the default like any other result. A --metric key missing
// from either manifest, or a results key missing from the current one, is
// a named failure.
//
// Every threshold (--threshold and the value after '=' in --metric) is a
// whole number >= 0: anything else, NaN and trailing characters included,
// is a usage error naming the flag.
//
// Exit status: 0 = no regression, 1 = regression past threshold (which
// includes a results key the current manifest lost, and a --metric key
// that is missing from either manifest or is not numeric — reported as a
// named FAILED line, not a parse abort),
// 2 = usage or unreadable/invalid manifest. CI runs a self-compare of the
// fast-mode table1_ffbp manifest as a smoke check (.github/workflows).
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "parse_whole.hpp"
#include "common/json.hpp"
#include "telemetry/compare.hpp"

int main(int argc, char** argv) {
  using namespace esarp;

  std::vector<std::string> paths;
  telemetry::CompareOptions opt;
  bool verbose = false;
  const auto usage = [](const std::string& msg) {
    std::cerr << "esarp_compare: " << msg
              << "\nusage: esarp_compare base.json current.json"
                 " [--threshold X] [--metric key=thr ...] [--verbose]\n";
    return 2;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--verbose") {
      verbose = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      paths.push_back(arg);
      continue;
    }
    const bool keyed = arg == "--metric";
    if (!keyed && arg != "--threshold")
      return usage("unknown option " + arg);
    if (++i >= argc) return usage(arg + " wants a value");
    std::string key;
    std::string value = argv[i];
    if (keyed) {
      const std::size_t eq = value.rfind('=');
      if (eq == std::string::npos || eq == 0)
        return usage(arg + " wants key=threshold, got '" + value + "'");
      key = value.substr(0, eq);
      value = value.substr(eq + 1);
    }
    const std::optional<double> x = parse_whole<double>(value);
    if (!x || !(*x >= 0.0))
      return usage(arg + " wants a threshold >= 0, got '" + value + "'");
    if (keyed) opt.per_key[key] = *x;
    else opt.default_threshold = *x;
  }
  if (paths.size() != 2)
    return usage("want two manifests, got " + std::to_string(paths.size()));

  try {
    const JsonValue base = load_json_file(paths[0]);
    const JsonValue current = load_json_file(paths[1]);
    const telemetry::CompareReport rep =
        telemetry::compare_manifests(base, current, opt);
    std::cout << rep.summary(verbose);
    if (!rep.ok()) {
      std::cout << "\nREGRESSION: " << rep.regressions
                << " metric(s) past threshold (base " << paths[0]
                << ", current " << paths[1] << ")\n";
      return 1;
    }
    std::cout << "\nOK: no regression (" << paths[1] << " vs " << paths[0]
              << ")\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
