// `esarp_benchmark compare A/ B/`: per workload and metric, the median
// and quartiles of two sets of result files, the pairs each side won, and
// a verdict under the bounds BENCHMARK.json fixes.
#pragma once

#include <string>
#include <vector>

namespace esarp::benchmark {

/// `args` starts with "compare". Returns 0, 1 when a metric regressed,
/// or 2 on bad usage.
int compare_main(const std::vector<std::string>& args);

} // namespace esarp::benchmark
