// Synthetic arrival traces for the fleet runtime (docs/serving.md).
//
// A trace is the replayable input of a serve campaign: a seeded list of
// JobSpecs sorted by arrival time. Two generators cover the load shapes
// latency studies care about — a Poisson process (memoryless steady load)
// and a bursty process (Poisson bursts with geometric sizes, arrivals
// inside a burst landing at the same instant so the queue actually
// builds). Traces round-trip through JSON ("esarp-arrival-trace/2", which
// adds a per-job "priority" class; v1 files still load with every job
// defaulting to normal priority) so CI can pin one file and replay it
// forever.
#pragma once

#include <cstdint>
#include <filesystem>
#include <vector>

#include "serve/job.hpp"

namespace esarp::serve {

/// Knobs for the trace generators. Every job in a generated trace shares
/// the scene/algorithm/deadline template; heterogeneous traces can be
/// edited or synthesized as JSON.
struct TraceParams {
  std::size_t n_jobs = 16;
  double rate_hz = 400.0; ///< mean arrival rate (jobs per second)
  bool bursty = false;    ///< burst arrivals instead of a plain Poisson
  double burst_mean = 4.0; ///< mean jobs per burst (bursty only, >= 1)
  std::uint64_t seed = 1;
  std::size_t n_pulses = 64;
  std::size_t n_range = 101;
  Algo algo = Algo::kFfbp;
  int n_cores = 16;
  double deadline_s = 0.05;
  /// Priority mix: each job independently draws low with frac_low, high
  /// with frac_high, normal otherwise. The draw comes from a SplitMix64
  /// stream keyed on (seed, job id) that is independent of the arrival
  /// process, so (frac_low, frac_high) never perturb arrival times — a
  /// v2 trace with an all-normal mix has byte-identical arrivals to the
  /// v1 trace of the same seed. Requires frac_low + frac_high <= 1.
  double frac_low = 0.0;
  double frac_high = 0.0;
  /// Per-job deadline spread: job i's deadline is deadline_s scaled by a
  /// uniform factor in [1 - jitter, 1 + jitter], drawn from the same
  /// arrival-independent per-job stream as the priority class. 0 keeps
  /// the uniform deadline. Heterogeneous deadlines are what make EDF
  /// dispatch meaningfully different from FIFO. Requires [0, 1).
  double deadline_jitter = 0.0;
};

struct ArrivalTrace {
  std::uint64_t seed = 0;
  std::vector<JobSpec> jobs; ///< sorted by (arrival_s, id); ids are dense
};

/// Generate a trace from `p` (Poisson or bursty per p.bursty). Pure
/// function of the parameters — same params, same trace, byte for byte.
[[nodiscard]] ArrivalTrace make_trace(const TraceParams& p);

/// Write the trace as "esarp-arrival-trace/2" JSON (atomic tmp + rename).
void save_trace(const std::filesystem::path& path, const ArrivalTrace& t);

/// Load a trace written by save_trace (or hand-authored to either
/// supported schema): "esarp-arrival-trace/2" carries per-job "priority",
/// "esarp-arrival-trace/1" defaults every job to normal. Any other schema
/// is rejected with the file path and both supported schemas named in the
/// error. Every job is checked as it loads: each number must be finite,
/// whole where the field is an integer and inside the field's type, and
/// the job must be one a runner accepts (id equal to its index, n_pulses
/// at least 2 and a power of two for FFBP or even for GBP, n_range >= 2,
/// n_cores >= 1, deadline_s > 0). Throws ContractViolation on schema,
/// shape or job errors; a job error names the path, job index and key.
[[nodiscard]] ArrivalTrace load_trace(const std::filesystem::path& path);

} // namespace esarp::serve
