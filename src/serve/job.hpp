// Job model for the SAR-as-a-service fleet runtime (docs/serving.md).
//
// A JobSpec is one image-formation request: scene size, algorithm, core
// count and a latency deadline, released into the fleet at arrival_s.
// The scheduler (fleet.hpp) guarantees every accepted job reaches exactly
// one terminal JobState — it never silently drops work; an unservable
// fleet aborts the whole campaign with fault::FaultUnrecovered instead.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace esarp::serve {

enum class Algo : std::uint8_t {
  kFfbp, ///< fast factorized back-projection (the paper's mapping)
  kGbp,  ///< global back-projection (SPMD baseline)
};

[[nodiscard]] constexpr const char* to_string(Algo a) {
  switch (a) {
    case Algo::kFfbp: return "ffbp";
    case Algo::kGbp: return "gbp";
  }
  return "?";
}

/// Parse "ffbp" / "gbp"; throws std::invalid_argument otherwise.
[[nodiscard]] inline Algo algo_from_string(const std::string& s) {
  if (s == "ffbp") return Algo::kFfbp;
  if (s == "gbp") return Algo::kGbp;
  throw std::invalid_argument("unknown algorithm: " + s);
}

/// Per-job priority class. Ordered: a higher class is dispatched first
/// under EDF; ShedPolicy sheds only kLow jobs. Carried in
/// "esarp-arrival-trace/2"; v1 traces default every job to kNormal.
enum class Priority : std::uint8_t {
  kLow = 0,
  kNormal = 1,
  kHigh = 2,
};

[[nodiscard]] constexpr const char* to_string(Priority p) {
  switch (p) {
    case Priority::kLow: return "low";
    case Priority::kNormal: return "normal";
    case Priority::kHigh: return "high";
  }
  return "?";
}

/// Parse "low" / "normal" / "high"; throws std::invalid_argument otherwise.
[[nodiscard]] inline Priority priority_from_string(const std::string& s) {
  if (s == "low") return Priority::kLow;
  if (s == "normal") return Priority::kNormal;
  if (s == "high") return Priority::kHigh;
  throw std::invalid_argument("unknown priority: " + s);
}

/// One image-formation request in an arrival trace.
struct JobSpec {
  int id = 0;
  double arrival_s = 0.0; ///< release time, fleet clock (seconds)
  std::size_t n_pulses = 64;
  std::size_t n_range = 101;
  Algo algo = Algo::kFfbp;
  int n_cores = 16;
  double deadline_s = 0.05; ///< latency budget relative to arrival_s
  Priority priority = Priority::kNormal;
};

/// Terminal state of one served job.
enum class JobState : std::uint8_t {
  kMet,      ///< full-quality image delivered within the deadline
  kLate,     ///< full-quality image, past the deadline (queueing/retries)
  kDegraded, ///< reduced-quality image: fewer pulses than requested
  kShed,     ///< admission control retired the job before completion: the
             ///< wait estimate proved it already doomed and its priority
             ///< class was sheddable. Explicitly counted — never silent.
};

[[nodiscard]] constexpr const char* to_string(JobState s) {
  switch (s) {
    case JobState::kMet: return "met";
    case JobState::kLate: return "late";
    case JobState::kDegraded: return "degraded";
    case JobState::kShed: return "shed";
  }
  return "?";
}

/// Everything the fleet records about one completed job. A kShed record
/// keeps chip = -1, zero cycles/energy/checksum, and finish_s = the shed
/// instant — the explicit tombstone admission control leaves behind.
struct JobRecord {
  JobSpec spec;
  JobState state = JobState::kMet;
  double start_s = 0.0;    ///< first dispatch (fleet clock)
  double finish_s = 0.0;   ///< successful completion (fleet clock)
  double latency_s = 0.0;  ///< finish_s - spec.arrival_s
  int attempts = 1;        ///< dispatches, including the successful one
  int migrations = 0;      ///< dispatches onto a different chip than before
  int degrade_level = 0;   ///< ladder levels descended (0 = none); a level
                           ///< past the aperture floor keeps every pulse
  int chip = -1;           ///< chip that delivered the image
  std::uint64_t sim_cycles = 0; ///< chip cycles of the winning attempt
  double energy_j = 0.0;        ///< chip energy of the winning attempt
  std::uint64_t image_checksum = 0; ///< FNV-1a of the delivered image bytes
};

} // namespace esarp::serve
