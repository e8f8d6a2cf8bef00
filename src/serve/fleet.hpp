// The SAR-as-a-service fleet runtime (docs/serving.md): N simulated
// Epiphany chips serving an arrival trace of image-formation jobs with
// robustness as the first-class concern.
//
// Design in one paragraph: the fleet clock is a discrete-event loop over
// {arrival, attempt-completion, retry-release} instants. At each instant
// ready jobs are dispatched to free chips — earliest absolute deadline first
// within descending priority class by default (DispatchOrder::kEdf; kFifo
// restores release-order) — each dispatch runs one whole job on one
// simulated chip under a per-attempt fault plan derived deterministically
// from (campaign seed, job id, attempt, chip), and each attempt is bounded
// by a watchdog (8x the memoized fault-free makespan) and verified by an FNV
// checksum against the fault-free image — the whole-job generalization of
// the per-transfer retry/verify loop in src/epiphany/resilient.hpp. Only
// attempts that can differ are simulated: a fault-free attempt returns the
// memoized clean run, and a chaos attempt none of whose fault rolls fires
// returns the shape's memoized silent run — the first simulated attempt that
// delivered with nothing injected. Rolls are stateless, so such an attempt
// replays that run event for event, and serving it from the memo is exact
// (fleet.cpp, exec_attempt). Chip-kill attempts always simulate. Failed
// attempts (chip fail-stop, timeout, checksum mismatch, unrecovered faults)
// re-enter the queue with exponential backoff and migrate off the chip that
// failed them when another is free; after max_attempts at one quality level
// the job degrades (aperture halved -> one fewer FFBP merge level) instead
// of being dropped. Chips are identical and every fault is rolled per
// attempt, so the router keeps no per-chip health beyond fail-stop. Overload
// control layers on top: ShedPolicy estimates each queued job's wait from
// the memoized clean makespans and retires already-doomed low-priority jobs
// with an explicit JobState::kShed record. A job has at most one attempt in
// flight at a time. A job is lost only by aborting the entire campaign with
// fault::FaultUnrecovered (exit code 5) — zero-lost-jobs is an invariant,
// not a metric, and a shed is an explicit terminal record, never a silent
// drop.
//
// Determinism contract: every scheduling decision, fault roll and
// simulated outcome is a pure function of (trace, FleetConfig). Attempts
// dispatched at the same instant run under host::SweepRunner, whose
// index-order determinism makes host_jobs > 1 bit-identical to the
// sequential schedule. ServeReport and the serve manifest contain no
// wall-clock values, so two same-seed campaigns produce byte-identical
// manifests — the property the serve-smoke CI job pins with `cmp`.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/array2d.hpp"
#include "common/types.hpp"
#include "epiphany/config.hpp"
#include "fault/injector.hpp"
#include "serve/job.hpp"
#include "serve/trace.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/metrics.hpp"

namespace esarp::serve {

/// Fleet-level chaos campaign: per-dispatch whole-chip kill probability
/// plus the transfer-fault rates forwarded into each attempt's FaultPlan.
struct ChaosPlan {
  std::uint64_t seed = 1;
  /// Probability that a given dispatch's chip fail-stops mid-job (the
  /// kill cycle lands uniformly in 10..90% of the job's fault-free
  /// makespan). The chip is then failed for the rest of the campaign.
  double chip_kill_rate = 0.0;
  double dma_corrupt_rate = 0.0;
  double dma_drop_rate = 0.0;
  double membits_rate = 0.0;
  double noc_stall_rate = 0.0;

  [[nodiscard]] bool enabled() const {
    return chip_kill_rate > 0.0 || dma_corrupt_rate > 0.0 ||
           dma_drop_rate > 0.0 || membits_rate > 0.0 || noc_stall_rate > 0.0;
  }
};

/// Queue discipline for released jobs competing for free chips.
enum class DispatchOrder : std::uint8_t {
  kEdf,  ///< priority class descending, then earliest absolute deadline
         ///< (arrival_s + deadline_s), then job id — the default
  kFifo, ///< release time, then job id (PR 8's original order)
};

[[nodiscard]] constexpr const char* to_string(DispatchOrder d) {
  switch (d) {
    case DispatchOrder::kEdf: return "edf";
    case DispatchOrder::kFifo: return "fifo";
  }
  return "?";
}

/// Admission control: at every scheduling instant the fleet estimates
/// each queued job's finish time from the memoized clean makespans
/// (virtually packing the queue onto the chips' estimated free times, in
/// dispatch order) and sheds low-priority jobs that are already doomed —
/// estimated finish past the absolute deadline. Every shed is an explicit
/// JobState::kShed terminal record and a jobs_shed count.
struct ShedPolicy {
  bool enabled = false;
};

/// Robustness policy: retry budget and degradation ladder, plus the
/// overload-control layer (dispatch order, shedding). A retry is released
/// 100 us x 2^n after the failed attempt finishes (backoff_delay_s).
struct ServePolicy {
  int max_attempts = 3;     ///< dispatches per quality level before degrading
  int max_degrade = 2;      ///< aperture halvings before the campaign aborts
  DispatchOrder dispatch = DispatchOrder::kEdf;
  ShedPolicy shed;
};

struct FleetConfig {
  int n_chips = 4;
  ep::ChipConfig chip; ///< per-chip configuration (faults field is ignored;
                       ///< each attempt installs its own derived plan)
  ServePolicy policy;
  ChaosPlan chaos;
  /// Host worker threads for attempts dispatched at the same fleet
  /// instant (host::SweepRunner; <= 0 picks hardware_concurrency). Has no
  /// effect on results — only on host wall time.
  int host_jobs = 1;
};

/// Per-chip utilization and fail-stop state.
struct ChipStatus {
  std::uint64_t attempts = 0;       ///< dispatches onto this chip
  std::uint64_t jobs_completed = 0; ///< successful attempts
  double busy_s = 0.0;    ///< simulated seconds spent executing attempts
  double energy_j = 0.0;  ///< simulated energy of completed attempts
  double failed_at_s = -1.0; ///< fleet time of the fail-stop (-1 = alive)
};

/// Campaign counters (all deterministic, all surfaced in the manifest).
struct ServeCounters {
  std::uint64_t jobs_total = 0;
  std::uint64_t jobs_met = 0;
  std::uint64_t jobs_late = 0;
  std::uint64_t jobs_degraded = 0;
  std::uint64_t jobs_lost = 0; ///< always 0 by construction (see header)
  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;
  std::uint64_t migrations = 0;
  std::uint64_t degradations = 0;
  std::uint64_t chip_kills = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t checksum_failures = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t faults_detected = 0;
  std::uint64_t faults_recovered = 0;
  std::uint64_t jobs_shed = 0; ///< admission-control terminations
};

struct ServeReport {
  std::vector<JobRecord> jobs; ///< by job id
  std::vector<ChipStatus> chips;
  ServeCounters counters;
  double makespan_s = 0.0; ///< last completion (fleet clock)
  /// Latency order statistics over *delivered* jobs (shed jobs have no
  /// delivery latency); all zero when every job was shed.
  double latency_p50_s = 0.0;
  double latency_p95_s = 0.0;
  double latency_p99_s = 0.0;
  double latency_mean_s = 0.0;
  double latency_max_s = 0.0;
  double throughput_jobs_per_s = 0.0; ///< jobs_total / makespan_s
  double energy_total_j = 0.0;        ///< winning attempts only
  double energy_per_image_j = 0.0;    ///< over delivered images only
  /// Fraction of jobs delivered full-quality within their deadline
  /// (denominator is jobs_total: shed jobs count against the SLO).
  double slo_attainment = 0.0;
  /// Worst relative error of the analytic cost model (src/analysis)
  /// against the memoized clean makespans that admission control packs
  /// with — the cross-check that the wait estimator is trustworthy. Only
  /// computed when shedding is enabled; 0 otherwise.
  double shed_model_max_rel_err = 0.0;
  /// FNV-1a over every job's terminal record and every attempt outcome —
  /// the campaign-level reproducibility witness (equal seeds, equal hash).
  std::uint64_t schedule_hash = 0;
};

/// How one attempt ended.
enum class AttemptStatus : std::uint8_t {
  kOk,          ///< image delivered and checksum-verified
  kChipKilled,  ///< whole-chip fail-stop fired mid-job
  kTimedOut,    ///< watchdog expired (8x the clean makespan)
  kCorrupt,     ///< image delivered but failed verification
  kUnrecovered, ///< on-chip recovery exhausted (fault::FaultUnrecovered)
};

/// One attempt as the scheduler retires it.
struct AttemptOutcome {
  AttemptStatus status = AttemptStatus::kOk;
  std::uint64_t cycles = 0; ///< simulated cycles the chip was occupied
  double energy_j = 0.0;    ///< only meaningful for kOk
  std::uint64_t checksum = 0;
  fault::FaultSummary faults;
};

/// Nearest-rank percentile (q in (0, 1]) of an unsorted sample.
[[nodiscard]] double percentile(std::vector<double> xs, double q);

/// Exponential-backoff release delay for retry number `attempts_total`
/// (1-based count of dispatches so far): base * 2^(attempts_total - 1),
/// with the shift clamped at 20 so pathological retry streaks cannot
/// overflow the doubling (attempts_total > 21 all wait base * 2^20).
[[nodiscard]] double backoff_delay_s(double base_s, int attempts_total);

class Fleet {
public:
  explicit Fleet(FleetConfig cfg);

  /// Serve the whole trace; returns when every job has a terminal state.
  /// Throws fault::FaultUnrecovered when the fleet cannot make progress
  /// (all chips failed with jobs outstanding, or a job exhausted every
  /// retry at the deepest degradation level).
  [[nodiscard]] ServeReport run(const ArrivalTrace& trace);

private:
  struct CleanRef {
    AttemptOutcome run; ///< the fault-free run of the shape
    /// |analytic makespan - simulated| / simulated, filled lazily by
    /// model_rel_err() for the shed-policy cross-check (-1 = not yet).
    double model_rel_err = -1.0;
  };
  struct SimKey {
    std::size_t pulses, range;
    int algo, cores;
    bool operator<(const SimKey& o) const;
  };

  const Array2D<cf32>& scene_data(std::size_t pulses, std::size_t range);
  const CleanRef& clean_ref(const SimKey& key);
  /// Cross-check one memoized clean makespan against the src/analysis
  /// cost model; returns (and caches) the relative cycle error.
  double model_rel_err(const SimKey& key);

  FleetConfig cfg_;
  std::map<std::pair<std::size_t, std::size_t>, Array2D<cf32>> data_cache_;
  std::map<SimKey, CleanRef> clean_cache_;
  /// Per shape, the first simulated chaos attempt in which no fault roll
  /// fired. Written on the scheduler thread between batches; the worker
  /// pool only reads it.
  std::map<SimKey, AttemptOutcome> silent_cache_;
};

/// Fill `m` with the campaign's chip/workload/results sections and tag it
/// "esarp-serve-manifest/4" (full key list in docs/serving.md). Adds no
/// wall-clock values: same-seed manifests are byte-identical.
void fill_serve_manifest(telemetry::RunManifest& m, const FleetConfig& cfg,
                         const ArrivalTrace& trace, const ServeReport& rep);

/// Dump the campaign into `reg` as serve.* counters/gauges (per-chip keys
/// labeled {chip=N}) for --metrics style snapshots.
void fill_serve_metrics(telemetry::MetricsRegistry& reg,
                        const ServeReport& rep);

} // namespace esarp::serve
