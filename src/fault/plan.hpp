// Deterministic fault-injection campaigns for the simulated chip.
//
// A FaultPlan describes *what goes wrong* during a run: per-site error
// rates over the data-movement operations (DMA / eLink transfers, NoC
// link stalls, bit flips hitting data resident in a local bank) plus
// explicit whole-core fail-stop triggers at fixed (core, cycle) points.
// The plan is embedded in ep::ChipConfig (like CheckOptions), so every
// workload mapping can be run under faults without API changes.
//
// Determinism contract (docs/fault-injection.md): every injection decision
// is a pure function of (seed, site, core, per-site operation counter) —
// never of host randomness or wall clock — so two runs with the same plan
// and workload produce bit-identical fault schedules, manifests and
// images. That is what lets CI diff two chaos runs at zero tolerance.
//
// This header is dependency-free (no epiphany includes) so ChipConfig can
// embed it; the decision engine lives in fault/injector.hpp.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace esarp::fault {

/// Thrown by the resilience layer when recovery is exhausted: a transfer
/// still fails after kRetry.max_attempts, or a barrier crossing
/// starves past the abandon horizon with no failure evidence. Mapped to
/// its own process exit code by esarp_cli (distinct from SimDeadlock and
/// ContractViolation) so scripts can tell "gave up recovering" apart from
/// "hung" and "broke an engine contract".
class FaultUnrecovered : public std::runtime_error {
public:
  explicit FaultUnrecovered(const std::string& what)
      : std::runtime_error(what) {}
};

/// Thrown by Machine::run when the plan's whole-chip fail-stop fires
/// mid-run: the chip executed no simulated work at or beyond
/// FaultPlan::chip_fail_cycle, so the job it was serving is gone. The
/// fleet runtime (src/serve) catches this, marks the chip dead and
/// migrates the job; a bare `esarp chaos` run maps it to the
/// FaultUnrecovered exit code (5) — the chip itself cannot recover.
class ChipFailed : public FaultUnrecovered {
public:
  ChipFailed(std::uint64_t cycle, const std::string& what)
      : FaultUnrecovered(what), cycle_(cycle) {}

  [[nodiscard]] std::uint64_t cycle() const { return cycle_; }

private:
  std::uint64_t cycle_;
};

/// Injection sites (the labels on fault.injected{site=...} counters).
enum class Site : std::uint8_t {
  kDmaCorrupt, ///< transfer delivered corrupted payload (checksum-detected)
  kDmaDrop,    ///< transfer lost in flight (timeout-detected)
  kNocStall,   ///< NoC link held busy for extra cycles (delay-only)
  kMemBits,    ///< bit flip in data resident in a local bank
  kFailStop,   ///< whole core stops executing at a fixed cycle
  kChipFailStop, ///< the entire chip stops executing at a fixed cycle
};

[[nodiscard]] constexpr const char* to_string(Site s) {
  switch (s) {
    case Site::kDmaCorrupt: return "dma-corrupt";
    case Site::kDmaDrop: return "dma-drop";
    case Site::kNocStall: return "noc-stall";
    case Site::kMemBits: return "mem-bits";
    case Site::kFailStop: return "fail-stop";
    case Site::kChipFailStop: return "chip-fail-stop";
  }
  return "?";
}

/// Explicit whole-core fail-stop trigger: the core executes no further
/// simulated work once `cycle` has passed (kernels poll at work-item
/// granularity, so the stop lands at the next row/pair/message boundary).
struct FailStop {
  int core = 0;
  std::uint64_t cycle = 0;
};

/// The recovery protocol's fixed timing (simulated cycles unless noted).
/// kRetry below is its only instance: no campaign tunes recovery.
struct RetryPolicy {
  int max_attempts = 5;        ///< transfer attempts before FaultUnrecovered
  std::uint64_t backoff_base = 64;     ///< retry n sleeps base << n cycles
  std::uint64_t drop_timeout = 1024;   ///< modeled watchdog for a lost DMA
  std::uint64_t barrier_poll = 512;    ///< barrier waiter poll quantum
  std::uint64_t barrier_timeout = 1u << 16; ///< no-release window before the
                                            ///< waiter probes for failed cores
  std::uint64_t barrier_abandon = 1u << 26; ///< no-progress horizon before a
                                            ///< waiter throws FaultUnrecovered
  std::uint64_t channel_timeout = 1u << 16; ///< channel wait before checking
                                            ///< the peers for fail-stop
  std::uint64_t channel_poll = 256;    ///< channel poll quantum
};
inline constexpr RetryPolicy kRetry{};

/// Extra delay of one injected NoC link stall, in cycles.
inline constexpr std::uint64_t kNocStallCycles = 64;

/// A seeded fault campaign. Rates are per-operation probabilities in
/// [0, 1]: dma rates roll once per transfer (each burst segment rolls
/// independently), noc_stall_rate rolls once per NoC message, membits_rate
/// rolls once per local-bank-resident transfer destination.
struct FaultPlan {
  std::uint64_t seed = 1;

  double dma_corrupt_rate = 0.0;
  double dma_drop_rate = 0.0;
  double noc_stall_rate = 0.0;
  double membits_rate = 0.0;

  std::vector<FailStop> fail_stops;

  /// Whole-chip fail-stop: the chip executes no simulated work at or
  /// beyond this cycle — Machine::run throws fault::ChipFailed instead of
  /// returning. 0 disables. Unlike per-core fail_stops there is no
  /// on-chip recovery path; this models losing a board in a multi-chip
  /// fleet (docs/serving.md), where recovery means migrating the job.
  std::uint64_t chip_fail_cycle = 0;

  /// true: workloads use the recovery runtime (retry/timeout/repartition).
  /// false: faults are injected but the programs run without the recovery
  /// protocol — the pre-resilience behaviour (fail-stops deadlock,
  /// corruption lands in the image). Used by tests and the chaos CLI to
  /// demonstrate the delta.
  bool resilient = true;

  /// True when any fault source is active; the Machine only builds an
  /// injector (and the kernels only take fault-aware paths) when set, so a
  /// default plan leaves every simulation bit-identical to pre-fault code.
  [[nodiscard]] bool enabled() const {
    return dma_corrupt_rate > 0.0 || dma_drop_rate > 0.0 ||
           noc_stall_rate > 0.0 || membits_rate > 0.0 ||
           !fail_stops.empty() || chip_fail_cycle > 0;
  }
};

} // namespace esarp::fault
