// The decision engine behind a FaultPlan: deterministic per-operation
// fault rolls, payload corruption, the campaign log + schedule hash, and
// the recovery counters the resilience layer reports into manifests.
//
// One FaultInjector is owned by the Machine for the whole run (built only
// when plan.enabled()); every roll advances a per-(site, core) counter so
// the schedule depends only on (seed, site, core, counter) — independent
// of host threading, wall clock, and event interleaving of *other* cores.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "telemetry/metrics.hpp"

namespace esarp::fault {

/// Outcome of rolling the DMA/mem-bits sites for one transfer segment.
enum class TransferFault : std::uint8_t {
  kNone,    ///< delivered intact
  kCorrupt, ///< delivered, payload bytes flipped (checksum catches it)
  kDropped, ///< never delivered (timeout catches it)
};

/// One injected fault, in schedule order. The log (and its FNV hash) is
/// the reproducibility witness: two runs of the same plan + workload must
/// produce identical logs.
struct FaultRecord {
  Site site;
  int core;            ///< initiating core (or victim, for fail-stop)
  std::uint64_t index; ///< per-(site, core) operation counter at injection
  std::uint64_t cycle; ///< simulated cycle of the faulted operation
};

/// Campaign totals for run manifests (all simulated-time quantities).
/// `detected` counts faulty attempts, so a transfer whose retry faults
/// again counts twice there but once in `faulted_transfers`, and its one
/// recovery episode once in `recovered`.
struct FaultSummary {
  std::uint64_t injected = 0;
  std::uint64_t detected = 0;
  std::uint64_t fail_stops_detected = 0; ///< the share of `detected` that
                                         ///< found a fail-stopped core
  std::uint64_t recovered = 0;
  std::uint64_t faulted_transfers = 0; ///< transfers that faulted >= once
  std::uint64_t retries = 0;
  std::uint64_t repartitions = 0;
  std::uint64_t recovery_cycles = 0;
  std::uint64_t af_windows_dropped = 0;
  std::uint64_t af_pairs_dropped = 0;
  std::uint64_t failed_cores = 0;
  std::uint64_t failed_chips = 0; ///< 0 or 1: whole-chip fail-stop fired
  std::uint64_t schedule_hash = 0;
  /// Rolls each core drew from its transfer and NoC streams, indexed by
  /// core id and trimmed after the last core that rolled. A run in which
  /// no roll fired is replayed exactly by any plan whose rolls within
  /// these lengths all miss (FaultInjector::rolls_fire).
  std::vector<std::uint64_t> transfer_rolls;
  std::vector<std::uint64_t> noc_rolls;

  bool operator==(const FaultSummary&) const = default;
};

/// True when every faulted transfer recovered exactly: each one ended in
/// a single recovery episode, and every faulty attempt was retried. Holds
/// however often a retry faults again. Only transfer faults count: a
/// fail-stop is detected (barrier, autofocus pipeline) but never retried.
[[nodiscard]] inline bool transfers_recovered(const FaultSummary& s) {
  return s.recovered == s.faulted_transfers &&
         s.retries + s.fail_stops_detected == s.detected;
}

class FaultInjector {
public:
  FaultInjector(const FaultPlan& plan, telemetry::MetricsRegistry* metrics);

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  // -- Injection rolls (called from the engine primitives) ----------------

  /// Roll the transfer sites for one delivered segment whose payload now
  /// sits at [dst, dst+bytes): corrupt beats drop beats mem-bits; corrupt
  /// and mem-bits flip destination bytes in place (deterministically, from
  /// the same roll stream). `core` is the initiating core.
  TransferFault on_transfer(int core, void* dst, std::size_t bytes,
                            std::uint64_t cycle);

  /// Extra cycles of NoC link stall for one message from `core` (0 almost
  /// always). Delay-only: never corrupts or drops.
  [[nodiscard]] std::uint64_t noc_stall(int core, std::uint64_t cycle);

  // -- Fail-stop oracle ---------------------------------------------------

  /// True once `core`'s fail-stop trigger cycle has passed. Kernels poll
  /// this at work-item boundaries and stop executing; recovery code uses
  /// it as the *confirmed* failure oracle (so failure detection has no
  /// false positives — a slow core is never declared dead).
  [[nodiscard]] bool fail_stop_due(int core, std::uint64_t cycle) const;

  /// Record that `core` observed its own fail-stop and halted (log +
  /// counters; idempotent per core).
  void mark_failed(int core, std::uint64_t cycle);

  [[nodiscard]] bool marked_failed(int core) const;

  /// Record that the whole chip hit FaultPlan::chip_fail_cycle and stopped
  /// (log entry under Site::kChipFailStop with core = -1, plus the
  /// fault.failed_chips gauge; idempotent). Called by Machine::run just
  /// before it throws fault::ChipFailed.
  void mark_chip_failed(std::uint64_t cycle);

  [[nodiscard]] bool chip_failed() const { return chip_failed_; }

  // -- Recovery accounting (called from the resilience layer) -------------

  void count_detected(Site site);
  /// A transfer's first faulty attempt (its later ones only count_detected).
  void count_faulted_transfer();
  void count_recovered(Site site, std::uint64_t recovery_cycles);
  void count_retry();
  void count_repartition(std::uint64_t surviving_cores);
  void count_af_window_dropped();
  void count_af_pair_dropped();

  // -- Reporting ----------------------------------------------------------

  [[nodiscard]] const std::vector<FaultRecord>& log() const { return log_; }

  /// FNV-1a over the fault log (site, core, index, cycle per record).
  /// Equal plans + workloads ⇒ equal hashes; any schedule drift shows up
  /// as a hash mismatch in manifest diffs.
  [[nodiscard]] std::uint64_t schedule_hash() const;

  [[nodiscard]] FaultSummary summary() const;

  /// FNV-1a over bytes. The serve fleet hashes every delivered image with
  /// it (JobRecord::image_checksum, the campaign schedule hash). The
  /// resilience layer charges the chip for such a pass on each verified
  /// transfer but decides on the host by exact comparison
  /// (ep::detail::payload_ok).
  [[nodiscard]] static std::uint64_t checksum(const void* data,
                                              std::size_t bytes);

  /// True when some roll within `silent`'s stream lengths fires under
  /// `plan`. `silent` is the summary of a run with the same rates in
  /// which no roll fired. Rolls are stateless, so a run under `plan` (with
  /// no fail-stop of either kind) is that run event for event until its
  /// first firing roll: when this returns false, it *is* that run.
  [[nodiscard]] static bool rolls_fire(const FaultPlan& plan,
                                       const FaultSummary& silent);

private:
  /// Deterministic uniform double in [0, 1) for roll `counter` of
  /// (site, core) under `seed` — a SplitMix64 finalizer over the mixed key.
  [[nodiscard]] static double roll(std::uint64_t seed, Site site, int core,
                                   std::uint64_t counter);

  /// The site a roll `r` of `stream` fires under `plan`, or nullopt when it
  /// misses. The transfer stream (Site::kDmaCorrupt) has three thresholds:
  /// drop beats corrupt beats mem-bits, so raising one rate never
  /// reshuffles another site's stream. The NoC stream (Site::kNocStall)
  /// has one. on_transfer, noc_stall and rolls_fire all decide here.
  [[nodiscard]] static std::optional<Site> fired(const FaultPlan& plan,
                                                 Site stream, double r);

  void record(Site site, int core, std::uint64_t index, std::uint64_t cycle);

  FaultPlan plan_;
  telemetry::MetricsRegistry* metrics_; ///< may be null (unit tests)

  /// Per-(site, core) operation counters; sized at construction.
  std::vector<std::uint64_t> dma_ops_;
  std::vector<std::uint64_t> noc_ops_;
  std::vector<bool> failed_;
  bool chip_failed_ = false;

  std::vector<FaultRecord> log_;
  FaultSummary totals_;
};

} // namespace esarp::fault
