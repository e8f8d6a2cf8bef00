// esarp::check — hazard sanitizer for the simulated Epiphany chip.
//
// Think TSan/ASan for the *simulated* machine: an opt-in checking layer
// (ChipConfig::check, `esarp chip --check`, or ESARP_CHECK=1) that shadows
// the engine's state and detects, in simulated time, the hazards the
// paper's mappings must avoid to be realisable on real hardware:
//
//   dma-race        a core reads/writes local bytes an in-flight DMA still
//                   targets (the transfer completes later in simulated time,
//                   so real hardware would observe torn/old data)
//   local-span      access through memory that is not covered by any live
//                   allocation — unallocated, or stale after a reset()
//   bank-budget     allocator contract violations: 32 KB overflow or an
//                   out-of-order bank claim (the two-pulse / 16,016-byte
//                   budget discipline of paper Section V-B)
//   barrier         arity mismatch (more distinct cores than parties, or a
//                   double arrival inside one generation) and cores left
//                   waiting at a barrier when the simulation ends
//   channel         messages sent but never received by teardown
//   ext-memory      off-chip access outside any SDRAM allocation (reads of
//                   memory no one ever produced)
//   remote-aliasing on-chip remote window into the wrong core's store, or
//                   two writers' in-flight remote windows overlapping
//   double-wait     the same DMA job completed (awaited) twice
//
// Every diagnostic carries the core id, the simulated cycle, and the
// innermost open span ("merge-iter/3") of the offending core. The
// checker adds no scheduler events and never advances time, so checked runs
// are bit-identical to unchecked runs (cycles, images, manifests).
//
// See docs/static-analysis.md for the hazard catalogue, the suppression
// file format and the CI wiring.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "epiphany/config.hpp"
#include "epiphany/core.hpp"
#include "epiphany/local_memory.hpp"
#include "epiphany/scheduler.hpp"

namespace esarp::ep {
class ExternalMemory;
} // namespace esarp::ep

namespace esarp::check {

enum class Hazard : std::uint8_t {
  kDmaRace,
  kLocalSpan,
  kBankBudget,
  kBarrier,
  kChannel,
  kExtMemory,
  kRemoteAliasing,
  kDoubleWait,
};

[[nodiscard]] constexpr const char* to_string(Hazard h) {
  switch (h) {
    case Hazard::kDmaRace: return "dma-race";
    case Hazard::kLocalSpan: return "local-span";
    case Hazard::kBankBudget: return "bank-budget";
    case Hazard::kBarrier: return "barrier";
    case Hazard::kChannel: return "channel";
    case Hazard::kExtMemory: return "ext-memory";
    case Hazard::kRemoteAliasing: return "remote-aliasing";
    case Hazard::kDoubleWait: return "double-wait";
  }
  return "?";
}

/// One detected hazard. `core` is -1 for chip-level findings (e.g. a
/// channel leak discovered at teardown reports the last sender instead).
struct Diagnostic {
  Hazard kind = Hazard::kDmaRace;
  int core = -1;
  ep::Cycles cycle = 0;
  std::string span;    ///< innermost open span of `core` ("" = none)
  std::string message; ///< human-readable description
  bool suppressed = false;

  /// The `[kind] core N @ cycle C (span S): message` console form.
  [[nodiscard]] std::string format() const;
};

/// Thrown at the end of a checked run when unsuppressed diagnostics exist
/// and ChipConfig::check.abort_on_hazard is set.
class CheckFailure : public std::runtime_error {
public:
  explicit CheckFailure(const std::string& what) : std::runtime_error(what) {}
};

/// Resolve the effective options for a machine: `base` (ChipConfig::check)
/// overridden by the ESARP_CHECK / ESARP_CHECK_SUPPRESS / ESARP_CHECK_JSON /
/// ESARP_CHECK_ABORT environment variables.
[[nodiscard]] ep::CheckOptions options_with_env(ep::CheckOptions base);

/// The sanitizer engine. One per Machine (never shared across threads: a
/// SweepRunner fan-out gives every Machine its own context). All hooks are
/// no-ops on simulated time; they only update shadow state and record
/// diagnostics.
class CheckContext final : public ep::LocalMemoryObserver {
public:
  /// `names` is the Machine's span-name table, which names the span ids
  /// on the registered cores' stacks.
  CheckContext(const ep::ChipConfig& cfg, const ep::Scheduler& sched,
               const ep::SpanNames& names);
  ~CheckContext() override;

  CheckContext(const CheckContext&) = delete;
  CheckContext& operator=(const CheckContext&) = delete;

  // --- Wiring (called by Machine during construction) ---------------------
  /// `spans` is the core's live span stack (Core::spans), read for the
  /// innermost span of each diagnostic; kept even when tracing is off, so
  /// diagnostics always carry phase names.
  void register_core(int id, ep::Coord coord, ep::LocalMemory* mem,
                     const std::vector<ep::SpanId>* spans);
  void register_ext(const ep::ExternalMemory* ext) { ext_ = ext; }

  // --- CoreCtx hooks ------------------------------------------------------
  /// Direct (non-DMA) access to the issuing core's local store: the
  /// destination of a blocking read, the source of a posted write/remote
  /// write, the destination of a remote read. Pointers outside the core's
  /// local store (host scratch) are ignored.
  void on_local_access(int core, const void* p, std::size_t bytes,
                       bool is_write, const char* op);

  /// Open a DMA job for `core`; segments are attached with on_dma_segment.
  /// Returns the job id carried by ep::DmaJob::check_id (never 0).
  [[nodiscard]] std::uint64_t open_dma_job(int core);
  /// One local-store window of an in-flight DMA job: an SDRAM->local read,
  /// so the DMA writes the window. `done_at` is the job completion cycle.
  void on_dma_segment(int core, std::uint64_t job, const void* p,
                      std::size_t bytes, ep::Cycles done_at, const char* op);
  /// CoreCtx::wait(job) — detects the same job being completed twice.
  void on_dma_wait(int core, std::uint64_t job);

  /// Off-chip SDRAM access (blocking read, posted write, DMA endpoints).
  void on_ext_access(int core, const void* p, std::size_t bytes, bool is_read,
                     const char* op);

  /// On-chip write window into `dst_core`'s local store, in flight until
  /// `arrival`. Detects wrong-core windows and overlapping concurrent
  /// windows from different writers.
  void on_remote_write(int writer, ep::Coord dst_core, const void* dst,
                       std::size_t bytes, ep::Cycles arrival);
  /// Blocking on-chip read from `src_core`'s local store.
  void on_remote_read(int reader, ep::Coord src_core, const void* src,
                      std::size_t bytes);

  // --- Channel / barrier hooks -------------------------------------------
  void on_chan_send(const void* chan, const std::string& name, int core);
  void on_chan_recv(const void* chan, const std::string& name, int core);
  void on_barrier_arrive(const void* barrier, int parties, int core);

  // --- LocalMemoryObserver ------------------------------------------------
  void on_local_alloc(int core, std::size_t offset,
                      std::size_t bytes) override;
  void on_local_reset(int core) override;
  void on_local_violation(int core, const char* what, std::size_t requested,
                          std::size_t limit) override;

  /// Fault-campaign mode (set by Machine::run when an attached injector
  /// actually fired): channel/barrier diagnostics from this point on are
  /// auto-suppressed, because recovery legitimately shrinks barrier parties
  /// and abandons in-flight messages (docs/fault-injection.md). All other
  /// hazard classes keep aborting checked runs.
  void set_fault_degraded() { fault_degraded_ = true; }

  // --- End of run ---------------------------------------------------------
  /// Teardown checks (unreceived channel messages, cores stuck at
  /// barriers), then report: console summary to stderr, JSON report when
  /// configured. When `allow_throw` and options().abort_on_hazard are set
  /// and unsuppressed diagnostics exist, throws CheckFailure. Idempotent
  /// teardown: calling twice does not duplicate diagnostics.
  void finalize(bool allow_throw);

  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const {
    return diags_;
  }
  /// Diagnostics not matched by a suppression.
  [[nodiscard]] std::size_t unsuppressed_count() const;
  /// Diagnostics dropped past CheckOptions::max_diagnostics.
  [[nodiscard]] std::size_t dropped() const { return dropped_; }
  [[nodiscard]] const ep::CheckOptions& options() const { return opt_; }

  /// True if any recorded diagnostic (suppressed or not) is of `kind`.
  [[nodiscard]] bool has(Hazard kind) const;

private:
  struct LiveSpan {
    std::size_t offset;
    std::size_t bytes;
  };
  struct DmaWindow {
    std::size_t offset;
    std::size_t bytes;
    ep::Cycles issued;
    ep::Cycles done;
    std::uint64_t job;
    const char* op;
  };
  struct DmaJobRec {
    std::uint64_t id;
    bool waited = false;
  };
  struct CoreShadow {
    ep::Coord coord;
    ep::LocalMemory* mem = nullptr;
    std::vector<LiveSpan> live;
    std::vector<DmaWindow> windows;
    std::vector<DmaJobRec> jobs;
    const std::vector<ep::SpanId>* spans = nullptr;
  };
  struct RemoteWindow {
    int writer;
    int target;
    std::size_t offset;
    std::size_t bytes;
    ep::Cycles start;
    ep::Cycles end;
  };
  struct ChannelShadow {
    const void* chan;
    std::string name;
    std::uint64_t sends = 0;
    std::uint64_t recvs = 0;
    int last_send_core = -1;
    ep::Cycles last_send_cycle = 0;
  };
  struct BarrierShadow {
    const void* barrier;
    int parties = 0;
    std::vector<int> arrived;      ///< cores in the current generation
    std::vector<int> participants; ///< distinct cores over the lifetime
    bool arity_reported = false;
  };

  [[nodiscard]] ep::Cycles now() const { return sched_.now(); }
  [[nodiscard]] CoreShadow& shadow(int core);
  [[nodiscard]] ChannelShadow& chan_shadow(const void* chan,
                                           const std::string& name);
  [[nodiscard]] BarrierShadow& barrier_shadow(const void* barrier,
                                              int parties);
  /// Record a diagnostic for `core` at the current cycle.
  void report(Hazard kind, int core, std::string message);
  void report_at(Hazard kind, int core, ep::Cycles cycle, std::string message);
  /// Drop expired in-flight windows of `cs` (done/end <= now).
  void prune(CoreShadow& cs);
  /// True when [offset, offset+bytes) lies inside the union of live spans.
  [[nodiscard]] static bool covered(const std::vector<LiveSpan>& live,
                                    std::size_t offset, std::size_t bytes);
  /// Flag overlap between an access and the in-flight DMA windows of
  /// `core`. `exclude_job` skips windows of the job being created.
  void check_dma_overlap(int core, std::size_t offset, std::size_t bytes,
                         bool is_write, const char* op,
                         std::uint64_t exclude_job);
  void check_local_span(int core, std::size_t offset, std::size_t bytes,
                        const char* op);

  ep::CheckOptions opt_;
  const ep::Scheduler& sched_;
  const ep::SpanNames& names_;
  const ep::ExternalMemory* ext_ = nullptr;
  std::vector<CoreShadow> cores_;
  std::vector<RemoteWindow> remote_windows_;
  std::vector<ChannelShadow> channels_;
  std::vector<BarrierShadow> barriers_;
  std::vector<Diagnostic> diags_;
  std::vector<std::string> suppressions_; ///< parsed "kind:glob" rules
  std::uint64_t next_job_ = 1;
  std::size_t dropped_ = 0;
  bool finalized_ = false;
  bool fault_degraded_ = false; ///< see set_fault_degraded()
};

} // namespace esarp::check
