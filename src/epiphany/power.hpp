// Time-resolved power telemetry for the simulated chip.
//
// The aggregate energy model (energy.hpp) answers "how many joules did the
// run cost"; this layer answers "where and when did they go". An
// ep::PowerSampler, attached by the Machine when ChipConfig::power.enabled
// is set, observes every energy-bearing activity at the
// exact sites where the aggregate counters are updated:
//
//   - CoreCtx::compute   -> busy cycles + issued FP/IALU/load-store ops
//   - Noc::transfer      -> byte-hops, charged to the *initiating* core
//   - ExtPort read/write -> eLink bytes, charged to the initiating core
//
// and accumulates them into per-core bins of `epoch_cycles` simulated
// cycles (activity spanning an epoch boundary is split pro-rata). Because
// the sampler records the same quantities as the aggregate counters, at the
// same call sites, the derived trace conserves energy against
// compute_energy() to floating-point accuracy — collect_power()
// (machine_metrics.hpp) enforces 1e-9 relative agreement.
//
// In parallel, every recorded activity is charged to the initiating core's
// innermost live span ("merge-iter/3", "dma-prefetch", ...), yielding a
// span-level energy profile: joules per phase, plus an "unattributed"
// bucket for span-less activity, clock-gated idle and static leakage.
// Spans are charged by interned id (SpanNames, core.hpp), so charging a
// span compares, hashes and allocates nothing; names are attached, in
// name order, only when the profile is built.
//
// Sampling is zero-perturbation by construction: the sampler holds no
// scheduler state and is only ever *called from* the simulation, so an
// instrumented run is bit-identical to an uninstrumented one
// (tests/test_power.cpp locks this in).
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/opcounts.hpp"
#include "epiphany/config.hpp"
#include "epiphany/core.hpp"
#include "epiphany/energy.hpp"
#include "epiphany/perf.hpp"
#include "epiphany/trace.hpp"

namespace esarp::ep {

/// Epoch-binned activity sampler. Owned by the Machine; the hooks in
/// CoreCtx / Noc / ExtPort call record_*() as simulation side effects.
class PowerSampler {
public:
  /// Energy-bearing activity accrued in one epoch by one core (or by one
  /// span, over the whole run). Fields are doubles because activity that
  /// straddles an epoch boundary is split pro-rata.
  struct Activity {
    double busy = 0.0;        ///< compute cycles (active clock)
    double fp = 0.0;          ///< FP issue slots (FMA counts once)
    double ialu = 0.0;        ///< integer-ALU ops
    double ldst = 0.0;        ///< local loads + stores (32-bit words)
    double byte_hops = 0.0;   ///< NoC bytes x hops (any mesh)
    double elink_bytes = 0.0; ///< off-chip bytes (reads + writes)

    Activity& operator+=(const Activity& o) {
      busy += o.busy;
      fp += o.fp;
      ialu += o.ialu;
      ldst += o.ldst;
      byte_hops += o.byte_hops;
      elink_bytes += o.elink_bytes;
      return *this;
    }
  };

  /// `names` is the Machine's span-name table, which names the per-id
  /// totals in reports.
  PowerSampler(const ChipConfig& cfg, const PowerOptions& opt,
               const SpanNames& names);

  /// Attach core `id`'s live span stack (Core::spans) so activity can be
  /// charged to the innermost open span at record time. Called by the
  /// Machine for every core at construction.
  void register_core(int id, const std::vector<SpanId>* spans);
  /// Make room for span `id`'s totals. CoreCtx::begin_span calls this when
  /// it pushes `id`, so charging a span never allocates.
  void reserve_span(SpanId id) {
    if (id >= span_.size()) span_.resize(static_cast<std::size_t>(id) + 1);
  }

  /// A compute block of `ops` on `core` over [start, end).
  void record_compute(int core, Cycles start, Cycles end, const OpCounts& ops);
  /// A NoC transfer of `byte_hops` initiated by `core`, occupying the mesh
  /// over [start, end).
  void record_noc(int core, std::uint64_t byte_hops, Cycles start, Cycles end);
  /// An eLink/SDRAM transaction of `bytes` initiated by `core`, occupying
  /// the channel over [start, end).
  void record_elink(int core, std::uint64_t bytes, Cycles start, Cycles end);

  /// Current epoch size in cycles (grows when the run outlives
  /// PowerOptions::max_epochs — see the fold note in config.hpp).
  [[nodiscard]] Cycles epoch_cycles() const { return epoch_cycles_; }
  [[nodiscard]] int n_cores() const { return static_cast<int>(cores_.size()); }
  /// Number of epochs with recorded activity (max over cores).
  [[nodiscard]] std::size_t n_epochs() const;
  [[nodiscard]] const std::vector<Activity>& core_bins(int core) const;
  /// Activity charged to span `id` while it was a core's innermost span,
  /// or nullptr if none ever was.
  [[nodiscard]] const Activity* span_activity(SpanId id) const;
  /// The names of the span ids ("merge-iter/3").
  [[nodiscard]] const SpanNames& span_names() const { return names_; }
  /// Activity recorded while no span was open on the initiating core.
  [[nodiscard]] const Activity& spanless() const { return spanless_; }

private:
  struct PerCore {
    const std::vector<SpanId>* spans = nullptr;
    std::vector<Activity> bins;
  };
  /// One span's run total; `charged` tells a span charged only zero
  /// activity apart from one never charged (which gets no profile entry).
  struct SpanTotal {
    Activity activity;
    bool charged = false;
  };

  /// Spread `amount` over the epochs overlapped by [start, end) pro-rata,
  /// and charge the whole of it to `core`'s innermost live span.
  void charge(int core, Cycles start, Cycles end, const Activity& amount);
  /// Double epoch_cycles_ (folding all bins pairwise) until `last_cycle`
  /// fits under the max_epochs_ cap.
  void fold_until_fits(Cycles last_cycle);

  Cycles epoch_cycles_;
  std::size_t max_epochs_;
  std::vector<PerCore> cores_;
  const SpanNames& names_;
  std::vector<SpanTotal> span_; ///< indexed by SpanId
  Activity spanless_;
};

/// Per-core, per-epoch power trace derived from a sampler. Joules include
/// the full energy model: active + clock-gated idle per core, per-op ALU
/// energy, NoC byte-hops, eLink bytes, and chip static power (spread
/// uniformly over cores within each epoch so per-core columns sum to the
/// chip row). Epochs past the makespan can exist (posted writes draining
/// through the eLink) and carry transfer energy only.
struct PowerTrace {
  Cycles epoch_cycles = 0;
  std::size_t n_epochs = 0;
  int n_cores = 0;
  Cycles makespan = 0;
  double clock_hz = 1e9;
  std::vector<double> core_j; ///< [core * n_epochs + epoch]
  std::vector<double> chip_j; ///< [epoch], = column sum of core_j
  double total_j = 0.0;       ///< sum of chip_j; conserves compute_energy

  [[nodiscard]] double joules(int core, std::size_t epoch) const {
    return core_j[static_cast<std::size_t>(core) * n_epochs + epoch];
  }
  /// Duration of epoch `e` in seconds (the last epoch of the run may be
  /// cut short by the makespan; later drain epochs are full-length).
  [[nodiscard]] double epoch_seconds(std::size_t epoch) const;
  [[nodiscard]] double chip_watts(std::size_t epoch) const;
  [[nodiscard]] double core_watts(int core, std::size_t epoch) const;
  /// Highest per-epoch average chip power over the run [W].
  [[nodiscard]] double peak_chip_watts() const;
};

/// Span-level energy attribution derived from a sampler: joules charged to
/// each named span, grouped, plus the unattributed remainder (span-less
/// activity + clock-gated idle + static). attributed_j + unattributed_j
/// reconciles with compute_energy().total_j() to within 1e-9 relative.
struct SpanEnergyProfile {
  struct Entry {
    std::string name;  ///< span group ("merge-iter" for "merge-iter/3")
    double joules = 0.0;
    double busy_cycles = 0.0;
    double active_j = 0.0; ///< busy-cycle (pipeline + clock tree) share
    double alu_j = 0.0;    ///< per-op FP/IALU/load-store share
    double noc_j = 0.0;
    double elink_j = 0.0;
    int spans = 0; ///< distinct span instances folded into this group
  };
  std::vector<Entry> entries; ///< sorted by joules, descending
  double attributed_j = 0.0;
  double unattributed_j = 0.0;
  double idle_j = 0.0;   ///< clock-gated idle share of unattributed
  double static_j = 0.0; ///< leakage/PLL share of unattributed
  double total_j = 0.0;  ///< attributed + unattributed

  /// Human-readable energy-profile table (the `esarp power` report body).
  [[nodiscard]] std::string table() const;
};

/// Everything the power subsystem derives from one run. `enabled` is false
/// when the machine ran without a sampler, in which case only `energy` is
/// meaningful.
struct PowerReport {
  bool enabled = false;
  EnergyReport energy;      ///< aggregate model (always filled)
  PowerTrace trace;         ///< time-resolved, when enabled
  SpanEnergyProfile profile; ///< span attribution, when enabled
};

/// Convert sampled activity into the time-resolved trace. `rep` supplies
/// the makespan (for idle/static accounting) and the chip config.
[[nodiscard]] PowerTrace build_power_trace(const PowerSampler& sampler,
                                           const PerfReport& rep,
                                           const EnergyParams& p = {});

/// Convert sampled activity into the span-attribution profile. Span names
/// are grouped by the prefix before the last '/' ("merge-iter/3" and
/// "merge-iter/4" fold into "merge-iter").
[[nodiscard]] SpanEnergyProfile build_span_profile(const PowerSampler& sampler,
                                                   const PerfReport& rep,
                                                   const EnergyParams& p = {});

/// Write the trace as CSV: one row per epoch with start cycle, chip watts
/// and per-core watts columns.
void write_power_csv(const std::filesystem::path& path, const PowerTrace& t);

/// Export the trace as a core x epoch heatmap (PGM, rows = cores, columns
/// = epochs, brightness = per-epoch core power normalised to the peak).
void write_power_heatmap(const std::filesystem::path& path,
                         const PowerTrace& t);

/// Emit Chrome-trace counter tracks "power/chip-W" and "power/core<N>-W"
/// (one sample per epoch at the epoch start, closed with a zero sample) so
/// the power timeline renders under the core tracks in Perfetto. No-op
/// while the tracer is disabled.
void export_power_counters(Tracer& tracer, const PowerTrace& t);

} // namespace esarp::ep
