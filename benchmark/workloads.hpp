// Workloads of esarp_benchmark and the pieces the harness shares with
// them: host-time spans, the workload interface and the tally of
// simulated statistics each output check fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "epiphany/energy.hpp"
#include "epiphany/perf.hpp"
#include "epiphany/trace.hpp"
#include "sar/params.hpp"

namespace esarp::benchmark {

/// Host-time spans kept in memory in an ep::Tracer whose tick is one
/// nanosecond of steady_clock since construction (so the Chrome export
/// with clock_hz = 1e9 shows host microseconds). Spans are named
/// "<layer>/<id>" and nest in call order on one track per workload.
class Spans {
public:
  Spans(bool enabled, int track) : track_(track) {
    if (enabled) tracer_.enable();
  }

  /// Closes its span when it goes out of scope; inert when recording is
  /// off, so untraced runs pay no clock read for it.
  class Scope {
  public:
    Scope(Spans* owner, std::string name) : owner_(owner) {
      if (owner_ != nullptr)
        owner_->tracer_.push_span(owner_->track_, std::move(name),
                                  owner_->now_ns());
    }
    ~Scope() {
      if (owner_ != nullptr)
        owner_->tracer_.pop_span(owner_->track_, owner_->now_ns());
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    Spans* owner_;
  };

  [[nodiscard]] Scope scope(std::string_view layer, std::string_view id) {
    if (!tracer_.enabled()) return Scope(nullptr, {});
    std::string name(layer);
    name += '/';
    name += id;
    return Scope(this, std::move(name));
  }

  [[nodiscard]] const ep::Tracer& tracer() const { return tracer_; }

private:
  [[nodiscard]] ep::Cycles now_ns() const {
    return static_cast<ep::Cycles>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
  }

  ep::Tracer tracer_;
  int track_;
  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
};

/// Simulated statistics of the calls inside the reporting window, summed
/// over items. Every value is deterministic for a given seed and window.
struct SimTally {
  std::size_t items = 0;          ///< items attempted in the window
  std::size_t delivered = 0;      ///< items that produced an output
  std::size_t slo_met = 0;        ///< delivered in time (closed loop: all)
  /// Simulated latency per delivered item, in millions of chip cycles.
  std::vector<double> latency_mcycles;
  double energy_j = 0.0;          ///< over delivered items

  // Chip layers, summed over chip runs (means over active cores).
  std::size_t chip_runs = 0;
  double events = 0.0, quanta = 0.0;
  double compute = 0.0, ext_stall = 0.0, dma_wait = 0.0, chan_wait = 0.0,
         barrier_wait = 0.0, utilization = 0.0;
  double ext_read_bytes = 0.0, ext_write_bytes = 0.0, byte_hops = 0.0;
  double prefetch_hits = 0.0, prefetch_lookups = 0.0;
  double e_core_active = 0.0, e_core_idle = 0.0, e_alu = 0.0, e_noc = 0.0,
         e_elink = 0.0, e_static = 0.0;

  // Serve fleet, per job.
  std::size_t jobs = 0;
  std::vector<double> queue_wait_mcycles, service_mcycles, retry_mcycles;
  double attempts = 0.0, migrations = 0.0, shed = 0.0;
  double chip_busy_s = 0.0;     ///< summed over the fleet's chips
  double chip_capacity_s = 0.0; ///< chips x campaign makespan
  double faults_injected = 0.0, faults_detected = 0.0;
  double model_rel_err = 0.0; ///< worst over campaigns

  /// One closed-loop item: a whole run of the simulated chip.
  void add_chip_item(const ep::PerfReport& perf, const ep::EnergyReport& e);
};

/// Radar geometry and row length the kernel timings are shaped after.
struct KernelShape {
  sar::RadarParams params;
  std::size_t row_len = 0;
};

/// One workload: a closed loop of calls into one public entry point.
/// Inputs come from the seed only; the harness times call() alone.
class Workload {
public:
  virtual ~Workload() = default;

  /// Span name of the timed call: the public function it enters.
  [[nodiscard]] virtual const char* layer() const = 0;
  /// Items one call produces (images, batches or jobs).
  [[nodiscard]] virtual std::size_t items_per_call() const = 0;
  /// Calls of distinct input shape the set-up warms up with.
  [[nodiscard]] virtual std::size_t warmup_calls() const { return 1; }
  [[nodiscard]] virtual KernelShape kernel_shape() const = 0;
  /// How the workload's host time follows contention on a shared host:
  /// 1 when it slows like the calibration's memory-bound mixed pass, 0
  /// when like its chain of dependent multiply-adds. Kernel arithmetic,
  /// serving and GBP slow halfway between the two (0.5); the
  /// event-engine-bound autofocus pipeline slows like the mixed pass.
  [[nodiscard]] virtual double contention_exponent() const { return 0.5; }

  /// Build shared state (the harness follows it with the warm-up calls).
  virtual void setup(Spans& spans) = 0;
  /// Compute what the output checks compare against, once, untimed.
  virtual void prepare_checks(Spans& /*spans*/) {}
  /// Generate the inputs of call `i` from the seed.
  virtual void make_input(std::size_t i, Spans& spans) = 0;
  /// FNV-1a digest of the inputs make_input generated last.
  [[nodiscard]] virtual std::uint64_t input_digest() const = 0;
  /// The timed call.
  virtual void call() = 0;
  /// Check the outputs of call `i`; returns the number of failed items
  /// and adds the call's simulated statistics to `tally` when non-null.
  virtual std::size_t check(std::size_t i, SimTally* tally, Spans& spans) = 0;
  /// Worst error any check measured so far (relative L2 or relative
  /// criterion difference; 0 where the check is exact).
  [[nodiscard]] virtual double worst_check_error() const { return 0.0; }
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      std::uint64_t seed);

struct KernelTiming {
  std::string name; ///< sar::kernels entry point
  double ns_per_sample = 0.0;
};

/// Time every sar::kernels entry point with the active backend on
/// seeded inputs of the given shape (median of several repetitions).
[[nodiscard]] std::vector<KernelTiming> time_kernels(const KernelShape& shape,
                                                     std::uint64_t seed);

} // namespace esarp::benchmark
