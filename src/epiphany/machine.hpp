// Top-level simulated chip: cores + NoC + eLink + SDRAM + scheduler.
//
// Usage:
//   ep::Machine m;                                  // 4x4 E16G3 defaults
//   auto img = m.ext().alloc<cf32>(n);              // place data in SDRAM
//   m.launch(c, [&](ep::CoreCtx& ctx) -> ep::Task { ... });
//   ep::Cycles t = m.run();                         // run to completion
//   ep::PerfReport rep = m.report();
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "check/check.hpp"
#include "epiphany/barrier.hpp"
#include "epiphany/channel.hpp"
#include "epiphany/config.hpp"
#include "epiphany/core.hpp"
#include "epiphany/core_ctx.hpp"
#include "epiphany/cost_model.hpp"
#include "epiphany/ext_port.hpp"
#include "epiphany/external_memory.hpp"
#include "epiphany/noc.hpp"
#include "epiphany/perf.hpp"
#include "epiphany/power.hpp"
#include "epiphany/scheduler.hpp"
#include "epiphany/task.hpp"
#include "epiphany/trace.hpp"
#include "fault/injector.hpp"
#include "telemetry/metrics.hpp"

namespace esarp::ep {

/// Thrown when run() finishes with blocked (unfinished) core programs.
class SimDeadlock : public std::runtime_error {
public:
  explicit SimDeadlock(const std::string& what) : std::runtime_error(what) {}
};

class Machine {
public:
  /// `shared_tracer` (optional) substitutes an externally owned Tracer for
  /// the machine's own, letting several consecutive Machine runs share one
  /// tracer — either accumulating a combined trace, or one-trace-per-run
  /// via Tracer::clear() between runs (see the lifecycle note in
  /// trace.hpp). The machine never clears a shared tracer.
  explicit Machine(ChipConfig cfg = {},
                   std::size_t ext_bytes = 64u * 1024 * 1024,
                   CoreCostParams cost = {}, Tracer* shared_tracer = nullptr);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] const ChipConfig& config() const { return cfg_; }
  [[nodiscard]] int core_count() const { return cfg_.core_count(); }
  [[nodiscard]] Core& core(int id);
  [[nodiscard]] CoreCtx& ctx(int id);
  [[nodiscard]] ExternalMemory& ext() { return ext_mem_; }
  [[nodiscard]] Noc& noc() { return noc_; }
  [[nodiscard]] const Noc& noc() const { return noc_; }
  [[nodiscard]] ExtPort& ext_port() { return ext_port_; }
  [[nodiscard]] const ExtPort& ext_port() const { return ext_port_; }
  [[nodiscard]] Scheduler& sched() { return sched_; }
  [[nodiscard]] const CostModel& cost_model() const { return cost_; }

  /// Turn on execution tracing (call before run()). Segments are recorded
  /// per core; export with tracer().write_chrome_json(path).
  void enable_tracing() { tracer_->enable(); }
  [[nodiscard]] Tracer& tracer() { return *tracer_; }
  [[nodiscard]] const Tracer& tracer() const { return *tracer_; }

  /// Telemetry registry populated during the run by the instrumented
  /// components (ext port, barriers, channels) and, post-run, by
  /// collect_machine_metrics() (machine_metrics.hpp).
  [[nodiscard]] telemetry::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const telemetry::MetricsRegistry& metrics() const {
    return metrics_;
  }

  /// The hazard sanitizer, or nullptr when checking is off. Created when
  /// ChipConfig::check.enabled is set or ESARP_CHECK=1 is in the
  /// environment (see check/check.hpp); run() finalizes it.
  [[nodiscard]] check::CheckContext* checker() { return checker_.get(); }
  [[nodiscard]] const check::CheckContext* checker() const {
    return checker_.get();
  }

  /// The fault-injection campaign engine, or nullptr when
  /// ChipConfig::faults is disabled (docs/fault-injection.md).
  [[nodiscard]] fault::FaultInjector* fault_injector() {
    return injector_.get();
  }
  [[nodiscard]] const fault::FaultInjector* fault_injector() const {
    return injector_.get();
  }

  /// The power-telemetry sampler, or nullptr when power sampling is off.
  /// Created when ChipConfig::power.enabled is set (power.hpp); consume
  /// via collect_power() (machine_metrics.hpp) after run().
  [[nodiscard]] PowerSampler* power_sampler() { return power_.get(); }
  [[nodiscard]] const PowerSampler* power_sampler() const {
    return power_.get();
  }

  [[nodiscard]] Coord coord_of(int id) const {
    return {id / cfg_.cols, id % cfg_.cols};
  }
  [[nodiscard]] int id_of(Coord c) const { return c.row * cfg_.cols + c.col; }

  /// Register a core program. One program per core; programs start at
  /// cycle 0 when run() is called.
  void launch(int core_id, std::function<Task(CoreCtx&)> program);

  /// Create a streaming channel whose buffer lives on `consumer_id`.
  template <typename T>
  std::unique_ptr<Channel<T>> make_channel(int consumer_id,
                                           std::size_t capacity,
                                           std::string name = "chan") {
    return std::make_unique<Channel<T>>(sched_, noc_, coord_of(consumer_id),
                                        capacity, std::move(name), &metrics_);
  }

  /// Create a barrier over `parties` cores.
  std::unique_ptr<SimBarrier> make_barrier(int parties, Coord master = {0, 0}) {
    return std::make_unique<SimBarrier>(sched_, noc_, cfg_, parties, master,
                                        &metrics_);
  }

  /// Run all launched programs to completion. Returns the makespan in
  /// cycles. Rethrows the first kernel exception; throws SimDeadlock if
  /// programs remain blocked with no pending events (the message carries
  /// the final cycle, pending-event count, and each blocked core's state +
  /// innermost span). `max_cycles` (0 = unlimited) arms the scheduler
  /// watchdog: exceeding it throws WatchdogExpired (a ContractViolation)
  /// enriched the same way. On a checked run (checker() != nullptr) the
  /// sanitizer is finalized here: clean runs with unsuppressed diagnostics
  /// throw check::CheckFailure.
  Cycles run(Cycles max_cycles = 0);

  /// Seconds of chip time for a cycle count at the configured clock.
  [[nodiscard]] double seconds(Cycles c) const { return cfg_.seconds(c); }

  /// Scheduler events resumed so far (engine throughput numerator for the
  /// events/sec fields in run manifests).
  [[nodiscard]] std::uint64_t events_processed() const {
    return sched_.events_processed();
  }

  /// Aggregate performance report over the last run.
  [[nodiscard]] PerfReport report() const;

private:
  static Task wrap(CoreCtx& ctx, std::function<Task(CoreCtx&)> fn,
                   Scheduler& sched);

  /// " core N (state, span S) ..." for every unfinished program — the
  /// shared tail of the SimDeadlock and watchdog messages.
  [[nodiscard]] std::string blocked_cores_brief() const;

  ChipConfig cfg_;
  CostModel cost_;
  Tracer owned_tracer_;
  Tracer* tracer_; ///< owned_tracer_ or the shared one passed at creation
  telemetry::MetricsRegistry metrics_;
  Scheduler sched_;
  Noc noc_;
  ExtPort ext_port_;
  ExternalMemory ext_mem_;
  /// Every span name a core opened, interned once; Core::spans holds ids.
  SpanNames span_names_;
  /// Null unless cfg_.faults.enabled(). Created before the contexts so
  /// each CoreCtx (and the NoC) carries the hook pointer.
  std::unique_ptr<fault::FaultInjector> injector_;
  /// Null unless cfg_.power.enabled. Created before the contexts for the
  /// same hook-pointer reason.
  std::unique_ptr<PowerSampler> power_;
  std::vector<std::unique_ptr<Core>> cores_;
  std::vector<std::unique_ptr<CoreCtx>> ctxs_;
  /// Null when checking is off. Declared after cores_/ctxs_: the dtor
  /// detaches observers from the cores' local stores, so it must run first.
  std::unique_ptr<check::CheckContext> checker_;
  struct Launched {
    int core_id;
    Task task;
  };
  std::vector<Launched> programs_;
  bool ran_ = false;
};

} // namespace esarp::ep
