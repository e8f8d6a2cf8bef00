// The kernel-facing API of a simulated core.
//
// A core program is a coroutine `Task program(CoreCtx& ctx)`. Simulated time
// advances only through the awaitables returned here:
//
//   co_await ctx.compute(ops);            // run a counted compute block
//   co_await ctx.read_ext(dst, src, n);   // blocking bulk SDRAM read
//   co_await ctx.read_ext_gather(k, sz);  // k scattered blocking reads
//   co_await ctx.write_ext(dst, src, n);  // posted SDRAM write
//   auto job = ctx.dma_read_ext(...);     // start DMA, keep computing
//   co_await ctx.wait(job);               // double-buffer sync point
//   co_await ctx.write_remote(c, d, s, n) // on-chip write to another core
//
// Data moves eagerly (host memcpy at call time) while the awaitable carries
// the simulated completion time; this is sound for the blocking operations
// (program order preserved) and for DMA provided the kernel awaits the job
// before reading the destination — which real double-buffered Epiphany code
// must do too.
//
// Two operations also come in a charge-only form, after read_ext_gather:
// charge_dma_read_ext_burst and charge_write_ext charge exactly what
// dma_read_ext_burst and write_ext charge (port queueing, counters, power,
// trace, sanitizer windows) but copy nothing and roll no fault. With no
// fault campaign attached every local copy would equal its SDRAM row, so a
// clean run's kernel may read its source rows and write its output row
// where they lie in SDRAM and await these instead; they require
// fault_injector() == nullptr, because an injector must corrupt real
// delivered bytes.
#pragma once

#include <cstring>
#include <span>
#include <vector>

#include "check/check.hpp"
#include "common/opcounts.hpp"
#include "epiphany/config.hpp"
#include "fault/injector.hpp"
#include "epiphany/core.hpp"
#include "epiphany/cost_model.hpp"
#include "epiphany/ext_port.hpp"
#include "epiphany/external_memory.hpp"
#include "epiphany/noc.hpp"
#include "epiphany/power.hpp"
#include "epiphany/scheduler.hpp"
#include "epiphany/task.hpp"
#include "epiphany/trace.hpp"
#include "telemetry/metrics.hpp"

namespace esarp::ep {

/// Handle for an in-flight DMA transfer. `check_id` identifies the job to
/// the hazard sanitizer (0 = unchecked run or null job; see check.hpp).
/// `fault` is the injected outcome on a fault campaign (kNone otherwise);
/// the resilience layer (resilient.hpp) reads it to model detection — plain
/// kernels ignore it and consume whatever payload was delivered.
struct DmaJob {
  Cycles done_at = 0;
  std::uint64_t check_id = 0;
  fault::TransferFault fault = fault::TransferFault::kNone;
};

/// One segment of a burst DMA transfer (see CoreCtx::dma_read_ext_burst).
struct DmaSeg {
  void* dst = nullptr;
  const void* src = nullptr;
  std::size_t bytes = 0;
};

class CoreCtx {
public:
  /// `checker` (optional) hooks the esarp::check hazard sanitizer into
  /// every memory/DMA/NoC operation issued through this context. All hooks
  /// are pure shadow-state updates: they never touch the scheduler, so a
  /// checked run is cycle-identical to an unchecked one.
  CoreCtx(Core& core, Scheduler& sched, Noc& noc, ExtPort& ext_port,
          ExternalMemory& ext_mem, const CostModel& cost,
          const ChipConfig& cfg, Tracer& tracer,
          telemetry::MetricsRegistry& metrics, SpanNames& span_names,
          check::CheckContext* checker = nullptr,
          fault::FaultInjector* fault = nullptr,
          PowerSampler* power = nullptr)
      : core_(core), sched_(sched), noc_(noc), ext_port_(ext_port),
        ext_mem_(ext_mem), cost_(cost), cfg_(cfg), tracer_(tracer),
        metrics_(metrics), span_names_(span_names), check_(checker),
        fault_(fault), power_(power) {}

  CoreCtx(const CoreCtx&) = delete;
  CoreCtx& operator=(const CoreCtx&) = delete;

  [[nodiscard]] int id() const { return core_.id(); }
  [[nodiscard]] Coord coord() const { return core_.coord(); }
  [[nodiscard]] Core& core() { return core_; }
  [[nodiscard]] LocalMemory& local() { return core_.mem(); }
  [[nodiscard]] ExternalMemory& ext() { return ext_mem_; }
  [[nodiscard]] Scheduler& sched() { return sched_; }
  [[nodiscard]] Noc& noc() { return noc_; }
  [[nodiscard]] const ChipConfig& config() const { return cfg_; }
  [[nodiscard]] Cycles now() const { return sched_.now(); }
  [[nodiscard]] Tracer& tracer() { return tracer_; }
  [[nodiscard]] telemetry::MetricsRegistry& metrics() { return metrics_; }
  /// The hazard sanitizer attached to this machine, or nullptr.
  [[nodiscard]] check::CheckContext* checker() { return check_; }
  /// The fault injector attached to this machine, or nullptr (no campaign).
  [[nodiscard]] fault::FaultInjector* fault_injector() { return fault_; }

  /// True once this core's fail-stop trigger cycle has passed (always
  /// false outside a fault campaign). Resilient kernels poll this at
  /// work-item boundaries and call mark_failed() + co_return.
  [[nodiscard]] bool fail_stop_due() const {
    return fault_ != nullptr && fault_->fail_stop_due(id(), now());
  }

  /// Record this core's fail-stop: state flips to kFailed and the failure
  /// becomes visible to the recovery layer's confirmed-failure oracle.
  void mark_failed() {
    core_.state = CoreState::kFailed;
    if (fault_ != nullptr) fault_->mark_failed(id(), now());
  }

  /// Open a named, nestable trace span on this core. The core's live span
  /// stack always tracks these by interned id (for the power sampler, the
  /// hazard checker and deadlock/watchdog diagnostics); the tracer
  /// additionally records them when tracing is enabled. Pair with
  /// end_span(); see Tracer::push_span.
  void begin_span(std::string name) {
    const SpanId span = span_names_.intern(name);
    core_.spans.push_back(span);
    if (power_ != nullptr) power_->reserve_span(span);
    tracer_.push_span(id(), std::move(name), now());
  }
  /// Close this core's innermost open trace span.
  void end_span() {
    if (!core_.spans.empty()) core_.spans.pop_back();
    tracer_.pop_span(id(), now());
  }

  /// Execute a compute block of counted work from local memory.
  [[nodiscard]] DelayFor compute(const OpCounts& ops) {
    const Cycles c = cost_.cycles(ops);
    core_.counters.busy += c;
    core_.counters.ops += ops;
    tracer_.add(id(), SegmentKind::kCompute, now(), now() + c);
    if (power_ != nullptr) power_->record_compute(id(), now(), now() + c, ops);
    return DelayFor{sched_, c};
  }

  /// Blocking bulk read of `bytes` from SDRAM (one transaction).
  [[nodiscard]] DelayUntil read_ext(void* dst, const void* src,
                                    std::size_t bytes) {
    ESARP_EXPECTS(ext_mem_.owns(src));
    if (check_ != nullptr) {
      check_->on_ext_access(id(), src, bytes, /*is_read=*/true, "read_ext");
      check_->on_local_access(id(), dst, bytes, /*is_write=*/true, "read_ext");
    }
    std::memcpy(dst, src, bytes);
    last_fault_ = roll_transfer(dst, bytes);
    const Cycles done = ext_port_.blocking_read(coord(), 1, bytes, now());
    core_.counters.ext_stall += done - now();
    core_.counters.ext_read_bytes += bytes;
    tracer_.add(id(), SegmentKind::kExtRead, now(), done);
    return DelayUntil{sched_, done};
  }

  /// `elems` independent blocking reads of `bytes_each` (scattered gather,
  /// e.g. per-pixel loads in sequential FFBP). Caller copies the data itself
  /// (addresses are data-dependent); this charges the time.
  [[nodiscard]] DelayUntil read_ext_gather(std::uint64_t elems,
                                           std::size_t bytes_each) {
    const Cycles done =
        ext_port_.blocking_read(coord(), elems, bytes_each, now());
    core_.counters.ext_stall += done - now();
    core_.counters.ext_read_bytes += elems * bytes_each;
    tracer_.add(id(), SegmentKind::kExtRead, now(), done);
    return DelayUntil{sched_, done};
  }

  /// Posted write of `bytes` to SDRAM; the core continues after issuing
  /// (paper: "the write operation is performed without stalling").
  [[nodiscard]] DelayUntil write_ext(void* dst, const void* src,
                                     std::size_t bytes) {
    const DelayUntil done = write_charges(dst, src, bytes);
    std::memcpy(dst, src, bytes);
    last_fault_ = roll_transfer(dst, bytes);
    return done;
  }

  /// Charge-only write_ext, for a kernel that already wrote the payload
  /// itself: into `dst`, or, for a clean FFBP run's last level, into the
  /// result image, which no simulated event reads. The same completion,
  /// counters, power, trace and sanitizer hooks (naming `src` as the local
  /// source window), without the copy or the fault roll. Requires no
  /// fault campaign.
  [[nodiscard]] DelayUntil charge_write_ext(const void* dst, const void* src,
                                            std::size_t bytes) {
    ESARP_EXPECTS(fault_ == nullptr);
    return write_charges(dst, src, bytes);
  }

  /// Start a DMA read SDRAM -> local store. Returns immediately.
  [[nodiscard]] DmaJob dma_read_ext(void* dst, const void* src,
                                    std::size_t bytes) {
    ESARP_EXPECTS(ext_mem_.owns(src));
    ESARP_EXPECTS(core_.mem().owns(dst));
    std::memcpy(dst, src, bytes);
    const fault::TransferFault tf = roll_transfer(dst, bytes);
    core_.counters.dma_transfers += 1;
    core_.counters.dma_bytes += bytes;
    const Cycles done = ext_port_.dma_read(coord(), bytes, now());
    std::uint64_t check_id = 0;
    if (check_ != nullptr) {
      check_id = check_->open_dma_job(id());
      check_->on_ext_access(id(), src, bytes, /*is_read=*/true,
                            "dma_read_ext");
      check_->on_dma_segment(id(), check_id, dst, bytes, done,
                             "dma_read_ext");
    }
    return DmaJob{done, check_id, tf};
  }

  /// Start a burst of DMA read segments SDRAM -> local store as one job.
  /// Cycle-for-cycle equivalent to one dma_read_ext per segment followed by
  /// a wait on each (same per-segment setup, channel queueing and stat
  /// accounting; the returned job completes with the last segment), but the
  /// whole burst costs a single scheduler event to await.
  [[nodiscard]] DmaJob dma_read_ext_burst(std::span<const DmaSeg> segs) {
    DmaJob job = burst_charges(segs);
    for (const DmaSeg& s : segs) {
      std::memcpy(s.dst, s.src, s.bytes);
      const fault::TransferFault tf = roll_transfer(s.dst, s.bytes);
      if (static_cast<int>(tf) > static_cast<int>(job.fault)) job.fault = tf;
    }
    return job;
  }

  /// Charge-only dma_read_ext_burst, for a kernel that reads each
  /// segment's `src` where it lies: the same job (completion, sanitizer
  /// windows on every `dst`), counters and power, with every `dst` left
  /// untouched. Requires no fault campaign.
  [[nodiscard]] DmaJob charge_dma_read_ext_burst(
      std::span<const DmaSeg> segs) {
    ESARP_EXPECTS(fault_ == nullptr);
    return burst_charges(segs);
  }

  /// Block until a DMA job completes.
  [[nodiscard]] DelayUntil wait(DmaJob job) {
    if (check_ != nullptr) check_->on_dma_wait(id(), job.check_id);
    if (job.done_at > now()) {
      core_.counters.dma_wait += job.done_at - now();
      tracer_.add(id(), SegmentKind::kDmaWait, now(), job.done_at);
    }
    return DelayUntil{sched_, job.done_at};
  }

  /// On-chip write into another core's local store (cMesh). The writer is
  /// busy for the injection time; delivery completes at the returned time.
  [[nodiscard]] DelayUntil write_remote(Coord dst_core, void* dst,
                                        const void* src, std::size_t bytes) {
    std::memcpy(dst, src, bytes);
    const Cycles arrival =
        noc_.transfer(coord(), dst_core, bytes, now(), Mesh::kOnChipWrite);
    if (check_ != nullptr) {
      check_->on_local_access(id(), src, bytes, /*is_write=*/false,
                              "write_remote");
      check_->on_remote_write(id(), dst_core, dst, bytes, arrival);
    }
    // Writer only pays injection (stores issue at link rate), not delivery.
    const Cycles inject = cfg_.cycles_for_bytes_on_link(bytes);
    (void)arrival;
    return DelayUntil{sched_, now() + inject};
  }

  /// Blocking on-chip read from another core's local store (rMesh):
  /// request travels to the remote node and the reply returns — the paper
  /// notes reads are the expensive direction, which is why its pipelines
  /// push data with writes instead.
  [[nodiscard]] DelayUntil read_remote(Coord src_core, void* dst,
                                       const void* src, std::size_t bytes) {
    if (check_ != nullptr) {
      check_->on_remote_read(id(), src_core, src, bytes);
      check_->on_local_access(id(), dst, bytes, /*is_write=*/true,
                              "read_remote");
    }
    std::memcpy(dst, src, bytes);
    const Cycles hops = static_cast<Cycles>(hop_distance(coord(), src_core)) *
                        cfg_.hop_latency;
    // Request packet out, data serialised back on the read mesh. The
    // reading core initiates, so it owns the byte-hop energy even though
    // the data flows from src_core.
    const Cycles arrival = noc_.transfer(src_core, coord(), bytes,
                                         now() + hops, Mesh::kRead, coord());
    core_.counters.ext_stall += arrival - now(); // read-stall accounting
    tracer_.add(id(), SegmentKind::kExtRead, now(), arrival);
    return DelayUntil{sched_, arrival};
  }

  /// Pure simulated delay (e.g. modelling fixed overheads).
  [[nodiscard]] DelayFor idle(Cycles cycles) { return DelayFor{sched_, cycles}; }

  /// Injected outcome of the most recent read_ext/write_ext on this core
  /// (kNone outside a fault campaign). The blocking ops can't carry the
  /// outcome in a DmaJob, so the resilience layer reads it here right
  /// after awaiting the transfer.
  [[nodiscard]] fault::TransferFault last_transfer_fault() const {
    return last_fault_;
  }

private:
  template <typename T>
  friend class Channel;
  friend class SimBarrier;

  /// Everything write_ext does but the copy and the fault roll.
  DelayUntil write_charges(const void* dst, const void* src,
                           std::size_t bytes) {
    ESARP_EXPECTS(ext_mem_.owns(dst));
    if (check_ != nullptr) {
      check_->on_ext_access(id(), dst, bytes, /*is_read=*/false, "write_ext");
      check_->on_local_access(id(), src, bytes, /*is_write=*/false,
                              "write_ext");
    }
    const Cycles done = ext_port_.posted_write(coord(), bytes, now());
    core_.counters.ext_write_bytes += bytes;
    tracer_.add(id(), SegmentKind::kExtWrite, now(), done);
    return DelayUntil{sched_, done};
  }

  /// Everything dma_read_ext_burst does but the copies and the fault
  /// rolls (the returned job's fault is kNone).
  DmaJob burst_charges(std::span<const DmaSeg> segs) {
    ESARP_EXPECTS(!segs.empty());
    burst_sizes_.clear();
    for (const DmaSeg& s : segs) {
      ESARP_EXPECTS(ext_mem_.owns(s.src));
      ESARP_EXPECTS(core_.mem().owns(s.dst));
      core_.counters.dma_transfers += 1;
      core_.counters.dma_bytes += s.bytes;
      burst_sizes_.push_back(s.bytes);
    }
    const Cycles done = ext_port_.dma_read_burst(coord(), burst_sizes_, now());
    std::uint64_t check_id = 0;
    if (check_ != nullptr) {
      check_id = check_->open_dma_job(id());
      for (const DmaSeg& s : segs) {
        check_->on_ext_access(id(), s.src, s.bytes, /*is_read=*/true,
                              "dma_read_ext_burst");
        // Every segment window stays hazardous until the whole burst
        // completes — kernels must await the job, not individual segments.
        check_->on_dma_segment(id(), check_id, s.dst, s.bytes, done,
                               "dma_read_ext_burst");
      }
    }
    return DmaJob{done, check_id, fault::TransferFault::kNone};
  }

  /// Roll the fault sites for one delivered transfer segment (no-op
  /// returning kNone when no campaign is attached).
  fault::TransferFault roll_transfer(void* dst, std::size_t bytes) {
    if (fault_ == nullptr) return fault::TransferFault::kNone;
    return fault_->on_transfer(id(), dst, bytes, now());
  }

  Core& core_;
  Scheduler& sched_;
  Noc& noc_;
  ExtPort& ext_port_;
  ExternalMemory& ext_mem_;
  const CostModel& cost_;
  const ChipConfig& cfg_;
  Tracer& tracer_;
  telemetry::MetricsRegistry& metrics_;
  SpanNames& span_names_; ///< the Machine's interned span names
  check::CheckContext* check_; ///< hazard sanitizer hooks, or nullptr
  fault::FaultInjector* fault_ = nullptr; ///< fault campaign, or nullptr
  PowerSampler* power_ = nullptr; ///< power-telemetry sampler, or nullptr
  fault::TransferFault last_fault_ = fault::TransferFault::kNone;
  std::vector<std::size_t> burst_sizes_; ///< scratch for dma_read_ext_burst
};

} // namespace esarp::ep
