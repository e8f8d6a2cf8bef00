// Off-chip interface: the eLink + SDRAM timing model.
//
// All external-memory traffic funnels through one chip-edge port with
// 8 GB/s of total bandwidth (ChipConfig::elink_bytes_per_cycle at 1 GHz) —
// the paper's "total off-chip bandwidth is 8 GB/sec", 64x less than the
// aggregate on-chip bandwidth. Reads stall the issuing core for a full
// round trip; writes are posted (single-cycle issue) and drain through the
// port asynchronously, which is exactly the read/write asymmetry the
// paper's FFBP analysis leans on.
#pragma once

#include <cstdint>
#include <span>

#include "epiphany/config.hpp"
#include "epiphany/noc.hpp"
#include "epiphany/trace.hpp"
#include "telemetry/metrics.hpp"

namespace esarp::ep {

class PowerSampler;

struct ExtPortStats {
  std::uint64_t read_transactions = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t write_transactions = 0;
  std::uint64_t write_bytes = 0;
};

class ExtPort {
public:
  /// `tracer` (optional) receives eLink queue-depth counter tracks when
  /// tracing is enabled; `metrics` (optional) receives the stall-duration
  /// and backpressure histograms. Both must outlive the port.
  ExtPort(const ChipConfig& cfg, Noc& noc, Tracer* tracer = nullptr,
          telemetry::MetricsRegistry* metrics = nullptr)
      : cfg_(cfg), noc_(noc),
        // eLink attached at the east edge, middle row (board layout).
        port_coord_{cfg.rows / 2, cfg.cols - 1}, tracer_(tracer) {
    if (metrics != nullptr) {
      read_stall_hist_ = &metrics->cycle_histogram("ext.read.stall_cycles");
      write_backpressure_hist_ =
          &metrics->cycle_histogram("ext.write.backpressure_cycles");
      dma_queue_hist_ = &metrics->cycle_histogram("ext.dma.queue_cycles");
    }
    if (tracer_ != nullptr) {
      read_backlog_track_ = tracer_->counter_track("ext-port/read-backlog");
      write_backlog_track_ = tracer_->counter_track("ext-port/write-backlog");
    }
  }

  [[nodiscard]] Coord coord() const { return port_coord_; }

  /// Blocking CPU read of `transactions` independent transactions of
  /// `bytes_each` from SDRAM by `core`. Returns the completion time; the
  /// issuing core stalls until then. Transactions do not pipeline (the core
  /// blocks on each one), so latency is paid per transaction.
  Cycles blocking_read(Coord core, std::uint64_t transactions,
                       std::size_t bytes_each, Cycles now);

  /// Bulk DMA read of `bytes` into `core`'s local memory. Pays one latency,
  /// then streams at eLink bandwidth. Returns the completion time (the core
  /// does not stall; await the returned time to synchronise).
  Cycles dma_read(Coord core, std::size_t bytes, Cycles now);

  /// Burst of independent DMA read segments issued back-to-back at `now`.
  /// Cycle-for-cycle equivalent to calling dma_read once per segment (each
  /// segment pays its own setup and queues on the read channel) but costed
  /// analytically in one call, so a kernel can await a whole prefetch
  /// burst with a single scheduler event. Returns the completion time of
  /// the last segment.
  Cycles dma_read_burst(Coord core, std::span<const std::size_t> seg_bytes,
                        Cycles now);

  /// Posted write of `bytes` from `core` to SDRAM. Returns the cycle at
  /// which the *core* may continue (issue time plus any backpressure stall
  /// when the port backlog exceeds the buffering allowance).
  Cycles posted_write(Coord core, std::size_t bytes, Cycles now);

  /// Attach the power-telemetry sampler (nullptr = none; owned by the
  /// Machine). eLink bytes are charged to the initiating core over the
  /// SDRAM-channel occupancy window — pure host-side accounting.
  void set_power_sampler(PowerSampler* sampler) { power_ = sampler; }

  [[nodiscard]] const ExtPortStats& stats() const { return stats_; }

private:
  /// Buffering (store buffers + mesh FIFOs) a posted write can hide behind
  /// before the producing core feels backpressure.
  static constexpr Cycles kPostedBacklogAllowance = 64;

  /// Sample the backlog (cycles until the channel drains) on `track`.
  void sample_backlog(int track, const BusyResource& chan, Cycles now) {
    if (tracer_ == nullptr || !tracer_->enabled()) return;
    const double backlog = chan.free_at > now
                               ? static_cast<double>(chan.free_at - now)
                               : 0.0;
    tracer_->counter(track, now, backlog);
  }

  /// Power attribution id of the initiating core (row-major, like
  /// Machine::id_of).
  [[nodiscard]] int core_id(Coord core) const {
    return core.row * cfg_.cols + core.col;
  }

  ChipConfig cfg_;
  Noc& noc_;
  Coord port_coord_;
  Tracer* tracer_ = nullptr;
  PowerSampler* power_ = nullptr;
  telemetry::Histogram* read_stall_hist_ = nullptr;
  telemetry::Histogram* write_backpressure_hist_ = nullptr;
  telemetry::Histogram* dma_queue_hist_ = nullptr;
  int read_backlog_track_ = -1;
  int write_backlog_track_ = -1;
  BusyResource read_chan_;  ///< SDRAM read channel occupancy
  BusyResource write_chan_; ///< SDRAM write channel occupancy
  ExtPortStats stats_;
};

} // namespace esarp::ep
