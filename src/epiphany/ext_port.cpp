#include "epiphany/ext_port.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "epiphany/power.hpp"

namespace esarp::ep {

Cycles ExtPort::blocking_read(Coord core, std::uint64_t transactions,
                              std::size_t bytes_each, Cycles now) {
  ESARP_EXPECTS(transactions > 0 && bytes_each > 0);
  // Request travels the rMesh to the port; the reply returns the same
  // distance. The core blocks, so each transaction pays the full round trip
  // plus its slice of the SDRAM read channel.
  const Cycles hops =
      static_cast<Cycles>(hop_distance(core, port_coord_)) * cfg_.hop_latency;
  const Cycles ser = cfg_.cycles_for_bytes_on_elink(bytes_each);
  // Model the n-transaction sequence as one reservation: the SDRAM read
  // channel is occupied for the random-access occupancy (closed-page
  // activate + CAS) or the serialisation time per transaction, whichever
  // is longer — concurrent gathers from many cores queue here. The core
  // additionally pays the full round trip (mesh hops both ways + SDRAM
  // latency + data serialisation) per transaction, since it blocks on
  // each one (no pipelining).
  const Cycles occupancy = std::max(ser, cfg_.ext_random_occupancy);
  const Cycles start = read_chan_.acquire(
      now, transactions * occupancy, transactions * bytes_each);
  const Cycles t =
      start + transactions * (cfg_.ext_read_latency + ser + 2 * hops);
  // Record the route once on the rMesh for congestion stats (requests are
  // 8-byte packets; replies carry the data).
  noc_.transfer(core, port_coord_, transactions * bytes_each, now, Mesh::kRead);
  stats_.read_transactions += transactions;
  stats_.read_bytes += transactions * bytes_each;
  if (power_ != nullptr)
    power_->record_elink(core_id(core), transactions * bytes_each, start,
                         start + transactions * occupancy);
  if (read_stall_hist_ != nullptr)
    read_stall_hist_->observe(static_cast<double>(t - now));
  sample_backlog(read_backlog_track_, read_chan_, now);
  return t;
}

Cycles ExtPort::dma_read(Coord core, std::size_t bytes, Cycles now) {
  ESARP_EXPECTS(bytes > 0);
  const Cycles hops =
      static_cast<Cycles>(hop_distance(core, port_coord_)) * cfg_.hop_latency;
  const Cycles ser = cfg_.cycles_for_bytes_on_elink(bytes);
  const Cycles start = read_chan_.acquire(now + cfg_.dma_setup_cycles, ser,
                                          bytes);
  // The DMA payload streams from the port toward the requesting core, so
  // the requester (not the port's node) owns the byte-hop energy.
  noc_.transfer(port_coord_, core, bytes, start, Mesh::kRead, core);
  stats_.read_transactions += 1;
  stats_.read_bytes += bytes;
  if (power_ != nullptr)
    power_->record_elink(core_id(core), bytes, start, start + ser);
  // Queueing delay ahead of this DMA burst (beyond the fixed setup cost).
  if (dma_queue_hist_ != nullptr)
    dma_queue_hist_->observe(
        static_cast<double>(start - (now + cfg_.dma_setup_cycles)));
  sample_backlog(read_backlog_track_, read_chan_, now);
  return start + cfg_.ext_read_latency + ser + hops;
}

Cycles ExtPort::dma_read_burst(Coord core,
                               std::span<const std::size_t> seg_bytes,
                               Cycles now) {
  ESARP_EXPECTS(!seg_bytes.empty());
  // Each segment is a separate DMA descriptor: it pays its own setup and
  // serialises on the SDRAM read channel behind its predecessors, exactly
  // as if the segments had been issued one dma_read call at a time. The
  // burst only changes how many *scheduler* events the waiting core needs.
  Cycles done = now;
  for (std::size_t bytes : seg_bytes)
    done = std::max(done, dma_read(core, bytes, now));
  return done;
}

Cycles ExtPort::posted_write(Coord core, std::size_t bytes, Cycles now) {
  ESARP_EXPECTS(bytes > 0);
  // Core-side cost: stores issue at one double word per cycle.
  const Cycles issue =
      std::max<Cycles>(cfg_.ext_write_issue,
                       cfg_.cycles_for_bytes_on_elink(bytes));
  const Cycles ser = cfg_.cycles_for_bytes_on_elink(bytes);
  const Cycles start = write_chan_.acquire(now, ser, bytes);
  noc_.transfer(core, port_coord_, bytes, now, Mesh::kOffChipWrite);
  stats_.write_transactions += 1;
  stats_.write_bytes += bytes;
  if (power_ != nullptr)
    power_->record_elink(core_id(core), bytes, start, start + ser);
  // Backpressure: if the write channel is backlogged beyond the buffering
  // allowance, the core stalls until the backlog shrinks to the allowance.
  const Cycles backlog_end = start + ser;
  const Cycles unstalled_done = now + issue;
  Cycles done = unstalled_done;
  if (backlog_end > unstalled_done + kPostedBacklogAllowance)
    done = backlog_end - kPostedBacklogAllowance;
  if (write_backpressure_hist_ != nullptr)
    write_backpressure_hist_->observe(
        static_cast<double>(done - unstalled_done));
  sample_backlog(write_backlog_track_, write_chan_, now);
  return done;
}

} // namespace esarp::ep
