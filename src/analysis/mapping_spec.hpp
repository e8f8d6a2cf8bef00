// Declarative description of a mapping: what each core allocates, how the
// cores synchronise, and how much work/traffic each phase moves — enough
// for the static analyzer (analyzer.hpp) to prove legality and for the
// analytic cost model (cost_model.hpp) to predict cycles and energy
// *without running the scheduler*.
//
// The shipped mappings (FFBP SPMD, GBP SPMD, the 13-core autofocus MPMD
// pipeline, the sequential baselines) export themselves as MappingSpecs
// via src/core/mapping_desc.hpp, which `esarp lint` analyzes and
// cross-validates against full simulation. A spec can equally be built by
// hand for a mapping that does not exist yet, and analyzed the same way.
//
// Everything here is plain data on purpose: a spec is cheap to build, cheap
// to copy, and carries no reference to Machine, Scheduler or host state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/opcounts.hpp"
#include "epiphany/config.hpp"

namespace esarp::analysis {

using ep::ChipConfig;
using ep::Coord;
using ep::Cycles;

/// One local-store allocation, in program order. `bank < 0` means a plain
/// bump allocation at the cursor; `bank >= 0` mirrors
/// LocalMemory::alloc_in_bank and must respect the claim-in-order rule.
struct LocalAlloc {
  std::string name;   ///< what the buffer holds (diagnostics only)
  int bank = -1;      ///< -1: cursor; else bank index, claimed in order
  std::size_t bytes = 0;
  std::string span;   ///< tracer span / source location for diagnostics
};

/// A barrier declaration shared by several cores.
struct BarrierDecl {
  std::string name;
  int parties = 0;              ///< arity the barrier was constructed with
  std::vector<int> members;     ///< core ids expected to arrive
};

/// A typed point-to-point channel (epiphany/channel.hpp).
struct ChannelDecl {
  std::string name;
  int producer = -1;            ///< core id of the sending end
  int consumer = -1;            ///< core id owning the receive queue
  std::size_t capacity = 0;     ///< backpressure bound, in messages
  std::size_t msg_bytes = 0;    ///< sizeof the message type
};

/// One step of a core's synchronisation trace, in program order. The
/// deadlock checker executes these traces abstractly; consecutive
/// identical steps are run-length compressed via `count`.
struct SyncOp {
  enum class Kind { kBarrier, kSend, kRecv };
  Kind kind = Kind::kBarrier;
  std::size_t construct = 0;    ///< index into barriers/channels
  std::uint64_t count = 1;      ///< how many times this step repeats
  std::string span;             ///< span active when the op executes
};

/// A batch of identical CoreCtx::compute calls. Kept as (ops, count)
/// rather than summed so the model can reproduce CostModel::cycles'
/// per-call rounding exactly.
struct ComputeBlock {
  OpCounts ops;
  std::uint64_t count = 1;
};

/// `count` DMA bursts of `segments` equal segments of `seg_bytes` each
/// (CoreCtx::dma_read_ext_burst followed by wait()).
struct DmaRead {
  std::uint64_t count = 0;
  std::size_t segments = 1;
  std::size_t seg_bytes = 0;
  /// Double-buffered prefetch: the wait() lands after the overlapping
  /// compute, so the burst costs port occupancy but (mostly) no core time.
  bool overlapped = false;
};

/// `count` blocking gathers of `transactions` random reads of
/// `bytes_each` (CoreCtx::read_ext / read_ext_gather).
struct BlockingRead {
  std::uint64_t count = 0;
  std::uint64_t transactions = 1;
  std::size_t bytes_each = 0;
};

/// `count` posted off-chip writes of `bytes` (CoreCtx::write_ext).
struct PostedWrite {
  std::uint64_t count = 0;
  std::size_t bytes = 0;
};

/// `messages` sends into / receives from channel index `channel`.
struct ChannelTraffic {
  std::size_t channel = 0;
  std::uint64_t messages = 0;
};

/// One phase of a core's program: the work between two barrier crossings
/// (SPMD) or a stage's whole streaming loop (MPMD). Phases with the same
/// name across cores are assumed to run concurrently.
struct CorePhase {
  std::string name;
  std::vector<ComputeBlock> compute;
  std::vector<DmaRead> dma_reads;
  std::vector<BlockingRead> blocking_reads;
  std::vector<PostedWrite> writes;
  std::vector<ChannelTraffic> sends;
  std::vector<ChannelTraffic> recvs;
  /// Barrier crossed when the phase ends (-1: none). Used by the cost
  /// model to charge barrier overhead; legality uses the sync trace.
  int barrier = -1;
};

/// Everything the analyzer needs to know about one core.
struct CoreSpec {
  int id = -1;                  ///< flat core id (row * cols + col)
  std::string role;             ///< "merge", "range", "beam", "corr", ...
  std::vector<LocalAlloc> allocs;
  std::vector<SyncOp> sync;     ///< ordered synchronisation trace
  std::vector<CorePhase> phases;
};

/// A complete mapping over one chip configuration.
struct MappingSpec {
  std::string name;
  std::string family;           ///< "spmd" or "mpmd"
  ChipConfig cfg;
  std::vector<CoreSpec> cores;
  std::vector<BarrierDecl> barriers;
  std::vector<ChannelDecl> channels;
};

} // namespace esarp::analysis
