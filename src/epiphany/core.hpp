// Per-core simulation state: local store, performance counters, status.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/opcounts.hpp"
#include "epiphany/config.hpp"
#include "epiphany/local_memory.hpp"

namespace esarp::ep {

/// Dense id of a span name interned in a Machine's SpanNames.
using SpanId = std::uint32_t;

/// The span names one Machine has seen, each interned once when a core
/// first opens it (CoreCtx::begin_span). Live span stacks hold ids, so the
/// power sampler charges activity by indexing a vector; names are read
/// only when a report or a diagnostic prints them.
class SpanNames {
public:
  /// The id of `name`, assigned on its first use.
  SpanId intern(const std::string& name) {
    const auto [it, added] =
        ids_.try_emplace(name, static_cast<SpanId>(names_.size()));
    if (added) names_.push_back(&it->first);
    return it->second;
  }
  /// The name interned as `id`.
  [[nodiscard]] const std::string& name(SpanId id) const {
    return *names_[id];
  }
  /// Every interned name with its id, in name order.
  [[nodiscard]] const std::map<std::string, SpanId>& by_name() const {
    return ids_;
  }

private:
  std::map<std::string, SpanId> ids_;
  std::vector<const std::string*> names_; ///< keys of ids_, by SpanId
};

enum class CoreState : std::uint8_t {
  kIdle,        ///< launched but not yet started
  kRunning,
  kWaitChannel, ///< blocked in Channel::send/recv
  kWaitBarrier,
  kDone,
  kFailed, ///< fail-stop fault observed; no further simulated work
};

[[nodiscard]] constexpr const char* to_string(CoreState s) {
  switch (s) {
    case CoreState::kIdle: return "idle";
    case CoreState::kRunning: return "running";
    case CoreState::kWaitChannel: return "wait-channel";
    case CoreState::kWaitBarrier: return "wait-barrier";
    case CoreState::kDone: return "done";
    case CoreState::kFailed: return "failed";
  }
  return "?";
}

struct CoreCounters {
  Cycles busy = 0;         ///< cycles spent in compute blocks
  Cycles ext_stall = 0;    ///< cycles stalled on blocking external reads
  Cycles dma_wait = 0;     ///< cycles waiting for DMA completion
  Cycles chan_wait = 0;    ///< cycles blocked on channel send/recv
  Cycles barrier_wait = 0; ///< cycles blocked in barriers
  Cycles finish_time = 0;  ///< cycle at which the core program returned

  OpCounts ops; ///< accumulated arithmetic/memory work

  std::uint64_t ext_read_bytes = 0;
  std::uint64_t ext_write_bytes = 0;
  std::uint64_t dma_transfers = 0;
  std::uint64_t dma_bytes = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t msg_bytes_sent = 0;

  [[nodiscard]] Cycles total_wait() const {
    return ext_stall + dma_wait + chan_wait + barrier_wait;
  }
};

class Core {
public:
  Core(int id, Coord coord, const ChipConfig& cfg)
      : id_(id), coord_(coord), mem_(cfg.local_mem_bytes, cfg.local_banks) {}

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] Coord coord() const { return coord_; }
  [[nodiscard]] LocalMemory& mem() { return mem_; }
  [[nodiscard]] const LocalMemory& mem() const { return mem_; }

  CoreCounters counters;
  CoreState state = CoreState::kIdle;

  /// Live span nesting as interned ids (pushed/popped by
  /// CoreCtx::begin_span/end_span, independent of tracing or checking).
  /// The power sampler charges activity to the innermost id, and deadlock
  /// and watchdog diagnostics name the phase each blocked core was in.
  std::vector<SpanId> spans;

private:
  int id_;
  Coord coord_;
  LocalMemory mem_;
};

} // namespace esarp::ep
