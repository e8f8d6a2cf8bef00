// Discrete-event scheduler driving the simulated chip.
//
// A single global virtual clock (in core cycles); coroutine handles are
// resumed in (time, insertion-order) order. Everything in the simulation is
// event-driven, so an empty queue means quiescence.
//
// The queue is one binary min-heap on (time, seq). Each core's program is
// one coroutine chain with at most one queued event, so the heap never
// holds more events than the chip has programs (docs/performance.md).
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "epiphany/config.hpp"

namespace esarp::ep {

/// Thrown when run(max_cycles) trips the watchdog. Derives from
/// ContractViolation (the historic type) so existing catch sites keep
/// working, but carries the clock state so Machine::run and the CLI can
/// report *where* the simulation ran away (cycle + pending events).
class WatchdogExpired : public ContractViolation {
public:
  WatchdogExpired(Cycles cycle, std::size_t pending,
                  const std::string& detail = "")
      : ContractViolation("simulation exceeded the max_cycles watchdog at "
                          "cycle " +
                          std::to_string(cycle) + " with " +
                          std::to_string(pending) + " pending events" +
                          detail),
        cycle_(cycle), pending_(pending) {}

  [[nodiscard]] Cycles cycle() const { return cycle_; }
  [[nodiscard]] std::size_t pending_events() const { return pending_; }

private:
  Cycles cycle_;
  std::size_t pending_;
};

class Scheduler {
public:
  [[nodiscard]] Cycles now() const { return now_; }

  /// Resume `h` at absolute cycle `t` (>= now). An event at `now` gets a
  /// larger seq than every event already queued, so it runs after them.
  void schedule_at(Cycles t, std::coroutine_handle<> h) {
    ESARP_EXPECTS(t >= now_);
    ESARP_EXPECTS(h && !h.done());
    heap_.push_back(Event{t, seq_++, h});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Resume `h` immediately after currently-runnable work at this cycle.
  void schedule_now(std::coroutine_handle<> h) { schedule_at(now_, h); }

  /// Enable/disable the batched-quantum fast path (docs/performance.md).
  /// Off by default so a bare Scheduler still counts one resume per delay;
  /// the Machine switches it on per ChipConfig::batch_quanta.
  void set_batching(bool on) { batching_ = on; }

  /// Batched-quantum fast path: when the currently running coroutine is
  /// provably the only work that can run before `now + dt` — every queued
  /// event lies strictly beyond the target — a pure delay advances the
  /// clock inline and the coroutine keeps running, instead of suspending
  /// into the queue and being resumed as a fresh event. Returns true iff
  /// the clock advanced.
  ///
  /// Bit-identity argument: the refusal conditions guarantee no other
  /// coroutine could have been resumed in the skipped window (an event at
  /// exactly the target cycle was scheduled earlier, so it has a smaller
  /// seq and must run first — hence the strict `<=` refusal; an event
  /// still due at `now` refuses too), the continuing coroutine observes the
  /// same now(), and the relative seq order of everything still queued is
  /// unchanged. The watchdog contract is preserved by refusing to cross
  /// the active run() limit: the delay then goes through the queue and
  /// trips the exclusive bound exactly as per-event stepping does. Only
  /// events_processed() shrinks — that drop is the engine speedup this
  /// path exists for.
  bool try_advance_inline(Cycles dt) {
    if (!batching_ || dt == 0) return false;
    const Cycles target = now_ + dt;
    if (limit_ != 0 && target >= limit_) return false;
    if (!heap_.empty() && heap_.front().time <= target) return false;
    now_ = target;
    ++quanta_batched_;
    return true;
  }

  /// Delays the fast path absorbed without a scheduler event (engine
  /// telemetry: `engine_quanta_batched` in run manifests).
  [[nodiscard]] std::uint64_t quanta_batched() const {
    return quanta_batched_;
  }

  /// Run until the event queue drains. Returns the final cycle count.
  ///
  /// `max_cycles` (0 = unlimited) is a watchdog against runaway
  /// simulations and is an *exclusive* upper bound on simulated time: the
  /// run throws as soon as an event at cycle >= max_cycles is about to be
  /// processed, i.e. a healthy simulation must finish with
  /// `now() < max_cycles`. The boundary event itself is never resumed.
  Cycles run(Cycles max_cycles = 0) {
    // The fast path must not batch a quantum across the watchdog bound, so
    // the active limit is visible to try_advance_inline for the duration.
    limit_ = max_cycles;
    while (!heap_.empty()) {
      if (max_cycles != 0 && heap_.front().time >= max_cycles) {
        now_ = heap_.front().time;
        throw WatchdogExpired(now_, pending_events());
      }
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      const Event ev = heap_.back();
      heap_.pop_back();
      now_ = ev.time;
      ++events_processed_;
      ev.handle.resume();
    }
    limit_ = 0;
    return now_;
  }

  /// Events queued but not yet resumed; reported in watchdog and deadlock
  /// diagnostics.
  [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }

  /// Events resumed since construction; the engine throughput denominator
  /// reported in run manifests as events/sec.
  [[nodiscard]] std::uint64_t events_processed() const {
    return events_processed_;
  }

private:
  struct Event {
    Cycles time;
    std::uint64_t seq; ///< FIFO tie-break for equal timestamps
    std::coroutine_handle<> handle;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  Cycles now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t quanta_batched_ = 0;
  bool batching_ = false;
  Cycles limit_ = 0; ///< active run() watchdog bound (0 = unlimited)
  std::vector<Event> heap_; ///< min-heap on (time, seq) via Later
};

} // namespace esarp::ep
