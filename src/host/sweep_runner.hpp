// SweepRunner — deterministic host-side parallelism for parameter sweeps
// and the chip mappings' host passes.
//
// Every bench in this repo runs dozens of *independent* `ep::Machine`
// simulations (chip sizes, core counts, algorithm variants). A Machine is
// self-contained — its Scheduler, Noc, ExtPort and metrics are all
// instance state — so independent runs can fan out across host threads
// without sharing anything. Inside one clean run, the FFBP and GBP
// mappings compute each level's (or the image's) pixels in one such
// fan-out too (run_pass below):
//
//   host::SweepRunner pool(jobs);           // jobs <= 0: hardware width
//   auto results = pool.run(n, [&](std::size_t i) { return simulate(i); });
//
// Every SweepRunner shares one process-wide set of persistent workers:
// at most hardware_concurrency() - 1 of them, started on first demand and
// blocked on a condition variable while idle. A run takes indices from one
// atomic counter on the calling thread and on up to jobs() - 1 workers.
// A run started on a worker, or on a calling thread that is taking part
// in a parallel run, executes inline, so a pass inside a parallel sweep
// cannot oversubscribe the host. jobs() == 1 always runs inline.
//
// Determinism contract: `fn(i)` must depend only on `i` (no shared mutable
// state, no wall-clock, no global RNG). Results are collected by task
// index, so the returned vector — and anything derived from it, like run
// manifests — is byte-identical for any thread count, including 1. The
// tests in tests/test_sweep_runner.cpp enforce this.
//
// Simulated time is untouched: each Machine keeps its own virtual clock,
// so parallel sweeps change host wall-clock only, never simulated cycles.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace esarp::host {

/// Number of worker threads a sweep should use: the `ESARP_JOBS`
/// environment variable when set (>= 1), otherwise `fallback`, otherwise
/// (fallback <= 0) the hardware concurrency.
[[nodiscard]] int sweep_jobs_from_env(int fallback = 1);

class SweepRunner {
public:
  /// `jobs` <= 0 selects std::thread::hardware_concurrency().
  explicit SweepRunner(int jobs = 0);

  [[nodiscard]] int jobs() const { return jobs_; }

  /// Run `fn(0) ... fn(n-1)` on the calling thread and the shared workers
  /// and return the results in index order regardless of completion order
  /// (nothing for a `void` fn). Inline runs (jobs() == 1, n <= 1, or a run
  /// started inside another parallel run) are the reference schedule the
  /// parallel ones must reproduce. In a parallel run the first exception
  /// any task throws is rethrown once every claimed index has finished;
  /// no index is claimed after it.
  template <typename Fn> auto run(std::size_t n, Fn&& fn) {
    using R = std::invoke_result_t<Fn&, std::size_t>;
    if constexpr (std::is_void_v<R>) {
      auto each = [&](std::size_t i) { fn(i); };
      dispatch(n, &call<decltype(each)>, &each);
    } else {
      std::vector<std::optional<R>> slots(n);
      auto fill = [&](std::size_t i) { slots[i].emplace(fn(i)); };
      dispatch(n, &call<decltype(fill)>, &fill);
      std::vector<R> out;
      out.reserve(n);
      for (std::optional<R>& s : slots) {
        ESARP_ENSURES(s.has_value());
        out.push_back(std::move(*s));
      }
      return out;
    }
  }

  /// Workers the shared pool has started so far (never more than
  /// hardware_concurrency() - 1).
  [[nodiscard]] static int workers_started();

private:
  template <typename Fn> static void call(void* fn, std::size_t i) {
    (*static_cast<Fn*>(fn))(i);
  }
  void dispatch(std::size_t n, void (*invoke)(void*, std::size_t),
                void* fn) const;

  int jobs_;
};

/// Work (merged pixels, GBP pulse contributions, referenced samples) at or
/// below which run_pass runs as one chunk on the calling thread; above it,
/// the pass splits into ceil(work / kPassGrain) chunks. 2^16 keeps the
/// serve fleet's 64x101 clean runs (6,464 pixels a level) inline: waking
/// workers for a pass that small costs more than it saves.
inline constexpr std::size_t kPassGrain = std::size_t{1} << 16;

/// Run `body(begin, end)` over contiguous chunks that tile [0, n_items),
/// `work_per_item` work each, on every host core (SweepRunner at hardware
/// width). Chunks never share an item, so bodies that write only their
/// items' outputs need no lock.
template <typename Body>
void run_pass(std::size_t n_items, std::size_t work_per_item, Body&& body) {
  const std::size_t work = n_items * work_per_item;
  const std::size_t chunks =
      std::min(n_items, (work + kPassGrain - 1) / kPassGrain);
  if (chunks <= 1) {
    body(std::size_t{0}, n_items);
    return;
  }
  SweepRunner().run(chunks, [&](std::size_t c) {
    body(c * n_items / chunks, (c + 1) * n_items / chunks);
  });
}

} // namespace esarp::host
