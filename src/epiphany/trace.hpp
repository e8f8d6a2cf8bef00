// Execution tracing for the simulated chip.
//
// When enabled (Machine::enable_tracing), every timed activity — compute
// blocks, external-memory stalls, DMA waits, channel blocking, barrier
// waits — is recorded as a per-core segment. On top of the raw segments the
// tracer records two richer event kinds:
//
//   - named, nestable spans (push_span/pop_span): phase annotations such as
//     "merge-iter/7" or "criterion-block/3" emitted by the SAR core
//     mappings. Spans nest per core (a per-core open-span stack) and export
//     as enclosing slices above the segment slices of the same core track.
//   - counter tracks (counter_track/counter): time-series samples such as
//     the ext-port read-channel backlog, exported as Chrome counter events
//     so Perfetto draws them as a graph under the core tracks.
//
// Traces export to the Chrome tracing JSON format (load in
// chrome://tracing or https://ui.perfetto.dev) for visual inspection of
// pipeline behaviour, prefetch stalls and barrier imbalance.
//
// Lifecycle: a Tracer is usually owned by its Machine, but a caller may
// construct one externally and hand it to several consecutive Machines
// (Machine's tracer parameter), accumulating one combined trace — or call
// clear() between runs for one trace per run. clear() drops all recorded
// segments/spans/samples and any open span stacks but keeps the enabled
// flag and registered counter-track names, so instrumented components can
// cache track ids across runs. A Machine never clears a tracer it did not
// create.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "epiphany/config.hpp"

namespace esarp::ep {

enum class SegmentKind : std::uint8_t {
  kCompute,
  kExtRead,     ///< blocking SDRAM read stall
  kExtWrite,    ///< posted-write issue (incl. backpressure stall)
  kDmaWait,     ///< waiting on a DMA completion
  kChanSend,    ///< blocked in Channel::send (FIFO full) + injection
  kChanRecv,    ///< blocked in Channel::recv (FIFO empty / in flight)
  kBarrier,
};

[[nodiscard]] constexpr const char* to_string(SegmentKind k) {
  switch (k) {
    case SegmentKind::kCompute: return "compute";
    case SegmentKind::kExtRead: return "ext-read";
    case SegmentKind::kExtWrite: return "ext-write";
    case SegmentKind::kDmaWait: return "dma-wait";
    case SegmentKind::kChanSend: return "chan-send";
    case SegmentKind::kChanRecv: return "chan-recv";
    case SegmentKind::kBarrier: return "barrier";
  }
  return "?";
}

struct TraceSegment {
  int core;
  SegmentKind kind;
  Cycles start;
  Cycles end;
};

/// A closed named span on one core's track. `depth` is the nesting level at
/// which it was opened (0 = outermost).
struct TraceSpan {
  int core;
  std::string name;
  Cycles start;
  Cycles end;
  int depth;
};

/// One sample of a counter track.
struct CounterSample {
  int track; ///< id from counter_track()
  Cycles time;
  double value;
};

class Tracer {
public:
  void enable() { enabled_ = true; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Record a segment [start, end) on `core`. No-op while disabled or for
  /// empty segments.
  void add(int core, SegmentKind kind, Cycles start, Cycles end) {
    if (!enabled_ || end <= start) return;
    segments_.push_back({core, kind, start, end});
  }

  // --- Named spans -------------------------------------------------------

  /// Open a span named `name` on `core` at time `start`. Spans nest: pops
  /// close the innermost open span. No-op while disabled.
  void push_span(int core, std::string name, Cycles start);

  /// Close the innermost open span on `core` at time `end`. No-op while
  /// disabled or when no span is open (so callers need no disabled-path
  /// bookkeeping).
  void pop_span(int core, Cycles end);

  /// Number of currently open spans on `core`.
  [[nodiscard]] std::size_t open_spans(int core) const;

  // --- Counter tracks ----------------------------------------------------

  /// Register (find-or-create) a counter track; returns its id. Track
  /// names survive clear().
  int counter_track(const std::string& name);

  /// Record one sample on `track` (from counter_track). No-op while
  /// disabled. Samples need not be time-ordered; export sorts them.
  void counter(int track, Cycles time, double value) {
    if (!enabled_) return;
    samples_.push_back({track, time, value});
  }

  [[nodiscard]] const std::vector<TraceSegment>& segments() const {
    return segments_;
  }
  [[nodiscard]] const std::vector<TraceSpan>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<CounterSample>& counter_samples() const {
    return samples_;
  }
  [[nodiscard]] std::size_t size() const { return segments_.size(); }

  /// Drop all recorded events and open-span stacks; keeps the enabled flag
  /// and registered counter-track names (see lifecycle note above). Call
  /// between reuses when each run should produce a separate trace.
  void clear();

  /// Write the trace as Chrome tracing JSON: complete 'X' events for
  /// segments and named spans (one tid per core, named via 'M' metadata
  /// events), 'C' counter events for the counter tracks; timestamps in
  /// microseconds of chip time at the given clock. Spans still open are
  /// closed at the latest event time and flagged with "unclosed":true.
  void write_chrome_json(const std::filesystem::path& path,
                         double clock_hz = 1e9) const;

  /// Total traced cycles of `kind` across cores, for quick assertions.
  [[nodiscard]] Cycles total_cycles(SegmentKind kind) const;

  /// Total cycles covered by closed spans named `name` across cores.
  [[nodiscard]] Cycles total_span_cycles(const std::string& name) const;

private:
  struct OpenSpan {
    std::string name;
    Cycles start;
  };
  struct CoreStack {
    int core;
    std::vector<OpenSpan> open;
  };
  [[nodiscard]] CoreStack* find_stack(int core);
  [[nodiscard]] const CoreStack* find_stack(int core) const;

  bool enabled_ = false;
  std::vector<TraceSegment> segments_;
  std::vector<TraceSpan> spans_;
  std::vector<CounterSample> samples_;
  std::vector<std::string> track_names_;
  std::vector<CoreStack> stacks_;
};

} // namespace esarp::ep
