#include "fault/injector.hpp"

#include <algorithm>

namespace esarp::fault {

namespace {

// SplitMix64 finalizer: a full-avalanche mix of the 64-bit key built from
// (seed, site, core, counter). Stateless, so rolls for one (site, core)
// stream never depend on activity elsewhere on the chip.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

[[nodiscard]] std::uint64_t key_of(std::uint64_t seed, Site site, int core,
                                   std::uint64_t counter) {
  return seed ^ (static_cast<std::uint64_t>(site) << 56) ^
         (static_cast<std::uint64_t>(static_cast<unsigned>(core)) << 48) ^
         counter;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

// Sized for any plausible chip; rolls index counters by core id directly.
constexpr int kMaxCores = 1024;

} // namespace

FaultInjector::FaultInjector(const FaultPlan& plan,
                             telemetry::MetricsRegistry* metrics)
    : plan_(plan), metrics_(metrics), dma_ops_(kMaxCores, 0),
      noc_ops_(kMaxCores, 0), failed_(kMaxCores, false) {}

double FaultInjector::roll(std::uint64_t seed, Site site, int core,
                           std::uint64_t counter) {
  const std::uint64_t x = mix64(key_of(seed, site, core, counter));
  // Top 53 bits -> uniform double in [0, 1).
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

std::optional<Site> FaultInjector::fired(const FaultPlan& plan, Site stream,
                                         double r) {
  if (stream == Site::kNocStall) {
    if (r < plan.noc_stall_rate) return Site::kNocStall;
    return std::nullopt;
  }
  if (r < plan.dma_drop_rate) return Site::kDmaDrop;
  if (r < plan.dma_drop_rate + plan.dma_corrupt_rate) return Site::kDmaCorrupt;
  if (r < plan.dma_drop_rate + plan.dma_corrupt_rate + plan.membits_rate)
    return Site::kMemBits;
  return std::nullopt;
}

void FaultInjector::record(Site site, int core, std::uint64_t index,
                           std::uint64_t cycle) {
  log_.push_back({site, core, index, cycle});
  totals_.injected++;
  if (metrics_ != nullptr) {
    metrics_->counter(telemetry::labeled("fault.injected",
                                         {{"site", to_string(site)}}))
        .add();
  }
}

TransferFault FaultInjector::on_transfer(int core, void* dst,
                                         std::size_t bytes,
                                         std::uint64_t cycle) {
  if (core < 0 || core >= kMaxCores || bytes == 0) {
    return TransferFault::kNone;
  }
  const std::uint64_t n = dma_ops_[static_cast<std::size_t>(core)]++;
  const std::optional<Site> site = fired(
      plan_, Site::kDmaCorrupt, roll(plan_.seed, Site::kDmaCorrupt, core, n));
  if (!site) return TransferFault::kNone;
  record(*site, core, n, cycle);
  auto* p = static_cast<unsigned char*>(dst);
  if (*site == Site::kDmaDrop) {
    // The engine copies payloads eagerly, so a "never delivered" transfer
    // must leave observably wrong bytes behind (stale-buffer model): scrub
    // a deterministic window of the destination.
    const std::uint64_t at =
        mix64(key_of(plan_.seed + 4, Site::kDmaDrop, core, n)) % bytes;
    const std::size_t span = std::min<std::size_t>(bytes, 8);
    for (std::size_t i = 0; i < span; ++i) {
      p[(at + i) % bytes] ^= 0xffU;
    }
    return TransferFault::kDropped;
  }
  if (*site == Site::kDmaCorrupt) {
    // Flip a deterministic byte (and its neighbor for multi-byte payloads)
    // so checksum verification always detects the corruption.
    const std::uint64_t at = mix64(key_of(plan_.seed + 1, Site::kDmaCorrupt,
                                          core, n)) %
                             bytes;
    p[at] ^= 0xa5U;
    if (bytes > 1) {
      p[(at + 1) % bytes] ^= 0x5aU;
    }
    return TransferFault::kCorrupt;
  }
  // Site::kMemBits: one bit of one byte.
  const std::uint64_t at = mix64(key_of(plan_.seed + 2, Site::kMemBits,
                                        core, n)) %
                           bytes;
  const unsigned bit = static_cast<unsigned>(
      mix64(key_of(plan_.seed + 3, Site::kMemBits, core, n)) % 8);
  p[at] ^= static_cast<unsigned char>(1U << bit);
  return TransferFault::kCorrupt;
}

std::uint64_t FaultInjector::noc_stall(int core, std::uint64_t cycle) {
  if (plan_.noc_stall_rate <= 0.0 || core < 0 || core >= kMaxCores) {
    return 0;
  }
  const std::uint64_t n = noc_ops_[static_cast<std::size_t>(core)]++;
  if (fired(plan_, Site::kNocStall,
            roll(plan_.seed, Site::kNocStall, core, n))) {
    record(Site::kNocStall, core, n, cycle);
    return kNocStallCycles;
  }
  return 0;
}

bool FaultInjector::rolls_fire(const FaultPlan& plan,
                               const FaultSummary& silent) {
  const auto stream_fires = [&](Site stream,
                                const std::vector<std::uint64_t>& lengths) {
    for (std::size_t c = 0; c < lengths.size(); ++c) {
      const int core = static_cast<int>(c);
      for (std::uint64_t n = 0; n < lengths[c]; ++n) {
        if (fired(plan, stream, roll(plan.seed, stream, core, n))) return true;
      }
    }
    return false;
  };
  return stream_fires(Site::kDmaCorrupt, silent.transfer_rolls) ||
         stream_fires(Site::kNocStall, silent.noc_rolls);
}

bool FaultInjector::fail_stop_due(int core, std::uint64_t cycle) const {
  return std::any_of(plan_.fail_stops.begin(), plan_.fail_stops.end(),
                     [&](const FailStop& f) {
                       return f.core == core && f.cycle <= cycle;
                     });
}

void FaultInjector::mark_failed(int core, std::uint64_t cycle) {
  if (core < 0 || core >= kMaxCores ||
      failed_[static_cast<std::size_t>(core)]) {
    return;
  }
  failed_[static_cast<std::size_t>(core)] = true;
  record(Site::kFailStop, core, 0, cycle);
  totals_.failed_cores++;
  if (metrics_ != nullptr) {
    metrics_->gauge("fault.failed_cores")
        .set(static_cast<double>(totals_.failed_cores));
  }
}

bool FaultInjector::marked_failed(int core) const {
  return core >= 0 && core < kMaxCores &&
         failed_[static_cast<std::size_t>(core)];
}

void FaultInjector::mark_chip_failed(std::uint64_t cycle) {
  if (chip_failed_) {
    return;
  }
  chip_failed_ = true;
  record(Site::kChipFailStop, /*core=*/-1, 0, cycle);
  totals_.failed_chips = 1;
  if (metrics_ != nullptr) {
    metrics_->gauge("fault.failed_chips").set(1.0);
  }
}

void FaultInjector::count_detected(Site site) {
  totals_.detected++;
  if (site == Site::kFailStop) totals_.fail_stops_detected++;
  if (metrics_ != nullptr) {
    metrics_->counter(telemetry::labeled("fault.detected",
                                         {{"site", to_string(site)}}))
        .add();
  }
}

void FaultInjector::count_faulted_transfer() { totals_.faulted_transfers++; }

void FaultInjector::count_recovered(Site site, std::uint64_t recovery_cycles) {
  totals_.recovered++;
  totals_.recovery_cycles += recovery_cycles;
  if (metrics_ != nullptr) {
    metrics_->counter(telemetry::labeled("fault.recovered",
                                         {{"site", to_string(site)}}))
        .add();
    metrics_->counter("fault.recovery_cycles").add(recovery_cycles);
  }
}

void FaultInjector::count_retry() {
  totals_.retries++;
  if (metrics_ != nullptr) {
    metrics_->counter("fault.retries").add();
  }
}

void FaultInjector::count_repartition(std::uint64_t surviving_cores) {
  totals_.repartitions++;
  if (metrics_ != nullptr) {
    metrics_->counter("fault.repartitions").add();
    metrics_->gauge("fault.surviving_cores")
        .set(static_cast<double>(surviving_cores));
  }
}

void FaultInjector::count_af_window_dropped() {
  totals_.af_windows_dropped++;
  if (metrics_ != nullptr) {
    metrics_->counter("fault.af_windows_dropped").add();
  }
}

void FaultInjector::count_af_pair_dropped() {
  totals_.af_pairs_dropped++;
  if (metrics_ != nullptr) {
    metrics_->counter("fault.af_pairs_dropped").add();
  }
}

std::uint64_t FaultInjector::schedule_hash() const {
  std::uint64_t h = kFnvOffset;
  auto mix_in = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= kFnvPrime;
    }
  };
  for (const FaultRecord& r : log_) {
    mix_in(static_cast<std::uint64_t>(r.site));
    mix_in(static_cast<std::uint64_t>(static_cast<unsigned>(r.core)));
    mix_in(r.index);
    mix_in(r.cycle);
  }
  return h;
}

FaultSummary FaultInjector::summary() const {
  FaultSummary s = totals_;
  s.schedule_hash = schedule_hash();
  const auto drawn = [](const std::vector<std::uint64_t>& ops) {
    auto last = std::find_if(ops.rbegin(), ops.rend(),
                             [](std::uint64_t n) { return n != 0; });
    return std::vector<std::uint64_t>(ops.begin(), last.base());
  };
  s.transfer_rolls = drawn(dma_ops_);
  s.noc_rolls = drawn(noc_ops_);
  return s;
}

std::uint64_t FaultInjector::checksum(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

} // namespace esarp::fault
