// eGrid network-on-chip model.
//
// Three physically separate 2-D meshes (paper Section III): cMesh for
// on-chip writes, xMesh for writes heading off-chip, rMesh for read
// transactions. XY (row-first) dimension-ordered routing, one cycle of
// latency per routing node, 8 bytes per cycle per directed link. Links are
// modelled as busy-until resources, so overlapping transfers that share a
// link serialise — the mechanism behind the paper's mapping optimisation
// ("avoids transactions with distant cores").
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "epiphany/config.hpp"
#include "fault/injector.hpp"

namespace esarp::ep {

class PowerSampler;

enum class Mesh : std::uint8_t {
  kOnChipWrite = 0, ///< cMesh
  kOffChipWrite = 1, ///< xMesh
  kRead = 2,         ///< rMesh
};
inline constexpr int kMeshCount = 3;

/// A time-serialised shared resource (a directed NoC link, an eLink port).
struct BusyResource {
  Cycles free_at = 0;
  std::uint64_t total_busy = 0;
  std::uint64_t total_bytes = 0;

  /// Reserve the resource for `duration` starting no earlier than
  /// `earliest`; returns the actual start time.
  Cycles acquire(Cycles earliest, Cycles duration, std::uint64_t bytes) {
    const Cycles start = free_at > earliest ? free_at : earliest;
    free_at = start + duration;
    total_busy += duration;
    total_bytes += bytes;
    return start;
  }
};

struct NocStats {
  std::uint64_t transfers = 0;
  std::uint64_t bytes = 0;
  std::uint64_t byte_hops = 0; ///< sum over transfers of bytes * hops (energy)
  Cycles max_link_busy = 0;
};

class Noc {
public:
  explicit Noc(const ChipConfig& cfg);

  /// Route a `bytes`-byte message src -> dst on `mesh`, starting no earlier
  /// than `now`. Acquires every directed link on the XY path and returns the
  /// delivery completion time. src == dst returns `now` (local access).
  /// On a fault campaign an injected link stall delays the start (the first
  /// link on the path is held busy for the stall, so contention propagates
  /// exactly like a slow neighbour).
  Cycles transfer(Coord src, Coord dst, std::size_t bytes, Cycles now,
                  Mesh mesh) {
    return transfer(src, dst, bytes, now, mesh, src);
  }

  /// transfer() with an explicit *initiating* core for power attribution.
  /// Usually the initiator is the source, but read-style transactions move
  /// data toward the core that asked for it (read_remote replies, DMA reads
  /// from the eLink), so those sites name the requester explicitly. The
  /// routed direction — and therefore every simulated-time effect — is
  /// unchanged; the initiator only decides whose epoch bins and spans the
  /// byte-hop energy lands in.
  Cycles transfer(Coord src, Coord dst, std::size_t bytes, Cycles now,
                  Mesh mesh, Coord initiator);

  /// Attach a fault campaign (nullptr = none). Owned by the Machine.
  void set_injector(fault::FaultInjector* injector) { injector_ = injector; }

  /// Attach the power-telemetry sampler (nullptr = none; owned by the
  /// Machine). Pure host-side accounting — simulated time is unaffected.
  void set_power_sampler(PowerSampler* sampler) { power_ = sampler; }

  /// Completion time a transfer would have without reserving anything.
  [[nodiscard]] Cycles probe(Coord src, Coord dst, std::size_t bytes,
                             Cycles now, Mesh mesh) const;

  [[nodiscard]] NocStats stats(Mesh mesh) const;
  [[nodiscard]] NocStats stats_total() const;

  /// Per-link occupancy snapshot for congestion heatmaps: one entry per
  /// directed link that carried traffic on `mesh`.
  struct LinkUsage {
    Coord node;
    char direction; ///< 'E','W','S','N'
    std::uint64_t bytes;
    Cycles busy;
  };
  [[nodiscard]] std::vector<LinkUsage> link_usage(Mesh mesh) const;

  void reset_stats();

private:
  // Directed link leaving node (r,c) in direction d (0=E,1=W,2=S,3=N).
  [[nodiscard]] std::size_t link_index(Coord node, int dir) const;
  /// Appends the link indices of the XY route src->dst to `out`.
  void route(Coord src, Coord dst, std::vector<std::size_t>& out) const;
  /// Memoized XY route src->dst (routes are static, so each pair is
  /// computed once and reused by every later transfer/probe).
  [[nodiscard]] const std::vector<std::size_t>& cached_route(Coord src,
                                                             Coord dst) const;

  ChipConfig cfg_;
  fault::FaultInjector* injector_ = nullptr;
  PowerSampler* power_ = nullptr;
  std::array<std::vector<BusyResource>, kMeshCount> links_;
  std::array<NocStats, kMeshCount> stats_;
  /// Route cache indexed by src * n_nodes + dst; an empty vector means
  /// "not computed yet" (src == dst never reaches the cache).
  mutable std::vector<std::vector<std::size_t>> route_cache_;
};

} // namespace esarp::ep
