#include "epiphany/noc.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "epiphany/power.hpp"

namespace esarp::ep {

Noc::Noc(const ChipConfig& cfg) : cfg_(cfg) {
  const std::size_t n_links =
      static_cast<std::size_t>(cfg_.rows) * cfg_.cols * 4;
  for (auto& mesh : links_) mesh.assign(n_links, BusyResource{});
  const std::size_t n_nodes = static_cast<std::size_t>(cfg_.rows) * cfg_.cols;
  route_cache_.resize(n_nodes * n_nodes);
}

const std::vector<std::size_t>& Noc::cached_route(Coord src, Coord dst) const {
  const std::size_t n_nodes = static_cast<std::size_t>(cfg_.rows) * cfg_.cols;
  const std::size_t key =
      (static_cast<std::size_t>(src.row) * cfg_.cols + src.col) * n_nodes +
      static_cast<std::size_t>(dst.row) * cfg_.cols + dst.col;
  std::vector<std::size_t>& cached = route_cache_[key];
  if (cached.empty()) route(src, dst, cached);
  return cached;
}

std::size_t Noc::link_index(Coord node, int dir) const {
  ESARP_EXPECTS(node.row >= 0 && node.row < cfg_.rows);
  ESARP_EXPECTS(node.col >= 0 && node.col < cfg_.cols);
  ESARP_EXPECTS(dir >= 0 && dir < 4);
  return (static_cast<std::size_t>(node.row) * cfg_.cols + node.col) * 4 + dir;
}

void Noc::route(Coord src, Coord dst, std::vector<std::size_t>& out) const {
  out.clear();
  Coord cur = src;
  // X (column) first, matching Epiphany's row-then-column... the eMesh
  // routes along the row (east/west) first, then the column.
  while (cur.col != dst.col) {
    const int dir = dst.col > cur.col ? 0 /*E*/ : 1 /*W*/;
    out.push_back(link_index(cur, dir));
    cur.col += dst.col > cur.col ? 1 : -1;
  }
  while (cur.row != dst.row) {
    const int dir = dst.row > cur.row ? 2 /*S*/ : 3 /*N*/;
    out.push_back(link_index(cur, dir));
    cur.row += dst.row > cur.row ? 1 : -1;
  }
}

Cycles Noc::transfer(Coord src, Coord dst, std::size_t bytes, Cycles now,
                     Mesh mesh, Coord initiator) {
  if (src == dst || bytes == 0) return now;
  auto& links = links_[static_cast<int>(mesh)];
  auto& st = stats_[static_cast<int>(mesh)];

  const std::vector<std::size_t>& path = cached_route(src, dst);
  const Cycles serialization = cfg_.cycles_for_bytes_on_link(bytes);

  // Wormhole approximation: the message starts when every link on the path
  // is free, holds each link for the serialisation time, and the tail
  // arrives after per-hop latency plus serialisation.
  Cycles start = now;
  if (injector_ != nullptr) {
    const int src_id = src.row * cfg_.cols + src.col;
    const Cycles stall = injector_->noc_stall(src_id, now);
    if (stall != 0) {
      // The stalled message holds its first link busy for the stall, so
      // the perturbation back-pressures sharers of that link too.
      links[path.front()].acquire(now, stall, 0);
      start += stall;
    }
  }
  for (std::size_t idx : path) start = std::max(start, links[idx].free_at);
  for (std::size_t idx : path) {
    links[idx].acquire(start, serialization, bytes);
    st.max_link_busy = std::max(st.max_link_busy, links[idx].total_busy);
  }

  const Cycles hops = static_cast<Cycles>(path.size());
  st.transfers += 1;
  st.bytes += bytes;
  st.byte_hops += bytes * hops;
  const Cycles done = start + hops * cfg_.hop_latency + serialization;
  if (power_ != nullptr)
    power_->record_noc(initiator.row * cfg_.cols + initiator.col,
                       bytes * hops, start, done);
  return done;
}

Cycles Noc::probe(Coord src, Coord dst, std::size_t bytes, Cycles now,
                  Mesh mesh) const {
  if (src == dst || bytes == 0) return now;
  const auto& links = links_[static_cast<int>(mesh)];
  const std::vector<std::size_t>& path = cached_route(src, dst);
  Cycles start = now;
  for (std::size_t idx : path) start = std::max(start, links[idx].free_at);
  const Cycles hops = static_cast<Cycles>(path.size());
  return start + hops * cfg_.hop_latency +
         cfg_.cycles_for_bytes_on_link(bytes);
}

NocStats Noc::stats(Mesh mesh) const { return stats_[static_cast<int>(mesh)]; }

NocStats Noc::stats_total() const {
  NocStats total;
  for (const auto& st : stats_) {
    total.transfers += st.transfers;
    total.bytes += st.bytes;
    total.byte_hops += st.byte_hops;
    total.max_link_busy = std::max(total.max_link_busy, st.max_link_busy);
  }
  return total;
}

std::vector<Noc::LinkUsage> Noc::link_usage(Mesh mesh) const {
  static constexpr char kDir[4] = {'E', 'W', 'S', 'N'};
  const auto& links = links_[static_cast<int>(mesh)];
  std::vector<LinkUsage> usage;
  for (int r = 0; r < cfg_.rows; ++r)
    for (int c = 0; c < cfg_.cols; ++c)
      for (int d = 0; d < 4; ++d) {
        const auto& l = links[link_index({r, c}, d)];
        if (l.total_bytes == 0) continue;
        usage.push_back({{r, c}, kDir[d], l.total_bytes, l.total_busy});
      }
  return usage;
}

void Noc::reset_stats() {
  for (auto& mesh : links_)
    for (auto& l : mesh) l = BusyResource{};
  for (auto& st : stats_) st = NocStats{};
}

} // namespace esarp::ep
