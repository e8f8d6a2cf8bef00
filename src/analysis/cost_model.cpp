#include "analysis/cost_model.hpp"

#include <algorithm>
#include <map>

#include "epiphany/cost_model.hpp"

namespace esarp::analysis {
namespace {

Coord coord_of(const ChipConfig& cfg, int id) {
  return Coord{id / cfg.cols, id % cfg.cols};
}

/// Per-(core, phase) uncontended totals.
struct PhaseSerial {
  Cycles serial = 0;
  Cycles busy = 0;
  Cycles first_ext_occupancy = 0; ///< read-channel slice of the first read
  Cycles read_occ = 0;
  Cycles write_occ = 0;
  OpCounts ops;
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t byte_hops = 0;
};

PhaseSerial phase_serial(const ChipConfig& cfg, const ep::CostModel& cost,
                         const MappingSpec& spec, const CoreSpec& core,
                         const CorePhase& ph) {
  PhaseSerial out;
  const Coord here = coord_of(cfg, core.id);
  const Coord port{cfg.rows / 2, cfg.cols - 1};
  const auto hops = static_cast<Cycles>(hop_distance(here, port)) *
                    cfg.hop_latency;

  for (const ComputeBlock& cb : ph.compute) {
    out.busy += cb.count * cost.cycles(cb.ops);
    out.ops += cb.ops * cb.count;
  }
  Cycles other = out.busy;
  Cycles overlapped_occ = 0;
  Cycles overlapped_fill = 0;
  for (const DmaRead& d : ph.dma_reads) {
    const Cycles ser = cfg.cycles_for_bytes_on_elink(d.seg_bytes);
    const Cycles occ = static_cast<Cycles>(d.segments) * ser;
    const Cycles burst =
        cfg.dma_setup_cycles + cfg.ext_read_latency + occ + hops;
    if (out.first_ext_occupancy == 0 && d.count > 0)
      out.first_ext_occupancy = occ;
    out.read_occ += d.count * occ;
    out.read_bytes += d.count * d.segments * d.seg_bytes;
    out.byte_hops += d.count * d.segments * d.seg_bytes *
                     static_cast<std::uint64_t>(hop_distance(here, port));
    if (d.overlapped) {
      // The burst streams under the previous row's compute; the core only
      // pays the pipeline fill of the first burst, plus any shortfall when
      // the port is slower than the ALU (max() below).
      overlapped_occ += d.count * occ;
      overlapped_fill = std::max(overlapped_fill, burst);
    } else {
      other += d.count * burst;
    }
  }
  for (const BlockingRead& b : ph.blocking_reads) {
    const Cycles ser = cfg.cycles_for_bytes_on_elink(b.bytes_each);
    const Cycles occ = static_cast<Cycles>(b.transactions) *
                       std::max(ser, cfg.ext_random_occupancy);
    if (out.first_ext_occupancy == 0 && b.count > 0)
      out.first_ext_occupancy = occ;
    other += b.count * b.transactions *
             (cfg.ext_read_latency + ser + 2 * hops);
    out.read_occ += b.count * occ;
    out.read_bytes += b.count * b.transactions * b.bytes_each;
    out.byte_hops += b.count * b.transactions * b.bytes_each *
                     static_cast<std::uint64_t>(hop_distance(here, port));
  }
  for (const PostedWrite& w : ph.writes) {
    const Cycles ser = cfg.cycles_for_bytes_on_elink(w.bytes);
    other += w.count * std::max(cfg.ext_write_issue, ser);
    out.write_occ += w.count * ser;
    out.write_bytes += w.count * w.bytes;
    out.byte_hops += w.count * w.bytes *
                     static_cast<std::uint64_t>(hop_distance(here, port));
  }
  for (const ChannelTraffic& s : ph.sends) {
    const ChannelDecl& ch = spec.channels[s.channel];
    other += s.messages * cfg.cycles_for_bytes_on_link(ch.msg_bytes);
    out.byte_hops += s.messages * ch.msg_bytes *
                     static_cast<std::uint64_t>(hop_distance(
                         coord_of(cfg, ch.producer),
                         coord_of(cfg, ch.consumer)));
  }
  out.serial = std::max(other, overlapped_occ) + overlapped_fill;
  return out;
}

/// Flag round trip that the closing barrier adds past the slowest member:
/// arrival write to the master plus the farthest-corner release.
Cycles barrier_overhead(const ChipConfig& cfg, const BarrierDecl& bar) {
  const Coord master{0, 0};
  Cycles arrive = 0;
  for (int m : bar.members) {
    const Coord c = coord_of(cfg, m);
    if (c == master) continue;
    arrive = std::max(
        arrive, static_cast<Cycles>(hop_distance(c, master)) *
                        cfg.hop_latency +
                    cfg.cycles_for_bytes_on_link(8));
  }
  const Cycles release =
      static_cast<Cycles>((cfg.rows - 1) + (cfg.cols - 1)) * cfg.hop_latency +
      2;
  return arrive + release;
}

/// Pipeline-fill estimate for channel pipelines: the longest chain of
/// (link delivery + downstream per-message service) a message traverses
/// after the bottleneck stage produces its last one.
Cycles pipeline_fill(const MappingSpec& spec,
                     const std::vector<CorePrediction>& cores) {
  if (spec.channels.empty()) return 0;
  std::map<int, Cycles> per_msg;   // consumer core -> service per message
  std::map<int, std::uint64_t> received;
  for (const CoreSpec& c : spec.cores)
    for (const CorePhase& ph : c.phases)
      for (const ChannelTraffic& r : ph.recvs) received[c.id] += r.messages;
  for (const CorePrediction& cp : cores) {
    auto it = received.find(cp.id);
    if (it != received.end() && it->second > 0)
      per_msg[cp.id] = cp.serial / static_cast<Cycles>(it->second);
  }
  // Longest path over the channel DAG by memoised DFS (cycles cut short —
  // the deadlock checker owns cyclic topologies).
  std::map<int, std::vector<std::size_t>> out_edges;
  for (std::size_t i = 0; i < spec.channels.size(); ++i)
    out_edges[spec.channels[i].producer].push_back(i);
  std::map<int, Cycles> memo;
  std::map<int, bool> visiting;
  auto dfs = [&](auto&& self, int core) -> Cycles {
    auto it = memo.find(core);
    if (it != memo.end()) return it->second;
    if (visiting[core]) return 0;
    visiting[core] = true;
    Cycles best = 0;
    for (std::size_t ci : out_edges[core]) {
      const ChannelDecl& ch = spec.channels[ci];
      const Cycles edge =
          static_cast<Cycles>(hop_distance(coord_of(spec.cfg, ch.producer),
                                           coord_of(spec.cfg, ch.consumer))) *
              spec.cfg.hop_latency +
          spec.cfg.cycles_for_bytes_on_link(ch.msg_bytes) +
          (per_msg.count(ch.consumer) != 0 ? per_msg[ch.consumer] : 0) +
          self(self, ch.consumer);
      best = std::max(best, edge);
    }
    visiting[core] = false;
    memo[core] = best;
    return best;
  };
  Cycles fill = 0;
  for (const CoreSpec& c : spec.cores) fill = std::max(fill, dfs(dfs, c.id));
  return fill;
}

} // namespace

CostPrediction predict_cost(const MappingSpec& spec) {
  const ChipConfig& cfg = spec.cfg;
  const ep::CostModel cost;
  CostPrediction out;

  // Per-core / per-phase uncontended serial times.
  std::vector<std::string> group_order;
  std::map<std::string, std::vector<std::pair<const CoreSpec*, PhaseSerial>>>
      groups;
  std::map<std::string, int> group_barrier;
  for (const CoreSpec& c : spec.cores) {
    CorePrediction cp;
    cp.id = c.id;
    cp.role = c.role;
    for (const CorePhase& ph : c.phases) {
      const PhaseSerial ps = phase_serial(cfg, cost, spec, c, ph);
      cp.busy += ps.busy;
      cp.serial += ps.serial;
      cp.ops += ps.ops;
      out.ext_read_bytes += ps.read_bytes;
      out.ext_write_bytes += ps.write_bytes;
      out.byte_hops += ps.byte_hops;
      if (groups.find(ph.name) == groups.end()) group_order.push_back(ph.name);
      groups[ph.name].emplace_back(&c, ps);
      if (ph.barrier >= 0) group_barrier[ph.name] = ph.barrier;
    }
    // Barrier arrival flags (8 bytes to the master per crossing).
    const Coord master{0, 0};
    for (const SyncOp& op : c.sync)
      if (op.kind == SyncOp::Kind::kBarrier)
        out.byte_hops += op.count * 8 *
                         static_cast<std::uint64_t>(hop_distance(
                             coord_of(cfg, c.id), master));
    out.cores.push_back(cp);
  }

  if (!spec.barriers.empty()) {
    // SPMD: phases are barrier-aligned; the total is the sum of per-phase
    // makespans.
    for (const std::string& name : group_order) {
      PhasePrediction pp;
      pp.name = name;
      Cycles convoy_sum = 0;
      Cycles convoy_max = 0;
      for (const auto& entry : groups[name]) {
        const PhaseSerial& ps = entry.second;
        pp.serial_max = std::max(pp.serial_max, ps.serial);
        pp.read_port += ps.read_occ;
        pp.write_port += ps.write_occ;
        convoy_sum += ps.first_ext_occupancy;
        convoy_max = std::max(convoy_max, ps.first_ext_occupancy);
      }
      pp.convoy = convoy_sum - convoy_max;
      auto bit = group_barrier.find(name);
      if (bit != group_barrier.end() &&
          bit->second < static_cast<int>(spec.barriers.size()))
        pp.barrier_overhead = barrier_overhead(
            cfg, spec.barriers[static_cast<std::size_t>(bit->second)]);
      pp.makespan =
          std::max({pp.serial_max + pp.convoy, pp.read_port, pp.write_port}) +
          pp.barrier_overhead;
      out.makespan += pp.makespan;
      out.phases.push_back(std::move(pp));
    }
  } else {
    // Barrier-free (GBP, the MPMD pipeline): slowest core end to end, a
    // t=0 convoy on the ext port, and the drain of the channel pipeline.
    PhasePrediction pp;
    pp.name = spec.cores.size() == 1 ? "sequential" : "steady-state";
    Cycles convoy_sum = 0;
    Cycles convoy_max = 0;
    for (const CoreSpec& c : spec.cores) {
      Cycles first_occ = 0;
      for (const CorePhase& ph : c.phases) {
        const PhaseSerial ps = phase_serial(cfg, cost, spec, c, ph);
        if (first_occ == 0) first_occ = ps.first_ext_occupancy;
        pp.read_port += ps.read_occ;
        pp.write_port += ps.write_occ;
      }
      convoy_sum += first_occ;
      convoy_max = std::max(convoy_max, first_occ);
    }
    for (const CorePrediction& cp : out.cores)
      pp.serial_max = std::max(pp.serial_max, cp.serial);
    pp.convoy = convoy_sum - convoy_max;
    const Cycles fill = pipeline_fill(spec, out.cores);
    pp.makespan =
        std::max({pp.serial_max + pp.convoy, pp.read_port, pp.write_port}) +
        fill;
    out.makespan = pp.makespan;
    out.phases.push_back(std::move(pp));
  }

  // Energy: the simulator's pricing over a report of the mapping's cores
  // only, as compute_energy charges idle energy to every core it is given.
  ep::PerfReport rep;
  rep.cfg = cfg;
  rep.makespan = out.makespan;
  for (const CorePrediction& cp : out.cores) {
    ep::CoreCounters& c = rep.per_core.emplace_back();
    c.busy = cp.busy;
    c.ops = cp.ops;
  }
  rep.noc_total.byte_hops = out.byte_hops;
  rep.ext.read_bytes = out.ext_read_bytes;
  rep.ext.write_bytes = out.ext_write_bytes;
  out.energy = ep::compute_energy(rep);
  return out;
}

} // namespace esarp::analysis
