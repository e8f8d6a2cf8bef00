#include "epiphany/energy.hpp"

#include <sstream>

#include "common/table.hpp"

namespace esarp::ep {

EnergyReport compute_energy(const PerfReport& rep) {
  const EnergyParams& p = kEnergyParams;
  EnergyReport e;
  const double pj = 1e-12;

  for (const auto& c : rep.per_core) {
    const auto busy = static_cast<double>(c.busy);
    // Stall/wait cycles are clock-gated on Epiphany (the paper: "shutting
    // off the clock to unused function units and entire cores on a
    // cycle-by-cycle basis"), so they are charged at the idle rate.
    const double idle = static_cast<double>(rep.makespan) - busy;
    e.core_active_j += busy * p.core_active_pj_per_cycle * pj;
    e.core_idle_j += (idle > 0 ? idle : 0.0) * p.core_idle_pj_per_cycle * pj;
    e.alu_j += (static_cast<double>(c.ops.fp_issues()) * p.flop_pj +
                static_cast<double>(c.ops.ialu) * p.ialu_pj +
                static_cast<double>(c.ops.load + c.ops.store) *
                    p.ldst_local_pj) *
               pj;
  }
  e.noc_j = static_cast<double>(rep.noc_total.byte_hops) *
            p.noc_pj_per_byte_hop * pj;
  e.elink_j = static_cast<double>(rep.ext.read_bytes + rep.ext.write_bytes) *
              p.elink_pj_per_byte * pj;
  e.static_j = p.chip_static_w * rep.seconds();

  const double secs = rep.seconds();
  e.avg_watts = secs > 0.0 ? e.total_j() / secs : 0.0;
  return e;
}

double peak_chip_watts(const ChipConfig& cfg) {
  const EnergyParams& p = kEnergyParams;
  // All cores busy every cycle, one FP + one IALU issue per cycle, one local
  // access per cycle, plus static power: the datasheet-style max figure.
  const double per_core_pj = p.core_active_pj_per_cycle + p.flop_pj +
                             p.ialu_pj + p.ldst_local_pj;
  return cfg.core_count() * per_core_pj * 1e-12 * cfg.clock_hz +
         p.chip_static_w;
}

std::string EnergyReport::summary() const {
  std::ostringstream os;
  os << "energy: " << Table::num(total_j() * 1e3, 3) << " mJ ("
     << "cores " << Table::num((core_active_j + core_idle_j) * 1e3, 3)
     << " mJ, ops " << Table::num(alu_j * 1e3, 3) << " mJ, noc "
     << Table::num(noc_j * 1e3, 3) << " mJ, elink "
     << Table::num(elink_j * 1e3, 3) << " mJ, static "
     << Table::num(static_j * 1e3, 3) << " mJ); avg power "
     << Table::num(avg_watts, 3) << " W";
  return os.str();
}

} // namespace esarp::ep
