#include "epiphany/power.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/array2d.hpp"
#include "common/assert.hpp"
#include "common/csv.hpp"
#include "common/pgm.hpp"
#include "common/table.hpp"

namespace esarp::ep {

PowerSampler::PowerSampler(const ChipConfig& cfg, const PowerOptions& opt,
                           const SpanNames& names)
    : epoch_cycles_(opt.epoch_cycles > 0 ? opt.epoch_cycles : 1),
      max_epochs_(opt.max_epochs > 1 ? opt.max_epochs : 2),
      cores_(static_cast<std::size_t>(cfg.core_count())), names_(names) {}

void PowerSampler::register_core(int id, const std::vector<SpanId>* spans) {
  ESARP_EXPECTS(id >= 0 && id < n_cores());
  cores_[static_cast<std::size_t>(id)].spans = spans;
}

const PowerSampler::Activity* PowerSampler::span_activity(SpanId id) const {
  return id < span_.size() && span_[id].charged ? &span_[id].activity
                                                : nullptr;
}

std::size_t PowerSampler::n_epochs() const {
  std::size_t n = 0;
  for (const PerCore& c : cores_) n = std::max(n, c.bins.size());
  return n;
}

const std::vector<PowerSampler::Activity>&
PowerSampler::core_bins(int core) const {
  ESARP_EXPECTS(core >= 0 && core < n_cores());
  return cores_[static_cast<std::size_t>(core)].bins;
}

void PowerSampler::fold_until_fits(Cycles last_cycle) {
  while (last_cycle / epoch_cycles_ >= max_epochs_) {
    epoch_cycles_ *= 2;
    for (PerCore& c : cores_) {
      if (c.bins.empty()) continue;
      const std::size_t folded = (c.bins.size() + 1) / 2;
      for (std::size_t i = 0; i < folded; ++i) {
        Activity merged = c.bins[2 * i];
        if (2 * i + 1 < c.bins.size()) merged += c.bins[2 * i + 1];
        c.bins[i] = merged;
      }
      c.bins.resize(folded);
    }
  }
}

void PowerSampler::charge(int core, Cycles start, Cycles end,
                          const Activity& amount) {
  ESARP_EXPECTS(core >= 0 && core < n_cores());
  if (end <= start) end = start + 1; // instantaneous: bill the start epoch
  fold_until_fits(end - 1);

  PerCore& pc = cores_[static_cast<std::size_t>(core)];
  const std::size_t first = start / epoch_cycles_;
  const std::size_t last = (end - 1) / epoch_cycles_;
  if (pc.bins.size() <= last) pc.bins.resize(last + 1);
  const double duration = static_cast<double>(end - start);
  for (std::size_t e = first; e <= last; ++e) {
    const Cycles lo = std::max<Cycles>(start, e * epoch_cycles_);
    const Cycles hi = std::min<Cycles>(end, (e + 1) * epoch_cycles_);
    const double frac = static_cast<double>(hi - lo) / duration;
    Activity& bin = pc.bins[e];
    bin.busy += amount.busy * frac;
    bin.fp += amount.fp * frac;
    bin.ialu += amount.ialu * frac;
    bin.ldst += amount.ldst * frac;
    bin.byte_hops += amount.byte_hops * frac;
    bin.elink_bytes += amount.elink_bytes * frac;
  }

  if (pc.spans != nullptr && !pc.spans->empty()) {
    SpanTotal& span = span_[pc.spans->back()];
    span.activity += amount;
    span.charged = true;
  } else {
    spanless_ += amount;
  }
}

void PowerSampler::record_compute(int core, Cycles start, Cycles end,
                                  const OpCounts& ops) {
  Activity a;
  a.busy = static_cast<double>(end - start);
  a.fp = static_cast<double>(ops.fp_issues());
  a.ialu = static_cast<double>(ops.ialu);
  a.ldst = static_cast<double>(ops.load + ops.store);
  charge(core, start, end, a);
}

void PowerSampler::record_noc(int core, std::uint64_t byte_hops, Cycles start,
                              Cycles end) {
  if (byte_hops == 0) return;
  Activity a;
  a.byte_hops = static_cast<double>(byte_hops);
  charge(core, start, end, a);
}

void PowerSampler::record_elink(int core, std::uint64_t bytes, Cycles start,
                                Cycles end) {
  if (bytes == 0) return;
  Activity a;
  a.elink_bytes = static_cast<double>(bytes);
  charge(core, start, end, a);
}

namespace {

/// Joules of the activity-proportional components (everything except idle
/// and static, which depend on the makespan rather than recorded activity).
double activity_joules(const PowerSampler::Activity& a,
                       const EnergyParams& p) {
  const double pj = 1e-12;
  return (a.busy * p.core_active_pj_per_cycle + a.fp * p.flop_pj +
          a.ialu * p.ialu_pj + a.ldst * p.ldst_local_pj +
          a.byte_hops * p.noc_pj_per_byte_hop +
          a.elink_bytes * p.elink_pj_per_byte) *
         pj;
}

/// Overlap in cycles of epoch `e` with [0, makespan).
double epoch_overlap(std::size_t e, Cycles epoch_cycles, Cycles makespan) {
  const Cycles lo = static_cast<Cycles>(e) * epoch_cycles;
  const Cycles hi = lo + epoch_cycles;
  if (lo >= makespan) return 0.0;
  return static_cast<double>(std::min(hi, makespan) - lo);
}

} // namespace

PowerTrace build_power_trace(const PowerSampler& sampler,
                             const PerfReport& rep, const EnergyParams& p) {
  const double pj = 1e-12;
  PowerTrace t;
  t.epoch_cycles = sampler.epoch_cycles();
  t.makespan = rep.makespan;
  t.clock_hz = rep.cfg.clock_hz;
  t.n_cores = sampler.n_cores();
  const std::size_t span_epochs =
      rep.makespan == 0 ? 0
                        : static_cast<std::size_t>((rep.makespan - 1) /
                                                   t.epoch_cycles) +
                              1;
  t.n_epochs = std::max<std::size_t>(
      std::max(sampler.n_epochs(), span_epochs), 1);
  t.core_j.assign(static_cast<std::size_t>(t.n_cores) * t.n_epochs, 0.0);
  t.chip_j.assign(t.n_epochs, 0.0);

  const double epoch_static_per_core_j =
      p.chip_static_w / (t.clock_hz * t.n_cores);
  for (int c = 0; c < t.n_cores; ++c) {
    const auto& bins = sampler.core_bins(c);
    for (std::size_t e = 0; e < t.n_epochs; ++e) {
      double j = 0.0;
      double busy = 0.0;
      if (e < bins.size()) {
        j += activity_joules(bins[e], p);
        busy = bins[e].busy;
      }
      // Idle (clock-gated) cycles and the chip's static power accrue over
      // [0, makespan) only — drain epochs past the makespan (posted writes
      // still flushing through the eLink) carry transfer energy alone.
      const double overlap = epoch_overlap(e, t.epoch_cycles, t.makespan);
      if (overlap > busy)
        j += (overlap - busy) * p.core_idle_pj_per_cycle * pj;
      j += overlap * epoch_static_per_core_j;
      t.core_j[static_cast<std::size_t>(c) * t.n_epochs + e] = j;
      t.chip_j[e] += j;
    }
  }
  for (const double j : t.chip_j) t.total_j += j;
  return t;
}

double PowerTrace::epoch_seconds(std::size_t epoch) const {
  const Cycles lo = static_cast<Cycles>(epoch) * epoch_cycles;
  Cycles len = epoch_cycles;
  // The run's final epoch is cut short by the makespan (watts should not
  // be diluted by cycles that never ran); post-makespan drain epochs keep
  // their full length.
  if (lo < makespan && makespan < lo + epoch_cycles) len = makespan - lo;
  return static_cast<double>(len) / clock_hz;
}

double PowerTrace::chip_watts(std::size_t epoch) const {
  const double secs = epoch_seconds(epoch);
  return secs > 0.0 ? chip_j[epoch] / secs : 0.0;
}

double PowerTrace::core_watts(int core, std::size_t epoch) const {
  const double secs = epoch_seconds(epoch);
  return secs > 0.0 ? joules(core, epoch) / secs : 0.0;
}

double PowerTrace::peak_chip_watts() const {
  double peak = 0.0;
  for (std::size_t e = 0; e < n_epochs; ++e)
    peak = std::max(peak, chip_watts(e));
  return peak;
}

SpanEnergyProfile build_span_profile(const PowerSampler& sampler,
                                     const PerfReport& rep,
                                     const EnergyParams& p) {
  const double pj = 1e-12;
  SpanEnergyProfile prof;

  // Group "merge-iter/3" with "merge-iter/4": per-iteration numbering is
  // workload detail; the profile reports per-phase totals. Spans are
  // visited in name order, so each group sums its spans in the same order
  // whichever order the run opened them in.
  std::map<std::string, SpanEnergyProfile::Entry> groups;
  for (const auto& [name, id] : sampler.span_names().by_name()) {
    const PowerSampler::Activity* charged = sampler.span_activity(id);
    if (charged == nullptr) continue;
    const PowerSampler::Activity& act = *charged;
    const std::size_t slash = name.rfind('/');
    const std::string group =
        slash == std::string::npos ? name : name.substr(0, slash);
    SpanEnergyProfile::Entry& e = groups[group];
    e.name = group;
    e.busy_cycles += act.busy;
    e.active_j += act.busy * p.core_active_pj_per_cycle * pj;
    e.alu_j += (act.fp * p.flop_pj + act.ialu * p.ialu_pj +
                act.ldst * p.ldst_local_pj) *
               pj;
    e.noc_j += act.byte_hops * p.noc_pj_per_byte_hop * pj;
    e.elink_j += act.elink_bytes * p.elink_pj_per_byte * pj;
    e.joules += activity_joules(act, p);
    e.spans += 1;
  }
  for (auto& [_, e] : groups) {
    prof.attributed_j += e.joules;
    prof.entries.push_back(std::move(e));
  }
  std::sort(prof.entries.begin(), prof.entries.end(),
            [](const auto& a, const auto& b) {
              if (a.joules != b.joules) return a.joules > b.joules;
              return a.name < b.name;
            });

  // Unattributed: activity recorded outside any span, plus the two
  // makespan-proportional components no span can own — clock-gated idle
  // across all cores, and chip static power.
  double busy_total = 0.0;
  for (int c = 0; c < sampler.n_cores(); ++c)
    for (const auto& bin : sampler.core_bins(c)) busy_total += bin.busy;
  const double idle_cycles =
      static_cast<double>(rep.makespan) * sampler.n_cores() - busy_total;
  prof.idle_j =
      (idle_cycles > 0 ? idle_cycles : 0.0) * p.core_idle_pj_per_cycle * pj;
  prof.static_j = p.chip_static_w * rep.seconds();
  prof.unattributed_j =
      activity_joules(sampler.spanless(), p) + prof.idle_j + prof.static_j;
  prof.total_j = prof.attributed_j + prof.unattributed_j;
  return prof;
}

std::string SpanEnergyProfile::table() const {
  Table t("energy profile (span attribution)");
  t.header({"Phase", "Energy [mJ]", "Share", "Busy [Mcyc]", "Active [mJ]",
            "ALU [mJ]", "NoC [mJ]", "eLink [mJ]"});
  const double total = total_j > 0.0 ? total_j : 1.0;
  for (const Entry& e : entries)
    t.row({e.name, Table::num(e.joules * 1e3, 3),
           Table::num(e.joules / total * 100.0, 1) + " %",
           Table::num(e.busy_cycles * 1e-6, 2), Table::num(e.active_j * 1e3, 3),
           Table::num(e.alu_j * 1e3, 3), Table::num(e.noc_j * 1e3, 3),
           Table::num(e.elink_j * 1e3, 3)});
  t.row({"(unattributed)", Table::num(unattributed_j * 1e3, 3),
         Table::num(unattributed_j / total * 100.0, 1) + " %", "-", "-", "-",
         "-", "-"});
  t.note("unattributed = span-less activity + clock-gated idle (" +
         Table::num(idle_j * 1e3, 3) + " mJ) + static (" +
         Table::num(static_j * 1e3, 3) + " mJ)");
  t.note("total " + Table::num(total_j * 1e3, 3) + " mJ, attributed " +
         Table::num(attributed_j / total * 100.0, 1) + " %");
  return t.str();
}

void write_power_csv(const std::filesystem::path& path, const PowerTrace& t) {
  std::vector<std::string> cols = {"epoch", "start_cycle", "seconds",
                                   "chip_j", "chip_w"};
  for (int c = 0; c < t.n_cores; ++c)
    cols.push_back("core" + std::to_string(c) + "_w");
  CsvWriter csv(path, cols);
  for (std::size_t e = 0; e < t.n_epochs; ++e) {
    std::vector<double> row = {
        static_cast<double>(e),
        static_cast<double>(e * t.epoch_cycles),
        t.epoch_seconds(e),
        t.chip_j[e],
        t.chip_watts(e),
    };
    for (int c = 0; c < t.n_cores; ++c) row.push_back(t.core_watts(c, e));
    csv.row_numeric(row, 9);
  }
}

void write_power_heatmap(const std::filesystem::path& path,
                         const PowerTrace& t) {
  Array2D<float> img(static_cast<std::size_t>(t.n_cores), t.n_epochs);
  for (int c = 0; c < t.n_cores; ++c)
    for (std::size_t e = 0; e < t.n_epochs; ++e)
      img(static_cast<std::size_t>(c), e) =
          static_cast<float>(t.core_watts(c, e));
  write_pgm(path, img);
}

void export_power_counters(Tracer& tracer, const PowerTrace& t) {
  if (!tracer.enabled()) return;
  const int chip = tracer.counter_track("power/chip-W");
  std::vector<int> core_tracks;
  core_tracks.reserve(static_cast<std::size_t>(t.n_cores));
  for (int c = 0; c < t.n_cores; ++c)
    core_tracks.push_back(
        tracer.counter_track("power/core" + std::to_string(c) + "-W"));
  for (std::size_t e = 0; e < t.n_epochs; ++e) {
    const Cycles at = static_cast<Cycles>(e) * t.epoch_cycles;
    tracer.counter(chip, at, t.chip_watts(e));
    for (int c = 0; c < t.n_cores; ++c)
      tracer.counter(core_tracks[static_cast<std::size_t>(c)], at,
                     t.core_watts(c, e));
  }
  // Close the step functions so the last epoch renders with its width.
  const Cycles horizon = static_cast<Cycles>(t.n_epochs) * t.epoch_cycles;
  tracer.counter(chip, horizon, 0.0);
  for (int c = 0; c < t.n_cores; ++c)
    tracer.counter(core_tracks[static_cast<std::size_t>(c)], horizon, 0.0);
}

} // namespace esarp::ep
