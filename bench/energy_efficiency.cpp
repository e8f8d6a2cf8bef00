// Reproduces Section VI-A: energy efficiency (throughput per watt) of the
// parallel Epiphany implementations versus the sequential Intel reference.
// Paper figures: 38x for FFBP, 78x for the autofocus criterion.
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/autofocus_epiphany.hpp"
#include "core/ffbp_epiphany.hpp"
#include "epiphany/machine_metrics.hpp"
#include "hostmodel/host_model.hpp"
#include "autofocus/criterion.hpp"
#include "autofocus/workload.hpp"
#include "sar/ffbp.hpp"

static int bench_body() {
  using namespace esarp;
  const host::HostModel intel;

  // ---------- FFBP ----------
  const auto w = bench::make_paper_workload();
  std::cerr << "FFBP: reference + 16-core simulation...\n";
  const auto host_res = sar::ffbp(w.data, w.params);
  const double intel_s = intel.seconds(host_res.host_work);
  const double intel_j = intel.joules(host_res.host_work);

  core::FfbpMapOptions opt;
  opt.n_cores = 16;
  const auto par =
      core::run_ffbp_epiphany(w.data, w.params, opt, bench::power_chip());

  // Throughput per watt: images/s/W, normalised to the Intel reference.
  const double ffbp_intel_tpw = (1.0 / intel_s) / intel.params().watts;
  const double ffbp_epi_tpw =
      (1.0 / par.seconds) / par.energy.avg_watts;

  // ---------- Autofocus ----------
  std::cerr << "autofocus: reference + 13-core pipeline simulation...\n";
  af::AfParams p;
  Rng rng(7);
  std::vector<af::BlockPair> pairs;
  const std::size_t n_pairs = bench::fast_mode() ? 16 : 64;
  for (std::size_t i = 0; i < n_pairs; ++i)
    pairs.push_back(
        af::synthetic_block_pair(rng, p, rng.uniform_f(-0.6f, 0.6f)));

  host::HostWork af_work;
  for (const auto& bp : pairs)
    af_work += af::criterion_sweep(bp.minus, bp.plus, p).host_work;
  const double af_intel_s = intel.seconds(af_work);
  const double pixels = static_cast<double>(n_pairs * p.pixels());
  const auto mpmd =
      core::run_autofocus_mpmd(pairs, p, {}, bench::power_chip());

  const double af_intel_tpw =
      (pixels / af_intel_s) / intel.params().watts;
  const double af_epi_tpw =
      mpmd.pixels_per_second / mpmd.energy.avg_watts;

  // Manifest for the FFBP leg (the headline 38x claim); the autofocus
  // leg's throughput-per-watt and phase breakdown ride along under an
  // `autofocus_` / `af.` / `energy_j.af.` prefix so the 78x claim is gated
  // too.
  telemetry::RunManifest man("energy_efficiency");
  bench::Report rep(man);
  auto& t = rep.sheet("Section VI-A: energy efficiency (throughput per watt)",
                      {{"Case study", "case"},
                       {"Intel i7 (ref)", "intel_tpw", bench::kSig},
                       {"Epiphany parallel", "epiphany_tpw", bench::kSig,
                        bench::kResult},
                       {"Efficiency ratio", "efficiency_ratio", {1, 1, "x"},
                        bench::kResult},
                       {"Paper ratio", "paper_ratio", {0, 1, "x"}}});
  t.row("ffbp_", {"FFBP (images/s/W)", ffbp_intel_tpw, ffbp_epi_tpw,
                  ffbp_epi_tpw / ffbp_intel_tpw, 38});
  t.row("autofocus_", {"Autofocus (px/s/W)", af_intel_tpw, af_epi_tpw,
                       af_epi_tpw / af_intel_tpw, 78});
  t.note("Intel power: 17.5 W (half the 35 W TDP, per the paper);"
         " Epiphany power: energy model average over the run");
  t.note("FFBP energy per image: Intel " + Table::num(intel_j, 2) +
         " J vs Epiphany " + Table::num(par.energy.total_j(), 3) + " J");
  t.note("Epiphany avg power: FFBP " +
         Table::num(par.energy.avg_watts, 2) + " W, autofocus " +
         Table::num(mpmd.energy.avg_watts, 2) + " W (chip max ~2 W)");

  // Per-phase energy attribution for both legs: the 38x/78x ratios are
  // attributable to the phases that spend the joules, not just a single
  // chip-level number (power sampling, docs/observability.md).
  auto& phases = rep.sheet("Energy by phase (span attribution)",
                           {{"Case", "case"},
                            {"Phase", "phase"},
                            {"Energy (mJ)", "joules", {3, 1e3}},
                            {"Share", "share", {1, 100.0, " %"}}},
                           "energy_efficiency_phases");
  const auto phase_rows = [&phases](const std::string& leg,
                                    const ep::SpanEnergyProfile& prof) {
    for (const auto& e : prof.entries)
      phases.row({leg, e.name, e.joules, e.joules / prof.total_j});
    phases.row({leg, "(unattributed)", prof.unattributed_j,
                prof.unattributed_j / prof.total_j});
  };
  phase_rows("ffbp", par.power.profile);
  phase_rows("autofocus", mpmd.power.profile);

  ep::fill_manifest(man, par);
  bench::add_workload(man, w.params);
  bench::add_energy_per_pixel(
      man, par, static_cast<double>(w.params.n_pulses * w.params.n_range));
  man.add_result("af.energy_j", mpmd.energy.total_j());
  man.add_result("af.avg_watts", mpmd.energy.avg_watts);
  for (const auto& e : mpmd.power.profile.entries)
    man.add_result("energy_j.af." + e.name, e.joules);
  man.add_result("energy_j.af.unattributed",
                 mpmd.power.profile.unattributed_j);
  return rep.finish();
}

int main() { return esarp::bench::guarded_main("energy_efficiency", bench_body); }
