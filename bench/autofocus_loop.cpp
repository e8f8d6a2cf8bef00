// Reproduces the paper's Fig. 4 concept end to end: a flight-path error
// defocuses the FFBP image; running the autofocus criterion before each
// merge ("several different flight path compensations are thus tested
// before a merge") and applying the best compensation recovers the focus.
// Sweeps the error amplitude and reports peak recovery plus the extra
// criterion work the loop costs.
#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/stats.hpp"
#include "core/ffbp_epiphany.hpp"
#include "hostmodel/host_model.hpp"
#include "autofocus/integrated.hpp"
#include "sar/ffbp.hpp"
#include "sar/scene.hpp"

static int bench_body() {
  using namespace esarp;
  // The geometry where the per-merge shift model is valid: a short
  // aperture whose smooth path error appears as measurable (>= 1/4 bin)
  // inter-child shifts at the levels autofocus runs on. Longer apertures
  // with single-period errors defocus *within* low-level subapertures,
  // which no per-merge compensation can undo — the same limitation the
  // paper's piecewise-constant compensation model has.
  const auto p = sar::test_params(64, 161);
  sar::Scene scene;
  scene.targets = {
      {0.0, p.near_range_m + 0.5 * (p.far_range_m() - p.near_range_m),
       1.0f}};
  const auto clean = sar::simulate_compressed(p, scene);

  const af::IntegratedOptions opt; // cubic merges + default criterion grid
  const host::HostModel intel;
  const double peak_clean =
      peak_magnitude(sar::ffbp(clean, p, opt.ffbp).image.data);

  Table t("Autofocus-in-FFBP: focus recovery vs path-error amplitude");
  t.header({"Error amp (bins)", "Defocused peak", "Autofocused peak",
            "Recovered", "Corrections", "Criterion work"});
  CsvWriter csv(bench::out_dir() / "autofocus_loop.csv",
                {"error_bins", "peak_clean", "peak_defocused",
                 "peak_focused", "sweeps"});

  for (double amp_bins : {0.0, 1.0, 1.5, 2.0}) {
    const double amp_m = amp_bins * p.range_bin_m;
    sar::FlightPathError err;
    err.dy.resize(p.n_pulses);
    for (std::size_t i = 0; i < p.n_pulses; ++i)
      err.dy[i] = amp_m * std::sin(2.0 * kPi * static_cast<double>(i) /
                                   static_cast<double>(p.n_pulses));
    const auto data = sar::simulate_compressed(p, scene, err);

    const auto plain = sar::ffbp(data, p, opt.ffbp);
    const auto focused = af::ffbp_with_autofocus(data, p, opt);
    const double pd = peak_magnitude(plain.image.data);
    const double pf = peak_magnitude(focused.image.data);

    std::size_t applied = 0;
    for (const auto& c : focused.corrections)
      if (std::abs(c.shift_bins) > 0.01f) ++applied;

    const double extra_flops = static_cast<double>(
        focused.ops.flops() - plain.ops.flops());
    t.row({Table::num(amp_bins, 1), Table::num(pd / peak_clean * 100, 0) + " %",
           Table::num(pf / peak_clean * 100, 0) + " %",
           Table::num((pf - pd) / peak_clean * 100, 0) + " %pts",
           std::to_string(applied) + "/" +
               std::to_string(focused.corrections.size()),
           std::string("+")
               .append(Table::num(extra_flops / 1e6, 0))
               .append(" Mflop")});
    csv.row_numeric({amp_bins, peak_clean, pd, pf,
                     static_cast<double>(focused.sweeps_run)});

    if (amp_bins == 1.0) {
      const double t_plain = intel.seconds(plain.host_work);
      const double t_af = intel.seconds(focused.host_work);
      t.note("modelled i7 time at 1.0-bin error: plain " +
             format_seconds(t_plain) + ", with autofocus " +
             format_seconds(t_af) + " (" +
             Table::num((t_af / t_plain - 1.0) * 100.0, 1) +
             " % criterion overhead)");
    }
  }
  t.note("peaks as % of the clean-path image peak; sinusoidal cross-track "
         "error over the aperture; cubic merges");
  t.note("the method's sweet spot is ~1-bin smooth errors: smaller ones "
         "are below the criterion's resolution (corrections gated off), "
         "larger ones defocus the subapertures internally before any "
         "merge-level compensation can act");
  // On-chip cost of the integrated loop (the whole Fig.-4 system on the
  // simulated 16 cores) at the 1-bin operating point.
  {
    sar::FlightPathError err;
    err.dy.resize(p.n_pulses);
    for (std::size_t i = 0; i < p.n_pulses; ++i)
      err.dy[i] = p.range_bin_m *
                  std::sin(2.0 * kPi * static_cast<double>(i) /
                           static_cast<double>(p.n_pulses));
    const auto data = sar::simulate_compressed(p, scene, err);
    core::FfbpMapOptions plain_chip;
    plain_chip.n_cores = 16;
    plain_chip.algo = opt.ffbp;
    core::FfbpMapOptions af_chip = plain_chip;
    af_chip.autofocus = &opt;
    const auto a = core::run_ffbp_epiphany(data, p, plain_chip);
    const auto b = core::run_ffbp_epiphany(data, p, af_chip);
    t.note("on the simulated 16-core chip: plain FFBP " +
           format_seconds(a.seconds) + ", with the integrated autofocus " +
           format_seconds(b.seconds) + " (+" +
           Table::num((b.seconds / a.seconds - 1.0) * 100.0, 0) +
           " %), " + std::to_string(b.corrections.size()) +
           " merge pairs evaluated; image bit-identical to the host loop");
  }
  t.print(std::cout);
  return 0;
}

int main() { return esarp::bench::guarded_main("autofocus_loop", bench_body); }
