// Reproduces the paper's Fig. 4 concept end to end: a flight-path error
// defocuses the FFBP image; running the autofocus criterion before each
// merge ("several different flight path compensations are thus tested
// before a merge") and applying the best compensation recovers the focus.
// Sweeps the error amplitude and reports peak recovery plus the extra
// criterion work the loop costs. The bench exits 1 unless the loop
// integrated on the simulated 16-core chip gives the host loop's
// (af::ffbp_with_autofocus) image bit for bit at the 1-bin point.
#include <cmath>
#include <iostream>

#include "bench_util.hpp"
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

  // Peaks read on the console as a share of the clean-path image peak.
  const double pct = 100.0 / peak_clean;
  bench::Report rep("autofocus_loop");
  auto& t = rep.sheet(
      "Autofocus-in-FFBP: focus recovery vs path-error amplitude",
      {{"Error amp (bins)", "error_bins", {1}},
       {"Defocused peak", "peak_defocused", {0, pct, " %"}},
       {"Autofocused peak", "peak_focused", {0, pct, " %"}},
       {"Recovered", "peak_recovered", {0, pct, " %pts"}},
       {"Corrections", "corrections", bench::kCount},
       {"Merge pairs", "merge_pairs", bench::kCount},
       {"Sweeps", "sweeps", bench::kCount},
       {"Criterion work (Mflop)", "extra_flops", {0, 1e-6}}});

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

    t.row({amp_bins, pd, pf, pf - pd, applied, focused.corrections.size(),
           focused.sweeps_run, focused.ops.flops() - plain.ops.flops()});

    if (amp_bins != 1.0) continue;
    const double t_plain = intel.seconds(plain.host_work);
    const double t_af = intel.seconds(focused.host_work);
    t.note("modelled i7 time at 1.0-bin error: plain " +
           format_seconds(t_plain) + ", with autofocus " +
           format_seconds(t_af) + " (" +
           Table::num((t_af / t_plain - 1.0) * 100.0, 1) +
           " % criterion overhead)");
    // On-chip cost of the integrated loop (the whole Fig.-4 system on the
    // simulated 16 cores) at this operating point, on the same data.
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
           Table::num((b.seconds / a.seconds - 1.0) * 100.0, 0) + " %), " +
           std::to_string(b.corrections.size()) +
           " merge pairs evaluated");
    rep.require("the chip's integrated-autofocus image at 1.0-bin error is "
                "bit-identical to af::ffbp_with_autofocus on the same data",
                b.image == focused.image.data);
  }
  t.note("peaks as % of the clean-path image peak; sinusoidal cross-track "
         "error over the aperture; cubic merges");
  t.note("the method's sweet spot is ~1-bin smooth errors: smaller ones "
         "are below the criterion's resolution (corrections gated off), "
         "larger ones defocus the subapertures internally before any "
         "merge-level compensation can act");
  return rep.finish();
}

int main() { return esarp::bench::guarded_main("autofocus_loop", bench_body); }
