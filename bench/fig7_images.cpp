// Reproduces Figure 7: (a) pulse-compressed raw data with the curved
// range-migration paths of six point targets, (b) the GBP-processed image
// (quality reference), (c) the FFBP image from the Intel-reference code
// path, (d) the FFBP image computed by the simulated 16-core Epiphany.
//
// Writes PGM renderings plus quantitative quality metrics (the paper's
// Fig.-7 discussion: FFBP with simplified interpolation is visibly noisier
// than GBP; the Intel and Epiphany FFBP images are of equal quality — in
// this reproduction they are bit-identical by construction, and the bench
// exits 1 if they are not).
#include <iostream>

#include "bench_util.hpp"
#include "common/pgm.hpp"
#include "common/stats.hpp"
#include "core/ffbp_epiphany.hpp"
#include "sar/ffbp.hpp"
#include "sar/gbp.hpp"

static int bench_body() {
  using namespace esarp;
  const auto w = bench::make_paper_workload();
  const auto dir = bench::out_dir();

  std::cerr << "fig 7(a): raw data...\n";
  write_pgm(dir / "fig7a_raw_data.pgm", w.data, {.dynamic_range_db = 35.0});

  std::cerr << "fig 7(b): GBP (this is the long one)...\n";
  WallTimer gbp_timer;
  const std::size_t decim = bench::fast_mode() ? 4 : 1;
  const auto g = sar::gbp(w.data, w.params, decim);
  std::cerr << "  gbp took " << format_seconds(gbp_timer.elapsed_s()) << "\n";
  write_pgm(dir / "fig7b_gbp.pgm", g.image.data, {.dynamic_range_db = 45.0});

  std::cerr << "fig 7(c): FFBP, Intel reference path...\n";
  const auto f_host = sar::ffbp(w.data, w.params);
  write_pgm(dir / "fig7c_ffbp_intel.pgm", f_host.image.data,
            {.dynamic_range_db = 45.0});

  std::cerr << "fig 7(d): FFBP on the simulated 16-core Epiphany...\n";
  core::FfbpMapOptions opt;
  opt.n_cores = 16;
  const auto f_epi = core::run_ffbp_epiphany(w.data, w.params, opt);
  write_pgm(dir / "fig7d_ffbp_epiphany.pgm", f_epi.image,
            {.dynamic_range_db = 45.0});

  std::cout << "\nFFBP image preview (log magnitude):\n"
            << ascii_render(f_host.image.data, 72, 35.0) << "\n";

  bench::Report rep("fig7_images");
  auto& t = rep.sheet("Figure 7: image quality metrics",
                      {{"Panel", "panel"},
                       {"Entropy (bits)", "entropy"},
                       {"Contrast", "contrast"},
                       {"Peak/avg (dB)", "peak_avg_db", {1}},
                       {"rel. RMSE vs GBP", "rmse_vs_gbp", {4}}},
                      "fig7_metrics");
  const auto panel = [&t](const char* name, const Array2D<cf32>& img,
                          bench::Cell rmse) {
    t.row({name, image_entropy(img), image_contrast(img),
           peak_to_average_db(img), std::move(rmse)});
  };
  panel("(a) raw data", w.data, "-");
  panel("(b) GBP", g.image.data, 0);
  panel("(c) FFBP (Intel path)", f_host.image.data,
        relative_rmse(f_host.image.data, g.image.data));
  panel("(d) FFBP (Epiphany)", f_epi.image,
        relative_rmse(f_epi.image, g.image.data));
  t.note("PGM files written to " + dir.string());
  t.note("lower entropy / higher contrast = sharper; GBP is the quality"
         " reference the paper compares FFBP against");
  rep.require("the Intel-path and Epiphany FFBP images are bit-identical "
              "(paper: 'similar in quality')",
              f_epi.image == f_host.image.data);
  return rep.finish();
}

int main() { return esarp::bench::guarded_main("fig7_images", bench_body); }
