// Pulse-compression window ablation through the full imaging chain:
// chirp echoes -> windowed matched filter -> FFBP image. Tapering trades
// peak SNR and resolution for range-sidelobe suppression in the final SAR
// image (the standard knob real systems expose; complements the paper's
// interpolation-kernel quality discussion).
#include <cmath>
#include <iostream>
#include <iterator>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "fft/window.hpp"
#include "sar/ffbp.hpp"
#include "sar/scene.hpp"

static int bench_body() {
  using namespace esarp;
  const auto p = sar::test_params(128, 257);
  sar::Scene s;
  s.targets = {{0.0, p.near_range_m + 128.0 * p.range_bin_m, 1.0f}};

  struct V {
    const char* name;
    fft::WindowKind kind;
  };
  const V variants[] = {
      {"rectangular", fft::WindowKind::kRectangular},
      {"Hann", fft::WindowKind::kHann},
      {"Hamming", fft::WindowKind::kHamming},
      {"Blackman", fft::WindowKind::kBlackman},
      {"Taylor (nbar=4, -35dB)", fft::WindowKind::kTaylor},
  };

  bench::Report rep("ablation_window");
  auto& t = rep.sheet("Pulse-compression window vs final image quality (FFBP)",
                      {{"Window", "window"},
                       {"Image peak", "peak", {1}},
                       {"Peak/avg (dB)", "peak_avg_db", {1}},
                       {"Range PSLR (dB)", "pslr_db", {1}},
                       {"Entropy", "entropy"},
                       {"Noise BW (bins)", "noise_bw_bins"}});

  // Each window runs the full chirp->matched-filter->FFBP chain
  // independently: fan out across host threads (ESARP_JOBS); each returns
  // its row, gathered by index.
  host::SweepRunner pool(bench::sweep_jobs());
  std::cerr << "imaging " << std::size(variants) << " windows ("
            << pool.jobs() << " host thread(s))...\n";
  const auto rows = pool.run(std::size(variants), [&](std::size_t vi) {
    const auto& v = variants[vi];
    const auto data = sar::simulate_via_chirp(p, s, {}, v.kind);
    const auto img = sar::ffbp(data, p);

    // Range cut through the image peak for the sidelobe ratio.
    std::size_t pi = 0, pj = 0;
    double peak = -1.0;
    for (std::size_t i = 0; i < img.image.n_theta(); ++i)
      for (std::size_t j = 0; j < img.image.n_range(); ++j)
        if (std::abs(img.image.data(i, j)) > peak) {
          peak = std::abs(img.image.data(i, j));
          pi = i;
          pj = j;
        }
    double sidelobe = 0.0;
    for (std::size_t j = 0; j < img.image.n_range(); ++j) {
      if (j + 4 > pj && j < pj + 4) continue; // exclude the mainlobe
      sidelobe = std::max(sidelobe, (double)std::abs(img.image.data(pi, j)));
    }
    return std::vector<bench::Cell>{
        v.name, peak, peak_to_average_db(img.image.data),
        20.0 * std::log10(sidelobe / peak), image_entropy(img.image.data),
        fft::noise_bandwidth_bins(fft::make_window(v.kind, 64))};
  });
  for (const auto& r : rows) t.row(r);
  t.note("PSLR measured on the range cut through the image peak; tapers "
         "suppress sidelobes at the cost of peak gain and mainlobe width");
  return rep.finish();
}

int main() { return esarp::bench::guarded_main("ablation_window", bench_body); }
