// Reproduces the paper's interpolation-quality discussion (Section V-B /
// VI): nearest-neighbour interpolation degrades FFBP images relative to
// GBP, and "the quality ... could be considerably improved by using more
// complex interpolation kernels such as cubic interpolation" — at a
// compute cost this table quantifies on both architectures.
#include <iostream>
#include <iterator>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "core/ffbp_epiphany.hpp"
#include "hostmodel/host_model.hpp"
#include "sar/ffbp.hpp"
#include "sar/gbp.hpp"

static int bench_body() {
  using namespace esarp;
  const auto w = bench::make_paper_workload();
  const host::HostModel intel;

  std::cerr << "GBP quality reference (decimated 4x in azimuth)...\n";
  const auto g = sar::gbp(w.data, w.params, 4);

  struct Variant {
    const char* name;
    sar::FfbpOptions opt;
  };
  const Variant variants[] = {
      {"nearest (paper)", {}},
      {"nearest + phase comp.",
       {.interp = sar::Interp::kNearest, .phase_compensate = true}},
      {"linear", {.interp = sar::Interp::kLinear}},
      {"cubic (Neville)", {.interp = sar::Interp::kCubic}},
  };

  bench::Report rep("ablation_interpolation");
  auto& t = rep.sheet("FFBP interpolation kernels: quality vs cost",
                      {{"Kernel", "kernel"},
                       {"Entropy", "entropy"},
                       {"rel. RMSE vs GBP", "rmse_vs_gbp", {4}},
                       {"Intel (ms)", "intel_seconds", bench::kMs},
                       {"Epiphany 16-core (ms)", "epiphany_seconds",
                        bench::kMs},
                       {"flops/pixel", "flops_per_pixel", bench::kCount}});

  // Each kernel runs the host FFBP and the simulated chip independently
  // against the shared (read-only) workload and GBP reference: fan out
  // across host threads (ESARP_JOBS); each returns its row, gathered by
  // index.
  host::SweepRunner pool(bench::sweep_jobs());
  std::cerr << "evaluating " << std::size(variants)
            << " interpolation kernels (" << pool.jobs()
            << " host thread(s))...\n";
  const auto rows = pool.run(std::size(variants), [&](std::size_t vi) {
    const auto& v = variants[vi];
    const auto host_res = sar::ffbp(w.data, w.params, v.opt);

    core::FfbpMapOptions mopt;
    mopt.n_cores = 16;
    mopt.algo = v.opt;
    const auto sim = core::run_ffbp_epiphany(w.data, w.params, mopt);

    // Compare against GBP on the rows GBP computed (decimation-aware).
    Array2D<cf32> fd(host_res.image.data.rows() / 4,
                     host_res.image.data.cols());
    Array2D<cf32> gd(fd.rows(), fd.cols());
    for (std::size_t i = 0; i < fd.rows(); ++i)
      for (std::size_t j = 0; j < fd.cols(); ++j) {
        fd(i, j) = host_res.image.data(4 * i, j);
        gd(i, j) = g.image.data(4 * i, j);
      }

    return std::vector<bench::Cell>{
        v.name, image_entropy(host_res.image.data), relative_rmse(fd, gd),
        intel.seconds(host_res.host_work), sim.seconds,
        sar::merge_pixel_ops(v.opt).flops()};
  });
  for (const auto& r : rows) t.row(r);
  t.note("GBP reference entropy: " +
         Table::num(image_entropy(g.image.data), 2) +
         " (computed on every 4th azimuth line)");
  return rep.finish();
}

int main() { return esarp::bench::guarded_main("ablation_interpolation", bench_body); }
