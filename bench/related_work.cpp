// Reproduces the paper's related-work energy comparison (Section VI-A,
// closing paragraph): the 12-core Xeon X5675 system of Lidberg & Olin [15]
// runs FFBP faster in absolute terms (more silicon, more watts, SSE), but
// the 16-core Epiphany "outperforms theirs in terms of energy efficiency".
#include <iostream>

#include "bench_util.hpp"
#include "core/ffbp_epiphany.hpp"
#include "hostmodel/parallel_host_model.hpp"
#include "sar/ffbp.hpp"

static int bench_body() {
  using namespace esarp;
  const auto w = bench::make_paper_workload();

  std::cerr << "reference FFBP (for the counted work)...\n";
  const auto host_res = sar::ffbp(w.data, w.params);

  const host::HostModel i7_single;
  const host::ParallelHostModel xeon(
      host::ParallelHostParams::xeon_x5675_pair());
  const double t_i7 = i7_single.seconds(host_res.host_work);
  const double t_xeon = xeon.seconds(host_res.host_work);
  const double j_i7 = i7_single.joules(host_res.host_work);
  const double j_xeon = xeon.joules(host_res.host_work);

  std::cerr << "16-core Epiphany simulation...\n";
  core::FfbpMapOptions opt;
  opt.n_cores = 16;
  const auto epi = core::run_ffbp_epiphany(w.data, w.params, opt);
  const double j_epi = epi.energy.total_j();

  bench::Report rep("related_work");
  auto& t = rep.sheet(
      "FFBP across platforms: speed vs energy (paper Section VI-A)",
      {{"Platform", "platform"},
       {"Cores", "cores", bench::kCount},
       {"Time (ms)", "seconds", bench::kMs},
       {"Power (W)", "watts", {1}},
       {"Energy/image (J)", "joules", {3}},
       {"Images/s/W", "images_per_s_per_w", {3}}});
  const auto row = [&t](const char* name, int cores, double secs,
                        double watts, double joules) {
    t.row({name, cores, secs, watts, joules, 1.0 / secs / watts});
  };
  row("Intel i7-M620, 1 core (paper ref.)", 1, t_i7,
      i7_single.params().watts, j_i7);
  row("2x Xeon X5675 + SSE (Lidberg [15])", 12, t_xeon, xeon.params().watts,
      j_xeon);
  row("Epiphany E16G3, 16 cores", 16, epi.seconds, epi.energy.avg_watts,
      j_epi);
  t.note("Xeon wins on raw speed (" +
         Table::num(epi.seconds / t_xeon, 1) +
         "x faster than Epiphany) but Epiphany wins on energy: " +
         Table::num(j_xeon / j_epi, 1) +
         "x fewer joules per image than the Xeon pair (paper: 'our "
         "implementation outperforms theirs in terms of energy "
         "efficiency')");
  t.note("Xeon model: 12 cores @ 3.06 GHz, 4-wide SSE at 60 % efficiency, "
         "85 % OpenMP scaling, 2 x 95 W TDP; same counted work as the "
         "other rows");
  return rep.finish();
}

int main() { return esarp::bench::guarded_main("related_work", bench_body); }
