// Reproduces the paper's prefetch analysis (Section VI): the parallel FFBP
// speedup comes not only from using 16 cores but from DMA-prefetching the
// contributing subaperture rows into local memory; and "during the first
// merge iteration the prefetched data is sufficient, but in the later
// iterations it still requires contributing data to be read from the
// external memory" — visible here as the per-level prefetch hit rate.
#include <iostream>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/ffbp_epiphany.hpp"

static int bench_body() {
  using namespace esarp;
  const auto w = bench::make_paper_workload();

  core::FfbpMapOptions with;
  with.n_cores = 16;
  core::FfbpMapOptions without = with;
  without.prefetch = false;
  // Double buffering needs two rows per 8 KB data bank: only possible up
  // to 512 range bins — NOT at the paper's 1001 (the bank-budget finding).
  const bool can_double_buffer =
      w.params.n_range * sizeof(cf32) * 2 <= 8192;
  std::vector<std::pair<const char*, core::FfbpMapOptions>> variants = {
      {"prefetch into local banks", with},
      {"no prefetch (blocking reads)", without}};
  if (can_double_buffer) {
    core::FfbpMapOptions dbl = with;
    dbl.double_buffer = true;
    variants.emplace_back("double-buffered prefetch", dbl);
  }

  // Independent simulations: fan out across host threads (ESARP_JOBS);
  // results are gathered by index, byte-identical for any thread count.
  host::SweepRunner pool(bench::sweep_jobs());
  std::cerr << "simulating " << variants.size() << " prefetch variants ("
            << pool.jobs() << " host thread(s))...\n";
  auto results = pool.run(variants.size(), [&](std::size_t i) {
    return core::run_ffbp_epiphany(w.data, w.params, variants[i].second);
  });
  const double no_prefetch_s = results[1].seconds;

  bench::Report rep("ablation_prefetch");
  auto& t = rep.sheet("FFBP SPMD: DMA prefetch ablation (16 cores)",
                      {{"Configuration", "configuration"},
                       {"Time (ms)", "seconds", bench::kMs},
                       {"Ext-read stall (Mcycles)", "ext_stall_cycles",
                        {1, 1e-6}},
                       {"Ext bytes read", "ext_read_bytes", bench::kBytes},
                       {"Speedup over no prefetch", "speedup", {2, 1, "x"}}},
                      "ablation_prefetch_configs");
  for (std::size_t i = 0; i < results.size(); ++i)
    t.row({variants[i].first, results[i].seconds,
           results[i].perf.total_ext_stall(), results[i].perf.ext.read_bytes,
           no_prefetch_s / results[i].seconds});
  if (!can_double_buffer)
    t.note("double-buffered prefetch is impossible at this row size: two "
           "8,008-byte rows do not fit one 8 KB bank — the four-bank "
           "budget forces the paper's single-buffered scheme");

  auto& h = rep.sheet("Per-level prefetch hit rate (prefetching configuration)",
                      {{"Merge level", "level", bench::kCount},
                       {"Local hits", "hits", bench::kGrouped},
                       {"Ext misses", "misses", bench::kGrouped},
                       {"Hit rate", "hit_rate", {1, 100.0, " %"}}});
  for (const auto& ls : results[0].prefetch_stats)
    h.row({ls.level, ls.local_hits, ls.ext_misses, ls.hit_rate()});
  h.note("level 1 children are single rows: prefetch is sufficient "
         "(100 %); at later levels the contributing angular bins spread "
         "beyond the two prefetched rows, forcing blocking SDRAM reads — "
         "exactly the paper's description");
  return rep.finish();
}

int main() { return esarp::bench::guarded_main("ablation_prefetch", bench_body); }
