// Reproduces the paper's Section V-C / Fig. 9 mapping claim: the custom
// placement of the 13-core autofocus pipeline "avoids transactions with
// distant cores", and the 64x on-chip:off-chip bandwidth ratio absorbs the
// 6-way fan-in at the correlation core. Compares the compact placement
// against a deliberately scattered one and against the automatic placement
// the paper names as future work.
//
// The bench exits 1 unless the claim keeps its shape: all three placements
// give identical criteria, scattered costs at least 2.5x the compact
// cMesh byte-hops, and the automatic placement costs strictly fewer than
// compact.
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/autofocus_epiphany.hpp"
#include "autofocus/workload.hpp"

static int bench_body() {
  using namespace esarp;
  af::AfParams p;
  Rng rng(99);
  std::vector<af::BlockPair> pairs;
  const std::size_t n_pairs = bench::fast_mode() ? 16 : 48;
  for (std::size_t i = 0; i < n_pairs; ++i)
    pairs.push_back(
        af::synthetic_block_pair(rng, p, rng.uniform_f(-0.5f, 0.5f)));

  constexpr std::pair<const char*, core::AfPlacement> kVariants[] = {
      {"compact", core::AfPlacement::kCompact},
      {"scattered", core::AfPlacement::kScattered},
      {"auto", core::AfPlacement::kAuto},
  };

  // The three placements are independent simulations: fan them out across
  // host threads (ESARP_JOBS); results are gathered by index and are
  // byte-identical for any thread count.
  host::SweepRunner pool(bench::sweep_jobs());
  std::cerr << "simulating compact / scattered / auto placements ("
            << pool.jobs() << " host thread(s))...\n";
  const auto runs = pool.run(3, [&](std::size_t i) {
    core::AfMapOptions opt;
    opt.placement = kVariants[i].second;
    return core::run_autofocus_mpmd(pairs, p, opt);
  });

  telemetry::RunManifest man("ablation_mapping");
  man.add_workload("n_pairs", static_cast<double>(n_pairs));
  man.add_workload("fast_mode", bench::fast_mode() ? 1.0 : 0.0);
  bench::Report rep(man);
  auto& t = rep.sheet(
      "Autofocus pipeline placement (13 cores, 4x4 mesh)",
      {{"Placement", "placement"},
       {"Throughput (px/s)", "px_per_s", bench::kPxRate, bench::kResult},
       {"Makespan (cycles)", "cycles", bench::kGrouped, bench::kResult},
       {"cMesh byte-hops", "byte_hops", bench::kGrouped, bench::kResult},
       {"cMesh transfers", "transfers", bench::kGrouped},
       {"NoC energy (uJ)", "noc_uj", {1}, bench::kResult}});
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const core::AfSimResult& r = runs[i];
    const std::string key = std::string(kVariants[i].first).append(".");
    t.row(key, {kVariants[i].first, r.pixels_per_second, r.cycles,
                r.perf.noc_write_onchip.byte_hops,
                r.perf.noc_write_onchip.transfers, r.energy.noc_j * 1e6});
    bench::add_hash(man, key + "criteria_checksum",
                    bench::criteria_checksum(r.criteria));
  }
  t.note("compact is the paper's Fig. 9 placement; 'auto' places the "
         "pipeline graph on the mesh greedily, heaviest channels shortest — "
         "the paper's future-work direction");
  t.note("the throughput penalty is small because on-chip bandwidth is "
         "64x the off-chip bandwidth (paper Section VI) — the cost shows "
         "up mainly as NoC energy and link occupancy");

  const auto hops = [&runs](std::size_t i) {
    return static_cast<double>(runs[i].perf.noc_write_onchip.byte_hops);
  };
  rep.require("all three placements give identical criteria",
              runs[1].criteria == runs[0].criteria &&
                  runs[2].criteria == runs[0].criteria);
  rep.require("scattered costs at least 2.5x the compact cMesh byte-hops",
              hops(1) >= 2.5 * hops(0));
  rep.require("auto costs fewer cMesh byte-hops than compact",
              hops(2) < hops(0));
  return rep.finish();
}

int main() { return esarp::bench::guarded_main("ablation_mapping", bench_body); }
