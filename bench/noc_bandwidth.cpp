// Validates the simulated interconnect against the paper's Section III
// datasheet numbers: 64 GB/s NoC cross-section bandwidth, 512 GB/s total
// on-chip bandwidth, 8 GB/s total off-chip bandwidth, single-cycle
// per-node routing latency at 1 GHz.
#include <iostream>

#include "bench_util.hpp"
#include "epiphany/machine.hpp"
#include "epiphany/machine_metrics.hpp"

static int bench_body() {
  using namespace esarp;
  using namespace esarp::ep;
  const ChipConfig cfg;
  constexpr std::size_t kBytesPerFlow = 1u << 20; // 1 MB per flow

  // --- Bisection bandwidth: 8 flows crossing the vertical mid-cut. ---
  double bisection_gbs = 0.0;
  {
    Machine m(cfg);
    for (int r = 0; r < 4; ++r) {
      for (int half = 0; half < 2; ++half) {
        // One flow per row per direction: (r,1)->(r,2) and (r,2)->(r,1).
        const int src = m.id_of({r, half == 0 ? 1 : 2});
        const int dst_core = m.id_of({r, half == 0 ? 2 : 1});
        const Coord dst = m.coord_of(dst_core);
        // Each receiver gets one incoming flow: a real local-store sink
        // (the hazard sanitizer rejects remote windows into host memory).
        auto sink = m.core(dst_core).mem().alloc<std::byte>(1024);
        m.launch(src, [dst, sink](CoreCtx& ctx) -> Task {
          std::byte payload[1024] = {};
          for (std::size_t sent = 0; sent < kBytesPerFlow;
               sent += sizeof(payload))
            co_await ctx.write_remote(dst, sink.data(), payload,
                                      sizeof(payload));
        });
      }
    }
    const Cycles c = m.run();
    const double total_bytes = 8.0 * kBytesPerFlow;
    bisection_gbs = total_bytes / m.seconds(c) / 1e9;
  }

  // --- Aggregate on-chip bandwidth: all 16 cores stream to a neighbour
  //     over disjoint links (4 independent rows x 4 directed flows). ---
  double aggregate_gbs = 0.0;
  {
    Machine m(cfg);
    for (int id = 0; id < 16; ++id) {
      const Coord src = m.coord_of(id);
      const Coord dst{src.row, (src.col + 1) % 4};
      // The ring gives every core exactly one upstream neighbour, so one
      // local-store sink per destination core suffices.
      auto sink = m.core(m.id_of(dst)).mem().alloc<std::byte>(1024);
      m.launch(id, [dst, sink](CoreCtx& ctx) -> Task {
        std::byte payload[1024] = {};
        for (std::size_t sent = 0; sent < kBytesPerFlow;
             sent += sizeof(payload))
          co_await ctx.write_remote(dst, sink.data(), payload,
                                    sizeof(payload));
      });
    }
    const Cycles c = m.run();
    aggregate_gbs = 16.0 * kBytesPerFlow / m.seconds(c) / 1e9;
  }

  // --- Off-chip bandwidth: all cores DMA-stream from SDRAM. ---
  ChipRun offchip;
  {
    Machine m(bench::power_chip(cfg), 64u << 20);
    auto src = m.ext().alloc<std::byte>(16 * kBytesPerFlow);
    for (int id = 0; id < 16; ++id) {
      const std::byte* base = src.data() + id * kBytesPerFlow;
      m.launch(id, [base](CoreCtx& ctx) -> Task {
        auto buf = ctx.local().alloc<std::byte>(8192);
        for (std::size_t got = 0; got < kBytesPerFlow; got += 8192) {
          DmaJob j = ctx.dma_read_ext(buf.data(), base + got, 8192);
          co_await ctx.wait(j);
        }
      });
    }
    offchip = collect_run(m, m.run());
  }
  const double offchip_gbs = 16.0 * kBytesPerFlow / offchip.seconds / 1e9;

  // --- Per-hop latency: probe an idle mesh. ---
  Machine probe(cfg);
  const Cycles lat1 =
      probe.noc().probe({0, 0}, {0, 1}, 8, 0, Mesh::kOnChipWrite);
  const Cycles lat6 =
      probe.noc().probe({0, 0}, {3, 3}, 8, 0, Mesh::kOnChipWrite);
  const double per_hop = static_cast<double>(lat6 - lat1) / 5.0;

  // Manifest keyed on the off-chip streaming leg (the contended resource);
  // the simulated row's four figures are its results.
  telemetry::RunManifest man("noc_bandwidth");
  bench::Report rep(man);
  auto& t = rep.sheet(
      "eGrid NoC: simulated vs datasheet bandwidth (paper Section III)",
      {{"Source", "source"},
       {"Cross-section (GB/s)", "bisection_gbs", {1}, bench::kResult},
       {"Aggregate on-chip (GB/s)", "aggregate_gbs", {1}, bench::kResult},
       {"Off-chip (GB/s)", "offchip_gbs", {2}, bench::kResult},
       {"Routing (cycles/node)", "hop_latency_cycles", {2},
        bench::kResult}});
  t.row("", {"simulated", bisection_gbs, aggregate_gbs, offchip_gbs, per_hop});
  t.row({"datasheet", 64, 512, 8, 1});
  t.note("aggregate here uses one injector per core (16 of 64 links "
         "active): 16 links x 8 B/cycle = 128 GB/s is the 16-flow bound; "
         "the 512 GB/s datasheet figure counts all 64 node links");
  t.note("off-chip below 8 GB/s reflects DMA setup + SDRAM latency per "
         "8 KB burst");

  fill_manifest(man, offchip);
  // No image here: charge energy per streamed cf32-sized word (the SAR
  // pixel equivalent) so the CI energy gate covers this manifest too.
  bench::add_energy_per_pixel(man, offchip,
                              16.0 * kBytesPerFlow / sizeof(cf32));
  return rep.finish();
}

int main() { return esarp::bench::guarded_main("noc_bandwidth", bench_body); }
