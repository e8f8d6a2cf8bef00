// Reproduces the paper's Section VI memory-system analysis with synthetic
// kernels on the simulated chip:
//   "writing has a single cycle throughput whereas the memory read
//    operation is more expensive due to stalling."
// Measures per-8-byte-access cost for: local-store access, posted external
// write, blocking external read, and DMA-streamed external read.
#include <iostream>

#include "bench_util.hpp"
#include "epiphany/machine.hpp"

static int bench_body() {
  using namespace esarp;
  using namespace esarp::ep;
  constexpr std::uint64_t kWords = 8192; // 64 KB in 8-byte accesses

  auto run = [&](auto&& body) {
    Machine m;
    m.launch(0, std::forward<decltype(body)>(body));
    const Cycles c = m.run();
    return static_cast<double>(c) / kWords;
  };

  // The four synthetic kernels are independent single-core machines: fan
  // them out across host threads (ESARP_JOBS); gathered by index.
  host::SweepRunner pool(bench::sweep_jobs());
  const auto costs = pool.run(4, [&](std::size_t i) -> double {
    switch (i) {
      case 0:
        // Local-store traffic: one load + one store slot per 8-byte word.
        return run([](CoreCtx& ctx) -> Task {
          co_await ctx.compute({.load = 2 * kWords, .store = 2 * kWords});
        });
      case 1:
        // Posted external writes, 8 bytes each.
        return run([](CoreCtx& ctx) -> Task {
          auto dst = ctx.ext().alloc<double>(kWords);
          const double v = 1.0;
          for (std::uint64_t j = 0; j < kWords; ++j)
            co_await ctx.write_ext(&dst[j], &v, 8);
        });
      case 2:
        // Blocking external reads, 8 bytes each (the sequential-FFBP
        // pattern).
        return run([](CoreCtx& ctx) -> Task {
          co_await ctx.read_ext_gather(kWords, 8);
        });
      default:
        // DMA bulk read of the same volume into local memory, in
        // row-sized chunks (the SPMD-FFBP prefetch pattern).
        return run([](CoreCtx& ctx) -> Task {
          auto src = ctx.ext().alloc<double>(kWords);
          auto buf = ctx.local().alloc<double>(1024);
          for (std::uint64_t j = 0; j < kWords; j += 1024) {
            DmaJob jb = ctx.dma_read_ext(buf.data(), &src[j], 1024 * 8);
            co_await ctx.wait(jb);
          }
        });
    }
  });
  const double posted = costs[1];

  bench::Report rep("ablation_memory");
  auto& t = rep.sheet("External-memory access cost (cycles per 8-byte word)",
                      {{"Access pattern", "pattern"},
                       {"Cycles/word", "cycles_per_word"},
                       {"vs posted write", "vs_posted_write", {1, 1, "x"}}});
  const char* kPatterns[] = {"local store (dual-issue load+store)",
                             "posted external write", "blocking external read",
                             "DMA-streamed external read"};
  for (std::size_t i = 0; i < costs.size(); ++i)
    t.row({kPatterns[i], costs[i], costs[i] / posted});
  t.note("paper: posted writes retire at one per cycle; blocking reads "
         "stall for the full SDRAM round trip — the asymmetry that makes "
         "sequential FFBP 3x slower on Epiphany and prefetching essential");
  return rep.finish();
}

int main() { return esarp::bench::guarded_main("ablation_memory", bench_body); }
