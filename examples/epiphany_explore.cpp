// Tour of the Epiphany chip simulator as a standalone substrate: write a
// small MPMD program by hand (producer -> worker -> consumer over NoC
// channels, with DMA from SDRAM and a barrier), run it, and inspect the
// timing, per-core counters, NoC statistics and the energy breakdown.
//
// Build & run:  ./examples/epiphany_explore
#include <iostream>
#include <numeric>
#include <vector>

#include "common/format.hpp"
#include "common/table.hpp"
#include "epiphany/energy.hpp"
#include "epiphany/machine.hpp"

using namespace esarp;
using namespace esarp::ep;

namespace {

constexpr std::size_t kItems = 256;

struct WorkItem {
  float values[16];
};

/// Producer (core 0): DMA blocks from SDRAM and stream them to the worker.
Task producer(CoreCtx& ctx, std::span<const WorkItem> input,
              Channel<WorkItem>& out) {
  auto staging = ctx.local().alloc<WorkItem>(8);
  for (std::size_t i = 0; i < input.size(); i += 8) {
    DmaJob job = ctx.dma_read_ext(staging.data(), &input[i],
                                  8 * sizeof(WorkItem));
    co_await ctx.wait(job);
    for (std::size_t k = 0; k < 8; ++k)
      co_await out.send(ctx, staging[k]);
  }
}

/// Worker (core 1): square every value (counted as FMA work) and forward.
Task worker(CoreCtx& ctx, Channel<WorkItem>& in, Channel<float>& out) {
  for (std::size_t i = 0; i < kItems; ++i) {
    WorkItem item = co_await in.recv(ctx);
    float acc = 0.0f;
    for (float v : item.values) acc += v * v;
    co_await ctx.compute({.fma = 16, .load = 16});
    co_await out.send(ctx, acc);
  }
}

/// Consumer (core 2): accumulate and post the result to SDRAM.
Task consumer(CoreCtx& ctx, Channel<float>& in, std::span<float> result) {
  float total = 0.0f;
  for (std::size_t i = 0; i < kItems; ++i) {
    total += co_await in.recv(ctx);
    co_await ctx.compute({.fadd = 1});
  }
  co_await ctx.write_ext(result.data(), &total, sizeof(total));
}

} // namespace

int main() {
  Machine m; // default: the 4x4 E16G3 at 1 GHz

  std::cout << "chip: " << m.config().rows << "x" << m.config().cols
            << " cores @ " << m.config().clock_hz / 1e9 << " GHz, "
            << format_bytes(m.config().local_mem_bytes)
            << " local store per core, eLink "
            << m.config().elink_bytes_per_cycle << " B/cycle\n\n";

  // Input data in SDRAM.
  auto input = m.ext().alloc<WorkItem>(kItems);
  float expected = 0.0f;
  for (std::size_t i = 0; i < kItems; ++i)
    for (std::size_t k = 0; k < 16; ++k) {
      input[i].values[k] = static_cast<float>((i + k) % 7);
      expected += input[i].values[k] * input[i].values[k];
    }
  auto result = m.ext().alloc<float>(1);

  // Pipeline on three neighbouring cores (ids 0, 1, 2 share a mesh row).
  auto c01 = m.make_channel<WorkItem>(1, 4, "producer->worker");
  auto c12 = m.make_channel<float>(2, 4, "worker->consumer");

  m.launch(0, [&](CoreCtx& ctx) { return producer(ctx, input, *c01); });
  m.launch(1, [&](CoreCtx& ctx) { return worker(ctx, *c01, *c12); });
  m.launch(2, [&](CoreCtx& ctx) { return consumer(ctx, *c12, result); });

  const Cycles end = m.run();
  std::cout << "pipeline finished at cycle " << format_cycles(end) << " ("
            << format_seconds(m.seconds(end)) << " of chip time)\n";
  std::cout << "result " << result[0] << " (expected " << expected << ")\n\n";

  const PerfReport rep = m.report();
  std::cout << rep.summary() << rep.per_core_table() << "\n";

  const EnergyReport energy = compute_energy(rep);
  std::cout << energy.summary() << "\n";
  std::cout << "chip all-busy power would be "
            << Table::num(peak_chip_watts(m.config()), 2)
            << " W (the paper's 2 W Table-I figure)\n";

  std::cout << "\nchannel stats: " << c01->name() << " carried "
            << c01->stats().messages << " messages ("
            << format_bytes(c01->stats().bytes) << "), producer blocked "
            << format_cycles(c01->stats().send_block_cycles) << " cycles\n";
  return 0;
}
