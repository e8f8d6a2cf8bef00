// Machine-level simulator tests: compute timing, external memory ops, DMA
// double buffering, channels, barriers, deadlock detection, counters and
// the energy model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "epiphany/energy.hpp"
#include "epiphany/machine.hpp"
#include "temp_file.hpp"

namespace esarp::ep {
namespace {

TEST(Machine, ComputeAdvancesTimePerCostModel) {
  Machine m;
  OpCounts ops{.fadd = 50, .fmul = 50}; // 100 FPU issues, dual-issue bound
  m.launch(0, [ops](CoreCtx& ctx) -> Task { co_await ctx.compute(ops); });
  const Cycles end = m.run();
  EXPECT_EQ(end, m.cost_model().cycles(ops));
  EXPECT_EQ(m.core(0).counters.busy, end);
  EXPECT_EQ(m.core(0).counters.ops.fadd, 50u);
}

TEST(CostModel, DualIssueTakesMaxOfStreams) {
  CostModel cm({.stall_overhead = 0.0, .branch_penalty = 0.0});
  EXPECT_EQ(cm.cycles({.fadd = 100}), 100u);
  EXPECT_EQ(cm.cycles({.ialu = 60, .load = 40}), 100u);
  // FPU and IALU streams overlap.
  EXPECT_EQ(cm.cycles({.fadd = 100, .ialu = 60, .load = 40}), 100u);
  // FMA occupies one issue slot.
  EXPECT_EQ(cm.cycles({.fma = 80}), 80u);
}

TEST(CostModel, BranchesAddPenalty) {
  CostModel cm({.stall_overhead = 0.0, .branch_penalty = 2.0});
  EXPECT_EQ(cm.cycles({.fadd = 10, .branch = 5}), 20u);
}

TEST(Machine, SequentialComputesAccumulate) {
  Machine m;
  m.launch(0, [](CoreCtx& ctx) -> Task {
    co_await ctx.compute({.fadd = 100});
    co_await ctx.compute({.fadd = 100});
  });
  Machine m2;
  m2.launch(0, [](CoreCtx& ctx) -> Task {
    co_await ctx.compute({.fadd = 200});
  });
  EXPECT_EQ(m.run(), m2.run());
}

TEST(Machine, ParallelCoresOverlapInTime) {
  auto heavy = [](CoreCtx& ctx) -> Task {
    co_await ctx.compute({.fadd = 10000});
  };
  Machine m1;
  m1.launch(0, heavy);
  const Cycles solo = m1.run();
  Machine m16;
  for (int c = 0; c < 16; ++c) m16.launch(c, heavy);
  const Cycles all = m16.run();
  EXPECT_EQ(solo, all); // independent compute: no slowdown
}

TEST(Machine, ExtReadMovesDataAndStalls) {
  Machine m;
  auto src = m.ext().alloc<int>(16);
  std::iota(src.begin(), src.end(), 0);
  int dst[16] = {};
  m.launch(0, [&](CoreCtx& ctx) -> Task {
    co_await ctx.read_ext(dst, src.data(), sizeof(dst));
  });
  const Cycles end = m.run();
  EXPECT_GE(end, m.config().ext_read_latency);
  EXPECT_EQ(dst[7], 7);
  EXPECT_EQ(m.core(0).counters.ext_stall, end);
  EXPECT_EQ(m.core(0).counters.ext_read_bytes, sizeof(dst));
}

TEST(Machine, ExtWriteIsPostedAndMovesData) {
  Machine m;
  auto dst = m.ext().alloc<int>(16);
  int src[16];
  std::iota(src, src + 16, 100);
  m.launch(0, [&](CoreCtx& ctx) -> Task {
    co_await ctx.write_ext(dst.data(), src, sizeof(src));
  });
  const Cycles end = m.run();
  EXPECT_LE(end, 16u); // posted: far cheaper than a read
  EXPECT_EQ(dst[15], 115);
}

TEST(Machine, GatherChargesPerTransaction) {
  Machine m1, m2;
  m1.launch(0, [](CoreCtx& ctx) -> Task {
    co_await ctx.read_ext_gather(1, 8);
  });
  m2.launch(0, [](CoreCtx& ctx) -> Task {
    co_await ctx.read_ext_gather(100, 8);
  });
  const Cycles one = m1.run();
  const Cycles hundred = m2.run();
  EXPECT_GE(hundred, 99 * one);
}

TEST(Machine, DmaOverlapsWithCompute) {
  // Start a DMA, compute meanwhile, then wait: total time should be close
  // to max(dma, compute), not the sum.
  Machine overlap;
  auto src = overlap.ext().alloc<cf32>(1001);
  Cycles dma_only = 0;
  {
    Machine m;
    auto s2 = m.ext().alloc<cf32>(1001);
    m.launch(0, [&](CoreCtx& ctx) -> Task {
      auto buf = ctx.local().alloc<cf32>(1001);
      DmaJob j = ctx.dma_read_ext(buf.data(), s2.data(), 8008);
      co_await ctx.wait(j);
    });
    dma_only = m.run();
  }
  overlap.launch(0, [&](CoreCtx& ctx) -> Task {
    auto buf = ctx.local().alloc<cf32>(1001);
    DmaJob j = ctx.dma_read_ext(buf.data(), src.data(), 8008);
    co_await ctx.compute({.fadd = 900}); // less than the DMA duration
    co_await ctx.wait(j);
  });
  const Cycles overlapped = overlap.run();
  EXPECT_LE(overlapped, dma_only + 50);
  EXPECT_GT(overlap.core(0).counters.dma_wait, 0u);
}

// --- Charge-only transfers (the in-place rule, core_ctx.hpp) --------------

/// What one machine leaves behind after the transfer scenario below: all a
/// charge-only op and its copying form must agree on, and the bytes.
struct TransferRun {
  Cycles makespan = 0;
  std::vector<Cycles> completions; ///< per core: burst job, then each write
  std::vector<CoreCounters> counters;
  ExtPortStats ext;
  std::vector<std::vector<PowerSampler::Activity>> bins;
  std::vector<std::string> diagnostics;
  std::vector<cf32> staged;  ///< every core's two DMA windows, after the run
  std::vector<cf32> written; ///< every SDRAM row the posted writes named
};

constexpr std::size_t kTwinRow = 64;
constexpr cf32 kSentinel{-7.0f, 7.0f};
constexpr int kTwinCores[2] = {0, 5};

/// Pixel `i` of the scenario's SDRAM source rows.
cf32 twin_source(std::size_t i) {
  return {static_cast<float>(i), -static_cast<float>(i)};
}

/// Two cores each burst two SDRAM rows into banks 2 and 3, post a write
/// sourced from a window still in flight (a sanitizer dma-race), await the
/// burst, compute, and post a clean write: through the charge-only ops
/// when `charge_only`, through their copying forms otherwise.
TransferRun run_transfer_twin(bool charge_only) {
  ChipConfig cfg;
  cfg.power.enabled = true;
  cfg.power.epoch_cycles = 256;
  cfg.check.enabled = true;
  cfg.check.abort_on_hazard = false;
  Machine m(cfg);
  auto src = m.ext().alloc<cf32>(4 * kTwinRow);
  auto dst = m.ext().alloc<cf32>(4 * kTwinRow);
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = twin_source(i);
  std::fill(dst.begin(), dst.end(), kSentinel);
  TransferRun out;
  std::vector<std::span<cf32>> windows;
  const std::size_t bytes = kTwinRow * sizeof(cf32);
  for (std::size_t k = 0; k < 2; ++k) {
    const int core = kTwinCores[k];
    m.launch(core, [&, k](CoreCtx& ctx) -> Task {
      auto result = ctx.local().alloc_in_bank<cf32>(kTwinRow, 1);
      auto a = ctx.local().alloc_in_bank<cf32>(kTwinRow, 2);
      auto b = ctx.local().alloc_in_bank<cf32>(kTwinRow, 3);
      std::fill(a.begin(), a.end(), kSentinel);
      std::fill(b.begin(), b.end(), kSentinel);
      windows.push_back(a);
      windows.push_back(b);
      const cf32* const rows = src.data() + 2 * k * kTwinRow;
      cf32* const targets = dst.data() + 2 * k * kTwinRow;
      const DmaSeg seg_a{a.data(), rows, bytes};
      const DmaSeg seg_b{b.data(), rows + kTwinRow, bytes};
      const DmaSeg segs[2] = {seg_a, seg_b};
      const DmaJob job = charge_only ? ctx.charge_dma_read_ext_burst(segs)
                                     : ctx.dma_read_ext_burst(segs);
      out.completions.push_back(job.done_at);
      const DelayUntil racy =
          charge_only ? ctx.charge_write_ext(targets, a.data(), bytes)
                      : ctx.write_ext(targets, a.data(), bytes);
      out.completions.push_back(racy.wake_at);
      co_await racy;
      co_await ctx.wait(job);
      co_await ctx.compute({.fadd = 100});
      cf32* const target = targets + kTwinRow;
      const DelayUntil clean =
          charge_only ? ctx.charge_write_ext(target, result.data(), bytes)
                      : ctx.write_ext(target, result.data(), bytes);
      out.completions.push_back(clean.wake_at);
      co_await clean;
    });
  }
  out.makespan = m.run();
  for (const int core : kTwinCores) {
    out.counters.push_back(m.core(core).counters);
    out.bins.push_back(m.power_sampler()->core_bins(core));
  }
  out.ext = m.ext_port().stats();
  for (const check::Diagnostic& d : m.checker()->diagnostics())
    out.diagnostics.push_back(d.format());
  for (const std::span<cf32> w : windows)
    out.staged.insert(out.staged.end(), w.begin(), w.end());
  out.written.assign(dst.begin(), dst.end());
  return out;
}

TEST(ChargeOnly, ChargesExactlyWhatTheCopyingFormsCharge) {
  const TransferRun charged = run_transfer_twin(true);
  const TransferRun copied = run_transfer_twin(false);
  EXPECT_EQ(charged.makespan, copied.makespan);
  EXPECT_EQ(charged.completions, copied.completions);
  ASSERT_EQ(charged.counters.size(), copied.counters.size());
  for (std::size_t c = 0; c < charged.counters.size(); ++c) {
    const CoreCounters& x = charged.counters[c];
    const CoreCounters& y = copied.counters[c];
    EXPECT_EQ(x.busy, y.busy);
    EXPECT_EQ(x.ext_stall, y.ext_stall);
    EXPECT_EQ(x.dma_wait, y.dma_wait);
    EXPECT_EQ(x.finish_time, y.finish_time);
    EXPECT_EQ(x.ext_read_bytes, y.ext_read_bytes);
    EXPECT_EQ(x.ext_write_bytes, y.ext_write_bytes);
    EXPECT_EQ(x.dma_transfers, y.dma_transfers);
    EXPECT_EQ(x.dma_bytes, y.dma_bytes);
    EXPECT_EQ(x.dma_transfers, 2u);
    EXPECT_EQ(x.ext_write_bytes, 2 * kTwinRow * sizeof(cf32));
  }
  EXPECT_EQ(charged.ext.read_transactions, copied.ext.read_transactions);
  EXPECT_EQ(charged.ext.read_bytes, copied.ext.read_bytes);
  EXPECT_EQ(charged.ext.write_transactions, copied.ext.write_transactions);
  EXPECT_EQ(charged.ext.write_bytes, copied.ext.write_bytes);
  ASSERT_EQ(charged.bins.size(), copied.bins.size());
  for (std::size_t c = 0; c < charged.bins.size(); ++c) {
    ASSERT_EQ(charged.bins[c].size(), copied.bins[c].size());
    for (std::size_t e = 0; e < charged.bins[c].size(); ++e) {
      const PowerSampler::Activity& x = charged.bins[c][e];
      const PowerSampler::Activity& y = copied.bins[c][e];
      EXPECT_EQ(x.busy, y.busy);
      EXPECT_EQ(x.fp, y.fp);
      EXPECT_EQ(x.ialu, y.ialu);
      EXPECT_EQ(x.ldst, y.ldst);
      EXPECT_EQ(x.byte_hops, y.byte_hops);
      EXPECT_EQ(x.elink_bytes, y.elink_bytes);
    }
  }
  // The racy write names the in-flight window on both machines.
  EXPECT_EQ(charged.diagnostics, copied.diagnostics);
  EXPECT_EQ(charged.diagnostics.size(), 2u);
}

TEST(ChargeOnly, LeavesEveryDestinationUntouched) {
  const TransferRun charged = run_transfer_twin(true);
  const TransferRun copied = run_transfer_twin(false);
  for (const cf32 v : charged.staged) EXPECT_EQ(v, kSentinel);
  for (const cf32 v : charged.written) EXPECT_EQ(v, kSentinel);
  // The twin copied: its windows hold the source rows, and its racy
  // writes posted them on to SDRAM.
  EXPECT_EQ(copied.staged[0], twin_source(0));
  EXPECT_EQ(copied.staged[3 * kTwinRow - 1], twin_source(3 * kTwinRow - 1));
  EXPECT_EQ(copied.written[2 * kTwinRow], twin_source(2 * kTwinRow));
}

TEST(ChargeOnly, RefusesAFaultCampaign) {
  // A fail-stop armed past the run attaches an injector that never fires:
  // an in-place transfer would hide real delivered bytes from it.
  for (const bool burst : {true, false}) {
    ChipConfig cfg;
    cfg.faults.fail_stops = {{3, 1'000'000'000ULL}};
    Machine m(cfg);
    ASSERT_NE(m.fault_injector(), nullptr);
    auto row = m.ext().alloc<cf32>(kTwinRow);
    m.launch(0, [&](CoreCtx& ctx) -> Task {
      auto w = ctx.local().alloc_in_bank<cf32>(kTwinRow, 2);
      const DmaSeg seg{w.data(), row.data(), kTwinRow * sizeof(cf32)};
      if (burst)
        co_await ctx.wait(ctx.charge_dma_read_ext_burst({&seg, 1}));
      else
        co_await ctx.charge_write_ext(row.data(), w.data(), seg.bytes);
    });
    try {
      (void)m.run();
      ADD_FAILURE() << "burst " << burst << ": no ContractViolation";
    } catch (const ContractViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("fault_ == nullptr"), std::string::npos) << what;
    }
  }
}

TEST(Machine, ChannelDeliversInOrderWithLatency) {
  Machine m;
  auto chan = m.make_channel<int>(/*consumer=*/1, 4);
  std::vector<int> received;
  m.launch(0, [&](CoreCtx& ctx) -> Task {
    for (int i = 0; i < 10; ++i) co_await chan->send(ctx, i);
  });
  m.launch(1, [&](CoreCtx& ctx) -> Task {
    for (int i = 0; i < 10; ++i) received.push_back(co_await chan->recv(ctx));
  });
  const Cycles end = m.run();
  EXPECT_EQ(received, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_GT(end, 0u);
  EXPECT_EQ(chan->stats().messages, 10u);
}

TEST(Machine, ChannelBackpressuresFastProducer) {
  Machine m;
  auto chan = m.make_channel<int>(1, 2); // tiny FIFO
  Cycles producer_done = 0;
  m.launch(0, [&](CoreCtx& ctx) -> Task {
    for (int i = 0; i < 8; ++i) co_await chan->send(ctx, i);
    producer_done = ctx.now();
  });
  m.launch(1, [&](CoreCtx& ctx) -> Task {
    for (int i = 0; i < 8; ++i) {
      (void)co_await chan->recv(ctx);
      co_await ctx.compute({.fadd = 1000}); // slow consumer
    }
  });
  m.run();
  // The producer cannot finish before the consumer has drained most slots.
  EXPECT_GT(producer_done, 4000u);
  EXPECT_GT(chan->stats().send_block_cycles, 0u);
}

TEST(Machine, ChannelToFarCoreTakesLonger) {
  auto run_one = [](int consumer) {
    Machine m;
    auto chan = m.make_channel<std::array<char, 64>>(consumer, 2);
    m.launch(0, [&chan](CoreCtx& ctx) -> Task {
      for (int i = 0; i < 100; ++i)
        co_await chan->send(ctx, std::array<char, 64>{});
    });
    m.launch(consumer, [&chan](CoreCtx& ctx) -> Task {
      for (int i = 0; i < 100; ++i) (void)co_await chan->recv(ctx);
    });
    return m.run();
  };
  EXPECT_LT(run_one(1), run_one(15)); // neighbour vs far corner
}

/// How often a channel operation found its FIFO open (send: room; recv: a
/// delivered message) and how often it had to wait.
struct ChannelBranches {
  int send_open = 0, send_blocked = 0, recv_open = 0, recv_blocked = 0;
};

/// One seeded run of three channels at FIFO depth `capacity`: a
/// neighbour pipeline (0 -> 1), a far one (2 -> 15) whose messages are
/// still in flight when the consumer asks, and a relay (4 -> 5 -> 6). Each
/// end computes a random 0-60 cycle block between messages, so sends find
/// the FIFO both open and full, and receives find a delivered message, one
/// still in flight and an empty FIFO. Returns every completion as (cycle,
/// core, message), then the engine counters, each core's chan_wait and
/// every channel block histogram's bucket counts.
std::vector<std::uint64_t> channel_resume_log(std::size_t capacity,
                                              ChannelBranches& seen) {
  Machine m;
  auto near = m.make_channel<int>(1, capacity, "near");
  auto far = m.make_channel<int>(15, capacity, "far");
  auto hop1 = m.make_channel<int>(5, capacity, "hop1");
  auto hop2 = m.make_channel<int>(6, capacity, "hop2");
  const Cycles inject = m.config().cycles_for_bytes_on_link(sizeof(int));
  std::vector<std::uint64_t> log;
  constexpr int kMessages = 60;
  auto record = [&log](CoreCtx& ctx, int msg) {
    log.insert(log.end(), {ctx.now(), static_cast<std::uint64_t>(ctx.id()),
                           static_cast<std::uint64_t>(msg)});
  };
  auto send = [&](CoreCtx& ctx, Channel<int>& out, int v) -> Task {
    const Cycles asked = ctx.now();
    co_await out.send(ctx, v);
    ++(ctx.now() == asked + inject ? seen.send_open : seen.send_blocked);
  };
  auto producer = [&](Channel<int>& out) {
    return [&, out_ = &out](CoreCtx& ctx) -> Task {
      Rng rng(1000 + static_cast<std::uint64_t>(ctx.id()) + 16 * capacity);
      for (int i = 0; i < kMessages; ++i) {
        co_await ctx.compute({.fadd = rng.below(61)});
        co_await send(ctx, *out_, i);
        record(ctx, i);
      }
    };
  };
  auto consumer = [&](Channel<int>& in, Channel<int>* out) {
    return [&, in_ = &in, out](CoreCtx& ctx) -> Task {
      Rng rng(2000 + static_cast<std::uint64_t>(ctx.id()) + 16 * capacity);
      for (int i = 0; i < kMessages; ++i) {
        co_await ctx.compute({.fadd = rng.below(61)});
        const Cycles asked = ctx.now();
        const int v = co_await in_->recv(ctx);
        ++(ctx.now() == asked ? seen.recv_open : seen.recv_blocked);
        record(ctx, v);
        if (out != nullptr) co_await send(ctx, *out, v + 100);
      }
    };
  };
  m.launch(0, producer(*near));
  m.launch(1, consumer(*near, nullptr));
  m.launch(2, producer(*far));
  m.launch(15, consumer(*far, nullptr));
  m.launch(4, producer(*hop1));
  m.launch(5, consumer(*hop1, hop2.get()));
  m.launch(6, consumer(*hop2, nullptr));
  m.run();

  const PerfReport rep = m.report();
  log.push_back(rep.engine_events);
  log.push_back(rep.engine_quanta);
  for (int id = 0; id < m.core_count(); ++id)
    log.push_back(m.core(id).counters.chan_wait);
  for (const auto& [name, h] : m.metrics().histograms())
    log.insert(log.end(), h.bucket_counts().begin(), h.bucket_counts().end());
  return log;
}

TEST(Channel, ResumeLogIsPinned) {
  // Pins when every send and receive completes, at FIFO depths 1-4, so a
  // change to how channel operations suspend and resume that moves any
  // event's cycle or order, or any wait's length, fails here.
  std::uint64_t digest = 0xcbf29ce484222325ULL; // FNV-1a 64
  ChannelBranches seen;
  for (std::size_t capacity = 1; capacity <= 4; ++capacity) {
    for (const std::uint64_t v : channel_resume_log(capacity, seen)) {
      for (int byte = 0; byte < 8; ++byte) {
        digest ^= (v >> (8 * byte)) & 0xffU;
        digest *= 0x100000001b3ULL;
      }
    }
  }
  // Both ends took both ways through the channel, many times.
  EXPECT_GT(seen.send_open, 50);
  EXPECT_GT(seen.send_blocked, 50);
  EXPECT_GT(seen.recv_open, 50);
  EXPECT_GT(seen.recv_blocked, 50);
  EXPECT_EQ(digest, 0xd1405998309eb779ULL) << std::hex << digest;
}

TEST(Channel, RecvOffTheConsumerCoreThrows) {
  // The consumer check holds whether or not a delivered message waits.
  {
    Machine m;
    auto chan = m.make_channel<int>(1, 2);
    m.launch(0, [&](CoreCtx& ctx) -> Task {
      (void)co_await chan->recv(ctx); // empty FIFO
    });
    EXPECT_THROW(m.run(), ContractViolation);
  }
  {
    Machine m;
    auto chan = m.make_channel<int>(1, 2);
    std::size_t waiting = 0;
    m.launch(0, [&](CoreCtx& ctx) -> Task {
      co_await chan->send(ctx, 7);
      co_await ctx.compute({.fadd = 1000}); // long after delivery
      waiting = chan->pending();
      (void)co_await chan->recv(ctx); // delivered head, wrong core
    });
    EXPECT_THROW(m.run(), ContractViolation);
    EXPECT_EQ(waiting, 1u);
  }
}

TEST(Machine, BarrierSynchronisesAllParties) {
  Machine m;
  auto bar = m.make_barrier(4);
  std::vector<Cycles> after(4);
  for (int c = 0; c < 4; ++c) {
    m.launch(c, [&, c](CoreCtx& ctx) -> Task {
      co_await ctx.compute({.fadd = static_cast<std::uint64_t>(100 * c)});
      co_await bar->arrive_and_wait(ctx);
      after[c] = ctx.now();
    });
  }
  m.run();
  // Everyone leaves the barrier at the same cycle, after the slowest.
  for (int c = 1; c < 4; ++c) EXPECT_EQ(after[c], after[0]);
  EXPECT_GE(after[0], 300u);
  EXPECT_EQ(bar->crossings(), 4u);
}

TEST(Machine, BarrierIsReusableAcrossIterations) {
  Machine m;
  auto bar = m.make_barrier(2);
  std::vector<int> order;
  for (int c = 0; c < 2; ++c) {
    m.launch(c, [&, c](CoreCtx& ctx) -> Task {
      for (int iter = 0; iter < 3; ++iter) {
        co_await ctx.compute({.fadd = static_cast<std::uint64_t>(
                                  100 * (c + 1) * (iter + 1))});
        co_await bar->arrive_and_wait(ctx);
        if (c == 0) order.push_back(iter);
      }
    });
  }
  m.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(bar->generation(), 3u);
}

TEST(Machine, DeadlockIsDetected) {
  Machine m;
  auto chan = m.make_channel<int>(1, 1);
  m.launch(1, [&](CoreCtx& ctx) -> Task {
    (void)co_await chan->recv(ctx); // nobody ever sends
  });
  EXPECT_THROW(m.run(), SimDeadlock);
}

TEST(Machine, KernelExceptionPropagates) {
  Machine m;
  m.launch(0, [](CoreCtx& ctx) -> Task {
    co_await ctx.compute({.fadd = 1});
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(m.run(), std::runtime_error);
}

TEST(Machine, LaunchValidation) {
  Machine m;
  auto prog = [](CoreCtx& ctx) -> Task { co_await ctx.idle(1); };
  m.launch(0, prog);
  EXPECT_THROW(m.launch(0, prog), ContractViolation); // duplicate core
  EXPECT_THROW(m.launch(99, prog), ContractViolation);
}

TEST(Machine, ReportAggregatesCounters) {
  Machine m;
  for (int c = 0; c < 4; ++c)
    m.launch(c, [](CoreCtx& ctx) -> Task {
      co_await ctx.compute({.fadd = 100, .fma = 50});
    });
  m.run();
  const PerfReport rep = m.report();
  EXPECT_EQ(rep.total_ops().fadd, 400u);
  EXPECT_EQ(rep.total_ops().flops(), 400u + 4 * 2 * 50u);
  EXPECT_GT(rep.makespan, 0u);
  EXPECT_GT(rep.utilization(), 0.9); // pure compute, no waiting
  EXPECT_FALSE(rep.summary().empty());
  EXPECT_FALSE(rep.per_core_table().empty());
}

TEST(Energy, BusyChipNearTwoWatts) {
  // The paper's Table-I figure for the E16G3: ~2 W at 1 GHz all-busy.
  const double peak = peak_chip_watts(ChipConfig{});
  EXPECT_GT(peak, 1.0);
  EXPECT_LT(peak, 3.0);
}

TEST(Energy, IdleCoresCostAlmostNothing) {
  // Same work on 1 core vs chip with 15 idle cores: energy should be
  // dominated by the active core (fine-grained clock gating).
  Machine m;
  m.launch(0, [](CoreCtx& ctx) -> Task {
    co_await ctx.compute({.fadd = 1000000});
  });
  m.run();
  const EnergyReport e = compute_energy(m.report());
  EXPECT_GT(e.total_j(), 0.0);
  EXPECT_LT(e.core_idle_j, e.core_active_j);
  EXPECT_GT(e.avg_watts, 0.0);
  EXPECT_LT(e.avg_watts, 2.0); // far below the all-busy figure
}

TEST(Energy, MoreWorkMoreJoules) {
  auto joules_for = [](std::uint64_t n) {
    Machine m;
    m.launch(0, [n](CoreCtx& ctx) -> Task {
      co_await ctx.compute({.fadd = n});
    });
    m.run();
    return compute_energy(m.report()).total_j();
  };
  EXPECT_LT(joules_for(1000), joules_for(100000));
}

TEST(Machine, WriteRemoteMovesDataWithInjectCost) {
  Machine m;
  // The destination must live in the target core's local store — the
  // hazard sanitizer (ESARP_CHECK=1) flags windows into host memory.
  auto dst = m.core(m.id_of({0, 1})).mem().alloc<int>(1);
  const int src_value = 42;
  m.launch(0, [&](CoreCtx& ctx) -> Task {
    co_await ctx.write_remote({0, 1}, dst.data(), &src_value, sizeof(int));
  });
  const Cycles end = m.run();
  EXPECT_EQ(dst[0], 42);
  EXPECT_LE(end, 4u); // writer only pays injection
}


TEST(Trace, DisabledByDefault) {
  Machine m;
  m.launch(0, [](CoreCtx& ctx) -> Task {
    co_await ctx.compute({.fadd = 100});
  });
  m.run();
  EXPECT_EQ(m.tracer().size(), 0u);
}

TEST(Trace, RecordsComputeAndWaitSegments) {
  Machine m;
  m.enable_tracing();
  auto chan = m.make_channel<int>(1, 2);
  m.launch(0, [&](CoreCtx& ctx) -> Task {
    co_await ctx.compute({.fadd = 100});
    co_await chan->send(ctx, 7);
  });
  m.launch(1, [&](CoreCtx& ctx) -> Task {
    (void)co_await chan->recv(ctx);
  });
  m.run();
  EXPECT_GT(m.tracer().size(), 0u);
  // Compute cycles in the trace match the counter.
  EXPECT_EQ(m.tracer().total_cycles(SegmentKind::kCompute),
            m.core(0).counters.busy);
  // The receiver blocked waiting for the message.
  EXPECT_GT(m.tracer().total_cycles(SegmentKind::kChanRecv), 0u);
}

TEST(Trace, ChromeJsonExport) {
  Machine m;
  m.enable_tracing();
  auto src = m.ext().alloc<int>(64);
  m.launch(0, [&](CoreCtx& ctx) -> Task {
    int buf[64];
    co_await ctx.read_ext(buf, src.data(), sizeof(buf));
    co_await ctx.compute({.fmul = 50});
  });
  m.run();
  const auto path = tests::temp_file("esarp_trace.json");
  m.tracer().write_chrome_json(path);
  std::ifstream f(path);
  std::string content((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("traceEvents"), std::string::npos);
  EXPECT_NE(content.find("compute"), std::string::npos);
  EXPECT_NE(content.find("ext-read"), std::string::npos);
  std::filesystem::remove(path);
}


TEST(Machine, ReadRemoteMovesDataAndStallsForRoundTrip) {
  Machine m;
  int remote_value = 99;
  int local_copy = 0;
  m.launch(0, [&](CoreCtx& ctx) -> Task {
    co_await ctx.read_remote({3, 3}, &local_copy, &remote_value,
                             sizeof(int));
  });
  const Cycles end = m.run();
  EXPECT_EQ(local_copy, 99);
  // Round trip across the mesh: strictly slower than a local access and
  // slower than the posted write direction.
  EXPECT_GE(end, 12u); // 6 hops out + 6 back at 1 cycle/hop
  EXPECT_GT(m.core(0).counters.ext_stall, 0u);
}

TEST(Machine, RemoteReadSlowerThanRemoteWrite) {
  // The asymmetry the paper's pipelines exploit: push with writes. Remote
  // windows target real local-store bytes on core (3,3) so the hazard
  // sanitizer accepts the traffic.
  Machine mw, mr;
  auto wdst = mw.core(mw.id_of({3, 3})).mem().alloc<int>(1);
  auto rsrc = mr.core(mr.id_of({3, 3})).mem().alloc<int>(1);
  int out = 0;
  const int v = 5;
  mw.launch(0, [&](CoreCtx& ctx) -> Task {
    for (int i = 0; i < 100; ++i)
      co_await ctx.write_remote({3, 3}, wdst.data(), &v, sizeof(int));
  });
  mr.launch(0, [&](CoreCtx& ctx) -> Task {
    for (int i = 0; i < 100; ++i)
      co_await ctx.read_remote({3, 3}, &out, rsrc.data(), sizeof(int));
  });
  EXPECT_LT(mw.run(), mr.run() / 3);
}

namespace watchdog_detail {
Task forever(Scheduler& s) {
  for (;;) co_await DelayFor{s, 1000}; // never terminates on its own
}
} // namespace watchdog_detail

TEST(Scheduler, WatchdogCatchesRunawaySimulation) {
  Scheduler s;
  Task t = watchdog_detail::forever(s);
  s.schedule_at(0, t.handle());
  EXPECT_THROW(s.run(50'000), ContractViolation);
}

} // namespace
} // namespace esarp::ep
