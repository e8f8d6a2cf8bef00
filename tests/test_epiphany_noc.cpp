// Tests for the eMesh NoC model, the off-chip port, and the local/external
// memories.
#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "epiphany/config.hpp"
#include "epiphany/ext_port.hpp"
#include "epiphany/external_memory.hpp"
#include "epiphany/local_memory.hpp"
#include "epiphany/noc.hpp"

namespace esarp::ep {
namespace {

ChipConfig cfg() { return ChipConfig{}; }

TEST(Coord, HopDistanceIsManhattan) {
  EXPECT_EQ(hop_distance({0, 0}, {0, 0}), 0);
  EXPECT_EQ(hop_distance({0, 0}, {3, 3}), 6);
  EXPECT_EQ(hop_distance({2, 1}, {0, 3}), 4);
}

TEST(Noc, LocalTransferIsFree) {
  Noc noc(cfg());
  EXPECT_EQ(noc.transfer({1, 1}, {1, 1}, 64, 100, Mesh::kOnChipWrite), 100u);
}

TEST(Noc, NeighbourTransferLatency) {
  Noc noc(cfg());
  // 8 bytes to a neighbour: 1 hop + 1 cycle serialisation.
  EXPECT_EQ(noc.transfer({0, 0}, {0, 1}, 8, 0, Mesh::kOnChipWrite), 2u);
}

TEST(Noc, LatencyScalesWithHops) {
  Noc noc(cfg());
  const Cycles near = noc.probe({0, 0}, {0, 1}, 8, 0, Mesh::kOnChipWrite);
  const Cycles far = noc.probe({0, 0}, {3, 3}, 8, 0, Mesh::kOnChipWrite);
  EXPECT_EQ(far - near, 5u); // 6 hops vs 1 hop at 1 cycle each
}

TEST(Noc, SerializationScalesWithBytes) {
  Noc noc(cfg());
  const Cycles small = noc.probe({0, 0}, {0, 1}, 8, 0, Mesh::kOnChipWrite);
  const Cycles big = noc.probe({0, 0}, {0, 1}, 800, 0, Mesh::kOnChipWrite);
  EXPECT_EQ(big - small, 99u); // (800-8)/8 extra cycles at 8 B/cycle
}

TEST(Noc, SharedLinkSerializesOverlappingTransfers) {
  Noc noc(cfg());
  // Two messages over the same first link at the same time: the second
  // starts after the first releases the link.
  const Cycles t1 = noc.transfer({0, 0}, {0, 3}, 80, 0, Mesh::kOnChipWrite);
  const Cycles t2 = noc.transfer({0, 0}, {0, 3}, 80, 0, Mesh::kOnChipWrite);
  EXPECT_GT(t2, t1);
  EXPECT_GE(t2 - t1, 10u); // at least one serialisation quantum apart
}

TEST(Noc, DisjointPathsDoNotInterfere) {
  Noc noc(cfg());
  const Cycles t1 = noc.transfer({0, 0}, {0, 1}, 80, 0, Mesh::kOnChipWrite);
  const Cycles t2 = noc.transfer({3, 3}, {3, 2}, 80, 0, Mesh::kOnChipWrite);
  EXPECT_EQ(t1, t2); // same shape, independent links
}

TEST(Noc, MeshesAreIndependent) {
  Noc noc(cfg());
  noc.transfer({0, 0}, {0, 1}, 8000, 0, Mesh::kOnChipWrite);
  // The read mesh is physically separate: unaffected by write traffic.
  EXPECT_EQ(noc.probe({0, 0}, {0, 1}, 8, 0, Mesh::kRead), 2u);
}

TEST(Noc, StatsAccumulatePerMesh) {
  Noc noc(cfg());
  noc.transfer({0, 0}, {1, 1}, 16, 0, Mesh::kOnChipWrite);
  noc.transfer({0, 0}, {0, 1}, 8, 0, Mesh::kRead);
  EXPECT_EQ(noc.stats(Mesh::kOnChipWrite).transfers, 1u);
  EXPECT_EQ(noc.stats(Mesh::kOnChipWrite).bytes, 16u);
  EXPECT_EQ(noc.stats(Mesh::kOnChipWrite).byte_hops, 32u); // 2 hops
  EXPECT_EQ(noc.stats(Mesh::kRead).transfers, 1u);
  EXPECT_EQ(noc.stats_total().transfers, 2u);
}

TEST(Noc, ResetClearsStatsAndOccupancy) {
  Noc noc(cfg());
  noc.transfer({0, 0}, {3, 3}, 800, 0, Mesh::kOnChipWrite);
  noc.reset_stats();
  EXPECT_EQ(noc.stats_total().transfers, 0u);
  EXPECT_EQ(noc.probe({0, 0}, {0, 1}, 8, 0, Mesh::kOnChipWrite), 2u);
}


TEST(Noc, LinkUsageReportsOnlyActiveLinks) {
  Noc noc(cfg());
  EXPECT_TRUE(noc.link_usage(Mesh::kOnChipWrite).empty());
  noc.transfer({0, 0}, {0, 2}, 64, 0, Mesh::kOnChipWrite);
  const auto usage = noc.link_usage(Mesh::kOnChipWrite);
  ASSERT_EQ(usage.size(), 2u); // two eastbound hops
  for (const auto& u : usage) {
    EXPECT_EQ(u.direction, 'E');
    EXPECT_EQ(u.bytes, 64u);
    EXPECT_GT(u.busy, 0u);
  }
  EXPECT_TRUE(noc.link_usage(Mesh::kRead).empty()); // other mesh untouched
}

TEST(ExtPort, BlockingReadPaysLatencyPerTransaction) {
  Noc noc(cfg());
  ExtPort port(cfg(), noc);
  const Cycles one = port.blocking_read({0, 0}, 1, 8, 0);
  // n transactions cost ~n times one transaction (no pipelining).
  Noc noc3(cfg());
  ExtPort port3(cfg(), noc3);
  const Cycles ten = port3.blocking_read({0, 0}, 10, 8, 0);
  EXPECT_GE(ten, 9 * one);
}

TEST(ExtPort, DmaReadStreamsAtLinkBandwidth) {
  Noc noc(cfg());
  ExtPort port(cfg(), noc);
  const Cycles t1 = port.dma_read({0, 0}, 8000, 0);
  // 8000 B at 8 B/cycle = 1000 cycles of streaming plus fixed overheads.
  EXPECT_GE(t1, 1000u);
  EXPECT_LE(t1, 1200u);
}

TEST(ExtPort, DmaIsFasterThanBlockingPerByte) {
  Noc noc_a(cfg()), noc_b(cfg());
  ExtPort a(cfg(), noc_a), b(cfg(), noc_b);
  const Cycles dma = a.dma_read({0, 0}, 8000, 0);
  const Cycles blocking = b.blocking_read({0, 0}, 1000, 8, 0);
  EXPECT_LT(dma, blocking / 5); // the prefetch advantage the paper exploits
}

TEST(ExtPort, PostedWriteReturnsQuickly) {
  Noc noc(cfg());
  ExtPort port(cfg(), noc);
  // A single 8-byte posted write costs ~1 issue cycle (paper: writes do
  // not stall).
  EXPECT_LE(port.posted_write({0, 0}, 8, 0), 2u);
}

TEST(ExtPort, SustainedWritesEventuallyBackpressure) {
  Noc noc(cfg());
  ExtPort port(cfg(), noc);
  Cycles t = 0;
  // Issue many large writes back-to-back at the same timestamp: the write
  // channel backlog must eventually stall the producer.
  Cycles done = 0;
  for (int i = 0; i < 100; ++i) done = port.posted_write({0, 0}, 8000, t);
  EXPECT_GT(done, 1000u);
}

TEST(ExtPort, ReadAndWriteChannelsAreIndependent) {
  Noc noc(cfg());
  ExtPort port(cfg(), noc);
  for (int i = 0; i < 10; ++i) port.posted_write({0, 0}, 8000, 0);
  // Reads unaffected by the write backlog (separate meshes/channels).
  const Cycles read_done = port.blocking_read({0, 0}, 1, 8, 0);
  EXPECT_LE(read_done, cfg().ext_read_latency + 16);
}

TEST(LocalMemory, AllocRespectsCapacity) {
  LocalMemory mem(32768, 4);
  auto a = mem.alloc<float>(1000);
  EXPECT_EQ(a.size(), 1000u);
  EXPECT_GE(mem.used(), 4000u);
  EXPECT_THROW(mem.alloc<float>(8000), ContractViolation);
}

TEST(LocalMemory, BankPlacementMatchesPaperLayout) {
  LocalMemory mem(32768, 4);
  EXPECT_EQ(mem.bank_size(), 8192u);
  // The paper's layout: output row in bank 1, child rows in banks 2-3
  // (1001 complex pixels = 8008 bytes per row; two rows = 16,016 bytes).
  auto out = mem.alloc_in_bank<cf32>(1001, 1);
  auto c1 = mem.alloc_in_bank<cf32>(1001, 2);
  auto c2 = mem.alloc_in_bank<cf32>(1001, 3);
  EXPECT_EQ(mem.offset_of(out.data()), 8192u);
  EXPECT_EQ(mem.offset_of(c1.data()), 16384u);
  EXPECT_EQ(mem.offset_of(c2.data()), 24576u);
  EXPECT_EQ(c1.size_bytes() + c2.size_bytes(), 16016u); // paper Section V-B
}

TEST(LocalMemory, BanksMustBeClaimedInOrder) {
  LocalMemory mem(32768, 4);
  (void)mem.alloc_in_bank<float>(10, 2);
  EXPECT_THROW(mem.alloc_in_bank<float>(10, 1), ContractViolation);
}

TEST(LocalMemory, HighWaterTracksPeak) {
  LocalMemory mem(32768, 4);
  (void)mem.alloc<float>(100);
  const auto peak = mem.high_water();
  mem.reset();
  EXPECT_EQ(mem.used(), 0u);
  EXPECT_EQ(mem.high_water(), peak);
}

TEST(LocalMemory, OwnsIdentifiesPointers) {
  LocalMemory mem(1024, 4);
  auto s = mem.alloc<int>(4);
  int outside = 0;
  EXPECT_TRUE(mem.owns(s.data()));
  EXPECT_FALSE(mem.owns(&outside));
}

TEST(ExternalMemory, AllocAndOffsets) {
  ExternalMemory ext(1 << 20);
  auto a = ext.alloc<double>(10);
  auto b = ext.alloc<double>(10);
  EXPECT_TRUE(ext.owns(a.data()));
  EXPECT_GT(ext.offset_of(b.data()), ext.offset_of(a.data()));
  EXPECT_THROW(ext.alloc<double>(1 << 20), ContractViolation);
}

} // namespace
} // namespace esarp::ep
