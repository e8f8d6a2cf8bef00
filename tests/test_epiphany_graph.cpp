// Tests for the automatic mesh placement of process graphs
// (ep::place_graph), which AfPlacement::kAuto runs on the autofocus
// pipeline.
#include <gtest/gtest.h>

#include <vector>

#include "common/assert.hpp"
#include "epiphany/graph.hpp"

namespace esarp::ep {
namespace {

TEST(PlaceGraph, PlacesConnectedNodesAdjacently) {
  const GraphEdge edges[] = {{0, 1, 1.0}, {1, 2, 1.0}};
  const std::vector<Coord> pl = place_graph(4, 4, 3, edges);
  ASSERT_EQ(pl.size(), 3u);
  EXPECT_EQ(hop_distance(pl[0], pl[1]), 1);
  EXPECT_EQ(hop_distance(pl[1], pl[2]), 1);
}

TEST(PlaceGraph, HeavyEdgesGetShorterThanLightOnes) {
  // A star: hub with 5 spokes, one of them 100x heavier. Only 4 cores
  // neighbour the hub, so at least one spoke is 2 hops away — and it must
  // not be the heavy one.
  const int hub = 0;
  const int heavy = 3;
  std::vector<GraphEdge> edges;
  for (int s = 1; s <= 5; ++s)
    edges.push_back({hub, s, s == heavy ? 100.0 : 1.0});
  const std::vector<Coord> pl = place_graph(4, 4, 6, edges);
  EXPECT_EQ(hop_distance(pl[hub], pl[heavy]), 1);
}

TEST(PlaceGraph, DistinctCoresForAllNodes) {
  const std::vector<Coord> pl = place_graph(4, 4, 16, {});
  ASSERT_EQ(pl.size(), 16u);
  for (std::size_t i = 0; i < pl.size(); ++i)
    for (std::size_t j = i + 1; j < pl.size(); ++j)
      EXPECT_FALSE(pl[i] == pl[j]);
}

TEST(PlaceGraph, RejectsTooManyNodes) {
  EXPECT_THROW((void)place_graph(4, 4, 17, {}), ContractViolation);
}

} // namespace
} // namespace esarp::ep
