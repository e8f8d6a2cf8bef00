#include "epiphany/graph.hpp"

#include <algorithm>
#include <limits>

#include "common/assert.hpp"

namespace esarp::ep {

std::vector<Coord> place_graph(int rows, int cols, int n_nodes,
                               std::span<const GraphEdge> edges) {
  ESARP_EXPECTS(n_nodes > 0 && n_nodes <= rows * cols);
  const auto n = static_cast<std::size_t>(n_nodes);
  for (const GraphEdge& e : edges) {
    ESARP_EXPECTS(e.from >= 0 && e.from < n_nodes);
    ESARP_EXPECTS(e.to >= 0 && e.to < n_nodes);
    ESARP_EXPECTS(e.from != e.to);
    ESARP_EXPECTS(e.weight > 0.0);
  }

  std::vector<bool> used(static_cast<std::size_t>(rows) * cols, false);
  auto used_at = [&](Coord c) -> std::vector<bool>::reference {
    return used[static_cast<std::size_t>(c.row) * cols + c.col];
  };
  std::vector<Coord> placement(n, Coord{-1, -1});

  // Total adjacency weight per node: heavy communicators are placed early
  // so their neighbourhoods are still free.
  std::vector<double> degree(n, 0.0);
  for (const GraphEdge& e : edges) {
    degree[static_cast<std::size_t>(e.from)] += e.weight;
    degree[static_cast<std::size_t>(e.to)] += e.weight;
  }
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return degree[a] > degree[b];
                   });

  auto cost_at = [&](std::size_t node, Coord c) {
    double cost = 0.0;
    bool any_neighbour = false;
    for (const GraphEdge& e : edges) {
      const std::size_t other = e.from == static_cast<int>(node)
                                    ? static_cast<std::size_t>(e.to)
                                : e.to == static_cast<int>(node)
                                    ? static_cast<std::size_t>(e.from)
                                    : node;
      if (other == node) continue;
      if (placement[other].row < 0) continue; // not placed yet
      any_neighbour = true;
      cost += e.weight * hop_distance(c, placement[other]);
    }
    // Unconnected (or first) nodes gravitate to the mesh centre.
    if (!any_neighbour) cost = hop_distance(c, {rows / 2, cols / 2});
    return cost;
  };

  for (std::size_t node : order) {
    Coord best{-1, -1};
    double best_cost = std::numeric_limits<double>::max();
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        const Coord cand{r, c};
        if (used_at(cand)) continue;
        const double cost = cost_at(node, cand);
        if (cost < best_cost) {
          best_cost = cost;
          best = cand;
        }
      }
    }
    ESARP_ENSURES(best.row >= 0);
    placement[node] = best;
    used_at(best) = true;
  }
  return placement;
}

} // namespace esarp::ep
