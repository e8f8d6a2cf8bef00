// Automatic placement of a process graph on the mesh — the higher-level
// programming model the paper's conclusions call for ("a high-level
// language support that can raise the abstraction level for the
// programmer, while not compromising the performance benefits"), inspired
// by the authors' occam-pi work (refs [19], [20]).
//
// Instead of hand-assigning programs to core ids (Section V-C's "added
// work of managing synchronization ... reduces productivity"), a mapping
// declares its nodes and weighted channels and asks for coordinates that
// keep heavy channels short:
//
//   const ep::GraphEdge edges[] = {{0, 1, 68.0}, {1, 2, 20.0}};
//   const std::vector<ep::Coord> at = ep::place_graph(4, 4, 3, edges);
//
// core::make_placement(AfPlacement::kAuto) places the autofocus pipeline
// this way.
#pragma once

#include <span>
#include <vector>

#include "epiphany/config.hpp"

namespace esarp::ep {

/// One channel of a process graph: node `from` streams into node `to`.
/// `weight` is its relative traffic volume (heavier edges end up shorter).
struct GraphEdge {
  int from;
  int to;
  double weight;
};

/// Greedy weighted-adjacency placement of nodes 0..n_nodes-1 on a
/// `rows` x `cols` mesh. Nodes are taken heaviest first (total weight of
/// their edges, ties in id order). Each goes to the free core, scanned
/// row-major, that minimises its weighted hop distance to the nodes
/// already placed; a node with no placed neighbour goes to the free core
/// nearest the mesh centre. Returns one distinct coordinate per node.
[[nodiscard]] std::vector<Coord> place_graph(int rows, int cols, int n_nodes,
                                             std::span<const GraphEdge> edges);

} // namespace esarp::ep
