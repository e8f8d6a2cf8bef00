// Declarative process networks over the simulated chip — the high-level
// programming model the paper's conclusions call for ("a high-level
// language support that can raise the abstraction level for the
// programmer, while not compromising the performance benefits"), inspired
// by the authors' occam-pi work (refs [19], [20]).
//
// Instead of hand-assigning MPMD programs to core ids and wiring channels
// to fixed coordinates (Section V-C's "added work of managing
// synchronization ... reduces productivity"), the user declares nodes and
// typed channels; the network places nodes on the mesh automatically,
// minimising communication distance (weighted hop count), binds the
// channels, and launches everything:
//
//   ep::Machine m;
//   ep::ProcessNetwork net(m);
//   auto& ch = net.channel<Packet>("stage1->stage2", 8);
//   const int a = net.node("stage1", [&](ep::CoreCtx& c) -> ep::Task {...});
//   const int b = net.node("stage2", [&](ep::CoreCtx& c) -> ep::Task {...});
//   net.connect(a, b, ch, /*weight=*/6.0);
//   net.run();
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "epiphany/channel.hpp"
#include "epiphany/machine.hpp"

namespace esarp::ep {

/// Type-erased handle the placement engine uses to bind a channel to its
/// consumer's placed coordinate.
class GraphChannelBase {
public:
  virtual ~GraphChannelBase() = default;
  [[nodiscard]] virtual const std::string& name() const = 0;
  [[nodiscard]] virtual bool bound() const = 0;

private:
  friend class ProcessNetwork;
  virtual void bind(Scheduler& sched, Noc& noc, Coord consumer) = 0;
};

/// Typed channel endpoint declared on a ProcessNetwork. Usable inside node
/// programs exactly like ep::Channel once the network has been placed.
template <typename T>
class GraphChannel final : public GraphChannelBase {
public:
  GraphChannel(std::string name, std::size_t capacity)
      : name_(std::move(name)), capacity_(capacity) {}

  TaskT<void> send(CoreCtx& from, T value) {
    ESARP_EXPECTS(chan_ != nullptr); // network must be placed before use
    return chan_->send(from, std::move(value));
  }
  TaskT<T> recv(CoreCtx& to) {
    ESARP_EXPECTS(chan_ != nullptr);
    return chan_->recv(to);
  }
  TaskT<bool> send_for(CoreCtx& from, T value, Cycles timeout, Cycles poll) {
    ESARP_EXPECTS(chan_ != nullptr);
    return chan_->send_for(from, std::move(value), timeout, poll);
  }
  TaskT<std::optional<T>> recv_for(CoreCtx& to, Cycles timeout, Cycles poll) {
    ESARP_EXPECTS(chan_ != nullptr);
    return chan_->recv_for(to, timeout, poll);
  }

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] bool bound() const override { return chan_ != nullptr; }
  [[nodiscard]] const ChannelStats& stats() const {
    ESARP_EXPECTS(chan_ != nullptr);
    return chan_->stats();
  }

private:
  void bind(Scheduler& sched, Noc& noc, Coord consumer) override {
    ESARP_EXPECTS(chan_ == nullptr);
    chan_ = std::make_unique<Channel<T>>(sched, noc, consumer, capacity_,
                                         name_);
  }

  std::string name_;
  std::size_t capacity_;
  std::unique_ptr<Channel<T>> chan_;
};

class ProcessNetwork {
public:
  explicit ProcessNetwork(Machine& m) : machine_(m) {}

  ProcessNetwork(const ProcessNetwork&) = delete;
  ProcessNetwork& operator=(const ProcessNetwork&) = delete;

  /// Declare a typed channel. The returned reference stays valid for the
  /// network's lifetime.
  template <typename T>
  GraphChannel<T>& channel(std::string name, std::size_t capacity = 8) {
    auto ch = std::make_unique<GraphChannel<T>>(std::move(name), capacity);
    auto& ref = *ch;
    channels_.push_back(std::move(ch));
    return ref;
  }

  /// Declare a node (one core program). Returns the node id.
  int node(std::string name, std::function<Task(CoreCtx&)> program);

  /// Declare that `from` streams into `to` over `ch`. `weight` expresses
  /// relative traffic volume and steers the placement (heavier edges end
  /// up shorter). The channel's consumer is `to`.
  void connect(int from, int to, GraphChannelBase& ch, double weight = 1.0);

  /// Pin a node to a fixed mesh coordinate (e.g. next to the eLink).
  void pin(int node_id, Coord coord);

  /// Compute the placement: greedy weighted-adjacency assignment that
  /// places heavily-communicating nodes on neighbouring cores. Idempotent;
  /// called implicitly by run().
  const std::vector<Coord>& place();

  /// Place (if needed), bind channels, launch all node programs and run
  /// the machine to completion.
  Cycles run();

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const std::vector<Coord>& placement() const {
    ESARP_EXPECTS(placed_);
    return placement_;
  }
  [[nodiscard]] const std::string& node_name(int id) const {
    return nodes_[static_cast<std::size_t>(id)].name;
  }

  /// Total weighted hop count of the current placement (the objective the
  /// greedy placer minimises; exposed for tests and diagnostics).
  [[nodiscard]] double weighted_hops() const;

  /// Multi-line "node @ (row,col)" summary.
  [[nodiscard]] std::string describe() const;

private:
  struct Node {
    std::string name;
    std::function<Task(CoreCtx&)> program;
    bool pinned = false;
    Coord pin_coord;
  };
  struct Edge {
    int from;
    int to;
    GraphChannelBase* chan;
    double weight;
  };

  Machine& machine_;
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  std::vector<std::unique_ptr<GraphChannelBase>> channels_;
  std::vector<Coord> placement_;
  bool placed_ = false;
  bool ran_ = false;
};

} // namespace esarp::ep
