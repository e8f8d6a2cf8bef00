// Typed point-to-point streaming channel between cores.
//
// Implements the paper's MPMD dataflow style: a producer core writes a
// message into the consumer's local memory over the cMesh (on-chip write
// mesh) and raises a flag; the consumer spins on the flag. Here that is a
// bounded FIFO whose slots become visible at the NoC delivery time.
// Capacity models the consumer-side buffer in its 32 KB local store, giving
// the pipeline real backpressure.
#pragma once

#include <coroutine>
#include <deque>
#include <optional>
#include <string>

#include "common/assert.hpp"
#include "epiphany/core_ctx.hpp"
#include "epiphany/task.hpp"
#include "telemetry/metrics.hpp"

namespace esarp::ep {

struct ChannelStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  Cycles send_block_cycles = 0;
  Cycles recv_block_cycles = 0;
};

template <typename T>
class Channel {
public:
  /// `consumer` is the mesh coordinate of the receiving core (where the
  /// buffer lives). `capacity` is the FIFO depth in messages. `metrics`
  /// (optional, must outlive the channel) receives per-channel message
  /// counters and block-time histograms labeled `{chan=<name>}`.
  Channel(Scheduler& sched, Noc& noc, Coord consumer, std::size_t capacity,
          std::string name = "chan",
          telemetry::MetricsRegistry* metrics = nullptr)
      : sched_(sched), noc_(noc), consumer_(consumer), capacity_(capacity),
        name_(std::move(name)) {
    ESARP_EXPECTS(capacity > 0);
    if (metrics != nullptr) {
      const auto label = telemetry::labeled("chan.messages", {{"chan", name_}});
      messages_counter_ = &metrics->counter(label);
      bytes_counter_ = &metrics->counter(
          telemetry::labeled("chan.bytes", {{"chan", name_}}));
      send_block_hist_ = &metrics->cycle_histogram(
          telemetry::labeled("chan.send_block_cycles", {{"chan", name_}}));
      recv_block_hist_ = &metrics->cycle_histogram(
          telemetry::labeled("chan.recv_block_cycles", {{"chan", name_}}));
    }
  }

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Producer side: blocks while the FIFO is full, then transfers the
  /// message over the cMesh. The producer is busy for the injection time.
  /// `co_await chan.send(ctx, v)`: with room in the FIFO at the co_await
  /// the message commits at once, with no coroutine frame; a full FIFO
  /// hands over to send_waiting().
  [[nodiscard]] auto send(CoreCtx& from, T value) {
    return SendAwaiter{*this, from, std::move(value)};
  }

  /// Consumer side: blocks until a message has arrived. `co_await
  /// chan.recv(ctx)`: a delivered head message at the co_await commits at
  /// once, with no coroutine frame; otherwise recv_waiting() waits for one.
  [[nodiscard]] auto recv(CoreCtx& to) { return RecvAwaiter{*this, to}; }

  /// Consumer side with a timeout (fault campaigns): polls the FIFO every
  /// `poll` cycles instead of sleeping on the wake list, and gives up after
  /// `timeout` cycles with nullopt so the caller can escalate to failure
  /// detection (e.g. check the producer for fail-stop and drop the
  /// pipeline block). Polling leaves no waiter registered, so an abandoned
  /// receive cannot leak a blocked coroutine into the scheduler.
  TaskT<std::optional<T>> recv_for(CoreCtx& to, Cycles timeout, Cycles poll) {
    ESARP_EXPECTS(to.coord() == consumer_);
    ESARP_EXPECTS(poll > 0);
    const Cycles entered = sched_.now();
    for (;;) {
      if (!q_.empty() && q_.front().ready_at <= sched_.now())
        co_return std::optional<T>{commit_recv(to, entered)};
      if (sched_.now() - entered >= timeout) {
        count_block(to, entered, /*sending=*/false);
        co_return std::nullopt;
      }
      to.core().state = CoreState::kWaitChannel;
      if (!q_.empty() && q_.front().ready_at > sched_.now() &&
          q_.front().ready_at < sched_.now() + poll) {
        co_await DelayUntil{sched_, q_.front().ready_at};
      } else {
        co_await DelayFor{sched_, poll};
      }
      to.core().state = CoreState::kRunning;
    }
  }

  /// Producer side with a timeout (fault campaigns): polls for FIFO space
  /// and returns false (message not sent) after `timeout` cycles, so a
  /// producer feeding a fail-stopped consumer can stop instead of blocking
  /// forever.
  TaskT<bool> send_for(CoreCtx& from, T value, Cycles timeout, Cycles poll) {
    ESARP_EXPECTS(poll > 0);
    const Cycles entered = sched_.now();
    while (q_.size() >= capacity_) {
      if (sched_.now() - entered >= timeout) {
        count_block(from, entered, /*sending=*/true);
        co_return false;
      }
      from.core().state = CoreState::kWaitChannel;
      co_await DelayFor{sched_, poll};
      from.core().state = CoreState::kRunning;
    }
    co_await DelayFor{sched_, commit_send(from, std::move(value), entered)};
    co_return true;
  }

  [[nodiscard]] const ChannelStats& stats() const { return stats_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t pending() const { return q_.size(); }

private:
  struct Slot {
    Cycles ready_at;
    T value;
  };

  class SendAwaiter {
  public:
    SendAwaiter(Channel& ch, CoreCtx& from, T value)
        : ch_(ch), from_(from), value_(std::move(value)) {}

    bool await_ready() {
      if (ch_.q_.size() >= ch_.capacity_) return false;
      inject_.emplace(DelayFor{
          ch_.sched_,
          ch_.commit_send(from_, std::move(value_), ch_.sched_.now())});
      return inject_->await_ready();
    }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> caller) {
      if (inject_.has_value()) { // committed: busy for the injection time
        inject_->await_suspend(caller);
        return std::noop_coroutine();
      }
      // Runs send_waiting() now, as `co_await std::move(wait_)` would.
      wait_ = ch_.send_waiting(from_, std::move(value_), ch_.sched_.now());
      return std::move(wait_).operator co_await().await_suspend(caller);
    }
    void await_resume() {
      if (wait_.valid()) std::move(wait_).operator co_await().await_resume();
    }

  private:
    Channel& ch_;
    CoreCtx& from_;
    T value_;
    std::optional<DelayFor> inject_;
    TaskT<void> wait_;
  };

  class RecvAwaiter {
  public:
    RecvAwaiter(Channel& ch, CoreCtx& to) : ch_(ch), to_(to) {}

    bool await_ready() {
      ESARP_EXPECTS(to_.coord() == ch_.consumer_);
      if (ch_.q_.empty() || ch_.q_.front().ready_at > ch_.sched_.now())
        return false;
      got_.emplace(ch_.commit_recv(to_, ch_.sched_.now()));
      return true;
    }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> caller) {
      // Runs recv_waiting() now, as `co_await std::move(wait_)` would.
      wait_ = ch_.recv_waiting(to_, ch_.sched_.now());
      return std::move(wait_).operator co_await().await_suspend(caller);
    }
    T await_resume() {
      if (got_.has_value()) return std::move(*got_);
      return std::move(wait_).operator co_await().await_resume();
    }

  private:
    Channel& ch_;
    CoreCtx& to_;
    std::optional<T> got_;
    TaskT<T> wait_;
  };

  /// send() on a full FIFO: waits for room, then commits, for a producer
  /// blocked since `entered`.
  TaskT<void> send_waiting(CoreCtx& from, T value, Cycles entered) {
    while (q_.size() >= capacity_) {
      from.core().state = CoreState::kWaitChannel;
      co_await senders_.wait();
      from.core().state = CoreState::kRunning;
    }
    co_await DelayFor{sched_, commit_send(from, std::move(value), entered)};
  }

  /// recv() with no delivered message: waits for one, then commits, for a
  /// consumer blocked since `entered`.
  TaskT<T> recv_waiting(CoreCtx& to, Cycles entered) {
    for (;;) {
      if (!q_.empty()) {
        if (q_.front().ready_at <= sched_.now())
          co_return commit_recv(to, entered);
        co_await DelayUntil{sched_, q_.front().ready_at};
      } else {
        to.core().state = CoreState::kWaitChannel;
        co_await receivers_.wait();
        to.core().state = CoreState::kRunning;
      }
    }
  }

  /// Count the wait of `c`, blocked on this channel since `entered`, in
  /// the channel's stats and block histogram, the core's chan_wait counter
  /// and the trace. A wait that commits and one that times out both count.
  void count_block(CoreCtx& c, Cycles entered, bool sending) {
    const Cycles blocked = sched_.now() - entered;
    (sending ? stats_.send_block_cycles : stats_.recv_block_cycles) +=
        blocked;
    telemetry::Histogram* hist =
        sending ? send_block_hist_ : recv_block_hist_;
    if (hist != nullptr) hist->observe(static_cast<double>(blocked));
    c.core().counters.chan_wait += blocked;
    c.tracer().add(c.id(),
                   sending ? SegmentKind::kChanSend : SegmentKind::kChanRecv,
                   entered, sched_.now());
  }

  /// Enqueue a message the FIFO has room for, blocked since `entered`.
  /// Returns the injection time the producer is busy for (posted write
  /// semantics: it pays injection, not delivery).
  Cycles commit_send(CoreCtx& from, T&& value, Cycles entered) {
    count_block(from, entered, /*sending=*/true);

    const Cycles arrival = noc_.transfer(from.coord(), consumer_, sizeof(T),
                                         sched_.now(), Mesh::kOnChipWrite);
    if (from.checker() != nullptr)
      from.checker()->on_chan_send(this, name_, from.id());
    from.core().counters.msgs_sent += 1;
    from.core().counters.msg_bytes_sent += sizeof(T);
    q_.push_back(Slot{arrival, std::move(value)});
    stats_.messages += 1;
    stats_.bytes += sizeof(T);
    if (messages_counter_ != nullptr) messages_counter_->add(1);
    if (bytes_counter_ != nullptr) bytes_counter_->add(sizeof(T));
    receivers_.wake_all(sched_);
    return from.config().cycles_for_bytes_on_link(sizeof(T));
  }

  /// Dequeue the delivered head message for a receiver waiting since
  /// `entered`.
  T commit_recv(CoreCtx& to, Cycles entered) {
    T v = std::move(q_.front().value);
    q_.pop_front();
    if (to.checker() != nullptr)
      to.checker()->on_chan_recv(this, name_, to.id());
    senders_.wake_all(sched_);
    count_block(to, entered, /*sending=*/false);
    return v;
  }

  Scheduler& sched_;
  Noc& noc_;
  Coord consumer_;
  std::size_t capacity_;
  std::string name_;
  std::deque<Slot> q_;
  WaitList senders_;
  WaitList receivers_;
  ChannelStats stats_;
  telemetry::Counter* messages_counter_ = nullptr;
  telemetry::Counter* bytes_counter_ = nullptr;
  telemetry::Histogram* send_block_hist_ = nullptr;
  telemetry::Histogram* recv_block_hist_ = nullptr;
};

} // namespace esarp::ep
