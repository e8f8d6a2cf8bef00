// All-to-one flag barrier across participating cores.
//
// Models the SPMD synchronisation the paper's FFBP implementation needs
// between merge iterations: each core writes an arrival flag to a master
// core, the master releases everyone by writing flags back. The release
// cost is charged as one round of flag traffic on the cMesh.
//
// Fault campaigns (docs/fault-injection.md) switch waiters to a resilient
// protocol: instead of sleeping on a wake list they poll the generation
// flag, and when a crossing stalls past fault::kRetry's timeout they probe
// for fail-stopped members. A confirmed-failed member that has not arrived
// is removed from the party permanently (the SAR kernels then repartition
// its work), so the barrier completes with the survivors instead of
// deadlocking. Detection is oracle-confirmed — a slow core is never
// declared dead — and purely cycle-deterministic.
#pragma once

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/assert.hpp"
#include "epiphany/core_ctx.hpp"
#include "epiphany/task.hpp"
#include "fault/plan.hpp"
#include "telemetry/metrics.hpp"

namespace esarp::ep {

class SimBarrier {
public:
  /// `metrics` (optional, must outlive the barrier) receives per-crossing
  /// wait-time and wait-imbalance histograms plus a crossings counter.
  SimBarrier(Scheduler& sched, Noc& noc, const ChipConfig& cfg, int parties,
             Coord master = {0, 0},
             telemetry::MetricsRegistry* metrics = nullptr)
      : sched_(sched), noc_(noc), cfg_(cfg), parties_(parties),
        initial_parties_(parties), master_(master) {
    ESARP_EXPECTS(parties > 0);
    // Membership: core ids 0..parties-1 (what both SAR mappings use).
    // Failure probing needs the ids, not just the count.
    members_.resize(static_cast<std::size_t>(parties));
    std::iota(members_.begin(), members_.end(), 0);
    arrived_ids_.assign(members_.size(), false);
    if (metrics != nullptr) {
      wait_hist_ = &metrics->cycle_histogram("barrier.wait_cycles");
      imbalance_hist_ = &metrics->cycle_histogram("barrier.imbalance_cycles");
      crossings_counter_ = &metrics->counter("barrier.crossings");
    }
  }

  SimBarrier(const SimBarrier&) = delete;
  SimBarrier& operator=(const SimBarrier&) = delete;

  TaskT<void> arrive_and_wait(CoreCtx& ctx) {
    // Report the construction-time arity: a fault campaign can legally
    // shrink the live party below it, which is recovery, not a hazard.
    if (ctx.checker() != nullptr)
      ctx.checker()->on_barrier_arrive(this, initial_parties_, ctx.id());
    const Cycles entered = sched_.now();
    // Arrival flag: 8-byte write to the master core.
    const Cycles flag_arrival = noc_.transfer(ctx.coord(), master_, 8,
                                              sched_.now(), Mesh::kOnChipWrite);
    latest_arrival_ = std::max(latest_arrival_, flag_arrival);

    const std::uint64_t my_generation = generation_;
    if (arrived_ == 0) first_entered_ = entered;
    ++arrived_;
    mark_arrived(ctx.id());
    fault::FaultInjector* inj = ctx.fault_injector();
    const bool resilient = inj != nullptr && inj->plan().resilient;
    if (arrived_ >= parties_) {
      complete_crossing(entered);
    } else if (!resilient) {
      ctx.core().state = CoreState::kWaitBarrier;
      while (generation_ == my_generation) co_await waiters_.wait();
      ctx.core().state = CoreState::kRunning;
    } else {
      // Resilient waiter: poll the generation flag so a stalled crossing
      // can escalate to failure detection instead of sleeping forever.
      ctx.core().state = CoreState::kWaitBarrier;
      while (generation_ == my_generation) {
        co_await DelayFor{sched_, fault::kRetry.barrier_poll};
        if (generation_ != my_generation) break;
        const Cycles waited = sched_.now() - entered;
        if (waited >= fault::kRetry.barrier_abandon)
          throw fault::FaultUnrecovered(
              "barrier crossing abandoned: core " + std::to_string(ctx.id()) +
              " waited " + std::to_string(waited) + " cycles at generation " +
              std::to_string(my_generation));
        if (waited >= fault::kRetry.barrier_timeout &&
            probe_failures(*inj, sched_.now())) {
          // Degradation begins: the live party shrank, so the checker's
          // shadow arity bookkeeping no longer applies.
          if (ctx.checker() != nullptr) ctx.checker()->set_fault_degraded();
          if (arrived_ >= parties_) complete_crossing(entered);
        }
      }
      ctx.core().state = CoreState::kRunning;
    }
    Cycles rel = release_time_;
    if (resilient && resilient_release_ > rel) rel = resilient_release_;
    if (rel > sched_.now()) co_await DelayUntil{sched_, rel};
    ctx.core().counters.barrier_wait += sched_.now() - entered;
    ctx.tracer().add(ctx.id(), SegmentKind::kBarrier, entered, sched_.now());
    if (wait_hist_ != nullptr)
      wait_hist_->observe(static_cast<double>(sched_.now() - entered));
    if (crossings_counter_ != nullptr) crossings_counter_->add(1);
    ++crossings_;
  }

  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  [[nodiscard]] std::uint64_t crossings() const { return crossings_; }
  /// Live party size (shrinks as fail-stopped members are detected).
  [[nodiscard]] int parties() const { return parties_; }

private:
  void mark_arrived(int core_id) {
    for (std::size_t i = 0; i < members_.size(); ++i)
      if (members_[i] == core_id) arrived_ids_[i] = true;
  }

  /// Remove members whose fail-stop trigger has passed and who have not
  /// arrived this generation. Returns true when anything was removed.
  /// Removal is permanent: a fail-stopped core never arrives again (the
  /// resilient kernels check fail_stop_due before every arrival).
  bool probe_failures(fault::FaultInjector& inj, Cycles now) {
    bool removed = false;
    for (std::size_t i = members_.size(); i-- > 0;) {
      if (arrived_ids_[i] ||
          !inj.fail_stop_due(members_[i],
                             static_cast<std::uint64_t>(now)))
        continue;
      inj.count_detected(fault::Site::kFailStop);
      members_.erase(members_.begin() + static_cast<std::ptrdiff_t>(i));
      arrived_ids_.erase(arrived_ids_.begin() +
                         static_cast<std::ptrdiff_t>(i));
      --parties_;
      removed = true;
    }
    ESARP_ENSURES(parties_ > 0);
    return removed;
  }

  void complete_crossing(Cycles entered) {
    arrived_ = 0;
    std::fill(arrived_ids_.begin(), arrived_ids_.end(), false);
    ++generation_;
    // Wait imbalance: gap between the earliest and latest arrival in this
    // crossing — the paper's load-balance story in one number.
    if (imbalance_hist_ != nullptr)
      imbalance_hist_->observe(static_cast<double>(entered - first_entered_));
    // Release flags: master writes back to every participant; charge the
    // farthest-corner delivery as the common release time.
    const Cycles max_hops =
        static_cast<Cycles>((cfg_.rows - 1) + (cfg_.cols - 1)) *
        cfg_.hop_latency;
    release_time_ = latest_arrival_ + max_hops + 2 /*flag write*/;
    // Resilient waiters detect a completed crossing only at their next poll
    // tick, up to barrier_poll cycles from now and staggered per core.
    // Recovery kernels need every survivor to resume at ONE cycle (their
    // host-side snapshots of checkpoint flags / the live set must agree),
    // so the resilient release lies past the last possible detection tick.
    resilient_release_ = std::max(
        release_time_, sched_.now() + fault::kRetry.barrier_poll + 1);
    latest_arrival_ = 0;
    waiters_.wake_all(sched_);
  }

  Scheduler& sched_;
  Noc& noc_;
  const ChipConfig& cfg_;
  int parties_;
  const int initial_parties_;
  Coord master_;
  std::vector<int> members_;      ///< live participant core ids
  std::vector<bool> arrived_ids_; ///< arrived-this-generation, per member
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
  std::uint64_t crossings_ = 0;
  Cycles latest_arrival_ = 0;
  Cycles release_time_ = 0;
  Cycles resilient_release_ = 0; ///< aligned release for resilient pollers
  Cycles first_entered_ = 0;
  telemetry::Histogram* wait_hist_ = nullptr;
  telemetry::Histogram* imbalance_hist_ = nullptr;
  telemetry::Counter* crossings_counter_ = nullptr;
  WaitList waiters_;
};

} // namespace esarp::ep
