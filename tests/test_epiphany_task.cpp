// Tests for the discrete-event scheduler and the coroutine task machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "epiphany/scheduler.hpp"
#include "epiphany/task.hpp"

namespace esarp::ep {
namespace {

Task record_at(Scheduler& s, Cycles t, std::vector<int>& log, int id) {
  co_await DelayUntil{s, t};
  log.push_back(id);
}

TEST(Scheduler, ResumesInTimeOrder) {
  Scheduler s;
  std::vector<int> log;
  Task a = record_at(s, 30, log, 1);
  Task b = record_at(s, 10, log, 2);
  Task c = record_at(s, 20, log, 3);
  s.schedule_at(0, a.handle());
  s.schedule_at(0, b.handle());
  s.schedule_at(0, c.handle());
  const Cycles end = s.run();
  EXPECT_EQ(end, 30u);
  EXPECT_EQ(log, (std::vector<int>{2, 3, 1}));
  EXPECT_TRUE(a.done() && b.done() && c.done());
}

TEST(Scheduler, FifoTieBreakAtEqualTime) {
  Scheduler s;
  std::vector<int> log;
  Task a = record_at(s, 5, log, 1);
  Task b = record_at(s, 5, log, 2);
  s.schedule_at(0, a.handle());
  s.schedule_at(0, b.handle());
  s.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(Scheduler, RejectsSchedulingInThePast) {
  Scheduler s;
  std::vector<int> log;
  Task a = record_at(s, 50, log, 1);
  s.schedule_at(0, a.handle());
  s.run();
  Task b = record_at(s, 100, log, 2);
  EXPECT_THROW(s.schedule_at(10, b.handle()), ContractViolation);
}

Task stamp_twice(Scheduler& s, Cycles d1, Cycles d2,
                 std::vector<Cycles>& stamps) {
  co_await DelayFor{s, d1};
  stamps.push_back(s.now());
  co_await DelayFor{s, d2};
  stamps.push_back(s.now());
}

// Watchdog contract: `max_cycles` is an exclusive upper bound on simulated
// time — processing an event at exactly max_cycles throws, one cycle
// earlier does not.
TEST(Scheduler, WatchdogBoundaryIsExclusive) {
  {
    Scheduler s;
    std::vector<Cycles> stamps;
    Task t = stamp_twice(s, 50, 50, stamps); // events at 50 and 100
    s.schedule_at(0, t.handle());
    EXPECT_THROW(s.run(100), ContractViolation);
    EXPECT_EQ(stamps, (std::vector<Cycles>{50})); // boundary event not run
    EXPECT_EQ(s.now(), 100u);
  }
  {
    Scheduler s;
    std::vector<Cycles> stamps;
    Task t = stamp_twice(s, 50, 49, stamps); // events at 50 and 99
    s.schedule_at(0, t.handle());
    EXPECT_EQ(s.run(100), 99u);
    EXPECT_EQ(stamps, (std::vector<Cycles>{50, 99}));
  }
}

/// One resume as a program logs it: the cycle, the program, and how many
/// delays it had finished.
struct Resume {
  Cycles time;
  int task;
  int step;
  bool operator==(const Resume&) const = default;
};

Task delay_chain(Scheduler& s, std::vector<Resume>& log, int id,
                 std::vector<Cycles> delays) {
  log.push_back({s.now(), id, 0});
  for (std::size_t k = 0; k < delays.size(); ++k) {
    co_await DelayFor{s, delays[k]};
    log.push_back({s.now(), id, static_cast<int>(k) + 1});
  }
}

/// The resume order a (time, order of scheduling) queue must produce for
/// programs that all start at cycle 0, in index order, and then sleep
/// their delays in turn. A linear scan over the pending wake-ups, each
/// stamped when it was scheduled, stands in for the scheduler's queue. A
/// zero delay does not suspend, so the program logs its next step at once.
std::vector<Resume>
reference_order(const std::vector<std::vector<Cycles>>& delays) {
  struct Pending {
    Cycles time;
    std::uint64_t stamp;
    int task;
    int step;
  };
  std::vector<Pending> pending;
  std::uint64_t stamp = 0;
  for (std::size_t id = 0; id < delays.size(); ++id)
    pending.push_back({0, stamp++, static_cast<int>(id), 0});
  std::vector<Resume> order;
  while (!pending.empty()) {
    std::size_t next = 0;
    for (std::size_t i = 1; i < pending.size(); ++i)
      if (pending[i].time < pending[next].time ||
          (pending[i].time == pending[next].time &&
           pending[i].stamp < pending[next].stamp))
        next = i;
    const Pending p = pending[next];
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(next));
    const auto& d = delays[static_cast<std::size_t>(p.task)];
    std::size_t step = static_cast<std::size_t>(p.step);
    order.push_back({p.time, p.task, p.step});
    for (; step < d.size() && d[step] == 0; ++step)
      order.push_back({p.time, p.task, static_cast<int>(step) + 1});
    if (step < d.size())
      pending.push_back(
          {p.time + d[step], stamp++, p.task, static_cast<int>(step) + 1});
  }
  return order;
}

/// The first resume where `got` leaves `want`, or "" when they agree.
std::string first_mismatch(const std::vector<Resume>& got,
                           const std::vector<Resume>& want) {
  std::ostringstream os;
  const auto show = [&os](const char* what, const Resume& r) {
    os << what << " (" << r.time << ", task " << r.task << ", step "
       << r.step << ")";
  };
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i)
    if (got[i] != want[i]) {
      os << "resume " << i << ":";
      show(" got", got[i]);
      show(", want", want[i]);
      return os.str();
    }
  if (got.size() != want.size())
    os << got.size() << " resumes, want " << want.size();
  return os.str();
}

// A seeded mix of zero, short and long delays, on coarse grids so that
// many programs wake at the same cycle, must resume in exactly the
// reference's order: ties in the order they were scheduled. With batching
// on, the fast path absorbs some delays without an event and must reorder
// nothing.
TEST(Scheduler, ResumeOrderMatchesReferenceModel) {
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  auto rnd = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<std::vector<Cycles>> delays(200);
  for (auto& d : delays) {
    d.push_back(rnd() % 3 == 0 ? 0 : rnd() % 40 * 100);
    d.push_back(rnd() % 3 == 0 ? rnd() % 10 : 100'000 + rnd() % 50 * 1000);
    d.push_back(rnd() % 2 == 0 ? rnd() % 4 : rnd() % 16 * 512);
  }
  const std::vector<Resume> want = reference_order(delays);
  ASSERT_EQ(want.size(), 800u);

  std::uint64_t events_unbatched = 0;
  for (const bool batching : {false, true}) {
    Scheduler s;
    s.set_batching(batching);
    std::vector<Resume> got;
    std::vector<Task> tasks;
    for (std::size_t id = 0; id < delays.size(); ++id) {
      tasks.push_back(delay_chain(s, got, static_cast<int>(id), delays[id]));
      s.schedule_at(0, tasks.back().handle());
    }
    s.run();
    EXPECT_EQ(first_mismatch(got, want), "")
        << (batching ? "batching on" : "batching off");
    for (const Task& t : tasks) EXPECT_TRUE(t.done());
    EXPECT_EQ(s.pending_events(), 0u);
    if (!batching) {
      EXPECT_EQ(s.quanta_batched(), 0u);
      events_unbatched = s.events_processed();
    } else {
      // Every absorbed delay is one event fewer, never one lost.
      EXPECT_GT(s.quanta_batched(), 0u);
      EXPECT_EQ(s.events_processed() + s.quanta_batched(), events_unbatched);
    }
  }
}

// The events_processed counter tracks resumes.
TEST(Scheduler, CountsProcessedEvents) {
  Scheduler s;
  std::vector<Cycles> stamps;
  Task t = stamp_twice(s, 10, 4200, stamps);
  s.schedule_at(0, t.handle());
  EXPECT_EQ(s.events_processed(), 0u);
  s.run();
  EXPECT_EQ(s.events_processed(), 3u); // initial resume + two delays
}

Task delays_twice(Scheduler& s, std::vector<Cycles>& stamps) {
  co_await DelayFor{s, 10};
  stamps.push_back(s.now());
  co_await DelayFor{s, 15};
  stamps.push_back(s.now());
}

TEST(Task, DelayForAdvancesVirtualTime) {
  Scheduler s;
  std::vector<Cycles> stamps;
  Task t = delays_twice(s, stamps);
  s.schedule_at(0, t.handle());
  s.run();
  EXPECT_EQ(stamps, (std::vector<Cycles>{10, 25}));
}

TaskT<int> child_returning(Scheduler& s, int v) {
  co_await DelayFor{s, 7};
  co_return v;
}

Task parent_awaits(Scheduler& s, std::vector<int>& log) {
  const int a = co_await child_returning(s, 41);
  const int b = co_await child_returning(s, 1);
  log.push_back(a + b);
}

TEST(Task, NestedTasksReturnValuesAndAccumulateTime) {
  Scheduler s;
  std::vector<int> log;
  Task t = parent_awaits(s, log);
  s.schedule_at(0, t.handle());
  const Cycles end = s.run();
  EXPECT_EQ(log, std::vector<int>{42});
  EXPECT_EQ(end, 14u); // two nested 7-cycle children
}

Task thrower(Scheduler& s) {
  co_await DelayFor{s, 1};
  throw std::runtime_error("kernel bug");
}

TEST(Task, ExceptionIsCapturedAndRethrown) {
  Scheduler s;
  Task t = thrower(s);
  s.schedule_at(0, t.handle());
  s.run();
  EXPECT_TRUE(t.done());
  EXPECT_THROW(t.rethrow_if_error(), std::runtime_error);
}

Task rethrows_from_child(Scheduler& s, bool& caught) {
  try {
    co_await thrower(s);
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

TEST(Task, ChildExceptionPropagatesToParent) {
  Scheduler s;
  bool caught = false;
  Task t = rethrows_from_child(s, caught);
  s.schedule_at(0, t.handle());
  s.run();
  EXPECT_TRUE(caught);
}

Task waiter(Scheduler& s, WaitList& wl, std::vector<int>& log, int id) {
  co_await wl.wait();
  log.push_back(id);
  (void)s;
}

Task waker(Scheduler& s, WaitList& wl) {
  co_await DelayFor{s, 100};
  wl.wake_one(s);
  co_await DelayFor{s, 100};
  wl.wake_all(s);
}

TEST(WaitList, WakeOneThenWakeAll) {
  Scheduler s;
  WaitList wl;
  std::vector<int> log;
  Task w1 = waiter(s, wl, log, 1);
  Task w2 = waiter(s, wl, log, 2);
  Task w3 = waiter(s, wl, log, 3);
  Task k = waker(s, wl);
  for (Task* t : {&w1, &w2, &w3, &k}) s.schedule_at(0, t->handle());
  s.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(wl.empty());
}

TEST(Task, MoveTransfersOwnership) {
  Scheduler s;
  std::vector<int> log;
  Task a = record_at(s, 1, log, 7);
  Task b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  s.schedule_at(0, b.handle());
  s.run();
  EXPECT_EQ(log, std::vector<int>{7});
}

} // namespace
} // namespace esarp::ep
