// Coroutine task type for simulated core programs.
//
// A core program is a C++20 coroutine returning ep::Task (or ep::TaskT<T>
// for value-returning sub-routines). Tasks are lazy (suspended at start);
// the Machine schedules the top-level task of each core at cycle 0 and
// nested tasks run inline via symmetric transfer, so nesting costs no
// simulated time by itself.
#pragma once

#include <coroutine>
#include <cstddef>
#include <deque>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"
#include "epiphany/scheduler.hpp"

namespace esarp::ep {

namespace detail {

/// Coroutine frames come from per-thread free lists, one per 64-byte size
/// class up to 1 KiB; a larger frame goes to ::operator new (task.cpp). A
/// frame freed on another thread joins that thread's list, and a thread's
/// lists return their blocks when it exits. Under ASan a block is
/// poisoned while it sits in a list, so touching a destroyed frame is
/// still reported.
void* allocate_frame(std::size_t bytes);
void free_frame(void* frame, std::size_t bytes) noexcept;

struct PromiseBase {
  std::coroutine_handle<> continuation; ///< resumed when this task finishes
  std::exception_ptr error;

  static void* operator new(std::size_t bytes) { return allocate_frame(bytes); }
  static void operator delete(void* frame, std::size_t bytes) noexcept {
    free_frame(frame, bytes);
  }

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename P>
    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<P> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() { error = std::current_exception(); }
};

/// The return half of a TaskT<T> promise: the co_returned value, or
/// nothing for a void task.
template <typename T>
struct ReturnSlot {
  std::optional<T> value;
  void return_value(T v) { value.emplace(std::move(v)); }
};
template <>
struct ReturnSlot<void> {
  void return_void() {}
};

} // namespace detail

/// Coroutine task returning T (nothing for void). Move-only RAII owner of
/// the frame.
template <typename T = void>
class TaskT {
public:
  struct promise_type : detail::PromiseBase, detail::ReturnSlot<T> {
    TaskT get_return_object() {
      return TaskT{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
  };

  TaskT() = default;
  TaskT(TaskT&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  TaskT& operator=(TaskT&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  TaskT(const TaskT&) = delete;
  TaskT& operator=(const TaskT&) = delete;
  ~TaskT() { destroy(); }

  [[nodiscard]] bool valid() const { return static_cast<bool>(h_); }
  [[nodiscard]] bool done() const { return h_ && h_.done(); }
  [[nodiscard]] std::coroutine_handle<> handle() const { return h_; }

  /// Rethrow a stored kernel exception (after completion).
  void rethrow_if_error() const {
    if (h_ && h_.promise().error) std::rethrow_exception(h_.promise().error);
  }

  /// Awaiting a task starts it and resumes the awaiter when it finishes.
  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> child;
      bool await_ready() const noexcept { return !child || child.done(); }
      std::coroutine_handle<>
      await_suspend(std::coroutine_handle<> parent) noexcept {
        child.promise().continuation = parent;
        return child; // symmetric transfer into the child
      }
      T await_resume() {
        auto& p = child.promise();
        if (p.error) std::rethrow_exception(p.error);
        if constexpr (!std::is_void_v<T>) {
          ESARP_ENSURES(p.value.has_value());
          return std::move(*p.value);
        }
      }
    };
    return Awaiter{h_};
  }

private:
  explicit TaskT(std::coroutine_handle<promise_type> h) : h_(h) {}
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }
  std::coroutine_handle<promise_type> h_;
};

using Task = TaskT<void>;

/// co_await DelayUntil{sched, t}: suspend until absolute cycle t.
///
/// Both delay awaitables consult Scheduler::try_advance_inline first: when
/// the awaiting coroutine is the only work runnable before the wake time,
/// the clock advances inline and the coroutine continues without a
/// suspend/resume round trip — the engine's batched-quantum fast path
/// (docs/performance.md), bit-identical to per-event stepping.
struct DelayUntil {
  Scheduler& sched;
  Cycles wake_at;
  bool await_ready() const {
    return wake_at <= sched.now() ||
           sched.try_advance_inline(wake_at - sched.now());
  }
  void await_suspend(std::coroutine_handle<> h) const {
    sched.schedule_at(wake_at, h);
  }
  void await_resume() const {}
};

/// co_await DelayFor{sched, dt}: suspend for dt cycles.
struct DelayFor {
  Scheduler& sched;
  Cycles dt;
  bool await_ready() const { return dt == 0 || sched.try_advance_inline(dt); }
  void await_suspend(std::coroutine_handle<> h) const {
    sched.schedule_at(sched.now() + dt, h);
  }
  void await_resume() const {}
};

/// A list of suspended coroutines waiting on a condition (channel space/data,
/// barrier release). Waking schedules them at the current cycle.
class WaitList {
public:
  /// co_await list.wait(): park until another task calls wake_one/wake_all.
  auto wait() {
    struct Awaiter {
      WaitList& list;
      bool await_ready() const { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        list.waiting_.push_back(h);
      }
      void await_resume() const {}
    };
    return Awaiter{*this};
  }

  void wake_one(Scheduler& sched) {
    if (waiting_.empty()) return;
    sched.schedule_now(waiting_.front());
    waiting_.pop_front();
  }

  void wake_all(Scheduler& sched) {
    while (!waiting_.empty()) wake_one(sched);
  }

  [[nodiscard]] std::size_t size() const { return waiting_.size(); }
  [[nodiscard]] bool empty() const { return waiting_.empty(); }

private:
  std::deque<std::coroutine_handle<>> waiting_;
};

} // namespace esarp::ep
