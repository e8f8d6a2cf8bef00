#include "host/sweep_runner.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

namespace esarp::host {

namespace detail {

/// One parallel run() or started pass: the index space its participants
/// claim from.
struct Run {
  std::size_t n = 0;
  void (*call)(void*, std::size_t) = nullptr;
  void* fn = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false}; ///< a task threw, or the pass was dropped
  std::mutex error_mu;
  std::exception_ptr error;
  int helpers_wanted = 0; ///< workers that may still join (pool mutex)
  int helpers_active = 0; ///< workers inside work() (pool mutex)

  /// Claim and run indices until none is left or a task has thrown.
  void work() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n || failed.load(std::memory_order_relaxed)) return;
      try {
        call(fn, i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  }
};

/// A started pass's run, owning the chunk function it calls.
struct PassRun : Run {
  explicit PassRun(OwnedFn f) : owned(std::move(f)) {}
  OwnedFn owned;
};

} // namespace detail

namespace {

using detail::PassRun;
using detail::Run;

int hardware_width() {
  static const int width = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }();
  return width;
}

/// True on a pool worker, and on a calling thread while it takes part in a
/// parallel run: a run started there executes inline.
thread_local bool t_in_run = false;

/// The process-wide workers every SweepRunner shares.
class Pool {
public:
  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;
  ~Pool() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  /// Offer `r` to up to `helpers` workers and return at once.
  void start(Run& r, int helpers) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      const int want = std::min(helpers, hardware_width() - 1);
      while (static_cast<int>(threads_.size()) < want)
        threads_.emplace_back([this] { worker(); });
      r.helpers_wanted = want;
      if (want > 0) open_.push_back(&r);
    }
    work_cv_.notify_all();
  }

  /// Finish `r`: with `help`, the calling thread first claims whatever
  /// index is left. Then no worker joins `r`, and this returns once every
  /// worker inside it has left.
  void finish(Run& r, bool help) {
    if (help) {
      const bool outer = t_in_run;
      t_in_run = true;
      r.work();
      t_in_run = outer;
    }
    std::unique_lock<std::mutex> lock(mu_);
    std::erase(open_, &r);
    idle_cv_.wait(lock, [&] { return r.helpers_active == 0; });
  }

  int started() {
    const std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(threads_.size());
  }

private:
  void worker() {
    t_in_run = true;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_cv_.wait(lock, [&] { return stop_ || !open_.empty(); });
      if (stop_) return;
      Run* r = open_.front();
      if (--r->helpers_wanted == 0) open_.erase(open_.begin());
      ++r->helpers_active;
      lock.unlock();
      r->work();
      lock.lock();
      if (--r->helpers_active == 0) idle_cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_; ///< open_ gained a run, or stop_
  std::condition_variable idle_cv_; ///< a run lost its last helper
  std::vector<Run*> open_;          ///< runs that still take helpers
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

Pool& pool() {
  static Pool p;
  return p;
}

} // namespace

int sweep_jobs_from_env(int fallback) {
  if (const char* env = std::getenv("ESARP_JOBS")) {
    try {
      const int jobs = std::stoi(env);
      if (jobs >= 1) return jobs;
    } catch (const std::exception&) {
      // Fall through to the fallback on unparsable values.
    }
  }
  if (fallback >= 1) return fallback;
  return hardware_width();
}

SweepRunner::SweepRunner(int jobs)
    : jobs_(jobs <= 0 ? hardware_width() : jobs) {}

int SweepRunner::workers_started() { return pool().started(); }

void SweepRunner::dispatch(std::size_t n, void (*invoke)(void*, std::size_t),
                           void* fn) const {
  if (jobs_ <= 1 || n <= 1 || t_in_run) {
    for (std::size_t i = 0; i < n; ++i) invoke(fn, i);
    return;
  }
  Run r;
  r.n = n;
  r.call = invoke;
  r.fn = fn;
  const std::size_t helpers =
      std::min(static_cast<std::size_t>(jobs_ - 1), n - 1);
  pool().start(r, static_cast<int>(helpers));
  pool().finish(r, true);
  if (r.error) std::rethrow_exception(r.error);
}

bool detail::pass_runs_inline() { return hardware_width() <= 1 || t_in_run; }

Pass::Pass(std::size_t chunks, void (*invoke)(void*, std::size_t),
           detail::OwnedFn fn) {
  auto r = std::make_unique<PassRun>(std::move(fn));
  r->n = chunks;
  r->call = invoke;
  r->fn = r->owned.get();
  pool().start(*r, static_cast<int>(std::min<std::size_t>(
                       chunks, static_cast<std::size_t>(hardware_width()))));
  run_ = r.release();
}

Pass& Pass::operator=(Pass&& other) noexcept {
  if (this != &other) {
    drop();
    run_ = std::exchange(other.run_, nullptr);
  }
  return *this;
}

void Pass::join() {
  if (run_ == nullptr) return;
  const std::unique_ptr<PassRun> r(std::exchange(run_, nullptr));
  pool().finish(*r, true);
  if (r->error) std::rethrow_exception(r->error);
}

void Pass::drop() noexcept {
  if (run_ == nullptr) return;
  const std::unique_ptr<PassRun> r(std::exchange(run_, nullptr));
  r->failed.store(true, std::memory_order_relaxed);
  pool().finish(*r, false);
}

} // namespace esarp::host
