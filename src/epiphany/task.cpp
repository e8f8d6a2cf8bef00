#include "epiphany/task.hpp"

#include <new>

#include <sanitizer/asan_interface.h>

namespace esarp::ep::detail {

namespace {

constexpr std::size_t kSizeClass = 64;
constexpr std::size_t kClasses = 1024 / kSizeClass;

/// Bytes of a block of size class `c`.
constexpr std::size_t block_bytes(std::size_t c) {
  return (c + 1) * kSizeClass;
}

struct FreeFrame {
  FreeFrame* next;
};

/// This thread's free lists. Trivially destructible, so a frame freed
/// while the thread's other thread_locals are torn down still finds them.
struct FrameLists {
  FreeFrame* head[kClasses];
  bool reaper_armed; ///< the reaper below is registered for this thread
  bool reaped;       ///< the thread is exiting: free frames straight away
};
constinit thread_local FrameLists t_lists{};

/// Returns the thread's pooled blocks when it exits.
struct FrameReaper {
  FrameReaper() = default;
  FrameReaper(const FrameReaper&) = delete;
  FrameReaper& operator=(const FrameReaper&) = delete;
  ~FrameReaper() {
    t_lists.reaped = true;
    for (std::size_t c = 0; c < kClasses; ++c) {
      while (FreeFrame* f = t_lists.head[c]) {
        ASAN_UNPOISON_MEMORY_REGION(f, block_bytes(c));
        t_lists.head[c] = f->next;
        ::operator delete(f);
      }
    }
  }
};
thread_local FrameReaper t_reaper;

} // namespace

void* allocate_frame(std::size_t bytes) {
  const std::size_t c = (bytes - 1) / kSizeClass;
  if (c >= kClasses) return ::operator new(bytes);
  FreeFrame* f = t_lists.head[c];
  if (f == nullptr) return ::operator new(block_bytes(c));
  ASAN_UNPOISON_MEMORY_REGION(f, block_bytes(c));
  t_lists.head[c] = f->next;
  return f;
}

void free_frame(void* frame, std::size_t bytes) noexcept {
  const std::size_t c = (bytes - 1) / kSizeClass;
  if (c >= kClasses || t_lists.reaped) {
    ::operator delete(frame);
    return;
  }
  if (!t_lists.reaper_armed) {
    t_lists.reaper_armed = true;
    (void)&t_reaper; // first use constructs it and registers its destructor
  }
  auto* f = static_cast<FreeFrame*>(frame);
  f->next = t_lists.head[c];
  t_lists.head[c] = f;
  ASAN_POISON_MEMORY_REGION(f, block_bytes(c));
}

} // namespace esarp::ep::detail
