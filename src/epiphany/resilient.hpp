// Fault-tolerant transfer wrappers (docs/fault-injection.md).
//
// Each reliable_* coroutine performs one logical SDRAM transfer the way a
// hardened Epiphany runtime would: issue, verify the delivered payload
// against its source, and on a mismatch (corruption / bit flip) or a
// modeled DMA watchdog expiry (drop) retry with exponential backoff. The
// simulated core is charged a checksum pass over the payload at 8 bytes per
// cycle (verify_cycles); the host decides by exact byte comparison, which
// rejects every payload the checksum would and costs one pass instead of
// two. Every retry attempt — backoff, re-issue, re-verify — runs inside
// a "fault/dma-retry" span: the span prefix is what tells the hazard
// sanitizer that shadow-state oddities underneath are injected faults being
// recovered, not kernel bugs. Retries exhausting RetryPolicy::max_attempts
// throw fault::FaultUnrecovered.
//
// Outside a fault campaign (no injector, or plan.resilient == false) every
// wrapper is the plain single-attempt operation, cycle for cycle and event
// for event, so the core programs call these unconditionally: one program
// per mapping role serves clean runs and campaigns alike.
#pragma once

#include <cstddef>
#include <cstring>
#include <span>
#include <string>

#include "epiphany/core_ctx.hpp"
#include "epiphany/task.hpp"
#include "fault/injector.hpp"

namespace esarp::ep {

namespace detail {

/// Modeled verification cost: the core checksums the delivered payload at
/// 8 bytes/cycle (a word-wide XOR/rotate loop on the dual-issue core).
[[nodiscard]] inline Cycles verify_cycles(std::size_t bytes) {
  return static_cast<Cycles>(bytes / 8 + 1);
}

/// Host-side verdict of that checksum pass: the delivered bytes equal the
/// source.
[[nodiscard]] inline bool payload_ok(const void* dst, const void* src,
                                     std::size_t bytes) {
  return std::memcmp(dst, src, bytes) == 0;
}

[[nodiscard]] inline fault::Site site_of(fault::TransferFault tf) {
  return tf == fault::TransferFault::kDropped ? fault::Site::kDmaDrop
                                              : fault::Site::kDmaCorrupt;
}

/// Backoff before retry attempt `retry` (0-based).
[[nodiscard]] inline Cycles backoff_for(const fault::RetryPolicy& pol,
                                        int retry) {
  return pol.backoff_base << retry;
}

} // namespace detail

/// Blocking bulk SDRAM read with verification + retry.
inline TaskT<void> reliable_read_ext(CoreCtx& ctx, void* dst, const void* src,
                                     std::size_t bytes) {
  fault::FaultInjector* inj = ctx.fault_injector();
  if (inj == nullptr || !inj->plan().resilient) {
    co_await ctx.read_ext(dst, src, bytes);
    co_return;
  }
  const fault::RetryPolicy& pol = inj->plan().retry;
  Cycles first_attempt_done = 0;
  fault::Site last_site = fault::Site::kDmaCorrupt;
  for (int attempt = 0;; ++attempt) {
    const bool retrying = attempt > 0;
    if (retrying) {
      ctx.begin_span("fault/dma-retry");
      co_await ctx.idle(detail::backoff_for(pol, attempt - 1));
    }
    co_await ctx.read_ext(dst, src, bytes);
    const fault::TransferFault tf = ctx.last_transfer_fault();
    // A lost transfer is detected by the modeled DMA watchdog, not the
    // checksum: charge the full timeout margin before giving up on it.
    if (tf == fault::TransferFault::kDropped)
      co_await ctx.idle(pol.drop_timeout);
    co_await ctx.idle(detail::verify_cycles(bytes));
    if (retrying) ctx.end_span();
    if (attempt == 0) first_attempt_done = ctx.now();
    if (detail::payload_ok(dst, src, bytes)) {
      if (retrying)
        inj->count_recovered(last_site, ctx.now() - first_attempt_done);
      co_return;
    }
    last_site = detail::site_of(tf);
    inj->count_detected(last_site);
    if (attempt == 0) inj->count_faulted_transfer();
    if (attempt + 1 >= pol.max_attempts)
      throw fault::FaultUnrecovered("read_ext still failing after " +
                                    std::to_string(attempt + 1) +
                                    " attempts on core " +
                                    std::to_string(ctx.id()));
    inj->count_retry();
  }
}

/// Posted SDRAM write with read-back verification + retry.
inline TaskT<void> reliable_write_ext(CoreCtx& ctx, void* dst, const void* src,
                                      std::size_t bytes) {
  fault::FaultInjector* inj = ctx.fault_injector();
  if (inj == nullptr || !inj->plan().resilient) {
    co_await ctx.write_ext(dst, src, bytes);
    co_return;
  }
  const fault::RetryPolicy& pol = inj->plan().retry;
  Cycles first_attempt_done = 0;
  fault::Site last_site = fault::Site::kDmaCorrupt;
  for (int attempt = 0;; ++attempt) {
    const bool retrying = attempt > 0;
    if (retrying) {
      ctx.begin_span("fault/dma-retry");
      co_await ctx.idle(detail::backoff_for(pol, attempt - 1));
    }
    co_await ctx.write_ext(dst, src, bytes);
    const fault::TransferFault tf = ctx.last_transfer_fault();
    if (tf == fault::TransferFault::kDropped)
      co_await ctx.idle(pol.drop_timeout);
    co_await ctx.idle(detail::verify_cycles(bytes));
    if (retrying) ctx.end_span();
    if (attempt == 0) first_attempt_done = ctx.now();
    if (detail::payload_ok(dst, src, bytes)) {
      if (retrying)
        inj->count_recovered(last_site, ctx.now() - first_attempt_done);
      co_return;
    }
    last_site = detail::site_of(tf);
    inj->count_detected(last_site);
    if (attempt == 0) inj->count_faulted_transfer();
    if (attempt + 1 >= pol.max_attempts)
      throw fault::FaultUnrecovered("write_ext still failing after " +
                                    std::to_string(attempt + 1) +
                                    " attempts on core " +
                                    std::to_string(ctx.id()));
    inj->count_retry();
  }
}

/// Burst DMA read with per-segment verification + whole-burst retry. The
/// re-issue recopies every segment, which also repairs destinations a
/// mem-bits flip corrupted after delivery.
inline TaskT<void> reliable_dma_read_burst(CoreCtx& ctx,
                                           std::span<const DmaSeg> segs) {
  fault::FaultInjector* inj = ctx.fault_injector();
  if (inj == nullptr || !inj->plan().resilient) {
    co_await ctx.wait(ctx.dma_read_ext_burst(segs));
    co_return;
  }
  const fault::RetryPolicy& pol = inj->plan().retry;
  Cycles first_attempt_done = 0;
  fault::Site last_site = fault::Site::kDmaCorrupt;
  for (int attempt = 0;; ++attempt) {
    const bool retrying = attempt > 0;
    if (retrying) {
      ctx.begin_span("fault/dma-retry");
      co_await ctx.idle(detail::backoff_for(pol, attempt - 1));
    }
    const DmaJob job = ctx.dma_read_ext_burst(segs);
    co_await ctx.wait(job);
    if (job.fault == fault::TransferFault::kDropped)
      co_await ctx.idle(pol.drop_timeout);
    std::size_t total = 0;
    bool ok = true;
    for (const DmaSeg& s : segs) {
      total += s.bytes;
      ok = ok && detail::payload_ok(s.dst, s.src, s.bytes);
    }
    co_await ctx.idle(detail::verify_cycles(total));
    if (retrying) ctx.end_span();
    if (attempt == 0) first_attempt_done = ctx.now();
    if (ok) {
      if (retrying)
        inj->count_recovered(last_site, ctx.now() - first_attempt_done);
      co_return;
    }
    last_site = detail::site_of(job.fault);
    inj->count_detected(last_site);
    if (attempt == 0) inj->count_faulted_transfer();
    if (attempt + 1 >= pol.max_attempts)
      throw fault::FaultUnrecovered("dma burst still failing after " +
                                    std::to_string(attempt + 1) +
                                    " attempts on core " +
                                    std::to_string(ctx.id()));
    inj->count_retry();
  }
}

/// Single-segment DMA read with verification + retry.
inline TaskT<void> reliable_dma_read(CoreCtx& ctx, void* dst, const void* src,
                                     std::size_t bytes) {
  const DmaSeg seg{dst, src, bytes};
  co_await reliable_dma_read_burst(ctx, std::span<const DmaSeg>{&seg, 1});
}

/// DMA write local -> SDRAM with verification + retry.
inline TaskT<void> reliable_dma_write(CoreCtx& ctx, void* dst, const void* src,
                                      std::size_t bytes) {
  fault::FaultInjector* inj = ctx.fault_injector();
  if (inj == nullptr || !inj->plan().resilient) {
    co_await ctx.wait(ctx.dma_write_ext(dst, src, bytes));
    co_return;
  }
  const fault::RetryPolicy& pol = inj->plan().retry;
  Cycles first_attempt_done = 0;
  fault::Site last_site = fault::Site::kDmaCorrupt;
  for (int attempt = 0;; ++attempt) {
    const bool retrying = attempt > 0;
    if (retrying) {
      ctx.begin_span("fault/dma-retry");
      co_await ctx.idle(detail::backoff_for(pol, attempt - 1));
    }
    const DmaJob job = ctx.dma_write_ext(dst, src, bytes);
    co_await ctx.wait(job);
    if (job.fault == fault::TransferFault::kDropped)
      co_await ctx.idle(pol.drop_timeout);
    co_await ctx.idle(detail::verify_cycles(bytes));
    if (retrying) ctx.end_span();
    if (attempt == 0) first_attempt_done = ctx.now();
    if (detail::payload_ok(dst, src, bytes)) {
      if (retrying)
        inj->count_recovered(last_site, ctx.now() - first_attempt_done);
      co_return;
    }
    last_site = detail::site_of(job.fault);
    inj->count_detected(last_site);
    if (attempt == 0) inj->count_faulted_transfer();
    if (attempt + 1 >= pol.max_attempts)
      throw fault::FaultUnrecovered("dma write still failing after " +
                                    std::to_string(attempt + 1) +
                                    " attempts on core " +
                                    std::to_string(ctx.id()));
    inj->count_retry();
  }
}

} // namespace esarp::ep
