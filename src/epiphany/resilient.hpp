// Fault-tolerant transfer and channel wrappers (docs/fault-injection.md).
//
// Each reliable_* transfer performs one logical SDRAM transfer the way a
// hardened Epiphany runtime would: issue, verify the delivered payload
// against its source, and on a mismatch (corruption / bit flip) or a
// modeled DMA watchdog expiry (drop) retry with exponential backoff, all in
// one loop (detail::verified_transfer). The simulated core is charged a
// checksum pass over the payload at 8 bytes per cycle (verify_cycles); the
// host decides by exact byte comparison, which rejects every payload the
// checksum would and costs one pass instead of two. Every retry attempt —
// backoff, re-issue, re-verify — runs inside a "fault/dma-retry" span: the
// span prefix is what tells the hazard sanitizer that shadow-state oddities
// underneath are injected faults being recovered, not kernel bugs. Retries
// exhausting fault::kRetry.max_attempts throw fault::FaultUnrecovered.
//
// Outside a fault campaign (no injector, or plan.resilient == false) every
// transfer wrapper is the plain single-attempt operation, cycle for cycle
// and event for event, so the core programs call these unconditionally:
// one program per mapping role serves clean runs and campaigns alike.
//
// reliable_send / reliable_recv repeat a timed channel op until the
// message goes through, this core fail-stops, or the fail-stop oracle
// confirms a peer dead. Programs call them only on a campaign and keep the
// blocking op inline otherwise: a clean run adds no frame per message.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
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

/// Host-side verdict of that checksum pass: delivered bytes equal source.
[[nodiscard]] inline bool payload_ok(const void* dst, const void* src,
                                     std::size_t bytes) {
  return std::memcmp(dst, src, bytes) == 0;
}

/// Backoff before retry attempt `retry` (0-based).
[[nodiscard]] inline Cycles backoff_for(int retry) {
  return fault::kRetry.backoff_base << retry;
}

/// One issued attempt: its completion and the injected outcome.
struct Issued {
  DelayUntil done;
  fault::TransferFault fault;
};

[[nodiscard]] inline Issued issue_burst(CoreCtx& ctx,
                                        std::span<const DmaSeg> segs) {
  const DmaJob job = ctx.dma_read_ext_burst(segs);
  return Issued{ctx.wait(job), job.fault};
}

/// The verify-and-retry loop of a `bytes`-byte transfer: `issue()` starts
/// an attempt, `delivered()` compares the payload with its source. Both
/// callables live in this one coroutine frame.
template <typename Issue, typename Delivered>
TaskT<void> verified_transfer(CoreCtx& ctx, const char* what,
                              std::size_t bytes, Issue issue,
                              Delivered delivered) {
  fault::FaultInjector* inj = ctx.fault_injector();
  if (inj == nullptr || !inj->plan().resilient) {
    co_await issue().done;
    co_return;
  }
  Cycles first_attempt_done = 0;
  fault::Site last_site = fault::Site::kDmaCorrupt;
  for (int attempt = 0;; ++attempt) {
    const bool retrying = attempt > 0;
    if (retrying) {
      ctx.begin_span("fault/dma-retry");
      co_await ctx.idle(backoff_for(attempt - 1));
    }
    const Issued io = issue();
    co_await io.done;
    // A lost transfer is detected by the modeled DMA watchdog, not the
    // checksum: charge the full timeout margin before giving up on it.
    if (io.fault == fault::TransferFault::kDropped)
      co_await ctx.idle(fault::kRetry.drop_timeout);
    co_await ctx.idle(verify_cycles(bytes));
    if (retrying) ctx.end_span();
    if (attempt == 0) first_attempt_done = ctx.now();
    if (delivered()) {
      if (retrying)
        inj->count_recovered(last_site, ctx.now() - first_attempt_done);
      co_return;
    }
    last_site = io.fault == fault::TransferFault::kDropped
                    ? fault::Site::kDmaDrop
                    : fault::Site::kDmaCorrupt;
    inj->count_detected(last_site);
    if (attempt == 0) inj->count_faulted_transfer();
    if (attempt + 1 >= fault::kRetry.max_attempts)
      throw fault::FaultUnrecovered(
          std::string(what) + " still failing after " +
          std::to_string(attempt + 1) + " attempts on core " +
          std::to_string(ctx.id()));
    inj->count_retry();
  }
}

/// True when any of `peers` has a passed fail-stop trigger; counts the
/// detection and flags the sanitizer that degraded recovery follows.
[[nodiscard]] inline bool peer_dead(CoreCtx& ctx, std::span<const int> peers) {
  fault::FaultInjector& inj = *ctx.fault_injector();
  const auto now = static_cast<std::uint64_t>(ctx.now());
  if (std::none_of(peers.begin(), peers.end(),
                   [&](int core) { return inj.fail_stop_due(core, now); }))
    return false;
  inj.count_detected(fault::Site::kFailStop);
  if (ctx.checker() != nullptr) ctx.checker()->set_fault_degraded();
  return true;
}

} // namespace detail

/// Blocking bulk SDRAM read with verification + retry.
inline TaskT<void> reliable_read_ext(CoreCtx& ctx, void* dst, const void* src,
                                     std::size_t bytes) {
  return detail::verified_transfer(
      ctx, "read_ext", bytes,
      [&ctx, dst, src, bytes] {
        return detail::Issued{ctx.read_ext(dst, src, bytes),
                              ctx.last_transfer_fault()};
      },
      [dst, src, bytes] { return detail::payload_ok(dst, src, bytes); });
}

/// Posted SDRAM write with read-back verification + retry.
inline TaskT<void> reliable_write_ext(CoreCtx& ctx, void* dst, const void* src,
                                      std::size_t bytes) {
  return detail::verified_transfer(
      ctx, "write_ext", bytes,
      [&ctx, dst, src, bytes] {
        return detail::Issued{ctx.write_ext(dst, src, bytes),
                              ctx.last_transfer_fault()};
      },
      [dst, src, bytes] { return detail::payload_ok(dst, src, bytes); });
}

/// Burst DMA read with per-segment verification + whole-burst retry. The
/// re-issue recopies every segment, which also repairs destinations a
/// mem-bits flip corrupted after delivery. `segs` must outlive the task.
inline TaskT<void> reliable_dma_read_burst(CoreCtx& ctx,
                                           std::span<const DmaSeg> segs) {
  std::size_t bytes = 0;
  for (const DmaSeg& s : segs) bytes += s.bytes;
  return detail::verified_transfer(
      ctx, "dma burst", bytes,
      [&ctx, segs] { return detail::issue_burst(ctx, segs); },
      [segs] {
        return std::all_of(segs.begin(), segs.end(), [](const DmaSeg& s) {
          return detail::payload_ok(s.dst, s.src, s.bytes);
        });
      });
}

/// Single-segment DMA read with verification + retry.
inline TaskT<void> reliable_dma_read(CoreCtx& ctx, void* dst, const void* src,
                                     std::size_t bytes) {
  return detail::verified_transfer(
      ctx, "dma burst", bytes,
      [&ctx, seg = DmaSeg{dst, src, bytes}] {
        return detail::issue_burst(ctx, {&seg, 1});
      },
      [dst, src, bytes] { return detail::payload_ok(dst, src, bytes); });
}

enum class ChanOutcome : std::uint8_t {
  kDelivered,  ///< the message went through
  kSelfFailed, ///< this core's fail-stop passed; it is marked failed
  kPeerDead,   ///< a peer's fail-stop passed; the detection is counted
};

/// Send on a fault campaign: this core checks its own fail-stop before each
/// timed attempt and `peers` after each timeout. Only a confirmed death
/// ends the wait; a slow peer is never given up on.
template <typename Chan, typename T>
TaskT<ChanOutcome> reliable_send(CoreCtx& ctx, Chan& chan, T value,
                                 std::span<const int> peers) {
  for (;;) {
    if (ctx.fail_stop_due()) {
      ctx.mark_failed();
      co_return ChanOutcome::kSelfFailed;
    }
    const bool sent = co_await chan.send_for(
        ctx, value, fault::kRetry.channel_timeout, fault::kRetry.channel_poll);
    if (sent) co_return ChanOutcome::kDelivered;
    if (detail::peer_dead(ctx, peers)) co_return ChanOutcome::kPeerDead;
  }
}

/// Receive into `out` (written only on kDelivered), as reliable_send.
template <typename Chan, typename T>
TaskT<ChanOutcome> reliable_recv(CoreCtx& ctx, Chan& chan, T& out,
                                 std::span<const int> peers) {
  for (;;) {
    if (ctx.fail_stop_due()) {
      ctx.mark_failed();
      co_return ChanOutcome::kSelfFailed;
    }
    std::optional<T> got = co_await chan.recv_for(
        ctx, fault::kRetry.channel_timeout, fault::kRetry.channel_poll);
    if (got.has_value()) {
      out = std::move(*got);
      co_return ChanOutcome::kDelivered;
    }
    if (detail::peer_dead(ctx, peers)) co_return ChanOutcome::kPeerDead;
  }
}

} // namespace esarp::ep
