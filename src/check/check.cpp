#include "check/check.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <tuple>

#include "check/report.hpp"
#include "epiphany/external_memory.hpp"

namespace esarp::check {

namespace {

/// Truthy env var: set and not "0".
bool env_flag(const char* name, bool dflt) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return dflt;
  return !(v[0] == '0' && v[1] == '\0');
}

std::string hex_range(std::size_t offset, std::size_t bytes) {
  std::ostringstream os;
  os << "[+0x" << std::hex << offset << ", +0x" << offset + bytes << ")";
  return os.str();
}

} // namespace

std::string Diagnostic::format() const {
  std::ostringstream os;
  os << "[" << to_string(kind) << "] core " << core << " @ cycle " << cycle;
  if (!span.empty()) os << " (span " << span << ")";
  os << ": " << message;
  return os.str();
}

ep::CheckOptions options_with_env(ep::CheckOptions base) {
  if (std::getenv("ESARP_CHECK") != nullptr)
    base.enabled = env_flag("ESARP_CHECK", base.enabled);
  if (const char* s = std::getenv("ESARP_CHECK_SUPPRESS"))
    base.suppressions = s;
  if (const char* s = std::getenv("ESARP_CHECK_JSON")) base.json_out = s;
  if (std::getenv("ESARP_CHECK_ABORT") != nullptr)
    base.abort_on_hazard = env_flag("ESARP_CHECK_ABORT", base.abort_on_hazard);
  return base;
}

CheckContext::CheckContext(const ep::ChipConfig& cfg,
                           const ep::Scheduler& sched,
                           const ep::SpanNames& names)
    : opt_(options_with_env(cfg.check)), sched_(sched), names_(names) {
  cores_.resize(static_cast<std::size_t>(cfg.core_count()));
  if (!opt_.suppressions.empty())
    suppressions_ = load_suppressions(opt_.suppressions);
}

CheckContext::~CheckContext() {
  // Detach from any local memories that still point at us (the Machine
  // destroys cores after the context, so normally this is a no-op; it
  // matters when a test tears a context down early).
  for (CoreShadow& cs : cores_)
    if (cs.mem != nullptr) cs.mem->attach_observer(nullptr, -1);
}

void CheckContext::register_core(int id, ep::Coord coord,
                                 ep::LocalMemory* mem,
                                 const std::vector<ep::SpanId>* spans) {
  ESARP_EXPECTS(id >= 0 && static_cast<std::size_t>(id) < cores_.size());
  CoreShadow& cs = cores_[static_cast<std::size_t>(id)];
  cs.coord = coord;
  cs.mem = mem;
  cs.spans = spans;
  mem->attach_observer(this, id);
}

CheckContext::CoreShadow& CheckContext::shadow(int core) {
  ESARP_EXPECTS(core >= 0 && static_cast<std::size_t>(core) < cores_.size());
  return cores_[static_cast<std::size_t>(core)];
}

// --- Diagnostics ----------------------------------------------------------

void CheckContext::report(Hazard kind, int core, std::string message) {
  report_at(kind, core, now(), std::move(message));
}

void CheckContext::report_at(Hazard kind, int core, ep::Cycles cycle,
                             std::string message) {
  if (diags_.size() >= opt_.max_diagnostics) {
    ++dropped_;
    return;
  }
  Diagnostic d;
  d.kind = kind;
  d.core = core;
  d.cycle = cycle;
  if (core >= 0 && static_cast<std::size_t>(core) < cores_.size()) {
    const std::vector<ep::SpanId>* spans =
        cores_[static_cast<std::size_t>(core)].spans;
    if (spans != nullptr && !spans->empty())
      d.span = names_.name(spans->back());
  }
  d.message = std::move(message);
  // Fault-campaign composition (docs/fault-injection.md): anything detected
  // while the offending core is inside a "fault/..." span is a consequence
  // of an injected fault being recovered, not a kernel bug.
  if (d.span.rfind("fault/", 0) == 0) d.suppressed = true;
  // Graceful degradation legally tears down with shrunken barriers and
  // drained-but-unreceived channels; those findings are noise once the
  // machine reports that faults actually degraded the run.
  if (fault_degraded_ &&
      (d.kind == Hazard::kChannel || d.kind == Hazard::kBarrier))
    d.suppressed = true;
  for (const std::string& rule : suppressions_) {
    if (d.suppressed) break;
    if (suppression_matches(rule, d.kind, d.message)) {
      d.suppressed = true;
      break;
    }
  }
  diags_.push_back(std::move(d));
}

std::size_t CheckContext::unsuppressed_count() const {
  std::size_t n = 0;
  for (const Diagnostic& d : diags_)
    if (!d.suppressed) ++n;
  return n;
}

bool CheckContext::has(Hazard kind) const {
  return std::any_of(diags_.begin(), diags_.end(),
                     [kind](const Diagnostic& d) { return d.kind == kind; });
}

// --- Local store shadow ---------------------------------------------------

void CheckContext::on_local_alloc(int core, std::size_t offset,
                                  std::size_t bytes) {
  CoreShadow& cs = shadow(core);
  const LiveSpan span{offset, bytes};
  const auto pos = std::lower_bound(
      cs.live.begin(), cs.live.end(), span,
      [](const LiveSpan& a, const LiveSpan& b) { return a.offset < b.offset; });
  cs.live.insert(pos, span);
}

void CheckContext::on_local_reset(int core) {
  shadow(core).live.clear();
}

void CheckContext::on_local_violation(int core, const char* what,
                                      std::size_t requested,
                                      std::size_t limit) {
  report(Hazard::kBankBudget, core,
         std::string(what) + ": requested " + std::to_string(requested) +
             " against limit " + std::to_string(limit) + " bytes");
}

bool CheckContext::covered(const std::vector<LiveSpan>& live,
                           std::size_t offset, std::size_t bytes) {
  if (bytes == 0) return true;
  const std::size_t need_end = offset + bytes;
  std::size_t pos = offset; // live is kept sorted by offset
  for (const LiveSpan& s : live) {
    if (s.offset > pos) break; // gap before the next span
    pos = std::max(pos, s.offset + s.bytes);
    if (pos >= need_end) return true;
  }
  return pos >= need_end;
}

void CheckContext::check_local_span(int core, std::size_t offset,
                                    std::size_t bytes, const char* op) {
  const CoreShadow& cs = shadow(core);
  if (covered(cs.live, offset, bytes)) return;
  report(Hazard::kLocalSpan, core,
         std::string(op) + " touches local bytes " + hex_range(offset, bytes) +
             " outside any live allocation (unallocated, or stale after a "
             "LocalMemory reset)");
}

// --- DMA shadow -----------------------------------------------------------

void CheckContext::prune(CoreShadow& cs) {
  const ep::Cycles t = now();
  std::erase_if(cs.windows, [t](const DmaWindow& w) { return w.done <= t; });
  if (cs.jobs.size() > 4096)
    cs.jobs.erase(cs.jobs.begin(),
                  cs.jobs.begin() +
                      static_cast<std::ptrdiff_t>(cs.jobs.size() / 2));
}

void CheckContext::check_dma_overlap(int core, std::size_t offset,
                                     std::size_t bytes, bool is_write,
                                     const char* op,
                                     std::uint64_t exclude_job) {
  CoreShadow& cs = shadow(core);
  prune(cs);
  for (const DmaWindow& w : cs.windows) {
    if (w.job == exclude_job) continue;
    if (offset >= w.offset + w.bytes || w.offset >= offset + bytes) continue;
    report(Hazard::kDmaRace, core,
           std::string(op) + (is_write ? " writes" : " reads") +
               " local bytes " + hex_range(offset, bytes) +
               " overlapping an in-flight " + w.op + " window " +
               hex_range(w.offset, w.bytes) + " (issued @ cycle " +
               std::to_string(w.issued) + ", completes @ cycle " +
               std::to_string(w.done) + "); await the DMA job first");
    return; // one diagnostic per access is enough
  }
}

void CheckContext::on_local_access(int core, const void* p, std::size_t bytes,
                                   bool is_write, const char* op) {
  CoreShadow& cs = shadow(core);
  if (cs.mem == nullptr || !cs.mem->owns(p)) return; // host scratch memory
  const std::size_t offset = cs.mem->offset_of(p);
  check_local_span(core, offset, bytes, op);
  check_dma_overlap(core, offset, bytes, is_write, op, /*exclude_job=*/0);
}

std::uint64_t CheckContext::open_dma_job(int core) {
  CoreShadow& cs = shadow(core);
  prune(cs);
  const std::uint64_t id = next_job_++;
  cs.jobs.push_back(DmaJobRec{id, false});
  return id;
}

void CheckContext::on_dma_segment(int core, std::uint64_t job, const void* p,
                                  std::size_t bytes, ep::Cycles done_at,
                                  const char* op) {
  CoreShadow& cs = shadow(core);
  if (cs.mem == nullptr || !cs.mem->owns(p)) return; // host scratch memory
  const std::size_t offset = cs.mem->offset_of(p);
  check_local_span(core, offset, bytes, op);
  check_dma_overlap(core, offset, bytes, /*is_write=*/true, op, job);
  if (done_at > now())
    cs.windows.push_back(DmaWindow{offset, bytes, now(), done_at, job, op});
}

void CheckContext::on_dma_wait(int core, std::uint64_t job) {
  if (job == 0) return; // null job: never issued, or an unchecked run
  CoreShadow& cs = shadow(core);
  const auto it =
      std::find_if(cs.jobs.begin(), cs.jobs.end(),
                   [job](const DmaJobRec& r) { return r.id == job; });
  if (it == cs.jobs.end()) return; // pruned long-retired job
  if (it->waited) {
    report(Hazard::kDoubleWait, core,
           "DMA job completed twice (wait called again on an already-awaited "
           "job)");
    return;
  }
  it->waited = true;
}

// --- External memory ------------------------------------------------------

void CheckContext::on_ext_access(int core, const void* p, std::size_t bytes,
                                 bool is_read, const char* op) {
  if (ext_ == nullptr || !ext_->owns(p) || bytes == 0) return;
  const std::size_t offset = ext_->offset_of(p);
  if (offset + bytes <= ext_->used()) return;
  report(Hazard::kExtMemory, core,
         std::string(op) + (is_read ? " reads" : " writes") +
             " external bytes " + hex_range(offset, bytes) +
             " beyond the allocated SDRAM region (" +
             std::to_string(ext_->used()) + " bytes in use); " +
             (is_read ? "no producer ever wrote this memory"
                      : "allocate the destination first"));
}

// --- Remote windows -------------------------------------------------------

void CheckContext::on_remote_write(int writer, ep::Coord dst_core,
                                   const void* dst, std::size_t bytes,
                                   ep::Cycles arrival) {
  // Resolve the owner of the destination pointer among all local stores.
  int owner = -1;
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    if (cores_[i].mem != nullptr && cores_[i].mem->owns(dst)) {
      owner = static_cast<int>(i);
      break;
    }
  }
  int target = -1;
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    if (cores_[i].coord == dst_core && cores_[i].mem != nullptr) {
      target = static_cast<int>(i);
      break;
    }
  }
  if (owner < 0) {
    report(Hazard::kRemoteAliasing, writer,
           "write_remote destination is not inside any simulated local "
           "store (host memory?)");
    return;
  }
  if (owner != target) {
    report(Hazard::kRemoteAliasing, writer,
           "write_remote window addressed to core " + std::to_string(target) +
               " but the destination bytes belong to core " +
               std::to_string(owner) + "'s local store");
    return;
  }
  const std::size_t offset = cores_[static_cast<std::size_t>(owner)]
                                 .mem->offset_of(dst);
  check_local_span(owner, offset, bytes, "write_remote (remote window)");

  const ep::Cycles t = now();
  std::erase_if(remote_windows_,
                [t](const RemoteWindow& w) { return w.end <= t; });
  for (const RemoteWindow& w : remote_windows_) {
    if (w.target != target || w.writer == writer) continue;
    if (offset >= w.offset + w.bytes || w.offset >= offset + bytes) continue;
    report(Hazard::kRemoteAliasing, writer,
           "cores " + std::to_string(w.writer) + " and " +
               std::to_string(writer) +
               " hold overlapping in-flight remote windows " +
               hex_range(w.offset, w.bytes) + " and " +
               hex_range(offset, bytes) + " into core " +
               std::to_string(target) + "'s local store");
    break;
  }
  if (arrival > t)
    remote_windows_.push_back(
        RemoteWindow{writer, target, offset, bytes, t, arrival});
}

void CheckContext::on_remote_read(int reader, ep::Coord src_core,
                                  const void* src, std::size_t bytes) {
  (void)bytes;
  int owner = -1;
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    if (cores_[i].mem != nullptr && cores_[i].mem->owns(src)) {
      owner = static_cast<int>(i);
      break;
    }
  }
  if (owner < 0) return; // host memory source: not a simulated local store
  const CoreShadow& target = cores_[static_cast<std::size_t>(owner)];
  if (!(target.coord == src_core))
    report(Hazard::kRemoteAliasing, reader,
           "read_remote addressed to core (" + std::to_string(src_core.row) +
               "," + std::to_string(src_core.col) +
               ") but the source bytes belong to core " +
               std::to_string(owner) + "'s local store");
}

// --- Channels / barriers --------------------------------------------------

CheckContext::ChannelShadow&
CheckContext::chan_shadow(const void* chan, const std::string& name) {
  for (ChannelShadow& c : channels_)
    if (c.chan == chan) return c;
  channels_.push_back(ChannelShadow{chan, name, 0, 0, -1, 0});
  return channels_.back();
}

void CheckContext::on_chan_send(const void* chan, const std::string& name,
                                int core) {
  ChannelShadow& cs = chan_shadow(chan, name);
  ++cs.sends;
  cs.last_send_core = core;
  cs.last_send_cycle = now();
}

void CheckContext::on_chan_recv(const void* chan, const std::string& name,
                                int core) {
  (void)core;
  ++chan_shadow(chan, name).recvs;
}

CheckContext::BarrierShadow&
CheckContext::barrier_shadow(const void* barrier, int parties) {
  for (BarrierShadow& b : barriers_)
    if (b.barrier == barrier) return b;
  barriers_.push_back(BarrierShadow{barrier, parties, {}, {}, false});
  return barriers_.back();
}

void CheckContext::on_barrier_arrive(const void* barrier, int parties,
                                     int core) {
  BarrierShadow& bs = barrier_shadow(barrier, parties);
  if (std::find(bs.arrived.begin(), bs.arrived.end(), core) !=
      bs.arrived.end()) {
    report(Hazard::kBarrier, core,
           "core arrived twice in one generation of a " +
               std::to_string(bs.parties) + "-party barrier");
  } else {
    bs.arrived.push_back(core);
  }
  if (std::find(bs.participants.begin(), bs.participants.end(), core) ==
      bs.participants.end()) {
    bs.participants.push_back(core);
    if (static_cast<int>(bs.participants.size()) > bs.parties &&
        !bs.arity_reported) {
      bs.arity_reported = true;
      report(Hazard::kBarrier, core,
             "barrier arity mismatch: " +
                 std::to_string(bs.participants.size()) +
                 " distinct cores crossed a " + std::to_string(bs.parties) +
                 "-party barrier");
    }
  }
  // A full generation releases; the next arrival starts a new one.
  if (static_cast<int>(bs.arrived.size()) >= bs.parties) bs.arrived.clear();
}

// --- Teardown -------------------------------------------------------------

void CheckContext::finalize(bool allow_throw) {
  if (!finalized_) {
    finalized_ = true;
    for (const ChannelShadow& c : channels_) {
      if (c.sends <= c.recvs) continue;
      report_at(Hazard::kChannel, c.last_send_core, c.last_send_cycle,
                "channel '" + c.name + "': " +
                    std::to_string(c.sends - c.recvs) +
                    " message(s) sent but never received by teardown");
    }
    for (const BarrierShadow& b : barriers_) {
      if (b.arrived.empty()) continue;
      std::string cores;
      for (const int c : b.arrived) {
        if (!cores.empty()) cores += ", ";
        cores += std::to_string(c);
      }
      report(Hazard::kBarrier, b.arrived.front(),
             "simulation ended with " + std::to_string(b.arrived.size()) +
                 " core(s) (" + cores + ") waiting at a " +
                 std::to_string(b.parties) +
                 "-party barrier no other core reached");
    }
    // Deterministic output: diagnostics are reported in (cycle, core,
    // span, kind) order with exact repeats collapsed, so reports are
    // byte-identical run to run regardless of ESARP_JOBS or the engine's
    // within-cycle event order.
    const auto key = [](const Diagnostic& d) {
      return std::tie(d.cycle, d.core, d.span, d.kind, d.message,
                      d.suppressed);
    };
    std::stable_sort(diags_.begin(), diags_.end(),
                     [&](const Diagnostic& a, const Diagnostic& b) {
                       return key(a) < key(b);
                     });
    diags_.erase(std::unique(diags_.begin(), diags_.end(),
                             [&](const Diagnostic& a, const Diagnostic& b) {
                               return key(a) == key(b);
                             }),
                 diags_.end());
    if (!diags_.empty()) write_console_report(std::cerr, diags_, dropped_);
    if (!opt_.json_out.empty())
      write_json_report(opt_.json_out, diags_, dropped_);
  }
  const std::size_t bad = unsuppressed_count();
  if (allow_throw && opt_.abort_on_hazard && bad > 0) {
    const auto first =
        std::find_if(diags_.begin(), diags_.end(),
                     [](const Diagnostic& d) { return !d.suppressed; });
    throw CheckFailure("esarp-check: " + std::to_string(bad) +
                       " unsuppressed hazard(s); first: " + first->format());
  }
}

} // namespace esarp::check
