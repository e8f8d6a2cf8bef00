#include "epiphany/machine.hpp"

#include <sstream>

namespace esarp::ep {

Machine::Machine(ChipConfig cfg, std::size_t ext_bytes, CoreCostParams cost,
                 Tracer* shared_tracer)
    : cfg_(cfg), cost_(cost),
      tracer_(shared_tracer != nullptr ? shared_tracer : &owned_tracer_),
      noc_(cfg), ext_port_(cfg, noc_, tracer_, &metrics_),
      ext_mem_(ext_bytes) {
  ESARP_EXPECTS(cfg.rows > 0 && cfg.cols > 0);
  sched_.set_batching(cfg_.batch_quanta);
  cores_.reserve(static_cast<std::size_t>(cfg.core_count()));
  ctxs_.reserve(static_cast<std::size_t>(cfg.core_count()));
  // The sanitizer is created before the contexts so every CoreCtx can carry
  // the hook pointer; env vars (ESARP_CHECK etc.) can force it on/off.
  if (check::options_with_env(cfg_.check).enabled)
    checker_ =
        std::make_unique<check::CheckContext>(cfg_, sched_, span_names_);
  // Likewise the fault campaign: one injector per machine, hooked into the
  // NoC and every context. Disabled plans build nothing, so the default
  // configuration simulates exactly as before.
  if (cfg_.faults.enabled()) {
    injector_ = std::make_unique<fault::FaultInjector>(cfg_.faults, &metrics_);
    noc_.set_injector(injector_.get());
  }
  // And the power sampler: hooked into the NoC, the ext port and every
  // context, but purely host-side — an instrumented run is bit-identical
  // to an uninstrumented one (docs/observability.md).
  if (cfg_.power.enabled) {
    power_ = std::make_unique<PowerSampler>(cfg_, cfg_.power, span_names_);
    noc_.set_power_sampler(power_.get());
    ext_port_.set_power_sampler(power_.get());
  }
  for (int id = 0; id < cfg.core_count(); ++id) {
    cores_.push_back(std::make_unique<Core>(id, coord_of(id), cfg));
    ctxs_.push_back(std::make_unique<CoreCtx>(
        *cores_.back(), sched_, noc_, ext_port_, ext_mem_, cost_, cfg_,
        *tracer_, metrics_, span_names_, checker_.get(), injector_.get(),
        power_.get()));
    if (checker_ != nullptr)
      checker_->register_core(id, coord_of(id), &cores_.back()->mem(),
                              &cores_.back()->spans);
    if (power_ != nullptr)
      power_->register_core(id, &cores_.back()->spans);
  }
  if (checker_ != nullptr) checker_->register_ext(&ext_mem_);
}

Core& Machine::core(int id) {
  ESARP_EXPECTS(id >= 0 && id < core_count());
  return *cores_[static_cast<std::size_t>(id)];
}

CoreCtx& Machine::ctx(int id) {
  ESARP_EXPECTS(id >= 0 && id < core_count());
  return *ctxs_[static_cast<std::size_t>(id)];
}

Task Machine::wrap(CoreCtx& ctx, std::function<Task(CoreCtx&)> fn,
                   Scheduler& sched) {
  ctx.core().state = CoreState::kRunning;
  Task inner = fn(ctx);
  co_await std::move(inner);
  // A fail-stopped core's program returns early; keep the kFailed state
  // visible (it is what the recovery layer and diagnostics key off).
  if (ctx.core().state != CoreState::kFailed)
    ctx.core().state = CoreState::kDone;
  ctx.core().counters.finish_time = sched.now();
}

void Machine::launch(int core_id, std::function<Task(CoreCtx&)> program) {
  ESARP_EXPECTS(core_id >= 0 && core_id < core_count());
  ESARP_EXPECTS(!ran_);
  for (const auto& p : programs_)
    ESARP_EXPECTS(p.core_id != core_id); // one program per core
  programs_.push_back(
      {core_id, wrap(ctx(core_id), std::move(program), sched_)});
}

Cycles Machine::run(Cycles max_cycles) {
  ESARP_EXPECTS(!ran_);
  ESARP_EXPECTS(!programs_.empty());
  ran_ = true;
  for (auto& p : programs_) sched_.schedule_at(0, p.task.handle());
  // A planned whole-chip fail-stop reuses the scheduler watchdog as its
  // stop mechanism: nothing executes at or beyond the kill cycle. The
  // expiry is converted to fault::ChipFailed so callers can tell "the
  // chip died on schedule" apart from "the run blew its cycle budget".
  const Cycles chip_fail =
      injector_ != nullptr ? injector_->plan().chip_fail_cycle : 0;
  const bool chip_fail_first =
      chip_fail > 0 && (max_cycles == 0 || chip_fail < max_cycles);
  Cycles end = 0;
  try {
    end = sched_.run(chip_fail_first ? chip_fail : max_cycles);
  } catch (const WatchdogExpired& e) {
    if (checker_ != nullptr) checker_->finalize(/*allow_throw=*/false);
    if (chip_fail_first) {
      injector_->mark_chip_failed(e.cycle());
      std::ostringstream msg;
      msg << "whole-chip fail-stop at cycle " << e.cycle() << " ("
          << e.pending_events() << " events abandoned)";
      throw fault::ChipFailed(e.cycle(), msg.str());
    }
    // Rebuild the watchdog error with the per-core picture: which
    // programs were still live, in what state, and inside which phase.
    throw WatchdogExpired(e.cycle(), e.pending_events(),
                          ";" + blocked_cores_brief());
  }

  // Surface kernel failures and deadlocks. The sanitizer still runs its
  // teardown checks (and writes its reports) on those paths, but only a
  // clean run lets it abort with CheckFailure — a kernel exception or
  // SimDeadlock is the more precise error and must not be masked.
  try {
    for (auto& p : programs_) p.task.rethrow_if_error();
  } catch (...) {
    if (checker_ != nullptr) checker_->finalize(/*allow_throw=*/false);
    throw;
  }
  bool any_blocked = false;
  for (auto& p : programs_)
    if (!p.task.done()) any_blocked = true;
  if (any_blocked) {
    if (checker_ != nullptr) checker_->finalize(/*allow_throw=*/false);
    std::ostringstream msg;
    msg << "simulation quiesced with blocked cores at cycle " << sched_.now()
        << " (" << sched_.pending_events() << " pending events):"
        << blocked_cores_brief();
    throw SimDeadlock(msg.str());
  }
  if (checker_ != nullptr) checker_->finalize(/*allow_throw=*/true);
  return end;
}

std::string Machine::blocked_cores_brief() const {
  std::ostringstream out;
  bool any = false;
  for (const auto& p : programs_) {
    if (p.task.done()) continue;
    any = true;
    const Core& c = *cores_[static_cast<std::size_t>(p.core_id)];
    out << " core " << p.core_id << " (" << to_string(c.state);
    if (!c.spans.empty())
      out << ", span " << span_names_.name(c.spans.back());
    out << ")";
  }
  if (!any) out << " (none)";
  return out.str();
}

PerfReport Machine::report() const {
  PerfReport rep;
  rep.cfg = cfg_;
  rep.engine_events = sched_.events_processed();
  rep.engine_quanta = sched_.quanta_batched();
  rep.per_core.reserve(cores_.size());
  for (const auto& c : cores_) {
    rep.per_core.push_back(c->counters);
    rep.makespan = std::max(rep.makespan, c->counters.finish_time);
  }
  rep.noc_total = noc_.stats_total();
  rep.noc_read = noc_.stats(Mesh::kRead);
  rep.noc_write_onchip = noc_.stats(Mesh::kOnChipWrite);
  rep.noc_write_offchip = noc_.stats(Mesh::kOffChipWrite);
  rep.ext = ext_port_.stats();
  return rep;
}

} // namespace esarp::ep
