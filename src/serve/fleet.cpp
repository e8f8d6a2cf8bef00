#include "serve/fleet.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

#include "analysis/cost_model.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"
#include "core/ffbp_epiphany.hpp"
#include "core/gbp_epiphany.hpp"
#include "core/mapping_desc.hpp"
#include "epiphany/scheduler.hpp"
#include "fault/injector.hpp"
#include "host/sweep_runner.hpp"
#include "sar/params.hpp"
#include "sar/scene.hpp"

namespace esarp::serve {

namespace {

/// Retry n is released kBackoffBaseS * 2^n after the failed attempt.
constexpr double kBackoffBaseS = 100e-6;
/// Per-attempt watchdog, in multiples of the job's clean makespan.
constexpr std::uint64_t kTimeoutFactor = 8;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= kFnvPrime;
  }
}

/// Deterministic per-attempt seed: a SplitMix64 finalizer over the
/// campaign seed and the attempt coordinates, so reordering host threads
/// can never change any roll (same contract as fault/injector.cpp).
[[nodiscard]] std::uint64_t attempt_seed(std::uint64_t campaign_seed,
                                         int job_id, int attempt, int chip) {
  SplitMix64 sm(campaign_seed ^
                (static_cast<std::uint64_t>(static_cast<unsigned>(job_id))
                 << 40) ^
                (static_cast<std::uint64_t>(static_cast<unsigned>(attempt))
                 << 20) ^
                static_cast<std::uint64_t>(static_cast<unsigned>(chip)));
  return sm.next();
}

[[nodiscard]] double u01(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// Aperture actually formed at `degrade` halvings. The floor keeps the
/// factorization meaningful for the job's core count (at least two pulses
/// per core, never below 16): degrading past the floor re-rolls the
/// attempt seed but not the image size, so such a job is not kDegraded.
/// Each algorithm keeps its pulse shape: FFBP's floor is a power of two,
/// and a halved GBP aperture rounds down to an even count.
[[nodiscard]] std::size_t degraded_pulses(const JobSpec& spec, int degrade) {
  std::size_t floor_p =
      std::max<std::size_t>(16, 2 * static_cast<std::size_t>(spec.n_cores));
  std::size_t p = spec.n_pulses >> static_cast<unsigned>(degrade);
  if (spec.algo == Algo::kFfbp)
    floor_p = std::bit_ceil(floor_p);
  else if (degrade > 0)
    p &= ~std::size_t{1};
  return std::max(p, std::min(floor_p, spec.n_pulses));
}

/// Schedule-hash status code for a shed job, which has no AttemptStatus
/// of its own. Distinct from every AttemptStatus value; it only mixes into
/// the hash when shedding is enabled, so a campaign with shedding off
/// hashes exactly its attempts and terminal records. The value is pinned
/// by the schedule hashes in the committed serve baselines.
constexpr std::uint64_t kHashShed = 6;

/// One resolved dispatch: everything exec_attempt needs, with the scene
/// data, fault-free reference and silent memo resolved on the scheduler
/// thread so the worker pool only reads shared state.
struct Attempt {
  int job_id = 0;
  int attempt = 0; ///< 0-based attempt index across degrade levels
  int chip = 0;
  const Array2D<cf32>* data = nullptr;
  sar::RadarParams params;
  Algo algo = Algo::kFfbp;
  int cores = 16;
  fault::FaultPlan plan;
  const AttemptOutcome* clean = nullptr;  ///< the shape's fault-free run
  const AttemptOutcome* silent = nullptr; ///< its silent memo, if any yet
};

/// The outcome of a chip run that delivered `image`: kCorrupt when the
/// run was degraded (fail-stopped cores), else kOk.
[[nodiscard]] AttemptOutcome outcome_of(const ep::ChipRun& sim,
                                        const Array2D<cf32>& image) {
  AttemptOutcome out;
  if (sim.degraded) out.status = AttemptStatus::kCorrupt;
  out.cycles = sim.cycles;
  out.energy_j = sim.energy.total_j();
  out.faults = sim.faults;
  out.checksum = fault::FaultInjector::checksum(image.data(),
                                                image.size() * sizeof(cf32));
  return out;
}

/// Run one job shape once on a simulated chip configured by `cfg`, its
/// fault plan included, bounded by `max_cycles` (0 = unbounded). Fault
/// exceptions propagate.
[[nodiscard]] AttemptOutcome run_shape(const Array2D<cf32>& data,
                                       const sar::RadarParams& p, Algo algo,
                                       int cores, const ep::ChipConfig& cfg,
                                       ep::Cycles max_cycles) {
  if (algo == Algo::kGbp) {
    const auto sim = core::run_gbp_epiphany(data, p, cores, cfg, max_cycles);
    return outcome_of(sim, sim.image);
  }
  core::FfbpMapOptions opt;
  opt.n_cores = cores;
  opt.max_cycles = max_cycles;
  const auto sim = core::run_ffbp_epiphany(data, p, opt, cfg);
  return outcome_of(sim, sim.image);
}

/// Run one whole job on one simulated chip — the per-job analogue of
/// resilient.hpp's verified transfer: execute, bound with a watchdog,
/// checksum the delivered image against the fault-free reference.
[[nodiscard]] AttemptOutcome exec_attempt(const Attempt& a,
                                          const ep::ChipConfig& base) {
  // Fault-free attempts are bit-identical to the memoized reference run
  // (the simulator is deterministic), so serving a clean job costs no
  // host time beyond the first job of its shape.
  if (!a.plan.enabled()) return *a.clean;
  // Fault rolls are stateless, so until its first firing roll an attempt
  // replays the shape's silent run event for event. When none of the rolls
  // that run drew fires under this plan, the attempt *is* that run. The
  // watchdog bound is the shape's, which the silent run met. A fail-stop
  // ends a run without a roll, so such a plan is always simulated.
  if (a.silent != nullptr && a.plan.fail_stops.empty() &&
      a.plan.chip_fail_cycle == 0 &&
      !fault::FaultInjector::rolls_fire(a.plan, a.silent->faults)) {
    return *a.silent;
  }
  ep::ChipConfig cfg = base;
  cfg.faults = a.plan;
  AttemptOutcome out;
  try {
    out = run_shape(*a.data, a.params, a.algo, a.cores, cfg,
                    kTimeoutFactor * a.clean->cycles);
    if (out.checksum != a.clean->checksum) {
      // The chip *thinks* it delivered, but the image is not the verified
      // fault-free result — the fleet treats that exactly like a failed
      // transfer checksum and retries elsewhere.
      out.status = AttemptStatus::kCorrupt;
    }
  } catch (const fault::ChipFailed& e) {
    out.status = AttemptStatus::kChipKilled;
    out.cycles = e.cycle();
  } catch (const fault::FaultUnrecovered&) {
    out.status = AttemptStatus::kUnrecovered;
    out.cycles = a.clean->cycles; // deterministic stand-in for the lost time
  } catch (const ep::WatchdogExpired& e) {
    out.status = AttemptStatus::kTimedOut;
    out.cycles = e.cycle();
  }
  if (out.cycles == 0) out.cycles = 1; // occupy the chip for a nonzero time
  return out;
}

} // namespace

bool Fleet::SimKey::operator<(const SimKey& o) const {
  if (pulses != o.pulses) return pulses < o.pulses;
  if (range != o.range) return range < o.range;
  if (algo != o.algo) return algo < o.algo;
  return cores < o.cores;
}

Fleet::Fleet(FleetConfig cfg) : cfg_(std::move(cfg)) {
  ESARP_EXPECTS(cfg_.n_chips >= 1);
  ESARP_EXPECTS(cfg_.policy.max_attempts >= 1);
  ESARP_EXPECTS(cfg_.policy.max_degrade >= 0);
}

const Array2D<cf32>& Fleet::scene_data(std::size_t pulses,
                                       std::size_t range) {
  const auto key = std::make_pair(pulses, range);
  auto it = data_cache_.find(key);
  if (it == data_cache_.end()) {
    const sar::RadarParams p = sar::test_params(pulses, range);
    it = data_cache_
             .emplace(key,
                      sar::simulate_compressed(p, sar::six_target_scene(p)))
             .first;
  }
  return it->second;
}

const Fleet::CleanRef& Fleet::clean_ref(const SimKey& key) {
  auto it = clean_cache_.find(key);
  if (it != clean_cache_.end()) return it->second;

  ep::ChipConfig cfg = cfg_.chip;
  cfg.faults = fault::FaultPlan{}; // reference runs are always fault-free
  CleanRef ref;
  ref.run = run_shape(scene_data(key.pulses, key.range),
                      sar::test_params(key.pulses, key.range),
                      static_cast<Algo>(key.algo), key.cores, cfg,
                      /*max_cycles=*/0);
  return clean_cache_.emplace(key, ref).first->second;
}

double Fleet::model_rel_err(const SimKey& key) {
  (void)clean_ref(key); // ensure the simulated reference exists
  CleanRef& ref = clean_cache_.find(key)->second;
  if (ref.model_rel_err >= 0.0) return ref.model_rel_err;
  // The shed policy packs queues with the *simulated* clean makespans; the
  // analytic model (src/analysis) independently predicts the same mapping
  // so a corrupted or stale memo cannot silently mis-steer admission
  // control. The worst divergence is surfaced as shed_model_max_rel_err.
  const sar::RadarParams p = sar::test_params(key.pulses, key.range);
  analysis::MappingSpec spec;
  if (static_cast<Algo>(key.algo) == Algo::kFfbp) {
    core::FfbpMapOptions opt;
    opt.n_cores = key.cores;
    spec = core::describe_ffbp_mapping(p, opt, cfg_.chip);
  } else {
    spec = core::describe_gbp_mapping(p, key.cores, cfg_.chip);
  }
  const analysis::CostPrediction pred = analysis::predict_cost(spec);
  ref.model_rel_err =
      std::abs(static_cast<double>(pred.makespan) -
               static_cast<double>(ref.run.cycles)) /
      static_cast<double>(ref.run.cycles);
  return ref.model_rel_err;
}

double backoff_delay_s(double base_s, int attempts_total) {
  ESARP_EXPECTS(attempts_total >= 1);
  const unsigned shift =
      std::min<unsigned>(static_cast<unsigned>(attempts_total - 1), 20);
  return base_s * static_cast<double>(1ULL << shift);
}

double percentile(std::vector<double> xs, double q) {
  ESARP_EXPECTS(!xs.empty());
  ESARP_EXPECTS(q > 0.0 && q <= 1.0);
  std::sort(xs.begin(), xs.end());
  // Nearest-rank: the smallest value with at least q of the sample at or
  // below it — an actual observation, never an interpolation.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::max<std::size_t>(rank, 1) - 1];
}

ServeReport Fleet::run(const ArrivalTrace& trace) {
  ESARP_EXPECTS(!trace.jobs.empty());
  for (std::size_t i = 0; i < trace.jobs.size(); ++i) {
    const JobSpec& j = trace.jobs[i];
    ESARP_EXPECTS(j.id == static_cast<int>(i));
    ESARP_EXPECTS(j.deadline_s > 0.0);
    // Checked before the first dispatch, so a job the chip cannot run
    // fails the campaign up front instead of inside a simulation.
    ESARP_REQUIRE(j.n_cores >= 1 && j.n_cores <= cfg_.chip.core_count(),
                  std::string("serve: job ")
                      .append(std::to_string(i))
                      .append(" asks for ")
                      .append(std::to_string(j.n_cores))
                      .append(" cores; the chip has ")
                      .append(std::to_string(cfg_.chip.core_count())));
  }

  const ServePolicy& pol = cfg_.policy;

  struct Pending {
    JobSpec spec;
    double release_s = 0.0;
    int attempts_level = 0; ///< dispatches at the current degrade level
    int attempts_total = 0;
    int degrade = 0;
    int migrations = 0;
    int last_chip = -1;
    double first_dispatch_s = -1.0;
  };
  /// A job's one running attempt; `job` is its state as of the launch.
  struct Inflight {
    Pending job;
    int chip = 0;
    double start_s = 0.0;
    double finish_s = 0.0;
    double est_service_s = 0.0; ///< clean makespan (queue-wait estimator)
    AttemptOutcome out;
  };

  ServeReport rep;
  rep.jobs.resize(trace.jobs.size());
  rep.chips.assign(static_cast<std::size_t>(cfg_.n_chips), ChipStatus{});
  ServeCounters& ctr = rep.counters;
  ctr.jobs_total = trace.jobs.size();

  std::vector<bool> finished(trace.jobs.size(), false);
  std::vector<bool> chip_busy(static_cast<std::size_t>(cfg_.n_chips), false);
  std::vector<Pending> waiting;
  std::vector<Inflight> running;
  host::SweepRunner pool(cfg_.host_jobs);

  std::uint64_t hash = kFnvOffset;
  double shed_model_err = 0.0;
  double now = 0.0;
  double makespan = 0.0;
  std::size_t next_arrival = 0;
  std::size_t remaining = trace.jobs.size();

  /// The simulated shape of job `j` at its current degrade level.
  const auto shape_of = [](const Pending& j) {
    return SimKey{degraded_pulses(j.spec, j.degrade), j.spec.n_range,
                  static_cast<int>(j.spec.algo), j.spec.n_cores};
  };

  /// Memoized clean makespan of the job's shape at its degrade level —
  /// the service-time estimate the shed policy packs queues with.
  const auto clean_service_s = [&](const Pending& j) {
    const SimKey key = shape_of(j);
    if (pol.shed.enabled) {
      shed_model_err = std::max(shed_model_err, model_rel_err(key));
    }
    return cfg_.chip.seconds(clean_ref(key).run.cycles);
  };

  const auto requeue = [&](Pending j, int from_chip, double finish_s) {
    j.last_chip = from_chip;
    ctr.retries++;
    if (j.attempts_level >= pol.max_attempts) {
      // Retry budget for this quality level is spent: escalate to a
      // smaller aperture (one fewer FFBP merge level) with a fresh
      // budget, rather than dropping the job.
      j.degrade++;
      j.attempts_level = 0;
      ctr.degradations++;
      if (j.degrade > pol.max_degrade) {
        std::ostringstream msg;
        msg << "serve: job " << j.spec.id << " exhausted "
            << j.attempts_total << " attempts at max degradation level "
            << pol.max_degrade;
        throw fault::FaultUnrecovered(msg.str());
      }
    }
    j.release_s =
        finish_s + backoff_delay_s(kBackoffBaseS, j.attempts_total);
    waiting.push_back(j);
  };

  const auto retire = [&](const Inflight& inf) {
    const Pending& j = inf.job;
    const auto id = static_cast<std::size_t>(j.spec.id);
    chip_busy[static_cast<std::size_t>(inf.chip)] = false;
    ChipStatus& cs = rep.chips[static_cast<std::size_t>(inf.chip)];
    cs.busy_s += inf.finish_s - inf.start_s;
    ctr.faults_injected += inf.out.faults.injected;
    ctr.faults_detected += inf.out.faults.detected;
    ctr.faults_recovered += inf.out.faults.recovered;
    fnv_mix(hash, static_cast<std::uint64_t>(j.spec.id));
    fnv_mix(hash, static_cast<std::uint64_t>(j.attempts_total));
    fnv_mix(hash, static_cast<std::uint64_t>(inf.chip));
    fnv_mix(hash, static_cast<std::uint64_t>(inf.out.status));
    fnv_mix(hash, inf.out.cycles);

    switch (inf.out.status) {
      case AttemptStatus::kOk: {
        cs.jobs_completed++;
        cs.energy_j += inf.out.energy_j;
        JobRecord& rec = rep.jobs[id];
        rec.spec = j.spec;
        rec.start_s = j.first_dispatch_s;
        rec.finish_s = inf.finish_s;
        rec.latency_s = inf.finish_s - j.spec.arrival_s;
        rec.attempts = j.attempts_total;
        rec.migrations = j.migrations;
        rec.degrade_level = j.degrade;
        rec.chip = inf.chip;
        rec.sim_cycles = inf.out.cycles;
        rec.energy_j = inf.out.energy_j;
        rec.image_checksum = inf.out.checksum;
        if (degraded_pulses(j.spec, j.degrade) < j.spec.n_pulses) {
          rec.state = JobState::kDegraded;
          ctr.jobs_degraded++;
        } else if (rec.latency_s <= j.spec.deadline_s) {
          rec.state = JobState::kMet;
          ctr.jobs_met++;
        } else {
          rec.state = JobState::kLate;
          ctr.jobs_late++;
        }
        finished[id] = true;
        remaining--;
        makespan = std::max(makespan, inf.finish_s);
        return;
      }
      case AttemptStatus::kChipKilled:
        cs.failed_at_s = inf.finish_s;
        ctr.chip_kills++;
        break;
      case AttemptStatus::kTimedOut: ctr.timeouts++; break;
      case AttemptStatus::kCorrupt: ctr.checksum_failures++; break;
      case AttemptStatus::kUnrecovered: break;
    }
    requeue(j, inf.chip, inf.finish_s);
  };

  // The lowest free live chip other than the one that last failed the job
  // (migration); that chip only when no other is free. Failed chips never.
  const auto pick_chip = [&](int last_chip) {
    int fallback = -1;
    for (int c = 0; c < cfg_.n_chips; ++c) {
      const auto i = static_cast<std::size_t>(c);
      if (chip_busy[i] || rep.chips[i].failed_at_s >= 0.0) continue;
      if (c != last_chip) return c;
      fallback = c;
    }
    return fallback;
  };

  /// Build one dispatch-ready Attempt for job `j` on `chip`, marking the
  /// chip busy and counting the attempt against the job.
  const auto make_attempt = [&](Pending& j, int chip) {
    Attempt a;
    a.job_id = j.spec.id;
    a.attempt = j.attempts_total;
    a.chip = chip;
    a.algo = j.spec.algo;
    a.cores = j.spec.n_cores;
    const SimKey key = shape_of(j);
    a.data = &scene_data(key.pulses, key.range);
    a.params = sar::test_params(key.pulses, key.range);
    const AttemptOutcome& ref = clean_ref(key).run;
    a.clean = &ref;
    const auto silent = silent_cache_.find(key);
    if (silent != silent_cache_.end()) a.silent = &silent->second;
    if (cfg_.chaos.enabled()) {
      a.plan.seed = attempt_seed(cfg_.chaos.seed, a.job_id, a.attempt,
                                 a.chip);
      a.plan.dma_corrupt_rate = cfg_.chaos.dma_corrupt_rate;
      a.plan.dma_drop_rate = cfg_.chaos.dma_drop_rate;
      a.plan.membits_rate = cfg_.chaos.membits_rate;
      a.plan.noc_stall_rate = cfg_.chaos.noc_stall_rate;
      if (cfg_.chaos.chip_kill_rate > 0.0) {
        SplitMix64 sm(a.plan.seed ^ 0x6368697066616b65ULL);
        if (u01(sm.next()) < cfg_.chaos.chip_kill_rate) {
          // Kill cycle uniform in 10..90% of the fault-free makespan:
          // always mid-job, never so early the dispatch is free.
          const std::uint64_t lo = std::max<std::uint64_t>(
              ref.cycles / 10, 1);
          const std::uint64_t span =
              std::max<std::uint64_t>(ref.cycles * 8 / 10, 1);
          a.plan.chip_fail_cycle = lo + sm.next() % span;
        }
      }
    }
    chip_busy[static_cast<std::size_t>(chip)] = true;
    rep.chips[static_cast<std::size_t>(chip)].attempts++;
    ctr.attempts++;
    j.attempts_total++;
    j.attempts_level++;
    return a;
  };

  while (remaining > 0) {
    // 1. Retire every attempt finishing at or before the fleet clock, in
    //    launch order. Event times are assigned, never accumulated, so the
    //    comparison is exact.
    for (std::size_t i = 0; i < running.size();) {
      if (running[i].finish_s <= now) {
        retire(running[i]);
        running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }

    // 2. Admit arrivals.
    while (next_arrival < trace.jobs.size() &&
           trace.jobs[next_arrival].arrival_s <= now) {
      Pending j;
      j.spec = trace.jobs[next_arrival];
      j.release_s = j.spec.arrival_s;
      waiting.push_back(j);
      ++next_arrival;
    }

    // 3. Order the queue. EDF (default): priority class descending, then
    //    earliest absolute deadline, then job id. FIFO: oldest release
    //    first, job id breaking ties (PR 8's order, bit-for-bit).
    std::sort(waiting.begin(), waiting.end(),
              [&](const Pending& a, const Pending& b) {
                if (pol.dispatch == DispatchOrder::kEdf) {
                  if (a.spec.priority != b.spec.priority)
                    return a.spec.priority > b.spec.priority;
                  const double da = a.spec.arrival_s + a.spec.deadline_s;
                  const double db = b.spec.arrival_s + b.spec.deadline_s;
                  if (da != db) return da < db;
                  return a.spec.id < b.spec.id;
                }
                if (a.release_s != b.release_s)
                  return a.release_s < b.release_s;
                return a.spec.id < b.spec.id;
              });

    // 4. Admission control: virtually pack the released queue (in
    //    dispatch order) onto the chips' estimated free times using the
    //    memoized clean makespans, and shed the low-priority jobs that are
    //    already doomed — estimated finish past arrival + deadline. Doomed
    //    jobs of a higher class still reserve their slot (they will run).
    if (pol.shed.enabled) {
      std::vector<double> free_at;
      for (int c = 0; c < cfg_.n_chips; ++c) {
        if (rep.chips[static_cast<std::size_t>(c)].failed_at_s >= 0.0)
          continue;
        double t = now;
        for (const Inflight& r : running) {
          if (r.chip == c) t = std::max(t, r.start_s + r.est_service_s);
        }
        free_at.push_back(t);
      }
      for (std::size_t i = 0; i < waiting.size() && !free_at.empty();) {
        Pending& j = waiting[i];
        if (j.release_s > now) {
          ++i;
          continue;
        }
        const double svc = clean_service_s(j);
        auto slot = std::min_element(free_at.begin(), free_at.end());
        const double est_finish = std::max(*slot, now) + svc;
        if (est_finish > j.spec.arrival_s + j.spec.deadline_s &&
            j.spec.priority == Priority::kLow) {
          const auto id = static_cast<std::size_t>(j.spec.id);
          JobRecord& rec = rep.jobs[id];
          rec.spec = j.spec;
          rec.state = JobState::kShed;
          rec.start_s = std::max(j.first_dispatch_s, 0.0);
          rec.finish_s = now;
          rec.latency_s = now - j.spec.arrival_s;
          rec.attempts = j.attempts_total;
          rec.migrations = j.migrations;
          rec.degrade_level = j.degrade;
          rec.chip = -1;
          fnv_mix(hash, static_cast<std::uint64_t>(j.spec.id));
          fnv_mix(hash, static_cast<std::uint64_t>(j.attempts_total));
          fnv_mix(hash, kHashShed);
          finished[id] = true;
          remaining--;
          ctr.jobs_shed++;
          waiting.erase(waiting.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
          *slot = est_finish;
          ++i;
        }
      }
    }

    // 5. Dispatch released jobs to free chips in queue order, then run
    //    the instant's batch on the worker pool in index order
    //    (deterministic regardless of host_jobs).
    std::vector<Attempt> batch;
    std::vector<Inflight> launched;
    for (std::size_t i = 0; i < waiting.size();) {
      if (waiting[i].release_s > now) {
        ++i;
        continue;
      }
      const int chip = pick_chip(waiting[i].last_chip);
      if (chip < 0) break; // no free usable chip at this instant
      Pending j = waiting[i];
      waiting.erase(waiting.begin() + static_cast<std::ptrdiff_t>(i));

      if (j.first_dispatch_s < 0.0) j.first_dispatch_s = now;
      if (j.last_chip >= 0 && chip != j.last_chip) {
        j.migrations++;
        ctr.migrations++;
      }
      batch.push_back(make_attempt(j, chip));
      Inflight inf;
      inf.job = j;
      inf.chip = chip;
      inf.start_s = now;
      inf.est_service_s = cfg_.chip.seconds(batch.back().clean->cycles);
      launched.push_back(inf);
    }

    if (!batch.empty()) {
      auto outs = pool.run(batch.size(), [&](std::size_t i) {
        return exec_attempt(batch[i], cfg_.chip);
      });
      for (std::size_t i = 0; i < batch.size(); ++i) {
        // The first simulated attempt of a shape, in index order, that
        // delivered with no fault roll fired becomes the shape's silent
        // memo (exec_attempt). A chip kill ends a run without a roll.
        const fault::FaultPlan& plan = batch[i].plan;
        if (plan.enabled() && plan.chip_fail_cycle == 0 &&
            outs[i].status == AttemptStatus::kOk &&
            outs[i].faults.injected == 0) {
          silent_cache_.try_emplace(shape_of(launched[i].job), outs[i]);
        }
        launched[i].finish_s = now + cfg_.chip.seconds(outs[i].cycles);
        launched[i].out = outs[i];
        running.push_back(launched[i]);
      }
    }

    if (remaining == 0) break;

    // 6. Advance the fleet clock to the next event strictly after `now`.
    double next = std::numeric_limits<double>::infinity();
    if (next_arrival < trace.jobs.size()) {
      next = std::min(next, trace.jobs[next_arrival].arrival_s);
    }
    for (const Inflight& inf : running) next = std::min(next, inf.finish_s);
    for (const Pending& j : waiting) {
      if (j.release_s > now) next = std::min(next, j.release_s);
    }
    if (!std::isfinite(next)) {
      // Jobs outstanding, nothing running, nothing arriving, no release
      // ahead: every chip is dead. The campaign cannot make progress.
      std::ostringstream msg;
      msg << "serve: fleet exhausted with " << remaining
          << " job(s) outstanding (all " << cfg_.n_chips
          << " chips failed)";
      throw fault::FaultUnrecovered(msg.str());
    }
    now = std::max(next, now);
  }

  for (std::size_t id = 0; id < finished.size(); ++id) {
    ESARP_REQUIRE(finished[id], "serve: job without terminal state");
  }

  // Latency order statistics and energy-per-image cover *delivered* jobs
  // only — a shed job has no delivery to measure — while slo_attainment
  // keeps jobs_total as its denominator, so shedding can never flatter
  // the SLO.
  std::vector<double> latencies;
  latencies.reserve(rep.jobs.size());
  for (const JobRecord& r : rep.jobs) {
    if (r.state != JobState::kShed) latencies.push_back(r.latency_s);
    rep.energy_total_j += r.energy_j;
    fnv_mix(hash, static_cast<std::uint64_t>(r.spec.id));
    fnv_mix(hash, static_cast<std::uint64_t>(r.state));
    fnv_mix(hash, static_cast<std::uint64_t>(r.attempts));
    fnv_mix(hash, static_cast<std::uint64_t>(r.degrade_level));
    fnv_mix(hash, r.sim_cycles);
    fnv_mix(hash, r.image_checksum);
  }
  rep.makespan_s = makespan;
  if (!latencies.empty()) {
    rep.latency_p50_s = percentile(latencies, 0.50);
    rep.latency_p95_s = percentile(latencies, 0.95);
    rep.latency_p99_s = percentile(latencies, 0.99);
    rep.latency_max_s =
        *std::max_element(latencies.begin(), latencies.end());
    double sum = 0.0;
    for (const double l : latencies) sum += l;
    rep.latency_mean_s = sum / static_cast<double>(latencies.size());
  }
  rep.throughput_jobs_per_s =
      makespan > 0.0 ? static_cast<double>(ctr.jobs_total) / makespan : 0.0;
  const std::uint64_t delivered = ctr.jobs_total - ctr.jobs_shed;
  rep.energy_per_image_j =
      delivered > 0 ? rep.energy_total_j / static_cast<double>(delivered)
                    : 0.0;
  rep.slo_attainment = static_cast<double>(ctr.jobs_met) /
                       static_cast<double>(ctr.jobs_total);
  rep.shed_model_max_rel_err = shed_model_err;
  rep.schedule_hash = hash;
  return rep;
}

void fill_serve_manifest(telemetry::RunManifest& m, const FleetConfig& cfg,
                         const ArrivalTrace& trace, const ServeReport& rep) {
  m.set_schema("esarp-serve-manifest/4");
  m.add_chip("rows", cfg.chip.rows);
  m.add_chip("cols", cfg.chip.cols);
  m.add_chip("clock_hz", cfg.chip.clock_hz);
  m.add_chip("n_chips", cfg.n_chips);

  m.add_workload("n_jobs", static_cast<double>(trace.jobs.size()));
  m.add_workload("trace_seed", static_cast<double>(trace.seed));
  m.add_workload("chaos_seed", static_cast<double>(cfg.chaos.seed));
  m.add_workload("chip_kill_rate", cfg.chaos.chip_kill_rate);
  m.add_workload("dma_corrupt_rate", cfg.chaos.dma_corrupt_rate);
  m.add_workload("dma_drop_rate", cfg.chaos.dma_drop_rate);
  m.add_workload("membits_rate", cfg.chaos.membits_rate);
  m.add_workload("noc_stall_rate", cfg.chaos.noc_stall_rate);
  m.add_workload("max_attempts", cfg.policy.max_attempts);
  m.add_workload("max_degrade", cfg.policy.max_degrade);
  m.add_workload("dispatch_edf",
                 cfg.policy.dispatch == DispatchOrder::kEdf ? 1.0 : 0.0);
  m.add_workload("shed_enabled", cfg.policy.shed.enabled ? 1.0 : 0.0);
  std::uint64_t n_low = 0;
  std::uint64_t n_normal = 0;
  std::uint64_t n_high = 0;
  for (const JobSpec& j : trace.jobs) {
    if (j.priority == Priority::kLow) n_low++;
    else if (j.priority == Priority::kHigh) n_high++;
    else n_normal++;
  }
  m.add_workload("n_priority_low", static_cast<double>(n_low));
  m.add_workload("n_priority_normal", static_cast<double>(n_normal));
  m.add_workload("n_priority_high", static_cast<double>(n_high));

  const ServeCounters& c = rep.counters;
  m.add_result("jobs_total", static_cast<double>(c.jobs_total));
  m.add_result("jobs_met", static_cast<double>(c.jobs_met));
  m.add_result("jobs_late", static_cast<double>(c.jobs_late));
  m.add_result("jobs_degraded", static_cast<double>(c.jobs_degraded));
  m.add_result("jobs_lost", static_cast<double>(c.jobs_lost));
  m.add_result("attempts", static_cast<double>(c.attempts));
  m.add_result("retries", static_cast<double>(c.retries));
  m.add_result("migrations", static_cast<double>(c.migrations));
  m.add_result("degradations", static_cast<double>(c.degradations));
  m.add_result("chip_kills", static_cast<double>(c.chip_kills));
  m.add_result("timeouts", static_cast<double>(c.timeouts));
  m.add_result("checksum_failures",
               static_cast<double>(c.checksum_failures));
  m.add_result("faults_injected", static_cast<double>(c.faults_injected));
  m.add_result("faults_detected", static_cast<double>(c.faults_detected));
  m.add_result("faults_recovered",
               static_cast<double>(c.faults_recovered));
  m.add_result("jobs_shed", static_cast<double>(c.jobs_shed));
  m.add_result("shed_model_max_rel_err", rep.shed_model_max_rel_err);
  m.add_result("latency_p50_s", rep.latency_p50_s);
  m.add_result("latency_p95_s", rep.latency_p95_s);
  m.add_result("latency_p99_s", rep.latency_p99_s);
  m.add_result("latency_mean_s", rep.latency_mean_s);
  m.add_result("latency_max_s", rep.latency_max_s);
  m.add_result("slo_attainment", rep.slo_attainment);
  m.add_result("throughput_jobs_per_s", rep.throughput_jobs_per_s);
  m.add_result("energy_total_j", rep.energy_total_j);
  m.add_result("energy_per_image_j", rep.energy_per_image_j);
  m.add_result("makespan_s", rep.makespan_s);
  // The 64-bit campaign hash split into two exactly-representable
  // doubles, same idiom as the chaos bench manifests.
  m.add_result("schedule_hash_hi",
               static_cast<double>(rep.schedule_hash >> 32));
  m.add_result("schedule_hash_lo",
               static_cast<double>(rep.schedule_hash & 0xffffffffULL));
  std::uint64_t chips_failed = 0;
  for (const ChipStatus& cs : rep.chips) {
    if (cs.failed_at_s >= 0.0) chips_failed++;
  }
  m.add_result("chips_failed", static_cast<double>(chips_failed));
}

void fill_serve_metrics(telemetry::MetricsRegistry& reg,
                        const ServeReport& rep) {
  const ServeCounters& c = rep.counters;
  reg.counter("serve.jobs_total").add(c.jobs_total);
  reg.counter("serve.jobs_met").add(c.jobs_met);
  reg.counter("serve.jobs_late").add(c.jobs_late);
  reg.counter("serve.jobs_degraded").add(c.jobs_degraded);
  reg.counter("serve.jobs_shed").add(c.jobs_shed);
  reg.counter("serve.attempts").add(c.attempts);
  reg.counter("serve.retries").add(c.retries);
  reg.counter("serve.migrations").add(c.migrations);
  reg.counter("serve.degradations").add(c.degradations);
  reg.counter("serve.chip_kills").add(c.chip_kills);
  reg.counter("serve.timeouts").add(c.timeouts);
  reg.counter("serve.checksum_failures").add(c.checksum_failures);
  reg.gauge("serve.slo_attainment").set(rep.slo_attainment);
  reg.gauge("serve.latency_p99_s").set(rep.latency_p99_s);
  reg.gauge("serve.throughput_jobs_per_s").set(rep.throughput_jobs_per_s);
  for (std::size_t i = 0; i < rep.chips.size(); ++i) {
    const ChipStatus& cs = rep.chips[i];
    const auto lbl = [&](const char* name) {
      return telemetry::labeled(name, {{"chip", std::to_string(i)}});
    };
    reg.counter(lbl("serve.chip.attempts")).add(cs.attempts);
    reg.counter(lbl("serve.chip.jobs_completed")).add(cs.jobs_completed);
    reg.gauge(lbl("serve.chip.busy_s")).set(cs.busy_s);
    reg.gauge(lbl("serve.chip.failed_at_s")).set(cs.failed_at_s);
  }
}

} // namespace esarp::serve
