#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <iostream>
#include <limits>
#include <optional>

#include "autofocus/criterion.hpp"
#include "autofocus/workload.hpp"
#include "common/array2d.hpp"
#include "common/rng.hpp"
#include "core/autofocus_epiphany.hpp"
#include "core/ffbp_epiphany.hpp"
#include "core/gbp_epiphany.hpp"
#include "fault/plan.hpp"
#include "sar/ffbp.hpp"
#include "sar/gbp.hpp"
#include "sar/kernels.hpp"
#include "sar/params.hpp"
#include "sar/scene.hpp"
#include "serve/fleet.hpp"
#include "serve/trace.hpp"

namespace esarp::benchmark {

void SimTally::add_chip_item(const ep::PerfReport& perf,
                             const ep::EnergyReport& e) {
  ++items;
  ++delivered;
  // slo_attainment only moves on serve_overload. The result line must still
  // carry it on every workload, and no end-to-end metric may read 0, so a
  // closed-loop item, which has no deadline to miss, counts as met.
  ++slo_met;
  latency_mcycles.push_back(static_cast<double>(perf.makespan) * 1e-6);
  energy_j += e.total_j();
  ++chip_runs;
  events += static_cast<double>(perf.engine_events);
  quanta += static_cast<double>(perf.engine_quanta);
  double active = 0.0;
  double sums[5] = {};
  for (const auto& c : perf.per_core) {
    if (c.finish_time == 0 && c.busy == 0) continue; // never launched
    active += 1.0;
    sums[0] += static_cast<double>(c.busy);
    sums[1] += static_cast<double>(c.ext_stall);
    sums[2] += static_cast<double>(c.dma_wait);
    sums[3] += static_cast<double>(c.chan_wait);
    sums[4] += static_cast<double>(c.barrier_wait);
  }
  if (active > 0.0) {
    compute += sums[0] / active;
    ext_stall += sums[1] / active;
    dma_wait += sums[2] / active;
    chan_wait += sums[3] / active;
    barrier_wait += sums[4] / active;
  }
  utilization += perf.utilization();
  ext_read_bytes += static_cast<double>(perf.ext.read_bytes);
  ext_write_bytes += static_cast<double>(perf.ext.write_bytes);
  byte_hops += static_cast<double>(perf.noc_total.byte_hops);
  e_core_active += e.core_active_j;
  e_core_idle += e.core_idle_j;
  e_alu += e.alu_j;
  e_noc += e.noc_j;
  e_elink += e.elink_j;
  e_static += e.static_j;
}

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// Independent stream for call `i` of a run seeded with `seed`.
std::uint64_t call_seed(std::uint64_t seed, std::uint64_t i) {
  return SplitMix64(seed ^ (0x9e3779b97f4a7c15ULL * (i + 1))).next();
}

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t k = 0; k < n; ++k) {
    h ^= p[k];
    h *= 0x100000001b3ULL;
  }
}

template <typename T>
void fnv_value(std::uint64_t& h, const T& v) {
  fnv_bytes(h, &v, sizeof v);
}

std::uint64_t digest_of(const Array2D<cf32>& a) {
  std::uint64_t h = kFnvOffset;
  fnv_bytes(h, a.data(), a.size() * sizeof(cf32));
  return h;
}

/// ||a - ref|| / ||ref|| over the whole image; infinite on a shape mismatch.
double rel_l2(const Array2D<cf32>& a, const Array2D<cf32>& ref) {
  if (a.rows() != ref.rows() || a.cols() != ref.cols())
    return std::numeric_limits<double>::infinity();
  double num = 0.0;
  double den = 0.0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    const std::complex<double> x = a.data()[k];
    const std::complex<double> r = ref.data()[k];
    num += std::norm(x - r);
    den += std::norm(r);
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

/// Six point targets placed from `rng` inside the aperture and swath of
/// `p`, away from the edges so every migration curve stays in the data.
sar::Scene seeded_scene(const sar::RadarParams& p, Rng& rng) {
  const double x_span =
      static_cast<double>(p.n_pulses - 1) * p.pulse_spacing_m;
  const double y_span = p.far_range_m() - p.near_range_m;
  sar::Scene s;
  for (int t = 0; t < 6; ++t)
    s.targets.push_back({rng.uniform(-0.35, 0.35) * x_span,
                         p.near_range_m + rng.uniform(0.15, 0.85) * y_span,
                         rng.uniform_f(0.8f, 1.0f)});
  return s;
}

/// ChipConfig with the power sampler on, as the Table I benches run it.
ep::ChipConfig sampled_chip() {
  ep::ChipConfig cfg;
  cfg.power.enabled = true;
  return cfg;
}

// ---------------------------------------------------------------------------

/// The paper's headline run: 16-core SPMD FFBP at 1024 x 1001 on one
/// seeded scene shared by every call.
class FfbpPaper final : public Workload {
public:
  explicit FfbpPaper(std::uint64_t seed) : seed_(seed) {}

  const char* layer() const override { return "core.run_ffbp_epiphany"; }
  std::size_t items_per_call() const override { return 1; }
  KernelShape kernel_shape() const override { return {p_, p_.n_range}; }

  void setup(Spans& spans) override {
    Rng rng(seed_);
    const sar::Scene scene = seeded_scene(p_, rng);
    auto s = spans.scope("sar.simulate_compressed", "setup");
    data_ = sar::simulate_compressed(p_, scene);
    digest_ = digest_of(data_);
  }

  void prepare_checks(Spans& spans) override {
    checksum_ = digest_of(result_.image);
    auto s = spans.scope("sar.ffbp", "reference");
    reference_ = sar::ffbp(data_, p_).image.data;
  }

  void make_input(std::size_t /*i*/, Spans& /*spans*/) override {}
  std::uint64_t input_digest() const override { return digest_; }

  void call() override {
    core::FfbpMapOptions opt;
    opt.n_cores = 16;
    result_ = core::run_ffbp_epiphany(data_, p_, opt, sampled_chip());
  }

  std::size_t check(std::size_t /*i*/, SimTally* tally,
                    Spans& /*spans*/) override {
    const double err = rel_l2(result_.image, reference_);
    worst_ = std::max(worst_, err);
    const bool ok = err <= 1e-5 && digest_of(result_.image) == checksum_;
    if (tally != nullptr) {
      tally->add_chip_item(result_.perf, result_.energy);
      for (const auto& lv : result_.prefetch_stats) {
        tally->prefetch_hits += static_cast<double>(lv.local_hits);
        tally->prefetch_lookups +=
            static_cast<double>(lv.local_hits + lv.ext_misses);
      }
    }
    return ok ? 0 : 1;
  }

  double worst_check_error() const override { return worst_; }

private:
  std::uint64_t seed_;
  sar::RadarParams p_ = sar::paper_params();
  Array2D<cf32> data_;
  std::uint64_t digest_ = 0;
  core::FfbpSimResult result_;
  Array2D<cf32> reference_;
  std::uint64_t checksum_ = 0;
  double worst_ = 0.0;
};

// ---------------------------------------------------------------------------

/// GBP on 16 cores over a fresh seeded six-target scene per call, with
/// the aperture cycling through 32, 64 and 128 pulses (sar::gbp, the
/// check's reference, takes power-of-two apertures only).
class GbpScenes final : public Workload {
public:
  explicit GbpScenes(std::uint64_t seed) : seed_(seed) {}

  const char* layer() const override { return "core.run_gbp_epiphany"; }
  std::size_t items_per_call() const override { return 1; }
  std::size_t warmup_calls() const override { return 3; }
  KernelShape kernel_shape() const override {
    return {sar::test_params(128, kRange), kRange};
  }

  void setup(Spans& /*spans*/) override {}

  void make_input(std::size_t i, Spans& spans) override {
    static constexpr std::size_t kPulses[] = {32, 64, 128};
    p_ = sar::test_params(kPulses[i % 3], kRange);
    Rng rng(call_seed(seed_, i));
    const sar::Scene scene = seeded_scene(p_, rng);
    auto s = spans.scope("sar.simulate_compressed", std::to_string(i));
    data_ = sar::simulate_compressed(p_, scene);
  }

  std::uint64_t input_digest() const override { return digest_of(data_); }

  void call() override { result_ = core::run_gbp_epiphany(data_, p_, 16); }

  std::size_t check(std::size_t i, SimTally* tally, Spans& spans) override {
    bool ok = result_.image.rows() == p_.n_pulses &&
              result_.image.cols() == p_.n_range;
    if (i % 8 == seed_ % 8) {
      auto s = spans.scope("sar.gbp", std::to_string(i));
      const double err = rel_l2(result_.image, sar::gbp(data_, p_).image.data);
      worst_ = std::max(worst_, err);
      ok = ok && err <= 1e-4;
    }
    if (tally != nullptr) tally->add_chip_item(result_.perf, result_.energy);
    return ok ? 0 : 1;
  }

  double worst_check_error() const override { return worst_; }

private:
  static constexpr std::size_t kRange = 161;
  std::uint64_t seed_;
  sar::RadarParams p_;
  Array2D<cf32> data_;
  core::GbpSimResult result_;
  double worst_ = 0.0;
};

// ---------------------------------------------------------------------------

/// The 13-core MPMD autofocus pipeline over a fresh batch of seeded block
/// pairs per call.
class AutofocusMpmd final : public Workload {
public:
  explicit AutofocusMpmd(std::uint64_t seed) : seed_(seed) {}

  const char* layer() const override { return "core.run_autofocus_mpmd"; }
  std::size_t items_per_call() const override { return 1; }
  KernelShape kernel_shape() const override {
    return {sar::test_params(64, 101), p_.samples_per_row};
  }
  double contention_exponent() const override { return 1.0; }

  void setup(Spans& /*spans*/) override {}

  void make_input(std::size_t i, Spans& spans) override {
    auto s = spans.scope("af.synthetic_block_pair", std::to_string(i));
    Rng rng(call_seed(seed_, i));
    pairs_.clear();
    for (std::size_t k = 0; k < kPairs; ++k)
      pairs_.push_back(
          af::synthetic_block_pair(rng, p_, rng.uniform_f(-0.6f, 0.6f)));
  }

  std::uint64_t input_digest() const override {
    std::uint64_t h = kFnvOffset;
    for (const auto& bp : pairs_) {
      fnv_bytes(h, bp.minus.data(), bp.minus.size() * sizeof(cf32));
      fnv_bytes(h, bp.plus.data(), bp.plus.size() * sizeof(cf32));
    }
    return h;
  }

  void call() override {
    result_ = core::run_autofocus_mpmd(pairs_, p_, {}, sampled_chip());
  }

  std::size_t check(std::size_t /*i*/, SimTally* tally,
                    Spans& /*spans*/) override {
    bool ok = result_.criteria.size() == pairs_.size();
    for (std::size_t k = 0; ok && k < pairs_.size(); ++k) {
      const af::CriterionResult ref =
          af::criterion_sweep(pairs_[k].minus, pairs_[k].plus, p_);
      const auto& got = result_.criteria[k];
      ok = got.size() == ref.criteria.size() &&
           static_cast<std::size_t>(
               std::max_element(got.begin(), got.end()) - got.begin()) ==
               ref.best_index;
      for (std::size_t s = 0; ok && s < got.size(); ++s) {
        const double err = std::abs(got[s] - ref.criteria[s]) /
                           std::max(std::abs(ref.criteria[s]), 1e-300);
        worst_ = std::max(worst_, err);
        ok = err <= 1e-6;
      }
    }
    if (tally != nullptr) tally->add_chip_item(result_.perf, result_.energy);
    return ok ? 0 : 1;
  }

  double worst_check_error() const override { return worst_; }

private:
  static constexpr std::size_t kPairs = 64;
  std::uint64_t seed_;
  af::AfParams p_;
  std::vector<af::BlockPair> pairs_;
  core::AfSimResult result_;
  double worst_ = 0.0;
};

// ---------------------------------------------------------------------------

/// One overloaded chaos campaign per call on an 8-chip fleet: EDF
/// dispatch with shedding, every attempt simulated under a fault plan.
class ServeOverload final : public Workload {
public:
  explicit ServeOverload(std::uint64_t seed) : seed_(seed) {}

  const char* layer() const override { return "serve.Fleet.run"; }
  std::size_t items_per_call() const override { return kJobs; }
  KernelShape kernel_shape() const override {
    return {sar::test_params(64, 101), 101};
  }

  void setup(Spans& spans) override {
    // Calibrate fleet capacity from one clean job, as bench/overload_serve
    // does, so the offered load stays a fixed multiple of capacity.
    auto s = spans.scope("serve.calibrate", "setup");
    serve::FleetConfig one_chip;
    one_chip.n_chips = 1;
    serve::TraceParams one = trace_params(0);
    one.n_jobs = 1;
    one.rate_hz = 1.0;
    service_s_ =
        serve::Fleet(one_chip).run(serve::make_trace(one)).latency_p50_s;
  }

  void make_input(std::size_t i, Spans& /*spans*/) override {
    const std::uint64_t s = call_seed(seed_, i);
    serve::TraceParams tp = trace_params(s);
    tp.rate_hz = 2.0 * static_cast<double>(kChips) / service_s_;
    tp.deadline_s = 3.0 * service_s_;
    trace_ = serve::make_trace(tp);
    serve::FleetConfig cfg;
    cfg.n_chips = kChips;
    cfg.host_jobs = 1;
    cfg.policy.dispatch = serve::DispatchOrder::kEdf;
    cfg.policy.shed.enabled = true;
    cfg.chaos.seed = s ^ 0x5eed;
    cfg.chaos.chip_kill_rate = 0.01;
    cfg.chaos.dma_corrupt_rate = 1e-5;
    clock_hz_ = cfg.chip.clock_hz;
    fleet_.emplace(cfg);
  }

  std::uint64_t input_digest() const override {
    std::uint64_t h = kFnvOffset;
    for (const auto& j : trace_.jobs) {
      fnv_value(h, j.arrival_s);
      fnv_value(h, j.deadline_s);
      fnv_value(h, j.priority);
    }
    return h;
  }

  void call() override {
    try {
      report_ = fleet_->run(trace_);
      aborted_ = false;
    } catch (const fault::FaultUnrecovered& e) {
      aborted_ = true;
      abort_reason_ = e.what();
    }
  }

  std::size_t check(std::size_t i, SimTally* tally,
                    Spans& /*spans*/) override {
    if (tally != nullptr) {
      tally->items += kJobs;
      tally->jobs += kJobs;
    }
    if (aborted_) {
      std::cerr << "serve_overload: call " << i
                << ": campaign aborted: " << abort_reason_ << "\n";
      return kJobs;
    }
    const auto& c = report_.counters;
    if (c.jobs_lost != 0 || c.jobs_total != kJobs ||
        c.jobs_met + c.jobs_late + c.jobs_degraded + c.jobs_shed !=
            c.jobs_total) {
      std::cerr << "serve_overload: call " << i
                << ": terminal states do not tile the trace\n";
      return kJobs;
    }

    std::size_t failed = 0;
    for (const auto& j : report_.jobs) {
      if (j.state == serve::JobState::kShed) continue;
      // Latency splits exactly into queue wait, the winning attempt's
      // service and the retry time around it.
      const double queue = j.start_s - j.spec.arrival_s;
      const double service = static_cast<double>(j.sim_cycles) / clock_hz_;
      // Rounding leaves ~1e-16 s where there was no retry; snap it to 0.
      double retry = j.finish_s - j.start_s - service;
      if (std::abs(retry) < 1e-12) retry = 0.0;
      const double sum = queue + service + retry;
      const bool ok = queue >= 0.0 && retry >= 0.0 &&
                      std::abs(sum - j.latency_s) <= 1e-12 + 1e-9 * j.latency_s;
      if (!ok) {
        ++failed;
        std::cerr << "serve_overload: call " << i << ": job " << j.spec.id
                  << ": latency " << j.latency_s << " s does not split into "
                  << queue << " + " << service << " + " << retry << "\n";
      }
      if (tally != nullptr) {
        tally->delivered += 1;
        const double mcycles_per_s = clock_hz_ * 1e-6;
        tally->latency_mcycles.push_back(j.latency_s * mcycles_per_s);
        tally->queue_wait_mcycles.push_back(queue * mcycles_per_s);
        tally->service_mcycles.push_back(service * mcycles_per_s);
        tally->retry_mcycles.push_back(retry * mcycles_per_s);
        if (j.state == serve::JobState::kMet) tally->slo_met += 1;
      }
    }
    if (tally != nullptr) {
      tally->energy_j += report_.energy_total_j;
      tally->attempts += static_cast<double>(c.attempts);
      tally->migrations += static_cast<double>(c.migrations);
      tally->shed += static_cast<double>(c.jobs_shed);
      tally->faults_injected += static_cast<double>(c.faults_injected);
      tally->faults_detected += static_cast<double>(c.faults_detected);
      for (const auto& chip : report_.chips) tally->chip_busy_s += chip.busy_s;
      tally->chip_capacity_s +=
          static_cast<double>(report_.chips.size()) * report_.makespan_s;
      tally->model_rel_err =
          std::max(tally->model_rel_err, report_.shed_model_max_rel_err);
    }
    return failed;
  }

private:
  static constexpr std::size_t kJobs = 32;
  static constexpr int kChips = 8;

  static serve::TraceParams trace_params(std::uint64_t seed) {
    serve::TraceParams tp;
    tp.n_jobs = kJobs;
    tp.seed = seed;
    tp.n_pulses = 64;
    tp.n_range = 101;
    tp.n_cores = 16;
    tp.frac_low = 0.3;
    tp.frac_high = 0.2;
    tp.deadline_jitter = 0.5;
    return tp;
  }

  std::uint64_t seed_;
  double service_s_ = 0.0;
  double clock_hz_ = 1e9;
  serve::ArrivalTrace trace_;
  std::optional<serve::Fleet> fleet_;
  serve::ServeReport report_;
  bool aborted_ = false;
  std::string abort_reason_;
};

} // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "ffbp_paper", "gbp_scenes", "autofocus_mpmd", "serve_overload"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed) {
  if (name == "ffbp_paper") return std::make_unique<FfbpPaper>(seed);
  if (name == "gbp_scenes") return std::make_unique<GbpScenes>(seed);
  if (name == "autofocus_mpmd") return std::make_unique<AutofocusMpmd>(seed);
  if (name == "serve_overload") return std::make_unique<ServeOverload>(seed);
  return nullptr;
}

// ---------------------------------------------------------------------------

std::vector<KernelTiming> time_kernels(const KernelShape& shape,
                                       std::uint64_t seed) {
  namespace kn = sar::kernels;
  const sar::RadarParams& p = shape.params;
  const std::size_t n = shape.row_len;
  Rng rng(seed);
  const auto cpx = [&rng] {
    return cf32{rng.uniform_f(-1.0f, 1.0f), rng.uniform_f(-1.0f, 1.0f)};
  };
  cf32 y[4];
  for (auto& v : y) v = cpx();
  std::vector<float> t(n);
  for (auto& v : t) v = rng.uniform_f(0.2f, 2.8f);
  std::vector<cf32> row0(n), row1(n), row2(n), row3(n), out(n);
  for (auto* r : {&row0, &row1, &row2, &row3})
    for (auto& v : *r) v = cpx();
  std::vector<float> terms(n);
  std::vector<sar::MergeGeom> geom(n);

  // GBP: pixels of one output row anywhere in the aperture and swath, one
  // pulse row of the scene's range length.
  const double x_half = 0.5 * static_cast<double>(p.n_pulses) *
                        p.pulse_spacing_m;
  std::vector<float> px(n), py(n);
  for (std::size_t k = 0; k < n; ++k) {
    px[k] = static_cast<float>(rng.uniform(-x_half, x_half));
    py[k] = static_cast<float>(rng.uniform(p.near_range_m, p.far_range_m()));
  }
  std::vector<cf32> pulse_row(p.n_range);
  for (auto& v : pulse_row) v = cpx();
  const sar::GbpGrid grid{static_cast<float>(p.near_range_m),
                          static_cast<float>(1.0 / p.range_bin_m),
                          static_cast<int>(p.n_range),
                          4.0 * kPi / p.wavelength_m()};
  // Merge geometry of a mid-level merge (child half-spacing 8 pulses).
  const float d = 8.0f * static_cast<float>(p.pulse_spacing_m);
  const float cr = 2.0f * d * std::cos(static_cast<float>(p.theta_center_rad));

  using clock = std::chrono::steady_clock;
  std::vector<KernelTiming> timings;
  const auto time_one = [&](const char* name, const auto& run) {
    // Size one repetition to ~4 ms, then take the median of seven.
    std::size_t iters = 1;
    for (;;) {
      const auto t0 = clock::now();
      for (std::size_t k = 0; k < iters; ++k) run();
      if (clock::now() - t0 >= std::chrono::milliseconds(4)) break;
      iters *= 2;
    }
    std::vector<double> ns;
    for (int rep = 0; rep < 7; ++rep) {
      const auto t0 = clock::now();
      for (std::size_t k = 0; k < iters; ++k) run();
      const std::chrono::duration<double, std::nano> dt = clock::now() - t0;
      ns.push_back(dt.count() / static_cast<double>(iters * n));
    }
    std::nth_element(ns.begin(), ns.begin() + 3, ns.end());
    timings.push_back({name, ns[3]});
  };

  time_one("merge_geometry_row", [&] {
    kn::merge_geometry_row(static_cast<float>(p.near_range_m),
                           static_cast<float>(p.range_bin_m), 0, n, cr, d * d,
                           1.0f / (2.0f * d), geom.data());
  });
  time_one("gbp_contrib_row", [&] {
    kn::gbp_contrib_row(px.data(), py.data(), 0.0f, pulse_row.data(), grid,
                        out.data(), n);
  });
  time_one("neville4_rows", [&] {
    kn::neville4_rows(row0.data(), row1.data(), row2.data(), row3.data(),
                      t.data(), out.data(), n);
  });
  time_one("neville4_many",
           [&] { kn::neville4_many(y, t.data(), out.data(), n); });
  time_one("criterion_terms", [&] {
    kn::criterion_terms(row0.data(), row1.data(), terms.data(), n);
  });
  return timings;
}

} // namespace esarp::benchmark
