// Native micro-benchmarks (google-benchmark) of the inner kernels: the
// cosine-theorem index calculation (paper eqs. 1-4), child sampling with
// each interpolation kernel, Neville interpolation, the criterion term,
// the fastmath primitives vs libm, and the FFT plan.
//
// On top of the classic rows, every entry point of the unified kernel API
// (sar/kernels.hpp) gets one benchmark row per available backend
// (scalar / avx2 / avx512) so a kernel-level regression is attributable
// to the exact kernel x backend pair that caused it. A run manifest
// (micro_kernels.manifest.json) records the deterministic evidence as
// results — scalar output checksums and the `simd_matches.*` /
// `simd_bitexact` flags asserting every available SIMD backend is
// bit-identical to the scalar reference — and the machine-varying timings
// (`kernel.<k>.<backend>.ns_per_sample`, `.speedup`) as informational
// metrics gauges, mirroring the engine.* convention (docs/performance.md).
#include <benchmark/benchmark.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "autofocus/criterion.hpp"
#include "autofocus/workload.hpp"
#include "bench_util.hpp"
#include "common/fastmath.hpp"
#include "common/rng.hpp"
#include "fft/fft.hpp"
#include "sar/carrier.hpp"
#include "sar/ffbp.hpp"
#include "sar/interp.hpp"
#include "sar/kernels.hpp"
#include "sar/merge_kernel.hpp"

namespace {

using namespace esarp;

void BM_MergeGeometry(benchmark::State& state) {
  float r = 4500.0f;
  const float cr = 2.0f * 8.0f * 0.1f;
  for (auto _ : state) {
    const sar::MergeGeom g = sar::merge_geometry(r, cr, 64.0f, 1.0f / 16.0f);
    benchmark::DoNotOptimize(g);
    r += 0.5f;
    if (r > 5000.0f) r = 4500.0f;
  }
}
BENCHMARK(BM_MergeGeometry);

void BM_SampleChild(benchmark::State& state) {
  const auto interp = static_cast<sar::Interp>(state.range(0));
  Array2D<cf32> child(32, 256);
  Rng rng(1);
  for (auto& px : child.flat())
    px = {rng.uniform_f(-1, 1), rng.uniform_f(-1, 1)};
  const auto p = sar::test_params(64, 256);
  const sar::ChildGrid grid = sar::make_child_grid(p, 32);
  const auto view = child.view();
  const auto fetch = [&](int it, int ir) -> cf32 {
    return view(static_cast<std::size_t>(it), static_cast<std::size_t>(ir));
  };
  float rr = grid.r0 + 10.0f;
  for (auto _ : state) {
    const cf32 v = sar::sample_child(grid, rr, 1.5707f, interp, false, fetch);
    benchmark::DoNotOptimize(v);
    rr += 0.37f;
    if (rr > grid.r0 + 100.0f) rr = grid.r0 + 10.0f;
  }
}
BENCHMARK(BM_SampleChild)
    ->Arg(static_cast<int>(sar::Interp::kNearest))
    ->Arg(static_cast<int>(sar::Interp::kLinear))
    ->Arg(static_cast<int>(sar::Interp::kCubic));

void BM_Neville4(benchmark::State& state) {
  cf32 y[4] = {{1, 2}, {3, -1}, {-2, 0.5f}, {0.25f, 1}};
  float t = 1.0f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sar::neville4(y, t));
    t += 0.01f;
    if (t > 2.0f) t = 1.0f;
  }
}
BENCHMARK(BM_Neville4);

void BM_CriterionSweep(benchmark::State& state) {
  af::AfParams p;
  Rng rng(3);
  const af::BlockPair bp = af::synthetic_block_pair(rng, p, 0.2f);
  for (auto _ : state) {
    const auto res = af::criterion_sweep(bp.minus, bp.plus, p);
    benchmark::DoNotOptimize(res.criteria.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(p.pixels()));
}
BENCHMARK(BM_CriterionSweep);

void BM_FastSqrt(benchmark::State& state) {
  float x = 1.0f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fastmath::fast_sqrt(x));
    x += 1.37f;
    if (x > 1e6f) x = 1.0f;
  }
}
BENCHMARK(BM_FastSqrt);

void BM_StdSqrt(benchmark::State& state) {
  float x = 1.0f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(std::sqrt(x));
    x += 1.37f;
    if (x > 1e6f) x = 1.0f;
  }
}
BENCHMARK(BM_StdSqrt);

void BM_PolyAcos(benchmark::State& state) {
  float x = -0.99f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fastmath::poly_acos(x));
    x += 0.013f;
    if (x > 0.99f) x = -0.99f;
  }
}
BENCHMARK(BM_PolyAcos);

void BM_StdAcos(benchmark::State& state) {
  float x = -0.99f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(std::acos(x));
    x += 0.013f;
    if (x > 0.99f) x = -0.99f;
  }
}
BENCHMARK(BM_StdAcos);

void BM_Fft(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  fft::Fft plan(n);
  Rng rng(5);
  std::vector<cf32> sig(n);
  for (auto& s : sig) s = {rng.uniform_f(-1, 1), rng.uniform_f(-1, 1)};
  for (auto _ : state) {
    plan.forward(sig);
    benchmark::DoNotOptimize(sig.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Fft)->Arg(256)->Arg(1024)->Arg(4096);

void BM_MergePairLevel1(benchmark::State& state) {
  const auto p = sar::test_params(16, 256);
  Array2D<cf32> data(16, 256);
  Rng rng(9);
  for (auto& px : data.flat())
    px = {rng.uniform_f(-1, 1), rng.uniform_f(-1, 1)};
  const auto subs = sar::initial_subapertures(data, p);
  sar::FfbpOptions opt;
  for (auto _ : state) {
    const auto parent = sar::merge_pair(subs[0], subs[1], p, opt);
    benchmark::DoNotOptimize(parent.data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2 * 256);
}
BENCHMARK(BM_MergePairLevel1);

// ---- unified kernel API: scalar-vs-SIMD rows (sar/kernels.hpp) ----------

namespace kn = sar::kernels;

/// Samples per kernel call: long enough that the vector main loop, not the
/// scalar head/tail, dominates.
constexpr std::size_t kKernelSamples = 1024;

/// Deterministic (seeded) inputs shared by every kernel row, so checksums
/// and bit-match verdicts are reproducible across runs and machines.
struct KernelInputs {
  // merge_geometry_row: the BM_MergeGeometry geometry swept over a row.
  float r0 = 4500.0f;
  float dr = 0.3f;
  float cr = 2.0f * 8.0f * 0.1f;
  float d2 = 64.0f;
  float inv_2d = 1.0f / 16.0f;
  // neville4_many / neville4_rows.
  cf32 y[4] = {};
  std::vector<float> t;
  std::vector<cf32> row0, row1, row2, row3;
  // criterion_terms.
  std::vector<cf32> minus, plus;
  // gbp_contrib_row: ranges chosen so both in-swath and out-of-swath lanes
  // are exercised (the blend path must match the scalar early-out).
  std::vector<float> px, py;
  std::vector<cf32> pulse_row;
  float pulse_x = 3.0f;
  sar::GbpGrid grid{4000.0f, 2.0f, 256, 4.0 * kPi / 0.03};
  // merge_sample_row: a 16-row child grid, two child images plus a staged
  // row for each whose values differ from the image row it stands for, so
  // a wrong hit/miss decision changes the output. The geometry mixes
  // staged-row hits, misses, out-of-sector and out-of-swath lanes.
  sar::ChildGrid child = sar::make_child_grid(sar::test_params(64, 256), 16);
  std::vector<sar::MergeGeom> merge_geom;
  std::vector<cf32> image1, image2, staged1, staged2;
  int staged_row1 = 7;
  int staged_row2 = 8;
  float shift1 = -0.15f;
  float shift2 = 0.15f;
};

const KernelInputs& kernel_inputs() {
  static const KernelInputs inputs = [] {
    KernelInputs in;
    Rng rng(11);
    auto cpx = [&rng] {
      return cf32{rng.uniform_f(-1.0f, 1.0f), rng.uniform_f(-1.0f, 1.0f)};
    };
    for (auto& v : in.y) v = cpx();
    in.t.resize(kKernelSamples);
    for (auto& v : in.t) v = rng.uniform_f(0.2f, 2.8f);
    for (auto* rows : {&in.row0, &in.row1, &in.row2, &in.row3, &in.minus,
                       &in.plus}) {
      rows->resize(kKernelSamples);
      for (auto& v : *rows) v = cpx();
    }
    in.pulse_row.resize(static_cast<std::size_t>(in.grid.n_range));
    for (auto& v : in.pulse_row) v = cpx();
    in.px.resize(kKernelSamples);
    in.py.resize(kKernelSamples);
    for (std::size_t i = 0; i < kKernelSamples; ++i) {
      in.px[i] = in.pulse_x + rng.uniform_f(-40.0f, 40.0f);
      in.py[i] = 3999.0f + rng.uniform_f(0.0f, 131.0f);
    }
    const sar::ChildGrid& g = in.child;
    const auto child_pixels = static_cast<std::size_t>(g.n_theta) *
                              static_cast<std::size_t>(g.n_range);
    for (auto* img : {&in.image1, &in.image2}) {
      img->resize(child_pixels);
      for (auto& v : *img) v = cpx();
    }
    for (auto* row : {&in.staged1, &in.staged2}) {
      row->resize(static_cast<std::size_t>(g.n_range));
      for (auto& v : *row) v = cpx();
    }
    // Angles: 70% inside the staged rows' bins, the rest anywhere from
    // 2 bins before the sector to 2 bins past it. Ranges: 4 bins past
    // either swath edge.
    const float dtheta = 1.0f / g.inv_dtheta;
    const auto theta_near = [&](int row) {
      return g.theta_start +
             (static_cast<float>(row) + rng.uniform_f(0.05f, 0.95f)) * dtheta;
    };
    const auto theta_any = [&] {
      return g.theta_start +
             rng.uniform_f(-2.0f, static_cast<float>(g.n_theta) + 2.0f) *
                 dtheta;
    };
    const auto range_any = [&] {
      return g.r0 +
             rng.uniform_f(-4.0f, static_cast<float>(g.n_range) + 4.0f) * g.dr;
    };
    in.merge_geom.resize(kKernelSamples);
    for (auto& m : in.merge_geom) {
      m.r1 = range_any();
      m.theta1 = rng.uniform_f(0.0f, 1.0f) < 0.7f ? theta_near(in.staged_row1)
                                                  : theta_any();
      m.r2 = range_any();
      m.theta2 = rng.uniform_f(0.0f, 1.0f) < 0.7f ? theta_near(in.staged_row2)
                                                  : theta_any();
    }
    return in;
  }();
  return inputs;
}

/// Reused output buffers (sized on first use) so the timed loops measure
/// the kernels, not the allocator.
struct KernelScratch {
  std::vector<sar::MergeGeom> geom;
  std::vector<cf32> c;
  std::vector<float> f;
};

struct ByteView {
  const std::uint8_t* data;
  std::size_t size;
};

template <typename T>
ByteView as_bytes(const std::vector<T>& v) {
  return {reinterpret_cast<const std::uint8_t*>(v.data()),
          v.size() * sizeof(T)};
}

ByteView run_merge_geometry_row(const KernelInputs& in, KernelScratch& s) {
  s.geom.resize(kKernelSamples);
  kn::merge_geometry_row(in.r0, in.dr, 0, kKernelSamples, in.cr, in.d2,
                         in.inv_2d, s.geom.data());
  return as_bytes(s.geom);
}

ByteView run_neville4_many(const KernelInputs& in, KernelScratch& s) {
  s.c.resize(kKernelSamples);
  kn::neville4_many(in.y, in.t.data(), s.c.data(), kKernelSamples);
  return as_bytes(s.c);
}

ByteView run_neville4_rows(const KernelInputs& in, KernelScratch& s) {
  s.c.resize(kKernelSamples);
  kn::neville4_rows(in.row0.data(), in.row1.data(), in.row2.data(),
                    in.row3.data(), in.t.data(), s.c.data(), kKernelSamples);
  return as_bytes(s.c);
}

ByteView run_criterion_terms(const KernelInputs& in, KernelScratch& s) {
  s.f.resize(kKernelSamples);
  kn::criterion_terms(in.minus.data(), in.plus.data(), s.f.data(),
                      kKernelSamples);
  return as_bytes(s.f);
}

ByteView run_gbp_contrib_row(const KernelInputs& in, KernelScratch& s) {
  s.c.assign(kKernelSamples, cf32{});
  kn::gbp_contrib_row(in.px.data(), in.py.data(), in.pulse_x,
                      in.pulse_row.data(), in.grid, s.c.data(),
                      kKernelSamples);
  return as_bytes(s.c);
}

/// The output row plus one trailing element holding the miss count, so
/// the checksum and the bit-match verdict cover both.
ByteView run_merge_sample_row(const KernelInputs& in, KernelScratch& s) {
  s.c.resize(kKernelSamples + 1);
  const sar::ChildSource c1{in.staged_row1, in.staged1.data(),
                            in.image1.data()};
  const sar::ChildSource c2{in.staged_row2, in.staged2.data(),
                            in.image2.data()};
  const std::uint64_t misses = kn::merge_sample_row(
      in.child, sar::Interp::kNearest, false, in.merge_geom.data(),
      in.shift1, in.shift2, c1, c2, s.c.data(), kKernelSamples);
  s.c[kKernelSamples] = {static_cast<float>(misses), 0.0f};
  return as_bytes(s.c);
}

struct KernelCase {
  const char* name;
  ByteView (*run)(const KernelInputs&, KernelScratch&);
};

const std::array<KernelCase, 6>& kernel_cases() {
  static const std::array<KernelCase, 6> cases = {{
      {"merge_geometry_row", run_merge_geometry_row},
      {"neville4_many", run_neville4_many},
      {"neville4_rows", run_neville4_rows},
      {"criterion_terms", run_criterion_terms},
      {"gbp_contrib_row", run_gbp_contrib_row},
      {"merge_sample_row", run_merge_sample_row},
  }};
  return cases;
}

/// Input lanes of gbp_contrib_row whose carrier phase would take libm
/// rather than carrier_rot's certified path (sar/carrier.hpp). Zero here
/// makes the gbp_contrib_row checksum independent of the libm build.
std::size_t gbp_carrier_fallbacks(const KernelInputs& in) {
  std::size_t fallbacks = 0;
  for (std::size_t i = 0; i < kKernelSamples; ++i) {
    const float dx = in.px[i] - in.pulse_x;
    const float range = std::sqrt(dx * dx + in.py[i] * in.py[i]);
    const double phase = in.grid.k_phase * static_cast<double>(range);
    cf32 rot;
    if (!sar::carrier_rot_certified(phase, rot)) ++fallbacks;
  }
  return fallbacks;
}

/// FNV-1a over the raw output bytes, folded to 32 bits so the value is
/// exactly representable in a manifest double.
double output_checksum(ByteView b) {
  std::uint32_t h = 2166136261u;
  for (std::size_t i = 0; i < b.size; ++i) {
    h ^= b.data[i];
    h *= 16777619u;
  }
  return static_cast<double>(h);
}

/// Best-of-5 self-timed ns/sample with the currently forced backend (the
/// google-benchmark rows give the full statistical treatment; this is the
/// single figure the manifest gauges carry).
double kernel_ns_per_sample(const KernelCase& kc, const KernelInputs& in,
                            KernelScratch& s) {
  const int iters = bench::fast_mode() ? 200 : 2000;
  double best_s = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    WallTimer timer;
    for (int i = 0; i < iters; ++i) kc.run(in, s);
    const double per_call = timer.elapsed_s() / static_cast<double>(iters);
    if (per_call < best_s) best_s = per_call;
  }
  return best_s * 1e9 / static_cast<double>(kKernelSamples);
}

constexpr kn::Backend kAllBackends[] = {
    kn::Backend::kScalar, kn::Backend::kAvx2, kn::Backend::kAvx512};

/// One google-benchmark row per kernel x available backend, named
/// `kernels/<kernel>/<backend>`, so regressions are attributable to the
/// exact pair. Registered at runtime because availability is a runtime
/// property of the host CPU.
void register_kernel_rows() {
  for (kn::Backend b : kAllBackends) {
    if (!kn::backend_available(b)) continue;
    for (const KernelCase& kc : kernel_cases()) {
      const std::string name =
          std::string("kernels/") + kc.name + "/" + kn::backend_name(b);
      benchmark::RegisterBenchmark(
          name.c_str(), [kcp = &kc, b](benchmark::State& state) {
            kn::force_backend(b);
            const KernelInputs& in = kernel_inputs();
            KernelScratch s;
            for (auto _ : state) {
              const ByteView out = kcp->run(in, s);
              benchmark::DoNotOptimize(out.data);
              benchmark::ClobberMemory();
            }
            state.SetItemsProcessed(
                static_cast<std::int64_t>(state.iterations()) *
                static_cast<std::int64_t>(kKernelSamples));
          });
    }
  }
}

/// Bit-exactness cross-check plus manifest: scalar is the reference; every
/// available SIMD backend must reproduce it byte-for-byte (the same
/// contract tests/test_kernels.cpp enforces, re-checked here on the bench
/// inputs and turned into gated manifest results). Every checksum is a
/// gated result: gbp_contrib_row's too, since none of its inputs takes
/// the libm carrier fallback. Both are claims: a mismatch or a fallback
/// lane fails the bench, and therefore CI.
int kernels_manifest_body() {
  const KernelInputs& in = kernel_inputs();
  const std::array<KernelCase, 6>& cases = kernel_cases();
  const kn::Backend session = kn::active();

  telemetry::MetricsRegistry reg;
  telemetry::RunManifest man("micro_kernels");
  man.add_workload("samples", static_cast<double>(kKernelSamples));
  man.add_workload("kernels", static_cast<double>(cases.size()));
  man.add_workload("fast_mode", bench::fast_mode() ? 1.0 : 0.0);
  man.set_metrics(&reg);
  bench::Report rep(man);
  auto& t = rep.sheet("Kernel API backends: scalar vs SIMD (" +
                          std::string(kn::backend_name(session)) + " active)",
                      {{"Kernel", "kernel"},
                       {"Backend", "backend"},
                       {"ns/sample", "ns_per_sample"},
                       {"Speedup", "speedup"},
                       {"Bit-exact", "bit_exact"}});

  KernelScratch s;
  double all_match = 1.0;
  for (const KernelCase& kc : cases) {
    kn::force_backend(kn::Backend::kScalar);
    const ByteView rv = kc.run(in, s);
    const std::vector<std::uint8_t> ref(rv.data, rv.data + rv.size);
    const double scalar_ns = kernel_ns_per_sample(kc, in, s);
    const std::string base = std::string("kernel.") + kc.name;
    man.add_result(std::string("checksum.") + kc.name,
                   output_checksum({ref.data(), ref.size()}));
    reg.gauge(base + ".scalar.ns_per_sample").set(scalar_ns);
    t.row({kc.name, "scalar", scalar_ns, 1.0, "reference"});

    double kernel_match = 1.0;
    for (const kn::Backend b : kAllBackends) {
      if (b == kn::Backend::kScalar || !kn::backend_available(b)) continue;
      kn::force_backend(b);
      const ByteView bv = kc.run(in, s);
      const bool match = bv.size == ref.size() &&
                         std::memcmp(bv.data, ref.data(), ref.size()) == 0;
      if (!match) kernel_match = 0.0;
      const double ns = kernel_ns_per_sample(kc, in, s);
      const double speedup = ns > 0.0 ? scalar_ns / ns : 0.0;
      const std::string bb = base + "." + kn::backend_name(b);
      reg.gauge(bb + ".match").set(match ? 1.0 : 0.0);
      reg.gauge(bb + ".ns_per_sample").set(ns);
      reg.gauge(bb + ".speedup").set(speedup);
      t.row({kc.name, kn::backend_name(b), ns, speedup, match ? "yes" : "NO"});
    }
    // 1 only when every available SIMD backend matched; vacuously 1 on a
    // machine with none, so the key exists — and is 1.0 — in every
    // baseline regardless of host CPU.
    man.add_result(std::string("simd_matches.") + kc.name, kernel_match);
    if (kernel_match == 0.0) all_match = 0.0;
  }
  man.add_result("simd_bitexact", all_match);
  reg.gauge("kernel.active_backend").set(static_cast<double>(session));
  kn::force_backend(session);

  t.note("scalar is the bit-exact reference (tests/test_kernels.cpp); "
         "ESARP_KERNELS=scalar pins it, any other value picks the best "
         "available backend (docs/performance.md)");
  rep.require("every available SIMD backend matches the scalar reference "
              "bit for bit",
              all_match == 1.0);
  rep.require("no gbp_contrib_row input lane takes the libm carrier "
              "fallback, so its pinned checksum is independent of the libm "
              "build",
              gbp_carrier_fallbacks(in) == 0);
  return rep.finish();
}

} // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // The rows force each backend in turn; the manifest records (as
  // kernel.active_backend) the one dispatch picked for this process.
  const kn::Backend session = kn::active();
  register_kernel_rows();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  kn::force_backend(session);
  // The manifest / bit-exactness pass runs regardless of any
  // --benchmark_filter, so the gated evidence is always complete.
  return esarp::bench::guarded_main("micro_kernels", kernels_manifest_body);
}
