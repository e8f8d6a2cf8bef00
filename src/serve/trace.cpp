#include "serve/trace.hpp"

#include <bit>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>

#include "common/assert.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "sar/params.hpp"

namespace esarp::serve {

namespace {

constexpr const char* kTraceSchemaV1 = "esarp-arrival-trace/1";
constexpr const char* kTraceSchemaV2 = "esarp-arrival-trace/2";

/// Exponential inter-arrival sample at mean 1/rate (inverse transform).
[[nodiscard]] double exp_sample(Rng& rng, double rate_hz) {
  return -std::log(1.0 - rng.uniform()) / rate_hz;
}

/// Per-job priority draw on a stream independent of the arrival Rng (a
/// SplitMix64 finalizer over seed and id), so the mix fractions never
/// shift any arrival time of the same seed.
[[nodiscard]] Priority roll_priority(std::uint64_t seed, int id,
                                     double frac_low, double frac_high) {
  if (frac_low <= 0.0 && frac_high <= 0.0) return Priority::kNormal;
  SplitMix64 sm(seed ^ 0x7072696f72697479ULL /* "priority" */ ^
                (static_cast<std::uint64_t>(static_cast<unsigned>(id))
                 << 17));
  const double u = static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
  if (u < frac_low) return Priority::kLow;
  if (u < frac_low + frac_high) return Priority::kHigh;
  return Priority::kNormal;
}

/// Per-job deadline scale on the same arrival-independent stream family
/// as roll_priority (different key), uniform in [1 - jitter, 1 + jitter].
[[nodiscard]] double roll_deadline_scale(std::uint64_t seed, int id,
                                         double jitter) {
  if (jitter <= 0.0) return 1.0;
  SplitMix64 sm(seed ^ 0x646561646c696e65ULL /* "deadline" */ ^
                (static_cast<std::uint64_t>(static_cast<unsigned>(id))
                 << 17));
  const double u = static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
  return 1.0 - jitter + 2.0 * jitter * u;
}

/// The number at `key` in `obj` as a T: present, finite, whole when T is
/// an integer, and inside T's range, so the conversion is defined.
/// `where` ("<path>" or "<path>: job <i>") leads the error message.
template <typename T>
[[nodiscard]] T number_at(const JsonValue& obj, const char* key,
                          const std::string& where) {
  const JsonValue* v = obj.find(key);
  ESARP_REQUIRE(v != nullptr && v->is_number(),
                where + ": missing numeric \"" + key + "\"");
  const double x = v->as_number();
  bool ok = std::isfinite(x);
  if constexpr (std::is_integral_v<T>) {
    // [lo, hi) holds exactly the whole doubles that convert to T.
    const double hi = std::ldexp(1.0, std::numeric_limits<T>::digits);
    const double lo = std::is_signed_v<T> ? -hi : 0.0;
    ok = ok && x == std::trunc(x) && x >= lo && x < hi;
  }
  ESARP_REQUIRE(ok, [&] {
    std::ostringstream msg;
    msg << where << ": \"" << key << "\" is " << x << ", not a finite "
        << (std::is_integral_v<T> ? "whole number in range" : "number");
    return msg.str();
  }());
  return static_cast<T>(x);
}

} // namespace

ArrivalTrace make_trace(const TraceParams& p) {
  ESARP_EXPECTS(p.n_jobs >= 1);
  ESARP_EXPECTS(p.rate_hz > 0.0);
  ESARP_EXPECTS(!p.bursty || p.burst_mean >= 1.0);
  ESARP_EXPECTS(p.frac_low >= 0.0 && p.frac_high >= 0.0 &&
                p.frac_low + p.frac_high <= 1.0);
  ESARP_EXPECTS(p.deadline_jitter >= 0.0 && p.deadline_jitter < 1.0);

  ArrivalTrace t;
  t.seed = p.seed;
  t.jobs.reserve(p.n_jobs);

  JobSpec proto;
  proto.n_pulses = p.n_pulses;
  proto.n_range = p.n_range;
  proto.algo = p.algo;
  proto.n_cores = p.n_cores;
  proto.deadline_s = p.deadline_s;

  Rng rng(p.seed);
  double now = 0.0;
  while (t.jobs.size() < p.n_jobs) {
    if (!p.bursty) {
      now += exp_sample(rng, p.rate_hz);
      JobSpec j = proto;
      j.id = static_cast<int>(t.jobs.size());
      j.arrival_s = now;
      j.priority = roll_priority(p.seed, j.id, p.frac_low, p.frac_high);
      j.deadline_s =
          p.deadline_s * roll_deadline_scale(p.seed, j.id, p.deadline_jitter);
      t.jobs.push_back(j);
      continue;
    }
    // Bursts arrive as a Poisson process at rate/burst_mean so the *mean*
    // job rate stays rate_hz; burst sizes are geometric with mean
    // burst_mean, and every job in a burst lands at the burst instant.
    now += exp_sample(rng, p.rate_hz / p.burst_mean);
    // A burst never outgrows the jobs still to generate, so a mean whose
    // continue probability rounds to 1 still ends.
    const std::size_t left = p.n_jobs - t.jobs.size();
    std::size_t burst = 1;
    while (burst < left && rng.uniform() < 1.0 - 1.0 / p.burst_mean) ++burst;
    for (std::size_t i = 0; i < burst; ++i) {
      JobSpec j = proto;
      j.id = static_cast<int>(t.jobs.size());
      j.arrival_s = now;
      j.priority = roll_priority(p.seed, j.id, p.frac_low, p.frac_high);
      j.deadline_s =
          p.deadline_s * roll_deadline_scale(p.seed, j.id, p.deadline_jitter);
      t.jobs.push_back(j);
    }
  }
  return t;
}

void save_trace(const std::filesystem::path& path, const ArrivalTrace& t) {
  if (path.has_parent_path())
    std::filesystem::create_directories(path.parent_path());
  std::filesystem::path tmp = path;
  tmp += ".tmp";
  {
    std::ofstream f(tmp);
    ESARP_REQUIRE(f.good(), "cannot open " + tmp.string() + " for writing");
    JsonWriter w(f);
    w.begin_object();
    w.kv("schema", kTraceSchemaV2);
    w.kv("seed", t.seed);
    w.key("jobs");
    w.begin_array();
    for (const JobSpec& j : t.jobs) {
      w.begin_object();
      w.kv("id", j.id);
      w.kv("arrival_s", j.arrival_s);
      w.kv("n_pulses", static_cast<std::uint64_t>(j.n_pulses));
      w.kv("n_range", static_cast<std::uint64_t>(j.n_range));
      w.kv("algo", to_string(j.algo));
      w.kv("n_cores", j.n_cores);
      w.kv("deadline_s", j.deadline_s);
      w.kv("priority", to_string(j.priority));
      w.end_object();
    }
    w.end_array();
    w.end_object();
    f << "\n";
    ESARP_REQUIRE(f.good(), "failed writing " + tmp.string());
  }
  std::filesystem::rename(tmp, path);
}

ArrivalTrace load_trace(const std::filesystem::path& path) {
  const JsonValue doc = load_json_file(path);
  const JsonValue* schema = doc.find("schema");
  ESARP_REQUIRE(schema != nullptr && schema->is_string(),
                path.string() + ": missing trace \"schema\"");
  const std::string& got = schema->as_string();
  const bool v2 = got == kTraceSchemaV2;
  ESARP_REQUIRE(v2 || got == kTraceSchemaV1,
                path.string() + ": unsupported trace schema \"" + got +
                    "\" (supported: " + kTraceSchemaV1 + ", " +
                    kTraceSchemaV2 + ")");
  const JsonValue* jobs = doc.find("jobs");
  ESARP_REQUIRE(jobs != nullptr && jobs->is_array(),
                path.string() + ": missing \"jobs\" array");

  ArrivalTrace t;
  t.seed = number_at<std::uint64_t>(doc, "seed", path.string());
  double prev_arrival = -1.0;
  for (const JsonValue& e : jobs->as_array()) {
    const std::size_t i = t.jobs.size();
    const std::string where =
        path.string().append(": job ").append(std::to_string(i));
    // Every job is checked here, against what the runners accept, so a bad
    // trace fails before its campaign starts rather than mid-way.
    const auto bad = [&where](const char* key, const char* why) {
      return where + ": \"" + key + "\" " + why;
    };
    JobSpec j;
    j.id = number_at<int>(e, "id", where);
    j.arrival_s = number_at<double>(e, "arrival_s", where);
    j.n_pulses = number_at<std::size_t>(e, "n_pulses", where);
    j.n_range = number_at<std::size_t>(e, "n_range", where);
    j.n_cores = number_at<int>(e, "n_cores", where);
    j.deadline_s = number_at<double>(e, "deadline_s", where);
    const JsonValue* algo = e.find("algo");
    ESARP_REQUIRE(algo != nullptr && algo->is_string(),
                  where + ": missing \"algo\"");
    j.algo = algo_from_string(algo->as_string());
    ESARP_REQUIRE(j.id == static_cast<int>(i),
                  bad("id", "must equal the job's index"));
    ESARP_REQUIRE(j.n_pulses >= 2, bad("n_pulses", "must be at least 2"));
    ESARP_REQUIRE(j.algo != Algo::kFfbp || std::has_single_bit(j.n_pulses),
                  bad("n_pulses", "must be a power of two for ffbp"));
    ESARP_REQUIRE(j.algo != Algo::kGbp || j.n_pulses % 2 == 0,
                  bad("n_pulses", "must be even for gbp"));
    ESARP_REQUIRE(j.n_range >= 2, bad("n_range", "must be at least 2"));
    ESARP_REQUIRE(sar::test_params(j.n_pulses, j.n_range).sector_fits(),
                  bad("n_pulses", "spans a wider sector than the imaging "
                                  "geometry allows at this n_range"));
    ESARP_REQUIRE(j.n_cores >= 1, bad("n_cores", "must be at least 1"));
    ESARP_REQUIRE(j.deadline_s > 0.0, bad("deadline_s", "must be positive"));
    // v2 carries a per-job priority class; v1 jobs default to normal. A
    // v1 file that happens to carry the field is accepted leniently.
    const JsonValue* prio = e.find("priority");
    if (v2) {
      ESARP_REQUIRE(prio != nullptr && prio->is_string(),
                    where + ": missing \"priority\" (required by " +
                        kTraceSchemaV2 + ")");
    }
    if (prio != nullptr) {
      ESARP_REQUIRE(prio->is_string(), bad("priority", "must be a string"));
      j.priority = priority_from_string(prio->as_string());
    }
    ESARP_REQUIRE(j.arrival_s >= prev_arrival,
                  bad("arrival_s", "is earlier than the job before it"));
    prev_arrival = j.arrival_s;
    t.jobs.push_back(j);
  }
  ESARP_REQUIRE(!t.jobs.empty(), path.string() + ": empty trace");
  return t;
}

} // namespace esarp::serve
