// telemetry_rank: a telemetry::TelemetryStore over kTenants synthetic
// tenant streams. A pass ingests every stream with append() (the write
// path), then issues ranked queries and series extractions (the read
// path). No simulation runs. An operation is one query; its output is the
// ranking (or series) digest.
#include <cstdio>

#include "layers.hpp"
#include "rtad/sim/rng.hpp"

namespace perfbench {

using namespace rtad;

namespace {

constexpr std::size_t kTenants = 100'000;
constexpr std::size_t kSamples = 24;
constexpr std::size_t kHotTenants = 4;   ///< flag their last quarter
constexpr std::size_t kWarmTenants = 4;  ///< flag their first quarter
constexpr sim::Picoseconds kTickPs = 50 * sim::kPsPerUs;
/// Store shape: small pages and a cap, so pages seal and the cap evicts.
constexpr std::size_t kPageSamples = 8;
constexpr std::uint64_t kCapBytes = 32ull << 20;
/// Each query shape runs this many times per pass.
constexpr std::size_t kQueryRounds = 8;
constexpr std::size_t kTracedRounds = 4;
constexpr std::size_t kSetupReps = 5;

struct Streams {
  std::vector<std::string> names;
  std::vector<std::vector<telemetry::Sample>> samples;
};

std::string tenant_name(std::size_t t) {
  if (t < kHotTenants) return "hot-" + std::to_string(t);
  if (t < kHotTenants + kWarmTenants) {
    return "warm-" + std::to_string(t - kHotTenants);
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "tenant-%07zu", t);
  return buf;
}

Streams synthesize(std::uint64_t seed) {
  Streams s;
  s.names.reserve(kTenants);
  s.samples.reserve(kTenants);
  const std::size_t burst = kSamples / 4;
  for (std::size_t t = 0; t < kTenants; ++t) {
    sim::Xoshiro256 rng(seed ^ (0x9E3779B97F4A7C15ULL * (t + 1)));
    const bool hot = t < kHotTenants;
    const bool warm = !hot && t < kHotTenants + kWarmTenants;
    std::vector<telemetry::Sample> out(kSamples);
    for (std::size_t i = 0; i < kSamples; ++i) {
      bool flag = rng.uniform() < 0.001;
      if (hot && i >= kSamples - burst) flag = true;
      if (warm && i < burst) flag = true;
      out[i].at_ps = static_cast<sim::Picoseconds>(i + 1) * kTickPs;
      out[i].score = flag ? 0.8 + 0.2 * rng.uniform() : 0.4 * rng.uniform();
      out[i].flagged = flag;
    }
    s.names.push_back(tenant_name(t));
    s.samples.push_back(std::move(out));
  }
  return s;
}

telemetry::StoreConfig store_config() {
  telemetry::StoreConfig cfg;
  cfg.page_samples = kPageSamples;
  cfg.cap_bytes = kCapBytes;
  return cfg;
}

std::vector<std::string> series_tenants() {
  return {"hot-0", "warm-0", tenant_name(kTenants / 2),
          tenant_name(kTenants - 1)};
}

struct Pass {
  std::unique_ptr<telemetry::TelemetryStore> store;
  double ingest_s = 0.0;
  double wall_s = 0.0;
};

/// One pass: fresh store, ingest, then `rounds` of every query shape. With
/// `append_ns` set, every stream's appends are timed as one batch.
Pass run_pass(Result& r, const Streams& streams, std::size_t rounds,
              QueryCosts& costs, double* append_ns) {
  Pass p;
  const auto wall0 = Clock::now();
  p.store = std::make_unique<telemetry::TelemetryStore>(store_config());
  double timed_appends = 0.0;
  const auto t0 = Clock::now();
  for (std::size_t t = 0; t < kTenants; ++t) {
    const auto ta = append_ns != nullptr ? Clock::now() : Clock::time_point{};
    for (const auto& s : streams.samples[t]) {
      p.store->append(streams.names[t], s);
    }
    if (append_ns != nullptr) timed_appends += seconds_since(ta);
  }
  p.ingest_s = seconds_since(t0);
  if (append_ns != nullptr) {
    *append_ns = timed_appends * 1e9 / static_cast<double>(kTenants * kSamples);
  }
  const auto shapes = query_shapes(*p.store);
  for (std::size_t i = 0; i < rounds; ++i) {
    run_queries(r, *p.store, shapes, i == 0 ? series_tenants()
                                            : std::vector<std::string>{},
                costs);
  }
  p.wall_s = seconds_since(wall0);
  return p;
}

Result run_untraced(const Args& args) {
  Result r;
  Streams streams;
  const auto setup = [&] {
    streams = Streams{};
    streams = synthesize(input_seed(args.seed));
  };
  QueryCosts costs;
  std::vector<double> samples_per_s;
  std::vector<double> ingest_per_s;
  const auto pass = [&] {
    const Pass p = run_pass(r, streams, kQueryRounds, costs, nullptr);
    const auto samples = static_cast<double>(kTenants * kSamples);
    samples_per_s.push_back(samples / p.wall_s);
    ingest_per_s.push_back(samples / p.ingest_s);
    return p.wall_s;
  };
  const std::vector<double> setup_s =
      alternate(kSetupReps, args.seconds, setup, pass);
  std::vector<double> rank_ms;
  for (const auto& shape : costs.rank_ms) {
    rank_ms.insert(rank_ms.end(), shape.begin(), shape.end());
  }

  r.metric("setup_s", median(setup_s), "s");
  r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  r.metric("items_per_s", median(samples_per_s), "1/s");
  r.note("ingest_samples_per_s", median(ingest_per_s), "1/s");
  r.note("query_ms_p50", percentile(rank_ms, 50), "ms");
  r.note("query_ms_p90", percentile(rank_ms, 90), "ms");
  r.note("query_samples", static_cast<double>(rank_ms.size()), "count");
  r.note("passes", static_cast<double>(samples_per_s.size()), "count");
  return r;
}

Result run_traced(const Args& args) {
  Result r;
  const Streams streams = synthesize(input_seed(args.seed));
  // A warm-up pass, the traced pass, then an untraced pass: the trace
  // overhead compares two warm passes. All three issue the same queries in
  // the same order, so their digests must agree check for check.
  QueryCosts untraced_costs;
  run_pass(r, streams, kTracedRounds, untraced_costs, nullptr);
  const std::size_t per_pass = r.checks.size();
  QueryCosts costs;
  double append_ns = 0.0;
  Pass traced = run_pass(r, streams, kTracedRounds, costs, &append_ns);
  add_telemetry_layers(r, *traced.store, query_shapes(*traced.store),
                       append_ns, costs);
  traced.store.reset();
  const Pass untraced =
      run_pass(r, streams, kTracedRounds, untraced_costs, nullptr);
  for (std::size_t i = per_pass; i < r.checks.size(); ++i) {
    if (r.checks[i].digest != r.checks[i % per_pass].digest) {
      r.sim_identical = false;
    }
  }
  r.metric("bench.trace_overhead", traced.wall_s / untraced.wall_s, "ratio");
  r.absent_layers = {"workloads", "ml",  "trace", "igm",  "gpgpu",
                     "mcm",       "sim", "core",  "serve", "ensemble"};
  return r;
}

std::uint64_t rank_digest(const std::vector<telemetry::RankEntry>& ranked) {
  Digest d;
  for (const auto& e : ranked) {
    d.add(e.tenant).add(e.severity).add(e.anomaly_rate).add(e.peak_score);
    d.add(e.samples).add(e.health);
  }
  return d.value();
}

std::uint64_t series_digest(const telemetry::Series& s) {
  Digest d;
  for (const auto& p : s.points) {
    d.add(p.at_ps).add(p.score).add(static_cast<std::uint64_t>(p.flagged));
    d.add(static_cast<std::uint64_t>(p.health));
  }
  return d.value();
}

}  // namespace

std::vector<QueryShape> query_shapes(const telemetry::TelemetryStore& store) {
  const sim::Picoseconds end = store.last_ps();
  const sim::Picoseconds mid = end / 2;
  std::vector<QueryShape> shapes;
  telemetry::RankQuery q;
  q.top_k = 10;
  shapes.push_back({"full_window", q});
  q.t0 = mid;
  shapes.push_back({"recent_half", q});
  q.t0 = 0;
  q.t1 = mid;
  shapes.push_back({"early_half", q});
  q.t1 = ~sim::Picoseconds{0};
  q.half_life_ps = (end > 0 ? end : 1) / 8;
  shapes.push_back({"fast_decay", q});
  return shapes;
}

void run_queries(Result& r, const telemetry::TelemetryStore& store,
                 const std::vector<QueryShape>& shapes,
                 const std::vector<std::string>& tenants, QueryCosts& costs) {
  costs.rank_ms.resize(shapes.size());
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const auto t0 = Clock::now();
    const auto ranked = telemetry::rank_tenants(store, shapes[i].query);
    costs.rank_ms[i].push_back(seconds_since(t0) * 1e3);
    r.checks.push_back(
        {"rank." + shapes[i].name, rank_digest(ranked), 1, std::nullopt});
    ++r.attempted;
  }
  for (const std::string& tenant : tenants) {
    const auto t0 = Clock::now();
    const auto s =
        telemetry::series(store, tenant, 0, 0, ~sim::Picoseconds{0});
    costs.series_us.push_back(seconds_since(t0) * 1e6);
    r.checks.push_back(
        {"series." + tenant, series_digest(s), 1, std::nullopt});
    ++r.attempted;
  }
}

void add_telemetry_layers(Result& r, const telemetry::TelemetryStore& store,
                          const std::vector<QueryShape>& shapes,
                          double append_ns, const QueryCosts& costs) {
  r.metric("telemetry.append_ns", append_ns, "ns");
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    r.metric("telemetry.rank_ms." + shapes[i].name,
             median(costs.rank_ms.at(i)), "ms");
  }
  r.metric("telemetry.series_us", median(costs.series_us), "us");
  r.metric("telemetry.pages_sealed",
           static_cast<double>(store.pages_sealed()), "count");
  r.metric("telemetry.pages_evicted",
           static_cast<double>(store.pages_evicted()), "count");
  r.metric("telemetry.resident_bytes_hwm",
           static_cast<double>(store.resident_bytes_hwm()), "B");
}

Result run_telemetry(const Args& args) {
  return args.trace ? run_traced(args) : run_untraced(args);
}

}  // namespace perfbench
