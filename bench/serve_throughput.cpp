// Serve throughput — the streaming fleet under a deterministic open loop.
//
// Sweeps offered load against the multi-tenant detection service
// (src/rtad/serve/): a seeded open-loop arrival process on the simulated
// fleet clock (no wall clock anywhere) offers detection episodes from a mix
// of interactive (LSTM) and batch (ELM) tenants, and each sweep point
// reports throughput plus p50/p95/p99 simulated sojourn latency per tenant
// class, the ingress-depth distribution, and the overload counters
// (serve.sessions_shed / serve.degraded_inferences).
//
// Load calibration: one episode per tenant class measures the mean service
// time; offered load L then sets the arrival rate to L x fleet_capacity /
// mean_service. Interarrivals are bounded-jitter (mean x [0.5, 1.5), from
// the shared xoshiro RNG), so a below-saturation point cannot shed by
// freak burst — the regression gates hold shed+degraded == 0 for L < 1 and
// > 0 for the deep-overload point, deterministically. Under the shed policy
// a sweep whose sessions all fit in shards x (queue + lanes) can never shed,
// so the bench refuses it up front (exit 2, "fleet-overload-cannot-shed").
//
// Knobs (README "Bench knobs"): RTAD_BENCH_BENCHMARKS (one; default
// astar); RTAD_BENCH_SESSIONS (default 32); RTAD_BENCH_TENANTS (default
// 12); RTAD_BENCH_ATTACKS per episode (default 1); RTAD_BENCH_LOADS in
// [0.01, 16] (sorted+deduped; default "0.5,1.5,6"); RTAD_BENCH_SEED
// (default 2026); RTAD_BENCH_JSON (default BENCH_serve.json);
// RTAD_BENCH_FAST_TRAIN. Plus the fleet-shape knobs parsed by
// ServiceConfig::from_env (RTAD_SERVE_SHARDS / LANES / QUEUE / POLICY /
// QUANTUM_US) and RTAD_JOBS / RTAD_SCHED as everywhere. stdout and
// BENCH_serve.json are byte-identical across both schedulers and any
// worker count; wall-clock diagnostics go to stderr.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "frontend.hpp"
#include "rtad/core/env.hpp"
#include "rtad/core/experiment.hpp"
#include "rtad/core/experiment_runner.hpp"
#include "rtad/core/report.hpp"
#include "rtad/obs/json.hpp"
#include "rtad/serve/service.hpp"
#include "rtad/sim/rng.hpp"

using namespace rtad;

namespace {

/// Loads at or above this must shed or degrade (the deep-overload gate).
constexpr double kDeepOverload = 4.0;

serve::TenantClass class_of(std::size_t tenant_index) {
  // Two batch tenants out of every six; the rest interactive.
  return tenant_index % 3 == 2 ? serve::TenantClass::kBatch
                               : serve::TenantClass::kInteractive;
}

core::ModelKind model_of(serve::TenantClass cls) {
  return cls == serve::TenantClass::kInteractive ? core::ModelKind::kLstm
                                                 : core::ModelKind::kElm;
}

}  // namespace

int run_serve() {
  const std::string benchmark = bench::benchmark("astar");
  const std::size_t sessions =
      core::env::positive_or(bench::knob("RTAD_BENCH_SESSIONS"), 32);
  const std::size_t tenants =
      core::env::positive_or(bench::knob("RTAD_BENCH_TENANTS"), 12);
  const std::size_t attacks =
      core::env::positive_or(bench::knob("RTAD_BENCH_ATTACKS"), 1);
  const std::uint64_t seed =
      core::env::u64_or(bench::knob("RTAD_BENCH_SEED"), 2026);
  const auto loads = core::env::numbers_or(bench::knob("RTAD_BENCH_LOADS"),
                                           {0.5, 1.5, 6}, 0.01, 16.0);
  const std::string json_path = core::env::string_or(
      bench::knob("RTAD_BENCH_JSON"), "BENCH_serve.json");

  std::cout << "SERVE THROUGHPUT: MULTI-TENANT FLEET UNDER OPEN-LOOP LOAD\n\n";

  serve::ServiceConfig scfg = serve::ServiceConfig::from_env();
  scfg.detection.attacks = attacks;
  scfg.detection.trace_path.clear();
  scfg.detection.metrics_path.clear();

  // The deep-overload gate needs a shed, and the shed policy only sheds
  // once the queues and lanes are full: refuse a sweep that cannot get there.
  const std::size_t room = scfg.shards * (scfg.queue_capacity + scfg.lanes);
  if (loads.back() >= kDeepOverload &&
      scfg.policy == serve::OverloadPolicy::kShed && sessions <= room) {
    std::cerr << "serve_throughput: refused (fleet-overload-cannot-shed): "
              << sessions << " sessions fit in shards x (queue + lanes) = "
              << room << ", so load " << loads.back()
              << " can never shed; raise RTAD_BENCH_SESSIONS above " << room
              << "\n";
    return 2;
  }

  auto cache =
      std::make_shared<core::TrainedModelCache>(bench::training_options());

  // --- calibration: one episode per tenant class, serve-identical options
  const auto profile = cache->profile(benchmark);
  const core::TrainedModels& models = cache->get(benchmark);
  core::DetectionOptions copt = scfg.detection;
  copt.seed = seed;
  const auto cal_lstm = core::measure_detection(
      profile, models, core::ModelKind::kLstm, core::EngineKind::kMlMiaow,
      copt);
  const auto cal_elm = core::measure_detection(
      profile, models, core::ModelKind::kElm, core::EngineKind::kMlMiaow,
      copt);
  const double interactive_frac = 2.0 / 3.0;
  const double mean_service_ps =
      interactive_frac * static_cast<double>(cal_lstm.simulated_ps) +
      (1.0 - interactive_frac) * static_cast<double>(cal_elm.simulated_ps);
  const double capacity =
      static_cast<double>(scfg.shards) * static_cast<double>(scfg.lanes);

  std::cout << "Benchmark: " << benchmark << ", " << sessions
            << " sessions from " << tenants << " tenants, " << attacks
            << " attack(s) per episode\n";
  std::cout << "Fleet: " << scfg.shards << " shard(s) x " << scfg.lanes
            << " lane(s), ingress queue " << scfg.queue_capacity
            << ", policy " << serve::overload_policy_name(scfg.policy)
            << "\n";
  std::cout << "Calibrated service: interactive "
            << core::fmt(sim::to_us(cal_lstm.simulated_ps), 1)
            << " us, batch " << core::fmt(sim::to_us(cal_elm.simulated_ps), 1)
            << " us\n\n";

  serve::Service service(scfg, cache);

  struct Point {
    double load = 0.0;
    double interarrival_us = 0.0;
    double throughput_per_s = 0.0;
    serve::ServiceReport report;
  };
  std::vector<Point> points;
  points.reserve(loads.size());

  for (std::size_t li = 0; li < loads.size(); ++li) {
    const double load = loads[li];
    // Open-loop generator: arrival rate = load x capacity / mean service.
    const double mean_gap_ps = mean_service_ps / (load * capacity);
    sim::Xoshiro256 rng(seed ^ (0x5EDFEEDULL + li));
    std::vector<serve::SessionRequest> requests;
    requests.reserve(sessions);
    sim::Picoseconds at = 0;
    for (std::size_t i = 0; i < sessions; ++i) {
      const auto gap = static_cast<sim::Picoseconds>(
          mean_gap_ps * (0.5 + rng.uniform()));
      at += std::max<sim::Picoseconds>(1, gap);
      const std::size_t t = i % tenants;
      serve::SessionRequest req;
      req.tenant = "tenant-" + std::to_string(t);
      req.cls = class_of(t);
      req.benchmark = benchmark;
      req.model = model_of(req.cls);
      req.engine = core::EngineKind::kMlMiaow;
      req.arrival_ps = at;
      req.seed = seed + 101 * i;
      req.attacks = attacks;
      requests.push_back(std::move(req));
    }

    Point p;
    p.load = load;
    p.interarrival_us = mean_gap_ps / static_cast<double>(sim::kPsPerUs);
    std::cerr << "serve_throughput: load " << load << " (" << sessions
              << " sessions)...\n";
    p.report = service.run(std::move(requests));
    sim::Picoseconds makespan = 0;
    for (const auto& o : p.report.outcomes) {
      if (!o.shed) makespan = std::max(makespan, o.completion_ps);
    }
    p.throughput_per_s =
        makespan == 0 ? 0.0
                      : static_cast<double>(p.report.sessions_completed) /
                            (static_cast<double>(makespan) * 1e-12);
    points.push_back(std::move(p));
  }

  // --- regression gates: overload behaviour brackets the saturation point
  bool ok = true;
  for (const auto& p : points) {
    const std::uint64_t overload =
        p.report.sessions_shed + p.report.sessions_degraded;
    if (p.load < 1.0 && overload != 0) {
      std::cerr << "serve_throughput: FAIL — load " << p.load
                << " below saturation shed/degraded " << overload
                << " sessions\n";
      ok = false;
    }
    if (p.load >= kDeepOverload && overload == 0) {
      std::cerr << "serve_throughput: FAIL — load " << p.load
                << " deep overload yet nothing shed or degraded\n";
      ok = false;
    }
  }

  // --- stdout report (deterministic across RTAD_SCHED / RTAD_JOBS) ---
  core::Table table({"Load", "offered", "done", "shed", "degr",
                     "tput (/s)", "q-mean", "int p50", "int p95", "int p99",
                     "bat p50", "bat p99"});
  for (const auto& p : points) {
    const auto& r = p.report;
    table.add_row(
        {core::fmt(p.load, 2), core::fmt_count(r.sessions_offered),
         core::fmt_count(r.sessions_completed),
         core::fmt_count(r.sessions_shed),
         core::fmt_count(r.sessions_degraded),
         core::fmt(p.throughput_per_s, 1), core::fmt(r.queue_depth.mean(), 2),
         core::fmt(r.interactive.sojourn_us.percentile(50.0), 1),
         core::fmt(r.interactive.sojourn_us.percentile(95.0), 1),
         core::fmt(r.interactive.sojourn_us.percentile(99.0), 1),
         core::fmt(r.batch.sojourn_us.percentile(50.0), 1),
         core::fmt(r.batch.sojourn_us.percentile(99.0), 1)});
  }
  table.print(std::cout);
  std::cout << "\nSojourn latencies in simulated us (arrival -> verdict); "
               "'degr' = sessions downgraded to the cheap model.\n";
  std::cout << "Saturation gates: " << (ok ? "PASS" : "FAIL") << "\n";

  // --- JSON artifact ---
  {
    std::ofstream js(json_path);
    obs::JsonWriter json(js);
    json.begin_object();
    json.field("schema", "rtad.serve.bench.v1");
    json.field("benchmark", benchmark);
    json.field("sessions", static_cast<std::uint64_t>(sessions));
    json.field("tenants", static_cast<std::uint64_t>(tenants));
    json.field("attacks_per_session", static_cast<std::uint64_t>(attacks));
    json.field("seed", seed);
    json.key("calibration").begin_object();
    json.field("interactive_service_us", sim::to_us(cal_lstm.simulated_ps));
    json.field("batch_service_us", sim::to_us(cal_elm.simulated_ps));
    json.field("mean_service_us", mean_service_ps * 1e-6);
    json.end_object();
    json.field("gates_pass", ok);
    json.key("points").begin_array();
    for (const auto& p : points) {
      json.begin_object();
      json.field("offered_load", p.load);
      json.field("mean_interarrival_us", p.interarrival_us);
      json.field("throughput_sessions_per_s", p.throughput_per_s);
      json.key("service");
      serve::write_serve_report(json, scfg, p.report);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    js << '\n';
  }
  std::cerr << "serve_throughput: wrote " << json_path << "\n";

  return ok ? 0 : 1;
}

int main() { return bench::run("serve_throughput", run_serve); }
