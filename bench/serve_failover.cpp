// Serve failover — the fleet's fault domain under a deterministic storm.
//
// Replays one Zipf-skewed open-loop arrival schedule against the detection
// service twice: once on a fault-free fleet (the baseline) and once per
// storm intensity (shard crashes + lane wedges + admission brownouts from
// the RTAD_FAULTS serve.* machinery, driven here by a sweep knob). The
// headline gate is zero verdict divergence: every session that completes
// under a storm must retire the byte-identical detection verdict (score
// digest, detections, false positives, inferences, simulated time) that it
// retires on the fault-free fleet — checkpoint/restore recovery changes
// *when* work happens, never *what* it computes. Each sweep point reports
// the recovery story: crash/wedge/brownout counts, sessions recovered and
// parked, migrations, recovery-latency p50/p99, replayed simulated time,
// and the parked-blob byte footprint (high watermark + per-blob sizes) —
// the bounded-memory half of the failover contract.
//
// Knobs (README "Bench knobs"): RTAD_BENCH_BENCHMARKS (one; default
// astar); RTAD_BENCH_SESSIONS (default 24); RTAD_BENCH_TENANTS (default
// 10); RTAD_BENCH_ZIPF_S in [0, 10] (default 1.2); RTAD_BENCH_STORMS
// crash-rate sweep in [0.01, 1] (sorted+deduped; default "0.3,0.9");
// RTAD_BENCH_SEED (default 2026); RTAD_BENCH_JSON (default
// BENCH_serve_failover.json); RTAD_BENCH_FAST_TRAIN. Plus the fleet-shape
// and failover knobs parsed by ServiceConfig::from_env (RTAD_SERVE_SHARDS
// / LANES / QUEUE / RETRY / CHECKPOINT_EVERY / CHECKPOINT_CAP_KB /
// REBALANCE_GAP_US / MIGRATE_US; the retry budget defaults to 6 here) and
// RTAD_JOBS / RTAD_SCHED as everywhere. stdout and the JSON artifact are
// byte-identical across both schedulers and any worker count; wall-clock
// and peak-RSS diagnostics go to stderr only.
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

fault::ServeFaultPlan storm_plan(double intensity) {
  fault::ServeFaultPlan plan;
  plan.shard_crash = intensity;
  plan.lane_wedge = intensity * 0.5;
  plan.brownout = intensity * 0.25;
  plan.crash_epoch_us = 6'000;
  plan.crash_downtime_us = 2'000;
  plan.wedge_us = 3'000;
  plan.brownout_us = 1'500;
  plan.horizon_us = 120'000;
  plan.max_events = 3;
  return plan;
}

/// Completed-session verdict fields compared between baseline and storm.
bool same_verdict(const core::DetectionResult& a,
                  const core::DetectionResult& b) {
  return a.score_digest == b.score_digest && a.detections == b.detections &&
         a.false_positives == b.false_positives &&
         a.inferences == b.inferences && a.simulated_ps == b.simulated_ps;
}

}  // namespace

int run_failover() {
  const std::string benchmark = bench::benchmark("astar");
  const std::size_t sessions =
      core::env::positive_or(bench::knob("RTAD_BENCH_SESSIONS"), 24);
  const std::size_t tenants =
      core::env::positive_or(bench::knob("RTAD_BENCH_TENANTS"), 10);
  const double zipf_s =
      core::env::number_or(bench::knob("RTAD_BENCH_ZIPF_S"), 1.2, 0.0, 10.0);
  const std::uint64_t seed =
      core::env::u64_or(bench::knob("RTAD_BENCH_SEED"), 2026);
  const auto storms = core::env::numbers_or(bench::knob("RTAD_BENCH_STORMS"),
                                            {0.3, 0.9}, 0.01, 1.0);
  const std::string json_path = core::env::string_or(
      bench::knob("RTAD_BENCH_JSON"), "BENCH_serve_failover.json");

  serve::ServiceConfig scfg = serve::ServiceConfig::from_env();
  scfg.detection.attacks = 1;
  scfg.detection.trace_path.clear();
  scfg.detection.metrics_path.clear();
  // The sweep owns the fault plan; whatever RTAD_FAULTS says about serve.*
  // applies shape parameters only (rates come from the storm intensity).
  scfg.serve_faults = fault::ServeFaultPlan{};
  // A storm needs retries to recover; an explicit RTAD_SERVE_RETRY (0
  // included) wins.
  if (!core::env::raw("RTAD_SERVE_RETRY")) scfg.retry_budget = 6;

  std::cout << "SERVE FAILOVER: FAULT STORM VS CHECKPOINTED RECOVERY\n\n";

  auto cache =
      std::make_shared<core::TrainedModelCache>(bench::training_options());

  // One episode calibrates the arrival spacing: the fleet stays busy (load
  // about 1) through the storm horizon so faults actually land on work.
  core::DetectionOptions copt = scfg.detection;
  copt.seed = seed;
  const auto cal = core::measure_detection(
      cache->profile(benchmark), cache->get(benchmark), core::ModelKind::kLstm,
      core::EngineKind::kMlMiaow, copt);
  const double capacity =
      static_cast<double>(scfg.shards) * static_cast<double>(scfg.lanes);
  const double mean_gap_ps =
      static_cast<double>(cal.simulated_ps) / capacity;

  // One Zipf-skewed schedule, shared verbatim by the baseline and every
  // storm point: rank-0 tenants dominate, so shard load is deliberately
  // uneven and the rebalancer has hot shards to steer around.
  sim::Xoshiro256 rng(seed ^ 0xFA110FEBULL);
  const sim::ZipfSampler zipf(tenants, zipf_s);
  std::vector<serve::SessionRequest> schedule;
  schedule.reserve(sessions);
  sim::Picoseconds at = 0;
  for (std::size_t i = 0; i < sessions; ++i) {
    const auto gap =
        static_cast<sim::Picoseconds>(mean_gap_ps * (0.5 + rng.uniform()));
    at += std::max<sim::Picoseconds>(1, gap);
    const std::size_t t = zipf.sample(rng);
    serve::SessionRequest req;
    req.tenant = "tenant-" + std::to_string(t);
    req.cls = t % 3 == 2 ? serve::TenantClass::kBatch
                         : serve::TenantClass::kInteractive;
    req.benchmark = benchmark;
    req.model = req.cls == serve::TenantClass::kBatch ? core::ModelKind::kElm
                                                      : core::ModelKind::kLstm;
    req.engine = core::EngineKind::kMlMiaow;
    req.arrival_ps = at;
    req.seed = seed + 101 * i;
    req.attacks = 1;
    schedule.push_back(std::move(req));
  }

  std::cout << "Benchmark: " << benchmark << ", " << sessions
            << " sessions from " << tenants << " tenants (Zipf s="
            << core::fmt(zipf_s, 2) << ")\n";
  std::cout << "Fleet: " << scfg.shards << " shard(s) x " << scfg.lanes
            << " lane(s), retry budget " << scfg.retry_budget
            << ", checkpoint every " << scfg.checkpoint_every
            << " quanta\n\n";

  // --- baseline: fault-free fleet, same schedule ---
  std::cerr << "serve_failover: baseline (fault-free)...\n";
  serve::ServiceConfig base_cfg = scfg;
  base_cfg.retry_budget = 0;
  serve::Service baseline_service(base_cfg, cache);
  const auto baseline = baseline_service.run(schedule);

  struct Point {
    double intensity = 0.0;
    bool zero_divergence = true;
    std::uint64_t divergent = 0;
    serve::ServiceConfig cfg;
    serve::ServiceReport report;
  };
  std::vector<Point> points;
  points.reserve(storms.size());

  bool ok = true;
  for (const double intensity : storms) {
    std::cerr << "serve_failover: storm " << intensity << "...\n";
    serve::ServiceConfig storm_cfg = scfg;
    storm_cfg.serve_faults = storm_plan(intensity);
    serve::Service service(storm_cfg, cache);

    Point p;
    p.intensity = intensity;
    p.cfg = storm_cfg;
    p.report = service.run(schedule);

    // Zero verdict divergence: completed-in-both sessions must agree on
    // every verdict field, byte for byte.
    for (std::size_t i = 0; i < p.report.outcomes.size(); ++i) {
      const auto& f = p.report.outcomes[i];
      const auto& b = baseline.outcomes[i];
      if (f.shed || b.shed) continue;
      if (!same_verdict(f.detection, b.detection)) {
        ++p.divergent;
        p.zero_divergence = false;
      }
    }
    if (!p.zero_divergence) {
      std::cerr << "serve_failover: FAIL — storm " << intensity << " diverged "
                << p.divergent << " verdict(s) from the baseline fleet\n";
      ok = false;
    }
    // The parked footprint must respect a configured cap (0 = unbounded).
    const std::uint64_t cap_bytes = storm_cfg.checkpoint_cap_kb * 1024;
    if (cap_bytes != 0 && p.report.parked_bytes_hwm > cap_bytes) {
      std::cerr << "serve_failover: FAIL — parked bytes "
                << p.report.parked_bytes_hwm << " exceed the cap " << cap_bytes
                << "\n";
      ok = false;
    }
    points.push_back(std::move(p));
  }
  // The deepest storm must actually exercise the fault domain.
  if (!points.empty() && points.back().report.shard_crashes == 0) {
    std::cerr << "serve_failover: FAIL — deepest storm fired no crashes\n";
    ok = false;
  }

  // --- stdout report (deterministic across RTAD_SCHED / RTAD_JOBS) ---
  core::Table table({"Storm", "done", "shed", "crash", "wedge", "brown",
                     "recov", "migr", "rec p50", "rec p99", "replay ms",
                     "blob hwm"});
  for (const auto& p : points) {
    const auto& r = p.report;
    table.add_row(
        {core::fmt(p.intensity, 2), core::fmt_count(r.sessions_completed),
         core::fmt_count(r.sessions_shed), core::fmt_count(r.shard_crashes),
         core::fmt_count(r.lane_wedges), core::fmt_count(r.brownout_refusals),
         core::fmt_count(r.sessions_recovered), core::fmt_count(r.migrations),
         core::fmt(r.recovery_latency_us.percentile(50.0), 1),
         core::fmt(r.recovery_latency_us.percentile(99.0), 1),
         core::fmt(static_cast<double>(r.recovery_replay_ps) * 1e-9, 2),
         core::fmt_count(r.parked_bytes_hwm)});
  }
  table.print(std::cout);
  std::cout << "\nRecovery latency in simulated us (orphaned -> restored "
               "start); 'blob hwm' = deepest parked-checkpoint bytes on any "
               "shard.\n";
  std::cout << "Baseline completed " << baseline.sessions_completed << "/"
            << sessions << " sessions fault-free.\n";
  std::cout << "Zero-divergence gate: " << (ok ? "PASS" : "FAIL") << "\n";

  // --- JSON artifact ---
  {
    std::ofstream js(json_path);
    obs::JsonWriter json(js);
    json.begin_object();
    json.field("schema", "rtad.serve.failover.v1");
    json.field("benchmark", benchmark);
    json.field("sessions", static_cast<std::uint64_t>(sessions));
    json.field("tenants", static_cast<std::uint64_t>(tenants));
    json.field("zipf_s", zipf_s);
    json.field("seed", seed);
    json.field("gates_pass", ok);
    json.key("baseline");
    serve::write_serve_report(json, base_cfg, baseline);
    json.key("storms").begin_array();
    for (const auto& p : points) {
      json.begin_object();
      json.field("intensity", p.intensity);
      json.field("zero_divergence", p.zero_divergence);
      json.field("divergent_verdicts", p.divergent);
      json.key("service");
      serve::write_serve_report(json, p.cfg, p.report);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    js << '\n';
  }
  std::cerr << "serve_failover: wrote " << json_path << "\n";

  // Host-side footprint: stderr only (host-dependent, never part of the
  // byte-stable surface).
  std::cerr << "serve_failover: peak RSS (VmHWM) " << bench::peak_rss_kib()
            << " KiB\n";
  return ok ? 0 : 1;
}

int main() { return bench::run("serve_failover", run_failover); }
