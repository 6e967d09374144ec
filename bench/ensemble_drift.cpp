// Ensemble drift — false-positive rate vs rolling-ensemble size under a
// phase-shifting workload, plus the retrain overhead on the serve fleet.
//
// The workload is a drifting variant of a catalog profile: a deterministic
// phase-shift schedule (workloads::DriftSchedule) rotates the syscall
// popularity ranking every period, so a model trained on one phase sees a
// shifted distribution at inference time. The frozen single-model deploy —
// the paper's configuration — accumulates false positives as the workload
// walks away from its training snapshot; a rolling ensemble whose members
// are staggered retraining generations (one trained per cadence, window
// back-dated) keeps at least one member current with every phase once the
// ensemble spans the phase cycle, and full-quorum consensus lets that
// member veto the stale members' false alarms.
//
// Two measurements:
//   1. FP rate vs ensemble size {1, 3, 9} on the drifting profile, one
//      DetectionSession per size, identical attack schedule. Gates:
//      fp(9) < fp(1) strictly, and a zero-drift size-1 ensemble run is
//      byte-identical (score digest included) to the frozen baseline —
//      the swap machinery must cost nothing when the world is stationary.
//   2. Retrain overhead on the serve fleet: the same small arrival
//      schedule with the ensemble off and on. Deterministic counters
//      (generations trained, swaps, consensus overrides) go to stdout and
//      the JSON body; wall-clock (including the retrain wall time) goes to
//      stderr and the trailing "host" object only.
//
// Knobs (README "Bench knobs"): RTAD_BENCH_BENCHMARKS (one; default
// astar); RTAD_BENCH_ATTACKS per session (default 4); RTAD_BENCH_SESSIONS
// for the serve stage (default 8); RTAD_BENCH_JSON (default
// BENCH_ensemble.json); RTAD_BENCH_FAST_TRAIN; plus RTAD_SCHED /
// RTAD_BACKEND / RTAD_JOBS as everywhere. stdout and the JSON document
// minus its trailing "host" object are byte-identical across schedulers,
// backends, and worker counts.
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "frontend.hpp"
#include "rtad/core/detection_session.hpp"
#include "rtad/core/env.hpp"
#include "rtad/core/experiment_runner.hpp"
#include "rtad/core/report.hpp"
#include "rtad/ensemble/ensemble_manager.hpp"
#include "rtad/obs/json.hpp"
#include "rtad/serve/service.hpp"
#include "rtad/workloads/catalog.hpp"

using namespace rtad;

namespace {

/// Drift geometry: the retrain cadence equals the phase period, so
/// generation g is trained exactly one phase behind its activation — a
/// size-1 ensemble is always stale, while 9 staggered generations span two
/// full 4-phase cycles and always include a member trained on the phase
/// currently playing.
constexpr std::uint64_t kDriftPeriodUs = 5'000;
constexpr std::uint32_t kDriftPhases = 4;
constexpr std::uint32_t kSyscallRotate = 7;

struct SizeRow {
  std::uint32_t size = 0;
  core::DetectionResult result;
  std::uint64_t generations_trained = 0;
  std::uint64_t retrain_work_units = 0;
  double wall_ms = 0.0;  ///< host-only
};

double fp_rate(const core::DetectionResult& r) {
  return r.inferences == 0 ? 0.0
                           : static_cast<double>(r.false_positives) /
                                 static_cast<double>(r.inferences);
}

}  // namespace

int run_ensemble() {
  const std::string base_name = bench::benchmark("astar");
  const std::string drift_name = base_name + "-drift";
  const std::size_t attacks =
      core::env::positive_or(bench::knob("RTAD_BENCH_ATTACKS"), 4);
  const std::size_t sessions =
      core::env::positive_or(bench::knob("RTAD_BENCH_SESSIONS"), 8);
  const std::string json_path = core::env::string_or(
      bench::knob("RTAD_BENCH_JSON"), "BENCH_ensemble.json");

  std::cout << "ENSEMBLE DRIFT: ROLLING GENERATIONS VS A PHASE-SHIFTING "
               "WORKLOAD\n\n";

  const auto resolver = [base_name,
                         drift_name](const std::string& name) {
    workloads::SpecProfile p = workloads::find_profile(
        name == drift_name ? base_name : name);
    if (name == drift_name) {
      p.name = drift_name;
      p.drift.period_us = kDriftPeriodUs;
      p.drift.phases = kDriftPhases;
      p.drift.syscall_rotate = kSyscallRotate;
    }
    return p;
  };
  auto cache = std::make_shared<core::TrainedModelCache>(
      bench::training_options(), resolver);

  core::EnsembleParams base_params;
  base_params.quorum = 0;  // full quorum: every member must agree to flag
  base_params.retrain_ps =
      sim::Picoseconds{kDriftPeriodUs} * sim::kPsPerUs;

  core::DetectionOptions opts;
  opts.attacks = attacks;

  const auto profile = cache->profile(drift_name);
  const core::TrainedModels& models = cache->get(drift_name);

  // --- stage 1: frozen baseline, then one session per ensemble size ---
  core::DetectionSession frozen(profile, models, core::ModelKind::kElm,
                                core::EngineKind::kMlMiaow, opts);
  frozen.run_to_completion();
  const core::DetectionResult frozen_result = frozen.result();

  std::vector<SizeRow> rows;
  for (const std::uint32_t size : {1u, 3u, 9u}) {
    core::EnsembleParams ep = base_params;
    ep.size = size;
    ensemble::EnsembleManager mgr(cache, ep);
    core::DetectionOptions o = opts;
    o.ensemble = ep;
    const auto t0 = std::chrono::steady_clock::now();
    core::DetectionSession session(
        profile, models, core::ModelKind::kElm, core::EngineKind::kMlMiaow,
        o, &mgr.source(drift_name, core::ModelKind::kElm));
    // Chunked advancement — the production streaming shape; results are
    // invariant to the chunk (swaps land on advance() boundaries either
    // way), which the ensemble test suite proves.
    while (session.advance(sim::Picoseconds{2} * sim::kPsPerMs)) {
    }
    SizeRow row;
    row.size = size;
    row.result = session.result();
    row.generations_trained = mgr.generations_trained();
    row.retrain_work_units = mgr.retrain_work_units();
    row.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    rows.push_back(std::move(row));
  }

  // --- stage 2: zero-drift identity — a size-1 ensemble on the
  // stationary profile must reproduce the frozen baseline byte for byte,
  // swap machinery and all ---
  const auto still_profile = cache->profile(base_name);
  const core::TrainedModels& still_models = cache->get(base_name);
  core::DetectionSession still_frozen(still_profile, still_models,
                                      core::ModelKind::kElm,
                                      core::EngineKind::kMlMiaow, opts);
  still_frozen.run_to_completion();
  const core::DetectionResult still_base = still_frozen.result();

  core::EnsembleParams inert = base_params;
  inert.size = 1;
  ensemble::EnsembleManager inert_mgr(cache, inert);
  core::DetectionOptions inert_opts = opts;
  inert_opts.ensemble = inert;
  core::DetectionSession inert_session(
      still_profile, still_models, core::ModelKind::kElm,
      core::EngineKind::kMlMiaow, inert_opts,
      &inert_mgr.source(base_name, core::ModelKind::kElm));
  while (inert_session.advance(sim::Picoseconds{2} * sim::kPsPerMs)) {
  }
  const core::DetectionResult inert_result = inert_session.result();

  const bool identity_ok =
      inert_result.score_digest == still_base.score_digest &&
      inert_result.false_positives == still_base.false_positives &&
      inert_result.detections == still_base.detections &&
      inert_result.inferences == still_base.inferences &&
      inert_result.simulated_ps == still_base.simulated_ps;
  const bool fp_gate_ok =
      rows.back().result.false_positives < rows.front().result.false_positives;
  if (!fp_gate_ok) {
    std::cerr << "ensemble_drift: FAIL — size 9 FPs ("
              << rows.back().result.false_positives
              << ") not strictly below size 1 ("
              << rows.front().result.false_positives << ")\n";
  }
  if (!identity_ok) {
    std::cerr << "ensemble_drift: FAIL — zero-drift size-1 ensemble "
                 "diverged from the frozen baseline\n";
  }

  // --- stage 3: retrain overhead on the serve fleet ---
  serve::ServiceConfig scfg;
  scfg.shards = 2;
  scfg.lanes = 2;
  scfg.detection.attacks = attacks;
  const auto make_requests = [&] {
    std::vector<serve::SessionRequest> reqs;
    reqs.reserve(sessions);
    for (std::size_t i = 0; i < sessions; ++i) {
      serve::SessionRequest req;
      req.tenant = "tenant-" + std::to_string(i % 4);
      req.cls = serve::TenantClass::kBatch;
      req.benchmark = drift_name;
      req.model = core::ModelKind::kElm;
      req.engine = core::EngineKind::kMlMiaow;
      req.arrival_ps = static_cast<sim::Picoseconds>(i) * 3 * sim::kPsPerMs;
      req.seed = 2026 + 101 * i;
      req.attacks = attacks;
      reqs.push_back(std::move(req));
    }
    return reqs;
  };
  const auto run_fleet = [&](const core::EnsembleParams& ep, double* wall_ms) {
    serve::ServiceConfig cfg = scfg;
    cfg.ensemble = ep;
    serve::Service service(cfg, cache);
    const auto t0 = std::chrono::steady_clock::now();
    serve::ServiceReport rep = service.run(make_requests());
    *wall_ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    return rep;
  };
  double serve_off_wall_ms = 0.0;
  double serve_on_wall_ms = 0.0;
  const serve::ServiceReport serve_off =
      run_fleet(core::EnsembleParams{}, &serve_off_wall_ms);
  core::EnsembleParams serve_params = base_params;
  serve_params.size = 3;
  const serve::ServiceReport serve_on =
      run_fleet(serve_params, &serve_on_wall_ms);
  const bool serve_ok = serve_on.sessions_completed ==
                            serve_off.sessions_completed &&
                        serve_on.ensemble_swaps > 0 &&
                        serve_on.generations_trained > 0;
  if (!serve_ok) {
    std::cerr << "ensemble_drift: FAIL — ensemble fleet lost sessions or "
                 "never retrained\n";
  }
  const bool ok = fp_gate_ok && identity_ok && serve_ok;

  // --- stdout report (deterministic) ---
  std::cout << "Workload: " << drift_name << " (period "
            << kDriftPeriodUs / 1000 << " ms, " << kDriftPhases
            << " phases), " << attacks << " attack(s) per session\n";
  std::cout << "Frozen baseline: " << frozen_result.false_positives
            << " FPs over " << frozen_result.inferences << " inferences ("
            << core::fmt(100.0 * fp_rate(frozen_result), 2) << "%)\n\n";
  core::Table table({"Size", "FPs", "FP rate", "flags", "overrides",
                     "swaps", "evals", "gens", "inferences"});
  for (const SizeRow& row : rows) {
    const auto& r = row.result;
    table.add_row({core::fmt_count(row.size),
                   core::fmt_count(r.false_positives),
                   core::fmt(100.0 * fp_rate(r), 2) + "%",
                   core::fmt_count(r.consensus_flags),
                   core::fmt_count(r.consensus_overrides),
                   core::fmt_count(r.ensemble_swaps),
                   core::fmt_count(r.member_evals),
                   core::fmt_count(row.generations_trained),
                   core::fmt_count(r.inferences)});
  }
  table.print(std::cout);
  std::cout << "\nServe fleet (" << sessions << " sessions, 2x2): ensemble "
            << "off completed " << serve_off.sessions_completed
            << ", on completed " << serve_on.sessions_completed << ", "
            << serve_on.generations_trained << " generation(s) trained, "
            << serve_on.ensemble_swaps << " swap(s), "
            << serve_on.consensus_overrides << " override(s)\n";
  std::cout << "Gates: " << (ok ? "PASS" : "FAIL") << "\n";
  std::cerr << "ensemble_drift: serve wall off "
            << core::fmt(serve_off_wall_ms, 1) << " ms, on "
            << core::fmt(serve_on_wall_ms, 1) << " ms (retrain wall "
            << core::fmt(static_cast<double>(serve_on.retrain_wall_ns) / 1e6,
                         1)
            << " ms)\n";

  // --- JSON artifact: deterministic body, host-dependent timings isolated
  // in the trailing "host" object ---
  {
    std::ofstream js(json_path);
    obs::JsonWriter json(js);
    json.begin_object();
    json.field("schema", "rtad.ensemble.bench.v1");
    json.field("benchmark", drift_name);
    json.field("attacks_per_session", static_cast<std::uint64_t>(attacks));
    json.key("drift").begin_object();
    json.field("period_us", kDriftPeriodUs);
    json.field("phases", static_cast<std::uint64_t>(kDriftPhases));
    json.field("syscall_rotate", static_cast<std::uint64_t>(kSyscallRotate));
    json.field("retrain_us", kDriftPeriodUs);
    json.end_object();
    json.key("frozen").begin_object();
    json.field("false_positives", frozen_result.false_positives);
    json.field("inferences", frozen_result.inferences);
    json.field("fp_rate", fp_rate(frozen_result));
    json.end_object();
    json.key("sizes").begin_array();
    for (const SizeRow& row : rows) {
      const auto& r = row.result;
      json.begin_object();
      json.field("size", static_cast<std::uint64_t>(row.size));
      json.field("false_positives", r.false_positives);
      json.field("fp_rate", fp_rate(r));
      json.field("consensus_flags", r.consensus_flags);
      json.field("consensus_overrides", r.consensus_overrides);
      json.field("ensemble_swaps", r.ensemble_swaps);
      json.field("member_evals", r.member_evals);
      json.field("generations_trained", row.generations_trained);
      json.field("retrain_work_units", row.retrain_work_units);
      json.field("inferences", r.inferences);
      json.field("simulated_ps", r.simulated_ps);
      json.field("score_digest", r.score_digest);
      json.end_object();
    }
    json.end_array();
    json.key("zero_drift_identity").begin_object();
    json.field("pass", identity_ok);
    json.field("frozen_digest", still_base.score_digest);
    json.field("ensemble_digest", inert_result.score_digest);
    json.field("ensemble_swaps", inert_result.ensemble_swaps);
    json.end_object();
    json.key("serve").begin_object();
    json.field("sessions", static_cast<std::uint64_t>(sessions));
    json.field("completed_off", serve_off.sessions_completed);
    json.field("completed_on", serve_on.sessions_completed);
    json.field("generations_trained", serve_on.generations_trained);
    json.field("ensemble_swaps", serve_on.ensemble_swaps);
    json.field("consensus_flags", serve_on.consensus_flags);
    json.field("consensus_overrides", serve_on.consensus_overrides);
    json.field("member_evals", serve_on.member_evals);
    json.field("retrain_work_units", serve_on.retrain_work_units);
    json.end_object();
    json.field("gates_pass", ok);
    // Host-dependent wall-clock lives in this one trailing object; strip
    // it (json.pop("host")) before any byte comparison.
    json.key("host").begin_object();
    for (const SizeRow& row : rows) {
      json.field("size_" + std::to_string(row.size) + "_wall_ms",
                 row.wall_ms);
    }
    json.field("serve_off_wall_ms", serve_off_wall_ms);
    json.field("serve_on_wall_ms", serve_on_wall_ms);
    json.field("retrain_wall_ms",
               static_cast<double>(serve_on.retrain_wall_ns) / 1e6);
    json.end_object();
    json.end_object();
    js << '\n';
  }
  std::cerr << "ensemble_drift: wrote " << json_path << "\n";
  return ok ? 0 : 1;
}

int main() { return bench::run("ensemble_drift", run_ensemble); }
