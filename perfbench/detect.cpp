// detect_lstm / detect_elm: one core::DetectionSession on 456.hmmer over
// kAttacks attack rounds — the ROADMAP baseline cell (LSTM on MIAOW over
// PFT) and its GPU-bound twin (ELM on MIAOW over E-Trace). An operation is
// an attack round; its output is the episode's verdict digest.
#include <memory>

#include "layers.hpp"
#include "rtad/core/experiment_runner.hpp"
#include "rtad/serve/service.hpp"

namespace perfbench {

using namespace rtad;

namespace {

constexpr const char* kBenchmark = "456.hmmer";
constexpr std::size_t kAttacks = 8;
/// Each set-up trains both models (~8 s), so a run sets up twice and
/// reports the median.
constexpr std::size_t kSetupReps = 2;
/// Offline inferences timed by the traced run's GPU probe.
constexpr std::size_t kGpuProbeInferences = 40;

struct Cell {
  core::ModelKind model;
  core::EngineKind engine;
  trace::TraceProtocol proto;
};

Cell cell_for(const std::string& workload) {
  if (workload == "detect_lstm") {
    return {core::ModelKind::kLstm, core::EngineKind::kMiaow,
            trace::TraceProtocol::kPft};
  }
  return {core::ModelKind::kElm, core::EngineKind::kMiaow,
          trace::TraceProtocol::kEtrace};
}

core::DetectionOptions options_for(const Cell& cell, std::uint64_t seed) {
  core::DetectionOptions o;
  o.attacks = kAttacks;
  o.seed = input_seed(seed);
  o.proto = cell.proto;
  return o;
}

void add_checks(Result& r, const core::DetectionResult& res,
                std::uint64_t seed) {
  r.checks.push_back({"episode", verdict_digest(res), res.attacks,
                      seed % kSeedPool});
  r.attempted += res.attacks;
}

void report_episode(Result& r, const core::DetectionResult& res) {
  r.note("sim_detect_latency_us_mean", res.mean_latency_us, "us");
  r.note("sim_detect_latency_us_max", res.max_latency_us, "us");
  r.note("detection_rate",
         static_cast<double>(res.detections) /
             static_cast<double>(res.attacks),
         "ratio");
  r.note("false_positives", static_cast<double>(res.false_positives),
         "count");
  r.note("missed_attacks", static_cast<double>(res.attacks - res.detections),
         "count");
}

Result run_untraced(const Args& args, const Cell& cell) {
  Result r;
  std::shared_ptr<core::TrainedModelCache> cache;
  std::unique_ptr<core::DetectionSession> session;
  workloads::SpecProfile profile;
  // Episode k replays pool entry (seed + k) mod kSeedPool, so the run's
  // median mixes several inputs and leans less on one episode's content.
  std::uint64_t next_seed = args.seed;
  const auto construct = [&] {
    session = std::make_unique<core::DetectionSession>(
        profile, cache->get(kBenchmark), cell.model, cell.engine,
        options_for(cell, next_seed));
  };
  const auto setup = [&] {
    session.reset();
    cache.reset();
    cache = std::make_shared<core::TrainedModelCache>();
    profile = cache->profile(kBenchmark);
    construct();
  };
  // One whole episode; a set-up leaves the next one constructed.
  std::vector<double> branches_per_s;
  core::DetectionResult first;
  const auto episode = [&] {
    if (!session) construct();
    const auto t0 = Clock::now();
    session->run_to_completion();
    const double dt = seconds_since(t0);
    const core::DetectionResult& res = session->result();
    branches_per_s.push_back(static_cast<double>(res.trace_events_traced) /
                             dt);
    add_checks(r, res, next_seed++);
    if (branches_per_s.size() == 1) first = res;
    session.reset();
    return dt;
  };
  const std::vector<double> setup_s =
      alternate(kSetupReps, args.seconds, setup, episode);

  r.metric("setup_s", median(setup_s), "s");
  r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  r.metric("items_per_s", median(branches_per_s), "1/s");
  r.note("branches_per_s", median(branches_per_s), "1/s");
  report_episode(r, first);
  r.note("episodes", static_cast<double>(branches_per_s.size()), "count");
  return r;
}

Result run_traced(const Args& args, const Cell& cell) {
  Result r;
  const core::DetectionOptions opts = options_for(cell, args.seed);
  const workloads::SpecProfile& profile = workloads::find_profile(kBenchmark);
  const TrainingCosts training = train_traced(profile);
  const core::TrainedModels& models = training.models;

  // A warm-up episode, the traced pass (at the fleet's quantum and
  // checkpoint cadence), then the same episode one-shot with nothing timed
  // inside it: the trace overhead compares two warm passes.
  const core::DetectionResult warmup =
      run_one_shot(profile, models, cell.model, cell.engine, opts);
  const serve::ServiceConfig fleet_defaults;
  const SessionCosts session =
      trace_session(profile, models, cell.model, cell.engine, opts,
                    fleet_defaults.quantum_ps,
                    fleet_defaults.checkpoint_every);
  double untraced_s = 0.0;
  const core::DetectionResult untraced = run_one_shot(
      profile, models, cell.model, cell.engine, opts, &untraced_s);
  for (const auto* res : {&warmup, &session.result, &untraced}) {
    add_checks(r, *res, args.seed);
  }
  r.sim_identical =
      verdict_digest(untraced) == verdict_digest(session.result);

  const StreamCosts stream =
      replay_stream(profile, opts.seed, cell.proto, cell.model,
                    *models.features, untraced.trace_events_traced);
  const GpuCosts gpu = probe_gpu(models.image(cell.model), cell.engine,
                                 stream.vectors, kGpuProbeInferences);
  add_pipeline_layers(r, training, stream, gpu, session, untraced);
  r.metric("bench.trace_overhead", session.wall_s / untraced_s, "ratio");
  r.absent_layers = {"serve", "ensemble", "telemetry"};
  report_episode(r, untraced);
  return r;
}

}  // namespace

Result run_detect(const Args& args) {
  const Cell cell = cell_for(args.workload);
  return args.trace ? run_traced(args, cell) : run_untraced(args, cell);
}

}  // namespace perfbench
