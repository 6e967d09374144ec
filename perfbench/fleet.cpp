// fleet: serve::Service with interactive-LSTM and batch-ELM tenants on a
// drifting 456.hmmer, mixed PFT/E-Trace hosts, under a seeded crash/wedge
// storm with a size-3 rolling ensemble retraining on the shared pool, at a
// fixed grid of offered loads on the simulated-clock open loop. An
// operation is an offered session; its output is the session's verdict
// digest (admission fate, simulated timing and detection result).
#include <algorithm>
#include <memory>
#include <thread>

#include "layers.hpp"
#include "rtad/core/experiment_runner.hpp"
#include "rtad/serve/service.hpp"
#include "rtad/sim/rng.hpp"

namespace perfbench {

using namespace rtad;

namespace {

constexpr const char* kBase = "456.hmmer";
constexpr const char* kDrift = "456.hmmer-drift";
/// Ensemble retrain cadence and drift phase length, simulated us. Every
/// arrival falls in generation 0, so each pass retrains generation 1 of
/// both model kinds on the shared pool (prefetched at dispatch) and the
/// sessions that outlive the cadence roll onto it.
constexpr std::uint64_t kRetrainUs = 300'000;
constexpr std::size_t kTenants = 6;  ///< every third tenant is batch
constexpr std::size_t kAttacks = 1;  ///< attack rounds per session

struct LoadPoint {
  double load;  ///< offered load relative to the fleet's lane capacity
  std::size_t sessions;
};
/// One point below saturation, one far above it.
constexpr LoadPoint kGrid[] = {{0.5, 12}, {8.0, 28}};

/// Mean simulated service time of the request mix (2/3 interactive LSTM,
/// 1/3 batch ELM episodes), fixed so the arrival schedule is an input of
/// the benchmark rather than a function of the program under test.
constexpr double kServiceUs = 33'000.0;
/// Interactive sojourn p90 a load point must meet to count as sustainable.
constexpr double kSloUs = 300'000.0;
constexpr std::size_t kSetupReps = 2;

workloads::SpecProfile resolve(const std::string& name) {
  workloads::SpecProfile p =
      workloads::find_profile(name == kDrift ? kBase : name);
  if (name == kDrift) {
    p.name = kDrift;
    p.drift.period_us = kRetrainUs;
    p.drift.phases = 4;
    p.drift.syscall_rotate = 7;
  }
  return p;
}

serve::ServiceConfig fleet_config() {
  serve::ServiceConfig cfg;
  cfg.proto = serve::FleetProtocol::kMixed;
  fault::ServeFaultPlan& storm = cfg.serve_faults;
  storm.shard_crash = 0.5;
  storm.lane_wedge = 0.25;
  storm.crash_epoch_us = 6'000;
  storm.crash_downtime_us = 2'000;
  storm.wedge_us = 3'000;
  storm.horizon_us = 120'000;
  storm.max_events = 3;
  cfg.ensemble.size = 3;
  cfg.ensemble.retrain_ps = kRetrainUs * sim::kPsPerUs;
  return cfg;
}

std::size_t fleet_jobs(const serve::ServiceConfig& cfg) {
  const std::size_t lanes = cfg.shards * cfg.lanes;
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1,
                                 lanes);
}

/// A grid whose overload point cannot overflow the fleet's queues measures
/// no shedding, and one without a point below saturation has no latency
/// baseline: both are bad configurations, not results.
void refuse_unfit_grid(const serve::ServiceConfig& cfg) {
  const std::size_t room = cfg.shards * (cfg.queue_capacity + cfg.lanes);
  const LoadPoint& over = kGrid[std::size(kGrid) - 1];
  if (over.sessions <= room || over.load <= 1.0) {
    throw Refusal("fleet-overload-cannot-shed",
                  "overload point offers " + std::to_string(over.sessions) +
                      " sessions, within shards x (queue + lanes) = " +
                      std::to_string(room));
  }
  if (kGrid[0].load >= 1.0) {
    throw Refusal("fleet-no-unsaturated-point",
                  "the lowest grid load is not below saturation");
  }
}

std::vector<serve::SessionRequest> schedule(const serve::ServiceConfig& cfg,
                                            std::size_t point,
                                            std::uint64_t seed) {
  const LoadPoint& p = kGrid[point];
  const double lanes = static_cast<double>(cfg.shards * cfg.lanes);
  const double mean_gap_ps =
      kServiceUs * static_cast<double>(sim::kPsPerUs) / (p.load * lanes);
  sim::Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL + point);
  std::vector<serve::SessionRequest> out;
  sim::Picoseconds at = 0;
  for (std::size_t i = 0; i < p.sessions; ++i) {
    at += std::max<sim::Picoseconds>(
        1, static_cast<sim::Picoseconds>(mean_gap_ps * (0.5 + rng.uniform())));
    const std::size_t t = i % kTenants;
    serve::SessionRequest req;
    req.tenant = "tenant-" + std::to_string(t);
    req.cls = t % 3 == 2 ? serve::TenantClass::kBatch
                         : serve::TenantClass::kInteractive;
    req.model = req.cls == serve::TenantClass::kBatch ? core::ModelKind::kElm
                                                      : core::ModelKind::kLstm;
    req.benchmark = kDrift;
    req.arrival_ps = at;
    req.seed = seed * 1000 + point * 100 + i;
    req.attacks = kAttacks;
    out.push_back(std::move(req));
  }
  return out;
}

/// The fleet configuration, its worker count and the grid's arrival
/// schedules for one seed.
struct Fleet {
  serve::ServiceConfig cfg = fleet_config();
  std::size_t jobs = 0;
  std::vector<std::vector<serve::SessionRequest>> grid;
};

Fleet make_fleet(std::uint64_t seed) {
  Fleet f;
  refuse_unfit_grid(f.cfg);
  f.jobs = fleet_jobs(f.cfg);
  for (std::size_t li = 0; li < std::size(kGrid); ++li) {
    f.grid.push_back(schedule(f.cfg, li, input_seed(seed)));
  }
  return f;
}

std::uint64_t session_digest(const serve::SessionOutcome& o) {
  Digest d;
  d.add(o.request.ticket)
      .add(static_cast<std::uint64_t>(o.shed))
      .add(static_cast<std::uint64_t>(o.degraded))
      .add(static_cast<std::uint64_t>(o.recovered))
      .add(o.start_ps)
      .add(o.completion_ps)
      .add(o.sojourn_ps);
  if (!o.shed) d.add(verdict_digest(o.detection));
  return d.value();
}

/// Every load point served once by one Service (fresh ensemble
/// generations), each Service::run timed.
struct Pass {
  std::vector<serve::ServiceReport> reports;
  std::vector<double> run_s;
  double total_s() const {
    double s = 0.0;
    for (const double v : run_s) s += v;
    return s;
  }
};

Pass run_pass(serve::Service& service,
              const std::vector<std::vector<serve::SessionRequest>>& grid) {
  Pass p;
  for (const auto& requests : grid) {
    const auto t0 = Clock::now();
    p.reports.push_back(service.run(requests));
    p.run_s.push_back(seconds_since(t0));
  }
  return p;
}

void add_checks(Result& r, const Pass& p) {
  for (std::size_t li = 0; li < p.reports.size(); ++li) {
    for (const auto& o : p.reports[li].outcomes) {
      r.checks.push_back({"p" + std::to_string(li) + ".t" +
                              std::to_string(o.request.ticket),
                          session_digest(o), 1, std::nullopt});
      ++r.attempted;
    }
  }
}

std::uint64_t pass_digest(const Pass& p) {
  Digest d;
  for (const auto& rep : p.reports) {
    for (const auto& o : rep.outcomes) d.add(session_digest(o));
  }
  return d.value();
}

std::uint64_t branches_of(const Pass& p) {
  std::uint64_t n = 0;
  for (const auto& rep : p.reports) {
    for (const auto& o : rep.outcomes) {
      if (!o.shed) n += o.detection.trace_events_traced;
    }
  }
  return n;
}

/// Requests in the grid (ServiceReport::sessions_offered also counts
/// retry and failover re-offers, which vary with the seed).
std::uint64_t requests_of(const Pass& p) {
  std::uint64_t n = 0;
  for (const auto& rep : p.reports) n += rep.outcomes.size();
  return n;
}

/// Below saturation nothing may be shed: a point that sheds there is
/// measuring a misconfigured fleet.
void refuse_shedding_below_saturation(const Pass& p) {
  for (std::size_t li = 0; li < p.reports.size(); ++li) {
    if (kGrid[li].load < 1.0 && p.reports[li].sessions_shed != 0) {
      throw Refusal("fleet-sheds-below-saturation",
                    "load " + std::to_string(kGrid[li].load) + " shed " +
                        std::to_string(p.reports[li].sessions_shed) +
                        " sessions");
    }
  }
}

void report_fleet(Result& r, const Pass& p) {
  const serve::ClassSlo& low = p.reports[0].interactive;
  r.note("sim_sojourn_us_p50", low.sojourn_us.percentile(50), "us");
  r.note("sim_sojourn_us_p90", low.sojourn_us.percentile(90), "us");
  r.note("sim_sojourn_samples", static_cast<double>(low.sojourn_us.count()),
         "count");
  double sustainable = 0.0;
  sim::Sampler recovery;
  std::uint64_t attacks = 0, detections = 0, false_positives = 0;
  for (std::size_t li = 0; li < p.reports.size(); ++li) {
    const serve::ServiceReport& rep = p.reports[li];
    if (rep.sessions_shed == 0 &&
        rep.interactive.sojourn_us.percentile(90) <= kSloUs) {
      sustainable = std::max(sustainable, kGrid[li].load);
    }
    recovery.merge(rep.recovery_latency_us);
    for (const auto& o : rep.outcomes) {
      if (o.shed) continue;
      attacks += o.detection.attacks;
      detections += o.detection.detections;
      false_positives += o.detection.false_positives;
    }
    r.note("sessions_shed.p" + std::to_string(li),
           static_cast<double>(rep.sessions_shed), "count");
  }
  r.note("sim_sustainable_load", sustainable, "load");
  r.note("sim_recovery_us_p90", recovery.percentile(90), "us");
  r.note("sim_recovery_samples", static_cast<double>(recovery.count()),
         "count");
  r.note("detection_rate",
         attacks == 0 ? 0.0
                      : static_cast<double>(detections) /
                            static_cast<double>(attacks),
         "ratio");
  r.note("false_positives", static_cast<double>(false_positives), "count");
}

Result run_untraced(const Args& args) {
  Result r;
  const Fleet fleet = make_fleet(args.seed);
  const serve::ServiceConfig& cfg = fleet.cfg;
  const std::size_t jobs = fleet.jobs;
  const auto& grid = fleet.grid;

  std::shared_ptr<core::TrainedModelCache> cache;
  std::unique_ptr<serve::Service> service;
  const auto setup = [&] {
    service.reset();
    cache.reset();
    cache = std::make_shared<core::TrainedModelCache>(core::TrainingOptions{},
                                                      resolve);
    cache->get(kDrift);
    service = std::make_unique<serve::Service>(cfg, cache, jobs);
  };
  // One pass over the grid, each on a fresh Service so every pass retrains
  // the same ensemble generations; a set-up leaves the first one built.
  std::vector<double> sessions_per_s;
  std::vector<double> branches_per_s;
  Pass first;
  const auto pass = [&] {
    if (!service) service = std::make_unique<serve::Service>(cfg, cache, jobs);
    Pass p = run_pass(*service, grid);
    service.reset();
    refuse_shedding_below_saturation(p);
    const double wall_s = p.total_s();
    sessions_per_s.push_back(static_cast<double>(requests_of(p)) / wall_s);
    branches_per_s.push_back(static_cast<double>(branches_of(p)) / wall_s);
    add_checks(r, p);
    if (sessions_per_s.size() == 1) first = std::move(p);
    return wall_s;
  };
  const std::vector<double> setup_s =
      alternate(kSetupReps, args.seconds, setup, pass);

  r.metric("setup_s", median(setup_s), "s");
  r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  r.metric("items_per_s", median(sessions_per_s), "1/s");
  r.note("branches_per_s", median(branches_per_s), "1/s");
  report_fleet(r, first);
  for (std::size_t li = 0; li < first.run_s.size(); ++li) {
    r.note("run_s.p" + std::to_string(li), first.run_s[li], "s");
  }
  r.note("passes", static_cast<double>(sessions_per_s.size()), "count");
  r.note("workers", static_cast<double>(jobs), "count");
  return r;
}

void add_serve_layers(Result& r, const Pass& traced, double scaling) {
  std::uint64_t shed = 0, rounds = 0, checkpoints = 0, parked_hwm = 0;
  std::uint64_t member_evals = 0;
  sim::Picoseconds replay_ps = 0;
  sim::Sampler depth;
  for (const auto& rep : traced.reports) {
    shed += rep.sessions_shed;
    rounds += rep.failover_rounds;
    checkpoints += rep.checkpoints;
    parked_hwm = std::max(parked_hwm, rep.parked_bytes_hwm);
    replay_ps += rep.recovery_replay_ps;
    depth.merge(rep.queue_depth);
    member_evals += rep.member_evals;
  }
  // The ensemble manager's counters are cumulative over the Service.
  const serve::ServiceReport& last = traced.reports.back();
  const double retrain_s = static_cast<double>(last.retrain_wall_ns) * 1e-9;
  const std::uint64_t generations = last.generations_trained;
  r.metric("serve.run_s", traced.total_s(), "s");
  r.metric("serve.worker_scaling", scaling, "ratio");
  r.metric("serve.sessions_shed", static_cast<double>(shed), "count");
  r.metric("serve.queue_depth_mean", depth.mean(), "count");
  r.metric("serve.failover_rounds", static_cast<double>(rounds), "count");
  r.metric("serve.checkpoints", static_cast<double>(checkpoints), "count");
  r.metric("serve.parked_bytes_hwm", static_cast<double>(parked_hwm), "B");
  r.metric("serve.sim_recovery_replay_ms",
           static_cast<double>(replay_ps) / static_cast<double>(sim::kPsPerMs),
           "ms");
  r.metric("ensemble.retrain_s", retrain_s, "s");
  r.metric("ensemble.generations_trained", static_cast<double>(generations),
           "count");
  r.metric("ensemble.member_evals", static_cast<double>(member_evals),
           "count");
}

/// The fleet's own telemetry store (below-saturation point): its samples
/// re-ingested into a fresh store of the same shape time append(); the
/// ranked queries and series run against the fleet's store.
void add_fleet_telemetry(Result& r, const telemetry::TelemetryStore& store) {
  std::vector<std::pair<std::string, std::vector<telemetry::SeriesPoint>>>
      streams;
  std::uint64_t samples = 0;
  for (const auto& [tenant, stream] : store.streams()) {
    auto s = telemetry::series(store, tenant, 0, 0, ~sim::Picoseconds{0});
    samples += s.points.size();
    streams.emplace_back(tenant, std::move(s.points));
  }
  telemetry::TelemetryStore fresh(store.config());
  const auto t0 = Clock::now();
  for (const auto& [tenant, points] : streams) {
    for (const auto& pt : points) {
      fresh.append(tenant, {pt.at_ps, pt.score, pt.flagged, pt.health});
    }
  }
  const double append_ns = samples == 0 ? 0.0
                                         : seconds_since(t0) * 1e9 /
                                               static_cast<double>(samples);

  // The fleet's operations are its sessions (already checked); these
  // queries are timed only, their digests are not part of the reference.
  const auto shapes = query_shapes(store);
  QueryCosts costs;
  std::vector<std::string> tenants;
  for (const auto& [tenant, points] : streams) tenants.push_back(tenant);
  Result unchecked;
  run_queries(unchecked, store, shapes, tenants, costs);
  add_telemetry_layers(r, store, shapes, append_ns, costs);
}

Result run_traced(const Args& args) {
  Result r;
  const Fleet fleet = make_fleet(args.seed);
  const serve::ServiceConfig& cfg = fleet.cfg;
  const auto& grid = fleet.grid;
  const workloads::SpecProfile profile = resolve(kDrift);
  const TrainingCosts training = train_traced(profile);
  auto cache = std::make_shared<core::TrainedModelCache>(
      core::TrainingOptions{}, resolve);
  cache->get(kDrift);

  const auto pass_with = [&](std::size_t workers) {
    serve::Service service(cfg, cache, workers);
    return run_pass(service, grid);
  };
  const Pass untraced = pass_with(fleet.jobs);
  const Pass traced = pass_with(fleet.jobs);
  const Pass serial = pass_with(1);
  refuse_shedding_below_saturation(traced);
  add_checks(r, traced);
  r.sim_identical = pass_digest(untraced) == pass_digest(traced) &&
                    pass_digest(serial) == pass_digest(traced);

  // The first interactive request of the below-saturation point, run as a
  // standalone session (no ensemble) through the pipeline probes.
  const serve::SessionRequest& req = grid[0][0];
  core::DetectionOptions opts = cfg.detection;
  opts.attacks = req.attacks;
  opts.seed = req.seed;
  opts.proto = serve::tenant_protocol(req.tenant);
  const core::DetectionResult one_shot =
      run_one_shot(profile, training.models, req.model, req.engine, opts);
  const SessionCosts session =
      trace_session(profile, training.models, req.model, req.engine, opts,
                    cfg.quantum_ps, cfg.checkpoint_every);
  r.sim_identical = r.sim_identical &&
                    verdict_digest(one_shot) == verdict_digest(session.result);
  const StreamCosts stream =
      replay_stream(profile, opts.seed, opts.proto, req.model,
                    *training.models.features, one_shot.trace_events_traced);
  const GpuCosts gpu = probe_gpu(training.models.image(req.model), req.engine,
                                 stream.vectors, 40);
  add_pipeline_layers(r, training, stream, gpu, session, one_shot);
  add_serve_layers(r, traced, serial.total_s() / traced.total_s());
  add_fleet_telemetry(r, *traced.reports[0].telemetry);
  r.metric("bench.trace_overhead", traced.total_s() / untraced.total_s(),
           "ratio");
  report_fleet(r, traced);
  return r;
}

}  // namespace

Result run_fleet(const Args& args) {
  return args.trace ? run_traced(args) : run_untraced(args);
}

}  // namespace perfbench
