// Serving-layer regression suite.
//
// The two headline contracts:
//   1. A chunk-fed DetectionSession is byte-identical to the one-shot
//      measure_detection path — for any chunk size, under both scheduler
//      kernels (score digest, latencies, health counters, simulated time).
//   2. The Service report (and its rtad.serve.v2 JSON) is byte-identical
//      for any worker count and any advance() quantum.
// Plus unit coverage for admission control (shed / degrade / watermark)
// and the stable tenant → shard routing.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "rtad/core/detection_session.hpp"
#include "rtad/core/experiment_runner.hpp"
#include "rtad/serve/service.hpp"
#include "rtad/telemetry/query.hpp"

namespace rtad::serve {
namespace {

workloads::SpecProfile fast_profile(const std::string& name) {
  auto p = workloads::find_profile(name);
  p.syscall_interval_instrs = 40'000;  // keep sim time short
  return p;
}

core::TrainingOptions fast_training() {
  core::TrainingOptions opt;
  opt.lstm_train_tokens = 2'500;
  opt.lstm_val_tokens = 700;
  opt.elm_train_windows = 250;
  opt.elm_val_windows = 80;
  opt.lstm.epochs = 2;
  return opt;
}

std::shared_ptr<core::TrainedModelCache> shared_cache() {
  static const auto cache = std::make_shared<core::TrainedModelCache>(
      fast_training(),
      [](const std::string& name) { return fast_profile(name); });
  return cache;
}

/// Every deterministic DetectionResult field. The sim.skipped* diagnostics
/// are deliberately absent: chunk boundaries change how the event kernel
/// *groups* its skips (never what any component computes), so they are the
/// one mode-dependent quantity — same exclusion the metrics export makes.
void expect_identical(const core::DetectionResult& a,
                      const core::DetectionResult& b) {
  EXPECT_EQ(a.benchmark, b.benchmark);
  EXPECT_EQ(a.attacks, b.attacks);
  EXPECT_EQ(a.detections, b.detections);
  EXPECT_EQ(a.mean_latency_us, b.mean_latency_us);
  EXPECT_EQ(a.min_latency_us, b.min_latency_us);
  EXPECT_EQ(a.max_latency_us, b.max_latency_us);
  EXPECT_EQ(a.fifo_drops, b.fifo_drops);
  EXPECT_EQ(a.false_positives, b.false_positives);
  EXPECT_EQ(a.inferences, b.inferences);
  EXPECT_EQ(a.score_digest, b.score_digest);
  EXPECT_EQ(a.simulated_ps, b.simulated_ps);
  EXPECT_EQ(a.trace_bytes_corrupted, b.trace_bytes_corrupted);
  EXPECT_EQ(a.decode_bad_packets, b.decode_bad_packets);
  EXPECT_EQ(a.decode_resyncs, b.decode_resyncs);
  EXPECT_EQ(a.ta_dropped_branches, b.ta_dropped_branches);
  EXPECT_EQ(a.mcm_recoveries, b.mcm_recoveries);
  EXPECT_EQ(a.mcm_stalls_injected, b.mcm_stalls_injected);
  EXPECT_EQ(a.irqs_lost, b.irqs_lost);
  EXPECT_EQ(a.bus_errors, b.bus_errors);
  EXPECT_EQ(a.bus_fault_cycles, b.bus_fault_cycles);
  EXPECT_EQ(a.fault_events, b.fault_events);
}

core::DetectionOptions session_options(sim::SchedMode sched) {
  core::DetectionOptions opt;
  opt.attacks = 2;
  opt.sched = sched;
  opt.trace_path.clear();
  opt.metrics_path.clear();
  return opt;
}

TEST(DetectionSession, ChunkFedMatchesOneShotUnderBothKernels) {
  auto cache = shared_cache();
  const auto profile = cache->profile("astar");
  const auto& models = cache->get("astar");

  for (const auto sched :
       {sim::SchedMode::kDense, sim::SchedMode::kEventDriven}) {
    SCOPED_TRACE(sched == sim::SchedMode::kDense ? "dense" : "event");
    const auto opt = session_options(sched);
    const auto one_shot = core::measure_detection(
        profile, models, core::ModelKind::kLstm, core::EngineKind::kMlMiaow,
        opt);

    for (const sim::Picoseconds chunk :
         {700 * sim::kPsPerUs, 3 * sim::kPsPerMs}) {
      SCOPED_TRACE("chunk_us=" + std::to_string(chunk / sim::kPsPerUs));
      core::DetectionSession session(profile, models, core::ModelKind::kLstm,
                                     core::EngineKind::kMlMiaow, opt);
      EXPECT_THROW(session.result(), std::logic_error);
      std::size_t chunks = 0;
      sim::Picoseconds last_now = 0;
      std::uint64_t last_inferences = 0;
      while (session.advance(chunk)) {
        ++chunks;
        // Streaming polls are valid (and monotone) at every boundary.
        EXPECT_GE(session.now(), last_now);
        EXPECT_GE(session.inferences(), last_inferences);
        last_now = session.now();
        last_inferences = session.inferences();
      }
      EXPECT_TRUE(session.done());
      EXPECT_GT(chunks, 1u) << "chunk so large the run was one-shot anyway";
      EXPECT_EQ(session.attacks_completed(), opt.attacks);
      expect_identical(session.result(), one_shot);
      EXPECT_GE(session.anomaly_flags(), one_shot.detections);
      EXPECT_GT(session.irqs_fired(), 0u);
    }
  }
}

std::vector<SessionRequest> sample_requests() {
  // Four tenants, mixed classes/models, arrivals tight enough that lanes
  // contend and the queue is exercised.
  std::vector<SessionRequest> reqs;
  for (std::size_t i = 0; i < 5; ++i) {
    SessionRequest r;
    r.tenant = "tenant-" + std::to_string(i % 4);
    r.cls = i % 4 == 3 ? TenantClass::kBatch : TenantClass::kInteractive;
    r.benchmark = "astar";
    r.model = r.cls == TenantClass::kBatch ? core::ModelKind::kElm
                                           : core::ModelKind::kLstm;
    r.arrival_ps = (1 + i) * 2 * sim::kPsPerMs;
    r.seed = 17 + 31 * i;
    r.attacks = 1;
    reqs.push_back(std::move(r));
  }
  return reqs;
}

std::string report_json(const ServiceConfig& cfg,
                        const ServiceReport& report) {
  std::ostringstream os;
  write_serve_json(os, cfg, report);
  return os.str();
}

TEST(Service, ReportIdenticalAcrossWorkerCountsAndQuantum) {
  auto cache = shared_cache();
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.lanes = 1;
  cfg.queue_capacity = 4;
  cfg.detection.trace_path.clear();
  cfg.detection.metrics_path.clear();

  auto run_with = [&](std::size_t jobs, sim::Picoseconds quantum) {
    ServiceConfig c = cfg;
    c.quantum_ps = quantum;
    Service service(c, cache, jobs);
    return report_json(c, service.run(sample_requests()));
  };

  const auto serial = run_with(1, 2 * sim::kPsPerMs);
  const auto parallel = run_with(8, 2 * sim::kPsPerMs);
  EXPECT_EQ(serial, parallel) << "worker count leaked into the serve report";

  // The quantum echoes in the config section; results must not move. The
  // telemetry section is the one deliberate exception — it samples once
  // per quantum, which is why it sits last in the document: everything
  // before it (fleet counters, SLOs, depth distribution) must be
  // quantum-invariant, so compare that prefix.
  const auto fine = run_with(1, 700 * sim::kPsPerUs);
  const auto invariant = [](const std::string& s) {
    const auto from = s.find("\"fleet\"");
    const auto to = s.find("\"telemetry\"");
    EXPECT_NE(from, std::string::npos);
    EXPECT_NE(to, std::string::npos);
    return s.substr(from, to - from);
  };
  EXPECT_EQ(invariant(serial), invariant(fine))
      << "advance() quantum leaked into results";
}

TEST(Service, TelemetrySectionIsOrderedAndJobsInvariant) {
  auto cache = shared_cache();
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.lanes = 1;
  cfg.queue_capacity = 8;
  cfg.detection.trace_path.clear();
  cfg.detection.metrics_path.clear();

  Service service(cfg, cache, 1);
  const auto report = service.run(sample_requests());
  ASSERT_TRUE(report.telemetry);
  const telemetry::TelemetryStore& tel = *report.telemetry;

  // Every completed session left a stream; streams tick on the stream
  // clock (origin arrival + session time), non-decreasing per tenant (a
  // tenant's concurrent sessions may tick the same instant — distinct
  // tickets keep both samples).
  EXPECT_EQ(tel.tenants(), 4u);
  EXPECT_GT(tel.samples(), 0u);
  for (const auto& [tenant, stream] : tel.streams()) {
    const auto series =
        telemetry::series(tel, tenant, 0, 0, ~sim::Picoseconds{0});
    ASSERT_FALSE(series.points.empty()) << tenant;
    for (std::size_t i = 1; i < series.points.size(); ++i) {
      EXPECT_GE(series.points[i].at_ps, series.points[i - 1].at_ps) << tenant;
    }
    EXPECT_EQ(stream.samples, series.points.size()) << tenant;
  }

  // The ranked query is a total order over the store, and the whole
  // document — telemetry included — is byte-identical across worker
  // counts (per-shard single-writer rings merged in shard-index order).
  const auto ranked = telemetry::rank_tenants(tel);
  EXPECT_EQ(ranked.size(), tel.tenants());
  const std::string json = report_json(cfg, report);
  EXPECT_NE(json.find("\"telemetry\""), std::string::npos);
  EXPECT_NE(json.find("serve.telemetry_samples"), std::string::npos);
  Service wide(cfg, cache, 8);
  EXPECT_EQ(json, report_json(cfg, wide.run(sample_requests())))
      << "worker count leaked into the telemetry section";
}

TEST(Service, OutcomesComeBackInSubmissionOrderWithExactTimes) {
  auto cache = shared_cache();
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.lanes = 1;
  cfg.queue_capacity = 8;
  cfg.detection.trace_path.clear();
  cfg.detection.metrics_path.clear();
  Service service(cfg, cache, 1);

  const auto report = service.run(sample_requests());
  ASSERT_EQ(report.outcomes.size(), 5u);
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    const auto& o = report.outcomes[i];
    EXPECT_EQ(o.request.ticket, i);
    EXPECT_FALSE(o.shed);
    // One lane: FIFO service, exact virtual-time bookkeeping.
    EXPECT_GE(o.start_ps, o.request.arrival_ps);
    EXPECT_EQ(o.completion_ps, o.start_ps + o.service_ps);
    EXPECT_EQ(o.sojourn_ps, o.completion_ps - o.request.arrival_ps);
    EXPECT_EQ(o.service_ps, o.detection.simulated_ps);
    if (i > 0) {
      EXPECT_GE(o.start_ps, report.outcomes[i - 1].completion_ps);
    }
  }
  EXPECT_EQ(report.sessions_completed, 5u);
  EXPECT_EQ(report.sessions_shed, 0u);
  EXPECT_EQ(report.interactive.completed + report.batch.completed, 5u);
}

TEST(Service, MixedFleetAssignsProtocolsByTenantHash) {
  auto cache = shared_cache();

  // Pick two tenants per protocol so the mixed fleet is guaranteed
  // heterogeneous regardless of how the hash bit falls on any one name.
  std::vector<std::string> tenants;
  {
    std::size_t pft = 0, etrace = 0;
    for (int i = 0; tenants.size() < 4 && i < 64; ++i) {
      const std::string t = "tenant-" + std::to_string(i);
      if (tenant_protocol(t) == trace::TraceProtocol::kEtrace) {
        if (etrace++ < 2) tenants.push_back(t);
      } else {
        if (pft++ < 2) tenants.push_back(t);
      }
    }
    ASSERT_EQ(tenants.size(), 4u) << "hash bit degenerate over 64 tenants";
  }

  auto requests = [&] {
    std::vector<SessionRequest> reqs;
    for (std::size_t i = 0; i < 6; ++i) {
      SessionRequest r;
      r.tenant = tenants[i % tenants.size()];
      r.benchmark = "astar";
      r.model = core::ModelKind::kElm;
      r.arrival_ps = (1 + i) * 2 * sim::kPsPerMs;
      r.seed = 17 + 31 * i;
      r.attacks = 1;
      reqs.push_back(std::move(r));
    }
    return reqs;
  };

  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.lanes = 1;
  cfg.queue_capacity = 8;
  cfg.proto = FleetProtocol::kMixed;
  cfg.detection.trace_path.clear();
  cfg.detection.metrics_path.clear();

  Service service(cfg, cache, 1);
  const auto report = service.run(requests());
  ASSERT_EQ(report.outcomes.size(), 6u);
  for (const auto& o : report.outcomes) {
    EXPECT_EQ(o.request.proto, tenant_protocol(o.request.tenant))
        << o.request.tenant;
    EXPECT_EQ(o.detection.trace_protocol, o.request.proto)
        << "SoC frontend did not honor the assigned protocol";
  }
  EXPECT_GT(report.sessions_pft, 0u);
  EXPECT_GT(report.sessions_etrace, 0u);
  EXPECT_EQ(report.sessions_pft + report.sessions_etrace,
            report.sessions_completed);

  // The heterogeneous report is still byte-identical across worker counts.
  Service wide(cfg, cache, 8);
  EXPECT_EQ(report_json(cfg, report), report_json(cfg, wide.run(requests())))
      << "worker count leaked into the mixed-fleet report";

  const std::string json = report_json(cfg, report);
  EXPECT_NE(json.find("\"proto\""), std::string::npos);
  EXPECT_NE(json.find("mixed"), std::string::npos);
  EXPECT_NE(json.find("serve.sessions_etrace"), std::string::npos);
}

TEST(Service, ForcedFleetProtocolOverridesRequests) {
  auto cache = shared_cache();
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.lanes = 1;
  cfg.queue_capacity = 8;
  cfg.proto = FleetProtocol::kEtrace;
  cfg.detection.trace_path.clear();
  cfg.detection.metrics_path.clear();
  Service service(cfg, cache, 1);

  auto reqs = sample_requests();
  for (auto& r : reqs) r.proto = trace::TraceProtocol::kPft;  // ignored
  const auto report = service.run(std::move(reqs));
  EXPECT_EQ(report.sessions_etrace, report.sessions_completed);
  EXPECT_EQ(report.sessions_pft, 0u);
  for (const auto& o : report.outcomes) {
    EXPECT_EQ(o.request.proto, trace::TraceProtocol::kEtrace);
    EXPECT_EQ(o.detection.trace_protocol, trace::TraceProtocol::kEtrace);
  }
}

TEST(Admission, ShedsNewestWhenFull) {
  AdmissionConfig cfg;
  cfg.queue_capacity = 2;
  cfg.policy = OverloadPolicy::kShed;
  AdmissionController admission(cfg);

  SessionRequest req;
  req.tenant = "t";
  EXPECT_EQ(admission.offer(req), AdmissionController::Verdict::kAccepted);
  EXPECT_EQ(admission.offer(req), AdmissionController::Verdict::kAccepted);
  EXPECT_EQ(admission.offer(req), AdmissionController::Verdict::kShed);
  EXPECT_EQ(admission.offered(), 3u);
  EXPECT_EQ(admission.admitted(), 2u);
  EXPECT_EQ(admission.shed(), 1u);
  EXPECT_EQ(admission.degraded(), 0u);
  EXPECT_EQ(admission.depth(), 2u);
  // Depth is sampled after each arrival's own verdict: the two admits see
  // occupancy 1 and 2 (themselves included), the shed sees the full queue
  // — 1, 2, 2.
  ASSERT_EQ(admission.depth_seen().count(), 3u);
  EXPECT_EQ(admission.depth_seen().min(), 1.0);
  EXPECT_EQ(admission.depth_seen().max(), 2.0);
  // FIFO drain; nothing was reordered.
  EXPECT_FALSE(admission.next()->degraded);
  EXPECT_FALSE(admission.next()->degraded);
  EXPECT_FALSE(admission.next().has_value());
}

TEST(Admission, DepthDistributionReachesCapacityExactlyWhenShedding) {
  // Regression: offer() used to sample the depth *before* its own
  // try_push, so a saturated capacity-C queue reported max depth C-1 —
  // every sample taken while sheds were happening undercounted by one and
  // the distribution could never show the queue full. Post-verdict
  // sampling makes max == capacity iff at least one offer shed.
  AdmissionConfig cfg;
  cfg.queue_capacity = 3;
  cfg.policy = OverloadPolicy::kShed;
  AdmissionController admission(cfg);

  SessionRequest req;
  req.tenant = "t";
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(admission.offer(req), AdmissionController::Verdict::kAccepted);
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(admission.offer(req), AdmissionController::Verdict::kShed);
  }
  ASSERT_EQ(admission.depth_seen().count(), 7u);
  EXPECT_EQ(admission.depth_seen().max(),
            static_cast<double>(cfg.queue_capacity))
      << "a full queue must be visible in the depth distribution";
  // Each shed observed the whole capacity-3 queue: samples 1,2,3,3,3,3,3.
  EXPECT_EQ(admission.depth_seen().sum(), 1.0 + 2.0 + 3.0 * 5);
}

TEST(Admission, DegradesAboveWatermarkAndStillBoundsTheQueue) {
  AdmissionConfig cfg;
  cfg.queue_capacity = 4;
  cfg.policy = OverloadPolicy::kDegrade;  // watermark resolves to 2
  AdmissionController admission(cfg);
  EXPECT_EQ(admission.config().degrade_watermark, 2u);

  SessionRequest req;
  req.tenant = "t";
  EXPECT_EQ(admission.offer(req), AdmissionController::Verdict::kAccepted);
  EXPECT_EQ(admission.offer(req), AdmissionController::Verdict::kAccepted);
  EXPECT_EQ(admission.offer(req),
            AdmissionController::Verdict::kAcceptedDegraded);
  EXPECT_EQ(admission.offer(req),
            AdmissionController::Verdict::kAcceptedDegraded);
  // Full queue still sheds — degrade never unbounds the ingress.
  EXPECT_EQ(admission.offer(req), AdmissionController::Verdict::kShed);
  EXPECT_EQ(admission.admitted(), 4u);
  EXPECT_EQ(admission.degraded(), 2u);
  EXPECT_EQ(admission.shed(), 1u);
  EXPECT_FALSE(admission.next()->degraded);
  EXPECT_FALSE(admission.next()->degraded);
  EXPECT_TRUE(admission.next()->degraded);
  EXPECT_TRUE(admission.next()->degraded);
}

TEST(Routing, StableHashSpreadsTenantsAcrossShards) {
  // FNV-1a offset basis: the hash is pinned to the published constants,
  // not to std::hash (which is free to differ per platform/build).
  EXPECT_EQ(tenant_hash(""), 14695981039346656037ULL);
  EXPECT_EQ(tenant_hash("tenant-0"), tenant_hash("tenant-0"));
  EXPECT_NE(tenant_hash("tenant-0"), tenant_hash("tenant-1"));

  bool spread = false;
  for (int i = 0; i < 12; ++i) {
    const std::string tenant = "tenant-" + std::to_string(i);
    const std::size_t shard = shard_for(tenant, 4);
    EXPECT_LT(shard, 4u);
    EXPECT_EQ(shard, shard_for(tenant, 4)) << "routing must be stable";
    EXPECT_EQ(shard_for(tenant, 1), 0u);
    if (shard != shard_for("tenant-0", 4)) spread = true;
  }
  EXPECT_TRUE(spread) << "12 tenants all hashed to one shard of 4";
}

}  // namespace
}  // namespace rtad::serve
