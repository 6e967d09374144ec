// Serve-fleet fault-domain suite.
//
// The headline contract: a fault storm (shard crashes, lane wedges,
// admission brownouts) changes *when* sessions run, never *what* they
// compute — every session that completes under the storm retires the
// byte-identical detection result it retires on a fault-free fleet (zero
// verdict divergence), and the whole recovery story (fault schedules,
// checkpoints, failover routing, retry backoff) is byte-identical across
// worker counts and scheduler kernels. The rtad.serve.v2 document has one
// fixed shape: a zero-fault fleet emits the same key set as a storm fleet.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "fixtures.hpp"
#include "json_keys.hpp"
#include "rtad/serve/checkpoint_store.hpp"
#include "rtad/serve/fault_domain.hpp"
#include "rtad/serve/service.hpp"
#include "rtad/sim/rng.hpp"
#include "rtad/telemetry/query.hpp"

namespace rtad::serve {
namespace {

using namespace fixtures;

std::vector<SessionRequest> sample_requests(std::size_t n = 6) {
  std::vector<SessionRequest> reqs;
  for (std::size_t i = 0; i < n; ++i) {
    SessionRequest r;
    r.tenant = "tenant-" + std::to_string(i % 4);
    r.cls = i % 4 == 3 ? TenantClass::kBatch : TenantClass::kInteractive;
    r.benchmark = "astar";
    r.model = core::ModelKind::kLstm;
    r.arrival_ps = (1 + i) * 2 * sim::kPsPerMs;
    r.seed = 17 + 31 * i;
    r.attacks = 1;
    reqs.push_back(std::move(r));
  }
  return reqs;
}

ServiceConfig base_config() {
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.lanes = 1;
  cfg.queue_capacity = 8;
  cfg.detection.trace_path.clear();
  cfg.detection.metrics_path.clear();
  return cfg;
}

fault::ServeFaultPlan crash_storm() {
  fault::ServeFaultPlan plan;
  plan.shard_crash = 0.8;
  plan.crash_epoch_us = 4'000;
  plan.crash_downtime_us = 2'000;
  plan.horizon_us = 40'000;
  plan.max_events = 2;
  return plan;
}

std::string report_json(const ServiceConfig& cfg,
                        const ServiceReport& report) {
  std::ostringstream os;
  write_serve_json(os, cfg, report);
  return os.str();
}

/// Zero verdict divergence: every ticket completed in both reports carries
/// the byte-identical detection result (timing fields may differ — the
/// storm moves sessions in time, never in outcome).
void expect_zero_divergence(const ServiceReport& faulty,
                            const ServiceReport& clean) {
  ASSERT_EQ(faulty.outcomes.size(), clean.outcomes.size());
  for (std::size_t i = 0; i < faulty.outcomes.size(); ++i) {
    const auto& f = faulty.outcomes[i];
    const auto& c = clean.outcomes[i];
    ASSERT_EQ(f.request.ticket, c.request.ticket);
    if (f.shed || c.shed) continue;
    EXPECT_EQ(f.detection.score_digest, c.detection.score_digest) << i;
    EXPECT_EQ(f.detection.detections, c.detection.detections) << i;
    EXPECT_EQ(f.detection.inferences, c.detection.inferences) << i;
    EXPECT_EQ(f.detection.false_positives, c.detection.false_positives) << i;
    EXPECT_EQ(f.detection.simulated_ps, c.detection.simulated_ps) << i;
    EXPECT_EQ(f.detection.mean_latency_us, c.detection.mean_latency_us) << i;
  }
}

TEST(FaultDomain, SchedulesArePureFunctionsOfSeedAndShard) {
  fault::ServeFaultPlan plan;
  plan.shard_crash = 1.0;
  plan.lane_wedge = 1.0;
  plan.brownout = 1.0;
  plan.crash_epoch_us = 5'000;
  plan.brownout_us = 2'000;
  plan.horizon_us = 50'000;
  plan.max_events = 4;

  const auto a = build_shard_schedule(plan, 0xFA017, 0, 2);
  const auto b = build_shard_schedule(plan, 0xFA017, 0, 2);
  EXPECT_EQ(a.crashes, b.crashes) << "schedule must be deterministic";
  ASSERT_EQ(a.wedges.size(), b.wedges.size());
  for (std::size_t i = 0; i < a.wedges.size(); ++i) {
    EXPECT_EQ(a.wedges[i].at, b.wedges[i].at);
    EXPECT_EQ(a.wedges[i].lane, b.wedges[i].lane);
  }

  // Rate 1.0 fires every epoch until the cap; everything inside [0, horizon).
  EXPECT_EQ(a.crashes.size(), plan.max_events);
  for (const auto at : a.crashes) {
    EXPECT_LT(at, plan.horizon_us * sim::kPsPerUs);
  }
  for (const auto& w : a.brownouts) {
    EXPECT_EQ(w.end - w.begin, plan.brownout_us * sim::kPsPerUs);
  }
  EXPECT_TRUE(a.in_brownout(a.brownouts.front().begin));
  EXPECT_FALSE(a.in_brownout(a.brownouts.front().end));

  // Distinct shards draw from distinct streams.
  const auto other = build_shard_schedule(plan, 0xFA017, 1, 2);
  EXPECT_NE(a.crashes, other.crashes);

  // An all-zero plan builds no schedule at all.
  EXPECT_TRUE(
      build_shard_schedule(fault::ServeFaultPlan{}, 0xFA017, 0, 2).empty());
}

TEST(FaultDomain, RetryBackoffIsSeededBoundedAndGrows) {
  const std::uint64_t seed = 0x5EEDD;
  // Pure function of its arguments.
  EXPECT_EQ(retry_backoff_ps(seed, 3, 1, 500),
            retry_backoff_ps(seed, 3, 1, 500));
  // attempt k waits in [base << (k-1), (base << (k-1)) + base) microseconds.
  for (std::size_t attempt = 1; attempt <= 4; ++attempt) {
    const auto ps = retry_backoff_ps(seed, 3, attempt, 500);
    const std::uint64_t lo = 500ull << (attempt - 1);
    EXPECT_GE(ps, lo * sim::kPsPerUs);
    EXPECT_LT(ps, (lo + 500) * sim::kPsPerUs);
  }
  // The exponent caps, so deep retry chains stay schedulable.
  EXPECT_LT(retry_backoff_ps(seed, 3, 60, 500),
            (500ull << 7) * sim::kPsPerUs);
  // Different tickets de-synchronize (no thundering herd after a crash).
  EXPECT_NE(retry_backoff_ps(seed, 3, 1, 500),
            retry_backoff_ps(seed, 4, 1, 500));
  // Always strictly positive, even with a degenerate base.
  EXPECT_GT(retry_backoff_ps(seed, 0, 1, 0), 0u);
}

TEST(CheckpointStore, BoundsParkedBytesAndEvictsHonestly) {
  CheckpointStore store(100);
  const std::vector<std::uint8_t> blob(60, 0xAB);
  store.put(1, blob, 5);
  EXPECT_EQ(store.bytes(), 60u);
  EXPECT_EQ(store.parks(), 1u);
  EXPECT_EQ(store.evictions(), 0u);

  // Over the cap: the entry parks *empty* — the session restarts from
  // scratch on thaw (slower, never wrong) — and the eviction is counted.
  store.put(2, blob, 7);
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_EQ(store.bytes(), 60u);
  const auto evicted = store.take(2);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_TRUE(evicted->blob.empty());
  EXPECT_EQ(evicted->parked_at, 7u);

  const auto kept = store.take(1);
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(kept->blob, blob);
  EXPECT_EQ(kept->parked_at, 5u);
  EXPECT_TRUE(store.empty());
  EXPECT_FALSE(store.take(1).has_value());
  EXPECT_EQ(store.bytes_high_watermark(), 60u);
}

TEST(CheckpointStore, EvictedBlobBytesAreAccountedSeparately) {
  // Regression: put() used to record a cap-evicted blob's size into the
  // blob_bytes distribution even though the blob never occupied the store
  // — serve.checkpoint_bytes then over-reported parked bytes under
  // pressure exactly when the cap was doing its job. Evicted sizes now
  // land in their own sampler.
  CheckpointStore store(100);
  store.put(1, std::vector<std::uint8_t>(70, 0x01), 3);
  store.put(2, std::vector<std::uint8_t>(90, 0x02), 5);  // evicted
  store.put(3, std::vector<std::uint8_t>(20, 0x03), 9);

  ASSERT_EQ(store.blob_bytes().count(), 2u);
  EXPECT_EQ(store.blob_bytes().sum(), 70.0 + 20.0);
  EXPECT_EQ(store.blob_bytes().max(), 70.0);
  ASSERT_EQ(store.evicted_blob_bytes().count(), 1u);
  EXPECT_EQ(store.evicted_blob_bytes().max(), 90.0);
  // The accounted distribution matches the bytes actually resident.
  EXPECT_EQ(store.bytes(), 90u);
  EXPECT_EQ(store.evictions(), 1u);
}

TEST(ServiceFailover, FailoverTargetSkipsDownShards) {
  // heat[s] = {horizon, down_until}; the orphan re-offers at t=100.
  bool migrated = false;

  // Healthy fleet, heir cool enough: ring successor wins, no migration.
  {
    const std::vector<ShardHeat> heat{{50, 0}, {60, 0}, {55, 0}};
    EXPECT_EQ(failover_target(0, 100, heat, 1'000, &migrated), 1u);
    EXPECT_FALSE(migrated);
  }

  // Regression: the heir itself is still inside its crash downtime — the
  // ring walk must step past it to the next up shard.
  {
    const std::vector<ShardHeat> heat{{50, 0}, {10, 500}, {55, 0}};
    EXPECT_EQ(failover_target(0, 100, heat, 1'000, &migrated), 2u);
    EXPECT_FALSE(migrated);
  }

  // Regression: a freshly-crashed shard's flushed queue makes it the
  // coolest in the fleet precisely while it refuses work (here shards 0
  // and 2, horizons 50 and 5, both still down at t=100). The rebalancer
  // must steer to the coolest *up* shard, not bounce the orphan onto a
  // down one for another round of backoff.
  {
    const std::vector<ShardHeat> heat{
        {50, 500}, {9'000, 0}, {5, 500}, {80, 0}};
    EXPECT_EQ(failover_target(0, 100, heat, 1'000, &migrated), 3u);
    EXPECT_TRUE(migrated);
  }

  // Heir hot, coolest up shard within the gap: stay on the heir.
  {
    const std::vector<ShardHeat> heat{
        {50, 500}, {900, 0}, {5, 500}, {800, 0}};
    EXPECT_EQ(failover_target(0, 100, heat, 1'000, &migrated), 1u);
    EXPECT_FALSE(migrated);
  }

  // Whole fleet down: the walks degenerate to the legacy all-shard scan —
  // the orphan queues and waits, so the coolest shard still wins.
  {
    const std::vector<ShardHeat> heat{{50, 999}, {9'000, 999}, {5, 999}};
    EXPECT_EQ(failover_target(0, 100, heat, 1'000, &migrated), 2u);
    EXPECT_TRUE(migrated);
    const std::vector<ShardHeat> flat{{50, 999}, {60, 999}, {55, 999}};
    EXPECT_EQ(failover_target(0, 100, flat, 1'000, &migrated), 1u);
    EXPECT_FALSE(migrated);
  }
}

TEST(ServiceFailover, CrashStormHasZeroVerdictDivergence) {
  auto cache = shared_cache();
  auto cfg = base_config();

  Service clean_service(cfg, cache, 1);
  const auto clean = clean_service.run(sample_requests());

  auto storm_cfg = cfg;
  storm_cfg.serve_faults = crash_storm();
  storm_cfg.retry_budget = 4;
  storm_cfg.checkpoint_every = 2;
  Service storm_service(storm_cfg, cache, 1);
  const auto storm = storm_service.run(sample_requests());

  // The storm actually happened and every session still completed.
  EXPECT_GT(storm.shard_crashes, 0u);
  EXPECT_GT(storm.sessions_recovered + storm.queue_flushed, 0u);
  EXPECT_GT(storm.failover_rounds, 0u);
  EXPECT_GT(storm.checkpoints, 0u);
  EXPECT_EQ(storm.sessions_completed, clean.sessions_completed);
  EXPECT_EQ(storm.sessions_shed, 0u);
  expect_zero_divergence(storm, clean);

  // Recovery accounting is self-consistent: every restore recorded an
  // orphaned → restart latency sample.
  EXPECT_GE(static_cast<std::uint64_t>(storm.recovery_latency_us.count()),
            storm.sessions_recovered);
  if (storm.sessions_recovered > 0) {
    EXPECT_GT(storm.recovery_replay_ps, 0u);
  }
  for (const auto& o : storm.outcomes) {
    if (o.recovered) {
      EXPECT_FALSE(o.shed);
      EXPECT_GE(o.sojourn_ps, o.completion_ps - o.request.arrival_ps);
    }
  }
  EXPECT_EQ(storm.interactive.recovered + storm.batch.recovered,
            storm.sessions_recovered);
}

TEST(ServiceFailover, StormReportIdenticalAcrossWorkersAndKernels) {
  auto cache = shared_cache();
  auto cfg = base_config();
  cfg.serve_faults = crash_storm();
  cfg.serve_faults.lane_wedge = 0.4;
  cfg.serve_faults.brownout = 0.3;
  cfg.serve_faults.brownout_us = 1'500;
  cfg.retry_budget = 4;
  cfg.checkpoint_every = 2;

  auto run_with = [&](std::size_t jobs, sim::SchedMode sched) {
    ServiceConfig c = cfg;
    c.detection.sched = sched;
    Service service(c, cache, jobs);
    return report_json(c, service.run(sample_requests()));
  };

  const auto serial = run_with(1, sim::SchedMode::kDense);
  const auto parallel = run_with(8, sim::SchedMode::kDense);
  EXPECT_EQ(serial, parallel)
      << "worker count leaked into the failover report";

  // Fault schedules, retries, and failover routing live on the fleet
  // clock, not in any kernel: everything from the fleet section on is
  // byte-identical under the event-driven kernel too.
  const auto event = run_with(1, sim::SchedMode::kEventDriven);
  const auto at = [](const std::string& s) { return s.find("\"fleet\""); };
  EXPECT_EQ(serial.substr(at(serial)), event.substr(at(event)))
      << "scheduler kernel leaked into the failover report";

  EXPECT_NE(serial.find("\"failure\""), std::string::npos);
  EXPECT_NE(serial.find("serve.shard_crashes"), std::string::npos);
  EXPECT_NE(serial.find("serve.recovery_replay_ps"), std::string::npos);
  EXPECT_NE(serial.find("checkpoint_bytes"), std::string::npos);
  EXPECT_NE(serial.find("\"recovered\""), std::string::npos);
}

TEST(ServiceFailover, WedgeParksLocallyAndThawsByteIdentically) {
  auto cache = shared_cache();
  auto cfg = base_config();
  cfg.shards = 1;

  Service clean_service(cfg, cache, 1);
  const auto clean = clean_service.run(sample_requests());

  auto wedge_cfg = cfg;
  wedge_cfg.serve_faults.lane_wedge = 0.9;
  wedge_cfg.serve_faults.crash_epoch_us = 4'000;
  wedge_cfg.serve_faults.wedge_us = 3'000;
  wedge_cfg.serve_faults.horizon_us = 40'000;
  wedge_cfg.serve_faults.max_events = 2;
  wedge_cfg.checkpoint_every = 2;
  Service wedged_service(wedge_cfg, cache, 1);
  const auto wedged = wedged_service.run(sample_requests());

  EXPECT_GT(wedged.lane_wedges, 0u);
  EXPECT_EQ(wedged.shard_crashes, 0u);
  EXPECT_EQ(wedged.sessions_completed, clean.sessions_completed);
  EXPECT_EQ(wedged.sessions_shed, 0u);
  // Wedged sessions park into the shard's own store and thaw right there —
  // no cross-shard failover rounds.
  EXPECT_EQ(wedged.failover_rounds, 0u);
  if (wedged.sessions_parked > 0) {
    EXPECT_GT(wedged.sessions_recovered, 0u);
    EXPECT_GT(wedged.checkpoints, 0u);
    EXPECT_GT(wedged.parked_bytes_hwm, 0u);
    EXPECT_GT(wedged.recovery_latency_us.count(), 0u);
  }
  expect_zero_divergence(wedged, clean);
}

TEST(ServiceFailover, BrownoutRefusalsRetryWithinBudgetThenShed) {
  auto cache = shared_cache();

  // Place one arrival *inside* a known brownout window: the schedule is a
  // pure function of (plan, seed, shard), so the test can read it.
  fault::ServeFaultPlan plan;
  plan.brownout = 1.0;
  plan.crash_epoch_us = 8'000;
  plan.brownout_us = 3'000;
  plan.horizon_us = 64'000;
  plan.max_events = 1;
  const std::uint64_t seed = 0xFA017;
  const auto sched = build_shard_schedule(plan, seed, 0, 1);
  ASSERT_FALSE(sched.brownouts.empty());
  const auto window = sched.brownouts.front();

  auto requests = [&] {
    auto reqs = sample_requests(3);
    // All three tenants must route to shard 0 of 1 — single-shard fleet.
    reqs[0].arrival_ps = window.begin + sim::kPsPerUs;
    reqs[1].arrival_ps = window.begin + 2 * sim::kPsPerUs;
    reqs[2].arrival_ps = window.end + sim::kPsPerUs;
    return reqs;
  };

  auto cfg = base_config();
  cfg.shards = 1;
  cfg.serve_faults = plan;
  cfg.fault_seed = seed;

  // Budget 0: refused offers shed immediately.
  {
    Service service(cfg, cache, 1);
    const auto rep = service.run(requests());
    EXPECT_EQ(rep.brownout_refusals, 2u);
    EXPECT_EQ(rep.sessions_shed, 2u);
    EXPECT_EQ(rep.sessions_retried, 0u);
    EXPECT_EQ(rep.sessions_completed, 1u);
    EXPECT_TRUE(rep.outcomes[0].shed);
    EXPECT_TRUE(rep.outcomes[1].shed);
    EXPECT_FALSE(rep.outcomes[2].shed);
  }

  // With budget: seeded-jitter backoff carries the refused offers past the
  // window and every session completes.
  {
    auto retry_cfg = cfg;
    retry_cfg.retry_budget = 4;
    Service service(retry_cfg, cache, 1);
    const auto rep = service.run(requests());
    EXPECT_GE(rep.brownout_refusals, 2u);
    EXPECT_EQ(rep.sessions_shed, 0u);
    EXPECT_GT(rep.sessions_retried, 0u);
    EXPECT_EQ(rep.sessions_completed, 3u);
    // Retries delay sessions; they never change their verdicts.
    auto clean_cfg = base_config();
    clean_cfg.shards = 1;
    Service clean_service(clean_cfg, cache, 1);
    expect_zero_divergence(rep, clean_service.run(requests()));
  }
}

TEST(ServiceFailover, RebalancerMigratesOffHotShardsUnderZipfSkew) {
  auto cache = shared_cache();

  // A Zipf-skewed tenant mix: rank 0 dominates. Order the tenant name pool
  // so the dominant tenant routes to shard 1 — the ring heir of shard 0 —
  // which makes the heir hot when shard 0's sessions fail over.
  std::vector<std::string> pool;
  for (int i = 0; pool.size() < 1 && i < 64; ++i) {
    const std::string t = "zipf-" + std::to_string(i);
    if (shard_for(t, 3) == 1) pool.push_back(t);
  }
  for (int i = 0; pool.size() < 4 && i < 64; ++i) {
    const std::string t = "skew-" + std::to_string(i);
    if (shard_for(t, 3) != 1) pool.push_back(t);
  }
  ASSERT_EQ(pool.size(), 4u);

  sim::Xoshiro256 rng(7);
  const sim::ZipfSampler zipf(pool.size(), 1.4);
  std::vector<SessionRequest> reqs;
  for (std::size_t i = 0; i < 7; ++i) {
    SessionRequest r;
    r.tenant = pool[zipf.sample(rng)];
    r.benchmark = "astar";
    r.model = core::ModelKind::kLstm;
    r.arrival_ps = (1 + i) * sim::kPsPerMs;
    r.seed = 17 + 31 * i;
    r.attacks = 1;
    reqs.push_back(std::move(r));
  }
  // Guarantee at least one session on the crashing shard 0.
  bool on_zero = false;
  for (const auto& r : reqs) on_zero |= shard_for(r.tenant, 3) == 0;
  if (!on_zero) {
    for (int i = 0; i < 64 && !on_zero; ++i) {
      const std::string t = "crashy-" + std::to_string(i);
      if (shard_for(t, 3) == 0) {
        reqs[reqs.size() - 1].tenant = t;
        on_zero = true;
      }
    }
  }
  ASSERT_TRUE(on_zero);

  auto cfg = base_config();
  cfg.shards = 3;
  cfg.serve_faults.shard_crash = 1.0;
  cfg.serve_faults.crash_epoch_us = 6'000;
  cfg.serve_faults.crash_downtime_us = 2'000;
  cfg.serve_faults.horizon_us = 12'000;
  cfg.serve_faults.max_events = 1;
  cfg.retry_budget = 4;
  cfg.checkpoint_every = 2;
  cfg.rebalance_gap_ps = sim::kPsPerUs;  // any real gap triggers migration

  Service service(cfg, cache, 1);
  const auto rep = service.run(reqs);
  EXPECT_GT(rep.shard_crashes, 0u);
  EXPECT_GT(rep.migrations, 0u)
      << "no failover re-offer was steered off the hot ring heir";
  EXPECT_EQ(rep.sessions_shed, 0u);
  EXPECT_EQ(rep.sessions_completed, reqs.size());

  // Migration decisions live on the fleet clock: identical for any jobs.
  Service wide(cfg, cache, 8);
  EXPECT_EQ(report_json(cfg, rep), report_json(cfg, wide.run(reqs)));
}

TEST(ServiceFailover, StormKeepsTenantTelemetryStreamsIntact) {
  // The telemetry contract under faults: a tenant's stream ticks on the
  // stream clock (origin arrival + session time), samples stage per
  // quantum and only commit at checkpoint boundaries, and a fault
  // interrupt discards the staged tail — the restored session re-executes
  // that work and re-emits it byte-identically. So the storm fleet's
  // per-tenant (at_ps, score, flagged) streams must equal the fault-free
  // fleet's exactly; only the health markers (restore events) may differ.
  auto cache = shared_cache();
  auto cfg = base_config();

  Service clean_service(cfg, cache, 1);
  const auto clean = clean_service.run(sample_requests());

  auto storm_cfg = cfg;
  storm_cfg.serve_faults = crash_storm();
  storm_cfg.retry_budget = 4;
  storm_cfg.checkpoint_every = 2;
  Service storm_service(storm_cfg, cache, 1);
  const auto storm = storm_service.run(sample_requests());

  ASSERT_TRUE(clean.telemetry);
  ASSERT_TRUE(storm.telemetry);
  EXPECT_GT(storm.shard_crashes, 0u);
  EXPECT_EQ(storm.sessions_shed, 0u);

  EXPECT_EQ(storm.telemetry->tenants(), clean.telemetry->tenants());
  EXPECT_EQ(storm.telemetry->samples(), clean.telemetry->samples());
  EXPECT_EQ(storm.telemetry->flagged(), clean.telemetry->flagged());
  for (const auto& [tenant, stream] : clean.telemetry->streams()) {
    const auto want = telemetry::series(*clean.telemetry, tenant, 0, 0,
                                        ~sim::Picoseconds{0});
    const auto got = telemetry::series(*storm.telemetry, tenant, 0, 0,
                                       ~sim::Picoseconds{0});
    ASSERT_EQ(got.points.size(), want.points.size()) << tenant;
    for (std::size_t i = 0; i < want.points.size(); ++i) {
      EXPECT_EQ(got.points[i].at_ps, want.points[i].at_ps) << tenant;
      EXPECT_EQ(got.points[i].score, want.points[i].score) << tenant;
      EXPECT_EQ(got.points[i].flagged, want.points[i].flagged) << tenant;
    }
  }

  // The restore markers land in the storm streams only.
  std::uint64_t storm_health = 0;
  for (const auto& [tenant, stream] : storm.telemetry->streams()) {
    storm_health += stream.health;
  }
  EXPECT_GE(storm_health, 0u);
  for (const auto& [tenant, stream] : clean.telemetry->streams()) {
    EXPECT_EQ(stream.health, 0u) << tenant;
  }
}

TEST(ServiceFailover, DocumentShapeIsFixedAcrossFaultSettings) {
  auto cache = shared_cache();
  const auto cfg = base_config();
  Service clean_service(cfg, cache, 1);
  const auto clean = clean_service.run(sample_requests());
  const auto clean_json = report_json(cfg, clean);

  auto storm_cfg = cfg;
  storm_cfg.serve_faults = crash_storm();
  Service storm_service(storm_cfg, cache, 1);
  const auto storm = storm_service.run(sample_requests());
  ASSERT_GT(storm.shard_crashes, 0u);
  const auto storm_json = report_json(storm_cfg, storm);

  const auto keys = test::json_key_paths(clean_json);
  EXPECT_TRUE(keys.count("service.failure.serve.shard_crashes"));
  EXPECT_TRUE(keys.count("service.classes.batch.recovered"));
  EXPECT_TRUE(keys.count("service.ensemble.size"));
  EXPECT_EQ(test::json_key_paths(storm_json), keys);
  EXPECT_NE(clean_json.find("\"schema\": \"rtad.serve.v2\""),
            std::string::npos);

  // The ensemble section is a config echo plus counters: an active
  // ensemble changes its values, never the document's key set.
  auto ensemble_cfg = cfg;
  ensemble_cfg.ensemble.size = 3;
  ensemble_cfg.ensemble.retrain_ps = 5 * sim::kPsPerMs;
  EXPECT_EQ(test::json_key_paths(report_json(ensemble_cfg, clean)), keys);
}

}  // namespace
}  // namespace rtad::serve
