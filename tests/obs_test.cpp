// Observability layer tests.
//
// Unit level: TraceSink event recording + Chrome-trace JSON formatting,
// JsonWriter layout stability, indexed_path suffixing. Integration level
// (shared fast-trained cache, like determinism_test): the trace and metrics
// exports must be byte-identical across scheduler kernels and worker
// counts, per-component cycle accounts must sum exactly to each domain's
// elapsed cycles, and enabling the layer must not perturb detection. Also
// covers the cells/results size-mismatch guard on the runner tables.
#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "json_keys.hpp"
#include "rtad/core/experiment_runner.hpp"
#include "rtad/core/metrics_export.hpp"
#include "rtad/obs/json.hpp"
#include "rtad/obs/observer.hpp"
#include "rtad/obs/trace_sink.hpp"

namespace rtad {
namespace {

// ---------------------------------------------------------------- TraceSink

TEST(TraceSink, WritesChromeJsonWithMetadataAndExactTimestamps) {
  obs::TraceSink sink;
  const auto t = sink.track("mcm.fsm");
  sink.complete(t, "WAIT_INPUT", 8'000, 16'000);
  sink.instant(t, "irq", 32'000);
  std::ostringstream os;
  sink.write_chrome_json(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"mcm.fsm\""), std::string::npos);
  // ps -> us is printed exactly from integers: 8000 ps == 0.008000 us.
  EXPECT_NE(out.find("\"ts\":0.008000,\"dur\":0.016000"), std::string::npos);
  EXPECT_NE(out.find("\"ts\":0.032000"), std::string::npos);
}

TEST(TraceSink, BeginAutoClosesAndDanglingEndIsNoOp) {
  obs::TraceSink sink;
  const auto t = sink.track("fsm");
  sink.begin(t, "A", 0);
  sink.begin(t, "B", 100);  // closes A as [0, 100)
  sink.end(t, 250);         // closes B as [100, 250)
  sink.end(t, 300);         // nothing open: no event
  EXPECT_EQ(sink.event_count(), 2u);
}

TEST(TraceSink, OpenSpansAreNotEmitted) {
  obs::TraceSink sink;
  const auto t = sink.track("fsm");
  sink.begin(t, "dangling", 500);
  std::ostringstream os;
  sink.write_chrome_json(os);
  EXPECT_EQ(os.str().find("dangling"), std::string::npos);
  EXPECT_EQ(sink.event_count(), 0u);
}

TEST(TraceSink, CounterDedupsConsecutiveIdenticalValues) {
  obs::TraceSink sink;
  const auto c = sink.counter_track("fifo");
  sink.counter(c, 5, 100);
  sink.counter(c, 5, 200);  // elided
  sink.counter(c, 6, 300);
  sink.counter(c, 5, 400);
  EXPECT_EQ(sink.event_count(), 3u);
}

TEST(TraceHandle, DefaultConstructedIsInert) {
  obs::TraceHandle h;
  EXPECT_FALSE(static_cast<bool>(h));
  // Every method must be a safe no-op on the null handle.
  h.begin("x", 0);
  h.end(1);
  h.complete("y", 2, 3);
  h.instant("z", 4);
  h.counter(7, 5);
}

// --------------------------------------------------------------- JsonWriter

TEST(JsonWriter, LayoutIsByteStable) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.field("name", "x");
  w.field("count", std::uint64_t{3});
  w.field("ratio", 0.5);
  w.key("list");
  w.begin_array();
  w.value(std::uint64_t{1});
  w.value(std::uint64_t{2});
  w.end_array();
  w.key("nested");
  w.begin_object();
  w.field("flag", true);
  w.end_object();
  w.end_object();
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"name\": \"x\",\n"
            "  \"count\": 3,\n"
            "  \"ratio\": 0.5,\n"
            "  \"list\": [\n"
            "    1,\n"
            "    2\n"
            "  ],\n"
            "  \"nested\": {\n"
            "    \"flag\": true\n"
            "  }\n"
            "}\n");
}

TEST(JsonWriter, EscapesAndNonFiniteDoubles) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.field("quote\"back\\slash", "line\nbreak\ttab");
  w.field("nan", std::numeric_limits<double>::quiet_NaN());
  w.end_object();
  EXPECT_NE(os.str().find("\"quote\\\"back\\\\slash\": \"line\\nbreak\\ttab\""),
            std::string::npos);
  EXPECT_NE(os.str().find("\"nan\": null"), std::string::npos);
}

// -------------------------------------------------------------- indexed_path

TEST(IndexedPath, SuffixesBeforeJsonExtension) {
  EXPECT_EQ(obs::indexed_path("trace.json", 3), "trace.cell003.json");
  EXPECT_EQ(obs::indexed_path("out/metrics.json", 12), "out/metrics.cell012.json");
  EXPECT_EQ(obs::indexed_path("plain", 0), "plain.cell000");
  EXPECT_EQ(obs::indexed_path("", 5), "");
}

// ------------------------------------------------------------ metrics export

TEST(MetricsExport, StableKeysAndSchedulerCountersExcluded) {
  core::DetectionResult r;
  r.benchmark = "unit";
  r.model = core::ModelKind::kElm;
  r.engine = core::EngineKind::kMiaow;
  r.attacks = 2;
  r.detections = 1;
  r.mean_latency_us = 12.5;
  r.skipped_edge_groups = 999;  // mode-dependent: must not appear
  r.cycle_accounts.push_back(
      obs::ComponentCycles{"mcm", "mlpu", obs::CycleAccount{10, 20, 3, 2, 1}});
  sim::StatsRegistry stats;
  stats.counter("sim.skipped_edge_groups").add(7);   // excluded
  stats.counter("sim.skipped_cycles.cpu").add(9);    // excluded
  stats.counter("custom.events").add(3);             // kept
  stats.sampler("lat_us").record(1.5);
  const std::vector<std::pair<std::string, sim::Cycle>> domains = {
      {"cpu", 100}, {"mlpu", 50}};

  std::ostringstream os;
  core::write_metrics_json(os, r, stats, domains);
  const std::string doc = os.str();

  // Re-serializing identical inputs is byte-identical.
  std::ostringstream os2;
  core::write_metrics_json(os2, r, stats, domains);
  EXPECT_EQ(doc, os2.str());

  // Top-level sections appear in their documented order.
  std::size_t last = 0;
  for (const char* section :
       {"\"schema\"", "\"cell\"", "\"detection\"", "\"health\"", "\"trace\"",
        "\"ensemble\"", "\"domains\"", "\"cycle_accounts\"", "\"counters\"",
        "\"samplers\""}) {
    const auto pos = doc.find(section);
    ASSERT_NE(pos, std::string::npos) << section;
    EXPECT_GT(pos, last) << section;
    last = pos;
  }

  EXPECT_NE(doc.find("\"schema\": \"rtad.metrics.v2\""), std::string::npos);
  EXPECT_NE(doc.find("\"protocol\": \"pft\""), std::string::npos);
  EXPECT_NE(doc.find("\"mean_latency_us\": 12.5"), std::string::npos);
  EXPECT_NE(doc.find("\"custom.events\": 3"), std::string::npos);
  EXPECT_NE(doc.find("\"stall_fifo\": 3"), std::string::npos);
  EXPECT_NE(doc.find("\"total\": 36"), std::string::npos);
  EXPECT_EQ(doc.find("skipped"), std::string::npos);

  // One fixed shape: the key set is the same for E-Trace as for PFT, and
  // with a size-3 ensemble as without one.
  const auto keys_of = [&](const core::DetectionResult& variant) {
    std::ostringstream vos;
    core::write_metrics_json(vos, variant, stats, domains);
    return test::json_key_paths(vos.str());
  };
  const auto keys = test::json_key_paths(doc);
  EXPECT_TRUE(keys.count("trace.protocol"));
  EXPECT_TRUE(keys.count("ensemble.size"));
  core::DetectionResult etrace = r;
  etrace.trace_protocol = trace::TraceProtocol::kEtrace;
  etrace.decode_branches = 42;
  EXPECT_EQ(keys_of(etrace), keys);
  core::DetectionResult ensemble = r;
  ensemble.ensemble_size = 3;
  ensemble.ensemble_swaps = 2;
  EXPECT_EQ(keys_of(ensemble), keys);
}

// ----------------------------------------------------- SoC-level integration

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

/// Options with the ambient RTAD_TRACE/RTAD_METRICS (if any) cleared, so the
/// test controls exactly which runs export files.
core::DetectionOptions base_options() {
  core::DetectionOptions opt;
  opt.attacks = 2;
  opt.trace_path.clear();
  opt.metrics_path.clear();
  return opt;
}

core::DetectionResult run_cell(core::DetectionOptions opt, sim::SchedMode mode,
                               core::ModelKind model = core::ModelKind::kLstm) {
  auto cache = shared_cache();
  opt.sched = mode;
  return core::measure_detection(cache->profile("astar"), cache->get("astar"),
                                 model, core::EngineKind::kMlMiaow, opt);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Observability, TraceAndMetricsIdenticalAcrossSchedulers) {
  const std::string dir = testing::TempDir();
  auto dense_opt = base_options();
  dense_opt.trace_path = dir + "obs_sched_dense.trace.json";
  dense_opt.metrics_path = dir + "obs_sched_dense.metrics.json";
  run_cell(dense_opt, sim::SchedMode::kDense);
  auto event_opt = base_options();
  event_opt.trace_path = dir + "obs_sched_event.trace.json";
  event_opt.metrics_path = dir + "obs_sched_event.metrics.json";
  run_cell(event_opt, sim::SchedMode::kEventDriven);

  const std::string trace_dense = read_file(dense_opt.trace_path);
  const std::string trace_event = read_file(event_opt.trace_path);
  ASSERT_FALSE(trace_dense.empty());
  EXPECT_NE(trace_dense.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(trace_dense, trace_event);

  const std::string metrics_dense = read_file(dense_opt.metrics_path);
  const std::string metrics_event = read_file(event_opt.metrics_path);
  ASSERT_FALSE(metrics_dense.empty());
  EXPECT_NE(metrics_dense.find("\"schema\": \"rtad.metrics.v2\""),
            std::string::npos);
  EXPECT_EQ(metrics_dense, metrics_event);
}

TEST(Observability, ExportsAreWorkerCountInvariant) {
  const std::string dir = testing::TempDir();
  auto opt = base_options();
  opt.trace_path = dir + "obs_wc.trace.json";
  opt.metrics_path = dir + "obs_wc.metrics.json";
  const std::vector<core::DetectionCell> cells = {
      {"astar", core::ModelKind::kLstm, core::EngineKind::kMlMiaow, opt},
      {"astar", core::ModelKind::kElm, core::EngineKind::kMlMiaow, opt},
  };

  core::ExperimentRunner serial(1, shared_cache());
  serial.run_detection_matrix(cells);
  std::vector<std::string> traces;
  std::vector<std::string> metrics;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    traces.push_back(read_file(obs::indexed_path(opt.trace_path, i)));
    metrics.push_back(read_file(obs::indexed_path(opt.metrics_path, i)));
    ASSERT_FALSE(traces.back().empty());
    ASSERT_FALSE(metrics.back().empty());
  }

  core::ExperimentRunner pooled(8, shared_cache());
  pooled.run_detection_matrix(cells);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE("cell=" + std::to_string(i));
    EXPECT_EQ(read_file(obs::indexed_path(opt.trace_path, i)), traces[i]);
    EXPECT_EQ(read_file(obs::indexed_path(opt.metrics_path, i)), metrics[i]);
  }
}

TEST(Observability, CycleAccountsConserveDomainCyclesInBothModes) {
  auto opt = base_options();
  opt.cycle_accounts = true;
  const auto event = run_cell(opt, sim::SchedMode::kEventDriven);
  ASSERT_FALSE(event.cycle_accounts.empty());

  // Default clock plan: cpu 250 MHz, fabric 125 MHz, gpu 50 MHz.
  const auto period_ps = [](const std::string& domain) -> std::uint64_t {
    if (domain == "cpu") return 4'000;
    if (domain == "mlpu") return 8'000;
    return 20'000;
  };
  for (const auto& acct : event.cycle_accounts) {
    SCOPED_TRACE(acct.component);
    // Buckets sum exactly to the cycles the domain elapsed — no cycle is
    // double-counted or lost, even the ones the event kernel slept through.
    EXPECT_EQ(acct.cycles.total(),
              event.simulated_ps / period_ps(acct.domain));
  }

  const auto dense = run_cell(opt, sim::SchedMode::kDense);
  ASSERT_EQ(dense.cycle_accounts.size(), event.cycle_accounts.size());
  for (std::size_t i = 0; i < dense.cycle_accounts.size(); ++i) {
    const auto& d = dense.cycle_accounts[i];
    const auto& e = event.cycle_accounts[i];
    SCOPED_TRACE(d.component);
    EXPECT_EQ(d.component, e.component);
    EXPECT_EQ(d.domain, e.domain);
    EXPECT_EQ(d.cycles.busy, e.cycles.busy);
    EXPECT_EQ(d.cycles.idle, e.cycles.idle);
    EXPECT_EQ(d.cycles.stall_fifo, e.cycles.stall_fifo);
    EXPECT_EQ(d.cycles.stall_bus, e.cycles.stall_bus);
    EXPECT_EQ(d.cycles.stall_done, e.cycles.stall_done);
  }
}

TEST(Observability, EnablingTheLayerDoesNotPerturbDetection) {
  const auto plain = run_cell(base_options(), sim::SchedMode::kEventDriven);
  EXPECT_TRUE(plain.cycle_accounts.empty());

  auto opt = base_options();
  opt.cycle_accounts = true;
  opt.trace_path = testing::TempDir() + "obs_perturb.trace.json";
  const auto traced = run_cell(opt, sim::SchedMode::kEventDriven);

  EXPECT_EQ(plain.score_digest, traced.score_digest);
  EXPECT_EQ(plain.simulated_ps, traced.simulated_ps);
  EXPECT_EQ(plain.inferences, traced.inferences);
  EXPECT_EQ(plain.detections, traced.detections);
  EXPECT_EQ(plain.mean_latency_us, traced.mean_latency_us);
  EXPECT_EQ(plain.fifo_drops, traced.fifo_drops);
}

// ------------------------------------------------------- runner table guards

TEST(RunnerTables, RejectCellResultSizeMismatch) {
  core::ExperimentRunner runner(1);
  std::vector<core::DetectionCell> cells(2);
  std::vector<core::CellResult> results(1);
  std::ostringstream os;
  // Bugfix: these used to silently truncate to the shorter list.
  EXPECT_THROW(runner.print_cell_costs(os, cells, results),
               std::invalid_argument);
  EXPECT_THROW(core::ExperimentRunner::print_health(os, cells, results),
               std::invalid_argument);
  EXPECT_THROW(core::ExperimentRunner::print_cycle_accounts(os, cells, results),
               std::invalid_argument);

  results.emplace_back();
  EXPECT_NO_THROW(runner.print_cell_costs(os, cells, results));
  EXPECT_NO_THROW(core::ExperimentRunner::print_health(os, cells, results));
  EXPECT_NO_THROW(
      core::ExperimentRunner::print_cycle_accounts(os, cells, results));
}

}  // namespace
}  // namespace rtad
