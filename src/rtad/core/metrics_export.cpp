#include "rtad/core/metrics_export.hpp"

#include <cstdint>
#include <string>

#include "rtad/obs/json.hpp"
#include "rtad/trace/protocol.hpp"

namespace rtad::core {

namespace {

/// The scheduler's skip census differs between the dense and event kernels
/// by construction; everything else in the registry is mode-invariant.
bool mode_dependent(const std::string& name) {
  return name.rfind("sim.skipped", 0) == 0;
}

}  // namespace

void write_metrics_json(
    std::ostream& os, const DetectionResult& result,
    const sim::StatsRegistry& stats,
    const std::vector<std::pair<std::string, sim::Cycle>>& domains) {
  obs::JsonWriter w(os);
  w.begin_object();
  w.field("schema", "rtad.metrics.v2");

  w.key("cell");
  w.begin_object();
  w.field("benchmark", result.benchmark);
  w.field("model", to_string(result.model));
  w.field("engine", to_string(result.engine));
  w.end_object();

  w.key("detection");
  w.begin_object();
  w.field("attacks", static_cast<std::uint64_t>(result.attacks));
  w.field("detections", static_cast<std::uint64_t>(result.detections));
  w.field("false_positives", result.false_positives);
  w.field("mean_latency_us", result.mean_latency_us);
  w.field("min_latency_us", result.min_latency_us);
  w.field("max_latency_us", result.max_latency_us);
  w.field("inferences", result.inferences);
  w.field("fifo_drops", result.fifo_drops);
  w.field("score_digest", result.score_digest);
  w.field("simulated_ps", result.simulated_ps);
  w.end_object();

  w.key("health");
  w.begin_object();
  w.field("trace_bytes_corrupted", result.trace_bytes_corrupted);
  w.field("decode_bad_packets", result.decode_bad_packets);
  w.field("decode_resyncs", result.decode_resyncs);
  w.field("ta_dropped_branches", result.ta_dropped_branches);
  w.field("mcm_recoveries", result.mcm_recoveries);
  w.field("mcm_stalls_injected", result.mcm_stalls_injected);
  w.field("bus_errors", result.bus_errors);
  w.field("bus_fault_cycles", result.bus_fault_cycles);
  w.field("irqs_lost", result.irqs_lost);
  w.field("fault_events", result.fault_events);
  w.end_object();

  w.key("trace");
  w.begin_object();
  w.field("protocol", trace::to_string(result.trace_protocol));
  w.field("bytes_generated", result.trace_bytes_generated);
  w.field("events_traced", result.trace_events_traced);
  w.field("decode_bytes_consumed", result.decode_bytes_consumed);
  w.field("decode_branches", result.decode_branches);
  w.field("igm_busy_cycles", result.igm_busy_cycles);
  w.end_object();

  // Size 0 and all-zero counters when no ensemble was attached.
  w.key("ensemble");
  w.begin_object();
  w.field("size", static_cast<std::uint64_t>(result.ensemble_size));
  w.field("swaps", result.ensemble_swaps);
  w.field("consensus_flags", result.consensus_flags);
  w.field("consensus_overrides", result.consensus_overrides);
  w.field("member_evals", result.member_evals);
  w.end_object();

  // Elapsed cycles per clock domain (skip replay included, so these match
  // floor(simulated_ps / period) regardless of scheduler mode).
  w.key("domains");
  w.begin_object();
  for (const auto& [name, cycles] : domains) {
    w.field(name, static_cast<std::uint64_t>(cycles));
  }
  w.end_object();

  w.key("cycle_accounts");
  w.begin_object();
  for (const auto& entry : result.cycle_accounts) {
    w.key(entry.component);
    w.begin_object();
    w.field("domain", entry.domain);
    w.field("busy", entry.cycles.busy);
    w.field("idle", entry.cycles.idle);
    w.field("stall_fifo", entry.cycles.stall_fifo);
    w.field("stall_bus", entry.cycles.stall_bus);
    w.field("stall_done", entry.cycles.stall_done);
    w.field("total", entry.cycles.total());
    w.end_object();
  }
  w.end_object();

  w.key("counters");
  w.begin_object();
  for (const auto& [name, counter] : stats.counters()) {
    if (mode_dependent(name)) continue;
    w.field(name, counter.value());
  }
  w.end_object();

  w.key("samplers");
  w.begin_object();
  for (const auto& [name, sampler] : stats.samplers()) {
    if (mode_dependent(name)) continue;
    w.key(name);
    w.begin_object();
    w.field("count", static_cast<std::uint64_t>(sampler.count()));
    w.field("sum", sampler.sum());
    w.field("mean", sampler.mean());
    w.field("min", sampler.min());
    w.field("max", sampler.max());
    w.end_object();
  }
  w.end_object();

  w.end_object();
}

}  // namespace rtad::core
