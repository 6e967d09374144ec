// Bench front-end: the one RTAD_* knob vocabulary of the env-driven benches
// (fig8_detection, fault_sweep, serve_throughput, serve_failover,
// ensemble_drift, telemetry_query).
//
// Every knob parses through core::env's strict grammar (empty means unset,
// the whole value must be consumed, errors name the variable), and run()
// refuses any RTAD_* name outside the vocabulary, so a typo or a retired
// knob fails the run instead of silently falling back to a default. Each
// bench keeps its own defaults; a bench ignores vocabulary names it does
// not read.
//
// The vocabulary holds the bench knobs (RTAD_BENCH_*), the serve-fleet
// knobs read here (service_config()), and the process axes that the
// library itself reads under src/ (RTAD_JOBS, RTAD_SCHED, ...).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rtad/core/config.hpp"
#include "rtad/core/experiment.hpp"

namespace rtad::serve {
struct ServiceConfig;
}

namespace rtad::bench {

/// Every RTAD_* name a bench run may set. README's "Knobs" table lists who
/// reads each, its default and its grammar; tools/knob_vocabulary.sh keeps
/// this list, the table and the names in src/ and bench/ in step.
inline constexpr std::array<std::string_view, 25> kVocabulary{
    "RTAD_BENCH_BENCHMARKS",     // workload list ("gcc,mcf")
    "RTAD_BENCH_MODELS",         // "elm,lstm"
    "RTAD_BENCH_ENGINES",        // "miaow,ml-miaow"
    "RTAD_BENCH_ATTACKS",        // attacks per cell / session (> 0)
    "RTAD_BENCH_FAST_TRAIN",     // 1 = reduced training preset
    "RTAD_BENCH_JSON",           // JSON artifact path
    "RTAD_BENCH_SESSIONS",       // sessions offered to the fleet
    "RTAD_BENCH_TENANTS",        // tenant count
    "RTAD_BENCH_SEED",           // arrival / synthesis seed
    "RTAD_BENCH_RATES",          // fault_sweep rate bins
    "RTAD_BENCH_LOADS",          // serve_throughput offered loads
    "RTAD_BENCH_STORMS",         // serve_failover storm intensities
    "RTAD_BENCH_ZIPF_S",         // serve_failover tenant skew
    "RTAD_BENCH_SAMPLES",        // telemetry samples per tenant
    "RTAD_BENCH_QUERIES",        // telemetry ranked-query repetitions
    "RTAD_BENCH_BACKEND_PROBE",  // fig8 offline backend probe inferences
    // Serve fleet, read by service_config().
    "RTAD_SERVE_SHARDS",  // fleet width
    "RTAD_SERVE_POLICY",  // overload policy: shed | degrade
    // Process axes, read by the library under src/.
    "RTAD_JOBS",         // worker threads
    "RTAD_SCHED",        // simulation kernel: dense | event
    "RTAD_BACKEND",      // GPU backend: cycle | fast
    "RTAD_TRACE_PROTO",  // trace protocol: pft | etrace
    "RTAD_TRACE",        // Chrome-trace export path
    "RTAD_METRICS",      // rtad.metrics.v2 export path
    "RTAD_FAULTS",       // fault plan (key=value list)
};

/// `name`, checked at compile time against kVocabulary — a bench cannot
/// read a knob the typo guard would refuse to let a user set.
consteval const char* knob(const char* name) {
  for (const std::string_view v : kVocabulary) {
    if (v == name) return name;
  }
  throw "not an RTAD_* vocabulary name";
}

/// Runs a bench body behind the knob guard. An RTAD_* name outside
/// kVocabulary, or a malformed knob (std::invalid_argument, which names
/// the variable), ends the run with "<tag>: <message>" on stderr and exit
/// status 2.
int run(const char* tag, int (*body)());

/// `defaults` with the fleet knobs applied: RTAD_SERVE_SHARDS,
/// RTAD_SERVE_POLICY and the serve.* keys and seed of the RTAD_FAULTS plan.
serve::ServiceConfig service_config(serve::ServiceConfig defaults);

/// RTAD_BENCH_BENCHMARKS resolved to catalog names (short forms accepted).
std::vector<std::string> benchmarks(std::vector<std::string> fallback);

/// The workload of a single-benchmark bench; refuses a list of more than
/// one.
std::string benchmark(const char* fallback);

/// RTAD_BENCH_MODELS ("elm", "lstm").
std::vector<core::ModelKind> models(std::vector<core::ModelKind> fallback);

/// RTAD_BENCH_ENGINES ("miaow", "ml-miaow").
std::vector<core::EngineKind> engines(std::vector<core::EngineKind> fallback);

/// RTAD_BENCH_FAST_TRAIN=1: CI smokes train on a reduced corpus, so
/// simulation rather than host-side training dominates their wall clock.
/// The resulting models are still deterministic.
bool fast_train();

/// TrainingOptions{}, or the reduced preset under fast_train().
core::TrainingOptions training_options();

/// Peak resident set of this process in KiB (VmHWM), 0 where
/// /proc/self/status is unavailable. Unlike getrusage's ru_maxrss it does
/// not inherit the high-water mark of the process that exec'd the bench.
std::uint64_t peak_rss_kib();

}  // namespace rtad::bench
