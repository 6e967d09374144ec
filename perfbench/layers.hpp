// Per-layer probes for the traced run: each times the public calls of one
// module from outside, on the workload's own inputs.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "rtad/core/detection_session.hpp"
#include "rtad/telemetry/query.hpp"
#include "rtad/telemetry/store.hpp"

namespace perfbench {

/// Branch-path layers replayed in isolation: TraceGenerator::next,
/// the protocol encoder and decoder, and the IGM mapper + vector encoder.
struct StreamCosts {
  std::uint64_t branches = 0;  ///< generator steps replayed and encoded
  std::uint64_t bytes = 0;     ///< encoder output
  std::uint64_t decoded = 0;   ///< waypoints the decoder reconstructed
  std::uint64_t accepted = 0;  ///< decoded branches the mapper passed
  double gen_s = 0.0;
  double encode_s = 0.0;
  double decode_s = 0.0;
  double igm_s = 0.0;
  /// The first input vectors the IGM emitted (GPU probe payloads).
  std::vector<std::vector<std::uint32_t>> vectors;
};

StreamCosts replay_stream(const rtad::workloads::SpecProfile& profile,
                          std::uint64_t seed, rtad::trace::TraceProtocol proto,
                          rtad::core::ModelKind model,
                          const rtad::ml::DatasetBuilder& features,
                          std::uint64_t branches);

/// ml::run_inference_offline on the engine's GPU, default backend.
struct GpuCosts {
  double inference_us = 0.0;  ///< mean host us per inference
  std::uint64_t fast_launches = 0;
};

GpuCosts probe_gpu(const rtad::ml::ModelImage& image,
                   rtad::core::EngineKind engine,
                   const std::vector<std::vector<std::uint32_t>>& payloads,
                   std::size_t inferences);

/// One DetectionSession constructed and run to completion; `wall_s`, when
/// given, receives the wall of run_to_completion() alone.
rtad::core::DetectionResult run_one_shot(
    const rtad::workloads::SpecProfile& profile,
    const rtad::core::TrainedModels& models, rtad::core::ModelKind model,
    rtad::core::EngineKind engine, const rtad::core::DetectionOptions& options,
    double* wall_s = nullptr);

/// One DetectionSession driven by advance() quanta, each timed; every
/// `checkpoint_every` quanta the session is checkpointed (timed), and the
/// checkpoint nearest the middle of the episode is restored (timed).
struct SessionCosts {
  rtad::core::DetectionResult result;
  double session_s = 0.0;  ///< sum of advance() walls
  double wall_s = 0.0;     ///< the whole traced pass, checkpoints included
  std::vector<double> advance_us;
  std::vector<double> checkpoint_us;
  double restore_ms = 0.0;
};

SessionCosts trace_session(const rtad::workloads::SpecProfile& profile,
                           const rtad::core::TrainedModels& models,
                           rtad::core::ModelKind model,
                           rtad::core::EngineKind engine,
                           const rtad::core::DetectionOptions& options,
                           rtad::sim::Picoseconds quantum_ps,
                           std::uint64_t checkpoint_every);

/// The setup phases core::train_models runs, timed one by one.
struct TrainingCosts {
  rtad::core::TrainedModels models;
  double dataset_s = 0.0;
  double lstm_s = 0.0;
  double elm_s = 0.0;
};

TrainingCosts train_traced(const rtad::workloads::SpecProfile& profile,
                           const rtad::core::TrainingOptions& options = {});

/// Appends the workloads / ml / trace / igm / gpgpu / mcm / sim / core
/// per-layer metrics of one traced episode. `untraced` is the same episode
/// run one-shot; its event-kernel skip counters are the ones reported,
/// since chunked advance() regroups skips by design.
void add_pipeline_layers(Result& r, const TrainingCosts& training,
                         const StreamCosts& stream, const GpuCosts& gpu,
                         const SessionCosts& session,
                         const rtad::core::DetectionResult& untraced);

/// The ranked-query shapes both the telemetry and fleet workloads issue.
struct QueryShape {
  std::string name;
  rtad::telemetry::RankQuery query;
};

std::vector<QueryShape> query_shapes(
    const rtad::telemetry::TelemetryStore& store);

/// Read-path timings over one store, per query shape and per series call.
struct QueryCosts {
  std::vector<std::vector<double>> rank_ms;  ///< [shape][repetition]
  std::vector<double> series_us;
};

/// Issues every shape once (timed, digest checked as "rank.<shape>") and
/// extracts the tier-0 series of `series_tenants` (timed, checked as
/// "series.<tenant>"). Each call is one operation.
void run_queries(Result& r, const rtad::telemetry::TelemetryStore& store,
                 const std::vector<QueryShape>& shapes,
                 const std::vector<std::string>& series_tenants,
                 QueryCosts& costs);

/// Appends the telemetry.* per-layer metrics.
void add_telemetry_layers(Result& r,
                          const rtad::telemetry::TelemetryStore& store,
                          const std::vector<QueryShape>& shapes,
                          double append_ns, const QueryCosts& costs);

}  // namespace perfbench
