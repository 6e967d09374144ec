// Top-level RTAD configuration.
#pragma once

#include <cstdint>
#include <optional>

#include "rtad/attack/injector.hpp"
#include "rtad/coresight/trace_source.hpp"
#include "rtad/cpu/instrumentation.hpp"
#include "rtad/fault/fault_plan.hpp"
#include "rtad/gpgpu/gpu.hpp"
#include "rtad/igm/igm.hpp"
#include "rtad/mcm/mcm.hpp"
#include "rtad/obs/observer.hpp"
#include "rtad/sim/simulator.hpp"
#include "rtad/trace/protocol.hpp"
#include "rtad/workloads/spec_model.hpp"

namespace rtad::core {

/// Which inference engine is instantiated in the MLPU.
enum class EngineKind : std::uint8_t {
  kMiaow,    ///< original MIAOW: untrimmed, 1 CU (all that fits the FPGA)
  kMlMiaow,  ///< trimmed ML-MIAOW: 5 CUs in the same area budget
};

const char* to_string(EngineKind kind) noexcept;

/// Which anomaly model is deployed.
enum class ModelKind : std::uint8_t {
  kElm,   ///< syscall-window ELM [2]
  kLstm,  ///< monitored-branch LSTM [8]
};

const char* to_string(ModelKind kind) noexcept;

/// Clock plan of the prototype (§IV): CPU 250 MHz, MLPU fabric 125 MHz,
/// ML-MIAOW 50 MHz.
struct ClockPlan {
  std::uint64_t cpu_hz = 250'000'000;
  std::uint64_t fabric_hz = 125'000'000;
  std::uint64_t gpu_hz = 50'000'000;
};

struct SocConfig {
  workloads::SpecProfile profile;
  cpu::InstrumentationMode mode = cpu::InstrumentationMode::kRtad;
  EngineKind engine = EngineKind::kMlMiaow;
  ModelKind model = ModelKind::kLstm;
  std::uint64_t seed = 1;
  /// Where on the profile's drift timeline this SoC's workload starts (the
  /// serve layer passes the session's fleet arrival). Irrelevant — and the
  /// run byte-identical — when the profile carries no active schedule.
  std::uint64_t drift_base_ps = 0;
  ClockPlan clocks{};
  /// Trace packet grammar spoken across the whole frontend (trace source,
  /// TPIU bytes, TA decoder); overridable per-process with
  /// RTAD_TRACE_PROTO=pft|etrace. Overrides any protocol set on the
  /// trace_source / igm sub-configs below — the SoC wires one grammar end
  /// to end.
  trace::TraceProtocol trace_proto = trace::default_trace_protocol();
  coresight::TraceSourceConfig trace_source{};
  igm::IgmConfig igm{};
  mcm::McmConfig mcm{};
  std::uint32_t gpu_dispatch_latency = 8;
  std::optional<attack::AttackConfig> attack;
  /// Deterministic fault plan; defaults to the RTAD_FAULTS environment
  /// variable (resolved once per process). A nullopt (or all-zero) plan
  /// leaves the pipeline byte-identical to a build without the fault layer.
  std::optional<fault::FaultPlan> faults = fault::default_plan();
  /// Scheduling kernel (dense reference vs. idle-aware event-driven);
  /// overridable per-process with RTAD_SCHED=dense|event.
  sim::SchedMode sched = sim::default_sched_mode();
  /// Kernel execution backend (cycle-level oracle vs. decode-once fast
  /// path); overridable per-process with RTAD_BACKEND=cycle|fast. Both
  /// produce byte-identical results and timing.
  gpgpu::GpuBackend gpu_backend = gpgpu::default_gpu_backend();
  /// Observability context (not owned, may be null). When set, every
  /// component registers a cycle account with it — and, if it carries a
  /// trace sink, span/counter tracks too. Installed after construction and
  /// model load so initialization traffic is not traced; must outlive the
  /// SoC's runs. Null keeps all instrumentation on its no-op path.
  obs::Observer* observer = nullptr;
};

}  // namespace rtad::core
