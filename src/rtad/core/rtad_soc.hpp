// RtadSoc — the assembled MPSoC of Fig. 1 and the library's main entry
// point.
//
//   host CPU (250 MHz) -> CoreSight PTM -> TPIU ==32-bit port==>
//   MLPU (125 MHz): IGM -> MCM <-> ML-MIAOW (50 MHz, 1 or 5 CUs)
//   MCM --IRQ--> host CPU
//
// The constructor wires every module into a multi-clock simulator,
// programs the IGM lookup/conversion tables from the model's feature
// configuration, and loads the model image into ML-MIAOW memory.
#pragma once

#include <memory>

#include "rtad/attack/injector.hpp"
#include "rtad/core/config.hpp"
#include "rtad/coresight/tpiu.hpp"
#include "rtad/coresight/trace_source.hpp"
#include "rtad/cpu/host_cpu.hpp"
#include "rtad/fault/fault_injector.hpp"
#include "rtad/gpgpu/gpu.hpp"
#include "rtad/igm/igm.hpp"
#include "rtad/mcm/mcm.hpp"
#include "rtad/ml/dataset.hpp"
#include "rtad/ml/kernel_compiler.hpp"
#include "rtad/sim/simulator.hpp"
#include "rtad/workloads/trace_generator.hpp"

namespace rtad::core {

class RtadSoc {
 public:
  /// `image` may be null for runs that do not exercise the MLPU inference
  /// path (Baseline / SW overhead measurements). `features` provides the
  /// monitored-address tables; required when `image` is set.
  RtadSoc(SocConfig config, const ml::ModelImage* image,
          const ml::DatasetBuilder* features);
  ~RtadSoc();

  RtadSoc(const RtadSoc&) = delete;
  RtadSoc& operator=(const RtadSoc&) = delete;

  // --- module access ---
  sim::Simulator& simulator() noexcept { return sim_; }
  cpu::HostCpu& host_cpu() noexcept { return *cpu_; }
  coresight::TraceSource& trace_source() noexcept { return *trace_source_; }
  coresight::Tpiu& tpiu() noexcept { return *tpiu_; }
  igm::Igm& igm() noexcept { return *igm_; }
  mcm::Mcm& mcm() noexcept { return *mcm_; }
  gpgpu::Gpu& gpu() noexcept { return *gpu_; }
  attack::AttackInjector& injector() noexcept { return *injector_; }
  /// The fault layer, or nullptr when the run has no (effective) FaultPlan.
  fault::FaultInjector* fault_injector() noexcept {
    return fault_injector_.get();
  }
  const SocConfig& config() const noexcept { return config_; }

  // --- run control ---
  /// Run until the host has retired `n` program instructions (or deadline).
  void run_for_instructions(std::uint64_t n,
                            sim::Picoseconds deadline_ps = UINT64_MAX);
  void run_until(sim::Picoseconds deadline_ps);
  /// Run until predicate or deadline.
  sim::Picoseconds run_while(const std::function<bool()>& keep_going,
                             sim::Picoseconds deadline_ps);
  /// Fire exactly one edge group on the dense grid (see
  /// sim::Simulator::step_group). Returns whether a group fired.
  bool step(sim::Picoseconds deadline_ps) { return sim_.step_group(deadline_ps); }

  /// Arm the injector for an attack at an absolute instruction count.
  void arm_attack(std::uint64_t trigger_instruction);

 private:
  void program_igm_tables(const ml::DatasetBuilder& features);

  SocConfig config_;
  sim::Simulator sim_;

  // Declared before the components so every module holding a raw pointer to
  // the injector is destroyed first.
  std::unique_ptr<fault::FaultInjector> fault_injector_;

  std::unique_ptr<workloads::TraceGenerator> generator_;
  std::unique_ptr<cpu::GeneratorSource> generator_source_;
  std::unique_ptr<attack::AttackInjector> injector_;
  std::unique_ptr<coresight::TraceSource> trace_source_;
  std::unique_ptr<coresight::Tpiu> tpiu_;
  std::unique_ptr<cpu::HostCpu> cpu_;
  std::unique_ptr<igm::Igm> igm_;
  std::unique_ptr<gpgpu::Gpu> gpu_;
  std::unique_ptr<mcm::Mcm> mcm_;
};

/// The per-engine GPU configuration: MIAOW = 1 untrimmed CU; ML-MIAOW =
/// 5 CUs trimmed to the ML kernels' coverage.
gpgpu::GpuConfig gpu_config_for(EngineKind kind,
                                std::uint32_t dispatch_latency);

}  // namespace rtad::core
