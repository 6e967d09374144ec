// Software-instrumentation cost models for the Fig. 6 comparison.
//
// The paper compares four ways of getting branch data out of the host:
//   Baseline — no collection at all,
//   RTAD     — CoreSight PTM enabled, MLPU listening (no CPU feedback path),
//   SW_SYS   — strace-style syscall interception,
//   SW_FUNC  — binary instrumentation dumping every call/return,
//   SW_ALL   — binary instrumentation dumping every branch.
// Each software mechanism charges extra host instructions per traced event;
// RTAD charges a tiny residual for the enabled PTM interface (trace-funnel
// arbitration), which the paper reports as 0.052% geometric mean.
#pragma once

#include <cstdint>

#include "rtad/cpu/branch_event.hpp"

namespace rtad::cpu {

enum class InstrumentationMode : std::uint8_t {
  kBaseline,  ///< no tracing
  kRtad,      ///< PTM + MLPU (hardware path)
  kSwSys,     ///< strace: intercept system calls
  kSwFunc,    ///< instrument calls and returns
  kSwAll,     ///< instrument every branch
};

const char* to_string(InstrumentationMode mode) noexcept;

/// Extra host instructions charged per traced event. Calibration notes:
///  * strace costs two ptrace stops (entry/exit) with full context switches —
///    thousands of instructions per syscall, but syscalls are rare;
///  * an inlined dump stub (store address + bump pointer, occasional buffer
///    flush) costs a handful of instructions per event;
///  * PTM residual models trace-funnel/bus arbitration slivers.
struct InstrumentationCosts {
  double strace_per_syscall = 9'000.0;
  double dump_per_call_return = 3.4;
  double dump_per_branch = 2.0;
  double dump_flush_per_event = 0.4;    ///< amortized buffer-flush cost
  double ptm_residual_per_branch = 0.003;
};

/// Extra instructions this event costs under `mode`.
double instrumentation_cost(InstrumentationMode mode, BranchKind kind,
                            const InstrumentationCosts& costs) noexcept;

/// Whether the hardware trace source should be enabled under `mode` (only
/// the hardware path uses it; software mechanisms write their own buffers).
constexpr bool uses_hw_trace(InstrumentationMode mode) noexcept {
  return mode == InstrumentationMode::kRtad;
}

}  // namespace rtad::cpu
