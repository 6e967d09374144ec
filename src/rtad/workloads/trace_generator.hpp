// Deterministic branch-trace synthesis from a SpecProfile.
#pragma once

#include <cstdint>
#include <vector>

#include "rtad/cpu/branch_event.hpp"
#include "rtad/sim/rng.hpp"
#include "rtad/workloads/spec_model.hpp"

namespace rtad::workloads {

/// One step of synthetic execution: `instr_gap` non-branch instructions
/// followed by one branch event. Timing sidebands (retired_ps, seq) are
/// filled in by whoever executes the step (the HostCpu model or an offline
/// dataset builder).
struct TraceStep {
  cpu::BranchEvent event;
  std::uint32_t instr_gap = 0;  ///< instructions executed before the branch
};

/// Kernel entry layout for syscall targets: syscall `i` lands at
/// kSyscallBase + 32 * i, so the IGM address mapper can both recognize and
/// identify system calls purely from the traced target address.
inline constexpr std::uint64_t kSyscallBase = 0xC000'0000ULL;
inline constexpr std::uint64_t kSyscallStride = 32;

/// Call-walk restart distribution skew (see trace_generator.cpp). Exposed
/// because the monitored-site rate calibration computes window masses from
/// the same distribution: the walk's stationary function popularity is,
/// to first order, exactly this Zipf (restart rate x mean dwell cancel).
inline constexpr double kFuncRestartSkew = 1.1;

/// Nominal program time per retired instruction: the HostCpu retires one
/// instruction per 250 MHz cycle, so the generator's drift clock advances
/// 4000 ps per instruction. Shared by the online SoC and offline dataset
/// builders so both sides of a training snapshot agree on the phase.
inline constexpr std::uint64_t kNominalPsPerInstr = 4'000;

/// Where on the drift timeline a generator starts, and whether it advances.
/// Offline dataset builders freeze the phase (a training snapshot is taken
/// at one instant of the drift schedule); the online generator drifts with
/// nominal program time (base_ps + instructions x kNominalPsPerInstr).
struct DriftCursor {
  std::uint64_t base_ps = 0;
  bool frozen = false;
};

class TraceGenerator {
 public:
  /// Throws std::invalid_argument, naming the field, for a profile the
  /// grammar cannot run: no branch sites, no syscall kinds, or a negative
  /// branch-kind fraction or a call/return/indirect mix above 1.
  TraceGenerator(const SpecProfile& profile, std::uint64_t seed,
                 DriftCursor drift = {});

  /// Produce the next step of the synthetic program.
  TraceStep next();

  /// Advance to the next waypoint (call, return, indirect jump or syscall;
  /// cpu::is_waypoint) and return it. The conditional branches on the way
  /// consume exactly the RNG draws next() would, but their sites, outcomes
  /// and targets are never computed. The returned instr_gap counts every
  /// instruction retired since the previous step, skipped branches
  /// included (saturating at UINT32_MAX), so the generator ends in the
  /// state the same run of next() calls leaves: the waypoints equal next()'s
  /// stream filtered to waypoints, with the gaps summed.
  TraceStep next_waypoint();

  /// Convenience: synthesize `n` steps.
  std::vector<TraceStep> take(std::size_t n);

  const SpecProfile& profile() const noexcept { return profile_; }
  std::uint64_t instructions_emitted() const noexcept { return instructions_; }
  std::uint64_t branches_emitted() const noexcept { return branches_; }

  /// All static branch-site addresses (used to build IGM tables and by the
  /// attack injector, which must inject *legitimate* addresses).
  const std::vector<std::uint64_t>& site_addresses() const noexcept {
    return sites_;
  }
  const std::vector<std::uint64_t>& function_entries() const noexcept {
    return funcs_;
  }

  /// Index of a function-entry address in function_entries(), or -1.
  std::ptrdiff_t function_index(std::uint64_t address) const noexcept;

  /// Target address of syscall number `id`.
  static std::uint64_t syscall_address(std::size_t id) noexcept {
    return kSyscallBase + kSyscallStride * id;
  }

  /// Drift phase the *next* emitted branch falls in (0 when inactive).
  std::uint32_t drift_phase() const noexcept;

 private:
  /// One branch of the grammar, shared by next() and next_waypoint().
  /// Returns false, with only `out.instr_gap` filled in, when
  /// kWaypointsOnly and the branch is a conditional.
  template <bool kWaypointsOnly>
  bool advance(TraceStep& out);
  std::uint64_t site_at(double zipf_u) const noexcept;
  void maybe_switch_phase();

  const SpecProfile profile_;  // by value: generator owns its configuration
  DriftCursor drift_{};
  sim::Xoshiro256 rng_;
  sim::ZipfSampler site_zipf_;        ///< over the phase window
  sim::ZipfSampler func_restart_zipf_;  ///< call-walk restart distribution
  sim::ZipfSampler syscall_zipf_;     ///< over syscall kinds
  sim::GeometricSampler gap_geo_;     ///< instruction gap between branches
  sim::GeometricSampler phase_geo_;   ///< branches per execution phase
  sim::GeometricSampler syscall_geo_;  ///< instructions between syscalls

  std::vector<std::uint64_t> sites_;
  std::vector<std::uint64_t> funcs_;
  std::vector<std::uint64_t> call_stack_;

  std::size_t phase_offset_ = 0;
  std::size_t current_func_ = 0;  ///< call-graph walk position
  std::uint64_t branches_until_phase_switch_ = 0;
  std::int64_t instrs_until_syscall_ = 0;

  std::uint64_t instructions_ = 0;
  std::uint64_t branches_ = 0;
};

}  // namespace rtad::workloads
