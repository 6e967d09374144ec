#include "rtad/workloads/trace_generator.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace rtad::workloads {

namespace {
constexpr std::size_t kMaxCallDepth = 64;

// Call-target dynamics: a local random walk over the call graph (programs
// traverse clusters of related functions — a module's helpers sit close
// together) with Zipf-distributed restarts (returns to hot entry points).
// The restart distribution makes long-run function popularity heavy-tailed
// — so a *rate-targeted* monitored subset exists at every depth — while
// the local walk gives the call sequence the temporal structure the LSTM
// branch models learn.
constexpr double kCallRestartProbability = 0.15;
constexpr std::int64_t kCallWalkSpan = 3;  ///< walk step in [-span, +span]

std::size_t function_count(const SpecProfile& p) {
  // Large enough that the restart-Zipf tail offers arbitrarily quiet
  // "modules": the monitored-site rate calibration needs windows whose mass
  // sits below ~1e-3 even for programs with sparse call activity.
  return std::max<std::size_t>(4096, p.branch_sites);
}

const SpecProfile& validated(const SpecProfile& p) {
  const auto reject = [&](const std::string& what) {
    throw std::invalid_argument("TraceGenerator: profile '" + p.name +
                                "': " + what);
  };
  if (p.branch_sites == 0) reject("branch_sites must be positive");
  if (p.syscall_kinds == 0) reject("syscall_kinds must be positive");
  if (!(p.call_fraction >= 0.0)) reject("call_fraction must be >= 0");
  if (!(p.return_fraction >= 0.0)) reject("return_fraction must be >= 0");
  if (!(p.indirect_fraction >= 0.0)) reject("indirect_fraction must be >= 0");
  if (p.call_fraction + p.return_fraction + p.indirect_fraction > 1.0) {
    reject("call_fraction + return_fraction + indirect_fraction exceeds 1");
  }
  return p;
}
}  // namespace

TraceGenerator::TraceGenerator(const SpecProfile& profile, std::uint64_t seed,
                               DriftCursor drift)
    : profile_(validated(profile)),
      drift_(drift),
      rng_(seed),
      site_zipf_(std::min(profile.phase_window, profile.branch_sites),
                 profile.zipf_skew),
      func_restart_zipf_(function_count(profile), kFuncRestartSkew),
      syscall_zipf_(profile.syscall_kinds, profile.syscall_zipf_skew),
      gap_geo_(profile.branch_fraction),
      phase_geo_(1.0 / static_cast<double>(profile.phase_length_branches)),
      syscall_geo_(1.0 /
                   static_cast<double>(profile.syscall_interval_instrs)) {
  sites_.reserve(profile_.branch_sites);
  for (std::size_t i = 0; i < profile_.branch_sites; ++i) {
    // ~16-byte average spacing with deterministic jitter; even addresses
    // (PFT never traces bit 0).
    const std::uint64_t jitter = ((i * 2654435761ULL) >> 27) & 0xEULL;
    sites_.push_back(profile_.code_base + i * 16 + jitter);
  }
  const std::size_t n_funcs = function_count(profile_);
  funcs_.reserve(n_funcs);
  for (std::size_t j = 0; j < n_funcs; ++j) {
    funcs_.push_back(profile_.code_base + 0x8'0000 + j * 256);
  }
  branches_until_phase_switch_ = 1 + phase_geo_.sample(rng_);
  instrs_until_syscall_ =
      static_cast<std::int64_t>(1 + syscall_geo_.sample(rng_));
}

std::uint32_t TraceGenerator::drift_phase() const noexcept {
  if (!profile_.drift.active()) return 0;
  const std::uint64_t at =
      drift_.frozen ? drift_.base_ps
                    : drift_.base_ps + instructions_ * kNominalPsPerInstr;
  return profile_.drift.phase_at_ps(at);
}

std::uint64_t TraceGenerator::site_at(double zipf_u) const noexcept {
  const std::size_t idx = phase_offset_ + site_zipf_.index_of(zipf_u);
  return sites_[idx % sites_.size()];
}

void TraceGenerator::maybe_switch_phase() {
  if (--branches_until_phase_switch_ > 0) return;
  const std::size_t window = std::min(profile_.phase_window, sites_.size());
  const std::size_t span = sites_.size() > window ? sites_.size() - window : 1;
  phase_offset_ = rng_.uniform_below(span);
  branches_until_phase_switch_ = 1 + phase_geo_.sample(rng_);
}

template <bool kWaypointsOnly>
bool TraceGenerator::advance(TraceStep& out) {
  // gap ~ Geometric(f) non-branch instructions, then the branch itself:
  // one branch per 1/f instructions on average.
  const std::uint32_t gap = static_cast<std::uint32_t>(gap_geo_.sample(rng_));
  out.instr_gap = gap;
  instructions_ += gap + 1;  // the branch is an instruction too
  ++branches_;
  maybe_switch_phase();
  // The site is drawn before the kind is known; its Zipf search waits
  // until the branch turns out to be materialised. The drift phase, read
  // where a kind needs it, only reshapes existing draws — no phase effect
  // adds or removes one — so generators with and without an active
  // schedule stay in RNG lockstep.
  const double site_u = rng_.uniform();

  cpu::BranchEvent& ev = out.event;
  ev.taken = true;

  instrs_until_syscall_ -= gap + 1;
  if (instrs_until_syscall_ <= 0) {
    ev.kind = cpu::BranchKind::kSyscall;
    ev.source = site_at(site_u);
    std::size_t id = syscall_zipf_.sample(rng_);
    id = (id + static_cast<std::size_t>(drift_phase()) *
                   profile_.drift.syscall_rotate) %
         profile_.syscall_kinds;
    ev.target = syscall_address(id);
    instrs_until_syscall_ =
        static_cast<std::int64_t>(1 + syscall_geo_.sample(rng_));
    return true;
  }

  const double u = rng_.uniform();
  const double call_cut = profile_.call_fraction;
  const double ret_cut = call_cut + profile_.return_fraction;
  const double ind_cut = ret_cut + profile_.indirect_fraction;

  if (u < call_cut) {
    ev.kind = cpu::BranchKind::kCall;
    ev.source = site_at(site_u);
    if (rng_.chance(kCallRestartProbability)) {
      current_func_ = func_restart_zipf_.sample(rng_);
    } else {
      const std::int64_t raw =
          static_cast<std::int64_t>(rng_.uniform_below(2 * kCallWalkSpan)) -
          kCallWalkSpan;
      std::int64_t step = raw >= 0 ? raw + 1 : raw;
      const std::uint32_t drift_ph = drift_phase();
      if (drift_ph != 0) {
        step += (drift_ph % 2 != 0) ? profile_.drift.walk_bias
                                    : -profile_.drift.walk_bias;
      }
      // Saturate at the ends (no wrap-around: index distance is "module
      // distance", and the hot head must not leak into the deep tail).
      const auto n = static_cast<std::int64_t>(funcs_.size());
      const std::int64_t next =
          std::clamp<std::int64_t>(
              static_cast<std::int64_t>(current_func_) + step, 0, n - 1);
      current_func_ = static_cast<std::size_t>(next);
    }
    ev.target = funcs_[current_func_];
    if (call_stack_.size() >= kMaxCallDepth) {
      call_stack_.erase(call_stack_.begin());
    }
    call_stack_.push_back(ev.source + 4);
  } else if (u < ret_cut && !call_stack_.empty()) {
    ev.kind = cpu::BranchKind::kReturn;
    ev.source = site_at(site_u);
    ev.target = call_stack_.back();
    call_stack_.pop_back();
  } else if (u < ind_cut) {
    ev.kind = cpu::BranchKind::kIndirectJump;
    ev.source = site_at(site_u);
    ev.target = site_at(rng_.uniform());
  } else {
    // A conditional's three draws (taken, offset, offset sign) are taken
    // raw, so a skipped conditional consumes exactly what a full one does.
    const std::uint64_t taken_draw = rng_.next();
    const std::uint64_t offset_draw = rng_.next();
    const std::uint64_t sign_draw = rng_.next();
    if constexpr (kWaypointsOnly) return false;
    ev.kind = cpu::BranchKind::kConditional;
    ev.source = site_at(site_u);
    double taken_rate = profile_.cond_taken_rate;
    const std::uint32_t drift_ph = drift_phase();
    if (drift_ph != 0) {
      taken_rate += (drift_ph % 2 != 0) ? profile_.drift.taken_swing
                                        : -profile_.drift.taken_swing;
      taken_rate = std::clamp(taken_rate, 0.01, 0.99);
    }
    ev.taken = sim::Xoshiro256::to_unit(taken_draw) < taken_rate;
    // Short forward/backward offset; atoms do not carry it, but keeping a
    // plausible target makes the event stream self-consistent.
    const std::uint64_t offset =
        (sim::Xoshiro256::scale_below(offset_draw, 64) + 1) * 2;
    ev.target = sim::Xoshiro256::to_unit(sign_draw) < 0.5
                    ? ev.source + offset
                    : (ev.source > offset ? ev.source - offset
                                          : ev.source + offset);
  }
  return true;
}

TraceStep TraceGenerator::next() {
  TraceStep out;
  advance<false>(out);
  return out;
}

TraceStep TraceGenerator::next_waypoint() {
  TraceStep out;
  std::uint64_t skipped = 0;  // instructions of the skipped conditionals
  while (!advance<true>(out)) skipped += out.instr_gap + 1;
  out.instr_gap = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      skipped + out.instr_gap, std::numeric_limits<std::uint32_t>::max()));
  return out;
}

std::ptrdiff_t TraceGenerator::function_index(
    std::uint64_t address) const noexcept {
  const std::uint64_t base = profile_.code_base + 0x8'0000;
  if (address < base || (address - base) % 256 != 0) return -1;
  const std::uint64_t idx = (address - base) / 256;
  if (idx >= funcs_.size()) return -1;
  return static_cast<std::ptrdiff_t>(idx);
}

std::vector<TraceStep> TraceGenerator::take(std::size_t n) {
  std::vector<TraceStep> steps;
  steps.reserve(n);
  for (std::size_t i = 0; i < n; ++i) steps.push_back(next());
  return steps;
}

}  // namespace rtad::workloads
