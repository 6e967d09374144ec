#include "rtad/ml/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>

namespace rtad::ml {

DatasetBuilder::DatasetBuilder(const workloads::SpecProfile& profile,
                               std::uint64_t seed, FeatureConfig config,
                               std::uint64_t drift_at_ps)
    : config_(config),
      seed_(seed),
      drift_at_ps_(drift_at_ps),
      generator_(profile, seed,
                 workloads::DriftCursor{drift_at_ps, /*frozen=*/true}) {
  // Monitored sites are function entries, which only calls reach: without
  // calls collect_lstm() would never find a token.
  if (!(profile.call_fraction > 0.0)) {
    throw std::invalid_argument("DatasetBuilder: profile '" + profile.name +
                                "': call_fraction must be positive");
  }
  // Pick an *index-contiguous* window of `monitored_sites` functions (a
  // "module" of the program — the call walk's locality lives in index
  // space) whose combined call rate matches the target. Contiguity is what
  // makes the monitored token stream structured: when the call walk enters
  // the module it emits a run of adjacent tokens.
  //
  // The walk's long-run function popularity is (to first order) its restart
  // distribution — restart probability and mean dwell cancel — so window
  // rates are computed analytically from the restart Zipf, which is far
  // more accurate than estimating rare-window rates from a sampled census.
  const auto& funcs = generator_.function_entries();
  const std::size_t n =
      std::min<std::size_t>(config_.monitored_sites, funcs.size());
  const double call_rate =
      profile.branch_fraction * profile.call_fraction;  // calls / instr
  const double target_rate =
      profile.branch_fraction / config_.lstm_interarrival_k;  // events/instr
  const double target_mass = target_rate / call_rate;

  std::vector<double> weight(funcs.size());
  double total = 0.0;
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    weight[i] = 1.0 / std::pow(static_cast<double>(i + 1),
                               workloads::kFuncRestartSkew);
    total += weight[i];
  }
  double window_mass = 0.0;
  for (std::size_t i = 0; i < n; ++i) window_mass += weight[i] / total;
  double best_err = std::abs(window_mass - target_mass);
  std::size_t best_start = 0;
  for (std::size_t start = 1; start + n <= funcs.size(); ++start) {
    window_mass -= weight[start - 1] / total;
    window_mass += weight[start + n - 1] / total;
    const double err = std::abs(window_mass - target_mass);
    if (err < best_err) {
      best_err = err;
      best_start = start;
    }
  }
  monitored_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    monitored_.push_back(funcs[best_start + i]);
  }
  std::sort(monitored_.begin(), monitored_.end());
}

std::uint32_t DatasetBuilder::lstm_token(std::uint64_t address) const noexcept {
  const auto it =
      std::lower_bound(monitored_.begin(), monitored_.end(), address);
  if (it == monitored_.end() || *it != address) return config_.lstm_vocab - 1;
  return static_cast<std::uint32_t>(it - monitored_.begin());
}

LstmDataset DatasetBuilder::collect_lstm(std::size_t n_events) {
  LstmDataset ds;
  ds.tokens.reserve(n_events);
  // Only waypoints can reach the IGM's address mapper, so the generator
  // skips the conditionals between them without materialising them.
  while (ds.tokens.size() < n_events) {
    const auto& ev = generator_.next_waypoint().event;
    const auto it =
        std::lower_bound(monitored_.begin(), monitored_.end(), ev.target);
    if (it == monitored_.end() || *it != ev.target) continue;
    ds.tokens.push_back(static_cast<std::uint32_t>(it - monitored_.begin()));
  }
  return ds;
}

ElmDataset DatasetBuilder::collect_elm(std::size_t n_windows) {
  // Syscall identities in the workload model are i.i.d. Zipf draws,
  // independent of the surrounding control flow, so the histogram dataset
  // is sampled directly instead of generating the millions of intervening
  // instructions (syscalls are ~2e6 instructions apart).
  const auto& profile = generator_.profile();
  sim::Xoshiro256 rng(seed_ ^ 0xE1'AA'00'77ULL);
  sim::ZipfSampler zipf(profile.syscall_kinds, profile.syscall_zipf_skew);
  // Apply the drift schedule's syscall rotation at the frozen snapshot
  // phase — direct sampling must match what the generator would emit there.
  const std::uint32_t drift_ph = profile.drift.phase_at_ps(drift_at_ps_);
  const std::size_t rotate =
      static_cast<std::size_t>(drift_ph) * profile.drift.syscall_rotate;

  ElmDataset ds;
  ds.windows.reserve(n_windows);
  std::deque<std::uint32_t> window;
  std::vector<std::uint32_t> counts(config_.elm_vocab, 0);
  const float scale = 1.0f / static_cast<float>(config_.elm_window);
  while (ds.windows.size() < n_windows) {
    const std::uint64_t addr = workloads::TraceGenerator::syscall_address(
        (zipf.sample(rng) + rotate) % profile.syscall_kinds);
    const std::uint32_t bucket = elm_bucket(addr);
    window.push_back(bucket);
    ++counts[bucket];
    if (window.size() > config_.elm_window) {
      --counts[window.front()];
      window.pop_front();
    }
    if (window.size() < config_.elm_window) continue;  // warm-up
    Vector x(config_.elm_vocab);
    for (std::size_t i = 0; i < counts.size(); ++i) {
      x[i] = static_cast<float>(counts[i]) * scale;
    }
    ds.windows.push_back(std::move(x));
  }
  return ds;
}

}  // namespace rtad::ml
