// Shared test fixtures: the reduced detection setup the SoC-level suites
// (checkpoint, determinism, fastpath, obs, serve, serve_failover, soc) run
// on. A capped syscall interval keeps simulated time short and a reduced
// training corpus keeps model training to seconds; both stay deterministic.
#pragma once

#include <memory>
#include <string>

#include "rtad/core/experiment.hpp"
#include "rtad/core/experiment_runner.hpp"
#include "rtad/workloads/spec_model.hpp"

namespace rtad::fixtures {

inline workloads::SpecProfile fast_profile(const std::string& name) {
  auto p = workloads::find_profile(name);
  p.syscall_interval_instrs = 40'000;  // keep sim time short
  return p;
}

inline core::TrainingOptions fast_training() {
  core::TrainingOptions opt;
  opt.lstm_train_tokens = 2'500;
  opt.lstm_val_tokens = 700;
  opt.elm_train_windows = 250;
  opt.elm_val_windows = 80;
  opt.lstm.epochs = 2;
  return opt;
}

/// One model cache per test binary: each benchmark trains once, however
/// many tests deploy it.
inline std::shared_ptr<core::TrainedModelCache> shared_cache() {
  static const auto cache = std::make_shared<core::TrainedModelCache>(
      fast_training(),
      [](const std::string& name) { return fast_profile(name); });
  return cache;
}

}  // namespace rtad::fixtures
