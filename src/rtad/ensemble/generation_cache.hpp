// Generation-keyed model store for rolling ensembles.
//
// Generalizes core::TrainedModelCache from "one frozen model per benchmark"
// to entries keyed by {benchmark, model kind, window generation}. Generation
// 0 is the anchor: it delegates to the base cache, so the rolling path
// reuses the exact weights (and device images) the frozen path deploys.
// Generation g >= 1 retrains the requested model kind on the trailing trace
// window of the drifting workload — the dataset builder's drift snapshot is
// frozen at EnsembleParams::training_snapshot_ps(g) — with the *same*
// training options and seed as the anchor. On a workload with no active
// drift schedule every generation therefore reproduces the anchor's weights
// bit-for-bit, which is what makes a zero-drift rolling run byte-identical
// to the frozen baseline.
//
// Concurrency follows the base cache's call_once discipline: the first
// toucher of an entry trains inline on its own thread, peers block on that
// running training (never on a queued pool task), so pool workers cannot
// deadlock. The ensemble layer prefetches upcoming generations over the
// thread pool; a session that outruns its prefetch simply trains inline at
// the swap boundary.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>

#include "rtad/core/experiment_runner.hpp"

namespace rtad::ensemble {

class GenerationCache {
 public:
  GenerationCache(std::shared_ptr<core::TrainedModelCache> base,
                  core::EnsembleParams params);

  /// Models of `generation` for (benchmark, kind). Blocks until trained;
  /// the reference stays valid for the cache's lifetime. Generation 0 is
  /// the base cache's frozen entry (both model kinds populated); later
  /// generations train only the requested kind — the other side of the
  /// returned TrainedModels is left empty.
  const core::TrainedModels& get(const std::string& benchmark,
                                 core::ModelKind kind,
                                 std::uint32_t generation);

  const core::EnsembleParams& params() const noexcept { return params_; }
  core::TrainedModelCache& base() noexcept { return *base_; }

  /// Generations actually retrained (excludes anchor delegations). A pure
  /// function of the set of entries requested, so fleet-stable.
  std::uint64_t generations_trained() const noexcept {
    return generations_trained_.load(std::memory_order_relaxed);
  }
  /// Deterministic retrain work units: training tokens + windows collected
  /// across all retrained generations (the simulated-cost proxy reported
  /// in rtad.serve.v2 health).
  std::uint64_t retrain_work_units() const noexcept {
    return retrain_work_units_.load(std::memory_order_relaxed);
  }
  /// Host wall-clock spent retraining. Diagnostics only — stderr and the
  /// BENCH host object, never byte-stable output.
  std::uint64_t retrain_wall_ns() const noexcept {
    return retrain_wall_ns_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    std::once_flag once;
    std::unique_ptr<const core::TrainedModels> models;
  };
  using Key = std::tuple<std::string, std::uint8_t, std::uint32_t>;

  std::shared_ptr<core::TrainedModelCache> base_;
  core::EnsembleParams params_;
  mutable std::mutex mutex_;  ///< guards the map; entries train unlocked
  std::map<Key, std::unique_ptr<Entry>> entries_;
  std::atomic<std::uint64_t> generations_trained_{0};
  std::atomic<std::uint64_t> retrain_work_units_{0};
  std::atomic<std::uint64_t> retrain_wall_ns_{0};
};

}  // namespace rtad::ensemble
