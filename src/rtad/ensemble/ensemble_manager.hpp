// Rolling-ensemble lifecycle: staggered generations, off-path retraining,
// hot swap at advance() boundaries, consensus scoring.
//
// The manager owns the fleet's GenerationCache and hands each tenant
// session a core::EnsembleSource for its (benchmark, model kind). Member
// membership itself is a pure function of simulated time (see
// core::EnsembleParams), so the manager carries no mutable schedule state —
// it is the training side of the story:
//
//   * prefetch() submits upcoming generations to the PR-1 thread pool
//     (fire-and-forget), which is how serve::Shard interleaves retraining
//     with dispatch: the simulated-time cadence decides *when* a generation
//     activates, the pool trains it off the hot path beforehand.
//   * A session that reaches a swap boundary before its prefetch landed
//     falls back to GenerationCache's blocking get() — correctness never
//     depends on prefetch timing, only wall-clock does.
//   * drain() joins all outstanding prefetches so fleet counters
//     (generations trained, work units) are read race-free and stay
//     byte-identical across worker counts.
//
// core::EnsembleParams is set as a struct (tests, the serve fleet's
// ServiceConfig::ensemble, bench/ensemble_drift); no knob reads it.
#pragma once

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "rtad/ensemble/generation_cache.hpp"
#include "rtad/sim/thread_pool.hpp"

namespace rtad::ensemble {

class EnsembleManager {
 public:
  /// `pool` may be null: prefetch() then trains inline (tests, standalone
  /// benches). The pool must outlive the manager.
  EnsembleManager(std::shared_ptr<core::TrainedModelCache> base,
                  core::EnsembleParams params,
                  sim::ThreadPool* pool = nullptr);

  const core::EnsembleParams& params() const noexcept { return params_; }
  GenerationCache& cache() noexcept { return cache_; }

  /// The EnsembleSource sessions of (benchmark, kind) fetch members from.
  /// The reference stays valid for the manager's lifetime.
  core::EnsembleSource& source(const std::string& benchmark,
                               core::ModelKind kind);

  /// Schedule training of every generation up to `up_to_generation`
  /// (inclusive) off the hot path. Fire-and-forget; duplicate prefetches
  /// collapse onto the cache's call_once entries.
  void prefetch(const std::string& benchmark, core::ModelKind kind,
                std::uint32_t up_to_generation);

  /// Wait for every outstanding prefetch. Call before harvesting counters.
  void drain();

  std::uint64_t generations_trained() const noexcept {
    return cache_.generations_trained();
  }
  std::uint64_t retrain_work_units() const noexcept {
    return cache_.retrain_work_units();
  }
  std::uint64_t retrain_wall_ns() const noexcept {
    return cache_.retrain_wall_ns();
  }

 private:
  struct Source : core::EnsembleSource {
    Source(EnsembleManager* owner, std::string benchmark,
           core::ModelKind kind)
        : owner_(owner), benchmark_(std::move(benchmark)), kind_(kind) {}
    const core::TrainedModels& generation(std::uint32_t gen) override {
      return owner_->cache_.get(benchmark_, kind_, gen);
    }
    EnsembleManager* owner_;
    std::string benchmark_;
    core::ModelKind kind_;
  };

  core::EnsembleParams params_;
  GenerationCache cache_;
  sim::ThreadPool* pool_;
  std::mutex mutex_;  ///< guards sources_ and prefetches_
  std::map<std::pair<std::string, std::uint8_t>, std::unique_ptr<Source>>
      sources_;
  std::vector<std::future<void>> prefetches_;
};

}  // namespace rtad::ensemble
