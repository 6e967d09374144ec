#include "rtad/ensemble/ensemble_manager.hpp"

namespace rtad::ensemble {

EnsembleManager::EnsembleManager(
    std::shared_ptr<core::TrainedModelCache> base, core::EnsembleParams params,
    sim::ThreadPool* pool)
    : params_(params), cache_(std::move(base), params), pool_(pool) {}

core::EnsembleSource& EnsembleManager::source(const std::string& benchmark,
                                              core::ModelKind kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot =
      sources_[std::pair{benchmark, static_cast<std::uint8_t>(kind)}];
  if (!slot) slot = std::make_unique<Source>(this, benchmark, kind);
  return *slot;
}

void EnsembleManager::prefetch(const std::string& benchmark,
                               core::ModelKind kind,
                               std::uint32_t up_to_generation) {
  for (std::uint32_t gen = 1; gen <= up_to_generation; ++gen) {
    if (pool_ == nullptr) {
      cache_.get(benchmark, kind, gen);
      continue;
    }
    auto fut = pool_->submit(
        [this, benchmark, kind, gen] { cache_.get(benchmark, kind, gen); });
    std::lock_guard<std::mutex> lock(mutex_);
    prefetches_.push_back(std::move(fut));
  }
}

void EnsembleManager::drain() {
  std::vector<std::future<void>> pending;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending.swap(prefetches_);
  }
  for (auto& f : pending) f.get();
}

}  // namespace rtad::ensemble
