// Offline dataset construction for model training.
//
// "RTAD can help to collect data for training models by running the target
// application in advance and extracting the branch traces ... using IGM"
// (§III-C). The builder replays the same synthetic workload through the
// same address filtering and token mapping the IGM applies online, so the
// trained model and the deployed hardware agree on features exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "rtad/igm/vector_encoder.hpp"
#include "rtad/ml/linalg.hpp"
#include "rtad/workloads/trace_generator.hpp"

namespace rtad::ml {

/// Feature-space configuration shared between training (here) and the
/// online IGM tables (configured by core::RtadSoc from the same values).
struct FeatureConfig {
  // LSTM (general-branch model [8]): the address mapper passes a set of
  // monitored call-target sites; each maps to its own token. The sites are
  // chosen by a frequency census so that the *combined* monitored-branch
  // rate is commensurate with the inference engine's service rate — the
  // paper's own design point ("users can configure the table to select
  // branches related to their ML models, such as ... critical API function
  // calls"): monitoring every branch would drown any engine.
  std::uint32_t lstm_vocab = 64;
  std::uint32_t monitored_sites = 63;  ///< tokens 0..62; 63 reserved
  /// Target mean instructions between monitored branches is
  /// lstm_interarrival_k / branch_fraction — branchier programs are
  /// monitored at proportionally higher rates, which is what makes the
  /// Fig. 8 LSTM latencies benchmark-dependent.
  double lstm_interarrival_k = 25'000.0;

  // ELM (syscall model [2]): the mapper passes the kernel-entry range; the
  // encoder hash-buckets syscall addresses into a sliding histogram.
  // 16 buckets keep the deployed model lightweight (the paper's point:
  // "more lightweight than a traditional MLP") while remaining
  // discriminative for window-level anomalies.
  std::uint32_t elm_vocab = 16;
  std::uint32_t elm_window = 32;
};

struct LstmDataset {
  std::vector<std::uint32_t> tokens;  ///< monitored-branch token sequence
};

struct ElmDataset {
  std::vector<Vector> windows;  ///< normalized sliding histograms
};

class DatasetBuilder {
 public:
  /// `drift_at_ps` is the drift-schedule instant the training snapshot is
  /// taken at: the builder's generator runs with the phase *frozen* there
  /// (offline collection spans far more nominal time than any drift phase,
  /// so letting it drift would smear phases together). Irrelevant — and the
  /// builder byte-identical — when the profile carries no active schedule.
  /// Throws std::invalid_argument for a profile without calls
  /// (call_fraction == 0): no monitored site could ever be reached.
  DatasetBuilder(const workloads::SpecProfile& profile, std::uint64_t seed,
                 FeatureConfig config = {}, std::uint64_t drift_at_ps = 0);

  /// Call-target addresses the LSTM model monitors (most popular function
  /// entries of the program; these populate the IGM lookup table).
  const std::vector<std::uint64_t>& monitored_addresses() const noexcept {
    return monitored_;
  }

  /// Token of a monitored address (matches the IGM conversion table), or
  /// vocab-1 if unmonitored.
  std::uint32_t lstm_token(std::uint64_t address) const noexcept;

  /// ELM histogram bucket of a syscall target address (hash mapping shared
  /// with igm::VectorEncoder).
  std::uint32_t elm_bucket(std::uint64_t address) const noexcept {
    return igm::VectorEncoder::hash_bucket(address, config_.elm_vocab);
  }

  /// Collect `n_events` monitored-branch tokens from the workload.
  LstmDataset collect_lstm(std::size_t n_events);

  /// Collect `n_windows` per-syscall histogram windows.
  ElmDataset collect_elm(std::size_t n_windows);

  const FeatureConfig& config() const noexcept { return config_; }
  const workloads::SpecProfile& profile() const noexcept {
    return generator_.profile();
  }

 private:
  FeatureConfig config_;
  std::uint64_t seed_;
  std::uint64_t drift_at_ps_;
  workloads::TraceGenerator generator_;
  std::vector<std::uint64_t> monitored_;
};

}  // namespace rtad::ml
