// Admission control for one shard's ingress queue.
//
// The queue is a bounded sim::Fifo — the same hardware-FIFO model the MCM
// input path uses — so overload behaviour is an explicit drop policy, not an
// unbounded deque quietly eating memory. Two overload policies:
//
//   * kShed (default): a full queue drops the newcomer (Fifo kDropNew) and
//     counts it in sessions_shed. The tenant gets no verdict this episode —
//     the honest failure mode for a real-time monitor, where a late verdict
//     is as useless as none.
//   * kDegrade: above the degrade watermark, admitted sessions are marked
//     to run the cheap model (ELM) instead of the requested one — trading
//     model fidelity for service time so fewer sessions shed. A completely
//     full queue still sheds; the queue stays bounded either way.
//
// Queue depth is sampled at every offer, after the verdict lands: an
// admitted arrival records the occupancy including itself, a shed arrival
// records the full queue it bounced off. The distribution therefore reaches
// queue_capacity exactly when sheds happen — sampling before the push
// under-reported by one everywhere and could never observe a full queue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "rtad/serve/tenant.hpp"
#include "rtad/sim/fifo.hpp"
#include "rtad/sim/stats.hpp"

namespace rtad::serve {

enum class OverloadPolicy : std::uint8_t {
  kShed,     ///< drop newest when full (Fifo kDropNew)
  kDegrade,  ///< above the watermark, admit but downgrade to the ELM model
};

constexpr const char* overload_policy_name(OverloadPolicy p) noexcept {
  return p == OverloadPolicy::kShed ? "shed" : "degrade";
}

struct AdmissionConfig {
  std::size_t queue_capacity = 8;
  OverloadPolicy policy = OverloadPolicy::kShed;
  /// Occupancy (inclusive) at which kDegrade starts downgrading admitted
  /// sessions. 0 resolves to max(1, queue_capacity / 2).
  std::size_t degrade_watermark = 0;
  /// Re-offers granted to a refused request before it finally sheds. The
  /// default 0 sheds a refused request at once; the shard owns the clock,
  /// so it schedules the re-offer at refusal time + retry_delay().
  std::size_t retry_budget = 0;
  /// Exponential backoff base for re-offers, simulated microseconds.
  std::uint64_t retry_base_us = 500;
  /// Stream seed for the per-(ticket, attempt) backoff jitter.
  std::uint64_t retry_seed = 0x5EEDD;
};

/// Deterministic seeded-jitter backoff: exponential in the attempt number
/// (capped), plus a jitter drawn from a stream keyed by (seed, ticket,
/// attempt). A pure function of its arguments — two shards, two worker
/// counts, or two retry orderings compute the identical delay — which is
/// what makes retry scheduling replayable. Jitter de-synchronizes the
/// herd: sessions shed by the same brownout re-offer at distinct instants
/// instead of stampeding the queue in lockstep (the overload-shed
/// unfairness the one-shot drop had).
sim::Picoseconds retry_backoff_ps(std::uint64_t seed, std::uint64_t ticket,
                                  std::size_t attempt,
                                  std::uint64_t base_us);

class AdmissionController {
 public:
  enum class Verdict : std::uint8_t {
    kAccepted,
    kAcceptedDegraded,  ///< admitted, but downgraded to the cheap model
    kShed,
  };

  explicit AdmissionController(AdmissionConfig cfg);

  /// Offer a request at its arrival instant. Samples queue depth, applies
  /// the overload policy, and enqueues unless the verdict is kShed.
  Verdict offer(SessionRequest req);

  /// Pop the next admitted request (FIFO order); nullopt when idle.
  std::optional<SessionRequest> next() { return queue_.pop(); }

  bool empty() const noexcept { return queue_.empty(); }
  std::size_t depth() const noexcept { return queue_.size(); }
  const SessionRequest& head() const { return queue_.front(); }

  /// True when a request refused now is entitled to another offer.
  bool retry_allowed(const SessionRequest& req) const noexcept {
    return req.attempts < cfg_.retry_budget;
  }
  /// Backoff for the request's next re-offer (attempt numbers start at 1).
  sim::Picoseconds retry_delay(std::uint64_t ticket,
                               std::size_t attempt) const {
    return retry_backoff_ps(cfg_.retry_seed, ticket, attempt,
                            cfg_.retry_base_us);
  }
  /// Count one scheduled re-offer (the serve.sessions_retried counter).
  void record_retry() noexcept { ++retried_; }

  const AdmissionConfig& config() const noexcept { return cfg_; }
  std::uint64_t offered() const noexcept { return offered_; }
  std::uint64_t admitted() const noexcept { return admitted_; }
  std::uint64_t shed() const noexcept { return shed_; }
  std::uint64_t degraded() const noexcept { return degraded_; }
  std::uint64_t retried() const noexcept { return retried_; }
  /// Depth recorded at each offer, post-decision: occupancy including the
  /// arrival itself when admitted, the full queue when shed.
  const sim::Sampler& depth_seen() const noexcept { return depth_seen_; }
  /// Deepest ingress occupancy ever reached.
  std::size_t high_watermark() const noexcept {
    return queue_.high_watermark();
  }

 private:
  AdmissionConfig cfg_;
  sim::Fifo<SessionRequest> queue_;
  std::uint64_t offered_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t degraded_ = 0;
  std::uint64_t retried_ = 0;
  sim::Sampler depth_seen_;
};

}  // namespace rtad::serve
