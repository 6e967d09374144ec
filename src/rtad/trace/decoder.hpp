// TraceDecoder — the protocol-specific byte-stream decoder inside the TA.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "rtad/trace/protocol.hpp"
#include "rtad/trace/stream.hpp"

namespace rtad::trace {

/// Packet-level state machine; consumes one byte per call. Starts
/// unsynchronized and discards bytes until the protocol's first sync
/// preamble.
///
/// Degradation contract (identical for every protocol): a malformed stream
/// (corrupted, truncated or reordered bytes) never throws and never wedges
/// the decoder. Grammar violations are counted in `bad_packets()` and
/// answered with resync(): the decoder drops back to the sync hunt and
/// recovers at the TraceSource's next periodic preamble, counting the loss
/// of lock in `resyncs()`. The shared counters below are the per-protocol
/// decode health surface harvested into DetectionResult / rtad.metrics.v2.
class TraceDecoder {
 public:
  virtual ~TraceDecoder() = default;

  virtual TraceProtocol protocol() const noexcept = 0;

  /// Feed one byte; returns a decoded branch when this byte completes a
  /// waypoint packet (outcome batches, syncs and context packets return
  /// nullopt).
  virtual std::optional<DecodedBranch> feed(const TraceByte& byte) = 0;

  /// Full reinitialization: state machine, compression registers, counters.
  virtual void reset() = 0;

  /// Abandon the current packet and hunt for the next sync preamble.
  /// Counted in resyncs(). Also invoked internally on every detected
  /// grammar violation — a clean stream never triggers it.
  virtual void resync() noexcept = 0;

  bool synced() const noexcept { return synced_; }
  std::uint64_t last_address() const noexcept { return last_address_; }
  std::uint8_t context_id() const noexcept { return context_id_; }
  /// Conditional-branch outcomes recovered (PFT atoms / E-Trace map bits).
  std::uint64_t atoms_decoded() const noexcept { return atoms_decoded_; }
  std::uint64_t branches_decoded() const noexcept { return branches_decoded_; }
  std::uint64_t bytes_consumed() const noexcept { return bytes_consumed_; }
  /// Grammar violations observed (each one also forces a resync).
  std::uint64_t bad_packets() const noexcept { return bad_packets_; }
  /// Times the decoder dropped to the sync hunt after its first sync.
  std::uint64_t resyncs() const noexcept { return resyncs_; }

 protected:
  // Shared decode-health state; implementations maintain it inline so the
  // counting contract (and the metrics schema fed from it) is identical
  // across protocols.
  std::uint64_t last_address_ = 0;
  std::uint8_t context_id_ = 0;
  bool synced_ = false;
  std::uint64_t atoms_decoded_ = 0;
  std::uint64_t branches_decoded_ = 0;
  std::uint64_t bytes_consumed_ = 0;
  std::uint64_t bad_packets_ = 0;
  std::uint64_t resyncs_ = 0;

  /// Common bookkeeping for reset(): clears every shared field.
  void reset_shared_state() noexcept {
    last_address_ = 0;
    context_id_ = 0;
    synced_ = false;
    atoms_decoded_ = 0;
    branches_decoded_ = 0;
    bytes_consumed_ = 0;
    bad_packets_ = 0;
    resyncs_ = 0;
  }
};

/// Factory paired with make_encoder().
std::unique_ptr<TraceDecoder> make_decoder(TraceProtocol proto);

}  // namespace rtad::trace
