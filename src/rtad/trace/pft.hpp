// ARM PFT codec — the TraceEncoder/TraceDecoder pair for TraceProtocol::kPft
// (see pft_packet.hpp for the grammar). The encoder is the compression logic
// inside the PTM; the decoder is the logic inside one chain of TA units.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "rtad/trace/decoder.hpp"
#include "rtad/trace/encoder.hpp"
#include "rtad/trace/pft_packet.hpp"

namespace rtad::trace {

/// Stateful packetizer: compresses a stream of retired branch events into
/// PFT bytes. Holds the "last emitted address" register used for
/// branch-address compression and a pending-atom accumulator.
class PftEncoder final : public TraceEncoder {
 public:
  TraceProtocol protocol() const noexcept override {
    return TraceProtocol::kPft;
  }

  /// Encode one branch event, appending packet bytes to `out`.
  /// Conditional branches accumulate into atom packets (flushed when four
  /// outcomes are pending or when an address packet must be emitted, so
  /// stream order always matches program order).
  void encode(const cpu::BranchEvent& event,
              std::vector<std::uint8_t>& out) override;

  /// Flush any buffered atom outcomes as a (possibly short) atom packet.
  void flush(std::vector<std::uint8_t>& out) override;

  /// Emit A-sync + I-sync (+ CONTEXTID) — the periodic resync preamble.
  void emit_sync(std::uint64_t current_addr, std::uint8_t context_id,
                 std::vector<std::uint8_t>& out) override;

  void reset() override;

  /// Number of address bytes a branch to `target` would need right now
  /// (diagnostic; used by compression tests).
  int address_bytes_needed(std::uint64_t target) const;

 private:
  void emit_branch_address(std::uint64_t target, BranchExceptionInfo info,
                           std::vector<std::uint8_t>& out);

  std::uint64_t last_address_ = 0;
  std::uint8_t pending_atoms_ = 0;  ///< LSB-first outcomes
  int pending_atom_count_ = 0;
};

/// Byte-sequential PFT stream decoder. Starts unsynchronized and discards
/// bytes until the first A-sync/I-sync pair; see TraceDecoder for the
/// degradation contract.
class PftStreamDecoder final : public TraceDecoder {
 public:
  TraceProtocol protocol() const noexcept override {
    return TraceProtocol::kPft;
  }

  /// Feed one byte; returns a decoded branch when this byte completes a
  /// branch-address packet (atoms, syncs and context packets return nullopt).
  std::optional<DecodedBranch> feed(const TraceByte& byte) override;

  void reset() override;

  /// Abandon the current packet and hunt for the next A-sync run.
  void resync() noexcept override;

 private:
  enum class State {
    kUnsynced,        ///< hunting for the A-sync run
    kIdle,            ///< expecting a packet header
    kAsyncRun,        ///< inside a run of 0x00 bytes
    kIsyncPayload,    ///< collecting 5 I-sync payload bytes
    kContextPayload,  ///< collecting 1 CONTEXTID byte
    kBranchPayload,   ///< collecting continuation bytes of a branch packet
  };

  std::optional<DecodedBranch> finish_branch(const TraceByte& byte);

  State state_ = State::kUnsynced;
  int zeros_seen_ = 0;
  int payload_needed_ = 0;
  std::vector<std::uint8_t> payload_;
};

}  // namespace rtad::trace
