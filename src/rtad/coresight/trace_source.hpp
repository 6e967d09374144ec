// On-SoC trace source (the CoreSight PTM slot, protocol-neutral).
//
// Receives retired branch events from the core, compresses them with the
// configured protocol's TraceEncoder, and buffers the bytes in the on-chip
// trace FIFO. Matching the behaviour the paper measures in Fig. 7 ("PTM
// does not send the packets until enough packets are buffered in the FIFO
// inside the ARM CPU"), the FIFO drains to the TPIU only once a fill
// threshold is reached — and then keeps draining until empty — or when a
// periodic drain timeout expires so a quiet program still makes progress.
//
// Under TraceProtocol::kPft this is exactly the original PTM model (the
// component keeps its "ptm" name so cycle accounts and metrics keys stay
// byte-identical); kEtrace swaps only the packetizer — FIFO geometry,
// drain FSM and sync cadence are protocol-independent macrocell behaviour.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rtad/cpu/branch_event.hpp"
#include "rtad/obs/observer.hpp"
#include "rtad/sim/component.hpp"
#include "rtad/sim/fifo.hpp"
#include "rtad/sim/time.hpp"
#include "rtad/trace/encoder.hpp"
#include "rtad/trace/stream.hpp"

namespace rtad::coresight {

struct TraceSourceConfig {
  std::size_t fifo_bytes = 256;        ///< on-chip trace FIFO capacity
  /// Drain starts at this fill level: the formatter waits for a quarter
  /// FIFO before bursting packets out, which is the dominant term of the
  /// RTAD transfer path in Fig. 7 ("PTM does not send the packets until
  /// enough packets are buffered in the FIFO inside the ARM CPU").
  std::size_t flush_threshold = 64;
  std::uint32_t drain_timeout_cycles = 512;  ///< periodic drain (CPU cycles)
  std::uint32_t drain_width = 4;       ///< bytes handed to TPIU per cycle
  std::size_t sync_interval_bytes = 4096;  ///< sync-preamble cadence
  bool enabled = true;
  /// Wire protocol of the emitted stream; the IGM-side decoder must be
  /// built for the same protocol (RtadSoc wires both from one knob).
  trace::TraceProtocol protocol = trace::TraceProtocol::kPft;
};

class TraceSource final : public sim::Component {
 public:
  explicit TraceSource(TraceSourceConfig config);

  /// Called by the CPU model at retirement (same cycle, before our tick).
  void submit(const cpu::BranchEvent& event);

  /// Drain side: the TPIU pulls from this FIFO.
  sim::Fifo<trace::TraceByte>& tx_fifo() noexcept { return tx_fifo_; }

  void tick() override;
  void reset() override;
  sim::WakeHint next_wake() const override;
  void on_cycles_skipped(sim::Cycle n) override;

  const TraceSourceConfig& config() const noexcept { return config_; }
  void set_enabled(bool on) noexcept { config_.enabled = on; }
  trace::TraceProtocol protocol() const noexcept { return config_.protocol; }

  /// Register the cycle account and a span track for drain bursts.
  void set_observability(obs::Observer& ob, const std::string& domain);

  std::uint64_t bytes_generated() const noexcept { return bytes_generated_; }
  std::uint64_t events_traced() const noexcept { return events_traced_; }
  std::uint64_t fifo_drops() const noexcept { return trace_fifo_.overflows(); }

 private:
  void enqueue_bytes(const std::vector<std::uint8_t>& bytes,
                     const cpu::BranchEvent& event);

  TraceSourceConfig config_;
  std::unique_ptr<trace::TraceEncoder> encoder_;
  /// On-chip buffering (the drain threshold applies).
  sim::Fifo<trace::TraceByte> trace_fifo_;
  sim::Fifo<trace::TraceByte> tx_fifo_;  ///< handoff to TPIU
  std::vector<std::uint8_t> scratch_;

  obs::CycleAccount* acct_ = nullptr;
  obs::TraceHandle drain_trace_;

  bool draining_ = false;
  bool sent_initial_sync_ = false;
  std::uint32_t cycles_since_drain_ = 0;
  std::size_t bytes_since_sync_ = 0;
  std::uint64_t bytes_generated_ = 0;
  std::uint64_t events_traced_ = 0;
};

}  // namespace rtad::coresight
