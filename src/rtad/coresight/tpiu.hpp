// CoreSight TPIU model (Trace Port Interface Unit).
//
// In the RTAD prototype the TPIU's trace-port pins are routed on-chip to
// the MLPU instead of off-chip (§III-A / Fig. 1). The TPIU formats the
// trace source's byte stream into 32-bit words — the width of the IGM
// input port — emitting up to one word (4 trace bytes) per 125 MHz fabric
// cycle. The transport is protocol-agnostic: bytes are opaque here,
// whatever the TraceProtocol that produced them.
//
// The trace port is also the pipeline's fault surface: when a FaultInjector
// is attached, each byte crossing the port may be bit-flipped, dropped,
// duplicated or swallowed by a truncation window (FaultSite::kTrace*). The
// damage is applied per byte *popped from the trace-source FIFO*, so the
// corruption sequence is a pure function of the byte stream — identical
// under both scheduler kernels and any worker count. With no injector
// attached the tick path is byte-for-byte the original.
#pragma once

#include <array>
#include <cstdint>

#include <string>

#include "rtad/coresight/trace_source.hpp"
#include "rtad/fault/fault_injector.hpp"
#include "rtad/obs/observer.hpp"
#include "rtad/sim/component.hpp"
#include "rtad/sim/fifo.hpp"

namespace rtad::coresight {

/// One formatted trace-port word: up to four bytes, in stream order.
struct TpiuWord {
  std::array<trace::TraceByte, 4> bytes{};
  std::uint8_t count = 0;

  std::uint32_t data() const noexcept {
    std::uint32_t v = 0;
    for (int i = 0; i < count; ++i) {
      v |= static_cast<std::uint32_t>(bytes[static_cast<std::size_t>(i)].value)
           << (8 * i);
    }
    return v;
  }
};

class Tpiu final : public sim::Component {
 public:
  /// `source` is the trace source's tx FIFO; `port_fifo_words` sizes the
  /// output FIFO feeding the IGM trace port.
  explicit Tpiu(sim::Fifo<trace::TraceByte>& source,
                std::size_t port_fifo_words = 64);

  sim::Fifo<TpiuWord>& port() noexcept { return port_; }

  /// Attach (or detach, with nullptr) the fault layer. Not owned.
  void set_fault_injector(fault::FaultInjector* faults) noexcept {
    faults_ = faults;
  }

  void tick() override;
  void reset() override;

  /// Register this component's cycle account with the observability layer.
  void set_observability(obs::Observer& ob, const std::string& domain) {
    acct_ = ob.account(name(), domain);
  }

  /// Skipped ticks were all blocked: either the port was full (the IGM,
  /// same domain, had not drained it — unchanged during the sleep) or the
  /// source was empty for every replayed edge (a cross-domain push wakes
  /// the domain at the first edge at or after the push, so replayed edges
  /// strictly predate it). Check the port first: it is the predicate that
  /// cannot have been mutated between the hint and the replay.
  void on_cycles_skipped(sim::Cycle n) override {
    if (acct_ == nullptr) return;
    if (port_.full())
      acct_->stall_fifo += n;
    else
      acct_->idle += n;
  }

  /// Blocked while there is nothing to format (or nowhere to put it); the
  /// trace source's tx-FIFO wake hook un-blocks the fabric domain on the
  /// first byte crossing over from the CPU domain. A pending duplicated
  /// byte counts as work even if the source drained.
  sim::WakeHint next_wake() const override {
    return ((source_.empty() && !dup_pending_) || port_.full())
               ? sim::WakeHint::blocked()
               : sim::WakeHint::active();
  }

  std::uint64_t words_emitted() const noexcept { return words_emitted_; }

  // --- fault accounting (all zero with no injector) ---
  std::uint64_t bits_flipped() const noexcept { return bits_flipped_; }
  std::uint64_t bytes_dropped() const noexcept { return bytes_dropped_; }
  std::uint64_t bytes_duplicated() const noexcept { return bytes_duplicated_; }
  std::uint64_t bytes_truncated() const noexcept { return bytes_truncated_; }
  /// Total bytes damaged in any way on the trace port.
  std::uint64_t corrupted_bytes() const noexcept {
    return bits_flipped_ + bytes_dropped_ + bytes_duplicated_ +
           bytes_truncated_;
  }

 private:
  /// Apply the trace-fault sites to one popped byte. Returns false when the
  /// byte is consumed by the fault layer (dropped or truncated) and must
  /// not be formatted into the outgoing word.
  bool apply_faults(trace::TraceByte& tb);

  sim::Fifo<trace::TraceByte>& source_;
  sim::Fifo<TpiuWord> port_;
  fault::FaultInjector* faults_ = nullptr;
  obs::CycleAccount* acct_ = nullptr;
  std::uint64_t words_emitted_ = 0;

  /// Duplicated byte awaiting insertion ahead of the next source byte.
  trace::TraceByte dup_byte_{};
  bool dup_pending_ = false;
  /// Bytes left to swallow in the current truncation window.
  std::uint32_t truncate_remaining_ = 0;

  std::uint64_t bits_flipped_ = 0;
  std::uint64_t bytes_dropped_ = 0;
  std::uint64_t bytes_duplicated_ = 0;
  std::uint64_t bytes_truncated_ = 0;
};

}  // namespace rtad::coresight
