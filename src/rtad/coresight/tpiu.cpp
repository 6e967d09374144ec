#include "rtad/coresight/tpiu.hpp"

namespace rtad::coresight {

using fault::FaultSite;

Tpiu::Tpiu(sim::Fifo<trace::TraceByte>& source,
           std::size_t port_fifo_words)
    : sim::Component("tpiu"), source_(source), port_(port_fifo_words) {
  // TraceSource (CPU domain) -> TPIU (fabric domain) crossing: wake on push.
  source_.set_wake_hook([this] { request_wake(); });
}

void Tpiu::reset() {
  port_.clear();
  words_emitted_ = 0;
  dup_pending_ = false;
  truncate_remaining_ = 0;
  bits_flipped_ = 0;
  bytes_dropped_ = 0;
  bytes_duplicated_ = 0;
  bytes_truncated_ = 0;
}

bool Tpiu::apply_faults(trace::TraceByte& tb) {
  // An open truncation window swallows bytes without further draws.
  if (truncate_remaining_ > 0) {
    --truncate_remaining_;
    ++bytes_truncated_;
    return false;
  }
  if (faults_->fire(FaultSite::kTraceTruncate)) {
    const std::uint32_t window = faults_->plan().truncate_bytes;
    truncate_remaining_ = window > 0 ? window - 1 : 0;  // this byte is first
    ++bytes_truncated_;
    return false;
  }
  if (faults_->fire(FaultSite::kTraceDropByte)) {
    ++bytes_dropped_;
    return false;
  }
  if (faults_->fire(FaultSite::kTraceBitFlip)) {
    tb.value ^= static_cast<std::uint8_t>(
        1u << faults_->draw(FaultSite::kTraceBitFlip, 8));
    ++bits_flipped_;
  }
  if (faults_->fire(FaultSite::kTraceDupByte)) {
    // Synchronizer double-sample: the byte goes out twice, back to back.
    dup_byte_ = tb;
    dup_pending_ = true;
    ++bytes_duplicated_;
  }
  return true;
}

void Tpiu::tick() {
  // Bucket order mirrors on_cycles_skipped: port first (see header).
  if (port_.full()) {
    obs::bump(acct_, obs::CycleBucket::kStallFifo);
    return;
  }
  if (source_.empty() && !dup_pending_) {
    obs::bump(acct_, obs::CycleBucket::kIdle);
    return;
  }
  obs::bump(acct_, obs::CycleBucket::kBusy);
  TpiuWord word;
  while (word.count < 4) {
    trace::TraceByte tb;
    if (dup_pending_) {
      tb = dup_byte_;
      dup_pending_ = false;
    } else if (!source_.empty()) {
      tb = *source_.pop();
      if (faults_ != nullptr && !apply_faults(tb)) continue;
    } else {
      break;
    }
    word.bytes[word.count] = tb;
    ++word.count;
  }
  // Every popped byte may have been consumed by the fault layer.
  if (word.count == 0) return;
  port_.try_push(word);
  ++words_emitted_;
}

}  // namespace rtad::coresight
