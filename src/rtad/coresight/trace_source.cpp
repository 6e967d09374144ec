#include "rtad/coresight/trace_source.hpp"

namespace rtad::coresight {

TraceSource::TraceSource(TraceSourceConfig config)
    : sim::Component("ptm"),  // stable name: feeds cycle-account/metrics keys
      config_(config),
      encoder_(trace::make_encoder(config.protocol)),
      trace_fifo_(config.fifo_bytes),
      tx_fifo_(config.fifo_bytes) {}

void TraceSource::reset() {
  encoder_->reset();
  trace_fifo_.clear();
  tx_fifo_.clear();
  draining_ = false;
  cycles_since_drain_ = 0;
  bytes_since_sync_ = 0;
  sent_initial_sync_ = false;
  bytes_generated_ = 0;
  events_traced_ = 0;
}

void TraceSource::enqueue_bytes(const std::vector<std::uint8_t>& bytes,
                                const cpu::BranchEvent& event) {
  for (std::uint8_t b : bytes) {
    trace_fifo_.try_push(
        trace::TraceByte{b, event.retired_ps, event.seq, event.injected});
  }
  bytes_generated_ += bytes.size();
  bytes_since_sync_ += bytes.size();
}

void TraceSource::submit(const cpu::BranchEvent& event) {
  if (!config_.enabled) return;
  ++events_traced_;
  scratch_.clear();
  if (!sent_initial_sync_ || bytes_since_sync_ >= config_.sync_interval_bytes) {
    encoder_->emit_sync(event.source, event.context_id, scratch_);
    bytes_since_sync_ = 0;
    sent_initial_sync_ = true;
  }
  encoder_->encode(event, scratch_);
  enqueue_bytes(scratch_, event);
}

void TraceSource::set_observability(obs::Observer& ob,
                                    const std::string& domain) {
  acct_ = ob.account(name(), domain);
  if (ob.sink() != nullptr)
    drain_trace_ = obs::TraceHandle(ob.sink(), ob.sink()->track("ptm.drain"));
}

void TraceSource::tick() {
  if (!config_.enabled) {
    obs::bump(acct_, obs::CycleBucket::kIdle);
    return;
  }
  ++cycles_since_drain_;

  if (!draining_) {
    const bool threshold_hit = trace_fifo_.size() >= config_.flush_threshold;
    const bool timeout = !trace_fifo_.empty() &&
                         cycles_since_drain_ >= config_.drain_timeout_cycles;
    if (threshold_hit || timeout) {
      draining_ = true;
      drain_trace_.begin("drain", sim_now());
    }
  }
  if (!draining_) {
    obs::bump(acct_, obs::CycleBucket::kIdle);
    return;
  }
  obs::bump(acct_, obs::CycleBucket::kBusy);

  for (std::uint32_t i = 0; i < config_.drain_width; ++i) {
    if (trace_fifo_.empty() || tx_fifo_.full()) break;
    tx_fifo_.push(*trace_fifo_.pop());
  }
  cycles_since_drain_ = 0;
  if (trace_fifo_.empty()) {
    draining_ = false;
    drain_trace_.end(sim_now());
  }
}

sim::WakeHint TraceSource::next_wake() const {
  // A disabled source ticks return immediately and touch nothing.
  if (!config_.enabled) return sim::WakeHint::blocked();
  if (draining_) return sim::WakeHint::active();
  if (trace_fifo_.size() >= config_.flush_threshold) {
    return sim::WakeHint::active();  // next tick starts a drain burst
  }
  if (trace_fifo_.empty()) {
    // Idle ticks only advance cycles_since_drain_; new bytes arrive via
    // submit() from the CPU in the same domain, which is then active.
    return sim::WakeHint::blocked();
  }
  // Counting down to the periodic drain timeout: the tick that reaches the
  // timeout does real work, everything before it is ++cycles_since_drain_.
  const std::uint32_t to_timeout =
      config_.drain_timeout_cycles > cycles_since_drain_
          ? config_.drain_timeout_cycles - cycles_since_drain_
          : 1;
  if (to_timeout <= 1) return sim::WakeHint::active();
  return sim::WakeHint::idle_for(to_timeout - 1);
}

void TraceSource::on_cycles_skipped(sim::Cycle n) {
  // Replays `n` ticks in any skippable state: all of them only increment
  // the timeout counter (uint32 wrap matches n consecutive ++'s). Every
  // skippable tick is an idle one (disabled, empty, or timeout countdown),
  // so the whole batch lands in the idle bucket — as dense would.
  obs::bump(acct_, obs::CycleBucket::kIdle, n);
  if (config_.enabled) cycles_since_drain_ += static_cast<std::uint32_t>(n);
}

}  // namespace rtad::coresight
