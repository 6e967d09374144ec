#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

namespace perfbench {

std::uint64_t verdict_digest(const rtad::core::DetectionResult& r) {
  Digest d;
  d.add(r.score_digest)
      .add(static_cast<std::uint64_t>(r.attacks))
      .add(static_cast<std::uint64_t>(r.detections))
      .add(r.false_positives)
      .add(r.inferences)
      .add(r.fifo_drops)
      .add(r.simulated_ps)
      .add(r.mean_latency_us)
      .add(r.max_latency_us)
      .add(r.trace_events_traced)
      .add(r.trace_bytes_generated)
      .add(r.decode_branches)
      .add(r.igm_busy_cycles);
  return d.value();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  return v[rank == 0 ? 0 : rank - 1];
}

double peak_rss_mb() {
  // VmHWM belongs to this process image. getrusage's ru_maxrss would also
  // carry the launching process's RSS from before exec().
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

}  // namespace perfbench
