// Shared plumbing for the RTAD benchmark: arguments, timing, the result
// record every workload fills, and the digests its correctness checks
// compare against perfbench/reference.json.
//
// A run prints its metrics by name and unit on stdout and writes one JSON
// document (--out) that run.py checks against the committed references
// before it prints the benchmark's final result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "rtad/core/experiment.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Every workload draws its inputs from one of kSeedPool episodes; --seed
/// picks the episode (seed mod kSeedPool), so every run's outputs have a
/// committed reference digest to be checked against.
inline constexpr std::uint64_t kSeedPool = 16;

/// The seed a workload generates its inputs from.
inline std::uint64_t input_seed(std::uint64_t seed) {
  return 1 + seed % kSeedPool;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
};

/// A configuration the benchmark will not report from. Thrown with a
/// stable name; main() prints it and exits nonzero without a result.
class Refusal : public std::runtime_error {
 public:
  Refusal(std::string name, const std::string& why)
      : std::runtime_error(why), name_(std::move(name)) {}
  const std::string& name() const noexcept { return name_; }

 private:
  std::string name_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One correctness check: `ops` operations whose outputs hash to `digest`,
/// compared by run.py against reference.json[workload][entry][key]. The
/// entry defaults to the run's own (seed mod kSeedPool).
struct Check {
  std::string key;
  std::uint64_t digest = 0;
  std::uint64_t ops = 0;
  std::optional<std::uint64_t> entry;
};

struct Result {
  std::vector<Metric> metrics;  ///< exported: end-to-end or per-layer set
  std::vector<Metric> report;   ///< printed only: workload-specific metrics
  std::vector<Check> checks;
  /// Traced runs: layers this workload never calls. run.py reports their
  /// per-layer metrics as 0 (README.md, "Per-layer metrics").
  std::vector<std::string> absent_layers;
  std::uint64_t attempted = 0;
  /// Traced runs: the traced pass retired the same simulated results as
  /// the untraced pass of the same run.
  bool sim_identical = true;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    report.push_back({std::move(name), value, std::move(unit)});
  }
};

/// FNV-1a accumulator (the construction the program's own score digest
/// uses), fed with fixed-width fields so digests are platform-stable.
class Digest {
 public:
  Digest& add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }
  Digest& add(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return add(bits);
  }
  Digest& add(const std::string& s) {
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
    return add(static_cast<std::uint64_t>(s.size()));
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 1099511628211ULL;
  }
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// The simulated outcome of one detection episode: every field that is a
/// pure function of the episode's inputs. Host-time diagnostics and the
/// event kernel's skip grouping (which depends on advance() chunking) are
/// left out.
std::uint64_t verdict_digest(const rtad::core::DetectionResult& r);

/// The run's measurement schedule. Set-up runs `reps` times (each timed;
/// the returned walls feed setup_s) and alternates with measurement:
/// after set-up i, `measure` (which returns the wall it timed) repeats
/// until (i + 1) / reps of `seconds` has been measured, and at least once
/// in all. Spreading the timed work across the run, between set-ups,
/// averages over slow swings in host speed at no extra cost.
template <typename Setup, typename Measure>
std::vector<double> alternate(std::size_t reps, double seconds, Setup setup,
                              Measure measure) {
  std::vector<double> setup_s;
  double measured_s = 0.0;
  bool measured = false;
  for (std::size_t i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    setup();
    setup_s.push_back(seconds_since(t0));
    const double target =
        seconds * static_cast<double>(i + 1) / static_cast<double>(reps);
    while (!measured || measured_s < target) {
      measured_s += measure();
      measured = true;
    }
  }
  return setup_s;
}

double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 100].
double percentile(std::vector<double> v, double q);
double peak_rss_mb();

// Workload entry points (one per file).
Result run_detect(const Args& args);
Result run_fleet(const Args& args);
Result run_telemetry(const Args& args);

}  // namespace perfbench
