// Fig. 8 — Latencies of anomaly detection across the SPEC CINT2006 suite,
// for {ELM, LSTM} x {MIAOW (1 CU), ML-MIAOW (5 CUs)}.
//
// For each benchmark: train both models once on its normal trace, deploy
// the same images on both engines, emulate attacks by injecting legitimate
// branch data (monitored call targets / valid syscalls) and measure the
// time from the first aberrant branch retiring to the MCM interrupt.
//
// The full matrix fans out across an ExperimentRunner pool; results are
// aggregated in submission order, so stdout is byte-identical for any
// RTAD_JOBS value. Per-cell wall-clock/simulated-time costs go to stderr.
//
// Knobs (README "Bench knobs"): RTAD_BENCH_BENCHMARKS restricts the suite
// (default: all twelve); RTAD_BENCH_MODELS / RTAD_BENCH_ENGINES restrict
// the matrix columns (the summary lines adapt: engine-speedup ratios need
// both engines, the overall line needs the full matrix);
// RTAD_BENCH_ATTACKS per cell (default 8); RTAD_BENCH_FAST_TRAIN=1 trains
// on the reduced corpus and pre-warms every model before the timed matrix;
// RTAD_BENCH_BACKEND_PROBE=N times N offline inferences of the first
// cell's kernels on both backends and reports the kernel-simulation
// speedup to stderr. Program knobs as everywhere: RTAD_JOBS, RTAD_SCHED
// and RTAD_BACKEND leave stdout byte-identical (their statistics go to
// stderr); RTAD_TRACE_PROTO picks the trace protocol (per-protocol
// bytes/branch and decode-cycle stats go to stderr); RTAD_TRACE=<path> /
// RTAD_METRICS=<path> write a Chrome-trace JSON / stable-key run metrics
// per cell (multi-cell runs insert ".cellNNN" before a trailing ".json"),
// byte-identical across schedulers and worker counts.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <vector>

#include "frontend.hpp"
#include "rtad/core/env.hpp"
#include "rtad/core/experiment_runner.hpp"
#include "rtad/core/report.hpp"
#include "rtad/ml/kernel_compiler.hpp"
#include "rtad/trace/protocol.hpp"

using namespace rtad;

namespace {

struct Agg {
  double sum = 0;
  std::size_t n = 0;
  void add(double v) {
    sum += v;
    ++n;
  }
  double mean() const { return n == 0 ? 0.0 : sum / static_cast<double>(n); }
};

}  // namespace

int run_fig8() {
  core::DetectionOptions dopt;
  dopt.attacks = core::env::positive_or(bench::knob("RTAD_BENCH_ATTACKS"), 8);
  const auto benchmarks = bench::benchmarks(workloads::spec_names());
  const auto models =
      bench::models({core::ModelKind::kElm, core::ModelKind::kLstm});
  const auto engines =
      bench::engines({core::EngineKind::kMiaow, core::EngineKind::kMlMiaow});
  const std::uint64_t probes =
      core::env::u64_or(bench::knob("RTAD_BENCH_BACKEND_PROBE"), 0);
  auto cache =
      std::make_shared<core::TrainedModelCache>(bench::training_options());

  std::cout << "FIG. 8: LATENCIES OF ANOMALY DETECTION (us)\n\n";

  // Cell order per benchmark is model-major: ELM/MIAOW, ELM/ML-MIAOW,
  // LSTM/MIAOW, LSTM/ML-MIAOW in the full matrix — the table's column
  // order.
  const std::size_t stride = models.size() * engines.size();
  std::vector<core::DetectionCell> cells;
  cells.reserve(benchmarks.size() * stride);
  for (const auto& name : benchmarks) {
    for (const auto model : models) {
      for (const auto engine : engines) {
        cells.push_back({name, model, engine, dopt});
      }
    }
  }

  // With the fast-train preset, pre-warm every benchmark's models before
  // the matrix so the timed region below is pure simulation. Training is
  // identical host-side work under either scheduler kernel; keeping it out
  // of matrix_wall_ms lets the perf smoke compare the kernels themselves.
  if (bench::fast_train()) {
    for (const auto& name : benchmarks) cache->get(name);
  }

  // Optional kernel-simulation probe: run `probes` offline inferences of
  // the first cell's trained kernels on each backend and report the
  // wall-clock ratio. This isolates the cost the execution backend is
  // responsible for — inside the matrix, wall-clock during a launch also
  // covers the concurrently simulated CPU/fabric domains, which no GPU
  // backend can remove. Diagnostics only (stderr).
  if (probes > 0) {
    const core::TrainedModels& trained = cache->get(benchmarks.front());
    const core::ModelKind probe_model = models.front();
    const ml::ModelImage& image = trained.image(probe_model);
    double wall_us[2] = {0.0, 0.0};
    std::uint64_t probe_fast_launches = 0;
    for (int bi = 0; bi < 2; ++bi) {
      gpgpu::GpuConfig cfg;
      cfg.backend =
          bi == 0 ? gpgpu::GpuBackend::kCycle : gpgpu::GpuBackend::kFast;
      gpgpu::Gpu gpu(cfg);
      ml::load_image(gpu, image);
      std::vector<std::uint32_t> payload(image.input_words, 1);
      ml::run_inference_offline(gpu, image, payload);  // warm decode cache
      const auto t0 = std::chrono::steady_clock::now();
      for (std::uint64_t i = 0; i < probes; ++i) {
        payload[0] = static_cast<std::uint32_t>(i % 13);
        ml::run_inference_offline(gpu, image, payload);
      }
      wall_us[bi] = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
      if (bi == 1) probe_fast_launches = gpu.fast_launches();
    }
    std::cerr << "fig8: backend_probe model=" << core::to_string(probe_model)
              << " inferences=" << probes
              << " cycle_wall_us=" << static_cast<long long>(wall_us[0])
              << " fast_wall_us=" << static_cast<long long>(wall_us[1])
              << " kernel_speedup="
              << core::fmt(wall_us[1] > 0 ? wall_us[0] / wall_us[1] : 0.0, 2)
              << " fast_launches=" << probe_fast_launches << "\n";
  }

  core::ExperimentRunner runner(0, cache);
  std::cerr << "fig8: " << cells.size() << " cells on "
            << runner.pool().worker_count() << " workers...\n";
  const auto matrix_start = std::chrono::steady_clock::now();
  const auto results = runner.run_detection_matrix(cells);
  const auto matrix_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - matrix_start)
                             .count();
  // Diagnostics only (stdout stays byte-identical across kernels).
  std::cerr << "fig8: matrix_wall_ms=" << matrix_ms << "\n";

  std::uint64_t skipped_groups = 0;
  std::uint64_t skipped_cycles = 0;
  std::uint64_t gpu_wall_ns = 0;
  std::uint64_t fast_launches = 0;
  for (const auto& r : results) {
    skipped_groups += r.detection.skipped_edge_groups;
    skipped_cycles += r.detection.skipped_cycles;
    gpu_wall_ns += r.detection.gpu_exec_wall_ns;
    fast_launches += r.detection.gpu_fast_launches;
  }
  // Diagnostics only: the kernel-simulation wall is the share of the matrix
  // the execution backend is responsible for, which is what the perf smoke
  // compares across RTAD_BACKEND (stdout stays byte-identical).
  std::cerr << "fig8: backend=" << gpgpu::to_string(gpgpu::default_gpu_backend())
            << " gpu_exec_wall_ms=" << gpu_wall_ns / 1'000'000
            << " fast_launches=" << fast_launches << "\n";
  // Diagnostics only — scheduler mode must never leak into stdout, which
  // is compared byte-for-byte across kernels by the perf smoke.
  std::cerr << "fig8: scheduler=" << sim::to_string(sim::default_sched_mode())
            << " skipped_edge_groups=" << skipped_groups
            << " skipped_cycles=" << skipped_cycles << "\n";

  // Trace-frontend costs of the run's protocol (RTAD_TRACE_PROTO): encoder
  // bandwidth (bytes per decoded branch) and IGM decode occupancy.
  // Diagnostics only (stderr); the perf smoke compares protocols by running
  // the bench once per protocol.
  {
    const trace::TraceProtocol proto = trace::default_trace_protocol();
    std::uint64_t bytes = 0;
    std::uint64_t branches = 0;
    std::uint64_t busy = 0;
    for (const auto& r : results) {
      bytes += r.detection.trace_bytes_generated;
      branches += r.detection.decode_branches;
      busy += r.detection.igm_busy_cycles;
    }
    const double per_branch =
        branches > 0
            ? static_cast<double>(bytes) / static_cast<double>(branches)
            : 0.0;
    std::cerr << "fig8: proto=" << trace::to_string(proto)
              << " trace_bytes=" << bytes << " decode_branches=" << branches
              << " bytes_per_branch=" << core::fmt(per_branch, 3)
              << " igm_busy_cycles=" << busy << "\n";
  }

  std::vector<std::string> headers{"Benchmark"};
  for (const auto model : models) {
    for (const auto engine : engines) {
      headers.push_back(std::string(core::to_string(model)) + "/" +
                        core::to_string(engine));
    }
  }
  for (const auto model : models) {
    if (model != core::ModelKind::kLstm) continue;
    for (const auto engine : engines) {
      headers.push_back("drops(LSTM/" + std::string(core::to_string(engine)) +
                        ")");
    }
  }
  core::Table table(headers);

  std::vector<Agg> agg(stride);
  for (std::size_t b = 0; b < benchmarks.size(); ++b) {
    std::vector<std::string> row{benchmarks[b]};
    std::vector<std::string> drops;
    for (std::size_t c = 0; c < stride; ++c) {
      const auto& cell = results[b * stride + c].detection;
      agg[c].add(cell.mean_latency_us);
      row.push_back(core::fmt(cell.mean_latency_us, 1));
      if (cells[b * stride + c].model == core::ModelKind::kLstm) {
        drops.push_back(core::fmt_count(cell.fifo_drops));
      }
    }
    row.insert(row.end(), drops.begin(), drops.end());
    table.add_row(row);
  }
  table.print(std::cout);

  // Per-model engine-speedup summary. The MIAOW -> ML-MIAOW ratio only
  // exists when both engines ran; the overall line only for the full
  // matrix (its paper figure averages both models' ratios).
  const auto mean_for = [&](core::ModelKind model, core::EngineKind engine,
                            double& out) {
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t mi = 0; mi < models.size(); ++mi) {
      for (std::size_t ei = 0; ei < engines.size(); ++ei) {
        if (models[mi] == model && engines[ei] == engine) {
          sum += agg[mi * engines.size() + ei].mean();
          ++n;
        }
      }
    }
    if (n == 0) return false;
    out = sum / static_cast<double>(n);
    return true;
  };

  std::cout << "\nAverages (us):\n";
  std::vector<double> ratios;
  for (const auto model : models) {
    const char* label = model == core::ModelKind::kElm ? "ELM : " : "LSTM: ";
    const char* paper = model == core::ModelKind::kElm
                            ? "13.83 -> 4.21 = 3.28x"
                            : "53.16 -> 23.98 = 2.22x";
    double miaow = 0, ml = 0;
    const bool has_miaow = mean_for(model, core::EngineKind::kMiaow, miaow);
    const bool has_ml = mean_for(model, core::EngineKind::kMlMiaow, ml);
    if (has_miaow && has_ml) {
      ratios.push_back(miaow / ml);
      std::cout << "  " << label << "MIAOW " << core::fmt(miaow, 2)
                << " -> ML-MIAOW " << core::fmt(ml, 2) << "  ("
                << core::fmt(miaow / ml, 2) << "x; paper: " << paper << ")\n";
    } else if (has_miaow) {
      std::cout << "  " << label << "MIAOW " << core::fmt(miaow, 2) << "\n";
    } else if (has_ml) {
      std::cout << "  " << label << "ML-MIAOW " << core::fmt(ml, 2) << "\n";
    }
  }
  if (ratios.size() == 2) {
    const double overall = (ratios[0] + ratios[1]) / 2.0;
    std::cout << "  Overall engine speedup: " << core::fmt(overall, 2)
              << "x (paper: 2.75x)\n";
  }
  std::cout << "\nShape checks: ELM nearly constant per benchmark; LSTM "
               "varies with branch pressure;\n"
            << "FIFO drops concentrate on branch-heavy benchmarks (e.g. "
               "471.omnetpp) with the slower MIAOW engine.\n";

  runner.print_cell_costs(std::cerr, cells, results);
  const bool has_accounts =
      std::any_of(results.begin(), results.end(), [](const auto& r) {
        return !r.detection.cycle_accounts.empty();
      });
  if (has_accounts) {
    core::ExperimentRunner::print_cycle_accounts(std::cerr, cells, results);
  }
  return 0;
}

int main() { return bench::run("fig8", run_fig8); }
