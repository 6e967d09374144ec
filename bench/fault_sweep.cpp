// Fault sweep — degradation curves for the trace-to-inference path.
//
// Runs the detection experiment across a sweep of fault rates. Bin 0 (rate
// 0) doubles as a regression gate: an all-zero FaultPlan must produce
// results byte-identical to a run with no plan at all (the fault layer must
// be invisible when idle). Nonzero bins assert that faults actually fired
// and that the recovery machinery (decoder resyncs, MCM watchdog, drop
// policies) engaged — a sweep that silently injects nothing tests nothing.
//
// Per rate bin r the plan scales every site from one knob:
//   trace.bit_flip=r  trace.drop=r/2  trace.dup=r/2  trace.truncate=r/10
//   mcm.stall=20r  mcm.done_lost=10r  bus.delay=5r  bus.error=2r
//   irq.lost=10r   (all capped at 1.0)
// plus, for r>0, a 20k-cycle watchdog and the IGM drop-and-resync overflow
// policy so every recovery path is exercised.
//
// Knobs (README "Knobs"): RTAD_BENCH_BENCHMARKS (one; default
// astar); RTAD_BENCH_MODELS / RTAD_BENCH_ENGINES (defaults lstm /
// ml-miaow); RTAD_BENCH_ATTACKS per cell (default 4); RTAD_BENCH_RATES
// in [0, 0.1] (sorted+deduped; default "0,0.0002,0.001,0.005,0.02");
// RTAD_BENCH_JSON (default BENCH_fault_sweep.json); RTAD_BENCH_FAST_TRAIN.
// RTAD_JOBS / RTAD_SCHED as everywhere — stdout is byte-identical across
// both and across worker counts (wall-clock diagnostics go to stderr).
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "frontend.hpp"
#include "rtad/core/env.hpp"
#include "rtad/core/experiment_runner.hpp"
#include "rtad/core/report.hpp"

using namespace rtad;

namespace {

fault::FaultPlan plan_for(double rate) {
  using fault::FaultSite;
  const auto capped = [](double v) { return std::min(1.0, v); };
  fault::FaultPlan plan;
  plan.set_rate(FaultSite::kTraceBitFlip, capped(rate));
  plan.set_rate(FaultSite::kTraceDropByte, capped(rate * 0.5));
  plan.set_rate(FaultSite::kTraceDupByte, capped(rate * 0.5));
  plan.set_rate(FaultSite::kTraceTruncate, capped(rate * 0.1));
  plan.set_rate(FaultSite::kMcmStall, capped(rate * 20.0));
  plan.set_rate(FaultSite::kMcmDoneLost, capped(rate * 10.0));
  plan.set_rate(FaultSite::kBusDelay, capped(rate * 5.0));
  plan.set_rate(FaultSite::kBusError, capped(rate * 2.0));
  plan.set_rate(FaultSite::kIrqLost, capped(rate * 10.0));
  if (rate > 0.0) {
    // 20k fabric cycles (160 us): far above any legitimate kWaitDone stretch
    // (the watchdog additionally requires an idle GPU), small enough that
    // lost-done recoveries land well inside the attack deadline.
    plan.watchdog_cycles = 20'000;
    plan.igm_drop_resync = true;
  }
  return plan;
}

/// Sum of every "the pipeline recovered from something" counter.
std::uint64_t recovery_sum(const core::DetectionResult& d) {
  return d.decode_resyncs + d.ta_dropped_branches + d.mcm_recoveries +
         d.mcm_stalls_injected + d.bus_errors + d.irqs_lost;
}

}  // namespace

int run_sweep() {
  const std::string benchmark = bench::benchmark("astar");
  const auto models = bench::models({core::ModelKind::kLstm});
  const auto engines = bench::engines({core::EngineKind::kMlMiaow});
  const auto rates = core::env::numbers_or(
      bench::knob("RTAD_BENCH_RATES"), {0, 0.0002, 0.001, 0.005, 0.02}, 0.0,
      0.1);
  core::DetectionOptions dopt;
  dopt.attacks = core::env::positive_or(bench::knob("RTAD_BENCH_ATTACKS"), 4);
  const std::string json_path = core::env::string_or(
      bench::knob("RTAD_BENCH_JSON"), "BENCH_fault_sweep.json");
  auto cache =
      std::make_shared<core::TrainedModelCache>(bench::training_options());

  std::cout << "FAULT SWEEP: DETECTION UNDER DETERMINISTIC FAULT INJECTION\n\n";

  // Cell layout: per (model, engine) one baseline cell (no plan at all),
  // then one cell per rate bin (bin 0 runs the engaged-but-all-zero plan so
  // the baseline comparison proves plan-present == plan-absent).
  const std::size_t stride = 1 + rates.size();
  std::vector<core::DetectionCell> cells;
  for (const auto model : models) {
    for (const auto engine : engines) {
      auto base = dopt;
      base.faults.reset();
      cells.push_back({benchmark, model, engine, base});
      for (const double rate : rates) {
        auto opts = dopt;
        opts.faults = plan_for(rate);
        cells.push_back({benchmark, model, engine, opts});
      }
    }
  }

  core::ExperimentRunner runner(0, cache);
  std::cerr << "fault_sweep: " << cells.size() << " cells on "
            << runner.pool().worker_count() << " workers...\n";
  const auto results = runner.run_detection_matrix(cells);

  // --- regression gates ---
  bool ok = true;
  for (std::size_t g = 0; g < cells.size() / stride; ++g) {
    const auto* group = &results[g * stride];
    const auto& baseline = group[0].detection;
    const auto label = std::string(core::to_string(cells[g * stride].model)) +
                       "/" + core::to_string(cells[g * stride].engine);
    for (std::size_t b = 0; b < rates.size(); ++b) {
      const auto& d = group[1 + b].detection;
      if (rates[b] == 0.0) {
        // Zero-fault identity: same digest, same simulated time, same
        // outcome — the fault layer must be invisible when idle.
        if (d.score_digest != baseline.score_digest ||
            d.simulated_ps != baseline.simulated_ps ||
            d.detections != baseline.detections ||
            d.inferences != baseline.inferences || d.fault_events != 0) {
          std::cerr << "fault_sweep: FAIL — " << label
                    << " zero-rate bin differs from the no-plan baseline\n";
          ok = false;
        }
      } else {
        if (d.fault_events == 0) {
          std::cerr << "fault_sweep: FAIL — " << label << " rate "
                    << rates[b] << " injected no faults\n";
          ok = false;
        }
        if (b + 1 == rates.size() && recovery_sum(d) == 0) {
          std::cerr << "fault_sweep: FAIL — " << label
                    << " max-rate bin shows no recovery activity\n";
          ok = false;
        }
      }
    }
  }

  // --- stdout report (deterministic across RTAD_SCHED / RTAD_JOBS) ---
  core::Table table({"Rate", "Model", "Engine", "det", "FP", "mean (us)",
                     "infer", "faults", "corrupt", "resync", "ta_drop",
                     "mcm_rec", "bus_err", "irq_lost"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& d = results[i].detection;
    const std::size_t slot = i % stride;
    const std::string rate_label =
        slot == 0 ? "none" : core::fmt(rates[slot - 1], 4);
    table.add_row({rate_label, core::to_string(cells[i].model),
                   core::to_string(cells[i].engine),
                   std::to_string(d.detections) + "/" +
                       std::to_string(d.attacks),
                   core::fmt_count(d.false_positives), core::fmt(d.mean_latency_us, 1),
                   core::fmt_count(d.inferences), core::fmt_count(d.fault_events),
                   core::fmt_count(d.trace_bytes_corrupted),
                   core::fmt_count(d.decode_resyncs),
                   core::fmt_count(d.ta_dropped_branches),
                   core::fmt_count(d.mcm_recoveries), core::fmt_count(d.bus_errors),
                   core::fmt_count(d.irqs_lost)});
  }
  std::cout << "Benchmark: " << benchmark << ", " << dopt.attacks
            << " attacks per cell ('none' = no FaultPlan; rate 0 = all-zero "
               "plan, asserted identical):\n";
  table.print(std::cout);
  std::cout << "\n";
  core::ExperimentRunner::print_health(std::cout, cells, results);
  std::cout << "\nZero-fault identity: " << (ok ? "PASS" : "FAIL") << "\n";

  // --- JSON artifact (rate bins ascending; deterministic fields only) ---
  {
    std::ofstream js(json_path);
    js << "{\n  \"benchmark\": \"" << benchmark << "\",\n"
       << "  \"attacks_per_cell\": " << dopt.attacks << ",\n"
       << "  \"zero_fault_identical\": " << (ok ? "true" : "false") << ",\n"
       << "  \"bins\": [\n";
    bool first = true;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const std::size_t slot = i % stride;
      if (slot == 0) continue;  // baseline cells are a gate, not a bin
      const auto& d = results[i].detection;
      if (!first) js << ",\n";
      first = false;
      js << "    {\"rate\": " << rates[slot - 1] << ", \"model\": \""
         << core::to_string(cells[i].model) << "\", \"engine\": \""
         << core::to_string(cells[i].engine)
         << "\", \"detections\": " << d.detections
         << ", \"attacks\": " << d.attacks
         << ", \"mean_latency_us\": " << core::fmt(d.mean_latency_us, 3)
         << ", \"false_positives\": " << d.false_positives
         << ", \"inferences\": " << d.inferences
         << ", \"fault_events\": " << d.fault_events
         << ", \"trace_bytes_corrupted\": " << d.trace_bytes_corrupted
         << ", \"decode_bad_packets\": " << d.decode_bad_packets
         << ", \"decode_resyncs\": " << d.decode_resyncs
         << ", \"ta_dropped_branches\": " << d.ta_dropped_branches
         << ", \"fifo_drops\": " << d.fifo_drops
         << ", \"mcm_recoveries\": " << d.mcm_recoveries
         << ", \"mcm_stalls_injected\": " << d.mcm_stalls_injected
         << ", \"bus_errors\": " << d.bus_errors
         << ", \"bus_fault_cycles\": " << d.bus_fault_cycles
         << ", \"irqs_lost\": " << d.irqs_lost << "}";
    }
    js << "\n  ]\n}\n";
  }
  std::cerr << "fault_sweep: wrote " << json_path << "\n";

  runner.print_cell_costs(std::cerr, cells, results);
  return ok ? 0 : 1;
}

int main() { return bench::run("fault_sweep", run_sweep); }
