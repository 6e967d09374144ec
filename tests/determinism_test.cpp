// Determinism regression: the parallel experiment engine must produce
// bit-identical results for any worker count. The same (benchmark, seed)
// cells run serially (direct measure_detection) and through the pool at 1,
// 2, and 8 workers; detection latencies, the per-inference anomaly-score
// digest, and the FIFO-overflow counters must match exactly. Run under
// ThreadSanitizer (cmake -DRTAD_SANITIZE=thread) this doubles as the race
// detector for the whole train -> cache -> fan-out -> merge path.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fixtures.hpp"
#include "rtad/core/experiment_runner.hpp"

namespace rtad::core {
namespace {

using namespace fixtures;

std::vector<DetectionCell> matrix() {
  DetectionOptions dopt;
  dopt.attacks = 2;
  // Both models twice over: repeats give the pool real contention at 8
  // workers, and every repeat must still be bit-identical.
  std::vector<DetectionCell> cells;
  for (int repeat = 0; repeat < 2; ++repeat) {
    cells.push_back({"astar", ModelKind::kElm, EngineKind::kMlMiaow, dopt});
    cells.push_back({"astar", ModelKind::kLstm, EngineKind::kMlMiaow, dopt});
    cells.push_back({"astar", ModelKind::kLstm, EngineKind::kMiaow, dopt});
  }
  return cells;
}

void expect_identical(const DetectionResult& a, const DetectionResult& b) {
  EXPECT_EQ(a.benchmark, b.benchmark);
  EXPECT_EQ(a.attacks, b.attacks);
  EXPECT_EQ(a.detections, b.detections);
  // Latencies are compared bitwise (EXPECT_EQ, not NEAR): any divergence
  // means a run observed state from outside its own simulation.
  EXPECT_EQ(a.mean_latency_us, b.mean_latency_us);
  EXPECT_EQ(a.min_latency_us, b.min_latency_us);
  EXPECT_EQ(a.max_latency_us, b.max_latency_us);
  EXPECT_EQ(a.fifo_drops, b.fifo_drops);
  EXPECT_EQ(a.false_positives, b.false_positives);
  EXPECT_EQ(a.inferences, b.inferences);
  EXPECT_EQ(a.score_digest, b.score_digest);
  EXPECT_EQ(a.simulated_ps, b.simulated_ps);
}

TEST(Determinism, PoolMatchesSerialAtEveryWorkerCount) {
  const auto cells = matrix();
  auto cache = shared_cache();

  // Serial reference: direct measure_detection calls, no pool involved.
  std::vector<DetectionResult> serial;
  for (const auto& cell : cells) {
    serial.push_back(measure_detection(cache->profile(cell.benchmark),
                                       cache->get(cell.benchmark), cell.model,
                                       cell.engine, cell.options));
  }

  for (const std::size_t jobs : {1u, 2u, 8u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    ExperimentRunner runner(jobs, cache);
    const auto results = runner.run_detection_matrix(cells);
    ASSERT_EQ(results.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      SCOPED_TRACE("cell=" + std::to_string(i));
      expect_identical(results[i].detection, serial[i]);
    }
  }
}

TEST(Determinism, RepeatedCellsAreBitIdenticalWithinOneRun) {
  ExperimentRunner runner(8, shared_cache());
  const auto cells = matrix();
  const auto results = runner.run_detection_matrix(cells);
  ASSERT_EQ(results.size(), 6u);
  for (std::size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE("cell=" + std::to_string(i));
    expect_identical(results[i].detection, results[i + 3].detection);
  }
}

TEST(Determinism, EventKernelMatchesDenseBitForBit) {
  // The dense kernel is the bit-identity reference for the event-driven
  // scheduler: same fired edges, same timestamps, same scores. Compare
  // every cell of the matrix across the two kernels, serially.
  auto cache = shared_cache();
  for (auto cell : matrix()) {
    SCOPED_TRACE(cell.benchmark + " model=" +
                 std::to_string(static_cast<int>(cell.model)) + " engine=" +
                 std::to_string(static_cast<int>(cell.engine)));
    cell.options.sched = sim::SchedMode::kDense;
    const auto dense =
        measure_detection(cache->profile(cell.benchmark),
                          cache->get(cell.benchmark), cell.model, cell.engine,
                          cell.options);
    cell.options.sched = sim::SchedMode::kEventDriven;
    const auto event =
        measure_detection(cache->profile(cell.benchmark),
                          cache->get(cell.benchmark), cell.model, cell.engine,
                          cell.options);
    expect_identical(dense, event);
    // The event kernel must actually have slept through something, or this
    // test degenerates into dense-vs-dense.
    EXPECT_GT(event.skipped_edge_groups, 0u);
    EXPECT_GT(event.skipped_cycles, 0u);
    EXPECT_EQ(dense.skipped_edge_groups, 0u);
  }
}

TEST(Determinism, EventKernelMatchesDenseThroughThePool) {
  // Same comparison fanned out across 8 workers: scheduling mode must not
  // interact with the trained-model cache or result merge order.
  auto cells = matrix();
  for (auto& cell : cells) cell.options.sched = sim::SchedMode::kDense;
  ExperimentRunner dense_runner(8, shared_cache());
  const auto dense = dense_runner.run_detection_matrix(cells);

  for (auto& cell : cells) cell.options.sched = sim::SchedMode::kEventDriven;
  ExperimentRunner event_runner(8, shared_cache());
  const auto event = event_runner.run_detection_matrix(cells);

  ASSERT_EQ(dense.size(), event.size());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    SCOPED_TRACE("cell=" + std::to_string(i));
    expect_identical(dense[i].detection, event[i].detection);
  }
}

TEST(Determinism, ModelCacheTrainsEachBenchmarkOnce) {
  auto cache = shared_cache();
  // Every preceding test and worker count hit the same benchmark; the
  // LSTM BPTT + ELM solve must still have run exactly once.
  cache->get("astar");
  EXPECT_EQ(cache->trainings(), 1u);
}

TEST(Determinism, CacheReturnsSameInstanceAcrossThreads) {
  auto cache = shared_cache();
  sim::ThreadPool pool(4);
  std::vector<std::future<const TrainedModels*>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.submit([&] { return &cache->get("astar"); }));
  }
  std::vector<const TrainedModels*> instances;
  instances.reserve(futures.size());
  for (auto& f : futures) instances.push_back(f.get());
  for (const auto* p : instances) EXPECT_EQ(p, instances.front());
}

}  // namespace
}  // namespace rtad::core
