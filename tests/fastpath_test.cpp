// Fast-backend differential suite: the decode-once fast path must be
// indistinguishable from the cycle-level oracle on every surface callers
// can observe — inference outputs, anomaly flags, launch cycle counts,
// instruction/memory counters, device memory contents, full detection
// results, and the rtad.metrics.v2 export. Every comparison here is exact
// (EXPECT_EQ on bit patterns, never EXPECT_NEAR): the fast backend is a
// different implementation of the same machine, not an approximation.
//
// The suite also proves the fast path actually ran (fast_launches > 0)
// wherever it is expected to: a silent per-launch fallback to the cycle
// interpreter would make every differential check pass vacuously.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "rtad/core/experiment_runner.hpp"
#include "rtad/gpgpu/assembler.hpp"
#include "rtad/gpgpu/gpu.hpp"
#include "rtad/ml/dataset.hpp"
#include "rtad/ml/kernel_compiler.hpp"
#include "rtad/ml/lstm.hpp"
#include "rtad/ml/mlp.hpp"
#include "rtad/sim/rng.hpp"
#include "rtad/workloads/spec_model.hpp"

namespace rtad {
namespace {

using gpgpu::Gpu;
using gpgpu::GpuBackend;
using gpgpu::GpuConfig;
using gpgpu::LaunchConfig;
using gpgpu::Program;

// ---------------------------------------------------------------------------
// Kernel-level harness: run a program (or a model image) on both backends
// and capture everything observable.

struct KernelRun {
  std::vector<std::uint64_t> launch_cycles;  ///< per launch, in order
  std::uint64_t issued = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t fast_launches = 0;
  std::vector<std::uint32_t> mem;  ///< full device memory at the end
};

void expect_same(const KernelRun& cycle, const KernelRun& fast,
                 bool expect_fast_path) {
  EXPECT_EQ(cycle.launch_cycles, fast.launch_cycles);
  EXPECT_EQ(cycle.issued, fast.issued);
  EXPECT_EQ(cycle.reads, fast.reads);
  EXPECT_EQ(cycle.writes, fast.writes);
  EXPECT_EQ(cycle.mem, fast.mem);
  EXPECT_EQ(cycle.fast_launches, 0u);
  if (expect_fast_path) {
    EXPECT_GT(fast.fast_launches, 0u);
  } else {
    EXPECT_EQ(fast.fast_launches, 0u);
  }
}

KernelRun snapshot(Gpu& gpu) {
  KernelRun r;
  r.issued = gpu.instructions_issued();
  r.fast_launches = gpu.fast_launches();
  r.reads = gpu.memory().reads();
  r.writes = gpu.memory().writes();
  r.mem.resize(gpu.memory().size() / 4);
  gpu.memory().read_block(0, r.mem.data(), r.mem.size());
  return r;
}

/// Run an assembled kernel `launches` times on one backend.
KernelRun run_asm(const Program& prog, GpuBackend backend,
                  std::uint32_t workgroups, std::uint32_t waves,
                  std::uint32_t num_cus, std::uint32_t launches = 1) {
  GpuConfig cfg;
  cfg.num_cus = num_cus;
  cfg.memory_bytes = 1u << 16;
  cfg.backend = backend;
  Gpu gpu(cfg);
  // Deterministic nonzero contents for anything the kernel loads.
  for (std::uint32_t a = 0x1000; a < 0x1400; a += 4) {
    gpu.memory().write32(a, a * 2654435761u);
  }
  LaunchConfig launch;
  launch.program = &prog;
  launch.workgroups = workgroups;
  launch.waves_per_group = waves;
  std::vector<std::uint64_t> cycles;
  for (std::uint32_t i = 0; i < launches; ++i) {
    gpu.launch(launch);
    gpu.run_to_completion();
    cycles.push_back(gpu.last_launch_cycles());
  }
  KernelRun r = snapshot(gpu);
  r.launch_cycles = std::move(cycles);
  return r;
}

void expect_backend_equivalent(const std::string& src,
                               std::uint32_t workgroups = 1,
                               std::uint32_t waves = 1,
                               std::uint32_t num_cus = 1,
                               std::uint32_t launches = 1) {
  const auto prog = gpgpu::assemble(src);
  const auto cycle =
      run_asm(prog, GpuBackend::kCycle, workgroups, waves, num_cus, launches);
  const auto fast =
      run_asm(prog, GpuBackend::kFast, workgroups, waves, num_cus, launches);
  expect_same(cycle, fast, /*expect_fast_path=*/true);
}

// ---------------------------------------------------------------------------
// Trained-model differential: every model kind through its compiled kernels
// on both backends, on both engine shapes (1 CU and 5 CUs).

struct InferenceTrace {
  std::vector<std::uint32_t> score_bits;  ///< per inference, bit-exact
  std::vector<bool> anomalies;
  KernelRun run;
};

InferenceTrace run_image(const ml::ModelImage& image, GpuBackend backend,
                         std::uint32_t num_cus,
                         const std::vector<std::vector<std::uint32_t>>& inputs) {
  GpuConfig cfg;
  cfg.num_cus = num_cus;
  cfg.backend = backend;
  Gpu gpu(cfg);
  ml::load_image(gpu, image);
  InferenceTrace t;
  for (const auto& payload : inputs) {
    const auto res = ml::run_inference_offline(gpu, image, payload);
    std::uint32_t bits;
    std::memcpy(&bits, &res.score, 4);
    t.score_bits.push_back(bits);
    t.anomalies.push_back(res.anomaly);
    t.run.launch_cycles.push_back(gpu.last_launch_cycles());
  }
  const KernelRun counters = snapshot(gpu);
  t.run.issued = counters.issued;
  t.run.reads = counters.reads;
  t.run.writes = counters.writes;
  t.run.fast_launches = counters.fast_launches;
  t.run.mem = counters.mem;
  return t;
}

void expect_image_equivalent(
    const ml::ModelImage& image,
    const std::vector<std::vector<std::uint32_t>>& inputs) {
  for (const std::uint32_t num_cus : {1u, 5u}) {
    const auto cycle = run_image(image, GpuBackend::kCycle, num_cus, inputs);
    const auto fast = run_image(image, GpuBackend::kFast, num_cus, inputs);
    EXPECT_EQ(cycle.score_bits, fast.score_bits) << image.name;
    EXPECT_EQ(cycle.anomalies, fast.anomalies) << image.name;
    expect_same(cycle.run, fast.run, /*expect_fast_path=*/true);
  }
}

std::vector<std::uint32_t> counts_payload(const ml::Vector& x,
                                          std::uint32_t window) {
  std::vector<std::uint32_t> payload;
  payload.reserve(x.size());
  for (const float v : x) {
    payload.push_back(static_cast<std::uint32_t>(
        std::lround(v * static_cast<float>(window))));
  }
  return payload;
}

TEST(FastPathModels, ElmKernelsMatchCycleBackend) {
  const auto& p = workloads::find_profile("gcc");
  ml::DatasetBuilder builder(p, 23);
  auto ds = builder.collect_elm(120);
  ml::ElmConfig cfg;
  cfg.input_dim = builder.config().elm_vocab;
  cfg.hidden = 128;
  ml::Elm elm(cfg);
  std::vector<ml::Vector> train(ds.windows.begin(), ds.windows.begin() + 100);
  elm.train(train);

  std::vector<float> scores;
  for (const auto& w : ds.windows) scores.push_back(elm.score(w));
  const auto threshold = ml::Threshold::calibrate(scores, 95.0, 1.2f);
  const auto image =
      ml::compile_elm(elm, threshold, builder.config().elm_window);

  std::vector<std::vector<std::uint32_t>> inputs;
  for (std::size_t i = 100; i < 112; ++i) {
    inputs.push_back(counts_payload(ds.windows[i], builder.config().elm_window));
  }
  // One uniform histogram far from training so the anomaly path runs too.
  inputs.emplace_back(builder.config().elm_vocab,
                      builder.config().elm_window / builder.config().elm_vocab);
  expect_image_equivalent(image, inputs);
}

TEST(FastPathModels, MlpKernelsMatchCycleBackend) {
  const auto& p = workloads::find_profile("mcf");
  ml::DatasetBuilder builder(p, 33);
  auto ds = builder.collect_elm(120);
  ml::MlpConfig cfg;
  cfg.input_dim = builder.config().elm_vocab;
  cfg.hidden = 64;
  cfg.epochs = 15;
  ml::Mlp mlp(cfg);
  std::vector<ml::Vector> train(ds.windows.begin(), ds.windows.begin() + 100);
  mlp.train(train);
  const auto image =
      ml::compile_mlp(mlp, ml::Threshold(1e9f), builder.config().elm_window);

  std::vector<std::vector<std::uint32_t>> inputs;
  for (std::size_t i = 100; i < 112; ++i) {
    inputs.push_back(counts_payload(ds.windows[i], builder.config().elm_window));
  }
  expect_image_equivalent(image, inputs);
}

TEST(FastPathModels, LstmKernelsMatchCycleBackend) {
  ml::LstmConfig cfg;  // vocab 64, hidden 64: device shape
  cfg.epochs = 2;
  ml::Lstm lstm(cfg);
  std::vector<std::uint32_t> tokens;
  sim::Xoshiro256 rng(31);
  for (int i = 0; i < 1500; ++i) {
    tokens.push_back(rng.chance(0.1)
                         ? static_cast<std::uint32_t>(rng.uniform_below(64))
                         : static_cast<std::uint32_t>(i % 12));
  }
  lstm.train(tokens);
  const auto image = ml::compile_lstm(lstm, ml::Threshold(1e9f), 0.0f);

  // A stateful sequence: each step reads the recurrent state the previous
  // launch left in device memory, so any divergence compounds and the
  // digest-equivalent score vector would catch it immediately.
  std::vector<std::vector<std::uint32_t>> inputs;
  for (int i = 0; i < 24; ++i) {
    inputs.push_back({static_cast<std::uint32_t>(i % 12)});
  }
  inputs.push_back({63});  // out-of-pattern token
  expect_image_equivalent(image, inputs);
}

// ---------------------------------------------------------------------------
// Block-boundary coverage: shapes that stress the decoder's basic-block
// slicing — back-to-back branches, branch targets that are themselves
// branches, single-instruction blocks, divergent EXEC masks, barriers.

constexpr const char* kLane0Epilogue = R"(
  v_cmp_lt_i32 vcc, v0, 1
  s_and_b64 exec, exec, vcc
  s_mov_b32 s20, 0x4000
  v_mov_b32 v11, 0
  v_mov_b32 v10, s5
  global_store_dword v10, v11, s20
  s_endpgm
)";

TEST(FastPathBlocks, BackToBackBranches) {
  // Both a fallthrough into another branch and a branch target that is
  // itself a branch: every one of these is its own single-instruction
  // block, and the decoder must mark all the leaders.
  expect_backend_equivalent(std::string(R"(
  s_mov_b32 s4, 3
  s_mov_b32 s5, 0
  s_cmp_lt_i32 s4, 10
  s_cbranch_scc1 a
  s_branch b
a:
  s_cbranch_scc1 b
  s_branch c
b:
  s_add_i32 s5, s5, 1
c:
  s_add_i32 s5, s5, 16
)") + kLane0Epilogue);
}

TEST(FastPathBlocks, SingleInstructionLoopBody) {
  // The loop body and the loop latch compress to one- and two-instruction
  // blocks; the backward branch re-enters a block mid-program.
  expect_backend_equivalent(std::string(R"(
  s_mov_b32 s5, 0
  s_mov_b32 s6, 0
top:
  s_add_i32 s5, s5, 7
  s_add_i32 s6, s6, 1
  s_cmp_lt_i32 s6, 9
  s_cbranch_scc1 top
)") + kLane0Epilogue);
}

TEST(FastPathBlocks, DivergentExecMasks) {
  // Narrow EXEC per-lane, run a divergent region, skip a dead region via
  // execz, then restore. Lanes must re-converge with per-lane results.
  expect_backend_equivalent(R"(
  s_mov_b64 s8, exec
  v_mov_b32 v4, 0
  v_cmp_lt_i32 vcc, v0, 40
  s_and_b64 exec, exec, vcc
  v_add_i32 v4, v4, 5
  v_cmp_gt_i32 vcc, v0, 1000
  s_and_b64 exec, exec, vcc
  s_cbranch_execz dead
  v_add_i32 v4, v4, 100
dead:
  s_mov_b64 exec, s8
  v_lshlrev_b32 v2, 2, v0
  s_mov_b32 s20, 0x4000
  global_store_dword v4, v2, s20
  s_endpgm
)");
}

TEST(FastPathBlocks, BarrierMultiWaveAccumulation) {
  // Four waves accumulate into LDS across two barriers; the fast backend
  // must replay the CU's round-robin issue and barrier release exactly,
  // including the launch cycle count.
  expect_backend_equivalent(R"(
.lds 64
  v_mov_b32 v2, 0
  v_mov_b32 v3, 1
  s_cmp_lg_i32 s2, 0
  s_cbranch_scc1 skipinit
  ds_write_b32 v2, v2
skipinit:
  s_barrier
  ds_add_u32 v3, v2
  s_barrier
  v_cmp_lt_i32 vcc, v1, 1
  s_and_b64 exec, exec, vcc
  ds_read_b32 v10, v2
  s_mov_b32 s20, 0x4000
  v_mov_b32 v11, 0
  global_store_dword v10, v11, s20
  s_endpgm
)", /*workgroups=*/1, /*waves=*/4);
}

TEST(FastPathBlocks, MultiWorkgroupDispatchOnMultipleCus) {
  // Five workgroups over two CUs: the fast backend replays the dispatcher
  // (latency gaps, busy CUs, idle-jump) analytically; launch cycle counts
  // and per-workgroup output slots must match the oracle exactly.
  expect_backend_equivalent(R"(
  s_lshl_b32 s4, s1, 8
  s_add_i32 s4, s4, 0x4000
  v_lshlrev_b32 v2, 2, v0
  v_mov_b32 v3, s1
  v_add_i32 v3, v3, v0
  global_store_dword v3, v2, s4
  s_endpgm
)", /*workgroups=*/5, /*waves=*/1, /*num_cus=*/2);
}

TEST(FastPathBlocks, RepeatLaunchesHitDecodeCache) {
  // Same program launched repeatedly: every launch must take the fast path
  // (cache hit) and stay cycle-exact.
  expect_backend_equivalent(std::string(R"(
  s_mov_b32 s5, 0
  s_mov_b32 s6, 0
again:
  s_add_i32 s5, s5, 3
  s_add_i32 s6, s6, 1
  s_cmp_lt_i32 s6, 5
  s_cbranch_scc1 again
)") + kLane0Epilogue,
                            /*workgroups=*/1, /*waves=*/1, /*num_cus=*/1,
                            /*launches=*/4);
}

TEST(FastPathFallback, CoverageCollectionForcesCyclePath) {
  // Coverage is a cycle-interpreter product; under RTAD_BACKEND=fast the
  // launch must silently take the cycle path and produce identical
  // coverage, with fast_launches pinned at 0.
  const auto prog = gpgpu::assemble(std::string(R"(
  s_mov_b32 s4, 2
  s_mov_b32 s5, 40
  s_add_i32 s5, s5, s4
)") + kLane0Epilogue);
  std::vector<std::uint64_t> coverage[2];
  KernelRun runs[2];
  const GpuBackend backends[2] = {GpuBackend::kCycle, GpuBackend::kFast};
  for (int i = 0; i < 2; ++i) {
    GpuConfig cfg;
    cfg.memory_bytes = 1u << 16;
    cfg.backend = backends[i];
    Gpu gpu(cfg);
    gpu.set_coverage_enabled(true);
    LaunchConfig launch;
    launch.program = &prog;
    gpu.launch(launch);
    gpu.run_to_completion();
    runs[i] = snapshot(gpu);
    runs[i].launch_cycles.push_back(gpu.last_launch_cycles());
    coverage[i] = gpu.coverage();
  }
  expect_same(runs[0], runs[1], /*expect_fast_path=*/false);
  EXPECT_EQ(coverage[0], coverage[1]);
}

TEST(FastPathFallback, FallThroughEndRaisesCanonicalError) {
  // A program whose last path falls off the end is outside the fast subset;
  // the fast backend must fall back and raise the cycle backend's error.
  Program prog;
  prog.name = "falls_off";
  gpgpu::Instruction mov;
  mov.op = gpgpu::Opcode::S_MOV_B32;
  mov.dst = gpgpu::Operand::sgpr(4);
  mov.src0 = gpgpu::Operand::lit(1);
  prog.code.push_back(mov);
  prog.num_vgprs = 4;

  std::string messages[2];
  const GpuBackend backends[2] = {GpuBackend::kCycle, GpuBackend::kFast};
  for (int i = 0; i < 2; ++i) {
    GpuConfig cfg;
    cfg.backend = backends[i];
    Gpu gpu(cfg);
    LaunchConfig launch;
    launch.program = &prog;
    gpu.launch(launch);
    try {
      gpu.run_to_completion();
      FAIL() << "expected PC-past-end error";
    } catch (const std::runtime_error& e) {
      messages[i] = e.what();
    }
    EXPECT_EQ(gpu.fast_launches(), 0u);
  }
  EXPECT_NE(messages[0].find("PC past end"), std::string::npos);
  EXPECT_EQ(messages[0], messages[1]);
}

// ---------------------------------------------------------------------------
// Full-pipeline differential: complete detection sessions across backend ×
// scheduler, comparing every DetectionResult field and the byte-exact
// rtad.metrics.v2 export.

workloads::SpecProfile fast_profile(const std::string& name) {
  auto p = workloads::find_profile(name);
  p.syscall_interval_instrs = 40'000;  // keep sim time short
  return p;
}

std::shared_ptr<core::TrainedModelCache> shared_cache() {
  core::TrainingOptions opt;
  opt.lstm_train_tokens = 2'500;
  opt.lstm_val_tokens = 700;
  opt.elm_train_windows = 250;
  opt.elm_val_windows = 80;
  opt.lstm.epochs = 2;
  static const auto cache = std::make_shared<core::TrainedModelCache>(
      opt, [](const std::string& name) { return fast_profile(name); });
  return cache;
}

core::DetectionResult run_session(core::ModelKind model,
                                  core::EngineKind engine, GpuBackend backend,
                                  sim::SchedMode sched,
                                  const std::string& metrics_path) {
  auto cache = shared_cache();
  core::DetectionOptions dopt;
  dopt.attacks = 2;
  dopt.sched = sched;
  dopt.backend = backend;
  dopt.trace_path.clear();
  dopt.metrics_path = metrics_path;
  return core::measure_detection(cache->profile("astar"),
                                 cache->get("astar"), model, engine, dopt);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void expect_sessions_identical(const core::DetectionResult& a,
                               const core::DetectionResult& b) {
  EXPECT_EQ(a.attacks, b.attacks);
  EXPECT_EQ(a.detections, b.detections);
  EXPECT_EQ(a.mean_latency_us, b.mean_latency_us);
  EXPECT_EQ(a.min_latency_us, b.min_latency_us);
  EXPECT_EQ(a.max_latency_us, b.max_latency_us);
  EXPECT_EQ(a.fifo_drops, b.fifo_drops);
  EXPECT_EQ(a.false_positives, b.false_positives);
  EXPECT_EQ(a.inferences, b.inferences);
  EXPECT_EQ(a.score_digest, b.score_digest);
  EXPECT_EQ(a.simulated_ps, b.simulated_ps);
  EXPECT_EQ(a.irqs_lost, b.irqs_lost);
  EXPECT_EQ(a.mcm_recoveries, b.mcm_recoveries);
}

TEST(FastPathSessions, DetectionAndMetricsIdenticalAcrossBackends) {
  const struct {
    core::ModelKind model;
    core::EngineKind engine;
  } cells[] = {
      {core::ModelKind::kElm, core::EngineKind::kMlMiaow},
      {core::ModelKind::kLstm, core::EngineKind::kMiaow},
      {core::ModelKind::kLstm, core::EngineKind::kMlMiaow},
  };
  int cell_index = 0;
  for (const auto& cell : cells) {
    for (const auto sched :
         {sim::SchedMode::kDense, sim::SchedMode::kEventDriven}) {
      const std::string tag = testing::TempDir() + "fastpath_metrics_" +
                              std::to_string(cell_index) + "_" +
                              (sched == sim::SchedMode::kDense ? "d" : "e");
      const auto cycle = run_session(cell.model, cell.engine,
                                     GpuBackend::kCycle, sched, tag + "c.json");
      const auto fast = run_session(cell.model, cell.engine, GpuBackend::kFast,
                                    sched, tag + "f.json");
      expect_sessions_identical(cycle, fast);
      // The fast path must actually have run — and only under kFast.
      EXPECT_EQ(cycle.gpu_fast_launches, 0u);
      EXPECT_GT(fast.gpu_fast_launches, 0u);
      // Byte-exact machine-readable export.
      const std::string cycle_json = slurp(tag + "c.json");
      const std::string fast_json = slurp(tag + "f.json");
      ASSERT_FALSE(cycle_json.empty());
      EXPECT_EQ(cycle_json, fast_json);
    }
    ++cell_index;
  }
}

}  // namespace
}  // namespace rtad
