// Microbenchmarks of the substrates (google-benchmark): PFT encode/decode
// throughput, workload synthesis rate, GPGPU interpreter throughput, and
// host-side model steps. These bound how much wall-clock the paper-level
// experiments cost.
#include <benchmark/benchmark.h>

#include "rtad/gpgpu/assembler.hpp"
#include "rtad/gpgpu/gpu.hpp"
#include "rtad/ml/lstm.hpp"
#include "rtad/sim/rng.hpp"
#include "rtad/trace/pft.hpp"
#include "rtad/workloads/trace_generator.hpp"

namespace {

using namespace rtad;

void BM_TraceGenerator(benchmark::State& state) {
  const auto& p = workloads::find_profile("gcc");
  workloads::TraceGenerator gen(p, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.next());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceGenerator);

void BM_PftEncode(benchmark::State& state) {
  const auto& p = workloads::find_profile("perlbench");
  workloads::TraceGenerator gen(p, 2);
  trace::PftEncoder enc;
  std::vector<std::uint8_t> bytes;
  std::uint64_t produced = 0;
  for (auto _ : state) {
    bytes.clear();
    enc.encode(gen.next().event, bytes);
    produced += bytes.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["bytes/event"] =
      benchmark::Counter(static_cast<double>(produced) /
                         static_cast<double>(state.iterations()));
}
BENCHMARK(BM_PftEncode);

void BM_PftDecode(benchmark::State& state) {
  const auto& p = workloads::find_profile("perlbench");
  workloads::TraceGenerator gen(p, 2);
  trace::PftEncoder enc;
  std::vector<std::uint8_t> bytes;
  enc.emit_sync(0, 1, bytes);
  for (int i = 0; i < 10'000; ++i) enc.encode(gen.next().event, bytes);
  trace::PftStreamDecoder dec;
  std::size_t pos = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dec.feed(trace::TraceByte{bytes[pos], 0, 0, false}));
    pos = (pos + 1) % bytes.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PftDecode);

void BM_GpuInterpreter(benchmark::State& state) {
  const auto prog = gpgpu::assemble(R"(
  s_mov_b32 s5, 0
loop:
  s_cmp_ge_i32 s5, 1000
  s_cbranch_scc1 done
  v_mac_f32 v2, v3, v4
  v_add_i32 v5, v5, 4
  s_add_i32 s5, s5, 1
  s_branch loop
done:
  s_endpgm
)");
  gpgpu::GpuConfig cfg;
  gpgpu::Gpu gpu(cfg);
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    gpgpu::LaunchConfig launch;
    launch.program = &prog;
    gpu.launch(launch);
    gpu.run_to_completion();
    instructions += 5'003;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
}
BENCHMARK(BM_GpuInterpreter);

void BM_LstmHostStep(benchmark::State& state) {
  ml::LstmConfig cfg;
  ml::Lstm lstm(cfg);
  std::vector<std::uint32_t> tokens(600);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    tokens[i] = static_cast<std::uint32_t>(i % 7);
  }
  lstm.train(tokens);
  auto s = lstm.initial_state();
  std::uint32_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lstm.step(s, t));
    t = (t + 1) % 7;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LstmHostStep);

void BM_ZipfSample(benchmark::State& state) {
  sim::Xoshiro256 rng(1);
  sim::ZipfSampler zipf(static_cast<std::size_t>(state.range(0)), 1.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(256)->Arg(4096)->Arg(32768);

}  // namespace

BENCHMARK_MAIN();
