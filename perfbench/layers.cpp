#include "layers.hpp"

#include <algorithm>
#include <memory>

#include "rtad/gpgpu/gpu.hpp"
#include "rtad/igm/address_mapper.hpp"
#include "rtad/igm/vector_encoder.hpp"
#include "rtad/ml/kernel_compiler.hpp"
#include "rtad/trace/decoder.hpp"
#include "rtad/trace/encoder.hpp"
#include "rtad/workloads/trace_generator.hpp"

namespace perfbench {

using namespace rtad;

namespace {

/// Generator steps replayed per pipeline stage before moving to the next,
/// so the replay's memory stays flat for any episode length.
constexpr std::size_t kChunk = 16'384;
/// TraceSourceConfig's default sync-preamble cadence.
constexpr std::size_t kSyncIntervalBytes = 4096;
constexpr std::size_t kProbeVectors = 64;

}  // namespace

StreamCosts replay_stream(const workloads::SpecProfile& profile,
                          std::uint64_t seed, trace::TraceProtocol proto,
                          core::ModelKind model,
                          const ml::DatasetBuilder& features,
                          std::uint64_t branches) {
  StreamCosts c;
  workloads::TraceGenerator gen(profile, seed);
  const auto encoder = trace::make_encoder(proto);
  const auto decoder = trace::make_decoder(proto);

  // The IGM tables exactly as RtadSoc programs them for the model.
  igm::AddressMapper mapper;
  mapper.clear();
  igm::VectorEncoderConfig vcfg;
  if (model == core::ModelKind::kElm) {
    vcfg.encoding = igm::Encoding::kSlidingHistogram;
    vcfg.hash_fallback = true;
    vcfg.vocab_size = features.config().elm_vocab;
    vcfg.window = features.config().elm_window;
    mapper.add_range(workloads::kSyscallBase,
                     workloads::kSyscallStride * 256);
  } else {
    vcfg.encoding = igm::Encoding::kTokenStream;
    vcfg.hash_fallback = false;
    vcfg.vocab_size = features.config().lstm_vocab;
  }
  igm::VectorEncoder vectors(vcfg);
  if (model == core::ModelKind::kLstm) {
    const auto& monitored = features.monitored_addresses();
    for (std::size_t i = 0; i < monitored.size(); ++i) {
      mapper.add_exact(monitored[i]);
      vectors.map_address(monitored[i], static_cast<std::uint32_t>(i));
    }
  }

  std::vector<workloads::TraceStep> steps(kChunk);
  std::vector<std::uint8_t> bytes;
  std::vector<trace::DecodedBranch> decoded;
  std::size_t since_sync = 0;
  bool synced = false;
  igm::InputVector vec;
  while (c.branches < branches) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kChunk, branches - c.branches));

    auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      steps[i] = gen.next();
      steps[i].event.seq = c.branches + i;
    }
    c.gen_s += seconds_since(t0);

    bytes.clear();
    t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const cpu::BranchEvent& ev = steps[i].event;
      if (!synced || since_sync >= kSyncIntervalBytes) {
        const std::size_t before = bytes.size();
        encoder->emit_sync(ev.source, ev.context_id, bytes);
        since_sync = bytes.size() - before;
        synced = true;
      }
      const std::size_t before = bytes.size();
      encoder->encode(ev, bytes);
      since_sync += bytes.size() - before;
    }
    c.encode_s += seconds_since(t0);

    decoded.clear();
    t0 = Clock::now();
    for (const std::uint8_t b : bytes) {
      if (auto d = decoder->feed(trace::TraceByte{b, 0, 0, false})) {
        decoded.push_back(*d);
      }
    }
    c.decode_s += seconds_since(t0);

    t0 = Clock::now();
    for (const trace::DecodedBranch& d : decoded) {
      const bool pass = mapper.passes(d);
      mapper.note(pass);
      if (pass && vectors.encode(d, vec) &&
          c.vectors.size() < kProbeVectors) {
        c.vectors.push_back(vec.payload);
      }
    }
    c.igm_s += seconds_since(t0);

    c.branches += n;
    c.bytes += bytes.size();
    c.decoded += decoded.size();
  }
  c.accepted = mapper.accepted();
  return c;
}

GpuCosts probe_gpu(const ml::ModelImage& image, core::EngineKind engine,
                   const std::vector<std::vector<std::uint32_t>>& payloads,
                   std::size_t inferences) {
  gpgpu::GpuConfig cfg;
  cfg.num_cus = engine == core::EngineKind::kMlMiaow ? 5 : 1;
  cfg.backend = gpgpu::default_gpu_backend();
  gpgpu::Gpu gpu(cfg);
  ml::load_image(gpu, image);
  std::vector<std::uint32_t> payload(image.input_words, 1);
  const auto fill = [&](std::size_t i) {
    if (payloads.empty()) return;
    const auto& p = payloads[i % payloads.size()];
    std::copy_n(p.begin(), std::min(p.size(), payload.size()),
                payload.begin());
  };
  fill(0);
  ml::run_inference_offline(gpu, image, payload);  // warm decode caches
  const std::uint64_t launches0 = gpu.fast_launches();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < inferences; ++i) {
    fill(i + 1);
    ml::run_inference_offline(gpu, image, payload);
  }
  GpuCosts g;
  g.inference_us = seconds_since(t0) * 1e6 / static_cast<double>(inferences);
  g.fast_launches = gpu.fast_launches() - launches0;
  return g;
}

core::DetectionResult run_one_shot(const workloads::SpecProfile& profile,
                                   const core::TrainedModels& models,
                                   core::ModelKind model,
                                   core::EngineKind engine,
                                   const core::DetectionOptions& options,
                                   double* wall_s) {
  core::DetectionSession session(profile, models, model, engine, options);
  const auto t0 = Clock::now();
  session.run_to_completion();
  if (wall_s != nullptr) *wall_s = seconds_since(t0);
  return session.result();
}

SessionCosts trace_session(const workloads::SpecProfile& profile,
                           const core::TrainedModels& models,
                           core::ModelKind model, core::EngineKind engine,
                           const core::DetectionOptions& options,
                           sim::Picoseconds quantum_ps,
                           std::uint64_t checkpoint_every) {
  SessionCosts c;
  std::vector<core::SessionCheckpoint> checkpoints;
  const auto wall0 = Clock::now();
  {
    core::DetectionSession session(profile, models, model, engine, options);
    std::uint64_t quanta = 0;
    for (bool more = true; more;) {
      auto t0 = Clock::now();
      more = session.advance(quantum_ps);
      const double dt = seconds_since(t0);
      c.advance_us.push_back(dt * 1e6);
      c.session_s += dt;
      if (more && ++quanta % checkpoint_every == 0) {
        t0 = Clock::now();
        checkpoints.push_back(session.checkpoint());
        c.checkpoint_us.push_back(seconds_since(t0) * 1e6);
      }
    }
    c.result = session.result();
  }
  c.wall_s = seconds_since(wall0);
  if (!checkpoints.empty()) {
    const auto t0 = Clock::now();
    const auto restored = core::DetectionSession::restore(
        checkpoints[checkpoints.size() / 2], profile, models);
    c.restore_ms = seconds_since(t0) * 1e3;
  }
  return c;
}

TrainingCosts train_traced(const workloads::SpecProfile& profile,
                           const core::TrainingOptions& options) {
  TrainingCosts c;
  auto t0 = Clock::now();
  c.models.features =
      std::make_unique<ml::DatasetBuilder>(profile, options.seed);
  c.dataset_s = seconds_since(t0);
  t0 = Clock::now();
  core::train_model_side(c.models, core::ModelKind::kLstm, options);
  c.lstm_s = seconds_since(t0);
  t0 = Clock::now();
  core::train_model_side(c.models, core::ModelKind::kElm, options);
  c.elm_s = seconds_since(t0);
  return c;
}

void add_pipeline_layers(Result& r, const TrainingCosts& training,
                         const StreamCosts& stream, const GpuCosts& gpu,
                         const SessionCosts& session,
                         const core::DetectionResult& untraced) {
  const auto per = [](double s, std::uint64_t n) {
    return n == 0 ? 0.0 : s * 1e9 / static_cast<double>(n);
  };
  const double gen_ns = per(stream.gen_s, stream.branches);
  const double encode_ns = per(stream.encode_s, stream.branches);
  const double decode_ns = per(stream.decode_s, stream.bytes);
  const double igm_ns = per(stream.igm_s, stream.decoded);

  r.metric("workloads.gen_ns_per_branch", gen_ns, "ns");
  r.metric("ml.dataset_s", training.dataset_s, "s");
  r.metric("ml.train_lstm_s", training.lstm_s, "s");
  r.metric("ml.train_elm_s", training.elm_s, "s");
  r.metric("trace.encode_ns_per_branch", encode_ns, "ns");
  r.metric("trace.decode_ns_per_byte", decode_ns, "ns");
  r.metric("trace.bytes_per_branch",
           stream.branches == 0 ? 0.0
                                : static_cast<double>(stream.bytes) /
                                      static_cast<double>(stream.branches),
           "B/branch");
  r.metric("igm.vector_ns_per_branch", igm_ns, "ns");
  r.metric("igm.accept_ratio",
           stream.decoded == 0 ? 0.0
                               : static_cast<double>(stream.accepted) /
                                     static_cast<double>(stream.decoded),
           "ratio");
  r.metric("igm.busy_cycles", static_cast<double>(untraced.igm_busy_cycles),
           "cycles");
  r.metric("gpgpu.inference_us", gpu.inference_us, "us");
  r.metric("gpgpu.fast_launches", static_cast<double>(gpu.fast_launches),
           "count");
  r.metric("mcm.inferences", static_cast<double>(untraced.inferences),
           "count");
  r.metric("mcm.fifo_drops", static_cast<double>(untraced.fifo_drops),
           "count");
  r.metric("sim.skipped_edge_groups",
           static_cast<double>(untraced.skipped_edge_groups), "count");
  r.metric("sim.skipped_cycles", static_cast<double>(untraced.skipped_cycles),
           "count");

  // What the isolated layers would cost at the session's own volumes; the
  // rest of the session's wall is simulator dispatch, the host CPU model,
  // TraceSource and the remaining tick loop.
  const core::DetectionResult& s = session.result;
  const double isolated_ms =
      (gen_ns * static_cast<double>(s.trace_events_traced) +
       encode_ns * static_cast<double>(s.trace_events_traced) +
       decode_ns * static_cast<double>(s.decode_bytes_consumed) +
       igm_ns * static_cast<double>(s.decode_branches)) *
          1e-6 +
      gpu.inference_us * static_cast<double>(s.inferences) * 1e-3;
  const double session_ms = session.session_s * 1e3;
  r.metric("core.session_ms", session_ms, "ms");
  r.metric("core.advance_us_p50", percentile(session.advance_us, 50), "us");
  r.metric("core.advance_us_p90", percentile(session.advance_us, 90), "us");
  r.metric("core.unattributed_share",
           session_ms > 0.0 ? 1.0 - isolated_ms / session_ms : 0.0, "ratio");
  r.metric("core.checkpoint_us", median(session.checkpoint_us), "us");
  r.metric("core.restore_ms", session.restore_ms, "ms");
  r.note("core.advance_samples",
         static_cast<double>(session.advance_us.size()), "count");
  r.note("core.checkpoint_samples",
         static_cast<double>(session.checkpoint_us.size()), "count");
}

}  // namespace perfbench
