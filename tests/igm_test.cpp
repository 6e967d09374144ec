// IGM tests: trace analyzer throughput, P2S, address mapper, vector
// encoder, and the assembled pipeline's 2-cycle latency property.
#include <gtest/gtest.h>

#include "rtad/coresight/tpiu.hpp"
#include "rtad/igm/igm.hpp"
#include "rtad/sim/rng.hpp"
#include "rtad/trace/pft.hpp"

namespace rtad::igm {
namespace {

using coresight::TpiuWord;
using trace::PftEncoder;
using trace::TraceByte;

// Helper: bytes -> TPIU words.
std::vector<TpiuWord> to_words(const std::vector<std::uint8_t>& bytes,
                               bool injected = false) {
  std::vector<TpiuWord> words;
  TpiuWord w;
  std::uint64_t seq = 0;
  for (const auto b : bytes) {
    w.bytes[w.count] = TraceByte{b, 1000, seq++, injected};
    ++w.count;
    if (w.count == 4) {
      words.push_back(w);
      w = TpiuWord{};
    }
  }
  if (w.count > 0) words.push_back(w);
  return words;
}

std::vector<std::uint8_t> encoded_stream(std::size_t n_branches,
                                         std::uint64_t seed = 7) {
  sim::Xoshiro256 rng(seed);
  PftEncoder enc;
  std::vector<std::uint8_t> bytes;
  enc.emit_sync(0, 1, bytes);
  for (std::size_t i = 0; i < n_branches; ++i) {
    cpu::BranchEvent ev;
    ev.kind = cpu::BranchKind::kCall;
    ev.taken = true;
    ev.target = (rng.next() & 0x000F'FFFE) + 0x10000;
    enc.encode(ev, bytes);
  }
  return bytes;
}

TEST(TraceAnalyzer, DecodesWholeStream) {
  sim::Fifo<TpiuWord> port(4096);
  for (const auto& w : to_words(encoded_stream(200))) port.push(w);
  TraceAnalyzer ta(port, 4, 4096);
  for (int i = 0; i < 4096; ++i) ta.tick();
  EXPECT_EQ(ta.decoder().branches_decoded(), 200u);
  EXPECT_EQ(ta.out().size(), 200u);
}

TEST(TraceAnalyzer, WidthBoundsThroughput) {
  // 1 TA unit processes <= 1 byte/cycle; 4 TA units <= 4 bytes/cycle.
  const auto bytes = encoded_stream(300);
  for (const std::uint32_t width : {1u, 2u, 4u}) {
    sim::Fifo<TpiuWord> port(4096);
    for (const auto& w : to_words(bytes)) port.push(w);
    TraceAnalyzer ta(port, width, 1u << 20);
    std::uint64_t cycles = 0;
    while (ta.decoder().branches_decoded() < 300 && cycles < 1u << 20) {
      ta.tick();
      ++cycles;
    }
    EXPECT_GE(cycles + 4, bytes.size() / width) << "width " << width;
    EXPECT_LE(cycles, bytes.size() / width + 8) << "width " << width;
  }
}

TEST(TraceAnalyzer, BackpressureStallsWithoutLoss) {
  sim::Fifo<TpiuWord> port(4096);
  for (const auto& w : to_words(encoded_stream(100))) port.push(w);
  TraceAnalyzer ta(port, 4, 1);  // tiny output FIFO
  std::uint64_t decoded = 0;
  for (int i = 0; i < 100'000 && decoded < 100; ++i) {
    ta.tick();
    while (auto b = ta.out().pop()) ++decoded;
  }
  EXPECT_EQ(decoded, 100u);
  EXPECT_GT(ta.stall_cycles(), 0u);
}

TEST(TraceAnalyzer, RejectsBadWidth) {
  sim::Fifo<TpiuWord> port(4);
  EXPECT_THROW(TraceAnalyzer(port, 0), std::invalid_argument);
  EXPECT_THROW(TraceAnalyzer(port, 5), std::invalid_argument);
}

TEST(P2s, SerializesOnePerCycle) {
  sim::Fifo<TpiuWord> port(16);
  TraceAnalyzer ta(port, 4);
  P2s p2s(ta.out());
  // Manually fill the TA output with a burst of 4 decoded addresses.
  for (int i = 0; i < 4; ++i) {
    ta.out().push(DecodedBranch{0x1000u + 2u * static_cast<unsigned>(i),
                                false, 0, static_cast<std::uint64_t>(i),
                                false});
  }
  int received = 0;
  for (int cycle = 0; cycle < 4; ++cycle) {
    p2s.tick();
    EXPECT_LE(p2s.out().size(), static_cast<std::size_t>(cycle + 1));
  }
  while (p2s.out().pop()) ++received;
  EXPECT_EQ(received, 4);
}

TEST(AddressMapper, PassAllByDefault) {
  AddressMapper m;
  EXPECT_TRUE(m.passes(DecodedBranch{0x1234, false, 0, 0, false}));
}

TEST(AddressMapper, ExactEntriesFilter) {
  AddressMapper m;
  m.clear();
  m.add_exact(0x2000);
  EXPECT_TRUE(m.passes(DecodedBranch{0x2000, false, 0, 0, false}));
  EXPECT_FALSE(m.passes(DecodedBranch{0x2002, false, 0, 0, false}));
}

TEST(AddressMapper, RangesFilter) {
  AddressMapper m;
  m.clear();
  m.add_range(0xC000'0000, 0x1000);
  EXPECT_TRUE(m.passes(DecodedBranch{0xC000'0040, true, 0, 0, false}));
  EXPECT_FALSE(m.passes(DecodedBranch{0xC000'1000, true, 0, 0, false}));
  EXPECT_FALSE(m.passes(DecodedBranch{0xBFFF'FFFC, true, 0, 0, false}));
}

TEST(AddressMapper, CountsAcceptedAndFiltered) {
  AddressMapper m;
  m.clear();
  m.add_exact(0x10);
  m.note(m.passes(DecodedBranch{0x10, false, 0, 0, false}));
  m.note(m.passes(DecodedBranch{0x20, false, 0, 0, false}));
  EXPECT_EQ(m.accepted(), 1u);
  EXPECT_EQ(m.filtered(), 1u);
}

TEST(VectorEncoder, TokenStreamUsesTable) {
  VectorEncoderConfig cfg;
  cfg.encoding = Encoding::kTokenStream;
  cfg.vocab_size = 16;
  cfg.hash_fallback = false;
  VectorEncoder enc(cfg);
  enc.map_address(0x4000, 7);
  InputVector out;
  ASSERT_TRUE(enc.encode(DecodedBranch{0x4000, false, 99, 5, true}, out));
  ASSERT_EQ(out.payload.size(), 1u);
  EXPECT_EQ(out.payload[0], 7u);
  EXPECT_EQ(out.origin_ps, 99u);
  EXPECT_EQ(out.event_seq, 5u);
  EXPECT_TRUE(out.injected);
}

TEST(VectorEncoder, UnknownAddressGoesToReservedBucketWithoutHash) {
  VectorEncoderConfig cfg;
  cfg.encoding = Encoding::kTokenStream;
  cfg.vocab_size = 16;
  cfg.hash_fallback = false;
  VectorEncoder enc(cfg);
  InputVector out;
  enc.encode(DecodedBranch{0xAAAA, false, 0, 0, false}, out);
  EXPECT_EQ(out.payload[0], 15u);
}

TEST(VectorEncoder, HashFallbackIsStable) {
  const auto b1 = VectorEncoder::hash_bucket(0xC000'0040, 32);
  const auto b2 = VectorEncoder::hash_bucket(0xC000'0040, 32);
  EXPECT_EQ(b1, b2);
  EXPECT_LT(b1, 32u);
}

TEST(VectorEncoder, HistogramSlidesAndCounts) {
  VectorEncoderConfig cfg;
  cfg.encoding = Encoding::kSlidingHistogram;
  cfg.vocab_size = 4;
  cfg.window = 3;
  cfg.hash_fallback = false;
  VectorEncoder enc(cfg);
  enc.map_address(0x10, 0);
  enc.map_address(0x20, 1);
  InputVector out;
  enc.encode(DecodedBranch{0x10, true, 0, 0, false}, out);
  enc.encode(DecodedBranch{0x10, true, 0, 1, false}, out);
  enc.encode(DecodedBranch{0x20, true, 0, 2, false}, out);
  EXPECT_EQ(out.payload[0], 2u);
  EXPECT_EQ(out.payload[1], 1u);
  // Fourth event slides the first 0x10 out of the window.
  enc.encode(DecodedBranch{0x20, true, 0, 3, false}, out);
  EXPECT_EQ(out.payload[0], 1u);
  EXPECT_EQ(out.payload[1], 2u);
}

TEST(VectorEncoder, InjectionTaintPersistsForOneWindow) {
  VectorEncoderConfig cfg;
  cfg.encoding = Encoding::kSlidingHistogram;
  cfg.vocab_size = 4;
  cfg.window = 3;
  VectorEncoder enc(cfg);
  InputVector out;
  enc.encode(DecodedBranch{0x10, true, 0, 0, true}, out);
  EXPECT_TRUE(out.injected);
  enc.encode(DecodedBranch{0x10, true, 0, 1, false}, out);
  EXPECT_TRUE(out.injected);  // still inside the tainted window
  enc.encode(DecodedBranch{0x10, true, 0, 2, false}, out);
  enc.encode(DecodedBranch{0x10, true, 0, 3, false}, out);
  EXPECT_FALSE(out.injected);  // taint expired
}

TEST(VectorEncoder, ValidatesConfig) {
  VectorEncoderConfig cfg;
  cfg.vocab_size = 0;
  EXPECT_THROW(VectorEncoder{cfg}, std::invalid_argument);
  VectorEncoderConfig cfg2;
  cfg2.encoding = Encoding::kSlidingHistogram;
  cfg2.window = 0;
  EXPECT_THROW(VectorEncoder{cfg2}, std::invalid_argument);
  VectorEncoderConfig cfg3;
  cfg3.vocab_size = 4;
  VectorEncoder enc(cfg3);
  EXPECT_THROW(enc.map_address(0x10, 4), std::invalid_argument);
}

TEST(Igm, EndToEndPipelineDecodesAndEncodes) {
  sim::Fifo<TpiuWord> port(4096);
  for (const auto& w : to_words(encoded_stream(150))) port.push(w);
  IgmConfig cfg;
  cfg.encoder.encoding = Encoding::kTokenStream;
  cfg.encoder.vocab_size = 64;
  cfg.encoder.hash_fallback = true;
  cfg.out_capacity = 1024;
  Igm igm(cfg, port);
  std::uint64_t got = 0;
  for (int i = 0; i < 20'000 && got < 150; ++i) {
    igm.tick();
    while (igm.out().pop()) ++got;
  }
  EXPECT_EQ(got, 150u);
}

TEST(Igm, PipelineLatencyIsTwoCyclesAfterDecode) {
  // Feed exactly one branch-address packet and count IGM cycles from the
  // tick that consumes the TPIU word to the tick that emits the vector.
  PftEncoder enc;
  std::vector<std::uint8_t> bytes;
  enc.emit_sync(0, 1, bytes);
  const std::size_t sync_len = bytes.size();
  cpu::BranchEvent ev;
  ev.kind = cpu::BranchKind::kCall;
  ev.taken = true;
  ev.target = 0x0001'0040;
  enc.encode(ev, bytes);

  sim::Fifo<TpiuWord> port(64);
  for (const auto& w : to_words(bytes)) port.push(w);
  IgmConfig cfg;
  cfg.encoder.vocab_size = 64;
  Igm igm(cfg, port);

  // Sync bytes (13) + packet decode at 4 bytes/cycle.
  const std::size_t decode_cycles = (sync_len + 4 + 3) / 4;
  for (std::size_t i = 0; i < decode_cycles; ++i) igm.tick();
  EXPECT_TRUE(igm.out().empty());
  igm.tick();  // P2S stage
  igm.tick();  // IVG stage
  // Allow one extra cycle of skew from packet/byte alignment.
  if (igm.out().empty()) igm.tick();
  EXPECT_FALSE(igm.out().empty());
}

TEST(Igm, FiltersThroughMapper) {
  sim::Fifo<TpiuWord> port(4096);
  for (const auto& w : to_words(encoded_stream(100))) port.push(w);
  IgmConfig cfg;
  cfg.encoder.vocab_size = 64;
  Igm igm(cfg, port);
  igm.mapper().clear();
  igm.mapper().add_exact(0xFFFF'0000);  // matches nothing in the stream
  for (int i = 0; i < 10'000; ++i) igm.tick();
  EXPECT_EQ(igm.vectors_out(), 0u);
  EXPECT_EQ(igm.mapper().filtered(), 100u);
}

TEST(Igm, EmitObserverSeesVectors) {
  sim::Fifo<TpiuWord> port(4096);
  for (const auto& w : to_words(encoded_stream(50))) port.push(w);
  IgmConfig cfg;
  cfg.encoder.vocab_size = 64;
  cfg.out_capacity = 1024;
  Igm igm(cfg, port);
  std::size_t seen = 0;
  sim::Picoseconds last_emit = 0;
  igm.set_emit_observer([&](const InputVector&, sim::Picoseconds t) {
    ++seen;
    last_emit = t;
  });
  for (int i = 0; i < 10'000; ++i) igm.tick();
  EXPECT_EQ(seen, 50u);
  EXPECT_GT(last_emit, 0u);
}

}  // namespace
}  // namespace rtad::igm
