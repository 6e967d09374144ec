// Exhaustive interpreter-semantics tests: every opcode family is exercised
// with known operands and checked against reference results, including the
// graphics-legacy pipes that exist only as trim candidates.
//
// The second half is a seeded differential fuzzer between the two kernel
// execution backends: randomized straight-line and branchy programs run on
// both the cycle-level oracle and the fast-path interpreter, and the final
// architectural state (device memory, access counters, instruction count,
// launch cycles) must match bit-for-bit. Seeds are fixed, so the corpus is
// deterministic and a failing seed reproduces exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "rtad/gpgpu/assembler.hpp"
#include "rtad/gpgpu/gpu.hpp"

namespace rtad::gpgpu {
namespace {

constexpr std::uint32_t kOut = 4096;

/// Run a fragment with a store-from-lane0 epilogue appended: the fragment
/// must leave its result in v10 (bits) for lane 0.
std::uint32_t run_lane0(const std::string& fragment) {
  const std::string src = fragment + R"(
  v_cmp_lt_i32 vcc, v0, 1
  s_and_b64 exec, exec, vcc
  s_mov_b32 s20, 4096
  v_mov_b32 v11, 0
  global_store_dword v10, v11, s20
  s_endpgm
)";
  const auto prog = assemble(src);
  GpuConfig cfg;
  Gpu gpu(cfg);
  LaunchConfig launch;
  launch.program = &prog;
  gpu.launch(launch);
  gpu.run_to_completion();
  return gpu.memory().read32(kOut);
}

float as_f(std::uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, 4);
  return f;
}

TEST(ScalarOps, LogicalAndShifts) {
  EXPECT_EQ(run_lane0(R"(
  s_mov_b32 s4, 0xF0F0
  s_mov_b32 s5, 0x0FF0
  s_and_b32 s6, s4, s5
  v_mov_b32 v10, s6
)"), 0x0FF0u & 0xF0F0u);
  EXPECT_EQ(run_lane0(R"(
  s_mov_b32 s4, 0xF0F0
  s_or_b32 s6, s4, 0x000F
  v_mov_b32 v10, s6
)"), 0xF0FFu);
  EXPECT_EQ(run_lane0(R"(
  s_mov_b32 s4, 0xFF00
  s_xor_b32 s6, s4, 0x0F00
  v_mov_b32 v10, s6
)"), 0xF000u);
  EXPECT_EQ(run_lane0(R"(
  s_mov_b32 s4, 0x80000000
  s_lshr_b32 s6, s4, 4
  v_mov_b32 v10, s6
)"), 0x08000000u);
  EXPECT_EQ(run_lane0(R"(
  s_mov_b32 s4, 0x80000000
  s_ashr_i32 s6, s4, 4
  v_mov_b32 v10, s6
)"), 0xF8000000u);
  EXPECT_EQ(run_lane0(R"(
  s_mov_b32 s4, 0x0000FFFF
  s_not_b32 s6, s4
  v_mov_b32 v10, s6
)"), 0xFFFF0000u);
}

TEST(ScalarOps, MinMax) {
  EXPECT_EQ(run_lane0(R"(
  s_mov_b32 s4, -5
  s_mov_b32 s5, 3
  s_min_i32 s6, s4, s5
  v_mov_b32 v10, s6
)"), static_cast<std::uint32_t>(-5));
  EXPECT_EQ(run_lane0(R"(
  s_mov_b32 s4, -5
  s_mov_b32 s5, 3
  s_max_i32 s6, s4, s5
  v_mov_b32 v10, s6
)"), 3u);
}

TEST(ScalarOps, MovkSignExtends) {
  EXPECT_EQ(run_lane0(R"(
  s_movk_i32 s4, -2
  v_mov_b32 v10, s4
)"), 0xFFFFFFFEu);
}

TEST(ScalarOps, CompareVariants) {
  // Each compare drives a conditional branch; result 1 = taken.
  const char* templates[] = {
      "s_cmp_eq_i32 s4, 7",  "s_cmp_lg_i32 s4, 3",  "s_cmp_gt_i32 s4, 3",
      "s_cmp_ge_i32 s4, 7",  "s_cmp_lt_i32 s4, 9",  "s_cmp_le_i32 s4, 7",
  };
  for (const char* cmp : templates) {
    const std::string src = std::string(R"(
  s_mov_b32 s4, 7
  )") + cmp + R"(
  s_cbranch_scc1 yes
  v_mov_b32 v10, 0
  s_branch end
yes:
  v_mov_b32 v10, 1
end:
)";
    EXPECT_EQ(run_lane0(src), 1u) << cmp;
  }
}

TEST(Scalar64, ExecManipulation) {
  // Save, narrow, restore EXEC through SGPR pairs and 64-bit logic.
  EXPECT_EQ(run_lane0(R"(
  s_mov_b64 s8, exec
  s_not_b64 s10, s8
  s_or_b64 s12, s8, s10
  s_andn2_b64 s14, s12, s10
  s_mov_b64 exec, s14
  v_mov_b32 v10, 77
)"), 77u);
}

TEST(VectorOps, IntArithmetic) {
  EXPECT_EQ(run_lane0(R"(
  v_mov_b32 v4, 100
  v_sub_i32 v5, v4, 58
  v_mov_b32 v10, v5
)"), 42u);
  EXPECT_EQ(run_lane0(R"(
  v_mov_b32 v4, 0x10001
  v_mul_lo_i32 v5, v4, v4
  v_mov_b32 v10, v5
)"), 0x10001u * 0x10001u);
  EXPECT_EQ(run_lane0(R"(
  v_mov_b32 v4, 0x80000000
  v_mul_hi_u32 v5, v4, 4
  v_mov_b32 v10, v5
)"), 2u);
  EXPECT_EQ(run_lane0(R"(
  v_mov_b32 v4, 0xF0
  v_lshrrev_b32 v5, 4, v4
  v_mov_b32 v10, v5
)"), 0xFu);
  EXPECT_EQ(run_lane0(R"(
  v_mov_b32 v4, 0x80000000
  v_ashrrev_i32 v5, 8, v4
  v_mov_b32 v10, v5
)"), 0xFF800000u);
  EXPECT_EQ(run_lane0(R"(
  v_mov_b32 v4, 0xAA
  v_xor_b32 v5, v4, 0xFF
  v_or_b32 v5, v5, 0x100
  v_and_b32 v5, v5, 0x1FF
  v_mov_b32 v10, v5
)"), 0x155u);
  EXPECT_EQ(run_lane0(R"(
  v_mov_b32 v4, -9
  v_max_i32 v5, v4, 2
  v_min_i32 v6, v5, 1
  v_mov_b32 v10, v6
)"), 1u);
  EXPECT_EQ(run_lane0(R"(
  v_mov_b32 v4, 0x0F
  v_not_b32 v10, v4
)"), 0xFFFFFFF0u);
}

TEST(VectorOps, FloatReference) {
  EXPECT_FLOAT_EQ(as_f(run_lane0(R"(
  v_mov_b32 v4, 2.5
  v_mov_b32 v5, 4.0
  v_mad_f32 v10, v4, v5, 1.5
)")), 11.5f);
  EXPECT_FLOAT_EQ(as_f(run_lane0(R"(
  v_mov_b32 v4, 2.5
  v_fma_f32 v10, v4, v4, 0.75
)")), std::fma(2.5f, 2.5f, 0.75f));
  EXPECT_FLOAT_EQ(as_f(run_lane0(R"(
  v_mov_b32 v4, -3.75
  v_floor_f32 v10, v4
)")), -4.0f);
  EXPECT_FLOAT_EQ(as_f(run_lane0(R"(
  v_mov_b32 v4, 3.75
  v_fract_f32 v10, v4
)")), 0.75f);
  EXPECT_FLOAT_EQ(as_f(run_lane0(R"(
  v_mov_b32 v4, 2.25
  v_min_f32 v5, v4, 9.0
  v_max_f32 v10, v5, 1.0
)")), 2.25f);
}

TEST(VectorOps, Transcendentals) {
  EXPECT_NEAR(as_f(run_lane0(R"(
  v_mov_b32 v4, 3.0
  v_exp_f32 v10, v4
)")), 8.0f, 1e-5);
  EXPECT_NEAR(as_f(run_lane0(R"(
  v_mov_b32 v4, 32.0
  v_log_f32 v10, v4
)")), 5.0f, 1e-5);
  EXPECT_NEAR(as_f(run_lane0(R"(
  v_mov_b32 v4, 16.0
  v_rsq_f32 v10, v4
)")), 0.25f, 1e-5);
  EXPECT_NEAR(as_f(run_lane0(R"(
  v_mov_b32 v4, 2.0
  v_sqrt_f32 v10, v4
)")), std::sqrt(2.0f), 1e-5);
  EXPECT_NEAR(as_f(run_lane0(R"(
  v_mov_b32 v4, 1.0471975512
  v_sin_f32 v10, v4
)")), std::sin(1.0471975512f), 1e-5);
  EXPECT_NEAR(as_f(run_lane0(R"(
  v_mov_b32 v4, 1.0471975512
  v_cos_f32 v10, v4
)")), std::cos(1.0471975512f), 1e-5);
}

TEST(VectorOps, Conversions) {
  EXPECT_FLOAT_EQ(as_f(run_lane0(R"(
  v_mov_b32 v4, -7
  v_cvt_f32_i32 v10, v4
)")), -7.0f);
  EXPECT_EQ(run_lane0(R"(
  v_mov_b32 v4, -2.9
  v_cvt_i32_f32 v10, v4
)"), static_cast<std::uint32_t>(-2));
  EXPECT_EQ(run_lane0(R"(
  v_mov_b32 v4, 3.99
  v_cvt_u32_f32 v10, v4
)"), 3u);
  EXPECT_EQ(run_lane0(R"(
  v_mov_b32 v4, -1.0
  v_cvt_u32_f32 v10, v4
)"), 0u);  // clamps at zero
}

TEST(VectorCmp, FloatPredicates) {
  const struct {
    const char* op;
    float a, b;
    bool expect;
  } cases[] = {
      {"v_cmp_eq_f32", 2.0f, 2.0f, true},
      {"v_cmp_neq_f32", 2.0f, 2.0f, false},
      {"v_cmp_lt_f32", 1.0f, 2.0f, true},
      {"v_cmp_le_f32", 2.0f, 2.0f, true},
      {"v_cmp_gt_f32", 1.0f, 2.0f, false},
      {"v_cmp_ge_f32", 3.0f, 2.0f, true},
  };
  for (const auto& c : cases) {
    const std::string src = "  v_mov_b32 v4, " + std::to_string(c.a) +
                            "\n  v_mov_b32 v5, " + std::to_string(c.b) +
                            "\n  " + c.op + R"( vcc, v4, v5
  v_cndmask_b32 v10, 0, 1
)";
    EXPECT_EQ(run_lane0(src), c.expect ? 1u : 0u) << c.op;
  }
}

TEST(VectorCmp, IntPredicatesAndVccBranches) {
  EXPECT_EQ(run_lane0(R"(
  v_cmp_ne_i32 vcc, v0, v0
  s_cbranch_vccz empty
  v_mov_b32 v10, 0
  s_branch end
empty:
  v_mov_b32 v10, 1
end:
)"), 1u);
  EXPECT_EQ(run_lane0(R"(
  v_cmp_eq_i32 vcc, v0, v0
  s_cbranch_vccnz full
  v_mov_b32 v10, 0
  s_branch end
full:
  v_mov_b32 v10, 1
end:
)"), 1u);
  EXPECT_EQ(run_lane0(R"(
  v_cmp_gt_i32 vcc, v0, 200
  s_cbranch_vccz none_gt
  v_mov_b32 v10, 0
  s_branch end
none_gt:
  v_mov_b32 v10, 1
end:
)"), 1u);
}

TEST(ControlFlow, ExeczBranchSkipsDeadRegion) {
  EXPECT_EQ(run_lane0(R"(
  s_mov_b64 s8, exec
  v_cmp_gt_i32 vcc, v0, 999
  s_and_b64 exec, exec, vcc
  s_cbranch_execz dead
  v_mov_b32 v10, 0
  s_branch end
dead:
  s_mov_b64 exec, s8
  v_mov_b32 v10, 42
end:
)"), 42u);
}

TEST(Memory, ScalarLoadX2X4) {
  const auto prog = assemble(R"(
  s_mov_b32 s4, 512
  s_load_dwordx2 s8, s4, 0
  s_load_dwordx4 s12, s4, 8
  s_waitcnt 0
  s_add_i32 s16, s8, s9
  s_add_i32 s16, s16, s12
  s_add_i32 s16, s16, s13
  s_add_i32 s16, s16, s14
  s_add_i32 s16, s16, s15
  v_cmp_lt_i32 vcc, v0, 1
  s_and_b64 exec, exec, vcc
  s_mov_b32 s20, 4096
  v_mov_b32 v10, s16
  v_mov_b32 v11, 0
  global_store_dword v10, v11, s20
  s_endpgm
)");
  GpuConfig cfg;
  Gpu gpu(cfg);
  for (std::uint32_t i = 0; i < 6; ++i) gpu.memory().write32(512 + 4 * i, i + 1);
  LaunchConfig launch;
  launch.program = &prog;
  gpu.launch(launch);
  gpu.run_to_completion();
  EXPECT_EQ(gpu.memory().read32(kOut), 21u);  // 1+2+3+4+5+6
}

TEST(Memory, GlobalLoadWithOffset) {
  const auto prog = assemble(R"(
  s_mov_b32 s4, 512
  v_mov_b32 v2, 0
  global_load_dword v3, v2, s4, 8
  s_waitcnt 0
  v_cmp_lt_i32 vcc, v0, 1
  s_and_b64 exec, exec, vcc
  s_mov_b32 s20, 4096
  v_mov_b32 v11, 0
  global_store_dword v3, v11, s20
  s_endpgm
)");
  GpuConfig cfg;
  Gpu gpu(cfg);
  gpu.memory().write32(520, 0xABCD);
  LaunchConfig launch;
  launch.program = &prog;
  gpu.launch(launch);
  gpu.run_to_completion();
  EXPECT_EQ(gpu.memory().read32(kOut), 0xABCDu);
}

TEST(Lds, AtomicAddAccumulatesAcrossLanes) {
  // All lanes ds_add 1 into slot 0; lane 0 publishes the total.
  const auto prog = assemble(R"(
.lds 64
  v_mov_b32 v2, 0
  v_mov_b32 v3, 1
  ds_write_b32 v2, v2
  s_barrier
  ds_add_u32 v3, v2
  s_barrier
  v_cmp_lt_i32 vcc, v0, 1
  s_and_b64 exec, exec, vcc
  ds_read_b32 v10, v2
  s_mov_b32 s20, 4096
  v_mov_b32 v11, 0
  global_store_dword v10, v11, s20
  s_endpgm
)");
  GpuConfig cfg;
  Gpu gpu(cfg);
  LaunchConfig launch;
  launch.program = &prog;
  gpu.launch(launch);
  gpu.run_to_completion();
  EXPECT_EQ(gpu.memory().read32(kOut), 64u);
}

TEST(GraphicsLegacy, ImageSampleFetchesTexels) {
  const auto prog = assemble(R"(
  s_mov_b32 s4, 0x300
  v_mov_b32 v2, s4
  s_mov_b32 s5, 0
  v_mov_b32 v3, v0
  v_cndmask_b32 v4, v3, v3
  s_mov_b32 s6, 0x300
  v_mov_b32 v5, v0
  s_nop 0
  s_endpgm
)");
  // Direct wavefront-level test of image ops (M0-based).
  Wavefront wave(16);
  DeviceMemory mem(1 << 16);
  for (std::uint32_t i = 0; i < 64; ++i) mem.write32(0x300 + 4 * i, i * 3);
  std::vector<std::uint32_t> lds;
  ExecContext ctx{&mem, &lds};
  wave.set_m0(0x300);
  for (std::uint32_t lane = 0; lane < 64; ++lane) wave.set_vgpr(2, lane, lane);
  Instruction img;
  img.op = Opcode::IMAGE_SAMPLE;
  img.dst = Operand::vgpr(3);
  img.src0 = Operand::vgpr(2);
  wave.execute(img, ctx);
  EXPECT_EQ(wave.vgpr(3, 10), 30u);
  (void)prog;
}

TEST(GraphicsLegacy, InterpAndExport) {
  Wavefront wave(16);
  DeviceMemory mem(1 << 16);
  std::vector<std::uint32_t> lds;
  ExecContext ctx{&mem, &lds};
  for (std::uint32_t lane = 0; lane < 64; ++lane) {
    wave.set_vgpr_f(2, lane, 8.0f);
  }
  Instruction p1;
  p1.op = Opcode::V_INTERP_P1_F32;
  p1.dst = Operand::vgpr(3);
  p1.src0 = Operand::vgpr(2);
  wave.execute(p1, ctx);
  Instruction p2;
  p2.op = Opcode::V_INTERP_P2_F32;
  p2.dst = Operand::vgpr(3);
  p2.src0 = Operand::vgpr(2);
  wave.execute(p2, ctx);
  EXPECT_FLOAT_EQ(wave.vgpr_f(3, 5), 8.0f);  // 0.5*a + 0.5*a

  wave.set_m0(0x400);
  Instruction exp;
  exp.op = Opcode::EXP;
  exp.src0 = Operand::vgpr(3);
  wave.execute(exp, ctx);
  EXPECT_FLOAT_EQ(mem.read_f32(0x400 + 4 * 7), 8.0f);
}

TEST(Timing, CostsReflectPipes) {
  EXPECT_EQ(cycle_cost(Opcode::S_MOV_B32), 1u);
  EXPECT_EQ(cycle_cost(Opcode::V_ADD_F32), 4u);
  EXPECT_GT(cycle_cost(Opcode::V_EXP_F32), cycle_cost(Opcode::V_ADD_F32));
  EXPECT_GT(cycle_cost(Opcode::V_ADD_F64), cycle_cost(Opcode::V_EXP_F32));
  EXPECT_GT(cycle_cost(Opcode::GLOBAL_LOAD_DWORD),
            cycle_cost(Opcode::DS_READ_B32));
}

TEST(Wavefront, RegisterFileBoundsChecked) {
  Wavefront wave(8);
  EXPECT_THROW(wave.vgpr(8, 0), std::out_of_range);
  EXPECT_THROW(wave.set_sgpr(kNumSgprs, 0), std::out_of_range);
  EXPECT_THROW(Wavefront(0), std::invalid_argument);
  EXPECT_THROW(Wavefront(257), std::invalid_argument);
}

TEST(Wavefront, TouchTrackingForBankCoverage) {
  Wavefront wave(64);
  wave.set_vgpr(40, 3, 1);
  wave.set_sgpr(30, 2);
  EXPECT_EQ(wave.max_vgpr_touched(), 40u);
  EXPECT_EQ(wave.max_sgpr_touched(), 30u);
}

// ===========================================================================
// Differential fuzzing: cycle backend vs fast-path backend.
//
// Programs are fault-free by construction — every vector memory address is
// masked into a known-good window, LDS offsets are masked and aligned,
// branches are forward skips or literal-bounded loops, and every path ends
// in s_endpgm — so a divergence can only mean an interpreter bug, never an
// expected fault. The epilogue re-enables all lanes and dumps every live
// VGPR plus the captured EXEC/VCC/SCC state to per-lane memory slots, so
// register state that never touched memory still gets compared.
//
// Register conventions (the generator never violates these):
//   v0/v1  launch ABI (lane id, wave-global id)   v2  address scratch
//   v3..   data scratch                           s0-s3 launch ABI
//   s4-s15 data scratch    s16/s17 EXEC save      s20-s23 epilogue captures
//   s24 load/store window  s25 epilogue base      s26 temp  s30 loop counter

struct FuzzShape {
  bool branchy = false;
  /// Restrict control flow to wave-uniform (scalar-literal) conditions so
  /// multi-wave workgroups cannot diverge around a barrier.
  bool uniform_only = false;
  bool barriers = false;
  /// Concurrent workgroups on several CUs interleave differently between
  /// the backends, so body stores (which would race) are disabled there;
  /// the per-workgroup epilogue windows stay disjoint.
  bool body_stores = true;
  std::uint32_t waves = 1;
  std::uint32_t workgroups = 1;
  std::uint32_t num_cus = 1;
};

class ProgramFuzzer {
 public:
  ProgramFuzzer(std::uint32_t seed, const FuzzShape& shape)
      : rng_(seed), shape_(shape), nv_(10 + static_cast<int>(rng_() % 7)) {}

  std::string generate() {
    out_.clear();
    prologue();
    const int chunks = shape_.branchy ? 3 + pick(5) : 1;
    for (int i = 0; i < chunks; ++i) emit_chunk(i);
    epilogue();
    return out_;
  }

 private:
  int pick(int n) { return static_cast<int>(rng_() % static_cast<unsigned>(n)); }
  // Appends the index rather than prepending a literal to it: GCC 12 at -O3
  // reports a false -Wrestrict inside `"v" + std::to_string(i)`.
  static std::string reg(char file, int index) {
    std::string name(1, file);
    name += std::to_string(index);
    return name;
  }
  std::string vr() { return reg('v', 3 + pick(nv_ - 3)); }
  std::string vpair() { return reg('v', 4 + 2 * pick((nv_ - 5) / 2)); }
  std::string sr() { return reg('s', 4 + pick(12)); }
  std::string spair() { return reg('s', 4 + 2 * pick(6)); }

  std::string lit() {
    switch (pick(5)) {
      case 0: return std::to_string(pick(256));
      case 1: return std::to_string(-pick(128));
      case 2: {
        char buf[16];
        std::snprintf(buf, sizeof buf, "0x%08X", static_cast<unsigned>(rng_()));
        return buf;
      }
      case 3: {
        static const char* floats[] = {"0.5",   "-1.25",    "3.0",
                                       "100.0", "-0.03125", "1.5"};
        return floats[pick(6)];
      }
      default: return std::to_string(pick(32));
    }
  }

  /// A per-lane-readable operand: VGPR, SGPR, or literal.
  std::string vsrc() {
    const int k = pick(5);
    if (k < 3) return vr();
    if (k == 3) return sr();
    return lit();
  }
  std::string ssrc() { return pick(3) < 2 ? sr() : lit(); }

  void line(const std::string& s) { out_ += "  " + s + "\n"; }
  void label(const std::string& l) { out_ += l + ":\n"; }

  void prologue() {
    line("s_mov_b32 s24, 0x1000");
    line("s_mov_b32 s25, 0x2000");
    // Each workgroup gets a 32 KiB result window. The epilogue dumps up to
    // 23 slots of 1 KiB each (13 vgprs + 10 sgprs), so a narrower stride
    // would let workgroup N's sgpr dump alias workgroup N+1's vgpr slots
    // and the final bytes would depend on inter-workgroup store order --
    // which legitimately differs between a 2-CU cycle run and the fast
    // backend's sequential replay.
    line("s_lshl_b32 s26, s1, 15");
    line("s_add_i32 s25, s25, s26");
    for (int r = 3; r < nv_; ++r) {
      const std::string v = reg('v', r);
      switch (pick(3)) {
        case 0: line("v_mov_b32 " + v + ", " + lit()); break;
        case 1:
          line("v_mul_lo_i32 " + v + ", v1, " + std::to_string(2 * r + 1));
          break;
        default: line("v_cvt_f32_u32 " + v + ", v1"); break;
      }
    }
    for (int s = 4; s < 16; ++s) {
      line("s_mov_b32 s" + std::to_string(s) + ", " + lit());
    }
  }

  void emit_chunk(int index) {
    const std::string tag = std::to_string(index);
    const int kind = shape_.branchy ? pick(5) : 0;
    if (shape_.barriers && kind == 4) {
      line("s_barrier");
      emit_body(2 + pick(5));
      return;
    }
    switch (shape_.branchy ? kind % 4 : 0) {
      case 1: {  // literal-bounded loop (wave-uniform)
        line("s_mov_b32 s30, 0");
        label("loop" + tag);
        emit_body(2 + pick(6));
        line("s_add_i32 s30, s30, 1");
        line("s_cmp_lt_i32 s30, " + std::to_string(2 + pick(3)));
        line("s_cbranch_scc1 loop" + tag);
        break;
      }
      case 2: {  // forward skip
        if (shape_.uniform_only || pick(2) == 0) {
          line("s_cmp_lt_i32 " + sr() + ", " + std::to_string(pick(64)));
          line(std::string(pick(2) ? "s_cbranch_scc1" : "s_cbranch_scc0") +
               " skip" + tag);
        } else {
          line(std::string(pick(2) ? "v_cmp_lt_i32" : "v_cmp_gt_i32") +
               " vcc, " + vr() + ", " + vsrc());
          line(std::string(pick(2) ? "s_cbranch_vccz" : "s_cbranch_vccnz") +
               " skip" + tag);
        }
        emit_body(1 + pick(6));
        label("skip" + tag);
        break;
      }
      case 3: {  // EXEC-narrowed divergent region
        if (shape_.uniform_only) {
          emit_body(2 + pick(6));
          break;
        }
        line("s_mov_b64 s16, exec");
        line("v_cmp_lt_i32 vcc, " + vr() + ", " + vsrc());
        line("s_and_b64 exec, exec, vcc");
        if (pick(2)) line("s_cbranch_execz join" + tag);
        emit_body(1 + pick(5));
        label("join" + tag);
        line("s_mov_b64 exec, s16");
        break;
      }
      default: emit_body(3 + pick(7)); break;
    }
  }

  void emit_body(int count) {
    for (int i = 0; i < count; ++i) emit_instruction();
  }

  void emit_instruction() {
    switch (pick(12)) {
      case 0: {  // VALU unary
        static const char* ops[] = {
            "v_mov_b32",     "v_not_b32",     "v_cvt_f32_i32",
            "v_cvt_i32_f32", "v_cvt_f32_u32", "v_cvt_u32_f32",
            "v_floor_f32",   "v_fract_f32",   "v_rcp_f32",
            "v_rsq_f32",     "v_sqrt_f32",    "v_exp_f32",
            "v_log_f32",     "v_sin_f32",     "v_cos_f32"};
        line(std::string(ops[pick(15)]) + " " + vr() + ", " + vsrc());
        break;
      }
      case 1:
      case 2: {  // VALU binary
        static const char* ops[] = {
            "v_add_f32",    "v_sub_f32",    "v_mul_f32",    "v_mac_f32",
            "v_min_f32",    "v_max_f32",    "v_add_i32",    "v_sub_i32",
            "v_mul_lo_i32", "v_mul_hi_u32", "v_lshlrev_b32", "v_lshrrev_b32",
            "v_ashrrev_i32", "v_and_b32",   "v_or_b32",     "v_xor_b32",
            "v_min_i32",    "v_max_i32",    "v_cndmask_b32"};
        line(std::string(ops[pick(19)]) + " " + vr() + ", " + vsrc() + ", " +
             vsrc());
        break;
      }
      case 3: {  // VALU ternary / f64
        switch (pick(4)) {
          case 0:
            line("v_mad_f32 " + vr() + ", " + vsrc() + ", " + vsrc() + ", " +
                 vsrc());
            break;
          case 1:
            line("v_fma_f32 " + vr() + ", " + vsrc() + ", " + vsrc() + ", " +
                 vsrc());
            break;
          case 2:
            line(std::string(pick(2) ? "v_add_f64" : "v_mul_f64") + " " +
                 vpair() + ", " + vpair() + ", " + vpair());
            break;
          default:
            line("v_cvt_f64_f32 " + vpair() + ", " + vsrc());
            line("v_cvt_f32_f64 " + vr() + ", " + vpair());
            break;
        }
        break;
      }
      case 4: {  // scalar unary / mov
        switch (pick(3)) {
          case 0: line("s_mov_b32 " + sr() + ", " + ssrc()); break;
          case 1: line("s_not_b32 " + sr() + ", " + ssrc()); break;
          default:
            line("s_movk_i32 " + sr() + ", " +
                 std::to_string(pick(0x8000) - 0x4000));
            break;
        }
        break;
      }
      case 5:
      case 6: {  // scalar binary
        static const char* ops[] = {"s_add_i32",  "s_sub_i32", "s_mul_i32",
                                    "s_and_b32",  "s_or_b32",  "s_xor_b32",
                                    "s_lshl_b32", "s_lshr_b32", "s_ashr_i32",
                                    "s_min_i32",  "s_max_i32"};
        line(std::string(ops[pick(11)]) + " " + sr() + ", " + ssrc() + ", " +
             ssrc());
        break;
      }
      case 7: {  // 64-bit scalar logic on SGPR pairs
        static const char* ops[] = {"s_and_b64", "s_or_b64", "s_andn2_b64"};
        const std::string src1 =
            (!shape_.uniform_only && pick(4) == 0) ? "exec" : spair();
        line(std::string(ops[pick(3)]) + " " + spair() + ", " + src1 + ", " +
             spair());
        break;
      }
      case 8: {  // compares
        if (pick(2)) {
          static const char* ops[] = {"v_cmp_eq_f32", "v_cmp_lt_f32",
                                      "v_cmp_gt_f32", "v_cmp_eq_i32",
                                      "v_cmp_ne_i32", "v_cmp_lt_i32",
                                      "v_cmp_gt_i32", "v_cmp_ge_f32"};
          line(std::string(ops[pick(8)]) + " vcc, " + vr() + ", " + vsrc());
        } else {
          static const char* ops[] = {"s_cmp_eq_i32", "s_cmp_lg_i32",
                                      "s_cmp_gt_i32", "s_cmp_lt_i32"};
          line(std::string(ops[pick(4)]) + " " + sr() + ", " + ssrc());
        }
        break;
      }
      case 9: {  // global load (masked into the seeded window)
        line("v_and_b32 v2, " + vr() + ", 0x3FC");
        line("global_load_dword " + vr() + ", v2, s24, " +
             std::to_string(4 * pick(16)));
        if (pick(3) == 0) line("s_waitcnt 0");
        break;
      }
      case 10: {  // global store / LDS traffic
        if (shape_.body_stores && pick(2)) {
          line("v_and_b32 v2, " + vr() + ", 0x3FC");
          line("global_store_dword " + vr() + ", v2, s24, " +
               std::to_string(4 * pick(16)));
        } else {
          line("v_and_b32 v2, " + vr() + ", 0x3FC");
          static const char* ops[] = {"ds_write_b32", "ds_read_b32",
                                      "ds_add_u32"};
          line(std::string(ops[pick(3)]) + " " + vr() + ", v2, " +
               std::to_string(4 * pick(8)));
        }
        break;
      }
      default: {
        if (pick(2)) {
          line("s_nop 0");
        } else {
          line("v_lshlrev_b32 " + vr() + ", " + std::to_string(pick(31)) +
               ", " + vsrc());
        }
        break;
      }
    }
  }

  void epilogue() {
    line("s_mov_b64 s20, exec");
    line("s_mov_b32 s22, vcc");
    // SCC has no operand encoding; materialize it through the branch it
    // feeds so the final flag state is still compared.
    line("s_cbranch_scc1 sccone");
    line("s_mov_b32 s23, 0");
    line("s_branch sccdone");
    label("sccone");
    line("s_mov_b32 s23, 1");
    label("sccdone");
    line("s_not_b64 exec, 0");  // all 64 lanes on for the dump
    line("v_lshlrev_b32 v2, 2, v1");
    int slot = 0;
    for (int r = 3; r < nv_; ++r) {
      line("global_store_dword v" + std::to_string(r) + ", v2, s25, " +
           std::to_string(0x400 * slot++));
    }
    static const int dumped_sgprs[] = {16, 17, 20, 21, 22, 23, 4, 5, 6, 7};
    for (const int s : dumped_sgprs) {
      line("v_mov_b32 v3, s" + std::to_string(s));
      line("global_store_dword v3, v2, s25, " + std::to_string(0x400 * slot++));
    }
    line("s_endpgm");
  }

  std::mt19937 rng_;
  FuzzShape shape_;
  int nv_;
  std::string out_;
};

struct FuzzRun {
  std::uint64_t cycles = 0;
  std::uint64_t issued = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t fast_launches = 0;
  std::vector<std::uint32_t> mem;
};

FuzzRun run_fuzz_case(const Program& prog, GpuBackend backend,
                      const FuzzShape& shape) {
  GpuConfig cfg;
  cfg.num_cus = shape.num_cus;
  // 128 KiB: room for three non-overlapping 32 KiB workgroup result
  // windows above the 0x2000 base (see ProgramFuzzer::prologue).
  cfg.memory_bytes = 1u << 17;
  cfg.backend = backend;
  Gpu gpu(cfg);
  for (std::uint32_t a = 0x1000; a < 0x1440; a += 4) {
    gpu.memory().write32(a, a * 2654435761u);
  }
  LaunchConfig launch;
  launch.program = &prog;
  launch.workgroups = shape.workgroups;
  launch.waves_per_group = shape.waves;
  gpu.launch(launch);
  gpu.run_to_completion();
  FuzzRun r;
  r.cycles = gpu.last_launch_cycles();
  r.issued = gpu.instructions_issued();
  r.fast_launches = gpu.fast_launches();
  r.reads = gpu.memory().reads();
  r.writes = gpu.memory().writes();
  r.mem.resize(gpu.memory().size() / 4);
  gpu.memory().read_block(0, r.mem.data(), r.mem.size());
  return r;
}

void fuzz_backends(std::uint32_t seed_base, int cases, const FuzzShape& shape) {
  for (int i = 0; i < cases; ++i) {
    const std::uint32_t seed = seed_base + static_cast<std::uint32_t>(i);
    ProgramFuzzer fuzzer(seed, shape);
    const std::string src = fuzzer.generate();
    Program prog;
    ASSERT_NO_THROW(prog = assemble(src)) << "seed " << seed << "\n" << src;
    const FuzzRun cycle = run_fuzz_case(prog, GpuBackend::kCycle, shape);
    const FuzzRun fast = run_fuzz_case(prog, GpuBackend::kFast, shape);
    // The whole point: the generated program must be inside the fast
    // subset — a fallback would compare the oracle against itself.
    ASSERT_EQ(fast.fast_launches, 1u) << "seed " << seed << "\n" << src;
    ASSERT_EQ(cycle.fast_launches, 0u);
    ASSERT_EQ(cycle.cycles, fast.cycles) << "seed " << seed << "\n" << src;
    ASSERT_EQ(cycle.issued, fast.issued) << "seed " << seed << "\n" << src;
    ASSERT_EQ(cycle.reads, fast.reads) << "seed " << seed << "\n" << src;
    ASSERT_EQ(cycle.writes, fast.writes) << "seed " << seed << "\n" << src;
    ASSERT_EQ(cycle.mem, fast.mem) << "seed " << seed << "\n" << src;
  }
}

TEST(BackendFuzz, StraightLinePrograms) {
  FuzzShape shape;
  fuzz_backends(0x5EED0000, 400, shape);
}

TEST(BackendFuzz, BranchyPrograms) {
  FuzzShape shape;
  shape.branchy = true;
  fuzz_backends(0x5EED1000, 400, shape);
}

TEST(BackendFuzz, MultiWaveUniformControlFlow) {
  FuzzShape shape;
  shape.branchy = true;
  shape.uniform_only = true;
  shape.barriers = true;
  shape.waves = 4;
  fuzz_backends(0x5EED2000, 150, shape);
}

TEST(BackendFuzz, MultiWorkgroupSerializedOnOneCu) {
  FuzzShape shape;
  shape.branchy = true;
  shape.workgroups = 3;
  fuzz_backends(0x5EED3000, 150, shape);
}

TEST(BackendFuzz, MultiWorkgroupAcrossCus) {
  FuzzShape shape;
  shape.branchy = true;
  shape.workgroups = 3;
  shape.num_cus = 2;
  shape.body_stores = false;
  fuzz_backends(0x5EED4000, 100, shape);
}

}  // namespace
}  // namespace rtad::gpgpu
