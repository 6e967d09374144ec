// rtad_perfbench — one workload of the RTAD benchmark per invocation.
//
//   rtad_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --out <result.json>
//
// Workloads: detect_lstm, detect_elm, fleet, telemetry_rank (README.md says
// why each exists). --trace 0 measures the end-to-end metrics; --trace 1
// times the calls into each layer from outside and reports the per-layer
// ledger. Metrics go to stdout by name and unit; the --out document adds
// the correctness digests that run.py checks against reference.json.
#include <fstream>
#include <iostream>
#include <string_view>
#include <thread>

#include "common.hpp"
#include "rtad/obs/json.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace perfbench {
namespace {

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

/// Timings from an unoptimised or sanitizer-instrumented build say nothing
/// about the program; refuse before measuring anything.
void refuse_unfit_build() {
#if !defined(__OPTIMIZE__)
  throw Refusal("unoptimised-build",
                "built without optimisation (build type " PERFBENCH_BUILD_TYPE
                "); configure with RelWithDebInfo or Release");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  throw Refusal("sanitizer-build", "built with a sanitizer");
#endif
  if (std::string_view(PERFBENCH_CXX_FLAGS).find("-fsanitize") !=
      std::string_view::npos) {
    throw Refusal("sanitizer-build",
                  "compile flags carry -fsanitize: " PERFBENCH_CXX_FLAGS);
  }
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " +
                                                   std::string(flag));
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.trace = value == "1";
    } else if (flag == "--out") {
      a.out = value;
      have_out = true;
    } else {
      throw std::invalid_argument("unknown flag " + std::string(flag));
    }
  }
  if (a.workload.empty() || !have_out) {
    throw std::invalid_argument("--workload and --out are required");
  }
  return a;
}

void write_result(const Args& args, const Result& r) {
  std::ofstream os(args.out);
  rtad::obs::JsonWriter json(os);
  json.begin_object();
  json.field("workload", args.workload);
  json.field("seed", args.seed);
  json.field("entry", args.seed % kSeedPool);
  json.field("trace", args.trace);
  json.field("attempted", r.attempted);
  json.field("sim_identical", r.sim_identical);
  json.key("host").begin_object();
  json.field("nproc",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.field("compiler", kCompiler);
  json.field("build_type", PERFBENCH_BUILD_TYPE);
  json.end_object();
  json.key("checks").begin_array();
  for (const Check& c : r.checks) {
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(c.digest));
    json.begin_object();
    json.field("key", c.key);
    json.field("digest", hex);
    json.field("ops", c.ops);
    json.field("entry", c.entry.value_or(args.seed % kSeedPool));
    json.end_object();
  }
  json.end_array();
  json.key("absent_layers").begin_array();
  for (const std::string& layer : r.absent_layers) json.value(layer);
  json.end_array();
  json.key("metrics").begin_object();
  for (const Metric& m : r.metrics) {
    json.key(m.name).begin_object();
    json.field("value", m.value);
    json.field("unit", m.unit);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  os << "\n";
  if (!os) throw std::runtime_error("cannot write " + args.out);
}

void print_metrics(const char* label, const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::cout << label << " " << m.name << " = " << m.value << " " << m.unit
              << "\n";
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    refuse_unfit_build();
    std::cout << "perfbench: workload=" << args.workload
              << " seed=" << args.seed << " entry=" << args.seed % kSeedPool
              << " trace=" << (args.trace ? 1 : 0) << "\n"
              << "perfbench: nproc=" << std::thread::hardware_concurrency()
              << " compiler=\"" << kCompiler
              << "\" build_type=" << PERFBENCH_BUILD_TYPE << "\n";
    Result r;
    if (args.workload == "detect_lstm" || args.workload == "detect_elm") {
      r = run_detect(args);
    } else if (args.workload == "fleet") {
      r = run_fleet(args);
    } else if (args.workload == "telemetry_rank") {
      r = run_telemetry(args);
    } else {
      throw std::invalid_argument("unknown workload " + args.workload);
    }
    std::cout.precision(10);
    print_metrics(args.trace ? "layer" : "e2e", r.metrics);
    print_metrics("report", r.report);
    std::cout << "perfbench: attempted=" << r.attempted
              << " sim_identical=" << (r.sim_identical ? 1 : 0) << "\n";
    write_result(args, r);
    return 0;
  } catch (const Refusal& e) {
    std::cerr << "perfbench: REFUSED (" << e.name() << "): " << e.what()
              << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 2;
  }
}
