#include "frontend.hpp"

#include <algorithm>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <utility>

#include "rtad/core/env.hpp"
#include "rtad/workloads/spec_model.hpp"

extern char** environ;

namespace rtad::bench {

namespace {

/// Refuses the first RTAD_BENCH_* variable outside kVocabulary that is set
/// non-empty (empty means unset).
void check_vocabulary() {
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string_view var(*entry);
    const std::string_view name = var.substr(0, var.find('='));
    if (name.starts_with("RTAD_BENCH_") && name.size() + 1 < var.size() &&
        std::find(kVocabulary.begin(), kVocabulary.end(), name) ==
            kVocabulary.end()) {
      throw std::invalid_argument(
          std::string(name) + ": not a bench knob (README \"Bench knobs\")");
    }
  }
}

template <typename Kind>
using Spellings = std::initializer_list<std::pair<const char*, Kind>>;

/// A list knob whose items each name one enumerator.
template <typename Kind>
std::vector<Kind> kinds(const char* name, Spellings<Kind> spellings,
                        std::vector<Kind> fallback) {
  const auto items = core::env::list_or(name, {});
  if (items.empty()) return fallback;
  std::vector<Kind> out;
  for (const auto& item : items) {
    const auto match = [&](const auto& s) { return item == s.first; };
    const auto it = std::find_if(spellings.begin(), spellings.end(), match);
    if (it == spellings.end()) {
      std::string expected;
      for (const auto& s : spellings) {
        expected += std::string(" '") + s.first + "'";
      }
      throw std::invalid_argument(std::string(name) + ": expected one of" +
                                  expected + " (got '" + item + "')");
    }
    out.push_back(it->second);
  }
  return out;
}

}  // namespace

int run(const char* tag, int (*body)()) {
  try {
    check_vocabulary();
    return body();
  } catch (const std::invalid_argument& e) {
    std::cerr << tag << ": " << e.what() << "\n";
    return 2;
  }
}

std::vector<std::string> benchmarks(std::vector<std::string> fallback) {
  constexpr const char* kName = knob("RTAD_BENCH_BENCHMARKS");
  std::vector<std::string> names;
  for (const auto& item : core::env::list_or(kName, std::move(fallback))) {
    try {
      names.push_back(workloads::find_profile(item).name);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(std::string(kName) + ": " + e.what());
    }
  }
  return names;
}

std::string benchmark(const char* fallback) {
  auto names = benchmarks({fallback});
  if (names.size() == 1) return std::move(names.front());
  throw std::invalid_argument(std::string(knob("RTAD_BENCH_BENCHMARKS")) +
                              ": this bench runs exactly one benchmark");
}

std::vector<core::ModelKind> models(std::vector<core::ModelKind> fallback) {
  return kinds(knob("RTAD_BENCH_MODELS"),
               {{"elm", core::ModelKind::kElm},
                {"lstm", core::ModelKind::kLstm}},
               std::move(fallback));
}

std::vector<core::EngineKind> engines(std::vector<core::EngineKind> fallback) {
  return kinds(knob("RTAD_BENCH_ENGINES"),
               {{"miaow", core::EngineKind::kMiaow},
                {"ml-miaow", core::EngineKind::kMlMiaow}},
               std::move(fallback));
}

bool fast_train() {
  return core::env::flag_or(knob("RTAD_BENCH_FAST_TRAIN"), false);
}

core::TrainingOptions training_options() {
  core::TrainingOptions options;
  if (fast_train()) {
    options.lstm_train_tokens = 400;
    options.lstm_val_tokens = 150;
    options.elm_train_windows = 100;
    options.elm_val_windows = 40;
    options.lstm.epochs = 1;
  }
  return options;
}

std::uint64_t peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::uint64_t kib = 0;
  for (std::string key; status >> key;) {
    if (key == "VmHWM:" && status >> kib) return kib;
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

}  // namespace rtad::bench
