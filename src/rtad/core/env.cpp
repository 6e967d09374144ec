#include "rtad/core/env.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace rtad::core::env {

namespace {

[[noreturn]] void reject(const char* name, const std::string& value,
                         const std::string& expected) {
  throw std::invalid_argument(std::string(name) + ": expected " + expected +
                              " (got '" + value + "')");
}

/// strtoll/strtod silently skip leading whitespace; the knob grammar does
/// not — " 4" is as much a typo as "4 ".
bool leading_space(const std::string& v) {
  return !v.empty() && std::isspace(static_cast<unsigned char>(v[0])) != 0;
}

/// One number under the knob grammar; `text` is the whole value or one
/// list item. NaN fails the range test.
double parse_number(const char* name, const std::string& text, double lo,
                    double hi) {
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (leading_space(text) || errno != 0 || end == text.c_str() ||
      *end != '\0' || !(parsed >= lo && parsed <= hi)) {
    reject(name, text,
           "a number in [" + std::to_string(lo) + ", " + std::to_string(hi) +
               "]");
  }
  return parsed;
}

}  // namespace

std::optional<std::string> raw(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return std::nullopt;
  return std::string(v);
}

std::string string_or(const char* name, std::string fallback) {
  auto v = raw(name);
  return v ? std::move(*v) : std::move(fallback);
}

std::size_t positive_or(const char* name, std::size_t fallback) {
  const auto v = raw(name);
  if (!v) return fallback;
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(v->c_str(), &end, 10);
  if (leading_space(*v) || errno != 0 || end == v->c_str() || *end != '\0' ||
      parsed <= 0) {
    reject(name, *v, "a positive integer");
  }
  return static_cast<std::size_t>(parsed);
}

std::uint64_t u64_or(const char* name, std::uint64_t fallback) {
  const auto v = raw(name);
  if (!v) return fallback;
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v->c_str(), &end, 10);
  if (leading_space(*v) || errno != 0 || end == v->c_str() || *end != '\0' ||
      (*v)[0] == '-') {
    reject(name, *v, "a non-negative integer");
  }
  return static_cast<std::uint64_t>(parsed);
}

double number_or(const char* name, double fallback, double lo, double hi) {
  const auto v = raw(name);
  return v ? parse_number(name, *v, lo, hi) : fallback;
}

std::vector<std::string> list_or(const char* name,
                                 std::vector<std::string> fallback) {
  const auto v = raw(name);
  if (!v) return fallback;
  std::vector<std::string> items;
  // The appended comma turns a trailing "a," into an empty last item.
  std::istringstream in(*v + ',');
  for (std::string item; std::getline(in, item, ',');) {
    if (item.empty()) reject(name, *v, "comma-separated items, none empty");
    items.push_back(std::move(item));
  }
  return items;
}

std::vector<double> numbers_or(const char* name, std::vector<double> fallback,
                               double lo, double hi) {
  if (!raw(name)) return fallback;
  std::vector<double> numbers;
  for (const auto& item : list_or(name, {})) {
    numbers.push_back(parse_number(name, item, lo, hi));
  }
  std::sort(numbers.begin(), numbers.end());
  numbers.erase(std::unique(numbers.begin(), numbers.end()), numbers.end());
  return numbers;
}

std::string choice_or(const char* name,
                      std::initializer_list<const char*> allowed,
                      const char* fallback) {
  const auto v = raw(name);
  if (!v) return fallback;
  std::string expected = "one of";
  for (const char* a : allowed) {
    if (*v == a) return *v;
    expected += std::string(" '") + a + "'";
  }
  reject(name, *v, expected);
}

bool flag_or(const char* name, bool fallback) {
  const auto v = raw(name);
  if (!v) return fallback;
  if (*v == "0") return false;
  if (*v == "1") return true;
  reject(name, *v, "'0' or '1'");
}

}  // namespace rtad::core::env
