// Consolidated RTAD_* environment-knob parsing.
//
// Every knob (the process axes RTAD_JOBS, RTAD_SCHED, RTAD_BACKEND,
// RTAD_TRACE_PROTO, RTAD_TRACE, RTAD_METRICS and RTAD_FAULTS read under
// src/, and the bench front-end's vocabulary in bench/frontend.hpp)
// resolves through this helper so a malformed value is rejected loudly —
// std::invalid_argument naming the variable, the offending text, and the
// accepted grammar — instead of silently decaying to a default. A typo like
// RTAD_JOBS=fulL used to mean "hardware_concurrency" and RTAD_SCHED=evnet
// used to mean "event", the worst failure modes for a determinism-sensitive
// tool: the run completes, just not the run you asked for.
//
// Two conventions shared by every knob:
//   * The empty string counts as unset (`VAR= cmd` clears a knob without
//     unsetenv), matching the long-standing RTAD_FAULTS behaviour.
//   * The value must be consumed in full — trailing garbage is an error.
//
// The helper lives in core/ but builds as its own dependency-free library
// (rtad_env) so the layers below core (sim, fault, obs) link it without a
// cycle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

namespace rtad::core::env {

/// Raw value of `name`; nullopt when unset or set to the empty string.
std::optional<std::string> raw(const char* name);

/// One number under the knob grammar, constrained to [lo, hi] (NaN fails
/// the range test). `text` is a whole value or one item of a compound knob
/// (a list item, an RTAD_FAULTS field); errors name `name`.
double parse_number(const std::string& name, const std::string& text,
                    double lo, double hi);

/// One unsigned integer under the knob grammar, constrained to [lo, hi]:
/// no minus sign, no leading space, no trailing garbage. Errors name
/// `name`.
std::uint64_t parse_integer(const std::string& name, const std::string& text,
                            std::uint64_t lo, std::uint64_t hi);

/// Free-form string knob (paths); no validation beyond the
/// empty-means-unset rule.
std::string string_or(const char* name, std::string fallback);

/// Strictly positive integer knob (worker counts, capacities). Throws
/// std::invalid_argument on non-numeric, zero, negative, or
/// trailing-garbage values.
std::size_t positive_or(const char* name, std::size_t fallback);

/// Unsigned integer knob (zero allowed). Throws on malformed values.
std::uint64_t u64_or(const char* name, std::uint64_t fallback);

/// Floating-point knob constrained to [lo, hi]. Throws on malformed or
/// out-of-range values.
double number_or(const char* name, double fallback, double lo, double hi);

/// Comma-separated list knob ("gcc,mcf"). Throws on an empty item
/// ("a,,b", "a,").
std::vector<std::string> list_or(const char* name,
                                 std::vector<std::string> fallback);

/// Comma-separated number list, each item under number_or's grammar and
/// constrained to [lo, hi]. A set list is returned sorted ascending with
/// duplicates removed. Throws on an empty, malformed or out-of-range item.
std::vector<double> numbers_or(const char* name, std::vector<double> fallback,
                               double lo, double hi);

/// Enumerated knob: the value must equal one of `allowed` exactly. Throws
/// with a message listing the accepted spellings.
std::string choice_or(const char* name,
                      std::initializer_list<const char*> allowed,
                      const char* fallback);

/// Boolean knob: "0"/"1" only. Throws on anything else.
bool flag_or(const char* name, bool fallback);

}  // namespace rtad::core::env
