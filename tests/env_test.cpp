// core::env unit tests: the consolidated RTAD_* knob grammar.
//
// The contract under test: unset and empty both mean "use the fallback";
// anything else must parse in full under the knob's grammar or throw
// std::invalid_argument naming the variable — malformed knobs must never
// silently decay to a default.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "rtad/core/env.hpp"

namespace rtad::core::env {
namespace {

constexpr const char* kVar = "RTAD_ENV_TEST_KNOB";

class EnvTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_EQ(unsetenv(kVar), 0); }
  void TearDown() override { ASSERT_EQ(unsetenv(kVar), 0); }
  void set(const char* value) { ASSERT_EQ(setenv(kVar, value, 1), 0); }
};

TEST_F(EnvTest, RawTreatsEmptyAsUnset) {
  EXPECT_FALSE(raw(kVar).has_value());
  set("");
  EXPECT_FALSE(raw(kVar).has_value());
  set("value");
  ASSERT_TRUE(raw(kVar).has_value());
  EXPECT_EQ(*raw(kVar), "value");
}

TEST_F(EnvTest, StringOrFallsBackWhenUnsetOrEmpty) {
  EXPECT_EQ(string_or(kVar, "fb"), "fb");
  set("");
  EXPECT_EQ(string_or(kVar, "fb"), "fb");
  set("/tmp/x.json");
  EXPECT_EQ(string_or(kVar, "fb"), "/tmp/x.json");
}

TEST_F(EnvTest, PositiveOrParsesStrictly) {
  EXPECT_EQ(positive_or(kVar, 7), 7u);
  set("12");
  EXPECT_EQ(positive_or(kVar, 7), 12u);
  for (const char* bad : {"0", "-3", "abc", "3extra", "3.5", " 4"}) {
    set(bad);
    EXPECT_THROW(positive_or(kVar, 7), std::invalid_argument) << bad;
  }
}

TEST_F(EnvTest, U64OrAllowsZeroButNotGarbage) {
  EXPECT_EQ(u64_or(kVar, 5), 5u);
  set("0");
  EXPECT_EQ(u64_or(kVar, 5), 0u);
  set("18446744073709551615");
  EXPECT_EQ(u64_or(kVar, 5), 18446744073709551615ULL);
  for (const char* bad : {"-1", "nope", "1 "}) {
    set(bad);
    EXPECT_THROW(u64_or(kVar, 5), std::invalid_argument) << bad;
  }
}

TEST_F(EnvTest, NumberOrEnforcesRange) {
  EXPECT_EQ(number_or(kVar, 0.5, 0.0, 1.0), 0.5);
  set("0.25");
  EXPECT_EQ(number_or(kVar, 0.5, 0.0, 1.0), 0.25);
  for (const char* bad : {"1.5", "-0.1", "half", "0.2x", "nan"}) {
    set(bad);
    EXPECT_THROW(number_or(kVar, 0.5, 0.0, 1.0), std::invalid_argument)
        << bad;
  }
}

TEST_F(EnvTest, ListOrSplitsOnCommasAndRefusesEmptyItems) {
  const std::vector<std::string> fb{"x"};
  EXPECT_EQ(list_or(kVar, fb), fb);
  set("");
  EXPECT_EQ(list_or(kVar, fb), fb);
  set("gcc");
  EXPECT_EQ(list_or(kVar, fb), std::vector<std::string>{"gcc"});
  set("gcc,mcf,gcc");  // order and repeats are the caller's business
  EXPECT_EQ(list_or(kVar, fb),
            (std::vector<std::string>{"gcc", "mcf", "gcc"}));
  for (const char* bad : {"a,,b", "a,", ",a", ","}) {
    set(bad);
    EXPECT_THROW(list_or(kVar, fb), std::invalid_argument) << bad;
  }
}

TEST_F(EnvTest, NumbersOrSortsDedupesAndEnforcesRange) {
  const std::vector<double> fb{0.5, 1.5};
  EXPECT_EQ(numbers_or(kVar, fb, 0.0, 2.0), fb);
  set("");
  EXPECT_EQ(numbers_or(kVar, fb, 0.0, 2.0), fb);
  set("1.5,0,0.25,1.5,2");  // both bounds are inclusive
  EXPECT_EQ(numbers_or(kVar, fb, 0.0, 2.0),
            (std::vector<double>{0.0, 0.25, 1.5, 2.0}));
  for (const char* bad :
       {"1,,2", "0.5x", "0.5,x", "-0.1", "2.01", "0.5, 1", "1,", "nan"}) {
    set(bad);
    EXPECT_THROW(numbers_or(kVar, fb, 0.0, 2.0), std::invalid_argument) << bad;
  }
}

TEST_F(EnvTest, ChoiceOrAcceptsExactSpellingsOnly) {
  EXPECT_EQ(choice_or(kVar, {"dense", "event"}, "event"), "event");
  set("dense");
  EXPECT_EQ(choice_or(kVar, {"dense", "event"}, "event"), "dense");
  for (const char* bad : {"evnet", "DENSE", "dense "}) {
    set(bad);
    EXPECT_THROW(choice_or(kVar, {"dense", "event"}, "event"),
                 std::invalid_argument)
        << bad;
  }
}

TEST_F(EnvTest, FlagOrIsZeroOrOne) {
  EXPECT_FALSE(flag_or(kVar, false));
  EXPECT_TRUE(flag_or(kVar, true));
  set("1");
  EXPECT_TRUE(flag_or(kVar, false));
  set("0");
  EXPECT_FALSE(flag_or(kVar, true));
  for (const char* bad : {"true", "yes", "2"}) {
    set(bad);
    EXPECT_THROW(flag_or(kVar, false), std::invalid_argument) << bad;
  }
}

TEST_F(EnvTest, ErrorsNameTheVariableAndTheValue) {
  set("fulL");
  try {
    positive_or(kVar, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(kVar), std::string::npos) << what;
    EXPECT_NE(what.find("fulL"), std::string::npos) << what;
  }
  set("0.01,0.5q");
  try {
    numbers_or(kVar, {}, 0.0, 1.0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(kVar), std::string::npos) << what;
    EXPECT_NE(what.find("'0.5q'"), std::string::npos) << what;
    EXPECT_NE(what.find("number in [0"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace rtad::core::env
