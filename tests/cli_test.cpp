#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "util/cli.h"

namespace vcoadc::util {
namespace {

ArgParser parse(std::vector<const char*> argv) {
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

/// What a numeric getter throws, or "" when it returns a value.
template <typename Get>
std::string error_of(Get get) {
  try {
    get();
  } catch (const ArgError& e) {
    return e.what();
  }
  return "";
}

TEST(ArgParser, EqualsForm) {
  const auto a = parse({"prog", "cmd", "--node=180", "--fs=250e6"});
  EXPECT_EQ(a.program(), "prog");
  ASSERT_EQ(a.positional().size(), 1u);
  EXPECT_EQ(a.positional()[0], "cmd");
  EXPECT_EQ(a.get("node"), "180");
  EXPECT_DOUBLE_EQ(a.get_double("fs", 0), 250e6);
}

TEST(ArgParser, SpaceForm) {
  const auto a = parse({"prog", "--out", "build/artifacts", "run"});
  EXPECT_EQ(a.get("out"), "build/artifacts");
  ASSERT_EQ(a.positional().size(), 1u);
  EXPECT_EQ(a.positional()[0], "run");
}

TEST(ArgParser, BooleanFlag) {
  const auto a = parse({"prog", "--verbose", "--x=1"});
  EXPECT_TRUE(a.has("verbose"));
  EXPECT_EQ(a.get("verbose"), "true");
  EXPECT_FALSE(a.has("quiet"));
}

TEST(ArgParser, Fallbacks) {
  const auto a = parse({"prog"});
  EXPECT_EQ(a.get("missing", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(a.get_double("missing", 3.5), 3.5);
  EXPECT_EQ(a.get_int("missing", 7), 7);
}

TEST(ArgParser, UnknownFlagDetection) {
  const auto a = parse({"prog", "--node=40", "--typo=1"});
  const auto unknown = a.unknown_flags({"node", "fs"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "--typo");
}

TEST(ArgParser, NumericParsing) {
  const auto a = parse({"prog", "--slices=16", "--bw=5e6", "--lo=-2147483648",
                        "--hi=2147483647", "--tol=2.5e-1",
                        "--max=18446744073709551615"});
  EXPECT_EQ(a.get_int("slices", 0), 16);
  EXPECT_DOUBLE_EQ(a.get_double("bw", 0), 5e6);
  EXPECT_EQ(a.get_int("lo", 0), std::numeric_limits<int>::min());
  EXPECT_EQ(a.get_int("hi", 0), std::numeric_limits<int>::max());
  EXPECT_DOUBLE_EQ(a.get_double("tol", 0), 0.25);
  EXPECT_EQ(a.get_u64("max", 0), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(a.get_u64("slices", 0), 16u);
  EXPECT_EQ(a.get_u64("missing", 9), 9u);
}

TEST(ArgParser, MalformedNumbersAreRefusedNamingTheFlag) {
  // Each of these once ran silently on a prefix, a default or undefined
  // behaviour: 16 samples, 1 draw, every core, an atoi overflow, and a
  // negative double cast to an unsigned size.
  const auto a = parse({"prog", "--samples=16k", "--runs=1e3",
                        "--threads=two", "--slices=99999999999",
                        "--store-max-bytes=-1", "--fs=750e6Hz", "--bw=",
                        "--node=nan", "--ring-tol=1e999", "--seed0=+7",
                        "--over=18446744073709551616", "--flag"});
  EXPECT_EQ(error_of([&] { return a.get_int("samples", 0); }),
            "--samples=16k is not a 32-bit integer");
  EXPECT_EQ(error_of([&] { return a.get_int("runs", 0); }),
            "--runs=1e3 is not a 32-bit integer");
  EXPECT_EQ(error_of([&] { return a.get_int("threads", 0); }),
            "--threads=two is not a 32-bit integer");
  EXPECT_EQ(error_of([&] { return a.get_int("slices", 0); }),
            "--slices=99999999999 is not a 32-bit integer");
  EXPECT_EQ(error_of([&] { return a.get_u64("store-max-bytes", 0); }),
            "--store-max-bytes=-1 is not a non-negative integer");
  EXPECT_EQ(error_of([&] { return a.get_double("fs", 0); }),
            "--fs=750e6Hz is not a finite number");
  EXPECT_EQ(error_of([&] { return a.get_double("bw", 0); }),
            "--bw= is not a finite number");
  EXPECT_EQ(error_of([&] { return a.get_double("node", 0); }),
            "--node=nan is not a finite number");
  EXPECT_EQ(error_of([&] { return a.get_double("ring-tol", 0); }),
            "--ring-tol=1e999 is not a finite number");
  EXPECT_EQ(error_of([&] { return a.get_u64("seed0", 0); }),
            "--seed0=+7 is not a non-negative integer");
  EXPECT_EQ(error_of([&] { return a.get_u64("over", 0); }),
            "--over=18446744073709551616 is not a non-negative integer");
  // A bare flag reads as "true", which is no number either.
  EXPECT_EQ(error_of([&] { return a.get_int("flag", 0); }),
            "--flag=true is not a 32-bit integer");
}

TEST(ArgParser, GateSimFlagVocabulary) {
  // The vcoadc_cli gatesim flags: --top is a plain string, --ring-tol a
  // double, and both must clear an unknown-flags registry that names them.
  const auto a =
      parse({"prog", "gatesim", "--top=ADC_slice", "--ring-tol=0.3"});
  ASSERT_EQ(a.positional().size(), 1u);
  EXPECT_EQ(a.positional()[0], "gatesim");
  EXPECT_EQ(a.get("top", ""), "ADC_slice");
  EXPECT_DOUBLE_EQ(a.get_double("ring-tol", 0.25), 0.3);
  EXPECT_TRUE(a.unknown_flags({"top", "ring-tol"}).empty());
  // A registry without them flags both (the CLI's typo guard).
  EXPECT_EQ(a.unknown_flags({"node"}).size(), 2u);
}

}  // namespace
}  // namespace vcoadc::util
