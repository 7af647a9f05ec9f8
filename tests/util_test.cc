#include <vector>

#include <gtest/gtest.h>

#include "graph/labeled_graph.h"
#include "graph/uncertain_graph.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"

namespace simj {
namespace {

TEST(StatusTest, OkAndError) {
  Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");

  Status error = InvalidArgumentError("bad input");
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(error.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(error.ToString(), "INVALID_ARGUMENT: bad input");
}

TEST(StatusTest, AllErrorConstructors) {
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(OutOfRangeError("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
}

// GCC 12 falsely reports the variant's string member as maybe-uninitialized
// when the StatusOr destructor is inlined at -O2 (gcc PR 80635 family).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
TEST(StatusOrTest, HoldsValueOrStatus) {
  StatusOr<int> value = 42;
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value.value(), 42);
  EXPECT_EQ(*value, 42);

  StatusOr<int> error = NotFoundError("nothing");
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), StatusCode::kNotFound);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

TEST(StatusOrDeathTest, ValueOnErrorAborts) {
  StatusOr<int> error = NotFoundError("nothing");
  EXPECT_DEATH((void)error.value(), "SIMJ_CHECK");
}

TEST(RngTest, DeterministicWithSameSeed) {
  Rng a(1);
  Rng b(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.Uniform(0, 1000), b.Uniform(0, 1000));
  }
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    int64_t draw = rng.Uniform(-3, 7);
    EXPECT_GE(draw, -3);
    EXPECT_LE(draw, 7);
  }
}

TEST(RngTest, SimplexSumsToOne) {
  Rng rng(3);
  for (int n : {1, 3, 8}) {
    std::vector<double> probs = rng.RandomSimplex(n, 1.0);
    double sum = 0.0;
    for (double p : probs) {
      EXPECT_GT(p, 0.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(RngTest, WeightedIndexRespectsZeros) {
  Rng rng(4);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.WeightedIndex(weights), 1);
  }
}

TEST(StringsTest, SplitAndTrim) {
  EXPECT_EQ(SplitAndTrim(" a , b ,, c ", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitAndTrim("", ',').empty());
}

TEST(StringsTest, SplitWhitespace) {
  EXPECT_EQ(SplitWhitespace("  one\ttwo \n three "),
            (std::vector<std::string>{"one", "two", "three"}));
}

TEST(StringsTest, JoinAndCase) {
  EXPECT_EQ(Join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(ToLower("MiXeD"), "mixed");
  EXPECT_TRUE(StartsWith("prefix_rest", "prefix"));
  EXPECT_TRUE(EndsWith("rest_suffix", "suffix"));
  EXPECT_FALSE(StartsWith("ab", "abc"));
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(FlagsTest, ParsesTypedValues) {
  const char* argv[] = {"prog", "--n=42", "--alpha=0.25", "--name=webq",
                        "--verbose=true", "ignored", "--noval"};
  Flags flags(7, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("n", 0), 42);
  EXPECT_DOUBLE_EQ(flags.GetDouble("alpha", 0.0), 0.25);
  EXPECT_EQ(flags.GetString("name", ""), "webq");
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_FALSE(flags.Has("noval"));
  EXPECT_EQ(flags.GetInt("missing", -1), -1);
}

TEST(GraphDeathTest, InvariantViolationsAbort) {
  graph::LabelDictionary dict;
  graph::LabelId l = dict.Intern("L");
  graph::LabeledGraph g;
  g.AddVertex(l);
  EXPECT_DEATH(g.AddEdge(0, 0, l), "SIMJ_CHECK");   // self loop
  EXPECT_DEATH(g.AddEdge(0, 5, l), "SIMJ_CHECK");   // missing vertex

  graph::UncertainGraph u;
  EXPECT_DEATH(u.AddVertex({}), "SIMJ_CHECK");      // no alternatives
  EXPECT_DEATH(u.AddVertex({{l, 0.0}}), "SIMJ_CHECK");   // zero probability
  EXPECT_DEATH(u.AddVertex({{l, 0.7}, {l, 0.7}}), "SIMJ_CHECK");  // sum > 1
}

}  // namespace
}  // namespace simj
