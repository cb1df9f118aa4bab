#include <memory>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table.h"

namespace cod {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad k");
}

TEST(StatusTest, AllCodesStringify) {
  EXPECT_EQ(Status::NotFound("x").ToString(), "NOT_FOUND: x");
  EXPECT_EQ(Status::IoError("x").ToString(), "IO_ERROR: x");
  EXPECT_EQ(Status::FailedPrecondition("x").ToString(),
            "FAILED_PRECONDITION: x");
  EXPECT_EQ(Status::Timeout("x").ToString(), "TIMEOUT: x");
}

// GCC 12 reports -Wmaybe-uninitialized on the Status alternative's string
// inside the variant destructor, a branch that never runs while `r` holds
// an int (a known false positive with inlined std::variant storage). The
// suppression covers this one test only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}
#pragma GCC diagnostic pop

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Status FailThenPropagate() {
  COD_RETURN_IF_ERROR(Status::Timeout("deadline"));
  return Status::Ok();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(FailThenPropagate().code(), StatusCode::kTimeout);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.Next() == b.Next();
  EXPECT_LT(equal, 4);
}

TEST(RngTest, UniformIntInBounds) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.UniformInt(bound), bound);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformIntIsRoughlyUniform) {
  Rng rng(11);
  int counts[10] = {};
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ++counts[rng.UniformInt(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, trials / 10, trials / 10 * 0.15);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.UniformDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / static_cast<double>(trials), 0.3, 0.01);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.Fork();
  EXPECT_NE(parent.Next(), child.Next());
}

TEST(StatsTest, AccumulatorBasics) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.Mean(), 0.0);
  for (double x : {1.0, 2.0, 3.0, 4.0}) acc.Add(x);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.Mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.Min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.Max(), 4.0);
  EXPECT_NEAR(acc.StdDev(), 1.2909944, 1e-6);
}

TEST(StatsTest, AccumulatorSingleValueHasZeroStdDev) {
  Accumulator acc;
  acc.Add(5.0);
  EXPECT_DOUBLE_EQ(acc.StdDev(), 0.0);
}

TEST(StatsTest, QuantileInterpolates) {
  std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
}

TEST(TableTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"longer-name", "22"});
  // Render to a temp file and check the contents line up.
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  t.Print(f);
  std::rewind(f);
  char buf[256];
  std::string all;
  while (std::fgets(buf, sizeof(buf), f)) all += buf;
  std::fclose(f);
  EXPECT_NE(all.find("name"), std::string::npos);
  EXPECT_NE(all.find("longer-name"), std::string::npos);
  // Header and rows share column offsets: "value" starts after widest name.
  EXPECT_NE(all.find("name         value"), std::string::npos);
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(TablePrinter::Fmt(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::Fmt(size_t{42}), "42");
  EXPECT_EQ(TablePrinter::Fmt(-3), "-3");
}

}  // namespace
}  // namespace cod
