#include "src/query/selectivity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "tests/testing/test_plans.h"

namespace pdsp {
namespace {

FieldGeneratorSpec UniformIntSpec(double lo, double hi) {
  FieldGeneratorSpec s;
  s.dist = FieldDistribution::kUniformInt;
  s.min = lo;
  s.max = hi;
  return s;
}

FieldGeneratorSpec UniformDoubleSpec(double lo, double hi) {
  FieldGeneratorSpec s;
  s.dist = FieldDistribution::kUniformDouble;
  s.min = lo;
  s.max = hi;
  return s;
}

TEST(SelectivityTest, UniformIntComparisons) {
  auto spec = UniformIntSpec(1, 100);
  EXPECT_NEAR(*EstimateFilterSelectivity(spec, FilterOp::kLe, Value(50)),
              0.50, 1e-9);
  EXPECT_NEAR(*EstimateFilterSelectivity(spec, FilterOp::kLt, Value(51)),
              0.50, 1e-9);
  EXPECT_NEAR(*EstimateFilterSelectivity(spec, FilterOp::kGt, Value(75)),
              0.25, 1e-9);
  EXPECT_NEAR(*EstimateFilterSelectivity(spec, FilterOp::kEq, Value(7)),
              0.01, 1e-9);
  EXPECT_NEAR(*EstimateFilterSelectivity(spec, FilterOp::kNe, Value(7)),
              0.99, 1e-9);
}

TEST(SelectivityTest, LiteralOutsideRangeClampsToZeroOrOne) {
  auto spec = UniformIntSpec(1, 100);
  EXPECT_DOUBLE_EQ(*EstimateFilterSelectivity(spec, FilterOp::kGt, Value(1000)),
                   0.0);
  EXPECT_DOUBLE_EQ(*EstimateFilterSelectivity(spec, FilterOp::kLe, Value(1000)),
                   1.0);
}

TEST(SelectivityTest, UniformDoubleComparisons) {
  auto spec = UniformDoubleSpec(0.0, 10.0);
  EXPECT_NEAR(*EstimateFilterSelectivity(spec, FilterOp::kLt, Value(2.5)),
              0.25, 1e-9);
  // Equality on a continuous field has zero mass.
  EXPECT_DOUBLE_EQ(*EstimateFilterSelectivity(spec, FilterOp::kEq, Value(5.0)),
                   0.0);
  EXPECT_DOUBLE_EQ(*EstimateFilterSelectivity(spec, FilterOp::kNe, Value(5.0)),
                   1.0);
}

TEST(SelectivityTest, NormalDoubleMedianAtMean) {
  FieldGeneratorSpec spec;
  spec.dist = FieldDistribution::kNormalDouble;
  spec.min = 0.0;
  spec.max = 10.0;  // mean 5, sd 10/6
  EXPECT_NEAR(*EstimateFilterSelectivity(spec, FilterOp::kLe, Value(5.0)),
              0.5, 1e-6);
  EXPECT_GT(*EstimateFilterSelectivity(spec, FilterOp::kLe, Value(7.0)), 0.7);
}

TEST(SelectivityTest, ZipfEqualityOnTopRankDominates) {
  FieldGeneratorSpec spec;
  spec.dist = FieldDistribution::kZipfKey;
  spec.cardinality = 1000;
  spec.zipf_s = 1.0;
  const double top = *EstimateFilterSelectivity(spec, FilterOp::kEq, Value(1));
  const double mid =
      *EstimateFilterSelectivity(spec, FilterOp::kEq, Value(500));
  EXPECT_GT(top, 0.05);
  EXPECT_GT(top, mid * 50);
}

TEST(SelectivityTest, StringLiteralAgainstNumericFieldIsError) {
  auto spec = UniformIntSpec(1, 100);
  EXPECT_TRUE(EstimateFilterSelectivity(spec, FilterOp::kGt, Value("x"))
                  .status()
                  .IsInvalidArgument());
}

TEST(SelectivityTest, WordStringEqualityUsesDictionaryShare) {
  FieldGeneratorSpec spec;
  spec.dist = FieldDistribution::kWordString;
  spec.cardinality = 200;
  EXPECT_NEAR(*EstimateFilterSelectivity(spec, FilterOp::kEq, Value("x")),
              1.0 / 200, 1e-9);
  EXPECT_NEAR(*EstimateFilterSelectivity(spec, FilterOp::kLt, Value("x")), 0.5,
              1e-9);
}

// The core property of Section 3.1: generated literals must give the
// requested selectivity, and empirical pass rates must match it.
class LiteralInversionTest
    : public ::testing::TestWithParam<std::tuple<FilterOp, double>> {};

TEST_P(LiteralInversionTest, EmpiricalSelectivityMatchesTarget) {
  const auto [op, target] = GetParam();
  Rng rng(1234);
  const std::vector<FieldGeneratorSpec> field_specs = {
      UniformIntSpec(0, 10000),
      UniformDoubleSpec(-50.0, 50.0),
  };
  for (const auto& spec : field_specs) {
    auto literal = LiteralForSelectivity(spec, op, target, &rng);
    ASSERT_TRUE(literal.ok()) << literal.status().ToString();
    // Empirical check: generate values and measure the pass rate.
    Schema schema({{"a", spec.OutputType()}});
    auto gen = TupleGenerator::Create(schema, {spec}, 77);
    ASSERT_TRUE(gen.ok());
    int64_t pass = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
      const Value v = gen->Next(0).values[0];
      bool hit = false;
      switch (op) {
        case FilterOp::kLt:
          hit = v < *literal;
          break;
        case FilterOp::kLe:
          hit = v <= *literal;
          break;
        case FilterOp::kGt:
          hit = v > *literal;
          break;
        case FilterOp::kGe:
          hit = v >= *literal;
          break;
        default:
          hit = false;
      }
      pass += hit;
    }
    EXPECT_NEAR(static_cast<double>(pass) / n, target, 0.03)
        << "op=" << FilterOpToString(op) << " target=" << target;
  }
}

INSTANTIATE_TEST_SUITE_P(
    OpsAndTargets, LiteralInversionTest,
    ::testing::Combine(::testing::Values(FilterOp::kLt, FilterOp::kLe,
                                         FilterOp::kGt, FilterOp::kGe),
                       ::testing::Values(0.1, 0.25, 0.5, 0.75, 0.9)));

TEST(LiteralForSelectivityTest, EqualityOnZipfKeyApproximatesTarget) {
  FieldGeneratorSpec spec;
  spec.dist = FieldDistribution::kZipfKey;
  spec.cardinality = 10000;
  spec.zipf_s = 1.0;
  Rng rng(5);
  auto lit = LiteralForSelectivity(spec, FilterOp::kEq, 0.05, &rng);
  ASSERT_TRUE(lit.ok());
  const double est =
      *EstimateFilterSelectivity(spec, FilterOp::kEq, *lit);
  EXPECT_GT(est, 0.005);
  EXPECT_LT(est, 0.25);
}

TEST(LiteralForSelectivityTest, EqualityOnContinuousFieldIsError) {
  Rng rng(5);
  auto r = LiteralForSelectivity(UniformDoubleSpec(0, 1), FilterOp::kEq, 0.5,
                                 &rng);
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(LiteralForSelectivityTest, SequenceFieldIsError) {
  FieldGeneratorSpec spec;
  spec.dist = FieldDistribution::kSequence;
  Rng rng(5);
  EXPECT_FALSE(LiteralForSelectivity(spec, FilterOp::kGt, 0.5, &rng).ok());
}

TEST(GeneralizedHarmonicTest, MatchesDirectSum) {
  double direct = 0.0;
  for (int k = 1; k <= 1000; ++k) direct += std::pow(k, -1.2);
  EXPECT_NEAR(GeneralizedHarmonic(1000, 1.2), direct, 1e-9);
}

TEST(GeneralizedHarmonicTest, LargeNUsesIntegralTail) {
  // H_{10^7, 1.0} ~ ln(10^7) + gamma ~ 16.695.
  EXPECT_NEAR(GeneralizedHarmonic(10000000, 1.0), 16.695, 0.01);
}

// KeyMatchProbability as first written: per-side harmonic sums and two
// pow() calls per rank. The shared-work version must reproduce it exactly.
double ReferenceKeyMass(const FieldGeneratorSpec& spec, int64_t k,
                        double harmonic) {
  switch (spec.dist) {
    case FieldDistribution::kZipfKey:
    case FieldDistribution::kWordString:
      if (k > spec.cardinality) return 0.0;
      return std::pow(static_cast<double>(k), -spec.zipf_s) / harmonic;
    case FieldDistribution::kUniformKey:
      return k <= spec.cardinality
                 ? 1.0 / static_cast<double>(spec.cardinality)
                 : 0.0;
    case FieldDistribution::kUniformInt: {
      const double n = spec.max - spec.min + 1.0;
      return k <= static_cast<int64_t>(n) ? 1.0 / n : 0.0;
    }
    default:
      return -1.0;
  }
}

int64_t ReferenceKeyCardinality(const FieldGeneratorSpec& spec) {
  switch (spec.dist) {
    case FieldDistribution::kZipfKey:
    case FieldDistribution::kWordString:
    case FieldDistribution::kUniformKey:
      return spec.cardinality;
    case FieldDistribution::kUniformInt:
      return static_cast<int64_t>(spec.max - spec.min + 1.0);
    default:
      return -1;
  }
}

double ReferenceKeyMatchProbability(const FieldGeneratorSpec& left,
                                    const FieldGeneratorSpec& right) {
  const int64_t n_l = ReferenceKeyCardinality(left);
  const int64_t n_r = ReferenceKeyCardinality(right);
  if (n_l < 1 || n_r < 1) {
    const auto fallback = static_cast<double>(std::max<int64_t>(
        1, std::max(n_l, n_r)));
    return 1.0 / std::max(1.0, fallback);
  }
  const double h_l =
      (left.dist == FieldDistribution::kZipfKey ||
       left.dist == FieldDistribution::kWordString)
          ? GeneralizedHarmonic(n_l, left.zipf_s)
          : 1.0;
  const double h_r =
      (right.dist == FieldDistribution::kZipfKey ||
       right.dist == FieldDistribution::kWordString)
          ? GeneralizedHarmonic(n_r, right.zipf_s)
          : 1.0;
  const int64_t n = std::min(n_l, n_r);
  const int64_t exact = std::min<int64_t>(n, 100000);
  double prob = 0.0;
  for (int64_t k = 1; k <= exact; ++k) {
    prob += ReferenceKeyMass(left, k, h_l) * ReferenceKeyMass(right, k, h_r);
  }
  if (n > exact) {
    prob += static_cast<double>(n - exact) *
            ReferenceKeyMass(left, exact, h_l) *
            ReferenceKeyMass(right, exact, h_r);
  }
  return std::clamp(prob, 0.0, 1.0);
}

FieldGeneratorSpec KeySpec(FieldDistribution dist, int64_t cardinality,
                           double zipf_s) {
  FieldGeneratorSpec s;
  s.dist = dist;
  s.cardinality = cardinality;
  s.zipf_s = zipf_s;
  return s;
}

TEST(KeyMatchProbabilityTest, BitIdenticalToPerSideFormula) {
  using D = FieldDistribution;
  const std::vector<std::pair<FieldGeneratorSpec, FieldGeneratorSpec>> pairs =
      {
          // Equal specs: one harmonic sum, one pow() per rank.
          {KeySpec(D::kZipfKey, 1000, 0.8), KeySpec(D::kZipfKey, 1000, 0.8)},
          {KeySpec(D::kZipfKey, 800000, 1.1),
           KeySpec(D::kZipfKey, 800000, 1.1)},  // integral tail, rank tail
          {KeySpec(D::kWordString, 5000, 1.0),
           KeySpec(D::kZipfKey, 5000, 1.0)},
          // Equal exponents, different cardinalities.
          {KeySpec(D::kZipfKey, 1000, 0.8), KeySpec(D::kZipfKey, 3000, 0.8)},
          {KeySpec(D::kZipfKey, 250000, 0.9),
           KeySpec(D::kZipfKey, 120000, 0.9)},
          // Unequal exponents and mixed distributions.
          {KeySpec(D::kZipfKey, 1000, 0.8), KeySpec(D::kZipfKey, 1000, 1.2)},
          {KeySpec(D::kZipfKey, 2000, 0.7),
           KeySpec(D::kUniformKey, 1500, 0.7)},
          {KeySpec(D::kUniformKey, 200000, 0.8),
           KeySpec(D::kUniformKey, 150000, 0.8)},
          {UniformIntSpec(1, 500), KeySpec(D::kZipfKey, 800, 0.8)},
          {UniformDoubleSpec(0, 1), KeySpec(D::kZipfKey, 800, 0.8)},
      };
  for (const auto& [left, right] : pairs) {
    EXPECT_EQ(KeyMatchProbability(left, right),
              ReferenceKeyMatchProbability(left, right))
        << "cardinalities " << left.cardinality << "/" << right.cardinality
        << " s " << left.zipf_s << "/" << right.zipf_s;
    EXPECT_EQ(KeyMatchProbability(right, left),
              ReferenceKeyMatchProbability(right, left));
  }
}

TEST(ZipfCdfTest, Monotone) {
  double prev = 0.0;
  for (int k = 1; k <= 100; k += 7) {
    const double c = ZipfCdf(k, 100, 0.9);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_DOUBLE_EQ(ZipfCdf(100, 100, 0.9), 1.0);
  EXPECT_DOUBLE_EQ(ZipfCdf(0, 100, 0.9), 0.0);
}

TEST(ResolveFieldSpecTest, WalksThroughFiltersAndMaps) {
  auto plan = testing::LinearPlan();
  ASSERT_TRUE(plan.ok());
  auto agg = plan->FindOperator("agg");
  ASSERT_TRUE(agg.ok());
  // Field 0 (key) upstream of agg resolves to the zipf key spec.
  auto spec = ResolveFieldSpec(*plan, plan->Inputs(*agg)[0], 0);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->dist, FieldDistribution::kZipfKey);
}

TEST(ResolveFieldSpecTest, StopsAtAggregates) {
  auto plan = testing::LinearPlan();
  ASSERT_TRUE(plan.ok());
  // The sink's input is the aggregate: provenance must fail.
  auto spec = ResolveFieldSpec(*plan, plan->SinkId(), 0);
  EXPECT_TRUE(spec.status().IsFailedPrecondition());
}

TEST(AnnotateFilterSelectivitiesTest, FillsHints) {
  auto plan = testing::LinearPlan();
  ASSERT_TRUE(plan.ok());
  auto f = plan->FindOperator("filter");
  ASSERT_TRUE(f.ok());
  EXPECT_LT(plan->op(*f).selectivity_hint, 0.0);
  ASSERT_TRUE(AnnotateFilterSelectivities(&*plan).ok());
  // filter: val > 50 on uniform[0,100) => sel 0.5.
  EXPECT_NEAR(plan->op(*f).selectivity_hint, 0.5, 1e-6);
  EXPECT_TRUE(plan->validated());
}

}  // namespace
}  // namespace pdsp
