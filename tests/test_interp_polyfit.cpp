// Curve-fitting tests (device-model calibration support).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "numerics/polyfit.hpp"

namespace xl::numerics {
namespace {

TEST(Polyfit, RecoverQuadratic) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (double x = -3.0; x <= 3.0; x += 0.5) {
    xs.push_back(x);
    ys.push_back(2.0 - x + 0.5 * x * x);
  }
  const auto c = polyfit(xs, ys, 2);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_NEAR(c[0], 2.0, 1e-8);
  EXPECT_NEAR(c[1], -1.0, 1e-8);
  EXPECT_NEAR(c[2], 0.5, 1e-8);
}

TEST(Polyfit, UnderdeterminedThrows) {
  const std::vector<double> xs{1.0, 2.0};
  const std::vector<double> ys{1.0, 2.0};
  EXPECT_THROW((void)polyfit(xs, ys, 2), std::invalid_argument);
}

TEST(Polyval, HornerEvaluation) {
  const std::vector<double> c{1.0, 2.0, 3.0};  // 1 + 2x + 3x^2
  EXPECT_DOUBLE_EQ(polyval(c, 2.0), 17.0);
  EXPECT_DOUBLE_EQ(polyval(c, 0.0), 1.0);
}

TEST(ExponentialFit, RecoverParameters) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (double x = 0.0; x <= 10.0; x += 1.0) {
    xs.push_back(x);
    ys.push_back(0.8 * std::exp(-x / 3.0));
  }
  const ExponentialFit fit = fit_exponential(xs, ys);
  EXPECT_NEAR(fit.a, 0.8, 1e-9);
  EXPECT_NEAR(fit.b, -1.0 / 3.0, 1e-9);
  EXPECT_NEAR(fit(1.5), 0.8 * std::exp(-0.5), 1e-9);
}

TEST(ExponentialFit, RejectsNonPositive) {
  const std::vector<double> xs{0.0, 1.0};
  const std::vector<double> ys{1.0, -1.0};
  EXPECT_THROW((void)fit_exponential(xs, ys), std::invalid_argument);
}

TEST(RSquared, PerfectFitIsOne) {
  const std::vector<double> y{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(r_squared(y, y), 1.0);
}

TEST(RSquared, MeanPredictorIsZero) {
  const std::vector<double> y{1.0, 2.0, 3.0};
  const std::vector<double> pred{2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(r_squared(y, pred), 0.0);
}

}  // namespace
}  // namespace xl::numerics
