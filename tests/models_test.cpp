// Tests for the model layer: Table I formulas, subgradients, and the
// sensitivity contracts the privacy mechanisms rely on (Appendix A).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "models/gradient_check.hpp"
#include "models/linear_svm.hpp"
#include "models/logistic_regression.hpp"
#include "models/ridge_regression.hpp"
#include "rng/distributions.hpp"

using namespace crowdml;
using models::Sample;

namespace {

Sample random_classification_sample(rng::Engine& eng, std::size_t dim,
                                    std::size_t classes) {
  linalg::Vector x(dim);
  for (double& v : x) v = rng::normal(eng);
  linalg::l1_normalize(x);
  // Ensure strict ||x||_1 <= 1 even if it started below.
  const double y = static_cast<double>(rng::uniform_index(eng, classes));
  return Sample(std::move(x), y);
}

linalg::Vector random_params(rng::Engine& eng, std::size_t n, double scale) {
  linalg::Vector w(n);
  for (double& v : w) v = rng::normal(eng) * scale;
  return w;
}

}  // namespace

TEST(MulticlassLogistic, Dimensions) {
  models::MulticlassLogisticRegression m(10, 50, 0.1);
  EXPECT_EQ(m.feature_dim(), 50u);
  EXPECT_EQ(m.num_classes(), 10u);
  EXPECT_EQ(m.param_dim(), 500u);
  EXPECT_TRUE(m.is_classifier());
  EXPECT_DOUBLE_EQ(m.lambda(), 0.1);
}

TEST(MulticlassLogistic, LossAtZeroIsLogC) {
  models::MulticlassLogisticRegression m(4, 3, 0.0);
  const linalg::Vector w(m.param_dim(), 0.0);
  const Sample s(linalg::Vector{0.1, 0.2, 0.3}, 2.0);
  EXPECT_NEAR(m.loss(w, s), std::log(4.0), 1e-12);
}

TEST(MulticlassLogistic, PosteriorSumsToOne) {
  rng::Engine eng(1);
  models::MulticlassLogisticRegression m(5, 8, 0.0);
  const auto w = random_params(eng, m.param_dim(), 2.0);
  const auto s = random_classification_sample(eng, 8, 5);
  const linalg::Vector p = m.posterior(w, s.x);
  EXPECT_NEAR(linalg::sum(p), 1.0, 1e-12);
  for (double v : p) EXPECT_GE(v, 0.0);
}

TEST(MulticlassLogistic, PredictionIsArgmaxScore) {
  rng::Engine eng(2);
  models::MulticlassLogisticRegression m(6, 4, 0.0);
  for (int i = 0; i < 20; ++i) {
    const auto w = random_params(eng, m.param_dim(), 1.0);
    const auto s = random_classification_sample(eng, 4, 6);
    const linalg::Vector sc = m.scores(w, s.x);
    EXPECT_EQ(m.predict_class(w, s.x),
              static_cast<int>(linalg::argmax(sc)));
  }
}

TEST(MulticlassLogistic, NumericallyStableForLargeScores) {
  models::MulticlassLogisticRegression m(3, 2, 0.0);
  linalg::Vector w(6, 0.0);
  w[0] = 1000.0;  // class 0 dominated by huge score
  const Sample s(linalg::Vector{1.0, 0.0}, 0.0);
  EXPECT_TRUE(std::isfinite(m.loss(w, s)));
  linalg::Vector g(6, 0.0);
  m.add_loss_gradient(w, s, g);
  EXPECT_TRUE(linalg::all_finite(g));
  EXPECT_NEAR(m.loss(w, s), 0.0, 1e-9);
}

TEST(BinaryLogistic, ProbabilityAndPrediction) {
  models::BinaryLogisticRegression m(2, 0.0);
  const linalg::Vector w{2.0, 0.0};
  EXPECT_NEAR(m.probability(w, {0.0, 0.0}), 0.5, 1e-12);
  EXPECT_GT(m.probability(w, {1.0, 0.0}), 0.5);
  EXPECT_EQ(m.predict_class(w, {1.0, 0.0}), 1);
  EXPECT_EQ(m.predict_class(w, {-1.0, 0.0}), 0);
}

TEST(BinaryLogistic, StableForExtremeLogits) {
  models::BinaryLogisticRegression m(1, 0.0);
  const linalg::Vector w{500.0};
  EXPECT_NEAR(m.probability(w, {1.0}), 1.0, 1e-12);
  EXPECT_NEAR(m.probability(w, {-1.0}), 0.0, 1e-12);
  EXPECT_TRUE(std::isfinite(m.loss(w, Sample({1.0}, 0.0))));
  EXPECT_TRUE(std::isfinite(m.loss(w, Sample({-1.0}, 1.0))));
}

TEST(MulticlassSvm, ZeroLossInsideMargin) {
  models::MulticlassSvm m(3, 2, 0.0);
  linalg::Vector w(6, 0.0);
  w[0] = 10.0;  // class 0 strongly preferred on first coordinate
  const Sample s(linalg::Vector{1.0, 0.0}, 0.0);
  EXPECT_DOUBLE_EQ(m.loss(w, s), 0.0);
  linalg::Vector g(6, 0.0);
  m.add_loss_gradient(w, s, g);
  for (double v : g) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(MulticlassSvm, HingeAtZeroParamsIsOne) {
  models::MulticlassSvm m(3, 2, 0.0);
  const linalg::Vector w(6, 0.0);
  const Sample s(linalg::Vector{0.5, 0.5}, 1.0);
  EXPECT_DOUBLE_EQ(m.loss(w, s), 1.0);
}

TEST(MulticlassSvm, SubgradientTouchesTwoBlocks) {
  models::MulticlassSvm m(3, 2, 0.0);
  const linalg::Vector w(6, 0.0);
  const Sample s(linalg::Vector{0.5, 0.25}, 2.0);
  linalg::Vector g(6, 0.0);
  m.add_loss_gradient(w, s, g);
  // True class block (2) gets -x; one violating block gets +x.
  EXPECT_DOUBLE_EQ(g[4], -0.5);
  EXPECT_DOUBLE_EQ(g[5], -0.25);
  EXPECT_DOUBLE_EQ(linalg::norm1(g), 2.0 * linalg::norm1(s.x));
}

TEST(RidgeRegression, PredictsDotProduct) {
  models::RidgeRegression m(2, 0.0, 10.0);
  EXPECT_FALSE(m.is_classifier());
  EXPECT_DOUBLE_EQ(m.predict({2.0, 3.0}, {1.0, 1.0}), 5.0);
}

TEST(RidgeRegression, QuadraticInsideClipRegion) {
  models::RidgeRegression m(1, 0.0, 10.0);
  const Sample s(linalg::Vector{1.0}, 1.0);
  EXPECT_NEAR(m.loss({3.0}, s), 0.5 * 4.0, 1e-12);  // residual 2
  linalg::Vector g(1, 0.0);
  m.add_loss_gradient({3.0}, s, g);
  EXPECT_NEAR(g[0], 2.0, 1e-12);
}

TEST(RidgeRegression, LinearOutsideClipRegion) {
  models::RidgeRegression m(1, 0.0, 1.0);
  const Sample s(linalg::Vector{1.0}, 0.0);
  // Residual 5 clips to 1: gradient magnitude capped at 1 * |x|.
  linalg::Vector g(1, 0.0);
  m.add_loss_gradient({5.0}, s, g);
  EXPECT_NEAR(g[0], 1.0, 1e-12);
  // Loss is the Huber linear branch: b|r| - b^2/2.
  EXPECT_NEAR(m.loss({5.0}, s), 5.0 - 0.5, 1e-12);
}

TEST(ModelHelpers, AveragedGradientIncludesRegularizer) {
  rng::Engine eng(3);
  models::MulticlassLogisticRegression m(3, 4, 0.5);
  const auto w = random_params(eng, m.param_dim(), 1.0);
  models::SampleSet batch;
  for (int i = 0; i < 5; ++i)
    batch.push_back(random_classification_sample(eng, 4, 3));

  const linalg::Vector g = m.averaged_gradient(w, batch);

  linalg::Vector manual(m.param_dim(), 0.0);
  for (const auto& s : batch) m.add_loss_gradient(w, s, manual);
  linalg::scal(0.2, manual);
  linalg::axpy(0.5, w, manual);
  for (std::size_t i = 0; i < g.size(); ++i) EXPECT_NEAR(g[i], manual[i], 1e-12);
}

TEST(ModelHelpers, RegularizedRiskAddsL2Term) {
  models::MulticlassLogisticRegression m(2, 2, 1.0);
  const linalg::Vector w{1.0, 0.0, 0.0, 1.0};
  models::SampleSet batch{Sample({0.0, 0.0}, 0.0)};
  // Loss at zero-score sample = log 2; reg = 0.5 * ||w||^2 = 1.
  EXPECT_NEAR(m.regularized_risk(w, batch), std::log(2.0) + 1.0, 1e-12);
}

TEST(ModelHelpers, ErrorRate) {
  models::BinaryLogisticRegression m(1, 0.0);
  const linalg::Vector w{1.0};
  models::SampleSet set{Sample({1.0}, 1.0), Sample({-1.0}, 0.0),
                        Sample({1.0}, 0.0), Sample({-1.0}, 1.0)};
  EXPECT_DOUBLE_EQ(m.error_rate(w, set), 0.5);
  EXPECT_DOUBLE_EQ(m.error_rate(w, models::SampleSet{}), 0.0);
}

// ---------------------------------------------------------------------------
// Gradient correctness: analytic vs central differences, across models.
// ---------------------------------------------------------------------------

struct ModelFactory {
  const char* name;
  std::unique_ptr<models::Model> (*make)();
};

// Without this, gtest prints the raw struct bytes (two pointers) into the
// listed test name, so the name would change with every address layout.
void PrintTo(const ModelFactory& f, std::ostream* os) { *os << f.name; }

std::unique_ptr<models::Model> make_mc_logistic() {
  return std::make_unique<models::MulticlassLogisticRegression>(4, 6, 0.0);
}
std::unique_ptr<models::Model> make_binary_logistic() {
  return std::make_unique<models::BinaryLogisticRegression>(6, 0.0);
}
std::unique_ptr<models::Model> make_ridge() {
  return std::make_unique<models::RidgeRegression>(6, 0.0, 100.0);
}

class GradientCheckProperty : public ::testing::TestWithParam<ModelFactory> {};

TEST_P(GradientCheckProperty, AnalyticMatchesNumeric) {
  rng::Engine eng(101);
  auto model = GetParam().make();
  for (int trial = 0; trial < 20; ++trial) {
    const auto w = random_params(eng, model->param_dim(), 1.5);
    Sample s = random_classification_sample(eng, model->feature_dim(),
                                            model->num_classes());
    if (!model->is_classifier()) s.y = rng::normal(eng);
    const auto res = models::check_gradient(*model, w, s);
    EXPECT_LT(res.max_rel_error, 1e-5)
        << GetParam().name << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Models, GradientCheckProperty,
    ::testing::Values(ModelFactory{"mc_logistic", &make_mc_logistic},
                      ModelFactory{"binary_logistic", &make_binary_logistic},
                      ModelFactory{"ridge", &make_ridge}),
    [](const auto& info) { return std::string(info.param.name); });

// SVM is non-smooth; check the gradient only at points where the margin is
// strictly violated or strictly satisfied (perturb w away from kinks).
TEST(MulticlassSvmGradient, MatchesNumericAwayFromKinks) {
  rng::Engine eng(202);
  models::MulticlassSvm m(3, 5, 0.0);
  int checked = 0;
  for (int trial = 0; trial < 60 && checked < 20; ++trial) {
    const auto w = random_params(eng, m.param_dim(), 2.0);
    const auto s = random_classification_sample(eng, 5, 3);
    const double margin = m.loss(w, s);
    if (std::abs(margin) < 1e-3 || std::abs(margin - 0.0) < 1e-3) continue;
    const auto res = models::check_gradient(m, w, s, 1e-7);
    EXPECT_LT(res.max_rel_error, 1e-4);
    ++checked;
  }
  EXPECT_GE(checked, 10);
}

// ---------------------------------------------------------------------------
// Sensitivity property (Appendix A): for any two samples with ||x||_1 <= 1,
// the gradient difference's L1 norm is bounded by the declared sensitivity.
// ---------------------------------------------------------------------------

class SensitivityProperty : public ::testing::TestWithParam<ModelFactory> {};

TEST_P(SensitivityProperty, GradientDifferenceBounded) {
  rng::Engine eng(303);
  auto model = GetParam().make();
  const double bound = model->per_sample_l1_sensitivity();
  for (int trial = 0; trial < 200; ++trial) {
    const auto w = random_params(eng, model->param_dim(), 3.0);
    Sample a = random_classification_sample(eng, model->feature_dim(),
                                            model->num_classes());
    Sample b = random_classification_sample(eng, model->feature_dim(),
                                            model->num_classes());
    if (!model->is_classifier()) {
      a.y = rng::uniform(eng, -50.0, 50.0);  // within ridge residual bound
      b.y = rng::uniform(eng, -50.0, 50.0);
    }
    linalg::Vector ga(model->param_dim(), 0.0);
    linalg::Vector gb(model->param_dim(), 0.0);
    model->add_loss_gradient(w, a, ga);
    model->add_loss_gradient(w, b, gb);
    EXPECT_LE(linalg::norm1(linalg::sub(ga, gb)), bound + 1e-9)
        << GetParam().name;
  }
}

std::unique_ptr<models::Model> make_svm_for_sens() {
  return std::make_unique<models::MulticlassSvm>(4, 6, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Models, SensitivityProperty,
    ::testing::Values(ModelFactory{"mc_logistic", &make_mc_logistic},
                      ModelFactory{"binary_logistic", &make_binary_logistic},
                      ModelFactory{"svm", &make_svm_for_sens},
                      ModelFactory{"ridge", &make_ridge}),
    [](const auto& info) { return std::string(info.param.name); });

// The paper's tighter statement: per-sample multiclass-logistic gradient
// L1 norm is 2(1 - P_y) ||x||_1 <= 2.
TEST(MulticlassLogistic, PerSampleGradientL1AtMostTwo) {
  rng::Engine eng(404);
  models::MulticlassLogisticRegression m(10, 20, 0.0);
  for (int trial = 0; trial < 100; ++trial) {
    const auto w = random_params(eng, m.param_dim(), 3.0);
    const auto s = random_classification_sample(eng, 20, 10);
    linalg::Vector g(m.param_dim(), 0.0);
    m.add_loss_gradient(w, s, g);
    const linalg::Vector p = m.posterior(w, s.x);
    const double expected =
        2.0 * (1.0 - p[static_cast<std::size_t>(s.label())]) * linalg::norm1(s.x);
    EXPECT_NEAR(linalg::norm1(g), expected, 1e-9);
    EXPECT_LE(linalg::norm1(g), 2.0 + 1e-9);
  }
}
