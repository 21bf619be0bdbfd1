// Tests for the sensing substrate: FFT, synthetic accelerometer, and the
// Section V-B feature pipeline.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "baselines/central_batch.hpp"
#include "rng/distributions.hpp"
#include "models/logistic_regression.hpp"
#include "sensing/accelerometer.hpp"
#include "sensing/feature_pipeline.hpp"
#include "sensing/fft.hpp"

using namespace crowdml;
using namespace crowdml::sensing;

TEST(Fft, IsPowerOfTwo) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(63));
}

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<double> signal(8, 0.0);
  signal[0] = 1.0;
  const linalg::Vector mags = magnitude_spectrum(signal);
  for (double m : mags) EXPECT_NEAR(m, 1.0, 1e-12);
}

TEST(Fft, ConstantSignalIsPureDc) {
  std::vector<double> signal(16, 2.0);
  const linalg::Vector mags = magnitude_spectrum(signal);
  EXPECT_NEAR(mags[0], 32.0, 1e-9);
  for (std::size_t i = 1; i < mags.size(); ++i) EXPECT_NEAR(mags[i], 0.0, 1e-9);
}

TEST(Fft, SinusoidPeaksAtItsBin) {
  const std::size_t n = 64;
  std::vector<double> signal(n);
  const int k = 5;  // 5 cycles over the window
  for (std::size_t i = 0; i < n; ++i)
    signal[i] = std::sin(2.0 * std::numbers::pi * k * static_cast<double>(i) /
                         static_cast<double>(n));
  const linalg::Vector mags = magnitude_spectrum(signal);
  // Energy concentrates in bin k and its conjugate-symmetric twin n-k.
  EXPECT_NEAR(mags[k], static_cast<double>(n) / 2.0, 1e-9);
  EXPECT_NEAR(mags[n - k], mags[k], 1e-9);
  for (std::size_t i = 0; i < n; ++i) {
    if (i != static_cast<std::size_t>(k) && i != n - k) {
      EXPECT_NEAR(mags[i], 0.0, 1e-9);
    }
  }
}

TEST(Fft, InverseRoundTrip) {
  std::vector<std::complex<double>> data{
      {1.0, 0.0}, {2.0, -1.0}, {0.5, 0.5}, {-3.0, 2.0},
      {0.0, 0.0}, {1.0, 1.0},  {4.0, 0.0}, {-1.0, -1.0}};
  const auto original = data;
  fft(data, false);
  fft(data, true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), original[i].real(), 1e-10);
    EXPECT_NEAR(data[i].imag(), original[i].imag(), 1e-10);
  }
}

TEST(Fft, ParsevalEnergyConservation) {
  rng::Engine eng(1);
  std::vector<double> signal(32);
  double time_energy = 0.0;
  for (double& s : signal) {
    s = rng::normal(eng);
    time_energy += s * s;
  }
  const linalg::Vector mags = magnitude_spectrum(signal);
  double freq_energy = 0.0;
  for (double m : mags) freq_energy += m * m;
  EXPECT_NEAR(freq_energy / 32.0, time_energy, 1e-9);
}

TEST(Accelerometer, ActivityNames) {
  EXPECT_STREQ(activity_name(Activity::kStill), "Still");
  EXPECT_STREQ(activity_name(Activity::kOnFoot), "OnFoot");
  EXPECT_STREQ(activity_name(Activity::kInVehicle), "InVehicle");
}

TEST(Accelerometer, StillMagnitudeNearGravity) {
  AccelerometerSimulator sim(rng::Engine(2), 20.0);
  sim.set_activity(Activity::kStill);
  double sum = 0.0;
  for (int i = 0; i < 200; ++i) sum += sim.next().magnitude();
  EXPECT_NEAR(sum / 200.0, 9.81, 0.1);
}

TEST(Accelerometer, WalkingHasHigherVarianceThanStill) {
  auto variance_of = [](Activity a) {
    AccelerometerSimulator sim(rng::Engine(3), 20.0);
    sim.set_activity(a);
    double sum = 0.0, sumsq = 0.0;
    const int n = 400;
    for (int i = 0; i < n; ++i) {
      const double m = sim.next().magnitude();
      sum += m;
      sumsq += m * m;
    }
    const double mean = sum / n;
    return sumsq / n - mean * mean;
  };
  EXPECT_GT(variance_of(Activity::kOnFoot), 10.0 * variance_of(Activity::kStill));
}

TEST(Accelerometer, ClockAdvances) {
  AccelerometerSimulator sim(rng::Engine(4), 20.0);
  sim.next();
  sim.next();
  EXPECT_NEAR(sim.time_seconds(), 0.1, 1e-12);
}

TEST(WindowFeaturizer, EmitsEveryWindowSamples) {
  WindowFeaturizer f(8);
  for (int i = 0; i < 7; ++i) EXPECT_FALSE(f.push(1.0).has_value());
  const auto feature = f.push(1.0);
  ASSERT_TRUE(feature.has_value());
  EXPECT_EQ(feature->size(), 8u);
  EXPECT_EQ(f.pending(), 0u);
}

TEST(WindowFeaturizer, FeatureIsL1Normalized) {
  WindowFeaturizer f(16);
  rng::Engine eng(5);
  std::optional<linalg::Vector> feature;
  while (!feature) feature = f.push(9.81 + rng::normal(eng));
  EXPECT_NEAR(linalg::norm1(*feature), 1.0, 1e-9);
}

TEST(LabelChangeTrigger, EmitsOnlyOnChange) {
  LabelChangeTrigger t;
  EXPECT_TRUE(t.should_emit(0));   // first always emits
  EXPECT_FALSE(t.should_emit(0));
  EXPECT_TRUE(t.should_emit(1));
  EXPECT_FALSE(t.should_emit(1));
  EXPECT_TRUE(t.should_emit(0));
  t.reset();
  EXPECT_TRUE(t.should_emit(0));
}

TEST(ActivityFeatureStream, EmitsValidSamples) {
  ActivityFeatureStream::Options opt;
  opt.mean_dwell_seconds = 10.0;
  ActivityFeatureStream stream(rng::Engine(6), opt);
  for (int i = 0; i < 10; ++i) {
    const models::Sample s = stream.next();
    EXPECT_EQ(s.x.size(), 64u);
    EXPECT_GE(s.label(), 0);
    EXPECT_LT(s.label(), 3);
    EXPECT_LE(linalg::norm1(s.x), 1.0 + 1e-9);
  }
  EXPECT_EQ(stream.samples_emitted(), 10);
  EXPECT_GE(stream.windows_seen(), stream.samples_emitted());
}

TEST(ActivityFeatureStream, TriggerSuppressesRepeats) {
  // Consecutive emitted samples never share a label when the trigger is on.
  ActivityFeatureStream::Options opt;
  opt.mean_dwell_seconds = 30.0;
  opt.label_change_trigger = true;
  ActivityFeatureStream stream(rng::Engine(7), opt);
  int prev = stream.next().label();
  for (int i = 0; i < 20; ++i) {
    const int cur = stream.next().label();
    EXPECT_NE(cur, prev);
    prev = cur;
  }
}

TEST(ActivityFeatureStream, TriggerReducesEffectiveRate) {
  // Long dwells + trigger => far fewer emitted samples than windows (the
  // paper's 1/30 Hz -> ~1/352 Hz reduction).
  ActivityFeatureStream::Options opt;
  opt.mean_dwell_seconds = 60.0;
  ActivityFeatureStream stream(rng::Engine(8), opt);
  for (int i = 0; i < 10; ++i) stream.next();
  EXPECT_GT(stream.windows_seen(), 3 * stream.samples_emitted());
}

TEST(ActivityWindows, FeatureDiffersAcrossActivities) {
  rng::Engine eng(9);
  const auto still = activity_window_feature(eng, Activity::kStill);
  const auto foot = activity_window_feature(eng, Activity::kOnFoot);
  EXPECT_GT(linalg::norm1(linalg::sub(still, foot)), 0.1);
}

TEST(ActivityWindows, ClassesAreLearnable) {
  // A batch logistic classifier on 300 synthetic windows should reach low
  // training-set error — the property Fig. 3 depends on.
  rng::Engine eng(10);
  const models::SampleSet samples = generate_activity_samples(eng, 300);
  models::MulticlassLogisticRegression model(3, 64, 0.0);
  baselines::BatchTrainerConfig cfg;
  cfg.iterations = 150;
  cfg.learning_rate = 50.0;
  cfg.projection_radius = 500.0;
  const auto res =
      baselines::train_central_batch(model, samples, samples, cfg);
  EXPECT_LT(res.final_test_error, 0.05);
}

TEST(GenerateActivitySamples, UniformLabelCoverage) {
  rng::Engine eng(11);
  const auto samples = generate_activity_samples(eng, 300);
  std::array<int, 3> hist{};
  for (const auto& s : samples) ++hist[static_cast<std::size_t>(s.label())];
  for (int c : hist) EXPECT_GT(c, 60);
}
