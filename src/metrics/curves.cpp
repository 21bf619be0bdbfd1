#include "metrics/curves.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iomanip>
#include <ostream>

namespace crowdml::metrics {

double LearningCurve::final_value() const {
  assert(!points_.empty());
  return points_.back().y;
}

double LearningCurve::tail_mean(std::size_t k) const {
  assert(!points_.empty());
  k = std::min(k, points_.size());
  double acc = 0.0;
  for (std::size_t i = points_.size() - k; i < points_.size(); ++i)
    acc += points_[i].y;
  return acc / static_cast<double>(k);
}

void CurveAggregator::add_trial(const LearningCurve& curve) {
  const auto& pts = curve.points();
  if (trials_ == 0) {
    xs_.resize(pts.size());
    sum_.assign(pts.size(), 0.0);
    sum_sq_.assign(pts.size(), 0.0);
    for (std::size_t i = 0; i < pts.size(); ++i) xs_[i] = pts[i].x;
  }
  assert(pts.size() == xs_.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    assert(pts[i].x == xs_[i]);
    sum_[i] += pts[i].y;
    sum_sq_[i] += pts[i].y * pts[i].y;
  }
  ++trials_;
}

LearningCurve CurveAggregator::mean() const {
  assert(trials_ > 0);
  LearningCurve out;
  for (std::size_t i = 0; i < xs_.size(); ++i)
    out.record(xs_[i], sum_[i] / static_cast<double>(trials_));
  return out;
}

LearningCurve CurveAggregator::stddev() const {
  assert(trials_ > 0);
  LearningCurve out;
  const auto n = static_cast<double>(trials_);
  for (std::size_t i = 0; i < xs_.size(); ++i) {
    const double m = sum_[i] / n;
    const double var = std::max(0.0, sum_sq_[i] / n - m * m);
    out.record(xs_[i], std::sqrt(var));
  }
  return out;
}

void TimeAveragedError::observe(bool misclassified) {
  ++count_;
  if (misclassified) ++errors_;
  curve_.record(static_cast<double>(count_), value());
}

double TimeAveragedError::value() const {
  return count_ == 0 ? 0.0
                     : static_cast<double>(errors_) / static_cast<double>(count_);
}

void write_curves_csv(std::ostream& out, const std::vector<std::string>& names,
                      const std::vector<LearningCurve>& curves) {
  assert(names.size() == curves.size() && !curves.empty());
  out << "x";
  for (const auto& n : names) out << ',' << n;
  out << '\n';
  const std::size_t rows = curves.front().size();
  assert(std::all_of(curves.begin(), curves.end(),
                     [rows](const LearningCurve& c) { return c.size() == rows; }));
  for (std::size_t r = 0; r < rows; ++r) {
    out << curves.front().points()[r].x;
    for (const auto& c : curves) out << ',' << c.points()[r].y;
    out << '\n';
  }
}

void print_curve_table(std::ostream& out, const std::string& x_label,
                       const std::vector<std::string>& names,
                       const std::vector<LearningCurve>& curves,
                       std::size_t max_rows) {
  assert(names.size() == curves.size() && !curves.empty());
  const std::size_t rows = curves.front().size();

  out << std::setw(12) << x_label;
  for (const auto& n : names) out << std::setw(22) << n;
  out << '\n';

  // Subsample rows evenly if there are too many.
  const std::size_t stride = rows <= max_rows ? 1 : (rows + max_rows - 1) / max_rows;
  out << std::fixed << std::setprecision(4);
  for (std::size_t r = 0; r < rows; r += stride) {
    out << std::setw(12) << static_cast<long long>(curves.front().points()[r].x);
    for (const auto& c : curves) out << std::setw(22) << c.points()[r].y;
    out << '\n';
  }
  if ((rows - 1) % stride != 0) {
    const std::size_t r = rows - 1;
    out << std::setw(12) << static_cast<long long>(curves.front().points()[r].x);
    for (const auto& c : curves) out << std::setw(22) << c.points()[r].y;
    out << '\n';
  }
  out.unsetf(std::ios_base::floatfield);
}

}  // namespace crowdml::metrics
