#include "core/server.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "rng/distributions.hpp"

namespace crowdml::core {

Server::Server(ServerConfig config, std::unique_ptr<opt::Updater> updater,
               rng::Engine eng)
    : config_(config), updater_(std::move(updater)) {
  assert(config_.param_dim > 0);
  assert(updater_);
  w_.assign(config_.param_dim, 0.0);
  if (config_.init_scale > 0.0)
    for (double& v : w_)
      v = rng::uniform(eng, -config_.init_scale, config_.init_scale);
  total_label_counts_hat_.assign(config_.num_classes, 0);
}

net::ParamsMessage Server::handle_checkout(std::uint64_t /*device_id*/) {
  std::lock_guard lock(mu_);
  net::ParamsMessage msg;
  msg.version = version_;
  msg.accepted = !stopping_criteria_met_locked();
  if (msg.accepted) msg.w = w_;
  return msg;
}

net::AckMessage Server::handle_checkin(const net::CheckinMessage& msg,
                                       net::ByteSpan payload) {
  std::lock_guard lock(mu_);
  if (stopping_criteria_met_locked())
    return {false, "learning stopped"};
  if (msg.g_hat.size() != config_.param_dim) {
    ++rejected_;
    return {false, "gradient dimension mismatch"};
  }
  if (!linalg::all_finite(msg.g_hat)) {
    ++rejected_;
    return {false, "non-finite gradient"};
  }
  if (msg.ns <= 0) {
    ++rejected_;
    return {false, "non-positive sample count"};
  }
  if (msg.ny_hat.size() != config_.num_classes) {
    ++rejected_;
    return {false, "label count dimension mismatch"};
  }

  DeviceStats& st = stats_[msg.device_id];
  if (st.label_counts_hat.empty())
    st.label_counts_hat.assign(config_.num_classes, 0);
  st.samples += msg.ns;
  st.errors_hat += msg.ne_hat;
  for (std::size_t k = 0; k < config_.num_classes; ++k)
    st.label_counts_hat[k] += msg.ny_hat[k];
  ++st.checkins;

  total_samples_ += msg.ns;
  total_errors_hat_ += msg.ne_hat;
  for (std::size_t k = 0; k < config_.num_classes; ++k)
    total_label_counts_hat_[k] += msg.ny_hat[k];

  // Staleness: updates applied since this gradient's parameters were
  // checked out (Section IV-B3's delay analysis).
  if (msg.param_version <= version_) {
    const std::uint64_t stale = version_ - msg.param_version;
    staleness_sum_ += stale;
    staleness_max_ = std::max(staleness_max_, stale);
  }

  updater_->apply(w_, msg.g_hat);  // w = w - eta(t) g^ (+ projection)
  ++version_;
  if (applied_hook_ && !applied_hook_(msg, payload, version_))
    return {false, "durability failure"};
  return {true, ""};
}

void Server::set_applied_hook(AppliedHook hook) {
  std::lock_guard lock(mu_);
  applied_hook_ = std::move(hook);
}

linalg::Vector Server::parameters() const {
  std::lock_guard lock(mu_);
  return w_;
}

std::uint64_t Server::version() const {
  std::lock_guard lock(mu_);
  return version_;
}

long long Server::total_samples() const {
  std::lock_guard lock(mu_);
  return total_samples_;
}

double Server::estimated_error() const {
  std::lock_guard lock(mu_);
  if (total_samples_ == 0) return 0.0;
  const double err = static_cast<double>(total_errors_hat_) /
                     static_cast<double>(total_samples_);
  return std::clamp(err, 0.0, 1.0);
}

linalg::Vector Server::estimated_prior() const {
  std::lock_guard lock(mu_);
  linalg::Vector prior(config_.num_classes, 0.0);
  double total = 0.0;
  for (std::size_t k = 0; k < config_.num_classes; ++k) {
    prior[k] = std::max(0.0, static_cast<double>(total_label_counts_hat_[k]));
    total += prior[k];
  }
  if (total > 0.0) linalg::scal(1.0 / total, prior);
  return prior;
}

bool Server::stopping_criteria_met_locked() const {
  if (config_.max_iterations >= 0 &&
      static_cast<long long>(version_) >= config_.max_iterations)
    return true;
  if (config_.target_error >= 0.0 &&
      total_samples_ >= config_.min_samples_for_stopping) {
    const double err = static_cast<double>(total_errors_hat_) /
                       static_cast<double>(total_samples_);
    if (err <= config_.target_error) return true;
  }
  return false;
}

bool Server::stopped() const {
  std::lock_guard lock(mu_);
  return stopping_criteria_met_locked();
}

std::unordered_map<std::uint64_t, DeviceStats> Server::all_device_stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

void Server::restore(const linalg::Vector& w, std::uint64_t version,
                     const std::unordered_map<std::uint64_t, DeviceStats>& stats) {
  std::lock_guard lock(mu_);
  if (w.size() != config_.param_dim)
    throw std::invalid_argument("checkpoint parameter dimension mismatch");
  for (const auto& [id, st] : stats)
    if (!st.label_counts_hat.empty() &&
        st.label_counts_hat.size() != config_.num_classes)
      throw std::invalid_argument("checkpoint label-count dimension mismatch");

  w_ = w;
  version_ = version;
  stats_ = stats;
  total_samples_ = 0;
  total_errors_hat_ = 0;
  total_label_counts_hat_.assign(config_.num_classes, 0);
  for (const auto& [id, st] : stats_) {
    total_samples_ += st.samples;
    total_errors_hat_ += st.errors_hat;
    for (std::size_t k = 0; k < st.label_counts_hat.size(); ++k)
      total_label_counts_hat_[k] += st.label_counts_hat[k];
  }
  updater_->reset();
  updater_->restore_steps(static_cast<long long>(version));
}

std::uint64_t Server::overwrite_parameters(const linalg::Vector& w) {
  std::lock_guard lock(mu_);
  if (w.size() != config_.param_dim)
    throw std::invalid_argument("overwrite parameter dimension mismatch");
  w_ = w;
  ++version_;
  updater_->restore_steps(static_cast<long long>(version_));
  return version_;
}

DeviceStats Server::device_stats(std::uint64_t device_id) const {
  std::lock_guard lock(mu_);
  const auto it = stats_.find(device_id);
  return it == stats_.end() ? DeviceStats{} : it->second;
}

std::size_t Server::devices_seen() const {
  std::lock_guard lock(mu_);
  return stats_.size();
}

long long Server::rejected_checkins() const {
  std::lock_guard lock(mu_);
  return rejected_;
}

double Server::mean_staleness() const {
  std::lock_guard lock(mu_);
  return version_ == 0
             ? 0.0
             : static_cast<double>(staleness_sum_) / static_cast<double>(version_);
}

std::uint64_t Server::max_staleness() const {
  std::lock_guard lock(mu_);
  return staleness_max_;
}

}  // namespace crowdml::core
