#include "core/report.hpp"

#include <algorithm>

#include "util/json.hpp"

namespace aa::core {

void MeasureOneAccumulator::add(std::uint64_t seed, const TrialVerdict& v) {
  ++trials_;
  bool bad = false;
  if (!v.agreement) {
    ++agreement_violations_;
    bad = true;
  }
  if (!v.validity) {
    ++validity_violations_;
    bad = true;
  }
  if (bad) violating_seeds_.push_back(seed);
  if (v.decided) {
    ++decided_runs_;
    metric_sum_ += v.metric;
  }
  if (v.all_decided) ++all_decided_runs_;
}

void MeasureOneAccumulator::merge(const MeasureOneAccumulator& other) {
  trials_ += other.trials_;
  agreement_violations_ += other.agreement_violations_;
  validity_violations_ += other.validity_violations_;
  decided_runs_ += other.decided_runs_;
  all_decided_runs_ += other.all_decided_runs_;
  metric_sum_ += other.metric_sum_;
  violating_seeds_.insert(violating_seeds_.end(),
                          other.violating_seeds_.begin(),
                          other.violating_seeds_.end());
}

void MeasureOneAccumulator::restore(
    std::int64_t trials, std::int64_t agreement_violations,
    std::int64_t validity_violations, std::int64_t decided_runs,
    std::int64_t all_decided_runs, std::int64_t metric_sum,
    std::span<const std::uint64_t> violating_seeds) {
  trials_ = trials;
  agreement_violations_ = agreement_violations;
  validity_violations_ = validity_violations;
  decided_runs_ = decided_runs;
  all_decided_runs_ = all_decided_runs;
  metric_sum_ = metric_sum;
  violating_seeds_.assign(violating_seeds.begin(), violating_seeds.end());
}

MeasureOneReport MeasureOneAccumulator::finalize(bool async_metric) const {
  MeasureOneReport rep;
  rep.trials = static_cast<int>(trials_);
  rep.agreement_violations = static_cast<int>(agreement_violations_);
  rep.validity_violations = static_cast<int>(validity_violations_);
  rep.decided_runs = static_cast<int>(decided_runs_);
  rep.all_decided_runs = static_cast<int>(all_decided_runs_);
  const double mean =
      decided_runs_ > 0
          ? static_cast<double>(metric_sum_) / static_cast<double>(decided_runs_)
          : 0.0;
  rep.mean_windows_to_first = mean;
  if (async_metric) rep.mean_chain_at_decision = mean;
  rep.violating_seeds = violating_seeds_;
  std::sort(rep.violating_seeds.begin(), rep.violating_seeds.end());
  return rep;
}

namespace {

template <class Range>
util::Json int_array(const Range& values) {
  util::Json out = util::Json::array();
  for (const auto v : values) out.push(v);
  return out;
}

}  // namespace

std::string latency_report_json(const lens::LatencyReport& rep) {
  util::Json doc;
  doc["n"] = rep.n;
  doc["t"] = rep.t;
  doc["trials"] = rep.trials;
  doc["deciders"] = rep.deciders;
  doc["blame_threshold"] = rep.blame_threshold;
  util::Json& senders = doc["senders"] = util::Json::array();
  for (std::size_t s = 0; s < rep.senders.size(); ++s) {
    const lens::SenderLatency& row = rep.senders[s];
    util::Json& out = senders.push(util::Json::object());
    out["sender"] = s;
    out["sent"] = row.sent;
    out["equivocations"] = row.equivocations;
    out["delivered"] = row.delivered;
    out["suppressed"] = row.suppressed;
    out["confirm_count"] = row.confirm_count;
    out["mean_confirm_windows"] = row.mean_confirm_windows;
    out["mean_confirm_steps"] = row.mean_confirm_steps;
    out["delivered_share"] = row.delivered_share;
    out["confirmed_share"] = row.confirmed_share;
    out["censorship_score"] = row.censorship_score;
    out["delivery_hist"] = int_array(row.delivery_hist);
    out["confirm_hist"] = int_array(row.confirm_hist);
  }
  doc["blamed_equivocators"] = int_array(rep.blamed_equivocators);
  doc["blamed_censored"] = int_array(rep.blamed_censored);
  return doc.dump();
}

}  // namespace aa::core
