#include "obs/ops.hpp"

#include <limits>
#include <utility>

namespace rrf::obs {

json::Value round_summary_to_json(const RoundSummary& summary) {
  json::Object out;
  out.emplace_back("t", "round");
  out.emplace_back("window", summary.window);
  out.emplace_back("time", summary.time);
  out.emplace_back("jain", summary.jain);
  out.emplace_back("slots", summary.slots);
  json::Object phases;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    phases.emplace_back(to_string(static_cast<Phase>(i)),
                        summary.phase_seconds[i]);
  }
  out.emplace_back("phase_seconds", std::move(phases));
  json::Array tenants;
  tenants.reserve(summary.tenants.size());
  for (const TenantRoundStat& t : summary.tenants) {
    json::Object tenant;
    tenant.emplace_back("name", t.name);
    tenant.emplace_back("share", t.share);
    tenant.emplace_back("demand", t.demand);
    tenant.emplace_back("granted", t.granted);
    tenant.emplace_back("contributed", t.contributed);
    tenant.emplace_back("gained", t.gained);
    tenants.emplace_back(std::move(tenant));
  }
  out.emplace_back("tenants", std::move(tenants));
  return out;
}

RoundSummary round_summary_from_json(const json::Value& value) {
  const json::Reader r(value, "ops", "round record");
  if (r.string("t") != "round") r.fail("record tag is not 'round'");
  RoundSummary out;
  out.window = r.size("window");
  out.time = r.number("time");
  out.jain = r.number("jain");
  out.slots = r.size("slots");
  const json::Reader phases = r.object("phase_seconds");
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    out.phase_seconds[i] = phases.number(to_string(static_cast<Phase>(i)));
  }
  const json::Array& tenants = r.array("tenants");
  out.tenants.reserve(tenants.size());
  for (const json::Value& t : tenants) {
    const json::Reader tr(t, "ops", "tenant entry");
    TenantRoundStat stat;
    stat.name = tr.string("name");
    stat.share = tr.number("share");
    stat.demand = tr.number("demand");
    // Additive since the incident-detection schema rev: older journals
    // and fixtures carry no "granted"; the ledger position is the best
    // stand-in (they coincide whenever nothing is oversold).
    stat.granted = tr.number_or("granted", stat.share);
    stat.contributed = tr.number("contributed");
    stat.gained = tr.number("gained");
    out.tenants.push_back(std::move(stat));
  }
  return out;
}

OpsHub::OpsHub(Config config) : config_(config) {
  if (config_.ring_capacity == 0) config_.ring_capacity = 1;
}

void OpsHub::publish_round(std::string line) {
  {
    MutexLock lock(mu_);
    lines_.push_back(std::move(line));
    while (lines_.size() > config_.ring_capacity) {
      lines_.pop_front();
      ++base_seq_;
    }
    ++rounds_;
    any_round_ = true;
    last_round_ = std::chrono::steady_clock::now();
  }
  cv_.notify_all();
}

std::uint64_t OpsHub::rounds_published() const {
  MutexLock lock(mu_);
  return rounds_;
}

std::uint64_t OpsHub::oldest_seq() const {
  MutexLock lock(mu_);
  return base_seq_;
}

std::uint64_t OpsHub::next_seq() const {
  MutexLock lock(mu_);
  return base_seq_ + lines_.size();
}

std::size_t OpsHub::wait_lines(std::uint64_t* cursor,
                               std::vector<std::string>* out,
                               std::chrono::milliseconds timeout,
                               std::uint64_t* dropped) const {
  MutexLock lock(mu_);
  // The wait predicate runs under mu_ but from a lambda the analysis
  // cannot see through; assert_held() marks the boundary.
  cv_.wait_for(lock, timeout, [&] {
    mu_.assert_held();
    return base_seq_ + lines_.size() > *cursor;
  });
  if (*cursor < base_seq_) {
    if (dropped != nullptr) *dropped += base_seq_ - *cursor;
    *cursor = base_seq_;
  }
  std::size_t appended = 0;
  while (*cursor < base_seq_ + lines_.size()) {
    out->push_back(lines_[static_cast<std::size_t>(*cursor - base_seq_)]);
    ++*cursor;
    ++appended;
  }
  return appended;
}

double OpsHub::seconds_since_round() const {
  MutexLock lock(mu_);
  if (!any_round_) return std::numeric_limits<double>::infinity();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       last_round_)
      .count();
}

}  // namespace rrf::obs
