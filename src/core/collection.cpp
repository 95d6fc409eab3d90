#include "core/collection.h"

namespace anufs::core {

std::vector<ServerId> ReportCollector::close_round(
    const std::vector<ServerId>& members,
    const std::vector<ServerReport>& arrived) {
  const auto slot = [this](ServerId id) -> Slot& {
    if (id.value >= slots_.size()) slots_.resize(std::size_t{id.value} + 1);
    return slots_[id.value];
  };
  ++round_;
  // Only members' slots are read back: a stale report's is never used.
  for (const ServerReport& r : arrived) {
    Slot& s = slot(r.id);
    s.heard_in = round_;
    s.report = r;
  }
  std::vector<ServerId> suspects;
  for (const ServerId id : members) {
    Slot& s = slot(id);
    s.misses = s.heard_in == round_ ? 0 : s.misses + 1;
    if (s.misses >= config_.miss_threshold) {
      suspects.push_back(id);
      s.misses = 0;
    }
  }
  return suspects;
}

std::vector<ServerReport> ReportCollector::padded(
    const std::vector<ServerId>& members) const {
  std::vector<ServerReport> reports;
  reports.reserve(members.size());
  for (const ServerId id : members) {
    const Slot& s = slots_.at(id.value);  // a member of the closed round
    reports.push_back(s.heard_in == round_ ? s.report
                                           : ServerReport{id, 0.0, 0});
  }
  return reports;
}

}  // namespace anufs::core
