#include "core/activity.hpp"

#include <algorithm>

namespace tzgeo::core {

void ActivityTrace::add(std::uint64_t user, tz::UtcSeconds time) {
  const std::uint32_t handle = ids_.intern(user);
  if (handle == events_.size()) events_.emplace_back();
  events_[handle].push_back(time);
  ++total_;
}

void ActivityTrace::adopt(std::uint64_t user, std::vector<tz::UtcSeconds>&& events) {
  const std::uint32_t handle = ids_.intern(user);
  total_ += events.size();
  if (handle == events_.size()) {
    events_.push_back(std::move(events));
  } else {
    auto& dst = events_[handle];
    dst.insert(dst.end(), events.begin(), events.end());
  }
}

void ActivityTrace::add(std::string_view identity, tz::UtcSeconds time) {
  add(user_id_of(identity), time);
}

const std::vector<tz::UtcSeconds>& ActivityTrace::events_of(std::uint64_t user) const {
  static const std::vector<tz::UtcSeconds> kEmpty;
  const std::uint32_t handle = ids_.find(user);
  return handle == util::HandleTable::npos ? kEmpty : events_[handle];
}

ActivityTrace::UsersView ActivityTrace::users() const {
  std::vector<UsersView::Entry> entries;
  entries.reserve(ids_.size());
  const auto& keys = ids_.keys();
  for (std::size_t handle = 0; handle < keys.size(); ++handle) {
    entries.push_back(UsersView::Entry{keys[handle], &events_[handle]});
  }
  std::sort(entries.begin(), entries.end(),
            [](const UsersView::Entry& a, const UsersView::Entry& b) { return a.id < b.id; });
  return UsersView{std::move(entries)};
}

void ActivityTrace::reserve(std::size_t n) {
  ids_.reserve(n);
  events_.reserve(n);
}

ActivityTrace ActivityTrace::window(tz::UtcSeconds from, tz::UtcSeconds to) const {
  ActivityTrace result;
  const auto& keys = ids_.keys();
  for (std::size_t handle = 0; handle < keys.size(); ++handle) {
    for (const tz::UtcSeconds t : events_[handle]) {
      if (t >= from && t < to) result.add(keys[handle], t);
    }
  }
  return result;
}

}  // namespace tzgeo::core
