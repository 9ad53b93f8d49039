#include "obs/health.hpp"

#include <algorithm>
#include <cstring>

namespace tzgeo::obs {

namespace {

[[nodiscard]] const char* health_state_name(HealthState state) noexcept {
  switch (state) {
    case HealthState::kStarting: return "starting";
    case HealthState::kIdle: return "idle";
    case HealthState::kOk: return "ok";
    case HealthState::kStalled: return "stalled";
    case HealthState::kFailed: return "failed";
  }
  return "unknown";  // unreachable
}

}  // namespace

Health::ComponentId Health::component(std::string_view name,
                                      std::uint64_t stall_after_ns) {
  if constexpr (kDisabled) return kInvalidComponent;
  // Stored names are cut to the slot capacity; compare them cut the same
  // way, or a long name would take a fresh slot on every call.
  name = name.substr(0, kNameCapacity - 1);
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t count = count_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < count; ++i) {
    const Component& c = components_[i];
    if (std::string_view{c.name, c.name_len} == name) return static_cast<ComponentId>(i);
  }
  if (count >= kMaxComponents) {
    ++refused_;
    return kInvalidComponent;
  }
  Component& c = components_[count];
  std::memcpy(c.name, name.data(), name.size());
  c.name[name.size()] = '\0';
  c.name_len = static_cast<std::uint8_t>(name.size());
  c.stall_after_ns = stall_after_ns == 0 ? kDefaultStallNs : stall_after_ns;
  c.last_beat_ns.store(0, std::memory_order_relaxed);
  c.beats.store(0, std::memory_order_relaxed);
  c.active.store(0, std::memory_order_relaxed);
  c.failed.store(false, std::memory_order_relaxed);
  count_.store(count + 1, std::memory_order_release);
  return static_cast<ComponentId>(count);
}

void Health::begin_work(ComponentId id) noexcept {
  if constexpr (kDisabled) {
    (void)id;
  } else {
    if (id >= count_.load(std::memory_order_acquire)) return;
    Component& c = components_[id];
    c.active.fetch_add(1, std::memory_order_relaxed);
    c.last_beat_ns.store(Stopwatch::now_ns(), std::memory_order_relaxed);
  }
}

void Health::end_work(ComponentId id) noexcept {
  if constexpr (kDisabled) {
    (void)id;
  } else {
    if (id >= count_.load(std::memory_order_acquire)) return;
    components_[id].active.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Health::mark_failed(ComponentId id, std::string_view reason) {
  if constexpr (kDisabled) {
    (void)id;
    (void)reason;
  } else {
    if (id >= count_.load(std::memory_order_acquire)) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    Component& c = components_[id];
    const std::size_t n = std::min(reason.size(), kReasonCapacity - 1);
    std::memcpy(c.reason, reason.data(), n);
    c.reason[n] = '\0';
    c.reason_len = static_cast<std::uint8_t>(n);
    c.failed.store(true, std::memory_order_release);
  }
}

void Health::clear_failed(ComponentId id) {
  if constexpr (kDisabled) {
    (void)id;
  } else {
    if (id >= count_.load(std::memory_order_acquire)) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    Component& c = components_[id];
    c.reason_len = 0;
    c.failed.store(false, std::memory_order_release);
  }
}

HealthState Health::judge(const Component& c, std::uint64_t now_ns,
                          std::uint64_t last_beat, std::uint64_t beats,
                          std::uint32_t active) noexcept {
  if (active == 0) return beats == 0 ? HealthState::kStarting : HealthState::kIdle;
  if (beats == 0 && last_beat == 0) return HealthState::kStarting;
  const std::uint64_t age = now_ns > last_beat ? now_ns - last_beat : 0;
  return age > c.stall_after_ns ? HealthState::kStalled : HealthState::kOk;
}

Health::Report Health::report(std::uint64_t now_ns) const {
  Report out;
  if constexpr (kDisabled) return out;
  const std::size_t count = count_.load(std::memory_order_acquire);
  const std::lock_guard<std::mutex> lock(mutex_);
  out.refused = refused_;
  for (std::size_t i = 0; i < count; ++i) {
    const Component& c = components_[i];
    ComponentReport entry;
    entry.name.assign(c.name, c.name_len);
    entry.beats = c.beats.load(std::memory_order_relaxed);
    entry.active = c.active.load(std::memory_order_relaxed);
    entry.stall_after_ns = c.stall_after_ns;
    const std::uint64_t last = c.last_beat_ns.load(std::memory_order_relaxed);
    entry.last_beat_age_ns = (last == 0 || now_ns <= last) ? 0 : now_ns - last;
    if (c.failed.load(std::memory_order_acquire)) {
      entry.state = HealthState::kFailed;
      entry.reason.assign(c.reason, c.reason_len);
    } else {
      entry.state = judge(c, now_ns, last, entry.beats, entry.active);
    }
    // Overall is the worst verdict; starting/idle/ok all count healthy.
    if (entry.state == HealthState::kFailed) {
      out.overall = HealthState::kFailed;
    } else if (entry.state == HealthState::kStalled &&
               out.overall != HealthState::kFailed) {
      out.overall = HealthState::kStalled;
    }
    out.components.push_back(std::move(entry));
  }
  return out;
}

bool Health::healthy(std::uint64_t now_ns) const {
  if constexpr (kDisabled) return true;
  const Report r = report(now_ns);
  return r.overall != HealthState::kStalled && r.overall != HealthState::kFailed;
}

util::JsonValue Health::to_json(std::uint64_t now_ns) const {
  const Report r = report(now_ns);
  util::JsonValue components = util::JsonValue::array();
  for (const ComponentReport& c : r.components) {
    util::JsonValue entry = util::JsonValue::object();
    entry.set("name", util::JsonValue::string(c.name));
    entry.set("state", util::JsonValue::string(health_state_name(c.state)));
    entry.set("beats", util::JsonValue::integer(static_cast<std::int64_t>(c.beats)));
    entry.set("active", util::JsonValue::integer(c.active));
    entry.set("last_beat_age_ms",
              util::JsonValue::integer(
                  static_cast<std::int64_t>(c.last_beat_age_ns / 1'000'000ull)));
    entry.set("stall_after_ms",
              util::JsonValue::integer(
                  static_cast<std::int64_t>(c.stall_after_ns / 1'000'000ull)));
    if (!c.reason.empty()) entry.set("reason", util::JsonValue::string(c.reason));
    components.push(std::move(entry));
  }
  util::JsonValue root = util::JsonValue::object();
  root.set("status", util::JsonValue::string(health_state_name(r.overall)));
  root.set("components", std::move(components));
  root.set("refused_components", util::JsonValue::integer(static_cast<std::int64_t>(r.refused)));
  return root;
}

void Health::reset() {
  if constexpr (kDisabled) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  count_.store(0, std::memory_order_release);
  refused_ = 0;
}

Health& Health::global() {
  static Health health;
  return health;
}

}  // namespace tzgeo::obs
