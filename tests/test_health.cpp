// Tests for obs::Health: the starting/idle/ok/stalled/failed verdict
// rules, the active-work gate (idle is never stalled), the sticky
// failure latch, name and capacity handling at registration, and the
// healthz JSON body.  Private Health instances with explicit beat_at
// timestamps keep every verdict deterministic.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "obs/health.hpp"
#include "util/json.hpp"

namespace tzgeo::obs {
namespace {

#define TZGEO_SKIP_IF_OBS_DISABLED() \
  if (kDisabled) GTEST_SKIP() << "obs layer compiled out (TZGEO_OBS_DISABLED)"

constexpr std::uint64_t kSecond = 1'000'000'000ull;
constexpr std::uint64_t kStall = 10 * kSecond;

[[nodiscard]] std::unique_ptr<Health> make_health() {
  return std::make_unique<Health>();
}

[[nodiscard]] HealthState state_of(const Health& health, std::uint64_t now_ns) {
  const Health::Report report = health.report(now_ns);
  EXPECT_EQ(report.components.size(), 1u);
  return report.components.empty() ? HealthState::kFailed : report.components[0].state;
}

TEST(Health, RegistrationIsIdempotentByName) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  auto health = make_health();
  const Health::ComponentId a = health->component("test.component", kStall);
  const Health::ComponentId b = health->component("test.component", 99 * kSecond);
  EXPECT_NE(a, Health::kInvalidComponent);
  EXPECT_EQ(a, b);  // found by name; first stall threshold wins
  EXPECT_EQ(health->size(), 1u);
}

TEST(Health, LongNameFindsItsOwnSlot) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  auto health = make_health();
  // Longer than kNameCapacity: stored cut, and a second call must find
  // the cut slot instead of taking a new one.
  const std::string name(Health::kNameCapacity + 18, 'n');
  const Health::ComponentId a = health->component(name, kStall);
  const Health::ComponentId b = health->component(name, kStall);
  EXPECT_NE(a, Health::kInvalidComponent);
  EXPECT_EQ(a, b);
  EXPECT_EQ(health->size(), 1u);
  EXPECT_EQ(health->report(kSecond).components[0].name, name.substr(0, Health::kNameCapacity - 1));
}

TEST(Health, RefusedRegistrationsAreCounted) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  auto health = make_health();
  for (std::size_t i = 0; i < Health::kMaxComponents; ++i) {
    EXPECT_NE(health->component("test.fill." + std::to_string(i), kStall),
              Health::kInvalidComponent);
  }
  EXPECT_EQ(health->report(kSecond).refused, 0u);
  EXPECT_EQ(health->component("test.one_too_many", kStall), Health::kInvalidComponent);
  // A name already registered is still found when the table is full.
  EXPECT_EQ(health->component("test.fill.0", kStall), 0u);
  EXPECT_EQ(health->size(), Health::kMaxComponents);
  EXPECT_EQ(health->report(kSecond).refused, 1u);
  EXPECT_EQ(health->to_json(kSecond).find("refused_components")->as_integer(), 1);
  health->reset();
  EXPECT_EQ(health->report(kSecond).refused, 0u);
}

TEST(Health, StartingUntilFirstBeatThenIdle) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  auto health = make_health();
  const Health::ComponentId id = health->component("test.lifecycle", kStall);
  EXPECT_EQ(state_of(*health, 100 * kSecond), HealthState::kStarting);
  health->beat_at(id, 100 * kSecond);
  // No work in flight: the component is idle no matter how stale the
  // beat gets — a monitor between campaigns must not read as stalled.
  EXPECT_EQ(state_of(*health, 100 * kSecond), HealthState::kIdle);
  EXPECT_EQ(state_of(*health, 10'000 * kSecond), HealthState::kIdle);
  EXPECT_TRUE(health->healthy(10'000 * kSecond));
}

TEST(Health, ActiveWorkFreshBeatIsOkStaleBeatIsStalled) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  auto health = make_health();
  const Health::ComponentId id = health->component("test.stall", kStall);
  health->begin_work(id);
  health->beat_at(id, 100 * kSecond);
  EXPECT_EQ(state_of(*health, 100 * kSecond + kStall), HealthState::kOk);
  EXPECT_EQ(state_of(*health, 100 * kSecond + kStall + 1), HealthState::kStalled);
  EXPECT_FALSE(health->healthy(100 * kSecond + kStall + 1));
  // A new beat recovers the component.
  health->beat_at(id, 200 * kSecond);
  EXPECT_EQ(state_of(*health, 201 * kSecond), HealthState::kOk);
  health->end_work(id);
  EXPECT_EQ(state_of(*health, 10'000 * kSecond), HealthState::kIdle);
}

TEST(Health, WorkScopeUnwindsOnException) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  auto health = make_health();
  const Health::ComponentId id = health->component("test.scope", kStall);
  health->beat_at(id, kSecond);
  try {
    const Health::WorkScope work(*health, id);
    EXPECT_EQ(health->report(2 * kSecond).components[0].active, 1u);
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(health->report(2 * kSecond).components[0].active, 0u);
  EXPECT_EQ(state_of(*health, 10'000 * kSecond), HealthState::kIdle);
}

TEST(Health, FailureLatchIsStickyUntilCleared) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  auto health = make_health();
  const Health::ComponentId id = health->component("test.failed", kStall);
  health->beat_at(id, kSecond);
  health->mark_failed(id, "budget exhausted");
  const Health::Report failed = health->report(2 * kSecond);
  EXPECT_EQ(failed.overall, HealthState::kFailed);
  ASSERT_EQ(failed.components.size(), 1u);
  EXPECT_EQ(failed.components[0].state, HealthState::kFailed);
  EXPECT_EQ(failed.components[0].reason, "budget exhausted");
  EXPECT_FALSE(health->healthy(2 * kSecond));
  // Fresh beats do not clear the latch; clear_failed does.
  health->beat_at(id, 3 * kSecond);
  EXPECT_EQ(state_of(*health, 4 * kSecond), HealthState::kFailed);
  health->clear_failed(id);
  EXPECT_EQ(state_of(*health, 4 * kSecond), HealthState::kIdle);
}

TEST(Health, OverallIsWorstComponent) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  auto health = make_health();
  const Health::ComponentId fine = health->component("test.fine", kStall);
  const Health::ComponentId stuck = health->component("test.stuck", kStall);
  health->beat_at(fine, 100 * kSecond);
  health->begin_work(stuck);
  health->beat_at(stuck, 100 * kSecond);
  const std::uint64_t late = 100 * kSecond + kStall + 1;
  EXPECT_EQ(health->report(late).overall, HealthState::kStalled);
  // Failed outranks stalled.
  health->mark_failed(fine, "latched");
  EXPECT_EQ(health->report(late).overall, HealthState::kFailed);
}

TEST(Health, HealthzJsonShape) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  auto health = make_health();
  const Health::ComponentId id = health->component("test.json", kStall);
  health->begin_work(id);
  health->beat_at(id, 100 * kSecond);
  const util::JsonValue body = health->to_json(101 * kSecond);
  ASSERT_NE(body.find("status"), nullptr);
  EXPECT_EQ(body.find("status")->as_string(), "ok");
  const util::JsonValue* components = body.find("components");
  ASSERT_NE(components, nullptr);
  ASSERT_EQ(components->size(), 1u);
  const util::JsonValue* entry = components->at(0);
  EXPECT_EQ(entry->find("name")->as_string(), "test.json");
  EXPECT_EQ(entry->find("state")->as_string(), "ok");
  EXPECT_EQ(entry->find("last_beat_age_ms")->as_integer(), 1000);
  EXPECT_EQ(entry->find("stall_after_ms")->as_integer(),
            static_cast<std::int64_t>(kStall / 1'000'000ull));
  EXPECT_EQ(body.find("refused_components")->as_integer(), 0);
  // The body must round-trip through the parser (it is the future
  // GET /healthz response).
  EXPECT_TRUE(util::JsonValue::parse(body.dump()).has_value());
}

TEST(Health, ResetForgetsComponents) {
  TZGEO_SKIP_IF_OBS_DISABLED();
  auto health = make_health();
  (void)health->component("test.reset", kStall);
  EXPECT_EQ(health->size(), 1u);
  health->reset();
  EXPECT_EQ(health->size(), 0u);
}

TEST(Health, DisabledModeIsInert) {
  if (!kDisabled) GTEST_SKIP() << "compiled-out behavior only";
  Health health;
  const Health::ComponentId id = health.component("test.disabled");
  EXPECT_EQ(id, Health::kInvalidComponent);
  health.beat(id);
  EXPECT_EQ(health.size(), 0u);
  EXPECT_TRUE(health.healthy());
}

}  // namespace
}  // namespace tzgeo::obs
