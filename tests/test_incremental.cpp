#include "core/incremental.hpp"

#include <gtest/gtest.h>

#include "core/profile_builder.hpp"
#include "synth/dataset.hpp"
#include "timezone/zone_db.hpp"
#include "util/checkpoint.hpp"

namespace tzgeo::core {
namespace {

[[nodiscard]] HourlyProfile canonical_shape() {
  std::vector<double> counts(24, 0.01);
  counts[9] = 0.2;
  counts[19] = 0.3;
  counts[20] = 0.4;
  counts[21] = 0.3;
  return HourlyProfile::from_counts(counts);
}

[[nodiscard]] synth::Dataset small_crowd(const char* zone, std::size_t users,
                                         std::uint64_t seed) {
  synth::DatasetOptions options;
  options.seed = seed;
  options.inactive_fraction = 0.0;
  const synth::RegionSpec spec{"X", zone, users};
  return synth::make_region_dataset(spec, users, options);
}

TEST(Incremental, EmptyEstimate) {
  IncrementalGeolocator geo{TimeZoneProfiles{canonical_shape()}};
  const auto snapshot = geo.estimate();
  EXPECT_EQ(snapshot.total_users, 0u);
  EXPECT_EQ(snapshot.active_users, 0u);
  EXPECT_TRUE(snapshot.components.empty());
}

TEST(Incremental, BelowThresholdUsersExcluded) {
  IncrementalGeolocator geo{TimeZoneProfiles{canonical_shape()}, {}, 30};
  for (int i = 0; i < 10; ++i) geo.observe(std::uint64_t{1}, i * tz::kSecondsPerDay);
  const auto snapshot = geo.estimate();
  EXPECT_EQ(snapshot.total_users, 1u);
  EXPECT_EQ(snapshot.active_users, 0u);
  EXPECT_EQ(snapshot.posts, 10u);
}

TEST(Incremental, MatchesBatchPlacement) {
  // Streaming the same events must place every user on the same zone as
  // the batch pipeline (holiday filter disabled to align semantics).
  const synth::Dataset crowd = small_crowd("Europe/Moscow", 25, 7);
  const TimeZoneProfiles zones{canonical_shape()};

  IncrementalGeolocator streaming{zones};
  for (const auto& event : crowd.events) streaming.observe(event.user, event.time);
  const auto snapshot = streaming.estimate();

  ActivityTrace trace;
  for (const auto& event : crowd.events) trace.add(event.user, event.time);
  ProfileBuildOptions build;
  build.filter_low_activity_days = false;
  const ProfileSet profiles = build_profiles(trace, build);
  const PlacementResult batch = place_crowd(profiles.users, zones);

  std::vector<double> batch_counts(kZoneCount, 0.0);
  std::size_t batch_flat = 0;
  const FlatFilterResult split = filter_flat_profiles(profiles.users, zones);
  batch_flat = split.removed.size();
  const PlacementResult batch_kept = place_crowd(split.kept, zones);
  for (const auto& user : batch_kept.users) {
    batch_counts[bin_of_zone(user.zone_hours)] += 1.0;
  }
  EXPECT_EQ(snapshot.counts, batch_counts);
  EXPECT_EQ(snapshot.flat_users, batch_flat);
  (void)batch;
}

TEST(Incremental, RecoverZoneOfStreamedCrowd) {
  const synth::Dataset crowd = small_crowd("Asia/Kuala_Lumpur", 60, 9);
  IncrementalGeolocator geo{TimeZoneProfiles{canonical_shape()}};
  for (const auto& event : crowd.events) geo.observe(event.user, event.time);
  const auto snapshot = geo.estimate();
  ASSERT_FALSE(snapshot.components.empty());
  EXPECT_NEAR(snapshot.components.front().mean_zone, 8.0, 1.0);
  // Most of the crowd survives the threshold + flat filter (the sharp
  // hand-built template set filters more users than the data-built one).
  EXPECT_GT(snapshot.active_users, 30u);
}

TEST(Incremental, EstimateIsIdempotentWithoutNewData) {
  const synth::Dataset crowd = small_crowd("Europe/Rome", 30, 11);
  IncrementalGeolocator geo{TimeZoneProfiles{canonical_shape()}};
  for (const auto& event : crowd.events) geo.observe(event.user, event.time);
  const auto first = geo.estimate();
  const auto second = geo.estimate();
  EXPECT_EQ(first.counts, second.counts);
  EXPECT_EQ(first.active_users, second.active_users);
  ASSERT_EQ(first.components.size(), second.components.size());
  for (std::size_t i = 0; i < first.components.size(); ++i) {
    EXPECT_DOUBLE_EQ(first.components[i].mean_zone, second.components[i].mean_zone);
  }
}

TEST(Incremental, VerdictSharpensAsDataArrives) {
  const synth::Dataset crowd = small_crowd("America/Chicago", 50, 13);
  IncrementalGeolocator geo{TimeZoneProfiles{canonical_shape()}};
  // First half of the events.
  const std::size_t half = crowd.events.size() / 2;
  for (std::size_t i = 0; i < half; ++i) geo.observe(crowd.events[i].user, crowd.events[i].time);
  const auto early = geo.estimate();
  for (std::size_t i = half; i < crowd.events.size(); ++i) {
    geo.observe(crowd.events[i].user, crowd.events[i].time);
  }
  const auto late = geo.estimate();
  EXPECT_GT(late.posts, early.posts);
  EXPECT_GE(late.total_users, early.total_users);
  ASSERT_FALSE(late.components.empty());
  EXPECT_NEAR(late.components.front().mean_zone, -5.6, 1.2);
  (void)early;
}

TEST(Incremental, StringIdentities) {
  IncrementalGeolocator geo{TimeZoneProfiles{canonical_shape()}, {}, 2};
  geo.observe("alice", 0);
  geo.observe("alice", tz::kSecondsPerDay);
  geo.observe("bob", 0);
  EXPECT_EQ(geo.user_count(), 2u);
  EXPECT_EQ(geo.post_count(), 3u);
  const auto snapshot = geo.estimate();
  EXPECT_EQ(snapshot.total_users, 2u);
}

TEST(Incremental, FlatFilterCanBeDisabled) {
  GeolocationOptions options;
  options.apply_flat_filter = false;
  IncrementalGeolocator geo{TimeZoneProfiles{canonical_shape()}, options, 24};
  // A perfectly uniform user: one post in every hour of a day cycle.
  for (int h = 0; h < 24; ++h) {
    geo.observe(std::uint64_t{5}, h * tz::kSecondsPerHour + h * tz::kSecondsPerDay);
  }
  const auto snapshot = geo.estimate();
  EXPECT_EQ(snapshot.flat_users, 0u);
  EXPECT_EQ(snapshot.active_users, 1u);
}

TEST(IncrementalCheckpoint, RoundTripPreservesEstimateAndReserializesByteStable) {
  const synth::Dataset crowd = small_crowd("Europe/Moscow", 25, 7);
  IncrementalGeolocator original{TimeZoneProfiles{canonical_shape()}};
  for (const auto& event : crowd.events) original.observe(event.user, event.time);
  const std::string payload = original.checkpoint_payload();

  IncrementalGeolocator restored{TimeZoneProfiles{canonical_shape()}};
  restored.restore_checkpoint(payload);
  EXPECT_EQ(restored.user_count(), original.user_count());
  EXPECT_EQ(restored.post_count(), original.post_count());
  // serialize -> restore -> serialize is byte-stable (canonical encoding).
  EXPECT_EQ(restored.checkpoint_payload(), payload);

  const auto before = original.estimate();
  const auto after = restored.estimate();
  EXPECT_EQ(after.active_users, before.active_users);
  EXPECT_EQ(after.flat_users, before.flat_users);
  EXPECT_EQ(after.counts, before.counts);
  ASSERT_EQ(after.components.size(), before.components.size());
  for (std::size_t i = 0; i < after.components.size(); ++i) {
    EXPECT_DOUBLE_EQ(after.components[i].mean_zone, before.components[i].mean_zone);
    EXPECT_DOUBLE_EQ(after.components[i].weight, before.components[i].weight);
  }
}

TEST(IncrementalCheckpoint, RestoredInstanceKeepsObserving) {
  // A resumed geolocator must behave exactly like the original from the
  // restore point onward — feed both the same tail of events and compare.
  const synth::Dataset crowd = small_crowd("America/New_York", 20, 11);
  const std::size_t half = crowd.events.size() / 2;
  IncrementalGeolocator original{TimeZoneProfiles{canonical_shape()}};
  for (std::size_t i = 0; i < half; ++i) {
    original.observe(crowd.events[i].user, crowd.events[i].time);
  }
  IncrementalGeolocator resumed{TimeZoneProfiles{canonical_shape()}};
  resumed.restore_checkpoint(original.checkpoint_payload());
  for (std::size_t i = half; i < crowd.events.size(); ++i) {
    original.observe(crowd.events[i].user, crowd.events[i].time);
    resumed.observe(crowd.events[i].user, crowd.events[i].time);
  }
  EXPECT_EQ(resumed.checkpoint_payload(), original.checkpoint_payload());
}

TEST(IncrementalCheckpoint, RejectsRestoreOnUsedInstance) {
  IncrementalGeolocator source{TimeZoneProfiles{canonical_shape()}};
  source.observe(std::uint64_t{1}, 0);
  const std::string payload = source.checkpoint_payload();
  IncrementalGeolocator used{TimeZoneProfiles{canonical_shape()}};
  used.observe(std::uint64_t{2}, 0);
  EXPECT_THROW(used.restore_checkpoint(payload), util::CheckpointError);
}

TEST(IncrementalCheckpoint, RejectsCorruptPayloads) {
  IncrementalGeolocator source{TimeZoneProfiles{canonical_shape()}};
  for (int i = 0; i < 5; ++i) {
    source.observe(std::uint64_t{7}, i * tz::kSecondsPerDay);
    source.observe(std::uint64_t{8}, i * tz::kSecondsPerDay + tz::kSecondsPerHour);
  }
  const std::string payload = source.checkpoint_payload();

  {  // wrong format generation
    std::string wrong_version = payload;
    ++wrong_version[0];
    IncrementalGeolocator geo{TimeZoneProfiles{canonical_shape()}};
    try {
      geo.restore_checkpoint(wrong_version);
      FAIL() << "future-version payload accepted";
    } catch (const util::CheckpointError& error) {
      EXPECT_EQ(error.code(), util::CheckpointErrorCode::kBadVersion);
    }
  }
  {  // truncated at every prefix: typed refusal, never garbage state
    for (std::size_t keep = 0; keep < payload.size(); keep += 3) {
      IncrementalGeolocator geo{TimeZoneProfiles{canonical_shape()}};
      EXPECT_THROW(geo.restore_checkpoint(payload.substr(0, keep)), util::CheckpointError);
    }
  }
  {  // trailing junk
    IncrementalGeolocator geo{TimeZoneProfiles{canonical_shape()}};
    try {
      geo.restore_checkpoint(payload + "x");
      FAIL() << "trailing bytes accepted";
    } catch (const util::CheckpointError& error) {
      EXPECT_EQ(error.code(), util::CheckpointErrorCode::kMalformed);
    }
  }
}

/// A 12-byte geolocator payload: the version, then a user count with no
/// users behind it.
[[nodiscard]] std::string payload_claiming_users(std::uint64_t user_count) {
  util::ByteWriter writer;
  writer.u32(IncrementalGeolocator::kCheckpointVersion);
  writer.u64(user_count);
  return writer.take();
}

TEST(IncrementalCheckpoint, HugeUserCountIsTruncatedNotAnAllocation) {
  for (const std::uint64_t claimed : {std::uint64_t{1} << 40, std::uint64_t{1} << 62,
                                      ~std::uint64_t{0}}) {
    const std::string payload = payload_claiming_users(claimed);
    ASSERT_EQ(payload.size(), 12u);
    IncrementalGeolocator geo{TimeZoneProfiles{canonical_shape()}};
    try {
      geo.restore_checkpoint(payload);
      FAIL() << claimed << " users accepted from a 12-byte payload";
    } catch (const util::CheckpointError& error) {
      EXPECT_EQ(error.code(), util::CheckpointErrorCode::kTruncated) << claimed;
    }
  }
}

TEST(IncrementalCheckpoint, HugeCellCountIsTruncatedNotAnAllocation) {
  util::ByteWriter writer;
  writer.u32(IncrementalGeolocator::kCheckpointVersion);
  writer.u64(1);                        // one user
  writer.u64(7);                        // its id
  writer.u64(~std::uint64_t{0});        // posts: passes the cells <= posts check
  writer.u64(std::uint64_t{1} << 40);   // cell count with no cells behind it
  writer.u64(0);                        // total posts
  IncrementalGeolocator geo{TimeZoneProfiles{canonical_shape()}};
  try {
    geo.restore_checkpoint(writer.data());
    FAIL() << "2^40 cells accepted";
  } catch (const util::CheckpointError& error) {
    EXPECT_EQ(error.code(), util::CheckpointErrorCode::kTruncated);
  }
}

}  // namespace
}  // namespace tzgeo::core
