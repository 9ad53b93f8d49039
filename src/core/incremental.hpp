// Incremental geolocation for live monitoring.
//
// The monitor mode of Discussion VII produces a *stream* of observations
// over months.  Re-running the batch pipeline after every poll is O(total
// posts); this class keeps per-user (day, hour) cell state, re-profiles
// only the users whose state changed since the last estimate, places them
// as one SoA crowd in a single group-kernel pass, and refits the mixture on
// the cached placements — so a steady-state estimate costs
// O(changed users x 24 EMDs + one GMM fit).
//
// Differences from the batch pipeline, by construction:
//  * the low-activity-day (holiday) filter is not applied — it needs the
//    completed global day histogram, which a stream never has;
//  * the flat filter is the one-shot rule (closer to uniform than to any
//    zone profile), not the iterative polish — the reference profiles are
//    fixed, so there is nothing to re-polish.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/geolocator.hpp"
#include "core/placement_engine.hpp"
#include "core/timezone_profiles.hpp"
#include "util/handle_table.hpp"

namespace tzgeo::core {

/// Streaming geolocator.
class IncrementalGeolocator {
 public:
  explicit IncrementalGeolocator(TimeZoneProfiles zones, GeolocationOptions options = {},
                                 std::size_t min_posts = 30);

  /// Feeds one observation.
  void observe(std::uint64_t user, tz::UtcSeconds when);
  void observe(std::string_view identity, tz::UtcSeconds when);

  /// The current crowd estimate.
  struct Snapshot {
    std::vector<GeoComponent> components;   ///< mixture, sorted by weight
    std::vector<double> counts;             ///< per-zone active-user counts
    std::vector<double> distribution;       ///< counts normalized
    PlacementConfidence confidence;
    std::size_t total_users = 0;            ///< everyone ever observed
    std::size_t active_users = 0;           ///< >= min_posts and not flat
    std::size_t flat_users = 0;             ///< filtered as bot-like
    std::size_t posts = 0;                  ///< observations consumed
  };

  /// Re-places dirty users and refits; cheap when little changed.  The
  /// placement pass runs on the calling thread (no pool), so estimate()
  /// may itself run on a pool worker.
  [[nodiscard]] Snapshot estimate();

  [[nodiscard]] std::size_t user_count() const noexcept { return ids_.size(); }
  [[nodiscard]] std::size_t post_count() const noexcept { return posts_; }

  /// Payload format generation for checkpoint_payload().
  static constexpr std::uint32_t kCheckpointVersion = 1;

  /// Serializes all per-user cell state (id, post count, distinct cells)
  /// into a canonical byte string for embedding in a checkpoint — e.g. as
  /// MonitorOptions::checkpoint_extra, so monitor and geolocator state
  /// commit atomically.  Compacts every user first, so serialize/restore/
  /// serialize is byte-stable.  Placements are not stored; they are
  /// recomputed (deterministically) by the next estimate().
  [[nodiscard]] std::string checkpoint_payload();

  /// Rebuilds state from a checkpoint_payload().  Only valid on an
  /// instance that has not observed anything yet; throws
  /// util::CheckpointError (kBadVersion/kTruncated/kMalformed) when the
  /// payload is from a different generation or corrupt.
  void restore_checkpoint(std::string_view payload);

 private:
  /// Per-user state, indexed by dense handle.  `cells` is an append-only
  /// vector whose first `sorted` entries are known sorted and distinct;
  /// observe() appends in O(1) and compaction (sort + unique) runs when
  /// the unsorted tail outgrows the sorted prefix or a refresh needs the
  /// distinct-cell set.  This replaces a std::set per user: no node
  /// allocation per observation, identical distinct-cell semantics.
  struct UserState {
    std::vector<std::int64_t> cells;  ///< encoded (day * 24 + hour)
    std::size_t sorted = 0;           ///< prefix length known sorted+unique
    std::size_t posts = 0;
    bool dirty = true;
    bool flat = false;
    UserPlacement placement;
  };

  /// Sorts and deduplicates `state.cells` in place, settling its share of
  /// the deferred-compaction backlog gauge.
  void compact(UserState& state);

  /// Re-profiles and re-places the dirty active users (`order` holds
  /// (id, handle) pairs) in one SoA crowd.
  void refresh(const std::vector<std::pair<std::uint64_t, std::uint32_t>>& order);

  TimeZoneProfiles zones_;
  PlacementEngine engine_;  ///< built once; reused by every estimate
  GeolocationOptions options_;
  std::size_t min_posts_;
  util::HandleTable ids_;          ///< user id -> dense handle
  std::vector<UserState> states_;  ///< handle -> state
  std::size_t posts_ = 0;
  std::size_t pending_cells_ = 0;  ///< cells in unsorted tails (backlog gauge)
};

}  // namespace tzgeo::core
