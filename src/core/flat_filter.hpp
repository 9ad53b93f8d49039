// Flat-profile (bot) filtering — Section IV-C "Polishing the Datasets".
//
// "We remove all the users whose profiles, according to the EMD, result
// being closer to an artificial profile created by us where every value is
// 1/24 than to a timezone profile.  We apply this procedure in an iterative
// way to polish all the generic timezone profiles."
#pragma once

#include <cstddef>
#include <vector>

#include "core/placement.hpp"
#include "core/profile_builder.hpp"
#include "core/timezone_profiles.hpp"

namespace tzgeo::core {

/// Split of a population into retained and flat (bot-like) users.
struct FlatFilterResult {
  std::vector<UserProfileEntry> kept;
  std::vector<UserProfileEntry> removed;
};

/// One filtering pass against a fixed set of zone profiles.
[[nodiscard]] FlatFilterResult filter_flat_profiles(const std::vector<UserProfileEntry>& users,
                                                   const TimeZoneProfiles& zones);

/// The iterative polish: filter, rebuild the generic profile from the
/// survivors' *placement-aligned* profiles, re-filter, until a fixpoint
/// (or `max_rounds`).  Returns the final split and the polished profiles.
struct PolishResult {
  FlatFilterResult split;
  TimeZoneProfiles zones;
  int rounds = 0;
};
[[nodiscard]] PolishResult polish_population(const std::vector<UserProfileEntry>& users,
                                             const TimeZoneProfiles& initial_zones,
                                             int max_rounds = 8);

/// The polish (polish_population's default 8 rounds) followed by the crowd
/// placement geolocate_crowd reports.  The survivors are placed on
/// `initial_zones`, not on the polished profiles: round 0 of the polish
/// already placed every user there, so the result reuses those placements
/// instead of placing the crowd again.
struct PolishedPlacement {
  PlacementResult placement;  ///< the survivors, in input order
  std::size_t removed = 0;    ///< users filtered as flat
};
[[nodiscard]] PolishedPlacement polish_and_place(const std::vector<UserProfileEntry>& users,
                                               const TimeZoneProfiles& initial_zones);

}  // namespace tzgeo::core
