// Per-user dossiers: every signal the methodology extracts, for one user.
//
// The paper's motivation is that crowd geolocation can "support the
// discovery of [users'] real identities by using known de-anonymization
// techniques in the autonomous systems of the regions where most of them
// live".  For a specific target, an investigator wants all the per-user
// evidence in one place: the time-zone placement with its decision margin,
// the DST hemisphere verdict, the rest-day (weekend culture) pattern, and
// the raw profile itself.  A dossier is exactly that bundle — computed
// from posting times alone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/hemisphere.hpp"
#include "core/placement.hpp"
#include "core/weekly.hpp"

namespace tzgeo::core {

/// The complete per-user readout.
struct UserDossier {
  std::uint64_t user = 0;
  std::size_t posts = 0;
  bool enough_data = false;        ///< >= the requested post threshold
  HourlyProfile profile;           ///< UTC hours, Eq. 1
  UserPlacement placement;         ///< zone + decisive margin
  bool flat = false;               ///< bot-like (closer to uniform)
  HemisphereResult hemisphere;     ///< DST seasonal verdict
  RestDayResult rest_days;         ///< weekend-culture verdict
};

/// Dossier tuning.
struct DossierOptions {
  std::size_t min_posts = 30;
  HemisphereOptions hemisphere{};
  RestDayOptions rest_days{};
};

/// Builds the dossier of one user from raw UTC posting instants: the user
/// is placed as a one-user crowd through the same group kernels as every
/// other placement, on the calling thread.
[[nodiscard]] UserDossier build_dossier(std::uint64_t user,
                                        const std::vector<tz::UtcSeconds>& events,
                                        const TimeZoneProfiles& zones,
                                        const DossierOptions& options = {});

/// Dossiers of the `top_k` most active users of a trace, most active first.
/// Places them as one crowd and fans the per-user work out across the
/// process-wide thread pool; each dossier equals build_dossier's.
[[nodiscard]] std::vector<UserDossier> build_top_dossiers(const ActivityTrace& trace,
                                                          const TimeZoneProfiles& zones,
                                                          std::size_t top_k,
                                                          const DossierOptions& options = {});

/// Multi-line human-readable dossier.
[[nodiscard]] std::string describe_dossier(const UserDossier& dossier);

}  // namespace tzgeo::core
