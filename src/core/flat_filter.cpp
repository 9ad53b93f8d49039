#include "core/flat_filter.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>

#include "core/placement_engine.hpp"
#include "core/placement_metrics.hpp"
#include "core/soa_crowd.hpp"
#include "obs/trace.hpp"
#include "stats/histogram.hpp"

namespace tzgeo::core {

namespace {

constexpr int kPlacedRounds = 8;  ///< polish_and_place's cap: polish_population's default

/// What one polish leaves behind, as input indices into the crowd.
struct PolishRun {
  std::vector<std::uint32_t> kept;  ///< survivors, in input order
  /// Removed users grouped by round: round r's removals, in input order,
  /// are removed[round_ends[r - 1] .. round_ends[r]).
  std::vector<std::uint32_t> removed;
  std::vector<std::size_t> round_ends;
  std::vector<UserPlacement> first_placements;  ///< round 0's, by input index
  TimeZoneProfiles zones;
  int rounds = 0;
};

/// Equation 2 over the survivors' placement-aligned profiles: user i's
/// profile shifted by its zone, summed bin by bin in input order.  The
/// shift is index arithmetic on the user's own bins, so each sum receives
/// the same doubles in the same order as aggregate_profiles over
/// HourlyProfile::shifted copies: the result is bit-identical.
[[nodiscard]] HourlyProfile aligned_aggregate(const std::vector<UserProfileEntry>& users,
                                              const std::vector<std::uint32_t>& live,
                                              const UserPlacement* placements) {
  std::array<double, kProfileBins> sum{};
  constexpr auto kBins = static_cast<std::int32_t>(kProfileBins);
  for (const std::uint32_t i : live) {
    const double* bins = users[i].profile.values().data();
    // shifted(z)[h] = bins[(h - z) mod 24]: bins[0, 24 - s) land on
    // [s, 24) and bins[24 - s, 24) wrap onto [0, s).
    const auto s =
        static_cast<std::size_t>(((placements[i].zone_hours % kBins) + kBins) % kBins);
    for (std::size_t h = s; h < kProfileBins; ++h) sum[h] += bins[h - s];
    for (std::size_t h = 0; h < s; ++h) sum[h] += bins[h + kProfileBins - s];
  }
  return HourlyProfile::from_counts(sum);
}

/// The Section IV-C polish over one SoA crowd.  Each round is one pooled
/// kernel pass over the live users that yields both their placements and
/// their flat flags; the survivors' aligned profiles become the next
/// round's generic profile, and the crowd is compacted in place instead of
/// being copied and transposed again.
///
/// Bit-identical to filtering and re-placing copies of the survivors each
/// round: per-user results are pure functions of the profile and zones,
/// and the placements the next generic profile is built from are the ones
/// this round's flag pass computed on the same zones.
[[nodiscard]] PolishRun run_polish(const std::vector<UserProfileEntry>& users,
                                   const TimeZoneProfiles& initial_zones, int max_rounds) {
  PolishRun run{{}, {}, {}, {}, initial_zones, 0};
  const std::size_t n = users.size();
  run.kept.resize(n);
  std::iota(run.kept.begin(), run.kept.end(), std::uint32_t{0});
  if (max_rounds <= 0) return run;
  if (n == 0) {
    run.rounds = 1;  // one (empty) round reaches the fixpoint at once
    return run;
  }

  // Setup: the one transpose of this polish, and every buffer it needs.
  // Every round after the first removes a user or ends the polish, so at
  // most n + 1 rounds run whatever the cap.
  SoaCrowd crowd;
  detail::build_soa_crowd(crowd, users);
  std::vector<std::uint8_t> keep(n, 1);
  std::vector<double> to_uniform(n);
  run.first_placements.resize(n);
  std::vector<UserPlacement> later_placements;
  if (max_rounds > 1) later_placements.resize(n);
  run.removed.reserve(n);
  run.round_ends.reserve(std::min(static_cast<std::size_t>(max_rounds), n + 1));
  std::vector<std::uint32_t>& live = run.kept;

  // tzgeo: hot — per-round polish loop.  Allocation-free but for the 24
  // zone profiles of the next round's generic profile.
  for (int round = 0; round < max_rounds; ++round) {
    const PlacementEngine engine{run.zones};
    UserPlacement* placements =
        round == 0 ? run.first_placements.data() : later_placements.data();
    detail::place_soa_pooled(engine, crowd, placements, to_uniform.data());

    // Split in input order: flat users go to this round's removals.
    std::size_t survivors = 0;
    for (const std::uint32_t i : live) {
      if (to_uniform[i] < placements[i].distance) {
        keep[i] = 0;
        run.removed.push_back(i);
      } else {
        live[survivors++] = i;
      }
    }
    run.round_ends.push_back(run.removed.size());
    const bool fixpoint = survivors == live.size();
    live.resize(survivors);
    run.rounds = round + 1;
    if (fixpoint || live.empty()) break;

    run.zones = TimeZoneProfiles{aligned_aggregate(users, live, placements)};
    crowd.retain(keep);
  }
  return run;
}

/// The kept / removed split of a finished polish, as copies of the input
/// entries: kept in input order, removed latest round first.
[[nodiscard]] FlatFilterResult split_of(const std::vector<UserProfileEntry>& users,
                                        const PolishRun& run) {
  FlatFilterResult split;
  split.kept.reserve(run.kept.size());
  for (const std::uint32_t i : run.kept) split.kept.push_back(users[i]);
  split.removed.reserve(run.removed.size());
  for (std::size_t r = run.round_ends.size(); r-- > 0;) {
    const std::size_t begin = r == 0 ? 0 : run.round_ends[r - 1];
    for (std::size_t k = begin; k < run.round_ends[r]; ++k) {
      split.removed.push_back(users[run.removed[k]]);
    }
  }
  return split;
}

}  // namespace

FlatFilterResult filter_flat_profiles(const std::vector<UserProfileEntry>& users,
                                      const TimeZoneProfiles& zones) {
  return split_of(users, run_polish(users, zones, 1));
}

PolishResult polish_population(const std::vector<UserProfileEntry>& users,
                               const TimeZoneProfiles& initial_zones, int max_rounds) {
  const obs::ScopedSpan filter_span("filter");
  PolishRun run = run_polish(users, initial_zones, max_rounds);
  return PolishResult{split_of(users, run), std::move(run.zones), run.rounds};
}

PolishedPlacement polish_and_place(const std::vector<UserProfileEntry>& users,
                                   const TimeZoneProfiles& initial_zones) {
  PolishRun run = [&] {
    const obs::ScopedSpan filter_span("filter");
    return run_polish(users, initial_zones, kPlacedRounds);
  }();
  PolishedPlacement out;
  out.removed = run.removed.size();

  const obs::ScopedSpan placement_span("placement");
  PlacementResult& placement = out.placement;
  placement.counts.assign(kZoneCount, 0.0);
  placement.users.reserve(run.kept.size());
  for (const std::uint32_t i : run.kept) {
    const UserPlacement& user = run.first_placements[i];
    placement.users.push_back(user);
    placement.counts[bin_of_zone(user.zone_hours)] += 1.0;
  }
  placement.distribution = stats::normalize(placement.counts);
  detail::record_zone_counts(placement.counts);
  return out;
}

}  // namespace tzgeo::core
