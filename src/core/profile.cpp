#include "core/profile.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "stats/descriptive.hpp"
#include "stats/emd.hpp"
#include "stats/histogram.hpp"

namespace tzgeo::core {

HourlyProfile::HourlyProfile() : values_(stats::uniform_distribution(kProfileBins)) {}

HourlyProfile::HourlyProfile(std::vector<double> values) : values_(std::move(values)) {}

HourlyProfile HourlyProfile::from_counts(std::span<const double> counts) {
  if (counts.size() != kProfileBins) {
    throw std::invalid_argument("HourlyProfile: expected 24 bins");
  }
  for (const double c : counts) {
    if (c < 0.0) throw std::invalid_argument("HourlyProfile: negative count");
  }
  return HourlyProfile{stats::normalize(counts)};
}

std::size_t dedup_cells(std::span<std::int64_t> cells) {
  if (!std::is_sorted(cells.begin(), cells.end())) std::sort(cells.begin(), cells.end());
  return static_cast<std::size_t>(std::unique(cells.begin(), cells.end()) - cells.begin());
}

HourlyProfile profile_of_cells(std::span<std::int64_t> cells) {
  std::array<double, kProfileBins> counts{};
  for (const std::int64_t cell : cells.first(dedup_cells(cells))) {
    counts[static_cast<std::size_t>(hour_of_cell(cell))] += 1.0;
  }
  return HourlyProfile::from_counts(counts);
}

HourlyProfile profile_of_events(std::span<const tz::UtcSeconds> events,
                                std::vector<std::int64_t>& scratch) {
  scratch.clear();
  for (const tz::UtcSeconds t : events) scratch.push_back(tz::hour_cell_of(t));
  return profile_of_cells(scratch);
}

HourlyProfile HourlyProfile::from_distribution(std::span<const double> values) {
  return from_counts(values);
}

HourlyProfile HourlyProfile::shifted(std::int32_t hours) const {
  return HourlyProfile{stats::cyclic_shift(values_, hours)};
}

double HourlyProfile::emd_to(const HourlyProfile& other) const {
  return stats::emd_linear(values_, other.values_);
}

double HourlyProfile::circular_emd_to(const HourlyProfile& other) const {
  return stats::emd_circular(values_, other.values_);
}

double HourlyProfile::pearson_to(const HourlyProfile& other) const {
  return stats::pearson(values_, other.values_);
}

double HourlyProfile::flatness() const {
  const std::vector<double> uniform = stats::uniform_distribution(kProfileBins);
  return stats::emd_linear(values_, uniform);
}

HourlyProfile aggregate_profiles(std::span<const HourlyProfile> profiles) {
  if (profiles.empty()) {
    throw std::invalid_argument("aggregate_profiles: no profiles");
  }
  std::vector<double> sum(kProfileBins, 0.0);
  for (const auto& profile : profiles) {
    for (std::size_t h = 0; h < kProfileBins; ++h) sum[h] += profile[h];
  }
  return HourlyProfile::from_counts(sum);
}

}  // namespace tzgeo::core
