// Activity traces: the raw input of the methodology.
//
// "The trace can be of any kind: posts, comments to posts, messages
// exchanged, access times, or even all the above."  (Section IV.)  A trace
// is simply, per user, the multiset of UTC instants at which the user was
// active.  Users are keyed by opaque 64-bit ids; string identities (forum
// handles) hash into ids via user_id_of.
//
// Storage is flat: a util::HandleTable interns user ids into dense
// handles, and per-user event vectors live in a parallel array indexed by
// handle.  Recording an event is an O(1) probe plus a push_back — no
// per-event node allocation, one arena slot per distinct user.  users()
// returns an id-sorted view so iteration order (and everything derived
// from it, e.g. trace_to_csv) is identical to the std::map-backed
// implementation this replaced.
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "timezone/civil.hpp"
#include "util/handle_table.hpp"
#include "util/rng.hpp"

namespace tzgeo::core {

/// Stable user id derived from a string identity (forum handle, nickname).
/// Inline: ingest derives one per CSV row.
[[nodiscard]] inline std::uint64_t user_id_of(std::string_view identity) noexcept {
  return util::hash64(identity);
}

/// Per-user activity instants.
class ActivityTrace {
 public:
  /// Id-sorted, non-owning view over (user id, events) pairs; see users().
  class UsersView {
   public:
    struct Entry {
      std::uint64_t id;
      const std::vector<tz::UtcSeconds>* events;
    };

    class const_iterator {
     public:
      using inner = std::vector<Entry>::const_iterator;
      explicit const_iterator(inner it) noexcept : it_(it) {}
      [[nodiscard]] std::pair<std::uint64_t, const std::vector<tz::UtcSeconds>&> operator*()
          const noexcept {
        return {it_->id, *it_->events};
      }
      const_iterator& operator++() noexcept {
        ++it_;
        return *this;
      }
      [[nodiscard]] bool operator==(const const_iterator&) const noexcept = default;

     private:
      inner it_;
    };

    [[nodiscard]] const_iterator begin() const noexcept { return const_iterator{entries_.begin()}; }
    [[nodiscard]] const_iterator end() const noexcept { return const_iterator{entries_.end()}; }
    [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
    [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

   private:
    friend class ActivityTrace;
    explicit UsersView(std::vector<Entry> entries) noexcept : entries_(std::move(entries)) {}
    std::vector<Entry> entries_;
  };

  /// Records one activity event.
  void add(std::uint64_t user, tz::UtcSeconds time);
  /// Convenience for string identities.
  void add(std::string_view identity, tz::UtcSeconds time);

  /// Appends `events` to `user`'s events, taking the vector whole when the
  /// user is new — how ingest hands over users it grouped elsewhere, with
  /// no per-event work.
  void adopt(std::uint64_t user, std::vector<tz::UtcSeconds>&& events);

  /// Number of distinct users.
  [[nodiscard]] std::size_t user_count() const noexcept { return ids_.size(); }
  /// Total number of events.
  [[nodiscard]] std::size_t event_count() const noexcept { return total_; }
  /// Occupancy of the interning hash (feeds the ingest load-factor gauge).
  [[nodiscard]] double handle_load_factor() const noexcept { return ids_.load_factor(); }

  /// Events of one user (in insertion order); empty for unknown users.
  [[nodiscard]] const std::vector<tz::UtcSeconds>& events_of(std::uint64_t user) const;

  /// All users with their events, ordered by ascending user id.  The view
  /// borrows from the trace: do not mutate the trace while iterating.
  [[nodiscard]] UsersView users() const;

  /// Pre-sizes the handle table and event arena for `n` distinct users.
  void reserve(std::size_t n);

  /// Keeps only events in [from, to) — used for the seasonal splits of the
  /// hemisphere analysis.  Returns the filtered copy.
  [[nodiscard]] ActivityTrace window(tz::UtcSeconds from, tz::UtcSeconds to) const;

 private:
  util::HandleTable ids_;                              ///< user id -> dense handle
  std::vector<std::vector<tz::UtcSeconds>> events_;    ///< handle -> events
  std::size_t total_ = 0;                              ///< running event count
};

}  // namespace tzgeo::core
