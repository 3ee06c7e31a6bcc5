#pragma once

/// \file history.hpp
/// Node histories and the view handed to protocols.
///
/// Formally a DRIP is a function of the full history H_v[0..i-1].  Two
/// representations back that history:
///   - dense (`History`): one entry per local round, used by the scalar
///     reference loop and by programs that keep a private copy;
///   - sparse (`EventHistory`): only the non-silent entries, as (index,
///     entry) events, plus a length.  Every other index below the length is
///     (∅).  The production simulator stores histories this way, so memory
///     and work follow what a node hears rather than how long it listens.
/// Long runs may also retain only a suffix window (protocols declare how far
/// back they look via Drip::history_window()).  HistoryView exposes the
/// total length plus the retained suffix in either representation, and
/// traps any out-of-window access as a contract violation, so windowing can
/// never silently change protocol behaviour.

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "radio/message.hpp"

namespace arl::radio {

/// A node's full (or suffix-retained) history, oldest entry first.
using History = std::vector<HistoryEntry>;

/// One non-silent history entry: H[index] == entry.
struct HistoryEvent {
  std::size_t index = 0;
  HistoryEntry entry;
};

/// A sparse history: its non-silent entries in increasing index order.
using EventHistory = std::vector<HistoryEvent>;

/// Read-only view over a possibly-windowed history, dense or sparse.
class HistoryView {
 public:
  /// Views `kept`, which holds entries [dropped, dropped + kept.size()).
  HistoryView(const History& kept, std::size_t dropped)
      : dense_(kept.data()), count_(kept.size()), length_(dropped + kept.size()),
        first_kept_(dropped), sparse_(false) {}

  /// Views a history of `length` entries whose non-silent ones are `events`;
  /// entries below `first_kept` count as evicted.
  HistoryView(const EventHistory& events, std::size_t length, std::size_t first_kept)
      : events_(events.data()), count_(events.size()), length_(length),
        first_kept_(first_kept), sparse_(true) {}

  /// Total number of entries ever recorded (H[0..length-1]).
  [[nodiscard]] std::size_t length() const { return length_; }

  /// Index of the oldest retained entry (0 when nothing was dropped).
  [[nodiscard]] std::size_t first_kept() const { return first_kept_; }

  /// Entry H[t]; requires first_kept() <= t < length().  On a sparse view
  /// entries from the last event on answer in O(1), older ones by binary
  /// search.
  [[nodiscard]] HistoryEntry entry(std::size_t t) const {
    ARL_EXPECTS(t >= first_kept_, "history entry no longer retained (window too small)");
    ARL_EXPECTS(t < length_, "history entry not recorded yet");
    if (!sparse_) {
      return dense_[t - first_kept_];
    }
    if (count_ == 0 || events_[count_ - 1].index < t) {
      return HistoryEntry::silence();
    }
    if (events_[count_ - 1].index == t) {
      return events_[count_ - 1].entry;
    }
    const HistoryEvent* it = first_event_at(t);
    return it->index == t ? it->entry : HistoryEntry::silence();
  }

  /// Most recent entry; requires a retained entry.
  [[nodiscard]] HistoryEntry last() const {
    ARL_EXPECTS(length_ > first_kept_, "empty history has no last entry");
    return entry(length_ - 1);
  }

  /// Index of the first non-silent entry H[t] with t >= `from`, or length()
  /// when H[from..] is all silence; requires first_kept() <= from.  Lets a
  /// program walk only what it heard: O(log events) per step on a sparse
  /// view, a scan on a dense one.
  [[nodiscard]] std::size_t next_event(std::size_t from) const {
    ARL_EXPECTS(from >= first_kept_, "history entry no longer retained (window too small)");
    if (!sparse_) {
      for (std::size_t t = from; t < length_; ++t) {
        if (!dense_[t - first_kept_].is_silence()) {
          return t;
        }
      }
      return length_;
    }
    const HistoryEvent* it = first_event_at(from);
    return it != events_ + count_ ? std::min(it->index, length_) : length_;
  }

  /// True when no entry has been recorded.
  [[nodiscard]] bool empty() const { return length() == 0; }

 private:
  /// First event with index >= t (or the end).
  [[nodiscard]] const HistoryEvent* first_event_at(std::size_t t) const {
    return std::partition_point(events_, events_ + count_,
                                [t](const HistoryEvent& e) { return e.index < t; });
  }

  const HistoryEntry* dense_ = nullptr;   ///< retained entries (dense view)
  const HistoryEvent* events_ = nullptr;  ///< non-silent entries (sparse view)
  std::size_t count_;                     ///< retained entries or events
  std::size_t length_;
  std::size_t first_kept_;
  bool sparse_;
};

/// Renders a history as space-separated compact entries ("- m1 * -").
[[nodiscard]] std::string format_history(const History& history);

}  // namespace arl::radio
