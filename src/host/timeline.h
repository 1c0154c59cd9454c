// rdsim/host/timeline.h
//
// FlashTimeline: the single-resource scheduling model shared by every
// host::Device backend. One timeline represents one flash unit (a chip,
// or the whole analytic drive): work arriving at `submit_s` starts at
// max(submit_s, free time), occupies the unit for its busy + stall
// seconds, and background work (inline GC, nightly maintenance, block
// turnover) reserves windows whose overlap with a later command's queue
// wait is attributed as that command's stall.
//
// ShardedDevice owns one FlashTimeline per shard, so N chips schedule
// independently and a one-shard drive runs on exactly one. Everything here
// is simulated-clock arithmetic — no wall clock, no RNG — which is what
// makes a completion schedule a pure function of the submission stream
// (the determinism contract in docs/ARCHITECTURE.md).
#pragma once

#include <algorithm>
#include <deque>

#include "host/command.h"

namespace rdsim::host {

class FlashTimeline {
 public:
  /// Where one scheduled unit of work landed on the timeline.
  struct Slot {
    double start_s = 0.0;       ///< When the unit began the work.
    double complete_s = 0.0;    ///< start + busy + stall.
    double bg_overlap_s = 0.0;  ///< Queue-wait overlap with background
                                ///< reservations (caller adds it to the
                                ///< command's attributed stall).
  };

  /// End of the last scheduled work.
  double free_s() const { return free_s_; }

  /// Schedules work arriving at `submit_s`: starts at max(submit_s,
  /// free_s()), occupies busy + stall seconds, and books the stall
  /// portion as a background reservation (it sits after the command's
  /// own data movement, where followers wait on it). Windows wholly
  /// before `submit_s` are pruned — submit stamps are non-decreasing in
  /// every rdsim driver, so no later command can still overlap them (for
  /// a non-monotone hand-built stream the pruning under-attributes,
  /// never over-attributes).
  Slot schedule(double submit_s, const ServiceCost& cost) {
    Slot slot;
    slot.start_s = std::max(submit_s, free_s_);
    while (!bg_windows_.empty() && bg_windows_.front().until_s <= submit_s)
      bg_windows_.pop_front();
    for (const BgWindow& w : bg_windows_) {
      if (w.from_s >= slot.start_s) break;
      slot.bg_overlap_s +=
          std::max(0.0, std::min(slot.start_s, w.until_s) -
                            std::max(submit_s, w.from_s));
    }
    slot.complete_s = slot.start_s + cost.busy_s + cost.stall_s;
    free_s_ = slot.complete_s;
    if (cost.stall_s > 0.0)
      reserve(slot.start_s + cost.busy_s, slot.complete_s);
    return slot;
  }

  /// Reserves the next `busy_s` seconds for background work (nightly
  /// maintenance): the flash is busy from its current free time.
  void reserve_next(double busy_s) {
    const double from = free_s_;
    free_s_ += busy_s;
    reserve(from, free_s_);
  }

  /// Raises the free time to at least `t` without reserving a window —
  /// the cross-shard flush barrier: after a flush, no shard may start
  /// new work before the barrier completed on every shard.
  void barrier(double t) { free_s_ = std::max(free_s_, t); }

 private:
  /// A background reservation [from_s, until_s); kept oldest first and
  /// disjoint, merging with the newest window when they touch.
  struct BgWindow {
    double from_s;
    double until_s;
  };

  void reserve(double from_s, double until_s) {
    if (!bg_windows_.empty() && from_s <= bg_windows_.back().until_s) {
      bg_windows_.back().until_s =
          std::max(bg_windows_.back().until_s, until_s);
    } else {
      bg_windows_.push_back({from_s, until_s});
    }
  }

  double free_s_ = 0.0;
  std::deque<BgWindow> bg_windows_;
};

}  // namespace rdsim::host
