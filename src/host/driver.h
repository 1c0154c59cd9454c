// rdsim/host/driver.h
//
// Host-side driving patterns shared by the QoS experiments, the perf
// harness, the examples, and the tests — so the subtle parts (slot
// accounting, submit-time re-stamping, warm-up hygiene) exist exactly
// once.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <vector>

#include "host/device.h"

namespace rdsim::host {

/// Fills the device's whole logical space once (ascending lpn order) so
/// every subsequent read hits mapped data, then discards the warm-up
/// completions and statistics. Works for any backend: on a striped
/// ShardedDevice the ascending-lpn pass round-robins the shards, so each
/// shard's chip is filled (and turned over) evenly. The fill still
/// occupies the flash timeline(s) — start the workload clock at
/// device.now_s() (or drive it closed-loop) so measured commands don't
/// queue behind the fill.
inline void warm_fill(Device& device) {
  Command write;
  write.kind = CommandKind::kWrite;
  const std::uint64_t logical = device.logical_pages();
  for (std::uint64_t lpn = 0; lpn < logical; ++lpn) {
    write.lpn = lpn;
    device.submit(write);
  }
  std::vector<Completion> scratch;
  device.drain(&scratch);
  device.reset_stats();
}

/// Closed-loop (zero think time) replay at a fixed queue depth: keeps at
/// most `depth` commands outstanding and re-stamps each command's submit
/// time to the instant a completion freed a slot — the fio-style QD
/// benchmark pattern. The clock carries across run() calls, so a
/// multi-day replay with Device::end_of_day() between batches stays
/// monotone.
///
/// In-flight accounting is driver-side, and slots are freed in
/// completion-time order from a drained buffer: poll() may legitimately
/// return nothing on a sharded device (records whose log position is not
/// final yet are withheld), but drain() always delivers, sorted by
/// (complete_time, submit order) — so the "next completion" that frees a
/// slot is exactly the earliest one, on every backend. On a
/// single-timeline device completions are already in that order, so the
/// replay schedule (and fig_qos's golden) is unchanged by this buffering.
class ClosedLoopDriver {
 public:
  ClosedLoopDriver(Device& device, int depth)
      : device_(&device),
        depth_(static_cast<std::size_t>(depth < 1 ? 1 : depth)),
        release_s_(device.now_s()),
        last_submit_s_(release_s_) {}

  /// Optional completion sink: every record the driver drains from the
  /// device is appended to *sink (in delivery order, each exactly once),
  /// so callers that need the completion log — the trace replayer's
  /// latency CDFs — can drive closed-loop without re-polling. nullptr
  /// (the default) disables it; the replay schedule is unaffected either
  /// way.
  void set_completion_sink(std::vector<Completion>* sink) { sink_ = sink; }

  /// Replays one batch of commands (submit-time stamps are overwritten)
  /// and absorbs every completion at the end of the batch: submit() for
  /// each command, then settle().
  void run(const std::vector<Command>& commands) {
    for (const Command& c : commands) submit(c);
    settle();
  }

  /// Submits one command (its submit-time stamp is overwritten) once a
  /// slot is free. A stream fed command by command and settled once
  /// follows exactly the schedule of one run() over the whole stream.
  void submit(Command c) {
    if (in_flight_ >= depth_) release_s_ = next_completion_s();
    c.submit_time_s = std::max(last_submit_s_, release_s_);
    last_submit_s_ = c.submit_time_s;
    device_->submit(c);
    ++in_flight_;
  }

  /// Absorbs everything still in flight so the next batch (or
  /// end_of_day) starts from a quiet device.
  void settle() {
    // Both the local buffer and the device deliver in completion order,
    // so each back() is the latest completion it holds.
    if (next_ < buffer_.size())
      release_s_ = std::max(release_s_, buffer_.back().complete_time_s);
    buffer_.clear();
    device_->drain(&buffer_);
    if (sink_ != nullptr)
      sink_->insert(sink_->end(), buffer_.begin(), buffer_.end());
    if (!buffer_.empty())
      release_s_ = std::max(release_s_, buffer_.back().complete_time_s);
    buffer_.clear();
    next_ = 0;
    in_flight_ = 0;
  }

 private:
  /// Completion time of the next (earliest) in-flight completion. A
  /// command submitted since the last drain can complete *earlier* than
  /// anything still buffered (independent shard timelines), so fresh
  /// completions are drained and merged before taking the minimum —
  /// both the device's delivery and the buffer follow
  /// completion_log_order, so the buffer stays a sorted queue holding at
  /// most ~depth unconsumed records. On a single-timeline device fresh
  /// records always sort after the buffered tail, so the merge
  /// degenerates to an append.
  double next_completion_s() {
    fresh_.clear();
    device_->drain(&fresh_);
    if (sink_ != nullptr)
      sink_->insert(sink_->end(), fresh_.begin(), fresh_.end());
    if (!fresh_.empty()) {
      if (next_ > 0) {
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() + static_cast<std::ptrdiff_t>(next_));
        next_ = 0;
      }
      if (buffer_.empty() ||
          !completion_log_order(fresh_.front(), buffer_.back())) {
        buffer_.insert(buffer_.end(), fresh_.begin(), fresh_.end());
      } else {
        const auto mid = static_cast<std::ptrdiff_t>(buffer_.size());
        buffer_.insert(buffer_.end(), fresh_.begin(), fresh_.end());
        std::inplace_merge(buffer_.begin(), buffer_.begin() + mid,
                           buffer_.end(), completion_log_order);
      }
    }
    const double t = buffer_[next_].complete_time_s;
    ++next_;
    --in_flight_;
    return t;
  }

  Device* device_;
  std::size_t depth_;
  double release_s_;
  double last_submit_s_;
  std::size_t in_flight_ = 0;
  std::vector<Completion> buffer_;
  std::vector<Completion> fresh_;
  std::size_t next_ = 0;
  std::vector<Completion>* sink_ = nullptr;
};

/// Burst-window replay: submits commands in fixed-size windows, every
/// command in a window re-stamped with the same submit time (the
/// window's opening clock), drains the device, and advances the clock to
/// the window's last completion. Where ClosedLoopDriver trickles one
/// command per freed slot (the pending set a policy sees is nearly
/// empty), a whole window is co-pending here — which is what gives a
/// reordering arbitration policy real choices to make, so the
/// multi-tenant QoS experiments drive with this; the window size plays
/// the queue-depth role. Deterministic for the same reason as
/// ClosedLoopDriver: the schedule is a pure function of the command
/// stream and the window size (the drain per window is also what
/// finalizes each window's service order under every policy).
class BurstWindowDriver {
 public:
  BurstWindowDriver(Device& device, int window)
      : device_(&device),
        window_(static_cast<std::size_t>(window < 1 ? 1 : window)),
        clock_s_(device.now_s()) {}

  /// Optional completion sink, same contract as ClosedLoopDriver's.
  void set_completion_sink(std::vector<Completion>* sink) { sink_ = sink; }

  /// Replays one batch of commands (submit-time stamps are overwritten
  /// window by window). The clock carries across run() calls.
  void run(const std::vector<Command>& commands) {
    std::size_t i = 0;
    while (i < commands.size()) {
      const std::size_t end = std::min(commands.size(), i + window_);
      for (; i < end; ++i) {
        Command c = commands[i];
        c.submit_time_s = clock_s_;
        device_->submit(c);
      }
      buffer_.clear();
      device_->drain(&buffer_);
      if (sink_ != nullptr)
        sink_->insert(sink_->end(), buffer_.begin(), buffer_.end());
      // drain() delivers in completion order, so back() is the window's
      // last completion; the max keeps the clock monotone even for an
      // all-flush window on an idle device (complete == submit).
      if (!buffer_.empty())
        clock_s_ = std::max(clock_s_, buffer_.back().complete_time_s);
    }
  }

 private:
  Device* device_;
  std::size_t window_;
  double clock_s_;
  std::vector<Completion> buffer_;
  std::vector<Completion>* sink_ = nullptr;
};

}  // namespace rdsim::host
