// perfbench/trace.h
//
// The benchmark's span recorder. A span is one call the benchmark makes
// into an rdsim layer: a name, a host-time interval, the thread it ran on,
// a shared id (the drive-day, burst window or command it belongs to) and
// its parent. Spans come in two levels:
//
//   * a root is a call the benchmark's own loop makes (a driver step, a
//     drive-day, a set-up stage) and is closed with root();
//   * a child is a call made inside the current root, possibly on another
//     thread (a shard's Servicer::service on a pool worker), and is
//     recorded with child(). Children take their root's id.
//
// When a root closes, its children are gathered, the part of the root's
// interval they cover (their union, clipped to the root) is subtracted to
// give the root's self time, and both are folded into per-phase, per-kind
// totals. Nothing else is kept, except the span trees of every set-up root
// and of every `sample_every`-th timed root (at most 256 children each),
// up to `max_kept` spans, which write_chrome_trace() emits as Chrome Trace
// Event JSON. So memory stays bounded however long the run is.
//
// Threading: child() appends to a per-thread buffer. root(..., true)
// gathers every thread's buffer, so it may only be called while no other
// thread records — true after a ShardedDevice call returns, because its
// pool is fork-join. root(..., false) gathers the calling thread's buffer
// only, for roots whose children all run on their own thread (the
// lifetime workload's drive-days, which run concurrently on a pool).
// set_phase() likewise runs only while no other thread records.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Host time in nanoseconds on the steady clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Every span the benchmark records. The name's prefix is the rdsim
/// module whose call the span times.
enum class Kind : std::uint8_t {
  kHostStep,          ///< A driver step: burst window, command chunk.
  kHostEndOfDay,      ///< Device::end_of_day().
  kServicerService,   ///< Servicer::service() of one shard.
  kServicerEndOfDay,  ///< Servicer::end_of_day() of one shard.
  kDriveDay,          ///< lifetime: one drive-day of the per-drive loop.
  kWorkloadGen,       ///< TraceGenerator/MultiTenantGenerator day_commands().
  kSsdService,        ///< lifetime: the day's Ssd::service() calls.
  kSsdEndOfDay,       ///< lifetime: Ssd::end_of_day().
  kMakeDevice,        ///< Drive construction.
  kPreAge,            ///< Monte Carlo pre-wear of every block.
  kWarmFill,          ///< host::warm_fill().
  kCount
};

/// The two phases of a repetition; totals are kept apart per phase.
enum class Phase : std::uint8_t { kSetup, kTimed, kCount };

const char* kind_name(Kind kind);

/// Per-kind totals over every recorded span of one phase.
struct KindTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;  ///< Sum of durations.
  std::int64_t self_ns = 0;   ///< Sum of durations minus child coverage.
  std::uint64_t work = 0;     ///< Sum of the spans' work units.
};

inline constexpr std::size_t kKinds = static_cast<std::size_t>(Kind::kCount);
inline constexpr std::size_t kPhases = static_cast<std::size_t>(Phase::kCount);
using Totals = std::array<KindTotals, kKinds>;

class Tracer {
 public:
  Tracer(std::uint64_t sample_every, std::size_t max_kept);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Switches the phase later spans are totalled under.
  void set_phase(Phase phase) { phase_ = phase; }

  /// Records a child of the root currently open on the benchmark's loop.
  /// `shard` is the shard index (or 0), `work` the span's work units.
  void child(Kind kind, std::int64_t start_ns, std::int64_t end_ns,
             std::uint32_t shard, std::uint64_t work);

  /// Closes a root over [start_ns, end_ns] and attributes the children
  /// recorded since the previous root (on every thread when `all_threads`,
  /// else on the calling thread only).
  void root(Kind kind, std::int64_t start_ns, std::int64_t end_ns,
            std::uint64_t id, std::uint64_t work, bool all_threads);

  /// Totals per kind in `phase`, summed over threads. Call while no
  /// thread records.
  Totals totals(Phase phase) const;

  /// Busy time per shard across the Servicer::service spans of `phase`.
  std::vector<std::int64_t> shard_busy_ns(Phase phase) const;

  /// Durations of every root of `kind` in `phase`.
  std::vector<std::int64_t> root_durations_ns(Phase phase, Kind kind) const;

  /// Host time the thread that created the tracer (the benchmark's loop
  /// thread) spent in `phase` inside root spans or closing them (root()'s
  /// own gathering and totalling, a tracing cost no span covers).
  std::int64_t loop_covered_ns(Phase phase) const;

  /// Writes the kept spans as Chrome Trace Event JSON ("X" events, host
  /// time in microseconds since the tracer's creation). `metadata` must
  /// be a JSON object; it is stored under "otherData". Returns false on
  /// an I/O error.
  bool write_chrome_trace(const std::string& path,
                          const std::string& metadata) const;

 private:
  struct Span {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t work = 0;
    std::uint64_t span_id = 0;
    std::uint64_t parent = 0;  ///< span_id of the root; 0 for a root.
    std::uint32_t tid = 0;
    std::uint32_t shard = 0;
    Kind kind = Kind::kHostStep;
  };
  struct PhaseData {
    Totals totals{};
    std::vector<std::int64_t> shard_busy_ns;
    std::array<std::vector<std::int64_t>, kKinds> root_durations;
    std::int64_t root_ns = 0;         ///< Sum of root durations.
    std::int64_t bookkeeping_ns = 0;  ///< root() after the root ended.
  };
  struct ThreadBuf {
    std::uint32_t tid = 0;
    std::vector<Span> pending;  ///< Children of the open root.
    std::vector<Span> gathered;  ///< root()'s scratch, kept for capacity.
    std::array<PhaseData, kPhases> phases;
  };

  ThreadBuf& local();
  /// Keeps a closed root and its children for the Chrome trace when the
  /// sampling and the span budget allow.
  void keep(Kind kind, std::int64_t start_ns, std::int64_t end_ns,
            std::uint64_t id, std::uint64_t work, std::uint32_t tid,
            std::vector<Span>* children);
  PhaseData& data(ThreadBuf& buf) {
    return buf.phases[static_cast<std::size_t>(phase_)];
  }

  const std::uint64_t sample_every_;
  const std::size_t max_kept_;
  const std::int64_t epoch_ns_;
  const std::uint64_t generation_;  ///< Tells tracers apart in thread_local.
  Phase phase_ = Phase::kSetup;
  ThreadBuf* loop_buf_ = nullptr;  ///< The creating thread's buffer.

  mutable std::mutex mu_;  ///< Guards bufs_, kept_ and next_span_id_.
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
  std::vector<Span> kept_;
  std::uint64_t next_span_id_ = 1;
  std::atomic<std::uint64_t> timed_roots_seen_{0};
};

/// Measures one call as a root span; a no-op when `tracer` is null.
class RootScope {
 public:
  RootScope(Tracer* tracer, Kind kind, std::uint64_t id,
            bool all_threads = true)
      : tracer_(tracer), kind_(kind), id_(id), all_threads_(all_threads),
        start_ns_(tracer != nullptr ? now_ns() : 0) {}
  ~RootScope() {
    if (tracer_ != nullptr)
      tracer_->root(kind_, start_ns_, now_ns(), id_, work_, all_threads_);
  }
  RootScope(const RootScope&) = delete;
  RootScope& operator=(const RootScope&) = delete;

  void set_work(std::uint64_t work) { work_ = work; }

 private:
  Tracer* tracer_;
  Kind kind_;
  std::uint64_t id_;
  bool all_threads_;
  std::int64_t start_ns_;
  std::uint64_t work_ = 0;
};

/// Measures one call as a child span; a no-op when `tracer` is null.
class ChildScope {
 public:
  ChildScope(Tracer* tracer, Kind kind, std::uint32_t shard = 0)
      : tracer_(tracer), kind_(kind), shard_(shard),
        start_ns_(tracer != nullptr ? now_ns() : 0) {}
  ~ChildScope() {
    if (tracer_ != nullptr)
      tracer_->child(kind_, start_ns_, now_ns(), shard_, work_);
  }
  ChildScope(const ChildScope&) = delete;
  ChildScope& operator=(const ChildScope&) = delete;

  void set_work(std::uint64_t work) { work_ = work; }

 private:
  Tracer* tracer_;
  Kind kind_;
  std::uint32_t shard_;
  std::int64_t start_ns_;
  std::uint64_t work_ = 0;
};

}  // namespace perfbench
