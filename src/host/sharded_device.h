// rdsim/host/sharded_device.h
//
// host::ShardedDevice: rdsim's one queued-device engine. It stripes the
// logical page space across N backend shards (one host::Servicer + one
// FlashTimeline per shard) and services the shards concurrently on a
// common/thread_pool.h ThreadPool — the host-layer instantiation of the
// same determinism contract sim::ExperimentRunner gives the experiments.
// The shard slot is the Servicer interface (servicer.h): Monte Carlo
// chips (ChipServicer) and analytic drives (SsdServicer) get the same
// RAID-0 N-way scaling. A single-drive backend is the N = 1 case,
// serviced inline on the calling thread.
//
// Striping. Global lpn L (wrapped modulo logical_pages()) lives on shard
// L % shards at shard-local lpn L / shards — RAID-0 page striping, so a
// sequential multi-page command fans its pages out across shards and hot
// ranges spread evenly. The pages of one command landing on one shard
// are a single contiguous run in that shard's local space (consecutive
// matching global pages differ by `shards`, i.e. by one local page), so
// the device hands each shard exactly one de-striped local sub-command;
// within its shard a page maps exactly like on a one-shard device (for a
// chip: block = local lpn / pages_per_block, LSB/MSB interleaved along
// the wordlines; see chip_servicer.h).
//
// Scheduling. Each shard owns an independent flash timeline: a command's
// per-shard portion starts at max(submit time, that shard's free time)
// and the shards never wait for each other — except at a flush, which is
// a cross-shard barrier (it completes when every shard finished all
// earlier work, and every shard's timeline advances to that point). A
// command's completion record combines its per-shard slots: service
// start is the earliest shard start, completion the latest shard
// completion, and stall the sum of the per-shard attributed stalls
// (which is also how the per-shard ledgers sum to the device total).
//
// Dispatch. A flush-free segment of a multi-shard device goes to the
// pool only when the work pays for the round trip: when the shards are
// Monte Carlo chips, or when the segment carries at least kPoolMinPages
// pages. Every other segment is serviced inline on the calling thread,
// command by command, each command's shard slots folded straight into its
// completion record.
//
// Determinism. Shard assignment is a pure function of the lpn, each
// shard services its sub-stream in global submission order against its
// own timeline, and the per-shard completion records are merged into one
// log by a stable sort keyed on (complete_time, submit order). Worker
// threads and the dispatch path only decide *where* a shard's
// (single-threaded) work runs and how it interleaves with other shards',
// and both paths fold a command's slots in shard order, so the merged
// log is byte-identical for any worker count on either path. Because
// per-shard completion times are not monotone in submission order, the
// log position of a record is only final once no future command can
// complete earlier. Every unserviced command starts no earlier than its
// shard's free time, so poll() withholds records that complete after
// both the newest submit time seen (submit stamps are non-decreasing)
// and the earliest shard free time, and, under a reordering arbitration
// policy, records that a still-queued command could still precede
// (bounded below by the later of the earliest queued submit time and
// the earliest shard free time), while drain() delivers everything.
// Polling cadences that end in one drain all observe the identical log
// (tests/test_sharded_device.cc and tests/test_arbitration.cc pin this,
// together with worker-count byte-identity).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "flash/params.h"
#include "host/device.h"
#include "host/servicer.h"
#include "host/timeline.h"
#include "nand/geometry.h"

namespace rdsim::host {

class ShardedDevice : public Device {
 public:
  /// Generic form: one Servicer per shard (all exporting the same local
  /// page count), serviced on a `workers`-wide pool; results never
  /// depend on the worker count.
  ShardedDevice(std::vector<std::unique_ptr<Servicer>> shards,
                int workers = 1, std::uint32_t queue_count = 1);

  /// One-shard form: a single backend on one timeline, serviced inline
  /// on the calling thread — the serial drive (make_device's `analytic`
  /// and `mc_chip` backends). The servicer keeps the seed it was built
  /// with; no shard seed is derived.
  explicit ShardedDevice(std::unique_ptr<Servicer> servicer,
                         std::uint32_t queue_count = 1);

  /// Monte-Carlo convenience form: `shard_geometry` is the geometry of
  /// EACH shard's chip (the device exports shards * blocks *
  /// pages_per_block logical pages), shard s's chip seeded with
  /// shard_seed(seed, s).
  ShardedDevice(const nand::Geometry& shard_geometry,
                const flash::FlashModelParams& params, std::uint64_t seed,
                std::uint32_t shards, int workers = 1,
                std::uint32_t queue_count = 1,
                const LatencyParams& latency = LatencyParams{});

  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }

  /// Smallest flush-free analytic segment, in pages, that service_segment
  /// hands to the pool; smaller ones are serviced inline. Not a setting:
  /// results are identical on either path, so only speed depends on it.
  /// Set at the measured crossover: host ns per page of a warm-filled
  /// 4-shard analytic drive (256 blocks x 128 pages per shard) serving
  /// segments of random 4-page reads on a 2-wide pool; median of 5 runs,
  /// each the median of 9 alternating reps, 4-vCPU host, gcc 12.2
  /// Release. The pool first wins at 512 pages (in 3 of the 5 runs):
  ///   segment pages    64   128   256   512  1024  2048  4096  8192
  ///   inline          140   128   148   138   146   137   144   160
  ///   pool            244   217   182   127   134   102   120   116
  static constexpr std::uint64_t kPoolMinPages = 512;

  std::uint64_t logical_pages() const override {
    return shard_count() * shards_.front().servicer->logical_pages();
  }

  /// Which shard owns global page `lpn`, and its address there.
  std::uint32_t shard_of(std::uint64_t lpn) const {
    return static_cast<std::uint32_t>(lpn % shard_count());
  }
  std::uint64_t local_lpn(std::uint64_t lpn) const {
    return lpn / shard_count();
  }

  /// The backend seed shard `shard` derives from the device seed, as the
  /// multi-shard forms use it — exposed so tests and the factory build
  /// shards exactly as the MC convenience ctor does. The one-shard form
  /// derives nothing: its servicer keeps the drive seed.
  static std::uint64_t shard_seed(std::uint64_t seed, std::uint32_t shard);

  /// Shard `shard`'s backend engine, for backend-specific setup and
  /// statistics (tests and the device factory downcast to the concrete
  /// Servicer they constructed).
  Servicer& shard_servicer(std::uint32_t shard) {
    return *shards_[shard].servicer;
  }
  const Servicer& shard_servicer(std::uint32_t shard) const {
    return *shards_[shard].servicer;
  }

  /// Shard `shard`'s chip, for characterization-level setup (pre-wear,
  /// retention aging) between queued operations. Monte-Carlo shards
  /// only — analytic shards have no chip.
  nand::Chip& shard_chip(std::uint32_t shard) {
    return *shards_[shard].servicer->mc_chip();
  }

  /// Per-shard attributed stall ledger: every stall second a completion
  /// carries is booked to the shard that caused it, so background
  /// interference can be localized to a chip. Sums to the single-chip
  /// stall total at shards = 1, and is cleared together with the
  /// aggregate statistics by reset_stats().
  double shard_stall_seconds(std::uint32_t shard) const {
    return shards_[shard].stall_seconds;
  }

  /// Clears the aggregate statistics and the per-shard stall ledgers in
  /// the same stroke, preserving their sums-to-total invariant across a
  /// measurement-window reset (e.g. after warm_fill).
  void reset_stats() override;
  std::uint64_t shard_pages_read(std::uint32_t shard) const {
    return shards_[shard].servicer->pages_read();
  }
  std::uint64_t shard_read_bit_errors(std::uint32_t shard) const {
    return shards_[shard].servicer->read_bit_errors();
  }
  /// Shard `shard`'s error-path attribution (ladder step counts,
  /// recovery seconds, write failures).
  ErrorStats shard_error_stats(std::uint32_t shard) const {
    return shards_[shard].servicer->error_stats();
  }
  /// Whole-device error-path attribution (sum over shards).
  ErrorStats error_stats() const;

  /// Whole-device totals (sums over shards).
  std::uint64_t read_bit_errors() const;
  std::uint64_t pages_read() const;
  std::uint64_t pages_written() const;
  std::uint64_t block_rewrites() const;

  double now_s() const override;

 protected:
  void pump(bool force) override;
  void run_end_of_day() override;
  void release_ready(bool drain_all) override;

 private:
  /// Cache-line aligned: pool workers write neighbouring shards'
  /// timelines and ledgers concurrently.
  struct alignas(64) Shard {
    std::unique_ptr<Servicer> servicer;
    FlashTimeline timeline;
    double stall_seconds = 0.0;
  };

  /// One command's landing on one shard.
  struct SubResult {
    double start_s = 0.0;
    double complete_s = 0.0;
    double stall_s = 0.0;
    Status status = Status::kOk;
    std::uint32_t error_pages = 0;
    bool present = false;
  };

  /// Services pending[begin, end) — a flush-free run — across the shards
  /// and appends one Completion per command to held_ in submission order.
  /// A one-shard device services the run inline. A multi-shard run goes
  /// to the pool (shard-major, through sub_results_) when its shards are
  /// Monte Carlo chips or it carries at least kPoolMinPages pages, and is
  /// otherwise serviced inline, command-major.
  void service_segment(const std::vector<Submitted>& pending,
                       std::size_t begin, std::size_t end);

  /// Services and schedules command `cmd`'s landing on shard `s`
  /// (`wrapped` is its first page modulo the `logical` page count);
  /// `present` is false when the command has no pages there.
  SubResult service_on_shard(std::uint32_t s, const Command& cmd,
                             std::uint64_t wrapped, std::uint64_t logical);

  /// Folds one shard slot into command record `rec`, whose service start
  /// begins at +infinity: service start is the earliest shard start,
  /// completion the latest shard completion, stall the sum of the shard
  /// stalls. Both dispatch paths fold in shard order, so they round alike.
  static void fold(const SubResult& r, Completion* rec);

  /// Cross-shard barrier: completes when every shard finished all earlier
  /// work; every shard's timeline advances to the barrier.
  Completion service_flush(const Submitted& sub);

  std::vector<Shard> shards_;
  ThreadPool pool_;
  /// Serviced completions not yet delivered, sorted by
  /// (complete_time, id) — the deterministic merged-log order. Records
  /// are released once no future submission (bounded below by the
  /// newest submit stamp and the earliest shard free time) and no
  /// still-queued command (bounded below by its submit stamp and the
  /// earliest shard free time) could complete earlier.
  std::vector<Completion> held_;
  /// True when the shards are Monte Carlo chips, whose per-page service
  /// cost always pays for a pool round trip.
  bool mc_shards_ = false;
  /// Pool-path scratch, shard-major so each worker writes its own run:
  /// sub_results_[shard * segment commands + cmd].
  std::vector<SubResult> sub_results_;
};

}  // namespace rdsim::host
