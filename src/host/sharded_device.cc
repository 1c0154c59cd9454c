#include "host/sharded_device.h"

#include <algorithm>
#include <limits>

#include "common/rng.h"
#include "host/chip_servicer.h"

namespace rdsim::host {

namespace {

/// Command `id`'s completion record with its identity fields filled in.
Completion record_of(std::uint64_t id, const Command& cmd) {
  Completion rec;
  rec.id = id;
  rec.kind = cmd.kind;
  rec.queue = cmd.queue;
  rec.tenant = cmd.tenant;
  rec.lpn = cmd.lpn;
  rec.pages = cmd.pages;
  rec.submit_time_s = cmd.submit_time_s;
  return rec;
}

}  // namespace

ShardedDevice::ShardedDevice(std::vector<std::unique_ptr<Servicer>> shards,
                             int workers, std::uint32_t queue_count)
    : Device(queue_count), pool_(workers) {
  shards_.resize(shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    mc_shards_ = mc_shards_ || shards[s]->mc_chip() != nullptr;
    shards_[s].servicer = std::move(shards[s]);
  }
}

ShardedDevice::ShardedDevice(std::unique_ptr<Servicer> servicer,
                             std::uint32_t queue_count)
    : Device(queue_count) {
  shards_.resize(1);
  shards_.front().servicer = std::move(servicer);
}

ShardedDevice::ShardedDevice(const nand::Geometry& shard_geometry,
                             const flash::FlashModelParams& params,
                             std::uint64_t seed, std::uint32_t shards,
                             int workers, std::uint32_t queue_count,
                             const LatencyParams& latency)
    : Device(queue_count), pool_(workers), mc_shards_(true) {
  shards_.resize(std::max<std::uint32_t>(1, shards));
  // Chip construction is bookkeeping-only under lazy materialization, so
  // building the shards serially costs nothing worth parallelizing.
  for (std::uint32_t s = 0; s < shards_.size(); ++s)
    shards_[s].servicer = std::make_unique<ChipServicer>(
        shard_geometry, params, shard_seed(seed, s), latency);
}

std::uint64_t ShardedDevice::shard_seed(std::uint64_t seed,
                                        std::uint32_t shard) {
  // One decorrelated 64-bit chip seed per shard, a pure function of
  // (device seed, shard index) — the same derivation discipline as the
  // experiment shards' Rng::stream(seed, i).
  return Rng::stream(seed, shard).next();
}

std::uint64_t ShardedDevice::read_bit_errors() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.servicer->read_bit_errors();
  return n;
}

std::uint64_t ShardedDevice::pages_read() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.servicer->pages_read();
  return n;
}

std::uint64_t ShardedDevice::pages_written() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.servicer->pages_written();
  return n;
}

std::uint64_t ShardedDevice::block_rewrites() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.servicer->block_rewrites();
  return n;
}

ErrorStats ShardedDevice::error_stats() const {
  ErrorStats total;
  for (const Shard& s : shards_) total += s.servicer->error_stats();
  return total;
}

double ShardedDevice::now_s() const {
  double t = 0.0;
  for (const Shard& s : shards_) t = std::max(t, s.timeline.free_s());
  return t;
}

void ShardedDevice::pump(bool force) {
  const std::vector<Submitted> pending = take_pending(force);
  if (pending.empty()) return;

  // Service in flush-separated segments: within a segment the shards run
  // concurrently and never wait for each other; each flush is a
  // cross-shard barrier handled on the coordinating thread. New records
  // land straight in held_'s unsorted tail.
  const std::size_t old_size = held_.size();
  held_.reserve(old_size + pending.size());
  std::size_t i = 0;
  while (i < pending.size()) {
    if (pending[i].command.kind == CommandKind::kFlush) {
      held_.push_back(service_flush(pending[i]));
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < pending.size() &&
           pending[j].command.kind != CommandKind::kFlush)
      ++j;
    service_segment(pending, i, j);
    i = j;
  }

  // Record in service order, then restore held_'s log order: sort only
  // the new tail, and merge only when it reaches back into the old
  // records (a one-shard device's completions are almost always already
  // in order).
  const auto mid = held_.begin() + static_cast<std::ptrdiff_t>(old_size);
  for (auto it = mid; it != held_.end(); ++it) record(*it);
  if (!std::is_sorted(mid, held_.end(), completion_log_order))
    std::sort(mid, held_.end(), completion_log_order);
  if (old_size > 0 && completion_log_order(*mid, *(mid - 1)))
    std::inplace_merge(held_.begin(), mid, held_.end(), completion_log_order);
}

void ShardedDevice::service_segment(const std::vector<Submitted>& pending,
                                    std::size_t begin, std::size_t end) {
  if (shard_count() == 1) {
    // One shard: the local command is the global command, so service,
    // schedule and record it directly — no de-striping, no per-shard
    // scratch, no pool dispatch.
    Shard& shard = shards_.front();
    for (std::size_t k = begin; k < end; ++k) {
      const Command& cmd = pending[k].command;
      // A zero-page command costs nothing and never reaches the servicer.
      const ServiceCost cost =
          cmd.pages == 0 ? ServiceCost{} : shard.servicer->service(cmd);
      const FlashTimeline::Slot slot =
          shard.timeline.schedule(cmd.submit_time_s, cost);
      Completion rec = record_of(pending[k].id, cmd);
      rec.service_start_s = slot.start_s;
      rec.complete_time_s = slot.complete_s;
      rec.stall_s = cost.stall_s + slot.bg_overlap_s;
      rec.status = cost.status;
      rec.error_pages = cost.error_pages;
      shard.stall_seconds += rec.stall_s;
      held_.push_back(rec);
    }
    return;
  }

  // Hand the segment to the pool only when the work pays for the round
  // trip; otherwise service it below, command-major, on this thread.
  // Either way each shard sees its commands in submission order.
  const std::size_t n = end - begin;
  const std::uint32_t shard_n = shard_count();
  const std::uint64_t logical = logical_pages();
  std::uint64_t pages = 0;
  for (std::size_t k = begin; k < end && pages < kPoolMinPages; ++k)
    pages += pending[k].command.pages;
  const bool pooled = mc_shards_ || pages >= kPoolMinPages;
  if (pooled) {
    sub_results_.assign(n * shard_n, SubResult{});
    pool_.for_each(shard_n, [&](std::size_t s) {
      for (std::size_t k = 0; k < n; ++k) {
        const Command& cmd = pending[begin + k].command;
        sub_results_[s * n + k] = service_on_shard(
            static_cast<std::uint32_t>(s), cmd, cmd.lpn % logical, logical);
      }
    });
  }
  for (std::size_t k = 0; k < n; ++k) {
    const Submitted& sub = pending[begin + k];
    Completion rec = record_of(sub.id, sub.command);
    rec.service_start_s = std::numeric_limits<double>::infinity();
    const std::uint64_t wrapped = sub.command.lpn % logical;
    for (std::uint32_t s = 0; s < shard_n; ++s)
      fold(pooled ? sub_results_[s * n + k]
                  : service_on_shard(s, sub.command, wrapped, logical),
           &rec);
    held_.push_back(rec);
  }
}

ShardedDevice::SubResult ShardedDevice::service_on_shard(
    std::uint32_t s, const Command& cmd, std::uint64_t wrapped,
    std::uint64_t logical) {
  const std::uint32_t shard_n = shard_count();
  Shard& shard = shards_[s];
  ServiceCost cost;
  SubResult r;
  if (cmd.pages == 0) {
    // Degenerate range: schedule a zero-cost record on the owning shard
    // so the command still completes exactly once.
    if (shard_of(wrapped) != s) return r;
  } else {
    // De-stripe: this shard's pages of the range are global offsets k0,
    // k0 + shard_n, ... — one contiguous run in local space (each step is
    // one local page), so the whole landing is a single local sub-command
    // the servicer wraps internally.
    const std::uint64_t k0 = (s + shard_n - wrapped % shard_n) % shard_n;
    if (k0 >= cmd.pages) return r;
    Command local = cmd;
    local.lpn = local_lpn((wrapped + k0) % logical);
    local.pages =
        static_cast<std::uint32_t>((cmd.pages - k0 + shard_n - 1) / shard_n);
    cost = shard.servicer->service(local);
  }
  const FlashTimeline::Slot slot =
      shard.timeline.schedule(cmd.submit_time_s, cost);
  r.present = true;
  r.start_s = slot.start_s;
  r.complete_s = slot.complete_s;
  r.stall_s = cost.stall_s + slot.bg_overlap_s;
  r.status = cost.status;
  r.error_pages = cost.error_pages;
  shard.stall_seconds += r.stall_s;
  return r;
}

void ShardedDevice::fold(const SubResult& r, Completion* rec) {
  if (!r.present) return;
  rec->service_start_s = std::min(rec->service_start_s, r.start_s);
  rec->complete_time_s = std::max(rec->complete_time_s, r.complete_s);
  rec->stall_s += r.stall_s;
  rec->status = worst_status(rec->status, r.status);
  rec->error_pages += r.error_pages;
}

Completion ShardedDevice::service_flush(const Submitted& sub) {
  const Command& cmd = sub.command;
  double barrier = 0.0;
  double stall = 0.0;
  for (Shard& shard : shards_) {
    const FlashTimeline::Slot slot =
        shard.timeline.schedule(cmd.submit_time_s, ServiceCost{});
    barrier = std::max(barrier, slot.start_s);
    stall += slot.bg_overlap_s;
    shard.stall_seconds += slot.bg_overlap_s;
  }
  for (Shard& shard : shards_) shard.timeline.barrier(barrier);

  Completion rec = record_of(sub.id, cmd);
  rec.service_start_s = barrier;
  rec.complete_time_s = barrier;
  rec.stall_s = stall;
  return rec;
}

void ShardedDevice::release_ready(bool drain_all) {
  // A held record's log position is final once nothing can still slot in
  // before it. Every command not yet serviced starts no earlier than its
  // shard's free time, so no earlier than the earliest shard free time;
  // future submissions also complete no earlier than the newest submit
  // stamp seen (non-decreasing by the driver contract; a tie goes to the
  // held record's smaller id), and commands a reordering policy left
  // queued no earlier than their own submit stamp (strict bound — a
  // queued command carries a smaller id, so it wins a tie).
  double free_s = std::numeric_limits<double>::infinity();
  for (const Shard& s : shards_)
    free_s = std::min(free_s, s.timeline.free_s());
  const double future_s = std::max(max_submit_seen_s(), free_s);
  const double queued_s =
      has_pending() ? std::max(min_pending_submit_s(), free_s)
                    : std::numeric_limits<double>::infinity();
  std::size_t n = 0;
  while (n < held_.size() &&
         (drain_all || (held_[n].complete_time_s <= future_s &&
                        held_[n].complete_time_s < queued_s))) {
    deliver(held_[n]);
    ++n;
  }
  held_.erase(held_.begin(), held_.begin() + static_cast<std::ptrdiff_t>(n));
}

void ShardedDevice::reset_stats() {
  Device::reset_stats();
  for (Shard& shard : shards_) shard.stall_seconds = 0.0;
}

void ShardedDevice::run_end_of_day() {
  // Per shard: whatever flash busy time the nightly maintenance consumed
  // occupies the next free window of that shard's timeline.
  for (Shard& shard : shards_) {
    const double busy = shard.servicer->end_of_day();
    if (busy > 0.0) shard.timeline.reserve_next(busy);
  }
}

}  // namespace rdsim::host
