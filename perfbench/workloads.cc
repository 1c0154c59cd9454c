#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <utility>

#include "cfg/spec.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "ecc/crc32.h"
#include "host/chip_servicer.h"
#include "host/driver.h"
#include "host/factory.h"
#include "host/sharded_device.h"
#include "host/ssd_device.h"
#include "host/ssd_servicer.h"
#include "nand/chip.h"
#include "ssd/ssd.h"
#include "workload/generator.h"
#include "workload/profiles.h"
#include "workload/tenants.h"

namespace perfbench {

using rdsim::Rng;
using rdsim::ThreadPool;
namespace cfg = rdsim::cfg;
namespace host = rdsim::host;
namespace ssd = rdsim::ssd;
namespace workload = rdsim::workload;

namespace {

// --- Workload sizes --------------------------------------------------------

// lifetime: fig_fleet's drive shape and traffic, aged day by day.
constexpr std::uint32_t kLifetimeDrives = 16;  // 8x the pool width.
constexpr std::uint32_t kLifetimeDays = 40;    // Timed days per drive.

// mc_reliability: four pre-aged characterization chips.
constexpr std::uint32_t kMcBlocksPerShard = 16;
// Worn enough that a share of reads fails read-retry and runs RDR
// (fig_reliability's worn case, at a wear where every ladder step still
// decodes some reads).
constexpr std::uint64_t kMcPreWearPe = 16500;
constexpr double kMcDailyPageIos = 4000.0;
constexpr int kMcDays = 3;
constexpr int kMcDepth = 16;

// tenants: fig_qos_tenants' drive and tenant pair, weighted arbitration.
constexpr double kVictimDailyPageIos = 2.2e5;
constexpr double kAggressorDailyPageIos = 8.8e5;
constexpr int kTenantsDays = 2;
constexpr int kTenantsWindow = 16;

// qd1_analytic: one serial analytic drive, one command at a time.
constexpr double kQd1DailyPageIos = 3.0e6;
constexpr int kQd1Days = 2;

/// A step size that makes each simulated day one driver call.
constexpr std::size_t kWholeDay = SIZE_MAX;

// --- Phase timing ----------------------------------------------------------

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

/// Splits one repetition into its set-up and timed phases.
class Phases {
 public:
  explicit Phases(Tracer* tracer) : tracer_(tracer), start_ns_(now_ns()) {
    if (tracer_ != nullptr) tracer_->set_phase(Phase::kSetup);
  }

  void start_timed() {
    if (tracer_ != nullptr) tracer_->set_phase(Phase::kTimed);
    cpu0_ = cpu_seconds();
    timed_ns_ = now_ns();
  }

  void end_timed(Rep* rep) const {
    const std::int64_t end = now_ns();
    rep->cpu_s = cpu_seconds() - cpu0_;
    rep->setup_s = static_cast<double>(timed_ns_ - start_ns_) * 1e-9;
    rep->timed_s = static_cast<double>(end - timed_ns_) * 1e-9;
  }

 private:
  Tracer* tracer_;
  std::int64_t start_ns_;
  std::int64_t timed_ns_ = 0;
  double cpu0_ = 0.0;
};

// --- Simulated-output helpers ----------------------------------------------

void add_analytic(Counts* c, const ssd::Ssd& drive) {
  const auto& fs = drive.ftl().stats();
  const auto& ss = drive.stats();
  c->has_ftl = true;
  c->ftl_host_reads += fs.host_reads;
  c->ftl_host_writes += fs.host_writes;
  c->ftl_gc_writes += fs.gc_writes;
  c->ftl_gc_erases += fs.gc_erases;
  c->ftl_refresh_writes += fs.refresh_writes;
  c->ftl_other_writes += fs.reclaim_writes + fs.defect_writes;
  c->ftl_max_pe = std::max<std::uint64_t>(c->ftl_max_pe, drive.ftl().max_pe());
  // The analytic drive's error path, attributed as host::SsdServicer
  // does: closed-form ECC decodes or fails, with no retry/RDR ladder.
  c->pages_read += fs.host_reads;
  c->block_rewrites += fs.gc_erases + fs.refreshes + fs.reclaims;
  c->errors.reads_ok += fs.host_reads - ss.host_uncorrectable_pages;
  c->errors.reads_uncorrectable += ss.host_uncorrectable_pages;
  c->errors.writes_failed += ss.host_failed_writes;
  c->errors.writes_rejected_read_only += ss.host_readonly_writes;
  c->background_sim_s += ss.background_seconds;
  c->tuning_probe_sim_s += ss.tuning_probe_seconds;
}

void add_chip(Counts* c, const host::Servicer& chip) {
  c->pages_read += chip.pages_read();
  c->read_bit_errors += chip.read_bit_errors();
  c->block_rewrites += chip.block_rewrites();
  c->errors += chip.error_stats();
}

/// after - before, except the high-water P/E count, which is kept.
Counts difference(const Counts& after, const Counts& before) {
  Counts d = after;
  d.ftl_host_reads -= before.ftl_host_reads;
  d.ftl_host_writes -= before.ftl_host_writes;
  d.ftl_gc_writes -= before.ftl_gc_writes;
  d.ftl_gc_erases -= before.ftl_gc_erases;
  d.ftl_refresh_writes -= before.ftl_refresh_writes;
  d.ftl_other_writes -= before.ftl_other_writes;
  d.pages_read -= before.pages_read;
  d.read_bit_errors -= before.read_bit_errors;
  d.block_rewrites -= before.block_rewrites;
  d.rdr_runs -= before.rdr_runs;
  const host::ErrorStats& b = before.errors;
  host::ErrorStats& e = d.errors;
  e.reads_ok -= b.reads_ok;
  e.reads_corrected -= b.reads_corrected;
  e.reads_retry_recovered -= b.reads_retry_recovered;
  e.reads_rdr_recovered -= b.reads_rdr_recovered;
  e.reads_uncorrectable -= b.reads_uncorrectable;
  e.retry_attempts -= b.retry_attempts;
  e.rdr_attempts -= b.rdr_attempts;
  e.writes_failed -= b.writes_failed;
  e.writes_rejected_read_only -= b.writes_rejected_read_only;
  e.retry_seconds -= b.retry_seconds;
  e.rdr_seconds -= b.rdr_seconds;
  d.background_sim_s -= before.background_sim_s;
  d.tuning_probe_sim_s -= before.tuning_probe_sim_s;
  return d;
}

/// Nearest-rank 99th percentile (0 for no samples); reorders `v`.
double p99(std::vector<double>* v) {
  if (v->empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(v->size())) - 1.0);
  std::nth_element(v->begin(), v->begin() + static_cast<std::ptrdiff_t>(k),
                   v->end());
  return (*v)[k];
}

/// Appends the bytes of a trivially copyable value to a record.
template <typename T>
std::uint8_t* put(std::uint8_t* out, const T& value) {
  std::memcpy(out, &value, sizeof(T));
  return out + sizeof(T);
}

/// CRC32 over every field of every record, in log order.
std::uint32_t digest_log(const std::vector<host::Completion>& log) {
  rdsim::ecc::Crc32 crc;
  std::uint8_t record[64];
  for (const host::Completion& c : log) {
    std::uint8_t* p = record;
    p = put(p, c.id);
    p = put(p, static_cast<std::uint8_t>(c.kind));
    p = put(p, c.queue);
    p = put(p, c.tenant);
    p = put(p, c.lpn);
    p = put(p, c.pages);
    p = put(p, c.submit_time_s);
    p = put(p, c.service_start_s);
    p = put(p, c.complete_time_s);
    p = put(p, c.stall_s);
    p = put(p, static_cast<std::uint8_t>(c.status));
    p = put(p, c.error_pages);
    crc.update(std::span<const std::uint8_t>(record, p));
  }
  return crc.value();
}

/// Every one of the `submitted` commands completed exactly once: the log
/// holds `submitted` distinct, consecutive device ids.
std::string check_exactly_once(const std::vector<host::Completion>& log,
                               std::uint64_t submitted,
                               const host::Device& device) {
  if (device.outstanding() != 0) return "commands left outstanding";
  if (log.size() != submitted)
    return "completion log holds " + std::to_string(log.size()) +
           " records for " + std::to_string(submitted) + " commands";
  if (log.empty()) return {};
  std::uint64_t first = log.front().id;
  for (const host::Completion& c : log) first = std::min(first, c.id);
  std::vector<bool> seen(submitted, false);
  for (const host::Completion& c : log) {
    const std::uint64_t i = c.id - first;
    if (i >= submitted || seen[i])
      return "command id " + std::to_string(c.id) + " completed twice or "
             "out of range";
    seen[i] = true;
  }
  return {};
}

// --- The traced shard decorator --------------------------------------------

/// Host page reads' worth of read-disturb dose on the whole chip: each
/// block's dose over the dose of one read at its wear and pass voltage.
double chip_disturb_reads(const rdsim::nand::Chip& chip) {
  double reads = 0.0;
  for (std::size_t b = 0; b < chip.block_count(); ++b) {
    const rdsim::nand::Block& block = chip.block(b);
    reads += block.dose() /
             block.model().disturb_dose(1.0, block.vpass(),
                                        static_cast<double>(block.pe_cycles()));
  }
  return reads;
}

/// Wraps one shard's Servicer so each service() and end_of_day() call is
/// a child span; forwards everything else unchanged. On a Monte Carlo
/// shard it also counts the RDR procedures that reads run: a read adds
/// one read's dose to its block, and each RDR procedure adds its induced
/// disturbs on top (read-retry scans add none). Latent pages skip the
/// procedure, so this count, unlike ErrorStats::rdr_attempts, is non-zero
/// only when ReadDisturbRecovery::recover() runs.
class TracedServicer final : public host::Servicer {
 public:
  TracedServicer(std::unique_ptr<host::Servicer> inner, std::uint32_t shard,
                 Tracer* tracer)
      : inner_(std::move(inner)), shard_(shard), tracer_(tracer) {}

  const host::Servicer& inner() const { return *inner_; }
  std::uint64_t rdr_runs() const { return rdr_runs_; }

  std::uint64_t logical_pages() const override {
    return inner_->logical_pages();
  }
  host::ServiceCost service(const host::Command& command) override {
    ChildScope span(tracer_, Kind::kServicerService, shard_);
    span.set_work(command.pages);
    const rdsim::nand::Chip* chip =
        command.kind == host::CommandKind::kRead ? inner_->mc_chip() : nullptr;
    const double before = chip != nullptr ? chip_disturb_reads(*chip) : 0.0;
    const host::ServiceCost cost = inner_->service(command);
    if (chip != nullptr) {
      const double induced = chip_disturb_reads(*chip) - before -
                             static_cast<double>(command.pages);
      rdr_runs_ += static_cast<std::uint64_t>(
          std::llround(induced / host::ChipErrorPath{}.rdr.extra_reads));
    }
    return cost;
  }
  double end_of_day() override {
    ChildScope span(tracer_, Kind::kServicerEndOfDay, shard_);
    return inner_->end_of_day();
  }
  std::uint64_t pages_read() const override { return inner_->pages_read(); }
  std::uint64_t pages_written() const override {
    return inner_->pages_written();
  }
  std::uint64_t read_bit_errors() const override {
    return inner_->read_bit_errors();
  }
  std::uint64_t block_rewrites() const override {
    return inner_->block_rewrites();
  }
  host::ErrorStats error_stats() const override {
    return inner_->error_stats();
  }
  rdsim::nand::Chip* mc_chip() override { return inner_->mc_chip(); }

 private:
  std::unique_ptr<host::Servicer> inner_;
  std::uint32_t shard_;
  Tracer* tracer_;
  std::uint64_t rdr_runs_ = 0;
};

Counts sharded_counts(const host::ShardedDevice& device) {
  Counts c;
  for (std::uint32_t s = 0; s < device.shard_count(); ++s) {
    const host::Servicer* base = &device.shard_servicer(s);
    if (const auto* traced = dynamic_cast<const TracedServicer*>(base)) {
      c.rdr_runs += traced->rdr_runs();
      base = &traced->inner();
    }
    const host::Servicer& shard = *base;
    if (const auto* analytic = dynamic_cast<const host::SsdServicer*>(&shard))
      add_analytic(&c, analytic->ssd());
    else
      add_chip(&c, shard);
  }
  return c;
}

/// Builds a sharded drive. Untraced it is host::make_device; traced, the
/// same shards (same seeds and arguments as the factory) are wrapped in
/// TracedServicer, and the Monte Carlo pre-aging is its own span. The
/// output digest pins that both paths build the same drive.
std::unique_ptr<host::ShardedDevice> build_sharded(const cfg::DriveSpec& spec,
                                                   std::uint64_t seed,
                                                   Tracer* tracer) {
  std::unique_ptr<host::ShardedDevice> device;
  if (tracer == nullptr) {
    std::unique_ptr<host::Device> built =
        host::make_device(spec, seed, kPoolWidth);
    device.reset(static_cast<host::ShardedDevice*>(built.release()));
    return device;
  }
  const rdsim::flash::FlashModelParams params =
      host::flash_params_from_spec(spec);
  {
    RootScope span(tracer, Kind::kMakeDevice, 0);
    std::vector<std::unique_ptr<host::Servicer>> shards;
    for (std::uint32_t s = 0; s < spec.shards; ++s) {
      const std::uint64_t shard_seed = host::ShardedDevice::shard_seed(seed, s);
      std::unique_ptr<host::Servicer> inner;
      if (spec.backend == cfg::Backend::kShardedMc) {
        rdsim::nand::Geometry geometry;
        geometry.wordlines_per_block = spec.wordlines_per_block;
        geometry.bitlines = spec.bitlines;
        geometry.blocks = spec.blocks;
        host::ChipFaults faults;
        faults.latent_page_prob = spec.faults.latent_page_prob;
        inner = std::make_unique<host::ChipServicer>(
            geometry, params, shard_seed, host::LatencyParams{},
            host::ChipErrorPath{}, faults);
      } else {
        inner = std::make_unique<host::SsdServicer>(
            host::ssd_config_from_spec(spec), params, shard_seed);
      }
      shards.push_back(
          std::make_unique<TracedServicer>(std::move(inner), s, tracer));
    }
    device = std::make_unique<host::ShardedDevice>(
        std::move(shards), kPoolWidth, spec.queue_count);
  }
  if (spec.pre_wear_pe > 0) {
    // The factory's characterization pre-aging, block by block.
    RootScope span(tracer, Kind::kPreAge, 0);
    for (std::uint32_t s = 0; s < device->shard_count(); ++s) {
      rdsim::nand::Chip& chip = device->shard_chip(s);
      for (std::size_t b = 0; b < chip.block_count(); ++b) {
        chip.block(b).erase();
        chip.block(b).add_wear(static_cast<std::uint32_t>(spec.pre_wear_pe));
        chip.block(b).program_random();
      }
    }
  }
  return device;
}

// --- Device workloads: pre-generated streams, driven step by step -----------

/// One simulated day of a pre-generated stream, driven `step` commands
/// per driver call.
struct Day {
  std::vector<host::Command> commands;
  std::size_t step = 1;
};

template <typename Generator>
std::vector<Day> generate_days(Generator& gen, int days, std::size_t step,
                               Tracer* tracer, Rep* rep) {
  std::vector<Day> out;
  for (int d = 0; d < days; ++d) {
    RootScope span(tracer, Kind::kWorkloadGen, static_cast<std::uint64_t>(d));
    out.push_back({gen.day_commands(), step});
    span.set_work(out.back().commands.size());
    for (const host::Command& c : out.back().commands) {
      ++rep->commands;
      if (c.kind != host::CommandKind::kFlush) rep->pages += c.pages;
    }
  }
  return out;
}

/// The timed phase of every device workload: each step is one driver
/// call, each day ends with Device::end_of_day().
template <typename Driver>
void drive_days(host::Device& device, Driver& driver,
                const std::vector<Day>& days, Tracer* tracer) {
  std::uint64_t id = 0;
  std::vector<host::Command> step;
  for (const Day& day : days) {
    for (auto it = day.commands.begin(); it != day.commands.end();) {
      const auto end = it + static_cast<std::ptrdiff_t>(std::min<std::size_t>(
                                day.step, day.commands.end() - it));
      RootScope span(tracer, Kind::kHostStep, id++);
      step.assign(it, end);
      it = end;
      span.set_work(step.size());
      driver.run(step);
    }
    RootScope span(tracer, Kind::kHostEndOfDay, id++);
    device.end_of_day();
  }
}

/// Exact nearest-rank p99 of the read latencies of `tenant` (every
/// tenant when negative) in the completion log, in microseconds.
double read_p99_us(const std::vector<host::Completion>& log, int tenant) {
  std::vector<double> latencies;
  for (const host::Completion& c : log)
    if (c.kind == host::CommandKind::kRead &&
        (tenant < 0 || c.tenant == tenant))
      latencies.push_back(c.latency_s() * 1e6);
  return p99(&latencies);
}

/// Output checks and simulated outputs shared by the device workloads.
void finish_device_rep(host::Device& device,
                       const std::vector<host::Completion>& log,
                       Tracer* tracer, Rep* rep) {
  rep->error = check_exactly_once(log, rep->commands, device);
  rep->digest = digest_log(log);
  if (tracer != nullptr)
    rep->loop_covered_ns = tracer->loop_covered_ns(Phase::kTimed);
  rep->sim_uber = device.stats().uber(1.0);
}

Rep run_mc_reliability(std::uint64_t seed, Tracer* tracer) {
  Rep rep;
  Phases phases(tracer);
  cfg::DriveSpec spec;
  spec.backend = cfg::Backend::kShardedMc;
  spec.shards = 4;
  spec.queue_count = 4;
  const rdsim::nand::Geometry g = rdsim::nand::Geometry::characterization();
  spec.wordlines_per_block = g.wordlines_per_block;
  spec.bitlines = g.bitlines;
  spec.blocks = kMcBlocksPerShard;
  spec.pre_wear_pe = kMcPreWearPe;
  spec.faults.latent_page_prob = 1e-3;
  std::unique_ptr<host::ShardedDevice> device =
      build_sharded(spec, Rng::stream(seed, 0).next(), tracer);

  workload::WorkloadProfile profile = workload::profile_by_name("fiu-web-vm");
  profile.daily_page_ios = kMcDailyPageIos;
  workload::TraceGenerator gen(profile, device->logical_pages(),
                               Rng::stream(seed, 1).next(),
                               static_cast<std::uint16_t>(spec.queue_count));
  const std::vector<Day> days =
      generate_days(gen, kMcDays, kWholeDay, tracer, &rep);
  const Counts before = sharded_counts(*device);
  std::vector<host::Completion> log;
  log.reserve(rep.commands);
  host::ClosedLoopDriver driver(*device, kMcDepth);
  driver.set_completion_sink(&log);

  phases.start_timed();
  drive_days(*device, driver, days, tracer);
  phases.end_timed(&rep);

  finish_device_rep(*device, log, tracer, &rep);
  rep.sim_read_p99_us = read_p99_us(log, -1);
  rep.counts = difference(sharded_counts(*device), before);
  return rep;
}

Rep run_tenants(std::uint64_t seed, Tracer* tracer) {
  Rep rep;
  Phases phases(tracer);
  cfg::DriveSpec spec;
  spec.backend = cfg::Backend::kShardedAnalytic;
  spec.shards = 4;
  spec.queue_count = 4;
  spec.blocks = 256;  // Per shard.
  spec.pages_per_block = 128;
  spec.overprovision = 0.2;
  spec.gc_free_target = 4;
  std::unique_ptr<host::ShardedDevice> device =
      build_sharded(spec, Rng::stream(seed, 0).next(), tracer);
  {
    RootScope span(tracer, Kind::kWarmFill, 0);
    host::warm_fill(*device);
  }
  host::ArbitrationConfig arb;
  arb.policy = host::ArbitrationPolicy::kWeighted;
  arb.tenants = {{/*weight=*/8.0, /*deadline_us=*/500.0},
                 {/*weight=*/1.0, /*deadline_us=*/10000.0}};
  device->set_arbitration(arb);

  // Tenant 0, the victim: small web-VM requests. Tenant 1, the
  // aggressor: the read-hottest profile with 8-page requests.
  workload::WorkloadProfile victim = workload::profile_by_name("fiu-web-vm");
  victim.daily_page_ios = kVictimDailyPageIos;
  victim.mean_request_pages = 2.0;
  workload::WorkloadProfile aggressor = workload::profile_by_name("umass-web");
  aggressor.daily_page_ios = kAggressorDailyPageIos;
  aggressor.mean_request_pages = 8.0;
  workload::MultiTenantGenerator gen({victim, aggressor},
                                     device->logical_pages(),
                                     Rng::stream(seed, 1).next());
  const std::vector<Day> days =
      generate_days(gen, kTenantsDays, kTenantsWindow, tracer, &rep);
  const Counts before = sharded_counts(*device);
  std::vector<host::Completion> log;
  log.reserve(rep.commands);
  host::BurstWindowDriver driver(*device, kTenantsWindow);
  driver.set_completion_sink(&log);

  phases.start_timed();
  drive_days(*device, driver, days, tracer);
  phases.end_timed(&rep);

  finish_device_rep(*device, log, tracer, &rep);
  rep.sim_read_p99_us = read_p99_us(log, 0);
  rep.counts = difference(sharded_counts(*device), before);
  return rep;
}

Rep run_qd1_analytic(std::uint64_t seed, Tracer* tracer) {
  Rep rep;
  Phases phases(tracer);
  cfg::DriveSpec spec;
  spec.backend = cfg::Backend::kAnalytic;
  spec.queue_count = 4;
  spec.blocks = 512;
  spec.pages_per_block = 128;
  spec.overprovision = 0.2;
  spec.gc_free_target = 4;
  std::unique_ptr<host::Device> device;
  {
    RootScope span(tracer, Kind::kMakeDevice, 0);
    device = host::make_device(spec, Rng::stream(seed, 0).next());
  }
  {
    RootScope span(tracer, Kind::kWarmFill, 0);
    host::warm_fill(*device);
  }
  const auto& drive = dynamic_cast<const host::SsdDevice&>(*device).ssd();

  // fig_qos's stream, at a larger daily volume: reads, writes, trims
  // (10% of writes) and a flush every 400 simulated seconds, spread over
  // four submission queues.
  workload::WorkloadProfile profile = workload::profile_by_name("fiu-web-vm");
  profile.daily_page_ios = kQd1DailyPageIos;
  profile.trim_fraction = 0.10;
  profile.flush_period_s = 400.0;
  workload::TraceGenerator gen(profile, device->logical_pages(),
                               Rng::stream(seed, 1).next(),
                               static_cast<std::uint16_t>(spec.queue_count));
  const std::vector<Day> days = generate_days(gen, kQd1Days, 1, tracer, &rep);
  Counts before;
  add_analytic(&before, drive);
  std::vector<host::Completion> log;
  log.reserve(rep.commands);
  host::ClosedLoopDriver driver(*device, 1);
  driver.set_completion_sink(&log);

  phases.start_timed();
  drive_days(*device, driver, days, tracer);
  phases.end_timed(&rep);

  finish_device_rep(*device, log, tracer, &rep);
  rep.sim_read_p99_us = read_p99_us(log, -1);
  Counts after;
  add_analytic(&after, drive);
  rep.counts = difference(after, before);
  return rep;
}

// --- lifetime: FleetRunner's per-drive loop --------------------------------

struct LifetimeDrive {
  std::unique_ptr<ssd::Ssd> ssd;
  std::unique_ptr<workload::TraceGenerator> gen;
  std::vector<double> read_service_us;  ///< Timed days' read commands.
  std::uint64_t commands = 0;
  std::uint64_t pages = 0;
};

/// One simulated day of one drive: generate, service, maintain.
void drive_day(LifetimeDrive* drive, std::uint64_t id, bool timed,
               Tracer* tracer) {
  RootScope day(tracer, Kind::kDriveDay, id, /*all_threads=*/false);
  std::vector<host::Command> commands;
  {
    ChildScope span(tracer, Kind::kWorkloadGen);
    commands = drive->gen->day_commands();
    span.set_work(commands.size());
  }
  std::uint64_t pages = 0;
  {
    ChildScope span(tracer, Kind::kSsdService);
    for (const host::Command& c : commands) {
      const host::ServiceCost cost = drive->ssd->service(c);
      if (c.kind != host::CommandKind::kFlush) pages += c.pages;
      if (timed && c.kind == host::CommandKind::kRead)
        drive->read_service_us.push_back((cost.busy_s + cost.stall_s) * 1e6);
    }
    span.set_work(pages);
  }
  {
    ChildScope span(tracer, Kind::kSsdEndOfDay);
    drive->ssd->end_of_day();
  }
  day.set_work(pages);
  if (timed) {
    drive->commands += commands.size();
    drive->pages += pages;
  }
}

Rep run_lifetime(std::uint64_t seed, Tracer* tracer) {
  Rep rep;
  Phases phases(tracer);
  // fig_fleet's drive: 64 blocks x 16 pages, 25% over-provisioning,
  // write-heavy fiu-web-vm traffic, no injected faults.
  cfg::DriveSpec spec;
  spec.blocks = 64;
  spec.pages_per_block = 16;
  spec.overprovision = 0.25;
  spec.gc_free_target = 4;
  spec.spare_blocks = 2;
  const ssd::SsdConfig config = host::ssd_config_from_spec(spec);
  const rdsim::flash::FlashModelParams params =
      host::flash_params_from_spec(spec);
  workload::WorkloadProfile profile = workload::profile_by_name("fiu-web-vm");
  profile.daily_page_ios = 20000.0;
  profile.read_fraction = 0.3;

  ThreadPool pool(kPoolWidth);
  std::vector<LifetimeDrive> drives(kLifetimeDrives);
  {
    RootScope span(tracer, Kind::kMakeDevice, 0);
    for (std::uint32_t i = 0; i < kLifetimeDrives; ++i) {
      drives[i].ssd = std::make_unique<ssd::Ssd>(
          config, params, Rng::stream(seed, 2 * i).next());
      drives[i].gen = std::make_unique<workload::TraceGenerator>(
          profile, config.ftl.logical_pages(),
          Rng::stream(seed, 2 * i + 1).next(), 1);
      // Twice the expected read commands, so the buffer never grows and
      // the resident set does not depend on which thread grew it.
      drives[i].read_service_us.reserve(static_cast<std::size_t>(
          2.0 * kLifetimeDays * profile.daily_page_ios *
          profile.read_fraction / profile.mean_request_pages));
    }
  }
  // Warm-up: each drive's first day fills it and brings GC to its steady
  // state, as warm_fill does for the device workloads.
  pool.for_each(kLifetimeDrives, [&](std::size_t i) {
    drive_day(&drives[i], i << 16, /*timed=*/false, tracer);
  });
  Counts before;
  for (const LifetimeDrive& d : drives) add_analytic(&before, *d.ssd);

  phases.start_timed();
  const std::int64_t pool_start = now_ns();
  pool.for_each(kLifetimeDrives, [&](std::size_t i) {
    for (std::uint32_t day = 1; day <= kLifetimeDays; ++day)
      drive_day(&drives[i], (i << 16) | day, /*timed=*/true, tracer);
  });
  rep.loop_covered_ns = now_ns() - pool_start;
  phases.end_timed(&rep);

  rdsim::ecc::Crc32 crc;
  std::vector<double> reads;
  Counts after;
  for (const LifetimeDrive& d : drives) {
    if (!d.ssd->ftl().check_invariants() && rep.error.empty())
      rep.error = "FTL invariants violated";
    // A snapshot ends with its own CRC32, which would cancel the content
    // out of a CRC taken over it; digest the payload before it.
    const std::vector<std::uint8_t> snapshot = d.ssd->snapshot();
    crc.update(std::span<const std::uint8_t>(snapshot).first(
        snapshot.size() - sizeof(std::uint32_t)));
    rep.commands += d.commands;
    rep.pages += d.pages;
    reads.insert(reads.end(), d.read_service_us.begin(),
                 d.read_service_us.end());
    add_analytic(&after, *d.ssd);
  }
  rep.digest = crc.value();
  rep.sim_read_p99_us = p99(&reads);
  rep.counts = difference(after, before);
  rep.sim_uber = rep.counts.pages_read == 0
                     ? 0.0
                     : static_cast<double>(
                           rep.counts.errors.reads_uncorrectable) /
                           static_cast<double>(rep.counts.pages_read);
  return rep;
}

}  // namespace

double Counts::waf() const {
  if (!has_ftl || ftl_host_writes == 0) return 1.0;
  return static_cast<double>(ftl_host_writes + ftl_gc_writes +
                             ftl_refresh_writes + ftl_other_writes) /
         static_cast<double>(ftl_host_writes);
}

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"lifetime", kPoolWidth, "n/a (analytic drives, no cell cache)",
       run_lifetime},
      {"mc_reliability", kPoolWidth,
       "wordline cache starts empty: pre-aging leaves every wordline "
       "unmaterialized",
       run_mc_reliability},
      {"tenants", kPoolWidth, "n/a (analytic drive, no cell cache)",
       run_tenants},
      {"qd1_analytic", 1, "n/a (analytic drive, no cell cache)",
       run_qd1_analytic},
  };
  return kWorkloads;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : all_workloads())
    if (name == w.name) return &w;
  return nullptr;
}

}  // namespace perfbench
