#include "host/factory.h"

#include <utility>
#include <vector>

#include "flash/params.h"
#include "host/chip_servicer.h"
#include "host/sharded_device.h"
#include "host/ssd_device.h"
#include "host/ssd_servicer.h"
#include "nand/chip.h"

namespace rdsim::host {

flash::FlashModelParams flash_params_from_spec(const cfg::DriveSpec& spec) {
  return spec.flash_model == cfg::FlashModel::k2ynm
             ? flash::FlashModelParams::default_2ynm()
             : flash::FlashModelParams::early_3d_nand();
}

ssd::SsdConfig ssd_config_from_spec(const cfg::DriveSpec& spec) {
  ssd::SsdConfig config;
  config.ftl.blocks = spec.blocks;
  config.ftl.pages_per_block = spec.pages_per_block;
  config.ftl.overprovision = spec.overprovision;
  config.ftl.gc_free_target = spec.gc_free_target;
  config.ftl.refresh_interval_days = spec.refresh_interval_days;
  config.ftl.read_reclaim_threshold = spec.read_reclaim_threshold;
  config.ftl.spare_blocks = spec.spare_blocks;
  config.ftl.program_fail_prob = spec.faults.program_fail_prob;
  config.ftl.erase_fail_prob = spec.faults.erase_fail_prob;
  config.vpass_tuning = spec.vpass_tuning;
  return config;
}

namespace {

/// The MC fault slice for one shard: latent pages everywhere, the die
/// kill only on the targeted shard (a serial chip is shard 0).
ChipFaults chip_faults(const cfg::DriveSpec& spec, std::uint32_t shard) {
  ChipFaults faults;
  faults.latent_page_prob = spec.faults.latent_page_prob;
  if (spec.faults.die_kill_day >= 0.0 &&
      spec.faults.die_kill_shard == shard)
    faults.die_kill_day = spec.faults.die_kill_day;
  return faults;
}

/// Shard `shard`'s Monte Carlo chip engine, seeded with `chip_seed`.
std::unique_ptr<Servicer> chip_shard(const cfg::DriveSpec& spec,
                                     std::uint64_t chip_seed,
                                     std::uint32_t shard) {
  nand::Geometry geometry;
  geometry.wordlines_per_block = spec.wordlines_per_block;
  geometry.bitlines = spec.bitlines;
  geometry.blocks = spec.blocks;
  return std::make_unique<ChipServicer>(geometry, flash_params_from_spec(spec),
                                        chip_seed, LatencyParams{},
                                        ChipErrorPath{},
                                        chip_faults(spec, shard));
}

/// Characterization pre-aging of every shard's chip, in the order
/// fig_qos_mc established: heavy P/E wear then fresh random data, block
/// by block (O(bookkeeping) under lazy cell materialization).
std::unique_ptr<Device> pre_worn(std::unique_ptr<ShardedDevice> device,
                                 std::uint64_t pe) {
  if (pe == 0) return device;
  for (std::uint32_t s = 0; s < device->shard_count(); ++s) {
    nand::Chip& chip = device->shard_chip(s);
    for (std::size_t b = 0; b < chip.block_count(); ++b) {
      chip.block(b).erase();
      chip.block(b).add_wear(static_cast<std::uint32_t>(pe));
      chip.block(b).program_random();
    }
  }
  return device;
}

}  // namespace

std::unique_ptr<Device> make_device(const cfg::DriveSpec& spec,
                                    std::uint64_t seed, int workers) {
  // The one-shard backends seed their servicer with the drive seed
  // itself; sharded backends derive shard s's seed as shard_seed(seed, s).
  std::vector<std::unique_ptr<Servicer>> shards;
  switch (spec.backend) {
    case cfg::Backend::kAnalytic:
      return std::make_unique<SsdDevice>(ssd_config_from_spec(spec),
                                         flash_params_from_spec(spec), seed,
                                         spec.queue_count);
    case cfg::Backend::kMcChip:
      return pre_worn(std::make_unique<ShardedDevice>(
                          chip_shard(spec, seed, 0), spec.queue_count),
                      spec.pre_wear_pe);
    case cfg::Backend::kShardedMc:
      // Each shard gets its own fault slice — the die kill targets one.
      for (std::uint32_t s = 0; s < spec.shards; ++s)
        shards.push_back(
            chip_shard(spec, ShardedDevice::shard_seed(seed, s), s));
      return pre_worn(std::make_unique<ShardedDevice>(
                          std::move(shards), workers, spec.queue_count),
                      spec.pre_wear_pe);
    case cfg::Backend::kShardedAnalytic:
      for (std::uint32_t s = 0; s < spec.shards; ++s)
        shards.push_back(std::make_unique<SsdServicer>(
            ssd_config_from_spec(spec), flash_params_from_spec(spec),
            ShardedDevice::shard_seed(seed, s)));
      return std::make_unique<ShardedDevice>(std::move(shards), workers,
                                             spec.queue_count);
  }
  return nullptr;
}

}  // namespace rdsim::host
