// rdsim/host/factory.h
//
// host::make_device: the one place a cfg::DriveSpec becomes a live
// host::Device. All four backends come out of the same call, and all are
// the one device engine, ShardedDevice: the one-shard analytic drive
// (SsdDevice) and Monte Carlo chip, and the N-shard Monte Carlo and
// analytic drives (over ChipServicer / SsdServicer shards) — so
// experiments, the generic scenario runner, and tests share one bring-up
// path. The queued-drive experiments reach it through
// sim::drive_scenario; the golden CRCs pin that the spec-built devices
// are bit-identical to the historical hand-built ones.
//
// `seed` is the drive seed: the one-shard backends seed their servicer
// with it directly, the sharded backends derive shard s's seed as
// ShardedDevice::shard_seed(seed, s). `workers` sizes the sharded
// service pool and never affects results — one-shard backends ignore it.
// Monte Carlo pre-aging (spec.pre_wear_pe) is applied here, in the
// characterization order fig_qos_mc established: per shard, per block —
// erase, add_wear, program_random.
#pragma once

#include <cstdint>
#include <memory>

#include "cfg/spec.h"
#include "flash/params.h"
#include "host/device.h"
#include "ssd/ssd.h"

namespace rdsim::host {

std::unique_ptr<Device> make_device(const cfg::DriveSpec& spec,
                                    std::uint64_t seed, int workers = 1);

/// The spec -> analytic-drive mappings make_device uses internally,
/// exposed so layers that build ssd::Ssd drives directly (the fleet
/// runner) construct them identically to the factory's analytic path.
flash::FlashModelParams flash_params_from_spec(const cfg::DriveSpec& spec);
ssd::SsdConfig ssd_config_from_spec(const cfg::DriveSpec& spec);

}  // namespace rdsim::host
