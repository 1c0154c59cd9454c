// rdsim/host/ssd_device.h
//
// host::Device backend over the analytic whole-drive simulator ssd::Ssd:
// the production-shaped path for trace replay and QoS experiments. It is
// a one-shard ShardedDevice over an SsdServicer seeded with the drive
// seed itself, so the queue layer owns scheduling and completion records
// and the Ssd services each command's data movement through the FTL and
// reports its cost. The subclass exists only to name the drive and reach
// its ssd::Ssd.
#pragma once

#include <cstdint>
#include <memory>

#include "host/sharded_device.h"
#include "host/ssd_servicer.h"
#include "ssd/ssd.h"

namespace rdsim::host {

class SsdDevice : public ShardedDevice {
 public:
  SsdDevice(const ssd::SsdConfig& config,
            const flash::FlashModelParams& params, std::uint64_t seed,
            std::uint32_t queue_count = 1)
      : ShardedDevice(std::make_unique<SsdServicer>(config, params, seed),
                      queue_count) {}

  const ssd::Ssd& ssd() const {
    return static_cast<const SsdServicer&>(shard_servicer(0)).ssd();
  }
};

}  // namespace rdsim::host
