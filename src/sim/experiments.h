// rdsim/sim/experiments.h
//
// Internal declarations of the individual experiment functions, one
// block per source file, grouped by the machinery they exercise:
//   * analytic    — closed-form RberModel / EnduranceEvaluator sweeps;
//   * chip        — Monte-Carlo nand::Chip experiments;
//   * reliability — fault injection vs the drive's error ladder;
//   * replay      — the MSR sample trace through src/replay;
//   * scenario    — the config-driven replay, and drive_scenario, the one
//                   driving path every queued-drive sweep shares;
//   * fleet       — the fleet lifetime runner;
//   * tenants     — multi-tenant arbitration QoS;
//   * system      — whole-SSD endurance, queued-host QoS and the DRAM
//                   RowHammer figures.
// The registry in experiment.cc stitches these into the public list.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "cfg/spec.h"
#include "host/device.h"
#include "replay/replayer.h"
#include "sim/experiment.h"

namespace rdsim::sim {

// experiments_scenario.cc — the shared driving path.

/// A scenario after its last day: the driven device (its stats() hold the
/// whole run) and, for a [trace] scenario, the replay summary.
struct DrivenScenario {
  std::unique_ptr<host::Device> device;
  replay::ReplaySummary trace_summary;
};

/// Brings up `spec.drive` (host::make_device, warm fill on analytic
/// drives, then the [tenants] arbitration) and drives it: the [trace]
/// file when set; else `spec.days` days of the tenants' merged streams
/// in burst windows of `spec.queue_depth`; else the workload profile
/// closed-loop at depth `spec.queue_depth`. `workers` sizes the sharded
/// service pool and never changes results.
DrivenScenario drive_scenario(const cfg::ScenarioSpec& spec,
                              std::uint64_t drive_seed,
                              std::uint64_t trace_seed, int workers);

/// Background stall as a percentage of total command latency summed over
/// the four command kinds; 0 when nothing completed.
double stall_pct(const host::CompletionStats& stats);

/// The QoS columns fig_qos and scenario share, and their cells for
/// `stats` (reads, writes, trims, flushes, iops, read latency mean and
/// p50/p99/p999 in us, stall_pct).
inline constexpr const char* kQosColumns =
    "reads,writes,trims,flushes,iops,read_mean_us,read_p50_us,read_p99_us,"
    "read_p999_us,stall_pct";
std::string qos_cells(const host::CompletionStats& stats);

// experiments_analytic.cc
Table run_fig03(ExperimentContext& ctx);
Table run_fig04(ExperimentContext& ctx);
Table run_fig05(ExperimentContext& ctx);
Table run_fig06(ExperimentContext& ctx);
Table run_fig07(ExperimentContext& ctx);
Table run_ablation_tuning(ExperimentContext& ctx);
Table run_mitigation_compare(ExperimentContext& ctx);
Table run_overheads(ExperimentContext& ctx);

// experiments_chip.cc
Table run_fig02(ExperimentContext& ctx);
Table run_fig09(ExperimentContext& ctx);
Table run_fig10(ExperimentContext& ctx);
Table run_ablation_rdr(ExperimentContext& ctx);
Table run_ext_mechanisms(ExperimentContext& ctx);

// experiments_reliability.cc
Table run_fig_reliability(ExperimentContext& ctx);

// experiments_replay.cc
Table run_fig_trace_replay(ExperimentContext& ctx);

// experiments_scenario.cc
Table run_scenario(ExperimentContext& ctx);

/// Fleet lifetime runner: lifecycle trajectories + checkpoint/resume.
Table run_fig_fleet(ExperimentContext& ctx);

// experiments_tenants.cc
Table run_fig_qos_tenants(ExperimentContext& ctx);

// experiments_system.cc
Table run_fig08(ExperimentContext& ctx);
Table run_fig_qos(ExperimentContext& ctx);
Table run_fig_qos_mc(ExperimentContext& ctx);
Table run_fig11(ExperimentContext& ctx);
Table run_fig12(ExperimentContext& ctx);

}  // namespace rdsim::sim
