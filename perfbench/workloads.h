// perfbench/workloads.h
//
// The benchmark's four workloads. Each runs one repetition from a seed —
// set-up (drive construction, pre-aging, warm fill, stream generation),
// then a timed phase that services the stream — and returns what it
// measured together with the simulated outputs it produced. Every call
// into rdsim goes through a public layer API: host::make_device, the host
// drivers, ssd::Ssd, the workload generators, rdsim::ThreadPool and the
// host::Servicer interface. With a Tracer the same calls are wrapped in
// spans (trace.h); the simulated outputs do not change.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "host/servicer.h"
#include "trace.h"

namespace perfbench {

/// Width of every thread pool the benchmark creates or configures.
inline constexpr int kPoolWidth = 2;

/// Simulated layer counters over the timed phase. Exact: they repeat
/// bit for bit for a seed.
struct Counts {
  bool has_ftl = false;  ///< False on the Monte Carlo drive (no FTL).
  std::uint64_t ftl_host_reads = 0;
  std::uint64_t ftl_host_writes = 0;
  std::uint64_t ftl_gc_writes = 0;
  std::uint64_t ftl_gc_erases = 0;
  std::uint64_t ftl_refresh_writes = 0;
  std::uint64_t ftl_other_writes = 0;  ///< Read-reclaim and defect copies.
  std::uint64_t ftl_max_pe = 0;        ///< At the end, not a difference.
  std::uint64_t pages_read = 0;
  std::uint64_t read_bit_errors = 0;
  std::uint64_t block_rewrites = 0;
  /// RDR procedures run (Monte Carlo drive, traced repetitions only).
  std::uint64_t rdr_runs = 0;
  rdsim::host::ErrorStats errors;
  double background_sim_s = 0.0;
  double tuning_probe_sim_s = 0.0;

  /// Flash page writes over host page writes (1 without an FTL: the
  /// Monte Carlo chip is log-structured, so every program is a host page).
  double waf() const;
};

/// One repetition: host-time measurements, the output digest and the
/// simulated outputs.
struct Rep {
  double setup_s = 0.0;
  double timed_s = 0.0;
  double cpu_s = 0.0;  ///< Process user + system CPU in the timed phase.
  std::uint64_t commands = 0;  ///< Commands serviced in the timed phase.
  std::uint64_t pages = 0;     ///< Host pages serviced (flushes carry none).
  std::uint32_t digest = 0;    ///< CRC32 of the completion log/snapshots.
  std::string error;           ///< Non-empty when an output check failed.
  /// Host time of the timed phase the loop thread spent inside root spans,
  /// the tracer's own root bookkeeping, or a pool fork-join (traced
  /// repetitions only); the rest is the uncovered gap.
  std::int64_t loop_covered_ns = 0;
  double sim_read_p99_us = 0.0;
  double sim_uber = 0.0;
  Counts counts;
};

struct Workload {
  const char* name;
  /// Threads that do work in the timed phase (thread time = wall x this).
  int threads;
  /// What the run states about the simulator's caches at the start.
  const char* cache_note;
  Rep (*run)(std::uint64_t seed, Tracer* tracer);
};

/// The registered workloads, or nullptr for an unknown name.
const Workload* find_workload(const std::string& name);
const std::vector<Workload>& all_workloads();

}  // namespace perfbench
