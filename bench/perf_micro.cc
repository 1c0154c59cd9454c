// Google-benchmark microbenchmarks of the simulator's hot paths: BCH
// encode/decode, Monte Carlo page reads, read-retry scans, chip
// construction and first-touch materialization, analytic RBER evaluation
// and Zipf sampling, plus small end-to-end probes (in-memory CSV trace
// replay, the sharded Monte Carlo drive at 1/4/8 workers, tiny fig02 and
// fig04 runs). These bound how large an experiment the harness can run
// per unit time; workload-level benchmarks live in perfbench/.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ecc/bch.h"
#include "flash/rber_model.h"
#include "host/driver.h"
#include "host/sharded_device.h"
#include "host/ssd_device.h"
#include "nand/chip.h"
#include "replay/replayer.h"
#include "sim/experiment.h"
#include "workload/generator.h"
#include "workload/profiles.h"
#include "workload/trace_io.h"
#include "workload/zipf.h"

using namespace rdsim;

namespace {

void BM_BchEncode(benchmark::State& state) {
  const ecc::BchCode code(13, static_cast<int>(state.range(0)), 4096);
  Rng rng(1);
  ecc::BitVec data(4096);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next() & 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.encode(data));
  }
  state.SetBytesProcessed(state.iterations() * 4096 / 8);
}
BENCHMARK(BM_BchEncode)->Arg(8)->Arg(16)->Arg(40);

void BM_BchDecode(benchmark::State& state) {
  const int t = static_cast<int>(state.range(0));
  const ecc::BchCode code(13, t, 4096);
  Rng rng(2);
  ecc::BitVec data(4096);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next() & 1);
  auto word = code.encode(data);
  // Inject t errors (worst correctable case).
  for (int i = 0; i < t; ++i)
    word[rng.uniform_u64(word.size())] ^= 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.decode(word));
  }
}
BENCHMARK(BM_BchDecode)->Arg(8)->Arg(16)->Arg(40);

void BM_McPageRead(benchmark::State& state) {
  const auto params = flash::FlashModelParams::default_2ynm();
  nand::Chip chip(nand::Geometry{64, 8192, 1}, params, 3);
  auto& block = chip.block(0);
  block.add_wear(8000);
  block.program_random();
  std::uint32_t wl = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(block.read_page({wl, nand::PageKind::kLsb}));
    wl = (wl + 1) % block.geometry().wordlines_per_block;
  }
  state.SetItemsProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_McPageRead);

// Rotates wordlines like the BM_Mc* cases: the block memoizes the last
// wordline's present Vth, so rescanning one wordline would time a copy.
void BM_ReadRetryScan(benchmark::State& state) {
  const auto params = flash::FlashModelParams::default_2ynm();
  nand::Chip chip(nand::Geometry{64, 8192, 1}, params, 4);
  auto& block = chip.block(0);
  block.add_wear(8000);
  block.program_random();
  std::uint32_t wl = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(block.read_retry_scan(wl, 0.0, 520.0, 0.5));
    wl = (wl + 1) % block.geometry().wordlines_per_block;
  }
  state.SetItemsProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_ReadRetryScan);

// Pure page sense (no read side effects) on a heavily disturbed block:
// the batched SoA kernel's cached-exp fast path.
void BM_McCountErrors(benchmark::State& state) {
  const auto params = flash::FlashModelParams::default_2ynm();
  nand::Chip chip(nand::Geometry{64, 8192, 1}, params, 6);
  auto& block = chip.block(0);
  block.add_wear(8000);
  block.program_random();
  block.apply_reads(1, 1e6);
  std::uint32_t wl = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(block.count_errors({wl, nand::PageKind::kMsb}));
    wl = (wl + 1) % block.geometry().wordlines_per_block;
  }
  state.SetItemsProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_McCountErrors);

// Retention-aged sense: the slow path that must re-evaluate exp per cell
// (the program-time cache only covers zero retention).
void BM_McCountErrorsAged(benchmark::State& state) {
  const auto params = flash::FlashModelParams::default_2ynm();
  nand::Chip chip(nand::Geometry{64, 8192, 1}, params, 7);
  auto& block = chip.block(0);
  block.add_wear(8000);
  block.program_random();
  block.apply_reads(1, 1e6);
  block.advance_time(7.0);
  std::uint32_t wl = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(block.count_errors({wl, nand::PageKind::kMsb}));
    wl = (wl + 1) % block.geometry().wordlines_per_block;
  }
  state.SetItemsProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_McCountErrorsAged);

// Whole-block random programming: 64-bits-per-draw data generation plus
// per-cell ground-truth sampling and the exp(-B*v0) cache fill.
void BM_ProgramRandom(benchmark::State& state) {
  const auto params = flash::FlashModelParams::default_2ynm();
  nand::Chip chip(nand::Geometry{64, 8192, 1}, params, 8);
  auto& block = chip.block(0);
  for (auto _ : state) {
    block.erase();
    block.program_random();
  }
  state.SetItemsProcessed(state.iterations() * block.geometry().cells_per_block());
}
BENCHMARK(BM_ProgramRandom);

// A Vpass identification sweep: one count_blocked_bitlines probe per
// candidate step, now a binary search over the sorted blocking thresholds.
void BM_BlockedBitlineSweep(benchmark::State& state) {
  const auto params = flash::FlashModelParams::default_2ynm();
  nand::Chip chip(nand::Geometry{64, 8192, 1}, params, 9);
  auto& block = chip.block(0);
  block.add_wear(8000);
  block.program_random();
  for (auto _ : state) {
    int total = 0;
    for (double v = 512.0; v >= 460.0; v -= 2.0)
      total += block.count_blocked_bitlines(0, v);
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_BlockedBitlineSweep);

void BM_AnalyticRber(benchmark::State& state) {
  const flash::RberModel model(flash::FlashModelParams::default_2ynm());
  double pe = 1000.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.total_rber({pe, 3.0, 50e3, 500.0}));
    pe = pe < 15000 ? pe + 1 : 1000.0;
  }
}
BENCHMARK(BM_AnalyticRber);

void BM_ZipfSample(benchmark::State& state) {
  workload::ZipfSampler zipf(1u << 20, 0.95);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

// Chip construction as the Monte Carlo experiments pay it per measurement
// point: build + pre-wear + program. Programming is bookkeeping only; the
// cells materialize on first touch (BM_MaterializeWordline).
std::unique_ptr<nand::Chip> make_aged_chip(std::uint64_t seed) {
  auto chip = std::make_unique<nand::Chip>(
      nand::Geometry::characterization(),
      flash::FlashModelParams::default_2ynm(), seed);
  chip->block(0).add_wear(8000);
  chip->block(0).program_random();
  return chip;
}

void BM_MakeAgedChip(benchmark::State& state) {
  std::uint64_t seed = 43;
  for (auto _ : state) benchmark::DoNotOptimize(make_aged_chip(seed++));
}
BENCHMARK(BM_MakeAgedChip)->Unit(benchmark::kMicrosecond);

// First touch of each wordline of a freshly aged block: the deferred
// data-bit and program-sample draws plus one sense. Items are wordlines.
void BM_MaterializeWordline(benchmark::State& state) {
  const std::uint32_t wls =
      nand::Geometry::characterization().wordlines_per_block;
  std::unique_ptr<nand::Chip> chip;
  std::uint64_t seed = 43;
  for (auto _ : state) {
    state.PauseTiming();
    chip = make_aged_chip(seed++);
    state.ResumeTiming();
    for (std::uint32_t wl = 0; wl < wls; ++wl)
      benchmark::DoNotOptimize(
          chip->block(0).count_errors({wl, nand::PageKind::kLsb}));
  }
  state.SetItemsProcessed(state.iterations() * wls);
}
BENCHMARK(BM_MaterializeWordline)->Unit(benchmark::kMillisecond);

// A tiny analytic drive with Vpass tuning, warm-filled.
std::unique_ptr<host::SsdDevice> warm_tiny_drive() {
  ssd::SsdConfig config;
  config.ftl.blocks = 64;
  config.ftl.pages_per_block = 32;
  config.ftl.overprovision = 0.2;
  config.ftl.gc_free_target = 4;
  config.vpass_tuning = true;
  auto device = std::make_unique<host::SsdDevice>(
      config, flash::FlashModelParams::default_2ynm(), /*seed=*/42,
      /*queue_count=*/4);
  host::warm_fill(*device);
  return device;
}

// The replay subsystem end to end on an in-memory synthetic CSV trace:
// streaming parse + hash remap + open-loop windowed submit/drain + latency
// tracking. The trace text is prepared once and each iteration replays it
// into a fresh warm drive. Items are trace commands.
void BM_TraceReplayCsv(benchmark::State& state) {
  constexpr std::size_t kCommands = 20000;
  std::unique_ptr<host::SsdDevice> device = warm_tiny_drive();
  workload::WorkloadProfile profile = workload::profile_by_name("umass-web");
  profile.daily_page_ios = static_cast<double>(kCommands);
  workload::TraceGenerator gen(profile, device->logical_pages(), 42,
                               device->queue_count());
  std::vector<workload::IoRequest> trace;
  trace.reserve(kCommands);
  while (trace.size() < kCommands) {
    for (const workload::IoRequest& r : gen.day()) {
      if (trace.size() == kCommands) break;
      trace.push_back(r);
    }
  }
  std::ostringstream text;
  workload::write_trace_csv(text, trace);
  const std::string csv = text.str();

  replay::ReplayOptions options;
  options.format = replay::TraceFormat::kCsv;
  options.remap = replay::RemapPolicy::kHash;
  options.mode = replay::ReplayMode::kOpen;
  options.speedup = 100.0;
  std::uint64_t commands = 0;
  for (auto _ : state) {
    state.PauseTiming();
    device = warm_tiny_drive();
    std::istringstream in(csv);
    replay::LatencyTracker tracker(/*window_s=*/10.0);
    state.ResumeTiming();
    commands += replay::replay_trace(in, *device, options, &tracker).commands;
    device->end_of_day();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(commands));
}
BENCHMARK(BM_TraceReplayCsv)->Unit(benchmark::kMillisecond);

// Open-loop batched replay of one mixed stream against a four-chip sharded
// Monte Carlo drive (tiny geometry, every block pre-aged to 8K P/E) with a
// range(0)-wide service pool: submit the whole arrival-stamped stream, then
// drain once, so the device services flush-separated segments with all
// four chips in flight. Simulated results are byte-identical for any worker
// count; real time shows the pool's scaling. Items are commands.
void BM_ShardedMcReplay(benchmark::State& state) {
  constexpr std::uint64_t kCommands = 6000;
  const int workers = static_cast<int>(state.range(0));
  const auto params = flash::FlashModelParams::default_2ynm();
  std::unique_ptr<host::ShardedDevice> device;
  std::vector<host::Command> batch;
  std::vector<host::Completion> done;
  for (auto _ : state) {
    state.PauseTiming();
    device = std::make_unique<host::ShardedDevice>(
        nand::Geometry::tiny(), params, /*seed=*/42, /*shards=*/4, workers,
        /*queue_count=*/4);
    for (std::uint32_t s = 0; s < device->shard_count(); ++s) {
      nand::Chip& chip = device->shard_chip(s);
      for (std::size_t b = 0; b < chip.block_count(); ++b) {
        chip.block(b).erase();
        chip.block(b).add_wear(8000);
        chip.block(b).program_random();
      }
    }
    workload::WorkloadProfile profile =
        workload::profile_by_name("fiu-web-vm");
    profile.daily_page_ios = static_cast<double>(kCommands) * 4.0;
    workload::TraceGenerator gen(profile, device->logical_pages(), 42,
                                 device->queue_count());
    batch.clear();
    for (std::uint64_t i = 0; i < kCommands; ++i)
      batch.push_back(gen.next_command());
    done.clear();
    state.ResumeTiming();
    for (const auto& c : batch) device->submit(c);
    device->drain(&done);
  }
  state.SetItemsProcessed(state.iterations() * kCommands);
}
BENCHMARK(BM_ShardedMcReplay)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// A whole experiment at smoke scale (tiny geometry, 0.02 volume).
void BM_TinyExperiment(benchmark::State& state, const char* name) {
  sim::ExperimentConfig config;
  config.seed = 42;
  config.geometry = nand::Geometry::tiny();
  config.scale = 0.02;
  for (auto _ : state)
    benchmark::DoNotOptimize(sim::run_experiment(name, config));
}
BENCHMARK_CAPTURE(BM_TinyExperiment, fig02, "fig02")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TinyExperiment, fig04, "fig04")
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
