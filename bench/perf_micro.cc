// Google-benchmark microbenchmarks of the simulator's hot paths: BCH
// encode/decode, Monte Carlo page reads, read-retry scans, analytic RBER
// evaluation, and Zipf sampling. These bound how large an experiment the
// harness can run per unit time.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "ecc/bch.h"
#include "flash/rber_model.h"
#include "nand/chip.h"
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

}  // namespace

BENCHMARK_MAIN();
