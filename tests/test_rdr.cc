// Tests for Read Disturb Recovery — the paper's recovery mechanism.
#include "core/rdr.h"

#include <gtest/gtest.h>

#include "flash/types.h"
#include "nand/chip.h"

namespace rdsim::core {
namespace {

nand::Chip worn_chip(std::uint64_t seed, std::uint32_t pe = 8000) {
  const auto params = flash::FlashModelParams::default_2ynm();
  nand::Chip chip(nand::Geometry{64, 8192, 1}, params, seed);
  chip.block(0).add_wear(pe);
  chip.block(0).program_random();
  return chip;
}

TEST(Rdr, ReducesErrorsAtHighDisturb) {
  // Per-block reductions are shot-noisy (a handful of boundary-window
  // cells decide the ratio), so anchor the mean over a few chips.
  double sum = 0.0;
  const std::uint64_t seeds[] = {42, 43, 44, 45};
  for (const std::uint64_t seed : seeds) {
    auto chip = worn_chip(seed);
    auto& block = chip.block(0);
    block.apply_reads(31, 1e6);
    const auto result = ReadDisturbRecovery().recover(block, 30);
    EXPECT_GT(result.errors_before, 50);
    sum += 1.0 - result.rber_after() / result.rber_before();
  }
  const double mean_reduction = sum / std::size(seeds);
  // Paper headline: up to 36% at 1M disturbs.
  EXPECT_GT(mean_reduction, 0.15);
  EXPECT_LT(mean_reduction, 0.60);
}

TEST(Rdr, ReductionGrowsWithDisturbCount) {
  // Single-block reductions are shot-noisy (a handful of window cells
  // decide the ratio), so compare means over a few seeds.
  const auto mean_reduction = [](double reads) {
    double sum = 0.0;
    const std::uint64_t seeds[] = {43, 143, 243, 343};
    for (const std::uint64_t seed : seeds) {
      auto chip = worn_chip(seed);
      auto& b = chip.block(0);
      b.apply_reads(31, reads);
      const auto r = ReadDisturbRecovery().recover(b, 30);
      sum += 1.0 - r.rber_after() / r.rber_before();
    }
    return sum / std::size(seeds);
  };
  EXPECT_GT(mean_reduction(1.2e6), mean_reduction(6e5));
}

TEST(Rdr, HarmlessOnHealthyBlock) {
  // With no disturb, the re-labeling window is nearly empty and RDR must
  // not create a significant number of new errors.
  auto chip = worn_chip(44);
  auto& block = chip.block(0);
  const auto result = ReadDisturbRecovery().recover(block, 30);
  EXPECT_LE(result.errors_after, result.errors_before + 3);
}

TEST(Rdr, CorrectedStatesMatchErrorCount) {
  auto chip = worn_chip(45);
  auto& block = chip.block(0);
  block.apply_reads(31, 8e5);
  const auto result = ReadDisturbRecovery().recover(block, 30);
  ASSERT_EQ(result.corrected_states.size(), 8192u);
  int recount = 0;
  for (std::uint32_t bl = 0; bl < 8192; ++bl) {
    recount += flash::bit_errors_between(result.corrected_states[bl],
                                         block.cell(30, bl).programmed);
  }
  EXPECT_EQ(recount, result.errors_after);
}

TEST(Rdr, InducedReadsAreRealDamage) {
  auto chip = worn_chip(46);
  auto& block = chip.block(0);
  block.apply_reads(31, 5e5);
  const double dose_before = block.dose_for_wordline(30);
  ReadDisturbRecovery().recover(block, 30);
  EXPECT_GT(block.dose_for_wordline(30), dose_before);
}

TEST(Rdr, WindowAccountingConsistent) {
  auto chip = worn_chip(47);
  auto& block = chip.block(0);
  block.apply_reads(31, 1e6);
  const auto result = ReadDisturbRecovery().recover(block, 30);
  EXPECT_LE(result.cells_relabeled, result.cells_in_window);
  EXPECT_GT(result.cells_in_window, 0);
  EXPECT_EQ(result.bits, 2 * 8192);
}

TEST(Rdr, RecoveryPositiveAcrossInducedDoseSettings) {
  // The induced-read count trades classification signal against fresh
  // disturb damage. Up to ~10% of the base load the recovery must stay
  // net-positive at the 1M-read operating point — on average, since one
  // block's ratio swings tens of percent on the realization. At 20% the
  // self-inflicted disturb eats the gain (the ablation sweeps this);
  // there the mean may dip slightly negative but must stay bounded.
  const auto mean_reduction = [](double extra) {
    double sum = 0.0;
    const std::uint64_t seeds[] = {48, 148, 248, 348};
    for (const std::uint64_t seed : seeds) {
      auto chip = worn_chip(seed);
      auto& b = chip.block(0);
      b.apply_reads(31, 1e6);
      RdrOptions o;
      o.extra_reads = extra;
      const auto r = ReadDisturbRecovery(o).recover(b, 30);
      sum += 1.0 - r.rber_after() / r.rber_before();
    }
    return sum / std::size(seeds);
  };
  for (const double extra : {25e3, 50e3, 100e3})
    EXPECT_GT(mean_reduction(extra), 0.05) << "extra_reads=" << extra;
  EXPECT_GT(mean_reduction(200e3), -0.20);
}

TEST(Rdr, LooseThresholdRelabelsMore) {
  auto chip_a = worn_chip(49);
  auto chip_b = worn_chip(49);
  for (auto* chip : {&chip_a, &chip_b}) chip->block(0).apply_reads(31, 1e6);
  RdrOptions strict;
  strict.prone_factor = 3.0;
  RdrOptions loose;
  loose.prone_factor = 1.2;
  const auto rs = ReadDisturbRecovery(strict).recover(chip_a.block(0), 30);
  const auto rl = ReadDisturbRecovery(loose).recover(chip_b.block(0), 30);
  EXPECT_GT(rl.cells_relabeled, rs.cells_relabeled);
}

TEST(Rdr, PerLevelDvrefMatchesPerCellReferenceAtNonDyadicStep) {
  // recover() evaluates dVref once per retry level. At a step of 0.3 from
  // 1.0 the levels are not exact binary fractions, so this pins that the
  // per-level cache never serves one level's dVref for another: the result
  // must equal Steps 1-4 written out per cell on a twin block.
  RdrOptions o;
  o.retry_lo = 1.0;
  o.retry_step = 0.3;
  auto chip_a = worn_chip(51);
  auto chip_b = worn_chip(51);
  for (auto* chip : {&chip_a, &chip_b}) chip->block(0).apply_reads(31, 1e6);
  const std::uint32_t wl = 30;
  const RdrResult got = ReadDisturbRecovery(o).recover(chip_a.block(0), wl);

  nand::Block& b = chip_b.block(0);
  const auto& model = b.model();
  const double pe = b.pe_cycles();
  const double days = b.retention_days();
  RdrResult want;
  want.bits = 2 * 8192;
  const auto scan1 = b.read_retry_scan(wl, o.retry_lo, o.retry_hi,
                                       o.retry_step);
  const double dose_before = b.dose_for_wordline(wl);
  for (std::uint32_t bl = 0; bl < 8192; ++bl)
    want.errors_before += flash::bit_errors_between(
        model.classify(scan1[bl]), b.cell_state(wl, bl));
  b.apply_reads(wl - 1, o.extra_reads);
  const auto scan2 = b.read_retry_scan(wl, o.retry_lo, o.retry_hi,
                                       o.retry_step);
  const double extra_dose = b.dose_for_wordline(wl) - dose_before;
  const double dose_now = b.dose_for_wordline(wl);
  const double refs[3] = {model.params().vref_a, model.params().vref_b,
                          model.params().vref_c};
  double hi[3];
  for (int k = 0; k < 3; ++k)
    hi[k] = model.pdf_intersection(static_cast<flash::CellState>(k), pe,
                                   days, dose_now) +
            o.upper_margin;
  for (std::uint32_t bl = 0; bl < 8192; ++bl) {
    const double v = scan2[bl];
    flash::CellState state = model.classify(v);
    for (int k = 0; k < 3; ++k) {
      if (v < refs[k] || v > hi[k]) continue;
      ++want.cells_in_window;
      const auto lower = static_cast<flash::CellState>(k);
      const double dvref = model.apply_disturb(v, 1.0, extra_dose) - v;
      if (v - scan1[bl] > o.prone_factor * dvref && state != lower) {
        ++want.cells_relabeled;
        state = lower;
      }
      break;
    }
    want.corrected_states.push_back(state);
    want.errors_after +=
        flash::bit_errors_between(state, b.cell_state(wl, bl));
  }

  EXPECT_GT(want.cells_relabeled, 0);
  EXPECT_EQ(got.bits, want.bits);
  EXPECT_EQ(got.errors_before, want.errors_before);
  EXPECT_EQ(got.errors_after, want.errors_after);
  EXPECT_EQ(got.cells_relabeled, want.cells_relabeled);
  EXPECT_EQ(got.cells_in_window, want.cells_in_window);
  EXPECT_EQ(got.corrected_states, want.corrected_states);
}

TEST(Rdr, WorksOnFirstWordline) {
  // wl = 0 uses a different sibling for the induced reads.
  auto chip = worn_chip(50);
  auto& block = chip.block(0);
  block.apply_reads(1, 1e6);
  const auto result = ReadDisturbRecovery().recover(block, 0);
  EXPECT_LE(result.errors_after, result.errors_before);
}

}  // namespace
}  // namespace rdsim::core
