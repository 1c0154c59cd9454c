#include "core/rdr.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>
#include <span>
#include <utility>

namespace rdsim::core {

using flash::CellState;

RdrResult ReadDisturbRecovery::recover(nand::Block& block,
                                       std::uint32_t wl) const {
  assert(block.programmed());
  const auto& geom = block.geometry();
  assert(geom.wordlines_per_block >= 2 && "RDR reads a sibling wordline");
  const auto& model = block.model();
  const double pe = block.pe_cycles();
  const double days = block.retention_days();

  RdrResult result;
  result.bits = static_cast<int>(2 * geom.bitlines);

  // Step 1: measure current threshold voltages via read-retry.
  const std::vector<double> scan1 = block.read_retry_scan(
      wl, options_.retry_lo, options_.retry_hi, options_.retry_step);
  const double dose_before = block.dose_for_wordline(wl);

  // Errors before recovery, from the pre-disturb measurement.
  const std::span<const std::uint8_t> truth = block.wordline_states(wl);
  for (std::uint32_t bl = 0; bl < geom.bitlines; ++bl) {
    result.errors_before += flash::bit_errors_between(
        model.classify(scan1[bl]), static_cast<CellState>(truth[bl]));
  }

  // Step 2: induce additional disturbs so susceptible cells reveal
  // themselves. Reads are addressed at a sibling wordline; the dose lands
  // on every *other* wordline, including `wl`.
  const std::uint32_t sibling = wl == 0 ? 1 : wl - 1;
  block.apply_reads(sibling, options_.extra_reads);
  const std::vector<double> scan2 = block.read_retry_scan(
      wl, options_.retry_lo, options_.retry_hi, options_.retry_step);
  const double extra_dose = block.dose_for_wordline(wl) - dose_before;

  // Step 3: per-boundary re-labeling windows. The lower edge is the read
  // reference (below it cells already read as the lower state); the upper
  // edge is the disturb-aware PDF intersection of the two adjacent states
  // plus a small margin — beyond it cells overwhelmingly belong to the
  // higher state.
  const double dose_now = block.dose_for_wordline(wl);
  const auto& params = model.params();
  struct Boundary {
    CellState lower;
    double lo;  // Read reference voltage.
    double hi;  // PDF intersection + margin.
  };
  const std::array<double, 3> refs = {params.vref_a, params.vref_b,
                                      params.vref_c};
  std::array<Boundary, 3> boundaries{};
  for (int b = 0; b < 3; ++b) {
    const auto lower = static_cast<CellState>(b);
    boundaries[b].lower = lower;
    boundaries[b].lo = refs[b];
    boundaries[b].hi = model.pdf_intersection(lower, pe, days, dose_now) +
                       options_.upper_margin;
  }
  // dVref at voltage v: the shift a nominal-susceptibility cell already
  // sitting at v would experience from the induced dose alone. scan2 sits
  // on the retry grid, so dVref is evaluated once per distinct level: a
  // slot per level, keyed on the exact scan value, so two values sharing a
  // slot recompute rather than alias.
  const double lo = options_.retry_lo;
  const double inv_step = 1.0 / options_.retry_step;
  const auto levels = static_cast<std::size_t>(
                          std::floor((options_.retry_hi - lo) * inv_step)) +
                      2;
  std::vector<std::pair<double, double>> dvref_cache(
      levels, {std::numeric_limits<double>::quiet_NaN(), 0.0});
  auto dvref_at = [&](double v) {
    const auto k = std::min(
        static_cast<std::size_t>(std::max((v - lo) * inv_step + 0.5, 0.0)),
        levels - 1);
    auto& slot = dvref_cache[k];
    if (!(slot.first == v))
      slot = {v, model.apply_disturb(v, 1.0, extra_dose) - v};
    return slot.second;
  };

  result.corrected_states.resize(geom.bitlines);
  // Step 4: re-label cells in the ambiguous overlap region just above a
  // boundary. Disturb-prone cells (dVth decisively above dVref) are
  // predicted to belong to the lower distribution — they were disturbed
  // upward across the reference; disturb-resistant ones stay with the
  // higher distribution they read as.
  for (std::uint32_t bl = 0; bl < geom.bitlines; ++bl) {
    const double v = scan2[bl];
    CellState observed = model.classify(v);
    const Boundary* hit = nullptr;
    for (const auto& b : boundaries) {
      if (v >= b.lo && v <= b.hi) {
        hit = &b;
        break;
      }
    }
    if (hit != nullptr) {
      ++result.cells_in_window;
      const double dv = scan2[bl] - scan1[bl];
      if (dv > options_.prone_factor * dvref_at(v) &&
          observed != hit->lower) {
        ++result.cells_relabeled;
        observed = hit->lower;
      }
    }
    result.corrected_states[bl] = observed;
    result.errors_after += flash::bit_errors_between(
        observed, static_cast<CellState>(truth[bl]));
  }
  return result;
}

}  // namespace rdsim::core
