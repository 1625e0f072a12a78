#include "attention/masks.h"

#include <algorithm>
#include <cmath>

namespace sattn {
namespace {

// Sorts runs by lo and merges overlapping/adjacent ones.
std::vector<ColumnRun> normalize_runs(std::vector<ColumnRun> runs) {
  std::erase_if(runs, [](const ColumnRun& r) { return r.hi <= r.lo; });
  std::sort(runs.begin(), runs.end(),
            [](const ColumnRun& a, const ColumnRun& b) { return a.lo < b.lo; });
  std::vector<ColumnRun> out;
  for (const ColumnRun& r : runs) {
    if (!out.empty() && r.lo <= out.back().hi) {
      out.back().hi = std::max(out.back().hi, r.hi);
    } else {
      out.push_back(r);
    }
  }
  return out;
}

bool runs_contain(const std::vector<ColumnRun>& runs, Index j) {
  // Few runs per row in practice; linear scan with early exit.
  for (const ColumnRun& r : runs) {
    if (j < r.lo) return false;
    if (j < r.hi) return true;
  }
  return false;
}

// Clips band offset runs (StructuredMask::band_offset_runs) to the key
// runs of a row with causal limit lim >= 0, ascending: largest offsets first.
void band_runs_at(const std::vector<ColumnRun>& offsets, Index lim, std::vector<ColumnRun>& out) {
  out.clear();
  for (auto o = offsets.rbegin(); o != offsets.rend(); ++o) {
    const Index lo = std::max<Index>(0, lim - o->hi + 1);
    const Index hi = lim - o->lo + 1;
    if (hi > lo) out.push_back({lo, hi});
  }
}

}  // namespace

void StructuredMask::set_stripe_columns(std::vector<Index> cols) {
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  std::erase_if(cols, [this](Index c) { return c < 0 || c >= sk_; });
  stripe_cols_ = std::move(cols);
  stripe_runs_.clear();
  for (Index c : stripe_cols_) {
    if (!stripe_runs_.empty() && stripe_runs_.back().hi == c) {
      ++stripe_runs_.back().hi;
    } else {
      stripe_runs_.push_back({c, c + 1});
    }
  }
}

void StructuredMask::add_block(Block b) {
  b.q_lo = std::clamp<Index>(b.q_lo, 0, sq_);
  b.q_hi = std::clamp<Index>(b.q_hi, 0, sq_);
  b.k_lo = std::clamp<Index>(b.k_lo, 0, sk_);
  b.k_hi = std::clamp<Index>(b.k_hi, 0, sk_);
  if (b.q_lo < b.q_hi && b.k_lo < b.k_hi) blocks_.push_back(b);
}

void StructuredMask::add_diagonal_band(DiagonalBand band) {
  if (band.width <= 0 || band.offset < 0) return;
  bands_.push_back(band);
  // Merge bands whose offset ranges [offset, offset + width) overlap.
  std::sort(bands_.begin(), bands_.end(),
            [](const DiagonalBand& a, const DiagonalBand& b) { return a.offset < b.offset; });
  std::vector<DiagonalBand> merged;
  for (const DiagonalBand& b : bands_) {
    if (!merged.empty() && b.offset <= merged.back().offset + merged.back().width) {
      const Index hi = std::max(merged.back().offset + merged.back().width, b.offset + b.width);
      merged.back().width = hi - merged.back().offset;
    } else {
      merged.push_back(b);
    }
  }
  bands_ = std::move(merged);
}

std::vector<ColumnRun> StructuredMask::band_offset_runs() const {
  std::vector<ColumnRun> runs;
  if (window_ > 0) runs.push_back({0, window_});
  for (const DiagonalBand& b : bands_) runs.push_back({b.offset, b.offset + b.width});
  return normalize_runs(std::move(runs));
}

std::vector<ColumnRun> StructuredMask::band_runs_for_row(Index i) const {
  const Index lim = causal_limit(i, sq_, sk_);
  std::vector<ColumnRun> runs;
  if (lim < 0) return runs;
  band_runs_at(band_offset_runs(), lim, runs);
  return runs;
}

bool StructuredMask::contains(Index i, Index j) const {
  if (i < 0 || i >= sq_ || j < 0 || j >= sk_) return false;
  const Index lim = causal_limit(i, sq_, sk_);
  if (j > lim) return false;
  if (runs_contain(band_runs_for_row(i), j)) return true;
  if (std::binary_search(stripe_cols_.begin(), stripe_cols_.end(), j)) return true;
  for (const Block& b : blocks_) {
    if (i >= b.q_lo && i < b.q_hi && j >= b.k_lo && j < b.k_hi) return true;
  }
  return false;
}

double StructuredMask::density() const {
  const double denom = causal_pairs(sq_, sk_);
  if (denom <= 0.0) return 0.0;
  const std::vector<ColumnRun> offsets = band_offset_runs();
  const auto cols_below = [this](Index j) {
    return static_cast<Index>(std::lower_bound(stripe_cols_.begin(), stripe_cols_.end(), j) -
                              stripe_cols_.begin());
  };
  double kept = 0.0;
  std::vector<ColumnRun> bands;
  for (Index i = 0; i < sq_; ++i) {
    const Index lim = causal_limit(i, sq_, sk_);
    if (lim < 0) continue;
    band_runs_at(offsets, lim, bands);
    // Band cells, plus the causal stripe columns outside every band.
    Index row = cols_below(lim + 1);
    for (const ColumnRun& r : bands) row += r.width() - (cols_below(r.hi) - cols_below(r.lo));
    // Blocks: cells not covered by bands or stripes.
    for (const Block& b : blocks_) {
      if (i < b.q_lo || i >= b.q_hi) continue;
      const Index hi = std::min(b.k_hi, lim + 1);
      for (Index j = b.k_lo; j < hi; ++j) {
        if (runs_contain(bands, j)) continue;
        if (std::binary_search(stripe_cols_.begin(), stripe_cols_.end(), j)) continue;
        ++row;
      }
    }
    kept += static_cast<double>(row);
  }
  return kept / denom;
}

Matrix StructuredMask::to_dense() const {
  Matrix m(sq_, sk_);
  for (Index i = 0; i < sq_; ++i)
    for (Index j = 0; j < sk_; ++j) m(i, j) = contains(i, j) ? 1.0f : 0.0f;
  return m;
}

Index window_width_from_ratio(Index sk, double window_ratio) {
  const auto w = static_cast<Index>(std::ceil(window_ratio * static_cast<double>(sk)));
  return std::clamp<Index>(w, 1, sk);
}

StructuredMask make_window_mask(Index sq, Index sk, double window_ratio) {
  StructuredMask m(sq, sk);
  m.set_window(window_width_from_ratio(sk, window_ratio));
  return m;
}

StructuredMask make_streaming_mask(Index sq, Index sk, Index sinks, Index window) {
  StructuredMask m(sq, sk);
  m.set_window(std::clamp<Index>(window, 1, sk));
  std::vector<Index> cols;
  for (Index c = 0; c < std::min(sinks, sk); ++c) cols.push_back(c);
  m.set_stripe_columns(std::move(cols));
  return m;
}

}  // namespace sattn
