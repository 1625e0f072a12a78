// Register-blocked attention micro-kernels over the SIMD primitive layer.
//
// The tiled kernels (flash_attention, block_sparse, sparse_flash) all
// reduce to the same two inner steps: score a run of keys against one or
// more query rows, then fold the run into each row's online-softmax state
// with a single rescale (Dao et al., 2022, Alg. 1).
// This header owns that machinery:
//
//   * OnlineSoftmaxRow — the single-row accumulator (moved here from
//     flash_attention.h; that header re-exports it, so existing includes
//     keep working).
//   * mk::KvView — a raw, non-owning view of one K/V stream (base pointers
//     + head_dim). The absorb paths take this instead of an AttentionInput,
//     so the same tile sweep serves a request's prefill matrices, a KV
//     cache's contiguous storage, or one sequence of a ragged batch
//     (src/runtime/batch.h) without materializing per-call tensors.
//   * mk::QBlock / mk::absorb_key_tile — the register-blocked core: up to
//     mk::kQRows query rows, widened to double once by the caller, advance
//     through one K/V stream together, so each K row is scored with one
//     simd::dotn (K lanes loaded once for all rows), and the V pass
//     gathers the list's V rows into on-stack batches of 64 and
//     accumulates each batch with one key-list simd::axpyn (accumulator
//     slices stay in registers across the batch). One call absorbs a list of
//     disjoint key runs (a chunk's stripe runs, or one tile) with a single
//     max, rescale and simd::exp_accumulate pass per row. Rows may have
//     ragged limits in the last run; the shared keys are blocked and the
//     tails fall back to the single-row path, so masked (never-visited)
//     K/V entries are never read.
//   * mk::logits_rows — the blocked score path used by for_each_score_row
//     (Stage-1 sampling): up to kQRows sampled rows share one pass over K.
//
// Every score goes through simd::dotn on widened rows (bit-identical to
// simd::dot on the float rows within a table), so there is a single dot
// path.
//
// All paths call simd::ops() — AVX2/FMA where the CPU supports it, the
// portable scalar table under SATTN_FORCE_SCALAR=1 or simd::ScopedForceScalar.
#pragma once

#include <cassert>
#include <limits>
#include <span>
#include <vector>

#include "attention/masks.h"
#include "core/simd.h"
#include "core/tensor.h"

namespace sattn {

// Online-softmax accumulator for one query row. Public so the sparse kernel
// and SampleAttention's fused Stage-1 share the exact same update rule. The
// normalizer `l` accumulates in double, matching the tiled kernels (see the
// long-row drift tests in tests/simd_kernel_test.cpp).
struct OnlineSoftmaxRow {
  std::vector<float> acc;  // unnormalized output accumulator, length d
  float m = -std::numeric_limits<float>::infinity();  // running max
  double l = 0.0;                                     // running normalizer

  explicit OnlineSoftmaxRow(Index d) : acc(static_cast<std::size_t>(d), 0.0f) {}

  // Absorb one (logit, value-row) pair.
  void absorb(float logit, std::span<const float> v_row);

  // Write normalized output; zero if nothing was absorbed.
  void finalize(std::span<float> out_row) const;
};

namespace mk {

// Non-owning view of one K/V stream. This is the seam that makes the
// micro-kernels request-agnostic — callers point it at an AttentionInput's
// matrices, at a paged KVCache's page table, or at any sequence of a ragged
// batch, and the same absorb sweep services all of them. Two layouts:
//
//   * flat  — row j of either stream starts at base + j*d (k/v set,
//     k_pages/v_pages null);
//   * paged — row j lives in page j >> page_shift at row j & page_mask
//     (runtime/kv_page.h): k_pages/v_pages are per-page row bases, so the
//     kernels read straight through a KVCache's page table with no copies
//     and — because every access goes through k_row/v_row — bit-identical
//     results to flat storage (pinned in tests/engine_test.cpp).
struct KvView {
  const float* k = nullptr;
  const float* v = nullptr;
  Index d = 0;
  const float* const* k_pages = nullptr;  // paged layout: per-page row bases
  const float* const* v_pages = nullptr;
  Index page_shift = 0;
  Index page_mask = 0;

  bool paged() const { return k_pages != nullptr; }

  const float* k_row(Index j) const {
    if (k_pages != nullptr) {
      return k_pages[j >> page_shift] + static_cast<std::size_t>(j & page_mask) * d;
    }
    return k + static_cast<std::size_t>(j * d);
  }
  const float* v_row(Index j) const {
    if (v_pages != nullptr) {
      return v_pages[j >> page_shift] + static_cast<std::size_t>(j & page_mask) * d;
    }
    return v + static_cast<std::size_t>(j * d);
  }

  // End of the contiguous row run containing j, clipped to hi: the whole
  // range for flat views, the end of j's page for paged ones. The hot
  // absorb loops iterate run-at-a-time — resolve k_row/v_row once per run,
  // then march the pointer by d — so the flat path keeps the seed's
  // branch-free per-key codegen and the paged path pays one layout branch
  // per page instead of per key.
  Index run_end(Index j, Index hi) const {
    if (k_pages == nullptr) return hi;
    const Index page_end = ((j >> page_shift) + 1) << page_shift;
    return page_end < hi ? page_end : hi;
  }

  static KvView of(const AttentionInput& in) { return {in.k.data(), in.v.data(), in.head_dim()}; }
};

// Query rows processed per register block. Matches simd::kMaxRows: the
// AVX2 dotn keeps one pair of double accumulators per row in ymm registers
// and axpyn 8 ymm of float accumulator slices (16 columns per row at four
// rows), and four rows is the deepest block that still fits.
inline constexpr Index kQRows = simd::kMaxRows;

// V rows gathered per key-list simd::axpyn call in the V passes (an
// on-stack batch of row pointers): FlashConfig{}.tile_k, so a dense tile
// is one call; longer key lists (a chunk's stripe runs, larger tiles, a
// full_attention prefix) take several.
inline constexpr Index kVBatch = 64;

// A view over up to kQRows query rows' online-softmax state. The pointers
// alias caller-owned storage (flash_attention's per-tile m/l/acc arrays, or
// individual OnlineSoftmaxRow structs in block_sparse), so the blocked core
// composes with either layout without copying state.
struct QBlock {
  Index rows = 0;  // active rows, 1..kQRows
  Index d = 0;     // head dim
  const double* q[kQRows] = {};  // query rows, widened (simd::widen)
  float* m[kQRows] = {};        // running max per row
  double* l[kQRows] = {};       // running normalizer per row
  float* acc[kQRows] = {};      // unnormalized accumulator rows, length d
};

// Absorbs the disjoint, ascending key runs into each row r of the block:
// every run but the last whole, and [runs.back().lo, hi[r]) of the last
// (hi[r] <= runs.back().hi; a single run [lo, max_r hi[r]) is the tile
// case). The keys every row shares — the leading runs and the last run up
// to min_r hi[r] — are processed register-blocked, each K/V row loaded once
// for all rows, with one max, rescale and exp pass per row for the whole
// list; the ragged tails of the last run go through the single-row path.
// Rows with hi[r] <= runs.back().lo should not be placed in a one-run block
// (their state would still be correct, but they would force an empty shared
// part). `logits` is caller-owned scratch, grown as needed.
void absorb_key_tile(const QBlock& b, const KvView& kv, float scale,
                     std::span<const ColumnRun> runs, const Index* hi,
                     std::vector<float>& logits);

// Blocked score path: fills out[r][0..sk) with the causal logits row of
// query q_rows[r] (same semantics as logits_row in full_attention.h: the
// causal prefix holds scale * q·k, the masked tail is -inf), sharing each K
// row across all block rows whose causal limit reaches it. Rows need not be
// sorted; each out[r] must hold at least sk floats. rows is 1..kQRows.
void logits_rows(const AttentionInput& in, const Index* q_rows, Index rows, float* const* out);

}  // namespace mk
}  // namespace sattn
