#include "attention/flash_attention.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include "core/thread_pool.h"
#include "obs/accounting.h"
#include "obs/trace.h"

namespace sattn {

double flash_rows(const float* q, Index rows, const mk::KvView& kv, Index k_hi, Index causal_off,
                  float* out, Index out_stride, const FlashConfig& cfg) {
  assert(cfg.tile_q > 0 && cfg.tile_k > 0);
  const Index d = kv.d;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  double evals = 0.0;
  std::vector<float> logits;
  std::vector<double> qw;
  for (Index t_lo = 0; t_lo < rows; t_lo += cfg.tile_q) {
    const Index t_hi = std::min(rows, t_lo + cfg.tile_q);
    const Index t_rows = t_hi - t_lo;
    // The tile's query rows, widened once for every key chunk.
    qw.resize(static_cast<std::size_t>(t_rows * d));
    simd::widen(q + static_cast<std::size_t>(t_lo * d), t_rows * d, qw.data());

    // Per-tile state: running max / normalizer / accumulator per query row.
    std::vector<float> m(static_cast<std::size_t>(t_rows),
                         -std::numeric_limits<float>::infinity());
    std::vector<double> l(static_cast<std::size_t>(t_rows), 0.0);
    Matrix acc(t_rows, d);

    // The last key any row of this tile may see (causal).
    const Index tile_k_max = std::min(k_hi - 1, (t_hi - 1) + causal_off);
    for (Index k_lo = 0; k_lo <= tile_k_max; k_lo += cfg.tile_k) {
      const Index kt_hi = std::min(tile_k_max + 1, k_lo + cfg.tile_k);
      const ColumnRun run{k_lo, kt_hi};
      // Register-blocked inner loop: groups of mk::kQRows query rows share
      // each K/V row of the tile (one dotn per key and one key-list axpyn
      // per tile for the group).
      for (Index r0 = t_lo; r0 < t_hi; r0 += mk::kQRows) {
        mk::QBlock b;
        b.d = d;
        Index his[mk::kQRows];
        const Index r1 = std::min(t_hi, r0 + mk::kQRows);
        for (Index r = r0; r < r1; ++r) {
          const Index vis = std::min(k_hi, r + causal_off + 1);
          if (k_lo >= vis) continue;  // entire tile masked for this row
          const Index jn = std::min(kt_hi, vis);
          const auto rr = static_cast<std::size_t>(r - t_lo);
          b.q[b.rows] = qw.data() + rr * static_cast<std::size_t>(d);
          b.m[b.rows] = &m[rr];
          b.l[b.rows] = &l[rr];
          b.acc[b.rows] = acc.row(r - t_lo).data();
          his[b.rows] = jn;
          ++b.rows;
          evals += static_cast<double>(jn - k_lo);
        }
        if (b.rows > 0) mk::absorb_key_tile(b, kv, scale, {&run, 1}, his, logits);
      }
    }
    for (Index r = 0; r < t_rows; ++r) {
      float* orow = out + static_cast<std::size_t>(t_lo + r) * static_cast<std::size_t>(out_stride);
      const double denom = l[static_cast<std::size_t>(r)];
      if (denom <= 0.0) {
        std::fill(orow, orow + d, 0.0f);
        continue;
      }
      const auto inv = static_cast<float>(1.0 / denom);
      const auto arow = acc.row(r);
      for (Index t = 0; t < d; ++t) orow[t] = arow[static_cast<std::size_t>(t)] * inv;
    }
  }
  return evals;
}

void flash_attention(const AttentionInput& in, Matrix& out, const FlashConfig& cfg) {
  const Index sq = in.sq(), sk = in.sk(), d = in.head_dim();
  assert(cfg.tile_q > 0 && cfg.tile_k > 0);
  SATTN_SPAN("kernel/flash");
  out.resize(sq, d);
  const mk::KvView kv = mk::KvView::of(in);
  const Index off = sk - sq;  // causal_limit(i, sq, sk) == i + off
  // Measured score-eval tally: accumulated per q-tile in a plain local and
  // folded into one atomic add per tile, then charged on the calling thread
  // after the parallel loop (see obs/accounting.h).
  std::atomic<double> evals_total{0.0};

  const Index n_qtiles = (sq + cfg.tile_q - 1) / cfg.tile_q;
  parallel_for(n_qtiles, [&](Index qt) {
    const Index q_lo = qt * cfg.tile_q;
    const Index q_hi = std::min(sq, q_lo + cfg.tile_q);
    const double tile_evals = flash_rows(in.q.row(q_lo).data(), q_hi - q_lo, kv, sk, q_lo + off,
                                         out.row(q_lo).data(), d, cfg);
    evals_total.fetch_add(tile_evals, std::memory_order_relaxed);
  });
  // No score traffic: tile logits never leave the tile-local buffer (the
  // point of the flash formulation).
  obs::charge_attention_kernel("flash", sq, sk, d, evals_total.load());
}

AttentionResult FlashAttention::run_impl(const AttentionInput& in) const {
  AttentionResult r;
  flash_attention(in, r.out, cfg_);
  r.density = 1.0;
  return r;
}

}  // namespace sattn
