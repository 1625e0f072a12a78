#include "attention/sparse_flash_attention.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "attention/flash_attention.h"
#include "attention/microkernel.h"
#include "core/thread_pool.h"
#include "obs/accounting.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sattn {
namespace {

// One query tile of the sparse sweep: per-row online-softmax state for the
// tile's live rows [r_lo, r_lo + rows) plus the mask structure it walks.
// Row groups of up to mk::kQRows rows absorb key runs through
// mk::absorb_key_tile; a group's membership is a bit mask over its rows.
struct TileSweep {
  std::vector<double> qw;  // the tile's query rows, widened once
  const mk::KvView& kv;
  float scale;
  Index off;  // causal_limit(i) == i + off
  const std::vector<ColumnRun>& stripes;
  const std::vector<ColumnRun>& offsets;  // StructuredMask::band_offset_runs
  std::vector<Block> blocks;              // blocks reaching the tile's rows
  Index r_lo;
  std::vector<float> m;
  std::vector<double> l;
  Matrix acc;
  std::vector<float> logits;
  std::vector<Index> edges;
  std::vector<ColumnRun> runs;  // a group's shared stripe runs in one chunk
  double evals = 0.0;
  double meta_reads = 0.0;

  TileSweep(const float* q_, const mk::KvView& kv_, Index off_,
            const std::vector<ColumnRun>& stripes_, const std::vector<ColumnRun>& offsets_,
            Index r_lo_, Index rows)
      : qw(static_cast<std::size_t>(rows * kv_.d)),
        kv(kv_),
        scale(1.0f / std::sqrt(static_cast<float>(kv_.d))),
        off(off_),
        stripes(stripes_),
        offsets(offsets_),
        r_lo(r_lo_),
        m(static_cast<std::size_t>(rows), -std::numeric_limits<float>::infinity()),
        l(static_cast<std::size_t>(rows), 0.0),
        acc(rows, kv_.d) {
    simd::widen(q_ + static_cast<std::size_t>(r_lo * kv_.d), rows * kv_.d, qw.data());
  }

  // The disjoint ascending key runs `ks` into every member row of group
  // [g0, g1), in one absorb.
  void absorb(Index g0, Index g1, unsigned members, std::span<const ColumnRun> ks) {
    const Index d = kv.d;
    mk::QBlock b;
    b.d = d;
    Index his[mk::kQRows];
    for (Index r = g0; r < g1; ++r) {
      if (((members >> (r - g0)) & 1u) == 0) continue;
      const auto rr = static_cast<std::size_t>(r - r_lo);
      b.q[b.rows] = qw.data() + rr * static_cast<std::size_t>(d);
      b.m[b.rows] = &m[rr];
      b.l[b.rows] = &l[rr];
      b.acc[b.rows] = acc.row(r - r_lo).data();
      his[b.rows] = ks.back().hi;
      ++b.rows;
    }
    mk::absorb_key_tile(b, kv, scale, ks, his, logits);
    Index cells = 0;
    for (const ColumnRun& k : ks) cells += k.width();
    evals += static_cast<double>(b.rows) * static_cast<double>(cells);
    meta_reads += static_cast<double>(ks.size());
  }

  void absorb(Index g0, Index g1, unsigned members, Index lo, Index hi) {
    const ColumnRun run{lo, hi};
    absorb(g0, g1, members, {&run, 1});
  }

  // Lowest key any band of a row with causal limit lim reaches; lim + 1
  // when the mask has no bands. Keys below it are causal for the row and
  // outside its bands.
  Index band_floor(Index lim) const {
    return offsets.empty() ? lim + 1 : std::max<Index>(0, lim - offsets.back().hi + 1);
  }

  bool in_band(Index dist) const {
    for (const ColumnRun& o : offsets) {
      if (dist < o.lo) return false;
      if (dist < o.hi) return true;
    }
    return false;
  }

  // Absorbs the key chunk [c_lo, c_hi) into rows [g0, g1). `sr` is the
  // first stripe run ending after c_lo.
  void group(Index g0, Index g1, Index c_lo, Index c_hi, std::size_t sr) {
    const Index lim0 = g0 + off, lim1 = g1 - 1 + off;
    const unsigned all = (1u << (g1 - g0)) - 1u;
    const auto reaches = [&](const Block& b) {
      return b.q_lo < g1 && b.q_hi > g0 && b.k_lo < c_hi && b.k_hi > c_lo;
    };
    const bool has_blocks = std::any_of(blocks.begin(), blocks.end(), reaches);

    // 1. Keys below the lowest band start of the group's first row are
    //    outside every row's bands and causal for all of them: the stripe
    //    runs there are shared by the whole group and go in as one absorb.
    //    A block in the chunk breaks that, so the chunk then goes entirely
    //    through the interval split.
    const Index shared_end = has_blocks ? c_lo : band_floor(lim0);
    const Index s_hi = std::min(c_hi, shared_end);
    runs.clear();
    for (std::size_t p = sr; p < stripes.size() && stripes[p].lo < s_hi; ++p) {
      const Index lo = std::max(stripes[p].lo, c_lo), hi = std::min(stripes[p].hi, s_hi);
      if (lo < hi) runs.push_back({lo, hi});
    }
    if (!runs.empty()) absorb(g0, g1, all, runs);

    // 2. The near-diagonal rest, split at every band-run edge, causal
    //    limit, stripe-run edge and block k-edge into maximal intervals of
    //    constant row membership.
    const Index n_lo = std::max(c_lo, shared_end), n_hi = std::min(c_hi, lim1 + 1);
    if (n_lo >= n_hi) return;
    edges.assign({n_lo, n_hi});
    const auto edge = [&](Index e) {
      if (e > n_lo && e < n_hi) edges.push_back(e);
    };
    for (Index r = g0; r < g1; ++r) {
      const Index lim = r + off;
      edge(lim + 1);
      for (const ColumnRun& o : offsets) {
        edge(lim - o.hi + 1);
        edge(lim - o.lo + 1);
      }
    }
    for (std::size_t p = sr; p < stripes.size() && stripes[p].lo < n_hi; ++p) {
      edge(stripes[p].lo);
      edge(stripes[p].hi);
    }
    if (has_blocks) {
      for (const Block& b : blocks) {
        if (!reaches(b)) continue;
        edge(b.k_lo);
        edge(b.k_hi);
      }
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

    std::size_t p = sr;
    unsigned cur = 0;
    Index cur_lo = n_lo;
    for (std::size_t k = 0; k + 1 < edges.size(); ++k) {
      const Index e = edges[k];
      while (p < stripes.size() && stripes[p].hi <= e) ++p;
      const bool stripe = p < stripes.size() && stripes[p].lo <= e;
      unsigned members = 0;
      for (Index r = g0; r < g1; ++r) {
        const Index lim = r + off;
        if (e > lim) continue;
        bool in = stripe || in_band(lim - e);
        if (!in && has_blocks) {
          in = std::any_of(blocks.begin(), blocks.end(), [&](const Block& b) {
            return r >= b.q_lo && r < b.q_hi && e >= b.k_lo && e < b.k_hi;
          });
        }
        if (in) members |= 1u << (r - g0);
      }
      if (members != cur) {
        if (cur != 0) absorb(g0, g1, cur, cur_lo, e);
        cur = members;
        cur_lo = e;
      }
    }
    if (cur != 0) absorb(g0, g1, cur, cur_lo, n_hi);
  }
};

}  // namespace

void sparse_flash_attention(const AttentionInput& in, const StructuredMask& mask, Matrix& out) {
  sparse_flash_attention(in.q.data(), in.sq(), mk::KvView::of(in), in.sk(), mask, out);
}

void sparse_flash_attention(const float* q, Index sq, const mk::KvView& kv, Index sk,
                            const StructuredMask& mask, Matrix& out) {
  const Index d = kv.d;
  assert(mask.sq() == sq && mask.sk() == sk);
  SATTN_SPAN("kernel/sparse_flash");
  SATTN_COUNTER_ADD("sattn.mask_stripe_columns", mask.stripe_columns().size());
  out.resize(sq, d);
  // Measured work: rows x length of every absorbed run or interval, plus the
  // mask metadata the kernel walks (8 bytes per stripe run or interval
  // descriptor absorbed per row group). Folded once per tile.
  std::atomic<double> evals_total{0.0};
  std::atomic<double> meta_reads{0.0};
  const FlashConfig cfg{};
  const Index off = sk - sq;
  const std::vector<ColumnRun> offsets = mask.band_offset_runs();
  const auto& stripes = mask.stripe_runs();

  const Index n_tiles = (sq + cfg.tile_q - 1) / cfg.tile_q;
  parallel_for(n_tiles, [&](Index t) {
    const Index t_lo = t * cfg.tile_q;
    const Index t_hi = std::min(sq, t_lo + cfg.tile_q);
    // Rows above the causal start (sq > sk) attend nothing.
    const Index r_lo = std::clamp<Index>(-off, t_lo, t_hi);
    for (Index i = t_lo; i < r_lo; ++i) {
      auto orow = out.row(i);
      std::fill(orow.begin(), orow.end(), 0.0f);
    }
    if (r_lo == t_hi) return;

    TileSweep ts(q, kv, off, stripes, offsets, r_lo, t_hi - r_lo);
    for (const Block& b : mask.blocks()) {
      if (b.q_lo < t_hi && b.q_hi > r_lo) ts.blocks.push_back(b);
    }
    // Below the first row's band floor only stripes (or blocks) can hold
    // work, so chunks without either are skipped outright.
    const Index quiet_end = ts.band_floor(r_lo + off);
    const Index k_end = t_hi + off;  // one past the last row's causal limit
    std::size_t sr = 0;
    for (Index c_lo = 0; c_lo < k_end; c_lo += cfg.tile_k) {
      const Index c_hi = std::min(k_end, c_lo + cfg.tile_k);
      while (sr < stripes.size() && stripes[sr].hi <= c_lo) ++sr;
      const bool no_stripes = sr == stripes.size() || stripes[sr].lo >= c_hi;
      if (no_stripes && ts.blocks.empty() && c_hi <= quiet_end) continue;
      // Every row group of the tile consumes this K/V chunk while it is hot.
      for (Index g0 = r_lo; g0 < t_hi; g0 += mk::kQRows) {
        ts.group(g0, std::min(t_hi, g0 + mk::kQRows), c_lo, c_hi, sr);
      }
    }

    for (Index i = r_lo; i < t_hi; ++i) {
      auto orow = out.row(i);
      const double denom = ts.l[static_cast<std::size_t>(i - r_lo)];
      if (denom <= 0.0) {
        std::fill(orow.begin(), orow.end(), 0.0f);
        continue;
      }
      const auto inv = static_cast<float>(1.0 / denom);
      const auto arow = ts.acc.row(i - r_lo);
      for (Index c = 0; c < d; ++c) {
        orow[static_cast<std::size_t>(c)] = arow[static_cast<std::size_t>(c)] * inv;
      }
    }
    evals_total.fetch_add(ts.evals, std::memory_order_relaxed);
    meta_reads.fetch_add(ts.meta_reads, std::memory_order_relaxed);
  });
  const double evals = evals_total.load();
  SATTN_HISTOGRAM("kernel.sparse_flash.score_evals", evals);
  obs::charge_attention_kernel("sparse_flash", sq, sk, d, evals,
                               /*score_bytes=*/0.0,
                               /*meta_bytes=*/8.0 * meta_reads.load());
}

double sparse_flash_work(const StructuredMask& mask) {
  // The kernel evaluates exactly the masked-in causal cells (every key
  // interval it absorbs is charged rows x length, and intervals never
  // overlap), so work equals density * causal_pairs.
  return mask.density() * causal_pairs(mask.sq(), mask.sk());
}

AttentionResult MaskedAttention::run_impl(const AttentionInput& in) const {
  const StructuredMask mask = builder_(in);
  AttentionResult r;
  sparse_flash_attention(in, mask, r.out);
  r.density = mask.density();
  return r;
}

}  // namespace sattn
