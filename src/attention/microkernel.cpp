#include "attention/microkernel.h"

#include <algorithm>
#include <cmath>

#include "attention/attention_method.h"

namespace sattn {
namespace {

// Visits every key of runs[0..n-1) and of [runs.back().lo, last_hi) in
// order as fn(row, col): row is the key's K or V row (per `v`), col its
// position in the concatenation. Row pointers are resolved once per
// contiguous KvView run and then marched by d.
template <typename Fn>
void for_each_key(const mk::KvView& kv, std::span<const ColumnRun> runs, Index last_hi, bool v,
                  Fn&& fn) {
  std::size_t col = 0;
  for (std::size_t p = 0; p < runs.size(); ++p) {
    const Index hi = p + 1 == runs.size() ? last_hi : runs[p].hi;
    for (Index j = runs[p].lo; j < hi;) {
      const Index re = kv.run_end(j, hi);
      const float* row = v ? kv.v_row(j) : kv.k_row(j);
      for (; j < re; ++j, row += kv.d, ++col) fn(row, col);
    }
  }
}

// The V pass of a key list: acc[r] += w[r * w_stride + col] * V[key] for
// every key of for_each_key(runs, last_hi) in order. V row pointers are
// collected into an on-stack batch and each batch is one key-list axpyn,
// which keeps every accumulator slice in registers across the batch; the
// per-element FMA order is the per-key loop's, so results match it bit
// for bit. Flat, paged and fragmented key lists all take this path.
void accumulate_values(const simd::Ops& ops, const mk::KvView& kv,
                       std::span<const ColumnRun> runs, Index last_hi, const float* w,
                       Index w_stride, Index rows, float* const* acc) {
  const float* vrows[mk::kVBatch];
  Index keys = 0;
  const float* wb = w;
  for_each_key(kv, runs, last_hi, /*v=*/true, [&](const float* vrow, std::size_t) {
    vrows[keys++] = vrow;
    if (keys == mk::kVBatch) {
      ops.axpyn(wb, w_stride, rows, vrows, keys, acc, kv.d);
      wb += keys;
      keys = 0;
    }
  });
  if (keys > 0) ops.axpyn(wb, w_stride, rows, vrows, keys, acc, kv.d);
}

// Single-row run absorb over raw state: two passes (score + max, then
// weight + accumulate) with one rescale for the whole run. The ragged
// tails of the blocked absorb bottom out here. Kept out of line: with
// absorb_key_tile as its only caller the compiler inlines it there, which
// slows the blocked loop itself (dense flash ~10% on GCC 12 / AVX2).
[[gnu::noinline]] void absorb_run_row(const simd::Ops& ops, const double* qi, float& m,
                                      double& l, float* acc, Index d, const mk::KvView& kv,
                                      float scale, Index lo, Index hi,
                                      std::vector<float>& logits) {
  if (hi <= lo) return;
  const auto n = static_cast<std::size_t>(hi - lo);
  if (logits.size() < n) logits.resize(n);
  float run_max = -std::numeric_limits<float>::infinity();
  for (Index j = lo; j < hi;) {
    const Index re = kv.run_end(j, hi);
    const float* krow = kv.k_row(j);
    for (; j < re; ++j, krow += d) {
      float s;
      ops.dotn(&qi, 1, krow, d, &s);
      s *= scale;
      logits[static_cast<std::size_t>(j - lo)] = s;
      run_max = std::max(run_max, s);
    }
  }
  if (run_max > m) {
    const float rescale = std::exp(m - run_max);
    ops.scale_inplace(acc, d, rescale);
    l *= rescale;
    m = run_max;
  }
  ops.exp_accumulate(logits.data(), hi - lo, m, &l);
  const ColumnRun run{lo, hi};
  accumulate_values(ops, kv, {&run, 1}, hi, logits.data(), /*w_stride=*/0, /*rows=*/1, &acc);
}

}  // namespace

void OnlineSoftmaxRow::absorb(float logit, std::span<const float> v_row) {
  assert(v_row.size() == acc.size());
  const simd::Ops& ops = simd::ops();
  const auto d = static_cast<Index>(acc.size());
  if (logit > m) {
    const float rescale = std::exp(m - logit);
    ops.scale_inplace(acc.data(), d, rescale);
    l *= rescale;
    m = logit;
  }
  const float w = std::exp(logit - m);
  l += w;
  ops.axpy(w, v_row.data(), acc.data(), d);
}

void OnlineSoftmaxRow::finalize(std::span<float> out_row) const {
  assert(out_row.size() == acc.size());
  if (l <= 0.0) {
    std::fill(out_row.begin(), out_row.end(), 0.0f);
    return;
  }
  const auto inv = static_cast<float>(1.0 / l);
  for (std::size_t t = 0; t < acc.size(); ++t) out_row[t] = acc[t] * inv;
}

namespace mk {

void absorb_key_tile(const QBlock& b, const KvView& kv, float scale,
                     std::span<const ColumnRun> runs, const Index* hi,
                     std::vector<float>& logits) {
  assert(b.rows >= 1 && b.rows <= kQRows && !runs.empty());
  const simd::Ops& ops = simd::ops();
  const Index rows = b.rows, d = b.d;
  const ColumnRun& last = runs.back();

  Index hi_min = hi[0];
  for (Index r = 0; r < rows; ++r) {
    assert(hi[r] <= last.hi);
    hi_min = std::min(hi_min, hi[r]);
  }

  // Shared keys: every run but the last, then [last.lo, hi_min). Every row
  // sees every one of them, so K/V rows are loaded once per block via
  // dotn/axpyn, and each row pays one max, rescale and exp pass for the
  // whole list.
  const Index shared_hi = std::max(last.lo, hi_min);
  Index shared = shared_hi - last.lo;
  for (std::size_t p = 0; p + 1 < runs.size(); ++p) shared += runs[p].width();
  if (shared > 0) {
    const auto stride = static_cast<std::size_t>(shared);
    if (logits.size() < stride * static_cast<std::size_t>(rows)) {
      logits.resize(stride * static_cast<std::size_t>(rows));
    }
    float* lg = logits.data();
    float run_max[kQRows];
    for (Index r = 0; r < rows; ++r) run_max[r] = -std::numeric_limits<float>::infinity();
    for_each_key(kv, runs, shared_hi, /*v=*/false, [&](const float* krow, std::size_t col) {
      float s[kQRows];
      ops.dotn(b.q, rows, krow, d, s);
      for (Index r = 0; r < rows; ++r) {
        const float v = scale * s[r];
        lg[static_cast<std::size_t>(r) * stride + col] = v;
        run_max[r] = std::max(run_max[r], v);
      }
    });
    for (Index r = 0; r < rows; ++r) {
      if (run_max[r] > *b.m[r]) {
        const float rescale = std::exp(*b.m[r] - run_max[r]);
        ops.scale_inplace(b.acc[r], d, rescale);
        *b.l[r] *= rescale;
        *b.m[r] = run_max[r];
      }
      ops.exp_accumulate(lg + static_cast<std::size_t>(r) * stride, shared, *b.m[r], b.l[r]);
    }
    accumulate_values(ops, kv, runs, shared_hi, lg, shared, rows, b.acc);
  }

  // Ragged tails: rows whose limit extends past the shared part of the last
  // run finish through the single-row path (one extra rescale per tail).
  for (Index r = 0; r < rows; ++r) {
    if (hi[r] > shared_hi) {
      absorb_run_row(ops, b.q[r], *b.m[r], *b.l[r], b.acc[r], d, kv, scale, shared_hi, hi[r],
                     logits);
    }
  }
}

void logits_rows(const AttentionInput& in, const Index* q_rows, Index rows, float* const* out) {
  assert(rows >= 1 && rows <= kQRows);
  const simd::Ops& ops = simd::ops();
  const Index sq = in.sq(), sk = in.sk(), d = in.head_dim();
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));

  // Order rows by ascending causal limit so key j is scored against exactly
  // the suffix of rows whose limit reaches it: early keys are shared by the
  // whole block, late keys by fewer rows.
  Index ord[kQRows];
  for (Index r = 0; r < rows; ++r) ord[r] = r;
  for (Index r = 1; r < rows; ++r) {  // insertion sort over <= kQRows entries
    const Index o = ord[r];
    Index t = r;
    while (t > 0 && q_rows[ord[t - 1]] > q_rows[o]) {
      ord[t] = ord[t - 1];
      --t;
    }
    ord[t] = o;
  }

  // Each query row is widened once for its whole pass over K.
  const auto ud = static_cast<std::size_t>(d);
  std::vector<double> qw(static_cast<std::size_t>(rows) * ud);
  for (Index r = 0; r < rows; ++r) {
    simd::widen(in.q.row(q_rows[r]).data(), d, qw.data() + static_cast<std::size_t>(r) * ud);
  }

  Index j = 0;
  for (Index g = 0; g < rows; ++g) {
    const Index lim = causal_limit(q_rows[ord[g]], sq, sk);
    const Index nact = rows - g;
    const double* qp[kQRows];
    for (Index t = 0; t < nact; ++t) {
      qp[t] = qw.data() + static_cast<std::size_t>(ord[g + t]) * ud;
    }
    float s[kQRows];
    for (; j <= lim; ++j) {
      ops.dotn(qp, nact, in.k.row(j).data(), d, s);
      for (Index t = 0; t < nact; ++t) {
        out[ord[g + t]][j] = scale * s[t];
      }
    }
  }
  for (Index r = 0; r < rows; ++r) {
    const Index lim = causal_limit(q_rows[r], sq, sk);
    for (Index t = std::max<Index>(0, lim + 1); t < sk; ++t) {
      out[r][t] = -std::numeric_limits<float>::infinity();
    }
  }
}

}  // namespace mk
}  // namespace sattn
