#include "runtime/decode.h"

#include <algorithm>
#include <cmath>

#include "attention/flash_attention.h"
#include "core/numerics.h"
#include "obs/accounting.h"
#include "obs/trace.h"
#include "robust/validate.h"

namespace sattn {

Status decode_attention(std::span<const float> q_row, const KVCache& cache,
                        std::span<float> out_row, std::vector<float>* weights) {
  SATTN_SPAN("kernel/decode");
  const Index d = cache.head_dim();
  SATTN_CHECK(static_cast<Index>(q_row.size()) == d, kInvalidArgument, "decode q_row has ",
              q_row.size(), " entries, cache head_dim is ", d);
  SATTN_CHECK(static_cast<Index>(out_row.size()) == d, kInvalidArgument, "decode out_row has ",
              out_row.size(), " entries, cache head_dim is ", d);
  SATTN_CHECK(all_finite(q_row), kDataCorruption, "non-finite value in decode query row");
  SATTN_COUNTER_ADD("runtime.decode_tokens", 1);
  SATTN_COUNTER_ADD("kv_cache.rows_read", cache.size());
  const Index n = cache.size();
  if (n == 0) {
    std::fill(out_row.begin(), out_row.end(), 0.0f);
    if (weights != nullptr) weights->clear();
    return Status::Ok();
  }
  // The output runs through the tiled micro-kernel straight off the page
  // table: the one query row sees every slot (causal_off = n - 1).
  flash_rows(q_row.data(), 1, cache.view(), n, n - 1, out_row.data(), d);
  if (weights != nullptr) {
    const float scale = 1.0f / std::sqrt(static_cast<float>(d));
    weights->resize(static_cast<std::size_t>(n));
    for (Index s = 0; s < n; ++s) {
      (*weights)[static_cast<std::size_t>(s)] = scale * dot(q_row, cache.k(s));
    }
    softmax_inplace(*weights);
  }
  // One decode step is a 1 x n attention row over the cache.
  obs::charge_attention_kernel("decode", /*sq=*/1, /*sk=*/n, d, static_cast<double>(n));
  return Status::Ok();
}

double audited_decode_retained_mass(std::span<const float> weights,
                                    std::span<const Index> stripe_columns, Index window_cols) {
  const Index n = static_cast<Index>(weights.size());
  if (n == 0) return 1.0;
  const Index win_lo = std::max<Index>(0, n - std::max<Index>(window_cols, 0));
  double mass = 0.0;
  for (Index c = win_lo; c < n; ++c) mass += static_cast<double>(weights[static_cast<std::size_t>(c)]);
  // Stripes inside the window are already counted; Index sets from
  // StructuredMask::stripe_columns() are deduped, but guard anyway so a
  // hand-built column list cannot overcount.
  Index prev = -1;
  for (const Index c : stripe_columns) {
    if (c >= 0 && c < win_lo && c != prev) {
      mass += static_cast<double>(weights[static_cast<std::size_t>(c)]);
    }
    prev = c;
  }
  obs::charge_attention_kernel("audit", /*sq=*/1, /*sk=*/n, /*head_dim=*/0,
                               static_cast<double>(n));
  return std::clamp(mass, 0.0, 1.0);
}

}  // namespace sattn
