// Decode-phase attention: one new query against the KV cache.
//
// The paper leaves decode untouched (uncompressed cache, exact attention);
// these helpers provide that exact path plus the per-slot softmax weights
// that score-based eviction policies (H2O) need to observe. The output goes
// through the same register-blocked micro-kernel as prefill (flash_rows
// over the cache's paged view), so it is bit-identical to flash_rows on a
// flat copy of the cache; the weights, when asked for, are a separate
// scoring pass plus softmax_inplace.
#pragma once

#include <span>
#include <vector>

#include "core/status.h"
#include "runtime/kv_cache.h"

namespace sattn {

// Exact softmax attention of q_row over every cached slot. out_row must
// have cache.head_dim() entries (kInvalidArgument otherwise) and q_row must
// be finite (kDataCorruption — one corrupted decode token must not poison
// the output stream). If weights != nullptr it receives the per-slot
// attention probabilities (resized to cache.size()).
Status decode_attention(std::span<const float> q_row, const KVCache& cache,
                        std::span<float> out_row, std::vector<float>* weights = nullptr);

// Quality-audit helper (obs/audit.h): the retained softmax mass a decode
// row *would* keep under a window + stripes plan — the last `window_cols`
// cache slots plus every listed stripe column. Decode runs exact attention,
// so `weights` (from decode_attention) is already ground truth and the
// audit is a single pass over it: no extra kernel work. Used by the engine
// to extend the shadow audit into the decode phase, scoring the request's
// accepted plan structure against the weights the cache actually produced.
// Duplicate or out-of-range stripe columns are ignored; mass is clamped to
// [0, 1]. Charges the measured pass to acct.audit.*.
double audited_decode_retained_mass(std::span<const float> weights,
                                    std::span<const Index> stripe_columns, Index window_cols);

}  // namespace sattn
