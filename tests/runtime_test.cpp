// Tests for the runtime layer: KV cache, decode attention, eviction
// policies, chunked prefill, and the model-level prefill runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "attention/flash_attention.h"
#include "attention/full_attention.h"
#include "core/rng.h"
#include "model/workload.h"
#include "runtime/chunked_prefill.h"
#include "runtime/decode.h"
#include "runtime/eviction.h"
#include "runtime/kv_cache.h"
#include "runtime/model_runner.h"
#include "sample_attention/sample_attention.h"

namespace sattn {
namespace {

AttentionInput random_input(Index s, Index d, std::uint64_t seed) {
  AttentionInput in;
  in.q.resize(s, d);
  in.k.resize(s, d);
  in.v.resize(s, d);
  Rng rng(seed);
  rng.fill_normal(in.q);
  rng.fill_normal(in.k);
  rng.fill_normal(in.v);
  return in;
}

TEST(KvCache, AppendAndViews) {
  KVCache cache(4);
  std::vector<float> k = {1, 2, 3, 4}, v = {5, 6, 7, 8};
  ASSERT_TRUE(cache.append(0, k, v).ok());
  ASSERT_EQ(cache.size(), 1);
  EXPECT_FLOAT_EQ(cache.k(0)[2], 3.0f);
  EXPECT_FLOAT_EQ(cache.v(0)[0], 5.0f);
  EXPECT_EQ(cache.position(0), 0);
}

TEST(KvCache, AppendPrefillCopiesAllRows) {
  const AttentionInput in = random_input(16, 8, 1);
  KVCache cache(8);
  ASSERT_TRUE(cache.append_prefill(in).ok());
  ASSERT_EQ(cache.size(), 16);
  for (Index j = 0; j < 16; ++j) {
    EXPECT_FLOAT_EQ(cache.k(j)[0], in.k(j, 0));
    EXPECT_FLOAT_EQ(cache.v(j)[7], in.v(j, 7));
    EXPECT_EQ(cache.position(j), j);
  }
}

TEST(KvCache, KeepSlotsCompacts) {
  const AttentionInput in = random_input(8, 4, 2);
  KVCache cache(4);
  ASSERT_TRUE(cache.append_prefill(in).ok());
  std::vector<Index> keep = {0, 3, 7};
  ASSERT_TRUE(cache.keep_slots(keep).ok());
  ASSERT_EQ(cache.size(), 3);
  EXPECT_EQ(cache.position(1), 3);
  EXPECT_FLOAT_EQ(cache.k(2)[0], in.k(7, 0));
  EXPECT_EQ(cache.slot_of(3), 1);
  EXPECT_EQ(cache.slot_of(4), -1);
}

// Satellite regression (docs/ROBUSTNESS.md): violations of the cache's
// append contract are checked errors, not asserts, so they surface in
// release builds too (SATTN_CHECK never compiles out — this test runs
// identically under -DNDEBUG).
TEST(KvCache, AppendViolationsAreCheckedErrors) {
  KVCache cache(4);
  std::vector<float> k = {1, 2, 3, 4}, v = {5, 6, 7, 8};
  ASSERT_TRUE(cache.append(5, k, v).ok());

  // Non-monotone position: rejected, cache untouched.
  const Status backwards = cache.append(5, k, v);
  EXPECT_EQ(backwards.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(backwards.message().find("monoton"), std::string::npos);
  EXPECT_EQ(cache.size(), 1);

  // Dimension mismatch: rejected, cache untouched.
  std::vector<float> short_row = {1, 2};
  const Status bad_k = cache.append(6, short_row, v);
  EXPECT_EQ(bad_k.code(), StatusCode::kInvalidArgument);
  const Status bad_v = cache.append(6, k, short_row);
  EXPECT_EQ(bad_v.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cache.size(), 1);

  // The cache still works after rejected appends.
  ASSERT_TRUE(cache.append(6, k, v).ok());
  EXPECT_EQ(cache.size(), 2);
  EXPECT_EQ(cache.position(1), 6);
}

TEST(KvCache, KeepSlotsRejectsBadListsWithoutMutating) {
  const AttentionInput in = random_input(8, 4, 21);
  KVCache cache(4);
  ASSERT_TRUE(cache.append_prefill(in).ok());
  EXPECT_EQ(cache.keep_slots(std::vector<Index>{3, 1}).code(),
            StatusCode::kInvalidArgument);  // not ascending
  EXPECT_EQ(cache.keep_slots(std::vector<Index>{0, 99}).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(cache.size(), 8);  // nothing was dropped by the failed calls
  for (Index j = 0; j < 8; ++j) EXPECT_FLOAT_EQ(cache.k(j)[0], in.k(j, 0));
}

TEST(KvCache, AppendPrefillRejectsMismatchedInput) {
  AttentionInput in = random_input(8, 4, 22);
  KVCache cache(8);  // head_dim 8 != input's 4
  EXPECT_EQ(cache.append_prefill(in).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cache.size(), 0);
}

TEST(Decode, MatchesFullAttentionLastRow) {
  // Decoding position S-1 against the cache of positions 0..S-1 must equal
  // the last row of one-shot causal prefill.
  const AttentionInput in = random_input(32, 8, 3);
  Matrix exact;
  full_attention(in, exact);

  KVCache cache(8);
  ASSERT_TRUE(cache.append_prefill(in).ok());
  std::vector<float> out(8);
  ASSERT_TRUE(decode_attention(in.q.row(31), cache, out).ok());
  for (Index t = 0; t < 8; ++t) EXPECT_NEAR(out[static_cast<std::size_t>(t)], exact(31, t), 2e-5f);
}

TEST(Decode, WeightsSumToOne) {
  const AttentionInput in = random_input(16, 4, 4);
  KVCache cache(4);
  ASSERT_TRUE(cache.append_prefill(in).ok());
  std::vector<float> out(4), weights;
  ASSERT_TRUE(decode_attention(in.q.row(15), cache, out, &weights).ok());
  ASSERT_EQ(weights.size(), 16u);
  double s = 0.0;
  for (float w : weights) s += w;
  EXPECT_NEAR(s, 1.0, 1e-5);
}

TEST(Decode, EmptyCacheYieldsZeros) {
  KVCache cache(4);
  std::vector<float> q = {1, 2, 3, 4}, out(4, 9.0f);
  ASSERT_TRUE(decode_attention(q, cache, out).ok());
  for (float x : out) EXPECT_FLOAT_EQ(x, 0.0f);
}

// decode_attention runs flash_rows over the cache's paged view, so it must
// equal flash_rows on flat K/V bit for bit: at 64k +- 1 slots (one key past
// or short of a tile, a V batch and a 64-token page) and again after H2O
// compaction rewrites the survivors into fresh pages. d = 21 covers the
// 16-column slice plus the scalar column tail, d = 128 the bench head dim.
TEST(Decode, MatchesFlashRowsBitExact) {
  const auto expect_matches_flat = [](std::span<const float> q, const KVCache& cache,
                                      const AttentionInput& flat) {
    const Index n = cache.size(), d = cache.head_dim();
    std::vector<float> got(static_cast<std::size_t>(d)), want(got.size());
    ASSERT_TRUE(decode_attention(q, cache, got).ok());
    flash_rows(q.data(), 1, mk::KvView::of(flat), n, n - 1, want.data(), d);
    EXPECT_EQ(got, want) << "n=" << n << " d=" << d;
  };
  for (const Index d : {21, 128}) {
    for (const Index n : {63, 64, 65, 127, 128, 129}) {
      const AttentionInput in = random_input(n, d, 40 + static_cast<std::uint64_t>(n + d));
      KVCache cache(d);
      ASSERT_TRUE(cache.append_prefill(in).ok());
      expect_matches_flat(in.q.row(n - 1), cache, in);

      // Observe real weights, compact, and compare against a flat copy of
      // the surviving rows.
      std::vector<float> out(static_cast<std::size_t>(d)), weights;
      ASSERT_TRUE(decode_attention(in.q.row(n - 1), cache, out, &weights).ok());
      H2OPolicy policy(/*budget=*/n / 2, /*recent=*/8);
      policy.observe(cache, weights);
      ASSERT_TRUE(policy.enforce(cache));
      AttentionInput kept;
      kept.q.resize(1, d);
      kept.k.resize(cache.size(), d);
      kept.v.resize(cache.size(), d);
      for (Index s = 0; s < cache.size(); ++s) {
        std::copy(cache.k(s).begin(), cache.k(s).end(), kept.k.row(s).begin());
        std::copy(cache.v(s).begin(), cache.v(s).end(), kept.v.row(s).begin());
      }
      expect_matches_flat(in.q.row(n - 1), cache, kept);
    }
  }
}

TEST(H2O, KeepsHeavyHittersAndRecent) {
  const AttentionInput in = random_input(32, 4, 5);
  KVCache cache(4);
  ASSERT_TRUE(cache.append_prefill(in).ok());
  H2OPolicy policy(/*budget=*/8, /*recent=*/4);
  // Observe weights that make positions 2 and 10 heavy.
  std::vector<float> w(32, 0.001f);
  w[2] = 0.5f;
  w[10] = 0.4f;
  policy.observe(cache, w);
  EXPECT_TRUE(policy.enforce(cache));
  EXPECT_EQ(cache.size(), 8);
  EXPECT_GE(cache.slot_of(2), 0);
  EXPECT_GE(cache.slot_of(10), 0);
  // The 4 most recent positions survive.
  for (Index pos : {28, 29, 30, 31}) EXPECT_GE(cache.slot_of(pos), 0);
}

TEST(H2O, NoEvictionUnderBudget) {
  const AttentionInput in = random_input(8, 4, 6);
  KVCache cache(4);
  ASSERT_TRUE(cache.append_prefill(in).ok());
  H2OPolicy policy(16, 4);
  EXPECT_FALSE(policy.enforce(cache));
  EXPECT_EQ(cache.size(), 8);
}

TEST(H2O, ScoresAccumulateAcrossSteps) {
  const AttentionInput in = random_input(8, 4, 7);
  KVCache cache(4);
  ASSERT_TRUE(cache.append_prefill(in).ok());
  H2OPolicy policy(6, 2);
  std::vector<float> w(8, 0.125f);
  policy.observe(cache, w);
  policy.observe(cache, w);
  EXPECT_NEAR(policy.accumulated_score(cache, 3), 0.25, 1e-6);
}

TEST(SinkRecent, KeepsExactlySinksAndTail) {
  const AttentionInput in = random_input(32, 4, 8);
  KVCache cache(4);
  ASSERT_TRUE(cache.append_prefill(in).ok());
  SinkRecentPolicy policy(/*sinks=*/4, /*recent=*/8);
  EXPECT_TRUE(policy.enforce(cache));
  EXPECT_EQ(cache.size(), 12);
  EXPECT_GE(cache.slot_of(0), 0);
  EXPECT_GE(cache.slot_of(3), 0);
  EXPECT_EQ(cache.slot_of(10), -1);
  EXPECT_GE(cache.slot_of(31), 0);
}

TEST(ChunkedPrefill, ExactlyMatchesOneShot) {
  const AttentionInput in = random_input(50, 8, 9);
  Matrix one_shot;
  flash_attention(in, one_shot);
  for (Index chunk : {1, 7, 16, 50, 64}) {
    const ChunkedPrefillResult res = chunked_flash_prefill(in, chunk).value();
    EXPECT_LT(max_abs_diff(res.out, one_shot), 3e-5f) << "chunk=" << chunk;
  }
}

TEST(ChunkedPrefill, FillsCache) {
  const AttentionInput in = random_input(20, 4, 10);
  KVCache cache(4);
  ASSERT_TRUE(chunked_flash_prefill(in, 6, &cache).ok());
  ASSERT_EQ(cache.size(), 20);
  EXPECT_FLOAT_EQ(cache.k(13)[1], in.k(13, 1));
}

TEST(ChunkedPrefill, SampleVariantIsNearLossless) {
  const ModelConfig model = chatglm2_6b();
  const AttentionInput in = generate_attention(model, plain_prompt(11, 512), 8, 3);
  Matrix exact;
  full_attention(in, exact);
  const ChunkedPrefillResult res = chunked_sample_prefill(in, 128, SampleAttentionConfig{}).value();
  EXPECT_EQ(res.chunks, 4);
  EXPECT_LT(res.mean_density, 1.0);
  EXPECT_LT(mean_abs_diff(res.out, exact), 0.05f);
}

TEST(ChunkedPrefill, DecodeAfterChunkedPrefillIsExact) {
  const AttentionInput in = random_input(24, 8, 12);
  Matrix exact;
  full_attention(in, exact);
  KVCache cache(8);
  ASSERT_TRUE(chunked_flash_prefill(in, 8, &cache).ok());
  std::vector<float> out(8);
  ASSERT_TRUE(decode_attention(in.q.row(23), cache, out).ok());
  for (Index t = 0; t < 8; ++t) EXPECT_NEAR(out[static_cast<std::size_t>(t)], exact(23, t), 2e-5f);
}

TEST(ModelRunner, ReportsSaneAggregates) {
  const ModelConfig model = chatglm2_6b();
  const ContentSpec content = plain_prompt(13, 256);
  PrefillOptions opts;
  opts.heads_per_layer = 1;
  opts.layer_stride = 7;
  const PrefillReport full = run_prefill(model, content, FullAttention{}, opts).value();
  const PrefillReport sample = run_prefill(model, content, SampleAttention{}, opts).value();
  EXPECT_EQ(full.method, "FullAttention");
  EXPECT_EQ(full.heads_run, sample.heads_run);
  EXPECT_EQ(full.layers.size(), full.per_layer_density.size());
  EXPECT_NEAR(full.mean_density, 1.0, 1e-9);
  EXPECT_LT(sample.mean_density, 0.8);
  EXPECT_GT(sample.mean_overhead, 0.0);
  EXPECT_GT(sample.seconds, 0.0);
}

TEST(ModelRunner, LayerZeroDensityHigherForSample) {
  // Layer 0's weak structure means SampleAttention must keep more there —
  // the per-layer density profile should show it.
  const ModelConfig model = chatglm2_6b();
  const ContentSpec content = plain_prompt(14, 512);
  PrefillOptions opts;
  opts.heads_per_layer = 2;
  opts.layer_stride = 9;  // layers 0, 9, 18, 27
  const PrefillReport report = run_prefill(model, content, SampleAttention{}, opts).value();
  ASSERT_GE(report.per_layer_density.size(), 2u);
  EXPECT_GT(report.per_layer_density.front(), report.per_layer_density.back());
}

}  // namespace
}  // namespace sattn
