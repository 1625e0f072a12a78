// Tests for the exact attention kernels: reference full attention and the
// FlashAttention2-style tiled kernel must agree to float tolerance, respect
// causality, and reproduce hand-computable cases.
#include <gtest/gtest.h>

#include <cmath>

#include "attention/flash_attention.h"
#include "attention/full_attention.h"
#include "core/numerics.h"
#include "core/rng.h"

namespace sattn {
namespace {

AttentionInput random_input(Index sq, Index sk, Index d, std::uint64_t seed) {
  AttentionInput in;
  in.q.resize(sq, d);
  in.k.resize(sk, d);
  in.v.resize(sk, d);
  Rng rng(seed);
  rng.fill_normal(in.q);
  rng.fill_normal(in.k);
  rng.fill_normal(in.v);
  return in;
}

TEST(FullAttention, SingleTokenIsIdentityOnV) {
  AttentionInput in = random_input(1, 1, 8, 1);
  Matrix out;
  full_attention(in, out);
  for (Index t = 0; t < 8; ++t) EXPECT_FLOAT_EQ(out(0, t), in.v(0, t));
}

TEST(FullAttention, UniformKeysAverageValues) {
  // All keys identical => uniform causal attention => row i averages
  // V[0..i].
  AttentionInput in;
  in.q.resize(3, 4, 1.0f);
  in.k.resize(3, 4, 1.0f);
  in.v.resize(3, 4);
  for (Index j = 0; j < 3; ++j)
    for (Index t = 0; t < 4; ++t) in.v(j, t) = static_cast<float>(j);
  Matrix out;
  full_attention(in, out);
  EXPECT_NEAR(out(0, 0), 0.0f, 1e-6f);
  EXPECT_NEAR(out(1, 0), 0.5f, 1e-6f);
  EXPECT_NEAR(out(2, 0), 1.0f, 1e-6f);
}

TEST(FullAttention, RespectsCausality) {
  // Make key 2 overwhelmingly attractive; rows 0 and 1 must not see it.
  AttentionInput in = random_input(3, 3, 4, 2);
  for (Index t = 0; t < 4; ++t) {
    in.k(2, t) = 100.0f * in.q(0, t);
    in.v(2, t) = 1e6f;
  }
  Matrix out;
  full_attention(in, out);
  EXPECT_LT(std::fabs(out(0, 0)), 100.0f);
  EXPECT_LT(std::fabs(out(1, 0)), 100.0f);
}

TEST(FullAttention, ScoresAreRowStochasticAndCausal) {
  AttentionInput in = random_input(5, 5, 8, 3);
  Matrix p = full_attention_scores(in);
  for (Index i = 0; i < 5; ++i) {
    double s = 0.0;
    for (Index j = 0; j < 5; ++j) {
      if (j > i) {
        EXPECT_FLOAT_EQ(p(i, j), 0.0f);
      }
      EXPECT_GE(p(i, j), 0.0f);
      s += p(i, j);
    }
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(FullAttention, CrossAttentionOffsetCausality) {
  // Sq < Sk: query i sees keys up to i + (Sk - Sq).
  AttentionInput in = random_input(2, 5, 4, 4);
  Matrix p = full_attention_scores(in);
  EXPECT_GT(p(0, 3), 0.0f);
  EXPECT_FLOAT_EQ(p(0, 4), 0.0f);
  double s = 0.0;
  for (Index j = 0; j < 5; ++j) s += p(1, j);
  EXPECT_NEAR(s, 1.0, 1e-5);
}

TEST(LogitsRow, MatchesManualDotProducts) {
  AttentionInput in = random_input(3, 3, 4, 5);
  std::vector<float> row(3);
  logits_row(in, 1, row);
  const float scale = 0.5f;  // 1/sqrt(4)
  EXPECT_NEAR(row[0], scale * dot(in.q.row(1), in.k.row(0)), 1e-5f);
  EXPECT_NEAR(row[1], scale * dot(in.q.row(1), in.k.row(1)), 1e-5f);
  EXPECT_TRUE(std::isinf(row[2]));
}

TEST(FlashAttention, MatchesReferenceSmall) {
  AttentionInput in = random_input(33, 33, 16, 6);
  Matrix ref, fl;
  full_attention(in, ref);
  flash_attention(in, fl);
  EXPECT_LT(max_abs_diff(ref, fl), 2e-5f);
}

TEST(FlashAttention, MatchesReferenceCrossLength) {
  AttentionInput in = random_input(20, 57, 8, 7);
  Matrix ref, fl;
  full_attention(in, ref);
  flash_attention(in, fl);
  EXPECT_LT(max_abs_diff(ref, fl), 2e-5f);
}

TEST(FlashAttention, MethodReportsFullDensity) {
  AttentionInput in = random_input(16, 16, 8, 8);
  FlashAttention method;
  const AttentionResult res = method.run(in);
  EXPECT_DOUBLE_EQ(res.density, 1.0);
  EXPECT_EQ(res.out.rows(), 16);
}

TEST(OnlineSoftmaxRow, MatchesDirectSoftmaxCombination) {
  // Absorb three (logit, value) pairs in an order that forces rescaling.
  std::vector<float> v1 = {1.0f, 0.0f}, v2 = {0.0f, 1.0f}, v3 = {1.0f, 1.0f};
  OnlineSoftmaxRow st(2);
  st.absorb(0.0f, v1);
  st.absorb(5.0f, v2);   // big jump: rescale path
  st.absorb(-2.0f, v3);
  std::vector<float> out(2);
  st.finalize(out);

  std::vector<float> logits = {0.0f, 5.0f, -2.0f};
  softmax_inplace(logits);
  EXPECT_NEAR(out[0], logits[0] * 1.0f + logits[2] * 1.0f, 1e-6f);
  EXPECT_NEAR(out[1], logits[1] * 1.0f + logits[2] * 1.0f, 1e-6f);
}

TEST(OnlineSoftmaxRow, EmptyFinalizesToZero) {
  OnlineSoftmaxRow st(3);
  std::vector<float> out(3, 9.0f);
  st.finalize(out);
  for (float x : out) EXPECT_FLOAT_EQ(x, 0.0f);
}

// Parameterized agreement sweep over (S, d, tile sizes).
struct FlashCase {
  Index s;
  Index d;
  Index tile_q;
  Index tile_k;
};

class FlashAgreement : public ::testing::TestWithParam<FlashCase> {};

TEST_P(FlashAgreement, MatchesReference) {
  const FlashCase c = GetParam();
  AttentionInput in = random_input(c.s, c.s, c.d, 100 + static_cast<std::uint64_t>(c.s));
  Matrix ref, fl;
  full_attention(in, ref);
  flash_attention(in, fl, {c.tile_q, c.tile_k});
  EXPECT_LT(max_abs_diff(ref, fl), 3e-5f) << "S=" << c.s << " d=" << c.d;
}

INSTANTIATE_TEST_SUITE_P(Shapes, FlashAgreement,
                         ::testing::Values(FlashCase{1, 4, 64, 64}, FlashCase{7, 4, 2, 3},
                                           FlashCase{64, 8, 16, 16}, FlashCase{65, 8, 64, 64},
                                           FlashCase{128, 32, 32, 128}, FlashCase{200, 16, 64, 7},
                                           FlashCase{256, 64, 128, 64}));

}  // namespace
}  // namespace sattn
