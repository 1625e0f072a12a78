// Tests for the block-granular sparse kernel and layout.
#include <gtest/gtest.h>

#include <cmath>

#include "attention/block_sparse.h"
#include "attention/flash_attention.h"
#include "attention/full_attention.h"
#include "attention/sparse_flash_attention.h"
#include "core/numerics.h"
#include "core/rng.h"
#include "metrics/recovery.h"
#include "model/workload.h"
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

// Reference: softmax over exactly the block-rounded cell set.
Matrix block_reference(const AttentionInput& in, const BlockSparseLayout& layout) {
  const Index sq = in.sq(), sk = in.sk(), d = in.head_dim();
  Matrix out(sq, d);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  for (Index i = 0; i < sq; ++i) {
    const Index lim = causal_limit(i, sq, sk);
    std::vector<float> logits;
    std::vector<Index> cols;
    for (Index kb : layout.active_kblocks(i / layout.block())) {
      const Index k_lo = kb * layout.block();
      const Index k_hi = std::min(sk, k_lo + layout.block());
      for (Index j = k_lo; j < std::min(k_hi, lim + 1); ++j) {
        cols.push_back(j);
        logits.push_back(scale * dot(in.q.row(i), in.k.row(j)));
      }
    }
    if (cols.empty()) continue;
    softmax_inplace(logits);
    auto oi = out.row(i);
    for (std::size_t t = 0; t < cols.size(); ++t) axpy(logits[t], in.v.row(cols[t]), oi);
  }
  return out;
}

StructuredMask sample_like_mask(Index s) {
  StructuredMask m(s, s);
  m.set_window(s / 12);
  std::vector<Index> cols = {0, 1, 2, 3};
  for (Index c = 7; c < s; c += 29) cols.push_back(c);
  m.set_stripe_columns(cols);
  return m;
}

TEST(BlockLayout, FullMaskActivatesLowerTriangle) {
  StructuredMask m(64, 64);
  m.set_window(64);
  const BlockSparseLayout layout = BlockSparseLayout::from_mask(m, 16);
  EXPECT_EQ(layout.n_qblocks(), 4);
  for (Index qb = 0; qb < 4; ++qb) {
    EXPECT_EQ(static_cast<Index>(layout.active_kblocks(qb).size()), qb + 1);
  }
  EXPECT_NEAR(layout.density(), 1.0, 1e-12);
}

TEST(BlockLayout, DensityIsSupersetOfMask) {
  const StructuredMask m = sample_like_mask(192);
  const BlockSparseLayout layout = BlockSparseLayout::from_mask(m, 32);
  EXPECT_GE(layout.density(), m.density() - 1e-12);
  EXPECT_GE(layout.rounding_overhead(m), 0.0);
  EXPECT_LE(layout.density(), 1.0);
}

TEST(BlockLayout, SmallerBlocksRoundLess) {
  const StructuredMask m = sample_like_mask(256);
  const double d8 = BlockSparseLayout::from_mask(m, 8).density();
  const double d64 = BlockSparseLayout::from_mask(m, 64).density();
  EXPECT_LE(d8, d64 + 1e-12);
}

TEST(BlockLayout, EveryMaskedCellIsCovered) {
  const StructuredMask m = sample_like_mask(96);
  const BlockSparseLayout layout = BlockSparseLayout::from_mask(m, 16);
  for (Index i = 0; i < 96; ++i) {
    for (Index j = 0; j <= i; ++j) {
      if (!m.contains(i, j)) continue;
      const auto& act = layout.active_kblocks(i / 16);
      EXPECT_TRUE(std::binary_search(act.begin(), act.end(), j / 16))
          << "cell (" << i << "," << j << ") not covered";
    }
  }
}

TEST(BlockKernel, MatchesBlockReference) {
  const AttentionInput in = random_input(96, 8, 1);
  const StructuredMask m = sample_like_mask(96);
  const BlockSparseLayout layout = BlockSparseLayout::from_mask(m, 16);
  Matrix out;
  block_sparse_attention(in, layout, out);
  EXPECT_LT(max_abs_diff(out, block_reference(in, layout)), 3e-5f);
}

TEST(BlockKernel, FullLayoutEqualsDense) {
  const AttentionInput in = random_input(80, 8, 2);
  StructuredMask m(80, 80);
  m.set_window(80);
  const BlockSparseLayout layout = BlockSparseLayout::from_mask(m, 32);
  Matrix blocked, dense;
  block_sparse_attention(in, layout, blocked);
  flash_attention(in, dense);
  EXPECT_LT(max_abs_diff(blocked, dense), 3e-5f);
}

TEST(BlockKernel, CloseToRowRunKernelOnSamplePlans) {
  // Block rounding keeps a superset: the blocked output should be at least
  // as close to full attention as the cell-exact sparse_flash output, and
  // both near-lossless.
  const ModelConfig model = chatglm2_6b();
  const AttentionInput in = generate_attention(model, plain_prompt(3, 512), 8, 3);
  const SamplePlan plan = plan_sample_attention(in, SampleAttentionConfig{});

  Matrix exact, row_run, blocked;
  full_attention(in, exact);
  sparse_flash_attention(in, plan.mask, row_run);
  const BlockSparseLayout layout = BlockSparseLayout::from_mask(plan.mask, 64);
  block_sparse_attention(in, layout, blocked);

  const double err_rows = recovery_stats(row_run, exact).rel_l1;
  const double err_blocks = recovery_stats(blocked, exact).rel_l1;
  EXPECT_LE(err_blocks, err_rows + 1e-6);
  EXPECT_LT(err_blocks, 0.1);
}

TEST(BlockKernel, NonDivisibleSizes) {
  const AttentionInput in = random_input(75, 8, 4);  // 75 % 16 != 0
  const StructuredMask m = sample_like_mask(75);
  const BlockSparseLayout layout = BlockSparseLayout::from_mask(m, 16);
  Matrix out;
  block_sparse_attention(in, layout, out);
  EXPECT_LT(max_abs_diff(out, block_reference(in, layout)), 3e-5f);
}

TEST(BlockKernel, BlockOneEqualsRowRunKernel) {
  // Differential invariant: block size 1 rounds nothing, so the block
  // kernel must agree with the cell-exact sparse_flash kernel to float
  // tolerance on any structured mask.
  const ModelConfig model = chatglm2_6b();
  const AttentionInput in = generate_attention(model, plain_prompt(9, 320), 8, 3);
  const SamplePlan plan = plan_sample_attention(in, SampleAttentionConfig{});
  Matrix rows, blocks;
  sparse_flash_attention(in, plan.mask, rows);
  const BlockSparseLayout layout = BlockSparseLayout::from_mask(plan.mask, 1);
  block_sparse_attention(in, layout, blocks);
  EXPECT_LT(max_abs_diff(rows, blocks), 3e-5f);
  EXPECT_NEAR(layout.rounding_overhead(plan.mask), 0.0, 1e-12);
}

class BlockSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(BlockSizeSweep, KernelAgreesAtAllBlockSizes) {
  const Index block = GetParam();
  const AttentionInput in = random_input(128, 8, 100 + static_cast<std::uint64_t>(block));
  const StructuredMask m = sample_like_mask(128);
  const BlockSparseLayout layout = BlockSparseLayout::from_mask(m, block);
  Matrix out;
  block_sparse_attention(in, layout, out);
  EXPECT_LT(max_abs_diff(out, block_reference(in, layout)), 3e-5f) << "block=" << block;
}

INSTANTIATE_TEST_SUITE_P(Blocks, BlockSizeSweep, ::testing::Values(1, 8, 16, 33, 64, 128, 256));

}  // namespace
}  // namespace sattn
