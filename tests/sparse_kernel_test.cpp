// Tests for the sparse flash kernel: it must equal a masked reference
// softmax exactly (softmax over the kept keys), reduce to the dense kernel
// under a full mask, and handle window/stripe/block overlap without double
// counting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "attention/full_attention.h"
#include "attention/sparse_flash_attention.h"
#include "core/numerics.h"
#include "core/rng.h"
#include "obs/accounting.h"
#include "obs/trace.h"

namespace sattn {
namespace {

AttentionInput random_input(Index s, Index sk, Index d, std::uint64_t seed) {
  AttentionInput in;
  in.q.resize(s, d);
  in.k.resize(sk, d);
  in.v.resize(sk, d);
  Rng rng(seed);
  rng.fill_normal(in.q);
  rng.fill_normal(in.k);
  rng.fill_normal(in.v);
  return in;
}

AttentionInput random_input(Index s, Index d, std::uint64_t seed) {
  return random_input(s, s, d, seed);
}

// Reference masked attention: softmax over exactly the masked-in keys.
Matrix masked_reference(const AttentionInput& in, const StructuredMask& mask) {
  const Index sq = in.sq(), sk = in.sk(), d = in.head_dim();
  Matrix out(sq, d);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  for (Index i = 0; i < sq; ++i) {
    std::vector<float> logits;
    std::vector<Index> cols;
    for (Index j = 0; j < sk; ++j) {
      if (mask.contains(i, j)) {
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

TEST(SparseFlash, FullWindowEqualsDense) {
  AttentionInput in = random_input(48, 16, 1);
  StructuredMask mask(48, 48);
  mask.set_window(48);
  Matrix sparse, dense;
  sparse_flash_attention(in, mask, sparse);
  full_attention(in, dense);
  EXPECT_LT(max_abs_diff(sparse, dense), 2e-5f);
}

TEST(SparseFlash, MatchesMaskedReferenceWindowOnly) {
  AttentionInput in = random_input(40, 8, 2);
  StructuredMask mask(40, 40);
  mask.set_window(5);
  Matrix out;
  sparse_flash_attention(in, mask, out);
  EXPECT_LT(max_abs_diff(out, masked_reference(in, mask)), 2e-5f);
}

TEST(SparseFlash, MatchesMaskedReferenceWindowPlusStripes) {
  AttentionInput in = random_input(40, 8, 3);
  StructuredMask mask(40, 40);
  mask.set_window(4);
  mask.set_stripe_columns({0, 1, 7, 8, 9, 20, 33});
  Matrix out;
  sparse_flash_attention(in, mask, out);
  EXPECT_LT(max_abs_diff(out, masked_reference(in, mask)), 2e-5f);
}

TEST(SparseFlash, StripesOverlappingWindowNotDoubleCounted) {
  AttentionInput in = random_input(24, 8, 4);
  StructuredMask mask(24, 24);
  mask.set_window(6);
  // Stripes deliberately inside many rows' windows.
  mask.set_stripe_columns({10, 11, 12, 13, 14, 15, 16, 17, 18});
  Matrix out;
  sparse_flash_attention(in, mask, out);
  EXPECT_LT(max_abs_diff(out, masked_reference(in, mask)), 2e-5f);
}

TEST(SparseFlash, BlocksMatchReference) {
  AttentionInput in = random_input(32, 8, 5);
  StructuredMask mask(32, 32);
  mask.set_window(3);
  mask.set_stripe_columns({0, 16});
  mask.add_block({8, 16, 4, 12});
  mask.add_block({20, 28, 14, 20});
  Matrix out;
  sparse_flash_attention(in, mask, out);
  EXPECT_LT(max_abs_diff(out, masked_reference(in, mask)), 2e-5f);
}

TEST(SparseFlash, BlockOverlappingStripeAndWindowNotDoubleCounted) {
  AttentionInput in = random_input(24, 8, 6);
  StructuredMask mask(24, 24);
  mask.set_window(4);
  mask.set_stripe_columns({5, 6});
  mask.add_block({10, 20, 3, 9});  // overlaps stripes 5,6 and nothing else
  Matrix out;
  sparse_flash_attention(in, mask, out);
  EXPECT_LT(max_abs_diff(out, masked_reference(in, mask)), 2e-5f);
}

TEST(SparseFlash, CrossLengthOffset) {
  AttentionInput in;
  in.q.resize(8, 8);
  in.k.resize(20, 8);
  in.v.resize(20, 8);
  Rng rng(7);
  rng.fill_normal(in.q);
  rng.fill_normal(in.k);
  rng.fill_normal(in.v);
  StructuredMask mask(8, 20);
  mask.set_window(4);
  mask.set_stripe_columns({0, 3});
  Matrix out;
  sparse_flash_attention(in, mask, out);
  EXPECT_LT(max_abs_diff(out, masked_reference(in, mask)), 2e-5f);
}

TEST(SparseFlash, RowsBeforeTheCausalStartAreZero) {
  // sq > sk: the first sq - sk query rows have no causal key at all.
  AttentionInput in = random_input(70, 40, 8, 9);
  StructuredMask mask(70, 40);
  mask.set_window(5);
  mask.set_stripe_columns({0, 1, 17});
  Matrix out;
  sparse_flash_attention(in, mask, out);
  for (Index i = 0; i < 30; ++i) {
    for (float v : out.row(i)) EXPECT_EQ(v, 0.0f) << "row " << i;
  }
  EXPECT_LT(max_abs_diff(out, masked_reference(in, mask)), 2e-5f);
}

TEST(SparseFlash, WorkMatchesDensityTimesCausalPairs) {
  StructuredMask mask(64, 64);
  mask.set_window(8);
  mask.set_stripe_columns({0, 1, 30});
  EXPECT_NEAR(sparse_flash_work(mask), mask.density() * causal_pairs(64, 64), 1e-6);
}

TEST(MaskedAttention, AdapterReportsDensity) {
  AttentionInput in = random_input(32, 8, 8);
  MaskedAttention method("window", [](const AttentionInput& input) {
    return make_window_mask(input.sq(), input.sk(), 0.25);
  });
  const AttentionResult res = method.run(in);
  EXPECT_EQ(method.name(), "window");
  EXPECT_GT(res.density, 0.0);
  EXPECT_LT(res.density, 1.0);
  EXPECT_EQ(res.out.rows(), 32);
}

// Property sweep: kernel == masked reference on random masks. Seeds 12+
// take sizes that cross the 64-row query tile and leave a 1-3-row remainder
// in the last row group; every third seed is cross-length (sq < sk); masks
// mix window, stripes, diagonal bands and blocks. The accounted FLOPs must
// equal 4*d times the causal cells of to_dense(), which pins the kernel's
// evals tally to the mask itself rather than to density().
class SparseKernelProperty : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    obs::ResourceAccountant::global().reset();
    ASSERT_TRUE(obs::set_enabled(true)) << "SATTN_TRACE=0 in the test environment";
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::ResourceAccountant::global().reset();
  }
};

TEST_P(SparseKernelProperty, AgreesWithMaskedReference) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);
  const Index s = seed < 12 ? 16 + static_cast<Index>(rng.uniform_index(48))
                            : 64 * (1 + seed % 3) + 1 + (seed / 3) % 3;
  const Index sk = seed % 3 == 2 ? s + 1 + static_cast<Index>(rng.uniform_index(40)) : s;
  const Index d = 8;
  AttentionInput in = random_input(s, sk, d, static_cast<std::uint64_t>(seed) + 1000);
  StructuredMask mask(s, sk);
  // Every fifth seed has no window, so causal limits cut intervals that no
  // band edge does.
  const Index window = 1 + rng.uniform_index(s / 2);
  mask.set_window(seed % 5 == 4 ? 0 : window);
  std::vector<Index> cols;
  const Index n_cols = rng.uniform_index(sk / 2);
  for (Index c = 0; c < n_cols; ++c) cols.push_back(rng.uniform_index(sk));
  mask.set_stripe_columns(cols);
  if (seed % 2 == 0) {
    const Index q0 = rng.uniform_index(s / 2);
    const Index k0 = rng.uniform_index(sk / 2);
    mask.add_block({q0, q0 + 4, k0, k0 + 6});
  }
  if (seed % 4 != 3) {
    mask.add_diagonal_band({2 + static_cast<Index>(rng.uniform_index(s / 2)),
                            1 + static_cast<Index>(rng.uniform_index(8))});
  }
  Matrix out;
  sparse_flash_attention(in, mask, out);
  EXPECT_LT(max_abs_diff(out, masked_reference(in, mask)), 3e-5f) << "seed=" << seed;

  const Matrix dense = mask.to_dense();
  double cells = 0.0;
  for (float v : dense.flat()) cells += v;
  EXPECT_EQ(obs::ResourceAccountant::global().kernel_total("sparse_flash").flops,
            4.0 * static_cast<double>(d) * cells)
      << "seed=" << seed;
}

// Fragmented stripes, the shape of the heaviest traced heads (thousands of
// 1-3-column stripe runs with 1-2-column gaps): each chunk's shared stripe
// runs go into one multi-run absorb. Sizes cross the 64-row and 64-key
// tiles, every third seed is cross-length (sq < sk), and half the seeds add
// a window and a diagonal band so the runs end at a band floor. The output
// must match an all-double softmax over to_dense()'s cells, and the
// accounted FLOPs must equal 4*d times those cells.
TEST_P(SparseKernelProperty, FragmentedStripesMatchDenseReference) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 104729 + 7);
  const Index s = 63 + 31 * (seed % 6) + static_cast<Index>(rng.uniform_index(5));
  const Index sk = seed % 3 == 2 ? s + 1 + static_cast<Index>(rng.uniform_index(70)) : s;
  const Index d = 8;
  AttentionInput in = random_input(s, sk, d, static_cast<std::uint64_t>(seed) + 5000);
  StructuredMask mask(s, sk);
  std::vector<Index> cols;
  for (Index j = static_cast<Index>(rng.uniform_index(3)); j < sk;) {
    const Index width = 1 + static_cast<Index>(rng.uniform_index(3));
    for (Index t = j; t < std::min(sk, j + width); ++t) cols.push_back(t);
    j += width + 1 + static_cast<Index>(rng.uniform_index(2));
  }
  mask.set_stripe_columns(cols);
  if (seed % 2 == 1) {
    mask.set_window(1 + static_cast<Index>(rng.uniform_index(12)));
    mask.add_diagonal_band({20 + static_cast<Index>(rng.uniform_index(s / 2)),
                            1 + static_cast<Index>(rng.uniform_index(4))});
  }
  Matrix out;
  sparse_flash_attention(in, mask, out);

  const Matrix dense = mask.to_dense();
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  double cells = 0.0;
  for (Index i = 0; i < s; ++i) {
    std::vector<double> logits;
    std::vector<Index> keys;
    for (Index j = 0; j < sk; ++j) {
      if (dense(i, j) == 0.0f) continue;
      double dot = 0.0;
      for (Index t = 0; t < d; ++t) {
        dot += static_cast<double>(in.q(i, t)) * static_cast<double>(in.k(j, t));
      }
      logits.push_back(scale * dot);
      keys.push_back(j);
    }
    cells += static_cast<double>(keys.size());
    double mx = -std::numeric_limits<double>::infinity();
    for (double x : logits) mx = std::max(mx, x);
    double denom = 0.0;
    std::vector<double> ref(static_cast<std::size_t>(d), 0.0);
    for (std::size_t c = 0; c < keys.size(); ++c) {
      const double w = std::exp(logits[c] - mx);
      denom += w;
      for (Index t = 0; t < d; ++t) ref[static_cast<std::size_t>(t)] += w * in.v(keys[c], t);
    }
    for (Index t = 0; t < d; ++t) {
      const double want = keys.empty() ? 0.0 : ref[static_cast<std::size_t>(t)] / denom;
      ASSERT_NEAR(out(i, t), want, 1e-5) << "seed=" << seed << " row " << i << " dim " << t;
    }
  }
  EXPECT_EQ(obs::ResourceAccountant::global().kernel_total("sparse_flash").flops,
            4.0 * static_cast<double>(d) * cells)
      << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseKernelProperty, ::testing::Range(0, 36));

}  // namespace
}  // namespace sattn
