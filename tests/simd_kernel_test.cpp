// SIMD micro-kernel parity and dispatch tests (core/simd.h,
// attention/microkernel.h).
//
// The scalar table reproduces the pre-SIMD loops bit-for-bit; the AVX2 table
// accumulates dots in double like the scalar one, so the two backends agree
// to well under the 1e-5 the attention tests rely on. The suite compares
// them in one process via ScopedForceScalar: on hosts without AVX2 (or with
// SATTN_FORCE_SCALAR set) both sides resolve to the scalar table and every
// parity check degenerates to an exact self-comparison, which keeps the
// suite meaningful under sanitizers and on non-x86 builds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <optional>
#include <vector>

#include "attention/block_sparse.h"
#include "attention/flash_attention.h"
#include "attention/full_attention.h"
#include "attention/masks.h"
#include "attention/score_utils.h"
#include "attention/sparse_flash_attention.h"
#include "core/rng.h"
#include "core/simd.h"

namespace sattn {
namespace {

constexpr float kTol = 1e-5f;

// The ISSUE's size sweep: odd, sub-vector, exact multiples of the 8-lane
// vector width, the bench head dim, and a large size with a ragged tail.
const Index kSizes[] = {1, 3, 8, 64, 96, 128, 257};

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

std::vector<float> random_vec(Index n, std::uint64_t seed) {
  std::vector<float> v(static_cast<std::size_t>(n));
  Rng rng(seed);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

void expect_matrices_near(const Matrix& a, const Matrix& b, float tol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index j = 0; j < a.cols(); ++j) {
      ASSERT_NEAR(a(i, j), b(i, j), tol) << "at (" << i << ", " << j << ")";
    }
  }
}

// ---- dispatch plumbing ------------------------------------------------------

TEST(SimdDispatch, ScalarTableIsAlwaysAvailable) {
  const simd::Ops& s = simd::scalar_ops();
  EXPECT_STREQ(s.name, "scalar");
  EXPECT_EQ(s.level, simd::Level::kScalar);
  EXPECT_NE(s.dot, nullptr);
  EXPECT_NE(s.dotn, nullptr);
  EXPECT_NE(s.axpy, nullptr);
  EXPECT_NE(s.axpyn, nullptr);
  EXPECT_NE(s.scale_inplace, nullptr);
  EXPECT_NE(s.exp_accumulate, nullptr);
}

TEST(SimdDispatch, ActiveLevelNameMatchesLevel) {
  EXPECT_STREQ(simd::active_level_name(), simd::level_name(simd::active_level()));
}

TEST(SimdDispatch, ScopedForceScalarSwapsAndRestores) {
  const char* before = simd::active_level_name();
  {
    simd::ScopedForceScalar guard;
    EXPECT_STREQ(simd::active_level_name(), "scalar");
    EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
  }
  EXPECT_STREQ(simd::active_level_name(), before);
}

TEST(SimdDispatch, DispatchedOpsRespectsDetectedLevel) {
  // dispatched_ops() may be scalar even when AVX2 is detected (the
  // SATTN_FORCE_SCALAR override), but it must never exceed detection.
  EXPECT_LE(static_cast<int>(simd::dispatched_ops().level),
            static_cast<int>(simd::detected_level()));
}

// ---- primitive parity: scalar table vs dispatched table ---------------------

TEST(SimdPrimitives, DotMatchesScalarAcrossSizes) {
  const simd::Ops& s = simd::scalar_ops();
  const simd::Ops& v = simd::dispatched_ops();
  for (Index n : kSizes) {
    const auto a = random_vec(n, 100 + static_cast<std::uint64_t>(n));
    const auto b = random_vec(n, 200 + static_cast<std::uint64_t>(n));
    const float want = s.dot(a.data(), b.data(), n);
    const float got = v.dot(a.data(), b.data(), n);
    EXPECT_NEAR(got, want, kTol * std::max(1.0f, std::fabs(want))) << "n=" << n;
  }
}

TEST(SimdPrimitives, DotnMatchesPerRowDots) {
  // dotn on widened rows must equal the same table's dot on the float rows
  // exactly: widening is exact and each row's FMA chain is dot's. This is
  // what keeps Stage-1 scores, and so SampleAttention's masks, unchanged.
  for (const simd::Ops* t : {&simd::scalar_ops(), &simd::dispatched_ops()}) {
    for (Index n : kSizes) {
      std::vector<std::vector<float>> qs;
      std::vector<std::vector<double>> qw;
      const double* qp[simd::kMaxRows];
      for (Index r = 0; r < simd::kMaxRows; ++r) {
        qs.push_back(random_vec(n, 300 + static_cast<std::uint64_t>(10 * n + r)));
        qw.emplace_back(static_cast<std::size_t>(n));
        simd::widen(qs.back().data(), n, qw.back().data());
        qp[r] = qw.back().data();
      }
      const auto k = random_vec(n, 400 + static_cast<std::uint64_t>(n));
      for (Index rows = 1; rows <= simd::kMaxRows; ++rows) {
        float got[simd::kMaxRows];
        t->dotn(qp, rows, k.data(), n, got);
        for (Index r = 0; r < rows; ++r) {
          EXPECT_EQ(got[r], t->dot(qs[static_cast<std::size_t>(r)].data(), k.data(), n))
              << t->name << " n=" << n << " rows=" << rows << " r=" << r;
        }
      }
    }
  }
}

TEST(SimdPrimitives, AxpyMatchesScalarAcrossSizes) {
  const simd::Ops& s = simd::scalar_ops();
  const simd::Ops& v = simd::dispatched_ops();
  for (Index n : kSizes) {
    const auto x = random_vec(n, 500 + static_cast<std::uint64_t>(n));
    auto want = random_vec(n, 600 + static_cast<std::uint64_t>(n));
    auto got = want;
    s.axpy(0.37f, x.data(), want.data(), n);
    v.axpy(0.37f, x.data(), got.data(), n);
    for (Index t = 0; t < n; ++t) {
      EXPECT_NEAR(got[static_cast<std::size_t>(t)], want[static_cast<std::size_t>(t)], kTol)
          << "n=" << n << " t=" << t;
    }
  }
}

// The key-list axpyn against a per-key loop of the same table's axpy: every
// element gets its FMAs in ascending key order either way, so the two are
// EXPECT_EQ on each table. Key counts straddle the kernels' batch of 64,
// w_stride > keys, and kSizes hits the 16- and 8-column slices and the
// scalar tail. Every buffer (each V row, each accumulator row, the weight
// block) is exactly sized, so ASan flags any over-read. The dispatched
// table is also checked against the scalar one to tolerance.
TEST(SimdPrimitives, AxpynMatchesPerKeyAxpy) {
  const simd::Ops& s = simd::scalar_ops();
  const simd::Ops& v = simd::dispatched_ops();
  const Index kKeys[] = {1, 2, 3, 15, 16, 17, 63, 64, 65};
  for (Index n : kSizes) {
    for (Index keys : kKeys) {
      std::vector<std::vector<float>> vrows;
      std::vector<const float*> vp;
      for (Index j = 0; j < keys; ++j) {
        vrows.push_back(random_vec(n, 700 + static_cast<std::uint64_t>(1000 * n + j)));
      }
      for (const auto& row : vrows) vp.push_back(row.data());
      const Index w_stride = keys + 5;
      for (Index rows = 1; rows <= simd::kMaxRows; ++rows) {
        const std::vector<float> w =
            random_vec((rows - 1) * w_stride + keys, 750 + static_cast<std::uint64_t>(keys));
        // [table][0] = per-key axpy loop, [table][1] = key-list axpyn.
        std::vector<std::vector<float>> acc[2][2];
        for (auto& table : acc) {
          for (auto& form : table) {
            for (Index r = 0; r < rows; ++r) {
              form.push_back(random_vec(n, 800 + static_cast<std::uint64_t>(10 * n + r)));
            }
          }
        }
        const simd::Ops* tables[2] = {&s, &v};
        for (int t = 0; t < 2; ++t) {
          float* loop[simd::kMaxRows];
          float* list[simd::kMaxRows];
          for (Index r = 0; r < rows; ++r) {
            loop[r] = acc[t][0][static_cast<std::size_t>(r)].data();
            list[r] = acc[t][1][static_cast<std::size_t>(r)].data();
          }
          for (Index j = 0; j < keys; ++j) {
            for (Index r = 0; r < rows; ++r) {
              tables[t]->axpy(w[static_cast<std::size_t>(r * w_stride + j)],
                              vp[static_cast<std::size_t>(j)], loop[r], n);
            }
          }
          tables[t]->axpyn(w.data(), w_stride, rows, vp.data(), keys, list, n);
        }
        for (Index r = 0; r < rows; ++r) {
          const auto ur = static_cast<std::size_t>(r);
          for (int t = 0; t < 2; ++t) {
            EXPECT_EQ(acc[t][1][ur], acc[t][0][ur])
                << tables[t]->name << " n=" << n << " keys=" << keys << " rows=" << rows
                << " r=" << r;
          }
          for (std::size_t i = 0; i < acc[0][1][ur].size(); ++i) {
            const float want = acc[0][1][ur][i];
            EXPECT_NEAR(acc[1][1][ur][i], want, kTol * std::max(1.0f, std::fabs(want)))
                << "n=" << n << " keys=" << keys << " rows=" << rows << " r=" << r;
          }
        }
      }
    }
  }
}

TEST(SimdPrimitives, ScaleInplaceMatchesScalar) {
  const simd::Ops& s = simd::scalar_ops();
  const simd::Ops& v = simd::dispatched_ops();
  for (Index n : kSizes) {
    auto want = random_vec(n, 900 + static_cast<std::uint64_t>(n));
    auto got = want;
    s.scale_inplace(want.data(), n, 0.8125f);
    v.scale_inplace(got.data(), n, 0.8125f);
    for (Index t = 0; t < n; ++t) {
      EXPECT_NEAR(got[static_cast<std::size_t>(t)], want[static_cast<std::size_t>(t)], kTol);
    }
  }
}

TEST(SimdPrimitives, ExpAccumulateMatchesStdExp) {
  // Scalar vs dispatched exp pass over exactly sized buffers (ASan catches
  // any read past n), inputs in [-90, 0] plus -inf. The scalar table is
  // std::exp itself; the dispatched one must stay within kExpUlpBound ulp
  // of it on normal results and flush the rest to zero (absolute error
  // below FLT_MIN), map -inf to exactly 0, and keep the running normalizer
  // within 1e-6 relative.
  const simd::Ops& s = simd::scalar_ops();
  const simd::Ops& v = simd::dispatched_ops();
  const auto ulp_distance = [](float a, float b) {
    std::int32_t ia = 0, ib = 0;
    std::memcpy(&ia, &a, sizeof ia);
    std::memcpy(&ib, &b, sizeof ib);
    return std::abs(static_cast<std::int64_t>(ia) - static_cast<std::int64_t>(ib));
  };
  std::vector<Index> sizes;
  for (Index n = 0; n <= 67; ++n) sizes.push_back(n);
  sizes.insert(sizes.end(), std::begin(kSizes), std::end(kSizes));
  for (const float m : {0.0f, 1.5f}) {
    for (Index n : sizes) {
      Rng rng(1100 + static_cast<std::uint64_t>(n));
      std::vector<float> x(static_cast<std::size_t>(n));
      for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = i % 7 == 3 ? -std::numeric_limits<float>::infinity()
                          : static_cast<float>(-90.0 * rng.uniform());
      }
      auto want = x;
      auto got = x;
      double l_want = 0.5, l_got = 0.5;
      s.exp_accumulate(want.data(), n, m, &l_want);
      v.exp_accumulate(got.data(), n, m, &l_got);
      for (std::size_t i = 0; i < x.size(); ++i) {
        const float ref = std::exp(x[i] - m);
        EXPECT_EQ(want[i], ref) << "scalar table is std::exp, n=" << n << " i=" << i;
        if (x[i] == -std::numeric_limits<float>::infinity()) {
          EXPECT_EQ(got[i], 0.0f) << "n=" << n << " i=" << i;
        } else if (ref < std::numeric_limits<float>::min()) {
          EXPECT_LT(std::fabs(got[i] - ref), std::numeric_limits<float>::min())
              << "x=" << x[i] << " m=" << m;
        } else {
          EXPECT_LE(ulp_distance(got[i], ref), simd::kExpUlpBound)
              << "x=" << x[i] << " m=" << m << " got=" << got[i] << " want=" << ref;
        }
      }
      EXPECT_NEAR(l_got, l_want, 1e-6 * l_want) << "n=" << n << " m=" << m;
    }
  }
}

// ---- kernel parity: dispatched backend vs forced-scalar backend -------------

template <typename Fn>
Matrix run_forced_scalar(const Fn& fn) {
  simd::ScopedForceScalar guard;
  Matrix out;
  fn(out);
  return out;
}

TEST(SimdKernelParity, FlashAttentionAcrossHeadDims) {
  for (Index d : kSizes) {
    const AttentionInput in = random_input(37, 37, d, 1000 + static_cast<std::uint64_t>(d));
    Matrix simd_out;
    flash_attention(in, simd_out);
    const Matrix scalar_out = run_forced_scalar([&](Matrix& o) { flash_attention(in, o); });
    expect_matrices_near(simd_out, scalar_out, kTol);
  }
}

TEST(SimdKernelParity, FullAttentionAcrossHeadDims) {
  for (Index d : kSizes) {
    const AttentionInput in = random_input(33, 49, d, 2000 + static_cast<std::uint64_t>(d));
    Matrix simd_out;
    full_attention(in, simd_out);
    const Matrix scalar_out = run_forced_scalar([&](Matrix& o) { full_attention(in, o); });
    expect_matrices_near(simd_out, scalar_out, kTol);
  }
}

TEST(SimdKernelParity, FlashAgreesWithFullAtRaggedSizes) {
  // Row counts that leave 1..3-row remainders for the 4-row register block.
  for (Index sq : {1, 2, 3, 5, 6, 7, 30, 31}) {
    const AttentionInput in =
        random_input(sq, sq + 11, 24, 3000 + static_cast<std::uint64_t>(sq));
    Matrix flash_out, full_out;
    flash_attention(in, flash_out);
    full_attention(in, full_out);
    expect_matrices_near(flash_out, full_out, 3e-5f);
  }
}

TEST(SimdKernelParity, FlashTileKAcrossValueBatchesAndColumnTails) {
  // tile_k around and past the micro-kernel's on-stack batch of 64 V rows
  // (200 takes four key-list axpyn calls per tile), and head dims that hit
  // the 16- and 8-column slices and the scalar column tail. sk > sq puts a
  // causal offset in every tile; each backend checks against its own
  // full_attention.
  for (Index d : {1, 8, 15, 16, 17, 128}) {
    const AttentionInput in = random_input(70, 260, d, 3500 + static_cast<std::uint64_t>(d));
    for (Index tile_k : {1, 63, 64, 65, 200}) {
      FlashConfig cfg;
      cfg.tile_k = tile_k;
      for (const bool scalar : {false, true}) {
        std::optional<simd::ScopedForceScalar> guard;
        if (scalar) guard.emplace();
        Matrix flash_out, full_out;
        flash_attention(in, flash_out, cfg);
        full_attention(in, full_out);
        SCOPED_TRACE(testing::Message() << simd::active_level_name() << " d=" << d
                                        << " tile_k=" << tile_k);
        expect_matrices_near(flash_out, full_out, kTol);
      }
    }
  }
}

TEST(SimdKernelParity, SparseFlashWindowPlusStripes) {
  const AttentionInput in = random_input(61, 61, 32, 4000);
  StructuredMask mask(61, 61);
  mask.set_window(7);
  mask.set_stripe_columns({0, 1, 2, 17, 18, 40});
  Matrix simd_out;
  sparse_flash_attention(in, mask, simd_out);
  const Matrix scalar_out =
      run_forced_scalar([&](Matrix& o) { sparse_flash_attention(in, mask, o); });
  expect_matrices_near(simd_out, scalar_out, kTol);
}

TEST(SimdKernelParity, BlockSparseRaggedTiles) {
  const AttentionInput in = random_input(50, 50, 40, 5000);
  StructuredMask mask(50, 50);
  mask.set_window(9);
  mask.set_stripe_columns({0, 13, 14, 15, 33});
  // Block size 16 over 50 rows leaves a ragged 2-row tile at the bottom.
  const BlockSparseLayout layout = BlockSparseLayout::from_mask(mask, 16);
  Matrix simd_out;
  block_sparse_attention(in, layout, simd_out);
  const Matrix scalar_out =
      run_forced_scalar([&](Matrix& o) { block_sparse_attention(in, layout, o); });
  expect_matrices_near(simd_out, scalar_out, kTol);
}

TEST(SimdKernelParity, ScoreRowsMatchScalarInCallerOrder) {
  const AttentionInput in = random_input(29, 41, 16, 6000);
  const std::vector<Index> rows = {28, 0, 7, 7, 13, 1, 20};  // unsorted, duplicate
  auto collect = [&]() {
    std::vector<std::vector<float>> got;
    std::vector<Index> order;
    for_each_score_row(in, rows, [&](Index i, std::span<const float> p) {
      order.push_back(i);
      got.emplace_back(p.begin(), p.end());
    });
    EXPECT_EQ(order, rows);  // visit order is the caller's row order
    return got;
  };
  const auto simd_rows = collect();
  std::vector<std::vector<float>> scalar_rows;
  {
    simd::ScopedForceScalar guard;
    scalar_rows = collect();
  }
  ASSERT_EQ(simd_rows.size(), scalar_rows.size());
  for (std::size_t r = 0; r < simd_rows.size(); ++r) {
    ASSERT_EQ(simd_rows[r].size(), scalar_rows[r].size());
    for (std::size_t j = 0; j < simd_rows[r].size(); ++j) {
      ASSERT_NEAR(simd_rows[r][j], scalar_rows[r][j], kTol) << "row " << r << " col " << j;
    }
  }
}

// ---- masked-region robustness ----------------------------------------------

TEST(SimdKernelParity, NaNPoisonedMaskedKVNeverRead) {
  // Stripe-only mask: keys outside the stripes are dead columns the kernel
  // must never touch. Poison them with NaN and require finite outputs that
  // still match the forced-scalar run.
  const Index s = 45, d = 32;
  AttentionInput in = random_input(s, s, d, 7000);
  StructuredMask mask(s, s);
  mask.set_stripe_columns({3, 4, 5, 21, 22});
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (Index j = 0; j < s; ++j) {
    if (j == 3 || j == 4 || j == 5 || j == 21 || j == 22) continue;
    for (Index t = 0; t < d; ++t) {
      in.k(j, t) = nan;
      in.v(j, t) = nan;
    }
  }
  Matrix simd_out;
  sparse_flash_attention(in, mask, simd_out);
  const Matrix scalar_out =
      run_forced_scalar([&](Matrix& o) { sparse_flash_attention(in, mask, o); });
  for (Index i = 0; i < s; ++i) {
    for (Index t = 0; t < d; ++t) {
      ASSERT_TRUE(std::isfinite(simd_out(i, t))) << "NaN leaked at (" << i << ", " << t << ")";
    }
  }
  expect_matrices_near(simd_out, scalar_out, kTol);
}

TEST(SimdKernelParity, FullyMaskedRowsProduceZeroNotNaN) {
  // Rows below the first stripe column have every logit masked to -inf; the
  // online softmax must finalize them to exact zeros in both backends.
  const Index s = 20, d = 16;
  const AttentionInput in = random_input(s, s, d, 8000);
  StructuredMask mask(s, s);
  mask.set_stripe_columns({10});
  Matrix simd_out;
  sparse_flash_attention(in, mask, simd_out);
  const Matrix scalar_out =
      run_forced_scalar([&](Matrix& o) { sparse_flash_attention(in, mask, o); });
  for (Index i = 0; i < 10; ++i) {
    for (Index t = 0; t < d; ++t) {
      ASSERT_EQ(simd_out(i, t), 0.0f) << "row " << i;
      ASSERT_EQ(scalar_out(i, t), 0.0f) << "row " << i;
    }
  }
  expect_matrices_near(simd_out, scalar_out, kTol);
}

TEST(SimdKernelParity, NegativeCausalLimitRowsAreZero) {
  // sq > sk: leading queries have causal limit < 0 (no visible keys) and
  // must come back as zero rows from both the tiled and dense kernels.
  const AttentionInput in = random_input(6, 2, 8, 9000);
  Matrix flash_out, full_out;
  flash_attention(in, flash_out);
  full_attention(in, full_out);
  for (Index i = 0; i < 4; ++i) {
    for (Index t = 0; t < 8; ++t) {
      ASSERT_EQ(flash_out(i, t), 0.0f);
      ASSERT_EQ(full_out(i, t), 0.0f);
    }
  }
  expect_matrices_near(flash_out, full_out, kTol);
}

// ---- long-row accumulation drift (satellite: unified double normalizer) -----

TEST(SimdNumerics, LongRowAccumulationDriftAtS16K) {
  // S = 16384 keys funneled through the online-softmax chain (float max,
  // double normalizer, float accumulator). Compare against an all-double
  // two-pass softmax·V reference; drift must stay well under the 1e-5-scale
  // tolerances the rest of the suite runs at. This pins the double-l
  // contract of OnlineSoftmaxRow: with a float normalizer the error at this
  // length is an order of magnitude larger.
  const Index sq = 4, sk = 16384, d = 8;
  const AttentionInput in = random_input(sq, sk, d, 123);
  Matrix out;
  flash_attention(in, out);

  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  for (Index i = 0; i < sq; ++i) {
    const Index lim = causal_limit(i, sq, sk);
    double max_logit = -std::numeric_limits<double>::infinity();
    std::vector<double> logits(static_cast<std::size_t>(lim + 1));
    for (Index j = 0; j <= lim; ++j) {
      double s = 0.0;
      for (Index t = 0; t < d; ++t) {
        s += static_cast<double>(in.q(i, t)) * static_cast<double>(in.k(j, t));
      }
      s *= static_cast<double>(scale);
      logits[static_cast<std::size_t>(j)] = s;
      max_logit = std::max(max_logit, s);
    }
    double denom = 0.0;
    std::vector<double> ref(static_cast<std::size_t>(d), 0.0);
    for (Index j = 0; j <= lim; ++j) {
      const double w = std::exp(logits[static_cast<std::size_t>(j)] - max_logit);
      denom += w;
      for (Index t = 0; t < d; ++t) ref[static_cast<std::size_t>(t)] += w * in.v(j, t);
    }
    for (Index t = 0; t < d; ++t) {
      const double want = ref[static_cast<std::size_t>(t)] / denom;
      EXPECT_NEAR(static_cast<double>(out(i, t)), want, 1e-4) << "row " << i << " dim " << t;
    }
  }
}

}  // namespace
}  // namespace sattn
