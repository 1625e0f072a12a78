// AVX2/FMA backend for the SIMD primitive table (core/simd.h).
//
// This translation unit is the only one compiled with -mavx2 -mfma (see
// src/CMakeLists.txt), and its functions are only reachable through
// dispatched_ops() after a CPUID check, so the binary stays runnable on
// SSE-only hosts.
//
// Numerics: dots convert the float lanes to double and accumulate with
// 4-wide double FMAs (two independent accumulator chains per row), honoring
// the double-accumulation contract of the scalar backend — the summation
// *order* differs, so results agree to ~1e-13 relative rather than
// bit-for-bit. dotn takes query rows the caller already widened to double,
// so only the shared key lanes are converted inside the loop, and each
// row's FMA chain is exactly dot's. axpy/axpyn/scale stay in float, like
// the scalar loops. exp_accumulate uses a polynomial exp (see exp_ps).
// Remainder elements (n % 8) are handled by scalar tails or a padded local
// copy; no vector load ever touches memory past `n` elements, which keeps
// ASan clean on exactly sized buffers.
#include "core/simd.h"

#if defined(SATTN_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <limits>

namespace sattn::simd {
namespace {

inline double hsum_pd(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  const __m128d swap = _mm_unpackhi_pd(lo, lo);
  return _mm_cvtsd_f64(_mm_add_sd(lo, swap));
}

float dot_avx2(const float* a, const float* b, Index n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 av = _mm256_loadu_ps(a + i);
    const __m256 bv = _mm256_loadu_ps(b + i);
    acc0 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(av)),
                           _mm256_cvtps_pd(_mm256_castps256_ps128(bv)), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(av, 1)),
                           _mm256_cvtps_pd(_mm256_extractf128_ps(bv, 1)), acc1);
  }
  double acc = hsum_pd(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) acc += static_cast<double>(a[i]) * b[i];
  return static_cast<float>(acc);
}

// R pre-widened query rows against one shared key stream: the key lanes
// are loaded and widened once per 8 elements (two 4-lane halves, no
// cross-lane extract), then FMA'd into each row's accumulators.
template <int R>
void dotr_avx2(const double* const* q, const float* k, Index n, float* out) {
  __m256d acc0[R];
  __m256d acc1[R];
  for (int r = 0; r < R; ++r) {
    acc0[r] = _mm256_setzero_pd();
    acc1[r] = _mm256_setzero_pd();
  }
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d klo = _mm256_cvtps_pd(_mm_loadu_ps(k + i));
    const __m256d khi = _mm256_cvtps_pd(_mm_loadu_ps(k + i + 4));
    for (int r = 0; r < R; ++r) {
      acc0[r] = _mm256_fmadd_pd(_mm256_loadu_pd(q[r] + i), klo, acc0[r]);
      acc1[r] = _mm256_fmadd_pd(_mm256_loadu_pd(q[r] + i + 4), khi, acc1[r]);
    }
  }
  for (int r = 0; r < R; ++r) {
    double acc = hsum_pd(_mm256_add_pd(acc0[r], acc1[r]));
    for (Index t = i; t < n; ++t) acc += q[r][t] * static_cast<double>(k[t]);
    out[r] = static_cast<float>(acc);
  }
}

void dotn_avx2(const double* const* q, Index rows, const float* k, Index n, float* out) {
  switch (rows) {
    case 1: dotr_avx2<1>(q, k, n, out); return;
    case 2: dotr_avx2<2>(q, k, n, out); return;
    case 3: dotr_avx2<3>(q, k, n, out); return;
    case 4: dotr_avx2<4>(q, k, n, out); return;
    default:
      for (Index r = 0; r < rows; ++r) dotr_avx2<1>(q + r, k, n, out + r);
      return;
  }
}

void axpy_avx2(float a, const float* x, float* y, Index n) {
  const __m256 av = _mm256_set1_ps(a);
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 yv = _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i));
    _mm256_storeu_ps(y + i, yv);
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

// R accumulator rows fed from one shared value stream.
template <int R>
void axpyr_avx2(const float* w, const float* v, float* const* acc, Index n) {
  __m256 wv[R];
  for (int r = 0; r < R; ++r) wv[r] = _mm256_set1_ps(w[r]);
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vv = _mm256_loadu_ps(v + i);
    for (int r = 0; r < R; ++r) {
      _mm256_storeu_ps(acc[r] + i, _mm256_fmadd_ps(wv[r], vv, _mm256_loadu_ps(acc[r] + i)));
    }
  }
  for (; i < n; ++i) {
    for (int r = 0; r < R; ++r) acc[r][i] += w[r] * v[i];
  }
}

void axpyn_avx2(const float* w, Index rows, const float* v, float* const* acc, Index n) {
  switch (rows) {
    case 1: axpyr_avx2<1>(w, v, acc, n); return;
    case 2: axpyr_avx2<2>(w, v, acc, n); return;
    case 3: axpyr_avx2<3>(w, v, acc, n); return;
    case 4: axpyr_avx2<4>(w, v, acc, n); return;
    default:
      for (Index r = 0; r < rows; ++r) axpy_avx2(w[r], v, acc[r], n);
      return;
  }
}

void scale_avx2(float* x, Index n, float s) {
  const __m256 sv = _mm256_set1_ps(s);
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(sv, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) x[i] *= s;
}

// exp(t) per lane. Cody-Waite reduction t = k ln2 + r with |r| <= ln2 / 2
// (ln2 split so k * kLn2Hi is exact), then the degree-7 Taylor-form
// polynomial of Cephes expf evaluated with FMAs, scaled by 2^k built in the
// exponent field. t is clamped to [ln FLT_MIN, 88.37] first, so 2^k stays a
// normal float and no denormal is ever produced; lanes below ln FLT_MIN
// (-inf included) are then flushed to +0. NaN propagates. Within
// kExpUlpBound ulp of std::exp on the normal range: checked exhaustively
// over every float in [-90, 88.37] on x86-64/glibc, and on a sweep in the
// parity suite.
inline __m256 exp_ps(__m256 t) {
  const __m256 lo = _mm256_set1_ps(-87.33654475f);  // ln(FLT_MIN)
  const __m256 hi = _mm256_set1_ps(88.37626266f);
  const __m256 kLog2e = _mm256_set1_ps(1.44269504088896341f);
  const __m256 kLn2Hi = _mm256_set1_ps(0.693359375f);
  const __m256 kLn2Lo = _mm256_set1_ps(-2.12194440e-4f);
  const __m256 under = _mm256_cmp_ps(t, lo, _CMP_LT_OQ);
  t = _mm256_min_ps(hi, _mm256_max_ps(lo, t));  // operand order keeps NaN
  const __m256 k =
      _mm256_round_ps(_mm256_mul_ps(t, kLog2e), _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fnmadd_ps(k, kLn2Hi, t);
  r = _mm256_fnmadd_ps(k, kLn2Lo, r);
  __m256 p = _mm256_set1_ps(1.9875691500e-4f);
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.3981999507e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(8.3334519073e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(4.1665795894e-2f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.6666665459e-1f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(5.0000001201e-1f));
  p = _mm256_fmadd_ps(p, _mm256_mul_ps(r, r), _mm256_add_ps(r, _mm256_set1_ps(1.0f)));
  const __m256i e =
      _mm256_slli_epi32(_mm256_add_epi32(_mm256_cvtps_epi32(k), _mm256_set1_epi32(127)), 23);
  return _mm256_andnot_ps(under, _mm256_mul_ps(p, _mm256_castsi256_ps(e)));
}

void exp_accumulate_avx2(float* x, Index n, float m, double* l) {
  const __m256 mv = _mm256_set1_ps(m);
  __m256d s0 = _mm256_setzero_pd();
  __m256d s1 = _mm256_setzero_pd();
  const auto step = [&](float* p) {
    const __m256 w = exp_ps(_mm256_sub_ps(_mm256_loadu_ps(p), mv));
    _mm256_storeu_ps(p, w);
    s0 = _mm256_add_pd(s0, _mm256_cvtps_pd(_mm256_castps256_ps128(w)));
    s1 = _mm256_add_pd(s1, _mm256_cvtps_pd(_mm256_extractf128_ps(w, 1)));
  };
  Index i = 0;
  for (; i + 8 <= n; i += 8) step(x + i);
  if (i < n) {
    // Ragged tail through a padded copy: -inf pads weigh exactly 0.
    float tail[8];
    std::fill(tail, tail + 8, -std::numeric_limits<float>::infinity());
    std::copy(x + i, x + n, tail);
    step(tail);
    std::copy(tail, tail + (n - i), x + i);
  }
  *l += hsum_pd(_mm256_add_pd(s0, s1));
}

}  // namespace

const Ops& avx2_ops() {
  static const Ops table = {"avx2",    Level::kAvx2, dot_avx2,   dotn_avx2,
                            axpy_avx2, axpyn_avx2,   scale_avx2, exp_accumulate_avx2};
  return table;
}

}  // namespace sattn::simd

#endif  // SATTN_HAVE_AVX2
