// SIMD micro-kernel primitives with runtime CPU dispatch.
//
// Every hot inner loop in the library funnels through the small primitive
// set below: dot products (accumulated in double, matching the numeric
// contract of core/tensor.cpp), multi-row dots of pre-widened query rows
// that share one key stream, axpy accumulates, a multi-row axpy over a
// whole list of value rows, an in-place rescale, and the online-softmax
// exp pass.
// Each primitive has a portable scalar implementation and, on x86 hosts
// whose compiler and CPU both support it, an AVX2/FMA implementation
// (src/core/simd_avx2.cpp, compiled with -mavx2 -mfma and only ever called
// after a CPUID check).
//
// Dispatch contract:
//   * detected_level()  — what the CPU supports (CPUID), ignoring overrides.
//   * dispatched_ops()  — detected level filtered through the
//     SATTN_FORCE_SCALAR environment variable (any value other than "0"
//     forces the scalar table); resolved once per process.
//   * ops()             — the active table: dispatched_ops() unless a
//     ScopedForceScalar is alive. This is what kernels call.
//
// The scalar table reproduces the pre-SIMD loops bit-for-bit (double
// accumulation for dots, float fused multiply-add for axpy, std::exp for
// the softmax weights), so SATTN_FORCE_SCALAR=1 recovers the original
// kernel numerics exactly and the parity suite (tests/simd_kernel_test.cpp)
// can compare the two tables in one process. Within either table, dotn on
// rows widened by simd::widen is bit-identical to dot on the float rows
// (widening is exact and the FMA chains are the same), and the key-list
// axpyn is bit-identical to a per-key loop of axpy (every element gets its
// FMAs in the same ascending-key order).
#pragma once

#include <atomic>
#include <cstddef>

#include "core/tensor.h"

namespace sattn::simd {

enum class Level { kScalar = 0, kAvx2 = 1 };

// Number of query rows the multi-row primitives (dotn/axpyn) accept at once.
inline constexpr Index kMaxRows = 4;

// One backend's primitive table. All pointers are non-null in a valid table.
struct Ops {
  const char* name;  // "scalar" or "avx2"
  Level level;

  // out = sum_i a[i] * b[i], accumulated in double.
  float (*dot)(const float* a, const float* b, Index n);

  // out[r] = dot(q[r], k) for r in [0, rows); rows in [1, kMaxRows]. The
  // query rows are already widened to double (simd::widen) — callers widen
  // each row once per tile, not once per key. The shared k stream is loaded
  // and widened once per vector of lanes for all rows — the
  // register-blocking primitive of the attention micro-kernels.
  void (*dotn)(const double* const* q, Index rows, const float* k, Index n, float* out);

  // y[i] += a * x[i].
  void (*axpy)(float a, const float* x, float* y, Index n);

  // acc[r][i] += sum_j w[r * w_stride + j] * v[j][i] for r in [0, rows)
  // and j ascending in [0, keys): the V pass of a whole key list in one
  // call (keys = 1 is the one-key form). Each v[j] row is loaded once for
  // all rows, and the AVX2 body holds a column slice of every row's
  // accumulator in registers across all keys (16 columns per row at four
  // rows, up to 64 at one), so acc is loaded and stored once per call
  // instead of once per key.
  void (*axpyn)(const float* w, Index w_stride, Index rows, const float* const* v, Index keys,
                float* const* acc, Index n);

  // x[i] *= s (the online-softmax rescale step).
  void (*scale_inplace)(float* x, Index n, float s);

  // x[i] = exp(x[i] - m) and *l += x[i] for i in [0, n) (the online-softmax
  // weight pass; *l accumulates in double). The scalar table runs std::exp
  // and adds in ascending i. The AVX2 table evaluates a polynomial exp
  // within kExpUlpBound ulp of std::exp for results >= FLT_MIN, flushes
  // smaller results (x - m < ln FLT_MIN, -inf included) to +0, saturates
  // near FLT_MAX for x - m > 88.37, and sums in a different order.
  void (*exp_accumulate)(float* x, Index n, float m, double* l);
};

// Documented accuracy of the vectorized exp in exp_accumulate, in ulp of
// the std::exp result (pinned by tests/simd_kernel_test.cpp).
inline constexpr int kExpUlpBound = 1;

// out[i] = double(x[i]): the exact widening dotn's query rows go through.
inline void widen(const float* x, Index n, double* out) {
  for (Index i = 0; i < n; ++i) out[i] = static_cast<double>(x[i]);
}

// The portable fallback; always available.
const Ops& scalar_ops();

// CPU capability, ignoring SATTN_FORCE_SCALAR and scoped overrides.
Level detected_level();

// detected_level() filtered through SATTN_FORCE_SCALAR; cached after the
// first call (set the environment variable before any SIMD use).
const Ops& dispatched_ops();

const char* level_name(Level level);

namespace detail {
std::atomic<const Ops*>& active_slot();
const Ops& init_active();
}  // namespace detail

// The active table. One relaxed atomic load; kernels that loop over many
// rows should hoist `const Ops& o = simd::ops();` out of the loop.
inline const Ops& ops() {
  const Ops* p = detail::active_slot().load(std::memory_order_relaxed);
  return p != nullptr ? *p : detail::init_active();
}

inline Level active_level() { return ops().level; }
inline const char* active_level_name() { return ops().name; }

// Forces the scalar table while alive (benchmark comparison mode and the
// parity tests). The override is process-global: pool workers dispatched
// while the scope is alive also see the scalar table. Not meant to be
// nested from concurrent threads.
class ScopedForceScalar {
 public:
  ScopedForceScalar();
  ~ScopedForceScalar();

  ScopedForceScalar(const ScopedForceScalar&) = delete;
  ScopedForceScalar& operator=(const ScopedForceScalar&) = delete;

 private:
  const Ops* prev_;
};

// Convenience wrappers over the active table.
inline float dot(const float* a, const float* b, Index n) { return ops().dot(a, b, n); }
inline void dotn(const double* const* q, Index rows, const float* k, Index n, float* out) {
  ops().dotn(q, rows, k, n, out);
}
inline void axpy(float a, const float* x, float* y, Index n) { ops().axpy(a, x, y, n); }
inline void axpyn(const float* w, Index w_stride, Index rows, const float* const* v, Index keys,
                  float* const* acc, Index n) {
  ops().axpyn(w, w_stride, rows, v, keys, acc, n);
}
inline void scale_inplace(float* x, Index n, float s) { ops().scale_inplace(x, n, s); }
inline void exp_accumulate(float* x, Index n, float m, double* l) {
  ops().exp_accumulate(x, n, m, l);
}

}  // namespace sattn::simd
