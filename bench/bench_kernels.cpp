// google-benchmark microbenchmarks of the attention kernels and the
// SampleAttention pipeline stages, plus the run-compression kernel ablation
// called out in DESIGN.md (contiguous stripe runs vs scattered columns at
// equal density).
#include <benchmark/benchmark.h>

#include <optional>

#include "bench_common.h"
#include "core/simd.h"
#include "attention/block_sparse.h"
#include "attention/flash_attention.h"
#include "attention/full_attention.h"
#include "attention/sparse_flash_attention.h"
#include "baselines/bigbird.h"
#include "baselines/streaming_llm.h"
#include "model/workload.h"
#include "runtime/batch.h"
#include "runtime/decode.h"
#include "runtime/kv_cache.h"
#include "sample_attention/sample_attention.h"

namespace sattn {
namespace {

AttentionInput bench_input(Index s) {
  static const ModelConfig model = chatglm2_6b();
  return generate_attention(model, plain_prompt(7, s), 8, 3);
}

void BM_FullAttention(benchmark::State& state) {
  const AttentionInput in = bench_input(state.range(0));
  Matrix out;
  for (auto _ : state) {
    full_attention(in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * in.sq() * in.sk() / 2);
}
BENCHMARK(BM_FullAttention)->Arg(512)->Arg(1024)->Arg(2048);

void BM_FlashAttention(benchmark::State& state) {
  const AttentionInput in = bench_input(state.range(0));
  Matrix out;
  for (auto _ : state) {
    flash_attention(in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * in.sq() * in.sk() / 2);
}
BENCHMARK(BM_FlashAttention)->Arg(512)->Arg(1024)->Arg(2048);

void BM_SampleAttentionPlan(benchmark::State& state) {
  const AttentionInput in = bench_input(state.range(0));
  for (auto _ : state) {
    const SamplePlan plan = plan_sample_attention(in, SampleAttentionConfig{});
    benchmark::DoNotOptimize(plan.density);
  }
}
BENCHMARK(BM_SampleAttentionPlan)->Arg(512)->Arg(1024)->Arg(2048);

void BM_SampleAttentionEndToEnd(benchmark::State& state) {
  const AttentionInput in = bench_input(state.range(0));
  Matrix out;
  for (auto _ : state) {
    sample_attention(in, SampleAttentionConfig{}, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * in.sq() * in.sk() / 2);
}
BENCHMARK(BM_SampleAttentionEndToEnd)->Arg(512)->Arg(1024)->Arg(2048);

// Sparse kernel throughput as a function of kept density (window-only
// masks of increasing width). Arg = window per-mille of S.
void BM_SparseKernelDensity(benchmark::State& state) {
  const Index s = 2048;
  const AttentionInput in = bench_input(s);
  StructuredMask mask(s, s);
  mask.set_window(std::max<Index>(1, s * state.range(0) / 1000));
  Matrix out;
  for (auto _ : state) {
    sparse_flash_attention(in, mask, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["density"] = mask.density();
}
BENCHMARK(BM_SparseKernelDensity)->Arg(50)->Arg(125)->Arg(250)->Arg(500)->Arg(1000);

// Ablation: contiguous stripe runs vs scattered single columns at equal
// column count — run compression lets the kernel absorb whole runs with one
// rescale.
void BM_StripesContiguous(benchmark::State& state) {
  const Index s = 2048;
  const AttentionInput in = bench_input(s);
  StructuredMask mask(s, s);
  mask.set_window(4);
  std::vector<Index> cols;
  for (Index c = 256; c < 256 + 256; ++c) cols.push_back(c);  // one 256-run
  mask.set_stripe_columns(cols);
  Matrix out;
  for (auto _ : state) {
    sparse_flash_attention(in, mask, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_StripesContiguous);

// Window 4 plus 256 isolated stripe columns (stride 7): the fragmented
// stripe shape of the heaviest traced heads.
StructuredMask scattered_stripes_mask(Index s) {
  StructuredMask mask(s, s);
  mask.set_window(4);
  std::vector<Index> cols;
  for (Index c = 0; c < 256; ++c) cols.push_back(c * 7 % s);
  mask.set_stripe_columns(cols);
  return mask;
}

void BM_StripesScattered(benchmark::State& state) {
  const Index s = 2048;
  const AttentionInput in = bench_input(s);
  const StructuredMask mask = scattered_stripes_mask(s);
  Matrix out;
  for (auto _ : state) {
    sparse_flash_attention(in, mask, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_StripesScattered);

// Cell-exact sparse kernel vs block-granular kernel on the same
// SampleAttention plan
// (the hardware-shaped execution ablation).
void BM_SamplePlanSparseFlashKernel(benchmark::State& state) {
  const AttentionInput in = bench_input(2048);
  const SamplePlan plan = plan_sample_attention(in, SampleAttentionConfig{});
  Matrix out;
  for (auto _ : state) {
    sparse_flash_attention(in, plan.mask, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["density"] = plan.density;
}
BENCHMARK(BM_SamplePlanSparseFlashKernel);

void BM_SamplePlanBlockKernel(benchmark::State& state) {
  const AttentionInput in = bench_input(2048);
  const SamplePlan plan = plan_sample_attention(in, SampleAttentionConfig{});
  const BlockSparseLayout layout = BlockSparseLayout::from_mask(plan.mask, state.range(0));
  Matrix out;
  for (auto _ : state) {
    block_sparse_attention(in, layout, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["density"] = layout.density();
  state.counters["rounding"] = layout.rounding_overhead(plan.mask);
}
BENCHMARK(BM_SamplePlanBlockKernel)->Arg(16)->Arg(64)->Arg(128);

// ---- scalar-vs-simd comparison mode ----------------------------------------
// Paired benchmarks for the SIMD micro-kernel dispatch (core/simd.h): the
// *Dispatched variant runs whatever the CPU supports, the *Scalar variant
// pins the portable backend via ScopedForceScalar. Run with
//   bench_kernels --benchmark_filter=BM_SimdCompare
// and read the label column for the backend each side actually used (on a
// non-AVX2 host both sides report "scalar" and the pair is a null
// comparison). docs/PERFORMANCE.md records the reference numbers.
template <bool kForceScalar, typename Kernel>
void simd_compare_run(benchmark::State& state, const Kernel& kernel, Index s) {
  const AttentionInput in = bench_input(s);
  std::optional<simd::ScopedForceScalar> guard;
  if (kForceScalar) guard.emplace();
  state.SetLabel(simd::active_level_name());
  Matrix out;
  for (auto _ : state) {
    kernel(in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * in.sq() * in.sk() / 2);
}

template <bool kForceScalar>
void BM_SimdCompareFlash(benchmark::State& state) {
  simd_compare_run<kForceScalar>(
      state, [](const AttentionInput& in, Matrix& out) { flash_attention(in, out); },
      state.range(0));
}
BENCHMARK_TEMPLATE(BM_SimdCompareFlash, false)->Arg(1024)->Arg(2048);
BENCHMARK_TEMPLATE(BM_SimdCompareFlash, true)->Arg(1024)->Arg(2048);

template <bool kForceScalar>
void BM_SimdCompareFull(benchmark::State& state) {
  simd_compare_run<kForceScalar>(
      state, [](const AttentionInput& in, Matrix& out) { full_attention(in, out); },
      state.range(0));
}
BENCHMARK_TEMPLATE(BM_SimdCompareFull, false)->Arg(1024)->Arg(2048);
BENCHMARK_TEMPLATE(BM_SimdCompareFull, true)->Arg(1024)->Arg(2048);

template <bool kForceScalar>
void BM_SimdCompareSparseFlash(benchmark::State& state) {
  const Index s = state.range(0);
  StructuredMask mask(s, s);
  mask.set_window(std::max<Index>(1, s / 8));
  simd_compare_run<kForceScalar>(
      state,
      [&mask](const AttentionInput& in, Matrix& out) { sparse_flash_attention(in, mask, out); },
      s);
}
BENCHMARK_TEMPLATE(BM_SimdCompareSparseFlash, false)->Arg(2048);
BENCHMARK_TEMPLATE(BM_SimdCompareSparseFlash, true)->Arg(2048);

template <bool kForceScalar>
void BM_SimdCompareStripesScattered(benchmark::State& state) {
  const StructuredMask mask = scattered_stripes_mask(state.range(0));
  simd_compare_run<kForceScalar>(
      state,
      [&mask](const AttentionInput& in, Matrix& out) { sparse_flash_attention(in, mask, out); },
      state.range(0));
}
BENCHMARK_TEMPLATE(BM_SimdCompareStripesScattered, false)->Arg(2048);
BENCHMARK_TEMPLATE(BM_SimdCompareStripesScattered, true)->Arg(2048);

template <bool kForceScalar>
void BM_SimdCompareSampleEndToEnd(benchmark::State& state) {
  simd_compare_run<kForceScalar>(
      state,
      [](const AttentionInput& in, Matrix& out) {
        sample_attention(in, SampleAttentionConfig{}, out);
      },
      state.range(0));
}
BENCHMARK_TEMPLATE(BM_SimdCompareSampleEndToEnd, false)->Arg(2048);
BENCHMARK_TEMPLATE(BM_SimdCompareSampleEndToEnd, true)->Arg(2048);

// One decode step over a paged cache of `s` slots (runtime/decode.h): a
// single query row through the micro-kernel, the shape of a long-context
// request's decode phase. Items are the step's (query, key) pairs, s.
template <bool kForceScalar>
void BM_SimdCompareDecode(benchmark::State& state) {
  const Index s = state.range(0);
  const AttentionInput in = bench_input(s);
  KVCache cache(in.head_dim());
  if (!cache.append_prefill(in).ok()) {
    state.SkipWithError("append_prefill failed");
    return;
  }
  std::optional<simd::ScopedForceScalar> guard;
  if (kForceScalar) guard.emplace();
  state.SetLabel(simd::active_level_name());
  std::vector<float> out(static_cast<std::size_t>(in.head_dim()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_attention(in.q.row(s - 1), cache, out).ok());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * s);
}
BENCHMARK_TEMPLATE(BM_SimdCompareDecode, false)->Arg(16384);
BENCHMARK_TEMPLATE(BM_SimdCompareDecode, true)->Arg(16384);

// ---------------------------------------------------------------------------
// Ragged-batch sweep vs a per-request kernel loop (docs/PERFORMANCE.md
// "Batched kernels"). Same total work — `batch` sequences of 1K tokens —
// but the per-request loop parallelizes inside one sequence at a time
// (q-tile granularity) while the ragged sweep runs whole sequences
// concurrently, which is how the serving engine amortizes a live batch.
// Both sides run on the pool, so items/s is taken over wall time
// (UseRealTime): the calling thread's CPU time misses the workers' work.

void BM_PerRequestLoopDense(benchmark::State& state) {
  const Index batch = state.range(0);
  std::vector<AttentionInput> ins;
  for (Index i = 0; i < batch; ++i) ins.push_back(bench_input(1024));
  std::vector<Matrix> outs(static_cast<std::size_t>(batch));
  for (auto _ : state) {
    for (Index i = 0; i < batch; ++i)
      flash_attention(ins[static_cast<std::size_t>(i)], outs[static_cast<std::size_t>(i)]);
    benchmark::DoNotOptimize(outs.front().data());
  }
  state.SetItemsProcessed(state.iterations() * batch * 1024 * 1024 / 2);
}
BENCHMARK(BM_PerRequestLoopDense)->Arg(2)->Arg(8)->UseRealTime();

void BM_RaggedBatchDense(benchmark::State& state) {
  const Index batch = state.range(0);
  std::vector<AttentionInput> ins;
  for (Index i = 0; i < batch; ++i) ins.push_back(bench_input(1024));
  std::vector<Matrix> outs(static_cast<std::size_t>(batch));
  RaggedBatchView view;
  for (Index i = 0; i < batch; ++i) {
    AttentionInput& in = ins[static_cast<std::size_t>(i)];
    Matrix& out = outs[static_cast<std::size_t>(i)];
    out.resize(in.sq(), in.head_dim());
    RaggedSeq seq;
    seq.route = SeqRoute::kDense;
    seq.q = in.q.data();
    seq.rows = in.sq();
    seq.kv = mk::KvView::of(in);
    seq.k_hi = in.sk();
    seq.causal_off = in.sk() - in.sq();
    seq.out = out.data();
    view.seqs.push_back(seq);
  }
  for (auto _ : state) {
    const std::vector<SeqCost> costs = ragged_attention_sweep(view);
    benchmark::DoNotOptimize(costs.data());
  }
  state.SetItemsProcessed(state.iterations() * batch * 1024 * 1024 / 2);
}
BENCHMARK(BM_RaggedBatchDense)->Arg(2)->Arg(8)->UseRealTime();

// Decode-heavy step: one fresh token against a 4K KV prefix per sequence —
// the regime where per-request dispatch overhead dominates and batching
// pays the most.
void BM_PerRequestLoopDecode(benchmark::State& state) {
  const Index batch = state.range(0), s = 4096;
  const AttentionInput in = bench_input(s);
  const mk::KvView kv = mk::KvView::of(in);
  std::vector<std::vector<float>> outs(static_cast<std::size_t>(batch),
                                       std::vector<float>(static_cast<std::size_t>(in.head_dim())));
  for (auto _ : state) {
    for (Index i = 0; i < batch; ++i)
      flash_rows(in.q.row(0).data(), 1, kv, s, s - 1, outs[static_cast<std::size_t>(i)].data(),
                 in.head_dim());
    benchmark::DoNotOptimize(outs.front().data());
  }
  state.SetItemsProcessed(state.iterations() * batch * s);
}
BENCHMARK(BM_PerRequestLoopDecode)->Arg(8)->Arg(32)->UseRealTime();

void BM_RaggedBatchDecode(benchmark::State& state) {
  const Index batch = state.range(0), s = 4096;
  const AttentionInput in = bench_input(s);
  std::vector<std::vector<float>> outs(static_cast<std::size_t>(batch),
                                       std::vector<float>(static_cast<std::size_t>(in.head_dim())));
  RaggedBatchView view;
  for (Index i = 0; i < batch; ++i) {
    RaggedSeq seq;
    seq.route = SeqRoute::kDense;
    seq.q = in.q.row(0).data();
    seq.rows = 1;
    seq.kv = mk::KvView::of(in);
    seq.k_hi = s;
    seq.causal_off = s - 1;
    seq.out = outs[static_cast<std::size_t>(i)].data();
    view.seqs.push_back(seq);
  }
  for (auto _ : state) {
    const std::vector<SeqCost> costs = ragged_attention_sweep(view);
    benchmark::DoNotOptimize(costs.data());
  }
  state.SetItemsProcessed(state.iterations() * batch * s);
}
BENCHMARK(BM_RaggedBatchDecode)->Arg(8)->Arg(32)->UseRealTime();

void BM_BigBird(benchmark::State& state) {
  const AttentionInput in = bench_input(state.range(0));
  const BigBird method;
  for (auto _ : state) {
    const AttentionResult res = method.run(in);
    benchmark::DoNotOptimize(res.density);
  }
}
BENCHMARK(BM_BigBird)->Arg(1024);

void BM_StreamingLLM(benchmark::State& state) {
  const AttentionInput in = bench_input(state.range(0));
  const StreamingLLM method;
  for (auto _ : state) {
    const AttentionResult res = method.run(in);
    benchmark::DoNotOptimize(res.density);
  }
}
BENCHMARK(BM_StreamingLLM)->Arg(1024);

}  // namespace
}  // namespace sattn

int main(int argc, char** argv) {
  // TraceSession strips --trace-out/--report-out before google-benchmark
  // parses flags.
  sattn::bench::TraceSession trace_session(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
