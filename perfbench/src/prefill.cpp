// prefill_longctx: the paper's regime as a closed loop of single-head
// causal prefills on the ChatGLM2-6B substrate.
//
// Each item is one (layer, head) at 8K or 16K tokens: plan_sample_attention
// plus sparse_flash_attention at alpha = 0.95 is its TTFT. Between the
// prefills the items decode together, kDecodeStepsPerItem iterations after
// each prefill, as a continuous-batching server interleaves them; an
// iteration is one exact decode_attention step per item (its last query rows
// against its full KV cache; the paper leaves decode untouched) and its time
// is a TPOT sample. Spreading the iterations over the whole run keeps TPOT,
// which is memory-bound, from hanging on the host's state in one short window. Inputs are generated during set-up, outside the timed
// region, from a fixed content seed: the deployed masks, and so cra_min and
// out_rel_err_max, read identically on every run. --seed sets the order in
// which each pass visits the items.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "attention/flash_attention.h"
#include "attention/sparse_flash_attention.h"
#include "common.h"
#include "core/thread_pool.h"
#include "metrics/cra.h"
#include "model/synthetic_model.h"
#include "obs/accounting.h"
#include "obs/metrics.h"
#include "runtime/decode.h"
#include "runtime/kv_cache.h"
#include "sample_attention/sample_attention.h"
#include "schedule.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace sattn;

constexpr std::uint64_t kContentSeed = 0x5a11c0de;
constexpr Index kLengths[] = {8192, 16384};
constexpr Index kDecodeStepsPerItem = 16;
constexpr int kSetupRepeats = 3;
// Goodput limits: TTFT per item, median decode iteration per pass.
constexpr double kTtftLimit = 15.0;
constexpr double kTpotLimit = 0.05;

// Four of representative_heads(chatglm2, 12): layer 0 plus a dense, a
// retrieval and a standard head. Fixed so the quality figures are too.
std::vector<std::pair<Index, Index>> bench_heads(const ModelConfig& m) {
  const auto rep = representative_heads(m, 12);
  return {rep[0], rep[4], rep[1], rep[2]};
}

struct Item {
  std::string id;
  Index length = 0;
  AttentionInput in;
  std::unique_ptr<KVCache> cache;
};

std::vector<Item> build_items(const ModelConfig& m) {
  std::vector<Item> items;
  for (const Index len : kLengths) {
    for (const auto& [layer, head] : bench_heads(m)) {
      Item it;
      char id[64];
      std::snprintf(id, sizeof(id), "L%lldH%lld@%lld", static_cast<long long>(layer),
                    static_cast<long long>(head), static_cast<long long>(len));
      it.id = id;
      it.length = len;
      obs::RequestContext ctx(it.id);
      {
        obs::ScopedSpan span("bench/generate_attention");
        ContentSpec content;
        content.seed = kContentSeed;
        content.length = len;
        it.in = generate_attention(m, content, layer, head);
      }
      obs::ScopedSpan span("bench/kv_fill");
      it.cache = std::make_unique<KVCache>(m.head_dim);
      for (Index j = 0; j < len; ++j) {
        const Status s = it.cache->append(j, it.in.k.row(j), it.in.v.row(j));
        if (!s.ok()) throw std::runtime_error("kv fill: " + s.to_string());
      }
      items.push_back(std::move(it));
    }
  }
  return items;
}

struct PassSamples {
  std::vector<double> ttft, sparse_s;  // per item
  std::vector<double> tpot;            // per decode iteration of the batch
  double tokens = 0.0, evals = 0.0;
  std::vector<double> density;
};

struct ItemQuality {
  bool done = false;
  double cra = 1.0, rel_err = 0.0;
};

// One closed-loop pass: every item's prefill in the seeded order, each
// followed by kDecodeStepsPerItem decode iterations of the whole batch. An
// iteration produces one token for every item and its time is one TPOT
// sample.
void run_pass(std::vector<Item>& items, const std::vector<Index>& order, const SampleAttentionConfig& cfg,
              PassSamples& s, std::vector<ItemQuality>& quality, RunResult& r) {
  Matrix out;
  std::vector<char> ok(items.size(), 1);
  std::vector<float> dec_out(static_cast<std::size_t>(items.front().in.head_dim()));
  const Index decode_steps = kDecodeStepsPerItem * static_cast<Index>(items.size());
  Index step = 0;
  const auto decode_iteration = [&] {
    obs::ScopedSpan iter_span("bench/decode_iteration");
    const double t0 = now_s();
    for (const Index idx : order) {
      Item& it = items[static_cast<std::size_t>(idx)];
      obs::RequestContext ctx(it.id);
      obs::ScopedSpan span("bench/decode_attention");
      const Status st =
          decode_attention(it.in.q.row(it.length - decode_steps + step), *it.cache, dec_out);
      ok[static_cast<std::size_t>(idx)] &=
          st.ok() && std::all_of(dec_out.begin(), dec_out.end(), [](float x) { return std::isfinite(x); });
    }
    s.tpot.push_back(now_s() - t0);
    ++step;
  };

  for (const Index idx : order) {
    Item& it = items[static_cast<std::size_t>(idx)];
    {
      obs::RequestContext ctx(it.id);
      obs::ScopedSpan item_span("bench/prefill");
      const double t0 = now_s();
      SamplePlan plan;
      {
        obs::ScopedSpan span("bench/plan_sample_attention");
        plan = plan_sample_attention(it.in, cfg);
      }
      const double t1 = now_s();
      {
        obs::ScopedSpan span("bench/sparse_flash_attention");
        sparse_flash_attention(it.in, plan.mask, out);
      }
      const double t2 = now_s();
      s.ttft.push_back(t2 - t0);
      s.sparse_s.push_back(t2 - t1);
      s.tokens += static_cast<double>(it.length);
      s.evals += sparse_flash_work(plan.mask);
      s.density.push_back(plan.density);

      const auto k = static_cast<std::size_t>(idx);
      ok[k] &= out.rows() == it.length && out.cols() == it.in.head_dim() && all_finite(out);
      ItemQuality& q = quality[k];
      if (!q.done && ok[k]) {
        const std::vector<Index> rows = quality_rows(it.length);
        q.cra = cra(it.in, plan.mask, rows);
        q.rel_err = max_rel_err_vs_exact(it.in, out, rows);
        q.done = true;
      }
    }
    for (Index i = 0; i < kDecodeStepsPerItem; ++i) decode_iteration();
  }

  for (const Index idx : order) {
    const bool good = ok[static_cast<std::size_t>(idx)] != 0;
    ++r.attempted;
    if (!good) ++r.failed;
    r.check(good, "item " + items[static_cast<std::size_t>(idx)].id +
                      ": prefill or decode output has the wrong shape or is not finite");
  }
}

}  // namespace

RunResult run_prefill_longctx(const Options& opt) {
  RunResult r;
  const ModelConfig m = chatglm2_6b();
  {
    std::set<HeadKind> kinds;
    for (const auto& [layer, head] : bench_heads(m)) kinds.insert(head_kind(m, layer, head));
    r.check(kinds.size() == 3, "head set must cover dense, standard and retrieval heads");
  }
  SampleAttentionConfig cfg;
  cfg.alpha = 0.95;

  // Set-up, repeated; the median is setup_s and the last copy is used.
  std::vector<double> setup;
  std::vector<Item> items;
  const int repeats = opt.trace ? 1 : kSetupRepeats;
  if (opt.trace) obs::set_enabled(true);
  for (int i = 0; i < repeats; ++i) {
    items.clear();
    const double t0 = now_s();
    items = build_items(m);
    setup.push_back(now_s() - t0);
  }
  const auto n_items = static_cast<Index>(items.size());
  std::vector<ItemQuality> quality(items.size());

  if (!opt.trace) {
    obs::set_enabled(false);
    // Whole passes only, so every run weighs every item equally; a pass
    // starts only if it should end within --seconds (the first always runs).
    PassSamples s;
    const double start = now_s();
    Index pass = 0;
    double pass_s = 0.0;
    do {
      const double p0 = now_s();
      run_pass(items, prefill_pass_order(opt.seed, pass++, n_items), cfg, s, quality, r);
      pass_s = now_s() - p0;
    } while (now_s() - start + pass_s <= opt.seconds);

    EndToEnd e;
    e.setup_s = median(setup);
    e.ttft_p50_s = median(s.ttft);
    e.ttft_p90_s = percentile(s.ttft, 0.9);
    e.tpot_p50_s = median(s.tpot);
    e.tpot_p90_s = percentile(s.tpot, 0.9);
    // An item meets the TPOT limit when its pass's median iteration does.
    Index good = 0;
    for (std::size_t i = 0; i < s.ttft.size(); ++i) {
      const std::size_t p = i / items.size();
      const auto per_pass = static_cast<std::size_t>(kDecodeStepsPerItem) * items.size();
      const std::vector<double> iters(s.tpot.begin() + static_cast<std::ptrdiff_t>(p * per_pass),
                                      s.tpot.begin() + static_cast<std::ptrdiff_t>((p + 1) * per_pass));
      if (s.ttft[i] <= kTtftLimit && median(iters) <= kTpotLimit) ++good;
    }
    e.goodput_frac = static_cast<double>(good) / static_cast<double>(std::max<std::size_t>(1, s.ttft.size()));
    e.prefill_s_p50 = e.ttft_p50_s;
    e.prefill_tok_per_s = s.tokens / sum(s.ttft);
    e.cra_min = 1.0;
    for (const ItemQuality& q : quality) {
      e.cra_min = std::min(e.cra_min, q.cra);
      e.out_rel_err_max = std::max(e.out_rel_err_max, q.rel_err);
    }
    add_end_to_end(r, e);
    note_samples(r, "ttft", s.ttft.size());
    note_samples(r, "tpot", s.tpot.size());
    r.note("passes", static_cast<double>(pass));
    r.note("goodput_limits", "ttft <= 15 s per item and median decode iteration <= 50 ms");
    for (std::size_t i = 0; i < items.size(); ++i) {
      r.note("cra." + items[i].id, quality[i].cra);
      r.note("rel_err." + items[i].id, quality[i].rel_err);
    }
    return r;
  }

  // Traced run: one untraced pass for the overhead baseline, then one
  // traced pass, then dense flash on the 8K items for the sparse-vs-dense
  // ratio.
  const std::vector<Index> order = prefill_pass_order(opt.seed, 0, n_items);
  obs::set_enabled(false);
  PassSamples base;
  run_pass(items, order, cfg, base, quality, r);
  obs::set_enabled(true);
  obs::MetricsRegistry::global().reset();
  PassSamples traced;  // its samples follow `order`
  run_pass(items, order, cfg, traced, quality, r);
  std::vector<double> ratios;
  Matrix dense_out;
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const auto i = static_cast<std::size_t>(order[pos]);
    if (items[i].length != kLengths[0]) continue;
    obs::RequestContext ctx(items[i].id);
    const double t0 = now_s();
    {
      obs::ScopedSpan span("bench/flash_attention");
      flash_attention(items[i].in, dense_out);
    }
    const double flash_s = now_s() - t0;
    ratios.push_back(traced.sparse_s[pos] / (traced.density[pos] * flash_s));
  }
  const TraceDigest t = collect_trace();
  obs::set_enabled(false);
  const Roofline roof = measure_roofline(ThreadPool::global().size());

  LayerValues v;
  v["model.generate_s"] = t.total_s("bench/generate_attention");
  add_kernel_layers(t, traced.evals, m.head_dim, roof.fma_gflops, v);
  v["attention.sparse_vs_dense_ratio"] = median(ratios);
  v["obs.trace_overhead_frac"] = median(traced.ttft) / median(base.ttft) - 1.0;
  add_layer_metrics(r, v);
  r.note("roofline.fma_gflops", roof.fma_gflops);
  r.note("roofline.stream_gbps", roof.stream_gbps);
  write_trace_outputs(t, opt, r);
  return r;
}

}  // namespace perfbench
