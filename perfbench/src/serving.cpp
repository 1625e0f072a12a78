// serve_sa and chat_prefix: open-loop load on the live ServingEngine.
//
// One submitter (this thread) sends each request when it is due; the engine
// loop and the kernel pool do the rest, so the process stays within nproc
// threads. TTFT is measured from the request's due instant: the engine's
// own TTFT (from its submit() stamp) plus how late the submitter was.
//
// serve_sa: kSampleAttention mode, private prompts, short decode. Loads the
// engine loop, per-chunk planning and the sparse sweep route; the prefix
// cache is probed but can never hit. Not declared in BENCHMARK.json: its
// TTFT spread between runs exceeds the largest bound (perfbench/README.md).
// chat_prefix: kDense mode, multi-turn conversations sharing a system
// prompt that set-up publishes into the page arena the timed engine uses.
// Loads prefix lookup/attach/publish, decode and KV appends; no planning.
//
// Output quality is not visible through the engine, so each run ends with
// a route probe: one fixed structured ChatGLM2-6B head at 4096 tokens run
// through the kernel route the workload's engine deploys (SampleAttention
// plan + sparse kernel, or dense flash), scored like prefill_longctx.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "attention/flash_attention.h"
#include "attention/sparse_flash_attention.h"
#include "common.h"
#include "core/thread_pool.h"
#include "metrics/cra.h"
#include "model/synthetic_model.h"
#include "obs/accounting.h"
#include "obs/metrics.h"
#include "runtime/engine.h"
#include "schedule.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace sattn;

// A warm-up run is ~60 ms, short enough that the host's moment-to-moment
// speed moves single samples by half; the median of nine is steady.
constexpr int kSetupRepeats = 9;
constexpr std::uint64_t kProbeContentSeed = 0x9a0be;
constexpr Index kProbeTokens = 4096;

struct ServeSpec {
  bool chat = false;
  EngineMode mode = EngineMode::kDense;
  Index decode_tokens = 8;
  double ttft_limit = 0.0;  // goodput limits, seconds
  double tpot_limit = 0.0;
};

ServeSpec spec_for(const std::string& workload) {
  if (workload == "serve_sa") {
    return {.chat = false, .mode = EngineMode::kSampleAttention, .decode_tokens = 8,
            .ttft_limit = 1.0, .tpot_limit = 0.05};
  }
  return {.chat = true, .mode = EngineMode::kDense, .decode_tokens = 64, .ttft_limit = 0.5,
          .tpot_limit = 0.05};
}

EngineOptions engine_options(const ServeSpec& spec, std::uint64_t seed) {
  EngineOptions eo;
  eo.mode = spec.mode;
  eo.head_dim = 64;
  eo.chunk_tokens = 256;
  eo.max_batch = 8;
  eo.decode_tokens = spec.decode_tokens;
  eo.sample.alpha = 0.95;
  eo.seed = 0x5e1ull ^ (seed * 0x9e3779b97f4a7c15ull);  // request content follows --seed
  eo.run_label = "perfbench";
  return eo;
}

// Set-up: a warm-up engine run, so pool threads, allocators and the planner
// are live before timing. For chat_prefix it also publishes the system
// prompt into a fresh page arena, returned for the timed engine to share.
std::shared_ptr<KvPageArena> warm_up(const ServeSpec& spec, const EngineOptions& eo) {
  EngineOptions w = eo;
  if (spec.chat) w.kv_arena = std::make_shared<KvPageArena>(eo.head_dim, eo.kv_page_tokens);
  ServingEngine engine(w);
  engine.start();
  std::size_t sent = 0;
  if (spec.chat) {
    sent += engine.submit(ServingRequest("warm/sys", kChatSysTokens + kChatTailMin, 0.0,
                                         {{"sys", kChatSysTokens}}))
                .ok();
  } else {
    for (int i = 0; i < 4; ++i)
      sent += engine.submit(ServingRequest("warm/" + std::to_string(i), 1024, 0.0)).ok();
  }
  const EngineResult res = engine.finish();
  if (sent == 0 || res.completed.size() != sent) throw std::runtime_error("warm-up run did not complete");
  return engine.kv_arena();
}

struct Sent {
  double due = 0.0, submit = 0.0;
  bool accepted = false;
};

struct OpenLoopRun {
  EngineResult res;
  std::vector<Sent> sent;
  double prefix_index_bytes = 0.0;
};

OpenLoopRun run_open_loop(const EngineOptions& eo, const std::vector<Arrival>& sched) {
  OpenLoopRun run;
  run.sent.resize(sched.size());
  ServingEngine engine(eo);
  engine.start();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < sched.size(); ++i) {
    const Arrival& a = sched[i];
    std::this_thread::sleep_until(t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                           std::chrono::duration<double>(a.due_s)));
    obs::RequestContext ctx(a.id);
    obs::ScopedSpan span("bench/submit");
    run.sent[i].due = a.due_s;
    run.sent[i].submit = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    run.sent[i].accepted = engine.submit(ServingRequest(a.id, a.prompt_tokens, 0.0, a.segments)).ok();
  }
  {
    obs::ScopedSpan span("bench/finish");
    run.res = engine.finish();
  }
  run.prefix_index_bytes = engine.kv_arena()->prefix_index_bytes();
  return run;
}

// Per-request view of a run after the correctness checks.
struct Analysis {
  std::vector<double> ttft, tpot, queue, compute, lag;
  Index good = 0;
  double guard_s = 0.0, engine_ttft_s = 0.0;
  double prompt_tokens = 0.0, computed_tokens = 0.0;
};

Analysis analyse(const OpenLoopRun& run, const std::vector<Arrival>& sched, const ServeSpec& spec,
                 RunResult& r) {
  Analysis a;
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < sched.size(); ++i) index[sched[i].id] = i;
  r.attempted += static_cast<long long>(sched.size());

  // Every accepted id reaches exactly one terminal state; nothing else does.
  std::map<std::string, int> seen;
  for (const auto& [id, state] : run.res.outcomes()) ++seen[id];
  for (std::size_t i = 0; i < sched.size(); ++i) {
    a.lag.push_back(run.sent[i].submit - run.sent[i].due);
    const int n = seen.count(sched[i].id) ? seen[sched[i].id] : 0;
    if (!run.sent[i].accepted) ++r.failed;
    r.check(n == (run.sent[i].accepted ? 1 : 0),
            sched[i].id + " reached " + std::to_string(n) + " terminal states");
  }
  for (const auto& [id, n] : seen) r.check(index.count(id) == 1, "unknown request id " + id);
  r.failed += static_cast<long long>(run.res.shed.size() + run.res.cancelled.size());

  const auto attribution_ok = [](const CompletedRequest& c) {
    const double ttft = c.ttft();
    return c.queue_seconds >= -1e-9 &&
           std::abs(c.queue_seconds + c.compute_seconds + c.guard_seconds - ttft) <= 1e-9 * (1.0 + ttft);
  };
  for (const CancelledRequest& c : run.res.cancelled)
    r.check(attribution_ok(c.base), c.base.request.id + ": queue + compute + guard != ttft");

  for (const EngineCompletion& c : run.res.completed) {
    const auto it = index.find(c.base.request.id);
    if (it == index.end()) continue;  // already reported as unknown
    const Sent& s = run.sent[it->second];
    const bool ok = attribution_ok(c.base) && c.decoded_tokens == spec.decode_tokens &&
                    std::isfinite(c.tpot_seconds) && c.tpot_seconds >= 0.0;
    r.check(ok, c.base.request.id + ": queue + compute + guard != ttft, negative queue, or bad decode");
    if (!ok) {
      ++r.failed;
      continue;
    }
    const double ttft = c.base.ttft() + (s.submit - s.due);
    a.ttft.push_back(ttft);
    a.tpot.push_back(c.tpot_seconds);
    a.queue.push_back(c.base.queue_seconds);
    a.compute.push_back(c.base.compute_seconds);
    a.guard_s += c.base.guard_seconds;
    a.engine_ttft_s += c.base.ttft();
    a.prompt_tokens += static_cast<double>(c.base.request.prompt_tokens);
    a.computed_tokens += static_cast<double>(c.base.request.prompt_tokens - c.prefix_hit_tokens);
    if (ttft <= spec.ttft_limit && c.tpot_seconds <= spec.tpot_limit) ++a.good;
  }
  return a;
}

// Quality of the route the workload's engine deploys, on a fixed input.
void route_probe(const ServeSpec& spec, const EngineOptions& eo, EndToEnd& e, RunResult& r) {
  const ModelConfig m = chatglm2_6b();
  ContentSpec content;
  content.seed = kProbeContentSeed;
  content.length = kProbeTokens;
  const auto [layer, head] = representative_heads(m, 12)[2];
  const AttentionInput in = generate_attention(m, content, layer, head);
  Matrix out;
  StructuredMask mask(kProbeTokens, kProbeTokens);
  if (spec.mode == EngineMode::kSampleAttention) {
    SamplePlan plan = plan_sample_attention(in, eo.sample);
    sparse_flash_attention(in, plan.mask, out);
    mask = std::move(plan.mask);
  } else {
    flash_attention(in, out, eo.flash);
    mask.set_window(kProbeTokens);  // the full causal mask
  }
  const bool ok = out.rows() == kProbeTokens && out.cols() == in.head_dim() && all_finite(out);
  ++r.attempted;
  if (!ok) ++r.failed;
  r.check(ok, "route probe output has the wrong shape or is not finite");
  const std::vector<Index> rows = quality_rows(kProbeTokens);
  e.cra_min = cra(in, mask, rows);
  e.out_rel_err_max = max_rel_err_vs_exact(in, out, rows);
}

double setup_engine(const ServeSpec& spec, EngineOptions& eo, int repeats) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const double t0 = now_s();
    std::shared_ptr<KvPageArena> arena = warm_up(spec, eo);
    times.push_back(now_s() - t0);
    if (spec.chat) eo.kv_arena = std::move(arena);
  }
  return median(times);
}

}  // namespace

RunResult run_serving(const Options& opt) {
  RunResult r;
  const ServeSpec spec = spec_for(opt.workload);
  EngineOptions eo = engine_options(spec, opt.seed);
  r.note("goodput_limits", "ttft <= " + std::to_string(spec.ttft_limit) +
                               " s from the due instant and tpot <= " +
                               std::to_string(spec.tpot_limit) + " s");

  if (!opt.trace) {
    obs::set_enabled(false);
    EndToEnd e;
    e.setup_s = setup_engine(spec, eo, kSetupRepeats);
    const std::vector<Arrival> sched = spec.chat ? chat_prefix_schedule(opt.seed, opt.seconds)
                                                 : serve_sa_schedule(opt.seed, opt.seconds);
    const OpenLoopRun run = run_open_loop(eo, sched);
    const Analysis a = analyse(run, sched, spec, r);
    e.ttft_p50_s = median(a.ttft);
    e.ttft_p90_s = percentile(a.ttft, 0.9);
    e.tpot_p50_s = median(a.tpot);
    e.tpot_p90_s = percentile(a.tpot, 0.9);
    e.goodput_frac = static_cast<double>(a.good) / static_cast<double>(sched.size());
    e.prefill_s_p50 = median(a.compute);
    e.prefill_tok_per_s = a.computed_tokens / std::max(1e-12, sum(a.compute));
    route_probe(spec, eo, e, r);
    add_end_to_end(r, e);
    note_samples(r, "ttft", a.ttft.size());
    note_samples(r, "tpot", a.tpot.size());
    r.note("sent", static_cast<double>(sched.size()));
    r.note("loadgen.lag_s_p90", percentile(a.lag, 0.9));
    r.note("prefix_hit_token_frac", a.prompt_tokens > 0.0
                                        ? static_cast<double>(run.res.kv_prefix_hit_tokens) / a.prompt_tokens
                                        : 0.0);
    return r;
  }

  // Traced run: the same schedule twice at half length, untraced then
  // traced, each on a freshly set-up engine.
  obs::set_enabled(false);
  const double half = 0.5 * opt.seconds;
  const std::vector<Arrival> sched = spec.chat ? chat_prefix_schedule(opt.seed, half)
                                               : serve_sa_schedule(opt.seed, half);
  setup_engine(spec, eo, 1);
  const OpenLoopRun base_run = run_open_loop(eo, sched);
  const Analysis base = analyse(base_run, sched, spec, r);

  EngineOptions teo = engine_options(spec, opt.seed);
  setup_engine(spec, teo, 1);
  obs::Collector::global().reset();
  obs::MetricsRegistry::global().reset();
  obs::set_enabled(true);
  const OpenLoopRun run = run_open_loop(teo, sched);
  const TraceDigest t = collect_trace();
  obs::set_enabled(false);
  const Analysis a = analyse(run, sched, spec, r);
  const Roofline roof = measure_roofline(ThreadPool::global().size());

  LayerValues v;
  add_kernel_layers(t, histogram_sum("kernel.sparse_flash.score_evals"), teo.head_dim,
                    roof.fma_gflops, v);
  const EngineResult& res = run.res;
  v["runtime.engine.queue_s_p50"] = median(a.queue);
  v["runtime.engine.compute_s_p50"] = median(a.compute);
  v["runtime.engine.guard_share"] = a.engine_ttft_s > 0.0 ? a.guard_s / a.engine_ttft_s : 0.0;
  v["runtime.engine.peak_live_batch"] = static_cast<double>(res.peak_live_batch);
  v["runtime.engine.iterations"] = static_cast<double>(res.iterations);
  const double loop_s = t.total_s("engine/loop");
  v["runtime.engine.loop_busy_share"] = loop_s > 0.0 ? t.total_s("kernel/ragged_sweep") / loop_s : 0.0;
  v["runtime.batch.sweep_s_p50"] = median(t.durations_s("kernel/ragged_sweep"));
  const auto sweeps = static_cast<double>(t.count("kernel/ragged_sweep"));
  v["runtime.batch.seqs_per_sweep"] =
      sweeps > 0.0 ? static_cast<double>(t.count("seq/prefill_chunk") + t.count("seq/decode_step")) / sweeps
                   : 0.0;
  v["runtime.kv_page.prefix_hit_token_frac"] =
      a.prompt_tokens > 0.0 ? static_cast<double>(res.kv_prefix_hit_tokens) / a.prompt_tokens : 0.0;
  v["runtime.kv_page.prefix_hits"] = static_cast<double>(res.kv_prefix_hits);
  v["runtime.kv_page.pages_peak"] = static_cast<double>(res.kv_pages_peak);
  v["runtime.kv_page.peak_kv_bytes"] = res.peak_kv_bytes;
  v["runtime.kv_page.prefix_index_bytes"] = run.prefix_index_bytes;
  v["loadgen.lag_s_p90"] = percentile(base.lag, 0.9);
  v["obs.trace_overhead_frac"] = median(a.ttft) / median(base.ttft) - 1.0;
  add_layer_metrics(r, v);
  r.note("roofline.fma_gflops", roof.fma_gflops);
  r.note("roofline.stream_gbps", roof.stream_gbps);
  write_trace_outputs(t, opt, r);
  return r;
}

}  // namespace perfbench
