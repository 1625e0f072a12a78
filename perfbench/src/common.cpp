#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "core/simd.h"
#include "obs/metrics.h"

namespace perfbench {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void RunResult::note(const std::string& key, double value) { meta.emplace_back(key, json_number(value)); }

void RunResult::note(const std::string& key, const std::string& text) {
  meta.emplace_back(key, std::string("\"") + json_escape(text) + "\"");
}

void RunResult::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  errors.push_back(what);
}

void print_result(const RunResult& r) {
  std::string meta = "{";
  for (std::size_t i = 0; i < r.meta.size(); ++i) {
    if (i) meta += ", ";
    meta += std::string("\"") + json_escape(r.meta[i].first) + "\": " + r.meta[i].second;
  }
  meta += "}";
  std::printf("meta %s\n", meta.c_str());
  for (const std::string& e : r.errors) std::printf("check failed: %s\n", e.c_str());

  std::string line = "{\"correct\": ";
  line += r.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i) line += ", ";
    line += std::string("\"") + json_escape(m.name) + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void add_end_to_end(RunResult& r, const EndToEnd& e) {
  const double success =
      r.attempted > 0 ? 1.0 - static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 0.0;
  r.add("setup_s", e.setup_s, "s");
  r.add("ttft_p50_s", e.ttft_p50_s, "s");
  r.add("ttft_p90_s", e.ttft_p90_s, "s");
  r.add("tpot_p50_s", e.tpot_p50_s, "s");
  r.add("tpot_p90_s", e.tpot_p90_s, "s");
  r.add("goodput_frac", e.goodput_frac, "frac");
  r.add("success_frac", success, "frac");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.add("prefill_s_p50", e.prefill_s_p50, "s");
  r.add("prefill_tok_per_s", e.prefill_tok_per_s, "tok/s");
  r.add("cra_min", e.cra_min, "frac");
  r.add("out_rel_err_max", e.out_rel_err_max, "ratio");
}

void add_layer_metrics(RunResult& r, const LayerValues& v) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"model.generate_s", "s"},
      {"sample_attention.stage1_s_p50", "s"},
      {"sample_attention.stage2_s_p50", "s"},
      {"sample_attention.merge_s_p50", "s"},
      {"sample_attention.plan_s_p50", "s"},
      {"sample_attention.plan_share", "frac"},
      {"sample_attention.density_mean", "frac"},
      {"sample_attention.stage1_overhead_frac", "frac"},
      {"attention.sparse_flash_s_p50", "s"},
      {"attention.sparse_flash.evals", "count"},
      {"attention.sparse_flash.evals_per_s", "1/s"},
      {"attention.sparse_flash.bytes_per_s", "B/s"},
      {"attention.sparse_flash.frac_fma_peak", "frac"},
      {"attention.sparse_vs_dense_ratio", "ratio"},
      {"runtime.engine.queue_s_p50", "s"},
      {"runtime.engine.compute_s_p50", "s"},
      {"runtime.engine.guard_share", "frac"},
      {"runtime.engine.peak_live_batch", "count"},
      {"runtime.engine.iterations", "count"},
      {"runtime.engine.loop_busy_share", "frac"},
      {"runtime.batch.sweep_s_p50", "s"},
      {"runtime.batch.seqs_per_sweep", "count"},
      {"runtime.decode.step_s_p50", "s"},
      {"runtime.kv_page.prefix_hit_token_frac", "frac"},
      {"runtime.kv_page.prefix_hits", "count"},
      {"runtime.kv_page.pages_peak", "count"},
      {"runtime.kv_page.peak_kv_bytes", "B"},
      {"runtime.kv_page.prefix_index_bytes", "B"},
      {"loadgen.lag_s_p90", "s"},
      {"obs.trace_overhead_frac", "frac"},
  };
  for (const auto& [name, unit] : kLayers) {
    const auto it = v.find(name);
    r.add(name, it == v.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : v) {
    const bool known = std::any_of(std::begin(kLayers), std::end(kLayers),
                                   [&](const auto& l) { return name == l.first; });
    r.check(known, "unlisted layer metric " + name);
  }
}

double histogram_mean(const std::string& name) {
  const auto st = sattn::obs::MetricsRegistry::global().histogram(name).stats();
  return st.count > 0 ? st.sum / static_cast<double>(st.count) : 0.0;
}

double histogram_sum(const std::string& name) {
  return sattn::obs::MetricsRegistry::global().histogram(name).stats().sum;
}

void add_kernel_layers(const TraceDigest& t, double evals, Index head_dim, double fma_gflops,
                       LayerValues& v) {
  const double plan_s = t.total_s("sattn/plan");
  const double kernel_s = t.total_s("kernel/sparse_flash");
  v["sample_attention.stage1_s_p50"] = median(t.durations_s("sattn/stage1_sampling"));
  v["sample_attention.stage2_s_p50"] = median(t.durations_s("sattn/stage2_filtering"));
  v["sample_attention.merge_s_p50"] = median(t.durations_s("sattn/merge"));
  v["sample_attention.plan_s_p50"] = median(t.durations_s("sattn/plan"));
  v["sample_attention.plan_share"] = plan_s + kernel_s > 0.0 ? plan_s / (plan_s + kernel_s) : 0.0;
  v["sample_attention.density_mean"] = histogram_mean("sattn.plan.density");
  v["sample_attention.stage1_overhead_frac"] = histogram_mean("sattn.plan.overhead_frac");
  v["attention.sparse_flash_s_p50"] = median(t.durations_s("kernel/sparse_flash"));
  v["attention.sparse_flash.evals"] = evals;
  if (kernel_s > 0.0) {
    const auto d = static_cast<double>(head_dim);
    // Work and bytes from tensor sizes: each evaluated (query, key) pair
    // costs a d-wide dot and a d-wide axpy (4d flops) and streams one K and
    // one V row (2 * d * 4 bytes, no reuse credited).
    v["attention.sparse_flash.evals_per_s"] = evals / kernel_s;
    v["attention.sparse_flash.bytes_per_s"] = 8.0 * d * evals / kernel_s;
    if (fma_gflops > 0.0)
      v["attention.sparse_flash.frac_fma_peak"] = 4.0 * d * evals / kernel_s / (fma_gflops * 1e9);
  }
  std::vector<double> steps = t.durations_s("kernel/decode");
  for (const double s : t.durations_s("seq/decode_step")) steps.push_back(s);
  v["runtime.decode.step_s_p50"] = median(steps);
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch()).count();
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::clamp(std::ceil(q * n), 1.0, n));
  return v[rank - 1];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

void note_samples(RunResult& r, const std::string& key, std::size_t n) {
  const auto rank = static_cast<std::size_t>(std::ceil(0.9 * static_cast<double>(n)));
  r.note(key + ".n", static_cast<double>(n));
  r.note(key + ".beyond_p90", static_cast<double>(n - std::min(n, rank)));
}

// ---- Traced pass ----

TraceDigest collect_trace() {
  TraceDigest t;
  auto& col = sattn::obs::Collector::global();
  t.spans = col.spans();
  t.counters = col.counters();
  const std::size_t n = t.spans.size();
  t.parent.assign(n, -1);
  t.self_us.resize(n);
  for (std::size_t i = 0; i < n; ++i) t.self_us[i] = t.spans[i].dur_us;

  // Spans of one thread nest properly: sort each thread's spans by start
  // (longer first on ties) and walk them with a stack of open ancestors.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto& x = t.spans[a];
    const auto& y = t.spans[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_us != y.start_us) return x.start_us < y.start_us;
    return x.dur_us > y.dur_us;
  });
  std::vector<std::size_t> stack;
  std::uint32_t tid = 0;
  for (const std::size_t i : order) {
    const auto& s = t.spans[i];
    if (stack.empty() || s.tid != tid) {
      stack.clear();
      tid = s.tid;
    }
    while (!stack.empty()) {
      const auto& top = t.spans[stack.back()];
      if (s.start_us >= top.start_us && s.start_us + s.dur_us <= top.start_us + top.dur_us) break;
      stack.pop_back();
    }
    if (!stack.empty()) {
      t.parent[i] = static_cast<int>(stack.back());
      t.self_us[stack.back()] -= s.dur_us;
    }
    stack.push_back(i);
  }
  for (double& x : t.self_us) x = std::max(0.0, x);
  return t;
}

std::vector<double> TraceDigest::durations_s(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans)
    if (s.name == name) out.push_back(s.dur_us * 1e-6);
  return out;
}

double TraceDigest::total_s(const std::string& name) const { return sum(durations_s(name)); }

std::size_t TraceDigest::count(const std::string& name) const {
  return static_cast<std::size_t>(
      std::count_if(spans.begin(), spans.end(), [&](const auto& s) { return s.name == name; }));
}

double TraceDigest::counter(const std::string& name) const {
  for (const auto& c : counters)
    if (c.name == name) return c.value;
  return 0.0;
}

void write_trace_outputs(const TraceDigest& t, const Options& opt, RunResult& r) {
  const std::string stem = opt.workload + "_" + std::to_string(opt.seed);
  const std::string trace_path = opt.out_dir + "/trace_" + stem + ".json";
  const std::string layer_path = opt.out_dir + "/layers_" + stem + ".txt";

  std::ofstream tf(trace_path);
  tf << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const auto& s = t.spans[i];
    if (i) tf << ",";
    tf << "\n{\"name\": \"" << json_escape(s.name) << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
       << s.tid << ", \"ts\": " << json_number(s.start_us) << ", \"dur\": " << json_number(s.dur_us)
       << ", \"args\": {\"id\": " << i << ", \"parent\": " << t.parent[i]
       << ", \"request_id\": \"" << json_escape(s.request_id)
       << "\", \"self_us\": " << json_number(t.self_us[i]) << "}}";
  }
  tf << "\n], \"otherData\": {\"workload\": \"" << json_escape(opt.workload)
     << "\", \"seed\": " << opt.seed << ", \"counters\": {";
  for (std::size_t i = 0; i < t.counters.size(); ++i) {
    if (i) tf << ", ";
    tf << "\"" << json_escape(t.counters[i].name) << "\": " << json_number(t.counters[i].value);
  }
  tf << "}}}\n";
  r.check(static_cast<bool>(tf), "could not write " + trace_path);

  struct Row {
    std::size_t count = 0;
    double total_us = 0.0, self_us = 0.0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    Row& row = rows[t.spans[i].name];
    ++row.count;
    row.total_us += t.spans[i].dur_us;
    row.self_us += t.self_us[i];
  }
  std::string table = "span                              count      total_s       self_s\n";
  for (const auto& [name, row] : rows) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%-32s %6zu %12.6f %12.6f\n", name.c_str(), row.count,
                  row.total_us * 1e-6, row.self_us * 1e-6);
    table += buf;
  }
  std::ofstream lf(layer_path);
  lf << table;
  r.check(static_cast<bool>(lf), "could not write " + layer_path);
  std::printf("per-layer self time (%s, seed %llu)\n%s", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), table.c_str());
  r.note("trace_file", trace_path);
  r.note("layer_table_file", layer_path);
}

// ---- Host probes ----

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

namespace {

constexpr int kFmaChains = 10;  // independent accumulators: enough to hide FMA latency
constexpr long long kFmaIters = 4'000'000;

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2,fma"))) double fma_loop_avx2(float seed) {
  __m256 acc[kFmaChains];
  for (int c = 0; c < kFmaChains; ++c) acc[c] = _mm256_set1_ps(seed + static_cast<float>(c));
  const __m256 a = _mm256_set1_ps(0.999999f), b = _mm256_set1_ps(1e-7f);
  for (long long i = 0; i < kFmaIters; ++i) {
    for (int c = 0; c < kFmaChains; ++c) acc[c] = _mm256_fmadd_ps(acc[c], a, b);
  }
  __m256 s = acc[0];
  for (int c = 1; c < kFmaChains; ++c) s = _mm256_add_ps(s, acc[c]);
  float out[8];
  _mm256_storeu_ps(out, s);
  double total = 0.0;
  for (const float x : out) total += x;
  return total;
}
#endif

double fma_loop_scalar(float seed) {
  float acc[kFmaChains];
  for (int c = 0; c < kFmaChains; ++c) acc[c] = seed + static_cast<float>(c);
  for (long long i = 0; i < kFmaIters; ++i) {
    for (int c = 0; c < kFmaChains; ++c) acc[c] = acc[c] * 0.999999f + 1e-7f;
  }
  double total = 0.0;
  for (const float x : acc) total += x;
  return total;
}

// Runs fn on `threads` threads at once and returns the wall seconds.
template <typename Fn>
double run_parallel(unsigned threads, Fn fn) {
  std::vector<std::thread> pool;
  const double t0 = now_s();
  for (unsigned i = 0; i < threads; ++i) pool.emplace_back([&fn, i] { fn(i); });
  for (auto& th : pool) th.join();
  return now_s() - t0;
}

}  // namespace

Roofline measure_roofline(unsigned threads) {
  Roofline r;
  threads = std::max(1u, threads);
  const bool avx2 = sattn::simd::active_level() == sattn::simd::Level::kAvx2;
  std::vector<double> sink(threads, 0.0);
  const auto loop = [&](unsigned i) {
    const float seed = 1.0f + static_cast<float>(i);
#if defined(__x86_64__) || defined(__i386__)
    if (avx2) {
      sink[i] = fma_loop_avx2(seed);
      return;
    }
#endif
    sink[i] = fma_loop_scalar(seed);
  };
  const int lanes = avx2 ? 8 : 1;
  double best_fma = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const double secs = run_parallel(threads, loop);
    const double flops = 2.0 * kFmaChains * lanes * static_cast<double>(kFmaIters) * threads;
    best_fma = std::max(best_fma, flops / secs);
  }
  r.fma_gflops = best_fma * 1e-9;
  if (!std::isfinite(sum(sink))) r.fma_gflops = 0.0;

  constexpr std::size_t kElems = std::size_t{8} << 20;  // 32 MiB per array
  std::vector<float> a(kElems, 0.0f), b(kElems, 1.0f), c(kElems, 2.0f);
  double best_bw = 0.0;
  for (int rep = 0; rep < 4; ++rep) {
    const double secs = run_parallel(threads, [&](unsigned i) {
      const std::size_t lo = kElems * i / threads, hi = kElems * (i + 1) / threads;
      for (std::size_t k = lo; k < hi; ++k) a[k] = b[k] + 0.5f * c[k];
    });
    best_bw = std::max(best_bw, 3.0 * sizeof(float) * kElems / secs);
  }
  r.stream_gbps = a[kElems / 2] == 2.0f ? best_bw * 1e-9 : 0.0;
  return r;
}

// ---- Output quality ----

std::vector<Index> quality_rows(Index sq) {
  constexpr Index kRows = 48;
  std::vector<Index> rows;
  for (Index k = 0; k + 1 < kRows; ++k) rows.push_back((2 * k + 1) * sq / (2 * (kRows - 1)));
  rows.push_back(sq - 1);
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

bool all_finite(const sattn::Matrix& m) {
  const float* p = m.data();
  const std::size_t n = static_cast<std::size_t>(m.rows()) * static_cast<std::size_t>(m.cols());
  for (std::size_t i = 0; i < n; ++i)
    if (!std::isfinite(p[i])) return false;
  return true;
}

double max_rel_err_vs_exact(const sattn::AttentionInput& in, const sattn::Matrix& out,
                            const std::vector<Index>& rows) {
  const Index d = in.head_dim(), sk = in.sk(), sq = in.sq();
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  double worst = 0.0;
  std::vector<double> logit, acc(static_cast<std::size_t>(d));
  for (const Index i : rows) {
    const Index lim = std::min(sk - 1, i + (sk - sq));  // causal: keys [0, lim]
    logit.assign(static_cast<std::size_t>(lim + 1), 0.0);
    double mx = -INFINITY;
    const auto q = in.q.row(i);
    for (Index j = 0; j <= lim; ++j) {
      const auto k = in.k.row(j);
      double s = 0.0;
      for (Index c = 0; c < d; ++c) s += static_cast<double>(q[c]) * k[c];
      logit[j] = s * scale;
      mx = std::max(mx, logit[j]);
    }
    std::fill(acc.begin(), acc.end(), 0.0);
    double z = 0.0;
    for (Index j = 0; j <= lim; ++j) {
      const double p = std::exp(logit[j] - mx);
      z += p;
      const auto v = in.v.row(j);
      for (Index c = 0; c < d; ++c) acc[c] += p * v[c];
    }
    double num = 0.0, den = 0.0;
    const auto o = out.row(i);
    for (Index c = 0; c < d; ++c) {
      const double ref = acc[c] / z;
      num += (o[c] - ref) * (o[c] - ref);
      den += ref * ref;
    }
    worst = std::max(worst, std::sqrt(num / std::max(den, 1e-300)));
  }
  return std::max(worst, kRelErrFloor);
}

}  // namespace perfbench
