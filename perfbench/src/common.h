// Shared pieces of the benchmark driver: run options, the result record and
// its JSON output, sample statistics, span digestion for the traced pass,
// host probes (peak RSS, FMA/stream roofline) and the output-quality
// reference. The library is used only through its public headers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "attention/masks.h"
#include "core/tensor.h"
#include "obs/trace.h"

namespace perfbench {

using sattn::Index;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // traced runs write their Chrome trace and layer table here
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// One run's outcome. `failed` counts operations that were shed, cancelled,
// rejected or failed a check; `correct` turns false only on a check failure
// (a broken invariant or a bad output), which also makes the driver exit
// non-zero.
struct RunResult {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> meta;  // key -> JSON value text
  std::vector<std::string> errors;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& key, double value);
  void note(const std::string& key, const std::string& text);
  void check(bool ok, const std::string& what);  // records a violation when !ok
};

// Prints the meta line, any errors, and the final result line on stdout.
void print_result(const RunResult& r);

// The end-to-end metrics every workload reports in an untraced run (the
// `end_to_end` list of BENCHMARK.json). success_frac and peak_rss_mb are
// filled in by add_end_to_end from the result and the process.
struct EndToEnd {
  double setup_s = 0.0;
  double ttft_p50_s = 0.0, ttft_p90_s = 0.0;
  double tpot_p50_s = 0.0, tpot_p90_s = 0.0;
  double goodput_frac = 0.0;
  double prefill_s_p50 = 0.0;
  double prefill_tok_per_s = 0.0;
  double cra_min = 0.0;
  double out_rel_err_max = 0.0;
};
void add_end_to_end(RunResult& r, const EndToEnd& e);

// The per-layer metrics every workload reports in a traced run (the
// `per_layer` list of BENCHMARK.json, in that order). A layer the workload
// bypasses reads 0.
using LayerValues = std::map<std::string, double>;
void add_layer_metrics(RunResult& r, const LayerValues& v);

// Steady-clock seconds.
double now_s();

// Sample statistics. percentile() is nearest-rank (value at rank ceil(q*n)),
// so it is always an observed sample; both return 0 for an empty sample.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }
double sum(const std::vector<double>& v);

// Records "<key>.n" and "<key>.beyond_p90" (samples ranked above the p90
// sample) so every reported percentile states its sample count.
void note_samples(RunResult& r, const std::string& key, std::size_t n);

// ---- Traced pass ----

// Snapshot of every completed span in the library's collector (the
// benchmark's own bench/* spans included) with parents and self times
// recovered from per-thread nesting.
struct TraceDigest {
  std::vector<sattn::obs::SpanRecord> spans;
  std::vector<int> parent;         // index into spans, -1 for roots
  std::vector<double> self_us;     // duration minus direct children
  std::vector<sattn::obs::CounterValue> counters;

  std::vector<double> durations_s(const std::string& name) const;
  double total_s(const std::string& name) const;
  std::size_t count(const std::string& name) const;
  double counter(const std::string& name) const;
};
TraceDigest collect_trace();

// Fills the sample_attention.*, attention.sparse_flash* and
// runtime.decode.step_s_p50 layer values from the spans and histograms the
// library emits. `evals` is the sparse kernel's score-evaluation count and
// `head_dim` the head width it ran at; `fma_gflops` is the host peak.
void add_kernel_layers(const TraceDigest& t, double evals, Index head_dim, double fma_gflops,
                       LayerValues& v);

// Mean of a library histogram recorded during the traced pass (0 if empty).
double histogram_mean(const std::string& name);
double histogram_sum(const std::string& name);

// Writes <out_dir>/trace_<workload>_<seed>.json (Chrome trace-event format,
// parents and request ids in args) and layers_<workload>_<seed>.txt (self
// time per span name), and prints the layer table.
void write_trace_outputs(const TraceDigest& t, const Options& opt, RunResult& r);

// ---- Host probes ----

double peak_rss_mb();

struct Roofline {
  double fma_gflops = 0.0;   // all pool threads, on the active SIMD backend
  double stream_gbps = 0.0;  // triad a = b + s*c, bytes counted as 3 x 4 per element
};
Roofline measure_roofline(unsigned threads);

// ---- Output quality ----

// Fixed row sample of a square causal input: 47 evenly spaced rows plus
// the last row.
std::vector<Index> quality_rows(Index sq);

bool all_finite(const sattn::Matrix& m);

// Largest relative L2 error over `rows` between out and exact causal
// softmax attention computed in double precision by the benchmark itself
// (shares no code with the library's kernels). Errors below the float32
// resolution floor kRelErrFloor read as the floor, so an exact route
// reports a steady non-zero value.
inline constexpr double kRelErrFloor = 1e-5;
double max_rel_err_vs_exact(const sattn::AttentionInput& in, const sattn::Matrix& out,
                            const std::vector<Index>& rows);

}  // namespace perfbench
