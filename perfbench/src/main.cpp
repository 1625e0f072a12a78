// perfbench_driver: runs one benchmark workload against libsattn and prints
// its metrics. Normally started through perfbench/run.py, which builds it:
//
//   perfbench_driver --workload <prefill_longctx|serve_sa|chat_prefix>
//                    --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// --out-dir is required with --trace 1.
//   perfbench_driver --dump-schedule --workload <w> --seed <n> --seconds <s>
//
// The last stdout line is the result object; the line before it is `meta`
// (SIMD backend, threads, seed, host, sample counts, roofline). Exit code 0
// when every check passed, 1 on a check failure, 2 on a usage or run error.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.h"
#include "core/simd.h"
#include "core/thread_pool.h"
#include "schedule.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload <prefill_longctx|serve_sa|"
               "chat_prefix> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--dump-schedule]\n",
               msg);
  return 2;
}

void dump_schedule(const Options& opt) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"requests\": [", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed));
  if (opt.workload == "prefill_longctx") {
    const std::vector<Index> order = prefill_pass_order(opt.seed, 0, 8);
    for (std::size_t i = 0; i < order.size(); ++i)
      std::printf("%s%lld", i ? ", " : "", static_cast<long long>(order[i]));
  } else {
    const std::vector<Arrival> sched = opt.workload == "serve_sa"
                                           ? serve_sa_schedule(opt.seed, opt.seconds)
                                           : chat_prefix_schedule(opt.seed, opt.seconds);
    for (std::size_t i = 0; i < sched.size(); ++i) {
      const Arrival& a = sched[i];
      std::printf("%s{\"id\": \"%s\", \"due_s\": %.17g, \"prompt_tokens\": %lld, \"segments\": [",
                  i ? ", " : "", a.id.c_str(), a.due_s, static_cast<long long>(a.prompt_tokens));
      for (std::size_t k = 0; k < a.segments.size(); ++k)
        std::printf("%s[\"%s\", %lld]", k ? ", " : "", a.segments[k].key.c_str(),
                    static_cast<long long>(a.segments[k].tokens));
      std::printf("]}");
    }
  }
  std::printf("]}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool dump = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--dump-schedule") {
      dump = true;
    } else if (a == "--workload" && (v = next())) {
      opt.workload = v;
    } else if (a == "--seed" && (v = next())) {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds" && (v = next())) {
      opt.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace" && (v = next())) {
      opt.trace = std::string(v) == "1";
    } else if (a == "--out-dir" && (v = next())) {
      opt.out_dir = v;
    } else {
      return usage(("bad argument " + a).c_str());
    }
  }
  if (opt.workload != "prefill_longctx" && opt.workload != "serve_sa" && opt.workload != "chat_prefix")
    return usage("unknown workload");
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) return usage("--seconds must be in (0, 600]");
  if (opt.trace && opt.out_dir.empty()) return usage("--trace 1 needs --out-dir");
  if (dump) {
    dump_schedule(opt);
    return 0;
  }

  // Kernel pool + engine loop + submitter stay within nproc: the pool gets
  // nproc - 2 workers, at most 2, so every host runs the same parallelism
  // where it can. An explicit SATTN_THREADS wins.
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads = std::clamp(nproc > 2 ? nproc - 2 : 1u, 1u, 2u);
  setenv("SATTN_THREADS", std::to_string(threads).c_str(), /*overwrite=*/0);

  RunResult r;
  try {
    r = opt.workload == "prefill_longctx" ? run_prefill_longctx(opt) : run_serving(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
  char host[256] = {};
  gethostname(host, sizeof(host) - 1);
  r.note("workload", opt.workload);
  r.note("seed", static_cast<double>(opt.seed));
  r.note("seconds", opt.seconds);
  r.note("trace", opt.trace ? 1.0 : 0.0);
  r.note("simd", sattn::simd::active_level_name());
  r.note("threads", static_cast<double>(sattn::ThreadPool::global().size()));
  r.note("nproc", static_cast<double>(nproc));
  r.note("hostname", host);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  r.note("minor_page_faults", static_cast<double>(ru.ru_minflt));
  print_result(r);
  return r.correct ? 0 : 1;
}
