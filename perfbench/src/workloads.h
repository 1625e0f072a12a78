// The three workloads. Each runs for Options::seconds, checks its outputs,
// and fills a RunResult with every end-to-end metric (untraced run) or
// every per-layer metric (traced run).
#pragma once

#include "common.h"

namespace perfbench {

RunResult run_prefill_longctx(const Options& opt);
RunResult run_serving(const Options& opt);  // serve_sa and chat_prefix

}  // namespace perfbench
