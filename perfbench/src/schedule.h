// Seeded workload inputs. Everything a run feeds the library is generated
// here from --seed (and --seconds), so the same seed gives the same inputs
// and `perfbench_driver --dump-schedule` can print them for the tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/scheduler.h"

namespace perfbench {

using sattn::Index;

// One open-loop request: it is due `due_s` seconds after the load
// generator starts.
struct Arrival {
  std::string id;
  double due_s = 0.0;
  Index prompt_tokens = 0;
  std::vector<sattn::ContentSegment> segments;
};

// Random draws below are stratified (one per quantile stratum, shuffled):
// gaps are still exponential and lengths log-uniform, but every run offers
// the same rate and length quantiles, which keeps medians steady.

// serve_sa: independent users with private prompts, log-uniform
// 512-4096 tokens, Poisson arrivals at kServeRate for `seconds`. The rate is
// about a quarter of the SampleAttention-mode saturation rate of a 4-core
// host: at half saturation, queueing made TTFT percentiles move by more than
// a quarter between runs.
inline constexpr double kServeRate = 2.5;  // req/s
inline constexpr Index kServeMinTokens = 512, kServeMaxTokens = 4096;
std::vector<Arrival> serve_sa_schedule(std::uint64_t seed, double seconds);

// chat_prefix: one stream of kChatRate turns/s shared by conversations,
// kChatLive of them live at a time. Each block of kChatLive * kChatTurns
// consecutive arrivals serves kChatLive conversations round-robin, so turn t
// of a conversation is due kChatLive arrivals after turn t-1 (kChatLive /
// kChatRate seconds on average) and prompts
//   [sys: kChatSysTokens][conv/<c>: t * kChatTurnTokens][private tail].
// A gap is kChatMinGap plus an exponential draw. Turns that met in the engine
// (plain Poisson gaps below ~0.1 s, about one turn in nine) queued behind each
// other, which put ttft_p90_s on the knee between queued and lone turns and
// moved it between seeds by nearly its whole bound; the floor keeps turns
// apart, so TTFT is the service path: prefix lookup and attach, the private
// prefill, the cache fill and the prefix publish.
inline constexpr Index kChatSysTokens = 2048;
inline constexpr Index kChatTurnTokens = 256;
inline constexpr Index kChatTurns = 5;
inline constexpr Index kChatLive = 5;
inline constexpr double kChatRate = 2.5;  // turns/s
inline constexpr double kChatMinGap = 0.15;  // seconds
inline constexpr Index kChatTailMin = 64, kChatTailMax = 192;
std::vector<Arrival> chat_prefix_schedule(std::uint64_t seed, double seconds);

// prefill_longctx: the order in which one closed-loop pass visits its
// n_items (head, length) items.
std::vector<Index> prefill_pass_order(std::uint64_t seed, Index pass, Index n_items);

}  // namespace perfbench
