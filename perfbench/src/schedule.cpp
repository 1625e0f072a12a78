#include "schedule.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <utility>

#include "core/rng.h"

namespace perfbench {
namespace {

template <typename T>
void shuffle(std::vector<T>& v, sattn::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.next_u64() % i);
    std::swap(v[i - 1], v[j]);
  }
}

// n values in [0, 1), one per stratum [i/n, (i+1)/n), shuffled.
std::vector<double> stratified_uniform(std::uint64_t seed, std::uint64_t stream, Index n) {
  sattn::Rng rng = sattn::Rng(seed).fork(stream);
  std::vector<double> u(static_cast<std::size_t>(std::max<Index>(0, n)));
  for (std::size_t i = 0; i < u.size(); ++i)
    u[i] = (static_cast<double>(i) + rng.uniform()) / static_cast<double>(u.size());
  shuffle(u, rng);
  return u;
}

// Exponential inter-arrival gaps at `rate`, stratified over their quantiles.
std::vector<double> poisson_gaps(std::uint64_t seed, std::uint64_t stream, Index n, double rate) {
  std::vector<double> gaps = stratified_uniform(seed, stream, n);
  for (double& u : gaps) u = -std::log1p(-u) / rate;
  return gaps;
}

}  // namespace

std::vector<Arrival> serve_sa_schedule(std::uint64_t seed, double seconds) {
  const auto n = static_cast<Index>(std::ceil(kServeRate * seconds));
  const std::vector<double> gaps = poisson_gaps(seed, 1, n, kServeRate);
  const std::vector<double> len = stratified_uniform(seed, 2, n);
  const double span = std::log(static_cast<double>(kServeMaxTokens) / kServeMinTokens);
  std::vector<Arrival> out;
  double t = 0.0;
  for (Index i = 0; i < n; ++i) {
    const auto k = static_cast<std::size_t>(i);
    t += gaps[k];
    Arrival a;
    char id[32];
    std::snprintf(id, sizeof(id), "u%lld", static_cast<long long>(i));
    a.id = id;
    a.due_s = t;
    a.prompt_tokens = std::clamp<Index>(
        static_cast<Index>(std::lround(kServeMinTokens * std::exp(span * len[k]))),
        kServeMinTokens, kServeMaxTokens);
    out.push_back(std::move(a));
  }
  return out;
}

std::vector<Arrival> chat_prefix_schedule(std::uint64_t seed, double seconds) {
  const Index block = kChatLive * kChatTurns;
  const Index n = block * std::max<Index>(1, static_cast<Index>(std::lround(kChatRate * seconds / block)));
  std::vector<double> gaps = poisson_gaps(seed, 3, n, 1.0 / (1.0 / kChatRate - kChatMinGap));
  for (double& g : gaps) g += kChatMinGap;
  const std::vector<double> tail = stratified_uniform(seed, 4, n);
  std::vector<Arrival> out;
  double t = 0.0;
  for (Index k = 0; k < n; ++k) {
    const auto i = static_cast<std::size_t>(k);
    t += gaps[i];
    const Index c = k / block * kChatLive + k % kChatLive;
    const Index turn = k % block / kChatLive;
    Arrival a;
    char id[48];
    std::snprintf(id, sizeof(id), "c%lldt%lld", static_cast<long long>(c), static_cast<long long>(turn));
    a.id = id;
    a.due_s = t;
    const Index hist = turn * kChatTurnTokens;
    const Index tail_tokens =
        kChatTailMin + static_cast<Index>(tail[i] * static_cast<double>(kChatTailMax - kChatTailMin + 1));
    a.prompt_tokens = kChatSysTokens + hist + tail_tokens;
    a.segments.push_back({"sys", kChatSysTokens});
    if (hist > 0) a.segments.push_back({std::string("conv/") + std::to_string(c), hist});
    out.push_back(std::move(a));
  }
  return out;
}

std::vector<Index> prefill_pass_order(std::uint64_t seed, Index pass, Index n_items) {
  std::vector<Index> order(static_cast<std::size_t>(n_items));
  std::iota(order.begin(), order.end(), Index{0});
  sattn::Rng rng = sattn::Rng(seed).fork(100 + static_cast<std::uint64_t>(pass));
  shuffle(order, rng);
  return order;
}

}  // namespace perfbench
