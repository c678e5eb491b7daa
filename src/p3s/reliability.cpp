#include "p3s/reliability.hpp"

#include <algorithm>

namespace p3s::core {

double retry_timeout(const ReliabilityConfig& config, std::size_t attempt,
                     Rng& rng) {
  double t = config.timeout;
  for (std::size_t i = 0; i < attempt; ++i) {
    t = std::min(t * kRetryBackoff, config.max_timeout);
    if (t >= config.max_timeout) break;
  }
  t = std::min(t, config.max_timeout);
  constexpr std::uint64_t kBuckets = 1u << 16;
  const double u = static_cast<double>(rng.uniform(kBuckets)) /
                   static_cast<double>(kBuckets - 1);
  return t * (1.0 - kRetryJitter + 2.0 * kRetryJitter * u);
}

}  // namespace p3s::core
