// Client retry policy (DESIGN.md §10). The wire protocol is the same either
// way: a publication is one kPublishRequest that the DS stores on the RS
// before it fans out an indexed broadcast. `enabled` only decides whether the
// clients also chase losses: with it on, each request a client sends — DS
// publish, RS fetch, PBE-TS token grant, registration, metadata sync —
// carries a deadline, and expiry re-sends with capped exponential backoff and
// jitter drawn from the client's own DRBG, so retry schedules are
// deterministic per client seed. With it off (the paper's §6.1 behaviour:
// loss is detectable at the application level) a client tracks no pending
// request, draws no deadline and sends nothing from poll(). All times are in
// network-time units (logical ticks on AsyncNetwork, seconds on SimNetwork).
#pragma once

#include <cstddef>

#include "common/rng.hpp"

namespace p3s::core {

struct ReliabilityConfig {
  bool enabled = false;
  /// Base request timeout; doubles (capped) per attempt.
  double timeout = 64.0;
  double max_timeout = 1024.0;
  /// Attempts before the request is abandoned and surfaced as a failure.
  std::size_t max_attempts = 10;
  /// Subscriber heartbeat period for kMetaSyncRequest (gap detection even
  /// when no broadcast arrives at all).
  double sync_interval = 256.0;
};

/// Timeout growth per attempt.
inline constexpr double kRetryBackoff = 2.0;
/// Each deadline is scaled by a uniform factor in [1-j, 1+j] so retry storms
/// from many clients decorrelate.
inline constexpr double kRetryJitter = 0.25;
/// Consecutive sync/publish timeouts before the client assumes the DS
/// restarted and re-establishes the secure channel.
inline constexpr std::size_t kReconnectAfter = 3;

/// Timeout for attempt `attempt` (0-based): min(timeout·kRetryBackoff^attempt,
/// max_timeout), jittered by one draw from `rng`.
double retry_timeout(const ReliabilityConfig& config, std::size_t attempt,
                     Rng& rng);

}  // namespace p3s::core
