// Layer probes: timed direct calls to the public functions of the pairing,
// PBE, CP-ABE and AEAD layers on the workload's own parameters (paper-scale
// pairing, 39-bit HVE vectors, the v = 10 policy, the workload's interest
// shape and payload size). Each result is the median of several calls.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workload.hpp"

namespace perfbench {

/// (metric name, median seconds) in a fixed order.
std::vector<std::pair<std::string, double>> run_probes(const Workload& workload,
                                                       std::uint64_t seed);

}  // namespace perfbench
