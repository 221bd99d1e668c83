// The benchmark's three closed-loop workloads over pario's public entry
// points (server::Client on an IoServer, ClusterClient on a Cluster).
// Each client thread owns a disjoint record region, so every read has
// exactly one right answer; reads are checked record by record against
// the version the client last had acknowledged.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "measure.hpp"
#include "util/result.hpp"

namespace perfbench {

/// What one measured phase observed, summed over client threads.
struct PhaseStats {
  std::vector<Sample> reads;    ///< each successful read
  std::vector<Sample> writes;   ///< each successful write
  std::uint64_t attempted = 0;  ///< ops issued
  std::uint64_t failed = 0;      ///< failed, refused or wrong-bytes ops
  std::uint64_t bytes = 0;       ///< user payload bytes of successful ops
  double wall_s = 0.0;           ///< first op issued .. last op completed
  // Traced phases only: time the client threads spent inside pario calls.
  double lib_cpu_us = 0.0;   ///< calling-thread CPU time
  double lib_wall_us = 0.0;  ///< wall time
  // Traced phases only: server submit calls (ServerChannel or Client).
  std::uint64_t submit_calls = 0;
  std::uint64_t submit_accepted = 0;
  std::uint64_t submit_overloaded = 0;
  double submit_wall_us = 0.0;
  CounterMap registry;  ///< registry values as deltas over the phase(s)

  void merge(const PhaseStats& other);
  std::uint64_t ops() const { return reads.size() + writes.size(); }
  double throughput_mb_s() const {
    return wall_s > 0.0 ? static_cast<double>(bytes) / wall_s / 1.0e6 : 0.0;
  }
};

/// Outcome of the final read-back: records checked, records that did not
/// hold their latest acknowledged version.
struct ReadBack {
  std::uint64_t checked = 0;
  std::uint64_t wrong = 0;
};

/// Per-layer metric name -> value, from a traced phase.
using LayerMetrics = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Workload parameters as one JSON object (for the env block).
  virtual std::string params_json() const = 0;
  /// Build the stack, create and pre-populate the file, warm up.
  virtual pio::Status setup() = 0;
  /// One closed-loop phase of `seconds`.  With `layers` set the phase is
  /// traced and fills every per-layer metric.
  virtual PhaseStats run(double seconds, LayerMetrics* layers) = 0;
  /// Read every record back (untimed) against its latest acknowledged
  /// version.
  virtual ReadBack verify_all() = 0;
};

/// nullptr for an unknown name.  `traced` installs the bench-side
/// decorators, which stay disarmed outside traced phases.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool traced);

}  // namespace perfbench
