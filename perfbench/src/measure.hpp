// Measurement helpers of the benchmark, kept free of any pario type so the
// self-tests can pin them directly:
//   - the tail percentile rule (a percentile is reported only when at
//     least kMinTail samples lie above it);
//   - block percentiles: the median, over consecutive blocks of
//     kBlockSamples latencies in completion order, of each block's
//     percentile;
//   - per-run counter deltas over registry snapshots;
//   - record stamps: every record the benchmark writes carries (client,
//     record, version), and every record it reads back is checked against
//     the version the benchmark last had acknowledged.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------ percentiles

/// A percentile is reported only when this many samples lie above it.
inline constexpr std::size_t kMinTail = 10;

/// Nearest-rank q-quantile of `sorted` (ascending), or nullopt when fewer
/// than kMinTail samples are strictly greater than it.
inline std::optional<double> tail_percentile(const std::vector<double>& sorted,
                                             double q) {
  if (sorted.empty()) return std::nullopt;
  const auto n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  const double value = sorted[rank - 1];
  const auto above = static_cast<std::size_t>(
      sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), value));
  if (above < kMinTail) return std::nullopt;
  return value;
}

/// Median of `v` (0 when empty).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// One successful op: when it completed and how long it took.
struct Sample {
  double done_us = 0.0;
  double latency_us = 0.0;
};

/// Latencies per block of block_percentile: enough for the tail rule at
/// p99 (exactly kMinTail above it when no two latencies tie).
inline constexpr std::size_t kBlockSamples = 1000;

/// Cuts `samples`, in completion order, into consecutive blocks of
/// kBlockSamples (the remainder joins the last block) and returns the
/// median over the blocks of each block's q-quantile, counting only blocks
/// where the quantile passes the tail rule; nullopt when none does.  Every
/// block holds the same number of samples however fast the run went, so
/// the estimator does not change with the host's speed, and a disturbance
/// that covers fewer than half the blocks does not move it.
inline std::optional<double> block_percentile(std::vector<Sample> samples,
                                              double q) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.done_us < b.done_us;
            });
  const std::size_t blocks = samples.size() / kBlockSamples;
  std::vector<double> per_block;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t end =
        b + 1 == blocks ? samples.size() : (b + 1) * kBlockSamples;
    std::vector<double> lat;
    for (std::size_t i = b * kBlockSamples; i < end; ++i) {
      lat.push_back(samples[i].latency_us);
    }
    std::sort(lat.begin(), lat.end());
    if (const auto v = tail_percentile(lat, q)) per_block.push_back(*v);
  }
  if (per_block.empty()) return std::nullopt;
  return median(std::move(per_block));
}

// --------------------------------------------------------- counter deltas

/// name -> value, as flattened from a registry snapshot.
using CounterMap = std::map<std::string, double>;

/// after - before for every name in `after`; a name absent from `before`
/// was registered during the run and started at zero.
inline CounterMap counter_delta(const CounterMap& before,
                                const CounterMap& after) {
  CounterMap delta;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    delta[name] = value - (it == before.end() ? 0.0 : it->second);
  }
  return delta;
}

inline double get_or_zero(const CounterMap& m, const std::string& name) {
  const auto it = m.find(name);
  return it == m.end() ? 0.0 : it->second;
}

// ----------------------------------------------------------------- stamps

/// Identity of one record's content.
struct Stamp {
  std::uint32_t client = 0;
  std::uint64_t record = 0;
  std::uint32_t version = 0;
};

/// Word i of a stamped record is stamp_base(s) + i * kStampStep: every
/// word depends on the stamp and on its position, so a flipped byte, a
/// stale version and a record landing at the wrong offset all change the
/// comparison.
inline constexpr std::uint64_t kStampStep = 0x9e3779b97f4a7c15ULL;

inline std::uint64_t stamp_base(const Stamp& s) noexcept {
  std::uint64_t x = (static_cast<std::uint64_t>(s.client) << 32) ^ s.version;
  x ^= s.record * 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 29;
  return x;
}

/// Fill one record (a multiple of 8 bytes) with its stamp.
inline void stamp_record(std::span<std::byte> record, const Stamp& s) noexcept {
  std::uint64_t w = stamp_base(s);
  for (std::size_t off = 0; off + 8 <= record.size(); off += 8) {
    std::memcpy(record.data() + off, &w, 8);
    w += kStampStep;
  }
}

/// True when `record` holds exactly the content stamp_record wrote for `s`.
inline bool verify_record(std::span<const std::byte> record,
                          const Stamp& s) noexcept {
  std::uint64_t expect = stamp_base(s);
  std::uint64_t diff = 0;
  for (std::size_t off = 0; off + 8 <= record.size(); off += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, record.data() + off, 8);
    diff |= w ^ expect;
    expect += kStampStep;
  }
  return diff == 0;
}

}  // namespace perfbench
