// Self-tests for the benchmark's own measurement helpers (measure.hpp).
// Exit code 0 when every check holds; run.py runs this before every
// benchmark run and refuses to report figures when it fails.
#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "measure.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1, 2, ..., n
  return v;
}

void percentile_rule() {
  // 1000 samples: p99 is sample 990 and exactly 10 lie above it.
  const auto p99 = perfbench::tail_percentile(ramp(1000), 0.99);
  check(p99.has_value() && *p99 == 990.0, "p99 reported with 10 above");
  // 999 samples: p99 is sample 990 with only 9 above -> omitted.
  check(!perfbench::tail_percentile(ramp(999), 0.99).has_value(),
        "p99 omitted with 9 above");
  // Ties at the percentile do not count as lying above it.
  std::vector<double> ties(1000, 5.0);
  for (std::size_t i = 990; i < 1000; ++i) ties[i] = 6.0;
  check(perfbench::tail_percentile(ties, 0.99).value_or(0.0) == 5.0,
        "p99 of tied samples");
  ties[990] = 5.0;  // now only 9 samples exceed the tied value
  check(!perfbench::tail_percentile(ties, 0.99).has_value(),
        "p99 omitted when ties leave 9 above");
  check(perfbench::tail_percentile(ramp(20), 0.5).value_or(0.0) == 10.0,
        "p50 of 20 samples");
  check(!perfbench::tail_percentile({}, 0.5).has_value(), "empty input");
}

/// `n` samples completing at t = 1, 2, ..., n with latency `latency(t)`,
/// listed newest first.
template <typename F>
std::vector<perfbench::Sample> timed(std::size_t n, F latency) {
  std::vector<perfbench::Sample> v;
  for (std::size_t t = n; t >= 1; --t) {
    v.push_back({static_cast<double>(t), latency(static_cast<double>(t))});
  }
  return v;
}

void block_rule() {
  auto identity = [](double t) { return t; };
  // 999 samples make no block.
  check(!perfbench::block_percentile(timed(999, identity), 0.99).has_value(),
        "block p99 omitted below one block");
  // 2500 samples: blocks t in [1, 1000] and [1001, 2500] (the remainder
  // joins the last block), cut in completion order whatever the input
  // order.  Block p99s are 990 and 2485 (rank 1485 of 1500).
  check(perfbench::block_percentile(timed(2500, identity), 0.99)
                .value_or(0.0) == (990.0 + 2485.0) / 2.0,
        "block p99 is the median over completion-order blocks");
  // A slow burst over one block of three moves neither p50 nor p99.
  auto burst = [](double t) {
    const double base = std::fmod(t - 1.0, 1000.0) + 1.0;
    return t > 1000.0 && t <= 2000.0 ? base * 100.0 : base;
  };
  check(perfbench::block_percentile(timed(3000, burst), 0.99).value_or(0.0) ==
            990.0,
        "block p99 ignores a one-block burst");
  check(perfbench::block_percentile(timed(3000, burst), 0.5).value_or(0.0) ==
            500.0,
        "block p50 ignores a one-block burst");
}

void counter_deltas() {
  const perfbench::CounterMap before{{"a", 10.0}, {"b", 3.0}, {"gone", 7.0}};
  const perfbench::CounterMap after{{"a", 25.0}, {"b", 3.0}, {"new", 4.0}};
  const perfbench::CounterMap d = perfbench::counter_delta(before, after);
  check(perfbench::get_or_zero(d, "a") == 15.0, "delta of a grown counter");
  check(perfbench::get_or_zero(d, "b") == 0.0, "delta of an idle counter");
  check(perfbench::get_or_zero(d, "new") == 4.0,
        "delta of a counter registered during the run");
  check(d.count("gone") == 0, "names absent after the run are dropped");
  check(perfbench::get_or_zero(d, "missing") == 0.0, "missing name reads 0");
}

void stamp_verifier() {
  const perfbench::Stamp s{3, 12345, 7};
  std::vector<std::byte> rec(4096);
  perfbench::stamp_record(rec, s);
  check(perfbench::verify_record(rec, s), "fresh stamp verifies");
  check(!perfbench::verify_record(rec, {3, 12345, 6}), "stale version flagged");
  check(!perfbench::verify_record(rec, {2, 12345, 7}), "wrong client flagged");
  check(!perfbench::verify_record(rec, {3, 12346, 7}), "wrong record flagged");
  for (std::size_t pos : {std::size_t{0}, std::size_t{1}, std::size_t{2047},
                          std::size_t{4095}}) {
    for (unsigned bit = 0; bit < 8; bit += 7) {
      std::vector<std::byte> bad = rec;
      bad[pos] ^= static_cast<std::byte>(1u << bit);
      check(!perfbench::verify_record(bad, s), "single flipped bit flagged");
    }
    std::vector<std::byte> bad = rec;
    bad[pos] ^= std::byte{0xff};
    check(!perfbench::verify_record(bad, s), "single flipped byte flagged");
  }
  // Two records swapped within a buffer are caught by position.
  std::vector<std::byte> two(8192);
  perfbench::stamp_record(std::span(two).first(4096), {1, 0, 1});
  perfbench::stamp_record(std::span(two).last(4096), {1, 1, 1});
  check(!perfbench::verify_record(std::span(two).first(4096), {1, 1, 1}),
        "misplaced record flagged");
}

}  // namespace

int main() {
  percentile_rule();
  block_rule();
  counter_deltas();
  stamp_verifier();
  if (failures != 0) return 1;
  std::printf("perfbench selftest: ok\n");
  return 0;
}
