// perfbench: the repository benchmark's load generator.
//
//   perfbench --workload server_records|cluster_strided|cluster_parity
//             --seed N --seconds S --trace 0|1
//             [--git-sha SHA] [--source-digest HEX]
//
// --trace 0 builds the stack kSetups times (setup_s is the median), runs
// kRounds closed-loop phases of S / kRounds seconds each on the last build
// with all tracing off and prints the end-to-end metrics: throughput is the
// median over rounds, each latency percentile the block percentile
// (measure.hpp) over every sample of the run.  --trace 1
// builds the stack once with the bench-side decorators, runs an untraced
// and a traced phase of S/2 seconds each and prints the per-layer metrics
// plus the tracing overhead (the throughput difference between the two
// phases).  Either way the file is read back
// in full afterwards.  The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is non-zero when any op failed or any byte was wrong.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "layers.hpp"
#include "measure.hpp"
#include "workloads.hpp"

namespace {

using perfbench::LayerMetrics;
using perfbench::PhaseStats;

/// Stack builds per timed run; setup_s is their median.
constexpr int kSetups = 5;

/// Rounds a timed run's measured phase is split into.  Throughput is
/// reported as the median over rounds, so a disturbance from outside the
/// process that lasts less than half the run does not move it.
constexpr int kRounds = 10;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

/// Per-layer metrics and their units, in report order.
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"cluster.subrequests_per_op", "1/op"},
    {"cluster.router_cpu_us", "us"},
    {"cluster.blocked_us", "us"},
    {"cluster.submit_us", "us"},
    {"cluster.overloaded_per_op", "1/op"},
    {"cluster.staged_bytes_per_byte", "B/B"},
    {"cluster.retries_per_op", "1/op"},
    {"server.queue_wait_p95_us", "us"},
    {"server.dispatch_p95_us", "us"},
    {"server.dispatcher_busy", "ratio"},
    {"server.rejected_per_op", "1/op"},
    {"server.steal_ratio", "ratio"},
    {"iosched.sched_wait_p95_us", "us"},
    {"iosched.worker_busy", "ratio"},
    {"iosched.requests_per_op", "1/op"},
    {"iosched.coalesce_rate", "ratio"},
    {"device.busy_share", "ratio"},
    {"device.service_p50_us", "us"},
    {"device.ops_per_op", "1/op"},
    {"reliability.device_ops_per_write", "1/op"},
    {"reliability.events_per_op", "1/op"},
    {"tracing.overhead_mb_s", "MB/s"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--git-sha SHA] "
               "[--source-digest HEX]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view key = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (key == "--trace") {
      a.trace = std::string_view(v) == "1";
    } else if (key == "--git-sha") {
      a.git_sha = v;
    } else if (key == "--source-digest") {
      a.source_digest = v;
    } else {
      usage("unknown option");
    }
  }
  if (a.seconds <= 0.0) usage("bad --seconds");
  return a;
}

/// Shortest round-trip decimal form of `v`.
std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1.0e6;  // KiB -> MB
}

void print_env(const Args& a, const perfbench::Workload& w) {
  std::printf(
      "env {\"git_sha\": \"%s\", \"source_digest\": \"%s\", \"build_type\": "
      "\"%s\", \"compiler\": \"%s\", \"nproc\": %ld, \"workload\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %s, \"trace\": %d, \"setups\": %d, "
      "\"phases\": %d, \"params\": %s}\n",
      a.git_sha.c_str(), a.source_digest.c_str(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMPILER, sysconf(_SC_NPROCESSORS_ONLN), a.workload.c_str(),
      static_cast<unsigned long long>(a.seed), num(a.seconds).c_str(),
      a.trace ? 1 : 0, a.trace ? 1 : kSetups, a.trace ? 2 : kRounds,
      w.params_json().c_str());
}

/// Registry counters that moved during the phase (quantile and mean
/// entries of histograms are not additive and are left out).
void print_registry(const PhaseStats& st) {
  std::printf("registry deltas over the phase:\n");
  for (const auto& [name, value] : st.registry) {
    if (value == 0.0) continue;
    const std::string_view n = name;
    bool skip = false;
    for (std::string_view suffix : {".mean", ".p50", ".p95", ".p99", ".max"}) {
      skip = skip || (n.size() > suffix.size() &&
                      n.substr(n.size() - suffix.size()) == suffix);
    }
    if (!skip) std::printf("  %-40s %s\n", name.c_str(), num(value).c_str());
  }
}

/// Names and units of the end-to-end metrics, in report order.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"throughput_mb_s", "MB/s"}, {"read_p50_us", "us"},
    {"read_p99_us", "us"},       {"write_p50_us", "us"},
    {"write_p99_us", "us"},      {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// Latency percentiles of the whole run, appended to `values` by metric
/// name.  False when a percentile had to be omitted under the tail rule.
bool latency_metrics(const PhaseStats& st,
                     std::map<std::string, std::vector<double>>& values) {
  bool complete = true;
  for (const auto& [op, samples] : {std::pair{"read", &st.reads},
                                    std::pair{"write", &st.writes}}) {
    for (const auto& [q, label] :
         {std::pair{0.50, "p50"}, std::pair{0.99, "p99"}}) {
      const std::string name = std::string(op) + "_" + label + "_us";
      if (const auto v = perfbench::block_percentile(*samples, q)) {
        values[name].push_back(*v);
      } else {
        std::printf(
            "%s omitted: no block of %zu %s samples has %zu above it\n",
            name.c_str(), perfbench::kBlockSamples, op, perfbench::kMinTail);
        complete = false;
      }
    }
  }
  return complete;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// The result line: the last line of stdout.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

int timed_run(const Args& a) {
  std::map<std::string, std::vector<double>> values;
  std::unique_ptr<perfbench::Workload> w;
  for (int k = 0; k < kSetups; ++k) {
    w.reset();  // tear the previous stack down, untimed
    w = perfbench::make_workload(a.workload, a.seed, false);
    const double t0 = perfbench::now_us();
    const pio::Status st = w->setup();
    values["setup_s"].push_back((perfbench::now_us() - t0) / 1.0e6);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n",
                   st.error().to_string().c_str());
      return 1;
    }
  }
  print_env(a, *w);

  PhaseStats total;
  for (int r = 0; r < kRounds; ++r) {
    const PhaseStats st = w->run(a.seconds / kRounds, nullptr);
    values["throughput_mb_s"].push_back(st.throughput_mb_s());
    total.merge(st);
  }
  const bool complete = latency_metrics(total, values);
  const auto [checked, wrong] = w->verify_all();
  values["peak_rss_mb"].push_back(peak_rss_mb());

  std::vector<Metric> metrics;
  for (const auto& [name, unit] : kEndToEnd) {
    const std::vector<double>& v = values[name];
    if (v.empty()) continue;
    metrics.push_back({name, unit, perfbench::median(v)});
    std::printf("%-16s %-22s %-5s  each:", name.c_str(),
                num(metrics.back().value).c_str(), unit.c_str());
    for (double x : v) std::printf(" %.6g", x);
    std::printf("\n");
  }
  std::printf("%-16s %-22s %-5s  (%llu of %llu ops failed)\n", "error_rate",
              num(static_cast<double>(total.failed) /
                  static_cast<double>(total.attempted))
                  .c_str(),
              "ratio", static_cast<unsigned long long>(total.failed),
              static_cast<unsigned long long>(total.attempted));
  std::printf(
      "samples: %zu reads, %zu writes over %d rounds; latency percentiles "
      "are medians over blocks of %zu\n",
      total.reads.size(), total.writes.size(), kRounds,
      perfbench::kBlockSamples);
  std::printf("final read-back: %llu records checked, %llu wrong\n",
              static_cast<unsigned long long>(checked),
              static_cast<unsigned long long>(wrong));
  print_registry(total);

  if (!complete) {
    std::fprintf(stderr, "perfbench: a latency percentile was omitted\n");
    return 1;
  }
  const bool correct = total.failed == 0 && wrong == 0;
  print_result(correct, total.attempted + checked, total.failed + wrong,
               metrics);
  return correct ? 0 : 1;
}

int traced_run(const Args& a) {
  auto w = perfbench::make_workload(a.workload, a.seed, true);
  if (const pio::Status st = w->setup(); !st.ok()) {
    std::fprintf(stderr, "perfbench: setup failed: %s\n",
                 st.error().to_string().c_str());
    return 1;
  }
  print_env(a, *w);

  const PhaseStats plain = w->run(a.seconds / 2.0, nullptr);
  LayerMetrics layers;
  const PhaseStats traced = w->run(a.seconds / 2.0, &layers);
  layers["tracing.overhead_mb_s"] =
      plain.throughput_mb_s() - traced.throughput_mb_s();
  const auto [checked, wrong] = w->verify_all();

  std::printf("untraced phase: %s MB/s over %llu ops\n",
              num(plain.throughput_mb_s()).c_str(),
              static_cast<unsigned long long>(plain.ops()));
  std::printf("traced phase:   %s MB/s over %llu ops\n",
              num(traced.throughput_mb_s()).c_str(),
              static_cast<unsigned long long>(traced.ops()));
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : kLayerMetrics) {
    metrics.push_back({name, unit, layers.at(name)});
    std::printf("%-36s %s %s\n", name.c_str(),
                num(metrics.back().value).c_str(), unit.c_str());
  }
  std::printf("final read-back: %llu records checked, %llu wrong\n",
              static_cast<unsigned long long>(checked),
              static_cast<unsigned long long>(wrong));
  print_registry(traced);

  const std::uint64_t failed = plain.failed + traced.failed + wrong;
  const bool correct = failed == 0;
  print_result(correct, plain.attempted + traced.attempted + checked, failed,
               metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (!perfbench::make_workload(a.workload, a.seed, false)) {
    usage("unknown --workload");
  }
  return a.trace ? traced_run(a) : timed_run(a);
}
