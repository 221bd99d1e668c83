// Bench-side instrumentation for the traced run.  Every per-layer figure
// is measured from outside its layer, through public pario interfaces:
//   - TimedDevice decorates a BlockDevice and times each device op;
//   - CountingTransport decorates a cluster Transport and counts/timings
//     every ServerChannel::submit (accepted, refused as overloaded);
//   - TraceSession samples the servers' public busy gauges, runs the
//     global request Profiler, and snapshots scheduler op counts.
// None of it is armed in a timed run.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cluster/transport.hpp"
#include "device/device.hpp"
#include "obs/report.hpp"
#include "obs/reqtrace.hpp"
#include "obs/sampler.hpp"
#include "server/io_server.hpp"

namespace perfbench {

inline double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Forwards every op to `inner`; while `armed` is set, also records each
/// data op's wall time.  One scheduler worker drives each device, so the
/// sample vector's lock is uncontended.
class TimedDevice final : public pio::BlockDevice {
 public:
  TimedDevice(std::unique_ptr<pio::BlockDevice> inner,
              const std::atomic<bool>& armed)
      : inner_(std::move(inner)), armed_(armed) {}

  pio::Status read(std::uint64_t offset, std::span<std::byte> out) override {
    return timed([&] { return inner_->read(offset, out); });
  }
  pio::Status write(std::uint64_t offset,
                    std::span<const std::byte> in) override {
    return timed([&] { return inner_->write(offset, in); });
  }
  pio::Status readv(std::span<const pio::IoVec> iov) override {
    return timed([&] { return inner_->readv(iov); });
  }
  pio::Status writev(std::span<const pio::ConstIoVec> iov) override {
    return timed([&] { return inner_->writev(iov); });
  }
  pio::Status probe() override { return inner_->probe(); }
  std::uint64_t capacity() const noexcept override {
    return inner_->capacity();
  }
  const std::string& name() const noexcept override { return inner_->name(); }
  const pio::DeviceCounters& counters() const noexcept override {
    return inner_->counters();
  }

  /// Op durations (us) recorded while armed; clears the record.
  std::vector<double> take_samples() {
    std::scoped_lock lock(mutex_);
    return std::exchange(samples_us_, {});
  }

 private:
  template <typename Op>
  pio::Status timed(Op&& op) {
    if (!armed_.load(std::memory_order_relaxed)) return op();
    const double t0 = now_us();
    pio::Status st = op();
    const double us = now_us() - t0;
    std::scoped_lock lock(mutex_);
    samples_us_.push_back(us);
    return st;
  }

  std::unique_ptr<pio::BlockDevice> inner_;
  const std::atomic<bool>& armed_;
  std::mutex mutex_;
  std::vector<double> samples_us_;
};

/// ServerChannel::submit accounting shared by every channel of one
/// CountingTransport.
struct SubmitCounters {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> overloaded{0};
  std::atomic<std::uint64_t> wall_ns{0};
};

class CountingChannel final : public pio::cluster::ServerChannel {
 public:
  CountingChannel(std::unique_ptr<pio::cluster::ServerChannel> inner,
                  SubmitCounters& counters)
      : inner_(std::move(inner)), counters_(counters) {}

  pio::Result<pio::server::Future> submit(pio::server::RequestOp op) override {
    const auto t0 = std::chrono::steady_clock::now();
    auto result = inner_->submit(std::move(op));
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    counters_.calls.fetch_add(1, std::memory_order_relaxed);
    counters_.wall_ns.fetch_add(static_cast<std::uint64_t>(ns),
                                std::memory_order_relaxed);
    if (result.ok()) {
      counters_.accepted.fetch_add(1, std::memory_order_relaxed);
    } else if (result.code() == pio::Errc::overloaded) {
      counters_.overloaded.fetch_add(1, std::memory_order_relaxed);
    }
    return result;
  }
  pio::Result<pio::server::FileToken> open(const std::string& name) override {
    return inner_->open(name);
  }
  pio::Status close(pio::server::FileToken file) override {
    return inner_->close(file);
  }
  pio::Status flush() override { return inner_->flush(); }
  bool detached_payloads() const override {
    return inner_->detached_payloads();
  }

 private:
  std::unique_ptr<pio::cluster::ServerChannel> inner_;
  SubmitCounters& counters_;
};

class CountingTransport final : public pio::cluster::Transport {
 public:
  explicit CountingTransport(pio::cluster::Transport& inner) : inner_(inner) {}

  std::size_t server_count() const override { return inner_.server_count(); }
  pio::Result<std::unique_ptr<pio::cluster::ServerChannel>> connect(
      std::size_t server) override {
    auto channel = inner_.connect(server);
    if (!channel.ok()) return pio::Error(channel.error());
    return std::unique_ptr<pio::cluster::ServerChannel>(
        std::make_unique<CountingChannel>(std::move(channel).take(),
                                          counters_));
  }

  SubmitCounters& counters() noexcept { return counters_; }

 private:
  pio::cluster::Transport& inner_;
  SubmitCounters counters_;
};

/// Gauge sampling, request profiling and scheduler op counts over one
/// traced phase on a set of servers.
class TraceSession {
 public:
  explicit TraceSession(std::vector<pio::server::IoServer*> servers)
      : servers_(std::move(servers)) {}
  // The sampler's series hold `this`.
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  void start() {
    ops_before_ = scheduler_ops();
    pio::obs::SamplerOptions options;
    options.period_us = 1000;
    options.trace_counters = false;
    sampler_ = std::make_unique<pio::obs::UtilizationSampler>(options);
    sampler_->add_series("dispatcher_busy", [this] {
      double sum = 0.0;
      for (auto* s : servers_) {
        sum += static_cast<double>(s->busy_dispatchers()) /
               static_cast<double>(s->options().dispatchers);
      }
      return sum / static_cast<double>(servers_.size());
    });
    sampler_->add_series("worker_busy", [this] {
      double sum = 0.0;
      for (auto* s : servers_) {
        sum += static_cast<double>(s->scheduler().busy_workers()) /
               static_cast<double>(s->scheduler().worker_count());
      }
      return sum / static_cast<double>(servers_.size());
    });
    pio::obs::Profiler& profiler = pio::obs::Profiler::global();
    profiler.reset();
    profiler.set_enabled(true);
    sampler_->start();
  }

  void stop() {
    sampler_->stop();
    pio::obs::Profiler& profiler = pio::obs::Profiler::global();
    profiler.set_enabled(false);
    profile = pio::obs::build_profile_report(profiler.snapshot());
    for (const auto& s : sampler_->summary()) {
      (s.name == "dispatcher_busy" ? dispatcher_busy : worker_busy) = s.mean;
    }
    scheduler_requests = scheduler_ops() - ops_before_;
  }

  /// One Profiler interval ("queue_wait", "device", ...); zeros when no
  /// request spent time there.
  pio::obs::StageReport stage(const std::string& name) const {
    for (const auto& s : profile.stages) {
      if (s.name == name) return s;
    }
    return {};
  }

  pio::obs::ProfileReport profile;
  double dispatcher_busy = 0.0;  ///< mean busy_dispatchers / dispatchers
  double worker_busy = 0.0;      ///< mean busy_workers / workers
  /// Requests the servers' schedulers executed (a coalesced group counts
  /// each member).
  std::uint64_t scheduler_requests = 0;

 private:
  std::uint64_t scheduler_ops() const {
    std::uint64_t n = 0;
    for (auto* s : servers_) {
      for (std::uint64_t v : s->scheduler().ops_per_device()) n += v;
    }
    return n;
  }

  std::vector<pio::server::IoServer*> servers_;
  std::unique_ptr<pio::obs::UtilizationSampler> sampler_;
  std::uint64_t ops_before_ = 0;
};

}  // namespace perfbench
