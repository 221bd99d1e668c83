#include "workloads.hpp"

#include <time.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <deque>
#include <functional>
#include <latch>
#include <limits>
#include <optional>
#include <thread>

#include "cluster/cluster.hpp"
#include "core/file_system.hpp"
#include "device/latency_device.hpp"
#include "device/ram_disk.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "server/client.hpp"

namespace perfbench {

void PhaseStats::merge(const PhaseStats& o) {
  reads.insert(reads.end(), o.reads.begin(), o.reads.end());
  writes.insert(writes.end(), o.writes.begin(), o.writes.end());
  attempted += o.attempted;
  failed += o.failed;
  bytes += o.bytes;
  lib_cpu_us += o.lib_cpu_us;
  lib_wall_us += o.lib_wall_us;
  submit_calls += o.submit_calls;
  submit_accepted += o.submit_accepted;
  submit_overloaded += o.submit_overloaded;
  submit_wall_us += o.submit_wall_us;
  for (const auto& [name, value] : o.registry) registry[name] += value;
}

namespace {

using pio::Status;

constexpr std::uint32_t kRecordBytes = 4096;
constexpr std::size_t kClients = 4;
constexpr const char* kFileName = "perfbench";
/// Version of a record whose last write failed: its content is unknown.
constexpr std::uint32_t kUnknown = std::numeric_limits<std::uint32_t>::max();
/// Sleep price of one op on every priced device, about one disk access.
/// Every workload is then bound by its devices, not by the CPU, and the
/// few hundred microseconds a busy host adds to a thread wake-up are a
/// small share of every op.
constexpr double kPricedOpUs = 4000.0;

/// Calling thread's CPU time in microseconds.
double thread_cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1.0e6 +
         static_cast<double>(ts.tv_nsec) / 1.0e3;
}

/// splitmix64: one client's op stream, a pure function of (seed, client).
class OpRng {
 public:
  OpRng(std::uint64_t seed, std::uint64_t client)
      : s_(seed * 0x9e3779b97f4a7c15ULL +
           (client + 1) * 0xd1b54a32d192ed03ULL) {}

  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  bool chance(double p) {
    return static_cast<double>(next() >> 11) * 0x1p-53 < p;
  }

 private:
  std::uint64_t s_;
};

/// One client's disjoint slice of the file: its first record and the
/// latest acknowledged version of every record in it.
struct Region {
  std::uint32_t client = 0;
  std::uint64_t first = 0;
  std::vector<std::uint32_t> version;
};

/// Records [first, first + n) of `region` (offsets relative to the region)
/// as a contiguous buffer, each stamped with its current version.
void stamp_range(const Region& region, std::uint64_t rel, std::uint64_t n,
                 std::span<std::byte> buf) {
  for (std::uint64_t i = 0; i < n; ++i) {
    stamp_record(buf.subspan(i * kRecordBytes, kRecordBytes),
                 {region.client, region.first + rel + i,
                  region.version[rel + i]});
  }
}

/// Records of a contiguous read that differ from their acknowledged
/// version (records of unknown content are skipped).
std::uint64_t check_range(const Region& region, std::uint64_t rel,
                          std::uint64_t n, std::span<const std::byte> buf) {
  std::uint64_t bad = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint32_t v = region.version[rel + i];
    if (v == kUnknown) continue;
    if (!verify_record(buf.subspan(i * kRecordBytes, kRecordBytes),
                       {region.client, region.first + rel + i, v})) {
      ++bad;
    }
  }
  return bad;
}

/// Write every record of `regions` with its current version, `chunk`
/// records per call of write(first, count, bytes).
template <typename WriteFn>
Status populate(const std::vector<Region>& regions, std::uint64_t chunk,
                WriteFn&& write) {
  std::vector<std::byte> buf(chunk * kRecordBytes);
  for (const Region& r : regions) {
    for (std::uint64_t rel = 0; rel < r.version.size(); rel += chunk) {
      stamp_range(r, rel, chunk, buf);
      PIO_TRY(write(r.first + rel, chunk, std::span<const std::byte>(buf)));
    }
  }
  return pio::ok_status();
}

/// Read every record of `regions` back, `chunk` records per call of
/// read(first, count, bytes), and check each against its version.
template <typename ReadFn>
ReadBack read_back(const std::vector<Region>& regions, std::uint64_t chunk,
                   ReadFn&& read) {
  std::vector<std::byte> buf(chunk * kRecordBytes);
  ReadBack rb;
  for (const Region& r : regions) {
    for (std::uint64_t rel = 0; rel < r.version.size(); rel += chunk) {
      rb.checked += chunk;
      rb.wrong += read(r.first + rel, chunk, std::span<std::byte>(buf)).ok()
                      ? check_range(r, rel, chunk, buf)
                      : chunk;
    }
  }
  return rb;
}

CounterMap registry_snapshot() {
  CounterMap m;
  for (const auto& s : pio::obs::MetricsRegistry::global().snapshot()) {
    m[s.name] = s.value;
  }
  return m;
}

/// When a client loop stops issuing ops.
struct Until {
  double deadline_us = 0.0;
  std::uint64_t max_ops = 0;
  bool more(std::uint64_t issued) const {
    return issued < max_ops && now_us() < deadline_us;
  }
};

/// Run `body(client, until, stats)` on kClients threads released at once;
/// the phase's wall time runs from the release to the last thread's end.
PhaseStats run_clients(
    double seconds, std::uint64_t max_ops,
    const std::function<void(std::size_t, const Until&, PhaseStats&)>& body) {
  std::vector<PhaseStats> each(kClients);
  std::vector<double> end_us(kClients, 0.0);
  std::latch go(1);
  Until until;
  until.max_ops = max_ops;
  const CounterMap before = registry_snapshot();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      go.wait();
      body(c, until, each[c]);
      end_us[c] = now_us();
    });
  }
  const double start_us = now_us();
  until.deadline_us = start_us + seconds * 1.0e6;
  go.count_down();
  for (std::thread& t : threads) t.join();

  PhaseStats stats;
  for (const PhaseStats& p : each) stats.merge(p);
  stats.wall_s =
      (*std::max_element(end_us.begin(), end_us.end()) - start_us) / 1.0e6;
  stats.registry = counter_delta(before, registry_snapshot());
  return stats;
}

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer metrics every workload derives the same way.
void common_layers(const PhaseStats& st, const TraceSession& ts,
                   LayerMetrics& m) {
  const auto ops = static_cast<double>(st.ops());
  const CounterMap& d = st.registry;
  auto c = [&](const char* name) { return get_or_zero(d, name); };
  m["cluster.subrequests_per_op"] =
      per(static_cast<double>(st.submit_accepted), ops);
  m["cluster.router_cpu_us"] = per(st.lib_cpu_us, ops);
  m["cluster.blocked_us"] = per(st.lib_wall_us - st.lib_cpu_us, ops);
  m["cluster.submit_us"] =
      per(st.submit_wall_us, static_cast<double>(st.submit_calls));
  m["cluster.overloaded_per_op"] =
      per(static_cast<double>(st.submit_overloaded), ops);
  m["cluster.staged_bytes_per_byte"] =
      per(c("cluster.staged_bytes"), static_cast<double>(st.bytes));
  m["cluster.retries_per_op"] =
      per(c("cluster.retries") + c("cluster.overload_retries"), ops);
  m["server.queue_wait_p95_us"] = ts.stage("queue_wait").p95_us;
  m["server.dispatcher_busy"] = ts.dispatcher_busy;
  m["server.rejected_per_op"] = per(c("server.rejected"), ops);
  m["server.steal_ratio"] = per(c("server.stolen"), c("server.accepted"));
  m["iosched.sched_wait_p95_us"] = ts.stage("sched_wait").p95_us;
  m["iosched.worker_busy"] = ts.worker_busy;
  m["iosched.requests_per_op"] = per(c("iosched.enqueued"), ops);
  m["iosched.coalesce_rate"] =
      per(c("iosched.coalesced"), c("iosched.enqueued"));
  m["reliability.events_per_op"] =
      per(c("reliability.retries") + c("reliability.transient_errors") +
              c("reliability.degraded_reads") +
              c("reliability.degraded_writes"),
          ops);
}

// ===================================================== server_records

/// One IoServer over 8 sleep-priced devices; 4 async clients keep 8
/// one-track record ops each in flight on random slots of their region.
class ServerRecords final : public Workload {
 public:
  static constexpr std::size_t kDevices = 8;
  static constexpr double kDeviceOpUs = kPricedOpUs;
  static constexpr std::uint64_t kTrackBytes = 24 * 1024;
  static constexpr std::uint64_t kRecordsPerOp = kTrackBytes / kRecordBytes;
  static constexpr std::uint64_t kSlots = 64;  // per client
  static constexpr std::size_t kWindow = 8;
  static constexpr std::size_t kDispatchers = 2;
  static constexpr std::uint64_t kDeviceBytes = 5ull << 20;
  static constexpr std::uint64_t kWarmupOps = 128;  // per client
  /// Slots drawn in the last kRecent ops of a client are not drawn again.
  static constexpr std::size_t kRecent = 16;
  /// Records per pre-population / read-back transfer: one per device.
  static constexpr std::uint64_t kRow = kDevices * kRecordsPerOp;

  ServerRecords(std::uint64_t seed, bool traced) : traced_(traced) {
    for (std::size_t c = 0; c < kClients; ++c) {
      clients_.emplace_back(OpRng(seed, c));
      Region r;
      r.client = static_cast<std::uint32_t>(c);
      r.first = c * kSlots * kRecordsPerOp;
      r.version.assign(kSlots * kRecordsPerOp, 0);
      regions_.push_back(std::move(r));
    }
  }

  ~ServerRecords() override {
    if (server_) (void)server_->shutdown();
  }

  std::string params_json() const override {
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"clients\": %zu, \"window\": %zu, \"dispatchers\": %zu, "
                  "\"devices\": %zu, \"device_op_us\": %.0f, "
                  "\"record_bytes\": %u, \"op_bytes\": %llu, "
                  "\"slots_per_client\": %llu, \"read_share\": 0.5}",
                  kClients, kWindow, kDispatchers, kDevices, kDeviceOpUs,
                  kRecordBytes, static_cast<unsigned long long>(kTrackBytes),
                  static_cast<unsigned long long>(kSlots));
    return buf;
  }

  Status setup() override {
    for (std::size_t d = 0; d < kDevices; ++d) {
      std::unique_ptr<pio::BlockDevice> dev =
          std::make_unique<pio::LatencyDevice>(
              std::make_unique<pio::RamDisk>("ram" + std::to_string(d),
                                             kDeviceBytes),
              kDeviceOpUs);
      if (traced_) {
        auto timed = std::make_unique<TimedDevice>(std::move(dev), armed_);
        timed_.push_back(timed.get());
        dev = std::move(timed);
      }
      devices_.add(std::move(dev));
    }
    PIO_TRY_ASSIGN(fs_, pio::FileSystem::format(devices_));
    pio::CreateOptions create;
    create.name = kFileName;
    create.organization = pio::Organization::sequential;
    create.record_bytes = kRecordBytes;
    create.capacity_records = kClients * kSlots * kRecordsPerOp;
    create.stripe_unit = kTrackBytes;
    if (auto file = fs_->create(create); !file.ok()) {
      return pio::Error(file.error());
    }
    pio::server::IoServerOptions options;
    options.dispatchers = kDispatchers;
    server_ = std::make_unique<pio::server::IoServer>(*fs_, devices_, options);

    // Pre-populate every record with version 0, one device row at a time.
    PIO_TRY_ASSIGN(auto client, pio::server::Client::connect(*server_));
    PIO_TRY_ASSIGN(auto token, client.open(kFileName));
    PIO_TRY(populate(regions_, kRow, [&](auto first, auto n, auto buf) {
      return client.write_records(token, first, n, buf);
    }));
    const PhaseStats warm = phase(1.0e9, kWarmupOps, false);
    if (warm.failed != 0) {
      return pio::make_error(pio::Errc::internal, "warm-up ops failed");
    }
    return pio::ok_status();
  }

  PhaseStats run(double seconds, LayerMetrics* layers) override {
    if (layers == nullptr) {
      return phase(seconds, std::numeric_limits<std::uint64_t>::max(), false);
    }
    TraceSession ts({server_.get()});
    for (TimedDevice* t : timed_) (void)t->take_samples();
    armed_.store(true);
    ts.start();
    PhaseStats st =
        phase(seconds, std::numeric_limits<std::uint64_t>::max(), true);
    ts.stop();
    armed_.store(false);

    LayerMetrics& m = *layers;
    common_layers(st, ts, m);
    m["server.dispatch_p95_us"] = ts.stage("dispatch").p95_us +
                                  ts.stage("plan").p95_us +
                                  ts.stage("handoff").p95_us;
    std::vector<double> samples;
    for (TimedDevice* t : timed_) {
      const std::vector<double> s = t->take_samples();
      samples.insert(samples.end(), s.begin(), s.end());
    }
    double busy_us = 0.0;
    for (double s : samples) busy_us += s;
    const auto ops = static_cast<double>(st.ops());
    m["device.busy_share"] =
        per(busy_us, st.wall_s * 1.0e6 * static_cast<double>(kDevices));
    std::sort(samples.begin(), samples.end());
    m["device.service_p50_us"] = tail_percentile(samples, 0.5).value_or(0.0);
    m["device.ops_per_op"] = per(static_cast<double>(samples.size()), ops);
    m["reliability.device_ops_per_write"] = 0.0;  // no reliability layer
    return st;
  }

  ReadBack verify_all() override {
    auto client = pio::server::Client::connect(*server_);
    if (!client.ok()) return {0, 1};
    auto token = client->open(kFileName);
    if (!token.ok()) return {0, 1};
    return read_back(regions_, kRow, [&](auto first, auto n, auto buf) {
      return client->read_records(*token, first, n, buf);
    });
  }

 private:
  struct SlotOp {
    std::uint64_t slot = 0;
    bool write = false;
  };
  struct ClientState {
    explicit ClientState(OpRng r) : rng(r) {}

    OpRng rng;
    std::array<std::uint64_t, kRecent> recent{};
    std::size_t recent_next = 0;
    std::optional<SlotOp> pending;  ///< drawn, waiting for its slot

    SlotOp draw() {
      std::uint64_t slot = 0;
      do {
        slot = rng.below(kSlots);
      } while (std::find(recent.begin(), recent.end(), slot) != recent.end());
      recent[recent_next++ % kRecent] = slot;
      return SlotOp{slot, rng.chance(0.5)};
    }
  };
  struct InFlight {
    pio::server::Future future;
    SlotOp op;
    std::uint32_t version = 0;  ///< written, or expected by the read
    double submit_us = 0.0;
    std::size_t buf = 0;
  };

  PhaseStats phase(double seconds, std::uint64_t max_ops, bool traced) {
    std::vector<pio::server::Client> sessions;
    std::vector<pio::server::FileToken> tokens;
    for (std::size_t c = 0; c < kClients; ++c) {
      auto client = pio::server::Client::connect(*server_);
      auto token = client.ok() ? client->open(kFileName)
                               : pio::Result<pio::server::FileToken>(
                                     pio::Error(client.error()));
      if (!token.ok()) {
        PhaseStats failed;
        failed.attempted = failed.failed = 1;
        return failed;
      }
      sessions.push_back(std::move(client).take());
      tokens.push_back(*token);
    }
    return run_clients(seconds, max_ops,
                       [&](std::size_t c, const Until& until, PhaseStats& st) {
                         client_loop(sessions[c], tokens[c], regions_[c],
                                     clients_[c], until, traced, st);
                       });
  }

  void client_loop(pio::server::Client& client, pio::server::FileToken token,
                   Region& region, ClientState& cs, const Until& until,
                   bool traced, PhaseStats& st) {
    constexpr std::uint64_t kOpBytes = kRecordsPerOp * kRecordBytes;
    std::vector<std::vector<std::byte>> bufs(
        kWindow, std::vector<std::byte>(kOpBytes));
    std::vector<std::size_t> free_bufs;
    for (std::size_t b = 0; b < kWindow; ++b) free_bufs.push_back(b);
    std::vector<bool> busy(kSlots, false);
    std::deque<InFlight> window;
    std::uint64_t issued = 0;

    auto retire = [&](InFlight& f, double done_us) {
      const pio::server::Response& resp = f.future.get();
      busy[f.op.slot] = false;
      free_bufs.push_back(f.buf);
      const std::uint64_t rel = f.op.slot * kRecordsPerOp;
      if (!resp.status.ok()) {
        ++st.failed;
        if (f.op.write) {
          std::fill_n(region.version.begin() + static_cast<std::ptrdiff_t>(rel),
                      kRecordsPerOp, kUnknown);
        }
        return;
      }
      if (f.op.write) {
        std::fill_n(region.version.begin() + static_cast<std::ptrdiff_t>(rel),
                    kRecordsPerOp, f.version);
        st.writes.push_back({done_us, done_us - f.submit_us});
      } else if (check_range(region, rel, kRecordsPerOp, bufs[f.buf]) != 0) {
        ++st.failed;
        return;
      } else {
        st.reads.push_back({done_us, done_us - f.submit_us});
      }
      st.bytes += kOpBytes;
    };

    for (;;) {
      while (window.size() < kWindow && until.more(issued)) {
        if (!cs.pending) cs.pending = cs.draw();
        const SlotOp op = *cs.pending;
        if (busy[op.slot]) break;  // never two ops on one slot in flight
        cs.pending.reset();
        ++issued;
        InFlight f;
        f.op = op;
        f.buf = free_bufs.back();
        free_bufs.pop_back();
        const std::uint64_t rel = op.slot * kRecordsPerOp;
        const std::uint64_t first = region.first + rel;
        std::span<std::byte> buf = bufs[f.buf];
        pio::server::RequestOp request;
        if (op.write) {
          f.version = region.version[rel] + 1;
          for (std::uint64_t i = 0; i < kRecordsPerOp; ++i) {
            stamp_record(buf.subspan(i * kRecordBytes, kRecordBytes),
                         {region.client, first + i, f.version});
          }
          request = pio::server::WriteRecordsOp{token, first, kRecordsPerOp,
                                                buf, 0};
        } else {
          request =
              pio::server::ReadRecordsOp{token, first, kRecordsPerOp, buf};
        }
        const double cpu0 = traced ? thread_cpu_us() : 0.0;
        f.submit_us = now_us();
        auto future = client.submit(std::move(request));
        if (traced) {
          const double wall = now_us() - f.submit_us;
          st.lib_cpu_us += thread_cpu_us() - cpu0;
          st.lib_wall_us += wall;
          st.submit_wall_us += wall;
          ++st.submit_calls;
        }
        ++st.attempted;
        if (!future.ok()) {
          ++st.failed;
          if (future.code() == pio::Errc::overloaded) ++st.submit_overloaded;
          free_bufs.push_back(f.buf);
          continue;
        }
        ++st.submit_accepted;
        f.future = std::move(future).take();
        busy[op.slot] = true;
        window.push_back(std::move(f));
      }
      if (window.empty()) break;

      // Sleep on the oldest op, then retire every op that has resolved.
      const double cpu0 = traced ? thread_cpu_us() : 0.0;
      const double wait0 = traced ? now_us() : 0.0;
      (void)window.front().future.get();
      const double done_us = now_us();
      if (traced) {
        st.lib_cpu_us += thread_cpu_us() - cpu0;
        st.lib_wall_us += done_us - wait0;
      }
      retire(window.front(), done_us);
      window.pop_front();
      for (auto it = window.begin(); it != window.end();) {
        if (it->future.ready()) {
          retire(*it, done_us);
          it = window.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  bool traced_;
  std::atomic<bool> armed_{false};
  std::vector<Region> regions_;
  std::vector<ClientState> clients_;
  // Destruction order: server, then file system, then devices.
  pio::DeviceArray devices_;
  std::vector<TimedDevice*> timed_;  ///< non-owning, into devices_
  std::unique_ptr<pio::FileSystem> fs_;
  std::unique_ptr<pio::server::IoServer> server_;
};

// ============================================== cluster_strided / _parity

struct ClusterConfig {
  const char* name;
  pio::cluster::DistributionKind kind;
  std::uint64_t chunk_records;  ///< strided distribution only
  double device_op_us;          ///< 0 = unpriced RamDisk
  bool resilient;               ///< parity + ResilientArray per server
  std::uint64_t region_records;  ///< per client
  std::uint64_t device_bytes;
  bool strided_ops;  ///< ClusterWorkload::kView; else one record
  double read_share;
  std::uint64_t warmup_ops;  ///< per client
};

constexpr ClusterConfig kStridedConfig{
    "cluster_strided", pio::cluster::DistributionKind::cyclic, 1, kPricedOpUs,
    false, 512, 6ull << 20, true, 0.5, 32};
constexpr ClusterConfig kParityConfig{
    "cluster_parity", pio::cluster::DistributionKind::strided, 6, kPricedOpUs,
    true, 256, 4ull << 20, false, 0.25, 50};

/// 4 data servers x 2 devices behind a MetadataService; 4 synchronous
/// ClusterClient threads.
class ClusterWorkload final : public Workload {
 public:
  static constexpr std::size_t kServers = 4;
  static constexpr std::size_t kDevicesPerServer = 2;
  /// Strided ops: 2 groups of 4 records, stride 8 (8 records, 32 KiB).
  /// Under the cyclic distribution every record is its own sub-request.
  static constexpr pio::StridedSpec kView{0, 4, 8, 2};
  /// Records per pre-population / verification transfer; divides every
  /// config's region_records.
  static constexpr std::uint64_t kChunk = 256;

  ClusterWorkload(const ClusterConfig& cfg, std::uint64_t seed, bool traced)
      : cfg_(cfg), traced_(traced) {
    for (std::size_t c = 0; c < kClients; ++c) {
      rngs_.emplace_back(seed, c);
      Region r;
      r.client = static_cast<std::uint32_t>(c);
      r.first = c * cfg.region_records;
      r.version.assign(cfg.region_records, 0);
      regions_.push_back(std::move(r));
    }
  }

  ~ClusterWorkload() override {
    if (cluster_) (void)cluster_->shutdown();
  }

  std::string params_json() const override {
    const std::uint64_t op_records =
        cfg_.strided_ops ? kView.total_records() : 1;
    char view[128] = "null";
    if (cfg_.strided_ops) {
      std::snprintf(view, sizeof view,
                    "{\"groups\": %llu, \"block\": %llu, \"stride\": %llu}",
                    static_cast<unsigned long long>(kView.count),
                    static_cast<unsigned long long>(kView.block_records),
                    static_cast<unsigned long long>(kView.stride_records));
    }
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "{\"clients\": %zu, \"data_servers\": %zu, \"devices_per_server\": "
        "%zu, \"device_op_us\": %.0f, \"resilient\": %s, \"distribution\": "
        "\"%s\", \"chunk_records\": %llu, \"record_bytes\": %u, "
        "\"op_bytes\": %llu, \"strided_view\": %s, "
        "\"region_records\": %llu, \"read_share\": %.2f}",
        kClients, kServers, kDevicesPerServer, cfg_.device_op_us,
        cfg_.resilient ? "true" : "false",
        std::string(pio::cluster::distribution_kind_name(cfg_.kind)).c_str(),
        static_cast<unsigned long long>(cfg_.chunk_records), kRecordBytes,
        static_cast<unsigned long long>(op_records * kRecordBytes), view,
        static_cast<unsigned long long>(cfg_.region_records), cfg_.read_share);
    return buf;
  }

  Status setup() override {
    pio::cluster::ClusterOptions options;
    options.data_servers = kServers;
    options.data_server.devices = kDevicesPerServer;
    options.data_server.device_bytes = cfg_.device_bytes;
    options.data_server.device_op_cost_us = cfg_.device_op_us;
    options.data_server.resilient = cfg_.resilient;
    PIO_TRY_ASSIGN(cluster_, pio::cluster::Cluster::create(options));
    pio::cluster::ClusterCreateOptions create;
    create.name = kFileName;
    create.record_bytes = kRecordBytes;
    create.capacity_records = kClients * cfg_.region_records;
    create.distribution.kind = cfg_.kind;
    create.distribution.chunk_records = cfg_.chunk_records;
    if (auto meta = cluster_->metadata().create(create); !meta.ok()) {
      return pio::Error(meta.error());
    }
    if (traced_) {
      transport_ = std::make_unique<CountingTransport>(cluster_->transport());
    }

    PIO_TRY_ASSIGN(auto client, cluster_->connect());
    PIO_TRY_ASSIGN(auto token, client.open(kFileName));
    PIO_TRY(populate(regions_, kChunk, [&](auto first, auto n, auto buf) {
      return client.write_records(token, first, n, buf);
    }));
    const PhaseStats warm = phase(1.0e9, cfg_.warmup_ops, false);
    if (warm.failed != 0) {
      return pio::make_error(pio::Errc::internal, "warm-up ops failed");
    }
    return pio::ok_status();
  }

  PhaseStats run(double seconds, LayerMetrics* layers) override {
    const auto unbounded = std::numeric_limits<std::uint64_t>::max();
    if (layers == nullptr) return phase(seconds, unbounded, false);

    std::vector<pio::server::IoServer*> servers;
    for (std::size_t s = 0; s < kServers; ++s) {
      servers.push_back(&cluster_->data_server(s).server());
    }
    TraceSession ts(servers);
    SubmitCounters& sc = transport_->counters();
    const std::uint64_t calls0 = sc.calls.load();
    const std::uint64_t accepted0 = sc.accepted.load();
    const std::uint64_t overloaded0 = sc.overloaded.load();
    const std::uint64_t wall_ns0 = sc.wall_ns.load();
    const std::uint64_t dev0 = reliability_device_ops();
    ts.start();
    PhaseStats st = phase(seconds, unbounded, true);
    ts.stop();
    st.submit_calls = sc.calls.load() - calls0;
    st.submit_accepted = sc.accepted.load() - accepted0;
    st.submit_overloaded = sc.overloaded.load() - overloaded0;
    st.submit_wall_us =
        static_cast<double>(sc.wall_ns.load() - wall_ns0) / 1.0e3;

    LayerMetrics& m = *layers;
    common_layers(st, ts, m);
    // The handoff interval also holds the router's own fan-out timelines
    // on a cluster, so only the server-only intervals are summed here.
    m["server.dispatch_p95_us"] =
        ts.stage("dispatch").p95_us + ts.stage("plan").p95_us;
    const auto ops = static_cast<double>(st.ops());
    m["device.busy_share"] = ts.worker_busy;
    m["device.service_p50_us"] = ts.stage("device").p50_us;
    m["device.ops_per_op"] =
        per(static_cast<double>(ts.scheduler_requests) -
                get_or_zero(st.registry, "iosched.coalesced"),
            ops);
    m["reliability.device_ops_per_write"] =
        per(static_cast<double>(reliability_device_ops() - dev0),
            static_cast<double>(st.writes.size()));
    return st;
  }

  ReadBack verify_all() override {
    auto client = cluster_->connect();
    if (!client.ok()) return {0, 1};
    auto token = client->open(kFileName);
    if (!token.ok()) return {0, 1};
    return read_back(regions_, kChunk, [&](auto first, auto n, auto buf) {
      return client->read_records(*token, first, n, buf);
    });
  }

 private:
  /// Reads + writes on the resilient servers' data devices (0 when the
  /// servers carry no reliability layer).
  std::uint64_t reliability_device_ops() {
    std::uint64_t n = 0;
    for (std::size_t s = 0; s < kServers; ++s) {
      for (std::size_t d = 0; d < kDevicesPerServer; ++d) {
        if (pio::FaultyDevice* f = cluster_->data_server(s).faulty(d)) {
          const auto snap = f->counters().snapshot();
          n += snap.reads + snap.writes;
        }
      }
    }
    return n;
  }

  PhaseStats phase(double seconds, std::uint64_t max_ops, bool traced) {
    std::vector<pio::cluster::ClusterClient> sessions;
    std::vector<pio::cluster::ClusterToken> tokens;
    for (std::size_t c = 0; c < kClients; ++c) {
      auto client = traced ? pio::cluster::ClusterClient::connect(
                                 cluster_->metadata(), *transport_)
                           : cluster_->connect();
      auto token = client.ok() ? client->open(kFileName)
                               : pio::Result<pio::cluster::ClusterToken>(
                                     pio::Error(client.error()));
      if (!token.ok()) {
        PhaseStats failed;
        failed.attempted = failed.failed = 1;
        return failed;
      }
      sessions.push_back(std::move(client).take());
      tokens.push_back(*token);
    }
    return run_clients(seconds, max_ops,
                       [&](std::size_t c, const Until& until, PhaseStats& st) {
                         client_loop(sessions[c], tokens[c], regions_[c],
                                     rngs_[c], until, traced, st);
                       });
  }

  void client_loop(pio::cluster::ClusterClient& client,
                   pio::cluster::ClusterToken token, Region& region,
                   OpRng& rng, const Until& until, bool traced,
                   PhaseStats& st) {
    const std::uint64_t n = cfg_.strided_ops ? kView.total_records() : 1;
    const std::uint64_t extent = cfg_.strided_ops ? kView.end_record() : 1;
    std::vector<std::byte> buf(n * kRecordBytes);
    std::vector<std::uint64_t> rel(n);  // region offset of each view record
    for (std::uint64_t issued = 0; until.more(issued); ++issued) {
      pio::StridedSpec spec = kView;
      spec.start_record =
          region.first + rng.below(region.version.size() - extent + 1);
      const bool write = !rng.chance(cfg_.read_share);
      for (std::uint64_t i = 0; i < n; ++i) {
        rel[i] = (cfg_.strided_ops ? spec.record_at(i) : spec.start_record) -
                 region.first;
      }
      if (write) {
        for (std::uint64_t i = 0; i < n; ++i) {
          stamp_record(
              std::span(buf).subspan(i * kRecordBytes, kRecordBytes),
              {region.client, region.first + rel[i],
               region.version[rel[i]] + 1});
        }
      }
      const double cpu0 = traced ? thread_cpu_us() : 0.0;
      const double t0 = now_us();
      Status status;
      if (cfg_.strided_ops) {
        status = write ? client.write_strided(token, spec, buf)
                       : client.read_strided(token, spec, buf);
      } else {
        status = write ? client.write_records(token, spec.start_record, 1, buf)
                       : client.read_records(token, spec.start_record, 1, buf);
      }
      const double done_us = now_us();
      const double us = done_us - t0;
      if (traced) {
        st.lib_cpu_us += thread_cpu_us() - cpu0;
        st.lib_wall_us += us;
      }
      ++st.attempted;
      if (!status.ok()) {
        ++st.failed;
        if (write) {
          for (std::uint64_t r : rel) region.version[r] = kUnknown;
        }
        continue;
      }
      if (write) {
        for (std::uint64_t r : rel) ++region.version[r];
        st.writes.push_back({done_us, us});
      } else {
        bool ok = true;
        for (std::uint64_t i = 0; i < n && ok; ++i) {
          const std::uint32_t v = region.version[rel[i]];
          ok = v == kUnknown ||
               verify_record(
                   std::span(buf).subspan(i * kRecordBytes, kRecordBytes),
                   {region.client, region.first + rel[i], v});
        }
        if (!ok) {
          ++st.failed;
          continue;
        }
        st.reads.push_back({done_us, us});
      }
      st.bytes += n * kRecordBytes;
    }
  }

  const ClusterConfig& cfg_;
  bool traced_;
  std::vector<Region> regions_;
  std::vector<OpRng> rngs_;
  std::unique_ptr<pio::cluster::Cluster> cluster_;
  std::unique_ptr<CountingTransport> transport_;  ///< traced builds only
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool traced) {
  if (name == "server_records") {
    return std::make_unique<ServerRecords>(seed, traced);
  }
  for (const ClusterConfig* cfg : {&kStridedConfig, &kParityConfig}) {
    if (name == cfg->name) {
      return std::make_unique<ClusterWorkload>(*cfg, seed, traced);
    }
  }
  return nullptr;
}

}  // namespace perfbench
