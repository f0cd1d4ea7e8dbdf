// End-to-end benchmark for Aquila: one workload per process.
//
//   aquila_e2e --workload <kv-update-nvme|read-private-pmem|bfs-fits-pmem>
//              --seed <n> [--seconds <s> | --rounds <n>] [--trace 0|1]
//              [--setups <n>] [--spans-out <path>]
//
// Each workload builds its inputs from the seed, sets up (--setups times;
// the median set-up time is reported), then runs closed-loop rounds of
// operations until --seconds of host time have passed (or exactly --rounds
// rounds, the self-check mode). Every output is checked against values the
// benchmark computes without Aquila. The last line of standard output is one
// JSON object: correct / attempted / failed plus the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). README.md lists the
// metrics, the input make-up and reference figures.
//
// The runtime runs with the default Aquila::Options; only geometry is set
// (cache size, host memory sized to it, active cores).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/counting_device.h"
#include "bench/e2e/spans.h"
#include "src/core/aquila.h"
#include "src/graph/bfs.h"
#include "src/graph/graph.h"
#include "src/kvs/kreon_db.h"
#include "src/storage/nvme_device.h"
#include "src/storage/pmem_device.h"

namespace aquila {
namespace e2e {
namespace {

constexpr uint64_t kMiB = 1ull << 20;

// ---------------------------------------------------------------------------
// Inputs. Generated here, independent of the runtime's own generators, so
// the checks below do not trust any Aquila code.

inline uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class Rand {
 public:
  explicit Rand(uint64_t seed) : state_(Mix(seed)) {}
  uint64_t Next() { return Mix(state_++); }
  uint64_t Uniform(uint64_t n) {
    return static_cast<uint64_t>((static_cast<unsigned __int128>(Next()) * n) >> 64);
  }
  double Unit() { return static_cast<double>(Next() >> 11) * (1.0 / (1ull << 53)); }

 private:
  uint64_t state_;
};

// YCSB's scrambled zipfian (theta 0.99): zipfian ranks hashed over the keys
// so the hot set is spread across the key space.
class Zipf {
 public:
  Zipf(uint64_t n, uint64_t seed) : n_(n), rand_(seed) {
    constexpr double kTheta = 0.99;
    double zeta_n = 0;
    for (uint64_t i = 1; i <= n; i++) {
      zeta_n += 1.0 / std::pow(static_cast<double>(i), kTheta);
    }
    double zeta2 = 1.0 + 1.0 / std::pow(2.0, kTheta);
    theta_ = kTheta;
    zeta_n_ = zeta_n;
    alpha_ = 1.0 / (1.0 - kTheta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - kTheta)) /
           (1.0 - zeta2 / zeta_n);
  }

  uint64_t Next() {
    double u = rand_.Unit();
    double uz = u * zeta_n_;
    uint64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < 1.0 + std::pow(0.5, theta_)) {
      rank = 1;
    } else {
      rank = static_cast<uint64_t>(static_cast<double>(n_) *
                                   std::pow(eta_ * u - eta_ + 1.0, alpha_));
    }
    return Mix(rank ^ 0x2545f4914f6cdd1dull) % n_;
  }

 private:
  uint64_t n_;
  Rand rand_;
  double theta_ = 0, zeta_n_ = 0, alpha_ = 0, eta_ = 0;
};

// ---------------------------------------------------------------------------
// Measurement.

double Div(double a, double b) { return b == 0 ? 0.0 : a / b; }

double CyclesPerUs() { return static_cast<double>(GlobalCostModel().cycles_per_us); }

// Log-linear histogram: exact below 1024, then 1024 buckets per power of
// two (0.1% resolution). Fixed size, so the benchmark's memory does not grow
// with the number of operations a run manages.
class LogHistogram {
 public:
  void Record(uint64_t v) {
    counts_[Index(v)]++;
    total_++;
  }

  void Merge(const LogHistogram& other) {
    for (size_t i = 0; i < counts_.size(); i++) {
      counts_[i] += other.counts_[i];
    }
    total_ += other.total_;
  }

  // Nearest-rank quantile, interpolated inside the bucket holding the rank.
  double Quantile(double q) const {
    if (total_ == 0) {
      return 0;
    }
    uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(total_)));
    rank = std::clamp<uint64_t>(rank, 1, total_);
    uint64_t before = 0;
    for (size_t i = 0; i < counts_.size(); i++) {
      if (before + counts_[i] < rank) {
        before += counts_[i];
        continue;
      }
      if (i < kSub) {
        return static_cast<double>(i);
      }
      int shift = static_cast<int>(i / kSub) - 1;
      double low = static_cast<double>((i % kSub + kSub) << shift);
      double width = static_cast<double>(1ull << shift);
      return low + width * (static_cast<double>(rank - before) - 0.5) /
                       static_cast<double>(counts_[i]);
    }
    return 0;
  }

  uint64_t count() const { return total_; }

 private:
  static constexpr int kSubBits = 10;
  static constexpr uint64_t kSub = 1ull << kSubBits;

  static size_t Index(uint64_t v) {
    if (v < kSub) {
      return v;
    }
    int shift = (63 - __builtin_clzll(v)) - kSubBits;
    return (shift + 1) * kSub + ((v >> shift) - kSub);
  }

  std::vector<uint64_t> counts_ = std::vector<uint64_t>((64 - kSubBits + 1) * kSub, 0);
  uint64_t total_ = 0;
};

// What one client thread measured.
struct ThreadStats {
  uint64_t ops = 0;
  uint64_t failed = 0;
  bool correct = true;
  // Busy time inside the calls an op makes, split by whether the op was
  // traced (the tracing-overhead comparison).
  uint64_t sim_cycles[2] = {0, 0};
  int64_t host_ns[2] = {0, 0};
  uint64_t round_ops[2] = {0, 0};
  LogHistogram sim_latency;  // per op, cycles
  CostBreakdown breakdown;   // this thread's charges over the run
  // Traced ops only.
  SpanLog spans;
  LogHistogram access_host_ns;  // host ns per mapped access
  LogHistogram get_sim, put_sim, get_host, put_host, sync_sim, query_host;

  void Record(uint64_t sim, int64_t host, bool traced) {
    ops++;
    sim_cycles[traced] += sim;
    host_ns[traced] += host;
    round_ops[traced]++;
    sim_latency.Record(sim);
  }
};

// Counters read from the runtime's public stats and the device decorator.
struct Counters {
  uint64_t major = 0, minor = 0, upgrades = 0, evicted = 0, writeback = 0, readahead = 0;
  uint64_t sweeps = 0;
  uint64_t fl_core = 0, fl_numa = 0, fl_remote = 0;
  uint64_t tlb_hits = 0, tlb_misses = 0, shootdowns = 0, ipis_sent = 0, ipis_elided = 0;
  uint64_t ipis_received = 0;
  IoCounts io;
};

Counters ReadCounters(Aquila& rt, const CountingDevice& dev) {
  Counters c;
  const FaultStats& f = rt.fault_stats();
  c.major = f.major_faults.load();
  c.minor = f.minor_faults.load();
  c.upgrades = f.write_upgrades.load();
  c.evicted = f.evicted_pages.load();
  c.writeback = f.writeback_pages.load();
  c.readahead = f.readahead_pages.load();
  c.sweeps = rt.cache().stats().clock_sweeps.load();
  const TwoLevelFreelist::Stats& fl = rt.cache().freelist_stats();
  c.fl_core = fl.core_hits.load();
  c.fl_numa = fl.numa_hits.load();
  c.fl_remote = fl.remote_hits.load();
  c.tlb_hits = rt.tlb().hits();
  c.tlb_misses = rt.tlb().misses();
  c.shootdowns = rt.tlb().shootdowns();
  c.ipis_sent = rt.tlb().ipis_sent();
  c.ipis_elided = rt.tlb().ipis_elided();
  // Every fabric send posts to exactly one target core's mailbox, so the
  // fabric's send count is the count of IPIs received.
  c.ipis_received = rt.fabric().TotalSent();
  c.io = dev.counts();
  return c;
}

// Applies `f` field by field; the one place that lists every counter.
template <typename F>
Counters Combine(const Counters& a, const Counters& b, F f) {
  Counters r;
  for (auto field : {&Counters::major, &Counters::minor, &Counters::upgrades,
                     &Counters::evicted, &Counters::writeback, &Counters::readahead,
                     &Counters::sweeps, &Counters::fl_core, &Counters::fl_numa,
                     &Counters::fl_remote, &Counters::tlb_hits, &Counters::tlb_misses,
                     &Counters::shootdowns, &Counters::ipis_sent, &Counters::ipis_elided,
                     &Counters::ipis_received}) {
    r.*field = f(a.*field, b.*field);
  }
  for (auto field : {&IoCounts::reads, &IoCounts::writes, &IoCounts::bytes_read,
                     &IoCounts::bytes_written, &IoCounts::flushes, &IoCounts::queued_ios}) {
    r.io.*field = f(a.io.*field, b.io.*field);
  }
  return r;
}

Counters Delta(const Counters& a, const Counters& b) {
  return Combine(a, b, [](uint64_t x, uint64_t y) { return x - y; });
}

Counters Sum(const Counters& a, const Counters& b) {
  return Combine(a, b, [](uint64_t x, uint64_t y) { return x + y; });
}

// Geometry is the only thing the benchmark sets: the cache's initial size,
// the host memory behind it and the cores that take part in shootdowns.
// Everything else, growth ceiling and eviction batch included, is the
// library default. Host memory is sized to the cache (the cache is its only
// consumer and the benchmark never grows it) rather than the 4 GB default,
// because the hypervisor sizes a memfd to it with ftruncate, which a
// file-size limit below 4 GB turns into SIGXFSZ at start-up.
Aquila::Options Geometry(uint64_t cache_bytes, int active_cores) {
  Aquila::Options options;
  options.cache.capacity_pages = cache_bytes / kPageSize;
  options.hypervisor.host_memory_bytes = AlignUp(cache_bytes, options.hypervisor.chunk_size);
  options.active_cores = active_cores;
  return options;
}

// ---------------------------------------------------------------------------
// Workloads. Each one owns its devices, runtime and inputs; Round() runs
// one round of operations on client thread `t`. With tracing on, every
// other operation is traced, and the parity flips from round to round, so
// traced and untraced operations see the same mix and their difference is
// the tracing overhead.

class Workload {
 public:
  virtual ~Workload() = default;
  virtual int threads() const = 0;
  // Per-thread entry (core pinning, EnterThread).
  virtual void ThreadInit(int t) {}
  virtual void Round(int t, uint64_t round, bool trace, ThreadStats& st) = 0;
  // Checks that need the whole run (recovery); false when an output is wrong.
  virtual bool FinalCheck() { return true; }
  virtual Counters Snapshot() = 0;
  // Charges the client threads took outside any operation (a kv store
  // rebuild), to take away from their own.
  virtual CostBreakdown UntimedCharges() { return {}; }
  // Bytes the application asked to read / write (amplification bases).
  virtual uint64_t app_bytes_read() const { return 0; }
  virtual uint64_t app_bytes_written() const { return 0; }
  // Device bytes the store occupies over the bytes of live data.
  virtual double space_amp() const { return 0; }
  // The quantile reported as the tail (sim_p999_us): p99.9 where a run
  // has at least 10 000 ops, so ten or more lie beyond it.
  virtual double tail_quantile() const { return 0.999; }
};

// --- kv-update-nvme ----------------------------------------------------------
// KreonDb on a raw NVMe mapping, one client thread, YCSB-A: 50% Get / 50%
// update Put over zipfian keys with 1 KB values, an msync (Persist) every
// kSyncEveryPuts puts. The dataset is ten times the cache, so evictions
// carry the dirty pages the updates leave behind.
class KvWorkload : public Workload {
 public:
  // 64 MB of values over a 6 MB cache: most operations touch a page the
  // cache does not hold, so the median op is a fault and about one op in
  // 650 runs a dirty eviction batch — enough that the p99.9 lands among
  // those evictions instead of on the edge between them and the rest.
  static constexpr uint64_t kCacheBytes = 6 * kMiB;
  static constexpr uint64_t kKeys = 65536;
  static constexpr uint64_t kValueBytes = 1024;
  static constexpr uint64_t kRoundOps = 1000;
  static constexpr uint64_t kSyncEveryPuts = 1000;
  // Kreon's value log is append-only (~1.05 KB per record), so no bounded
  // device takes updates forever: after kEpochPuts updates the store is
  // rebuilt from the same load on a fresh device. The rebuild is untimed
  // and its counters and charges are left out of every metric.
  static constexpr uint64_t kEpochPuts = 100000;
  static constexpr uint64_t kDeviceBytes = 256 * kMiB;  // 25% index, 75% log

  explicit KvWorkload(uint64_t seed) : seed_(seed), rand_(seed ^ 0x6b76), zipf_(kKeys, seed) {
    Rebuild();
  }

  int threads() const override { return 1; }

  void Round(int, uint64_t round, bool trace, ThreadStats& st) override {
    SimClock& clock = ThisThreadClock();
    if (epoch_puts_ + kRoundOps > kEpochPuts) {
      CostBreakdown start = clock.Breakdown();
      epoch_space_amp_ = SpaceAmp();
      retired_ = Sum(retired_, Delta(ReadCounters(*rt_, *dev_), mount_base_));
      Unmount();
      Rebuild();
      untimed_ += clock.Breakdown() - start;
    }
    std::string got;
    std::string value(kValueBytes, '\0');
    std::string expect(kValueBytes, '\0');
    for (uint64_t i = 0; i < kRoundOps; i++) {
      bool traced = trace && (round + i) % 2 == 1;
      bool get = rand_.Uniform(2) == 0;
      uint64_t key_id = zipf_.Next();
      uint64_t access0 = traced ? Accesses() : 0;
      uint64_t sim = 0;
      uint64_t sync_sim = 0;  // the msync's share of a put, when one was due
      int64_t host = 0;
      {
        SpanScope op(st.spans, traced, "op", Layer::kBench, clock);
        std::string key = Key(key_id);
        uint64_t sim0 = clock.Now();
        int64_t host0 = HostNs();
        Status s;
        bool found = false;
        if (get) {
          SpanScope call(st.spans, traced, "kvs.get", Layer::kKvs, clock);
          s = db_->Get(Slice(key), &got, &found);
        } else {
          uint64_t version = versions_[key_id] + 1;
          FillValue(key_id, version, value.data());
          {
            SpanScope call(st.spans, traced, "kvs.put", Layer::kKvs, clock);
            s = db_->Put(Slice(key), Slice(value));
          }
          if (s.ok()) {
            versions_[key_id] = version;
            app_written_ += key.size() + kValueBytes;
            if (++epoch_puts_ % kSyncEveryPuts == 0) {
              SpanScope call(st.spans, traced, "kvs.persist", Layer::kKvs, clock);
              uint64_t sync0 = clock.Now();
              s = db_->Persist();
              sync_sim = clock.Now() - sync0;
            }
          }
        }
        sim = clock.Now() - sim0;
        host = HostNs() - host0;
        st.Record(sim, host, traced);
        if (!s.ok()) {
          st.failed++;
        } else if (get) {
          app_read_ += kValueBytes;
          FillValue(key_id, versions_[key_id], expect.data());
          if (!found || got != expect) {
            st.correct = false;
          }
        }
      }
      if (traced) {
        double accesses = static_cast<double>(Accesses() - access0);
        st.access_host_ns.Record(static_cast<uint64_t>(Div(static_cast<double>(host), accesses)));
        if (get) {
          st.get_sim.Record(sim);
          st.get_host.Record(host);
        } else {
          st.put_sim.Record(sim - sync_sim);
          st.put_host.Record(host);
          if (sync_sim > 0) {
            st.sync_sim.Record(sync_sim);
          }
        }
      }
    }
  }

  // Persist, unmount, remount on a fresh runtime and recover; every key
  // must read back the version the shadow map holds.
  bool FinalCheck() override {
    if (!db_->Persist().ok()) {
      return false;
    }
    Unmount();
    Mount(/*load=*/false);
    std::string got;
    std::string expect(kValueBytes, '\0');
    for (uint64_t k = 0; k < kKeys; k++) {
      bool found = false;
      if (!db_->Get(Slice(Key(k)), &got, &found).ok() || !found) {
        return false;
      }
      FillValue(k, versions_[k], expect.data());
      if (got != expect) {
        return false;
      }
    }
    return true;
  }

  Counters Snapshot() override {
    return Sum(retired_, Delta(ReadCounters(*rt_, *dev_), mount_base_));
  }
  CostBreakdown UntimedCharges() override { return untimed_; }
  uint64_t app_bytes_read() const override { return app_read_; }
  uint64_t app_bytes_written() const override { return app_written_; }
  // Taken when a store has absorbed its full kEpochPuts updates, so the
  // figure does not depend on how far the last store got.
  double space_amp() const override { return epoch_space_amp_ > 0 ? epoch_space_amp_ : SpaceAmp(); }

  ~KvWorkload() override { Unmount(); }

 private:
  static std::string Key(uint64_t id) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "user%016" PRIu64, id);
    return buf;
  }

  // A value names its key and version in its first 16 bytes; the rest is a
  // pseudo-random fill derived from both, so any stale or misplaced record
  // fails the comparison.
  void FillValue(uint64_t key_id, uint64_t version, char* out) const {
    std::memcpy(out, &key_id, 8);
    std::memcpy(out + 8, &version, 8);
    uint64_t base = Mix(seed_ ^ Mix(key_id * 0x100000001b3ull + version));
    for (uint64_t w = 2; w < kValueBytes / 8; w++) {
      uint64_t word = Mix(base + w);
      std::memcpy(out + w * 8, &word, 8);
    }
  }

  uint64_t Accesses() const { return rt_->tlb().hits() + rt_->tlb().misses(); }

  double SpaceAmp() const {
    double used = static_cast<double>(db_->log_bytes_used() + db_->index_pages_used() * kPageSize);
    return Div(used, static_cast<double>(kKeys * (Key(0).size() + kValueBytes)));
  }

  // A fresh device and store holding version 0 of every key.
  void Rebuild() {
    dev_.reset();
    nvme_.reset();
    ctrl_.reset();
    NvmeController::Options nvme;
    nvme.capacity_bytes = kDeviceBytes;
    ctrl_ = std::make_unique<NvmeController>(nvme);
    nvme_ = std::make_unique<NvmeDevice>(ctrl_.get());
    dev_ = std::make_unique<CountingDevice>(nvme_.get());
    versions_.assign(kKeys, 0);
    epoch_puts_ = 0;
    Mount(/*load=*/true);
    mount_base_ = ReadCounters(*rt_, *dev_);
  }

  void Mount(bool load) {
    rt_ = std::make_unique<Aquila>(Geometry(kCacheBytes, 1));
    rt_->EnterThread();
    backing_ = std::make_unique<DeviceBacking>(dev_.get(), 0, kDeviceBytes);
    StatusOr<MemoryMap*> map = rt_->Map(backing_.get(), kDeviceBytes, kProtRead | kProtWrite);
    AQUILA_CHECK(map.ok());
    map_ = *map;
    StatusOr<std::unique_ptr<KreonDb>> db = KreonDb::Open(map_, KreonDb::Options{});
    AQUILA_CHECK(db.ok());
    db_ = std::move(*db);
    if (!load) {
      return;
    }
    std::string value(kValueBytes, '\0');
    for (uint64_t k = 0; k < kKeys; k++) {
      FillValue(k, 0, value.data());
      AQUILA_CHECK(db_->Put(Slice(Key(k)), Slice(value)).ok());
    }
    AQUILA_CHECK(db_->Persist().ok());
  }

  void Unmount() {
    if (rt_ == nullptr) {
      return;
    }
    db_.reset();  // persists
    AQUILA_CHECK(rt_->Unmap(map_).ok());
    rt_.reset();
  }

  uint64_t seed_;
  Rand rand_;
  Zipf zipf_;
  std::unique_ptr<NvmeController> ctrl_;
  std::unique_ptr<NvmeDevice> nvme_;
  std::unique_ptr<CountingDevice> dev_;
  std::unique_ptr<Aquila> rt_;
  std::unique_ptr<DeviceBacking> backing_;
  MemoryMap* map_ = nullptr;
  std::unique_ptr<KreonDb> db_;
  std::vector<uint64_t> versions_;  // shadow map: current version per key
  uint64_t epoch_puts_ = 0;
  Counters mount_base_;  // counters when the current store finished loading
  Counters retired_;     // counted by the stores rebuilt so far
  CostBreakdown untimed_;
  double epoch_space_amp_ = 0;
  uint64_t app_read_ = 0;
  uint64_t app_written_ = 0;
};

// --- read-private-pmem -------------------------------------------------------
// Four threads, each reading 8 bytes at uniform random pages of its own
// file on pmem; the files together are 8x the cache, read-only. Set-up
// stamps every word through the device, and each read must return the
// stamp of the word it addressed.
class ReadWorkload : public Workload {
 public:
  static constexpr int kThreads = 4;
  static constexpr uint64_t kCacheBytes = 16 * kMiB;
  static constexpr uint64_t kFileBytes = 32 * kMiB;  // x4 files = 8x the cache
  static constexpr uint64_t kRoundOps = 2000;        // per thread

  explicit ReadWorkload(uint64_t seed) : seed_(seed) {
    PmemDevice::Options pmem;
    pmem.capacity_bytes = kFileBytes * kThreads;
    pmem_ = std::make_unique<PmemDevice>(pmem);
    dev_ = std::make_unique<CountingDevice>(pmem_.get());
    // Stamp through the device, never through a mapping.
    std::vector<uint64_t> chunk(kMiB / 8);
    for (uint64_t off = 0; off < pmem.capacity_bytes; off += kMiB) {
      for (uint64_t w = 0; w < chunk.size(); w++) {
        chunk[w] = Stamp(off / 8 + w);
      }
      AQUILA_CHECK(pmem_->Write(ThisVcpu(), off,
                                std::span(reinterpret_cast<const uint8_t*>(chunk.data()), kMiB))
                       .ok());
    }
    rt_ = std::make_unique<Aquila>(Geometry(kCacheBytes, kThreads));
    rt_->EnterThread();
    for (int t = 0; t < kThreads; t++) {
      backings_.push_back(
          std::make_unique<DeviceBacking>(dev_.get(), static_cast<uint64_t>(t) * kFileBytes,
                                          kFileBytes));
      StatusOr<MemoryMap*> map = rt_->Map(backings_.back().get(), kFileBytes, kProtRead);
      AQUILA_CHECK(map.ok());
      maps_.push_back(*map);
      rands_.emplace_back(seed ^ Mix(0x7265 + t));
    }
    // Fill the cache so the timed phase starts in steady-state eviction.
    std::vector<std::thread> warm;
    for (int t = 0; t < kThreads; t++) {
      warm.emplace_back([this, t] {
        ThreadInit(t);
        Rand r(seed_ ^ Mix(0x7761726d + t));
        uint64_t word;
        for (uint64_t i = 0; i < 2 * kCacheBytes / kPageSize / kThreads; i++) {
          uint64_t off = r.Uniform(kFileBytes / 8) * 8;
          AQUILA_CHECK(maps_[t]->Read(off, std::span(reinterpret_cast<uint8_t*>(&word), 8)).ok());
        }
      });
    }
    for (auto& th : warm) {
      th.join();
    }
  }

  ~ReadWorkload() override {
    for (MemoryMap* map : maps_) {
      AQUILA_CHECK(rt_->Unmap(map).ok());
    }
  }

  int threads() const override { return kThreads; }

  void ThreadInit(int t) override {
    CoreRegistry::SetCurrentCoreForTest(t);
    rt_->EnterThread();
  }

  void Round(int t, uint64_t round, bool trace, ThreadStats& st) override {
    SimClock& clock = ThisThreadClock();
    Rand& rand = rands_[t];
    MemoryMap* map = maps_[t];
    uint64_t base_word = static_cast<uint64_t>(t) * (kFileBytes / 8);
    for (uint64_t i = 0; i < kRoundOps; i++) {
      bool traced = trace && (round + i) % 2 == 1;
      int64_t host = 0;
      {
        SpanScope op(st.spans, traced, "op", Layer::kBench, clock);
        uint64_t page = rand.Uniform(kFileBytes / kPageSize);
        uint64_t word_in_file = page * (kPageSize / 8) + rand.Uniform(kPageSize / 8);
        uint64_t value = 0;
        uint64_t sim0 = clock.Now();
        int64_t host0 = HostNs();
        Status s;
        {
          SpanScope call(st.spans, traced, "core.read", Layer::kCore, clock);
          s = map->Read(word_in_file * 8, std::span(reinterpret_cast<uint8_t*>(&value), 8));
        }
        host = HostNs() - host0;
        st.Record(clock.Now() - sim0, host, traced);
        if (!s.ok()) {
          st.failed++;
        } else if (value != Stamp(base_word + word_in_file)) {
          st.correct = false;
        }
      }
      if (traced) {
        st.access_host_ns.Record(host);
      }
    }
    app_read_.fetch_add(kRoundOps * 8, std::memory_order_relaxed);
  }

  Counters Snapshot() override { return ReadCounters(*rt_, *dev_); }
  uint64_t app_bytes_read() const override { return app_read_.load(std::memory_order_relaxed); }

 private:
  uint64_t Stamp(uint64_t device_word) const { return Mix(seed_ ^ Mix(device_word)); }

  uint64_t seed_;
  std::unique_ptr<PmemDevice> pmem_;
  std::unique_ptr<CountingDevice> dev_;
  std::unique_ptr<Aquila> rt_;
  std::vector<std::unique_ptr<DeviceBacking>> backings_;
  std::vector<MemoryMap*> maps_;
  std::vector<Rand> rands_;
  std::atomic<uint64_t> app_read_{0};
};

// --- bfs-fits-pmem -----------------------------------------------------------
// Ligra BFS queries from seeded roots over an R-MAT graph whose CSR arrays
// sit on a pmem mapping that the cache holds whole; set-up warms it, so the
// timed phase takes no fault, eviction or device I/O. A plain sequential BFS
// over the DRAM adjacency gives each root's depths.
//
// Ligra runs with one worker, the client thread. With four it made no more
// queries per host second on a 4-CPU host, and its host throughput swung by
// a fifth from run to run, since every BFS level needs four free CPUs at
// once.
class BfsWorkload : public Workload {
 public:
  static constexpr uint64_t kVertices = 1ull << 15;
  static constexpr uint64_t kEdgeFactor = 10;  // directed R-MAT edges per vertex
  static constexpr uint64_t kRoundQueries = 16;
  static constexpr uint64_t kGraphSeed = 2021;
  static constexpr uint64_t kCacheBytes = 16 * kMiB;

  explicit BfsWorkload(uint64_t seed) : rand_(seed ^ 0x626673) {
    // One fixed graph; the seed picks the roots. Query cost depends on the
    // graph's shape far more than on the root, so a per-seed graph would
    // make the seed, not the code, decide the figures.
    Rand graph_rand(kGraphSeed);
    std::vector<std::pair<uint64_t, uint64_t>> edges = Rmat(graph_rand);

    BuildReference(edges);

    uint64_t heap_bytes = (kVertices + 1 + adj_.size()) * 8;
    uint64_t map_bytes = (heap_bytes / kPageSize + 64) * kPageSize;
    AQUILA_CHECK(map_bytes * 2 <= kCacheBytes);  // the cache holds the whole heap
    PmemDevice::Options pmem;
    pmem.capacity_bytes = map_bytes;
    pmem_ = std::make_unique<PmemDevice>(pmem);
    dev_ = std::make_unique<CountingDevice>(pmem_.get());
    rt_ = std::make_unique<Aquila>(Geometry(kCacheBytes, 1));
    rt_->EnterThread();
    backing_ = std::make_unique<DeviceBacking>(dev_.get(), 0, map_bytes);
    StatusOr<MemoryMap*> map = rt_->Map(backing_.get(), map_bytes, kProtRead | kProtWrite);
    AQUILA_CHECK(map.ok());
    map_ = *map;
    heap_ = std::make_unique<MmioHeap>(map_);
    graph_ = std::make_unique<Graph>(BuildGraph(kVertices, std::move(edges), heap_.get()));
    AQUILA_CHECK(graph_->num_edges() == adj_.size());
    // Parents stay in DRAM so the output checks add no mapped loads to the
    // layer counters.
    parents_ = std::make_unique<DramWordArray>(kVertices);

    // Queries start from seeded vertices of the giant component (the one
    // holding the highest-degree vertex), a fresh root each time, so a
    // run's figures average over many roots.
    uint64_t hub = 0;
    for (uint64_t v = 1; v < kVertices; v++) {
      if (offsets_[v + 1] - offsets_[v] > offsets_[hub + 1] - offsets_[hub]) {
        hub = v;
      }
    }
    std::vector<int32_t> hub_depth = ReferenceBfs(hub);
    for (uint64_t v = 0; v < kVertices; v++) {
      if (hub_depth[v] >= 0) {
        giant_.push_back(v);
      }
    }
    AQUILA_CHECK(giant_.size() >= kVertices / 4);
    options_.threads = 1;
    // Warm: a few queries fault in the whole heap.
    for (int i = 0; i < 4; i++) {
      Bfs(*graph_, giant_[rand_.Uniform(giant_.size())], parents_.get(), options_);
    }
  }

  ~BfsWorkload() override {
    graph_.reset();
    AQUILA_CHECK(rt_->Unmap(map_).ok());
  }

  int threads() const override { return 1; }

  // A run makes about a thousand queries, so a p99.9 would be its single
  // slowest root. p95 keeps some fifty queries beyond it and, being fixed,
  // does not drift with how many queries the host manages.
  double tail_quantile() const override { return 0.95; }

  void Round(int, uint64_t round, bool trace, ThreadStats& st) override {
    SimClock& clock = ThisThreadClock();
    uint64_t root = 0;
    std::vector<int32_t> depth;
    for (uint64_t i = 0; i < kRoundQueries; i++) {
      bool traced = trace && (round + i) % 2 == 1;
      // Traced runs query each root twice in a row, once traced and once
      // not, so the overhead ratio compares the same traversals.
      if (!trace || i % 2 == 0) {
        root = giant_[rand_.Uniform(giant_.size())];
        depth = ReferenceBfs(root);
      }
      SpanScope op(st.spans, traced, "op", Layer::kBench, clock);
      uint64_t access0 = traced ? Accesses() : 0;
      uint64_t sim0 = clock.Now();
      int64_t host0 = HostNs();
      BfsResult result;
      {
        SpanScope call(st.spans, traced, "graph.bfs", Layer::kGraph, clock);
        result = Bfs(*graph_, root, parents_.get(), options_);
      }
      int64_t host = HostNs() - host0;
      st.Record(clock.Now() - sim0, host, traced);
      if (traced) {
        double accesses = static_cast<double>(Accesses() - access0);
        st.access_host_ns.Record(static_cast<uint64_t>(Div(static_cast<double>(host), accesses)));
        st.query_host.Record(host);
      }
      if (!Check(root, depth, result)) {
        st.correct = false;
      }
    }
  }

  Counters Snapshot() override { return ReadCounters(*rt_, *dev_); }

 private:
  uint64_t Accesses() const { return rt_->tlb().hits() + rt_->tlb().misses(); }

  std::vector<std::pair<uint64_t, uint64_t>> Rmat(Rand& rand) const {
    constexpr double kA = 0.57, kB = 0.19, kC = 0.19;
    int levels = 0;
    while ((1ull << levels) < kVertices) {
      levels++;
    }
    std::vector<std::pair<uint64_t, uint64_t>> edges;
    edges.reserve(kVertices * kEdgeFactor);
    for (uint64_t e = 0; e < kVertices * kEdgeFactor; e++) {
      uint64_t src = 0, dst = 0;
      for (int l = 0; l < levels; l++) {
        // Quadrants a, b, c, d of the adjacency matrix at this level.
        double r = rand.Unit();
        bool src_high = r >= kA + kB;
        bool dst_high = (r >= kA && r < kA + kB) || r >= kA + kB + kC;
        src = (src << 1) | (src_high ? 1 : 0);
        dst = (dst << 1) | (dst_high ? 1 : 0);
      }
      edges.emplace_back(src, dst);
    }
    return edges;
  }

  // Symmetric, deduplicated, loop-free adjacency in DRAM: the graph the
  // benchmark asks Ligra to traverse.
  void BuildReference(const std::vector<std::pair<uint64_t, uint64_t>>& directed) {
    std::vector<std::pair<uint64_t, uint64_t>> sym;
    sym.reserve(directed.size() * 2);
    for (const auto& [a, b] : directed) {
      if (a != b) {
        sym.emplace_back(a, b);
        sym.emplace_back(b, a);
      }
    }
    std::sort(sym.begin(), sym.end());
    sym.erase(std::unique(sym.begin(), sym.end()), sym.end());
    offsets_.assign(kVertices + 1, 0);
    adj_.resize(sym.size());
    for (size_t i = 0; i < sym.size(); i++) {
      offsets_[sym[i].first + 1]++;
      adj_[i] = sym[i].second;
    }
    for (uint64_t v = 0; v < kVertices; v++) {
      offsets_[v + 1] += offsets_[v];
    }
  }

  std::vector<int32_t> ReferenceBfs(uint64_t root) const {
    std::vector<int32_t> depth(kVertices, -1);
    std::vector<uint64_t> queue{root};
    depth[root] = 0;
    for (size_t head = 0; head < queue.size(); head++) {
      uint64_t v = queue[head];
      for (uint64_t e = offsets_[v]; e < offsets_[v + 1]; e++) {
        if (depth[adj_[e]] < 0) {
          depth[adj_[e]] = depth[v] + 1;
          queue.push_back(adj_[e]);
        }
      }
    }
    return depth;
  }

  bool IsEdge(uint64_t a, uint64_t b) const {
    return std::binary_search(adj_.begin() + offsets_[a], adj_.begin() + offsets_[a + 1], b);
  }

  // Same reach as the reference; every reached vertex's parent is a
  // neighbour one level shallower; unreached vertices have no parent.
  bool Check(uint64_t root, const std::vector<int32_t>& depth, const BfsResult& result) const {
    uint64_t reached = std::count_if(depth.begin(), depth.end(), [](int32_t d) { return d >= 0; });
    if (result.reached != reached) {
      return false;
    }
    for (uint64_t v = 0; v < kVertices; v++) {
      uint64_t p = parents_->Get(v);
      if (depth[v] < 0) {
        if (p != ~0ull) {
          return false;
        }
      } else if (v == root) {
        if (p != v) {
          return false;
        }
      } else if (p >= kVertices || depth[p] != depth[v] - 1 || !IsEdge(p, v)) {
        return false;
      }
    }
    return true;
  }

  std::vector<uint64_t> offsets_;
  std::vector<uint64_t> adj_;
  Rand rand_;
  std::vector<uint64_t> giant_;  // the highest-degree vertex's component
  std::unique_ptr<PmemDevice> pmem_;
  std::unique_ptr<CountingDevice> dev_;
  std::unique_ptr<Aquila> rt_;
  std::unique_ptr<DeviceBacking> backing_;
  MemoryMap* map_ = nullptr;
  std::unique_ptr<MmioHeap> heap_;
  std::unique_ptr<Graph> graph_;
  std::unique_ptr<WordArray> parents_;
  LigraOptions options_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "kv-update-nvme") {
    return std::make_unique<KvWorkload>(seed);
  }
  if (name == "read-private-pmem") {
    return std::make_unique<ReadWorkload>(seed);
  }
  if (name == "bfs-fits-pmem") {
    return std::make_unique<BfsWorkload>(seed);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Main.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  uint64_t rounds = 0;  // > 0: exactly this many rounds per thread
  bool trace = false;
  int setups = 3;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      args->workload = v;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(v);
    } else if (flag == "--rounds") {
      args->rounds = std::strtoull(v, nullptr, 10);
    } else if (flag == "--trace") {
      args->trace = std::atoi(v) != 0;
    } else if (flag == "--setups") {
      args->setups = std::max(1, std::atoi(v));
    } else if (flag == "--spans-out") {
      args->spans_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && (args->seconds > 0 || args->rounds > 0);
}

class JsonMetrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      value = 0;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!body_.empty()) {
      body_ += ", ";
    }
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
  }
  const std::string& body() const { return body_; }

 private:
  std::string body_;
};

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Sum over threads of ops / busy time, in kop/s, for traced (1) or
// untraced (0) rounds, or both (-1).
double SimKops(const std::vector<ThreadStats>& stats, int traced) {
  double kops = 0;
  for (const ThreadStats& st : stats) {
    uint64_t ops = traced < 0 ? st.round_ops[0] + st.round_ops[1] : st.round_ops[traced];
    uint64_t cycles = traced < 0 ? st.sim_cycles[0] + st.sim_cycles[1] : st.sim_cycles[traced];
    kops += Div(static_cast<double>(ops), static_cast<double>(cycles) / CyclesPerUs() / 1e3);
  }
  return kops;
}

double HostKops(const std::vector<ThreadStats>& stats, int traced) {
  double kops = 0;
  for (const ThreadStats& st : stats) {
    uint64_t ops = traced < 0 ? st.round_ops[0] + st.round_ops[1] : st.round_ops[traced];
    int64_t ns = traced < 0 ? st.host_ns[0] + st.host_ns[1] : st.host_ns[traced];
    kops += Div(static_cast<double>(ops), static_cast<double>(ns) / 1e6);
  }
  return kops;
}

LogHistogram Merged(const std::vector<ThreadStats>& stats, LogHistogram ThreadStats::*field) {
  LogHistogram all;
  for (const ThreadStats& st : stats) {
    all.Merge(st.*field);
  }
  return all;
}

int Main(int argc, char** argv) {
  CoreRegistry::SetCurrentCoreForTest(0);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: aquila_e2e --workload <name> --seed <n> [--seconds <s> | --rounds <n>] "
                 "[--trace 0|1] [--setups <n>] [--spans-out <path>]\n");
    return 2;
  }

  // Set up --setups times and keep the last; the median is reported so a
  // slow first touch of the allocator does not decide the figure.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  for (int i = 0; i < args.setups; i++) {
    workload.reset();
    int64_t t0 = HostNs();
    workload = MakeWorkload(args.workload, args.seed);
    if (workload == nullptr) {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    setup_s.push_back(static_cast<double>(HostNs() - t0) / 1e9);
  }

  // Timed phase: closed-loop rounds on each client thread.
  int threads = workload->threads();
  std::vector<ThreadStats> stats(threads);
  Counters before = workload->Snapshot();
  CostBreakdown untimed_before = workload->UntimedCharges();
  int64_t deadline = HostNs() + static_cast<int64_t>(args.seconds * 1e9);
  auto body = [&](int t) {
    if (threads > 1) {
      workload->ThreadInit(t);
    }
    ThreadStats& st = stats[t];
    CostBreakdown start = ThisThreadClock().Breakdown();
    for (uint64_t round = 0;; round++) {
      if (args.rounds > 0 ? round >= args.rounds : HostNs() >= deadline) {
        break;
      }
      workload->Round(t, round, args.trace, st);
    }
    st.breakdown = ThisThreadClock().Breakdown() - start;
  };
  if (threads == 1) {
    body(0);
  } else {
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; t++) {
      pool.emplace_back(body, t);
    }
    for (auto& th : pool) {
      th.join();
    }
  }
  Counters d = Delta(workload->Snapshot(), before);
  CostBreakdown cycles;
  for (const ThreadStats& st : stats) {
    cycles += st.breakdown;
  }
  cycles = cycles - (workload->UntimedCharges() - untimed_before);

  uint64_t ops = 0, failed = 0;
  bool correct = true;
  for (const ThreadStats& st : stats) {
    ops += st.ops;
    failed += st.failed;
    correct = correct && st.correct;
  }
  double app_read = static_cast<double>(workload->app_bytes_read());
  double app_written = static_cast<double>(workload->app_bytes_written());
  double space_amp = workload->space_amp();
  correct = workload->FinalCheck() && correct;

  JsonMetrics m;
  if (!args.trace) {
    std::vector<double> sorted(setup_s);
    std::sort(sorted.begin(), sorted.end());
    m.Add("setup_s", sorted[sorted.size() / 2], "s");
    m.Add("sim_kops", SimKops(stats, -1), "kop/s");
    LogHistogram latency = Merged(stats, &ThreadStats::sim_latency);
    m.Add("sim_p50_us", latency.Quantile(0.50) / CyclesPerUs(), "us");
    m.Add("sim_p999_us", latency.Quantile(workload->tail_quantile()) / CyclesPerUs(), "us");
    m.Add("host_kops", HostKops(stats, -1), "kop/s");
    m.Add("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    double n = static_cast<double>(ops);
    double kop = n / 1e3;
    auto per_op = [&](CostCategory c) { return Div(static_cast<double>(cycles[c]), n); };
    // core
    m.Add("core.major_faults_per_kop", Div(d.major, kop), "1/kop");
    m.Add("core.minor_faults_per_kop", Div(d.minor, kop), "1/kop");
    m.Add("core.write_upgrades_per_kop", Div(d.upgrades, kop), "1/kop");
    m.Add("core.readahead_pages_per_kop", Div(d.readahead, kop), "1/kop");
    m.Add("core.trap_cycles_per_op", per_op(CostCategory::kTrap), "cycles");
    m.Add("core.wait_cycles_per_op", per_op(CostCategory::kIdle), "cycles");
    m.Add("core.access_host_ns_p50", Merged(stats, &ThreadStats::access_host_ns).Quantile(0.5),
          "ns");
    m.Add("core.sync_sim_us_p50",
          Merged(stats, &ThreadStats::sync_sim).Quantile(0.5) / CyclesPerUs(), "us");
    // cache
    m.Add("cache.mgmt_cycles_per_op", per_op(CostCategory::kCacheMgmt), "cycles");
    m.Add("cache.dirty_cycles_per_op", per_op(CostCategory::kDirtyTracking), "cycles");
    // Mapped accesses served without a device read (each access does one
    // TLB lookup; PageCache's own lookups run only on the fault path).
    m.Add("cache.hit_ratio", 1.0 - Div(d.major, d.tlb_hits + d.tlb_misses), "ratio");
    m.Add("cache.evicted_pages_per_kop", Div(d.evicted, kop), "1/kop");
    m.Add("cache.sweeps_per_evicted", Div(d.sweeps, d.evicted), "ratio");
    m.Add("cache.writeback_pages_per_kop", Div(d.writeback, kop), "1/kop");
    m.Add("cache.freelist_remote_ratio",
          Div(d.fl_remote, d.fl_core + d.fl_numa + d.fl_remote), "ratio");
    // mem
    m.Add("mem.page_table_cycles_per_op", per_op(CostCategory::kPageTable), "cycles");
    m.Add("mem.shootdown_cycles_per_op", per_op(CostCategory::kTlbShootdown), "cycles");
    m.Add("mem.tlb_miss_ratio", Div(d.tlb_misses, d.tlb_hits + d.tlb_misses), "ratio");
    m.Add("mem.shootdowns_per_kop", Div(d.shootdowns, kop), "1/kop");
    m.Add("mem.ipis_sent_per_kop", Div(d.ipis_sent, kop), "1/kop");
    m.Add("mem.ipi_elide_ratio", Div(d.ipis_elided, d.ipis_sent + d.ipis_elided), "ratio");
    // vmx
    m.Add("vmx.vmexit_cycles_per_op", per_op(CostCategory::kVmExit), "cycles");
    m.Add("vmx.ipis_received_per_kop", Div(d.ipis_received, kop), "1/kop");
    // storage (counted at the benchmark's device decorator)
    m.Add("storage.device_cycles_per_op", per_op(CostCategory::kDeviceIo), "cycles");
    m.Add("storage.memcpy_cycles_per_op", per_op(CostCategory::kMemcpy), "cycles");
    m.Add("storage.reads_per_kop", Div(d.io.reads, kop), "1/kop");
    m.Add("storage.writes_per_kop", Div(d.io.writes, kop), "1/kop");
    m.Add("storage.flushes_per_kop", Div(d.io.flushes, kop), "1/kop");
    m.Add("storage.read_amp", Div(d.io.bytes_read, app_read), "ratio");
    m.Add("storage.write_amp", Div(d.io.bytes_written, app_written), "ratio");
    m.Add("storage.queued_io_ratio", Div(d.io.queued_ios, d.io.reads + d.io.writes), "ratio");
    // kvs
    m.Add("kvs.get_sim_us_p50",
          Merged(stats, &ThreadStats::get_sim).Quantile(0.5) / CyclesPerUs(), "us");
    m.Add("kvs.put_sim_us_p50",
          Merged(stats, &ThreadStats::put_sim).Quantile(0.5) / CyclesPerUs(), "us");
    m.Add("kvs.get_host_ns_p50", Merged(stats, &ThreadStats::get_host).Quantile(0.5), "ns");
    m.Add("kvs.put_host_ns_p50", Merged(stats, &ThreadStats::put_host).Quantile(0.5), "ns");
    m.Add("kvs.space_amp", space_amp, "ratio");
    // graph
    m.Add("graph.user_cycles_per_op", per_op(CostCategory::kUserWork), "cycles");
    m.Add("graph.query_host_ms_p50", Merged(stats, &ThreadStats::query_host).Quantile(0.5) / 1e6,
          "ms");
    // Self time per layer over traced ops, from the spans.
    uint64_t traced_ops = 0;
    for (const ThreadStats& st : stats) {
      traced_ops += st.round_ops[1];
    }
    for (Layer layer : {Layer::kBench, Layer::kKvs, Layer::kCore, Layer::kGraph}) {
      int64_t sim = 0, host = 0;
      for (const ThreadStats& st : stats) {
        sim += st.spans.self(layer).sim_cycles;
        host += st.spans.self(layer).host_ns;
      }
      std::string prefix = std::string("self.") + LayerName(layer);
      m.Add(prefix + "_sim_us_per_op",
            Div(static_cast<double>(sim) / CyclesPerUs(), static_cast<double>(traced_ops)), "us");
      m.Add(prefix + "_host_us_per_op",
            Div(static_cast<double>(host) / 1e3, static_cast<double>(traced_ops)), "us");
    }
    // Tracing overhead: untraced over traced throughput (1 = free).
    m.Add("trace.sim_overhead_ratio", Div(SimKops(stats, 0), SimKops(stats, 1)), "ratio");
    m.Add("trace.host_overhead_ratio", Div(HostKops(stats, 0), HostKops(stats, 1)), "ratio");
    if (!args.spans_out.empty()) {
      // The span file is a sample for inspection; no metric reads it, so a
      // write that fails (full disk, file-size limit) is reported, not fatal.
      std::signal(SIGXFSZ, SIG_IGN);
      std::FILE* out = std::fopen(args.spans_out.c_str(), "w");
      bool written = out != nullptr;
      uint64_t recorded = 0, dropped = 0;
      for (int t = 0; t < threads; t++) {
        if (written) {
          written = stats[t].spans.WriteJsonLines(out, t);
        }
        recorded += stats[t].spans.recorded();
        dropped += stats[t].spans.dropped();
      }
      if (out != nullptr && std::fclose(out) != 0) {
        written = false;
      }
      if (written) {
        std::fprintf(stderr, "spans: %" PRIu64 " recorded, %" PRIu64 " written to %s\n",
                     recorded, recorded - dropped, args.spans_out.c_str());
      } else {
        std::fprintf(stderr, "spans: %" PRIu64 " recorded; writing %s failed: %s\n", recorded,
                     args.spans_out.c_str(), std::strerror(errno));
      }
    }
  }

  // Counters the self-check compares between two same-seed runs; printed
  // on their own line so the result line keeps its four keys.
  std::printf("counters: {\"major_faults\": %" PRIu64 ", \"writeback_pages\": %" PRIu64
              ", \"device_reads\": %" PRIu64 ", \"device_writes\": %" PRIu64 "}\n",
              d.major, d.writeback, d.io.reads, d.io.writes);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", ops, failed, m.body().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace e2e
}  // namespace aquila

int main(int argc, char** argv) { return aquila::e2e::Main(argc, argv); }
